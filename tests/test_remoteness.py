import pytest

from localic import (
    REGISTRY, GenSpec, MixedFrames, RemoteContext, bl_context,
    boolean_frame, booleanization, chain_frame, checks_in_scope,
    closed_subl, dense_context, enumerate_sublocales, nd_join, registry,
    subl_join, supplement, void_subl, whole_context, whole_subl,
)
from localic.frame import FiniteFrame, bits, popcount
from localic.generators import (
    all_posets, build_corpus, downset_frame, gen_dense_sublocales, gen_frames,
)
from localic.registry import (
    CHECKS, FAIL, PASS, check_downward_closure, check_opendensefrom,
    check_rem_s_intersection,
)
from localic import sublocale
from localic.sublocale import s_nowhere_dense_sublocales

from oracles import remote_scan


def all_contexts(frame):
    return [RemoteContext(frame, s) for s in enumerate_sublocales(frame)
            if s.is_dense()]


def test_remote_set_c3(c3):
    ctx = whole_context(c3)
    got = {tuple(sorted(t.labels())) for t in ctx.remote_set()}
    assert got == {("2",), ("0", "2")}


def test_remote_set_c3_oracle_first(c3):
    # the oracle path (the point-space closure of S minus Iso(S)) is primary
    ctx = whole_context(c3)
    oracle = {t.mask for t in ctx.remote_set(oracle=True)}
    fast = {t.mask for t in ctx.remote_set()}
    assert oracle == {
        1 << c3.top,
        (1 << c3.top) | (1 << c3.bottom),
    }
    assert fast == oracle


def test_rs_c3(c3):
    ctx = whole_context(c3)
    assert ctx.rs() == booleanization(c3)


def test_star_rs_bl_context_c3(c3):
    ctx = bl_context(c3)
    assert ctx.star_rs() == closed_subl(c3, 1)


def test_everything_remote_from_bl(c3, c4, b2):
    for f in (c3, c4, b2):
        ctx = bl_context(f)
        for t in enumerate_sublocales(f):
            assert ctx.is_remote_from(t, oracle=True)


def _star_remote(ctx, t, oracle):
    """*remote, straight from the definition: remote and inside L minus S."""
    return t <= supplement(ctx.frame, ctx.s) and ctx.is_remote_from(t, oracle)


def test_fast_and_oracle_agree(tier1_frames):
    for f in tier1_frames:
        for ctx in all_contexts(f):
            star = ctx.star()
            for t in enumerate_sublocales(f):
                assert ctx.is_remote_from(t) == ctx.is_remote_from(
                    t, oracle=True)
                for oracle in (False, True):
                    assert star.is_remote_from(t, oracle) \
                        == _star_remote(ctx, t, oracle), ctx.subject()
            for c in (ctx, star):
                assert c.rs() == c.rs(oracle=True), ctx.subject()
                assert c.rmt_elements() == c.rmt_elements(oracle=True)
            # Rs is a span on both routes; the joins of the scanned remote
            # sets are its references
            rs = subl_join([void_subl(f)] + remote_scan(ctx, oracle=True))
            assert ctx.rs(oracle=True) == rs, ctx.subject()
            star_rs = subl_join([void_subl(f)] + [
                t for t in enumerate_sublocales(f)
                if _star_remote(ctx, t, oracle=True)])
            assert star.rs() == star_rs == ctx.star_rs(oracle=True)


def test_family_inclusion_is_mask_inclusion(tier1_frames):
    # the reference for the mask tests of the checks: one remote family
    # lies inside another iff the other's miss mask lies inside its own
    for f in tier1_frames:
        ctxs = [whole_context(f)] + [c for ctx in all_contexts(f)
                                     for c in (ctx, ctx.star())]
        for oracle in (False, True):
            fams = [{t.mask for t in remote_scan(c, oracle)} for c in ctxs]
            masks = [c.miss_points(oracle) for c in ctxs]
            for a, fam_a, m_a in zip(ctxs, fams, masks):
                for b, fam_b, m_b in zip(ctxs, fams, masks):
                    assert (fam_a <= fam_b) == (m_b & ~m_a == 0), \
                        (a.subject(), a.within, b.subject(), b.within, oracle)


def test_mask_checks_scan_no_sublocales(monkeypatch, tier1_frames):
    # the family statements are decided on point masks, Rs on both routes
    # is a span, and opendensefrom, remS and every diagram check look at
    # O and the one-point sublocales only; the corpus lists its dense
    # sublocales by point set and re-checks none.  So nothing but BLandL4
    # lists S(L).  The tier-1 contexts are listed before it is refused.
    contexts = [c for f in tier1_frames for c in all_contexts(f)]

    def refuse(*args, **kwargs):
        raise AssertionError("scanned S(L)")

    monkeypatch.setattr(sublocale, "enumerate_sublocales", refuse)
    monkeypatch.setattr(sublocale, "is_sublocale", refuse)
    monkeypatch.setattr(registry, "enumerate_sublocales", refuse)
    monkeypatch.setattr(RemoteContext, "remote_set", refuse)
    corpus = build_corpus(GenSpec("all-posets-up-to", 3))
    insts = {"frame": tier1_frames, "context": contexts,
             **{scope: corpus[scope]
                for scope in ("square", "chain", "triangle")}}
    for cid, check in REGISTRY.items():
        if cid == "BLandL4":
            continue
        for inst in insts[check.scope]:
            assert check.runner(inst).verdict != FAIL, (cid, inst.subject())


def test_remote_set_spans_points_of_rs(monkeypatch, tier1_frames):
    # remote_set lists the sublocales below Rs by their point sets, so it
    # equals the scan with the enumeration and the subset filter refused
    contexts = [c for f in tier1_frames for ctx in all_contexts(f)
                for c in (ctx, ctx.star())]
    scans = [[[t.mask for t in remote_scan(c, oracle)]
              for oracle in (False, True)] for c in contexts]

    def refuse(*args, **kwargs):
        raise AssertionError("scanned S(L)")

    monkeypatch.setattr(sublocale, "enumerate_sublocales", refuse)
    monkeypatch.setattr(sublocale, "is_sublocale", refuse)
    for c, scan in zip(contexts, scans):
        got = [[t.mask for t in c.remote_set(oracle)]
               for oracle in (False, True)]
        assert got == scan, (c.subject(), c.within)


def test_four_predicates_agree(tier1_frames):
    for f in tier1_frames:
        for ctx in all_contexts(f):
            for t in enumerate_sublocales(f):
                for c, oracle in ((ctx, ctx.pred_nwd_oracle(t)),
                                  (ctx.star(), _star_remote(ctx, t, True))):
                    votes = [c.pred_nwd_oracle(t), c.is_remote_from(t),
                             c.pred_open_subset(t), c.pred_nucleus_top(t)]
                    assert votes == [oracle] * 4, (ctx.subject(), t)


def test_point_space_oracle_matches_induced_frame_enumeration():
    # two oracles that share no code: van Douwen's closure on pt(L) and the
    # closures of the S-nowhere dense sublocales enumerated inside S
    frames = (gen_frames(GenSpec("all-posets-up-to", 5))
              + [chain_frame(n) for n in range(1, 11)] + [boolean_frame(3)])
    for f in frames:
        subs = enumerate_sublocales(f)
        for ctx in all_contexts(f):
            closures = [n.closure().mask
                        for n in s_nowhere_dense_sublocales(ctx.s)]
            for c in (ctx, ctx.star()):
                for t in subs:
                    expected = t <= c.within and all(
                        t.mask & m == 1 << f.top for m in closures)
                    assert c.pred_nwd_oracle(t) == expected, \
                        (c.subject(), c.within, t)


def test_routes_agree_above_the_enumeration_cap():
    # every dense S of the 140 six-point posets' frames with 17 to 64
    # elements, which the suite's families leave out: the two routes give
    # one miss mask, and the four predicates agree on O and on every
    # one-point sublocale, so on every sublocale
    frames = [f for f in (downset_frame(6, rel) for rel in all_posets(6))
              if f.n > 16]
    assert len(frames) == 140 and max(f.n for f in frames) == 64
    seen = 0
    for f in frames:
        for s in gen_dense_sublocales(f):
            ctx = RemoteContext(f, s)
            for c in (ctx, ctx.star()):
                assert c.miss_points() == c.miss_points(oracle=True), \
                    (c.subject(), c.within)
                assert check_opendensefrom(c) is None, (c.subject(), c.within)
                seen += 1
    assert seen == 3102


def test_miss_mask_closed_form():
    # on every dense S of every frame of all posets up to 5 points, plain
    # and *remote, on both routes: the miss mask is the points above a
    # non-minimal point of S, and the points outside W
    seen = 0
    for f in gen_frames(GenSpec("all-posets-up-to", 5)):
        pts = f.points_mask()
        for s in gen_dense_sublocales(f):
            above = 0
            for p in bits(s.mask & pts & ~f.min_points()):
                above |= f.up[p]
            ctx = RemoteContext(f, s)
            for c in (ctx, ctx.star()):
                want = above & pts | pts & ~c.within.mask
                for oracle in (False, True):
                    assert c.miss_points(oracle) == want, \
                        (c.subject(), c.within, oracle)
                    seen += 1
    assert seen == 4 * 593


class _OnePointContext(RemoteContext):
    """'Remote' means exactly one point: not closed under going down."""

    def is_remote_from(self, t, oracle=False):
        return popcount(t.mask & self.frame.points_mask()) == 1


def _scan_opendensefrom(ctx):
    """opendensefrom voting on every sublocale, not only the points."""
    for t in enumerate_sublocales(ctx.frame):
        votes = (ctx.pred_nwd_oracle(t), ctx.is_remote_from(t),
                 ctx.pred_open_subset(t), ctx.pred_nucleus_top(t))
        if len(set(votes)) != 1:
            return f"T={sorted(t.labels())} predicates={votes}"
    return None


def _scan_rem_s(ctx):
    """remS comparing the two families as sets of sublocale masks."""
    sub, elems = ctx.s.as_frame()
    rhs = set()
    for t in remote_scan(whole_context(sub), oracle=True):
        mask = 0
        for i in t.members():
            mask |= 1 << elems[i]
        rhs.add(mask)
    lhs = {t.mask for t in enumerate_sublocales(ctx.frame)
           if t.mask & ~ctx.s.mask == 0 and ctx.is_remote_from(t)}
    if lhs != rhs:
        return f"masks differ on {sorted(lhs ^ rhs)}"
    return None


class _DenseOfLContext(RemoteContext):
    """The fast route's mask taken as every dense point of L, not only those
    above a dense member of S: still a point mask, but a wrong one."""

    def __init__(self, frame, dense_subl, within=None):
        super().__init__(frame, dense_subl, within)
        self._miss_mask = frame.points_mask() & frame.dense_elements_mask()


def test_pointwise_context_checks_match_scans(tier1_frames):
    # on every tier-1 context, its *remote context and a copy with a wrong
    # fast-route mask, the check fails iff its scan of S(L) does
    outcomes = set()
    for f in tier1_frames:
        for ctx in all_contexts(f):
            for c in (ctx, ctx.star(), _DenseOfLContext(f, ctx.s)):
                for cid, scan in (("opendensefrom", _scan_opendensefrom),
                                  ("remS", _scan_rem_s)):
                    failed = REGISTRY[cid].runner(c).verdict == FAIL
                    assert failed == (scan(c) is not None), \
                        (cid, c.subject(), c.within)
                    outcomes.add((cid, failed))
    assert len(outcomes) == 4, outcomes


def test_rem_s_runs_beyond_256_sublocales():
    ctx = whole_context(chain_frame(10))
    assert len(enumerate_sublocales(ctx.frame)) == 512
    assert check_rem_s_intersection(ctx) is None


def test_downward_closure_catches_non_down_closed_predicate(b2):
    ctx = _OnePointContext(b2, whole_subl(b2))
    # O below one point
    assert check_downward_closure(ctx) == "A=['3'] B=['1', '3']"
    assert check_downward_closure(whole_context(b2)) is None


def test_contexts_are_kept_per_frame_and_s():
    # one context per frame and dense S, built on first use
    f = chain_frame(3)
    assert f._contexts is None
    whole = whole_context(f)
    assert whole is dense_context(f, whole_subl(f)) is whole_context(f)
    assert bl_context(f) is dense_context(f, booleanization(f))
    assert bl_context(f) is not whole
    assert whole.rmt_elements() is whole.rmt_elements()
    with pytest.raises(MixedFrames):
        dense_context(f, whole_subl(chain_frame(3)))


def test_unkept_values_match_their_old_forms(tier1_frames):
    # the oracle Rmt set read off the oracle mask is the set of a with
    # c(a) remote by the oracle predicate; Rs and Nd(S), computed on each
    # call, are the values of a fresh context; L minus cl(Nd(S)), spanned
    # by the points not above the meet of Nd(S)'s points, is the
    # supplement of Nd(S)'s closure
    for f in tier1_frames:
        for s in gen_dense_sublocales(f):
            ctx = dense_context(f, s)
            for c in (ctx, ctx.star()):
                assert c.rmt_elements(oracle=True) == {
                    a for a in range(f.n)
                    if c.pred_nwd_oracle(closed_subl(f, a))}
                assert c.nd_remainder()[1] == supplement(
                    f, nd_join(f, c.s).closure())
            fresh = RemoteContext(f, s)
            for oracle in (False, True):
                assert ctx.rs(oracle) == fresh.rs(oracle)
                assert ctx.star_rs(oracle) == fresh.star_rs(oracle)
            assert ctx.nd_remainder() == fresh.nd_remainder()


def test_rmt_c3(c3):
    assert whole_context(c3).rmt_elements() == {c3.top}
    assert bl_context(c3).rmt_elements() == {0, 1, 2}


def test_star_remote_requires_supplement(c3):
    ctx = bl_context(c3)
    assert ctx.within.is_whole()
    star = ctx.star()
    assert star is ctx.star() and star.within == closed_subl(c3, 1)
    # L is remote from BL but not *remote (not inside L minus BL)
    assert ctx.is_remote_from(whole_subl(c3))
    assert not star.is_remote_from(whole_subl(c3))
    assert star.is_remote_from(closed_subl(c3, 1))


def test_void_always_remote(tier1_frames):
    for f in tier1_frames:
        for ctx in all_contexts(f):
            assert ctx.is_remote_from(void_subl(f), oracle=True)


def test_context_checks_pass_on_tier1(tier1_frames):
    for f in tier1_frames:
        for ctx in all_contexts(f):
            for check in checks_in_scope("context"):
                r = check.runner(ctx)
                assert r.verdict != FAIL, (r.check_id, r.subject, r.witness)


def test_frame_checks_pass_on_tier1(tier1_frames):
    for f in tier1_frames:
        for check in checks_in_scope("frame"):
            r = check.runner(f)
            assert r.verdict == PASS, (check.id, r.subject, r.witness)


@pytest.mark.parametrize("cid, owner, name", [
    ("obsremotefrom", FiniteFrame, "is_boolean"),
    ("obsremotefromstar", registry, "is_dense_in_itself"),
], ids=["obsremotefrom", "obsremotefromstar"])
def test_frame_equivalences_fail_with_a_witness(monkeypatch, c3, b2,
                                                cid, owner, name):
    # one side of the equivalence answers wrongly, so the check must fail
    # and say what both sides were
    right = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda f: not right(f))
    for f in (c3, b2):
        r = REGISTRY[cid].runner(f)
        assert r.verdict == FAIL and r.witness, (cid, f.name)


def test_s_is_bl_equivalence_witnesses(c3):
    # BL is remote from itself; L is not remote from BL-distinct dense S
    bl = bl_context(c3)
    assert bl.is_remote_from(booleanization(c3))
    whole = whole_context(c3)
    assert not whole.is_remote_from(whole_subl(c3))   # C3 is not Boolean


def test_remote_from_l_means_remote_everywhere(tier1_frames):
    for f in tier1_frames:
        whole = whole_context(f)
        remote_l = [t for t in enumerate_sublocales(f)
                    if whole.is_remote_from(t)]
        for ctx in all_contexts(f):
            for t in remote_l:
                assert ctx.is_remote_from(t, oracle=True)


def test_check_ids_cover_registry_scopes():
    assert set(CHECKS["context"]) == {
        "opendensefrom", "BLandL1", "BLandL4", "NDSremotefrom", "remotesets",
        "SRemandSRemLS", "remS", "sublocale", "rareequality", "BLisremote",
        "SisBL", "SRemLemma", "RsBL", "RsNd"}
    assert set(CHECKS["frame"]) == {
        "rempropBL", "rempropBLstar", "Lislarge", "RsDense",
        "obsremotefrom", "obsremotefromstar"}
