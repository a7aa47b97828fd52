from collections import Counter

import pytest

from localic import (
    REGISTRY, DenseSquare, GenSpec, InvalidSquare, RemoteContext,
    SquareChain, Sublocale, Triangle, booleanization, build_map, chain_frame,
    checks_in_scope, dense_context, diagrams, enumerate_sublocales,
    identity_map, registry, void_subl, whole_context, whole_subl,
)
from localic.diagrams import (
    is_complemented_subl, is_f_remote_preserving,
    is_f_star_remote_preserving, takes_remainder,
)
from localic.generators import (
    build_corpus, gen_chains, gen_frames, gen_squares, gen_triangles,
    inclusion_map, restriction_map, square_from,
)
from localic.registry import (
    CHECKS, FAIL, HYPOTHESES_NOT_MET, PASS, _plain, _plain_then_star,
    _runner, _star, check_tfg3,
)

from oracles import (
    dropped_hypotheses, identity_square, remote_scan, square_verdicts,
)


@pytest.fixture(scope="module")
def small_frames():
    return [f for f in gen_frames(GenSpec("all-posets-up-to", 3)) if f.n <= 8]


@pytest.fixture(scope="module")
def squares(small_frames):
    return gen_squares(small_frames)[:60]


# (pass, hypotheses-not-met, fail) of each square check on the 1,559
# squares over the frames of posets with at most 3 points
SQUARE_SPACE_TALLIES = {
    "beta": (797, 762, 0), "beta1": (1206, 353, 0),
    "beta1star": (628, 931, 0), "betastar": (490, 1069, 0),
    "for": (1206, 353, 0), "for1": (85, 1474, 0), "for1star": (104, 1455, 0),
    "forstar": (628, 931, 0), "gammapreservationlemma": (1559, 0, 0),
    "gammaremotepreserving": (1289, 270, 0),
    "remotepreservation": (1289, 270, 0),
    "stargammaremotepreserving": (1289, 270, 0),
}


def test_square_space_tallies_are_pinned(square_space):
    squares = square_space()
    tally = Counter((c.id, c.runner(sq).verdict)
                    for c in checks_in_scope("square") for sq in squares)
    assert {cid: (tally[cid, PASS], tally[cid, HYPOTHESES_NOT_MET],
                  tally[cid, FAIL])
            for cid in CHECKS["square"]} == SQUARE_SPACE_TALLIES
    # where the adjoints commute, f-remote and f-*remote preservation
    # each hold on some squares and fail on others
    commuting = [sq for sq in squares if sq.adjoints_commute()]
    assert {is_f_remote_preserving(sq) for sq in commuting} == {True, False}
    assert {is_f_star_remote_preserving(sq)
            for sq in commuting} == {True, False}


# Per (square check, hypothesis): on the 1,559 squares, how many make that
# hypothesis false and the others true, and the first of them on which the
# conclusion fails, by subject and witness (None where none fails).
_P21 = "P2-1->P2-1 f=0.1.2; S={01,o} T={0,01,o}"
_P33 = "P3-3->P2-1 f=0.0.1.2; S={0,012,o} T={01,o}"
_P20 = "P2-0->P2-1 f=0.0.1.2; S={0,01,1,o} T={0,01,o}"
DROPPED_HYPOTHESES = {
    ("beta", "g_star_skeletal"):
        (492, ("P1-0->P2-1 f=1.2; S={0,o} T={0,01,o}", "A=['0', 'o']")),
    ("beta", "commuting_adjoints"): (235, (_P21, "A=['0', '01']")),
    ("betastar", "g_star_skeletal"):
        (330, ("P2-1->P3-3 f=1.2.3; S={01,o} T={0,012,o}", "A=['0', '01']")),
    ("betastar", "commuting_adjoints"):
        (28, ("P2-1->P3-3 f=0.2.3; S={01,o} T={0,012,o}", "A=['0', '01']")),
    ("betastar", "takes_remainder"):
        (307, ("P2-1->P1-0 f=0.0.1; S={01,o} T={0,o}", "A=['0', '01']")),
    ("beta1", "g_skeletal"):
        (353, ("P2-1->P1-0 f=0.0.1; S={0,01,o} T={0,o}", "A=['0', '01']")),
    ("beta1star", "g_skeletal"): (221, (_P33, "A=['01', '012']")),
    # S(M) is Boolean, so omega[T] always has a complement
    ("beta1star", "omega_complemented"): (0, None),
    ("beta1star", "pulls_omega_to_alpha"): (578, None),
    ("for", "g_skeletal"):
        (353, ("P2-1->P1-0 f=0.0.1; S={0,01,o} T={0,o}", "A=['0', 'o']")),
    ("forstar", "g_skeletal"): (221, (_P33, "A=['0', '01']")),
    ("forstar", "omega_complemented"): (0, None),
    ("forstar", "pulls_omega_to_alpha"): (578, None),
    ("for1", "g_star_skeletal"): (54, (_P20, "A=['0', '01']")),
    ("for1", "commuting_adjoints"): (48, (_P21, "A=['0', '01']")),
    ("for1", "image_onto"):
        (712, ("P0-0->P1-0 f=1; S={o} T={0,o}", "A=['0', 'o'] (star part)")),
    ("for1star", "g_star_skeletal"): (61, (_P20, "x=o")),
    ("for1star", "closure_style"):
        (928, ("P0-0->P1-0 f=1; S={o} T={0,o}", "x=o (star part)")),
    ("gammaremotepreserving", "commuting_adjoints"):
        (270, (_P21, "faces=(False, True, False, False)")),
    ("stargammaremotepreserving", "commuting_adjoints"): (270, None),
    ("remotepreservation", "commuting_adjoints"):
        (270, (_P21, "f-remote-preserving=False g-preserves-remote=True")),
}


def test_each_square_hypothesis_is_pinned(square_space):
    # 16 of the 21 hypotheses are needed on 3-point squares; of the other
    # five, two are never false and three fail on no square (README)
    assert dropped_hypotheses(square_space()) == DROPPED_HYPOTHESES
    assert sum(first is not None
               for _, first in DROPPED_HYPOTHESES.values()) == 16


def test_a_skeletal_g_keeps_the_miss_masks(square_space):
    # the lemma that makes pulls_omega_to_alpha redundant for beta1star and
    # forstar on finite frames (proof in registry._beta1 and _for): with
    # phi f's point map, Q and R the points of alpha[S] and omega[T], and
    # M_Q and M_R the miss masks of (L, alpha[S]) and (M, omega[T]), a
    # skeletal g gives phi[M_Q] <= M_R and phi[M_Q | Q] <= M_R | R, the
    # second pair being the masks of the star contexts.  The first holds
    # only if g is skeletal: a point of S that g moves to a minimal point
    # goes to a minimal point of M, which M_R misses
    skeletal = unpulled = 0
    for sq in square_space():
        q = sq.alpha_image.mask & sq.l_frame.points_mask()
        r = sq.omega_image.mask & sq.m_frame.points_mask()
        is_skeletal = sq.g.is_skeletal()
        skeletal += is_skeletal
        unpulled += is_skeletal and not registry.pulls_omega_to_alpha(sq)
        for oracle in (False, True):
            m_q = sq.ctx_l().miss_points(oracle)
            m_r = sq.ctx_m().miss_points(oracle)
            assert sq.ctx_l().star().miss_points(oracle) == m_q | q
            assert sq.ctx_m().star().miss_points(oracle) == m_r | r
            inside = sq.f.point_image(m_q) & ~m_r == 0
            assert inside == is_skeletal, sq
            if is_skeletal:
                assert sq.f.point_image(m_q | q) & ~(m_r | r) == 0, sq
    assert (skeletal, unpulled) == (1206, 578)


def test_identity_square_passes_everything(c3):
    sq = identity_square(c3, booleanization(c3))
    for check in checks_in_scope("square"):
        r = check.runner(sq)
        assert r.verdict != FAIL, (check.id, r.witness)


def test_square_requires_commuting(c3):
    c2 = chain_frame(2)
    # verticals must start at the top row's frames
    with pytest.raises(InvalidSquare):
        DenseSquare(identity_map(c3), identity_map(c3),
                    identity_map(c2), identity_map(c3))
    # commutation is checked on every point: f sends both points of C3 to
    # 0, so f o id and id o id agree at the point 0 and differ at m
    f = build_map(c3, c3, [0, 0, 2])
    id3 = identity_map(c3)
    with pytest.raises(InvalidSquare, match="not commute at element 1$"):
        DenseSquare(id3, f, id3, id3)


def test_square_requires_injective_verticals(c3):
    # a non-injective vertical (collapsing map) is rejected
    from localic import build_map
    collapse = build_map(c3, chain_frame(2), [0, 0, 1])
    with pytest.raises(InvalidSquare):
        DenseSquare(identity_map(c3), identity_map(chain_frame(2)),
                    collapse, collapse)


def test_takes_remainder_identity(c3):
    sq = identity_square(c3, whole_subl(c3))
    assert takes_remainder(sq)
    sq_bl = identity_square(c3, booleanization(c3))
    assert takes_remainder(sq_bl)


def test_remote_preserving_identity(c3):
    sq = identity_square(c3, booleanization(c3))
    assert is_f_remote_preserving(sq)
    assert is_f_star_remote_preserving(sq)


def test_is_complemented_subl(c3, b2):
    from localic import closed_subl, open_subl, subl_join, subl_meet
    assert is_complemented_subl(c3, closed_subl(c3, 1))
    assert is_complemented_subl(c3, booleanization(c3))
    for a in range(b2.n):
        assert is_complemented_subl(b2, closed_subl(b2, a))
    # closed and open at the same element witness each other's complement
    c, o = closed_subl(c3, 1), open_subl(c3, 1)
    assert subl_meet([c, o]).is_void() and subl_join([c, o]).is_whole()


def test_square_checks_never_fail(squares):
    for sq in squares:
        for check in checks_in_scope("square"):
            r = check.runner(sq)
            assert r.verdict != FAIL, (r.check_id, r.subject, r.witness)


def test_square_checks_sometimes_apply(squares):
    seen = {cid: 0 for cid in CHECKS["square"]}
    for sq in squares:
        for cid in CHECKS["square"]:
            if REGISTRY[cid].runner(sq).verdict == PASS:
                seen[cid] += 1
    assert all(v > 0 for v in seen.values()), seen


def test_chain_checks(squares):
    chains = gen_chains(squares[:20])[:40]
    assert chains
    for chain in chains:
        for check in checks_in_scope("chain"):
            r = check.runner(chain)
            assert r.verdict != FAIL, (check.id, r.subject, r.witness)


class _RejectAll(RemoteContext):
    """A context in which nothing is remote, by predicate and by miss mask;
    its star() is one too."""

    def is_remote_from(self, t, oracle=False):
        return False

    def miss_points(self, oracle=False):
        return self.frame.points_mask()

    def rs(self, oracle=False):
        # the join of no remote sublocale
        return void_subl(self.frame)


class _Rejecting(DenseSquare):
    """A copy of a square whose source ("l") or target ("m") context
    rejects all."""

    __slots__ = ("_side", "_reject")

    def __init__(self, sq: DenseSquare, side: str):
        super().__init__(sq.g, sq.f, sq.alpha, sq.omega)
        frame, s = ((sq.l_frame, sq.alpha_image) if side == "l"
                    else (sq.m_frame, sq.omega_image))
        self._side = side
        self._reject = _RejectAll(frame, s)

    def ctx_l(self):
        return self._reject if self._side == "l" else super().ctx_l()

    def ctx_m(self):
        return self._reject if self._side == "m" else super().ctx_m()


def _rejecting_chain(c: SquareChain) -> SquareChain:
    """A copy of c whose outer source context rejects every sublocale."""
    return SquareChain(_Rejecting(c.outer, "l"), c.upper.alpha,
                       c.upper.omega, c.upper.f, c.lower.alpha,
                       c.lower.omega)


# the side whose context the conclusion of each check asks about
_CONCLUSION_SIDE = {"beta": "m", "betastar": "m", "beta1": "l",
                    "beta1star": "l", "for": "l", "forstar": "l",
                    "for1": "m", "gammapreservationlemma": "l"}


def test_preservation_bodies_are_not_vacuous(squares):
    # whenever the hypotheses hold, a conclusion context that rejects every
    # sublocale must turn the verdict into a failure with a witness
    hits = dict.fromkeys(_CONCLUSION_SIDE, 0)
    for sq in squares:
        for cid, side in _CONCLUSION_SIDE.items():
            fn = REGISTRY[cid].runner
            if fn(sq).verdict == HYPOTHESES_NOT_MET:
                continue
            r = fn(_Rejecting(sq, side))
            assert r.verdict == FAIL and r.witness, (cid, r.subject)
            hits[cid] += 1
    assert all(hits.values()), hits
    chains = gen_chains(squares[:20])[:40]
    assert chains
    for c in chains:
        for cid in ("bvl", "starbvl"):
            r = REGISTRY[cid].runner(_rejecting_chain(c))
            assert r.verdict == FAIL and r.witness, r.subject


def test_kept_values_stay_on_their_instance(squares):
    # a square keeps one value, whether its adjoints commute; its contexts
    # are its frames' own, one per (frame, S)
    for sq in squares:
        kept = sq.adjoints_commute()
        copy = DenseSquare(sq.g, sq.f, sq.alpha, sq.omega)
        assert copy._commute is None and copy.adjoints_commute() == kept
        assert copy.ctx_l() is sq.ctx_l() is dense_context(
            sq.l_frame, sq.alpha_image)
        assert copy.ctx_m() is sq.ctx_m() is dense_context(
            sq.m_frame, sq.omega_image)
        assert (sq.ctx_l().frame, sq.ctx_l().s) == (sq.l_frame, sq.alpha_image)
        assert (sq.ctx_m().frame, sq.ctx_m().s) == (sq.m_frame, sq.omega_image)
    # a copy whose target context rejects all answers for itself alone:
    # L's minimal points are remote, and no image is remote in the copy
    preserving = [sq for sq in squares
                  if is_f_remote_preserving(sq) and sq.l_frame.min_points()]
    assert preserving
    for sq in preserving:
        assert not is_f_remote_preserving(_Rejecting(sq, "m"))
        assert is_f_remote_preserving(sq)
    chains = gen_chains(squares[:20])[:40]
    assert chains
    for c in chains:
        for check in checks_in_scope("chain"):
            check.runner(c)
        copy = _rejecting_chain(c)
        # the copy's source context rejects all: nothing to map, so the
        # outer square preserves, and bvl and starbvl fail on O
        assert is_f_remote_preserving(copy.outer)
        for cid in ("bvl", "starbvl"):
            assert REGISTRY[cid].runner(c).verdict == PASS, c.subject()
            assert REGISTRY[cid].runner(copy).verdict == FAIL, c.subject()


def test_chain_inner_square(squares):
    # the upper square g over phi sits on the lower square phi over f
    chains = gen_chains(squares[:10])[:10]
    assert chains
    for chain in chains:
        assert chain.upper.g is chain.outer.g
        assert chain.lower.f is chain.outer.f
        assert chain.upper.f is chain.lower.g


def test_chain_rejects_each_broken_composite(c3, c4):
    # both squares commute, but the pasted verticals miss one outer vertical
    c2 = chain_frame(2)
    e1, e2 = build_map(c3, c4, [0, 1, 3]), build_map(c3, c4, [0, 2, 3])
    id2, id3, id4 = identity_map(c2), identity_map(c3), identity_map(c4)
    # theta o i = e1 but alpha = e2; sigma o k = e1 = omega
    f = build_map(c4, c4, [0, 1, 1, 3])
    outer = DenseSquare(id3, f, e2, e1)
    with pytest.raises(InvalidSquare, match="alpha != theta o i"):
        SquareChain(outer, id3, id3, id3, e1, e1)
    # g misses element 1 of C3, where k = e1 and omega = e2 differ
    g = build_map(c2, c3, [0, 2])
    f = build_map(c2, c4, [0, 3])   # phi is f too: R = L = S = C2, U = M
    outer = DenseSquare(g, f, id2, e2)
    with pytest.raises(InvalidSquare, match="omega != sigma o k"):
        SquareChain(outer, id2, e1, f, id2, id4)


def test_triangle_checks(small_frames):
    tris = gen_triangles(small_frames[:4])[:40]
    assert tris
    for tri in tris:
        for check in checks_in_scope("triangle"):
            r = check.runner(tri)
            assert r.verdict != FAIL, (check.id, r.subject, r.witness)


def test_triangle_rejects_mismatched_middle(c3):
    sq1 = identity_square(c3, whole_subl(c3))
    sq2 = identity_square(c3, booleanization(c3))
    with pytest.raises(InvalidSquare):
        Triangle(sq1, sq2)


def test_triangle_rejects_disagreeing_middle_vertical(c3, c4):
    # the squares share the middle column's frames, C3 over C4, but the
    # first's omega and the second's alpha are two embeddings
    e1, e2 = build_map(c3, c4, [0, 1, 3]), build_map(c3, c4, [0, 2, 3])
    id3, id4 = identity_map(c3), identity_map(c4)
    sq1 = DenseSquare(id3, e1, id3, e1)
    sq2 = DenseSquare(id3, id4, e2, e2)
    with pytest.raises(InvalidSquare, match="disagree on the middle"):
        Triangle(sq1, sq2)
    # one embedding on both sides is accepted
    assert Triangle(sq1, DenseSquare(id3, id4, e1, e1)).sq3.f.table == e1.table


def test_triangle_composite(c3):
    sq = identity_square(c3, booleanization(c3))
    tri = Triangle(sq, sq)
    assert tri.sq3.f.table == sq.f.table
    assert tri.sq3.l_frame is c3


def test_equal_sublocales_build_the_same_diagrams(c3, c4):
    # a sublocale is its frame and mask: copies of S give the same induced
    # frame and inclusion, so diagrams built from them fit together
    ident = identity_map(c3)
    tri = Triangle(square_from(ident, booleanization(c3), booleanization(c3)),
                   square_from(ident, booleanization(c3), booleanization(c3)))
    assert tri.sq3.s_frame is tri.sq1.s_frame
    s = booleanization(c3)
    sq = DenseSquare(restriction_map(ident, s, s), ident,
                     inclusion_map(booleanization(c3)), inclusion_map(s))
    assert sq.alpha_image == s
    # a chain whose middle layer R = U = {0,1,3} of C4 is built anew for
    # each of its five maps
    ident = identity_map(c4)
    bl = booleanization(c4)
    outer = square_from(ident, Sublocale(c4, bl.mask), Sublocale(c4, bl.mask))

    def r():
        return Sublocale(c4, 0b1011)

    chain = SquareChain(
        outer, restriction_map(outer.alpha, whole_subl(outer.s_frame), r()),
        restriction_map(outer.omega, whole_subl(outer.t_frame), r()),
        restriction_map(ident, r(), r()), inclusion_map(r()),
        inclusion_map(r()))
    assert chain.lower.alpha_image == chain.lower.omega_image == r()


def test_square_space_rebuilds_from_copies(square_space):
    # every 3-point square, rebuilt over fresh Sublocale objects for S and
    # T, builds and gets the same 12 square-check rows
    checks = checks_in_scope("square")
    assert len(checks) == 12
    for sq in square_space():
        copy = square_from(sq.f, Sublocale(sq.l_frame, sq.alpha_image.mask),
                           Sublocale(sq.m_frame, sq.omega_image.mask))
        assert copy is not None, sq.subject()
        assert [(c.runner(copy).verdict, c.runner(copy).witness)
                for c in checks] == [(c.runner(sq).verdict,
                                      c.runner(sq).witness)
                                     for c in checks], sq.subject()


def test_square_from_rejects_non_dense(c3):
    from localic import closed_subl
    assert square_from(identity_map(c3), closed_subl(c3, 1),
                       whole_subl(c3)) is None


def test_subjects_distinct(squares):
    subjects = [sq.subject() for sq in squares]
    assert len(subjects) == len(set(subjects))


def test_check_id_sets():
    assert set(CHECKS["square"]) == {
        "beta", "betastar", "beta1", "beta1star", "for", "forstar",
        "for1", "for1star", "gammaremotepreserving",
        "stargammaremotepreserving", "gammapreservationlemma",
        "remotepreservation"}
    assert set(CHECKS["chain"]) == {
        "bvl", "starbvl", "gfremote", "obsfremote", "starobsgfremote"}
    assert set(CHECKS["triangle"]) == {"tfg-1", "tfg-2", "tfg-3"}


# -- S(L)-scanning references for the pointwise quantifiers -----------------
# The bodies below scan every sublocale (or the whole remote set); the
# checks, which try only O and the one-point sublocales, must agree.

def _scan_image_witness(f, src, dst):
    for a in remote_scan(src):
        if not dst.is_remote_from(f.image_subl(a)):
            return f"A={sorted(a.labels())}"
    return None


def _scan_preserves(f, src, dst):
    # each image is judged by dst's miss mask, as _preserves judges it: a
    # rejecting context refuses O only through is_remote_from
    return all(f.image_subl(a).mask & dst.miss_points() == 0
               for a in remote_scan(src))


def _scan_beta1(sq, ctx_l, ctx_m):
    for a in enumerate_sublocales(sq.l_frame):
        if ctx_m.is_remote_from(sq.f.image_subl(a)) \
                and not ctx_l.is_remote_from(a):
            return f"A={sorted(a.labels())}"
    rmt_l = ctx_l.rmt_elements()
    rmt_m = ctx_m.rmt_elements()
    for x in range(sq.l_frame.n):
        if sq.f(x) in rmt_m and x not in rmt_l:
            return f"x={sq.l_frame.labels[x]} (Rmt part)"
    return None


def _scan_for(sq, ctx_l, ctx_m):
    for a in remote_scan(ctx_m):
        if not ctx_l.is_remote_from(sq.f.preimage_subl(a)):
            return f"A={sorted(a.labels())}"
    rmt_l = ctx_l.rmt_elements()
    for x in ctx_m.rmt_elements():
        if sq.f.adjoint(x) not in rmt_l:
            return f"x={sq.m_frame.labels[x]} (Rmt part)"
    return None


def _scan_for1(sq, ctx_l, ctx_m):
    for a in enumerate_sublocales(sq.m_frame):
        if ctx_l.is_remote_from(sq.f.preimage_subl(a)) \
                and not ctx_m.is_remote_from(a):
            return f"A={sorted(a.labels())}"
    return None


def _scan_gamma_preservation_lemma(sq):
    s_ctx = whole_context(sq.s_frame)
    ctx_l = sq.ctx_l()
    for a in enumerate_sublocales(sq.s_frame):
        if s_ctx.is_remote_from(a) \
                != ctx_l.is_remote_from(sq.alpha.image_subl(a)):
            return f"A={sorted(a.labels())} (part 1)"
    for a in remote_scan(ctx_l):
        if not s_ctx.is_remote_from(sq.alpha.preimage_subl(a)):
            return f"A={sorted(a.labels())} (part 2)"
    return None


def _scan_middle_remote_in_first_image(tri):
    bound = tri.sq1.f.image_subl(booleanization(tri.sq1.l_frame))
    return all(a <= bound for a in remote_scan(tri.sq2.ctx_l()))


# every other diagram check reaches a scan through _image_witness or
# _preserves
_SCANNING = {
    "beta1": (CHECKS["square"]["beta1"][0], _plain(_scan_beta1)),
    "beta1star": (CHECKS["square"]["beta1star"][0], _star(_scan_beta1)),
    "for": (CHECKS["square"]["for"][0], _plain(_scan_for)),
    "forstar": (CHECKS["square"]["forstar"][0], _star(_scan_for)),
    "for1": (CHECKS["square"]["for1"][0], _plain_then_star(_scan_for1)),
    "gammapreservationlemma": ((), _scan_gamma_preservation_lemma),
    "tfg-3": ((CHECKS["triangle"]["tfg-3"][0][0],
               _scan_middle_remote_in_first_image), check_tfg3),
}


def _posets3_diagrams():
    """The posets3 suite diagrams, each also with rejecting contexts."""
    corpus = build_corpus(GenSpec("all-posets-up-to", 3))
    squares, chains, tris = (corpus["square"], corpus["chain"],
                             corpus["triangle"])
    return {
        "square": squares + [_Rejecting(sq, side)
                             for sq in squares for side in "lm"],
        "chain": chains + [_rejecting_chain(c) for c in chains],
        "triangle": tris + [Triangle(_Rejecting(t.sq1, side),
                                     _Rejecting(t.sq2, side))
                            for t in tris for side in "lm"],
    }


def test_pointwise_quantifiers_match_scans(monkeypatch):
    # O and the one-point sublocales decide every "for all A" statement:
    # the same verdict as scanning all of S(L), instance by instance.  Each
    # pass builds its own diagrams, so no value kept on an instance by the
    # first pass answers for the second.
    def verdicts(table):
        return {(cid, i): _runner(cid, *table[cid])(inst).verdict
                for scope, insts in _posets3_diagrams().items()
                for cid in (c.id for c in checks_in_scope(scope))
                for i, inst in enumerate(insts)}

    tables = {**CHECKS["square"], **CHECKS["chain"], **CHECKS["triangle"]}
    pointwise = verdicts(tables)
    monkeypatch.setattr(registry, "_image_witness", _scan_image_witness)
    monkeypatch.setattr(diagrams, "_preserves", _scan_preserves)
    scanned = verdicts({**tables, **_SCANNING})
    assert pointwise == scanned, sorted(
        k for k in pointwise if pointwise[k] != scanned[k])[:5]
    # the rejecting copies make every checked statement fail somewhere
    failed = {cid for (cid, _), v in pointwise.items() if v == FAIL}
    assert failed >= set(_CONCLUSION_SIDE) | {"bvl", "starbvl"}, failed


def test_square_space_properties_match_their_references(square_space):
    # the map properties and square hypotheses decided by point masks, and
    # the two kept on element tables, against their references in
    # tests/oracles.py, on every square and all four of its maps
    seen, wrong = set(), []
    for sq in square_space():
        for prop, (got, want) in square_verdicts(sq).items():
            seen.add((prop, want))
            if got != want:
                wrong.append((prop, sq.subject()))
    assert not wrong, wrong[:5]
    # each reference answers both ways somewhere, except that a vertical,
    # the inclusion of a dense sublocale, and its adjoint are skeletal
    one_way = {prop for prop, want in seen if (prop, not want) not in seen}
    assert one_way == {f"{v}.{prop}" for v in ("alpha", "omega")
                       for prop in ("is_skeletal", "adjoint_is_skeletal")}


def test_square_space_runner_on_two_points(capsys):
    # the offline runner of tests/square_space.py, on the 36 squares over
    # the frames of posets with at most 2 points
    import square_space as runner
    assert runner.main(["2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("36 squares, 0 disagreements in ")
    assert len(out) == 1 + len(DROPPED_HYPOTHESES)
