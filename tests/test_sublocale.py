import random

import pytest

from localic import (
    InvalidSublocale, Sublocale, boolean_frame, booleanization, chain_frame,
    closed_subl, enumerate_sublocales, is_dense_in_itself, is_nowhere_dense,
    is_rare, is_sublocale, nd_join, nucleus_map, open_subl, subl_join,
    subl_meet, supplement, void_subl, whole_subl,
)
from localic.frame import bits
from localic.sublocale import (
    nd_join_oracle, s_nowhere_dense_sublocales, span, sublocales_below,
)

from oracles import (
    enumerate_sublocales_oracle, is_sublocale_by_definition, join_is_whole,
    s_dense_elements,
)


def test_sublocale_counts(c3, c4):
    assert len(enumerate_sublocales(c3)) == 4
    assert len(enumerate_sublocales(c4)) == 8


def test_chain_sublocales_are_all_top_subsets(c4):
    # in a chain every subset containing the top is a sublocale
    masks = {s.mask for s in enumerate_sublocales(c4)}
    top_bit = 1 << c4.top
    assert masks == {m | top_bit for m in range(1 << (c4.n - 1))}


def _masks(subs):
    return [s.mask for s in subs]


def test_enumeration_matches_subset_filter(tier1_frames):
    # spans of point sets against the brute-force subset filter, on every
    # tier-1 frame and on the induced frame of each of its sublocales
    for f in tier1_frames:
        subs = enumerate_sublocales(f)
        assert _masks(subs) == _masks(enumerate_sublocales_oracle(f)), f
        for s in subs:
            sub, _ = s.as_frame()
            assert _masks(enumerate_sublocales(sub)) \
                == _masks(enumerate_sublocales_oracle(sub)), sub


def test_sublocales_below_match_subset_filter(tier1_frames):
    # the spans of S's point sets are the filtered subsets inside S
    for f in tier1_frames:
        every = enumerate_sublocales_oracle(f)
        for s in every:
            assert _masks(sublocales_below(s)) \
                == _masks(t for t in every if t <= s), (f, s)


def _span_by_meets(frame, pts):
    """The meet rule: a is in span(Q) iff a is the meet of Q above a."""
    return sum(1 << a for a in range(frame.n)
               if frame.meet_of(bits(pts & frame.up[a])) == a)


def _point_sets(frame, rng, draws):
    """Every point set of the frame, or ``draws`` seeded ones if given."""
    pts = list(bits(frame.points_mask()))
    if draws is None:
        for k in range(1 << len(pts)):
            yield sum(1 << p for i, p in enumerate(pts) if k >> i & 1)
        return
    for _ in range(draws):
        yield sum(1 << p for p in pts if rng.random() < 0.5)


def test_span_by_minimal_points_matches_meet_rule(tier1_frames):
    # the minimal-points table against the meet rule it replaced
    rng = random.Random(0)
    cases = [(f, None) for f in tier1_frames]
    cases += [(chain_frame(16), 2000), (boolean_frame(4), 2000)]
    for f, draws in cases:
        for q in _point_sets(f, rng, draws):
            assert span(f, q) == _span_by_meets(f, q), (f, q)


def test_span_table_is_built_on_first_use():
    # a frame is built without the table; the first span fills it
    f = chain_frame(5)
    assert f._min_pts is None
    assert span(f, 0) == 1 << f.top
    assert f._min_pts is not None


def test_boolean_sublocales_are_closed(b2):
    subs = enumerate_sublocales(b2)
    assert len(subs) == b2.n
    assert {s.mask for s in subs} == {b2.up[a] for a in range(b2.n)}


def test_is_sublocale_rejects(c3):
    assert not is_sublocale(c3, [0, 1])          # missing top
    assert is_sublocale(c3, [0, 2])
    assert is_sublocale(c3, [0, 1, 2])
    with pytest.raises(InvalidSublocale):
        Sublocale.of(c3, [0, 1])
    # a member outside the frame: no sublocale, and the error names it
    for members, bad in (([2, 5], 5), ([-1, 2], -1)):
        assert not is_sublocale(c3, members)
        with pytest.raises(InvalidSublocale, match=f"^{bad} is not an"):
            Sublocale.of(c3, members)
    assert not is_sublocale(c3, 0b1100) and not is_sublocale(c3, -1)


def test_is_sublocale_matches_the_definition(tier1_frames):
    # the span test against the three closure conditions, on every mask
    # of every tier-1 frame
    masks = 0
    for f in tier1_frames:
        verdicts = [is_sublocale(f, m) for m in range(1 << f.n)]
        assert verdicts == [is_sublocale_by_definition(f, m)
                            for m in range(1 << f.n)], f
        masks += len(verdicts)
    assert masks == 74_766


def test_closed_open_are_complements(tier1_frames):
    for f in tier1_frames:
        for a in range(f.n):
            c = closed_subl(f, a)
            o = open_subl(f, a)
            assert subl_meet([c, o]).is_void()
            assert subl_join([c, o]).is_whole()


def test_booleanization_c3(c3):
    bl = booleanization(c3)
    assert sorted(bl.labels()) == ["0", "2"]
    assert bl.is_dense()


def test_booleanization_is_least_dense(tier1_frames):
    for f in tier1_frames:
        bl = booleanization(f)
        for s in enumerate_sublocales(f):
            if s.is_dense():
                assert bl <= s


def test_supplement_of_bl_c3(c3):
    # computed by intersecting all join-covers, matches o(0) = c(m)
    supp = supplement(c3, booleanization(c3))
    assert sorted(supp.labels()) == ["1", "2"]
    assert supp == closed_subl(c3, 1)


def test_supplement_joins_back(tier1_frames):
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            t = supplement(f, s)
            assert join_is_whole(f, s.mask, t.mask)


def test_supplement_is_least(tier1_frames):
    for f in tier1_frames:
        subs = enumerate_sublocales(f)
        for s in subs:
            t = supplement(f, s)
            for cand in subs:
                if join_is_whole(f, s.mask, cand.mask):
                    assert t <= cand


def test_closure_and_density(c3):
    s = Sublocale.of(c3, [0, 2])
    assert s.closure().is_whole()
    assert s.is_dense()
    assert not closed_subl(c3, 1).is_dense()


def test_nowhere_dense_iff_min_dense(tier1_frames):
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            assert is_nowhere_dense(f, s) == f.is_dense_element(s.min_element())


def test_min_element_is_the_meet_of_the_points(tier1_frames):
    # against the meet of every member, on every sublocale
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            assert s.min_element() == f.meet_of(s.members()), (f, s)


def test_nucleus_map(c3):
    s = booleanization(c3)
    assert nucleus_map(s, 0) == 0
    assert nucleus_map(s, 1) == 2
    assert nucleus_map(s, 2) == 2


def test_nucleus_laws(tier1_frames):
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            for a in range(f.n):
                na = nucleus_map(s, a)
                assert f.leq(a, na)
                assert nucleus_map(s, na) == na
                for b in range(a, f.n):
                    m = f.meet(a, b)
                    assert nucleus_map(s, m) == f.meet(
                        nucleus_map(s, a), nucleus_map(s, b))


def test_nd_join_values(c3, c4):
    assert sorted(nd_join(c3, whole_subl(c3)).labels()) == ["1", "2"]
    assert sorted(nd_join(c4, whole_subl(c4)).labels()) == ["1", "2", "3"]


def test_nd_join_matches_oracle(tier1_frames):
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            if s.is_dense():
                assert nd_join(f, s) == nd_join_oracle(f, s)


def test_induced_frame_agrees_with_ambient_filter(tier1_frames):
    # S(S) computed inside the induced frame equals {T in S(L) : T <= S}
    for f in tier1_frames:
        if f.n > 8:
            continue
        for s in enumerate_sublocales(f):
            sub, elems = s.as_frame()
            inner = set()
            for t in enumerate_sublocales(sub):
                mask = 0
                for i in t.members():
                    mask |= 1 << elems[i]
                inner.add(mask)
            outer = {t.mask for t in enumerate_sublocales(f)
                     if t.mask & ~s.mask == 0}
            assert inner == outer


def test_s_dense_elements_of_dense_sublocale(tier1_frames):
    # for dense S the S-dense members are exactly the ambient-dense members
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            if not s.is_dense():
                continue
            fast = {x for x in s.members() if f.is_dense_element(x)}
            assert set(s_dense_elements(s)) == fast


def test_s_nowhere_dense_closure_is_closed_in_ambient(c4):
    s = whole_subl(c4)
    for n in s_nowhere_dense_sublocales(s):
        assert n.closure().mask == c4.up[n.min_element()]


def test_rare_and_dense_in_itself(c3):
    assert not is_rare(c3, booleanization(c3))
    assert not is_dense_in_itself(c3)
    one = chain_frame(1)
    assert is_dense_in_itself(one)


def test_coframe_distributive_law(tier1_frames):
    # meets distribute over binary joins in S(L)
    for f in tier1_frames:
        subs = enumerate_sublocales(f)
        if len(subs) > 12:
            subs = subs[:: max(1, len(subs) // 12)]
        for s in subs:
            for t in subs:
                for u in subs:
                    lhs = subl_meet([s, subl_join([t, u])])
                    rhs = subl_join([subl_meet([s, t]), subl_meet([s, u])])
                    assert lhs == rhs


def test_void_and_whole(c3):
    assert void_subl(c3).is_void()
    assert whole_subl(c3).is_whole()
    assert len(void_subl(c3)) == 1
