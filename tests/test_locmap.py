import itertools

import pytest

from localic import (
    AdjointNotFrameHom, LocalicError, MixedFrames, NotMeetPreserving,
    Sublocale,
    booleanization, build_map, chain_frame, closed_subl, compose,
    enumerate_sublocales, identity_map, is_sublocale, open_subl, void_subl,
    whole_subl,
)
from localic.frame import bits
from localic.generators import gen_maps, inclusion_map
from localic.sublocale import span

from oracles import enumerate_sublocales_oracle, table_is_surjective


@pytest.fixture(scope="module")
def small_maps(tier1_frames):
    """A few localic maps between each pair of small tier-1 frames."""
    small = [f for f in tier1_frames if f.n <= 6]
    return [m for src in small for tgt in small
            for m in gen_maps(src, tgt, limit=3)]


def test_identity_map(c3):
    f = identity_map(c3)
    assert f.table == (0, 1, 2)
    assert f.adjoint_table == (0, 1, 2)
    assert f.is_skeletal() and f.is_weakly_closed_adjoint()


def test_build_map_c3_to_c2(c3):
    c2 = chain_frame(2)
    f = build_map(c3, c2, [0, 0, 1])
    # the adjoint is the frame homomorphism y -> meet{x : y <= f(x)}
    assert f.adjoint(0) == 0
    assert f.adjoint(1) == 2


def test_build_map_b2_to_c2(b2):
    c2 = chain_frame(2)
    # collapse everything below the top to 0
    table = [0] * b2.n
    table[b2.top] = 1
    f = build_map(b2, c2, table)
    assert f.adjoint(1) == b2.top
    assert f.adjoint(0) == b2.bottom


def test_build_map_rejects_non_meet_preserving(c3):
    c2 = chain_frame(2)
    with pytest.raises(NotMeetPreserving):
        build_map(c3, c2, [0, 1, 0])     # does not send top to top
    with pytest.raises(NotMeetPreserving):
        build_map(c3, c2, [1, 0, 1])


def test_build_map_rejects_a_table_of_the_wrong_length(c3):
    c2 = chain_frame(2)
    for table in ([0, 1], [0, 0, 0, 1]):
        with pytest.raises(NotMeetPreserving, match="wrong length"):
            build_map(c3, c2, table)


def test_maps_refuse_sublocales_and_maps_of_other_frames(c3, c4):
    f = build_map(c3, c4, [0, 1, 3])
    with pytest.raises(MixedFrames):
        f.image_subl(whole_subl(c4))
    with pytest.raises(MixedFrames):
        f.preimage_subl(whole_subl(c3))
    with pytest.raises(MixedFrames):
        compose(f, f)
    # a frame equal to the source, but another object, is another frame
    with pytest.raises(MixedFrames):
        f.image_subl(whole_subl(chain_frame(3)))


def test_constant_top_rejected_on_c2():
    c2 = chain_frame(2)
    # 0 -> 1, 1 -> 1 preserves binary meets but its adjoint kills the top
    with pytest.raises(AdjointNotFrameHom):
        build_map(c2, c2, [1, 1])


def test_adjoint_galois_property(c3, b2):
    a = b2.index_of("1")
    f = build_map(c3, b2, [a, a, b2.top])
    for x in range(c3.n):
        for y in range(b2.n):
            assert (c3.leq(f.adjoint(y), x)) == (b2.leq(y, f(x)))


def test_inclusion_of_booleanization(c3):
    inc = inclusion_map(booleanization(c3))
    sub = inc.source
    assert inc.table == (0, 2)
    # adjoint is the nucleus: the middle element maps up to the top
    assert inc.adjoint(1) == sub.top
    assert inc.is_skeletal()


def test_image_subl(c3):
    inc = inclusion_map(booleanization(c3))
    img = inc.image_subl(whole_subl(inc.source))
    assert img == booleanization(c3)
    assert inc.image_subl(void_subl(inc.source)).is_void()


def test_preimage_subl(c3):
    inc = inclusion_map(booleanization(c3))
    pre = inc.preimage_subl(closed_subl(c3, 1))
    assert pre.is_void()
    pre_whole = inc.preimage_subl(whole_subl(c3))
    assert pre_whole.is_whole()


def test_preimage_special_cases(c3, b2):
    a = b2.index_of("1")
    f = build_map(c3, b2, [a, a, b2.top])
    # f_{-1}[o(a)] = o(f*(a)) and f_{-1}[c(a)] = c(f*(a))
    for a in range(b2.n):
        assert f.preimage_subl(open_subl(b2, a)) == open_subl(c3, f.adjoint(a))
        assert (f.preimage_subl(closed_subl(b2, a))
                == closed_subl(c3, f.adjoint(a)))


def test_galois_adjunction_of_image_preimage(c4):
    f = build_map(c4, c4, [0, 0, 2, 3])
    subs = enumerate_sublocales(c4)
    for a in subs:
        for b in subs:
            lhs = f.image_subl(a) <= b
            rhs = a <= f.preimage_subl(b)
            assert lhs == rhs


def test_image_monotone(c4):
    f = build_map(c4, c4, [0, 0, 2, 3])
    subs = enumerate_sublocales(c4)
    for a in subs:
        for b in subs:
            if a <= b:
                assert f.image_subl(a) <= f.image_subl(b)
                assert f.preimage_subl(a) <= f.preimage_subl(b)


def test_compose(c3):
    c2 = chain_frame(2)
    f = build_map(c3, c2, [0, 0, 1])
    g = build_map(c2, c3, [0, 2])
    h = compose(g, f)
    assert h.table == (0, 0, 2)
    assert h.adjoint_table == tuple(
        f.adjoint_table[g.adjoint_table[y]] for y in range(c3.n))


def test_injective_surjective(c3):
    assert identity_map(c3).is_injective()
    assert identity_map(c3).is_surjective()
    inc = inclusion_map(booleanization(c3))
    assert inc.is_injective() and not inc.is_surjective()


def test_preimage_subl_matches_brute_force_join(small_maps):
    # the join of {A : f[A] <= B} is the least enumerated sublocale
    # containing all their members
    oracle = {}
    for f in small_maps:
        for frame in (f.source, f.target):
            if frame not in oracle:
                oracle[frame] = enumerate_sublocales_oracle(frame)
        for b in oracle[f.target]:
            union = 0
            for a in oracle[f.source]:
                if f.image_subl(a) <= b:
                    union |= a.mask
            join = (1 << f.source.n) - 1
            for t in oracle[f.source]:
                if union & ~t.mask == 0:
                    join &= t.mask
            assert f.preimage_subl(b).mask == join, (f.table, b)


def test_is_surjective_matches_image_sets(small_maps):
    # f is onto iff f[-] is onto S(M), and iff its table hits every element
    verdicts = set()
    for f in small_maps:
        images = {f.image_subl(a).mask
                  for a in enumerate_sublocales_oracle(f.source)}
        targets = {t.mask for t in enumerate_sublocales_oracle(f.target)}
        assert f.is_surjective() == (images == targets), f.table
        assert f.is_surjective() == table_is_surjective(f), f.table
        verdicts.add(images == targets)
    assert verdicts == {True, False}


def _keeps_top_and_meets(src, tgt, table):
    return table[src.top] == tgt.top and all(
        tgt.meet_table[table[a]][table[b]] == table[src.meet_table[a][b]]
        for a in range(src.n) for b in range(a + 1, src.n))


def reference_build(src, tgt, table):
    """(error type, adjoint) from element-wise scans, sharing no point logic.

    The table must keep the top and every binary meet; its adjoint is
    y -> meet{x : y <= f(x)}, and it must keep them too.
    """
    if not _keeps_top_and_meets(src, tgt, table):
        return NotMeetPreserving, None
    adj = tuple(src.meet_of(x for x in range(src.n)
                            if tgt.up[y] >> table[x] & 1)
                for y in range(tgt.n))
    if not _keeps_top_and_meets(tgt, src, adj):
        return AdjointNotFrameHom, None
    return None, adj


def test_build_map_matches_element_wise_reference(tier1_frames):
    # every table between small tier-1 frames, valid or not
    tables = accepted = images = 0
    for src in (f for f in tier1_frames if f.n <= 5):
        subs = enumerate_sublocales(src)
        for tgt in (f for f in tier1_frames if f.n <= 6):
            for table in itertools.product(range(tgt.n), repeat=src.n):
                tables += 1
                want_error, want_adj = reference_build(src, tgt, table)
                try:
                    f = build_map(src, tgt, table)
                except LocalicError as e:
                    assert type(e) is want_error, (src, tgt, table)
                    continue
                assert want_error is None and f.adjoint_table == want_adj
                accepted += 1
                for a in subs:
                    img = f.image_subl(a).mask
                    f_pts = 0
                    for p in bits(a.mask & src.points_mask()):
                        f_pts |= 1 << table[p]
                    assert img == span(tgt, f_pts) and is_sublocale(tgt, img)
                    images += 1
    assert (tables, accepted, images) == (145_468, 784, 6_558)
