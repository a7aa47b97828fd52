import pytest

from localic import (
    FrameTooLarge, NotALattice, NotAPartialOrder, NotDistributive,
    boolean_frame, build_frame, chain_frame,
)


def test_chain_basics(c3):
    assert c3.n == 3
    assert c3.bottom == 0 and c3.top == 2
    assert c3.leq(0, 1) and c3.leq(1, 2) and not c3.leq(2, 1)
    assert c3.meet(1, 2) == 1
    assert c3.join(0, 1) == 1


def test_heyting_on_chain(c3):
    # in a chain a -> b is top when a <= b, else b
    for a in range(3):
        for b in range(3):
            expected = c3.top if c3.leq(a, b) else b
            assert c3.heyting(a, b) == expected


def test_pseudocomplement(c3, b2):
    assert c3.pseudocomplement(0) == c3.top
    assert c3.pseudocomplement(1) == 0
    assert c3.pseudocomplement(2) == 0
    a = b2.index_of("1")     # atom {0} of the powerset of 2 points
    comp = b2.pseudocomplement(a)
    assert b2.meet(a, comp) == b2.bottom
    assert b2.join(a, comp) == b2.top


def test_density_and_complementation(c3, b2):
    m = 1
    assert c3.is_dense_element(m)
    assert not c3.is_complemented_element(m)
    a = b2.index_of("1")
    assert not b2.is_dense_element(a)
    assert b2.is_complemented_element(a)


def test_points(c3, b2):
    assert c3.is_point(1)
    assert not c3.is_point(c3.top)
    assert b2.is_point(b2.index_of("1"))
    assert not b2.is_point(b2.bottom) or b2.n == 2


def test_is_boolean(c3, b2):
    assert not c3.is_boolean()
    assert b2.is_boolean()
    assert chain_frame(2).is_boolean()


def test_meet_join_folds(b2):
    assert b2.meet_of([]) == b2.top
    assert b2.join_of([]) == b2.bottom
    assert b2.meet_of(range(b2.n)) == b2.bottom
    assert b2.join_of(range(b2.n)) == b2.top


def test_rejects_cycle():
    with pytest.raises(NotAPartialOrder):
        build_frame([(0, 1), (1, 0)], 2)


def test_rejects_non_lattice():
    # two incomparable tops: no join of the two atoms
    with pytest.raises(NotALattice):
        build_frame([(0, 1), (0, 2)], 3)


def test_rejects_non_distributive():
    # the diamond M3: three atoms below a common top
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    with pytest.raises(NotDistributive):
        build_frame(pairs, 5)


def test_rejects_pentagon():
    pairs = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    with pytest.raises(NotDistributive):
        build_frame(pairs, 5)


def test_size_cap():
    with pytest.raises(FrameTooLarge):
        build_frame([(i, i + 1) for i in range(70)], 71)


def test_boolean_frame_shape():
    b3 = boolean_frame(3)
    assert b3.n == 8
    assert b3.is_boolean()
    assert sum(b3.is_point(p) for p in range(b3.n)) == 3


def test_points_mask_matches_is_point(tier1_frames):
    for f in tier1_frames:
        oracle = sum(1 << p for p in range(f.n) if f.is_point(p))
        assert f.points_mask() == oracle, f


def test_labels_roundtrip(c3):
    for i in range(c3.n):
        assert c3.index_of(c3.label(i)) == i
