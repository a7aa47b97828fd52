import itertools
import random
import re

import pytest

from localic import (
    FrameTooLarge, NotALattice, NotAPartialOrder, NotDistributive,
    boolean_frame, build_frame, chain_frame,
)
from localic import booleanization, frame
from localic.frame import frame_from_leq
from localic.jsonio import frame_from_json

from oracles import is_point


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
    assert is_point(c3, 1)
    assert not is_point(c3, c3.top)
    assert is_point(b2, b2.index_of("1"))
    assert not is_point(b2, b2.bottom) or b2.n == 2


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


def test_size_cap(monkeypatch):
    with pytest.raises(FrameTooLarge):
        build_frame([(i, i + 1) for i in range(70)], 71)
    # the cap is checked before the order is closed
    monkeypatch.setattr(frame, "_close_order", None)
    with pytest.raises(FrameTooLarge):
        build_frame([], 10_000)


def test_boolean_frame_shape():
    b3 = boolean_frame(3)
    assert b3.n == 8
    assert b3.is_boolean()
    assert sum(is_point(b3, p) for p in range(b3.n)) == 3


def test_points_mask_matches_is_point(tier1_frames):
    for f in tier1_frames:
        oracle = sum(1 << p for p in range(f.n) if is_point(f, p))
        assert f.points_mask() == oracle, f


def test_min_points_are_the_minimal_points_and_the_points_of_bl(
        tier1_frames):
    for f in tier1_frames:
        pts = sum(1 << p for p in range(f.n) if is_point(f, p))
        minimal = sum(1 << p for p in range(f.n)
                      if pts >> p & 1 and f.down[p] & pts == 1 << p)
        # BL = {x** : x in L}, from the implication table
        bl = 0
        for x in range(f.n):
            bl |= 1 << f.pseudocomplement(f.pseudocomplement(x))
        assert f.min_points() == minimal == pts & bl, f


def test_labels_roundtrip(c3):
    for i in range(c3.n):
        assert c3.index_of(c3.label(i)) == i


# -- brute-force oracle for frame_from_leq -----------------------------------

def _closure(n, pairs):
    """leq[a][b] of the reflexive-transitive closure of ``pairs``."""
    leq = [[a == b or (a, b) in pairs for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return leq


def _by_definition(leq):
    """(error class or None, meet, join, implication) by the definitions.

    Meets and joins are greatest lower and least upper bounds found by
    scanning, None where there is none; distributivity is
    a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c) for every triple; a -> b is
    the join of {x : x /\\ a <= b}.
    """
    n = len(leq)
    if any(leq[a][b] and leq[b][a]
           for a in range(n) for b in range(n) if a != b):
        return NotAPartialOrder, None, None, None

    def best(cands, above):
        tops = [m for m in cands if all(above(m, x) for x in cands)]
        return tops[0] if tops else None

    def glb(a, b):
        return best([x for x in range(n) if leq[x][a] and leq[x][b]],
                    lambda m, x: leq[x][m])

    def lub(a, b):
        return best([x for x in range(n) if leq[a][x] and leq[b][x]],
                    lambda m, x: leq[m][x])

    meet = [[glb(a, b) for b in range(n)] for a in range(n)]
    join = [[lub(a, b) for b in range(n)] for a in range(n)]
    if any(None in row for row in meet + join):
        return NotALattice, meet, join, None
    if any(meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return NotDistributive, meet, join, None
    impl = []
    for a in range(n):
        row = []
        for b in range(n):
            r = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
            for x in range(n):
                if leq[meet[x][a]][b]:
                    r = join[r][x]
            row.append(r)
        impl.append(row)
    return None, meet, join, impl


def _set_bounds(leq, xs):
    """The greatest lower and least upper bound of the elements xs, found
    by scanning; the empty set has the top and the bottom."""
    n = len(leq)
    lower = [m for m in range(n) if all(leq[m][x] for x in xs)]
    upper = [m for m in range(n) if all(leq[x][m] for x in xs)]
    return (next(m for m in lower if all(leq[x][m] for x in lower)),
            next(m for m in upper if all(leq[m][x] for x in upper)))


def _orders():
    """Every relation on <= 4 elements, then 2,000 seeded random DAGs on
    5 to 8 elements, half of them given a bottom and a top."""
    for n in range(1, 5):
        offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
        for k in range(1 << len(offdiag)):
            yield n, {p for i, p in enumerate(offdiag) if k >> i & 1}
    rng = random.Random(2024)
    for i in range(2000):
        n = rng.randint(5, 8)
        p = rng.random()
        perm = rng.sample(range(n), n)
        pairs = {(perm[a], perm[b]) for a, b in
                 itertools.combinations(range(n), 2) if rng.random() < p}
        if i % 2:
            pairs |= {(perm[0], perm[b]) for b in range(1, n)}
            pairs |= {(perm[a], perm[-1]) for a in range(n - 1)}
        yield n, pairs


def test_frame_from_leq_matches_definitions():
    seen = set()
    for n, pairs in _orders():
        leq = _closure(n, pairs)
        up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
        error, meet, join, impl = _by_definition(leq)
        if error is None:
            f = frame_from_leq(up)
            pairs = list(itertools.product(range(n), repeat=2))
            assert [f.meet(a, b) for a, b in pairs] \
                == [meet[a][b] for a, b in pairs], up
            assert [f.join(a, b) for a, b in pairs] \
                == [join[a][b] for a, b in pairs], up
            if n <= 4:
                for k in range(1 << n):
                    xs = [x for x in range(n) if k >> x & 1]
                    assert (f.meet_of(xs), f.join_of(xs)) \
                        == _set_bounds(leq, xs), (up, xs)
            # the frame finds these without its implication table, which
            # fills on first use: check them against the definition
            bottom = f.bottom
            pseudo = [impl[x][bottom] for x in range(n)]
            assert [f.pseudocomplement(x) for x in range(n)] == pseudo, up
            assert f._impl is None, up
            assert f.dense_elements_mask() == sum(
                1 << x for x in range(n) if pseudo[x] == bottom), up
            assert booleanization(f).mask == sum(
                1 << x for x in set(pseudo)), up
            assert f.is_boolean() == all(
                join[x][pseudo[x]] == f.top for x in range(n)), up
            assert [list(r) for r in f.impl_table] == impl, up
            assert [list(r) for r in f.meet_table] == meet, up
            seen.add("frame")
            continue
        with pytest.raises(error) as info:
            frame_from_leq(up)
        seen.add(error.__name__)
        message = str(info.value)
        if error is NotAPartialOrder:
            a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                        if leq[a][b] and leq[b][a])
            assert message == f"elements {a} and {b} are in a cycle", up
        elif error is NotALattice:
            a, b = next((a, b) for a in range(n) for b in range(a, n)
                        if meet[a][b] is None or join[a][b] is None)
            bound = "meet" if meet[a][b] is None else "join"
            assert message == f"elements {a} and {b} have no {bound}", up
        else:
            triple = re.match(r"witness triple \((\d+),(\d+),(\d+)\)",
                              message)
            a, b, c = map(int, triple.groups())
            assert meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]], up
    assert seen == {"frame", "NotAPartialOrder", "NotALattice",
                    "NotDistributive"}


@pytest.mark.parametrize("up, message", [
    ([0b10, 0b10], "the up-set of 0 must hold 0 and only elements below 2"),
    ([0b01, 0b110], "the up-set of 1 must hold 1 and only elements below 2"),
    ([-1], "the up-set of 0 must hold 0 and only elements below 1"),
    ([0b011, 0b110, 0b100], "0 <= 1 and 1 <= 2 but not 0 <= 2"),
])
def test_frame_from_leq_rejects_a_relation_that_is_not_an_order(up, message):
    with pytest.raises(NotAPartialOrder) as info:
        frame_from_leq(up)
    assert str(info.value) == message


# Orders that fail just one of frame_from_leq's tests (b) and (c), so
# dropping either test lets one of them through.
@pytest.mark.parametrize("up, error, message", [
    # the V 1 > 0 < 2, the least order failing (c) alone: jm[1] | jm[2]
    # is no jm[y]
    ([0b111, 0b010, 0b100], NotALattice, "elements 1 and 2 have no join"),
    # the least order failing (b) alone: jm[0] = jm[1] = 0, so it cannot
    # be both up[0] and up[1]
    ([0b01, 0b10], NotALattice, "elements 0 and 1 have no meet"),
    # with a bottom, 5 elements are the least that fail (b) alone:
    # jm[3] = jm[4] = {1, 2}, and up[1] & up[2] = {3, 4}
    ([31, 26, 28, 8, 16], NotALattice, "elements 1 and 2 have no join"),
    # jm is onto the down-sets of J = {1, 2, 3}, but jm[5] = {1, 2} while
    # up[1] & up[2] = {4, 5}: only (b) fails
    ([63, 58, 52, 24, 16, 32], NotALattice, "elements 1 and 2 have no join"),
    # M3 and N5 fail (c)
    ([31, 18, 20, 24, 16], NotDistributive,
     "witness triple (3,1,2): 3/\\(1\\/2)=3 but (3/\\1)\\/(3/\\2)=0"),
    ([31, 18, 28, 24, 16], NotDistributive,
     "witness triple (3,1,2): 3/\\(1\\/2)=3 but (3/\\1)\\/(3/\\2)=2"),
], ids=["V-fails-c", "antichain-fails-b", "fails-b-with-bottom",
        "fails-b-onto", "M3", "N5"])
def test_frame_from_leq_names_why_the_birkhoff_tests_fail(up, error, message):
    with pytest.raises(error) as info:
        frame_from_leq(up)
    assert str(info.value) == message


def test_close_order_matches_the_closure(monkeypatch):
    sweeps = []
    real = frame._sweep_down
    monkeypatch.setattr(frame, "_sweep_down",
                        lambda up: sweeps.append(1) or real(up))

    def check(n, pairs):
        leq = _closure(n, pairs)
        sweeps.clear()
        up = frame._close_order(n, pairs)
        assert up == [sum(1 << b for b in range(n) if leq[a][b])
                      for a in range(n)], (n, pairs)
        return len(sweeps)

    for n, pairs in _orders():
        # at most ceil(log2 n) + 1 sweeps
        assert check(n, pairs) <= (n - 1).bit_length() + 1, (n, pairs)
    # labelled against the sweeps, 63 < 62 < ... < 0 doubles its reach
    # per sweep, so ceil(log2 64) + 1 sweeps run; once closed, it takes one
    chain = {(i + 1, i) for i in range(63)}
    assert check(64, chain) == 7
    closed = {(a, b) for a in range(64) for b in range(a + 1)}
    assert check(64, closed) == 1


_SLOTS = ("n", "up", "down", "_jm", "_by_jm", "_pseudo", "_dense_mask",
          "_bool_mask", "_point_mask", "bottom", "top", "labels", "name")


def _outcome(build):
    """Every slot of the frame that ``build()`` returns, or the class and
    message of what it raises."""
    try:
        f = build()
    except (NotAPartialOrder, NotALattice, NotDistributive) as e:
        return type(e), str(e)
    return [getattr(f, slot) for slot in _SLOTS]


def test_three_routes_build_the_same_frame():
    # a relation given as a frame document, to build_frame, and to
    # frame_from_leq as its closure, under three labellings and as covers
    # (the relation itself where its closure has a cycle) and as the full
    # order: every route builds the same frame or raises the same error
    rng = random.Random(33)
    seen = set()
    for n, pairs in _orders():
        for perm in (list(range(n)), list(range(n))[::-1],
                     rng.sample(range(n), n)):
            rel = {(perm[a], perm[b]) for a, b in pairs}
            leq = _closure(n, rel)
            full = {(a, b) for a in range(n) for b in range(n)
                    if a != b and leq[a][b]}
            if any(leq[b][a] for a, b in full):
                covers = rel
            else:
                covers = {(a, b) for a, b in full if not any(
                    leq[a][c] and leq[c][b] for c in range(n)
                    if c != a and c != b)}
            labels = [""] * n
            for i, p in enumerate(perm):
                labels[p] = f"e{i}"
            up = [sum(1 << b for b in range(n) if leq[a][b])
                  for a in range(n)]
            want = _outcome(lambda: frame_from_leq(up, labels, "F"))
            seen.add(want[0] if isinstance(want, tuple) else "frame")
            for given in (covers, full):
                order = [[labels[a], labels[b]] for a, b in sorted(given)]
                doc = {"name": "F", "elements": labels, "order": order}
                assert _outcome(lambda: frame_from_json(doc)) == want, doc
                assert _outcome(lambda: build_frame(
                    sorted(given), n, labels, "F")) == want, (n, given)
    assert seen == {"frame", NotAPartialOrder, NotALattice, NotDistributive}
