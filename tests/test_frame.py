import itertools
import random
import re

import pytest

from localic import (
    FiniteFrame, FrameTooLarge, NotALattice, NotAPartialOrder,
    NotDistributive, boolean_frame, build_frame, chain_frame, closed_subl,
    enumerate_sublocales, whole_context,
)
from localic import booleanization, frame
from localic.frame import frame_from_leq
from localic.generators import (
    downset_frame, gen_dense_sublocales, inclusion_map,
)
from localic.jsonio import frame_from_json
from localic.sublocale import point_sublocales, span

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
        assert c3.index_of(c3.labels[i]) == i


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


def _check_by_definition(n, pairs):
    """Build the closure of ``pairs`` by frame_from_leq and check the frame,
    or the error and what its message names, against the definitions; the
    outcome, "frame" or the error class."""
    leq = _closure(n, pairs)
    up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
    error, meet, join, impl = _by_definition(leq)
    if error is None:
        f = frame_from_leq(up)
        cells = list(itertools.product(range(n), repeat=2))
        assert [f.meet(a, b) for a, b in cells] \
            == [meet[a][b] for a, b in cells], up
        assert [f.join(a, b) for a, b in cells] \
            == [join[a][b] for a, b in cells], up
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
        assert "impl" not in f.kept, up
        assert f.dense_elements_mask() == sum(
            1 << x for x in range(n) if pseudo[x] == bottom), up
        assert booleanization(f).mask == sum(
            1 << x for x in set(pseudo)), up
        assert f.is_boolean() == all(
            join[x][pseudo[x]] == f.top for x in range(n)), up
        assert [list(r) for r in f.impl_table] == impl, up
        assert [list(r) for r in f.meet_table] == meet, up
        return "frame"
    with pytest.raises(error) as info:
        frame_from_leq(up)
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
    return error


def test_frame_from_leq_matches_definitions():
    assert {_check_by_definition(n, pairs) for n, pairs in _orders()} \
        == {"frame", NotAPartialOrder, NotALattice, NotDistributive}


def _chain_pairs(k):
    return {(i, i + 1) for i in range(k - 1)}


# Orders of MAX_ELEMENTS = 64 elements, where the pair scan is longest
@pytest.mark.parametrize("pairs, outcome", [
    ({(a, a | 1 << i) for a in range(64) for i in range(6)
      if not a >> i & 1}, "frame"),
    (_chain_pairs(64), "frame"),
    # two incomparable tops above the chain 0 < ... < 61: no join
    (_chain_pairs(62) | {(61, 62), (61, 63)}, NotALattice),
    # M3 (59 < 60, 61, 62 < 63) above the chain 0 < ... < 58
    (_chain_pairs(59) | {(58, 59), (59, 60), (59, 61), (59, 62),
                         (60, 63), (61, 63), (62, 63)}, NotDistributive),
], ids=["B6", "C64", "C62-two-tops", "C59-M3"])
def test_frame_from_leq_matches_definitions_at_the_size_cap(pairs, outcome):
    assert frame.MAX_ELEMENTS == 64
    assert _check_by_definition(64, pairs) == outcome


@pytest.mark.parametrize("up, message", [
    ([0b10, 0b10], "the up-set of 0 must hold 0 and only elements below 2"),
    ([0b01, 0b110], "the up-set of 1 must hold 1 and only elements below 2"),
    ([-1], "the up-set of 0 must hold 0 and only elements below 1"),
    ([0b011, 0b110, 0b100], "0 <= 1 and 1 <= 2 but not 0 <= 2"),
])
def test_frame_from_leq_rejects_a_relation_that_is_not_an_order(up, message):
    # the shape memo keeps no error: each call raises it anew
    for _ in range(2):
        with pytest.raises(NotAPartialOrder) as info:
            frame_from_leq(up)
        assert str(info.value) == message


# Orders pinned with the first pair, by index, that has no meet or join
# (the meet is checked first), or with the pair whose join breaks
# distributivity and the join-irreducible j that its witness triple names.
@pytest.mark.parametrize("up, error, message", [
    # the V 1 > 0 < 2: (1, 2) is the first pair with no upper bound
    ([0b111, 0b010, 0b100], NotALattice, "elements 1 and 2 have no join"),
    # two minimal elements: (0, 1) has neither bound, and the meet is named
    ([0b01, 0b10], NotALattice, "elements 0 and 1 have no meet"),
    # 0 < 1, 2 < 3, 4: 1 and 2 have the two minimal upper bounds 3 and 4,
    # and (1, 2) comes before (3, 4), which has no join either
    ([31, 26, 28, 8, 16], NotALattice, "elements 1 and 2 have no join"),
    # 0 < 1, 2; 1 < 3 < 4; 1, 2 < 5; 2 < 4: the upper bounds of 1 and 2
    # are 4 and 5, which are incomparable
    ([63, 58, 52, 24, 16, 32], NotALattice, "elements 1 and 2 have no join"),
    # M3 and N5: 1 \/ 2 = 4 is above the join-irreducible 3, which is
    # below neither 1 nor 2
    ([31, 18, 20, 24, 16], NotDistributive,
     "witness triple (3,1,2): 3/\\(1\\/2)=3 but (3/\\1)\\/(3/\\2)=0"),
    ([31, 18, 28, 24, 16], NotDistributive,
     "witness triple (3,1,2): 3/\\(1\\/2)=3 but (3/\\1)\\/(3/\\2)=2"),
], ids=["V", "antichain", "bowtie", "bowtie-of-six", "M3", "N5"])
def test_frame_from_leq_names_the_first_failing_pair_or_triple(
        up, error, message):
    # the shape memo keeps no error: each call raises it anew
    for _ in range(2):
        with pytest.raises(error) as info:
            frame_from_leq(up)
        assert type(info.value) is error and str(info.value) == message


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


def _three_routes(cold: bool) -> set:
    """Build each relation of ``_orders`` by every route; the outcomes
    seen.  The closure goes to frame_from_leq with the shape memo cleared;
    the other routes then clear it again (``cold``) or read the shape that
    this build left there."""
    shapes = frame._shape

    def fresh(build):
        shapes.cache_clear()
        return _outcome(build)

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
            want = fresh(lambda: frame_from_leq(up, labels, "F"))
            seen.add(want[0] if isinstance(want, tuple) else "frame")
            outcome = fresh if cold else _outcome
            for given in (covers, full):
                order = [[labels[a], labels[b]] for a, b in sorted(given)]
                doc = {"name": "F", "elements": labels, "order": order}
                assert outcome(lambda: frame_from_json(doc)) == want, doc
                assert outcome(lambda: build_frame(
                    sorted(given), n, labels, "F")) == want, (n, given)
            # warm, each of the four builds of a frame read the memo
            hits = 0 if cold or isinstance(want, tuple) else 4
            assert shapes.cache_info().hits == hits, (n, rel)
    return seen


def test_three_routes_build_the_same_frame():
    # a relation given as a frame document, to build_frame, and to
    # frame_from_leq as its closure, under three labellings and as covers
    # (the relation itself where its closure has a cycle) and as the full
    # order: every route builds the same frame or raises the same error,
    # each validating the order afresh or reading the memoised shape
    for cold in (True, False):
        assert _three_routes(cold) == {
            "frame", NotAPartialOrder, NotALattice, NotDistributive}


# -- the shape memo: what frames of equal up-masks share ----------------------

def _twins():
    """Pairs of frames built from equal up-masks: a frame document and a
    relabelled, renamed copy; a downset lattice (of the two-point
    antichain) and an induced-frame view (c(a) of an atom a of B3)."""
    doc = {"name": "C3", "elements": ["0", "m", "1"],
           "order": [["0", "m"], ["m", "1"]]}
    copy = {"name": "D3", "elements": ["a", "b", "c"],
            "order": [["a", "b"], ["b", "c"]]}
    yield frame_from_json(doc), frame_from_json(copy)
    view, _ = closed_subl(boolean_frame(3), 1).as_frame()
    yield downset_frame(2, frozenset(), name="P2"), view


# Each name in a frame's store, with a call that fills it
_FILLS = {
    "index": lambda f: f.index_of(f.labels[0]),
    "meet": lambda f: f.meet_table,
    "impl": lambda f: f.impl_table,
    "span": lambda f: span(f, f.points_mask()),
    "sublocales": enumerate_sublocales,
    "points": point_sublocales,
    "dense": gen_dense_sublocales,
    "view": lambda f: booleanization(f).as_frame(),
    "inclusion": lambda f: inclusion_map(booleanization(f)),
    "context": whole_context,
}


def _names(f: FiniteFrame) -> set[str]:
    """The names in a frame's store: a key, or a (name, mask) key's name."""
    return {key if isinstance(key, str) else key[0] for key in f.kept}


def test_frames_of_equal_masks_share_only_the_shape():
    # each frame starts with an empty store of its own, and what one twin
    # fills never shows on the other
    for name, fill in _FILLS.items():
        for f, g in _twins():
            assert f is not g and f.up is g.up and f._by_jm is g._by_jm
            assert f.labels != g.labels and f.name != g.name
            assert f.subject() != g.subject()
            assert f.kept == g.kept == {} and f.kept is not g.kept
            fill(f)
            assert name in _names(f) and g.kept == {}, name
            fill(g)
            assert f.kept.keys() == g.kept.keys(), name
            assert all(f.kept[k] is not g.kept[k] for k in f.kept), name


def test_the_store_is_the_only_slot_filled_after_building():
    # building a frame sets every other slot, and no fill rebinds one
    f = chain_frame(3)
    rest = [slot for slot in FiniteFrame.__slots__ if slot != "kept"]
    built = [getattr(f, slot) for slot in rest]
    assert None not in built
    for fill in _FILLS.values():
        fill(f)
    assert all(getattr(f, slot) is v for slot, v in zip(rest, built))
    assert _names(f) == set(_FILLS)


def test_the_per_call_checks_run_on_a_memoised_shape(monkeypatch):
    up = chain_frame(3).up
    for _ in range(2):
        with pytest.raises(NotALattice) as info:
            frame_from_leq(up, labels=["a", "a", "b"])
        assert str(info.value) == "labels must be distinct and one per element"
    # the cap is read at each call, not when the shape was kept
    hits = frame._shape.cache_info().hits
    assert frame_from_leq(up).n == 3
    assert frame._shape.cache_info().hits == hits + 1
    monkeypatch.setattr(frame, "MAX_ELEMENTS", 2)
    with pytest.raises(FrameTooLarge) as info:
        frame_from_leq(up)
    assert str(info.value) == "3 elements exceeds the cap of 2"


def test_the_memo_is_bounded():
    # more distinct downset frames of seeded random posets on 6 points than
    # the memo holds: it stays full, and the least recently used order,
    # evicted, rebuilds to an equal frame
    shapes = frame._shape
    shapes.cache_clear()
    rng = random.Random(38)
    pairs = list(itertools.combinations(range(6), 2))
    built = {}      # up-masks -> frame, least recently built first
    while len(built) <= shapes.cache_info().maxsize:
        rel = frozenset(p for p in pairs if rng.random() < 0.4)
        f = downset_frame(6, rel, name=f"D{len(built)}")
        built.pop(f.up, None)
        built[f.up] = f
    info = shapes.cache_info()
    assert info.currsize == info.maxsize
    oldest = next(iter(built.values()))
    again = frame_from_leq(list(oldest.up), oldest.labels, oldest.name)
    assert shapes.cache_info().misses == info.misses + 1
    assert again is not oldest and again.up is not oldest.up
    assert _outcome(lambda: again) == _outcome(lambda: oldest)
