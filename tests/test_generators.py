import hashlib
import itertools
import json
import pickle

import pytest

from localic import (
    GenSpec, LocalicError, Sublocale, booleanization, build_map,
    chain_frame, enumerate_sublocales, whole_subl,
)
from localic import generators
from localic.frame import (
    ENUMERATION_CAP, _mask_of, bits, frame_from_leq, popcount,
)
from localic.generators import (
    MAX_CONTEXTS_PER_FRAME, MAX_COUNT, all_posets, build_corpus,
    downset_frame, gen_dense_sublocales, gen_frames, gen_maps, gen_squares,
    inclusion_map,
)


def _canonical_poset(n: int, rel: frozenset) -> tuple:
    """Smallest relabeling of a strict order, as a sorted pair tuple."""
    best = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(sorted((perm[i], perm[j]) for i, j in rel))
        if best is None or enc < best:
            best = enc
    return best


def _reference_posets(n: int) -> list[frozenset]:
    """The brute-force listing: close every DAG with pairs i < j, key each
    closed order by its least relabeling, keep the first relation seen
    per key, and list them in key order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    closed = set()
    seen = {}
    for mask in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if mask >> k & 1}
        while True:
            more = {(i, l) for i, j in rel for k, l in rel if j == k} - rel
            if not more:
                break
            rel |= more
        rel = frozenset(rel)
        if rel not in closed:
            closed.add(rel)
            seen.setdefault(_canonical_poset(n, rel), rel)
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("n", range(6))
def test_all_posets_matches_brute_force(n):
    # the same representatives in the same order, so no P{n}-{idx} moves
    assert all_posets(n) == _reference_posets(n)


def test_all_posets_counts():
    # OEIS A000112
    counts = [1, 1, 2, 5, 16, 63, 318]
    for n, count in enumerate(counts):
        posets = all_posets(n)
        assert len(posets) == count
        for rel in posets:
            assert all(0 <= i < j < n for i, j in rel)
            assert all((i, l) in rel
                       for i, j in rel for k, l in rel if j == k)


# sha256 of the (name, labels, up-masks) of every frame of a corpus, in
# order: a changed representative, label, order or frame order shows.
CORPUS_HASHES = [
    (GenSpec("all-posets-up-to", 5), 79,
     "bc0d84431083958286e655f229ade765e1b426a24636c2f1480e5d953b71031d"),
    (GenSpec("random-poset", 12, seed=7, count=200), 200,
     "0ec8014941ce2b42171bc40d9111245312c3216a540de7afce773f6da62ab661"),
]


def _digest(frames) -> str:
    enc = json.dumps([[f.name, list(f.labels), list(f.up)] for f in frames])
    return hashlib.sha256(enc.encode()).hexdigest()


@pytest.mark.parametrize("spec,count,digest", CORPUS_HASHES,
                         ids=[spec.family for spec, _, _ in CORPUS_HASHES])
def test_frame_corpora_are_pinned(spec, count, digest):
    frames = gen_frames(spec)
    assert len(frames) == count
    assert _digest(frames) == digest


def _topology_frames(k: int):
    """The frame of opens of every topology on k points, each a family of
    point masks that holds 0 and the whole set and is closed under | and &,
    ordered by inclusion."""
    full = (1 << k) - 1
    middle = range(1, full)
    for pick in range(1 << len(middle)):
        opens = [0, *(m for i, m in enumerate(middle) if pick >> i & 1), full]
        if all(a | b in opens and a & b in opens
               for a in opens for b in opens):
            yield frame_from_leq([_mask_of(j for j, e in enumerate(opens)
                                           if d & ~e == 0) for d in opens])


def _poset_class(frame) -> tuple:
    """The class of a frame's poset J of join-irreducibles, the elements
    with one lower cover (the frame is the down-set lattice of J, by
    Birkhoff), keyed as ``all_posets`` keys a class: |J| and the least
    relabelling of the strict order as a sorted tuple of codes i*n + j."""
    def covers(x):
        below = frame.down[x] & ~(1 << x)
        return sum(frame.up[y] & below == 1 << y for y in bits(below))

    irr = [x for x in range(frame.n) if covers(x) == 1]
    n = len(irr)
    rel = [(i, j) for i, a in enumerate(irr) for j, b in enumerate(irr)
           if a != b and frame.down[b] >> a & 1]
    return n, min(tuple(sorted(p[i] * n + p[j] for i, j in rel))
                  for p in itertools.permutations(range(n)))


def test_finite_topologies_add_no_frame_class(tier1_frames):
    # a finite space and its T0 quotient have the same opens, and a finite
    # T0 space is a poset whose opens are its down-sets (Alexandroff;
    # Stong, 1966); so the frames of the 389 topologies on 1 to 4 points
    # fall into the 24 classes of the posets on 1 to 4 points: those of
    # all-posets-up-to 4 but the one-element frame of the empty poset
    classes = [_poset_class(f) for k in range(1, 5)
               for f in _topology_frames(k)]
    assert (len(classes), len(set(classes))) == (389, 24)
    assert set(classes) == {_poset_class(f) for f in tier1_frames if f.n > 1}


def test_all_posets_builds_only_kept_frames(monkeypatch):
    # the 9 posets of at most 5 points with over ENUMERATION_CAP downsets
    # are counted and dropped, never built as frames
    built = []
    real = generators.frame_from_leq

    def counting(*args, **kwargs):
        f = real(*args, **kwargs)
        built.append(f.name)
        return f

    monkeypatch.setattr(generators, "frame_from_leq", counting)
    spec, count, digest = CORPUS_HASHES[0]
    frames = gen_frames(spec)
    assert len(built) == count == 79
    assert built == [f.name for f in frames]
    assert _digest(frames) == digest


def test_downset_frame_of_antichain():
    frame = downset_frame(2, frozenset())
    assert frame.n == 4
    assert frame.is_boolean()


def test_downset_frame_of_chain():
    rel = frozenset({(0, 1), (1, 2)})
    frame = downset_frame(3, rel)
    assert frame.n == 4
    assert all(frame.leq(i, i + 1) for i in range(3))


def test_genspec_roundtrip():
    # worker shards receive the spec itself, pickled
    spec = GenSpec("random-poset", 12, seed=5, count=20)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert hash(pickle.loads(pickle.dumps(spec))) == hash(spec)
    assert spec.to_json() == {"family": "random-poset", "max_size": 12,
                              "seed": 5, "count": 20}
    with pytest.raises(ValueError):
        GenSpec("no-such-family", 4)
    # no random frame has fewer than 2 elements, so gen_frames would
    # reject candidates forever under a smaller cap; a chain or Boolean
    # corpus under cap 1 is empty
    for family, size in (("random-poset", 0), ("random-poset", 1),
                         ("chain", 0), ("boolean-algebra", 0)):
        with pytest.raises(ValueError):
            GenSpec(family, size)
    # a count is bounded before anything is built
    assert GenSpec("random-poset", 3, count=MAX_COUNT).count == MAX_COUNT
    with pytest.raises(ValueError):
        GenSpec("random-poset", 3, count=MAX_COUNT + 1)
    # only random-poset takes a count
    for family in ("chain", "boolean-algebra", "all-posets-up-to"):
        assert GenSpec(family, 3, count=0).count == 0
        with pytest.raises(ValueError):
            GenSpec(family, 3, count=1)
    # the least exhaustive corpus is the one-element frame
    assert [f.n for f in gen_frames(GenSpec("all-posets-up-to", 0))] == [1]
    # no family builds a frame over ENUMERATION_CAP, so a larger max_size
    # would change the report's genspec and not its corpus
    for family in ("chain", "boolean-algebra", "random-poset"):
        assert GenSpec(family, ENUMERATION_CAP).max_size == ENUMERATION_CAP
        with pytest.raises(ValueError, match=f"at most {ENUMERATION_CAP} elements"):
            GenSpec(family, ENUMERATION_CAP + 1)


def test_gen_frames_deterministic():
    spec = GenSpec("random-poset", 12, seed=9, count=15)
    a = gen_frames(spec)
    b = gen_frames(spec)
    assert len(a) == 15
    assert [f.n for f in a] == [f.n for f in b]
    for x, y in zip(a, b):
        assert x.up == y.up and x.labels == y.labels


def test_gen_frames_respects_cap():
    for f in gen_frames(GenSpec("random-poset", 12, seed=3, count=30)):
        assert f.n <= 12
    # the least cap
    assert [f.n for f in gen_frames(GenSpec("random-poset", 2, count=3))] \
        == [2, 2, 2]


def test_gen_frames_families():
    chains = gen_frames(GenSpec("chain", 5))
    assert [f.n for f in chains] == [1, 2, 3, 4, 5]
    booleans = gen_frames(GenSpec("boolean-algebra", 8))
    assert [f.n for f in booleans] == [1, 2, 4, 8]
    assert all(f.is_boolean() for f in booleans)


def test_tier1_contains_one_element_frame(tier1_frames):
    assert any(f.n == 1 for f in tier1_frames)


def test_gen_dense_sublocales(tier1_frames):
    # the listing by point set against the filter of the whole enumeration
    corpus = build_corpus(GenSpec("chain", 16))
    chains = corpus["frame"]
    for f in tier1_frames + chains:
        dense = gen_dense_sublocales(f)
        assert [s.mask for s in dense] == [
            s.mask for s in enumerate_sublocales(f) if s.is_dense()], f.name
        assert dense[0] == booleanization(f) and dense[-1] == whole_subl(f)
        # equal sublocales, so all built over S share its induced frame
        assert all(a == b and a.as_frame() is b.as_frame()
                   for a, b in zip(dense, gen_dense_sublocales(f)))
    # C1 to C6 keep every dense S; C7 to C16 have more than the cap and
    # keep BL, L and distinct others, drawn by the seed
    drawn = {}
    for seed in (0, 1):
        if seed:    # seed 0's corpus is the one built above
            corpus = build_corpus(GenSpec("chain", 16, seed=seed))
        assert len(corpus["context"]) == 202
        for f in corpus["frame"]:
            dense = gen_dense_sublocales(f)
            got = [c.s for c in corpus["context"] if c.frame is f]
            kept = {s.mask: s for s in dense}
            assert all(kept[s.mask] == s and
                       kept[s.mask].as_frame() is s.as_frame() for s in got)
            if len(dense) <= MAX_CONTEXTS_PER_FRAME:
                assert tuple(got) == dense, f.name
                continue
            masks = [s.mask for s in got]
            assert len(got) == MAX_CONTEXTS_PER_FRAME + 1, f.name
            assert masks == sorted(set(masks)), f.name
            assert got[0] == booleanization(f) and got[-1] == whole_subl(f)
        drawn[seed] = [c.s.mask for c in corpus["context"]
                       if c.frame.n == 16]
    assert drawn[0] != drawn[1] and len(drawn[0]) == len(drawn[1])


def _reference_maps(src, tgt):
    """The element-table search: grow tables along a linear extension of
    the source, prune on meet preservation, and keep the complete tables
    that build_map accepts, sorted by table."""
    n = src.n
    order = sorted(range(n), key=lambda a: (popcount(src.down[a]), a))
    results = []
    table = [None] * n

    def rec(k):
        if k == n:
            try:
                results.append(build_map(src, tgt, table))
            except LocalicError:
                pass
            return
        a = order[k]
        for v in [tgt.top] if a == src.top else range(tgt.n):
            if all(tgt.meet_table[v][table[b]]
                   == table[src.meet_table[a][b]] for b in order[:k]):
                table[a] = v
                rec(k + 1)
                table[a] = None

    rec(0)
    return sorted(results, key=lambda m: m.table)


def _monotone_point_maps(src, tgt) -> int:
    """How many maps of points to points keep the order, by brute force."""
    ps = list(bits(src.points_mask()))
    return sum(all(tgt.leq(img[i], img[j]) for i, p in enumerate(ps)
                   for j, q in enumerate(ps) if src.leq(p, q))
               for img in itertools.product(bits(tgt.points_mask()),
                                            repeat=len(ps)))


def test_gen_maps_matches_table_search(monkeypatch):
    # every pair of frames of posets with at most 3 points: the same
    # tables in the same order as the element-table search, as many as
    # the monotone point maps, and one build_map call per map emitted
    frames = gen_frames(GenSpec("all-posets-up-to", 3))
    calls = []
    real = generators.build_map

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generators, "build_map", counting)
    total = 0
    for src in frames:
        for tgt in frames:
            got = [mp.table for mp in gen_maps(src, tgt)]
            assert got == [mp.table for mp in _reference_maps(src, tgt)]
            assert len(got) == _monotone_point_maps(src, tgt)
            total += len(got)
    assert len(frames) ** 2 == 81
    assert total == len(calls) == 485


def test_gen_maps_c2_c2():
    c2 = chain_frame(2)
    maps = gen_maps(c2, c2)
    assert len(maps) == 1
    assert maps[0].table == (0, 1)


def test_gen_maps_sound(c3, b2):
    # every emitted table revalidates through the public constructor
    for src, tgt in ((c3, b2), (b2, c3), (c3, c3)):
        for mp in gen_maps(src, tgt, limit=10):
            rebuilt = build_map(src, tgt, mp.table)
            assert rebuilt.adjoint_table == mp.adjoint_table


def test_gen_maps_seeded_is_permutation(c3, b2):
    plain = {mp.table for mp in gen_maps(c3, b2, limit=50)}
    seeded = {mp.table for mp in gen_maps(c3, b2, limit=50, seed=7)}
    assert plain == seeded


def test_inclusion_map_identity_on_whole(c3):
    inc = inclusion_map(whole_subl(c3))
    assert inc.table == tuple(range(c3.n))


def test_inclusion_map_is_kept_with_the_view(c4):
    for s in gen_dense_sublocales(c4):
        inc = inclusion_map(s)
        assert inc is inclusion_map(s)
        sub, elems = s.as_frame()
        assert inc.source is sub and inc.table == tuple(elems)


def test_equal_sublocales_share_view_and_inclusion(tier1_frames):
    # a sublocale is its frame and mask; what is derived from it is kept
    # on the frame by mask, so a copy gets the very same objects
    assert Sublocale.__slots__ == ("frame", "mask")
    for f in tier1_frames:
        for s in enumerate_sublocales(f):
            copy = Sublocale(f, s.mask)
            assert copy == s and copy.as_frame() is s.as_frame()
            assert inclusion_map(copy) is inclusion_map(s)


def test_gen_squares_deterministic(tier1_frames):
    small = [f for f in tier1_frames if f.n <= 4][:4]
    a = gen_squares(small)[:25]
    b = gen_squares(small)[:25]
    assert [sq.subject() for sq in a] == [sq.subject() for sq in b]
    assert len(a) == 25
