"""Instance generators, and :func:`build_corpus`, the suite's corpus.

Everything here is deterministic given a :class:`GenSpec`: the exhaustive
families enumerate in a fixed order and the random families derive all
choices from the seed.  Emitted objects are validated through the regular
constructors, never assumed correct; a constructor that rejects one
raises, since a generated diagram that fails validation is a bug.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from typing import Iterator, Optional

from .errors import LocalicError
from .frame import (
    ENUMERATION_CAP, FiniteFrame, _close_order, bits, boolean_frame,
    chain_frame, frame_from_leq, popcount,
)
from .locmap import LocalicMap, build_map, identity_map
from .diagrams import DenseSquare, SquareChain, Triangle
from .remoteness import dense_context
from .sublocale import (
    Sublocale, booleanization, dense_sublocales, whole_subl,
)

FAMILIES = ("all-posets-up-to", "random-poset", "chain",
            "boolean-algebra", "finite-topology")

# Squares and triangles are built only over frames of at most this size.
DIAGRAM_FRAME_CAP = 8
# Searched maps per frame pair: for a square's f, and for each triangle leg.
SQUARE_MAPS_PER_PAIR = 4
TRIANGLE_MAPS_PER_PAIR = 2
# The suite corpus: contexts per frame, and where each diagram list stops.
MAX_CONTEXTS_PER_FRAME = 16
SQUARE_BUDGET = 400
CHAIN_BUDGET = 240
TRIANGLE_BUDGET = 240


class GenSpec(namedtuple("GenSpec", "family max_size seed count")):
    """Reproducible description of a generated corpus."""

    __slots__ = ()

    def __new__(cls, family: str, max_size: int, seed: int = 0,
                count: int = 0):    # count: random-family instances, 0 = 50
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if max_size < 0 or count < 0:
            raise ValueError(f"max_size and count must be non-negative, "
                             f"got {max_size} and {count}")
        # no random frame has under 2 elements, so gen_frames would loop;
        # a chain or Boolean corpus under cap 1 is empty and checks nothing
        least = {"random-poset": 2, "finite-topology": 2, "chain": 1,
                 "boolean-algebra": 1}.get(family, 0)
        if max_size < least:
            raise ValueError(f"{family} needs max_size of at least {least}, "
                             f"got {max_size}")
        # the exhaustive corpus stops at 5 points; refuse what it skips
        if family == "all-posets-up-to" and max_size > 5:
            raise ValueError(f"all-posets-up-to builds at most 5 points, "
                             f"got max_size {max_size}")
        return super().__new__(cls, family, max_size, seed, count)

    def to_json(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# Posets and their downset lattices
# ---------------------------------------------------------------------------

def _transitive_closure(n: int, rel: frozenset) -> frozenset:
    """The strict order generated by an acyclic relation."""
    up = _close_order(n, rel)
    return frozenset((i, j) for i in range(n) for j in bits(up[i] & ~(1 << i)))


def _canonical_poset(n: int, rel: frozenset) -> tuple:
    """Smallest relabeling of a strict order, for isomorphism dedup."""
    best = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(sorted((perm[i], perm[j]) for i, j in rel))
        if best is None or enc < best:
            best = enc
    return best


def all_posets(n: int) -> list[frozenset]:
    """One strict-order relation per isomorphism class on n points.

    Pairs are drawn only with i < j, so every DAG listed has the identity
    as a linear extension; every poset shows up under some labeling.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    closed = set()
    seen = {}
    for mask in range(1 << len(pairs)):
        rel = _transitive_closure(
            n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
        if rel not in closed:   # canonicalize each order once
            closed.add(rel)
            seen.setdefault(_canonical_poset(n, rel), rel)
    return [seen[k] for k in sorted(seen)]


def _lattice_of_sets(sets, name: Optional[str]) -> FiniteFrame:
    """A union- and intersection-closed family of point sets as a frame."""
    elems = sorted(sets, key=lambda d: (popcount(d), d))
    up = [0] * len(elems)
    for i, d in enumerate(elems):
        for j, e in enumerate(elems):
            if d & ~e == 0:
                up[i] |= 1 << j
    labels = ["o" if d == 0 else "".join(str(p) for p in bits(d))
              for d in elems]
    return frame_from_leq(up, labels=labels, name=name)


def downset_frame(n_points: int, rel: frozenset,
                  name: Optional[str] = None) -> FiniteFrame:
    """The Birkhoff frame of downsets of a poset, ordered by inclusion."""
    below = [0] * n_points
    for i, j in rel:
        below[j] |= 1 << i
    return _lattice_of_sets(
        (d for d in range(1 << n_points)
         if all(below[j] & ~d == 0 for j in bits(d))), name)


def _random_poset(rng: random.Random, n_points: int) -> frozenset:
    p = rng.uniform(0.2, 0.7)
    rel = frozenset((i, j)
                    for i in range(n_points) for j in range(i + 1, n_points)
                    if rng.random() < p)
    return _transitive_closure(n_points, rel)


def _random_topology_frame(rng: random.Random, size_cap: int,
                           name: str) -> Optional[FiniteFrame]:
    """Open-set lattice of a random topology on up to 4 points."""
    k = rng.randint(2, 4)
    full = (1 << k) - 1
    opens = {0, full}
    for _ in range(rng.randint(1, 1 << k)):
        opens.add(rng.randint(0, full))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(tuple(opens), 2):
            for c in (a | b, a & b):
                if c not in opens:
                    opens.add(c)
                    changed = True
    if len(opens) > size_cap:
        return None
    return _lattice_of_sets(opens, name)


def gen_frames(spec: GenSpec) -> list[FiniteFrame]:
    """The frame corpus for a spec, in a fixed deterministic order."""
    fam = spec.family
    if fam == "chain":
        return [chain_frame(n)
                for n in range(1, min(spec.max_size, ENUMERATION_CAP) + 1)]
    if fam == "boolean-algebra":
        return [boolean_frame(k) for k in range(0, 5)
                if 1 << k <= min(spec.max_size, ENUMERATION_CAP)]
    if fam == "all-posets-up-to":
        out = []
        # size 0 contributes the one-element frame, the only finite frame
        # whose Booleanization is rare
        for n in range(spec.max_size + 1):
            for idx, rel in enumerate(all_posets(n)):
                f = downset_frame(n, rel, name=f"P{n}-{idx}")
                if f.n <= ENUMERATION_CAP:
                    out.append(f)
        return out
    rng = random.Random(spec.seed)
    count = spec.count or 50
    cap = min(spec.max_size, ENUMERATION_CAP)
    out = []
    if fam == "random-poset":
        idx = 0
        while len(out) < count:
            n_points = rng.randint(1, 5)
            rel = _random_poset(rng, n_points)
            f = downset_frame(n_points, rel, name=f"R{idx}")
            idx += 1
            if f.n <= cap:
                out.append(f)
        return out
    # finite-topology
    idx = 0
    while len(out) < count:
        f = _random_topology_frame(rng, cap, name=f"T{idx}")
        idx += 1
        if f is not None:
            out.append(f)
    return out


def sample_evenly(items: list, cap: int) -> list:
    """Deterministic evenly-spaced sample when a list exceeds the cap."""
    if len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(i * step)] for i in range(cap)]


def _free_points(frame: FiniteFrame) -> int:
    """How many points lie outside BL: a dense S is one set Q of them."""
    return popcount(frame.points_mask() & ~booleanization(frame).mask)


def gen_dense_sublocales(frame: FiniteFrame) -> list[Sublocale]:
    """All dense sublocales, BL first and L last: the spans of pts(BL)
    and Q for every set Q of free points, in the order of Q (mask order
    on every generated frame; see :func:`dense_sublocales`)."""
    return dense_sublocales(frame, range(1 << _free_points(frame)))


# ---------------------------------------------------------------------------
# Localic maps via backtracking over monotone meet-preserving tables
# ---------------------------------------------------------------------------

def gen_maps(src: FiniteFrame, tgt: FiniteFrame,
             limit: int = 0, seed: Optional[int] = None) -> list[LocalicMap]:
    """All localic maps src -> tgt, the first ``limit`` when it is nonzero.

    Tables are grown along a linear extension of the source, pruning on
    meet preservation; the meet of any two assigned elements is already
    assigned, so partial tables are checked exactly.  A seed shuffles the
    candidate order, trading exhaustiveness for variety under a limit.
    """
    n = src.n
    order = sorted(range(n), key=lambda a: (popcount(src.down[a]), a))
    rng = random.Random(seed) if seed is not None else None
    results: list[LocalicMap] = []
    table: list[Optional[int]] = [None] * n

    def rec(k: int) -> None:
        if limit and len(results) >= limit:
            return
        if k == n:
            try:
                results.append(build_map(src, tgt, [v for v in table]))
            except LocalicError:
                pass
            return
        a = order[k]
        cands = [tgt.top] if a == src.top else list(range(tgt.n))
        if rng is not None:
            rng.shuffle(cands)
        for v in cands:
            ok = True
            for j in range(k):
                b = order[j]
                if tgt.meet_table[v][table[b]] != table[src.meet_table[a][b]]:
                    ok = False
                    break
            if ok:
                table[a] = v
                rec(k + 1)
                table[a] = None

    rec(0)
    if rng is None:
        results.sort(key=lambda m: m.table)
    return results


def inclusion_map(s: Sublocale) -> LocalicMap:
    """The induced frame of s included back into the ambient frame, built
    on the first call and kept with s's induced-frame view.

    Its derived adjoint is the nucleus of s, which preserves finite meets.
    """
    if s._inclusion is None:
        sub, elems = s.as_frame()
        s._inclusion = build_map(sub, s.frame, elems)
    return s._inclusion


def restriction_map(f: LocalicMap, s: Sublocale, t: Sublocale
                    ) -> Optional[LocalicMap]:
    """f cut down to induced frames, when f maps members of s into t.

    Induced frames keep the ambient meets and points, so the cut-down
    table still preserves meets and sends points to points.
    """
    sub_s, elems_s = s.as_frame()
    sub_t, elems_t = t.as_frame()
    pos_t = {e: i for i, e in enumerate(elems_t)}
    table = []
    for x in elems_s:
        y = f(x)
        if y not in pos_t:
            return None
        table.append(pos_t[y])
    return build_map(sub_s, sub_t, table)


# ---------------------------------------------------------------------------
# Squares, chains, triangles
# ---------------------------------------------------------------------------

def square_from(f: LocalicMap, s: Sublocale, t: Sublocale
                ) -> Optional[DenseSquare]:
    """Assemble the square with inclusion verticals and g = f restricted."""
    if not (s.is_dense() and t.is_dense()):
        return None
    g = restriction_map(f, s, t)
    if g is None:
        return None
    return DenseSquare(g, f, inclusion_map(s), inclusion_map(t))


def identity_square(frame: FiniteFrame, s: Sublocale) -> DenseSquare:
    sq = square_from(identity_map(frame), s, s)
    assert sq is not None
    return sq


def _pair_maps(l: FiniteFrame, m: FiniteFrame, limit: int,
               seed: int) -> list[LocalicMap]:
    """Maps between a frame pair; same-frame pairs lead with the identity."""
    if l is m:
        ident = identity_map(l)
        out = [ident]
        for mp in gen_maps(l, l, limit=limit):
            if mp.table != ident.table:
                out.append(mp)
        return out[:limit + 1]
    return gen_maps(l, m, limit=limit, seed=seed)


def _squares_over(f: LocalicMap, ss: list[Sublocale], ts: list[Sublocale]
                  ) -> Iterator[tuple[DenseSquare, Sublocale]]:
    """(square, T) for each S in ss and T in ts that f restricts to."""
    for s in ss:
        for t in ts:
            sq = square_from(f, s, t)
            if sq is not None:
                yield sq, t


def gen_squares(frames: list[FiniteFrame], seed: int = 0
                ) -> list[DenseSquare]:
    """The first SQUARE_BUDGET squares over pairs of frames of at most
    DIAGRAM_FRAME_CAP elements, in list order, each pair with a few searched
    maps (the identity first on a same-frame pair)."""
    small = [f for f in frames if f.n <= DIAGRAM_FRAME_CAP]
    dense = [gen_dense_sublocales(f) for f in small]
    out: list[DenseSquare] = []
    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            for f in _pair_maps(l, m, SQUARE_MAPS_PER_PAIR,
                                seed + 7919 * li + mi):
                for sq, _ in _squares_over(f, dense[li], dense[mi]):
                    out.append(sq)
                    if len(out) >= SQUARE_BUDGET:
                        return out
    return out


def gen_chains(squares: list[DenseSquare]) -> list[SquareChain]:
    """The first CHAIN_BUDGET chains: dense middle layers R (S <= R <= L)
    and U (T <= U <= M) interposed in each square, R's and U's maps built
    once each."""
    out: list[SquareChain] = []
    for sq in squares:
        s, t = whole_subl(sq.s_frame), whole_subl(sq.t_frame)
        # i and k are never None: R holds alpha[S], U holds omega[T]
        uppers = [(r, inclusion_map(r), restriction_map(sq.alpha, s, r))
                  for r in gen_dense_sublocales(sq.l_frame)
                  if sq.alpha_image.mask & ~r.mask == 0]
        lowers = [(u, inclusion_map(u), restriction_map(sq.omega, t, u))
                  for u in gen_dense_sublocales(sq.m_frame)
                  if sq.omega_image.mask & ~u.mask == 0]
        for r, theta, i in uppers:
            for u, sigma, k in lowers:
                phi = restriction_map(sq.f, r, u)
                if phi is None:
                    continue
                out.append(SquareChain(sq, i, k, phi, theta, sigma))
                if len(out) >= CHAIN_BUDGET:
                    return out
    return out


def gen_triangles(frames: list[FiniteFrame], seed: int = 0
                  ) -> list[Triangle]:
    """The first TRIANGLE_BUDGET square pairs sharing the middle vertical,
    over frame triples in list order.  A first square is built once per
    frame pair, and the second squares once per (p, T) in a frame triple."""
    small = [f for f in frames if f.n <= DIAGRAM_FRAME_CAP]
    dense = [gen_dense_sublocales(f) for f in small]
    out: list[Triangle] = []
    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            fs = _pair_maps(l, m, TRIANGLE_MAPS_PER_PAIR, seed + 31 * li + mi)
            firsts = [list(_squares_over(f, dense[li], dense[mi]))
                      for f in fs]
            for ni, nf in enumerate(small):
                ps = _pair_maps(m, nf, TRIANGLE_MAPS_PER_PAIR,
                                seed + 31 * mi + ni + 1)
                seconds = [{} for _ in ps]    # per p: T's mask -> squares
                for row in firsts:
                    for p, after_p in zip(ps, seconds):
                        for sq1, t in row:
                            if t.mask not in after_p:
                                after_p[t.mask] = [
                                    sq for sq, _ in
                                    _squares_over(p, [t], dense[ni])]
                            for sq2 in after_p[t.mask]:
                                out.append(Triangle(sq1, sq2))
                                if len(out) >= TRIANGLE_BUDGET:
                                    return out
    return out


def build_corpus(spec: GenSpec) -> dict[str, list]:
    """All suite instances for a spec, keyed by check scope."""
    frames = gen_frames(spec)
    contexts = []
    for f in frames:
        # evenly spaced sets Q of free points (Q = 0 gives BL), and L
        every = range(1 << _free_points(f))
        qs = {*sample_evenly(every, MAX_CONTEXTS_PER_FRAME), every[-1]}
        contexts += [dense_context(f, s)
                     for s in dense_sublocales(f, sorted(qs))]
    squares = gen_squares(frames, seed=spec.seed)
    return {"frame": frames, "context": contexts, "square": squares,
            "chain": gen_chains(squares),
            "triangle": gen_triangles(frames, seed=spec.seed)}
