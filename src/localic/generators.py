"""Instance generators: frames, dense sublocales, maps, squares, chains.

Everything here is deterministic given a :class:`GenSpec`: the exhaustive
families enumerate in a fixed order and the random families derive all
choices from the seed.  Emitted objects are validated through the regular
constructors, never assumed correct.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import LocalicError
from .frame import (
    FiniteFrame, bits, boolean_frame, chain_frame, frame_from_leq, popcount,
)
from .locmap import LocalicMap, build_map
from .diagrams import DenseSquare, SquareChain, Triangle
from .sublocale import Sublocale, enumerate_sublocales

FAMILIES = ("all-posets-up-to", "random-poset", "chain",
            "boolean-algebra", "finite-topology")

# Downset lattices above this size are rejected by the random families.
FRAME_SIZE_CAP = 16


@dataclass(frozen=True)
class GenSpec:
    """Reproducible description of a generated corpus."""

    family: str
    max_size: int
    seed: int = 0
    count: int = 0          # random families: instances to emit (0 = default)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.max_size < 0 or self.count < 0:
            raise ValueError(f"max_size and count must be non-negative, "
                             f"got {self.max_size} and {self.count}")

    def to_json(self) -> dict:
        return {"family": self.family, "max_size": self.max_size,
                "seed": self.seed, "count": self.count}

    @classmethod
    def from_json(cls, doc: dict) -> "GenSpec":
        return cls(doc["family"], doc["max_size"],
                   doc.get("seed", 0), doc.get("count", 0))


# ---------------------------------------------------------------------------
# Posets and their downset lattices
# ---------------------------------------------------------------------------

def _transitive_closure(n: int, rel: frozenset) -> frozenset:
    out = set(rel)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(out), repeat=2):
            if b == c and (a, d) not in out:
                out.add((a, d))
                changed = True
    return frozenset(out)


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
    seen = {}
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        rel = _transitive_closure(n, rel)
        key = _canonical_poset(n, rel)
        if key not in seen:
            seen[key] = rel
    return [seen[k] for k in sorted(seen)]


def downset_frame(n_points: int, rel: frozenset,
                  name: Optional[str] = None) -> FiniteFrame:
    """The Birkhoff frame of downsets of a poset, ordered by inclusion."""
    below = [0] * n_points
    for i, j in rel:
        below[j] |= 1 << i
    downsets = []
    for d in range(1 << n_points):
        if all(below[j] & ~d == 0 for j in bits(d)):
            downsets.append(d)
    downsets.sort(key=lambda d: (popcount(d), d))
    pos = {d: i for i, d in enumerate(downsets)}
    up = [0] * len(downsets)
    for i, d in enumerate(downsets):
        for j, e in enumerate(downsets):
            if d & ~e == 0:
                up[i] |= 1 << j
    labels = ["o" if d == 0 else "".join(str(p) for p in bits(d))
              for d in downsets]
    return frame_from_leq(up, labels=labels, name=name)


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
    elems = sorted(opens, key=lambda d: (popcount(d), d))
    up = [0] * len(elems)
    for i, d in enumerate(elems):
        for j, e in enumerate(elems):
            if d & ~e == 0:
                up[i] |= 1 << j
    labels = ["o" if d == 0 else "".join(str(p) for p in bits(d))
              for d in elems]
    return frame_from_leq(up, labels=labels, name=name)


def gen_frames(spec: GenSpec) -> list[FiniteFrame]:
    """The frame corpus for a spec, in a fixed deterministic order."""
    fam = spec.family
    if fam == "chain":
        return [chain_frame(n) for n in range(1, min(spec.max_size, 16) + 1)]
    if fam == "boolean-algebra":
        return [boolean_frame(k) for k in range(0, 5)
                if 1 << k <= min(spec.max_size, FRAME_SIZE_CAP)]
    if fam == "all-posets-up-to":
        out = []
        # size 0 contributes the one-element frame, the only finite frame
        # whose Booleanization is rare
        for n in range(0, min(spec.max_size, 5) + 1):
            for idx, rel in enumerate(all_posets(n)):
                f = downset_frame(n, rel, name=f"P{n}-{idx}")
                if f.n <= FRAME_SIZE_CAP:
                    out.append(f)
        return out
    rng = random.Random(spec.seed)
    count = spec.count or 50
    cap = min(spec.max_size, FRAME_SIZE_CAP)
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


def gen_dense_sublocales(frame: FiniteFrame) -> list[Sublocale]:
    """All dense sublocales; always contains the Booleanization and L."""
    return [s for s in enumerate_sublocales(frame) if s.is_dense()]


# ---------------------------------------------------------------------------
# Localic maps via backtracking over monotone meet-preserving tables
# ---------------------------------------------------------------------------

# Give up on a map search after this many backtracking nodes.
SEARCH_BUDGET = 200_000


def gen_maps(src: FiniteFrame, tgt: FiniteFrame,
             limit: int = 0, seed: Optional[int] = None) -> list[LocalicMap]:
    """All localic maps src -> tgt (up to the search budget).

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
    nodes = 0

    def rec(k: int) -> None:
        nonlocal nodes
        if (limit and len(results) >= limit) or nodes > SEARCH_BUDGET:
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
            nodes += 1
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
    """The induced frame of s included back into the ambient frame.

    Its derived adjoint is the nucleus of s, which preserves finite meets.
    """
    sub, elems = s.as_frame()
    return build_map(sub, s.frame, elems, name="incl")


def corestriction_map(f: LocalicMap, t: Sublocale) -> Optional[LocalicMap]:
    """f with its target cut down to the induced frame of t."""
    sub_t, elems_t = t.as_frame()
    pos_t = {e: i for i, e in enumerate(elems_t)}
    table = []
    for x in range(f.source.n):
        y = f(x)
        if y not in pos_t:
            return None
        table.append(pos_t[y])
    try:
        return build_map(f.source, sub_t, table)
    except LocalicError:
        return None


def restriction_map(f: LocalicMap, s: Sublocale, t: Sublocale
                    ) -> Optional[LocalicMap]:
    """f cut down to induced frames, when f maps members of s into t."""
    sub_s, elems_s = s.as_frame()
    sub_t, elems_t = t.as_frame()
    pos_t = {e: i for i, e in enumerate(elems_t)}
    table = []
    for x in elems_s:
        y = f(x)
        if y not in pos_t:
            return None
        table.append(pos_t[y])
    try:
        return build_map(sub_s, sub_t, table)
    except LocalicError:
        return None


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
    try:
        return DenseSquare(g, f, inclusion_map(s), inclusion_map(t))
    except LocalicError:
        return None


def identity_square(frame: FiniteFrame, s: Sublocale) -> DenseSquare:
    from .locmap import identity_map
    sq = square_from(identity_map(frame), s, s)
    assert sq is not None
    return sq


def _pair_maps(l: FiniteFrame, m: FiniteFrame, limit: int,
               seed: int) -> list[LocalicMap]:
    """Maps between a frame pair; same-frame pairs lead with the identity."""
    from .locmap import identity_map
    if l is m:
        ident = identity_map(l)
        out = [ident]
        for mp in gen_maps(l, l, limit=limit):
            if mp.table != ident.table:
                out.append(mp)
        return out[:limit + 1]
    return gen_maps(l, m, limit=limit, seed=seed)


def gen_squares(frames: list[FiniteFrame], max_frame: int = 8,
                maps_per_pair: int = 4, budget: int = 0,
                seed: int = 0) -> list[DenseSquare]:
    """Squares over all frame pairs below the size cutoff.

    Same-frame pairs come first with their full dense-sublocale grid;
    cross pairs use searched maps, a few per pair.  The budget, when
    nonzero, truncates deterministically.
    """
    small = [f for f in frames if f.n <= max_frame]
    out: list[DenseSquare] = []

    def push(sq: Optional[DenseSquare]) -> bool:
        if sq is not None:
            out.append(sq)
        return bool(budget) and len(out) >= budget

    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            maps = _pair_maps(l, m, maps_per_pair,
                              seed + 7919 * li + mi)
            for f in maps:
                for s in gen_dense_sublocales(l):
                    for t in gen_dense_sublocales(m):
                        if push(square_from(f, s, t)):
                            return out
    return out


def gen_chains(squares: list[DenseSquare], budget: int = 0
               ) -> list[SquareChain]:
    """Interpose dense middle layers R (S <= R <= L) and U (T <= U <= M)."""
    out: list[SquareChain] = []
    for sq in squares:
        mids_l = [r for r in gen_dense_sublocales(sq.l_frame)
                  if sq.alpha_image.mask & ~r.mask == 0]
        mids_m = [u for u in gen_dense_sublocales(sq.m_frame)
                  if sq.omega_image.mask & ~u.mask == 0]
        for r in mids_l:
            theta = inclusion_map(r)
            i = corestriction_map(sq.alpha, r)
            if i is None:
                continue
            for u in mids_m:
                phi = restriction_map(sq.f, r, u)
                if phi is None:
                    continue
                k = corestriction_map(sq.omega, u)
                if k is None:
                    continue
                try:
                    chain = SquareChain(sq, i, k, phi, theta,
                                        inclusion_map(u))
                except LocalicError:
                    continue
                out.append(chain)
                if budget and len(out) >= budget:
                    return out
    return out


def gen_triangles(frames: list[FiniteFrame], max_frame: int = 8,
                  maps_per_pair: int = 2, budget: int = 0,
                  seed: int = 0) -> list[Triangle]:
    """Composable square pairs sharing the middle vertical."""
    small = [f for f in frames if f.n <= max_frame]
    out: list[Triangle] = []
    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            for ni, nf in enumerate(small):
                fs = _pair_maps(l, m, maps_per_pair, seed + 31 * li + mi)
                ps = _pair_maps(m, nf, maps_per_pair, seed + 31 * mi + ni + 1)
                for f in fs:
                    for p in ps:
                        for s in gen_dense_sublocales(l):
                            for t in gen_dense_sublocales(m):
                                sq1 = square_from(f, s, t)
                                if sq1 is None:
                                    continue
                                for v in gen_dense_sublocales(nf):
                                    sq2 = square_from(p, t, v)
                                    if sq2 is None:
                                        continue
                                    try:
                                        out.append(Triangle(sq1, sq2))
                                    except LocalicError:
                                        continue
                                    if budget and len(out) >= budget:
                                        return out
    return out
