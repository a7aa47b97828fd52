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
from typing import Iterable, Iterator, Optional

from .frame import (
    ENUMERATION_CAP, FiniteFrame, bits, boolean_frame,
    _mask_of, _sweep_down, chain_frame, frame_from_leq, popcount,
)
from .locmap import LocalicMap, build_map, identity_map
from .diagrams import DenseSquare, SquareChain, Triangle
from .remoteness import dense_context
from .sublocale import Sublocale, dense_sublocales, whole_subl

FAMILIES = ("all-posets-up-to", "random-poset", "chain",
            "boolean-algebra", "finite-topology")

# Squares and triangles are built only over frames of at most this size.
DIAGRAM_FRAME_CAP = 8
# Maps drawn per frame pair: for a square's f, and for each triangle leg.
SQUARE_MAPS_PER_PAIR = 4
TRIANGLE_MAPS_PER_PAIR = 2
# The suite corpus: the most dense sublocales of a frame that all become
# contexts (build_corpus), and where each diagram list stops.
MAX_CONTEXTS_PER_FRAME = 16
SQUARE_BUDGET = 400
CHAIN_BUDGET = 240
TRIANGLE_BUDGET = 240
# The most instances a random family may ask for: a spec above it is
# refused before anything is built.
MAX_COUNT = 10_000


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
        if count > MAX_COUNT:
            raise ValueError(f"count must be at most {MAX_COUNT}, "
                             f"got {count}")
        # only the random families draw a number of frames; a count
        # elsewhere would change the report's genspec, not its corpus
        if count and family not in ("random-poset", "finite-topology"):
            raise ValueError(f"{family} takes no count, got {count}")
        # no random frame has under 2 elements, so gen_frames would loop;
        # a chain or Boolean corpus under cap 1 is empty and checks nothing
        least = {"random-poset": 2, "finite-topology": 2, "chain": 1,
                 "boolean-algebra": 1}.get(family, 0)
        if max_size < least:
            raise ValueError(f"{family} needs max_size of at least {least}, "
                             f"got {max_size}")
        # the exhaustive corpus stops at 5 points, and every other family
        # at ENUMERATION_CAP elements; refuse what gen_frames would skip
        if family == "all-posets-up-to" and max_size > 5:
            raise ValueError(f"all-posets-up-to builds at most 5 points, "
                             f"got max_size {max_size}")
        if family != "all-posets-up-to" and max_size > ENUMERATION_CAP:
            raise ValueError(f"{family} builds frames of at most "
                             f"{ENUMERATION_CAP} elements, got max_size "
                             f"{max_size}")
        return super().__new__(cls, family, max_size, seed, count)

    def to_json(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# Posets and their downset lattices
# ---------------------------------------------------------------------------

def all_posets(n: int) -> list[frozenset]:
    """One strict-order relation per isomorphism class on n points.

    Pairs are drawn only with i < j, so every DAG listed has the identity
    as a linear extension; every poset shows up under some labeling.  A
    class is keyed by the least relabeling of its first-seen relation,
    as a sorted tuple of codes i*n + j, and listed in key order.  Its
    whole orbit is computed once, and the naturally labelled members,
    the only ones the DAG walk reaches, are then skipped on sight.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relabel = [tuple(p[c // n] * n + p[c % n] for c in range(n * n))
               for p in itertools.permutations(range(n))]
    upper = {i * n + j for i, j in pairs}
    done = set()    # naturally labelled members of the classes keyed so far
    seen = {}
    for mask in range(1 << len(pairs)):
        up = [0] * n
        for k in bits(mask):
            i, j = pairs[k]
            up[i] |= 1 << j
        _sweep_down(up)
        rel = tuple(i * n + j for i, m in enumerate(up) for j in bits(m))
        if rel in done:
            continue
        orbit = {tuple(sorted(map(p.__getitem__, rel))) for p in relabel}
        seen[min(orbit)] = rel
        done.update(enc for enc in orbit if upper.issuperset(enc))
    return [frozenset(divmod(c, n) for c in seen[k]) for k in sorted(seen)]


def _lattice_of_sets(sets, name: Optional[str]) -> FiniteFrame:
    """A union- and intersection-closed family of point sets as a frame."""
    elems = sorted(sets, key=lambda d: (popcount(d), d))
    up = [_mask_of(j for j, e in enumerate(elems) if d & ~e == 0)
          for d in elems]
    labels = ["o" if d == 0 else "".join(str(p) for p in bits(d))
              for d in elems]
    return frame_from_leq(up, labels=labels, name=name)


def _downsets(n_points: int, rel: frozenset) -> list[int]:
    """The downsets of a poset as point masks, in mask order."""
    below = [0] * n_points
    for i, j in rel:
        below[j] |= 1 << i
    return [d for d in range(1 << n_points)
            if all(below[j] & ~d == 0 for j in bits(d))]


def downset_frame(n_points: int, rel: frozenset,
                  name: Optional[str] = None) -> FiniteFrame:
    """The Birkhoff frame of downsets of a poset, ordered by inclusion."""
    return _lattice_of_sets(_downsets(n_points, rel), name)


def _random_poset(rng: random.Random, n_points: int) -> frozenset:
    p = rng.uniform(0.2, 0.7)
    up = [_mask_of(j for j in range(i + 1, n_points) if rng.random() < p)
          for i in range(n_points)]
    _sweep_down(up)
    return frozenset((i, j) for i, m in enumerate(up) for j in bits(m))


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
        return [chain_frame(n) for n in range(1, spec.max_size + 1)]
    if fam == "boolean-algebra":
        return [boolean_frame(k) for k in range(0, 5)
                if 1 << k <= spec.max_size]
    if fam == "all-posets-up-to":
        out = []
        # size 0 contributes the one-element frame, the only finite frame
        # whose Booleanization is rare
        for n in range(spec.max_size + 1):
            for idx, rel in enumerate(all_posets(n)):
                downs = _downsets(n, rel)   # counted before any build
                if len(downs) <= ENUMERATION_CAP:
                    out.append(_lattice_of_sets(downs, f"P{n}-{idx}"))
        return out
    rng = random.Random(spec.seed)
    count = spec.count or 50
    out = []
    if fam == "random-poset":
        idx = 0
        while len(out) < count:
            n_points = rng.randint(1, 5)
            downs = _downsets(n_points, _random_poset(rng, n_points))
            if len(downs) <= spec.max_size:
                out.append(_lattice_of_sets(downs, f"R{idx}"))
            idx += 1
        return out
    # finite-topology
    idx = 0
    while len(out) < count:
        f = _random_topology_frame(rng, spec.max_size, name=f"T{idx}")
        idx += 1
        if f is not None:
            out.append(f)
    return out


def _free_points(frame: FiniteFrame) -> int:
    """How many points lie outside BL: a dense S is one set Q of them."""
    return popcount(frame.points_mask() & ~frame.min_points())


def gen_dense_sublocales(frame: FiniteFrame) -> tuple[Sublocale, ...]:
    """All dense sublocales, BL first and L last: the spans of pts(BL)
    and Q for every set Q of free points, in the order of Q (mask order
    on every generated frame; see :func:`dense_sublocales`), kept on the
    frame as a tuple after the first call."""
    dense = frame.kept.get("dense")
    if dense is None:
        dense = frame.kept["dense"] = tuple(
            dense_sublocales(frame, range(1 << _free_points(frame))))
    return dense


# ---------------------------------------------------------------------------
# Localic maps as monotone maps of points
# ---------------------------------------------------------------------------

def gen_maps(src: FiniteFrame, tgt: FiniteFrame,
             limit: int = 0, seed: Optional[int] = None) -> list[LocalicMap]:
    """All localic maps src -> tgt, the first ``limit`` when it is nonzero.

    Between finite frames a localic map is a monotone map of points, with
    f(x) the meet of f(p) over the points p >= x (Picado & Pultr, ch. II).
    Points are assigned along a linear extension of the source, each to a
    target point above the images of the points below it, so every
    complete assignment is a localic map.  A seed shuffles each point's
    candidates, trading exhaustiveness for variety under a limit.
    """
    pts = src.points_mask()
    order = [p for p in sorted(range(src.n),
                               key=lambda a: (popcount(src.down[a]), a))
             if pts >> p & 1]
    tgt_pts = list(bits(tgt.points_mask()))
    rng = random.Random(seed) if seed is not None else None
    results: list[LocalicMap] = []
    image: list[int] = [tgt.top] * src.n    # f on the points assigned so far

    def rec(k: int) -> None:
        if limit and len(results) >= limit:
            return
        if k == len(order):
            table = [tgt.meet_of(image[p] for p in bits(pts & src.up[x]))
                     for x in range(src.n)]
            results.append(build_map(src, tgt, table))
            return
        p = order[k]
        above = (1 << tgt.n) - 1
        for q in bits(pts & src.down[p] & ~(1 << p)):
            above &= tgt.up[image[q]]
        cands = list(tgt_pts)
        if rng is not None:
            rng.shuffle(cands)
        for v in cands:
            if above >> v & 1:
                image[p] = v
                rec(k + 1)

    rec(0)
    if rng is None:
        results.sort(key=lambda m: m.table)
    return results


def inclusion_map(s: Sublocale) -> LocalicMap:
    """The induced frame of s included back into the ambient frame, built
    on the first call for s's mask and kept on the frame, like its view.

    Its derived adjoint is the nucleus of s, which preserves finite meets.
    """
    frame, key = s.frame, ("inclusion", s.mask)
    inc = frame.kept.get(key)
    if inc is None:
        sub, elems = s.as_frame()
        inc = frame.kept[key] = build_map(sub, frame, elems)
    return inc


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


def _squares_over(f: LocalicMap, ss: Iterable[Sublocale]
                  ) -> Iterator[tuple[DenseSquare, Sublocale]]:
    """(square, T) for each S in ss and dense T of f's target that f
    restricts to."""
    for s in ss:
        for t in gen_dense_sublocales(f.target):
            sq = square_from(f, s, t)
            if sq is not None:
                yield sq, t


def gen_squares(frames: list[FiniteFrame], seed: int = 0
                ) -> list[DenseSquare]:
    """The first SQUARE_BUDGET squares over pairs of frames of at most
    DIAGRAM_FRAME_CAP elements, in list order, each pair with a few drawn
    maps (the identity first on a same-frame pair)."""
    small = [f for f in frames if f.n <= DIAGRAM_FRAME_CAP]
    out: list[DenseSquare] = []
    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            for f in _pair_maps(l, m, SQUARE_MAPS_PER_PAIR,
                                seed + 7919 * li + mi):
                for sq, _ in _squares_over(f, gen_dense_sublocales(l)):
                    out.append(sq)
                    if len(out) >= SQUARE_BUDGET:
                        return out
    return out


def gen_chains(squares: list[DenseSquare]) -> list[SquareChain]:
    """The first CHAIN_BUDGET chains: dense middle layers R (S <= R <= L)
    and U (T <= U <= M) interposed in each square."""
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
    out: list[Triangle] = []
    for li, l in enumerate(small):
        for mi, m in enumerate(small):
            fs = _pair_maps(l, m, TRIANGLE_MAPS_PER_PAIR, seed + 31 * li + mi)
            firsts = [list(_squares_over(f, gen_dense_sublocales(l)))
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
                                    _squares_over(p, [t])]
                            for sq2 in after_p[t.mask]:
                                out.append(Triangle(sq1, sq2))
                                if len(out) >= TRIANGLE_BUDGET:
                                    return out
    return out


def build_corpus(spec: GenSpec) -> dict[str, list]:
    """All suite instances for a spec, keyed by check scope."""
    frames = gen_frames(spec)
    rng = random.Random(spec.seed)
    contexts = []
    for f in frames:
        # every set Q of free points, or when there are too many, Q = 0
        # (BL), Q = all of them (L) and distinct others drawn by the seed
        full = (1 << _free_points(f)) - 1
        qs = range(full + 1)
        if len(qs) > MAX_CONTEXTS_PER_FRAME:
            drawn = rng.sample(range(1, full), MAX_CONTEXTS_PER_FRAME - 1)
            qs = [0, *sorted(drawn), full]
        contexts += [dense_context(f, s) for s in dense_sublocales(f, qs)]
    squares = gen_squares(frames, seed=spec.seed)
    return {"frame": frames, "context": contexts, "square": squares,
            "chain": gen_chains(squares),
            "triangle": gen_triangles(frames, seed=spec.seed)}
