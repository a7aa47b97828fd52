"""Finite frames (complete distributive lattices) with precomputed tables.

Elements are integers ``0..n-1``.  Sets of elements are carried around as
int bitmasks throughout the package; ``bits(mask)`` iterates the indices.
A frame is immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAPartialOrder, NotALattice, NotDistributive, FrameTooLarge

# Frames larger than this are rejected outright.
MAX_ELEMENTS = 64
# Frames above this are refused by operations that enumerate all of S(L).
ENUMERATION_CAP = 16


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class FiniteFrame:
    """A finite bounded distributive lattice with Heyting implication.

    Do not call directly: use :func:`build_frame` or :func:`frame_from_leq`,
    which validate the order and precompute all tables.
    """

    __slots__ = (
        "n", "up", "down", "meet_table", "join_table", "impl_table",
        "bottom", "top", "labels", "name",
        "_label_index", "_impl_req", "_dense_mask", "_bool_mask",
        "_point_mask", "_sublocales", "_min_pts", "_point_subls",
        "_dense_subls", "_contexts",
    )

    def __init__(self, n, up, down, meet_table, join_table, impl_table,
                 bottom, top, labels, name):
        self.n = n
        self.up = up            # up[a] = bitmask of {x : a <= x}
        self.down = down        # down[a] = bitmask of {x : x <= a}
        self.meet_table = meet_table
        self.join_table = join_table
        self.impl_table = impl_table
        self.bottom = bottom
        self.top = top
        self.labels = labels
        self.name = name
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        # For element s: the mask of elements {x -> s : x in L} that any
        # sublocale containing s must also contain.
        self._impl_req = tuple(
            _mask_of(impl_table[x][s] for x in range(n)) for s in range(n)
        )
        self._dense_mask = _mask_of(
            a for a in range(n) if impl_table[a][bottom] == bottom
        )
        self._bool_mask = _mask_of(impl_table[x][bottom] for x in range(n))
        ups = set(up)       # points: see points_mask
        self._point_mask = _mask_of(
            p for p in range(n) if up[p] & ~(1 << p) in ups)
        # kept on first use: sublocale.py fills the first four,
        # remoteness.dense_context the contexts, keyed by S's mask
        self._sublocales = None
        self._min_pts = None
        self._point_subls = None
        self._dense_subls = None
        self._contexts = None

    # -- order and lattice operations ------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def heyting(self, a: int, b: int) -> int:
        """Largest x with x /\\ a <= b."""
        return self.impl_table[a][b]

    def pseudocomplement(self, a: int) -> int:
        return self.impl_table[a][self.bottom]

    def meet_of(self, xs: Iterable[int]) -> int:
        """Meet of a finite element set; the empty meet is top."""
        out = self.top
        row = self.meet_table
        for x in xs:
            out = row[out][x]
        return out

    def join_of(self, xs: Iterable[int]) -> int:
        """Join of a finite element set; the empty join is bottom."""
        out = self.bottom
        row = self.join_table
        for x in xs:
            out = row[out][x]
        return out

    # -- element predicates -----------------------------------------------

    def is_dense_element(self, a: int) -> bool:
        return bool(self._dense_mask >> a & 1)

    def is_complemented_element(self, a: int) -> bool:
        return self.join_table[a][self.pseudocomplement(a)] == self.top

    def points_mask(self) -> int:
        """The points (primes) of the frame as a mask.

        In a finite distributive lattice the primes are the meet-irreducible
        elements p < 1: those whose strict up-set has a least element.
        :meth:`is_point` is the independent oracle.
        """
        return self._point_mask

    def is_point(self, p: int) -> bool:
        """p < 1 and a /\\ b <= p forces a <= p or b <= p."""
        if p == self.top:
            return False
        below_p = self.down[p]
        for a in range(self.n):
            if below_p >> a & 1:
                continue
            for b in range(a, self.n):
                if below_p >> b & 1:
                    continue
                if below_p >> self.meet_table[a][b] & 1:
                    return False
        return True

    def is_boolean(self) -> bool:
        return all(self.is_complemented_element(a) for a in range(self.n))

    def dense_elements_mask(self) -> int:
        return self._dense_mask

    # -- misc ---------------------------------------------------------------

    def require_enumerable(self) -> None:
        if self.n > ENUMERATION_CAP:
            raise FrameTooLarge(
                f"frame {self.name or ''} has {self.n} elements; sublocale "
                f"enumeration is capped at {ENUMERATION_CAP}"
            )

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        return self._label_index[label]

    def subject(self) -> str:
        return self.name or f"frame(n={self.n})"

    def __repr__(self) -> str:
        return f"FiniteFrame({self.name or 'unnamed'}, n={self.n})"


def _mask_of(xs: Iterable[int]) -> int:
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def _close_order(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of a generating relation, as up-masks."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"pair ({a},{b}) out of range for n={n}")
        up[a] |= 1 << b
    for k in range(n):
        upk = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= upk
    return up


def frame_from_leq(up: Sequence[int],
                   labels: Optional[Sequence[str]] = None,
                   name: Optional[str] = None) -> FiniteFrame:
    """Build a frame from a full partial order given as up-set bitmasks.

    Validates antisymmetry, lattice structure and distributivity, then
    precomputes the meet/join/implication tables.
    """
    n = len(up)
    if n == 0:
        raise NotALattice("a frame needs at least one element")
    if n > MAX_ELEMENTS:
        raise FrameTooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
    for a in range(n):
        for b in range(a + 1, n):
            if up[a] >> b & 1 and up[b] >> a & 1:
                raise NotAPartialOrder(
                    f"elements {a} and {b} are in a cycle")
    down = [_mask_of(x for x in range(n) if up[x] >> a & 1) for a in range(n)]

    # a /\ b is the element whose down-set is down[a] & down[b], if any;
    # dually for joins.
    by_down = {d: x for x, d in enumerate(down)}
    by_up = {u: x for x, u in enumerate(up)}
    meet_table = [[0] * n for _ in range(n)]
    join_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = by_down.get(down[a] & down[b])
            if m is None:
                raise NotALattice(f"elements {a} and {b} have no meet")
            j = by_up.get(up[a] & up[b])
            if j is None:
                raise NotALattice(f"elements {a} and {b} have no join")
            meet_table[a][b] = meet_table[b][a] = m
            join_table[a][b] = join_table[b][a] = j

    bottom = next(a for a in range(n) if popcount(up[a]) == n)
    top = next(a for a in range(n) if popcount(down[a]) == n)

    # j is join-irreducible when its strict down-set has a largest element.
    # The lattice is distributive iff x -> jm[x], the join-irreducibles
    # below x, preserves binary joins (Birkhoff); then jm is a lattice
    # isomorphism onto the down-sets of the join-irreducibles.
    irr = _mask_of(j for j in range(n) if down[j] & ~(1 << j) in by_down)
    jm = [d & irr for d in down]
    for a in range(n):
        for b in range(a + 1, n):
            lost = jm[join_table[a][b]] & ~(jm[a] | jm[b])
            if lost:
                # j <= a \/ b, but j /\ a and j /\ b lie below j's lower cover
                j = (lost & -lost).bit_length() - 1
                rhs = join_table[meet_table[j][a]][meet_table[j][b]]
                raise NotDistributive(
                    f"witness triple ({j},{a},{b}): "
                    f"{j}/\\({a}\\/{b})={j} but ({j}/\\{a})\\/({j}/\\{b})={rhs}")

    # a -> b is the element whose join-irreducibles are the j with
    # j /\ a <= b.
    by_jm = {m: x for x, m in enumerate(jm)}
    irreducibles = [(1 << j, jm[j]) for j in bits(irr)]
    impl_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            outside = jm[a] & ~jm[b]
            m = 0
            for bit, below in irreducibles:
                if not below & outside:
                    m |= bit
            impl_table[a][b] = by_jm[m]

    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise NotALattice("labels must be distinct and one per element")
    return FiniteFrame(n, tuple(up), tuple(down),
                       tuple(tuple(r) for r in meet_table),
                       tuple(tuple(r) for r in join_table),
                       tuple(tuple(r) for r in impl_table),
                       bottom, top, labels, name)


def build_frame(order: Iterable[tuple[int, int]], n: int,
                labels: Optional[Sequence[str]] = None,
                name: Optional[str] = None) -> FiniteFrame:
    """Construct a validated frame from a generating relation.

    ``order`` may be a cover relation or any generating set of pairs
    ``(a, b)`` meaning ``a <= b``; its reflexive-transitive closure is taken
    first.  Raises NotAPartialOrder / NotALattice / NotDistributive.
    """
    if n <= 0:
        raise NotALattice("element count must be positive")
    if n > MAX_ELEMENTS:    # before the closure, which is cubic in n
        raise FrameTooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
    up = _close_order(n, order)
    return frame_from_leq(up, labels=labels, name=name)


# -- stock frames used all over the tests and docs ---------------------------

def chain_frame(n: int, name: Optional[str] = None) -> FiniteFrame:
    """The n-element chain 0 < 1 < ... < n-1."""
    return build_frame([(i, i + 1) for i in range(n - 1)], n,
                       name=name or f"C{n}")


def boolean_frame(k: int, name: Optional[str] = None) -> FiniteFrame:
    """The powerset lattice 2^k, elements ordered by bitmask inclusion."""
    n = 1 << k
    pairs = [(a, a | (1 << i)) for a in range(n) for i in range(k)
             if not a >> i & 1]
    return build_frame(pairs, n, name=name or f"B{k}")
