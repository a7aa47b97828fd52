"""Finite frames (complete distributive lattices) with bitmask tables.

Elements are integers ``0..n-1``.  Sets of elements are carried around as
int bitmasks throughout the package; ``bits(mask)`` iterates the indices.
Meets and joins come from the join-irreducible masks kept with the order;
the meet and implication tables fill on first use.  No value of a frame
changes once it is known, so a frame is safe to share between workers.
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
    which validate the order.  Meets and joins AND or OR the join-irreducible
    masks; the meet and Heyting implication tables fill on first read.
    """

    __slots__ = (
        "n", "up", "down", "bottom", "top", "labels", "name",
        "_label_index", "_jm", "_by_jm", "_pseudo",
        "_meet", "_impl", "_dense_mask", "_bool_mask",
        "_point_mask", "_sublocales", "_min_pts", "_point_subls",
        "_views", "_inclusions", "_contexts",
    )

    def __init__(self, n, up, down, jm, by_jm, bottom, top, labels, name):
        self.n = n
        self.up = up            # up[a] = bitmask of {x : a <= x}
        self.down = down        # down[a] = bitmask of {x : x <= a}
        self.bottom, self.top = bottom, top
        self.labels, self.name = labels, name
        self._label_index = None    # filled by the first index_of
        # jm[x]: the join-irreducibles below x, as a mask; by_jm inverts it.
        # a -> b is the element whose join-irreducibles are the j with
        # j /\ a <= b: those above no join-irreducible below a but not b.
        self._jm, self._by_jm = jm, by_jm
        self._meet = self._impl = None      # the tables, on first read
        # one pass: a* (whose join-irreducibles are above none below a),
        # the dense a (a* = 0), BL = {a*} and the points (see points_mask)
        irr, ups, pseudo = jm[top], set(up), []
        dense = boolean = points = 0
        for a, m in enumerate(jm):
            x = by_jm[irr & ~self._up_closure(m)]
            pseudo.append(x)
            boolean |= 1 << x
            dense |= (x == bottom) << a
            points |= (up[a] & ~(1 << a) in ups) << a
        self._pseudo, self._dense_mask = pseudo, dense
        self._bool_mask, self._point_mask = boolean, points
        # kept on first use: sublocale.py fills the first four; views,
        # inclusion maps and contexts are keyed by a sublocale's mask
        self._sublocales = self._min_pts = self._point_subls = None
        self._views = self._inclusions = self._contexts = None

    def _up_closure(self, d: int) -> int:
        """The elements above some element in mask d."""
        up, out = self.up, 0
        while d:
            low = d & -d
            out |= up[low.bit_length() - 1]
            d ^= low
        return out

    @property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """[a][b] = a /\\ b, by_jm[jm[a] & jm[b]]; filled on first read.  No
        library code reads it: the references in ``tests/oracles.py`` and
        ``perfbench/gate.py`` check meets by table."""
        if self._meet is None:
            jm, by_jm = self._jm, self._by_jm
            self._meet = tuple(tuple([by_jm[a & b] for b in jm]) for a in jm)
        return self._meet

    @property
    def impl_table(self) -> tuple[tuple[int, ...], ...]:
        """impl_table[a][b] = a -> b; filled on first read, for
        :meth:`heyting` and ``open_subl``."""
        if self._impl is None:
            jm, by_jm, irr = self._jm, self._by_jm, self._jm[self.top]
            # a -> b depends only on d = jm[a] & ~jm[b]: one up-closure per d
            by_diff, rows = {}, []
            for ja in jm:
                row = []
                for jb in jm:
                    d = ja & ~jb
                    x = by_diff.get(d)
                    if x is None:
                        x = by_diff[d] = by_jm[irr & ~self._up_closure(d)]
                    row.append(x)
                rows.append(tuple(row))
            self._impl = tuple(rows)
        return self._impl

    # -- order and lattice operations ------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        return self._by_jm[self._jm[a] & self._jm[b]]

    def join(self, a: int, b: int) -> int:
        return self._by_jm[self._jm[a] | self._jm[b]]

    def heyting(self, a: int, b: int) -> int:
        """Largest x with x /\\ a <= b."""
        return self.impl_table[a][b]

    def pseudocomplement(self, a: int) -> int:
        return self._pseudo[a]

    def meet_of(self, xs: Iterable[int]) -> int:
        """Meet of a finite element set; the empty meet is top."""
        jm = self._jm
        out = jm[self.top]
        for x in xs:
            out &= jm[x]
        return self._by_jm[out]

    def join_of(self, xs: Iterable[int]) -> int:
        """Join of a finite element set; the empty join is bottom."""
        jm = self._jm
        out = 0
        for x in xs:
            out |= jm[x]
        return self._by_jm[out]

    # -- element predicates -----------------------------------------------

    def is_dense_element(self, a: int) -> bool:
        return bool(self._dense_mask >> a & 1)

    def is_complemented_element(self, a: int) -> bool:
        return self.join(a, self._pseudo[a]) == self.top

    def points_mask(self) -> int:
        """The points (primes) of the frame as a mask.

        In a finite distributive lattice the primes are the meet-irreducible
        elements p < 1: those whose strict up-set has a least element.
        ``is_point`` in ``tests/oracles.py`` is the independent oracle.
        """
        return self._point_mask

    def min_points(self) -> int:
        """The minimal points, which are the points of BL.  The opens of
        pt(L) are its down-sets, so x is dense iff no minimal point is above
        x.  So a point p that is not minimal is dense and p** = 1; a minimal
        p is outside the up-closure of the points not above p: p** = p."""
        return self._point_mask & self._bool_mask

    def is_boolean(self) -> bool:
        """Every element is its double pseudocomplement: BL = L."""
        return self._bool_mask == (1 << self.n) - 1

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
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
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


def _sweep_down(up: list[int]) -> bool:
    """Down the labels, let each up[i] take the up-sets of the j in it, in
    place; say if a mask grew.  One sweep closes pairs that all have i < j."""
    grew = False
    for i in reversed(range(len(up))):
        old = mask = up[i]
        rest = old & ~(1 << i)
        while rest:
            low = rest & -rest
            mask |= up[low.bit_length() - 1]
            rest ^= low
        if mask != old:
            up[i], grew = mask, True
    return grew


def _close_order(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of a generating relation, as up-masks:
    sweeps run until one changes nothing.  After sweep k, up[i] holds all
    within 2^k steps of i, so at most ceil(log2 n) + 1 sweeps run."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"pair ({a},{b}) out of range for n={n}")
        up[a] |= 1 << b
    while _sweep_down(up):
        pass
    return up


def frame_from_leq(up: Sequence[int],
                   labels: Optional[Sequence[str]] = None,
                   name: Optional[str] = None) -> FiniteFrame:
    """Build a frame from a full partial order given as up-set bitmasks.

    Validates the order (reflexive, transitive, antisymmetric) and that it
    is a distributive lattice; the tables are filled on first use.  With J
    the j whose strict down-set has a largest element and jm[x] = down[x]
    & J, it is one iff for every x (b) up[x] is the AND of up[j], j in
    jm[x] (all of L if jm[x] = 0), and (c) each jm[x] | jm[j], j in J, is
    some jm[y].  Only if: x is the join of jm[x], and jm[x \\/ j] = jm[x] |
    jm[j] by distributivity.  If: by (b), jm[x] <= jm[y] puts y in up[x],
    so jm reflects the order and, by antisymmetry, is one to one.  Also
    jm[x] = 0 for a minimal x, and a down-set D of J is the union of the
    jm[j], j in D, so by (c) jm is onto the down-sets of J.  So it is an
    order isomorphism onto a distributive lattice under & and |.
    """
    n = len(up)
    if n == 0:
        raise NotALattice("a frame needs at least one element")
    if n > MAX_ELEMENTS:
        raise FrameTooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
    # one pass over the bits of each up-set: transpose it into the
    # down-sets, checking each b above a has its up-set inside a's
    down = [0] * n
    for a, ua in enumerate(up):
        if ua >> n or not ua >> a & 1:
            raise NotAPartialOrder(
                f"the up-set of {a} must hold {a} and only elements "
                f"below {n}")
        bit, rest = 1 << a, ua
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            beyond = up[b] & ~ua
            if beyond:
                c = (beyond & -beyond).bit_length() - 1
                raise NotAPartialOrder(
                    f"{a} <= {b} and {b} <= {c} but not {a} <= {c}")
            down[b] |= bit
            rest ^= low
    # the first a in a cycle is its least member; J is the j whose strict
    # down-set is some down[x]
    downs, irr = set(down), 0
    for a in range(n):
        strict = down[a] & ~(1 << a)
        cycle = up[a] & strict
        if cycle:
            b = (cycle & -cycle).bit_length() - 1
            raise NotAPartialOrder(f"elements {a} and {b} are in a cycle")
        irr |= (strict in downs) << a
    jm = tuple(d & irr for d in down)
    by_jm = {m: x for x, m in enumerate(jm)}
    above = [(1 << n) - 1] * n      # (b): x >= j exactly when j is in jm[x]
    unions = set()                  # (c)
    for j in bits(irr):
        rest = uj = up[j]
        while rest:
            x = rest & -rest
            above[x.bit_length() - 1] &= uj
            rest ^= x
        unions.update(map(jm[j].__or__, jm))
    if above != list(up) or not unions <= by_jm.keys():
        # no distributive lattice: name the first pair or triple to show it
        by_down = {d: x for x, d in enumerate(down)}
        by_up = {u: x for x, u in enumerate(up)}
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for a, b in pairs:
            if down[a] & down[b] not in by_down:
                raise NotALattice(f"elements {a} and {b} have no meet")
            if up[a] & up[b] not in by_up:
                raise NotALattice(f"elements {a} and {b} have no join")
        meet = lambda a, b: by_down[down[a] & down[b]]
        join = lambda a, b: by_up[up[a] & up[b]]
        for a, b in pairs:
            lost = jm[join(a, b)] & ~(jm[a] | jm[b])
            if lost:
                # j <= a \/ b, but j /\ a and j /\ b lie below j's lower cover
                j = (lost & -lost).bit_length() - 1
                raise NotDistributive(
                    f"witness triple ({j},{a},{b}): {j}/\\({a}\\/{b})={j} "
                    f"but ({j}/\\{a})\\/({j}/\\{b})="
                    f"{join(meet(j, a), meet(j, b))}")
        raise AssertionError("a distributive lattice passes (b) and (c)")

    labels = tuple(map(str, range(n))) if labels is None else tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise NotALattice("labels must be distinct and one per element")
    return FiniteFrame(n, tuple(up), tuple(down), jm, by_jm, by_jm[0],
                       by_jm[irr], labels, name)


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
    if n > MAX_ELEMENTS:    # before the closure builds n masks
        raise FrameTooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
    return frame_from_leq(_close_order(n, order), labels=labels, name=name)


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
