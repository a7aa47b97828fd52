"""Finite frames (complete distributive lattices) with bitmask tables.

Elements are integers ``0..n-1``.  Sets of elements are carried around as
int bitmasks throughout the package; ``bits(mask)`` iterates the indices.
Meets and joins come from the join-irreducible masks kept with the order;
the meet and implication tables fill on first use.  No value of a frame
changes once it is known, so a frame is safe to share between workers.

Each order is validated once while it stays memoised: :func:`frame_from_leq`
reads the order's shape (its up- and down-masks, join-irreducible masks,
bottom, top, pseudocomplements, and the dense, BL and point masks) from a
memo keyed by the tuple of up-masks, which keeps the ``_SHAPES`` (256)
most recently used orders.  Frames built from equal up-masks share that
shape, which nothing writes; each still has its own labels, name and
:attr:`FiniteFrame.kept` store, so what one frame fills never shows on
another.
"""

from __future__ import annotations

import functools
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


def _up_closure(up: Sequence[int], d: int) -> int:
    """The elements above some element in mask d."""
    out = 0
    while d:
        low = d & -d
        out |= up[low.bit_length() - 1]
        d ^= low
    return out


class FiniteFrame:
    """A finite bounded distributive lattice with Heyting implication.

    Do not call directly: use :func:`build_frame` or :func:`frame_from_leq`,
    which validate the order.  Meets and joins AND or OR the join-irreducible
    masks; the meet and Heyting implication tables fill on first read.
    ``kept`` holds what is derived from the frame on first use, by each
    module that needs it: a whole-frame value by name (here ``"meet"``,
    ``"impl"``, ``"index"``), a sublocale's by ``(name, mask)``.
    """

    __slots__ = (
        "n", "up", "down", "bottom", "top", "labels", "name",
        "_jm", "_by_jm", "_pseudo", "_dense_mask", "_bool_mask",
        "_point_mask", "kept",
    )

    def __init__(self, shape: tuple, labels: tuple[str, ...],
                 name: Optional[str]):
        # the order's values, shared with every frame of equal up-masks:
        # up[a] = {x : a <= x} and down[a] = {x : x <= a} as bitmasks; jm[x]
        # the join-irreducibles below x as a mask, and by_jm its inverse
        # (a -> b is the element whose join-irreducibles are the j with
        # j /\ a <= b: those above no join-irreducible below a but not b);
        # x*, and the masks of the dense elements, BL and the points
        (self.n, self.up, self.down, self._jm, self._by_jm, self.bottom,
         self.top, self._pseudo, self._dense_mask, self._bool_mask,
         self._point_mask) = shape
        self.labels, self.name = labels, name
        self.kept = {}

    @property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """[a][b] = a /\\ b, by_jm[jm[a] & jm[b]]; filled on first read.  No
        library code reads it: the references in ``tests/oracles.py`` and
        ``perfbench/gate.py`` check meets by table."""
        table = self.kept.get("meet")
        if table is None:
            jm, by_jm = self._jm, self._by_jm
            table = self.kept["meet"] = tuple(
                tuple([by_jm[a & b] for b in jm]) for a in jm)
        return table

    @property
    def impl_table(self) -> tuple[tuple[int, ...], ...]:
        """impl_table[a][b] = a -> b; filled on first read, for
        :meth:`heyting` and ``open_subl``."""
        table = self.kept.get("impl")
        if table is None:
            jm, by_jm, up = self._jm, self._by_jm, self.up
            irr = jm[self.top]
            # a -> b depends only on d = jm[a] & ~jm[b]: one up-closure per d
            by_diff, rows = {}, []
            for ja in jm:
                row = []
                for jb in jm:
                    d = ja & ~jb
                    x = by_diff.get(d)
                    if x is None:
                        x = by_diff[d] = by_jm[irr & ~_up_closure(up, d)]
                    row.append(x)
                rows.append(tuple(row))
            table = self.kept["impl"] = tuple(rows)
        return table

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

    def index_of(self, label: str) -> int:
        index = self.kept.get("index")
        if index is None:
            index = self.kept["index"] = {
                lab: i for i, lab in enumerate(self.labels)}
        return index[label]

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


# Distinct orders that _shape keeps.  The suite specs meet 5 (boolean
# 16) to 134 (posets5 at --jobs 1) distinct orders in one process, a
# query16 batch 40; a shape holds about 3 KB at 16 elements and 12 KB at
# 64, so a full memo holds 0.8 MB of 16-element shapes or 3 MB of
# 64-element ones.  ``jsonio.load_document`` keeps as many frame
# documents, each with the frame built from it and what that frame has
# derived in its ``kept`` store (see the ``jsonio`` docstring).
_SHAPES = 256


def require_size(n: int) -> None:
    """Refuse a frame of ``n`` elements if n < 1 or n > ``MAX_ELEMENTS``,
    the cap as it reads at the call."""
    if n <= 0:
        raise NotALattice("element count must be positive")
    if n > MAX_ELEMENTS:
        raise FrameTooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")


@functools.lru_cache(maxsize=_SHAPES)
def _shape(up: tuple[int, ...]) -> tuple:
    """Validate a full partial order given as up-set bitmasks and return
    what it determines, in the order ``FiniteFrame.__init__`` reads it: n,
    up, down, jm, by_jm, bottom, top, x*, and the dense, BL and point
    masks.  Memoised on ``up``, so an order is checked once while the memo
    holds it; nothing writes a shape.  The caller has checked
    0 < n <= MAX_ELEMENTS.

    It checks the order (reflexive, transitive, antisymmetric), then that
    it is a distributive lattice by the definitions (Davey & Priestley,
    ch. 2 and 5), naming the first pair, by index, that shows it is not.
    Every pair has a meet and a join iff the order is a lattice.  With J
    the j whose strict down-set has a largest element and jm[x] =
    down[x] & J, jm takes meets to & and, as x is the join of jm[x], is
    one to one; so it takes joins to | iff L is distributive (a lattice of
    sets is distributive, and in a distributive lattice a j below a \\/ b
    is below a or b).  Then jm is onto the down-sets of J (Birkhoff's
    theorem), which the x* lookups in ``by_jm`` need.

    ``lru_cache`` keeps no exception, so an order that fails raises anew
    on every call.
    """
    n = len(up)
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

    bottom, top = by_jm[0], by_jm[irr]
    # one pass: a* (whose join-irreducibles are above none below a), the
    # dense a (a* = 0), BL = {a*} and the points (see points_mask)
    ups, pseudo = set(up), []
    dense = boolean = points = 0
    for a, m in enumerate(jm):
        x = by_jm[irr & ~_up_closure(up, m)]
        pseudo.append(x)
        boolean |= 1 << x
        dense |= (x == bottom) << a
        points |= (up[a] & ~(1 << a) in ups) << a
    return (n, up, tuple(down), jm, by_jm, bottom, top, tuple(pseudo), dense,
            boolean, points)


def frame_from_leq(up: Sequence[int],
                   labels: Optional[Sequence[str]] = None,
                   name: Optional[str] = None) -> FiniteFrame:
    """Build a frame from a full partial order given as up-set bitmasks.

    Checks the size by :func:`require_size`, then validates the order by
    :func:`_shape` (a scan of the pairs for meets, joins and
    distributivity; see its docstring), then the labels; the tables are
    filled on first use.
    ``_shape`` is memoised on ``tuple(up)``, keeping the ``_SHAPES`` (256)
    most recently used orders, so frames built from equal up-masks share one
    validated shape: the order's masks, x*, and the dense, BL and point
    masks, none of which is ever written.  Every call returns a new frame
    with its own labels, name and empty ``kept`` store;
    ``jsonio.load_document`` calls it once per frame document it keeps and
    hands that one frame out again on each later load of the same bytes.
    """
    n = len(up)
    require_size(n)
    shape = _shape(tuple(up))
    labels = tuple(map(str, range(n))) if labels is None else tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise NotALattice("labels must be distinct and one per element")
    return FiniteFrame(shape, labels, name)


def build_frame(order: Iterable[tuple[int, int]], n: int,
                labels: Optional[Sequence[str]] = None,
                name: Optional[str] = None) -> FiniteFrame:
    """Construct a validated frame from a generating relation.

    ``order`` may be a cover relation or any generating set of pairs
    ``(a, b)`` meaning ``a <= b``; its reflexive-transitive closure is taken
    first.  Raises NotAPartialOrder / NotALattice / NotDistributive.
    """
    require_size(n)    # before the closure builds n masks
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
