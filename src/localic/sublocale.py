"""Sublocales of a finite frame and the coframe operations on them.

A sublocale is a subset of frame elements containing the top, closed under
binary meets, and closed under ``x -> s`` for every frame element ``x`` and
member ``s``.  A :class:`Sublocale` is its frame and a bitmask, no more;
its induced frame and inclusion map are kept on the frame by mask.

A finite frame is spatial and T_D, so S(L) is the powerset of its points
(primes): every sublocale is the :func:`span` of the points it contains.
The coframe operations and :func:`is_sublocale` are point-set arithmetic
on that model; the induced-frame computations here and the brute-force
references in ``tests/oracles.py`` (the subset filter among them) are
the independent oracles.  Every sublocale is a join of the one-point
sublocales {p, 1}, :func:`point_sublocales`; the sublocales below S are
the spans of the sets of S's points, :func:`sublocales_below`; and the
dense ones are the spans of the points of BL and a set of the others,
:func:`dense_sublocales`.

An element a lies in span(Q) iff every minimal point above a is in Q
(Davey & Priestley, ch. 5).  Proof: points are meet-prime, so the points
above a meet of X are the union of the points above each x in X.  If
a is the meet of some X inside Q, a minimal point above a lies above
some x in X, itself a point above a, so it is x; conversely a is the
meet of the minimal points above it.  :func:`span` reads a per-frame
table of those minimal points, built on its first call.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import MixedFrames, InvalidSublocale
from .frame import FiniteFrame, _mask_of, frame_from_leq, bits, popcount


class Sublocale:
    """An immutable member of the coframe S(L): a frame and a mask, and no
    more.  What is derived from it is kept on the frame, keyed by the mask,
    so equal sublocales share it."""

    __slots__ = ("frame", "mask")

    def __init__(self, frame: FiniteFrame, mask: int):
        self.frame = frame
        self.mask = mask

    @classmethod
    def of(cls, frame: FiniteFrame, members: Iterable[int]) -> "Sublocale":
        mask = _member_mask(frame, members)
        if not is_sublocale(frame, mask):
            labels = ",".join(frame.labels[x] for x in bits(mask))
            raise InvalidSublocale(
                f"{{{labels}}} is not a sublocale of {frame.subject()}")
        return cls(frame, mask)

    def members(self) -> Iterator[int]:
        return bits(self.mask)

    def labels(self) -> list[str]:
        """The labels of the members, sorted: how a sublocale is named."""
        return sorted(self.frame.labels[i] for i in self.members())

    def __contains__(self, a: int) -> bool:
        return bool(self.mask >> a & 1)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __le__(self, other: "Sublocale") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sublocale) and other.frame is self.frame
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.frame), self.mask))

    def _check(self, other: "Sublocale") -> None:
        if other.frame is not self.frame:
            raise MixedFrames("sublocales belong to different frames")

    def is_void(self) -> bool:
        return self.mask == 1 << self.frame.top

    def is_whole(self) -> bool:
        return popcount(self.mask) == self.frame.n

    def min_element(self) -> int:
        """The meet of all members (the bottom of the induced frame): that
        of S's points, as they are members and every member is a meet of
        them (module docstring), the top the empty one."""
        return self.frame.meet_of(bits(self.mask & self.frame.points_mask()))

    def closure(self) -> "Sublocale":
        return closed_subl(self.frame, self.min_element())

    def is_dense(self) -> bool:
        return bool(self.mask >> self.frame.bottom & 1)

    def as_frame(self):
        """View this sublocale as a frame in its own right.

        Returns ``(frame, elems)`` where ``elems[i]`` is the ambient element
        index of subframe element ``i``.  Order is inherited; meets coincide
        with the ambient meets, joins and implication are recomputed inside.
        The induced frame of the whole sublocale is the frame itself.  The
        view is kept on the frame by mask, so equal sublocales share it.
        """
        f = self.frame
        if f._views is None:
            f._views = {}
        view = f._views.get(self.mask)
        if view is None:
            elems = list(self.members())
            pos = {e: i for i, e in enumerate(elems)}
            up = [_mask_of(pos[x] for x in bits(f.up[e] & self.mask))
                  for e in elems]
            sub = f if self.is_whole() else frame_from_leq(
                up, labels=[f.labels[e] for e in elems],
                name=f"{f.name or 'frame'}|{''.join(self.labels())}")
            view = f._views[self.mask] = (sub, elems)
        return view

    def __repr__(self) -> str:
        return f"Sublocale({self.frame.name or '?'}:{{{','.join(self.labels())}}})"


def _member_mask(frame: FiniteFrame, members: Iterable[int]) -> int:
    """The mask of element indices; InvalidSublocale names one outside."""
    mask = 0
    for x in members:
        if not 0 <= x < frame.n:
            raise InvalidSublocale(
                f"{x} is not an element of {frame.subject()}")
        mask |= 1 << x
    return mask


def is_sublocale(frame: FiniteFrame, subset: int | Iterable[int]) -> bool:
    """Whether a member set, a mask or element indices, is a sublocale: it
    lies in the frame and is the span of its points.

    If: span(Q), the meets of subsets of Q, holds the top (the empty
    meet) and is closed under meets, and under x -> s, as x -> p is p or
    the top for a point p and x -> (/\\ Y) is the meet of the x -> y.
    Only if: every sublocale is the span of its points (module docstring).
    The points of span(Q) are exactly Q, as a point that is a meet of
    points is one of them, so every span passes.  The definitional filter
    is ``is_sublocale_by_definition`` in ``tests/oracles.py``.
    """
    try:
        mask = subset if isinstance(subset, int) \
            else _member_mask(frame, subset)
    except InvalidSublocale:
        return False
    return not mask >> frame.n \
        and mask == span(frame, mask & frame.points_mask())


def void_subl(frame: FiniteFrame) -> Sublocale:
    return Sublocale(frame, 1 << frame.top)


def whole_subl(frame: FiniteFrame) -> Sublocale:
    return Sublocale(frame, (1 << frame.n) - 1)


def closed_subl(frame: FiniteFrame, a: int) -> Sublocale:
    """c(a): the up-set of a."""
    return Sublocale(frame, frame.up[a])

def open_subl(frame: FiniteFrame, a: int) -> Sublocale:
    """o(a): the image of a -> (-); the complement of c(a) in S(L)."""
    return Sublocale(frame, _mask_of(frame.impl_table[a]))


def booleanization(frame: FiniteFrame) -> Sublocale:
    """{x -> 0 : x in L}, the smallest dense sublocale.

    On the point space X = pt(L) it is Iso(X), the isolated points, which is
    the least dense subset of a finite T0 space.  Every point of BL is then
    isolated in BL, so the remoteness oracle closes no point for S = BL.
    """
    return Sublocale(frame, frame._bool_mask)


def subl_meet(ss: list[Sublocale]) -> Sublocale:
    if not ss:
        raise ValueError("need at least one sublocale")
    frame = ss[0].frame
    mask = (1 << frame.n) - 1
    for s in ss:
        ss[0]._check(s)
        mask &= s.mask
    return Sublocale(frame, mask)


def span(frame: FiniteFrame, pts: int) -> int:
    """The sublocale spanned by a mask of points: all meets of its subsets.

    An element belongs exactly when the minimal points above it all lie in
    the mask (module docstring); no point lies above the top, so the top
    is in every span.
    """
    table = frame._min_pts
    if table is None:
        # per element: the points above it, less every point strictly
        # above another of them
        points, up, rows = frame.points_mask(), frame.up, []
        for u in up:
            least = above = points & u
            while above:
                low = above & -above
                least &= ~up[low.bit_length() - 1] | low
                above ^= low
            rows.append(least)
        table = frame._min_pts = tuple(rows)
    missing = ~pts
    mask = 0
    for a, need in enumerate(table):
        if not need & missing:
            mask |= 1 << a
    return mask


def subl_join(ss: list[Sublocale]) -> Sublocale:
    """Coframe join: the span of the points of all the members."""
    if not ss:
        raise ValueError("need at least one sublocale")
    frame = ss[0].frame
    mask = 0
    for s in ss:
        ss[0]._check(s)
        mask |= s.mask
    return Sublocale(frame, span(frame, mask & frame.points_mask()))


def sublocales_below(s: Sublocale) -> list[Sublocale]:
    """Every sublocale T <= S, ordered by mask (deterministic).

    S(L) is the powerset of the points, so these are the spans of the
    sets of S's points, grown a point at a time.  Requires the
    enumeration cap.
    """
    frame = s.frame
    frame.require_enumerable()
    qs = [0]
    for p in bits(s.mask & frame.points_mask()):
        qs += [q | 1 << p for q in qs]
    return [Sublocale(frame, m) for m in sorted(span(frame, q) for q in qs)]


def enumerate_sublocales(frame: FiniteFrame) -> list[Sublocale]:
    """All sublocales of the frame, ordered by mask (deterministic).

    The sublocales below the whole frame, kept on the frame.  Each passes
    :func:`is_sublocale` first: a span identity that cannot fail, kept
    while the benchmark's ``sublocale.enum_candidates`` counts its calls.
    Requires the enumeration cap; the subset filter
    ``enumerate_sublocales_oracle`` in ``tests/oracles.py`` is the oracle.
    """
    if frame._sublocales is None:
        subs = sublocales_below(whole_subl(frame))
        if not all(is_sublocale(frame, t.mask) for t in subs):
            raise AssertionError(f"a span is no sublocale of {frame!r}")
        frame._sublocales = subs
    return list(frame._sublocales)


def point_sublocales(frame: FiniteFrame) -> tuple[Sublocale, ...]:
    """O and the one-point sublocales {p, 1}, in order of p; kept on the
    frame after the first call.

    Every sublocale is the join of the one-point sublocales of its points.
    So a statement "P(A) for every sublocale A", where P fails on some A
    only if it fails on O or on some {p, 1} with p in A, needs only these
    1 + |pts| sublocales, not all 2^|pts| of them.
    """
    if frame._point_subls is None:
        top = 1 << frame.top
        frame._point_subls = (void_subl(frame),) + tuple(
            Sublocale(frame, top | 1 << p) for p in bits(frame.points_mask()))
    return frame._point_subls


def dense_sublocales(frame: FiniteFrame, qs: Iterable[int]
                     ) -> list[Sublocale]:
    """span(pts(BL) + Q) for each Q in ``qs``, bit i of Q standing for the
    i-th point outside BL.

    BL is the least dense sublocale, so S is dense iff pts(S) holds
    pts(BL), and each dense S is one of these spans.  Increasing Q gives
    increasing masks wherever element indices extend the order, as in
    every generated family: the highest element where two spans differ
    is a point, since a non-point of one span is the meet of points above
    it, which come later, so they and it lie in the other span too.
    """
    base = frame.min_points()
    free = list(bits(frame.points_mask() & ~base))
    return [Sublocale(frame, span(frame, base | _mask_of(
        free[i] for i in bits(q)))) for q in qs]


def supplement(frame: FiniteFrame, s: Sublocale) -> Sublocale:
    """L \\ S: the least sublocale whose join with S is the whole frame.

    This is the co-Heyting difference in S(L) (not the join of sublocales
    disjoint from S).  Joins in S(L) are unions of point sets, so it is
    the span of the points outside S; the test suite checks it against
    ``join_is_whole`` (``tests/oracles.py``) over the enumeration.
    """
    return Sublocale(frame, span(frame, frame.points_mask() & ~s.mask))


def nucleus_map(s: Sublocale, a: int) -> int:
    """nu_S(a): the least member of S above a."""
    return s.frame.meet_of(bits(s.mask & s.frame.up[a]))


def is_nowhere_dense(frame: FiniteFrame, s: Sublocale) -> bool:
    """S /\\ BL = O; equivalently the meet of S is a dense element."""
    return s.mask & frame._bool_mask == 1 << frame.top


def s_nowhere_dense_sublocales(s: Sublocale) -> list[Sublocale]:
    """All S-nowhere dense members of S(S), as ambient sublocales.

    Enumerated inside the induced frame of S (the independent oracle path):
    the sublocales are the spans of the subframe's own points, and nowhere
    density is decided against the subframe's Booleanization.
    """
    sub, elems = s.as_frame()
    out = []
    for n_sub in enumerate_sublocales(sub):
        if is_nowhere_dense(sub, n_sub):
            out.append(Sublocale(
                s.frame, _mask_of(elems[i] for i in n_sub.members())))
    return out


def nd_join(frame: FiniteFrame, s: Sublocale) -> Sublocale:
    """Nd(S): the join in S(L) of all S-nowhere dense sublocales of S.

    Requires S dense.  A sublocale of S is S-nowhere dense exactly when its
    meet is S-dense, which for dense S means dense in L.  Dense elements
    form an up-set, so those sublocales are the spans of dense points of S,
    and Nd(S) is the span of all of them.  Cross-checked against the
    induced-frame oracle :func:`nd_join_oracle` in the test suite.
    """
    if not s.is_dense():
        raise InvalidSublocale("Nd(S) is defined for dense S")
    dense_pts = s.mask & frame.points_mask() & frame.dense_elements_mask()
    return Sublocale(frame, span(frame, dense_pts))


def nd_join_oracle(frame: FiniteFrame, s: Sublocale) -> Sublocale:
    """Nd(S) via the induced-frame enumeration of S(S)."""
    if not s.is_dense():
        raise InvalidSublocale("Nd(S) is defined for dense S")
    return subl_join([void_subl(frame)] + s_nowhere_dense_sublocales(s))


def is_rare(frame: FiniteFrame, s: Sublocale) -> bool:
    """Rare: the supplement is the whole locale."""
    return supplement(frame, s).is_whole()


def is_dense_in_itself(frame: FiniteFrame) -> bool:
    """Dense in itself: the Booleanization is rare."""
    return is_rare(frame, booleanization(frame))


def serialize_sublocale(s: Sublocale) -> list[str]:
    return s.labels()
