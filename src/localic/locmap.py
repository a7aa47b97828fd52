"""Localic maps between finite frames.

A localic map preserves all meets; its derived left adjoint (the frame
homomorphism) must preserve finite meets.  The adjoint is computed, never
supplied.  Image and preimage functions act on sublocales and form a
Galois adjunction.

Every element is the meet of the points (primes) above it, and a localic
map sends points to points (finite duality), so validation, images,
preimages and the map properties all work on points.  A point above a
meet of points is above one of them, so the points above f(x) are those
above f(p), p a point above x.  Hence f is onto iff every point of M is
an f(p), which also makes f[-] onto S(M).  With Min the minimal points,
x is dense iff no point of Min is above x, and a point is dense iff it
is not in Min (:meth:`FiniteFrame.min_points`); so f is skeletal iff
f[pts - Min(L)] misses Min(M), and as f*(y) <= p iff y <= f(p), f* is
skeletal iff f[Min(L)] lies in Min(M).
"""

from __future__ import annotations

from typing import Iterable

from .errors import AdjointNotFrameHom, MixedFrames, NotMeetPreserving
from .frame import FiniteFrame, bits
from .sublocale import Sublocale, _check_frame, span


class LocalicMap:
    """A validated meet-preserving map with its derived adjoint."""

    __slots__ = ("source", "target", "table", "adjoint_table")

    def __init__(self, source, target, table, adjoint_table):
        self.source = source
        self.target = target
        self.table = table
        self.adjoint_table = adjoint_table

    def __call__(self, x: int) -> int:
        return self.table[x]

    def adjoint(self, y: int) -> int:
        return self.adjoint_table[y]

    def is_injective(self) -> bool:
        return len(set(self.table)) == self.source.n

    def point_image(self, mask: int) -> int:
        """The mask of the f(x) for x in ``mask``: points for points."""
        out = 0
        for x in bits(mask):
            out |= 1 << self.table[x]
        return out

    # -- map-level properties, on points (module docstring) ----------------

    def is_surjective(self) -> bool:
        """Every point of M is f(p) for some point p of L."""
        hit = self.point_image(self.source.points_mask())
        return self.target.points_mask() & ~hit == 0

    def is_skeletal(self) -> bool:
        """Dense elements go to dense ones: f[pts - Min(L)] misses Min(M)."""
        src = self.source
        moved = self.point_image(src.points_mask() & ~src.min_points())
        return moved & self.target.min_points() == 0

    def adjoint_is_skeletal(self) -> bool:
        """f* keeps dense elements dense: f[Min(L)] lies in Min(M)."""
        kept = self.point_image(self.source.min_points())
        return kept & ~self.target.min_points() == 0

    def is_weakly_closed_adjoint(self) -> bool:
        """a \\/ f*(b) = 1 implies f(a) \\/ b = 1, on the masks."""
        src_jm, tgt_jm = self.source._jm, self.target._jm
        src_top, tgt_top = src_jm[self.source.top], tgt_jm[self.target.top]
        adj = [src_jm[y] for y in self.adjoint_table]
        for a, fa in enumerate(self.table):
            ja, jfa = src_jm[a], tgt_jm[fa]
            for b, jb in enumerate(tgt_jm):
                if ja | adj[b] == src_top and jfa | jb != tgt_top:
                    return False
        return True

    # -- sublocale image / preimage -----------------------------------------

    def image_subl(self, a: Sublocale) -> Sublocale:
        """Elementwise image; it is span(f[pts(A)]), so a sublocale."""
        _check_frame(self.source, a)
        mask = 0
        for x in a.members():
            mask |= 1 << self.table[x]
        return Sublocale(self.target, mask)

    def preimage_subl(self, b: Sublocale) -> Sublocale:
        """Largest sublocale whose image lands inside b.

        f preserves meets and a sublocale is the span of its points, so the
        image of A lies in b iff f(p) is in b for every point p of A: the
        preimage is the span of those points.
        """
        _check_frame(self.target, b)
        src = self.source
        pts = 0
        for p in bits(src.points_mask()):
            if b.mask >> self.table[p] & 1:
                pts |= 1 << p
        return Sublocale(src, span(src, pts))

    def __repr__(self) -> str:
        return f"LocalicMap({self.source.name}->{self.target.name})"


def build_map(src: FiniteFrame, tgt: FiniteFrame,
              table: Iterable[int]) -> LocalicMap:
    """Validate a table as a localic map and derive its adjoint.

    The points (primes) of the source decide both conditions:

    - the table preserves meets, the top included, iff every x goes to
      the meet of the images of the points above x; points are prime, so
      the points above x /\\ y are those above x or above y;
    - the adjoint then preserves finite meets iff every point goes to a
      point, and f*(y) is the meet of the points p with y <= f(p).
    """
    table = tuple(table)
    if len(table) != src.n or any(not 0 <= v < tgt.n for v in table):
        raise NotMeetPreserving("table has wrong length or out-of-range values")
    pts = src.points_mask()
    for x in range(src.n):
        want = tgt.meet_of(table[p] for p in bits(pts & src.up[x]))
        if table[x] != want:
            raise NotMeetPreserving(
                f"f({src.labels[x]}) = {tgt.labels[table[x]]}, but the "
                f"images of the points above {src.labels[x]} meet in "
                f"{tgt.labels[want]}")
    tgt_pts = tgt.points_mask()
    jm = src._jm
    adj = [jm[src.top]] * tgt.n
    for p in bits(pts):
        fp = table[p]
        if not tgt_pts >> fp & 1:
            raise AdjointNotFrameHom(
                f"point {src.labels[p]} goes to {tgt.labels[fp]}, "
                f"which is not a point of {tgt.subject()}")
        for y in bits(tgt.down[fp]):
            adj[y] &= jm[p]
    return LocalicMap(src, tgt, table, tuple([src._by_jm[m] for m in adj]))


def identity_map(frame: FiniteFrame) -> LocalicMap:
    return LocalicMap(frame, frame, tuple(range(frame.n)),
                      tuple(range(frame.n)))


def compose(outer: LocalicMap, inner: LocalicMap) -> LocalicMap:
    """outer after inner; composition of localic maps is localic."""
    if inner.target is not outer.source:
        raise MixedFrames("maps do not compose")
    table = tuple(outer.table[inner.table[x]] for x in range(inner.source.n))
    adj = tuple(inner.adjoint_table[outer.adjoint_table[y]]
                for y in range(outer.target.n))
    return LocalicMap(inner.source, outer.target, table, adj)
