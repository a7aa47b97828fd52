"""Remoteness from a dense sublocale.

A :class:`RemoteContext` fixes a frame L and a dense sublocale S.  A
sublocale T is remote from S when it misses the ambient closure of every
S-nowhere dense sublocale of S; *remote additionally requires T to sit
inside the supplement of S, so the *remote context ``ctx.star()`` is the
same context restricted to L minus S.

Every predicate has two routes: a fast path driven by the S-dense elements
of S, and an oracle path on the point space X = pt(L), with opens
U_a = {p : a </= p}.  S(L) is the powerset of X, and there T is remote from
S iff T misses cl(S minus Iso(S)), Iso(S) being the isolated points of the
subspace S (van Douwen's remote sets).  The fast path is the default; their
agreement is itself one of the checked theorems, so the theorem checks
never assume it.  On both routes the joins Rs and *Rs are spans of points.

A frame keeps one ordinary context per dense S in its store, under
``("context", mask)``, built on first use by :func:`dense_context`;
:func:`whole_context`, :func:`bl_context`, the corpus contexts, the
contexts of every square over that frame and S and those of a query are
that one object, so each shares what the others have derived.
"""

from __future__ import annotations

from typing import Optional

from .frame import FiniteFrame, bits
from .sublocale import (
    Sublocale, _check_frame, booleanization, nd_join, nucleus_map, open_subl,
    span, sublocales_below, supplement, void_subl, whole_subl,
)
from .errors import InvalidSublocale


class RemoteContext:
    """The pair (L, S) with S a dense sublocale of L, inside a sublocale W.

    Every operation asks for T remote from S and T <= W.  W is all of L for
    an ordinary context; :meth:`star` gives the *remote context, whose W
    is L minus S.  A context is immutable.  It keeps its fast miss mask,
    and computes on first use and keeps its open and oracle masks, its
    *remote context and its fast Rmt set; Rs, the oracle Rmt set and
    Nd(S) are computed on each call.
    """

    __slots__ = ("frame", "s", "within", "s_dense", "_miss_mask",
                 "_open_mask", "_oracle_mask", "_star", "_rmt_fast")

    def __init__(self, frame: FiniteFrame, dense_subl: Sublocale,
                 within: Optional[Sublocale] = None):
        _check_frame(frame, dense_subl)
        if not dense_subl.is_dense():
            raise InvalidSublocale("remoteness contexts need a dense sublocale")
        self.frame = frame
        self.s = dense_subl
        self.within = whole_subl(frame) if within is None else within
        # For dense S the S-pseudocomplement of x in S equals x* in L, so
        # the S-dense members of S are the ambient-dense members of S.
        self.s_dense = list(bits(dense_subl.mask
                                 & frame.dense_elements_mask()))
        mask = ~self.within.mask    # T <= W: T has no point outside W
        for x in self.s_dense:
            mask |= frame.up[x]
        self._miss_mask = frame.points_mask() & mask
        self._open_mask = None
        self._oracle_mask = None
        self._star = None
        self._rmt_fast = None

    def star(self) -> "RemoteContext":
        """The *remote context: the same S, inside its supplement L minus S."""
        if self._star is None:
            self._star = type(self)(self.frame, self.s,
                                    supplement(self.frame, self.s))
        return self._star

    def _outside(self) -> int:
        """The elements of L that are not in W."""
        return (1 << self.frame.n) - 1 & ~self.within.mask

    # -- the oracle and two more predicates equivalent to the fast path --

    def pred_nwd_oracle(self, t: Sublocale) -> bool:
        """T <= W and T misses cl(S minus Iso(S)) in the point space.

        A point of S is isolated when some open U_a meets S in it alone; the
        closure of a point set is the meet of the closed sets c(a) holding it.
        """
        if self._oracle_mask is None:
            f = self.frame
            pts = f.points_mask()
            in_s = pts & self.s.mask
            iso = 0
            for a in range(f.n):
                u = in_s & ~f.up[a]
                if u & (u - 1) == 0:
                    iso |= u
            cl = pts
            for a in range(f.n):
                if in_s & ~iso & ~f.up[a] == 0:
                    cl &= f.up[a]
            self._oracle_mask = cl | pts & ~self.within.mask
        return t.mask & self._oracle_mask == 0

    def pred_open_subset(self, t: Sublocale) -> bool:
        """T <= W and T <= o(x) for every S-dense x in S: T inside a meet."""
        if self._open_mask is None:
            mask = self.within.mask
            for x in self.s_dense:
                mask &= open_subl(self.frame, x).mask
            self._open_mask = mask
        return t.mask & ~self._open_mask == 0

    def pred_nucleus_top(self, t: Sublocale) -> bool:
        """T <= W and nu_T(x) = 1 for every S-dense x in S."""
        top = self.frame.top
        return (t.mask & self._outside() == 0
                and all(nucleus_map(t, x) == top for x in self.s_dense))

    # -- public operations --------------------------------------------------

    def miss_points(self, oracle: bool = False) -> int:
        """The mask of the points that no remote T holds on this route.

        On the fast route they are the points above an S-dense member of S
        (T /\\ c(x) = O) and the points outside W; on the oracle route,
        cl(S minus Iso(S)) and the points outside W.

        On both routes this is (up(pts(S) minus Min) /\\ pts) \\/ (pts minus
        pts(W)), Min the minimal points and up(Q) the points above some
        point of Q.  Oracle route: the opens of pt(L) are its down-sets, so
        closures are up-closures; a dense S holds every minimal point, so a
        point of S is isolated in S iff it is minimal.  Fast route: a point
        that is not minimal is dense, so each one in S is an S-dense member
        of S; an S-dense x in S has no minimal point above it and is the
        meet of the points of S above x, and a point above that meet is
        above one of them, since points are prime.
        """
        if not oracle:
            return self._miss_mask
        if self._oracle_mask is None:
            # pred_nwd_oracle alone fills the oracle's mask, so a wrapper
            # of it sees the whole oracle route
            self.pred_nwd_oracle(void_subl(self.frame))
        return self._oracle_mask

    def is_remote_from(self, t: Sublocale, oracle: bool = False) -> bool:
        return t.mask & self.miss_points(oracle) == 0

    def remote_set(self, oracle: bool = False) -> list[Sublocale]:
        """Every T remote from S and inside W, ordered by mask: the
        sublocales below Rs (see :meth:`rs`)."""
        return sublocales_below(self.rs(oracle))

    def rmt_elements(self, oracle: bool = False) -> frozenset[int]:
        """{a : c(a) is remote from S and c(a) <= W}; the fast set is kept.
        On the oracle route no point above a is in the oracle mask."""
        f = self.frame
        if oracle:
            miss = self.miss_points(oracle=True)
            return frozenset(a for a in range(f.n) if f.up[a] & miss == 0)
        if self._rmt_fast is None:
            # c(a) <= W, and a \/ x = 1 for every S-dense x in S, on masks
            outside = self._outside()
            jm, irr = f._jm, f._jm[f.top]
            self._rmt_fast = frozenset(
                a for a in range(f.n) if f.up[a] & outside == 0
                and all(jm[a] | jm[x] == irr for x in self.s_dense))
        return self._rmt_fast

    def rs(self, oracle: bool = False) -> Sublocale:
        """The largest sublocale remote from S (join of all of them).

        On either route T is remote iff no point of T is in the miss mask.
        The points of a span are exactly the points it is spanned by, so
        the span of the points outside the mask is remote, and it holds
        every remote T, which is the span of its own points: it is Rs.
        """
        f = self.frame
        free = f.points_mask() & ~self.miss_points(oracle)
        return Sublocale(f, span(f, free))

    def star_rs(self, oracle: bool = False) -> Sublocale:
        """*Rs, the largest sublocale *remote from S."""
        return self.star().rs(oracle)

    def nd_remainder(self) -> tuple[Sublocale, Sublocale]:
        """Nd(S) and L minus its closure.  The closure is c(m), m the meet
        of Nd(S)'s points, which are S's dense points (``nd_join``), and
        L minus c(m) is the span of the points not above m."""
        f = self.frame
        nd = nd_join(f, self.s)
        m = nd.min_element()
        return nd, Sublocale(f, span(f, f.points_mask() & ~f.up[m]))

    def subject(self) -> str:
        return (f"{self.frame.name or 'frame'}; "
                f"S={{{','.join(self.s.labels())}}}")


def dense_context(frame: FiniteFrame, s: Sublocale) -> RemoteContext:
    """The context (L, S), built on the first call for S and kept on the
    frame, so every instance over (L, S) shares it and what it derives."""
    _check_frame(frame, s)
    key = ("context", s.mask)
    ctx = frame.kept.get(key)
    if ctx is None:
        ctx = frame.kept[key] = RemoteContext(frame, s)
    return ctx


def whole_context(frame: FiniteFrame) -> RemoteContext:
    """The context (L, L); its remote set is the remote sublocales of L."""
    return dense_context(frame, whole_subl(frame))


def bl_context(frame: FiniteFrame) -> RemoteContext:
    return dense_context(frame, booleanization(frame))
