"""Remoteness from a dense sublocale, and the structure theorems about it.

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

On each route the remote family is one point mask M, ``miss_points``: T is
remote iff it holds no point of M.  Points are meet-irreducible, so the
points of span(Q) are exactly Q, and each single point spans a sublocale;
hence family A lies inside family B iff M_B lies inside M_A.  The checks
``remotesets``, ``SRemandSRemLS``, ``SRemLemma``, ``rareequality``,
``rempropBL`` and ``rempropBLstar`` are such mask tests, run on both routes,
and ``remS`` compares two such families by their free points.

Every sublocale is the join of its one-point sublocales {p, 1}, and each
of the four predicates of ``opendensefrom`` holds on T iff it holds on
every {p, 1} with p in T (each is "T <= W and no point of T in some
mask").  So two of them disagree on some T iff they disagree on O or on a
one-point sublocale, and ``opendensefrom`` votes on those 1 + |pts|
sublocales: exhaustive on every frame, with no sampling.

A frame keeps one ordinary context per dense S, built on first use by
:func:`dense_context`; :func:`whole_context`, :func:`bl_context`, the
corpus contexts and the contexts of every square over that frame and S
are that one object, so each shares what the others have derived.
"""

from __future__ import annotations

from typing import Callable, Optional

from .frame import FiniteFrame, _mask_of, bits
from .sublocale import (
    Sublocale, booleanization, enumerate_sublocales, is_dense_in_itself,
    is_rare, nd_join, nucleus_map, open_subl, point_sublocales, span,
    sublocales_below, supplement, void_subl, whole_subl,
)
from .errors import InvalidSublocale, MixedFrames


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
        if dense_subl.frame is not frame:
            raise MixedFrames("context sublocale belongs to another frame")
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
    if frame._contexts is None:
        frame._contexts = {}
    ctx = frame._contexts.get(s.mask)
    if ctx is None or s.frame is not frame:     # a foreign S: it raises
        ctx = frame._contexts[s.mask] = RemoteContext(frame, s)
    return ctx


def whole_context(frame: FiniteFrame) -> RemoteContext:
    """The context (L, L); its remote set is the remote sublocales of L."""
    return dense_context(frame, whole_subl(frame))


def bl_context(frame: FiniteFrame) -> RemoteContext:
    return dense_context(frame, booleanization(frame))


def _on_both_routes(frame: FiniteFrame,
                    offending: Callable[[bool], int]) -> Optional[str]:
    """The witness of a mask test: the first route whose offending point
    mask is not empty, and those points by label."""
    for oracle in (False, True):
        bad = offending(oracle)
        if bad:
            labels = ",".join(frame.labels[p] for p in bits(bad))
            return f"{'oracle' if oracle else 'fast'} route: {{{labels}}}"
    return None


# ---------------------------------------------------------------------------
# Per-statement context checks (scope: one frame + one dense sublocale)
# Each table entry is (hypotheses, conclusion); see localic.registry.
# ---------------------------------------------------------------------------

def check_opendensefrom(ctx: RemoteContext) -> Optional[str]:
    """The oracle, fast-path, open-subset and nucleus predicates agree.

    Each predicate acts point by point (module docstring), so they vote on
    O and the one-point sublocales only.
    """
    for t in point_sublocales(ctx.frame):
        votes = (ctx.pred_nwd_oracle(t), ctx.is_remote_from(t),
                 ctx.pred_open_subset(t), ctx.pred_nucleus_top(t))
        if len(set(votes)) != 1:
            return f"T={t.labels()} predicates={votes}"
    return None


def check_void_remote(ctx: RemoteContext) -> Optional[str]:
    if not ctx.is_remote_from(void_subl(ctx.frame), oracle=True):
        return "O not remote"
    return None


def check_downward_closure(ctx: RemoteContext) -> Optional[str]:
    """A <= B and B remote from S imply A remote from S.

    Sublocales are keyed by their point sets, and a family of point sets is
    down-closed iff dropping one point from a member always gives a member.
    """
    pts = ctx.frame.points_mask()
    by_pts = {t.mask & pts: t for t in enumerate_sublocales(ctx.frame)}
    remote = {q for q, t in by_pts.items() if ctx.is_remote_from(t)}
    for q in sorted(remote):
        for p in bits(q):
            if q & ~(1 << p) not in remote:
                a, b = by_pts[q & ~(1 << p)], by_pts[q]
                return f"A={a.labels()} B={b.labels()}"
    return None


def check_nd_remote(ctx: RemoteContext) -> Optional[str]:
    """L minus the closure of Nd(S) is remote from S."""
    nd, rem = ctx.nd_remainder()
    if not ctx.is_remote_from(rem, oracle=True):
        return f"Nd(S)={nd.labels()}"
    return None


def check_star_subset(ctx: RemoteContext) -> Optional[str]:
    """*remote sublocales are remote: the *remote mask holds the plain one.

    A witness point is held by some *remote T that is not remote.
    """
    star = ctx.star()
    return _on_both_routes(ctx.frame, lambda oracle: (
        ctx.miss_points(oracle) & ~star.miss_points(oracle)))


def check_rem_l_subset(ctx: RemoteContext) -> Optional[str]:
    """Remote sublocales of L are remote from every dense S: L's mask
    holds the mask of S."""
    whole = whole_context(ctx.frame)
    return _on_both_routes(ctx.frame, lambda oracle: (
        ctx.miss_points(oracle) & ~whole.miss_points(oracle)))


def check_rem_s_intersection(ctx: RemoteContext) -> Optional[str]:
    """S(S) /\\ S_rem(L |x S) equals S_rem(S), computed in the induced frame.

    Each family is the sublocales of S spanned by a set of free points: on
    the left the points of S outside this context's mask, on the right the
    points of the induced frame outside its own oracle mask.  The induced
    frame keeps exactly the points of L that lie in S, so the families are
    equal iff those two point sets are.
    """
    f = ctx.frame
    sub, elems = ctx.s.as_frame()
    free = sub.points_mask() & ~whole_context(sub).miss_points(oracle=True)
    rhs = _mask_of(elems[i] for i in bits(free))
    lhs = f.points_mask() & ctx.s.mask & ~ctx.miss_points()
    if lhs != rhs:
        labels = ",".join(f.labels[p] for p in bits(lhs ^ rhs))
        return f"points differ: {{{labels}}}"
    return None


def check_rmt_characterization(ctx: RemoteContext) -> Optional[str]:
    """Rmt via the join condition agrees with remoteness of c(a); *Rmt too."""
    for c in (ctx, ctx.star()):
        fast = c.rmt_elements()
        slow = c.rmt_elements(oracle=True)
        if fast != slow:
            return f"join-rule={sorted(fast)} oracle={sorted(slow)}"
    return None


def check_rare_equality(ctx: RemoteContext) -> Optional[str]:
    """For dense and rare S the remote and *remote collections coincide:
    the two masks are equal."""
    star = ctx.star()
    return _on_both_routes(ctx.frame, lambda oracle: (
        ctx.miss_points(oracle) ^ star.miss_points(oracle)))


def check_bl_remote(ctx: RemoteContext) -> Optional[str]:
    if not ctx.is_remote_from(booleanization(ctx.frame), oracle=True):
        return "BL not remote from S"
    return None


def check_s_is_bl(ctx: RemoteContext) -> Optional[str]:
    """S remote from itself iff S = BL iff L remote from S."""
    a = ctx.is_remote_from(ctx.s)
    b = ctx.s == booleanization(ctx.frame)
    c = ctx.is_remote_from(whole_subl(ctx.frame))
    if not a == b == c:
        return f"(S rem, S=BL, L rem)={(a, b, c)}"
    return None


def check_srem_lemma(ctx: RemoteContext) -> Optional[str]:
    """A remote from S implies A /\\ S remote in L.

    The points of A /\\ S are the points of A in S, and a remote A may
    hold any point outside the mask of the context, so no point of S
    outside that mask may lie in the mask of L.
    """
    f = ctx.frame
    whole = whole_context(f)
    return _on_both_routes(f, lambda oracle: (
        f.points_mask() & ctx.s.mask & ~ctx.miss_points(oracle)
        & whole.miss_points(oracle)))


def check_rs_bl(ctx: RemoteContext) -> Optional[str]:
    """Rs(L |x S) /\\ S = BL."""
    cut = ctx.rs().mask & ctx.s.mask
    if cut != booleanization(ctx.frame).mask:
        return f"Rs/\\S mask={cut:#x}"
    return None


def check_rs_nd(ctx: RemoteContext) -> Optional[str]:
    """Rs = L minus closure(Nd(S)) iff Nd(S) is S-nowhere dense."""
    nd, rem = ctx.nd_remainder()
    lhs = ctx.rs() == rem
    # Nd(S) <= S, and for dense S its S-pseudocomplements are ambient ones.
    rhs = ctx.frame.is_dense_element(nd.min_element())
    if lhs != rhs:
        return f"equality={lhs} nd-nowhere-dense={rhs}"
    return None


CONTEXT_CHECKS: dict[str, tuple] = {
    "opendensefrom": ((), check_opendensefrom),
    "BLandL1": ((), check_void_remote),
    "BLandL4": ((), check_downward_closure),
    "NDSremotefrom": ((), check_nd_remote),
    "remotesets": ((), check_star_subset),
    "SRemandSRemLS": ((), check_rem_l_subset),
    "remS": ((), check_rem_s_intersection),
    "sublocale": ((), check_rmt_characterization),
    "rareequality": ((lambda ctx: is_rare(ctx.frame, ctx.s),),
                     check_rare_equality),
    "BLisremote": ((), check_bl_remote),
    "SisBL": ((), check_s_is_bl),
    "SRemLemma": ((), check_srem_lemma),
    "RsBL": ((), check_rs_bl),
    "RsNd": ((), check_rs_nd),
}


# ---------------------------------------------------------------------------
# Frame-scoped checks (statements about S = BL specifically)
# ---------------------------------------------------------------------------

def check_remprop_bl(frame: FiniteFrame) -> Optional[str]:
    """Everything is remote from the Booleanization: its mask is empty."""
    return _on_both_routes(frame, bl_context(frame).miss_points)


def check_remprop_bl_star(frame: FiniteFrame) -> Optional[str]:
    """*remote-from-BL sublocales are exactly those inside L \\ BL.

    T <= L \\ BL when T has no point outside it, and the points of
    L \\ BL are the points not in BL, so the *remote mask must be the
    points of BL.  This comes from the frame, not from the context's W.
    """
    bl = frame.points_mask() & booleanization(frame).mask
    star = bl_context(frame).star()
    return _on_both_routes(frame, lambda oracle: (
        star.miss_points(oracle) ^ bl))


def check_l_is_large(frame: FiniteFrame) -> Optional[str]:
    """Rs(L |x BL), spanned on the oracle route, is L."""
    if not bl_context(frame).rs(oracle=True).is_whole():
        return "Rs(L|xBL) != L"
    return None


def check_rs_dense(frame: FiniteFrame) -> Optional[str]:
    """*Rs(L |x BL), spanned on the oracle route, is L \\ BL."""
    star = bl_context(frame).star()
    rs = star.rs(oracle=True)
    if rs != star.within:
        return f"*Rs={rs.labels()}"
    return None


def check_obs_remotefrom(frame: FiniteFrame) -> Optional[str]:
    """L is remote in itself exactly when L is Boolean."""
    a = whole_context(frame).is_remote_from(whole_subl(frame))
    b = frame.is_boolean()
    if a != b:
        return f"(L rem in L, L Boolean)={(a, b)}"
    return None


def check_obs_remotefrom_star(frame: FiniteFrame) -> Optional[str]:
    """L dense in itself iff L is *remote from its Booleanization."""
    a = is_dense_in_itself(frame)
    b = bl_context(frame).star().is_remote_from(whole_subl(frame))
    if a != b:
        return f"(L dense in itself, L *rem from BL)={(a, b)}"
    return None


FRAME_CHECKS: dict[str, tuple] = {
    "rempropBL": ((), check_remprop_bl),
    "rempropBLstar": ((), check_remprop_bl_star),
    "Lislarge": ((), check_l_is_large),
    "RsDense": ((), check_rs_dense),
    "obsremotefrom": ((), check_obs_remotefrom),
    "obsremotefromstar": ((), check_obs_remotefrom_star),
}
