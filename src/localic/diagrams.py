"""Commuting squares of localic maps and the paper's predicates on them.

A :class:`DenseSquare` is the basic diagram: a top map g between two
locales, a bottom map f, and injective dense verticals pinning the top
row inside the bottom row.  A :class:`SquareChain` factors a square
through a middle layer as two squares pasted vertically, so the chain
checks ask which of the three squares are remote preserving; a
:class:`Triangle` composes two squares that share their middle vertical.
The checks themselves are in :mod:`localic.registry`.

A square keeps one value, whether its adjoints commute, computed on first
use; its contexts are the frames' own (see
:func:`~localic.remoteness.dense_context`).  An instance's ``subject()``
is formatted only for a failing row that the report writes out.

Images and remoteness act point by point (see :mod:`localic.registry`),
so f is (*)remote preserving iff no point outside L's miss mask goes
into M's, and f takes the remainder iff no point outside S goes into T,
L minus S being the span of the points outside S.  Localic maps that
agree on points agree everywhere, so commutation is checked on points.
"""

from __future__ import annotations

from .errors import InvalidSquare
from .frame import FiniteFrame, bits
from .locmap import LocalicMap, compose
from .remoteness import RemoteContext, dense_context
from .sublocale import Sublocale, supplement, whole_subl as _whole


class DenseSquare:
    """g : S -> T over f : L -> M, glued by injective dense verticals."""

    __slots__ = ("s_frame", "t_frame", "l_frame", "m_frame",
                 "g", "f", "alpha", "omega",
                 "alpha_image", "omega_image", "_commute")

    def __init__(self, g: LocalicMap, f: LocalicMap,
                 alpha: LocalicMap, omega: LocalicMap):
        self.s_frame = g.source
        self.t_frame = g.target
        self.l_frame = f.source
        self.m_frame = f.target
        if alpha.source is not self.s_frame or alpha.target is not self.l_frame:
            raise InvalidSquare("alpha must run from the top-left frame down")
        if omega.source is not self.t_frame or omega.target is not self.m_frame:
            raise InvalidSquare("omega must run from the top-right frame down")
        for v, lab in ((alpha, "alpha"), (omega, "omega")):
            if not v.is_injective():
                raise InvalidSquare(f"{lab} is not injective")
        self.g, self.f, self.alpha, self.omega = g, f, alpha, omega
        self.alpha_image = alpha.image_subl(_whole(self.s_frame))
        self.omega_image = omega.image_subl(_whole(self.t_frame))
        for img, lab in ((self.alpha_image, "alpha"),
                         (self.omega_image, "omega")):
            if not img.is_dense():
                raise InvalidSquare(f"image of {lab} is not dense")
        for x in bits(self.s_frame.points_mask()):
            if f(alpha(x)) != omega(g(x)):
                raise InvalidSquare(
                    f"square does not commute at element {x}")
        self._commute = None

    def ctx_l(self) -> RemoteContext:
        """The context (L, alpha[S]) on the source side, kept on L."""
        return dense_context(self.l_frame, self.alpha_image)

    def ctx_m(self) -> RemoteContext:
        return dense_context(self.m_frame, self.omega_image)

    def adjoints_commute(self) -> bool:
        """f* after omega equals alpha after g* (elementwise on T)."""
        if self._commute is None:
            self._commute = all(
                self.f.adjoint(self.omega(t)) == self.alpha(self.g.adjoint(t))
                for t in range(self.t_frame.n))
        return self._commute

    def subject(self) -> str:
        sig = ".".join(str(v) for v in self.f.table)
        return (f"{self.l_frame.name or 'L'}->{self.m_frame.name or 'M'} "
                f"f={sig}; "
                f"S={{{','.join(self.alpha_image.labels())}}} "
                f"T={{{','.join(self.omega_image.labels())}}}")

    def __repr__(self) -> str:
        return f"DenseSquare({self.subject()})"


class SquareChain:
    """Two dense squares stacked vertically through a middle layer R -> U.

    ``upper`` is g : S -> T over phi : R -> U with verticals i and k;
    ``lower`` is phi over f : L -> M with verticals theta and sigma.  The
    pasted square is ``outer``, so alpha = theta o i and omega = sigma o k.
    """

    __slots__ = ("outer", "upper", "lower")

    def __init__(self, outer: DenseSquare, i: LocalicMap, k: LocalicMap,
                 phi: LocalicMap, theta: LocalicMap, sigma: LocalicMap):
        self.outer = outer
        self.upper = _named_square("upper square (i, k)",
                                   outer.g, phi, i, k)
        self.lower = _named_square("lower square (theta, sigma)",
                                   phi, outer.f, theta, sigma)
        for x in bits(outer.s_frame.points_mask()):
            if theta(i(x)) != outer.alpha(x):
                raise InvalidSquare(f"alpha != theta o i at element {x}")
        for x in bits(outer.t_frame.points_mask()):
            if sigma(k(x)) != outer.omega(x):
                raise InvalidSquare(f"omega != sigma o k at element {x}")

    def subject(self) -> str:
        return (f"{self.outer.subject()} via "
                f"R={{{','.join(self.lower.alpha_image.labels())}}} "
                f"U={{{','.join(self.lower.omega_image.labels())}}}")

    def __repr__(self) -> str:
        return f"SquareChain({self.subject()})"


def _named_square(label: str, g: LocalicMap, f: LocalicMap,
                  alpha: LocalicMap, omega: LocalicMap) -> DenseSquare:
    """A DenseSquare whose InvalidSquare message names the chain's square."""
    try:
        return DenseSquare(g, f, alpha, omega)
    except InvalidSquare as e:
        raise InvalidSquare(f"{label}: {e}") from None


class Triangle:
    """Two horizontally composable squares plus their composite.

    sq1 carries a map between the first and second column, sq2 between
    the second and third; they share the middle vertical.  sq3 is the
    composite square whose bottom map is sq2.f after sq1.f.
    """

    __slots__ = ("sq1", "sq2", "sq3")

    def __init__(self, sq1: DenseSquare, sq2: DenseSquare):
        if sq1.t_frame is not sq2.s_frame or sq1.m_frame is not sq2.l_frame:
            raise InvalidSquare("squares do not share the middle column")
        if sq1.omega.table != sq2.alpha.table:
            raise InvalidSquare("squares disagree on the middle vertical")
        self.sq1 = sq1
        self.sq2 = sq2
        self.sq3 = DenseSquare(compose(sq2.g, sq1.g), compose(sq2.f, sq1.f),
                               sq1.alpha, sq2.omega)

    def subject(self) -> str:
        return f"{self.sq1.subject()} | {self.sq2.subject()}"

    def __repr__(self) -> str:
        return f"Triangle({self.subject()})"


# ---------------------------------------------------------------------------
# Square-level predicates
# ---------------------------------------------------------------------------

def takes_remainder(sq: DenseSquare) -> bool:
    """f[L minus alpha[S]] sits inside M minus omega[T]."""
    outside = sq.l_frame.points_mask() & ~sq.alpha_image.mask
    return sq.f.point_image(outside) & sq.omega_image.mask == 0


def _preserves(f: LocalicMap, src: RemoteContext,
               dst: RemoteContext) -> bool:
    """f maps the sublocales remote in src to ones remote in dst."""
    free = f.source.points_mask() & ~src.miss_points()
    return f.point_image(free) & dst.miss_points() == 0


def is_f_remote_preserving(sq: DenseSquare) -> bool:
    return _preserves(sq.f, sq.ctx_l(), sq.ctx_m())


def is_f_star_remote_preserving(sq: DenseSquare) -> bool:
    return _preserves(sq.f, sq.ctx_l().star(), sq.ctx_m().star())


def is_complemented_subl(frame: FiniteFrame, s: Sublocale) -> bool:
    """Whether s has a complement in the coframe S(frame).

    A complement must contain the supplement, the least sublocale joining
    s to the whole; so one exists iff the supplement misses s.
    ``supplement`` refuses a sublocale of another frame.
    """
    return supplement(frame, s).mask & s.mask == 1 << frame.top
