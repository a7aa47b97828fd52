"""Commuting squares of localic maps and the preservation theorems.

A :class:`DenseSquare` is the basic diagram: a top map g between two
locales, a bottom map f, and injective dense verticals pinning the top
row inside the bottom row.  A :class:`SquareChain` factors a square
through a middle layer as two squares pasted vertically, so its checks
ask which of the three squares are remote preserving; a
:class:`Triangle` composes two squares that share their middle vertical.

Each check is a pair ``(hypotheses, conclusion)``: a tuple of predicates
on the instance, empty for an unconditional statement, and a conclusion
that returns None when it holds or a witness string when it does not.
The registry decides the verdict.  A hypothesis shared by several checks
is one named predicate below; each calls the instance's methods at call
time, so a method patched on its class is the one a check sees.  A
square keeps one value, whether its adjoints commute, computed on first
use; its contexts are the frames' own (see
:func:`~localic.remoteness.dense_context`).  An instance's ``subject()``
is formatted only for a failing row that the report writes out.

A statement "for every sublocale A (remote from S), P(A)" is checked on O
and the one-point sublocales {p, 1} alone, the remote ones when A must be
remote.  S(L) is the powerset of the points, and images, preimages and
remoteness act point by point: pts(f[A]) = f[pts(A)],
pts(f^-1[B]) = f^-1[pts(B)], and A is remote iff none of its points is in
the context's miss mask.  So each such P fails on some A only if it fails
on O or on some {p, 1} with p in A: 1 + |pts| sublocales, not 2^|pts|.
So f is (*)remote preserving iff no point outside L's miss mask goes
into M's, and f takes the remainder iff no point outside S goes into T,
L minus S being the span of the points outside S.  Localic maps that
agree on points agree everywhere, so commutation is checked on points.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidSquare
from .frame import FiniteFrame, bits
from .locmap import LocalicMap, compose
from .remoteness import RemoteContext, dense_context, whole_context
from .sublocale import (
    Sublocale, booleanization, point_sublocales, supplement,
    whole_subl as _whole,
)


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


def _remote_points(ctx: RemoteContext) -> list[Sublocale]:
    """O and the one-point sublocales that are remote in ctx."""
    return [a for a in point_sublocales(ctx.frame) if ctx.is_remote_from(a)]


def _image_witness(f: LocalicMap, src: RemoteContext,
                   dst: RemoteContext) -> Optional[str]:
    """A sublocale remote in src whose image under f is not remote in dst."""
    for a in _remote_points(src):
        if not dst.is_remote_from(f.image_subl(a)):
            return f"A={a.labels()}"
    return None


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
    """
    return supplement(frame, s).mask & s.mask == 1 << frame.top


# ---------------------------------------------------------------------------
# The hypotheses shared by the square checks
# ---------------------------------------------------------------------------

def commuting_adjoints(sq: DenseSquare) -> bool:
    return sq.adjoints_commute()


def g_skeletal(sq: DenseSquare) -> bool:
    return sq.g.is_skeletal()


def g_star_skeletal(sq: DenseSquare) -> bool:
    return sq.g.adjoint_is_skeletal()


def omega_complemented(sq: DenseSquare) -> bool:
    return is_complemented_subl(sq.m_frame, sq.omega_image)


def pulls_omega_to_alpha(sq: DenseSquare) -> bool:
    """f^{-1}[omega[T]] = alpha[S]."""
    return sq.f.preimage_subl(sq.omega_image) == sq.alpha_image


def image_onto(sq: DenseSquare) -> bool:
    return sq.f.is_surjective()


def closure_style(sq: DenseSquare) -> bool:
    """f* weakly closed over a surjective g, or commuting adjoints over a
    surjective f."""
    return ((sq.f.is_weakly_closed_adjoint() and sq.g.is_surjective())
            or (commuting_adjoints(sq) and sq.f.is_surjective()))


# ---------------------------------------------------------------------------
# Preservation and reflection over one square
# ---------------------------------------------------------------------------

# Each body runs on a pair of contexts; _plain, _star and _plain_then_star
# turn it into the conclusion of a check on the square.

def _plain(body):
    return lambda sq: body(sq, sq.ctx_l(), sq.ctx_m())


def _star(body):
    return lambda sq: body(sq, sq.ctx_l().star(), sq.ctx_m().star())


def _plain_then_star(body):
    """The body on the plain contexts, then on the *remote ones when f
    takes the remainder."""
    def conclusion(sq: DenseSquare) -> Optional[str]:
        ctx_l, ctx_m = sq.ctx_l(), sq.ctx_m()
        fail = body(sq, ctx_l, ctx_m)
        if fail is None and takes_remainder(sq):
            fail = body(sq, ctx_l.star(), ctx_m.star())
            if fail is not None:
                fail += " (star part)"
        return fail
    return conclusion


def _beta(sq: DenseSquare, ctx_l: RemoteContext,
          ctx_m: RemoteContext) -> Optional[str]:
    """f maps remote sublocales, and Rmt elements if f* is weakly closed."""
    fail = _image_witness(sq.f, ctx_l, ctx_m)
    if fail is None and sq.f.is_weakly_closed_adjoint():
        rmt_m = ctx_m.rmt_elements()
        for x in ctx_l.rmt_elements():
            if sq.f(x) not in rmt_m:
                return f"x={sq.l_frame.labels[x]} (Rmt part)"
    return fail


def _beta1(sq: DenseSquare, ctx_l: RemoteContext,
           ctx_m: RemoteContext) -> Optional[str]:
    """A remote image under f, or f(x) in Rmt of M, forces the same in L."""
    for a in point_sublocales(sq.l_frame):
        if ctx_m.is_remote_from(sq.f.image_subl(a)) \
                and not ctx_l.is_remote_from(a):
            return f"A={a.labels()}"
    rmt_l = ctx_l.rmt_elements()
    rmt_m = ctx_m.rmt_elements()
    for x in range(sq.l_frame.n):
        if sq.f(x) in rmt_m and x not in rmt_l:
            return f"x={sq.l_frame.labels[x]} (Rmt part)"
    return None


def _for(sq: DenseSquare, ctx_l: RemoteContext,
         ctx_m: RemoteContext) -> Optional[str]:
    """f pulls remote sublocales and Rmt elements of M back into L."""
    for a in _remote_points(ctx_m):
        if not ctx_l.is_remote_from(sq.f.preimage_subl(a)):
            return f"A={a.labels()}"
    rmt_l = ctx_l.rmt_elements()
    for x in ctx_m.rmt_elements():
        if sq.f.adjoint(x) not in rmt_l:
            return f"x={sq.m_frame.labels[x]} (Rmt part)"
    return None


def _for1(sq: DenseSquare, ctx_l: RemoteContext,
          ctx_m: RemoteContext) -> Optional[str]:
    """A remote preimage under f forces a remote sublocale of M."""
    for a in point_sublocales(sq.m_frame):
        if ctx_l.is_remote_from(sq.f.preimage_subl(a)) \
                and not ctx_m.is_remote_from(a):
            return f"A={a.labels()}"
    return None


def _for1star(sq: DenseSquare, ctx_l: RemoteContext,
              ctx_m: RemoteContext) -> Optional[str]:
    """f*(x) in Rmt of L forces x in Rmt of M."""
    rmt_l = ctx_l.rmt_elements()
    rmt_m = ctx_m.rmt_elements()
    for x in range(sq.m_frame.n):
        if sq.f.adjoint(x) in rmt_l and x not in rmt_m:
            return f"x={sq.m_frame.labels[x]}"
    return None


# ---------------------------------------------------------------------------
# Remote-preserving characterizations over one square
# ---------------------------------------------------------------------------

def check_gamma_remote_preserving(sq: DenseSquare) -> Optional[str]:
    """Four equivalent faces of f-remote preservation."""
    ctx_m = sq.ctx_m()
    p1 = is_f_remote_preserving(sq)
    p2 = ctx_m.is_remote_from(sq.f.image_subl(booleanization(sq.l_frame)))
    img_rs = sq.f.image_subl(sq.ctx_l().rs())
    p3 = ctx_m.is_remote_from(img_rs)
    p4 = img_rs <= ctx_m.rs()
    if not p1 == p2 == p3 == p4:
        return f"faces={(p1, p2, p3, p4)}"
    return None


def check_star_gamma_remote_preserving(sq: DenseSquare) -> Optional[str]:
    ctx_l, ctx_m = sq.ctx_l().star(), sq.ctx_m().star()
    p1 = is_f_star_remote_preserving(sq)
    img = sq.f.image_subl(ctx_l.rs())
    p2 = ctx_m.is_remote_from(img)
    p3 = img <= ctx_m.rs()
    if not p1 == p2 == p3:
        return f"faces={(p1, p2, p3)}"
    return None


def check_gamma_preservation_lemma(sq: DenseSquare) -> Optional[str]:
    """Remoteness transfers along alpha between S and (L, alpha[S])."""
    s_ctx = whole_context(sq.s_frame)
    ctx_l = sq.ctx_l()
    for a in point_sublocales(sq.s_frame):
        if s_ctx.is_remote_from(a) \
                != ctx_l.is_remote_from(sq.alpha.image_subl(a)):
            return f"A={a.labels()} (part 1)"
    for a in _remote_points(ctx_l):
        if not s_ctx.is_remote_from(sq.alpha.preimage_subl(a)):
            return f"A={a.labels()} (part 2)"
    return None


def check_remote_preservation(sq: DenseSquare) -> Optional[str]:
    """f-remote preservation matches g preserving remote sublocales."""
    lhs = is_f_remote_preserving(sq)
    # g preserves remote sublocales iff g[BS] is remote in T
    rhs = whole_context(sq.t_frame).is_remote_from(
        sq.g.image_subl(booleanization(sq.s_frame)))
    if lhs != rhs:
        return f"f-remote-preserving={lhs} g-preserves-remote={rhs}"
    return None


SQUARE_CHECKS: dict[str, tuple] = {
    # g* skeletal and commuting adjoints force f to preserve remoteness
    "beta": ((g_star_skeletal, commuting_adjoints), _plain(_beta)),
    "betastar": ((g_star_skeletal, commuting_adjoints, takes_remainder),
                 _star(_beta)),
    # skeletal g reflects remoteness through images under f
    "beta1": ((g_skeletal,), _plain(_beta1)),
    "beta1star": ((g_skeletal, omega_complemented, pulls_omega_to_alpha),
                  _star(_beta1)),
    # skeletal g pulls remote sublocales back to remote sublocales
    "for": ((g_skeletal,), _plain(_for)),
    "forstar": ((g_skeletal, omega_complemented, pulls_omega_to_alpha),
                _star(_for)),
    # a surjective image function turns preimage-remoteness into remoteness
    "for1": ((g_star_skeletal, commuting_adjoints, image_onto),
             _plain_then_star(_for1)),
    # f* reflects the Rmt condition under either closure-style hypothesis
    "for1star": ((g_star_skeletal, closure_style),
                 _plain_then_star(_for1star)),
    "gammaremotepreserving": ((commuting_adjoints,),
                              check_gamma_remote_preserving),
    "stargammaremotepreserving": ((commuting_adjoints,),
                                  check_star_gamma_remote_preserving),
    "gammapreservationlemma": ((), check_gamma_preservation_lemma),
    "remotepreservation": ((commuting_adjoints,), check_remote_preservation),
}


# ---------------------------------------------------------------------------
# Chain-level checks
# ---------------------------------------------------------------------------

def _unless(holds: bool, witness: str) -> Optional[str]:
    return None if holds else witness


def check_bvl(chain: SquareChain) -> Optional[str]:
    """theta maps the middle layer's remote sublocales to remote ones."""
    return _image_witness(chain.lower.alpha, chain.upper.ctx_l(),
                          chain.outer.ctx_l())


def check_starbvl(chain: SquareChain) -> Optional[str]:
    return _image_witness(chain.lower.alpha, chain.upper.ctx_l().star(),
                          chain.outer.ctx_l().star())


def check_gfremote(chain: SquareChain) -> Optional[str]:
    """Outer f-remote preservation descends to the upper square."""
    return _unless(is_f_remote_preserving(chain.upper),
                   "phi not remote preserving")


def check_obsfremote(chain: SquareChain) -> Optional[str]:
    """Converse of the descent when alpha is surjective."""
    return _unless(is_f_remote_preserving(chain.outer),
                   "f not remote preserving")


def check_star_obs_gfremote(chain: SquareChain) -> Optional[str]:
    """Star descent under the remainder-forcing side conditions."""
    return _unless(is_f_star_remote_preserving(chain.upper),
                   "phi not *remote preserving")


CHAIN_CHECKS: dict[str, tuple] = {
    "bvl": ((), check_bvl),
    "starbvl": ((), check_starbvl),
    "gfremote": ((lambda c: is_f_remote_preserving(c.outer),),
                 check_gfremote),
    "obsfremote": ((lambda c: c.outer.alpha.is_surjective(),
                    lambda c: is_f_remote_preserving(c.upper)),
                   check_obsfremote),
    "starobsgfremote": ((lambda c: is_f_star_remote_preserving(c.outer),
                         lambda c: pulls_omega_to_alpha(c.upper),
                         lambda c: image_onto(c.upper)),
                        check_star_obs_gfremote),
}


# ---------------------------------------------------------------------------
# Triangle-level checks (composition of preservation)
# ---------------------------------------------------------------------------

def _both_legs(tri: Triangle, preserving) -> bool:
    return preserving(tri.sq1) and preserving(tri.sq2)


def check_tfg1(tri: Triangle) -> Optional[str]:
    """Preservation composes; the star case composes the same way."""
    for preserving, kind in ((is_f_remote_preserving, "remote"),
                             (is_f_star_remote_preserving, "*remote")):
        if _both_legs(tri, preserving) and not preserving(tri.sq3):
            return f"composite not {kind} preserving"
    return None


def check_tfg2(tri: Triangle) -> Optional[str]:
    """Composite preservation plus a skeletal second leg recovers the first."""
    return _unless(is_f_remote_preserving(tri.sq1),
                   "first leg not remote preserving")


def _middle_remote_in_first_image(tri: Triangle) -> bool:
    """The middle context's remote sublocales all sit inside the image of
    the first Booleanization: their join Rs does."""
    bound = tri.sq1.f.image_subl(booleanization(tri.sq1.l_frame))
    return tri.sq2.ctx_l().rs() <= bound


def check_tfg3(tri: Triangle) -> Optional[str]:
    """Composite preservation recovers the second leg."""
    return _unless(is_f_remote_preserving(tri.sq2),
                   "second leg not remote preserving")


TRIANGLE_CHECKS: dict[str, tuple] = {
    "tfg-1": ((lambda t: _both_legs(t, is_f_remote_preserving)
               or _both_legs(t, is_f_star_remote_preserving),),
              check_tfg1),
    "tfg-2": ((lambda t: is_f_remote_preserving(t.sq3),
               lambda t: g_skeletal(t.sq2)),
              check_tfg2),
    "tfg-3": ((lambda t: is_f_remote_preserving(t.sq3),
               _middle_remote_in_first_image),
              check_tfg3),
}
