"""Registry of all theorem checks, keyed by stable id, and their rows.

The paper's 40 statements are the checks below, in one table ``CHECKS``
keyed by scope; ``SCOPES`` is its keys.  Each scope maps an id to
``(hypotheses, conclusion)``: a tuple of predicates on the instance,
empty for an unconditional statement, and a conclusion that returns
None when it holds or a witness string when it does not.  A hypothesis
shared by several checks is one named predicate; each calls the
instance's methods at call time, so a method patched on its class is
the one a check sees.  The runner of a registered check alone decides
its verdict: ``hypotheses-not-met`` at the first hypothesis that is
false on the instance, and otherwise ``pass`` when the conclusion
returns None or ``fail`` with the witness it returns.  The row carries
the table key as its id and the instance itself, which only a failing
row written to the report names.  :func:`select` is the one place where
a ``--filter`` glob picks checks.

On each route of a context the remote family is one point mask M,
``miss_points``: T is remote iff it holds no point of M.  Points are
meet-irreducible, so the points of span(Q) are exactly Q, and each
single point spans a sublocale; hence family A lies inside family B iff
M_B lies inside M_A.  The checks ``remotesets``, ``SRemandSRemLS``,
``SRemLemma``, ``rareequality``, ``rempropBL`` and ``rempropBLstar`` are
such mask tests, run on both routes, and ``remS`` compares two such
families by their free points.

A statement "for every sublocale A (remote from S), P(A)" is checked on
O and the one-point sublocales {p, 1} alone, the remote ones when A
must be remote.  S(L) is the powerset of the points, and images,
preimages and remoteness act point by point: pts(f[A]) = f[pts(A)],
pts(f^-1[B]) = f^-1[pts(B)], and A is remote iff none of its points is
in the context's miss mask.  So each such P fails on some A only if it
fails on O or on some {p, 1} with p in A: 1 + |pts| sublocales, not
2^|pts|.  The four predicates of ``opendensefrom`` are such P (each is
"T <= W and no point of T in some mask"), so its vote on those
sublocales is exhaustive on every frame, with no sampling.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, Callable, NamedTuple, Optional

from .diagrams import (
    DenseSquare, SquareChain, Triangle, is_complemented_subl,
    is_f_remote_preserving, is_f_star_remote_preserving, takes_remainder,
)
from .frame import FiniteFrame, _mask_of, bits
from .locmap import LocalicMap
from .remoteness import RemoteContext, bl_context, whole_context
from .sublocale import (
    Sublocale, booleanization, enumerate_sublocales, is_dense_in_itself,
    is_rare, point_sublocales, void_subl, whole_subl,
)

PASS = "pass"
HYPOTHESES_NOT_MET = "hypotheses-not-met"
FAIL = "fail"


class CheckResult(NamedTuple):
    """A verdict row; it names its instance only when written out."""
    check_id: str
    inst: Any             # the checked instance; it has a subject()
    verdict: str
    witness: Optional[str] = None

    @property
    def subject(self) -> str:
        return self.inst.subject()

    def to_json(self) -> dict:
        out = {"statement_id": self.check_id, "subject": self.subject,
               "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class TheoremCheck(NamedTuple):
    id: str
    scope: str
    runner: Callable


def _runner(check_id: str, hypotheses: tuple,
            conclusion: Callable) -> Callable:
    def run(inst) -> CheckResult:
        for holds in hypotheses:
            if not holds(inst):
                return CheckResult(check_id, inst, HYPOTHESES_NOT_MET)
        witness = conclusion(inst)
        return CheckResult(check_id, inst,
                           PASS if witness is None else FAIL, witness)
    return run


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


def s_rare(ctx: RemoteContext) -> bool:
    return is_rare(ctx.frame, ctx.s)


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
    """A remote image under f, or f(x) in Rmt of M, forces the same in L.

    The body of ``beta1`` and, on the star contexts, of ``beta1star``.  On
    finite frames g skeletal alone gives both, without the other two
    hypotheses of ``beta1star``.  Let phi be f on points, Q and R the
    points of alpha[S] and omega[T], and M_Q, M_R the miss masks of
    (L, alpha[S]) and (M, omega[T]): the up-closures of Q - Min and
    R - Min, within the points.  Lemma: phi[M_Q] <= M_R.  Take p >= q,
    q in Q - Min.  q is a non-minimal point of S; a skeletal g sends it
    to a non-minimal point of T, and the square commutes, so phi(q) is in
    R - Min; phi is monotone, so phi(p) is in M_R.  The square commutes,
    so phi[Q] <= R, and the star masks M_Q | Q and M_R | R follow.  Read
    point by point, the lemma is the sublocale part (a point of A in M_Q
    puts phi of it in f[A] and M_R).  The Rmt part: x is outside Rmt iff
    x <= p for some p in the miss mask, and x <= p gives f(x) <= phi(p),
    so x outside Rmt of L puts f(x) outside Rmt of M.
    ``test_a_skeletal_g_keeps_the_miss_masks`` checks the lemma on the
    3-point square space.
    """
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
    """f pulls remote sublocales and Rmt elements of M back into L.

    The body of ``for`` and, on the star contexts, of ``forstar``.  On
    finite frames g skeletal alone gives both, by the lemma in
    :func:`_beta1`: phi[M_Q] <= M_R, and phi[M_Q | Q] <= M_R | R for the
    star masks.  The sublocale part: a point p of f^-1[A] in M_Q puts
    phi(p) in A and M_R, so A is not remote.  The Rmt part: f*(x) <= p
    iff x <= f(p) = phi(p), so f*(x) below a point of M_Q puts x below
    one of M_R.
    """
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
    """Three equivalent faces of f-*remote preservation.

    On finite frames they agree without the paper's hypothesis
    ``commuting_adjoints``, which the registry keeps.  With phi f on
    points and F the points outside the star miss mask of (L, alpha[S]),
    *Rs(L) is the span of F, and the points of f[A] are phi of those of
    A.  So each face, f *remote preserving, f[*Rs(L)] *remote and
    f[*Rs(L)] <= *Rs(M), says that phi[F] misses M's star mask
    (``test_star_gamma_faces_are_one_closed_form``).  The plain twin's
    fourth face, f[BL] remote, reads phi[Min L] and needs the hypothesis.
    """
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


# ---------------------------------------------------------------------------
# Chain-level checks
# ---------------------------------------------------------------------------

def _unless(holds: bool, witness: str) -> Optional[str]:
    return None if holds else witness


def outer_f_remote_preserving(chain: SquareChain) -> bool:
    return is_f_remote_preserving(chain.outer)


def outer_f_star_remote_preserving(chain: SquareChain) -> bool:
    return is_f_star_remote_preserving(chain.outer)


def outer_alpha_onto(chain: SquareChain) -> bool:
    return chain.outer.alpha.is_surjective()


def upper_f_remote_preserving(chain: SquareChain) -> bool:
    return is_f_remote_preserving(chain.upper)


def upper_pulls_omega_to_alpha(chain: SquareChain) -> bool:
    return pulls_omega_to_alpha(chain.upper)


def upper_image_onto(chain: SquareChain) -> bool:
    return image_onto(chain.upper)


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


# ---------------------------------------------------------------------------
# Triangle-level checks (composition of preservation)
# ---------------------------------------------------------------------------

def _both_legs(tri: Triangle, preserving) -> bool:
    return preserving(tri.sq1) and preserving(tri.sq2)


def legs_preserving(tri: Triangle) -> bool:
    """Both legs remote preserving, or both *remote preserving."""
    return (_both_legs(tri, is_f_remote_preserving)
            or _both_legs(tri, is_f_star_remote_preserving))


def composite_f_remote_preserving(tri: Triangle) -> bool:
    return is_f_remote_preserving(tri.sq3)


def second_g_skeletal(tri: Triangle) -> bool:
    return g_skeletal(tri.sq2)


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


CHECKS: dict[str, dict[str, tuple]] = {
    "frame": {
        "rempropBL": ((), check_remprop_bl),
        "rempropBLstar": ((), check_remprop_bl_star),
        "Lislarge": ((), check_l_is_large),
        "RsDense": ((), check_rs_dense),
        "obsremotefrom": ((), check_obs_remotefrom),
        "obsremotefromstar": ((), check_obs_remotefrom_star),
    },
    "context": {
        "opendensefrom": ((), check_opendensefrom),
        "BLandL1": ((), check_void_remote),
        "BLandL4": ((), check_downward_closure),
        "NDSremotefrom": ((), check_nd_remote),
        "remotesets": ((), check_star_subset),
        "SRemandSRemLS": ((), check_rem_l_subset),
        "remS": ((), check_rem_s_intersection),
        "sublocale": ((), check_rmt_characterization),
        "rareequality": ((s_rare,), check_rare_equality),
        "BLisremote": ((), check_bl_remote),
        "SisBL": ((), check_s_is_bl),
        "SRemLemma": ((), check_srem_lemma),
        "RsBL": ((), check_rs_bl),
        "RsNd": ((), check_rs_nd),
    },
    "square": {
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
        "remotepreservation": ((commuting_adjoints,),
                               check_remote_preservation),
    },
    "chain": {
        "bvl": ((), check_bvl),
        "starbvl": ((), check_starbvl),
        "gfremote": ((outer_f_remote_preserving,), check_gfremote),
        "obsfremote": ((outer_alpha_onto, upper_f_remote_preserving),
                       check_obsfremote),
        "starobsgfremote": ((outer_f_star_remote_preserving,
                             upper_pulls_omega_to_alpha, upper_image_onto),
                            check_star_obs_gfremote),
    },
    "triangle": {
        "tfg-1": ((legs_preserving,), check_tfg1),
        "tfg-2": ((composite_f_remote_preserving, second_g_skeletal),
                  check_tfg2),
        "tfg-3": ((composite_f_remote_preserving,
                   _middle_remote_in_first_image), check_tfg3),
    },
}

SCOPES = tuple(CHECKS)


def _build_registry() -> dict[str, TheoremCheck]:
    reg: dict[str, TheoremCheck] = {}
    for scope, table in CHECKS.items():
        for check_id, (hypotheses, conclusion) in table.items():
            if check_id in reg:
                raise ValueError(f"duplicate check id {check_id}")
            reg[check_id] = TheoremCheck(
                check_id, scope, _runner(check_id, hypotheses, conclusion))
    return reg


REGISTRY: dict[str, TheoremCheck] = _build_registry()


def select(pattern: str) -> list[TheoremCheck]:
    """The checks whose id matches the glob ``pattern``, sorted by id, as
    ``REGISTRY`` holds them at the call."""
    return [REGISTRY[cid] for cid in sorted(REGISTRY) if fnmatch(cid, pattern)]


def checks_in_scope(scope: str) -> list[TheoremCheck]:
    return [c for c in select("*") if c.scope == scope]
