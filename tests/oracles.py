"""Brute-force references that the tests check the library against.

Each one decides its question from the definitions, sharing no logic with
the library's fast path: points by the prime condition, sublocales by the
subset filter, joins of sublocales through all of their members, S-dense
elements through the induced frame of S, map properties on element
tables.  Where the library decides on element tables, the reference is a
point form instead.
"""

from localic import GenSpec, Sublocale, identity_map
from localic.diagrams import (
    DenseSquare, is_f_remote_preserving, is_f_star_remote_preserving,
    takes_remainder,
)
from localic.frame import FiniteFrame, bits
from localic.generators import (
    gen_dense_sublocales, gen_frames, gen_maps, square_from,
)
from localic.registry import CHECKS, _image_witness
from localic.sublocale import supplement


def is_point(frame: FiniteFrame, p: int) -> bool:
    """p < 1 and a /\\ b <= p forces a <= p or b <= p.

    The reference for ``FiniteFrame.points_mask``.
    """
    if p == frame.top:
        return False
    below_p = frame.down[p]
    for a in range(frame.n):
        if below_p >> a & 1:
            continue
        for b in range(a, frame.n):
            if below_p >> b & 1:
                continue
            if below_p >> frame.meet_table[a][b] & 1:
                return False
    return True


def is_sublocale_by_definition(frame: FiniteFrame, subset) -> bool:
    """The members, a mask or element indices, lie in the frame, hold the
    top, and are closed under binary meets and under x -> s for every
    element x and member s.

    The reference for ``is_sublocale``, which compares the mask with the
    span of its points instead.  Reads the frame's meet and implication
    tables, and builds each member's requirement mask {x -> s : x in L}.
    """
    mask = subset if isinstance(subset, int) else sum(
        1 << x for x in set(subset))
    if mask >> frame.n or not mask >> frame.top & 1:
        return False
    meet, impl = frame.meet_table, frame.impl_table
    elems = list(bits(mask))
    for i, s in enumerate(elems):
        req = 0
        for row in impl:
            req |= 1 << row[s]
        if req & ~mask:
            return False
        row = meet[s]
        for t in elems[:i]:
            if not mask >> row[t] & 1:
                return False
    return True


def enumerate_sublocales_oracle(frame: FiniteFrame) -> list[Sublocale]:
    """Every subset containing the top that passes
    ``is_sublocale_by_definition``.

    Uncached; requires the enumeration cap.  Ordered by mask like
    ``enumerate_sublocales``.
    """
    frame.require_enumerable()
    top_bit = 1 << frame.top
    rest = [i for i in range(frame.n) if i != frame.top]
    out = []
    for sub in range(1 << len(rest)):
        mask = top_bit
        for j, e in enumerate(rest):
            if sub >> j & 1:
                mask |= 1 << e
        if is_sublocale_by_definition(frame, mask):
            out.append(Sublocale(frame, mask))
    out.sort(key=lambda t: t.mask)
    return out


def remote_scan(ctx, oracle=False):
    """The remote set of a context by scanning S(L): every sublocale the
    subset filter finds that ``ctx.is_remote_from`` accepts, by mask.

    The reference for ``RemoteContext.remote_set``, which spans the sets
    of points of Rs instead; a fake context that overrides
    ``is_remote_from`` is scanned by its own predicate.
    """
    return [t for t in enumerate_sublocales_oracle(ctx.frame)
            if ctx.is_remote_from(t, oracle)]


def join_is_whole(frame: FiniteFrame, mask_a: int, mask_b: int) -> bool:
    """Whether the coframe join of two member masks is all of L.

    Works on all members, not points: the join is L iff every element is
    the meet of the union's members above it.  The reference for
    ``supplement``.
    """
    union = mask_a | mask_b
    for a in range(frame.n):
        if frame.meet_of(bits(union & frame.up[a])) != a:
            return False
    return True


def s_dense_elements(s: Sublocale) -> list[int]:
    """Ambient indices of the S-dense elements of S (pseudocomplement 0_S),
    read off the induced frame of S."""
    sub, elems = s.as_frame()
    return [elems[i] for i in range(sub.n)
            if sub.pseudocomplement(i) == sub.bottom]


def identity_square(frame: FiniteFrame, s: Sublocale) -> DenseSquare:
    """The square of the identity map with S on both sides."""
    sq = square_from(identity_map(frame), s, s)
    assert sq is not None
    return sq


# -- localic maps and squares -------------------------------------------------

def table_is_skeletal(src: FiniteFrame, tgt: FiniteFrame, table) -> bool:
    """Dense elements (x -> 0 = 0) of src land on dense elements of tgt.

    The reference for ``is_skeletal`` on a map's table and for
    ``adjoint_is_skeletal`` on its adjoint's.
    """
    return all(tgt.pseudocomplement(table[a]) == tgt.bottom
               for a in range(src.n) if src.pseudocomplement(a) == src.bottom)


def table_is_surjective(f) -> bool:
    """The table hits every element.  The reference for ``is_surjective``."""
    return len(set(f.table)) == f.target.n


def adjoint_by_order(f) -> tuple[int, ...]:
    """f*(y), the least x with y <= f(x), for each y, from the order alone.

    The reference for ``adjoint_table``.
    """
    src, tgt = f.source, f.target
    out = []
    for y in range(tgt.n):
        above = [x for x in range(src.n) if tgt.leq(y, f(x))]
        out.append(next(m for m in above
                        if all(src.leq(m, x) for x in above)))
    return tuple(out)


def weakly_closed_by_points(f) -> bool:
    """Every point q >= f(p), p a point, lies below f(r) for a point r >= p.

    The point form of ``is_weakly_closed_adjoint``: a \\/ f*(b) = 1 iff no
    point r >= a has f(r) >= b, and f(a) \\/ b = 1 iff no point above f(a)
    is above b; the points above f(a) are those above some f(p), p >= a.
    """
    src, tgt = f.source, f.target
    pts = src.points_mask()
    for p in bits(pts):
        below = 0
        for r in bits(pts & src.up[p]):
            below |= tgt.down[f(r)]
        if tgt.points_mask() & tgt.up[f(p)] & ~below:
            return False
    return True


def commute_by_points(sq: DenseSquare) -> bool:
    """For each point q of T, every point p of L with f(p) >= omega(q) lies
    above a point p' of alpha[S] with f(p') >= omega(q).

    The point form of ``adjoints_commute``: the points above f*(omega(t))
    are the p with omega(t) <= f(p), and those above alpha(g*(t)) are the
    points above such a p in alpha[S]; omega(t) is the meet of the
    omega(q), q >= t, and f(p) is prime.
    """
    l_pts = sq.l_frame.points_mask()
    s_pts = l_pts & sq.alpha_image.mask
    up = sq.l_frame.up
    for q in bits(sq.t_frame.points_mask()):
        above = sq.m_frame.up[sq.omega(q)]
        hit = 0
        for p in bits(l_pts):
            if above >> sq.f(p) & 1:
                hit |= 1 << p
        covered = 0
        for p in bits(hit & s_pts):
            covered |= up[p]
        if hit & ~covered:
            return False
    return True


def takes_remainder_by_supplement(sq: DenseSquare) -> bool:
    """f[L minus alpha[S]] <= M minus omega[T], on sublocales."""
    rem_l = supplement(sq.l_frame, sq.alpha_image)
    rem_m = supplement(sq.m_frame, sq.omega_image)
    return sq.f.image_subl(rem_l) <= rem_m


def _preserving_by_scan(sq: DenseSquare, star: bool) -> bool:
    """f maps each remote O or {p, 1} to a remote sublocale."""
    ctx_l, ctx_m = sq.ctx_l(), sq.ctx_m()
    if star:
        ctx_l, ctx_m = ctx_l.star(), ctx_m.star()
    return _image_witness(sq.f, ctx_l, ctx_m) is None


def square_verdicts(sq: DenseSquare, seen=None) -> dict[str, tuple]:
    """Each property of sq and of its four maps, as (library, reference).

    Each map's ``adjoint_table`` is compared with ``adjoint_by_order`` too,
    and is listed, as the pair of tables, only where the two differ.
    ``seen``, a dict kept across calls, holds each map's verdicts by its
    frames and table, so a map that recurs is compared once per run.
    """
    seen = {} if seen is None else seen
    out = {}
    for name, f in (("g", sq.g), ("f", sq.f), ("alpha", sq.alpha),
                    ("omega", sq.omega)):
        key = (f.source, f.target, tuple(f.table))
        if key not in seen:
            seen[key] = _map_verdicts(f)
        out.update((f"{name}.{prop}", pair)
                   for prop, pair in seen[key].items())
    out["adjoints_commute"] = (sq.adjoints_commute(), commute_by_points(sq))
    out["is_f_remote_preserving"] = (
        is_f_remote_preserving(sq), _preserving_by_scan(sq, False))
    out["is_f_star_remote_preserving"] = (
        is_f_star_remote_preserving(sq), _preserving_by_scan(sq, True))
    out["takes_remainder"] = (
        takes_remainder(sq), takes_remainder_by_supplement(sq))
    return out


def _map_verdicts(f) -> dict[str, tuple]:
    """Each property of one map, as (library, reference)."""
    out = {}
    adjoint = adjoint_by_order(f)
    if f.adjoint_table != adjoint:
        out["adjoint_table"] = (f.adjoint_table, adjoint)
    out["is_skeletal"] = (
        f.is_skeletal(), table_is_skeletal(f.source, f.target, f.table))
    out["adjoint_is_skeletal"] = (
        f.adjoint_is_skeletal(),
        table_is_skeletal(f.target, f.source, f.adjoint_table))
    out["is_surjective"] = (f.is_surjective(), table_is_surjective(f))
    out["is_weakly_closed_adjoint"] = (
        f.is_weakly_closed_adjoint(), weakly_closed_by_points(f))
    return out


def iter_square_space(max_points: int):
    """Every square over the frames of posets with at most ``max_points``
    points: each localic map f : L -> M with each pair of dense S of L and
    T of M that f restricts to, built on fresh frames."""
    frames = gen_frames(GenSpec("all-posets-up-to", max_points))
    dense = [gen_dense_sublocales(f) for f in frames]
    for l, ss in zip(frames, dense):
        for m, ts in zip(frames, dense):
            for f in gen_maps(l, m):
                for s in ss:
                    for t in ts:
                        sq = square_from(f, s, t)
                        if sq is not None:
                            yield sq


def dropped_hypotheses(squares) -> dict[tuple[str, str], tuple]:
    """What each hypothesis of each square check is for.

    Per (check id, hypothesis name): how many of ``squares`` make that
    hypothesis false and the check's others true, and the subject and
    witness of the first of them on which the conclusion fails, or None.
    The predicates are read from the registry's square table, so the
    table follows the registry.
    """
    out = {(cid, h.__name__): [0, None]
           for cid, (hypotheses, _) in CHECKS["square"].items()
           for h in hypotheses}
    for sq in squares:
        for cid, (hypotheses, conclusion) in CHECKS["square"].items():
            holds = [h(sq) for h in hypotheses]
            if holds.count(False) != 1:
                continue
            row = out[cid, hypotheses[holds.index(False)].__name__]
            row[0] += 1
            if row[1] is None:
                witness = conclusion(sq)
                if witness is not None:
                    row[1] = (sq.subject(), witness)
    return {key: tuple(row) for key, row in out.items()}
