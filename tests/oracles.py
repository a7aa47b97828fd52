"""Brute-force references that the tests check the library against.

Each one decides its question from the definitions, sharing no logic with
the library's fast path: points by the prime condition, sublocales by the
subset filter, joins of sublocales through all of their members, S-dense
elements through the induced frame of S.
"""

from localic import Sublocale, identity_map, is_sublocale
from localic.diagrams import DenseSquare
from localic.frame import FiniteFrame, bits
from localic.generators import square_from


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


def enumerate_sublocales_oracle(frame: FiniteFrame) -> list[Sublocale]:
    """Every subset containing the top that passes ``is_sublocale``.

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
        if is_sublocale(frame, mask):
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
