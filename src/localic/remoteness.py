"""Remoteness from a dense sublocale, and the structure theorems about it.

A :class:`RemoteContext` fixes a frame L and a dense sublocale S.  A
sublocale T is remote from S when it misses the ambient closure of every
S-nowhere dense sublocale of S; *remote additionally requires T to sit
inside the supplement of S.

Every predicate has two routes: a fast path driven by the S-dense elements
of S, and an oracle path that enumerates the S-nowhere dense sublocales in
the induced frame of S.  The fast path is the default; their agreement is
itself one of the checked theorems, so the theorem checks never assume it.
"""

from __future__ import annotations

from typing import Callable, Optional

from .frame import FiniteFrame, bits
from .result import CheckResult, PASS, HYPOTHESES_NOT_MET, SKIPPED, FAIL
from .sublocale import (
    Sublocale, booleanization, closed_subl, enumerate_sublocales,
    is_rare, nd_join, nucleus_map, open_subl,
    s_nowhere_dense_sublocales, subl_join, supplement, void_subl, whole_subl,
)
from .errors import InvalidSublocale, MixedFrames

# Oracle checks whose cost is quadratic in |S(L)| step down to a
# deterministic sample, or skip, beyond these.
SMALL_COFRAME = 256
PAIR_BUDGET = 200_000


class RemoteContext:
    """The pair (L, S) with S a dense sublocale of L."""

    __slots__ = ("frame", "s", "s_dense", "_miss_mask", "_open_masks",
                 "_nwd_closures", "_supplement")

    def __init__(self, frame: FiniteFrame, dense_subl: Sublocale):
        if dense_subl.frame is not frame:
            raise MixedFrames("context sublocale belongs to another frame")
        if not dense_subl.is_dense():
            raise InvalidSublocale("remoteness contexts need a dense sublocale")
        self.frame = frame
        self.s = dense_subl
        # For dense S the S-pseudocomplement of x in S equals x* in L, so
        # the S-dense members of S are the ambient-dense members of S.
        self.s_dense = [x for x in bits(dense_subl.mask)
                        if frame.is_dense_element(x)]
        mask = 0
        for x in self.s_dense:
            mask |= frame.up[x]
        self._miss_mask = mask & ~(1 << frame.top)
        self._open_masks = None
        self._nwd_closures = None
        self._supplement = None

    # -- the four equivalent predicates -----------------------------------

    def pred_nwd_oracle(self, t: Sublocale) -> bool:
        """T meets the closure of no S-nowhere dense sublocale of S."""
        if self._nwd_closures is None:
            self._nwd_closures = [
                n.closure().mask for n in s_nowhere_dense_sublocales(self.s)]
        top_bit = 1 << self.frame.top
        body = t.mask & ~top_bit
        return all(body & cl == 0 for cl in self._nwd_closures)

    def pred_closed_miss(self, t: Sublocale) -> bool:
        """T /\\ c(x) = O for every S-dense x in S."""
        f = self.frame
        top_bit = 1 << f.top
        return all(t.mask & f.up[x] == top_bit for x in self.s_dense)

    def pred_open_subset(self, t: Sublocale) -> bool:
        """T <= o(x) for every S-dense x in S."""
        if self._open_masks is None:
            self._open_masks = [open_subl(self.frame, x).mask
                                for x in self.s_dense]
        return all(t.mask & ~m == 0 for m in self._open_masks)

    def pred_nucleus_top(self, t: Sublocale) -> bool:
        """nu_T(x) = 1 for every S-dense x in S."""
        top = self.frame.top
        return all(nucleus_map(t, x) == top for x in self.s_dense)

    # -- public operations --------------------------------------------------

    def is_remote_from(self, t: Sublocale, oracle: bool = False) -> bool:
        if oracle:
            return self.pred_nwd_oracle(t)
        # fast path == pred_closed_miss, folded into one mask test
        return t.mask & self._miss_mask == 0

    def supplement_of_s(self) -> Sublocale:
        if self._supplement is None:
            self._supplement = supplement(self.frame, self.s)
        return self._supplement

    def is_star_remote_from(self, t: Sublocale, oracle: bool = False) -> bool:
        return (t.mask & ~self.supplement_of_s().mask == 0
                and self.is_remote_from(t, oracle=oracle))

    def remote_set(self, oracle: bool = False) -> list[Sublocale]:
        return [t for t in enumerate_sublocales(self.frame)
                if self.is_remote_from(t, oracle=oracle)]

    def star_remote_set(self, oracle: bool = False) -> list[Sublocale]:
        supp = self.supplement_of_s().mask
        return [t for t in enumerate_sublocales(self.frame)
                if t.mask & ~supp == 0 and self.is_remote_from(t, oracle=oracle)]

    def rmt_elements(self, oracle: bool = False) -> set[int]:
        """{a : c(a) is remote from S}."""
        f = self.frame
        if oracle:
            return {a for a in range(f.n)
                    if self.pred_nwd_oracle(closed_subl(f, a))}
        # a \/ x = 1 for every S-dense x in S
        return {a for a in range(f.n)
                if all(f.join_table[a][x] == f.top for x in self.s_dense)}

    def star_rmt_elements(self, oracle: bool = False) -> set[int]:
        f = self.frame
        supp = self.supplement_of_s().mask
        return {a for a in self.rmt_elements(oracle=oracle)
                if f.up[a] & ~supp == 0}

    def rs(self, oracle: bool = False) -> Sublocale:
        """The largest sublocale remote from S (join of all of them)."""
        return subl_join([void_subl(self.frame)] + self.remote_set(oracle=oracle))

    def star_rs(self, oracle: bool = False) -> Sublocale:
        return subl_join([void_subl(self.frame)]
                         + self.star_remote_set(oracle=oracle))

    def subject(self) -> str:
        return (f"{self.frame.name or 'frame'}; "
                f"S={{{','.join(sorted(self.s.labels()))}}}")


def whole_context(frame: FiniteFrame) -> RemoteContext:
    """The context (L, L); its remote set is the remote sublocales of L."""
    return RemoteContext(frame, whole_subl(frame))


def bl_context(frame: FiniteFrame) -> RemoteContext:
    return RemoteContext(frame, booleanization(frame))


def sample_evenly(items: list, cap: int) -> list:
    """Deterministic evenly-spaced sample when a list exceeds the cap."""
    if len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(i * step)] for i in range(cap)]


# ---------------------------------------------------------------------------
# Per-statement context checks (scope: one frame + one dense sublocale)
# ---------------------------------------------------------------------------

def _result(check_id: str, ctx_subject: str, ok: bool,
            witness: Optional[str] = None) -> CheckResult:
    return CheckResult(check_id, ctx_subject, PASS if ok else FAIL,
                       None if ok else witness)


def check_opendensefrom(ctx: RemoteContext) -> CheckResult:
    """The oracle, closed-miss, open-subset and nucleus predicates agree."""
    subs = enumerate_sublocales(ctx.frame)
    # beyond the cap the per-T oracle scan gets quadratic; sample T
    cap = SMALL_COFRAME * 4 if len(subs) <= SMALL_COFRAME else SMALL_COFRAME
    subs = sample_evenly(subs, cap)
    for t in subs:
        votes = (ctx.pred_nwd_oracle(t), ctx.pred_closed_miss(t),
                 ctx.pred_open_subset(t), ctx.pred_nucleus_top(t))
        if len(set(votes)) != 1:
            return _result("opendensefrom", ctx.subject(), False,
                           f"T={sorted(t.labels())} predicates={votes}")
    return _result("opendensefrom", ctx.subject(), True)


def check_void_remote(ctx: RemoteContext) -> CheckResult:
    ok = ctx.is_remote_from(void_subl(ctx.frame), oracle=True)
    return _result("BLandL1", ctx.subject(), ok, "O not remote")


def check_downward_closure(ctx: RemoteContext) -> CheckResult:
    """A <= B and B remote from S imply A remote from S."""
    subs = enumerate_sublocales(ctx.frame)
    flags = {t.mask: ctx.is_remote_from(t) for t in subs}
    remote = [t for t in subs if flags[t.mask]]
    if len(remote) * len(subs) > PAIR_BUDGET:
        remote = sample_evenly(remote, max(1, PAIR_BUDGET // len(subs)))
    for b in remote:
        for a in subs:
            if a.mask & ~b.mask == 0 and not flags[a.mask]:
                return _result("BLandL4", ctx.subject(), False,
                               f"A={sorted(a.labels())} B={sorted(b.labels())}")
    return _result("BLandL4", ctx.subject(), True)


def check_nd_remote(ctx: RemoteContext) -> CheckResult:
    """L minus the closure of Nd(S) is remote from S."""
    nd = nd_join(ctx.frame, ctx.s)
    rem = supplement(ctx.frame, nd.closure())
    ok = ctx.is_remote_from(rem, oracle=True)
    return _result("NDSremotefrom", ctx.subject(), ok,
                   f"Nd(S)={sorted(nd.labels())}")


def check_star_subset(ctx: RemoteContext) -> CheckResult:
    """*remote sublocales are remote."""
    remote = set(t.mask for t in ctx.remote_set())
    for t in ctx.star_remote_set():
        if t.mask not in remote:
            return _result("remotesets", ctx.subject(), False,
                           f"T={sorted(t.labels())}")
    return _result("remotesets", ctx.subject(), True)


def check_rem_l_subset(ctx: RemoteContext) -> CheckResult:
    """Remote sublocales of L are remote from every dense S."""
    whole = whole_context(ctx.frame)
    for t in whole.remote_set():
        if not ctx.is_remote_from(t):
            return _result("SRemandSRemLS", ctx.subject(), False,
                           f"T={sorted(t.labels())}")
    return _result("SRemandSRemLS", ctx.subject(), True)


def check_rem_s_intersection(ctx: RemoteContext) -> CheckResult:
    """S(S) /\\ S_rem(L |x S) equals S_rem(S), computed in the induced frame."""
    if len(enumerate_sublocales(ctx.frame)) > SMALL_COFRAME:
        return CheckResult("remS", ctx.subject(), SKIPPED)
    sub, elems = ctx.s.as_frame()
    sub_ctx = whole_context(sub)
    rhs = set()
    for t in sub_ctx.remote_set(oracle=True):
        mask = 0
        for i in t.members():
            mask |= 1 << elems[i]
        rhs.add(mask)
    lhs = {t.mask for t in enumerate_sublocales(ctx.frame)
           if t.mask & ~ctx.s.mask == 0 and ctx.is_remote_from(t)}
    ok = lhs == rhs
    wit = None
    if not ok:
        diff = lhs.symmetric_difference(rhs)
        wit = f"masks differ on {sorted(diff)}"
    return _result("remS", ctx.subject(), ok, wit)


def check_rmt_characterization(ctx: RemoteContext) -> CheckResult:
    """Rmt via the join condition agrees with remoteness of c(a); star too."""
    fast = ctx.rmt_elements()
    slow = ctx.rmt_elements(oracle=True)
    if fast != slow:
        return _result("sublocale", ctx.subject(), False,
                       f"join-rule={sorted(fast)} oracle={sorted(slow)}")
    f = ctx.frame
    supp = ctx.supplement_of_s().mask
    star = ctx.star_rmt_elements(oracle=True)
    for a in range(f.n):
        if f.up[a] & ~supp == 0:
            join_rule = all(f.join_table[a][x] == f.top for x in ctx.s_dense)
            if (a in star) != join_rule:
                return _result("sublocale", ctx.subject(), False,
                               f"star mismatch at a={f.labels[a]}")
    return _result("sublocale", ctx.subject(), True)


def check_rare_equality(ctx: RemoteContext) -> CheckResult:
    """For dense and rare S the remote and *remote collections coincide."""
    if not is_rare(ctx.frame, ctx.s):
        return CheckResult("rareequality", ctx.subject(), HYPOTHESES_NOT_MET)
    plain = {t.mask for t in ctx.remote_set()}
    star = {t.mask for t in ctx.star_remote_set()}
    return _result("rareequality", ctx.subject(), plain == star,
                   f"difference masks {sorted(plain ^ star)}")


def check_bl_remote(ctx: RemoteContext) -> CheckResult:
    ok = ctx.is_remote_from(booleanization(ctx.frame), oracle=True)
    return _result("BLisremote", ctx.subject(), ok, "BL not remote from S")


def check_s_is_bl(ctx: RemoteContext) -> CheckResult:
    """S remote from itself iff S = BL iff L remote from S."""
    a = ctx.is_remote_from(ctx.s)
    b = ctx.s == booleanization(ctx.frame)
    c = ctx.is_remote_from(whole_subl(ctx.frame))
    ok = a == b == c
    return _result("SisBL", ctx.subject(), ok, f"(S rem, S=BL, L rem)={(a, b, c)}")


def check_srem_lemma(ctx: RemoteContext) -> CheckResult:
    """A remote from S implies A /\\ S remote in L."""
    whole = whole_context(ctx.frame)
    for a in ctx.remote_set():
        cut = Sublocale(ctx.frame, a.mask & ctx.s.mask)
        if not whole.is_remote_from(cut):
            return _result("SRemLemma", ctx.subject(), False,
                           f"A={sorted(a.labels())}")
    return _result("SRemLemma", ctx.subject(), True)


def check_rs_bl(ctx: RemoteContext) -> CheckResult:
    """Rs(L |x S) /\\ S = BL."""
    cut = ctx.rs().mask & ctx.s.mask
    ok = cut == booleanization(ctx.frame).mask
    return _result("RsBL", ctx.subject(), ok,
                   f"Rs/\\S mask={cut:#x}")


def check_rs_nd(ctx: RemoteContext) -> CheckResult:
    """Rs = L minus closure(Nd(S)) iff Nd(S) is S-nowhere dense."""
    nd = nd_join(ctx.frame, ctx.s)
    lhs = ctx.rs() == supplement(ctx.frame, nd.closure())
    # Nd(S) <= S, and for dense S its S-pseudocomplements are ambient ones.
    rhs = ctx.frame.is_dense_element(nd.min_element())
    return _result("RsNd", ctx.subject(), lhs == rhs,
                   f"equality={lhs} nd-nowhere-dense={rhs}")


CONTEXT_CHECKS: dict[str, Callable[[RemoteContext], CheckResult]] = {
    "opendensefrom": check_opendensefrom,
    "BLandL1": check_void_remote,
    "BLandL4": check_downward_closure,
    "NDSremotefrom": check_nd_remote,
    "remotesets": check_star_subset,
    "SRemandSRemLS": check_rem_l_subset,
    "remS": check_rem_s_intersection,
    "sublocale": check_rmt_characterization,
    "rareequality": check_rare_equality,
    "BLisremote": check_bl_remote,
    "SisBL": check_s_is_bl,
    "SRemLemma": check_srem_lemma,
    "RsBL": check_rs_bl,
    "RsNd": check_rs_nd,
}


# ---------------------------------------------------------------------------
# Frame-scoped checks (statements about S = BL specifically)
# ---------------------------------------------------------------------------

def _fsubject(frame: FiniteFrame) -> str:
    return frame.name or f"frame(n={frame.n})"


def check_remprop_bl(frame: FiniteFrame) -> CheckResult:
    """Everything is remote from the Booleanization."""
    ctx = bl_context(frame)
    for t in enumerate_sublocales(frame):
        if not ctx.is_remote_from(t):
            return _result("rempropBL", _fsubject(frame), False,
                           f"T={sorted(t.labels())}")
    return _result("rempropBL", _fsubject(frame), True)


def check_remprop_bl_star(frame: FiniteFrame) -> CheckResult:
    """*remote-from-BL sublocales are exactly those inside L \\ BL."""
    ctx = bl_context(frame)
    supp = ctx.supplement_of_s().mask
    expected = {t.mask for t in enumerate_sublocales(frame)
                if t.mask & ~supp == 0}
    actual = {t.mask for t in ctx.star_remote_set(oracle=True)}
    return _result("rempropBLstar", _fsubject(frame), expected == actual,
                   f"difference masks {sorted(expected ^ actual)}")


def check_l_is_large(frame: FiniteFrame) -> CheckResult:
    ok = bl_context(frame).rs().is_whole()
    return _result("Lislarge", _fsubject(frame), ok, "Rs(L|xBL) != L")


def check_rs_dense(frame: FiniteFrame) -> CheckResult:
    """*Rs(L |x BL) is the supplement of the Booleanization."""
    ctx = bl_context(frame)
    ok = ctx.star_rs() == ctx.supplement_of_s()
    return _result("RsDense", _fsubject(frame), ok,
                   f"*Rs={sorted(ctx.star_rs().labels())}")


def check_obs_remotefrom(frame: FiniteFrame) -> CheckResult:
    """L is remote in itself exactly when L is Boolean."""
    ok = whole_context(frame).is_remote_from(whole_subl(frame)) \
        == frame.is_boolean()
    return _result("obsremotefrom", _fsubject(frame), ok)


def check_obs_remotefrom_star(frame: FiniteFrame) -> CheckResult:
    """L dense in itself iff L is *remote from its Booleanization."""
    from .sublocale import is_dense_in_itself
    ctx = bl_context(frame)
    ok = is_dense_in_itself(frame) \
        == ctx.is_star_remote_from(whole_subl(frame))
    return _result("obsremotefromstar", _fsubject(frame), ok)


FRAME_CHECKS: dict[str, Callable[[FiniteFrame], CheckResult]] = {
    "rempropBL": check_remprop_bl,
    "rempropBLstar": check_remprop_bl_star,
    "Lislarge": check_l_is_large,
    "RsDense": check_rs_dense,
    "obsremotefrom": check_obs_remotefrom,
    "obsremotefromstar": check_obs_remotefrom_star,
}
