"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line for it.  Frozen expected values are computed first by independent
brute-force oracles (subset filtering, exhaustive search) and only then
compared against the fast paths.
"""

import hashlib
import time

import pytest

from localic import (
    GenSpec, RemoteContext, Sublocale, bl_context, booleanization,
    boolean_frame, chain_frame, closed_subl, enumerate_sublocales,
    is_nowhere_dense, is_sublocale, nucleus_map, open_subl, subl_join,
    subl_meet, supplement, whole_context, whole_subl,
)
from localic.cli import main
from localic.generators import (
    build_corpus, gen_chains, gen_frames, gen_maps, gen_squares, gen_triangles,
)
from localic.registry import REGISTRY, checks_in_scope
from localic.registry import FAIL, PASS

from oracles import join_is_whole


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nacceptance {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def _dense_contexts(frame):
    return [RemoteContext(frame, s) for s in enumerate_sublocales(frame)
            if s.is_dense()]


def test_criterion_1_opendensefrom_exact(tier1_frames):
    """Four remoteness predicates agree on every (frame, dense S, T)."""
    started = time.monotonic()
    checked = 0
    bad = None
    for f in tier1_frames:
        subs = enumerate_sublocales(f)
        for ctx in _dense_contexts(f):
            for t in subs:
                votes = (ctx.pred_nwd_oracle(t), ctx.is_remote_from(t),
                         ctx.pred_open_subset(t), ctx.pred_nucleus_top(t))
                checked += 1
                if len(set(votes)) != 1:
                    bad = (f.name, sorted(ctx.s.labels()),
                           sorted(t.labels()), votes)
                    break
    elapsed = time.monotonic() - started
    _report("criterion-1 opendensefrom-oracle-equivalence",
            bad is None and elapsed < 120,
            f"{checked} triples, {elapsed:.1f}s"
            + (f", first disagreement {bad}" if bad else ""))


SECTION3_FRAME_IDS = ("rempropBL", "rempropBLstar", "RsDense")
SECTION3_CONTEXT_IDS = ("RsBL", "SisBL", "RsNd")


def test_criterion_2_section3_suite(tier1_frames):
    """Structure theorems hold over tier-1 plus 200 random frames <= 12."""
    started = time.monotonic()
    random_corpus = build_corpus(GenSpec("random-poset", 12,
                                         seed=2026, count=200))
    frames = list(tier1_frames) + random_corpus["frame"]
    contexts = [ctx for f in tier1_frames for ctx in _dense_contexts(f)]
    contexts += random_corpus["context"]
    failures = []
    for f in frames:
        for cid in SECTION3_FRAME_IDS:
            r = REGISTRY[cid].runner(f)
            if r.verdict == FAIL:
                failures.append((cid, r.subject, r.witness))
    for ctx in contexts:
        for cid in SECTION3_CONTEXT_IDS:
            r = REGISTRY[cid].runner(ctx)
            if r.verdict == FAIL:
                failures.append((cid, r.subject, r.witness))
    elapsed = time.monotonic() - started
    _report("criterion-2 section-3-structure-suite",
            not failures and elapsed < 300,
            f"{len(frames)} frames, {len(contexts)} contexts, "
            f"{elapsed:.1f}s"
            + (f", failures {failures[:3]}" if failures else ""))


SECTION2_CONTEXT_IDS = ("opendensefrom", "BLandL1", "BLandL4",
                        "NDSremotefrom", "remotesets", "SRemandSRemLS",
                        "remS", "sublocale", "rareequality")


def test_criterion_3_section2_containments(tier1_frames):
    """Containment and closure facts for remote sets, zero failures."""
    failures = []
    passes = {cid: 0 for cid in SECTION2_CONTEXT_IDS}
    for f in tier1_frames:
        for ctx in _dense_contexts(f):
            for cid in SECTION2_CONTEXT_IDS:
                r = REGISTRY[cid].runner(ctx)
                if r.verdict == FAIL:
                    failures.append((cid, r.subject, r.witness))
                elif r.verdict == PASS:
                    passes[cid] += 1
    vacuous = sorted(cid for cid, n in passes.items() if n == 0)
    _report("criterion-3 section-2-containment-suite",
            not failures and not vacuous,
            f"passes {sum(passes.values())}"
            + (f", failures {failures[:3]}" if failures else "")
            + (f", vacuous {vacuous}" if vacuous else ""))


def test_criterion_4_conditional_suite(tier1_frames):
    """Square/chain/triangle statements verified on every instance whose
    hypotheses hold, with a nonzero hypothesis-satisfying count each."""
    started = time.monotonic()
    small = [f for f in tier1_frames if f.n <= 8]
    squares = gen_squares(small)
    chains = gen_chains(squares)
    triangles = gen_triangles(small)
    failures = []
    passes = {}
    for items, scope in ((squares, "square"), (chains, "chain"),
                         (triangles, "triangle")):
        checks = checks_in_scope(scope)
        for c in checks:
            passes.setdefault(c.id, 0)
        for inst in items:
            for c in checks:
                r = c.runner(inst)
                if r.verdict == FAIL:
                    failures.append((c.id, r.subject, r.witness))
                elif r.verdict == PASS:
                    passes[c.id] += 1
    vacuous = sorted(cid for cid, n in passes.items() if n == 0)
    elapsed = time.monotonic() - started
    _report("criterion-4 section-4-5-conditional-suite",
            not failures and not vacuous and elapsed < 600,
            f"{len(squares)} squares, {len(chains)} chains, "
            f"{len(triangles)} triangles, {elapsed:.1f}s"
            + (f", failures {failures[:3]}" if failures else "")
            + (f", vacuous {vacuous}" if vacuous else ""))


def test_criterion_5_coframe_sanity(tier1_frames):
    problems = []
    for f in tier1_frames:
        subs = enumerate_sublocales(f)
        bl = booleanization(f)
        # c/o complementation and the nowhere-density characterization
        for a in range(f.n):
            c, o = closed_subl(f, a), open_subl(f, a)
            if not (subl_meet([c, o]).is_void()
                    and subl_join([c, o]).is_whole()):
                problems.append(("c/o", f.name, a))
            if is_nowhere_dense(f, c) != f.is_dense_element(a):
                problems.append(("nwd-iff-dense", f.name, a))
        # coframe distributive law on a deterministic triple sample
        sample = subs[:: max(1, len(subs) // 8)]
        for s in sample:
            for t in sample:
                for u in sample:
                    lhs = subl_meet([s, subl_join([t, u])])
                    rhs = subl_join([subl_meet([s, t]),
                                     subl_meet([s, u])])
                    if lhs != rhs:
                        problems.append(("distributive", f.name))
        # nucleus laws and least-dense Booleanization
        for s in subs:
            for a in range(f.n):
                na = nucleus_map(s, a)
                if not (f.leq(a, na) and nucleus_map(s, na) == na):
                    problems.append(("nucleus", f.name, a))
            if s.is_dense():
                if not bl <= s:
                    problems.append(("least-dense", f.name))
                # Booleanization computed inside S equals the ambient one
                sub, elems = s.as_frame()
                inner = {elems[x] for x in booleanization(sub).members()}
                if inner != set(bl.members()):
                    problems.append(("BS-is-BL", f.name))
        # image/preimage Galois adjunction for a searched endomap
        for mp in gen_maps(f, f, limit=2):
            for a in subs[:: max(1, len(subs) // 6)]:
                for b in subs[:: max(1, len(subs) // 6)]:
                    if (mp.image_subl(a) <= b) != (a <= mp.preimage_subl(b)):
                        problems.append(("galois", f.name))
    _report("criterion-5 coframe-sanity", not problems,
            f"{len(tier1_frames)} frames"
            + (f", problems {problems[:3]}" if problems else ""))


def test_criterion_6_known_value_regressions():
    c3, c4, b2 = chain_frame(3), chain_frame(4), boolean_frame(2)
    problems = []

    def brute_sublocales(f):
        # independent oracle: filter every subset through is_sublocale
        out = []
        for mask in range(1 << f.n):
            members = [x for x in range(f.n) if mask >> x & 1]
            if is_sublocale(f, members):
                out.append(Sublocale.of(f, members))
        return out

    if len(brute_sublocales(c3)) != 4 or len(enumerate_sublocales(c3)) != 4:
        problems.append("C3 sublocale count")
    if len(brute_sublocales(c4)) != 8 or len(enumerate_sublocales(c4)) != 8:
        problems.append("C4 sublocale count")
    if len(brute_sublocales(b2)) != b2.n:
        problems.append("B2 sublocale count")

    # Booleanization of C3 is {0, 1}: oracle {x -> 0}, then fast path
    bl_oracle = sorted({c3.heyting(x, 0) for x in range(c3.n)})
    if bl_oracle != [0, 2] or sorted(booleanization(c3).members()) != [0, 2]:
        problems.append("BL(C3)")

    # supplement(BL(C3)) = c(m), by exhaustive least-cover search first
    bl = booleanization(c3)
    covers = [t for t in brute_sublocales(c3)
              if join_is_whole(c3, bl.mask, t.mask)]
    least = min(covers, key=lambda t: bin(t.mask).count("1"))
    if not all(least <= t for t in covers):
        problems.append("supplement oracle not least")
    if least != closed_subl(c3, 1) or supplement(c3, bl) != least:
        problems.append("supplement(BL(C3))")

    # remote_set(C3 from L) = {O, BL}; rs = BL
    ctx = whole_context(c3)
    oracle_masks = {t.mask for t in ctx.remote_set(oracle=True)}
    expected = {1 << c3.top, bl.mask}
    if oracle_masks != expected:
        problems.append("remote_set(C3,L) oracle")
    if {t.mask for t in ctx.remote_set()} != expected:
        problems.append("remote_set(C3,L) fast")
    if ctx.rs() != bl:
        problems.append("rs(C3,L)")

    # *Rs(C3 from BL) = c(m), oracle join first
    star_ctx = bl_context(c3).star()
    star_oracle = subl_join(
        [t for t in brute_sublocales(c3)
         if star_ctx.is_remote_from(t, oracle=True)])
    if star_oracle != closed_subl(c3, 1) \
            or star_ctx.rs() != closed_subl(c3, 1):
        problems.append("*Rs(C3,BL)")

    _report("criterion-6 known-value-regressions", not problems,
            ", ".join(problems) if problems else "oracle then fast paths")


def test_criterion_7_suite_determinism(tmp_path):
    a, b = tmp_path / "jobs1.json", tmp_path / "jobs8.json"
    args = ["suite", "--family", "all-posets-up-to", "--max-size", "4"]
    rc1 = main(args + ["--jobs", "1", "--out", str(a)])
    rc8 = main(args + ["--jobs", "8", "--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    # the --jobs 1 report is pinned too, so a refactor that moves a verdict
    # or a count fails here
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    pinned = digest == ("975f1cf582c642db0468f1df1524f6f2"
                        "bef4a62b3233ecd43780699e9973f3d7")
    _report("criterion-7 suite-determinism",
            rc1 == 0 and rc8 == 0 and same and pinned,
            f"exit codes {rc1}/{rc8}, byte-identical={same}, "
            f"sha256={digest[:8]}")
