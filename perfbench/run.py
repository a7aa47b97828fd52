#!/usr/bin/env python3
"""Benchmark of the ``localic`` suite and query commands.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` it times the workload for about S seconds and reports
the end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced pass, checks that they print the same bytes, and reports the
per-layer metrics.  Human-readable lines go to stderr; the last line of
stdout is the JSON result.  The exit code is 1 if the correctness gate
fails and 2 on bad usage or a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# workload -> suite (family, max size, pinned corpus), or None for the
# query batch
WORKLOADS = {
    "posets5": ("all-posets-up-to", 5, gate.POSETS5_CORPUS),
    "query16": None,
}

# Set-up samples taken before each repetition.
SETUP_REPEATS = 3

CHECK_IDS = (
    "BLandL1", "BLandL4", "BLisremote", "Lislarge", "NDSremotefrom", "RsBL",
    "RsDense", "RsNd", "SRemLemma", "SRemandSRemLS", "SisBL", "beta",
    "beta1", "beta1star", "betastar", "bvl", "for", "for1", "for1star",
    "forstar", "gammapreservationlemma", "gammaremotepreserving",
    "gfremote", "obsfremote", "obsremotefrom", "obsremotefromstar",
    "opendensefrom", "rareequality", "remS", "remotepreservation",
    "remotesets", "rempropBL", "rempropBLstar", "starbvl",
    "stargammaremotepreserving", "starobsgfremote", "sublocale", "tfg-1",
    "tfg-2", "tfg-3",
)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = SRC + (os.pathsep + e["PYTHONPATH"]
                             if e.get("PYTHONPATH") else "")
    e.pop("LOCALIC_JOBS", None)     # it would override --jobs
    return e


def usable_cores() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ys = sorted(xs)
    k = max(0, min(len(ys) - 1, -(-len(ys) * q // 100) - 1))
    return ys[int(k)]


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; tracks host speed, not code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def measure_setup() -> list[float]:
    """Interpreter start plus ``import localic.cli``, several times."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import localic.cli"],
                       env=env(), check=True)
        out.append(time.perf_counter() - t0)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def checks_per_scope() -> dict[str, int]:
    from localic.registry import REGISTRY
    out: dict[str, int] = {}
    for check in REGISTRY.values():
        out[check.scope] = out.get(check.scope, 0) + 1
    return out


# ---------------------------------------------------------------------------
# timed runs (--trace 0)
# ---------------------------------------------------------------------------

def suite_args(family: str, size: int, jobs: int) -> list[str]:
    return ["--family", family, "--max-size", str(size), "--jobs", str(jobs)]


def run_suite(family: str, size: int, jobs: int) -> dict:
    """``localic suite`` exactly as a user runs it, and its peak memory."""
    cmd = [sys.executable, "-m", "localic.cli", "suite",
           *suite_args(family, size, jobs)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        with proc.stdout:
            report = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # wait4, not wait: it also returns the child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "report": report,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Reps:
    """Samples and gate results of the repetitions of one timed run.

    Wall times report the fastest repetition.  On a shared host the noise
    is one-sided and comes in phases (the same code runs up to about 1.5
    times slower for seconds to minutes), so the fastest repetition is the
    steadiest figure across runs.  Set-up time and peak memory are medians;
    set-up is sampled before every repetition, so its median spans the
    run.  All samples and their quartiles go to stderr, with the query
    latency percentiles: p50 and p99 over each call's fastest time across
    repetitions (every repetition makes the same calls in the same order).
    """

    def __init__(self):
        self.refs: list[float] = []
        self.setup: list[float] = []
        self.walls: list[float] = []
        self.par_walls: list[float] = []
        self.rss: list[float] = []
        self.fastest: list[float] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def add(self, wall: float, par_wall: float, rss: float,
            latencies: list[float] = ()) -> None:
        self.walls.append(wall)
        self.par_walls.append(par_wall)
        self.rss.append(rss)
        if not self.fastest:
            self.fastest = list(latencies)
        elif len(latencies) == len(self.fastest):
            self.fastest = list(map(min, self.fastest, latencies))
        else:
            self.problems.append("calls differ between repetitions")

    def result(self) -> dict:
        ok = bool(self.walls)
        best = min if ok else (lambda xs: 0.0)
        med = statistics.median if ok else (lambda xs: 0.0)
        samples = {"wall_s": self.walls, "par_wall_s": self.par_walls,
                   "setup_s": self.setup, "reference_loop_s": self.refs}
        if self.fastest:
            samples["query_p50_ms"] = percentile(self.fastest, 50) * 1e3
            samples["query_p99_ms"] = percentile(self.fastest, 99) * 1e3
        return {
            "problems": self.problems + ([] if ok else ["no timed repetition"]),
            "attempted": max(self.attempted, 1), "failed": self.failed,
            "metrics": {
                "wall_s": metric(best(self.walls), "s"),
                "par_wall_s": metric(best(self.par_walls), "s"),
                "setup_s": metric(med(self.setup), "s"),
                "peak_rss_mb": metric(med(self.rss), "MB"),
            },
            "samples": samples,
        }


def repeat(started: float, seconds: float, rep) -> None:
    """Call ``rep(k)`` for k = 0, 1, ... while another one fits in time."""
    deadline = started + seconds
    k = 0
    while True:
        t0 = time.monotonic()
        rep(k)
        k += 1
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return


def timed_suite(family: str, size: int, corpus: dict[str, int],
                seconds: float) -> dict:
    started = time.monotonic()
    jobs = usable_cores()
    per_scope = checks_per_scope()
    reps = Reps()

    def rep(k: int) -> None:
        reps.refs.append(reference_loop())
        reps.setup += measure_setup()
        one = run_suite(family, size, 1)
        par = run_suite(family, size, jobs)
        problems, expected, failed = gate.suite_problems(
            [one["report"], par["report"]], [one["rc"], par["rc"]],
            per_scope, corpus)
        reps.problems += problems
        reps.attempted += 2 * max(expected, 1)
        reps.failed += failed
        reps.add(one["wall"], par["wall"], one["peak_rss_mb"])

    repeat(started, seconds, rep)
    return reps.result()


def write_query_inputs(seed: int) -> tuple[dict[str, str], list, list]:
    """Document paths by name, the plan, and the plan with paths."""
    from topologies import query_plan

    docs, plan = query_plan(seed)
    doc_dir = os.path.join(OUT, f"query-seed{seed}")
    os.makedirs(doc_dir, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(doc_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    resolved = [[paths[name], words] for name, words in plan]
    return paths, plan, resolved


def run_query_clients(resolved: list, parts: list[list[int]],
                      tag: str) -> list[dict]:
    """One concurrent client process per part (indices into the plan)."""
    procs, outs = [], []
    for k, indices in enumerate(parts):
        part = os.path.join(OUT, f"{tag}-plan{k}.json")
        with open(part, "w") as fh:
            json.dump([resolved[i] for i in indices], fh)
        outs.append(os.path.join(OUT, f"{tag}-out{k}.json"))
        procs.append(subprocess.Popen(
            [sys.executable, os.path.join(HERE, "client.py"), "query",
             part, outs[-1]], env=env(), stdout=subprocess.DEVNULL))
    results = []
    for proc, out in zip(procs, outs):
        rc = proc.wait()
        if rc != 0:
            results.append(None)
            continue
        with open(out) as fh:
            results.append(json.load(fh))
    return results


def timed_queries(seed: int, seconds: float) -> dict:
    from topologies import shares

    paths, plan, resolved = write_query_inputs(seed)
    expected = gate.oracle_answers(paths, plan)
    started = time.monotonic()
    whole = [list(range(len(plan)))]
    parts = shares(list(paths), plan, usable_cores())
    split = [[expected[i] for i in part] for part in parts]
    reps = Reps()

    def rep(k: int) -> None:
        reps.refs.append(reference_loop())
        reps.setup += measure_setup()
        single = run_query_clients(resolved, whole, f"rep{k}-one")
        parallel = run_query_clients(resolved, parts, f"rep{k}-par")
        for results, wants in ((single, [expected]), (parallel, split)):
            for res, want in zip(results, wants):
                reps.attempted += len(want)
                if res is None:
                    reps.failed += len(want)
                    reps.problems.append("query client crashed")
                    continue
                reps.failed += sum(rc != 0 for rc in res["codes"])
                reps.problems += gate.query_problems(
                    res["codes"], res["answers"], want)
        if None in single or None in parallel:
            return
        reps.add(single[0]["ended"] - single[0]["started"],
                 max(r["ended"] for r in parallel)
                 - min(r["started"] for r in parallel),
                 single[0]["peak_rss_mb"], single[0]["latencies"])

    repeat(started, seconds, rep)
    return reps.result()


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def traced(name: str, seed: int) -> dict:
    import tracer
    from client import capture, query_loop

    rec = tracer.Recorder()
    shard_dir = os.path.join(OUT, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    problems: list[str] = []
    shards: list[dict] = []
    spec = WORKLOADS[name]
    if spec is None:
        paths, plan, resolved = write_query_inputs(seed)
        expected = gate.oracle_answers(paths, plan)
        t0 = time.perf_counter()
        _, codes, answers = query_loop(resolved)
        plain_wall = time.perf_counter() - t0
        problems += gate.query_problems(codes, answers, expected)
        patches = tracer.install(rec, shard_dir)
        try:
            t0 = time.perf_counter()
            _, tcodes, tanswers = query_loop(resolved)
            wall = time.perf_counter() - t0
        finally:
            patches.restore()
        problems += gate.query_problems(tcodes, tanswers, expected)
        if (codes, answers) != (tcodes, tanswers):
            problems.append("traced answers differ from untraced ones")
        attempted, failed = 2 * len(plan), sum(c != 0 for c in codes + tcodes)
        skipped = 0
    else:
        family, size, corpus = spec
        jobs = usable_cores()
        rc, report, plain_wall = capture(
            ["suite", *suite_args(family, size, 1)])
        patches = tracer.install(rec, shard_dir)
        try:
            trc, traced_report, wall = capture(
                ["suite", *suite_args(family, size, 1)])
            spans, counts = rec.spans, rec.counts
            rec.reset()
            for stale in os.listdir(shard_dir):
                os.remove(os.path.join(shard_dir, stale))
            prc, par_report, _ = capture(
                ["suite", *suite_args(family, size, jobs)])
        finally:
            patches.restore()
        rec.spans, rec.counts = spans, counts
        if jobs > 1:
            for fname in sorted(os.listdir(shard_dir)):
                with open(os.path.join(shard_dir, fname)) as fh:
                    shards.append(json.load(fh))
        found, expected_rows, failed = gate.suite_problems(
            [report, traced_report, par_report], [rc, trc, prc],
            checks_per_scope(), corpus)
        problems += found
        attempted = 3 * max(expected_rows, 1)
        try:
            skipped = sum(t.get("skipped", 0)
                          for t in json.loads(report)["checks"].values())
        except (ValueError, KeyError):
            skipped = 0
    dump = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    with open(dump, "w") as fh:
        json.dump({"spans": rec.spans, "counts": rec.counts,
                   "shards": shards}, fh)
    log(f"spans: {len(rec.spans)} written to {os.path.relpath(dump, ROOT)}")
    metrics = layer_metrics(rec, shards, wall, plain_wall, skipped)
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(rec, shards: list[dict], wall: float, plain_wall: float,
                  skipped: int) -> dict:
    import tracer

    st = tracer.self_times(rec.spans)
    c = rec.counts

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return st.get(name, [0, 0.0, 0.0])[2]

    def incl_s(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    shard_busy, shard_corpus = [], 0.0
    for shard in shards:
        sst = tracer.self_times([tuple(s) for s in shard["spans"]])
        shard_busy.append(sst.get("cli.shard", [0, 0.0])[1])
        shard_corpus += sst.get("cli.corpus", [0, 0.0])[1]
    if not shard_busy:
        shard_busy = [incl_s("cli.shard")]
        shard_corpus = incl_s("cli.corpus")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "frame.build_calls": metric(calls("frame.build"), "count"),
        "frame.build_s": metric(self_s("frame.build"), "s"),
        "sublocale.enum_fills": metric(c["enum_fills"], "count"),
        "sublocale.enum_fill_s": metric(self_s("sublocale.enum_fill"), "s"),
        "sublocale.enum_candidates": metric(c["enum_candidates"], "count"),
        "sublocale.enum_yield": metric(
            ratio(c["enum_found"], c["enum_candidates"]), "ratio"),
        "sublocale.enum_hits": metric(c["enum_hits"], "count"),
        "sublocale.supplement_calls": metric(c["supplement_calls"], "count"),
        "sublocale.supplement_fills": metric(c["supplement_fills"], "count"),
        "sublocale.supplement_s": metric(
            self_s("sublocale.supplement_fill"), "s"),
        "sublocale.view_fills": metric(c["view_fills"], "count"),
        "sublocale.view_s": metric(self_s("sublocale.view_fill"), "s"),
        "remoteness.contexts": metric(
            calls("remoteness.context_init"), "count"),
        "remoteness.context_init_s": metric(
            self_s("remoteness.context_init"), "s"),
        "remoteness.oracle_s": metric(self_s("remoteness.oracle"), "s"),
    }
    for cid in CHECK_IDS:
        m[f"check.{cid}.self_s"] = metric(self_s(f"check.{cid}"), "s")
    for part in ("posets", "frames", "maps", "squares", "chains",
                 "triangles"):
        m[f"generators.{part}_s"] = metric(self_s(f"generators.{part}"), "s")
    m.update({
        "generators.square_yield": metric(
            ratio(c["squares_built"], c["square_from_calls"]), "ratio"),
        "locmap.build_map_calls": metric(calls("locmap.build_map"), "count"),
        "locmap.build_map_s": metric(self_s("locmap.build_map"), "s"),
        "locmap.preimage_s": metric(self_s("locmap.preimage"), "s"),
        "cli.corpus_s": metric(incl_s("cli.corpus"), "s"),
        "cli.checks_s": metric(sum(incl_s(f"check.{cid}")
                                   for cid in CHECK_IDS), "s"),
        "cli.shard_corpus_s": metric(shard_corpus, "s"),
        "cli.shard_busy_max_s": metric(max(shard_busy), "s"),
        "cli.shard_busy_mean_s": metric(statistics.mean(shard_busy), "s"),
        "cli.skipped_rows": metric(skipped, "count"),
        "jsonio.load_s": metric(self_s("jsonio.load"), "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.overhead_s": metric(wall - plain_wall, "s"),
    })
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "localic", "cli.py")):
        log(f"no localic sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    spec = WORKLOADS[args.workload]
    if args.trace:
        res = traced(args.workload, args.seed)
    elif spec is None:
        res = timed_queries(args.seed, args.seconds)
    else:
        res = timed_suite(*spec, args.seconds)

    for name, m in res["metrics"].items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    samples = res.get("samples", {})
    for key, xs in samples.items():
        if not isinstance(xs, list):
            log(f"diag {key} = {xs:.6g}")
        elif xs:
            q1, q2, q3 = quartiles(xs)
            log(f"diag {key} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"n={len(xs)}")
    if samples:
        log("samples " + json.dumps(samples))
    for problem in res["problems"][:20]:
        log(f"GATE: {problem}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
