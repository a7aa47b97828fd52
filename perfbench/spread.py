#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

  python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
  python3 perfbench/spread.py > perfbench/BASELINE.json

Seeds run in the outer loop and workloads in the inner one, so slow
phases of the host hit every workload alike.  After the timed runs it
makes one traced run per workload with the first seed.

stderr gets, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles``, n=4) and the spread: the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json.  The reference-loop time that every run logs is
summarised the same way; it tracks host speed and tells host noise apart
from a change in the program.  stdout gets the same figures, every run's
value, and the traced run's per-layer values, as the JSON document kept
in BASELINE.json.  The exit code is 1 if any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

from run import HERE, ROOT, quartiles, usable_cores


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run: its exit code, result and reference-loop median."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ref = re.search(r"reference_loop_s median=([0-9.e-]+)", proc.stderr)
    ok = proc.returncode == 0 and result is not None and result["correct"]
    print(f"seed {seed} {workload} trace={trace}: rc={proc.returncode} "
          f"correct={ok}", file=sys.stderr, flush=True)
    return {"ok": ok, "result": result,
            "ref": float(ref.group(1)) if ref else None}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(bench_run(w, seed, args.seconds, 0))
    traces = {w: bench_run(w, seeds[0], args.seconds, 1) for w in workloads}

    doc = {"commit": commit(), "python": platform.python_version(),
           "nproc": usable_cores(), "run_seconds": args.seconds,
           "seeds": seeds, "traced_seed": seeds[0], "workloads": {}}
    worst = 0.0
    for w in workloads:
        good = [r["result"] for r in runs[w] if r["ok"]]
        log = [f"\n{w}: {len(good)}/{len(runs[w])} runs correct"]
        entry = {"why": why.get(w), "runs": len(runs[w]),
                 "correct_runs": len(good), "end_to_end": {}}
        for name in (good[0]["metrics"] if good else ()):
            unit = good[0]["metrics"][name]["unit"]
            s = summary([g["metrics"][name]["value"] for g in good])
            entry["end_to_end"][name] = {"unit": unit, **s}
            note = ""
            if name in bounds:
                ratio = s["spread"] / bounds[name]
                note = f" bound={bounds[name]} spread/bound={ratio:.2f}"
                if name != "setup_s":
                    worst = max(worst, ratio)
            log.append(f"  {name:32s} median={s['median']:.6g} {unit} "
                       f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                       f"spread={s['spread']:.3f}{note}")
        refs = [r["ref"] for r in runs[w] if r["ok"] and r["ref"] is not None]
        if refs:
            entry["reference_loop_s"] = summary(refs)
            s = entry["reference_loop_s"]
            log.append(f"  {'diag reference_loop_s':32s} "
                       f"median={s['median']:.4f} s q1={s['q1']:.4f} "
                       f"q3={s['q3']:.4f}")
        tr = traces[w]
        entry["per_layer"] = ({k: v["value"] for k, v in
                               tr["result"]["metrics"].items()}
                              if tr["ok"] else None)
        doc["workloads"][w] = entry
        print("\n".join(log), file=sys.stderr)
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}",
          file=sys.stderr)
    print(json.dumps(doc, indent=1))
    every = [r for rs in runs.values() for r in rs] + list(traces.values())
    return 0 if all(r["ok"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
