"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracer

sys.path.insert(0, run.SRC)

from localic import cli, registry  # noqa: E402
from localic.generators import GenSpec  # noqa: E402


def test_self_time_arithmetic():
    spans = [
        (-1, "root", 0.0, 10.0),
        (0, "a", 1.0, 4.0),      # overlaps b on [3, 4]
        (0, "b", 3.0, 6.0),
        (1, "leaf", 2.0, 3.0),
        (0, "a", 9.0, 12.0),     # runs past its parent: clipped to [9, 10]
        (-1, "other", 20.0, 21.0),
    ]
    st = tracer.self_times(spans)
    assert st["root"] == [1, 10.0, 10.0 - 5.0 - 1.0]
    assert st["a"] == [2, 6.0, (3.0 - 1.0) + 3.0]
    assert st["b"] == [1, 3.0, 3.0]
    assert st["leaf"] == [1, 1.0, 1.0]
    assert st["other"] == [1, 1.0, 1.0]


def _snapshot():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "localic" or name.startswith("localic.")}
    classes = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("localic"):
            for val in vars(mod).values():
                if isinstance(val, type):
                    classes[val] = dict(vars(val))
    return mods, classes, dict(registry.REGISTRY)


def _same(before, after) -> list[str]:
    diffs = []
    for name, ns in before[0].items():
        for attr, val in ns.items():
            if after[0][name].get(attr) is not val:
                diffs.append(f"{name}.{attr}")
    for cls, ns in before[1].items():
        for attr, val in ns.items():
            if after[1][cls].get(attr) is not val:
                diffs.append(f"{cls.__name__}.{attr}")
    for cid, check in before[2].items():
        if after[2].get(cid) is not check:
            diffs.append(f"REGISTRY[{cid}]")
    return diffs


def _suite(jobs: int) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["suite", "--family", "chain", "--max-size", "3",
                  "--jobs", str(jobs)])
    return buf.getvalue().encode()


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _snapshot()
    plain = _suite(1)
    rec = tracer.Recorder()
    patches = tracer.install(rec, str(tmp_path))
    try:
        assert _same(before, _snapshot()), "install wrapped nothing"
        traced = _suite(1)
        names = {s[1] for s in rec.spans}
        traced_par = _suite(2)
    finally:
        patches.restore()
    assert _same(before, _snapshot()) == []
    assert traced == plain == traced_par
    assert {"cli.corpus", "sublocale.enum_fill", "frame.build"} <= names
    assert rec.counts["enum_fills"] and rec.counts["enum_candidates"]
    shards = sorted(os.listdir(tmp_path))
    assert shards == ["shard-0-of-2.json", "shard-1-of-2.json"]
    for fname in shards:
        with open(tmp_path / fname) as fh:
            spans = json.load(fh)["spans"]
        assert any(s[1] == "cli.shard" for s in spans)


@pytest.fixture(scope="module")
def small_report() -> bytes:
    return cli.render_report(
        cli.run_suite(GenSpec("chain", 3), "*", 1)).encode()


def _gate(reports: list[bytes], codes: list[int], corpus: dict):
    return gate.suite_problems(reports, codes, run.checks_per_scope(), corpus)


def _corpus(report: bytes) -> dict:
    return json.loads(report)["corpus"]


def test_gate_accepts_a_real_report(small_report):
    problems, expected, failed = _gate([small_report, small_report], [0, 0],
                                       _corpus(small_report))
    assert problems == [] and failed == 0
    rows = json.loads(small_report)["checks"]
    assert expected == sum(sum(t.values()) for t in rows.values())


def test_gate_rejects_an_injected_fail_row(small_report):
    doc = json.loads(small_report)
    tally = doc["checks"]["BLandL1"]
    tally["pass"] -= 1
    tally["fail"] += 1
    doc["failures"].append({"statement_id": "BLandL1", "subject": "C2",
                            "verdict": "fail"})
    doctored = cli.render_report(doc).encode()
    problems, _, failed = _gate([doctored, doctored], [1, 1],
                                _corpus(small_report))
    assert any("fail rows" in p for p in problems)
    assert failed == 2


def test_gate_counts_every_row_of_a_crashed_run(small_report):
    problems, expected, failed = _gate([small_report, b""], [0, 3],
                                       _corpus(small_report))
    assert "suite exited with code 3" in problems
    assert failed == expected


def test_gate_rejects_a_jobs_mismatch(small_report):
    other = small_report.replace(b'"pass": ', b'"pass":  ', 1)
    problems, _, _ = _gate([small_report, other], [0, 0],
                           _corpus(small_report))
    assert problems == ["reports differ between --jobs settings"]


def test_gate_rejects_missing_rows(small_report):
    doc = json.loads(small_report)
    doc["corpus"]["context"] += 1
    doctored = cli.render_report(doc).encode()
    problems, _, _ = _gate([doctored], [0], _corpus(doctored))
    assert any("verdict rows" in p for p in problems)


def test_gate_rejects_a_shrunk_corpus(small_report):
    # One context fewer, with every context check's tally shrunk to match,
    # so the report agrees with itself but not with the pinned corpus.
    doc = json.loads(small_report)
    doc["corpus"]["context"] -= 1
    for cid, check in registry.REGISTRY.items():
        if check.scope == "context":
            tally = doc["checks"][cid]
            tally[next(k for k, v in tally.items() if v)] -= 1
    doctored = cli.render_report(doc).encode()
    problems, _, _ = _gate([doctored, doctored], [0, 0],
                           _corpus(small_report))
    assert f"corpus {_corpus(doctored)}, " \
        f"expected {_corpus(small_report)}" in problems
    assert any("verdict rows" in p for p in problems)


def test_pinned_posets5_corpus_matches_the_library():
    spec = run.WORKLOADS["posets5"]
    built = cli.build_corpus(GenSpec(spec[0], spec[1]))
    assert {scope: len(xs) for scope, xs in built.items()} == spec[2]


def test_gate_rejects_a_wrong_query_answer():
    assert gate.query_problems([0, 0], ["3\n", "[\"1\"]\n"], [3, None]) == []
    assert gate.query_problems([0], ["4\n"], [3])
    assert gate.query_problems([2], ["\n"], [None])


def test_reps_report_the_fastest_repetition_and_fastest_calls():
    reps = run.Reps()
    reps.setup = [0.1]
    reps.add(2.0, 1.0, 10.0, [0.001, 0.009, 0.004])
    reps.add(1.5, 1.2, 12.0, [0.003, 0.002, 0.008])
    res = reps.result()
    assert res["problems"] == []
    assert res["metrics"]["wall_s"]["value"] == 1.5
    assert res["metrics"]["par_wall_s"]["value"] == 1.0
    assert res["samples"]["query_p50_ms"] == 2.0        # of 1, 2, 4 ms
    assert res["samples"]["query_p99_ms"] == 4.0
    reps.add(1.0, 1.0, 10.0, [0.001])
    assert reps.result()["problems"] == ["calls differ between repetitions"]


def test_timed_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    reps = run.Reps()
    reps.setup = [0.1]
    reps.add(1.0, 1.0, 10.0)
    assert list(reps.result()["metrics"]) == \
        [m["name"] for m in bench["end_to_end"]]


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    emitted = run.layer_metrics(tracer.Recorder(), [], 1.0, 1.0, 0)
    assert list(emitted) == [m["name"] for m in bench["per_layer"]]
    assert sorted(run.CHECK_IDS) == sorted(registry.REGISTRY)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "posets5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
