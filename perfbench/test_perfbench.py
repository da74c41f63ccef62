"""The benchmark's own tests, on its shrunken smoke mode.

    python3 -m pytest perfbench -q

Run from the repository root; they take about 20 seconds on two cores.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    COUNT_METRICS, END_TO_END, LAYERS, PER_LAYER, WORKLOADS, benchmark_json,
)


def run_bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs of every workload."""
    out = {}
    for w in WORKLOADS:
        first = result(run_bench(w, 1))
        if w == "desk_sweep":
            cells = _cell_trace(3)
        second = result(run_bench(w, 1))
        out[w] = (first, second)
        if w == "desk_sweep":
            out["cells"] = (cells, _cell_trace(3))
    return out


def _cell_trace(seed):
    with open(os.path.join(HERE, "out", f"desk_sweep-seed{seed}-cells.csv")) as fh:
        return list(csv.DictReader(fh))


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_json()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke_prints_every_metric_and_passes_the_gate(workload):
    proc = run_bench(workload, 0)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m.name for m in END_TO_END]
    for m in END_TO_END:
        got = res["metrics"][m.name]
        assert got["unit"] == m.unit
        assert got["value"] > 0 and math.isfinite(got["value"])
        assert f"\n{m.name} " in "\n" + proc.stdout


def test_traced_smoke_fires_every_named_span(traced):
    for w in WORKLOADS:
        metrics = traced[w][0]["metrics"]
        assert list(metrics) == [m.name for m in PER_LAYER]
        assert traced[w][0]["correct"]
        for m in PER_LAYER:
            assert metrics[m.name]["unit"] == m.unit
            if w in m.fires_on:
                assert metrics[m.name]["value"] > 0, f"{m.name} stayed at zero on {w}"


def test_layer_self_times_add_up_to_the_traced_wall(traced):
    for w in WORKLOADS:
        v = {k: m["value"] for k, m in traced[w][0]["metrics"].items()}
        total = sum(v[f"{layer}.self_ms"] for layer in LAYERS) + v["trace.unattributed_ms"]
        assert total == pytest.approx(v["trace.wall_ms"], rel=1e-9)
        assert v["trace.unattributed_ms"] < 0.25 * v["trace.wall_ms"]


def test_two_traced_runs_give_identical_counts(traced):
    for w in WORKLOADS:
        a, b = (r["metrics"] for r in traced[w])
        assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}
    first, second = traced["cells"]
    key = ("omega", "E", "knots", "dense_eval_points", "status")
    assert [[c[k] for k in key] for c in first] == [[c[k] for k in key] for c in second]
    assert len(first) > 0 and all(int(c["knots"]) > 0 for c in first)


def test_gate_counts_a_wrong_reference_as_failure(tmp_path):
    """Corrupt the reference of one sampled cell in a copy: the run must fail."""
    import random

    import reference

    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    rows = reference.load_desk_reference()
    k = reference.desk_sample(random.Random(1), rows, reference.load_desk_knots(), 4)[-1]
    path = bench / "reference" / os.path.basename(reference.DESK_CSV)
    lines = path.read_text().splitlines(keepends=True)
    parts = lines[k + 1].split(",")
    parts[4] = repr(float(parts[4]) * (1 + 1e-6))   # l2, beyond the 1e-8 tolerance
    lines[k + 1] = ",".join(parts)
    path.write_text("".join(lines))
    res = result(run_bench("desk_sweep", 0, seed=1, cwd=tmp_path))
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["pass_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("desk_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    docs = []
    for k, backend in enumerate(("pure", "compiled")):
        doc = {"workload": "desk_sweep", "trace": 0, "env": {"backend": backend},
               "metrics": {"setup_s": {"value": 0.3, "unit": "s"}}}
        path = tmp_path / f"r{k}.json"
        path.write_text(json.dumps(doc))
        docs.append(str(path))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                           "--base", docs[0], "--new", docs[1]],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "backends" in proc.stderr
