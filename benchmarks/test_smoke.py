"""Smoke test of the benchmark at a tiny size, a few seconds per run:

    python -m pytest benchmarks/test_smoke.py -q

Every metric that BENCHMARK.json names is printed with its unit, the traced
spans nest, and without the sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import load, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out.stdout
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = result(bench(workload, 0))["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_nested_spans(workload):
    metrics = result(bench(workload, 1))["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert abs(metrics["trace.accounted_pct"]["value"] - 100) < 1e-6
    jobs = load(os.path.join(ROOT, ".bench_out", "trace-%s-seed0.json" % workload))
    assert jobs
    for spans in jobs:
        by_id = {s.sid: s for s in spans}
        for s in spans:
            if s.parent is not None:
                parent = by_id[s.parent]
                assert parent.start <= s.start <= s.end <= parent.end, (parent, s)
        assert min(self_times(spans).values()) >= -1e-9


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, root=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()
