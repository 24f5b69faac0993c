"""Self-tests of the benchmark.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each workload is run at tiny size in a fresh process, with tracing off
and on, and must print every metric of ``BENCHMARK.json`` with its unit.
Two fault checks show that a broken output or a cache hit is caught.
"""
from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro.core.gbabs import gbabs_sample  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("# meta "))
    return meta, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    meta, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert meta["seed"] == 3 and meta["nproc"] >= 1 and "numpy" in meta["versions"]
    if workload == "grid-table4":
        assert "ops" not in meta
    elif not trace:
        assert meta["ops"]["op_count"] == result["attempted"]


def test_known_spark_mismatch_counts_as_failed():
    # S3 at one partition differs from gbabs_sample (ROADMAP item 1).
    meta, result = _run("gbabs-spark", 0)
    assert result["correct"] is True
    assert result["failed"] >= 1
    assert meta["fail_frac"] == result["failed"] / result["attempted"]
    assert any(f.startswith("S3/1: ref_equal") for f in meta["failures"])


def test_sample_with_one_index_dropped_counts_as_failed():
    X, y, _ = load_dataset("S2")
    idx, gbset = gbabs_sample(X, y, workloads.RHO, 0)
    assert workloads.check_local(X, y, idx, gbset) == []

    out = workloads.Outcome()
    workloads._timed_passes(
        [("S2", 0.0)],
        lambda op: (np.delete(idx, len(idx) // 2), gbset),
        lambda op, result: workloads.check_local(X, y, *result),
        out,
        seconds=0,
    )
    assert (out.attempted, out.failed) == (1, 1)
    assert any("sample_matches_balls" in f for f in out.unexpected)


def test_repeated_spark_op_without_cache_clear_is_caught(tmp_path):
    import sparkenv
    from repro.core.spark_gbabs import gbabs_sample_df, to_spark_df

    os.environ["PYTHONPATH"] = str(ROOT / "src")
    spark, _ = sparkenv.start_session(str(tmp_path), 2, trace=False)
    try:
        X, y, _ = load_dataset("S2")
        df = to_spark_df(spark, X[:200], y[:200])
        assert workloads.cache_guard(spark) == []
        gbabs_sample_df(df, num_partitions=1).count()
        # gbabs_sample_df leaves its balls cached: a repeat would reuse them.
        assert workloads.cache_guard(spark) == ["cache_isolation"]
        sparkenv.clear_cache(spark)
        assert workloads.cache_guard(spark) == []
    finally:
        sparkenv.stop_session(spark, None)
