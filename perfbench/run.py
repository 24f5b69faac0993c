"""Benchmark of the GBABS reproduction: one workload per process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gbabs-local --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken from a separate
traced run. Lines starting with ``# meta`` carry the run's provenance
(seed, core count, package versions), op-latency percentiles with their
op counts, and host-drift diagnostics. ``--tiny`` shrinks every workload
for the self-tests in ``perfbench/test_perfbench.py``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"
WORKLOAD_NAMES = ("gbabs-local", "gbabs-spark", "grid-table4")
RUN_LIMIT_S = 170


def _pin_environment() -> None:
    """One BLAS/OpenMP thread per process, set before numpy loads.

    Spark's Python workers inherit these through the JVM's environment.
    Temporary files go to the work directory inside the checkout.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")


def _cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def _calibrate() -> float:
    """Median time of a fixed single-threaded numpy kernel (host speed probe)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    v = rng.standard_normal(1_000_000)
    times = []
    for _ in range(15):
        t = time.perf_counter()
        float((a @ a).sum())
        np.sort(v)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _versions() -> dict[str, str]:
    import importlib.metadata as md

    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "pandas", "pyarrow", "pyspark"):
        try:
            out[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            out[pkg] = "absent"
    return out


def op_percentiles(latencies: list[float]) -> dict[str, float | int | str]:
    """Median op latency, and the highest percentile with ten ops beyond it.

    The tail is left out when it would not lie above the median, that is
    with fewer than 20 ops.
    """
    n = len(latencies)
    out: dict[str, float | int | str] = {"op_count": n, "op_p50_s": statistics.median(latencies)}
    if n >= 20:
        k = n - 10
        out["op_ptail_s"] = sorted(latencies)[k - 1]
        out["op_ptail_pct"] = round(100 * k / n, 1)
    else:
        out["op_ptail_s"] = f"omitted: {n} ops, 20 needed"
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    args = ap.parse_args(argv)
    # A hung run prints its stacks and exits non-zero after RUN_LIMIT_S;
    # the Spark JVM then ends because its stdin closes.
    faulthandler.dump_traceback_later(RUN_LIMIT_S, exit=True)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    (WORKDIR / "tmp").mkdir(parents=True)
    _pin_environment()
    nproc = len(os.sched_getaffinity(0))

    steal0, total0 = _cpu_steal()
    load0 = _loadavg()
    t = time.perf_counter()
    import workloads  # imports numpy and the program's core modules

    imports_s = time.perf_counter() - t
    calib0 = _calibrate()
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        nproc=nproc,
        workdir=str(WORKDIR),
        imports_s=imports_s,
    )
    out = workloads.WORKLOADS[args.workload](ctx)

    calib1 = _calibrate()
    steal1, total1 = _cpu_steal()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": nproc,
        "versions": {**_versions(), **({"java": out.info["java"]} if "java" in out.info else {})},
        "host": {
            "calib_start_s": calib0,
            "calib_end_s": calib1,
            "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
            "loadavg_start": load0,
            "loadavg_end": _loadavg(),
        },
        "setup_parts_s": out.info.get("setup_parts_s"),
        "fail_frac": out.failed / out.attempted,
        "passes": len(out.pass_times),
        "pass_times_s": out.pass_times,
        "op_latencies_s": out.latencies,
    }
    if args.workload != "grid-table4" and out.latencies:
        meta["ops"] = op_percentiles(out.latencies)
    if out.failures:
        meta["failures"] = out.failures
    if out.unexpected:
        meta["unexpected_failures"] = out.unexpected
    print("# meta " + json.dumps(meta), flush=True)

    if args.trace:
        values = {name: float(out.layer.get(name, 0.0)) for name in workloads.PER_LAYER_UNITS}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in workloads.PER_LAYER_UNITS.items()
        }
    else:
        driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(out.pass_times), "unit": "s"},
            "setup_s": {"value": out.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": max(out.peak_rss_mb, driver_mb), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not out.unexpected,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
