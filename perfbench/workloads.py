"""The benchmark's three workloads: inputs, timed ops, output checks, traces.

Each workload is a closed loop: this process issues one op, waits for
it, checks its output outside the timed region, and issues the next.
``perfbench/README.md`` says why each workload exists and which layer
metric should move which end-to-end metric.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.core.gbabs as gbabs_mod
import tracing
from repro.core.gbabs import gbabs_from_balls, gbabs_sample
from repro.datasets.registry import dataset_names, load_dataset

RHO = 5
LOCAL_NOISES = (0.0, 0.2)
SPARK_DATASETS = ("S1", "S2", "S3", "S5", "S13")
SPARK_PARTITIONS = (1, 4)
GRID_DATASETS = ("S2", "S5")
GRID_NOISES = (0.3,)
GRID_METHODS = ["GBABS", "GGBS", "SRS", "none"]
GRID_FOLDS = 5

# At one partition the Spark path must return exactly what gbabs_sample
# returns. On the tied, quantised analogs S1 and S3 it does not yet
# (ROADMAP item 1). Those ops still count in `failed`; listing them here
# only keeps them from marking the whole run incorrect, the way a test
# suite marks a known failure.
KNOWN_REF_MISMATCH = frozenset({"S1", "S3"})

PER_LAYER_UNITS: dict[str, str] = {
    "rdgbg.busy_s": "s",
    "rdgbg.balls": "count",
    "rdgbg.orphan_balls": "count",
    "rdgbg.noise_removed": "count",
    "gbabs.pairs_busy_s": "s",
    "gbabs.extract_busy_s": "s",
    "gbabs.pairs": "count",
    "gbabs.sampled_rows": "count",
    "spark_gbabs.granulate_s": "s",
    "spark_gbabs.pairs_s": "s",
    "spark_gbabs.select_s": "s",
    "spark_gbabs.shuffle_write_bytes": "bytes",
    "spark_gbabs.tasks": "count",
    "spark_gbabs.balls": "count",
    "spark_gbabs.balls_per_partition_max": "count",
    "spark_gbabs.ref_mismatch_rows": "count",
    **{
        f"clf.{c}.{phase}_s": "s"
        for c in ("DT", "RF", "XGBoost", "LightGBM", "kNN")
        for phase in ("fit", "predict")
    },
    "sampler.GBABS.busy_s": "s",
    "sampler.GGBS.busy_s": "s",
    "sampler.SRS.busy_s": "s",
    "grid.tasks": "count",
    "grid.partitions_nonempty": "count",
    "grid.tasks_max_per_partition": "count",
    "grid.task_p50_s": "s",
    "grid.task_max_s": "s",
    "grid.core_busy_frac": "ratio",
    "datasets.load_s": "s",
    "spark.session_start_s": "s",
    "spark.jvm_peak_rss_mb": "MB",
}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    nproc: int
    workdir: str
    imports_s: float


@dataclass
class Outcome:
    """What one run measured and what its output checks found."""

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    pass_times: list[float] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def record(self, op: str, failures: list[str], known: frozenset[str] = frozenset()) -> None:
        """Count one op; a failure whose check is not in ``known`` is unexpected."""
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        for f in failures:
            self.failures.append(f"{op}: {f}")
            if f.split(":")[0] not in known:
                self.unexpected.append(f"{op}: {f}")


def _median_of(n: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``fn`` n times; return the median time and the last result."""
    times, out = [], None
    for _ in range(n):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times), out


def _timed_passes(
    ops: list,
    run_op: Callable[[Any], Any],
    check_op: Callable[[Any, Any], list[str]],
    out: Outcome,
    seconds: float,
    *,
    before_op: Callable[[Any], list[str]] = lambda op: [],
    known: Callable[[Any], frozenset[str]] = lambda op: frozenset(),
) -> None:
    """Repeat the whole op list until ``seconds`` have passed (at least once).

    Only ``run_op`` is timed; ``before_op`` (cache clearing) and
    ``check_op`` run outside the timed region.
    """
    start = time.perf_counter()
    while True:
        total = 0.0
        for op in ops:
            failures = before_op(op)
            t = time.perf_counter()
            try:
                result = run_op(op)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result, failures = None, failures + ["raised"]
            dt = time.perf_counter() - t
            total += dt
            out.latencies.append(dt)
            if result is not None:
                failures = failures + check_op(op, result)
            out.record(_op_name(op), failures, known(op))
        out.pass_times.append(total)
        if time.perf_counter() - start >= seconds:
            return


def _op_name(op: Any) -> str:
    return "/".join(str(x) for x in op) if isinstance(op, tuple) else str(op)


# ----------------------------------------------------------------- checks


def _overlapping(centers: np.ndarray, radii: np.ndarray, tol: float = 1e-9) -> bool:
    """True when two balls overlap: ||c_i - c_j|| < r_i + r_j.

    Works in row blocks so the check adds little to the run's peak RSS.
    """
    sq = (centers * centers).sum(1)
    for lo in range(0, len(centers), 128):
        blk = slice(lo, lo + 128)
        d2 = sq[blk, None] - 2.0 * centers[blk] @ centers.T + sq[None, :]
        bad = np.sqrt(np.maximum(d2, 0.0)) < radii[blk, None] + radii[None, :] - tol
        rows = np.arange(lo, lo + bad.shape[0])
        bad[rows - lo, rows] = False
        if bad.any():
            return True
    return False


def check_local(X: np.ndarray, y: np.ndarray, idx: np.ndarray, gbset) -> list[str]:
    """Output checks for one ``gbabs_sample`` result."""
    fails = []
    n = len(y)
    balls = gbset.balls
    members = np.concatenate([b.idx for b in balls]) if balls else np.array([], np.int64)
    noise = np.asarray(gbset.noise_idx, dtype=np.int64)
    if not all((y[b.idx] == b.label).all() for b in balls):
        fails.append("balls_pure")
    if len(np.unique(members)) != len(members):
        fails.append("balls_disjoint")
    if balls and _overlapping(gbset.centers(), gbset.radii()):
        fails.append("balls_non_overlapping")
    covered = np.zeros(n, dtype=bool)
    covered[members] = True
    if covered[noise].any() or covered.sum() + len(noise) != n:
        fails.append("every_row_in_a_ball_or_noise")
    if len(idx) == 0 or np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= n:
        fails.append("sample_sorted_unique_in_range")
    elif not covered[idx].all():
        fails.append("sampled_rows_covered")
    if np.isin(idx, noise).any():
        fails.append("noise_never_sampled")
    if not np.array_equal(idx, gbabs_from_balls(X, gbset)):
        fails.append("sample_matches_balls")
    return fails


def check_sids(sids: np.ndarray, n: int) -> list[str]:
    if len(sids) == 0 or len(np.unique(sids)) != len(sids) or sids.min() < 0 or sids.max() >= n:
        return ["nonempty_subset_of_input"]
    return []


def cache_guard(spark) -> list[str]:
    """Fails unless Spark's cache is empty, so the next op must granulate."""
    import sparkenv

    return [] if sparkenv.cache_is_empty(spark) else ["cache_isolation"]


def check_grid(rows: list, datasets, noises, n_splits: int, methods, classifiers) -> list[str]:
    import pandas as pd
    from repro.harness.grid import RESULT_COLUMNS

    fails = []
    pdf = pd.DataFrame([tuple(r) for r in rows], columns=RESULT_COLUMNS)
    keys = ["dataset", "noise", "rep", "fold", "method", "classifier"]
    expected = len(datasets) * len(noises) * n_splits * len(methods) * len(classifiers)
    seen = set(map(tuple, pdf[keys].itertuples(index=False)))
    want = {
        (d, float(z), 0, f, m, c)
        for d in datasets for z in noises for f in range(n_splits)
        for m in methods for c in classifiers
    }
    if len(pdf) != expected or seen != want:
        fails.append(f"all_rows_present: {len(pdf)} rows, {len(want - seen)} missing")
    for col in ("accuracy", "g_mean"):
        v = pdf[col].to_numpy(dtype=float)
        if not (np.isfinite(v).all() and (v >= 0).all() and (v <= 1).all()):
            fails.append(f"{col}_in_0_1")
    per_fold = pdf.groupby(["dataset", "noise", "rep", "fold", "method"])["n_sampled"].first()
    per_fold = per_fold.unstack("method")
    if not (per_fold["SRS"] == per_fold["GBABS"]).all():
        fails.append("srs_size_equals_gbabs_size")
    return fails


# ------------------------------------------------------------ gbabs-local


def gbabs_local(ctx: Context) -> Outcome:
    """``gbabs_sample`` (numpy reference) over every analog at noise 0 and 0.2."""
    out = Outcome()
    names = ["S1", "S2"] if ctx.tiny else dataset_names()
    ops = [(n, z) for n in names for z in LOCAL_NOISES]

    def make_inputs():
        return {
            op: load_dataset(op[0], noise_ratio=op[1], noise_seed=ctx.seed)[:2] for op in ops
        }

    load_s, data = _median_of(3, make_inputs)
    # The warm-up op uses a fixed RD-GBG seed so that set-up time does not
    # vary with the workload seed.
    X, y = data[ops[0]]
    warm_s, _ = _median_of(3, lambda: gbabs_sample(X, y, RHO, 0))
    out.setup_s = ctx.imports_s + load_s + warm_s
    out.info["setup_parts_s"] = {"imports": ctx.imports_s, "inputs": load_s, "warm": warm_s}

    if ctx.trace:
        tr = tracing.Tracer()
        for op in ops:
            X, y = data[op]
            with tracing.core_layers(tr):
                gbset = gbabs_mod.rd_gbg(X, y, rho=RHO, seed=ctx.seed)
                idx = gbabs_mod.gbabs_from_balls(X, gbset)
            fails = check_local(X, y, idx, gbset)
            if not np.array_equal(idx, gbabs_sample(X, y, RHO, ctx.seed)[0]):
                fails.append("same_seed_same_sample")
            out.record(_op_name(op), fails)
        out.layer.update(_core_layer_metrics(tr))
        out.layer["datasets.load_s"] = load_s
        return out

    first: dict = {}

    def run_op(op):
        X, y = data[op]
        return gbabs_sample(X, y, RHO, ctx.seed)

    def check_op(op, result):
        idx, gbset = result
        X, y = data[op]
        fails = check_local(X, y, idx, gbset)
        if not np.array_equal(first.setdefault(op, idx), idx):
            fails.append("same_seed_same_sample")
        return fails

    _timed_passes(ops, run_op, check_op, out, ctx.seconds)
    return out


def _core_layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    return {
        "rdgbg.busy_s": tr.incl["rdgbg"],
        "rdgbg.balls": tr.counts["rdgbg.balls"],
        "rdgbg.orphan_balls": tr.counts["rdgbg.orphan_balls"],
        "rdgbg.noise_removed": tr.counts["rdgbg.noise_removed"],
        "gbabs.pairs_busy_s": tr.incl["gbabs.pairs"],
        "gbabs.extract_busy_s": tr.self_time["gbabs.extract"],
        "gbabs.pairs": tr.counts["gbabs.pairs"],
        "gbabs.sampled_rows": tr.counts["gbabs.sampled_rows"],
    }


# ------------------------------------------------------------ gbabs-spark


def gbabs_spark(ctx: Context) -> Outcome:
    """``gbabs_sample_df`` over six analogs at 1 and 4 partitions."""
    import sparkenv
    from pyspark.sql import functions as F
    from repro.core.spark_gbabs import (
        SID,
        borderline_pairs_df,
        gbabs_sample_df,
        granulate_partitions,
        to_spark_df,
    )

    out = Outcome()
    names = ("S2", "S3") if ctx.tiny else SPARK_DATASETS
    ops = [(d, k) for d in names for k in SPARK_PARTITIONS]
    sampler = sparkenv.RssSampler().start()
    spark, session_s = sparkenv.start_session(ctx.workdir, ctx.nproc, ctx.trace)
    try:
        def make_inputs():
            arrays = {d: load_dataset(d)[:2] for d in names}
            return arrays, {d: to_spark_df(spark, X, y) for d, (X, y) in arrays.items()}

        load_s, (arrays, frames) = _median_of(3, make_inputs)
        reference = {d: gbabs_sample(X, y, RHO, ctx.seed)[0] for d, (X, y) in arrays.items()}

        def run_op(op):
            d, k = op
            rows = gbabs_sample_df(frames[d], rho=RHO, seed=ctx.seed, num_partitions=k)
            return rows.select(SID).collect()

        t = time.perf_counter()
        with ThreadPoolExecutor(max_workers=ctx.nproc) as pool:
            warm = dict(zip(ops, pool.map(run_op, ops)))
        warm = {op: np.sort(np.array([r[0] for r in rows])) for op, rows in warm.items()}
        sparkenv.clear_cache(spark)
        warm_s = time.perf_counter() - t
        out.setup_s = ctx.imports_s + session_s + load_s + warm_s
        out.info["setup_parts_s"] = {
            "imports": ctx.imports_s, "session": session_s, "inputs": load_s, "warm": warm_s,
        }

        def before_op(op):
            sparkenv.clear_cache(spark)
            return cache_guard(spark)

        def known(op):
            d, k = op
            return frozenset({"ref_equal"}) if k == 1 and d in KNOWN_REF_MISMATCH else frozenset()

        mismatch = 0

        def check_op(op, rows):
            nonlocal mismatch
            d, k = op
            sids = np.sort(np.array([r[0] for r in rows], dtype=np.int64))
            fails = check_sids(sids, len(arrays[d][1]))
            if k == 1 and not np.array_equal(sids, reference[d]):
                diff = len(np.setxor1d(sids, reference[d]))
                mismatch += diff
                fails.append(f"ref_equal: {diff} rows differ from gbabs_sample")
            if not np.array_equal(sids, warm[op]):
                fails.append("same_seed_same_sample")
            return fails

        if not ctx.trace:
            _timed_passes(ops, run_op, check_op, out, ctx.seconds, before_op=before_op, known=known)
            sparkenv.clear_cache(spark)
        else:
            sc = spark.sparkContext
            granulate_s = pairs_s = select_s = 0.0
            balls_total = balls_max = 0
            for op in ops:
                d, k = op
                tag = f"{d} p{k}"
                fails = before_op(op)
                sc.setJobDescription(f"granulate {tag}")
                t = time.perf_counter()
                balls = granulate_partitions(
                    frames[d], rho=RHO, seed=ctx.seed, num_partitions=k
                ).cache()
                per_part = (
                    balls.filter(F.col("is_center"))
                    .groupBy(F.substring_index("ball_key", "_", 1))
                    .count()
                    .collect()
                )
                g = time.perf_counter() - t
                sc.setJobDescription(f"pairs {tag}")
                t = time.perf_counter()
                borderline_pairs_df(balls).count()
                p = time.perf_counter() - t
                balls.unpersist(blocking=True)
                fails += before_op(op)
                sc.setJobDescription(f"op {tag}")
                t = time.perf_counter()
                rows = run_op(op)
                total = time.perf_counter() - t
                sc.setJobDescription(None)
                sparkenv.clear_cache(spark)
                granulate_s += g
                pairs_s += p
                select_s += max(0.0, total - g - p)
                counts = [r[1] for r in per_part]
                balls_total += sum(counts)
                balls_max = max([balls_max, *counts])
                out.record(_op_name(op), fails + check_op(op, rows), known(op))
            out.layer.update({
                "spark_gbabs.granulate_s": granulate_s,
                "spark_gbabs.pairs_s": pairs_s,
                "spark_gbabs.select_s": select_s,
                "spark_gbabs.balls": balls_total,
                "spark_gbabs.balls_per_partition_max": balls_max,
                "spark_gbabs.ref_mismatch_rows": mismatch,
                "datasets.load_s": load_s,
                "spark.session_start_s": session_s,
            })
        out.info["java"] = spark._jvm.System.getProperty("java.version")
        out.layer["spark.jvm_peak_rss_mb"] = sparkenv.jvm_peak_rss_mb(sparkenv.jvm_pid())
    finally:
        sparkenv.stop_session(spark, sampler)
        sampler.stop()
    out.peak_rss_mb = sampler.peak_kb / 1024
    if ctx.trace:
        stages = sparkenv.read_event_log(ctx.workdir)
        op_stages = [s for s in stages if s.job_desc.startswith("op ")]
        out.layer["spark_gbabs.shuffle_write_bytes"] = sum(s.shuffle_write_bytes for s in op_stages)
        out.layer["spark_gbabs.tasks"] = sum(len(s.tasks) for s in op_stages)
        for op in ops:
            tag = f"granulate {op[0]} p{op[1]}"
            if not any(s.job_desc == tag and "MapInPandas" in s.rdd_scopes and s.tasks
                       for s in stages):
                out.unexpected.append(f"{_op_name(op)}: no granulation tasks in event log")
    return out


# ------------------------------------------------------------ grid-table4


def grid_table4(ctx: Context) -> Outcome:
    """One ``run_grid(...).collect()``: the Table-IV path over a fixed subset."""
    import sparkenv
    from repro.classifiers import CLASSIFIER_NAMES
    from repro.harness import grid

    out = Outcome()
    datasets, noises, n_splits = (
        (("S2",), GRID_NOISES, 2) if ctx.tiny else (GRID_DATASETS, GRID_NOISES, GRID_FOLDS)
    )
    sampler = sparkenv.RssSampler().start()
    spark, session_s = sparkenv.start_session(ctx.workdir, ctx.nproc, ctx.trace)
    rows: list = []
    try:
        sc = spark.sparkContext
        t = time.perf_counter()
        sc.setJobDescription("warm")
        # Eight cheap fold tasks land on six partitions, so every core
        # starts (and keeps) a Python worker before the timed op.
        grid.run_grid(
            spark, datasets=["S2"], noises=[0.3], methods=["GBABS", "SRS"],
            classifiers=["kNN"], n_splits=8,
        ).collect()
        warm_s = time.perf_counter() - t
        out.setup_s = ctx.imports_s + session_s + warm_s
        out.info["setup_parts_s"] = {"imports": ctx.imports_s, "session": session_s, "warm": warm_s}

        def run_op(_):
            sc.setJobDescription("grid")
            return grid.run_grid(
                spark, datasets=list(datasets), noises=list(noises),
                methods=GRID_METHODS, classifiers=CLASSIFIER_NAMES, n_splits=n_splits,
            ).collect()

        first: list = []

        def check_op(_, result):
            fails = check_grid(result, datasets, noises, n_splits, GRID_METHODS, CLASSIFIER_NAMES)
            key = sorted(tuple(r) for r in result)
            if first and first[0] != key:
                fails.append("same_rows_every_time")
            first[:1] = [key]
            rows[:] = result
            return fails

        seconds = 0.0 if ctx.trace else ctx.seconds
        _timed_passes(["grid"], run_op, check_op, out, seconds)
        out.info["java"] = spark._jvm.System.getProperty("java.version")
        out.layer["spark.jvm_peak_rss_mb"] = sparkenv.jvm_peak_rss_mb(sparkenv.jvm_pid())
    finally:
        sparkenv.stop_session(spark, sampler)
        sampler.stop()
    out.peak_rss_mb = sampler.peak_kb / 1024
    if not ctx.trace:
        return out

    out.layer["spark.session_start_s"] = session_s
    out.layer.update(_grid_placement(sparkenv.read_event_log(ctx.workdir), ctx.nproc))

    # Replay one fold per dataset (folds picked by the seed) in this
    # process with timing wrappers, and check it reproduces the grid rows.
    rng = np.random.default_rng(ctx.seed)
    tr = tracing.Tracer()
    by_key = {
        (r.dataset, r.noise, r.fold, r.method, r.classifier): (r.accuracy, r.g_mean, r.n_sampled)
        for r in rows
    }
    for d in datasets:
        for z in noises:
            fold = int(rng.integers(n_splits))
            with tracing.grid_layers(tr):
                pdf = grid.run_fold_task(
                    d, z, 0, fold, methods=GRID_METHODS, classifiers=CLASSIFIER_NAMES,
                    n_splits=n_splits,
                )
            fails = [
                f"replay_equals_grid: {m}/{c}"
                for m, c, a, g, s in pdf[["method", "classifier", "accuracy", "g_mean", "n_sampled"]]
                .itertuples(index=False)
                if by_key.get((d, z, fold, m, c)) != (a, g, s)
            ]
            out.record(f"replay {d}/{z}/{fold}", fails)
    out.layer.update(_core_layer_metrics(tr))
    for c in CLASSIFIER_NAMES:
        out.layer[f"clf.{c}.fit_s"] = tr.incl[f"clf.{c}.fit"]
        out.layer[f"clf.{c}.predict_s"] = tr.incl[f"clf.{c}.predict"]
    for m in ("GBABS", "GGBS", "SRS"):
        out.layer[f"sampler.{m}.busy_s"] = tr.incl[f"sampler.{m}"]
    out.layer["datasets.load_s"] = tr.incl["datasets.load"]
    return out


def _grid_placement(stages, nproc: int) -> dict[str, float]:
    """Fold-task placement and task times of the grid's pandas stage."""
    pandas_stages = [
        s for s in stages
        if s.job_desc == "grid" and any("InPandas" in name for name in s.rdd_scopes)
    ]
    if len(pandas_stages) != 1:
        raise RuntimeError(f"expected one grid pandas stage, found {len(pandas_stages)}")
    tasks = pandas_stages[0].tasks
    busy = [(end - start) / 1000 for start, end, n in tasks if n > 0]
    span = (max(t[1] for t in tasks) - min(t[0] for t in tasks)) / 1000
    return {
        "grid.tasks": sum(n for _, _, n in tasks),
        "grid.partitions_nonempty": len(busy),
        "grid.tasks_max_per_partition": max(n for _, _, n in tasks),
        "grid.task_p50_s": statistics.median(busy),
        "grid.task_max_s": max(busy),
        "grid.core_busy_frac": sum((e - s) / 1000 for s, e, _ in tasks) / (nproc * span),
    }


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "gbabs-local": gbabs_local,
    "gbabs-spark": gbabs_spark,
    "grid-table4": grid_table4,
}
