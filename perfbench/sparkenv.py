"""The benchmark's Spark session: start, cache guard, event log, clean stop.

The session is the program's own (``repro.harness.session.get_session``).
Settings that must reach the JVM at launch go through
``PYSPARK_SUBMIT_ARGS``: the ``local[nproc]`` master, a fixed driver
memory, local and temporary directories inside the benchmark's work
directory, the web UI and console progress bar off (its ``\\r`` lines
swallow stdout), and, for traced runs only, an uncompressed event log.
"""
from __future__ import annotations

import glob
import json
import os
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field

DRIVER_MEMORY = "2g"


def start_session(workdir: str, nproc: int, trace: bool):
    """Launch the JVM and return ``(spark, seconds_to_start)``."""
    tmp = os.path.join(workdir, "tmp")
    events = os.path.join(workdir, "events")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(events, exist_ok=True)
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.eventLog.enabled": "true" if trace else "false",
        "spark.eventLog.dir": events,
        "spark.eventLog.compress": "false",
        "spark.eventLog.rolling.enabled": "false",
    }
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{nproc}]", f"--driver-memory {DRIVER_MEMORY}"]
        # No hsperfdata file in the system temp directory.
        + ["--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")]
        + [f"--conf {k}={v}" for k, v in confs.items()]
        + ["pyspark-shell"]
    )
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's own JVM
    t = time.perf_counter()
    from repro.harness.session import get_session

    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("WARN")
    return spark, time.perf_counter() - t


def jvm_pid() -> int:
    from pyspark import SparkContext

    return SparkContext._gateway.proc.pid


def stop_session(spark, sampler: "RssSampler | None") -> None:
    """Stop Spark, end the JVM and wait for the Python workers to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    workers = sampler.python_pids() if sampler is not None else set()
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits on EOF
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    deadline = time.monotonic() + 15
    while workers and time.monotonic() < deadline:
        workers = {p for p in workers if os.path.exists(f"/proc/{p}")}
        time.sleep(0.1)
    for p in workers:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def cache_is_empty(spark) -> bool:
    """True when Spark holds no cached plan, so the next op granulates afresh."""
    return bool(spark._jsparkSession.sharedState().cacheManager().isEmpty())


def clear_cache(spark) -> None:
    spark.catalog.clearCache()


# --------------------------------------------------------------- memory


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def _comm(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return ""


@dataclass
class RssSampler:
    """Samples the summed RSS of this process and its Python descendants.

    The JVM is left out of the sum; its own peak is read from ``VmHWM``.
    """

    interval: float = 0.2
    peak_kb: int = 0
    _seen: set[int] = field(default_factory=set)
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: threading.Thread | None = None

    def _sample(self) -> None:
        me = os.getpid()
        kids = _children()
        total, stack = 0, [me]
        while stack:
            pid = stack.pop()
            stack.extend(kids.get(pid, []))
            if pid == me or _comm(pid).startswith("python"):
                try:
                    total += _rss_kb(pid)
                except OSError:
                    continue
                if pid != me:
                    self._seen.add(pid)
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "RssSampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sample()

    def python_pids(self) -> set[int]:
        self._sample()
        return set(self._seen)


def jvm_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


# ------------------------------------------------------------ event log


@dataclass
class StageRecord:
    stage_id: int
    job_desc: str
    shuffle_write_bytes: int
    rdd_scopes: list[str]
    # (launch_ms, finish_ms, shuffle_records_read) per successful task
    tasks: list[tuple[int, int, int]] = field(default_factory=list)


def read_event_log(workdir: str) -> list[StageRecord]:
    """Completed stages of the (stopped) session, tagged by job description."""
    files = [
        f for f in glob.glob(os.path.join(workdir, "events", "*"))
        if not f.endswith(".inprogress") and os.path.isfile(f)
    ]
    if len(files) != 1:
        raise RuntimeError(f"expected one finished event log, found {files}")
    stage_desc: dict[int, str] = {}
    stages: dict[int, StageRecord] = {}
    tasks: dict[int, list[tuple[int, int, int]]] = {}
    with open(files[0]) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                desc = (ev.get("Properties") or {}).get("spark.job.description") or ""
                for sid in ev["Stage IDs"]:
                    stage_desc.setdefault(sid, desc)
            elif kind == "SparkListenerTaskEnd":
                if ev["Task End Reason"]["Reason"] != "Success":
                    continue
                info, metrics = ev["Task Info"], ev.get("Task Metrics") or {}
                read = (metrics.get("Shuffle Read Metrics") or {}).get("Total Records Read", 0)
                tasks.setdefault(ev["Stage ID"], []).append(
                    (info["Launch Time"], info["Finish Time"], read)
                )
            elif kind == "SparkListenerStageCompleted":
                si = ev["Stage Info"]
                acc = {
                    a.get("Name"): a.get("Value") for a in si.get("Accumulables", [])
                }
                scopes = []
                for rdd in si.get("RDD Info", []):
                    scope = rdd.get("Scope")
                    if scope:
                        scopes.append(json.loads(scope)["name"])
                sid = si["Stage ID"]
                stages[sid] = StageRecord(
                    stage_id=sid,
                    job_desc=stage_desc.get(sid, ""),
                    shuffle_write_bytes=int(
                        acc.get("internal.metrics.shuffle.write.bytesWritten") or 0
                    ),
                    rdd_scopes=scopes,
                )
    for sid, rec in stages.items():
        rec.tasks = tasks.get(sid, [])
    return sorted(stages.values(), key=lambda r: r.stage_id)
