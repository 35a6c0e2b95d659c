"""Benchmark of the transcript pipeline on seeded synthetic transcripts.

    python3 perfbench/run.py --workload clustered --seed 1 --seconds 20 --trace 0

One run, from the root of a checkout:

1. builds the workload's input from ``--seed`` (untimed);
2. computes the DuckDB oracle for it, or loads it from the cache (untimed);
3. sets up ``SETUPS`` times: Ray start, worker warm-up, collector-actor
   start; all but the last are shut down again, and ``setup_s`` is the
   median;
4. runs timed passes of ``run_pipeline(input, config, out_dir=...)``, as
   the CLI does, until ``--seconds`` of pass time are measured, wiping
   ``out_dir`` before each pass and checking every pass's sinks and
   metric tables against the oracle after it.

``--trace 1`` measures half of the time untraced and half with layer
spans (perfbench/trace.py) and prints the per-layer metrics instead.
The last line of stdout is one JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import oracle, procmem, trace, workloads  # noqa: E402

SETUPS = 3
MIN_PASSES = 1
WARM_UP_TURNS = 2_000
OBJECT_STORE_BYTES = 512 * 2**20
ORACLE_CACHE_ENTRIES = 32
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# about 64 characters below its temp dir
RAY_TMP_MAX_LEN = 107 - 64


def nproc() -> int:
    """Processors available, as coreutils ``nproc`` counts them: the
    affinity mask, overridden by OMP_NUM_THREADS and capped by
    OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Bench:
    """One benchmark run: its work directory, input, oracle and Ray."""

    def __init__(self, workload: workloads.Workload, seed: int):
        from asserts_otel_processor_ray.config import default_config

        self.workload = workload
        self.seed = seed
        self.config = default_config()
        self.ncpus = nproc()
        self.work = os.path.join(ROOT, ".perfbench")
        self.run_dir = os.path.join(self.work, "run")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.in_dir = os.path.join(self.run_dir, "input")
        self.warm_dir = os.path.join(self.run_dir, "warm-up")
        self.out_dir = os.path.join(self.run_dir, "out")
        ray_tmp = os.path.join(self.work, "ray")
        if len(ray_tmp) > RAY_TMP_MAX_LEN:
            ray_tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
        self.ray_tmp = ray_tmp
        self.input_digest = ""
        self.turns = 0
        self.expected: dict = {}

    # ---- inputs and oracle (untimed) ------------------------------------

    def prepare(self) -> None:
        t0 = time.perf_counter()
        w = self.workload
        tbl = workloads.canonical_table(w.turns, self.seed)
        self.turns = tbl.num_rows
        self.input_digest = workloads.table_digest(tbl)
        workloads.write_parquet_dir(
            workloads.lay_out(tbl, w.layout, self.seed), self.in_dir)
        workloads.write_parquet_dir(
            workloads.canonical_table(WARM_UP_TURNS, self.seed),
            self.warm_dir)
        t1 = time.perf_counter()
        cache = os.path.join(self.work, "oracle")
        os.makedirs(cache, exist_ok=True)
        self.expected = oracle.expected_outputs(
            self.in_dir, self.config, self.input_digest, cache)
        _trim_cache(cache, ORACLE_CACHE_ENTRIES)
        log(f"input {self.turns} turns ({w.layout}, digest "
            f"{self.input_digest}) in {t1 - t0:.1f} s; oracle in "
            f"{time.perf_counter() - t1:.1f} s")

    # ---- Ray ---------------------------------------------------------------

    def start(self, trace_dir: str | None = None) -> float:
        """Ray start + warm-up; returns the seconds it took."""
        import ray
        import ray.data

        from asserts_otel_processor_ray.pipelines.pipeline import (
            build_enriched, read_transcripts)
        from asserts_otel_processor_ray.state.collector import (
            get_collectors)

        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        # workers import the package (and the trace hook) from the checkout
        paths = [ROOT] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p and p != ROOT]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        runtime_env = None
        if trace_dir is not None:
            os.environ[trace.TRACE_DIR_ENV] = trace_dir
            runtime_env = {
                "worker_process_setup_hook": "perfbench.trace.setup_worker"}
        else:
            os.environ.pop(trace.TRACE_DIR_ENV, None)
        t0 = time.perf_counter()
        ray.init(num_cpus=self.ncpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.ray_tmp, runtime_env=runtime_env)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        # the collector pool run_pipeline uses (build_decided_ex sizes it
        # the same way), then one Ray Data job through the package's
        # first stages so a worker has imported it
        t1 = time.perf_counter()
        get_collectors(max(1, self.ncpus // 4))
        t2 = time.perf_counter()
        build_enriched(read_transcripts(self.warm_dir),
                       self.config).materialize()
        t3 = time.perf_counter()
        log(f"ray.init {t1 - t0:.2f} s, collectors {t2 - t1:.2f} s, "
            f"warm-up job {t3 - t2:.2f} s")
        return t3 - t0

    def stop(self) -> None:
        import ray

        from asserts_otel_processor_ray.state.collector import (
            invalidate_pool)
        pids = procmem.descendants()
        ray.shutdown()
        invalidate_pool()
        killed = procmem.stop_processes(pids)
        if killed:
            log(f"killed {len(killed)} Ray processes left after shutdown")

    def close(self) -> None:
        import ray
        if ray.is_initialized():
            self.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # ---- timed passes --------------------------------------------------------

    def run_passes(self, seconds: float,
                   min_passes: int = MIN_PASSES) -> list[dict]:
        from asserts_otel_processor_ray.pipelines.pipeline import (
            run_pipeline)

        passes: list[dict] = []
        measured = 0.0
        while measured < seconds or len(passes) < min_passes:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            error = None
            cpu0 = procmem.tree_cpu_seconds()
            with procmem.PeakRss() as mem:
                t0 = time.perf_counter()
                try:
                    run_pipeline(self.in_dir, self.config,
                                 out_dir=self.out_dir)
                except Exception:
                    error = traceback.format_exc()
                t1 = time.perf_counter()
            cpu = procmem.cpu_used(cpu0, procmem.tree_cpu_seconds())
            bad = [error] if error else []
            digest = ""
            if not bad:
                outputs = oracle.read_outputs(self.out_dir)
                bad = oracle.mismatches(outputs, self.expected)
                digest = oracle.outputs_digest(outputs)
            for b in bad:
                log(f"pass {len(passes)} FAILED: {b}")
            passes.append({"t0": t0, "t1": t1, "wall": t1 - t0, "cpu": cpu,
                           "failed": bool(bad), "digest": digest,
                           "peak_rss_mb": mem.peak_total_mb,
                           "driver_rss_mb": mem.peak_self_mb,
                           "lineage_records": _lineage_records(
                               self.out_dir)})
            measured += t1 - t0
            if error:
                break       # a raising pass ends the measurement
            log(f"pass {len(passes) - 1}: {t1 - t0:.2f} s wall, {cpu:.2f} s "
                f"CPU, peak {mem.peak_total_mb:.0f} MB")
        return passes

    def turns_per_s(self, passes: list[dict]) -> float:
        return statistics.median(self.turns / p["wall"] for p in passes)

    def turns_per_cpu_s(self, passes: list[dict]) -> float:
        return statistics.median(self.turns / p["cpu"] for p in passes)


def _lineage_records(out_dir: str) -> int:
    from asserts_otel_processor_ray.state.checkpoint import (
        MANIFEST, MANIFEST_DIR)
    path = os.path.join(out_dir, MANIFEST_DIR, MANIFEST)
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for line in f if line.strip())


def _trim_cache(cache: str, keep: int) -> None:
    entries = sorted((os.path.getmtime(os.path.join(cache, e)), e)
                     for e in os.listdir(cache))
    for _, e in entries[:-keep]:
        shutil.rmtree(os.path.join(cache, e), ignore_errors=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    setups = []
    for i in range(SETUPS):
        setups.append(bench.start())
        log(f"setup {i}: {setups[-1]:.2f} s")
        if i < SETUPS - 1:
            bench.stop()
    try:
        passes = bench.run_passes(seconds)
    finally:
        bench.stop()
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "turns_per_cpu_s": _metric(bench.turns_per_cpu_s(passes),
                                   "turns/cpu_s"),
        "peak_rss_mb": _metric(
            statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics


LAYER_UNITS = {
    "parse.busy_s": "s", "parse.rows_in": "rows", "parse.rows_out": "rows",
    "enrich.busy_s": "s", "enrich.rows_in": "rows",
    "enrich.regex_inputs": "values", "enrich.regex_input_ratio": "ratio",
    "partition.sort_s": "s", "partition.exchanged_bytes": "B",
    "partition.edge_rows": "rows",
    "assemble.busy_s": "s", "decide.busy_s": "s",
    "partials.busy_s": "s", "partials.rows": "rows", "driver.merge_s": "s",
    "collector.pushes": "count", "collector.push_wait_s": "s",
    "collector.payload_bytes": "B",
    "route.rows_scanned": "rows", "route.rows_kept": "rows",
    "route.keep_ratio": "ratio", "route.busy_s": "s",
    "route.pushdown": "flag",
    "write.busy_s": "s", "write.files": "files", "write.bytes": "B",
    "write.rows_per_file": "rows/file", "lineage.records": "count",
    "layers.self_s": "s", "ray.overhead_s": "s",
}


def measure_traced(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    """Half the time untraced, then half traced in a fresh Ray whose
    workers run the trace hook; per-layer metrics from the traced half."""
    bench.start()
    try:
        plain = bench.run_passes(seconds / 2)
    finally:
        bench.stop()
    trace_dir = os.path.join(bench.run_dir, "trace")
    os.makedirs(trace_dir)
    bench.start(trace_dir)
    try:
        with trace.DriverTracer() as tracer:
            traced = bench.run_passes(seconds / 2)
        spans = trace.collect_worker_spans(trace_dir) + tracer.spans()
    finally:
        bench.stop()
    per_pass = [trace.pass_metrics(trace.spans_in(spans, p["t0"], p["t1"]),
                                   p["wall"], bench.turns,
                                   p["lineage_records"])
                for p in traced]
    layer = trace.median_metrics(per_pass)
    metrics = {k: _metric(layer[k], u) for k, u in LAYER_UNITS.items()}
    metrics["driver.peak_rss_mb"] = _metric(
        statistics.median(p["driver_rss_mb"] for p in traced), "MB")
    untraced_tps = bench.turns_per_s(plain)
    traced_tps = bench.turns_per_s(traced)
    metrics["trace.untraced_turns_per_s"] = _metric(untraced_tps, "turns/s")
    metrics["trace.traced_turns_per_s"] = _metric(traced_tps, "turns/s")
    metrics["trace.overhead_turns_per_s"] = _metric(
        untraced_tps - traced_tps, "turns/s")
    return plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed)
    try:
        bench.prepare()
        if args.trace:
            passes, metrics = measure_traced(bench, args.seconds)
        else:
            passes, metrics = measure(bench, args.seconds)
    finally:
        bench.close()
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes if not p["failed"]}
    if len(digests) > 1:
        log(f"passes disagree: output digests {sorted(digests)}")
        failed = len(passes)
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
