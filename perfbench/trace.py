"""Layer spans for the traced run (``--trace 1``).

No package file changes: the benchmark wraps the package's entry points
from outside, for the traced passes only.

* Driver side, ``DriverTracer`` wraps the driver's calls into
  ``pipelines.pipeline`` and ``state.checkpoint``.
* Worker side, ``setup_worker`` is a Ray ``worker_process_setup_hook``
  that wraps, in every worker process, the stage entry points (parse,
  enrich, assemble, decide, route join, winner-row scan), the collector
  push, the Parquet writers and the tasks of Ray's sort exchange.

A span records its name, start, end, self time (its duration minus the
spans it encloses in the same thread) and counts taken at the layer
boundary.  Spans stay in memory.  When the run ends the driver writes a
flush request to a control file; a daemon thread in each worker polls
that file and writes the worker's spans out, so nothing is written while
a pass is timed.  A worker that exits earlier writes its spans at exit.
"""

from __future__ import annotations

import atexit
import functools
import glob
import json
import os
import statistics
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_CONTROL = "control"
_POLL_S = 0.2

# Spans whose time is spent inside the program's own layers.  The rest
# ("plan.*", "sink.*") are driver calls that mostly wait on Ray; they
# are recorded for context and never summed.
_LEAF = {"parse", "enrich", "assemble", "decide", "partials", "route",
         "route.winner_rows", "collector.push", "partition.sort", "write",
         "driver.merge"}


class Recorder:
    """Spans of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  ``count(args,
        out)`` returns counts for the span, taken after the clock stops."""
        stack = self._stack()
        frame = [0.0, {}]                 # time of enclosed spans, counts
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
        counts = frame[1]
        if count is not None:
            for k, v in count(args, out).items():
                counts[k] = counts.get(k, 0) + v
        self.spans.append([name, t0, t1, t1 - t0 - frame[0], counts])
        return out

    def add(self, key: str, n: int) -> None:
        """Add ``n`` to a count of the innermost open span."""
        stack = self._stack()
        if stack:
            c = stack[-1][1]
            c[key] = c.get(key, 0) + n

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


# The recorder of this process: a worker setup hook has no caller to
# hand an object to, so each process keeps one here.
_REC: Recorder | None = None


def _call(name: str, fn, args: tuple, kwargs: dict, count=None):
    rec = _REC
    if rec is None:
        return fn(*args, **kwargs)
    return rec.call(name, fn, args, kwargs, count)


def _rows(args, out) -> dict:
    return {"rows_in": args[1].num_rows, "rows_out": out.num_rows}


def _nbytes(x) -> int:
    if isinstance(x, (tuple, list)):
        return sum(_nbytes(v) for v in x)
    return int(getattr(x, "nbytes", 0))


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        static = isinstance(raw, staticmethod)
        orig = raw.__func__ if static else raw

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            return _call(name, orig, args, kwargs, count)
        self.set(owner, attr, staticmethod(wrapped) if static else wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---- worker side ---------------------------------------------------------

class _RegexCounter:
    """Stands in for ``pyarrow.compute`` inside stages.enrich and counts
    the values each rule regex runs on."""

    def __init__(self, pc):
        self._pc = pc

    def __getattr__(self, name):
        return getattr(self._pc, name)

    def match_substring_regex(self, values, *args, **kwargs):
        if _REC is not None:
            _REC.add("regex_inputs", len(values))
        return self._pc.match_substring_regex(values, *args, **kwargs)


def _push(orig):
    """collector.add_many_sharded returns the actor-call refs and the
    caller waits on them at once; the span waits here so it covers the
    whole round trip."""
    import ray

    @functools.wraps(orig)
    def wrapped(collectors, items):
        def push():
            refs = orig(collectors, items)
            if refs:
                ray.wait(refs, num_returns=len(refs))
            return refs
        return _call("collector.push", push, (), {},
                     lambda a, out: {"pushes": 1, "payload_bytes": sum(
                         _nbytes(p) for _, _, p in items)})
    return wrapped


def _datasink_write(orig):
    """ParquetDatasink._write_parquet_files: files and bytes are the new
    entries of the target directory."""
    @functools.wraps(orig)
    def wrapped(self, tables, *args, **kwargs):
        path = self.path
        before = set(os.listdir(path)) if os.path.isdir(path) else set()

        def count(a, out):
            new = set(os.listdir(path)) - before
            return {"files": len(new),
                    "bytes": sum(os.path.getsize(os.path.join(path, f))
                                 for f in new),
                    "rows": sum(t.num_rows for t in tables)}
        return _call("write", orig, (self, tables, *args), kwargs, count)
    return wrapped


def _write_table_count(args, out) -> dict:
    where = args[1] if len(args) > 1 else None
    size = (os.path.getsize(where)
            if isinstance(where, str) and os.path.exists(where) else 0)
    return {"files": 1, "bytes": size, "rows": args[0].num_rows}


def _sort_map_count(args, out) -> dict:
    return {"exchanged_bytes": sum(_nbytes(b) for b in out[:-1])}


def install_worker_patches() -> _Patches:
    import pyarrow.parquet as pq
    from ray.data._internal.datasource.parquet_datasink import (
        ParquetDatasink)
    from ray.data._internal.planner.exchange.sort_task_spec import (
        SortTaskSpec)

    from asserts_otel_processor_ray.stages import classify, enrich, parse
    from asserts_otel_processor_ray.stages import route
    from asserts_otel_processor_ray.state import collector

    p = _Patches()
    p.wrap(parse.ParseStage, "__call__", "parse", _rows)
    p.wrap(enrich.EnrichStage, "__call__", "enrich", _rows)
    p.set(enrich, "pc", _RegexCounter(enrich.pc))
    p.wrap(classify.AssembleStage, "__call__", "assemble", _rows)
    p.wrap(classify.DecideStage, "__call__", "decide", _rows)
    p.wrap(route.RouteJoinStage, "__call__", "route", _rows)
    p.wrap(route, "winner_rows_table", "route.winner_rows")
    p.set(collector, "add_many_sharded", _push(collector.add_many_sharded))
    p.wrap(pq, "write_table", "write", _write_table_count)
    p.set(ParquetDatasink, "_write_parquet_files",
          _datasink_write(ParquetDatasink._write_parquet_files))
    p.wrap(SortTaskSpec, "map", "partition.sort", _sort_map_count)
    p.wrap(SortTaskSpec, "reduce", "partition.sort")
    return p


def _dump(rec: Recorder, trace_dir: str, tag: str) -> None:
    spans = rec.take()
    final = os.path.join(trace_dir, f"spans-{os.getpid()}-{tag}.json")
    with open(final + ".tmp", "w") as f:
        json.dump(spans, f)
    os.rename(final + ".tmp", final)


def _control_loop(rec: Recorder, trace_dir: str) -> None:
    path = os.path.join(trace_dir, _CONTROL)
    done = None
    while True:
        time.sleep(_POLL_S)
        try:
            with open(path) as f:
                cmd = f.read().split()
        except OSError:
            continue
        if len(cmd) == 2 and cmd[0] == "flush" and cmd[1] != done:
            done = cmd[1]
            _dump(rec, trace_dir, done)


def setup_worker() -> None:
    """Ray ``worker_process_setup_hook``: start recording in this worker."""
    global _REC
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _REC is not None:
        return
    _REC = Recorder()
    install_worker_patches()
    atexit.register(_dump, _REC, trace_dir, "exit")
    threading.Thread(target=_control_loop, args=(_REC, trace_dir),
                     daemon=True).start()
    with open(os.path.join(trace_dir, f"hello-{os.getpid()}"), "w"):
        pass


def collect_worker_spans(trace_dir: str, timeout: float = 30.0
                         ) -> list[list]:
    """Ask every worker that ran ``setup_worker`` to write its spans out,
    wait for them, and return all worker spans written so far, each with
    the worker's pid appended."""
    from perfbench.procmem import is_running

    tag = str(time.time_ns())
    ctl = os.path.join(trace_dir, _CONTROL)
    with open(ctl + ".tmp", "w") as f:
        f.write(f"flush {tag}\n")
    os.rename(ctl + ".tmp", ctl)
    pids = [int(os.path.basename(h)[len("hello-"):])
            for h in glob.glob(os.path.join(trace_dir, "hello-*"))]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        waiting = [p for p in pids if is_running(p) and not os.path.exists(
            os.path.join(trace_dir, f"spans-{p}-{tag}.json"))]
        if not waiting:
            break
        time.sleep(0.1)
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        pid = int(os.path.basename(path).split("-")[1])
        with open(path) as f:
            spans.extend(s + [pid] for s in json.load(f))
    return spans


# ---- driver side ---------------------------------------------------------

def _partials_fn(orig):
    """pipeline._winner_partials_fn builds the per-block winner/histogram
    partial function on the driver and ships it to the workers inside
    the decide closure; wrap the function it returns."""
    @functools.wraps(orig)
    def make(*args, **kwargs):
        fn = orig(*args, **kwargs)

        def partials(t):
            return _call("partials", fn, (t,), {},
                         lambda a, out: {"rows": out.num_rows})
        return partials
    return make


class DriverTracer:
    """Context manager: record the driver's spans while it is active."""

    def __init__(self):
        self.recorder = Recorder()
        self._patches = _Patches()

    def __enter__(self) -> "DriverTracer":
        global _REC
        import pyarrow.parquet as pq

        from asserts_otel_processor_ray.pipelines import pipeline
        from asserts_otel_processor_ray.stages import classify
        from asserts_otel_processor_ray.state import checkpoint

        p = self._patches
        p.wrap(pipeline, "build_decided_ex", "plan.decided")
        p.wrap(pipeline, "build_routed_ex", "plan.routed")
        p.wrap(pipeline, "_reduce_winhist", "driver.merge")
        p.wrap(pipeline, "_finish_winners", "driver.merge")
        p.set(pipeline, "_winner_partials_fn",
              _partials_fn(pipeline._winner_partials_fn))
        p.wrap(checkpoint, "checkpoint_dataset", "sink.dataset")
        p.wrap(checkpoint, "checkpoint_table", "sink.table")
        # on the driver, assemble runs only to repair the conversations
        # that straddle block boundaries
        p.wrap(classify.AssembleStage, "__call__", "assemble", _rows)
        p.wrap(pq, "write_table", "write", _write_table_count)
        _REC = self.recorder
        return self

    def __exit__(self, *exc) -> None:
        global _REC
        _REC = None
        self._patches.undo()

    def spans(self) -> list[list]:
        """The driver's spans, each with "driver" appended."""
        return [s + ["driver"] for s in self.recorder.spans]


# ---- per-layer metrics ---------------------------------------------------

def _sum(spans, name, key=None) -> float:
    return sum((s["counts"].get(key, 0) if key else s["self"])
               for s in spans if s["name"] == name)


def pass_metrics(spans: list[dict], wall: float, turns: int,
                 lineage_records: int) -> dict[str, float]:
    """Per-layer metrics of one pass from the spans that fall inside it.
    Each span is a dict with name, proc ("driver" or a worker pid),
    self (seconds) and counts."""
    drv = [s for s in spans if s["proc"] == "driver"]
    wrk = [s for s in spans if s["proc"] != "driver"]
    m: dict[str, float] = {}
    m["parse.busy_s"] = _sum(spans, "parse")
    m["parse.rows_in"] = _sum(spans, "parse", "rows_in")
    m["parse.rows_out"] = _sum(spans, "parse", "rows_out")
    m["enrich.busy_s"] = _sum(spans, "enrich")
    enrich_rows = _sum(spans, "enrich", "rows_in")
    m["enrich.rows_in"] = enrich_rows
    m["enrich.regex_inputs"] = _sum(spans, "enrich", "regex_inputs")
    m["enrich.regex_input_ratio"] = (m["enrich.regex_inputs"] / enrich_rows
                                     if enrich_rows else 0.0)
    m["partition.sort_s"] = _sum(spans, "partition.sort")
    m["partition.exchanged_bytes"] = _sum(spans, "partition.sort",
                                          "exchanged_bytes")
    m["partition.edge_rows"] = _sum(drv, "assemble", "rows_in")
    m["assemble.busy_s"] = _sum(spans, "assemble")
    m["decide.busy_s"] = _sum(spans, "decide")
    m["partials.busy_s"] = _sum(spans, "partials")
    m["partials.rows"] = _sum(spans, "partials", "rows")
    m["driver.merge_s"] = _sum(spans, "driver.merge")
    m["collector.pushes"] = _sum(spans, "collector.push", "pushes")
    m["collector.push_wait_s"] = _sum(spans, "collector.push")
    m["collector.payload_bytes"] = _sum(spans, "collector.push",
                                        "payload_bytes")
    scanned = _sum(wrk, "route", "rows_in")
    m["route.rows_scanned"] = scanned
    m["route.rows_kept"] = _sum(wrk, "route", "rows_out")
    m["route.keep_ratio"] = m["route.rows_kept"] / scanned if scanned else 0.0
    m["route.busy_s"] = (_sum(spans, "route")
                         + _sum(spans, "route.winner_rows"))
    # the reader-side conv_id filter keeps non-winner rows out of the
    # route scan; without it the scan sees every input turn
    m["route.pushdown"] = 1.0 if scanned < turns else 0.0
    files = _sum(spans, "write", "files")
    m["write.busy_s"] = _sum(spans, "write")
    m["write.files"] = files
    m["write.bytes"] = _sum(spans, "write", "bytes")
    m["write.rows_per_file"] = (_sum(spans, "write", "rows") / files
                                if files else 0.0)
    m["lineage.records"] = float(lineage_records)
    layer_self = sum(s["self"] for s in spans if s["name"] in _LEAF)
    m["layers.self_s"] = layer_self
    m["ray.overhead_s"] = wall - layer_self
    return m


def spans_in(spans: list[list], t0: float, t1: float) -> list[dict]:
    """Spans that started and ended inside [t0, t1], as dicts."""
    return [{"name": s[0], "t0": s[1], "t1": s[2], "self": s[3],
             "counts": s[4], "proc": s[5]}
            for s in spans if s[1] >= t0 and s[2] <= t1]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass)
            for k in per_pass[0]}
