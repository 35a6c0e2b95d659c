"""Self-tests of the benchmark itself, on a small input.

    python3 perfbench/selftest.py

* the same seed gives identical output digests across two passes;
* a different seed changes the input digest (the layout does not);
* the spans of a traced pass cover every input turn, and their self
  times add up to no more than the pass wall.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run, trace, workloads  # noqa: E402

SMALL = workloads.Workload("selftest", 5_000, "clustered")


def test_seed_changes_input_digest() -> None:
    a = workloads.canonical_table(SMALL.turns, 1)
    b = workloads.canonical_table(SMALL.turns, 2)
    assert workloads.table_digest(a) == workloads.table_digest(
        workloads.canonical_table(SMALL.turns, 1))
    assert workloads.table_digest(a) != workloads.table_digest(b)
    shuffled = workloads.lay_out(a, "shuffled", 1)
    assert shuffled.num_rows == a.num_rows
    assert workloads.table_digest(shuffled) != workloads.table_digest(a)


def test_same_seed_same_output_digests() -> None:
    bench = run.Bench(SMALL, seed=7)
    try:
        bench.prepare()
        bench.start()
        passes = bench.run_passes(0.0, min_passes=2)
    finally:
        bench.close()
    assert len(passes) == 2
    assert not any(p["failed"] for p in passes), "outputs differ from oracle"
    assert passes[0]["digest"] and passes[0]["digest"] == passes[1]["digest"]


def test_span_self_times_within_wall() -> None:
    bench = run.Bench(SMALL, seed=8)
    try:
        bench.prepare()
        trace_dir = os.path.join(bench.run_dir, "trace")
        os.makedirs(trace_dir)
        bench.start(trace_dir)
        with trace.DriverTracer() as tracer:
            passes = bench.run_passes(0.0, min_passes=1)
        spans = trace.collect_worker_spans(trace_dir) + tracer.spans()
    finally:
        bench.close()
    p = passes[0]
    assert not p["failed"]
    m = trace.pass_metrics(trace.spans_in(spans, p["t0"], p["t1"]),
                           p["wall"], bench.turns, p["lineage_records"])
    assert m["parse.rows_in"] == bench.turns, (m["parse.rows_in"],
                                               bench.turns)
    assert 0 < m["layers.self_s"] <= p["wall"], (m["layers.self_s"],
                                                 p["wall"])
    assert m["ray.overhead_s"] >= 0


def main() -> int:
    tests = [test_seed_changes_input_digest,
             test_same_seed_same_output_digests,
             test_span_self_times_within_wall]
    failed = 0
    for t in tests:
        try:
            t()
        except AssertionError as ex:
            failed += 1
            print(f"FAIL {t.__name__}: {ex}", flush=True)
        else:
            print(f"ok   {t.__name__}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
