"""Benchmark workloads and their seeded inputs.

Every input comes from ``sources.synthetic.generate_transcripts(turns,
seed)`` with the run's ``--seed``.  The inputs are written the way
``ensure_transcripts`` writes them (100k rows per file, 32,768-row
groups), but into the benchmark's own work directory:
``ensure_transcripts`` always uses seed 42 and caches by scale-factor
name, so it cannot give a seeded input.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from asserts_otel_processor_ray.sources.synthetic import generate_transcripts

ROWS_PER_FILE = 100_000
ROW_GROUP_SIZE = 32_768


@dataclass(frozen=True)
class Workload:
    name: str
    turns: int
    layout: str      # "clustered": conversations contiguous; "shuffled"


WORKLOADS = {w.name: w for w in (
    # conversation-clustered rows: the zero-exchange plan, sparse
    # winners (route filter pushdown on); parse/enrich kernels and Ray
    # orchestration are the whole pass
    Workload("clustered", 40_000, "clustered"),
    # the same rows permuted: the clustering proof fails, so the range
    # sort (the pipeline's only all-to-all exchange) runs
    Workload("shuffled", 40_000, "shuffled"),
)}


def canonical_table(turns: int, seed: int) -> pa.Table:
    """The generated rows in generation (conversation-clustered) order."""
    return generate_transcripts(turns, seed)


def table_digest(tbl: pa.Table) -> str:
    """Content digest of a table (Arrow IPC stream bytes)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as writer:
        writer.write_table(tbl)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:16]


def lay_out(tbl: pa.Table, layout: str, seed: int) -> pa.Table:
    if layout == "clustered":
        return tbl
    if layout == "shuffled":
        perm = np.random.default_rng([seed, 1]).permutation(tbl.num_rows)
        return tbl.take(pa.array(perm))
    raise ValueError(f"unknown layout {layout!r}")


def write_parquet_dir(tbl: pa.Table, path: str) -> None:
    """Replace ``path`` with ``tbl`` as numbered Parquet part files."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    for i, start in enumerate(range(0, tbl.num_rows, ROWS_PER_FILE)):
        pq.write_table(tbl.slice(start, ROWS_PER_FILE),
                       os.path.join(path, f"part-{i:05d}.parquet"),
                       row_group_size=ROW_GROUP_SIZE)
