"""Reference outputs from ``pipelines.oracle_sql`` and the output check.

The oracle is DuckDB SQL over the same Parquet the pipeline reads.  All
oracle queries share one prelude (parse → enrich → assemble → decide →
winners), so the prelude's ``decided`` and ``winners`` relations are
materialised once and every query body runs against them.  Results are
cached on disk keyed by the input's content digest plus
``config_hash()``: the clustered and shuffled layouts of one seed hold
the same rows and share an entry.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from asserts_otel_processor_ray.config import PipelineConfig
from asserts_otel_processor_ray.pipelines import oracle_sql

# pipeline output name → oracle query
SINK_QUERIES = {"error": "t_routed_error", "slow": "t_routed_slow",
                "normal": "t_routed_normal"}
AGG_QUERIES = {"trace_count": "t_agg_trace_count",
               "span_count": "t_agg_span_count",
               "trace_sampled_count": "t_agg_sampled_count",
               "span_sampled_count": "t_agg_span_sampled",
               "latency_hist": "t_agg_latency_hist"}


def output_names() -> dict[str, str]:
    """out_dir subdirectory → oracle query, for every checked output."""
    names = dict(SINK_QUERIES)
    names.update({f"metrics-{k}": q for k, q in AGG_QUERIES.items()})
    return names


def _compute(parquet_dir: str, config: PipelineConfig) -> dict[str, pa.Table]:
    import duckdb

    pattern = os.path.join(os.path.abspath(parquet_dir), "*.parquet")
    src = "read_parquet('" + pattern.replace("'", "''") + "')"
    queries = oracle_sql.build_oracle_queries(config, src)
    prelude = oracle_sql.full_prelude(config, src)
    decided_prefix = ("WITH" + oracle_sql.parse_cte(config, src) + ","
                      + oracle_sql.enrich_cte(config) + ","
                      + oracle_sql.assemble_cte(config) + ","
                      + oracle_sql.decide_cte(config))
    winners = oracle_sql.winners_cte(config)
    if prelude != decided_prefix + "," + winners:
        raise RuntimeError("oracle_sql.full_prelude is no longer "
                           "parse/enrich/assemble/decide/winners")
    head = ("WITH decided AS (SELECT * FROM o_decided), "
            "winners AS (SELECT * FROM o_winners)")
    con = duckdb.connect()
    try:
        con.execute("CREATE TEMP TABLE o_decided AS " + decided_prefix
                    + " SELECT * FROM decided")
        con.execute("CREATE TEMP TABLE o_winners AS WITH decided AS "
                    "(SELECT * FROM o_decided)," + winners
                    + " SELECT * FROM winners")
        out = {}
        for name, qname in output_names().items():
            sql = queries[qname]
            if not sql.startswith(prelude):
                raise RuntimeError(f"{qname} does not start with the "
                                   "shared oracle prelude")
            out[name] = con.execute(head + sql[len(prelude):]).arrow()
        return out
    finally:
        con.close()


def expected_outputs(parquet_dir: str, config: PipelineConfig,
                     input_digest: str, cache_root: str
                     ) -> dict[str, pa.Table]:
    """Oracle tables for ``parquet_dir``, from the cache when present."""
    key = hashlib.sha256(
        f"{input_digest}|{config.config_hash()}".encode()).hexdigest()[:16]
    cdir = os.path.join(cache_root, key)
    names = output_names()
    if all(os.path.exists(os.path.join(cdir, n + ".parquet"))
           for n in names):
        return {n: pq.read_table(os.path.join(cdir, n + ".parquet"))
                for n in names}
    out = _compute(parquet_dir, config)
    tmp = cdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for n, t in out.items():
        pq.write_table(t, os.path.join(tmp, n + ".parquet"))
    shutil.rmtree(cdir, ignore_errors=True)
    os.rename(tmp, cdir)
    return out


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Canonical form for comparison: sorted columns and rows, strings
    as pandas strings, timestamps as int64 µs, floats to 9 decimals."""
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype("string")
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("int64")
        if df[c].dtype == np.float64:
            df[c] = df[c].round(9)
        if str(df[c].dtype) in ("int8", "int16", "int32", "uint32"):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype) == "boolean" or df[c].dtype == bool:
            df[c] = df[c].astype("boolean")
    return df.sort_values(list(df.columns), ignore_index=True)


def read_outputs(out_dir: str) -> dict[str, pd.DataFrame]:
    """Every checked output the pass left in ``out_dir``, normalized."""
    out = {}
    for name in output_names():
        d = os.path.join(out_dir, name)
        files = (sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
                 if os.path.isdir(d) else [])
        tbls = [pq.read_table(os.path.join(d, f)) for f in files]
        tbls = [t for t in tbls if t.num_rows] or tbls
        out[name] = (normalize(pa.concat_tables(
            tbls, promote_options="permissive").to_pandas())
            if tbls else None)
    return out


def mismatches(actual: dict[str, pd.DataFrame | None],
               expected: dict[str, pa.Table]) -> list[str]:
    """Names of outputs that differ from the oracle (empty when equal)."""
    bad = []
    for name, exp_tbl in expected.items():
        got = actual.get(name)
        exp = normalize(exp_tbl.to_pandas())
        if got is None:
            if len(exp):
                bad.append(f"{name}: missing, oracle has {len(exp)} rows")
            continue
        if set(got.columns) != set(exp.columns) or len(got) != len(exp):
            bad.append(f"{name}: {len(got)} rows {sorted(got.columns)} vs "
                       f"oracle {len(exp)} rows {sorted(exp.columns)}")
            continue
        try:
            pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        except AssertionError as ex:
            bad.append(f"{name}: {str(ex).splitlines()[0]}")
    return bad


def outputs_digest(actual: dict[str, pd.DataFrame | None]) -> str:
    h = hashlib.sha256()
    for name in sorted(actual):
        df = actual[name]
        h.update(name.encode())
        if df is not None:
            h.update(",".join(df.columns).encode())
            h.update(pd.util.hash_pandas_object(
                df, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]
