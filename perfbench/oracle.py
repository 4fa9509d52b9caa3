"""Reference outputs and order-independent value digests.

A digest is ``"<rows>:<sum of row hashes mod 2**64>"`` over a canonical
pandas form of the table (columns sorted by name, timestamps as int64
microseconds, every numeric column as float64 with -0.0 folded into 0.0
and null as NaN). Equal digests mean equal multisets of rows,
independent of row order, chunking and numeric widths — the equivalence
the repository's oracle-parity tests check.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

PKG = "aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(data) -> pd.DataFrame:
    if isinstance(data, pd.DataFrame):
        return data
    return data.to_pandas()  # pa.Table, ray.data.Dataset


def _canon(col: pd.Series) -> pd.Series:
    if isinstance(col.dtype, pd.CategoricalDtype):
        col = col.astype(object)
    kind = col.dtype.kind
    if kind == "M":
        if getattr(col.dt, "tz", None) is not None:
            col = col.dt.tz_convert("UTC").dt.tz_localize(None)
        return pd.Series(col.to_numpy("datetime64[us]").view(np.int64))
    if kind == "m":
        return pd.Series(col.to_numpy("timedelta64[us]").view(np.int64))
    if pd.api.types.is_numeric_dtype(col.dtype) or pd.api.types.is_bool_dtype(col.dtype):
        # the parity tests compare any int/float pair as floats; fold
        # -0.0 into 0.0 and null into NaN the same way
        return pd.Series(col.to_numpy(np.float64, na_value=np.nan) + 0.0)
    return pd.Series([_hashable(v) for v in col], dtype=object)


def digest(data) -> str:
    """Digest of a ``pa.Table``, ``pd.DataFrame`` or Ray ``Dataset``."""
    df = _to_pandas(data)
    if len(df) == 0:
        return "0:0"
    canon = pd.DataFrame({n: _canon(df[n].reset_index(drop=True)) for n in sorted(df.columns)})
    h = pd.util.hash_pandas_object(canon, index=False).to_numpy(np.uint64)
    return f"{len(canon)}:{int(h.sum(dtype=np.uint64))}"


def _hashable(v):
    """Strings hash as themselves, nulls alike, nested values by repr."""
    if v is None or (isinstance(v, float) and np.isnan(v)) or v is pd.NaT:
        return None
    if isinstance(v, np.ndarray):
        return repr(v.tolist())
    if isinstance(v, (list, tuple, dict)):
        return repr(v)
    if isinstance(v, bytes):
        return v.decode("utf-8", "backslashreplace")
    return v if isinstance(v, str) else repr(v)


@contextlib.contextmanager
def _bronze_fixture(path: str):
    """Point the registry's medallion fixture at ``path`` so its oracle
    SQL reads the benchmark's bronze instead of building its own."""
    import importlib

    qm = importlib.import_module(f"{PKG}.pipelines.queries_medallion")
    orig = qm.bronze_fixture_dir
    qm.bronze_fixture_dir = lambda sf_dir="": path
    try:
        yield qm
    finally:
        qm.bronze_fixture_dir = orig


def gold_sql(bronze_dir: str) -> str:
    """The repository's ``medallion_oracle_sql`` over ``bronze_dir``."""
    with _bronze_fixture(bronze_dir) as qm:
        return qm.medallion_oracle_sql()


def gold_digest(bronze_dir: str) -> str:
    import duckdb

    with duckdb.connect() as con:
        return digest(con.execute(gold_sql(bronze_dir)).df())


def latest_per_conv(gold: pa.Table) -> dict[str, tuple]:
    """conv_id -> (ts, turn_idx) of the conversation's latest gold row."""
    df = gold.select(["conv_id", "ts", "turn_idx"]).to_pandas()
    df = df.sort_values(["conv_id", "ts", "turn_idx"]).drop_duplicates("conv_id", keep="last")
    return dict(zip(df["conv_id"], zip(df["ts"], df["turn_idx"])))


def sample_conv_ids(bronze: pa.Table, seed: int, n: int = 512) -> list[str]:
    """Lookup keys: mostly conversations that exist, plus ~10 % unknown
    ids (a cache-miss-like probe the store must answer empty)."""
    ids = pc.unique(bronze["conv_id"].drop_null()).to_pylist()
    rng = np.random.default_rng(seed)
    known = [ids[i] for i in rng.integers(0, len(ids), n - n // 10)]
    unknown = [f"conv_unknown_{i}" for i in range(n // 10)]
    out = known + unknown
    rng.shuffle(out)
    return out


def connect_tables(table_dir: str):
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(table_dir, t)}.parquet')"
        )
    return con


def query_digests(table_dir: str, names: list[str]) -> dict[str, str]:
    from .queries import registry

    reg = registry(names)
    with connect_tables(table_dir) as con:
        return {n: digest(con.execute(reg[n][1]).df()) for n in names}
