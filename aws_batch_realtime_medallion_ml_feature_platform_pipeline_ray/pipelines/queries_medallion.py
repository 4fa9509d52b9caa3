"""The full medallion stream pipeline as an oracle-checked query.

``medallion_stream`` deterministically synthesizes a bronze transcript
table (seeded; size scales with the sf dir), runs the complete
bronze→silver→gold stream job (at most one keyed exchange — none for a
one-block bronze — per-partition atomic writes, lineage manifests), and
returns the gold layer. The oracle SQL reads the
*same bronze parquet files* via read_parquet() and recomputes the gold
semantics in DuckDB — full value-hash parity for the flagship pipeline.

``ndjson_ingest`` checks the gzip-NDJSON ingest path (reference S1)
against DuckDB's read_ndjson of the same files.
"""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow as pa

from ..sources.transcripts import generate_transcripts, write_bronze
from ..sources.ndjson import (
    read_csv_transcripts,
    read_ndjson_transcripts,
    write_csv,
    write_ndjson_gz,
)
from .medallion import run_stream

PROCESSED_AT = "2024-02-01T00:00:00"
SEED = 1234


def bronze_fixture_dir(sf_dir: str = "") -> str:
    """Deterministic bronze transcripts, created once under /tmp; content
    is a pure function of SEED (independent of sf so the queries() run and
    the oracle SQL always see the same files)."""
    n_convs = 800
    d = "/tmp/medallion_fixture/default/bronze"
    marker = os.path.join(d, "_complete.json")
    if not os.path.exists(marker):
        if os.path.isdir(d):
            shutil.rmtree(d)
        tbl = generate_transcripts(
            n_convs=n_convs,
            avg_turns=25,
            seed=SEED,
            dup_frac=0.02,
            null_frac=0.01,
            empty_text_frac=0.01,
            late_frac=0.05,
        )
        write_bronze(tbl, d, rows_per_file=200_000)
        with open(marker, "w") as f:
            f.write("{}")
    return d


def q_medallion_stream(sf_dir: str):
    import ray.data as rd

    bronze = bronze_fixture_dir(sf_dir)
    out = "/tmp/medallion_fixture/default/lake"
    if os.path.isdir(out):
        shutil.rmtree(out)
    run_stream(bronze, out, run_id="ci", processed_at=PROCESSED_AT, num_parts=8)
    # drop the hive-style `part=` partition column the reader infers
    # (`dt=` resolves to the identical in-file dt column, no duplicate)
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "data.parquet")))
    ).drop_columns(["part"])


def medallion_oracle_sql(sf_dir: str = "") -> str:
    bronze = bronze_fixture_dir()
    return f"""
WITH src AS (
    SELECT conv_id, turn_idx, role, text, tool, ts FROM (
        SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                     ORDER BY ts, ingest_ts) AS rn
        FROM read_parquet('{bronze}/*.parquet')
        WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL AND ts IS NOT NULL
            AND length(text) > 0
    ) WHERE rn = 1
),
f AS (
    SELECT conv_id, turn_idx, role, tool, text, ts,
        strftime(ts, '%Y-%m-%d') AS dt,
        CAST(epoch_us(ts) AS DOUBLE) / 1000000 AS event_time,
        count(*) OVER w1h AS turns_1h,
        CAST(sum(length(text)) OVER w1h AS DOUBLE) AS chars_1h,
        count(DISTINCT tool) OVER w24h AS tool_count_24h,
        CAST(sum(length(text)) OVER w7d AS DOUBLE)
            / count(*) OVER w7d AS avg_chars_7d,
        count(CASE WHEN role = 'user' THEN 1 END) OVER w1h AS user_turns_1h,
        count(CASE WHEN role = 'assistant' THEN 1 END) OVER w1h AS assistant_turns_1h,
        lag(ts) OVER wo AS lag1_ts,
        lead(ts) OVER wo AS lead1_ts,
        epoch_us(ts) - lag(epoch_us(ts)) OVER wo AS gap_us
    FROM src
    WINDOW
        w1h AS (PARTITION BY conv_id ORDER BY ts
                RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW),
        w24h AS (PARTITION BY conv_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW),
        w7d AS (PARTITION BY conv_id ORDER BY ts
                RANGE BETWEEN INTERVAL 7 DAYS PRECEDING AND CURRENT ROW),
        wo AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
),
sess AS (
    SELECT *,
        CAST(gap_us AS DOUBLE) / 1000000 AS gap_s,
        CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > 1800000000 THEN 1 ELSE 0 END)
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
    FROM f
)
SELECT conv_id, turn_idx, role, tool, text, ts, dt, event_time,
    turns_1h, chars_1h, tool_count_24h, avg_chars_7d,
    user_turns_1h, assistant_turns_1h,
    lag1_ts, lead1_ts, gap_s, session_id,
    CAST(row_number() OVER (PARTITION BY conv_id, session_id
                            ORDER BY ts, turn_idx) - 1 AS INTEGER)
        AS session_turn_idx
FROM sess
"""


NDJSON_SEED = 77


def _ndjson_dir(sf_dir: str = "") -> str:
    d = "/tmp/medallion_fixture/default/ndjson"
    marker = os.path.join(d, "_complete.json")
    if not os.path.exists(marker):
        if os.path.isdir(d):
            shutil.rmtree(d)
        tbl = generate_transcripts(n_convs=60, avg_turns=20, seed=NDJSON_SEED)
        write_ndjson_gz(tbl, d, rows_per_file=2000)
        with open(marker, "w") as f:
            f.write("{}")
    return d


def q_ndjson_ingest(sf_dir: str):
    ds = read_ndjson_transcripts(_ndjson_dir(sf_dir))
    return ds.map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "role", "text", "tool", "ts"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def ndjson_oracle_sql(sf_dir: str = "") -> str:
    d = _ndjson_dir()
    return f"""
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool,
       CAST(ts AS TIMESTAMP) AS ts
FROM read_ndjson('{d}/*.json.gz')
"""


def q_medallion_incremental(sf_dir: str):
    """The streaming path: the same bronze fixture split into two ingest
    windows (by ingest_ts median — late turns land in window 2), run
    through the stream plan with cross-run session/window state and read
    back from the one gold layout. Shares the medallion oracle SQL: two
    windowed runs must equal the single full-history run bit-for-bit."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .incremental import read_gold_incremental, run_stream_incremental

    bronze = bronze_fixture_dir(sf_dir)
    base = "/tmp/medallion_fixture/default/inc"
    if os.path.isdir(base):
        shutil.rmtree(base)
    tbl = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(bronze, "*.parquet")))]
    )
    ing = np.asarray(tbl["ingest_ts"].combine_chunks().cast(pa.int64()))
    cut = int(np.median(ing))
    for i, mask in enumerate([ing <= cut, ing > cut]):
        d = os.path.join(base, f"bronze_{i}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(tbl.filter(pa.array(mask)), os.path.join(d, "part-0.parquet"))
    out = os.path.join(base, "lake")
    for i in range(2):
        run_stream_incremental(
            os.path.join(base, f"bronze_{i}"),
            out,
            run_id=f"inc{i}",
            run_seq=i,
            processed_at=PROCESSED_AT,
            num_parts=8,
        )
    return read_gold_incremental(out)


EVO_SEED = 91


def _evo_dir(sf_dir: str = "") -> str:
    """Schema-evolution fixture: generation 1 parquet lacks the ``tool``
    column (pre-migration writer); generation 2 has the full schema —
    the heterogeneous-file lake every long-lived pipeline accumulates."""
    d = "/tmp/medallion_fixture/default/evo"
    marker = os.path.join(d, "_complete.json")
    if not os.path.exists(marker):
        import pyarrow.parquet as pq

        if os.path.isdir(d):
            shutil.rmtree(d)
        os.makedirs(d, exist_ok=True)
        tbl = generate_transcripts(n_convs=60, avg_turns=20, seed=EVO_SEED)
        half = tbl.num_rows // 2
        pq.write_table(
            tbl.slice(0, half).drop_columns(["tool"]),
            os.path.join(d, "gen1.parquet"),
        )
        pq.write_table(tbl.slice(half), os.path.join(d, "gen2.parquet"))
        with open(marker, "w") as f:
            f.write("{}")
    return d


def q_schema_evolution_read(sf_dir: str):
    """Union-by-name read over a lake whose files span a schema migration
    (S2 extension): each generation is read with its own schema, aligned
    to the union schema with typed nulls for absent columns (the same
    ``_align`` machinery the cogroup exchange uses), and unioned — no
    rewrite of old files, no Python rows. Missing ``tool`` surfaces as
    NULL exactly like the SQL twin's ``union_by_name=true``."""
    import ray.data as rd

    d = _evo_dir()
    gen1 = rd.read_parquet(os.path.join(d, "gen1.parquet"))
    gen2 = rd.read_parquet(os.path.join(d, "gen2.parquet"))
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    types = {
        "conv_id": pa.string(),
        "turn_idx": pa.int32(),
        "role": pa.string(),
        "text": pa.string(),
        "tool": pa.string(),
        "ts": pa.timestamp("us"),
    }

    def align(t: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            out[c] = (
                t[c].combine_chunks().cast(types[c])
                if c in t.column_names
                else pa.nulls(t.num_rows, types[c])
            )
        return pa.table(out)

    a1 = gen1.map_batches(align, batch_format="pyarrow", zero_copy_batch=True)
    a2 = gen2.map_batches(align, batch_format="pyarrow", zero_copy_batch=True)
    return a1.union(a2)  # align already emits `cols` in order on both sides


def schema_evolution_oracle_sql(sf_dir: str = "") -> str:
    d = _evo_dir()
    return f"""
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool,
       CAST(ts AS TIMESTAMP) AS ts
FROM read_parquet('{d}/*.parquet', union_by_name=true)
"""


CSV_SEED = 78


def _csv_dir(sf_dir: str = "") -> str:
    d = "/tmp/medallion_fixture/default/csv"
    marker = os.path.join(d, "_complete.json")
    if not os.path.exists(marker):
        if os.path.isdir(d):
            shutil.rmtree(d)
        tbl = generate_transcripts(n_convs=60, avg_turns=20, seed=CSV_SEED)
        write_csv(tbl, d, rows_per_file=2000)
        with open(marker, "w") as f:
            f.write("{}")
    return d


def q_csv_ingest(sf_dir: str):
    """Headered-CSV ingest path (the other common landing-zone format):
    ``ray.data.read_csv`` with nullable strings, canonical schema casts.
    Oracle reads the SAME files via DuckDB read_csv — exact round trip."""
    ds = read_csv_transcripts(_csv_dir(sf_dir))
    return ds.map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "role", "text", "tool", "ts"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def csv_oracle_sql(sf_dir: str = "") -> str:
    d = _csv_dir()
    return f"""
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool,
       CAST(ts AS TIMESTAMP) AS ts
FROM read_csv('{d}/*.csv', header=true, allow_quoted_nulls=false)
"""


_LATE_EDGES_S = (60, 3600, 86400)  # <1m, <1h, <1d, >=1d


def q_bronze_lateness_profile(sf_dir: str):
    """Landing-zone lateness observability (reference Firehose semantics,
    S12): per event-time calendar day, how many bronze rows arrived
    within 1 minute / 1 hour / 1 day / later than a day of their event
    timestamp — the profile that sizes the backfill window and the
    incremental job's carried-state horizon.

    Scale shape: zero exchanges before the final O(days x 4) fold —
    per-batch integer bucketing (searchsorted over three edges) collapses
    each batch to day-bucket count partials."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..sources.reads import read_parquet_sized

    bronze = bronze_fixture_dir(sf_dir)
    files = sorted(glob.glob(os.path.join(bronze, "*.parquet")))
    ds = read_parquet_sized(files, columns=["ts", "ingest_ts"])

    us_day = 86_400_000_000
    edges = np.array([e * 1_000_000 for e in _LATE_EDGES_S], dtype=np.int64)
    labels = ["lt_1m", "lt_1h", "lt_1d", "ge_1d"]

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "dt_day": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.string()),
                "pn": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        mask = pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["ingest_ts"]))
        t = t.filter(mask)
        if t.num_rows == 0:
            return empty
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        ing = np.asarray(t["ingest_ts"].combine_chunks().cast(pa.int64()))
        late = ing - ts
        # side='left': first edge >= late, so bucket 0 <=> late <= 1m —
        # exactly the SQL twin's `late <= edge` CASE ladder
        b = np.searchsorted(edges, late, side="left")
        day = ts // us_day
        key = day * 4 + b
        uk, cn = np.unique(key, return_counts=True)
        return pa.table(
            {
                "dt_day": pa.array(uk // 4, pa.int64()),
                "bucket": pa.array([labels[int(x)] for x in uk % 4], pa.string()),
                "pn": pa.array(cn.astype(np.int64), pa.int64()),
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dt_day", "bucket"])
        .aggregate(Sum("pn", alias_name="n"))
        .take_all()
    )  # O(days x 4)
    folded.sort(key=lambda r: (r["dt_day"], r["bucket"]))
    days = np.array([r["dt_day"] for r in folded], dtype=np.int64)
    return pa.table(
        {
            "dt": pa.array(
                np.datetime_as_string(days.astype("datetime64[D]"), unit="D")
            ),
            "bucket": pa.array([r["bucket"] for r in folded], pa.string()),
            "n": pa.array([r["n"] for r in folded], pa.int64()),
        }
    )


def lateness_oracle_sql(sf_dir: str = "") -> str:
    bronze = bronze_fixture_dir()
    e1, e2, e3 = (e * 1_000_000 for e in _LATE_EDGES_S)
    return f"""
WITH b AS (
    SELECT CAST(ts AS DATE) AS day,
           epoch_us(ingest_ts) - epoch_us(ts) AS late
    FROM read_parquet('{bronze}/*.parquet')
    WHERE ts IS NOT NULL AND ingest_ts IS NOT NULL
)
SELECT strftime(day, '%Y-%m-%d') AS dt,
       CASE WHEN late <= {e1} THEN 'lt_1m'
            WHEN late <= {e2} THEN 'lt_1h'
            WHEN late <= {e3} THEN 'lt_1d'
            ELSE 'ge_1d' END AS bucket,
       count(*)::BIGINT AS n
FROM b GROUP BY 1, 2
"""


def build_registry() -> dict[str, tuple]:
    """Fixture content is a pure function of the seeds, so generating it
    at registry-build time is safe and idempotent."""
    return {
        "medallion_stream": (q_medallion_stream, medallion_oracle_sql()),
        "medallion_incremental": (q_medallion_incremental, medallion_oracle_sql()),
        "ndjson_ingest": (q_ndjson_ingest, ndjson_oracle_sql()),
        "csv_ingest": (q_csv_ingest, csv_oracle_sql()),
        "schema_evolution_read": (q_schema_evolution_read, schema_evolution_oracle_sql()),
        "bronze_lateness_profile": (
            q_bronze_lateness_profile,
            lateness_oracle_sql(),
        ),
    }
