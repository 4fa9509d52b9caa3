"""Temporal feature/label operators: forward as-of (next-event label
join), per-entity running max, and a leak-free temporal holdout split.

The backward as-of join (stages/asof.py) is the anti-leakage FEATURE
join; its mirror image — the earliest right row with ``ts' >= ts`` — is
the LABEL join (next purchase / next failure / time-to-conversion) every
supervised pipeline over the reference's gold layer needs
(``/root/reference/spark_jobs/build_datasets.py:60-71`` derives labels
from a same-row flag; these operators generalize that to cross-row,
future-looking targets without a self-join blowup).

Oracle twins in DuckDB SQL (float policy: no arithmetic on doubles that
both sides don't perform identically — pass-through or max only).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.windows import segment_bounds, segmented_maximum_accumulate
from ..sources.reads import read_parquet_sized
from ..stages.asof import asof_join_broadcast, asof_join_partitioned
from ..stages.keyed import map_partitions_by_key

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts


# ---------------------------------------------------------------------------
# forward as-of: next-purchase label join
# ---------------------------------------------------------------------------

def _purchases_by_user_ts(sf_dir: str):
    """Right side: one row per (user_id, ts) over purchase events —
    pre-aggregated (count + max value) so the as-of match is
    deterministic under hypothetical ts ties. Type/column pruning pushed
    into the parquet read; ONE hash exchange; per-partition Arrow-native
    group_by."""
    import pyarrow.dataset as pads

    events = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value"],
        filter=pads.field("event_type") == "purchase",
    )

    def agg_partition(part: pa.Table) -> pa.Table:
        g = part.group_by(["user_id", "ts"]).aggregate(
            [("value", "count"), ("value", "max")]
        )
        return pa.table(
            {
                "user_id": g["user_id"],
                "next_ts": g["ts"].cast(pa.timestamp("us")),
                "n_nx": g["value_count"].cast(pa.int64()),
                "next_value": g["value_max"],
            }
        )

    return map_partitions_by_key(events, "user_id", agg_partition,
                                 num_parts=NUM_PARTS)


def q_asof_join_forward(sf_dir: str):
    """Forward as-of join, BOTH-SIDES-LARGE plan: for every event, the
    user's EARLIEST purchase at or after ``ts`` (next-purchase label: its
    timestamp, tie count and value). The right side (per-(user, ts)
    purchase state) grows with the data, so it stays distributed: ONE
    co-partitioning hash shuffle by ``user_id`` (stages/keyed.py
    cogroup), then the same vectorized segment-offset ``searchsorted``
    probe per partition with ``side="left"`` (stages/asof.py,
    direction="forward"). No driver collect anywhere — the broadcast
    small-state fast path lives on as ``asof_join_forward_bcast``."""
    return asof_join_partitioned(
        read_parquet_sized(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "value"],
        ),
        _purchases_by_user_ts(sf_dir),
        key="user_id",
        ts="next_ts",
        attach_cols=["next_ts", "n_nx", "next_value"],
        left_ts="ts",
        num_parts=NUM_PARTS,
        direction="forward",
    )


def q_asof_join_forward_bcast(sf_dir: str):
    """Forward as-of join, broadcast fast path (right side known small —
    e.g. a bounded per-entity state snapshot): pre-aggregated
    distributed, collected ONLY for the one ``ray.put``; per-batch probe
    identical to the partitioned plan. Use ``asof_join_forward`` when the
    right side scales with the data."""
    right = pa.Table.from_pandas(
        _purchases_by_user_ts(sf_dir).to_pandas(), preserve_index=False
    )
    return asof_join_broadcast(
        read_parquet_sized(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "value"],
        ),
        right,
        key="user_id",
        ts="next_ts",
        attach_cols=["next_ts", "n_nx", "next_value"],
        left_ts="ts",
        concurrency=2,
        direction="forward",
    )


ASOF_FORWARD_SQL = """
WITH p AS (
    SELECT user_id, ts AS next_ts,
           CAST(count(*) AS BIGINT) AS n_nx,
           max(value) AS next_value
    FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
)
SELECT e.event_id, e.ts, e.user_id, e.value,
       p.next_ts, p.n_nx, p.next_value
FROM events e
ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts <= p.next_ts
"""


# ---------------------------------------------------------------------------
# nearest as-of: closest-in-time state alignment
# ---------------------------------------------------------------------------

def _purchases_renamed_near(sf_dir: str):
    """Right side with nearest-join column names, still a Dataset —
    select by NAME first so the rename cannot silently mis-bind if the
    shared helper ever reorders/extends its output columns."""
    return _purchases_by_user_ts(sf_dir).map_batches(
        lambda t: t.select(["user_id", "next_ts", "n_nx", "next_value"])
        .rename_columns(["user_id", "near_ts", "n_near", "near_value"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_asof_join_nearest(sf_dir: str):
    """Nearest as-of join (pandas ``merge_asof(direction='nearest')``,
    sensor/clock alignment semantics), BOTH-SIDES-LARGE plan: for every
    event, the user's purchase state row minimizing ``|ts' - ts|``; an
    exact tie picks the EARLIER (backward) row — deterministic and
    leakage-conservative. The right side stays distributed through the
    one co-partitioning shuffle; per partition the probe is the backward
    + forward searchsorted pair with a vectorized distance pick
    (stages/asof.py, direction="nearest") — still O(log n) per left row,
    no driver collect. Broadcast fast path: ``asof_join_nearest_bcast``."""
    return asof_join_partitioned(
        read_parquet_sized(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "value"],
        ),
        _purchases_renamed_near(sf_dir),
        key="user_id",
        ts="near_ts",
        attach_cols=["near_ts", "n_near", "near_value"],
        left_ts="ts",
        num_parts=NUM_PARTS,
        direction="nearest",
    )


def q_asof_join_nearest_bcast(sf_dir: str):
    """Nearest as-of join, broadcast fast path (small bounded right
    side): one ``ray.put`` of the state table, per-batch probe identical
    to the partitioned plan."""
    right = (
        pa.Table.from_pandas(
            _purchases_by_user_ts(sf_dir).to_pandas(), preserve_index=False
        )
        .select(["user_id", "next_ts", "n_nx", "next_value"])
        .rename_columns(["user_id", "near_ts", "n_near", "near_value"])
    )
    return asof_join_broadcast(
        read_parquet_sized(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "value"],
        ),
        right,
        key="user_id",
        ts="near_ts",
        attach_cols=["near_ts", "n_near", "near_value"],
        left_ts="ts",
        concurrency=2,
        direction="nearest",
    )


# DuckDB has no nearest ASOF: take the backward and forward matches and
# pick the closer (tie -> backward), exactly the engine's rule.
ASOF_NEAREST_SQL = """
WITH p AS (
    SELECT user_id, ts AS m_ts,
           CAST(count(*) AS BIGINT) AS m_n,
           max(value) AS m_v
    FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
),
b AS (
    SELECT e.event_id, p.m_ts, p.m_n, p.m_v
    FROM events e
    ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts >= p.m_ts
),
f AS (
    SELECT e.event_id, p.m_ts, p.m_n, p.m_v
    FROM events e
    ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts <= p.m_ts
),
j AS (
    SELECT e.event_id, e.ts, e.user_id, e.value,
           b.m_ts AS b_ts, b.m_n AS b_n, b.m_v AS b_v,
           f.m_ts AS f_ts, f.m_n AS f_n, f.m_v AS f_v,
           (f.m_ts IS NULL OR (b.m_ts IS NOT NULL
                AND epoch_us(e.ts) - epoch_us(b.m_ts)
                    <= epoch_us(f.m_ts) - epoch_us(e.ts))) AS pickb
    FROM events e
    LEFT JOIN b ON e.event_id = b.event_id
    LEFT JOIN f ON e.event_id = f.event_id
)
SELECT event_id, ts, user_id, value,
       CASE WHEN pickb THEN b_ts ELSE f_ts END AS near_ts,
       CASE WHEN pickb THEN b_n  ELSE f_n  END AS n_near,
       CASE WHEN pickb THEN b_v  ELSE f_v  END AS near_value
FROM j
"""


# ---------------------------------------------------------------------------
# per-entity running max (cumulative window aggregate)
# ---------------------------------------------------------------------------

def q_features_cummax(sf_dir: str):
    """Running MAX(o_totalprice) per customer in (o_orderdate, o_orderkey)
    order — the cumulative-extreme companion to ``features_cumsum``
    ("biggest order so far" style features). ONE keyed exchange; per
    partition a single lexsort + the engine's segmented
    maximum-accumulate (integer cents, so the running max is bit-exact:
    max only ever SELECTS one of the original 2-decimal doubles and
    cents/100.0 round-trips exactly below 2^53)."""
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def partition(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "o_orderdate": pa.array([], pa.timestamp("us")),
                    "run_max": pa.array([], pa.float64()),
                }
            )
        cust = np.asarray(part["o_custkey"].combine_chunks().cast(pa.int64()))
        okey = np.asarray(part["o_orderkey"].combine_chunks().cast(pa.int64()))
        date_i = np.asarray(
            part["o_orderdate"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        )
        cents = np.asarray(
            pc.round(
                pc.multiply(part["o_totalprice"].combine_chunks(), 100.0)
            ).cast(pa.int64())
        )
        order = np.lexsort((okey, date_i, cust))
        cust_s = cust[order]
        seg_start = np.empty(len(cust_s), dtype=bool)
        seg_start[0] = True
        seg_start[1:] = cust_s[1:] != cust_s[:-1]
        run = segmented_maximum_accumulate(cents[order], seg_start)
        return pa.table(
            {
                "o_orderkey": pa.array(okey[order], pa.int64()),
                "o_custkey": pa.array(cust_s, pa.int64()),
                "o_orderdate": pa.array(date_i[order], pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "run_max": pa.array(run.astype(np.float64) / 100.0, pa.float64()),
            }
        )

    return map_partitions_by_key(orders, "o_custkey", partition,
                                 num_parts=NUM_PARTS)


FEATURES_CUMMAX_SQL = """
SELECT o_orderkey, o_custkey, o_orderdate,
       MAX(o_totalprice) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
       ) AS run_max
FROM orders
"""


# ---------------------------------------------------------------------------
# temporal holdout split (leak-free last-k-per-entity validation)
# ---------------------------------------------------------------------------

HOLDOUT_K = 2


def q_events_holdout_split(sf_dir: str):
    """Temporal holdout: each user's last ``HOLDOUT_K`` events (by ts,
    event_id desc) become the validation rows, everything earlier is
    train — the per-entity time-based split that, unlike the hash split
    (``train_split``), guarantees validation rows are strictly LATER than
    every training row of the same entity (no temporal leakage across the
    split). ONE keyed exchange; per partition a lexsort + vectorized
    rank-from-end off segment boundaries."""
    events = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def partition(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "split": pa.array([], pa.string()),
                }
            )
        user = np.asarray(part["user_id"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(part["event_id"].combine_chunks().cast(pa.int64()))
        ts_i = np.asarray(
            part["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        )
        order = np.lexsort((eid, ts_i, user))
        user_s = user[order]
        n = len(user_s)
        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = user_s[1:] != user_s[:-1]
        # last index of each row's segment, broadcast back to rows
        starts = np.flatnonzero(seg_start)
        ends = np.append(starts[1:], n) - 1  # inclusive
        seg_id = np.cumsum(seg_start) - 1
        rank_from_end = ends[seg_id] - np.arange(n)  # 0 = entity's last event
        split = np.where(rank_from_end < HOLDOUT_K, "validation", "train")
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(user_s, pa.int64()),
                "ts": pa.array(ts_i[order], pa.int64()).cast(pa.timestamp("us")),
                "split": pa.array(split, pa.string()),
            }
        )

    return map_partitions_by_key(events, "user_id", partition,
                                 num_parts=NUM_PARTS)


EVENTS_HOLDOUT_SQL = f"""
SELECT event_id, user_id, ts,
       CASE WHEN ROW_NUMBER() OVER (
                PARTITION BY user_id ORDER BY ts DESC, event_id DESC
            ) <= {HOLDOUT_K}
            THEN 'validation' ELSE 'train' END AS split
FROM events
"""


# ---------------------------------------------------------------------------
# windowed ingest dedup (at-least-once delivery suppression)
# ---------------------------------------------------------------------------

DEDUP_WINDOW_US = 3_600_000_000  # 1 h suppression buckets


def q_events_dedup_window(sf_dir: str):
    """Keep the first event per (user, type, 1-hour tumbling bucket) —
    the suppression step an at-least-once delivery stream (the
    reference's Kinesis/Firehose landing, S12) needs before feature
    counts: retries and replays of the same logical action within the
    window collapse to one row. ONE keyed exchange on user_id; per
    partition a single lexsort + segmented-first mask (the deterministic
    keep-first is (ts, event_id) order, mirroring dedup_exact's
    tie-break policy)."""
    events = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )

    def partition(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        user = np.asarray(part["user_id"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(part["event_id"].combine_chunks().cast(pa.int64()))
        ts_i = np.asarray(
            part["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        )
        etype = part["event_type"].combine_chunks()
        codes = np.asarray(pc.dictionary_encode(etype).indices).astype(np.int64)
        bucket = ts_i // DEDUP_WINDOW_US
        order = np.lexsort((eid, ts_i, bucket, codes, user))
        u_s, c_s, b_s = user[order], codes[order], bucket[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (
            (u_s[1:] != u_s[:-1])
            | (c_s[1:] != c_s[:-1])
            | (b_s[1:] != b_s[:-1])
        )
        keep = pa.array(order[first])
        return part.take(keep)

    return map_partitions_by_key(events, "user_id", partition,
                                 num_parts=NUM_PARTS)


EVENTS_DEDUP_WINDOW_SQL = f"""
SELECT event_id, user_id, event_type, ts FROM (
    SELECT *, row_number() OVER (
        PARTITION BY user_id, event_type,
                     epoch_us(ts) // {DEDUP_WINDOW_US}
        ORDER BY ts, event_id) AS rn
    FROM events
) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Rolling median: per-entity order-statistic ROWS window
# ---------------------------------------------------------------------------

ROLLMED_K = 5


def q_events_rolling_median(sf_dir: str):
    """Per-user rolling median of ``value`` over the last ``ROLLMED_K``
    events (ROWS frame, ordered by ``ts, event_id``) — the robust
    (outlier-immune) sibling of the rolling mean/sum family: an ORDER
    STATISTIC over a sliding window, which prefix-sum tricks can't
    compute.

    Plan: ONE keyed exchange on ``user_id``; per partition, a single
    lexsort orders every user's run, then the k window columns are built
    as k shifted views masked at segment starts (NaN-padded) — an
    (n × k) matrix sorted row-wise, so the median is two gathers + one
    interpolation, fully vectorized for fixed small k. Median of an even
    window mirrors DuckDB ``median()`` (``lower + (upper-lower)*0.5``);
    both sides round to 6 digits to absorb any 1-ulp interpolation
    drift on arbitrary doubles."""
    from ..functions.numeric import round6

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def med_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "med5": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        uid = np.asarray(t["user_id"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks().cast(pa.int64()))
        val = np.asarray(t["value"].combine_chunks()).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        us, es, vs = uid[order], eid[order], val[order]
        n = len(us)
        starts, _ends, seg_len = segment_bounds(us)
        seg_start_pos = np.repeat(starts, seg_len)
        p = np.arange(n, dtype=np.int64)
        cols = []
        for j in range(ROLLMED_K):
            idx = p - j
            ok = idx >= seg_start_pos
            cols.append(np.where(ok, vs[np.maximum(idx, 0)], np.nan))
        win = np.sort(np.stack(cols, axis=1), axis=1)  # NaNs sort last
        w = np.minimum(p - seg_start_pos + 1, ROLLMED_K)
        rows = np.arange(n)
        lower = win[rows, (w - 1) // 2]
        upper = win[rows, w // 2]
        med = round6(lower + (upper - lower) * 0.5)
        return pa.table(
            {
                "event_id": pa.array(es),
                "user_id": pa.array(us),
                "med5": pa.array(med, pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "user_id", med_part, num_parts=NUM_PARTS)


EVENTS_ROLLING_MEDIAN_SQL = f"""
SELECT event_id, user_id,
       ROUND(median(value) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN {ROLLMED_K - 1} PRECEDING AND CURRENT ROW
       ), 6) AS med5
FROM events
"""


# ---------------------------------------------------------------------------
# Time-weighted average (trapezoidal integration per entity)
# ---------------------------------------------------------------------------


def q_events_twa(sf_dir: str):
    """Per-user TIME-weighted average of ``value``: the trapezoidal
    integral of the value curve over the user's observation span,
    divided by the span — the standard irregular-sampling average
    (sensor/price feeds) that a plain mean gets wrong when events
    cluster. Users with zero span (a single event, or all ties) yield
    NULL, mirroring SQL.

    Plan: ONE keyed exchange on ``user_id``; per partition a single
    lexsort orders every user's run, adjacent-pair trapezoid terms
    ``(c_i + c_{i+1}) * dt_i`` accumulate per segment as EXACT int64
    (integer cents x microsecond gaps; headroom-guarded), and the one
    double division happens per user at the end — mirrored by HUGEINT
    sums in the SQL twin, so the quotient is the same double."""
    from ..functions.numeric import round6, round_half_away

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def twa_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "twa_cents": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        uid = np.asarray(t["user_id"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks().cast(pa.int64()))
        cents = round_half_away(
            np.asarray(t["value"].combine_chunks()) * 100.0
        ).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        us, tss, cs = uid[order], ts[order], cents[order]
        starts, ends, seg_len = segment_bounds(us)
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        # adjacent-pair terms within a segment
        pair = np.flatnonzero((seg_id[:-1] == seg_id[1:]))
        dt = tss[pair + 1] - tss[pair]
        csum = cs[pair] + cs[pair + 1]
        span = tss[ends - 1] - tss[starts]
        # a user's |num| is bounded by max|c_i + c_{i+1}| * span (the dt
        # terms telescope to the span) — exact int64 iff that product fits
        if len(pair) and int(np.abs(csum).max()) * int(span.max()) >= 2**63:
            raise OverflowError(
                "events_twa: trapezoid terms would overflow int64 — "
                "rescale cents or split spans"
            )
        num = np.zeros(len(starts), np.int64)
        np.add.at(num, seg_id[pair], csum * dt)
        twa = np.full(len(starts), np.nan)
        ok = span > 0
        twa[ok] = round6(
            num[ok].astype(np.float64) / (2 * span[ok]).astype(np.float64)
        )
        return pa.table(
            {
                "user_id": pa.array(us[starts], pa.int64()),
                "n": pa.array(seg_len.astype(np.int64)),
                "twa_cents": pa.array(twa, pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "user_id", twa_part, num_parts=NUM_PARTS)


EVENTS_TWA_SQL = """
WITH o AS (
    SELECT user_id, epoch_us(ts) AS t,
           CAST(ROUND(value * 100) AS HUGEINT) AS c,
           lead(epoch_us(ts)) OVER w AS nt,
           lead(CAST(ROUND(value * 100) AS HUGEINT)) OVER w AS nc
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
a AS (
    SELECT user_id,
           count(*)::BIGINT AS n,
           SUM(CASE WHEN nt IS NOT NULL THEN (c + nc) * (nt - t) END) AS num,
           (max(t) - min(t))::HUGEINT AS span
    FROM o GROUP BY 1
)
SELECT user_id, n,
       CASE WHEN span > 0
            THEN ROUND(num::DOUBLE / (2 * span)::DOUBLE, 6) END AS twa_cents
FROM a
"""


# ---------------------------------------------------------------------------
# Daily resampling with LOCF (irregular events -> regular feature grid)
# ---------------------------------------------------------------------------

_US_PER_DAY = 86_400_000_000


def q_events_resample_daily(sf_dir: str):
    """Resample each user's irregular event stream onto a REGULAR daily
    grid (first..last active day) carrying the last observed value
    forward — the gap-filling alignment step every daily feature
    snapshot / training-matrix build needs before windowed aggregates
    can assume one row per (entity, day). Ties within a day resolve to
    the latest ``(ts, event_id)`` row, deterministically.

    Plan: ONE keyed exchange on ``user_id``; per partition one lexsort
    orders every user's run, the grid materializes as repeat/arange
    integer arithmetic (output rows = Σ per-user day spans — the only
    thing that grows), and LOCF is ONE global ``searchsorted`` on a
    per-user-blocked composite day axis (grid days never leave their
    user's block). Values pass through untouched — bit-exact by
    construction."""
    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def resample_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "day": pa.array([], pa.int64()),
                "value_locf": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        uid = np.asarray(t["user_id"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks().cast(pa.int64()))
        val = np.asarray(t["value"].combine_chunks()).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        us, tss, vs = uid[order], ts[order], val[order]
        day = tss // _US_PER_DAY
        if len(day) and int(day.min()) < 0:
            # the composite key packing below assumes day >= 0 (stride only
            # bounds the top), and numpy floor-div diverges from DuckDB's
            # truncating // for negative days — refuse loudly, never corrupt
            raise ValueError(
                "events_resample_daily: pre-epoch timestamps unsupported"
            )
        starts, ends, seg_len = segment_bounds(us)
        nseg = len(starts)
        spans = day[ends - 1] - day[starts] + 1
        total = int(spans.sum())
        seg_of_grid = np.repeat(np.arange(nseg, dtype=np.int64), spans)
        gstart = np.concatenate(([0], np.cumsum(spans)[:-1]))
        offs = np.arange(total, dtype=np.int64) - np.repeat(gstart, spans)
        grid_day = np.repeat(day[starts], spans) + offs
        stride = int(day.max()) + 1
        if nseg * stride >= 2**63:
            raise OverflowError(
                "events_resample_daily: composite day axis would overflow"
            )
        seg_id_ev = np.repeat(np.arange(nseg, dtype=np.int64), seg_len)
        ekey = seg_id_ev * stride + day  # sorted: seg asc, day asc within
        gkey = seg_of_grid * stride + grid_day
        pos = np.searchsorted(ekey, gkey, side="right") - 1
        return pa.table(
            {
                "user_id": pa.array(np.repeat(us[starts], spans), pa.int64()),
                "day": pa.array(grid_day, pa.int64()),
                "value_locf": pa.array(vs[pos], pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "user_id", resample_part, num_parts=NUM_PARTS)


EVENTS_RESAMPLE_SQL = f"""
WITH ev AS (
    SELECT user_id, (epoch_us(ts) // {_US_PER_DAY})::BIGINT AS day,
           ts, event_id, value
    FROM events
),
lastd AS (
    SELECT user_id, day, value FROM (
        SELECT *, row_number() OVER (
            PARTITION BY user_id, day ORDER BY ts DESC, event_id DESC
        ) AS rn FROM ev
    ) WHERE rn = 1
),
b AS (SELECT user_id, min(day) AS mn, max(day) AS mx FROM ev GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS day FROM b)
SELECT g.user_id, g.day::BIGINT AS day, l.value AS value_locf
FROM grid g ASOF LEFT JOIN lastd l
  ON g.user_id = l.user_id AND g.day >= l.day
"""


REGISTRY: dict[str, tuple] = {
    "events_resample_daily": (q_events_resample_daily, EVENTS_RESAMPLE_SQL),
    "events_twa": (q_events_twa, EVENTS_TWA_SQL),
    "events_rolling_median": (q_events_rolling_median, EVENTS_ROLLING_MEDIAN_SQL),
    "asof_join_forward": (q_asof_join_forward, ASOF_FORWARD_SQL),
    "asof_join_forward_bcast": (q_asof_join_forward_bcast, ASOF_FORWARD_SQL),
    "asof_join_nearest": (q_asof_join_nearest, ASOF_NEAREST_SQL),
    "asof_join_nearest_bcast": (q_asof_join_nearest_bcast, ASOF_NEAREST_SQL),
    "features_cummax": (q_features_cummax, FEATURES_CUMMAX_SQL),
    "events_holdout_split": (q_events_holdout_split, EVENTS_HOLDOUT_SQL),
    "events_dedup_window": (q_events_dedup_window, EVENTS_DEDUP_WINDOW_SQL),
}
