"""Operator query registry: Ray pipelines + DuckDB oracle SQL twins.

Each entry demonstrates one operator family from SURVEY.md §2 over the
driver's parquet tables (events / documents / embeddings / TPC-H-ish).
The transcript-domain queries run over a deterministic derivation of the
``events`` table into the canonical transcript shape
(sources/transcripts.py:TRANSCRIPTS_SQL_CTE) so both sides see identical
input and the driver's value-hash comparison is exact.

Float policy: measures that are sums/avgs of *integers* (text lengths,
counts) are exact in float64 on both sides — no rounding. Sums of decimal
``value`` are rounded to 6 digits on both sides to absorb summation-order
ULP noise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..sources.transcripts import (
    TRANSCRIPTS_SQL_CTE,
    read_events_as_transcripts,
)
from ..stages.featurize import GoldConfig, gold_features_partition, dedup_first
from ..stages.keyed import map_partitions_by_key
from ..functions import windows as W
from ..functions.numeric import round6

NUM_PARTS = None  # None = derive from cluster CPUs + input bytes (stages/keyed.derive_num_parts)

EVENT_ROLES = ("click", "purchase")  # per-role rolling-count analog on events


# --------------------------------------------------------------------------
# gold_features — the flagship fused pass (W1-W5, B10, B11, B13, M5-M7)
# --------------------------------------------------------------------------

def q_gold_features(sf_dir: str):
    ds = read_events_as_transcripts(sf_dir)
    cfg = GoldConfig(
        compute_turn_idx=True,
        tiebreak_col="event_id",
        dedup=False,
        role_counts=EVENT_ROLES,
    )
    return map_partitions_by_key(
        ds,
        "conv_id",
        lambda t: gold_features_partition(t, cfg),
        num_parts=NUM_PARTS,
    )


GOLD_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
f AS (
    SELECT
        conv_id, turn_idx, role, tool, text, ts,
        strftime(ts, '%Y-%m-%d') AS dt,
        CAST(epoch_us(ts) AS DOUBLE) / 1000000 AS event_time,
        count(*) OVER w1h AS turns_1h,
        CAST(sum(length(text)) OVER w1h AS DOUBLE) AS chars_1h,
        count(DISTINCT tool) OVER w24h AS tool_count_24h,
        CAST(sum(length(text)) OVER w7d AS DOUBLE)
            / count(*) OVER w7d AS avg_chars_7d,
        count(CASE WHEN role = 'click' THEN 1 END) OVER w1h AS click_turns_1h,
        count(CASE WHEN role = 'purchase' THEN 1 END) OVER w1h AS purchase_turns_1h,
        lag(ts) OVER wo AS lag1_ts,
        lead(ts) OVER wo AS lead1_ts,
        epoch_us(ts) - lag(epoch_us(ts)) OVER wo AS gap_us
    FROM transcripts
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
        CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > {S.SESSION_GAP_US} THEN 1 ELSE 0 END)
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
    FROM f
)
SELECT
    conv_id, turn_idx, role, tool, text, ts, dt, event_time,
    turns_1h, chars_1h, tool_count_24h, avg_chars_7d,
    click_turns_1h, purchase_turns_1h,
    lag1_ts, lead1_ts, gap_s, session_id,
    CAST(row_number() OVER (PARTITION BY conv_id, session_id
                            ORDER BY ts, turn_idx) - 1 AS INTEGER)
        AS session_turn_idx
FROM sess
"""


# --------------------------------------------------------------------------
# rolling_windows — W2-W5 directly over events (user_id keyed)
# --------------------------------------------------------------------------

def q_rolling_windows(sf_dir: str):
    from ..sources.reads import read_parquet_sized

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "cnt_1h": pa.array([], pa.int64()),
                    "sum_value_1h": pa.array([], pa.float64()),
                    "types_24h": pa.array([], pa.int64()),
                    "avg_value_7d": pa.array([], pa.float64()),
                }
            )
        uid = np.asarray(tbl["user_id"].combine_chunks())
        ts = np.asarray(tbl["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(tbl["event_id"].combine_chunks())
        order = np.lexsort((eid, ts, uid))
        tbl = tbl.take(pa.array(order))
        uid, ts = uid[order], ts[order]
        seg_start = W.segment_starts(uid)
        seg_id = W.segment_ids(seg_start)
        ts_adj = W.adjusted_ts(ts, seg_id, S.D7)
        l1, r1 = W.trailing_bounds(ts_adj, S.H1)
        l24, r24 = W.trailing_bounds(ts_adj, S.H24)
        l7, r7 = W.trailing_bounds(ts_adj, S.D7)
        val = np.asarray(tbl["value"].combine_chunks())
        et = tbl["event_type"].combine_chunks()
        codes = np.asarray(pc.dictionary_encode(et).indices).astype(np.int64)
        valid = np.asarray(pc.is_valid(et))
        cnt7 = W.windowed_count(l7, r7)
        return pa.table(
            {
                "event_id": tbl["event_id"],
                "user_id": tbl["user_id"],
                "ts": tbl["ts"],
                "cnt_1h": pa.array(W.windowed_count(l1, r1)),
                "sum_value_1h": pa.array(
                    round6(W.windowed_sum(val, l1, r1))
                ),
                "types_24h": pa.array(W.windowed_distinct(codes, valid, l24, r24)),
                "avg_value_7d": pa.array(
                    round6(W.windowed_sum(val, l7, r7) / cnt7)
                ),
            }
        )

    return map_partitions_by_key(ds, "user_id", fn, num_parts=NUM_PARTS)


ROLLING_SQL = """
SELECT
    event_id, user_id, ts,
    count(*) OVER w1h AS cnt_1h,
    ROUND(sum(value) OVER w1h, 6) AS sum_value_1h,
    count(DISTINCT event_type) OVER w24h AS types_24h,
    ROUND(avg(value) OVER w7d, 6) AS avg_value_7d
FROM events
WINDOW
    w1h AS (PARTITION BY user_id ORDER BY ts
            RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW),
    w24h AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW),
    w7d AS (PARTITION BY user_id ORDER BY ts
            RANGE BETWEEN INTERVAL 7 DAYS PRECEDING AND CURRENT ROW)
"""


# --------------------------------------------------------------------------
# silver_normalize — M1+M2+M3+M12: window filter, validity, domain predicate
# --------------------------------------------------------------------------

WINDOW_START = "2024-01-05 00:00:00"
WINDOW_END = "2024-01-20 00:00:00"


def q_silver_normalize(sf_dir: str):
    ds = read_events_as_transcripts(sf_dir)
    lo = pa.scalar(pd.Timestamp(WINDOW_START), pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp(WINDOW_END), pa.timestamp("us"))

    def fn(t: pa.Table) -> pa.Table:
        ts = t["ts"]
        mask = pc.and_(
            pc.and_(pc.greater_equal(ts, lo), pc.less_equal(ts, hi)),
            pc.and_(
                pc.is_valid(t["conv_id"]),
                pc.greater(pc.utf8_length(t["text"]), 0),
            ),
        )
        out = t.filter(mask)
        return out.select(["conv_id", "role", "text", "tool", "ts", "event_id"])

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


SILVER_NORMALIZE_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id, role, text, tool, ts, event_id
FROM transcripts
WHERE ts >= TIMESTAMP '{WINDOW_START}' AND ts <= TIMESTAMP '{WINDOW_END}'
  AND conv_id IS NOT NULL AND length(text) > 0
"""


# --------------------------------------------------------------------------
# dedup_exact — D1: deterministic keep-first per key
# --------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    from ..sources.reads import read_parquet_sized

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def fn(t: pa.Table) -> pa.Table:
        return dedup_first(t, ["user_id", "event_type"], ["ts", "event_id"])

    return map_partitions_by_key(ds, "user_id", fn, num_parts=NUM_PARTS)


DEDUP_EXACT_SQL = """
SELECT event_id, ts, user_id, event_type, value
FROM (
    SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                                 ORDER BY ts, event_id) AS rn
    FROM events
) WHERE rn = 1
"""


# --------------------------------------------------------------------------
# sessionize — B11 standalone (also inside gold_features)
# --------------------------------------------------------------------------

def _conv_order(tbl: pa.Table):
    """(sort order, conv codes, ts int64, segment starts) for one hash
    partition, ordered (conv, ts, event_id) — the shared prologue of the
    slim standalone kernels."""
    codes = np.asarray(
        pc.dictionary_encode(tbl["conv_id"].combine_chunks()).indices
    ).astype(np.int64)
    ts = np.asarray(tbl["ts"].combine_chunks().cast(pa.int64()))
    eid = np.asarray(tbl["event_id"].combine_chunks())
    order = np.lexsort((eid, ts, codes))
    k = codes[order]
    return order, k, ts[order], W.segment_starts(k)


def _turn_idx(seg_start: np.ndarray) -> np.ndarray:
    arange = np.arange(len(seg_start), dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
    return (arange - seg_first).astype(np.int32)


def _ts_opt(vals: np.ndarray, null_mask: np.ndarray) -> pa.Array:
    return pa.array(vals, pa.timestamp("us"), mask=null_mask)


def q_sessionize(sf_dir: str):
    """B11 standalone: gap sessionization WITHOUT the full gold feature
    pass (round 1 computed every window feature and dropped them,
    VERDICT r1 §wrong-6) — same shuffle, a fraction of the kernel work."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "turn_idx": pa.array([], pa.int32()),
                 "ts": pa.array([], pa.timestamp("us")),
                 "gap_s": pa.array([], pa.float64()),
                 "session_id": pa.array([], pa.int64()),
                 "session_turn_idx": pa.array([], pa.int32())}
            )
        order, k, ts, seg_start = _conv_order(tbl)
        sid, sturn, gap_prev = W.sessionize(ts, seg_start, S.SESSION_GAP_US)
        gap_null = gap_prev < 0
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks().take(pa.array(order)),
                "turn_idx": pa.array(_turn_idx(seg_start), pa.int32()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "gap_s": pa.array(
                    np.where(gap_null, 0.0, gap_prev / 1e6), pa.float64(),
                    mask=gap_null,
                ),
                "session_id": pa.array(sid, pa.int64()),
                "session_turn_idx": pa.array(sturn, pa.int32()),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


SESSIONIZE_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
g AS (
    SELECT conv_id, turn_idx, ts,
        epoch_us(ts) - lag(epoch_us(ts))
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) AS gap_us
    FROM transcripts
),
s AS (
    SELECT *,
        CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > {S.SESSION_GAP_US} THEN 1 ELSE 0 END)
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
    FROM g
)
SELECT conv_id, turn_idx, ts,
    CAST(gap_us AS DOUBLE) / 1000000 AS gap_s,
    session_id,
    CAST(row_number() OVER (PARTITION BY conv_id, session_id
                            ORDER BY ts, turn_idx) - 1 AS INTEGER)
        AS session_turn_idx
FROM s
"""


# --------------------------------------------------------------------------
# lag_lead — B10 standalone
# --------------------------------------------------------------------------

def q_lag_lead(sf_dir: str):
    """B10 standalone: lag/lead only — no window features computed
    (VERDICT r1 §wrong-6)."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "turn_idx": pa.array([], pa.int32()),
                 "ts": pa.array([], pa.timestamp("us")),
                 "lag1_ts": pa.array([], pa.timestamp("us")),
                 "lead1_ts": pa.array([], pa.timestamp("us"))}
            )
        order, k, ts, seg_start = _conv_order(tbl)
        lag = W.lag_within(ts, seg_start, -1)
        lead = W.lead_within(ts, seg_start, -1)
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks().take(pa.array(order)),
                "turn_idx": pa.array(_turn_idx(seg_start), pa.int32()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "lag1_ts": _ts_opt(lag, lag < 0),
                "lead1_ts": _ts_opt(lead, lead < 0),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


LAG_LEAD_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id, turn_idx, ts,
    lag(ts) OVER wo AS lag1_ts,
    lead(ts) OVER wo AS lead1_ts
FROM transcripts
WINDOW wo AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
"""


def q_conv_dedup_turns(sf_dir: str):
    """Within-conversation repeated-text removal (retrieval/copy-paste
    artifact cleanup): keep only the FIRST occurrence of each distinct
    text per conversation, first = stable (ts, event_id) turn order.
    Rides the engine's one keyed exchange; the per-partition kernel is
    dedup_first on the (conv_id, text) composite — same machinery as D1
    exact dedup, different key."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(t: pa.Table) -> pa.Table:
        out = dedup_first(t, ["conv_id", "text"], ["ts", "event_id"])
        return out.select(["conv_id", "role", "text", "ts"])

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


CONV_DEDUP_TURNS_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id, role, text, ts
FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, text
                                 ORDER BY ts, event_id) AS rn
    FROM transcripts
) WHERE rn = 1
"""


def q_conv_context_window(sf_dir: str):
    """Training-sample construction: for every turn, assemble the
    concatenated context of the previous 2 turns (non-null-skipping
    join, same semantics as SQL concat_ws). Vectorized per partition:
    lagged takes with position-validity masks + ONE
    ``binary_join_element_wise(null_handling='skip')``."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "turn_idx": pa.array([], pa.int32()),
                 "context": pa.array([], pa.string()),
                 "text": pa.array([], pa.string())}
            )
        order, _k, _ts, seg_start = _conv_order(tbl)
        pos = _turn_idx(seg_start)
        text = tbl["text"].combine_chunks().take(pa.array(order))
        n = len(pos)
        idx = np.arange(n, dtype=np.int64)

        def lagged(k: int) -> pa.Array:
            # no mask: rows with pos < k read a bogus value and are
            # overridden by the position case below (binary_join's
            # null_handling="skip" DROPS all-null rows — unusable here)
            take = pa.array(np.where(pos < k, 0, idx - k), pa.int64())
            out = text.take(take)
            return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out

        l1, l2 = lagged(1), lagged(2)
        both = pc.binary_join_element_wise(l2, l1, " ")
        ctx = pc.if_else(
            pa.array(pos >= 2),
            both,
            pc.if_else(pa.array(pos == 1), l1, pa.scalar("", pa.string())),
        )
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks().take(pa.array(order)),
                "turn_idx": pa.array(pos, pa.int32()),
                "context": ctx,
                "text": text,
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


CONV_CONTEXT_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id, turn_idx,
    concat_ws(' ',
        lag(text, 2) OVER wo,
        lag(text, 1) OVER wo) AS context,
    text
FROM transcripts
WINDOW wo AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
"""


ROWS_FRAME = 3  # current row + 2 preceding


def q_rolling_rows_window(sf_dir: str):
    """ROWS-frame rolling aggregate (complement of the RANGE frames in
    rolling_windows): per conversation, the text-length sum and mean over
    the last {k} turns (2 PRECEDING .. CURRENT ROW). Segmented
    prefix-sum difference with a clamp at each conversation's start —
    O(n), no per-row Python."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "turn_idx": pa.array([], pa.int32()),
                 "len3_sum": pa.array([], pa.int64()),
                 "len3_mean": pa.array([], pa.float64())}
            )
        order, _k, _ts, seg_start = _conv_order(tbl)
        pos = _turn_idx(seg_start)
        tl = np.asarray(
            pc.utf8_length(tbl["text"].combine_chunks()).cast(pa.int64())
        )[order]
        cs = np.concatenate(([0], np.cumsum(tl)))
        idx = np.arange(len(tl), dtype=np.int64)
        # frame start: max(row - (F-1), first row of this conversation)
        seg_first = idx - pos
        lo = np.maximum(idx - (ROWS_FRAME - 1), seg_first)
        s = cs[idx + 1] - cs[lo]
        n = (idx - lo + 1).astype(np.float64)
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks().take(pa.array(order)),
                "turn_idx": pa.array(pos, pa.int32()),
                "len3_sum": pa.array(s, pa.int64()),
                "len3_mean": pa.array(s.astype(np.float64) / n, pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


ROLLING_ROWS_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id, turn_idx,
    CAST(sum(length(text)) OVER w AS BIGINT) AS len3_sum,
    CAST(sum(length(text)) OVER w AS DOUBLE)
        / count(*) OVER w AS len3_mean
FROM transcripts
WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_idx
             ROWS BETWEEN {ROWS_FRAME - 1} PRECEDING AND CURRENT ROW)
"""


def q_conv_role_transitions(sf_dir: str):
    """Role-transition structure features: global count and total gap per
    (previous role → role) pair — the conversation-shape fingerprint
    (e.g. user→assistant handoff latency). ONE keyed exchange; within
    each sorted partition the previous turn is just index i-1 (valid
    where the row doesn't start a conversation), partials are a tiny
    per-partition Arrow group_by, and the final groupby moves
    O(roles² × partitions) rows."""
    from ray.data.aggregate import Sum

    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {"role_from": pa.array([], pa.string()),
             "role_to": pa.array([], pa.string()),
             "p_n": pa.array([], pa.int64()),
             "p_gap": pa.array([], pa.int64())}
        )
        if tbl.num_rows == 0:
            return empty
        order, _k, ts, seg_start = _conv_order(tbl)
        roles = tbl["role"].combine_chunks().take(pa.array(order))
        valid = ~seg_start
        idx = np.flatnonzero(valid)
        if len(idx) == 0:
            return empty
        pairs = pa.table(
            {
                "role_from": roles.take(pa.array(idx - 1)),
                "role_to": roles.take(pa.array(idx)),
                "gap": pa.array(ts[idx] - ts[idx - 1], pa.int64()),
            }
        )
        g = pairs.group_by(["role_from", "role_to"]).aggregate(
            [("gap", "count"), ("gap", "sum")]
        )
        return pa.table(
            {
                "role_from": g["role_from"],
                "role_to": g["role_to"],
                "p_n": g["gap_count"].cast(pa.int64()),
                "p_gap": g["gap_sum"].cast(pa.int64()),
            }
        )

    partials = map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)
    out = partials.groupby(["role_from", "role_to"]).aggregate(
        Sum("p_n", alias_name="n_transitions"),
        Sum("p_gap", alias_name="sum_gap_us"),
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "role_from": t["role_from"],
                "role_to": t["role_to"],
                "n_transitions": t["n_transitions"].cast(pa.int64()),
                "sum_gap_us": t["sum_gap_us"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


CONV_ROLE_TRANSITIONS_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
g AS (
    SELECT role AS role_to,
        lag(role) OVER wo AS role_from,
        epoch_us(ts) - lag(epoch_us(ts)) OVER wo AS gap_us
    FROM transcripts
    WINDOW wo AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
)
SELECT role_from, role_to,
       CAST(count(*) AS BIGINT) AS n_transitions,
       CAST(sum(gap_us) AS BIGINT) AS sum_gap_us
FROM g WHERE role_from IS NOT NULL
GROUP BY 1, 2
"""


def q_conv_role_runs(sf_dir: str):
    """Same-role run structure per conversation (monologue detection /
    turn-taking QA over transcripts): total turns, number of maximal
    consecutive same-role runs, and the longest run. ONE keyed exchange;
    per sorted partition the run boundaries are a single vectorized
    compare (role change OR conversation start), run lengths a diff of
    boundary indices, and the per-conv max a ``np.maximum.reduceat`` at
    conversation starts in run space — no second aggregation pass (convs
    are partition-local)."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "n_runs": pa.array([], pa.int64()),
                 "max_run": pa.array([], pa.int64())}
            )
        order, k, _ts, seg_start = _conv_order(tbl)
        roles = np.asarray(
            pc.dictionary_encode(
                tbl["role"].combine_chunks().take(pa.array(order))
            ).indices
        ).astype(np.int64)
        n = len(roles)
        run_start = seg_start.copy()
        run_start[1:] |= roles[1:] != roles[:-1]
        run_idx = np.flatnonzero(run_start)
        run_len = np.diff(np.append(run_idx, n)).astype(np.int64)
        # conversation segmentation projected into run space: a conv's
        # first run is exactly where the underlying row starts a segment
        conv_first_run = np.flatnonzero(seg_start[run_idx])
        n_runs = np.diff(np.append(conv_first_run, len(run_idx))).astype(np.int64)
        n_turns = np.add.reduceat(run_len, conv_first_run)
        max_run = np.maximum.reduceat(run_len, conv_first_run)
        conv_ids = (
            tbl["conv_id"].combine_chunks()
            .take(pa.array(order[run_idx[conv_first_run]]))
        )
        return pa.table(
            {
                "conv_id": conv_ids,
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_runs": pa.array(n_runs, pa.int64()),
                "max_run": pa.array(max_run, pa.int64()),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


# gaps-and-islands: turn_idx minus the per-(conv, role) row_number is
# constant exactly along a maximal same-role run
CONV_ROLE_RUNS_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
r AS (
    SELECT conv_id, role, turn_idx,
        turn_idx - CAST(row_number() OVER (
            PARTITION BY conv_id, role ORDER BY ts, event_id
        ) AS INTEGER) AS isl
    FROM transcripts
),
runs AS (
    SELECT conv_id, role, isl, CAST(count(*) AS BIGINT) AS run_len
    FROM r GROUP BY 1, 2, 3
)
SELECT conv_id,
       CAST(sum(run_len) AS BIGINT) AS n_turns,
       CAST(count(*) AS BIGINT) AS n_runs,
       CAST(max(run_len) AS BIGINT) AS max_run
FROM runs GROUP BY 1
"""


def q_gold_features_salted(sf_dir: str):
    """B14: same gold pass with hot conversations split into time-bucket
    shards (overlap-prefix windows, per-shard seeds from a driver scan of
    shard summaries) — output must be bit-identical to q_gold_features,
    verified against the same SQL oracle."""
    from ..stages.salted import gold_features_salted

    ds = read_events_as_transcripts(sf_dir)
    cfg = GoldConfig(
        compute_turn_idx=True,
        tiebreak_col="event_id",
        dedup=False,
        role_counts=EVENT_ROLES,
    )
    # threshold so a handful of real multi-bucket shards exist at sf0.01
    # (13 hot convs of ~80-86 turns across 30 days => ~5 weekly buckets
    # each) without over-salting the sf0.1 bench (104 of 1500 convs hot)
    return gold_features_salted(ds, cfg, num_parts=NUM_PARTS, hot_threshold=80)


# --------------------------------------------------------------------------
# session_stats — session-level rollup (duration / turn count per session)
# --------------------------------------------------------------------------

def q_session_stats(sf_dir: str):
    """Session-level feature rollup: one keyed exchange, then sessions are
    contiguous runs of the sorted partition — per-session first/last/count
    read off run boundaries, no second aggregation pass."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "session_id": pa.array([], pa.int64()),
                 "n_turns": pa.array([], pa.int64()),
                 "t_start": pa.array([], pa.timestamp("us")),
                 "t_end": pa.array([], pa.timestamp("us")),
                 "duration_s": pa.array([], pa.float64())}
            )
        order, k, ts, seg_start = _conv_order(tbl)
        sid, sturn, _gap = W.sessionize(ts, seg_start, S.SESSION_GAP_US)
        starts = np.flatnonzero(sturn == 0)
        ends = np.append(starts[1:] - 1, len(ts) - 1)
        n_turns = np.diff(np.append(starts, len(ts))).astype(np.int64)
        t0 = ts[starts]
        t1 = ts[ends]
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks()
                .take(pa.array(order[starts])),
                "session_id": pa.array(sid[starts], pa.int64()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "t_start": pa.array(t0, pa.timestamp("us")),
                "t_end": pa.array(t1, pa.timestamp("us")),
                # identical IEEE order as SQL: (us_end - us_start)/1e6
                "duration_s": pa.array(
                    (t1 - t0).astype(np.float64) / 1e6, pa.float64()
                ),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


SESSION_STATS_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
g AS (
    SELECT conv_id, turn_idx, ts,
        epoch_us(ts) - lag(epoch_us(ts))
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) AS gap_us
    FROM transcripts
),
s AS (
    SELECT *,
        CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > {S.SESSION_GAP_US} THEN 1 ELSE 0 END)
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
    FROM g
)
SELECT conv_id, session_id,
    CAST(COUNT(*) AS BIGINT) AS n_turns,
    MIN(ts) AS t_start,
    MAX(ts) AS t_end,
    CAST(epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS DOUBLE) / 1000000
        AS duration_s
FROM s GROUP BY conv_id, session_id
"""


def q_conv_flatten(sf_dir: str):
    """Conversation flattening — the transcript→training-document step:
    concatenate each conversation's turn texts in stable turn order with
    a single-space separator. ONE keyed exchange; per partition the
    sorted run boundaries become ``ListArray`` offsets and ONE
    ``pc.binary_join`` builds every flattened doc (no per-row Python, no
    per-conv loop)."""
    ds = read_events_as_transcripts(sf_dir)

    def fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "full_text": pa.array([], pa.string())}
            )
        order, _k, _ts, seg_start = _conv_order(tbl)
        text = tbl["text"].combine_chunks().take(pa.array(order))
        starts = np.flatnonzero(seg_start)
        offsets = np.append(starts, len(order)).astype(np.int64)
        lst = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), text.cast(pa.large_string())
        )
        sep = pa.scalar(" ", pa.large_string())
        return pa.table(
            {
                "conv_id": tbl["conv_id"].combine_chunks()
                .take(pa.array(order[starts])),
                "n_turns": pa.array(np.diff(offsets), pa.int64()),
                "full_text": pc.binary_join(lst, sep).cast(pa.string()),
            }
        )

    return map_partitions_by_key(ds, "conv_id", fn, num_parts=NUM_PARTS)


CONV_FLATTEN_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE}
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       string_agg(text, ' ' ORDER BY turn_idx) AS full_text
FROM transcripts GROUP BY conv_id
"""


CONV_FP_SALT = 1009


def q_conv_dedup_whole(sf_dir: str):
    """Whole-conversation exact dedup (10th dedup family) — the
    transcript analog of document exact-dedup: two identical
    conversations (same turn texts in the same order) collapse to one
    canonical conv_id. The conversation fingerprint is a wrapping-uint64
    SUM over turns of ``splitmix64(md5lower64(text) XOR
    splitmix64(turn_idx + salt))`` — position-mixed so reordered turns
    change it, sum-folded (not XOR) so injected duplicate turns can't
    cancel pairwise, and commutative so the per-conv fold needs no extra
    sort beyond the canonical (ts, event_id) order that defines
    turn_idx.

    Scale path: exchange 1 keys turns by conv_id (md5 runs once per
    DISTINCT text via dictionary encoding — vocab << turns at scale);
    the fold emits ONE row per conversation, so exchange 2 (by
    fingerprint, for keep-first) moves O(#convs), not O(#turns)."""
    import hashlib

    from ..stages.keyed import map_partitions_by_key, splitmix64

    ds = read_events_as_transcripts(sf_dir)
    empty_fp = pa.table(
        {"conv_id": pa.array([], pa.string()), "fp": pa.array([], pa.int64())}
    )

    def fp_part(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return empty_fp
        order, _k, _ts, seg_start = _conv_order(tbl)
        tidx = _turn_idx(seg_start).astype(np.uint64)
        text = tbl["text"].combine_chunks().take(pa.array(order))
        enc = pc.dictionary_encode(text)
        dic = enc.dictionary.to_pylist()
        th = np.empty(len(dic), np.uint64)
        for i, s in enumerate(dic):
            th[i] = int.from_bytes(
                hashlib.md5(str(s).encode()).digest()[8:16], "little"
            )
        h = th[np.asarray(enc.indices).astype(np.int64)]
        contrib = splitmix64(h ^ splitmix64(tidx + np.uint64(CONV_FP_SALT)))
        starts = np.flatnonzero(seg_start)
        with np.errstate(over="ignore"):
            fp = np.add.reduceat(contrib, starts)  # wrapping uint64 sum
        conv = tbl["conv_id"].combine_chunks().take(pa.array(order[starts]))
        return pa.table({"conv_id": conv, "fp": pa.array(fp.view(np.int64))})

    fps = map_partitions_by_key(ds, "conv_id", fp_part, num_parts=NUM_PARTS)

    def keep_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "conv_id": pa.array([], pa.string()),
                    "fp": pa.array([], pa.int64()),
                    "n_copies": pa.array([], pa.int64()),
                }
            )
        df = t.to_pandas().sort_values(["fp", "conv_id"], kind="mergesort")
        g = (
            df.groupby("fp", sort=False)
            .agg(conv_id=("conv_id", "first"), n_copies=("conv_id", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "conv_id": pa.array(g["conv_id"], pa.string()),
                "fp": pa.array(g["fp"], pa.int64()),
                "n_copies": pa.array(g["n_copies"], pa.int64()),
            }
        )

    return map_partitions_by_key(fps, "fp", keep_part, num_parts=NUM_PARTS)


def _conv_dedup_whole_sql() -> str:
    from .queries_relational import splitmix64_hash_sql

    m63, m64 = 1 << 63, 1 << 64
    return f"""
WITH {TRANSCRIPTS_SQL_CTE},
{splitmix64_hash_sql('turn_idx', 'transcripts', CONV_FP_SALT, '__p')},
{splitmix64_hash_sql("xor(md5_number_lower(text)::HUGEINT, __ph)", '__p5', 0, '__q')},
f AS (
  SELECT conv_id, (sum(__qh) % {m64}::HUGEINT) AS fpu
  FROM __q5 GROUP BY conv_id
),
s AS (
  SELECT min(conv_id) AS conv_id,
         CASE WHEN fpu >= {m63}::HUGEINT THEN fpu - {m64}::HUGEINT
              ELSE fpu END AS fps,
         count(*) AS n
  FROM f GROUP BY fpu
)
SELECT conv_id, fps::BIGINT AS fp, n::BIGINT AS n_copies FROM s
"""


CONV_DEDUP_WHOLE_SQL = _conv_dedup_whole_sql()


REGISTRY: dict[str, tuple] = {
    "session_stats": (q_session_stats, SESSION_STATS_SQL),
    "conv_dedup_whole": (q_conv_dedup_whole, CONV_DEDUP_WHOLE_SQL),
    "conv_flatten": (q_conv_flatten, CONV_FLATTEN_SQL),
    "conv_role_transitions": (q_conv_role_transitions, CONV_ROLE_TRANSITIONS_SQL),
    "conv_role_runs": (q_conv_role_runs, CONV_ROLE_RUNS_SQL),
    "conv_dedup_turns": (q_conv_dedup_turns, CONV_DEDUP_TURNS_SQL),
    "conv_context_window": (q_conv_context_window, CONV_CONTEXT_SQL),
    "rolling_rows_window": (q_rolling_rows_window, ROLLING_ROWS_SQL),
    "gold_features": (q_gold_features, GOLD_SQL),
    "gold_features_salted": (q_gold_features_salted, GOLD_SQL),
    "rolling_windows": (q_rolling_windows, ROLLING_SQL),
    "silver_normalize": (q_silver_normalize, SILVER_NORMALIZE_SQL),
    "dedup_exact": (q_dedup_exact, DEDUP_EXACT_SQL),
    "sessionize": (q_sessionize, SESSIONIZE_SQL),
    "lag_lead": (q_lag_lead, LAG_LEAD_SQL),
}
