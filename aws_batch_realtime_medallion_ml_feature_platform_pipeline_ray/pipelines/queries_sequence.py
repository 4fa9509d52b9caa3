"""Sequence-structure operators: order-sensitive event-type trigram
counts (the n-gram upgrade of the Markov transition matrix) and weekly
seasonality detection via lag-7 autocorrelation of daily activity.

Scale shapes:

- ``events_type_trigrams``: ONE user_id-keyed exchange (the engine's
  standard fused pass); within each sorted partition the two preceding
  types are index shifts, partials collapse to O(|types|^3) rows per
  partition, and the final fold is vocabulary-sized.
- ``events_autocorr_7d``: zero keyed exchanges — per-batch
  (type, day) count partials, one tiny fold, and the correlation
  arithmetic runs over the O(types x days) result with exact integer
  moments up to the one double division (python ints driver-side,
  HUGEINT in the twin).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import round6
from ..sources.reads import read_parquet_sized
from ..stages.keyed import map_partitions_by_key

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts
_US_DAY = 86_400_000_000


def q_events_type_trigrams(sf_dir: str):
    """Global counts of consecutive event-type trigrams within each
    user's timeline (ordered by ts, event_id) — the order-sensitive
    sequence fingerprint behind next-action features; ``events_markov``
    is the bigram special case."""
    from ray.data.aggregate import Sum

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def fn(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "t1": pa.array([], pa.string()),
                "t2": pa.array([], pa.string()),
                "t3": pa.array([], pa.string()),
                "pn": pa.array([], pa.int64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        uid = np.asarray(tbl["user_id"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(tbl["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(tbl["event_id"].combine_chunks())
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        et = tbl["event_type"].combine_chunks().take(pa.array(order))
        n = len(u)
        if n < 3:
            return empty
        # rows whose two predecessors belong to the same user
        idx = np.arange(2, n)
        ok = (u[idx] == u[idx - 1]) & (u[idx] == u[idx - 2])
        idx = idx[ok]
        if len(idx) == 0:
            return empty
        g = (
            pa.table(
                {
                    "t1": et.take(pa.array(idx - 2)),
                    "t2": et.take(pa.array(idx - 1)),
                    "t3": et.take(pa.array(idx)),
                }
            )
            .group_by(["t1", "t2", "t3"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t1", "t2", "t3", "pn"])

    partials = map_partitions_by_key(ds, "user_id", fn, num_parts=NUM_PARTS)
    out = partials.groupby(["t1", "t2", "t3"]).aggregate(
        Sum("pn", alias_name="n")
    )
    return out.map_batches(
        lambda t: pa.table(
            {"t1": t["t1"], "t2": t["t2"], "t3": t["t3"],
             "n": t["n"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


EVENTS_TYPE_TRIGRAMS_SQL = """
WITH g AS (
    SELECT lag(event_type, 2) OVER w AS t1,
           lag(event_type, 1) OVER w AS t2,
           event_type AS t3
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
FROM g WHERE t1 IS NOT NULL AND t2 IS NOT NULL
GROUP BY 1, 2, 3
"""


def q_events_autocorr_7d(sf_dir: str):
    """Weekly-seasonality detector: per event type, the Pearson
    autocorrelation of the zero-filled daily count series with itself at
    lag 7 days (pairs run over the full contiguous [min_day+7, max_day]
    grid) — high values mean day-of-week periodicity the feature
    platform should encode.

    All moment sums are exact integers (daily counts); the correlation
    is the identical two-division-and-sqrt chain on both engines,
    rounded to 6 decimals. Degenerate series (zero variance on either
    side) yield NULL like the SQL twin's division by zero."""
    from ray.data.aggregate import Sum

    ds = read_parquet_sized(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "day": pa.array([], pa.int64()),
            "pn": pa.array([], pa.int64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        us = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        g = (
            pa.table(
                {
                    "event_type": t["event_type"],
                    "day": pa.array(us // _US_DAY, pa.int64()),
                }
            )
            .group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["event_type", "day", "pn"])

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "day"])
        .aggregate(Sum("pn", alias_name="n"))
        .take_all()
    )  # O(types x days)
    if not rows:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
                "autocorr_7d": pa.array([], pa.float64()),
            }
        )
    d0 = min(r["day"] for r in rows)
    d1 = max(r["day"] for r in rows)
    ndays = int(d1 - d0 + 1)
    series: dict[str, np.ndarray] = {}
    for r in rows:
        series.setdefault(r["event_type"], np.zeros(ndays, dtype=np.int64))[
            int(r["day"] - d0)
        ] += int(r["n"])
    types, n_pairs, corrs = [], [], []
    for et in sorted(series):
        c = series[et]
        y, x = c[7:], c[:-7]  # pairs (d, d-7) over the contiguous grid
        k = len(y)
        if k == 0:
            # span <= 7 days: the twin's pair CTE is empty, so the type
            # produces NO row — mirror that instead of a NULL row
            continue
        types.append(et)
        n_pairs.append(k)
        # exact integer moments (python ints — no overflow), one chain
        sx, sy = int(x.sum()), int(y.sum())
        sxx = int(np.dot(x, x))
        syy = int(np.dot(y, y))
        sxy = int(np.dot(x, y))
        num = k * sxy - sx * sy
        vx = k * sxx - sx * sx
        vy = k * syy - sy * sy
        if vx == 0 or vy == 0:
            corrs.append(None)
        else:
            corrs.append(
                float(round6(np.array([float(num) / np.sqrt(float(vx) * float(vy))]))[0])
            )
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n_pairs": pa.array(n_pairs, pa.int64()),
            "autocorr_7d": pa.array(corrs, pa.float64()),
        }
    )


EVENTS_AUTOCORR_7D_SQL = f"""
WITH c AS (
    SELECT event_type, CAST(epoch_us(ts) // {_US_DAY} AS BIGINT) AS day,
           CAST(count(*) AS BIGINT) AS n
    FROM events GROUP BY 1, 2
),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM c),
grid AS (
    SELECT t.event_type, gs.day
    FROM (SELECT DISTINCT event_type FROM events) t
    CROSS JOIN (
        SELECT unnest(generate_series(b.d0, b.d1)) AS day FROM b
    ) gs
),
z AS (
    SELECT g.event_type, g.day, CAST(coalesce(c.n, 0) AS BIGINT) AS n
    FROM grid g LEFT JOIN c ON g.event_type = c.event_type AND g.day = c.day
),
p AS (
    SELECT a.event_type, a.n AS y, l.n AS x
    FROM z a JOIN z l
      ON a.event_type = l.event_type AND l.day = a.day - 7
),
m AS (
    SELECT event_type, CAST(count(*) AS HUGEINT) AS k,
           CAST(sum(x::HUGEINT) AS HUGEINT) AS sx,
           CAST(sum(y::HUGEINT) AS HUGEINT) AS sy,
           CAST(sum(x::HUGEINT * x) AS HUGEINT) AS sxx,
           CAST(sum(y::HUGEINT * y) AS HUGEINT) AS syy,
           CAST(sum(x::HUGEINT * y) AS HUGEINT) AS sxy
    FROM p GROUP BY event_type
)
SELECT event_type, CAST(k AS BIGINT) AS n_pairs,
       ROUND(CAST(k * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(k * sxx - sx * sx AS DOUBLE)
                    * CAST(k * syy - sy * sy AS DOUBLE)), 6) AS autocorr_7d
FROM m
"""


def q_events_ohlc_daily(sf_dir: str):
    """Daily OHLC candles per event type — open/close (first/last value
    by (ts, event_id)) and high/low of integer cents: the canonical
    downsampling aggregate for metric time series.

    Plan: ZERO keyed exchanges — open/close/high/low are all MERGEABLE:
    each batch collapses to one row per (type, day) carrying (min-stamp,
    open), (max-stamp, close), lo, hi; the O(types x days x batches)
    partials are merged at the driver with the same lexicographic
    (ts, event_id) rule. No positional pass over the full stream."""
    from ..functions.numeric import round_half_away

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )

    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "day": pa.array([], pa.int64()),
            "fts": pa.array([], pa.int64()),
            "fid": pa.array([], pa.int64()),
            "fo": pa.array([], pa.int64()),
            "lts": pa.array([], pa.int64()),
            "lid": pa.array([], pa.int64()),
            "lc": pa.array([], pa.int64()),
            "lo": pa.array([], pa.int64()),
            "hi": pa.array([], pa.int64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        mask = pc.is_valid(t["value"])
        t = t.filter(mask) if pc.any(pc.invert(mask)).as_py() else t
        if t.num_rows == 0:
            return empty
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks().cast(pa.int64()))
        cents = round_half_away(
            np.asarray(t["value"].combine_chunks()) * 100.0
        ).astype(np.int64)
        enc = pc.dictionary_encode(t["event_type"].combine_chunks())
        code = np.asarray(enc.indices).astype(np.int64)
        day = ts // _US_DAY
        key = code * (1 << 20) + (day - day.min())  # composite within batch
        order = np.lexsort((eid, ts, key))
        k = key[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(k)) + 1))
        ends = np.concatenate((starts[1:], [len(k)])) - 1
        fi, li = order[starts], order[ends]
        return pa.table(
            {
                "event_type": enc.dictionary.cast(pa.string()).take(
                    pa.array(code[fi])
                ),
                "day": pa.array(day[fi], pa.int64()),
                "fts": pa.array(ts[fi], pa.int64()),
                "fid": pa.array(eid[fi], pa.int64()),
                "fo": pa.array(cents[fi], pa.int64()),
                "lts": pa.array(ts[li], pa.int64()),
                "lid": pa.array(eid[li], pa.int64()),
                "lc": pa.array(cents[li], pa.int64()),
                "lo": pa.array(
                    np.minimum.reduceat(cents[order], starts), pa.int64()
                ),
                "hi": pa.array(
                    np.maximum.reduceat(cents[order], starts), pa.int64()
                ),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # O(types x days x batches) tiny partial rows
    merged: dict[tuple, list] = {}
    for r in rows:
        g = (r["event_type"], int(r["day"]))
        m = merged.get(g)
        if m is None:
            merged[g] = [
                (int(r["fts"]), int(r["fid"]), int(r["fo"])),
                (int(r["lts"]), int(r["lid"]), int(r["lc"])),
                int(r["lo"]),
                int(r["hi"]),
            ]
        else:
            f = (int(r["fts"]), int(r["fid"]), int(r["fo"]))
            l = (int(r["lts"]), int(r["lid"]), int(r["lc"]))
            if f[:2] < m[0][:2]:
                m[0] = f
            if l[:2] > m[1][:2]:
                m[1] = l
            m[2] = min(m[2], int(r["lo"]))
            m[3] = max(m[3], int(r["hi"]))
    keys = sorted(merged)
    return pa.table(
        {
            "event_type": pa.array([k[0] for k in keys], pa.string()),
            "day": pa.array([k[1] for k in keys], pa.int64()),
            "open_c": pa.array([merged[k][0][2] for k in keys], pa.int64()),
            "high_c": pa.array([merged[k][3] for k in keys], pa.int64()),
            "low_c": pa.array([merged[k][2] for k in keys], pa.int64()),
            "close_c": pa.array([merged[k][1][2] for k in keys], pa.int64()),
        }
    )


EVENTS_OHLC_SQL = f"""
WITH e AS (
    SELECT event_type,
           CAST(epoch_us(ts) // {_US_DAY} AS BIGINT) AS day,
           CAST(round(value * 100) AS BIGINT) AS c, ts, event_id,
           row_number() OVER (PARTITION BY event_type, epoch_us(ts) // {_US_DAY}
                              ORDER BY ts, event_id) AS rn_a,
           row_number() OVER (PARTITION BY event_type, epoch_us(ts) // {_US_DAY}
                              ORDER BY ts DESC, event_id DESC) AS rn_d
    FROM events WHERE value IS NOT NULL
)
SELECT event_type, day,
       CAST(max(CASE WHEN rn_a = 1 THEN c END) AS BIGINT) AS open_c,
       CAST(max(c) AS BIGINT) AS high_c,
       CAST(min(c) AS BIGINT) AS low_c,
       CAST(max(CASE WHEN rn_d = 1 THEN c END) AS BIGINT) AS close_c
FROM e GROUP BY 1, 2
"""


def q_events_max_drawdown(sf_dir: str):
    """Per-user maximum drawdown of the ``value`` series (largest drop
    from a running peak, in exact cents) plus the series length — the
    classic risk/engagement-decay feature that needs a running-max scan,
    not an algebraic aggregate.

    Plan: ONE user_id-keyed exchange; within each sorted partition the
    running peak is a single segmented maximum-accumulate
    (functions/windows helper), drawdown/max are pure int64 numpy — no
    per-user Python."""
    from ray.data.aggregate import Max

    from ..functions.numeric import round_half_away
    from ..stages.keyed import fold_by_keys
    from ..functions.windows import segmented_maximum_accumulate

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def fn(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "max_dd_c": pa.array([], pa.int64()),
                "one": pa.array([], pa.int64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        mask = pc.is_valid(tbl["value"])
        tbl = tbl.filter(mask) if pc.any(pc.invert(mask)).as_py() else tbl
        if tbl.num_rows == 0:
            return empty
        uid = np.asarray(tbl["user_id"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(tbl["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(tbl["event_id"].combine_chunks().cast(pa.int64()))
        c = round_half_away(
            np.asarray(tbl["value"].combine_chunks()) * 100.0
        ).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        u, cs = uid[order], c[order]
        seg = np.zeros(len(u), dtype=bool)
        seg[0] = True
        seg[1:] = u[1:] != u[:-1]
        # all rows of a user share this partition, so the running peak is
        # complete — partials per user are (max drawdown, count)
        peak = segmented_maximum_accumulate(cs, seg)
        dd = peak - cs
        starts = np.flatnonzero(seg)
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "max_dd_c": pa.array(
                    np.maximum.reduceat(dd, starts), pa.int64()
                ),
                "one": pa.array(
                    np.diff(np.concatenate((starts, [len(u)]))).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return map_partitions_by_key(ds, "user_id", fn, num_parts=NUM_PARTS).map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "max_dd_c": t["max_dd_c"],
                "n": t["one"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


EVENTS_MAX_DRAWDOWN_SQL = """
WITH e AS (
    SELECT user_id, CAST(round(value * 100) AS BIGINT) AS c, ts, event_id
    FROM events WHERE value IS NOT NULL
),
w AS (
    SELECT user_id,
           CAST(max(c) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) - c AS BIGINT) AS dd
    FROM e
)
SELECT user_id, CAST(max(dd) AS BIGINT) AS max_dd_c,
       CAST(count(*) AS BIGINT) AS n
FROM w GROUP BY user_id
"""


REGISTRY: dict[str, tuple] = {
    "events_type_trigrams": (q_events_type_trigrams, EVENTS_TYPE_TRIGRAMS_SQL),
    "events_autocorr_7d": (q_events_autocorr_7d, EVENTS_AUTOCORR_7D_SQL),
    "events_ohlc_daily": (q_events_ohlc_daily, EVENTS_OHLC_SQL),
    "events_max_drawdown": (q_events_max_drawdown, EVENTS_MAX_DRAWDOWN_SQL),
}
