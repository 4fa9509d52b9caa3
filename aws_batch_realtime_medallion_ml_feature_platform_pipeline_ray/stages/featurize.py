"""Fused per-partition gold feature pass (the flagship operator).

One hash partition (all turns of ~thousands of conversations, one Arrow
table) goes in; the full gold feature vector per turn comes out. Everything
the reference computes per card (``spark_jobs/silver_and_gold.py:82-133``:
4 trailing RANGE-window aggregates + projection) plus the north-rule
extensions (lag/lead, gap sessionization, per-role rolling counts) runs as
ONE sorted, segmented, fully-vectorized numpy pass — no per-conversation
Python loop, no second shuffle.

That pass, :func:`gold_features_partition`, is the only copy of the gold
kernel: the stream, the salted shards (``salted.gold_partition_phase_a``)
and the queries all call it. The input's columns say what it holds.
``__shard`` (salted tables) joins ``conv_id`` in the segment key.
``__prefix`` rows (a salted shard's overlap and context rows, or the
stream's carried trailing window) feed window, lag and session state
without being emitted. A prefix row may carry its text length in
``n_chars`` and a null ``text``: the carried window stores no text. The
seeds ``b_prior``, ``trail_in`` and ``turn_off``, set on any row of a
segment, continue its numbering from rows outside the call (the stream's
latest carried row, or a salted shard's earlier shards):
``session_id = b_prior + breaks - 1``, ``session_turn_idx = trail_in +
ridx`` before the segment's first break and, with ``compute_turn_idx``,
``turn_idx = turn_off + ridx``, where ridx counts the segment's emitted
rows. Unseeded segments start at 0. So one call extends a conversation
exactly where the previous run or shard left it. The
window widths are fixed by the gold column names: ``schema.H1``
(``turns_1h``, ``chars_1h``, ``<role>_turns_1h``), ``schema.H24``
(``tool_count_24h``) and ``schema.D7`` (``avg_chars_7d``).

Window semantics (parity-critical, SURVEY.md §7.3):
- trailing RANGE frame ``ts' in [ts - delta, ts]`` inclusive both ends,
  duplicate-ts peers included (Spark/DuckDB RANGE ... CURRENT ROW);
- ``tool_count_24h`` is the exact distinct count the reference *intended*
  (silver_and_gold.py:103 — Spark cannot run countDistinct over a window);
- lag/lead/session are ordered by ``(ts, turn_idx)`` within ``conv_id``;
- dedup keeps the first row per ``(conv_id, turn_idx)`` in ``(ts,
  ingest_ts)`` order — deterministic where the reference's
  ``dropDuplicates`` (silver_and_gold.py:66) is not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import windows as W
from .. import schema as S

TS_NULL = np.int64(np.iinfo(np.int64).min)
SHARD_COL = "__shard"     # int64 segment key next to conv_id in tagged tables
PREFIX_COL = "__prefix"   # int8: 1 = context row (window/lag/session state only)
N_CHARS_COL = "n_chars"   # int32 text length of a context row that has no text


def dedup_first(
    tbl: pa.Table,
    key_cols: list[str],
    order_cols: list[str],
) -> pa.Table:
    """Deterministic exact dedup: keep the first row per ``key_cols`` in
    ``order_cols`` order (reference D1, silver_and_gold.py:66, made
    deterministic). Vectorized: lexsort + first-of-run mask."""
    if tbl.num_rows == 0:
        return tbl
    k = len(key_cols)
    arrays = []
    for i, c in enumerate(key_cols + order_cols):
        col = tbl[c].combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            enc = pc.dictionary_encode(col)
            codes = np.asarray(enc.indices).astype(np.int64)
            if i >= k:
                # ORDER columns need value order, not first-appearance
                # order: remap dictionary codes to sorted-value ranks
                dic = np.asarray(enc.dictionary)
                rank = np.empty(len(dic), np.int64)
                rank[np.argsort(dic, kind="mergesort")] = np.arange(len(dic))
                codes = rank[codes]
            arrays.append(codes)
        else:
            arrays.append(np.asarray(col.cast(pa.int64())))
    # lexsort: last key is primary → reverse; sort by keys then order cols
    order = np.lexsort(tuple(reversed(arrays)))
    keys_sorted = [a[order] for a in arrays[:k]]
    first = np.zeros(tbl.num_rows, dtype=bool)
    first[0] = True
    neq = np.zeros(tbl.num_rows - 1, dtype=bool)
    for a in keys_sorted:
        neq |= a[1:] != a[:-1]
    first[1:] = neq
    return tbl.take(pa.array(order[first]))


@dataclass
class GoldConfig:
    gap_us: int = S.SESSION_GAP_US
    role_counts: tuple[str, ...] = ("user", "assistant")
    compute_turn_idx: bool = False  # derive turn_idx as row_number when absent
    tiebreak_col: str | None = None  # sort tiebreaker when computing turn_idx
    dedup: bool = True


@functools.cache  # one schema per role tuple, not one per partition
def gold_schema(role_counts: tuple[str, ...]) -> pa.Schema:
    """The gold layout (``schema.GOLD``) with one ``<role>_turns_1h``
    column per entry of ``role_counts``; empty and non-empty partitions
    both take their schema from here."""
    fields = list(S.GOLD)
    lo = S.GOLD.get_field_index("user_turns_1h")
    hi = S.GOLD.get_field_index("lag1_ts")
    roles = [pa.field(f"{rv}_turns_1h", pa.int64()) for rv in role_counts]
    return pa.schema(fields[:lo] + roles + fields[hi:])


def gold_features_partition(tbl: pa.Table, cfg: GoldConfig = GoldConfig()) -> pa.Table:
    """Compute the full gold feature vector for one hash partition of
    transcript turns: one sort, then trailing windows, lag/lead, sessions
    and turn index for every row at once. Input columns: conv_id, ts,
    role, text, tool and (unless cfg.compute_turn_idx) turn_idx;
    optionally ``__shard``, ``__prefix``, ``n_chars`` and the seeds
    (module docstring). Output: FIXTURES.md §3 layout,
    grouped by conversation (in first-appearance order — NOT conv_id
    value order) and sorted by (ts, turn_idx) within each conversation;
    consumers needing a global order sort explicitly."""
    if tbl.num_rows == 0:
        return gold_schema(cfg.role_counts).empty_table()
    tbl, ts, seg_start, real = _dedup_sort(tbl, cfg)
    seg_id = W.segment_ids(seg_start)

    # ---- trailing windows over all rows ----
    ts_adj = W.adjusted_ts(ts, seg_id, S.MAX_WINDOW_US)
    # a row's chars: N_CHARS_COL where set (the stream's carried prefix
    # rows hold their length, not their text), else the text's length.
    # fill_null(0): one null text must not become NaN — the prefix-sum
    # windowed_sum would poison chars_1h/avg_chars_7d for EVERY later row
    # in the partition (and DuckDB's SUM skips NULLs, i.e. counts 0)
    chars = pc.utf8_length(tbl["text"].combine_chunks())
    if N_CHARS_COL in tbl.column_names:
        chars = pc.coalesce(tbl[N_CHARS_COL].combine_chunks(), chars)
    chars = np.asarray(chars.cast(pa.int64()).fill_null(0)).astype(np.float64)
    l1, r1 = W.trailing_bounds(ts_adj, S.H1)
    l24, r24 = W.trailing_bounds(ts_adj, S.H24)
    l7, r7 = W.trailing_bounds(ts_adj, S.D7)
    tool = tbl["tool"].combine_chunks()
    tool_codes = np.asarray(
        pc.dictionary_encode(tool).indices.fill_null(-1)
    ).astype(np.int64)
    role = tbl["role"].combine_chunks()
    windows = [
        W.windowed_count(l1, r1),  # turns_1h
        W.windowed_sum(chars, l1, r1),  # chars_1h
        W.windowed_distinct(  # tool_count_24h
            tool_codes, np.asarray(pc.is_valid(tool)), l24, r24
        ),
        W.windowed_sum(chars, l7, r7) / W.windowed_count(l7, r7),  # avg_chars_7d
    ] + [
        W.windowed_count_where(np.asarray(pc.equal(role, rv).fill_null(False)), l1, r1)
        for rv in cfg.role_counts
    ]

    # ---- lag/lead over all rows (prefix rows are true predecessors) ----
    lag1 = W.lag_within(ts, seg_start, TS_NULL)
    lead1 = W.lead_within(ts, seg_start, TS_NULL)

    # ---- numbering among emitted rows: turn index, sessions ----
    b_prior, trail_in, turn_off = _seeds(tbl, seg_id)
    gap_prev, ridx, b, sturn = _numbering(ts, seg_start, real, cfg.gap_us, trail_in)
    if cfg.compute_turn_idx:
        turn_idx = (turn_off + ridx).astype(np.int32)
    else:
        turn_idx = np.asarray(tbl["turn_idx"].combine_chunks().cast(pa.int32()))

    # ---- emit real rows ----
    if real.all():
        keep, out = slice(None), tbl
    else:
        keep = np.flatnonzero(real)
        out = tbl.take(pa.array(keep))
    ts_r, gap_r = ts[keep], gap_prev[keep]
    ts_arr = pa.array(ts_r, pa.int64()).cast(pa.timestamp("us"))
    gap_null = gap_r < 0
    arrays = [
        out["conv_id"],
        pa.array(turn_idx[keep], pa.int32()),
        out["role"],
        out["tool"],
        out["text"],
        ts_arr,
        pc.strftime(ts_arr, format="%Y-%m-%d"),
        pa.array(ts_r.astype(np.float64) / S.US_PER_S),
        *(pa.array(w[keep]) for w in windows),
        _ts_with_null(lag1[keep]),
        _ts_with_null(lead1[keep]),
        pa.array(
            np.where(gap_null, 0, gap_r).astype(np.float64) / S.US_PER_S,
            pa.float64(),
            mask=gap_null,
        ),
        pa.array(b_prior[keep] + b[keep] - 1, pa.int64()),
        pa.array(sturn[keep].astype(np.int32), pa.int32()),
    ]
    return pa.Table.from_arrays(arrays, schema=gold_schema(cfg.role_counts))


def _dedup_sort(
    tbl: pa.Table, cfg: GoldConfig
) -> tuple[pa.Table, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's rows in the kernel's order: dedup (``cfg.dedup`` with
    a given turn_idx), then one sort by ``(conv_id[, __shard], ts,
    tiebreak)``, so prefix rows precede the real rows of their segment.
    ``__shard``, when present, is part of the segment key. Returns the
    sorted table, its int64 ``ts``, the segment starts and the mask of
    real (non-``__prefix``) rows."""
    sharded = SHARD_COL in tbl.column_names
    prefixed = PREFIX_COL in tbl.column_names
    seg_keys = ["conv_id", SHARD_COL] if sharded else ["conv_id"]
    if cfg.dedup and not cfg.compute_turn_idx:
        order_cols = ["ts"] + (["ingest_ts"] if "ingest_ts" in tbl.column_names else [])
        extra = [PREFIX_COL] if prefixed else []
        tbl = dedup_first(tbl, seg_keys + ["turn_idx"] + extra, order_cols)

    conv = np.asarray(
        pc.dictionary_encode(tbl["conv_id"].combine_chunks()).indices
    ).astype(np.int64)
    ts = _int64(tbl["ts"])
    tiebreak = cfg.tiebreak_col if cfg.compute_turn_idx else "turn_idx"
    shard = _int64(tbl[SHARD_COL]) if sharded else None
    keys = [ts] + ([shard] if sharded else []) + [conv]
    if tiebreak is not None:  # compute_turn_idx may leave it unset
        keys.insert(0, _int64(tbl[tiebreak]))
    order = np.lexsort(keys)
    tbl = tbl.take(pa.array(order))
    seg_start = W.segment_starts(conv[order])
    if sharded:
        seg_start |= W.segment_starts(shard[order])
    if prefixed:
        real = ~np.asarray(tbl[PREFIX_COL].combine_chunks()).astype(bool)
    else:
        real = np.ones(tbl.num_rows, dtype=bool)
    return tbl, ts[order], seg_start, real


def _numbering(
    ts: np.ndarray,
    seg_start: np.ndarray,
    real: np.ndarray,
    gap_us: int,
    trail_in: np.ndarray | int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per sorted row: ``gap_prev`` (µs since the segment's previous row,
    -1 at its first), ``ridx``, ``b`` (the segment's real-row session
    breaks so far) and ``sturn`` (session_turn_idx). A real row breaks
    when it opens its segment or follows a gap over ``gap_us``."""
    n = len(ts)
    gap_prev = np.empty(n, dtype=np.int64)
    gap_prev[1:] = ts[1:] - ts[:-1]
    gap_prev[seg_start] = -1
    arange = np.arange(n, dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
    cum = np.cumsum(real, dtype=np.int64)
    ridx = cum - (cum[seg_first] - real[seg_first]) - 1
    br = real & (seg_start | (gap_prev > gap_us))
    cum = np.cumsum(br, dtype=np.int64)
    b = cum - (cum[seg_first] - br[seg_first])
    # b > 0 means the segment's last break so far lies in this segment
    last_br = np.maximum.accumulate(np.where(br, arange, 0))
    sturn = np.where(b > 0, ridx - ridx[last_br], trail_in + ridx)
    return gap_prev, ridx, b, sturn


def _seeds(tbl: pa.Table, seg_id: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row, its segment's ``(b_prior, trail_in, turn_off)``: each the
    value of the segment's rows that set it, else 0."""
    seeds = []
    for c in ("b_prior", "trail_in", "turn_off"):
        per_seg = np.zeros(int(seg_id[-1]) + 1, np.int64)
        if c in tbl.column_names:
            col = tbl[c].combine_chunks()
            seeded = np.asarray(pc.is_valid(col))
            per_seg[seg_id[seeded]] = np.asarray(col.fill_null(0))[seeded]
        seeds.append(per_seg[seg_id])
    return tuple(seeds)


def _int64(col: pa.ChunkedArray) -> np.ndarray:
    return np.asarray(col.combine_chunks().cast(pa.int64()))


def _ts_with_null(vals: np.ndarray) -> pa.Array:
    mask = vals == TS_NULL
    return pa.array(np.where(mask, 0, vals), pa.int64(), mask=mask).cast(
        pa.timestamp("us")
    )
