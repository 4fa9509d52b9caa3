"""Segmented, fully-vectorized trailing-window kernels.

These kernels implement the reference's per-entity event-time RANGE windows
(reference ``spark_jobs/silver_and_gold.py:95-105``:
``Window.partitionBy("card_id").orderBy("ts").rangeBetween(-N, 0)``) plus the
north-rule extensions (lag/lead, sessionization, per-category rolling counts)
as pure numpy over arrays that are sorted by ``(segment, ts, tiebreak)``.

Key ideas
---------
* **Segment-offset trick**: after sorting by ``(seg, ts)``, shift each
  segment's timestamps by ``seg_id * span`` (``span`` > global ts range +
  max window). The concatenated array is then *globally* sorted and no
  trailing window ``[t - delta, t]`` can cross a segment boundary, so every
  kernel is a single global ``searchsorted`` / ``cumsum`` — no per-group
  Python loop. This is what lets one Ray task process a whole hash
  partition (thousands of conversations) vectorized.
* **RANGE-frame tie semantics**: the window of row *i* is all rows *j* with
  ``ts_j in [ts_i - delta, ts_i]`` — inclusive both ends, *including peers
  with equal ts that sort after i* (Spark/DuckDB RANGE ... CURRENT ROW
  includes all ties). Hence ``r = searchsorted(side="right")``.
* **Exact sliding distinct count** (reference intent at
  ``silver_and_gold.py:103`` — Spark can't express countDistinct over a
  window; we implement the intent exactly): an offline interval-add
  algorithm. Element *j* is the first occurrence of its value inside window
  *i* iff ``prev[j] < l_i <= j < r_i`` where ``prev[j]`` is the previous
  index with the same value. Because both window boundary arrays ``l`` and
  ``r`` are globally non-decreasing (the offset trick again), the set of
  windows counting *j* is a contiguous index interval computed by three
  ``searchsorted`` calls; a diff-array + cumsum yields all counts in
  O(n log n) with no loop.

All kernels take/return numpy arrays; Arrow integration lives in
``stages/featurize.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_starts",
    "segment_bounds",
    "segment_ids",
    "adjusted_ts",
    "trailing_bounds",
    "windowed_count",
    "windowed_sum",
    "windowed_count_where",
    "prev_same_value",
    "windowed_distinct",
    "segmented_maximum_accumulate",
    "lag_within",
    "lead_within",
    "sessionize",
]


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask: True where a new segment begins (keys already sorted)."""
    n = len(sorted_keys)
    start = np.empty(n, dtype=bool)
    if n == 0:
        return start
    start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=start[1:])
    return start


def segment_ids(seg_start: np.ndarray) -> np.ndarray:
    """0-based segment id per row from a segment-start mask."""
    if len(seg_start) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.cumsum(seg_start, dtype=np.int64) - 1


def segment_bounds(
    sorted_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, lengths) index arrays of each run of equal keys in an
    already-sorted array — the one shared definition of the
    ``concatenate(([0], flatnonzero(diff)+1))`` boundary idiom the keyed
    per-partition kernels all rely on."""
    n = len(sorted_keys)
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    ).astype(np.int64)
    ends = np.concatenate((starts[1:], [n])).astype(np.int64)
    return starts, ends, ends - starts


def adjusted_ts(ts: np.ndarray, seg_id: np.ndarray, max_delta: int) -> np.ndarray:
    """Offset each segment's int64 timestamps so the whole array is sorted
    and no trailing window of width <= ``max_delta`` crosses segments."""
    n = len(ts)
    if n == 0:
        return ts.astype(np.int64, copy=True)
    ts = ts.astype(np.int64, copy=False)
    t0 = ts.min()
    rel = ts - t0
    span = int(rel.max()) + int(max_delta) + 2
    n_seg = int(seg_id[-1]) + 1 if n else 1
    if n_seg * span >= np.iinfo(np.int64).max // 2:
        raise OverflowError(
            f"segment-offset overflow: {n_seg} segments x span {span}; "
            "split the partition"
        )
    return rel + seg_id * span


def trailing_bounds(ts_adj: np.ndarray, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open index bounds [l_i, r_i) of the trailing RANGE window
    ``ts in [ts_i - delta, ts_i]`` (ties at the right edge included)."""
    r = np.searchsorted(ts_adj, ts_adj, side="right")
    l = np.searchsorted(ts_adj, ts_adj - delta, side="left")
    return l, r


def windowed_count(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    return (r - l).astype(np.int64)


def _prefix(x: np.ndarray, dtype) -> np.ndarray:
    cs = np.empty(len(x) + 1, dtype=dtype)
    cs[0] = 0
    np.cumsum(x, dtype=dtype, out=cs[1:])
    return cs


def windowed_sum(x: np.ndarray, l: np.ndarray, r: np.ndarray) -> np.ndarray:
    cs = _prefix(x, np.float64)
    return cs[r] - cs[l]


def windowed_count_where(mask: np.ndarray, l: np.ndarray, r: np.ndarray) -> np.ndarray:
    cs = _prefix(mask.astype(np.int64), np.int64)
    return cs[r] - cs[l]


def prev_same_value(codes: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the subsequence of valid rows, the previous *global* index holding
    the same value code (-1 if none). Returns ``(idx, prev)`` where ``idx``
    are the global indices of valid rows (ascending) and ``prev[k]`` is the
    previous valid index with ``codes == codes[idx[k]]``.

    Cross-segment links are harmless for :func:`windowed_distinct` because a
    window never crosses a segment, so any ``prev`` pointing into an earlier
    segment is always ``< l_i``.
    """
    idx = np.flatnonzero(valid)
    c = codes[idx]
    order = np.argsort(c, kind="stable")  # stable → index-ascending within value
    sc = c[order]
    si = idx[order]
    prev_in_order = np.full(len(idx), -1, dtype=np.int64)
    if len(idx) > 1:
        same = sc[1:] == sc[:-1]
        prev_in_order[1:][same] = si[:-1][same]
    prev = np.empty(len(idx), dtype=np.int64)
    prev[order] = prev_in_order
    return idx, prev


def windowed_distinct(
    codes: np.ndarray,
    valid: np.ndarray,
    l: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """Exact trailing distinct count of ``codes`` (rows where ``valid``) for
    every window ``[l_i, r_i)``. Requires ``l`` and ``r`` globally
    non-decreasing (guaranteed by :func:`trailing_bounds` on offset ts)."""
    n = len(codes)
    out = np.zeros(n, dtype=np.int64)
    idx, prev = prev_same_value(codes, valid)
    if len(idx) == 0:
        return out
    # windows i counting element j: max(first i with r_i > j, first i with
    # l_i > prev[j])  <=  i  <  first i with l_i > j
    c = np.searchsorted(r, idx, side="right")
    d = np.searchsorted(l, prev, side="right")
    a = np.maximum(c, d)
    b = np.searchsorted(l, idx, side="right")
    good = a < b
    diff = np.zeros(n + 1, dtype=np.int64)
    np.add.at(diff, a[good], 1)
    np.add.at(diff, b[good], -1)
    np.cumsum(diff[:-1], out=out)
    return out


def segmented_maximum_accumulate(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """np.maximum.accumulate restarted at each segment start, for
    values >= -1 (-1 = "none yet")."""
    n = len(x)
    if n == 0:
        return x
    lo = np.int64(np.iinfo(np.int64).min // 4)
    # offset trick: add a huge per-segment ramp so maxima never cross segs
    seg_id = np.cumsum(seg_start, dtype=np.int64) - 1
    # x values are small — offset by seg_id * big
    big = np.int64(1) << np.int64(40)
    n_seg = int(seg_id[-1]) + 1
    if n_seg * int(big) + max(int(x.max(initial=0)), 0) >= (1 << 62):
        # same explicit guard as adjusted_ts — numpy int64 wraps
        # silently past this (ADVICE r1)
        raise OverflowError(
            f"segment offset ramp would overflow int64: {n_seg} segments"
        )
    shifted = x.astype(np.int64) + seg_id * big
    acc = np.maximum.accumulate(np.where(x == -1, lo + seg_id * big, shifted))
    out = acc - seg_id * big
    out[out < -1] = -1
    return out


def lag_within(x: np.ndarray, seg_start: np.ndarray, fill) -> np.ndarray:
    """Shift forward by one within each segment (``lag(1)``); segment-first
    rows get ``fill``."""
    out = np.empty_like(x)
    if len(x) == 0:
        return out
    out[1:] = x[:-1]
    out[0] = fill
    out[seg_start] = fill
    return out


def lead_within(x: np.ndarray, seg_start: np.ndarray, fill) -> np.ndarray:
    """Shift backward by one within each segment (``lead(1)``); segment-last
    rows get ``fill``."""
    out = np.empty_like(x)
    n = len(x)
    if n == 0:
        return out
    out[:-1] = x[1:]
    out[-1] = fill
    seg_end = np.empty(n, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    seg_end[-1] = True
    out[seg_end] = fill
    return out


def sessionize(
    ts: np.ndarray, seg_start: np.ndarray, gap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap-threshold sessionization over ``(seg, ts)``-sorted rows.

    A new session starts at each segment start and whenever
    ``ts_i - ts_{i-1} > gap``. Returns ``(session_id, session_turn_idx,
    gap_prev)`` where ``session_id`` is 0-based within each segment,
    ``session_turn_idx`` is 0-based within each session, and ``gap_prev`` is
    ``ts_i - ts_{i-1}`` within segment (first row of a segment: -1 sentinel;
    callers null it out).
    """
    n = len(ts)
    ts = ts.astype(np.int64, copy=False)
    gap_prev = np.empty(n, dtype=np.int64)
    if n == 0:
        return gap_prev, np.zeros(0, np.int32), gap_prev
    gap_prev[1:] = ts[1:] - ts[:-1]
    gap_prev[0] = -1
    gap_prev[seg_start] = -1
    breaks = seg_start | (gap_prev > gap)
    cum = np.cumsum(breaks, dtype=np.int64)  # >=1 everywhere (row 0 is a break)
    # session_id within segment: cum minus cum at the segment's first row.
    arange = np.arange(n, dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
    session_id = cum - cum[seg_first]  # 0-based (first session: cum == cum[seg_first])
    sess_first = np.maximum.accumulate(np.where(breaks, arange, 0))
    session_turn_idx = (arange - sess_first).astype(np.int32)
    return session_id, session_turn_idx, gap_prev
