"""Kernel unit tests: vectorized window kernels vs a brute-force O(n^2) oracle.

Covers the watch-list items from SURVEY.md §7.3: RANGE-frame tie semantics
(duplicate-ts peers included), inclusive [ts-delta, ts] bounds, exact sliding
distinct count with nulls, lag/lead nulls at segment edges, session gap edges.
"""

import numpy as np
import pandas as pd
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.functions import windows as W


def brute_force(ts, seg, delta):
    """Oracle: per-row trailing [ts-delta, ts] window membership mask."""
    n = len(ts)
    masks = []
    for i in range(n):
        m = (seg == seg[i]) & (ts >= ts[i] - delta) & (ts <= ts[i])
        masks.append(m)
    return masks


def make_case(rng, n_seg=7, n=400, ts_range=10_000, dup_ts=True):
    seg = np.sort(rng.integers(0, n_seg, n))
    ts = np.sort(rng.integers(0, ts_range, n).astype(np.int64))
    # sort by (seg, ts)
    order = np.lexsort((ts, seg))
    seg, ts = seg[order], ts[order]
    # re-sort ts within segments
    out_ts = np.empty_like(ts)
    for s in np.unique(seg):
        m = seg == s
        out_ts[m] = np.sort(ts[m])
    if dup_ts:
        # force duplicate-ts peers within segments
        dup_idx = rng.integers(1, n, n // 10)
        for i in dup_idx:
            if seg[i] == seg[i - 1]:
                out_ts[i] = out_ts[i - 1]
        for s in np.unique(seg):
            m = seg == s
            out_ts[m] = np.sort(out_ts[m])
    return seg, out_ts


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("delta", [0, 1, 500, 100_000])
def test_count_sum_distinct_vs_bruteforce(seed, delta):
    rng = np.random.default_rng(seed)
    seg, ts = make_case(rng)
    n = len(ts)
    x = rng.normal(size=n) * 10
    codes = rng.integers(0, 5, n)
    valid = rng.random(n) > 0.3

    seg_start = W.segment_starts(seg)
    seg_id = W.segment_ids(seg_start)
    ts_adj = W.adjusted_ts(ts, seg_id, delta)
    assert np.all(np.diff(ts_adj) >= 0)
    l, r = W.trailing_bounds(ts_adj, delta)

    masks = brute_force(ts, seg, delta)
    exp_count = np.array([m.sum() for m in masks])
    exp_sum = np.array([x[m].sum() for m in masks])
    exp_dist = np.array([len(set(codes[m & valid])) for m in masks])
    exp_cnt_v = np.array([(m & valid).sum() for m in masks])

    np.testing.assert_array_equal(W.windowed_count(l, r), exp_count)
    np.testing.assert_allclose(W.windowed_sum(x, l, r), exp_sum, atol=1e-9)
    np.testing.assert_array_equal(W.windowed_distinct(codes, valid, l, r), exp_dist)
    np.testing.assert_array_equal(W.windowed_count_where(valid, l, r), exp_cnt_v)


def test_tie_peers_included():
    # all rows same ts in one segment: every window includes everything
    seg = np.zeros(5, dtype=np.int64)
    ts = np.full(5, 100, dtype=np.int64)
    seg_start = W.segment_starts(seg)
    ts_adj = W.adjusted_ts(ts, W.segment_ids(seg_start), 10)
    l, r = W.trailing_bounds(ts_adj, 10)
    np.testing.assert_array_equal(W.windowed_count(l, r), [5] * 5)


def test_lag_lead_session():
    seg = np.array([0, 0, 0, 1, 1])
    ts = np.array([0, 10, 2000, 5, 6], dtype=np.int64)
    seg_start = W.segment_starts(seg)
    lag = W.lag_within(ts, seg_start, -1)
    lead = W.lead_within(ts, seg_start, -1)
    np.testing.assert_array_equal(lag, [-1, 0, 10, -1, 5])
    np.testing.assert_array_equal(lead, [10, 2000, -1, 6, -1])

    sid, stx, gap = W.sessionize(ts, seg_start, gap=1000)
    np.testing.assert_array_equal(sid, [0, 0, 1, 0, 0])
    np.testing.assert_array_equal(stx, [0, 1, 0, 0, 1])
    np.testing.assert_array_equal(gap, [-1, 10, 1990, -1, 1])


def test_session_gap_edge_inclusive():
    # gap exactly == threshold does NOT break (rule: gap > threshold)
    seg = np.zeros(3, dtype=np.int64)
    ts = np.array([0, 1000, 2001], dtype=np.int64)
    sid, stx, _ = W.sessionize(ts, W.segment_starts(seg), gap=1000)
    np.testing.assert_array_equal(sid, [0, 0, 1])
    np.testing.assert_array_equal(stx, [0, 1, 0])


def test_empty():
    seg = np.zeros(0, dtype=np.int64)
    ts = np.zeros(0, dtype=np.int64)
    ss = W.segment_starts(seg)
    ts_adj = W.adjusted_ts(ts, W.segment_ids(ss), 10)
    l, r = W.trailing_bounds(ts_adj, 10)
    assert len(W.windowed_count(l, r)) == 0
    assert len(W.windowed_distinct(seg, np.zeros(0, bool), l, r)) == 0


def test_null_text_does_not_poison_windows():
    """One null text must contribute 0 chars (SQL SUM-skips-NULL parity),
    not NaN-poison every later row's prefix-sum windows."""
    import pyarrow as pa

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
        GoldConfig,
        gold_features_partition,
    )

    base = pd.Timestamp("2024-01-01")
    tbl = pa.table(
        {
            "conv_id": pa.array(["c"] * 3),
            "turn_idx": pa.array([0, 1, 2], pa.int32()),
            "role": pa.array(["user"] * 3),
            "text": pa.array(["ab", None, "cdef"], pa.string()),
            "tool": pa.array([None] * 3, pa.string()),
            "ts": pa.array([base + pd.Timedelta(minutes=i) for i in range(3)]),
        }
    )
    out = gold_features_partition(tbl, GoldConfig(dedup=False)).to_pandas()
    assert out["chars_1h"].tolist() == [2.0, 2.0, 6.0]
    assert not out["avg_chars_7d"].isna().any()


def test_dedup_first_string_order_col_uses_value_order():
    import pyarrow as pa

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
        dedup_first,
    )

    # 'r2' appears BEFORE 'r1' in input: value order must still pick 'r1'
    tbl = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "run": pa.array(["r2", "r1"], pa.string()),
            "v": pa.array([20, 10], pa.int64()),
        }
    )
    out = dedup_first(tbl, ["k"], ["run"])
    assert out["run"].to_pylist() == ["r1"]
    assert out["v"].to_pylist() == [10]


def test_empty_gold_schema_matches_nonempty():
    """Empty partitions of both fused-pass entry points must carry the
    non-empty schema, or the block union fails."""
    import pyarrow as pa

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries import (
        EVENT_ROLES,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
        GoldConfig,
        gold_features_partition,
        gold_schema,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.salted import (
        PREFIX_COL,
        SHARD_COL,
        gold_partition_phase_a,
    )

    base = pd.Timestamp("2024-01-01")
    one = pa.table(
        {
            "conv_id": pa.array(["c"]),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["user"]),
            "text": pa.array(["x"]),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([base]),
            "event_id": pa.array([3], pa.int64()),
        }
    )
    tagged = one.append_column(SHARD_COL, pa.array([-1], pa.int64()))
    tagged = tagged.append_column(PREFIX_COL, pa.array([0], pa.int8()))
    prefix_only = tagged.set_column(
        tagged.schema.get_field_index(PREFIX_COL), PREFIX_COL,
        pa.array([1], pa.int8()),
    )
    cfgs = [
        GoldConfig(dedup=False),
        GoldConfig(compute_turn_idx=True, tiebreak_col="event_id",
                   dedup=False, role_counts=EVENT_ROLES),
    ]
    for cfg in cfgs:
        empty = gold_features_partition(one.slice(0, 0), cfg)
        nonempty = gold_features_partition(one, cfg)
        assert empty.num_rows == 0 and nonempty.num_rows == 1
        assert empty.schema == nonempty.schema
        pa.concat_tables([empty, nonempty])  # must not raise

        empty_a = gold_partition_phase_a(tagged.slice(0, 0), cfg)
        nonempty_a = gold_partition_phase_a(tagged, cfg)
        only_prefix = gold_partition_phase_a(prefix_only, cfg)
        assert nonempty_a.num_rows == 1 and only_prefix.num_rows == 0
        assert empty_a.schema == nonempty_a.schema == gold_schema(cfg.role_counts)
        assert only_prefix.schema == nonempty_a.schema


def test_asof_duplicate_key_ts_rejected_and_overflow_guard():
    import pyarrow as pa
    import pytest

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.asof import (
        _SortedRight,
    )

    dup = pa.table(
        {
            "k": pa.array(["a", "a"]),
            "ts": pa.array([100, 100], pa.timestamp("us")),
            "v": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="duplicate"):
        _SortedRight(dup, "k", "ts")
