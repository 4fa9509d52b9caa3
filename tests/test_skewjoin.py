"""Skew-aware join: path routing and parity with a single-path join.

Every fixture here is one block, which the join runs as one task without
routing; the routing tests force the exchange by shrinking
``sources.reads.SMALL_BLOCK``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from test_stream_plans import force_exchange

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.skewjoin import (
    skew_aware_join,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.salted import (
    detect_hot_keys,
)

SCHEMA = pa.schema(
    [("k", pa.int64()), ("v", pa.int64()), ("name", pa.string())]
)


def _make_join(schema=SCHEMA):
    # closure so Ray cloudpickles it by value (test modules aren't
    # importable from worker processes)
    def _join(lp: pa.Table, rp: pa.Table) -> pa.Table:
        if lp.num_rows == 0 or rp.num_rows == 0:
            return schema.empty_table()
        rk = np.asarray(rp["k"].combine_chunks())
        order = np.argsort(rk)
        rk_s = rk[order]
        lk = np.asarray(lp["k"].combine_chunks())
        pos = np.minimum(np.searchsorted(rk_s, lk), len(rk_s) - 1)
        hit = rk_s[pos] == lk
        out = lp.select(["k", "v"]).take(pa.array(np.flatnonzero(hit)))
        out = out.append_column(
            "name", rp["name"].combine_chunks().take(pa.array(order[pos[hit]]))
        )
        return out.cast(schema)

    return _join


def _fixture():
    import ray.data as rd

    # Zipf-ish fact: key 0 has 500 rows, keys 1..20 have 10 each.
    ks = np.concatenate([np.zeros(500, np.int64),
                         np.repeat(np.arange(1, 21), 10)])
    rng = np.random.default_rng(7)
    rng.shuffle(ks)
    fact = rd.from_arrow(
        pa.table({"k": ks, "v": np.arange(len(ks), dtype=np.int64)})
    ).repartition(8)
    dim = rd.from_arrow(
        pa.table(
            {"k": np.arange(25, dtype=np.int64),
             "name": [f"n{i}" for i in range(25)]}
        )
    )
    return fact, dim, ks


def _expected(ks):
    df = pd.DataFrame({"k": ks, "v": np.arange(len(ks), dtype=np.int64)})
    dim = pd.DataFrame(
        {"k": np.arange(25, dtype=np.int64),
         "name": [f"n{i}" for i in range(25)]}
    )
    return (
        df.merge(dim, on="k")
        .sort_values(["k", "v"], ignore_index=True)[["k", "v", "name"]]
    )


def _canon(df):
    return df.sort_values(["k", "v"], ignore_index=True)[["k", "v", "name"]]


def test_skew_join_two_paths(ray_session, monkeypatch):
    force_exchange(monkeypatch)
    fact, dim, ks = _fixture()
    # threshold 100: only key 0 is hot -> both paths carry rows
    hot = detect_hot_keys(fact, "k", 100)
    assert np.asarray(hot).tolist() == [0]
    out = skew_aware_join(fact, dim, "k", _make_join(), num_parts=8, hot_threshold=100)
    got = _canon(out.to_pandas())
    pd.testing.assert_frame_equal(got, _expected(ks), check_dtype=False)


def test_skew_join_no_hot_keys_falls_back_to_shuffle(ray_session, monkeypatch):
    force_exchange(monkeypatch)
    fact, dim, ks = _fixture()
    out = skew_aware_join(
        fact, dim, "k", _make_join(), num_parts=8, hot_threshold=10_000
    )
    got = _canon(out.to_pandas())
    pd.testing.assert_frame_equal(got, _expected(ks), check_dtype=False)


def test_skew_join_all_hot_is_pure_broadcast(ray_session, monkeypatch):
    force_exchange(monkeypatch)
    fact, dim, ks = _fixture()
    out = skew_aware_join(fact, dim, "k", _make_join(), num_parts=8, hot_threshold=1)
    got = _canon(out.to_pandas())
    pd.testing.assert_frame_equal(got, _expected(ks), check_dtype=False)


def test_skew_join_plan_equivalence_zipf(ray_session, monkeypatch):
    """Both plans (skew-aware vs single-path cogroup) must emit identical
    rows on a heavily Zipf-skewed corpus — routing is correctness-neutral."""
    import ray.data as rd

    force_exchange(monkeypatch)

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
        cogroup_by_key,
    )

    rng = np.random.default_rng(23)
    # Zipf keys over 200 distinct values, ~60k rows, top key ~20%
    ks = rng.zipf(1.3, size=60_000).astype(np.int64) % 200
    fact = rd.from_arrow(
        pa.table({"k": ks, "v": np.arange(len(ks), dtype=np.int64)})
    ).repartition(16)
    dim = rd.from_arrow(
        pa.table(
            {"k": np.arange(200, dtype=np.int64),
             "name": [f"n{i}" for i in range(200)]}
        )
    )
    a = skew_aware_join(
        fact, dim, "k", _make_join(), num_parts=16, hot_threshold=1000
    ).to_pandas()
    b = cogroup_by_key(
        fact, dim, "k", _make_join(), num_parts=16
    ).to_pandas()
    a = a.sort_values(["k", "v"], ignore_index=True)
    b = b.sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_skew_join_empty_right_yields_empty_inner_join(ray_session):
    import ray.data as rd

    fact, _dim, _ks = _fixture()
    empty_dim = rd.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "name": pa.array([], pa.string())})
    )
    out = skew_aware_join(
        fact, empty_dim, "k", _make_join(), num_parts=8, hot_threshold=100
    ).to_pandas()
    assert len(out) == 0
    # Ray drops the schema of an all-empty materialized result; when any
    # columns survive they must be the join schema
    assert sorted(out.columns) in ([], ["k", "name", "v"])
