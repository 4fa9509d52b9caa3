"""The query stages' two plans. An input of one block
(``sources.reads.one_block``, at most ``SMALL_BLOCK`` bytes) runs in one Ray
task: it forms the same hash partitions as the keyed exchange, sorts where
``Dataset.sort`` would, and folds where ``groupby().aggregate`` would. A
larger one goes through the exchange. The exchange is forced by shrinking
``SMALL_BLOCK``, below 0 where even an empty input must take it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from test_stream_plans import force_exchange

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources import (
    reads,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.globalorder import (
    with_global_prefix_max,
    with_global_scans,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
    connected_components,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
    cogroup_by_key,
    fold_by_keys,
    map_partitions_by_key,
    sum_partials,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.skewjoin import (
    skew_aware_join,
)
from perfbench.oracle import digest
from perfbench.queries import QUERIES, registry
from perfbench.spans import EXCHANGE_METHODS

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("name", QUERIES)
def test_query_mix_same_digest_on_both_plans(ray_session, monkeypatch, name):
    fn, _sql = registry([name])[name]
    one_task = digest(fn(SF))
    force_exchange(monkeypatch)
    assert digest(fn(SF)) == one_task


def _thirds(t: pa.Table):
    """Three blocks that keep the schema even when empty."""
    import ray.data as rd

    n = t.num_rows
    return rd.from_arrow([t.slice(0, n // 3), t.slice(n // 3, n // 3),
                          t.slice(2 * (n // 3))])


def _repartitioned(t: pa.Table):
    """Three blocks; an empty table loses its schema on the way."""
    import ray.data as rd

    return rd.from_arrow(t).repartition(3)


def _stages(k: np.ndarray, ds=_thirds):
    """Each stage over keys ``k`` (facts (k, v), dims (k, name), edges
    (k, k + 1)), each table made a Dataset by ``ds``, as name ->
    zero-argument callable returning a Dataset."""
    # closures, so Ray pickles them by value (test modules are not
    # importable in workers)
    def per_key_rows(t: pa.Table) -> pa.Table:
        # a whole-partition function: rows per key within the partition
        uniq, cnt = np.unique(np.asarray(t["k"].combine_chunks()), return_counts=True)
        return pa.table({"k": pa.array(uniq, pa.int64()), "n": pa.array(cnt, pa.int64())})

    def join(lp: pa.Table, rp: pa.Table) -> pa.Table:
        return lp.join(rp, "k").select(["k", "v", "name"])

    facts = pa.table({"k": pa.array(k, pa.int64()),
                      "v": pa.array(np.arange(len(k)), pa.int64())})
    dims = pa.table({"k": pa.array(np.unique(k), pa.int64()),
                     "name": pa.array([f"n{i}" for i in np.unique(k)], pa.string())})
    edges = pa.table({"doc_a": pa.array(k, pa.int64()),
                      "doc_b": pa.array(k + 1, pa.int64())})

    return {
        "map_partitions_by_key": lambda: map_partitions_by_key(
            ds(facts), "k", per_key_rows, num_parts=4),
        "fold_by_keys": lambda: fold_by_keys(ds(facts), ["k"], sums=("v",)),
        "cogroup_by_key": lambda: cogroup_by_key(ds(facts), ds(dims), "k", join),
        "connected_components": lambda: connected_components(ds(edges)),
        "skew_aware_join": lambda: skew_aware_join(
            ds(facts), ds(dims), "k", join, num_parts=4, hot_threshold=50),
        "with_global_scans": lambda: with_global_scans(
            ds(facts), ["k", "v"], descending=[True, False],
            specs=[("r", None), ("rv", "v")]),
        "with_global_prefix_max": lambda: with_global_prefix_max(
            ds(facts), ["v"], "k", "mx"),
        "sum_partials": lambda: sum_partials(
            ds(facts), ["k"], {"v": "s"}, lambda t: t),
    }


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(sorted(df.columns), ignore_index=True)


@pytest.mark.parametrize("stage", list(_stages(np.zeros(1, np.int64))))
def test_stage_same_rows_on_both_plans(ray_session, monkeypatch, stage):
    # key 0 is hot for the skew join; keys 100.. make disjoint chains
    k = np.concatenate([np.zeros(80, np.int64),
                        np.random.default_rng(5).integers(100, 400, 300)])
    one_task = _frame(_stages(k)[stage]())
    assert len(one_task)
    force_exchange(monkeypatch)
    pd.testing.assert_frame_equal(_frame(_stages(k)[stage]()), one_task)


def _spy_exchanges(monkeypatch) -> list:
    """Record each call of a ``Dataset`` method that plans an exchange: the
    ones perfbench counts, and ``groupby``."""
    from ray.data import Dataset

    calls = []

    def spy(meth):
        orig = getattr(Dataset, meth)

        def inner(self, *a, **kw):
            calls.append(meth)
            return orig(self, *a, **kw)

        return inner

    for meth in [*EXCHANGE_METHODS, "groupby"]:
        monkeypatch.setattr(Dataset, meth, spy(meth))
    return calls


def test_one_block_inputs_plan_no_exchange(ray_session, monkeypatch):
    calls = _spy_exchanges(monkeypatch)
    k = np.random.default_rng(3).integers(0, 50, 500)
    for name, run in _stages(k).items():
        assert len(run().to_pandas()), name
    assert calls == []


def test_query_mix_plans_no_exchange_at_one_block(ray_session, monkeypatch):
    """At sf0.001 no query of perfbench's mix calls ``Dataset.sort``,
    ``groupby``, ``repartition`` or another exchange."""
    reg = registry(QUERIES)
    calls = _spy_exchanges(monkeypatch)
    for name in QUERIES:
        reg[name][0](SF).materialize()
        assert calls == [], name


@pytest.mark.parametrize("plan", ["one_task", "exchange"])
def test_empty_input_yields_no_rows(ray_session, monkeypatch, plan):
    if plan == "exchange":
        monkeypatch.setattr(reads, "SMALL_BLOCK", -1)
    for ds in (_thirds, _repartitioned):
        for name, run in _stages(np.zeros(0, np.int64), ds).items():
            if ds is _repartitioned and name == "cogroup_by_key":
                continue  # a schema-less side needs left_schema/right_schema
            assert run().count() == 0, (ds.__name__, name)
