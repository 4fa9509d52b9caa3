"""Global rank: exactness across many blocks and both sort directions.
The block-offset scan runs only for inputs larger than one block, so the
tests that target it force that plan (``force_exchange``)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from test_stream_plans import force_exchange

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.globalorder import (
    with_global_prefix_max,
    with_global_rank,
    with_global_scans,
)


def _rank_check(n, descending, seed):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 97, size=n)  # heavy ties -> tiebreak by id
    ids = rng.permutation(n)
    ds = rd.from_arrow(
        pa.table({"id": ids.astype(np.int64), "v": vals.astype(np.int64)})
    ).repartition(16)
    out = with_global_rank(
        ds, ["v", "id"], descending=[descending, False]
    ).materialize()
    assert out.num_blocks() > 1, "fixture must exercise the offset scan"
    got = out.to_pandas().sort_values("rnk", ignore_index=True)
    exp = (
        pd.DataFrame({"id": ids, "v": vals})
        .sort_values(["v", "id"], ascending=[not descending, True],
                     ignore_index=True)
    )
    assert (got["rnk"].to_numpy() == np.arange(1, n + 1)).all()
    assert (got["id"].to_numpy() == exp["id"].to_numpy()).all()
    assert (got["v"].to_numpy() == exp["v"].to_numpy()).all()


def test_neighbor_pairs_exact_with_cohashed_buckets(ray_session):
    """num_parts=2 forces many buckets per partition, so rows present as
    both owner and overlap copy in one partition are exercised."""
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.globalorder import (
        neighbor_pairs,
    )

    n, w, b = 5_000, 4, 32
    rng = np.random.default_rng(5)
    ids = rng.permutation(n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"id": ids})).repartition(16)
    ranked = with_global_rank(ds, ["id"], descending=[False])
    pairs = neighbor_pairs(
        ranked, rank_col="rnk", window=w, carry_cols=["id"],
        bucket_size=b, num_parts=2,
    ).to_pandas()
    # expected: ids sorted ascending = 0..n-1; pair (a, a+d) for d<=w
    exp = set()
    for d in range(1, w + 1):
        exp.update(zip(range(0, n - d), range(d, n)))
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert len(pairs) == len(got), "duplicate pairs emitted"
    assert got == exp


def test_neighbor_pairs_window_must_be_below_bucket(ray_session):
    import pytest as _pytest
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.globalorder import (
        neighbor_pairs,
    )

    ds = rd.from_arrow(pa.table({"id": np.arange(10, dtype=np.int64)}))
    ranked = with_global_rank(ds, ["id"], descending=[False])
    with _pytest.raises(ValueError):
        neighbor_pairs(
            ranked, rank_col="rnk", window=8, carry_cols=["id"], bucket_size=8
        )


def test_global_rank_single_row(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"id": np.array([42], np.int64)}))
    out = with_global_rank(ds, ["id"], descending=[False]).to_pandas()
    assert out["rnk"].tolist() == [1]


def test_global_rank_multiblock_desc(ray_session, monkeypatch):
    force_exchange(monkeypatch)
    _rank_check(20_000, True, 3)


def test_global_rank_adversarial_tiny_blocks(ray_session, monkeypatch):
    """Stress the two-pass block-bundling assumption with a tiny
    target block size (many small sorted blocks): ranks must stay an
    exact permutation, or the loud boundary-drift guard must fire —
    silent corruption is the only unacceptable outcome."""
    from ray.data.context import DataContext

    force_exchange(monkeypatch)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024  # ~16 KiB blocks
        _rank_check(50_000, False, 17)
    finally:
        ctx.target_max_block_size = old


def test_global_rank_multiblock_asc(ray_session, monkeypatch):
    force_exchange(monkeypatch)
    _rank_check(20_000, False, 11)


def test_weighted_rank_equals_expanded_rank(ray_session, monkeypatch):
    """with_global_rank(weight_col) over a distinct-value/count table
    gives each value exactly the min rank its expanded row population
    would get from the unweighted ranker."""
    import ray.data as rd

    force_exchange(monkeypatch)
    rng = np.random.default_rng(11)
    vals = rng.choice(np.arange(100, dtype=np.int64), size=40, replace=False)
    cnts = rng.integers(1, 9, size=len(vals)).astype(np.int64)
    tbl = pd.DataFrame({"v": vals, "cnt": cnts})
    ds = rd.from_pandas(tbl).repartition(5)
    got = (
        with_global_rank(ds, ["v"], descending=[False], rank_col="r",
                         weight_col="cnt")
        .to_pandas()
        .sort_values("v", ignore_index=True)
    )
    order = np.argsort(vals)
    expect_min_rank = {}
    acc = 0
    for i in order:
        expect_min_rank[vals[i]] = acc + 1
        acc += cnts[i]
    assert got["r"].tolist() == [expect_min_rank[v] for v in got["v"]]


def _keys(case: str, n: int = 3000) -> pa.Table:
    """Sort keys ``(v, id)`` with ties in ``v`` broken by a unique ``id``;
    ``v`` holds NaN or null (or, "mixed", both) on about a tenth of the
    rows for those cases, and ``w`` is a row weight."""
    rng = np.random.default_rng(7)
    v = rng.integers(0, 40, n).astype(np.float64)
    mask = rng.random(n) < 0.1 if case in ("null", "mixed") else None
    if case in ("nan", "mixed"):
        v[rng.random(n) < 0.1] = np.nan
    t = pa.table({"v": pa.array(v, mask=mask),
                  "id": pa.array(rng.permutation(n).astype(np.int64)),
                  "w": pa.array(rng.integers(0, 5, n).astype(np.int64))})
    return t.slice(0, 0) if case == "empty" else t


def _scanned(t: pa.Table, descending: bool) -> dict:
    """Ranks and weighted ranks, and the exclusive and inclusive prefix
    max of ``w``, over ``t`` in eight blocks: name -> frame in ``id``
    order."""
    import ray.data as rd

    def ds():
        cut = [i * t.num_rows // 8 for i in range(9)]
        return rd.from_arrow([t.slice(a, b - a) for a, b in zip(cut, cut[1:])])

    out = {
        "scans": with_global_scans(
            ds(), ["v", "id"], descending=[descending, False],
            specs=[("r", None), ("rw", "w")]),
        "prefix_max": with_global_prefix_max(ds(), ["v", "id"], "w", "mx"),
        "prefix_max_incl": with_global_prefix_max(
            ds(), ["v", "id"], "w", "mx", exclusive=False),
    }
    frames = {}
    for name, res in out.items():
        df = pa.concat_tables(_blocks(res)).to_pandas()
        frames[name] = df.sort_values("id", ignore_index=True)
    return frames


def _blocks(ds) -> list[pa.Table]:
    import ray

    return ray.get(ds.to_arrow_refs())


# Ray's range partitioning alone places null and NaN keys inconsistently,
# from run to run; the exchange plan sorts on order columns free of them.
# So every run over such keys repeats eight times, and each must give the
# one-task result (test_one_task_order_is_sql_order checks that order).
@pytest.mark.parametrize("case,descending", [
    ("int", False), ("int", True), ("nan", False), ("null", False),
    ("empty", False), ("empty", True),
    ("nan", True), ("null", True), ("mixed", False), ("mixed", True),
])
def test_one_task_scans_equal_exchange(ray_session, monkeypatch, case, descending):
    t = _keys(case)
    one_task = _scanned(t, descending)
    force_exchange(monkeypatch)
    for _ in range(8 if case in ("nan", "null", "mixed") else 1):
        exchange = _scanned(t, descending)
        for name, df in one_task.items():
            added = ["r", "rw"] if name == "scans" else ["mx"]
            assert list(df.columns) == ["v", "id", "w", *added], name
            assert len(df) == t.num_rows, name
            pd.testing.assert_frame_equal(exchange[name], df, obj=name)


@pytest.mark.parametrize("case", ["null", "nan"])
@pytest.mark.parametrize("descending", [False, True])
def test_one_task_order_is_sql_order(ray_session, case, descending):
    """``ORDER BY v [DESC], id`` with NaN above every number and nulls
    last in either direction, as in DuckDB: the one-task plan's ranks,
    weighted ranks and exclusive prefix max follow it."""
    t = _keys(case)
    frames = _scanned(t, descending)
    df = t.to_pandas()
    num = df[df["v"].notna()].sort_values(["v", "id"],
                                          ascending=[not descending, True])
    order = np.concatenate([num["id"], df[df["v"].isna()]["id"].sort_values()])
    got = frames["scans"].set_index("id").loc[order]
    w = got["w"].to_numpy()
    assert (got["r"].to_numpy() == np.arange(1, len(order) + 1)).all()
    assert (got["rw"].to_numpy() == 1 + np.cumsum(w) - w).all()
    if not descending:  # the prefix max is ascending only
        mx = frames["prefix_max"].set_index("id").loc[order, "mx"].to_numpy()
        assert np.isnan(mx[0])
        assert (mx[1:] == np.maximum.accumulate(w)[:-1]).all()
