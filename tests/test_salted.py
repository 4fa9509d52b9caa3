"""B14 salted skew repartition: salted output must be bit-identical to the
unsalted fused pass on adversarial corpora (mega-convs, sparse gaps that
empty the overlap prefix, duplicate injections, computed turn_idx)."""

import numpy as np
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
    GoldConfig,
    gold_features_partition,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
    map_partitions_by_key,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.salted import (
    detect_hot_keys,
    gold_features_salted,
)


def _assert_salted_matches(ray_session, tbl, cfg, hot_threshold, bucket_us=None):
    import ray.data as rd

    ref = map_partitions_by_key(
        rd.from_arrow(tbl),
        "conv_id",
        lambda t: gold_features_partition(t, cfg),
        num_parts=4,
    ).to_pandas()
    out = gold_features_salted(
        rd.from_arrow(tbl).repartition(8),
        cfg,
        num_parts=4,
        hot_threshold=hot_threshold,
        bucket_us=bucket_us,
    ).to_pandas()
    key = ["conv_id", "turn_idx"]
    ref = ref.sort_values(key, ignore_index=True)
    out = out.sort_values(key, ignore_index=True)
    assert list(ref.columns) == list(out.columns)
    assert len(ref) == len(out)
    for c in ref.columns:
        x, y = ref[c], out[c]
        if x.dtype.kind == "f":
            assert np.allclose(
                x.to_numpy(float), y.to_numpy(float), equal_nan=True, rtol=0, atol=0
            ), c
        else:
            assert (x.astype(str) == y.astype(str)).all(), c


def test_salted_dense_with_dups(ray_session):
    tbl = generate_transcripts(300, 50, seed=7, dup_frac=0.02, mean_gap_s=1800.0)
    _assert_salted_matches(ray_session, tbl, GoldConfig(dedup=True), 500)


def test_salted_sparse_gaps_empty_prefixes(ray_session):
    # 2-day mean gaps: many shards whose overlap prefix is empty — the
    # lag/gap/session boundary patches must kick in
    tbl = generate_transcripts(80, 40, seed=11, dup_frac=0.05, mean_gap_s=86400.0 * 2)
    _assert_salted_matches(ray_session, tbl, GoldConfig(dedup=True), 200)


def test_salted_computed_turn_idx(ray_session):
    cfg = GoldConfig(
        dedup=False,
        compute_turn_idx=True,
        tiebreak_col="ingest_ts",
        role_counts=("user", "assistant", "tool"),
    )
    tbl = generate_transcripts(150, 50, seed=17, mean_gap_s=7200.0)
    _assert_salted_matches(ray_session, tbl, cfg, 300)


def test_salted_no_hot_keys_degenerates(ray_session):
    tbl = generate_transcripts(50, 20, seed=23)
    _assert_salted_matches(ray_session, tbl, GoldConfig(dedup=True), 10**9)


def test_detect_hot_keys_exact(ray_session):
    import ray.data as rd
    import pyarrow.compute as pc

    tbl = generate_transcripts(200, 50, seed=29)
    vc = pc.value_counts(tbl["conv_id"].combine_chunks())
    vals = vc.field("values").to_pylist()
    cnts = vc.field("counts").to_pylist()
    truth = sorted(v for v, c in zip(vals, cnts) if c >= 400)
    hot = detect_hot_keys(rd.from_arrow(tbl).repartition(8), "conv_id", 400)
    assert sorted(hot.to_pylist()) == truth


def test_bucket_too_small_rejected(ray_session):
    import ray.data as rd

    tbl = generate_transcripts(10, 10, seed=31)
    with pytest.raises(ValueError):
        gold_features_salted(
            rd.from_arrow(tbl), GoldConfig(), num_parts=2, bucket_us=1000
        )


def test_block_boundary_invariance(ray_session):
    """Adversarial block sizes (SURVEY §7.3): output must not depend on how
    Ray blocks the input — whole-partition semantics come from the keyed
    exchange, not from block luck."""
    import ray.data as rd

    tbl = generate_transcripts(120, 30, seed=37, dup_frac=0.03)
    cfg = GoldConfig(dedup=True)

    def run(ds):
        return (
            map_partitions_by_key(
                ds, "conv_id",
                lambda t: gold_features_partition(t, cfg),
                num_parts=4,
            )
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"], ignore_index=True)
        )

    a = run(rd.from_arrow(tbl))
    b = run(rd.from_arrow(tbl).repartition(97))  # many tiny blocks
    assert a.equals(b)


def test_salted_gap_exceeds_windows(ray_session):
    """ADVICE r1: when gap_us exceeds the longest window, the overlap
    prefix must still span gap_us — otherwise empty-prefix shards emit
    spurious session breaks. Bit parity required."""
    cfg = GoldConfig(dedup=True, gap_us=30 * 86400 * 10**6)  # 30d > D7 window
    tbl = generate_transcripts(60, 40, seed=41, dup_frac=0.02,
                               mean_gap_s=86400.0 * 2)
    _assert_salted_matches(ray_session, tbl, cfg, 150)


def test_detect_hot_keys_uses_keyed_exchange(ray_session, monkeypatch):
    """Guard (VERDICT r2): per-key counts are a data-scaling fold and must
    ride the engine's keyed exchange (groupby on the int32 __part column),
    never ``Dataset.groupby(conv_id)`` whose sort-based grouping cliffs at
    millions of distinct keys. The input is one block, so the exchange is
    forced."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data import Dataset
    from test_stream_plans import force_exchange

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
        PART_COL,
    )

    tbl = pa.table(
        {
            "conv_id": pa.array(
                [f"c{i}" for i in range(50)] + ["hot"] * 500, pa.string()
            ),
            "x": pa.array(range(550), pa.int64()),
        }
    )
    seen = []
    orig = Dataset.groupby

    def spy(self, key, *a, **k):
        seen.append(key)
        return orig(self, key, *a, **k)

    force_exchange(monkeypatch)
    monkeypatch.setattr(Dataset, "groupby", spy)
    hot = detect_hot_keys(rd.from_arrow(tbl).repartition(6), "conv_id", 400)
    assert hot.to_pylist() == ["hot"]
    assert seen and all(k == PART_COL for k in seen), seen


def test_salted_writes_no_spool(ray_session, monkeypatch):
    """The seeded plan keeps phase output in the engine: with hot keys it
    writes no Parquet and makes no temporary directory."""
    import tempfile

    import ray.data as rd
    from ray.data import Dataset

    calls = []

    def spy(name, orig):
        def inner(*a, **k):
            calls.append(name)
            return orig(*a, **k)
        return inner

    monkeypatch.setattr(Dataset, "write_parquet", spy("write_parquet", Dataset.write_parquet))
    monkeypatch.setattr(tempfile, "mkdtemp", spy("mkdtemp", tempfile.mkdtemp))
    tbl = generate_transcripts(80, 40, seed=11, mean_gap_s=86400.0 * 2)
    out = gold_features_salted(
        rd.from_arrow(tbl).repartition(4), GoldConfig(), num_parts=2,
        hot_threshold=200,
    )
    assert out.count() > 0
    assert calls == []


def test_seed_scan_matches_loop():
    """The driver's vectorized seed scan equals a per-shard loop over the
    same summaries (conversations and shards shuffled)."""
    import pyarrow as pa

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.salted import (
        _SUMMARY_SCHEMA,
        _seed_table,
    )

    rng = np.random.default_rng(5)
    rows = []
    for c in range(30):
        for shard in rng.choice(40, rng.integers(1, 6), replace=False):
            n_real = int(rng.integers(1, 9))
            breaks = int(rng.integers(0, n_real + 1))
            trail = int(rng.integers(1, n_real + 1)) if breaks else n_real
            first = int(shard) * 1000 + int(rng.integers(0, 100))
            rows.append({"conv_id": f"c{c}", "__shard": int(shard), "n_real": n_real,
                         "breaks": breaks, "trail": trail, "first_ts": first,
                         "last_ts": first + int(rng.integers(0, 800)),
                         "has_prefix": bool(rng.integers(0, 2))})
    rows = [rows[i] for i in rng.permutation(len(rows))]
    got = _seed_table(pa.Table.from_pylist(rows, schema=_SUMMARY_SCHEMA)).to_pylist()

    want = []
    for c in sorted({r["conv_id"] for r in rows}):
        shards = sorted((r for r in rows if r["conv_id"] == c), key=lambda r: r["__shard"])
        b_prior = turn_off = trail_in = 0
        for i, r in enumerate(shards):
            want.append({
                "conv_id": c, "__shard": r["__shard"], "b_prior": b_prior,
                "trail_in": trail_in, "turn_off": turn_off,
                "lead_ts": shards[i + 1]["first_ts"] if i + 1 < len(shards) else None,
                "lag_ts": None if i == 0 or r["has_prefix"] else shards[i - 1]["last_ts"],
            })
            trail_in = r["trail"] if r["breaks"] else trail_in + r["n_real"]
            b_prior += r["breaks"]
            turn_off += r["n_real"]
    assert got == want
