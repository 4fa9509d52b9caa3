"""Snapshot isolation (time travel) over the silver log (run records and
compaction manifests): reading the
silver layer as of a past commit returns exactly the file set that
existed then; compaction garbage-collects history and turns older
snapshots into a clear SnapshotUnavailableError while the latest
snapshot keeps reading identically; runs appended after a compaction
stack on top of the rewrite."""

import glob
import os
import time

import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    compact_silver,
    read_silver_snapshot,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state.manifest import (
    SnapshotUnavailableError,
    list_snapshots,
)

PROCESSED_AT = "2024-02-01T00:00:00"
KEY = ["conv_id", "turn_idx"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(KEY, ignore_index=True)[sorted(df.columns)]


def _run_files(out: str, run_id: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    files = sorted(
        glob.glob(os.path.join(out, "silver", "part=*", f"run-{run_id}.parquet"))
    )
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def _dedup_ref(df: pd.DataFrame) -> pd.DataFrame:
    """Consumer contract: first (ts, ingest_ts) per (conv_id, turn_idx)."""
    return (
        df.sort_values(KEY + ["ts", "ingest_ts"], kind="mergesort")
        .drop_duplicates(KEY, keep="first")
        .reset_index(drop=True)
    )


def _build_lake(tmp_path_factory):
    """Two ingest-windowed runs with a captured mid-point timestamp."""
    import pyarrow.parquet as pq

    bronze = tmp_path_factory.mktemp("bronze_snap")
    tbl = generate_transcripts(
        n_convs=100, avg_turns=8, seed=11, dup_frac=0.05, late_frac=0.1
    )
    pq.write_table(tbl, bronze / "bronze.parquet")
    out = str(tmp_path_factory.mktemp("lake_snap"))
    ing = tbl["ingest_ts"].to_pandas()
    cut = ing.quantile(0.6)
    run_stream(str(bronze), out, run_id="w1", processed_at=PROCESSED_AT,
               ingest_window=(ing.min(), cut), num_parts=4)
    t_mid = time.time()
    time.sleep(0.01)
    run_stream(str(bronze), out, run_id="w2", processed_at=PROCESSED_AT,
               ingest_window=(cut + pd.Timedelta(microseconds=1), ing.max()),
               num_parts=4)
    return out, t_mid


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """Shared READ-ONLY lake — tests that mutate history get their own."""
    return _build_lake(tmp_path_factory)


@pytest.fixture()
def lake_gc(tmp_path_factory):
    """Fresh per-test lake for the destructive compaction/GC test, so the
    module-scoped fixture stays order-independent."""
    return _build_lake(tmp_path_factory)


def test_snapshot_between_runs_is_run1_exactly(ray_session, lake):
    out, t_mid = lake
    snap = _norm(read_silver_snapshot(out, t_mid).to_pandas())
    # run w1's files are already within-run deduped -> snapshot == w1 data
    assert snap.equals(_norm(_run_files(out, "w1")))


def test_snapshot_latest_is_full_deduped_silver(ray_session, lake):
    out, _ = lake
    snap = _norm(read_silver_snapshot(out, time.time()).to_pandas())
    both = pd.concat([_run_files(out, "w1"), _run_files(out, "w2")],
                     ignore_index=True)
    assert snap.equals(_norm(_dedup_ref(both)))
    # dedup=False returns the raw (possibly cross-run-duplicated) union
    raw = read_silver_snapshot(out, time.time(), dedup=False).to_pandas()
    assert len(raw) == len(both)


def test_snapshot_log_and_gc(ray_session, lake_gc):
    out, t_mid = lake_gc
    snaps = list_snapshots(out)
    assert [s["run_id"] for s in snaps] == ["w1", "w2"]
    assert snaps[0]["commit_ts"] < t_mid < snaps[1]["commit_ts"]

    latest_before = _norm(read_silver_snapshot(out, time.time()).to_pandas())
    res = compact_silver(out, run_id="c1")
    assert res["compacted"] > 0

    # latest snapshot reads identically through the rewrite
    latest_after = _norm(read_silver_snapshot(out, time.time()).to_pandas())
    assert latest_after.equals(latest_before)
    # the compaction shows up on the snapshot log
    snaps2 = list_snapshots(out)
    assert [s["run_id"] for s in snaps2] == ["w1", "w2", "c1"]
    assert snaps2[-1]["stage"] == "silver_compact"

    # ...but the pre-compaction snapshot's history is garbage-collected
    with pytest.raises(SnapshotUnavailableError):
        read_silver_snapshot(out, t_mid)

    # a run appended AFTER compaction stacks on top of the rewrite
    import pyarrow.parquet as pq

    extra = generate_transcripts(n_convs=10, avg_turns=5, seed=99)
    bronze3 = os.path.join(out, "_bronze3")
    os.makedirs(bronze3, exist_ok=True)
    pq.write_table(extra, os.path.join(bronze3, "bronze.parquet"))
    run_stream(bronze3, out, run_id="w3", processed_at=PROCESSED_AT,
               num_parts=4)
    snap3 = _norm(read_silver_snapshot(out, time.time()).to_pandas())
    merged = pd.concat(
        [latest_after, _run_files(out, "w3")], ignore_index=True
    )[latest_after.columns.tolist()]
    assert snap3.equals(_norm(_dedup_ref(merged)))


def test_gold_snapshot_reproduces_history(ray_session, tmp_path):
    """gold_snapshot(as_of) == the gold the stream run latest at as_of
    wrote — verified at both commits of a two-run lake (fresh lake: the
    module fixture's history is GC'd by its compaction test)."""
    import pyarrow.parquet as pq

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        gold_snapshot,
    )

    bronze = tmp_path / "bronze"
    bronze.mkdir()
    tbl = generate_transcripts(
        n_convs=80, avg_turns=8, seed=23, dup_frac=0.05, late_frac=0.1
    )
    pq.write_table(tbl, bronze / "bronze.parquet")
    out = str(tmp_path / "lake")
    ing = tbl["ingest_ts"].to_pandas()
    cut = ing.quantile(0.6)
    run_stream(str(bronze), out, run_id="w1", processed_at=PROCESSED_AT,
               ingest_window=(ing.min(), cut), num_parts=4)
    gold_w1 = _gold_on_disk(out)
    t_mid = time.time()
    time.sleep(0.01)
    run_stream(str(bronze), out, run_id="w2", processed_at=PROCESSED_AT,
               ingest_window=(cut + pd.Timedelta(microseconds=1), ing.max()),
               num_parts=4)
    gold_w2 = _gold_on_disk(out)

    snap_mid = _norm_gold(gold_snapshot(out, t_mid).to_pandas())
    snap_now = _norm_gold(gold_snapshot(out, time.time()).to_pandas())
    assert snap_mid.equals(_norm_gold(gold_w1))
    assert snap_now.equals(_norm_gold(gold_w2))
    assert not snap_mid.equals(snap_now)  # the lake actually changed


def _gold_on_disk(out: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    files = sorted(
        glob.glob(os.path.join(out, "gold", "part=*", "**", "*.parquet"),
                  recursive=True)
    )
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def _norm_gold(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(KEY, ignore_index=True)[sorted(df.columns)]


def test_snapshot_keeps_run_committed_during_compaction(tmp_path):
    """A run whose record's commit_ts <= the compact's commit_ts but whose
    files the rewrite never read (it landed while compaction was in
    flight) must stay in every later snapshot — commit_ts alone must not
    supersede it."""
    import pyarrow.parquet as pq
    from test_lake_hardening import write_run_record_at

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
        manifest as M,
    )

    lake = str(tmp_path)
    root = str(tmp_path / "silver")
    part = str(tmp_path / "silver" / "part=00000")
    os.makedirs(part)
    paths = {}
    for name in ["run-a.parquet", "run-b.parquet", "run-c.parquet",
                 "run-compact-z.parquet"]:
        p = os.path.join(part, name)
        pq.write_table(pa.table({"x": [1]}), p)
        paths[name] = p

    def run(rid, ts):
        write_run_record_at(lake, rid, ts, [{"part": 0, "silver_rows_out": 1}])

    run("a", 10.0)
    run("b", 20.0)
    # run c commits at t=29 while the compaction (which only read a+b)
    # commits at t=30
    run("c", 29.0)
    M.write_manifest(root, M.PartitionManifest(
        stage="silver_compact", partition_key="00000", run_id="z", rows_out=1,
        files=[paths["run-compact-z.parquet"]], commit_ts=30.0,
        extra={"source_files": [paths["run-a.parquet"], paths["run-b.parquet"]]},
    ))

    got = M.snapshot_files(lake, as_of=100.0)
    assert paths["run-compact-z.parquet"] in got
    assert paths["run-c.parquet"] in got, "concurrent run dropped"
    assert paths["run-a.parquet"] not in got
    assert paths["run-b.parquet"] not in got


def test_snapshot_before_first_commit_is_empty_with_schema(ray_session, lake):
    out, _ = lake
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        gold_snapshot,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.schema import (
        SILVER,
    )

    for dedup in (True, False):
        ds = read_silver_snapshot(out, 0.0, dedup=dedup)
        assert ds.count() == 0
        assert set(ds.schema().names) == set(SILVER.names)
    g = gold_snapshot(out, 0.0)
    assert g.count() == 0
    assert "conv_id" in g.schema().names
