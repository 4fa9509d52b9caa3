"""Lake-maintenance hardening: chained compactions keep snapshots
readable, a crash at any stream commit point followed by a rerun of the
same run_id gives the uninterrupted lake, retention survives
recomputes, bootstrap never wipes live online rows, null-text rows are
counted as rejects, and empty inputs degrade gracefully."""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from test_stream_plans import force_exchange

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    bootstrap_lake,
    compact_silver,
    expire_gold_partitions,
    normalize_bronze,
    read_online,
    read_silver_snapshot,
    reconcile_lake,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
    manifest as M,
)

PROCESSED_AT = "2024-02-01T00:00:00"


def _mklake(tmp_path, n_convs=40, seed=7):
    bronze = tmp_path / "bronze"
    bronze.mkdir()
    tbl = generate_transcripts(n_convs=n_convs, avg_turns=6, seed=seed)
    pq.write_table(tbl, bronze / "bronze.parquet")
    out = str(tmp_path / "lake")
    return str(bronze), out


def test_snapshot_survives_chained_compactions(tmp_path):
    """R1 -> compact C1 -> R2 -> compact C2: the latest snapshot must read
    C2's output only — R1's files were coalesced by C1 (itself coalesced
    by C2), so they stay superseded through the chain instead of being
    re-selected and raising SnapshotUnavailableError."""
    root = str(tmp_path / "silver")
    part = os.path.join(root, "part=00000")
    os.makedirs(part)

    def mk(name):
        p = os.path.join(part, name)
        pq.write_table(pa.table({"x": [1]}), p)
        return p

    r1 = mk("run-r1.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver", partition_key="00000", run_id="r1", rows_out=1,
        files=[r1], commit_ts=10.0))
    c1 = mk("run-compact-c1.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver_compact", partition_key="00000", run_id="c1",
        rows_out=1, files=[c1], commit_ts=20.0,
        extra={"source_files": [r1]}))
    os.remove(r1)
    r2 = mk("run-r2.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver", partition_key="00000", run_id="r2", rows_out=1,
        files=[r2], commit_ts=30.0))
    c2 = mk("run-compact-c2.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver_compact", partition_key="00000", run_id="c2",
        rows_out=1, files=[c2], commit_ts=40.0,
        extra={"source_files": [c1, r2]}))
    os.remove(c1)
    os.remove(r2)

    got = M.snapshot_files(root, "silver", as_of=100.0)
    assert got == [c2]
    # the mid-chain snapshot's history (C1's output) was GC'd by C2's
    # cleanup — it must fail LOUDLY, not silently return wrong files
    with pytest.raises(M.SnapshotUnavailableError):
        M.snapshot_files(root, "silver", as_of=25.0)


def test_null_text_counted_as_reject():
    batch = pa.table(
        {
            "conv_id": pa.array(["a", "b", "c"]),
            "turn_idx": pa.array([0, 0, 0], pa.int32()),
            "role": pa.array(["user"] * 3),
            "text": pa.array(["ok", None, ""], pa.string()),
            "tool": pa.array([None] * 3, pa.string()),
            "ts": pa.array([pd.Timestamp("2024-01-01")] * 3),
            "ingest_ts": pa.array([pd.Timestamp("2024-01-01")] * 3),
        }
    )
    t = normalize_bronze(batch, processed_at=PROCESSED_AT, tag_invalid=True)
    valid = np.asarray(t["__valid"].combine_chunks())
    assert not np.isnan(valid.astype(float)).any()
    assert (valid == 0).sum() == 2  # null text AND empty text both reject
    assert (valid == 1).sum() == 1


COMMIT_POINTS = ["silver", "gold_merge", "online", "state"]
PLANS = ["one_task", "exchange"]  # run_stream's plans


def _two_windows(tmp_path):
    """Two batches ten days apart for the same conversations: the second
    run extends some of them from carried state (repairing the previous
    last row's lead1_ts in place) and fully recomputes the others, whose
    new turns land before their carried last_ts."""
    day_us = 24 * 3600 * 1_000_000
    dirs = []
    for i in range(2):
        tbl = generate_transcripts(
            n_convs=30, avg_turns=8, seed=17 + i, dup_frac=0.05,
            start_us=1_704_067_200_000_000 + i * 10 * day_us, mean_gap_s=60.0,
        )
        ti = np.asarray(tbl["turn_idx"].combine_chunks().cast(pa.int32()))
        tbl = tbl.set_column(
            tbl.schema.get_field_index("turn_idx"), "turn_idx",
            pa.array(ti + i * 100_000, pa.int32()),
        )
        d = tmp_path / f"bronze_{i}"
        d.mkdir()
        pq.write_table(tbl, d / "part-0.parquet")
        dirs.append(str(d))
    return dirs


def _crashed_run(monkeypatch, bronze, out, run_id, point):
    """Run ``run_id``'s partition step in-process for every partition,
    raising inside each one right after commit ``point`` (for the state
    commit: instead of renaming ``state.arrow`` into place). Returns the
    number of crashed partitions."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        incremental as I,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
        GoldConfig,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
        PART_COL,
        add_partition_col,
    )

    class Crash(RuntimeError):
        pass

    def after(fn, when=lambda *a, **k: True):
        def wrapped(*a, **k):
            out_ = fn(*a, **k)
            if when(*a, **k):
                raise Crash(point)
            return out_
        return wrapped

    if point == "silver":
        monkeypatch.setattr(I.M, "write_manifest", after(I.M.write_manifest))
    elif point == "gold_merge":
        monkeypatch.setattr(I, "write_gold_partition", after(I.write_gold_partition))
    elif point == "online":
        monkeypatch.setattr(I.FP, "put_partition", after(I.FP.put_partition))
    else:
        def no_swap(*a, **k):
            raise Crash(point)
        monkeypatch.setattr(I, "_commit_state", no_swap)

    t = normalize_bronze(pq.read_table(bronze), processed_at=PROCESSED_AT, tag_invalid=True)
    t = add_partition_col(t, "conv_id", 2)
    crashed = 0
    for p in np.unique(np.asarray(t[PART_COL])):
        group = t.filter(pc.equal(t[PART_COL], p))
        try:
            I.process_partition_incremental(
                group,
                silver_root=os.path.join(out, "silver"),
                gold_root=os.path.join(out, "gold"),
                online_root=os.path.join(out, "online"),
                state_root=os.path.join(out, "state"),
                cfg=GoldConfig(dedup=False),
                run_id=run_id,
            )
        except Crash:
            crashed += 1
    monkeypatch.undo()
    return crashed


def _lake_digest(out):
    """Every gold, online and state file's content, by relative path."""
    got = {}
    for sub in ("gold/part=*/dt=*/*.parquet", "online/part=*/*.parquet"):
        for f in glob.glob(os.path.join(out, sub)):
            got[os.path.relpath(f, out)] = pq.read_table(f)
    for f in glob.glob(os.path.join(out, "state", "part=*", "*")):
        with open(f, "rb") as fh:
            got[os.path.relpath(f, out)] = fh.read()
    return got


def _assert_crash_recovers(monkeypatch, tmp_path, point, plan):
    if plan == "exchange":
        force_exchange(monkeypatch)
    b0, b1 = _two_windows(tmp_path)
    ref = str(tmp_path / "ref")
    run_stream(b0, ref, run_id="r0", processed_at=PROCESSED_AT, num_parts=2)
    res = run_stream(b1, ref, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    assert res["plan"] == plan
    assert res["late_convs"] > 0
    assert sum(p["lead_patches"] for p in res["partition_records"]) > 0

    out = str(tmp_path / "crashed")
    run_stream(b0, out, run_id="r0", processed_at=PROCESSED_AT, num_parts=2)
    assert _crashed_run(monkeypatch, b1, out, "r1", point) == 2
    if plan == "exchange":  # _crashed_run undid every patch
        force_exchange(monkeypatch)
    res = run_stream(b1, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    assert res["plan"] == plan

    want, got = _lake_digest(ref), _lake_digest(out)
    assert sorted(got) == sorted(want)
    for path, w in want.items():
        assert got[path] == w if isinstance(w, bytes) else got[path].equals(w), path
    rep = reconcile_lake(out)
    assert rep["ok"], rep


@pytest.mark.parametrize("plan", PLANS)
def test_resume_recovers_lost_gold_stage(ray_session, monkeypatch, tmp_path, plan):
    """Crash after the silver commit, before any gold write: rerunning
    the same run_id must rebuild gold, online and state exactly (the
    skip is keyed on the run id in ``state.arrow``, committed last)."""
    _assert_crash_recovers(monkeypatch, tmp_path, "silver", plan)


@pytest.mark.parametrize(
    "point,plan",
    # the default (one-task) plan keeps the bare commit-point id
    [pytest.param(p, "one_task", id=p) for p in COMMIT_POINTS[1:]]
    + [pytest.param(p, "exchange", id=f"{p}-exchange") for p in COMMIT_POINTS[1:]],
)
def test_crash_at_commit_point_then_rerun_is_exact(ray_session, monkeypatch,
                                                   tmp_path, point, plan):
    _assert_crash_recovers(monkeypatch, tmp_path, point, plan)


def test_retention_survives_recompute(ray_session, tmp_path):
    bronze, out = _mklake(tmp_path)
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT,
               num_parts=2)
    dts = sorted(
        {os.path.basename(d)[3:]
         for d in glob.glob(os.path.join(out, "gold", "part=*", "dt=*"))}
    )
    assert len(dts) > 2
    cutoff = dts[len(dts) // 2]
    res = expire_gold_partitions(out, keep_from_dt=cutoff)
    assert res["fragments_removed"] > 0
    # a later stream run recomputes gold from FULL silver history —
    # expired dt= fragments must NOT come back
    run_stream(bronze, out, run_id="r2", processed_at=PROCESSED_AT,
               num_parts=2)
    left = {os.path.basename(d)[3:]
            for d in glob.glob(os.path.join(out, "gold", "part=*", "dt=*"))}
    assert all(dt >= cutoff for dt in left), sorted(left)[:3]


def test_bootstrap_rerun_preserves_online(ray_session, tmp_path):
    bronze, out = _mklake(tmp_path)
    bootstrap_lake(out)
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT,
               num_parts=2)
    before = read_online(out).num_rows
    assert before > 0
    bootstrap_lake(out)  # idempotent re-run on a POPULATED lake
    assert read_online(out).num_rows == before


def test_read_online_empty_lake_returns_typed_empty(tmp_path):
    t = read_online(str(tmp_path / "nolake"))
    assert t.num_rows == 0 and "conv_id" in t.column_names


def test_backfill_targets_accepts_T_separator(tmp_path):
    root = str(tmp_path / "silver")
    os.makedirs(root)
    M.write_manifest(root, M.PartitionManifest(
        stage="silver", partition_key="00001", run_id="r1", rows_out=1,
        max_ts="2026-01-02 23:59:59"))
    assert M.backfill_targets(root, "silver", "2026-01-02T00:00:00") == {"00001"}
    assert M.backfill_targets(root, "silver", "2026-01-03T00:00:00") == set()


def test_manifest_json_is_asdict_json(tmp_path):
    """write_manifest serializes the field dict directly; the file must
    stay byte-identical to the ``dataclasses.asdict`` encoding."""
    import dataclasses

    root = str(tmp_path / "gold")
    m = M.PartitionManifest(
        stage="gold", partition_key="00003", run_id="r7", rows_out=5,
        rows_in=9, min_ts="2026-01-01 00:00:00", max_ts=None, wall_s=0.25,
        files=[os.path.join(root, "part=00003", "dt=2026-01-01", "data.parquet")],
        extra={"gold_mode": "carried", "late_convs": 1, "nested": {"a": [1, 2]}},
    )
    M.write_manifest(root, m)
    with open(M.manifest_path(root, "gold", "00003", "r7")) as f:
        assert f.read() == json.dumps(dataclasses.asdict(m))
    assert M.read_manifest(root, "gold", "00003", "r7") == m


def test_run_daily_empty_dt_range(ray_session, tmp_path):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.daily import (
        run_daily,
    )

    bronze, out = _mklake(tmp_path)
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT,
               num_parts=2)
    meta = run_daily(out, created_at=PROCESSED_AT, dt_start="2030-01-01")
    assert meta["counts"] == {"train": 0, "validation": 0, "inference": 0}
    assert meta["plan"] is None and meta["input_bytes"] == 0
    assert os.path.exists(os.path.join(out, "datasets", "metadata.json"))
