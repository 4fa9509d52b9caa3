"""Lake-maintenance hardening: chained compactions keep snapshots
readable, a crash at any stream commit point followed by a rerun of the
same run_id gives the uninterrupted lake, a run is in the silver log
only once its run record is committed, retention survives recomputes,
bootstrap never wipes live online rows, null-text and null-ts rows are
counted as rejects, and empty inputs degrade gracefully."""

import glob
import json
import os
import time

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


def write_run_record_at(root, run_id, commit_ts, records):
    """A synthetic ``run-{run_id}.json`` committed at ``commit_ts``, with
    one partition record per entry of ``records``."""
    with open(os.path.join(root, f"run-{run_id}.json"), "w") as f:
        json.dump({"run_id": run_id, "commit_ts": commit_ts,
                   "partition_records": records}, f)


def test_snapshot_survives_chained_compactions(tmp_path):
    """R1 -> compact C1 -> R2 -> compact C2: the latest snapshot must read
    C2's output only — R1's files were coalesced by C1 (itself coalesced
    by C2), so they stay superseded through the chain instead of being
    re-selected and raising SnapshotUnavailableError."""
    lake = str(tmp_path)
    root = os.path.join(lake, "silver")
    part = os.path.join(root, "part=00000")
    os.makedirs(part)

    def mk(name):
        p = os.path.join(part, name)
        pq.write_table(pa.table({"x": [1]}), p)
        return p

    r1 = mk("run-r1.parquet")
    write_run_record_at(lake, "r1", 10.0, [{"part": 0, "silver_rows_out": 1}])
    c1 = mk("run-compact-c1.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver_compact", partition_key="00000", run_id="c1",
        rows_out=1, files=[c1], commit_ts=20.0,
        extra={"source_files": [r1]}))
    os.remove(r1)
    r2 = mk("run-r2.parquet")
    write_run_record_at(lake, "r2", 30.0, [{"part": 0, "silver_rows_out": 1}])
    c2 = mk("run-compact-c2.parquet")
    M.write_manifest(root, M.PartitionManifest(
        stage="silver_compact", partition_key="00000", run_id="c2",
        rows_out=1, files=[c2], commit_ts=40.0,
        extra={"source_files": [c1, r2]}))
    os.remove(c1)
    os.remove(r2)

    got = M.snapshot_files(lake, as_of=100.0)
    assert got == [c2]
    # the mid-chain snapshot's history (C1's output) was GC'd by C2's
    # cleanup — it must fail LOUDLY, not silently return wrong files
    with pytest.raises(M.SnapshotUnavailableError):
        M.snapshot_files(lake, as_of=25.0)


def test_null_text_counted_as_reject():
    day = pd.Timestamp("2024-01-01")
    batch = pa.table(
        {
            "conv_id": pa.array(["a", "b", "c", "d"]),
            "turn_idx": pa.array([0, 0, 0, 0], pa.int32()),
            "role": pa.array(["user"] * 4),
            "text": pa.array(["ok", None, "", "ok"], pa.string()),
            "tool": pa.array([None] * 4, pa.string()),
            "ts": pa.array([day, day, day, None], pa.timestamp("us")),
            "ingest_ts": pa.array([day] * 4, pa.timestamp("us")),
        }
    )
    t = normalize_bronze(batch, processed_at=PROCESSED_AT)
    valid = np.asarray(t["__valid"].combine_chunks())
    assert not np.isnan(valid.astype(float)).any()
    # null text, empty text AND null ts all reject
    assert valid.tolist() == [1, 0, 0, 0]


def test_null_ts_row_is_rejected_by_a_run(monkeypatch, tmp_path):
    """A bronze row with a null ``ts`` is counted as a reject and never
    reaches silver, so the partition's gold pass does not fail on it (it
    used to be committed to silver, and every later run of its partition
    then failed converting the null ``ts``)."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        medallion,
    )

    tbl = generate_transcripts(n_convs=10, avg_turns=5, seed=31)
    ts = tbl["ts"].combine_chunks().to_pylist()
    ts[3] = None
    tbl = tbl.set_column(tbl.schema.get_field_index("ts"), "ts",
                         pa.array(ts, tbl.schema.field("ts").type))
    bronze = tmp_path / "bronze"
    bronze.mkdir()
    pq.write_table(tbl, bronze / "bronze.parquet")
    out = str(tmp_path / "lake")
    # the one-task plan in this process
    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    for rid in ("r1", "r2"):  # the rerun of the partition holds too
        res = run_stream(str(bronze), out, run_id=rid, processed_at=PROCESSED_AT,
                         num_parts=2)
        assert res["silver"]["rows_rejected"] == 1
    silver = pa.concat_tables([pq.read_table(f) for f in
                               glob.glob(os.path.join(out, "silver", "part=*", "*.parquet"))])
    assert silver["ts"].null_count == 0
    assert silver.num_rows == 2 * (tbl.num_rows - 1)


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
        silver_root = os.path.join(out, "silver")
        monkeypatch.setattr(I.M, "atomic_write_table", after(
            I.M.atomic_write_table, lambda tbl, path: path.startswith(silver_root)))
    elif point == "gold_merge":
        monkeypatch.setattr(I, "write_gold_partition", after(I.write_gold_partition))
    elif point == "online":
        monkeypatch.setattr(I.FP, "put_partition", after(I.FP.put_partition))
    else:
        def no_swap(*a, **k):
            raise Crash(point)
        monkeypatch.setattr(I, "_commit_state", no_swap)

    t = normalize_bronze(pq.read_table(bronze), processed_at=PROCESSED_AT)
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
    """Every gold and state file's content, by relative path, and the
    online table. The online rows live in the state files: no online
    Parquet file may exist."""
    assert not glob.glob(os.path.join(out, "online", "part=*"))
    got = {"online": read_online(out)}
    for f in glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "*.parquet")):
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
    assert want["online"].num_rows > 0
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


def _snapshot(out):
    snap = read_silver_snapshot(out, time.time()).to_pandas()
    return snap.sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _crash_before_run_record(monkeypatch, bronze, out):
    """Run r1 over ``bronze`` in-process and crash it at the second
    partition's state commit: the first partition committed every step,
    both wrote their silver file, no run record exists. Returns r1's
    silver files."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        incremental as I,
    )

    commit, calls = I._commit_state, []

    def crash_second(*a, **k):
        calls.append(a)
        if len(calls) == 2:
            raise RuntimeError("crash")
        return commit(*a, **k)

    monkeypatch.setattr(I, "_commit_state", crash_second)
    with pytest.raises(RuntimeError, match="crash"):
        run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    monkeypatch.setattr(I, "_commit_state", commit)
    r1_silver = sorted(glob.glob(os.path.join(out, "silver", "part=*", "run-r1.parquet")))
    assert len(r1_silver) == 2 and not os.path.exists(os.path.join(out, "run-r1.json"))
    return r1_silver


def test_run_record_is_the_silver_commit(ray_session, monkeypatch, tmp_path):
    """A stream run writes no silver manifest: ``run-{id}.json`` is its
    commit, stamped with ``commit_ts`` and holding each partition's silver
    ts range. A run that crashes after some of its partitions committed,
    before its run record, is in no snapshot and its silver files are
    orphans; its rerun leaves the snapshot and the reconcile report of
    an uncrashed lake."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        medallion,
    )

    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    b0, b1 = _two_windows(tmp_path)
    ref, out = str(tmp_path / "ref"), str(tmp_path / "crashed")
    for lake in (ref, out):
        run_stream(b0, lake, run_id="r0", processed_at=PROCESSED_AT, num_parts=2)
    before_r1 = time.time()
    time.sleep(0.01)
    res = run_stream(b1, ref, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)

    assert not os.path.exists(os.path.join(ref, "silver", "_manifests"))
    with open(os.path.join(ref, "run-r1.json")) as f:
        assert json.load(f) == res
    assert before_r1 < res["commit_ts"] <= time.time()
    assert len(res["partition_records"]) == 2
    for p in res["partition_records"]:
        silver = pq.read_table(M.silver_file(os.path.join(ref, "silver"), p["part"], "r1"))
        assert silver.num_rows == p["silver_rows_out"] > 0
        assert p["min_ts"] == pc.min(silver["ts"]).as_py().isoformat()
        assert p["max_ts"] == pc.max(silver["ts"]).as_py().isoformat()
        assert p["max_ingest_ts"] == pc.max(silver["ingest_ts"]).as_py().isoformat()

    r1_silver = _crash_before_run_record(monkeypatch, b1, out)
    assert _snapshot(out).equals(
        read_silver_snapshot(ref, before_r1).to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True))
    assert not set(r1_silver) & set(M.snapshot_files(out, time.time()))
    rep = reconcile_lake(out)
    assert not rep["ok"] and set(r1_silver) <= set(rep["orphan_files"])

    run_stream(b1, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    assert _snapshot(out).equals(_snapshot(ref))
    assert [s["run_id"] for s in M.list_snapshots(out)] == ["r0", "r1"]
    rep, want = reconcile_lake(out), reconcile_lake(ref)
    assert rep["ok"] and rep == want


def test_rerun_keeps_the_first_commit(ray_session, tmp_path):
    """Rerunning a committed run keeps its ``commit_ts``: a snapshot taken
    between the commit and the rerun still reads the run, and after a
    compaction the rerun's record stays superseded by it."""
    bronze, out = _mklake(tmp_path)
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    with open(os.path.join(out, "run-r1.json")) as f:
        first = json.load(f)["commit_ts"]
    between = time.time()
    want = _snapshot(out)
    assert len(want) > 0
    time.sleep(0.01)
    assert run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT,
                      num_parts=2)["commit_ts"] == first
    assert read_silver_snapshot(out, between).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True).equals(want)

    compact_silver(out, run_id="c1", min_files=1)
    res = run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    assert res["commit_ts"] == first
    assert _snapshot(out).equals(want)
    rep = reconcile_lake(out)
    assert rep["ok"], rep


def test_compaction_skips_an_uncommitted_run(ray_session, monkeypatch, tmp_path):
    """A compaction between a crash and its rerun coalesces only committed
    silver: the crashed run stays out of every snapshot, and after the
    rerun the lake reads and reconciles like an uncrashed one."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        medallion,
    )

    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    b0, b1 = _two_windows(tmp_path)
    ref, out = str(tmp_path / "ref"), str(tmp_path / "crashed")
    for lake in (ref, out):
        run_stream(b0, lake, run_id="r0", processed_at=PROCESSED_AT, num_parts=2)
    r0_snapshot = _snapshot(out)
    run_stream(b1, ref, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)

    r1_silver = _crash_before_run_record(monkeypatch, b1, out)
    monkeypatch.undo()
    assert compact_silver(out, run_id="c1", min_files=1)["compacted"] == 2
    assert all(os.path.exists(f) for f in r1_silver)
    assert _snapshot(out).equals(r0_snapshot)

    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    run_stream(b1, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    assert _snapshot(out).equals(_snapshot(ref))
    rep = reconcile_lake(out)
    assert rep["ok"], rep


def test_online_meta_written_once(ray_session, tmp_path):
    """``online/_meta.json`` is written when the lake's partitioning is
    pinned, by its first run; a later run leaves the file alone."""
    bronze, out = _mklake(tmp_path)
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=2)
    meta = os.path.join(out, "online", "_meta.json")
    with open(meta) as f:
        assert json.load(f) == {"num_parts": 2, "key": "conv_id"}
    first = os.stat(meta)
    run_stream(bronze, out, run_id="r2", processed_at=PROCESSED_AT, num_parts=2)
    again = os.stat(meta)
    assert (again.st_ino, again.st_mtime_ns) == (first.st_ino, first.st_mtime_ns)


def _gold_fragments(lake, dts):
    """One three-row ``data.parquet`` per ``dt`` under gold/part=00000."""
    for dt in dts:
        d = os.path.join(lake, "gold", "part=00000", f"dt={dt}")
        os.makedirs(d)
        pq.write_table(pa.table({"x": [1, 2, 3]}), os.path.join(d, "data.parquet"))
    return os.path.join(lake, "gold", "part=00000")


def test_expire_counts_torn_footer_as_zero_rows(tmp_path):
    lake = str(tmp_path)
    part = _gold_fragments(lake, ["2024-01-01", "2024-01-02", "2024-01-03"])
    with open(os.path.join(part, "dt=2024-01-01", "part-torn.parquet"), "wb") as f:
        f.write(b"PAR1" + b"\0" * 64)  # killed mid-write: no footer
    res = expire_gold_partitions(lake, keep_from_dt="2024-01-03")
    assert (res["fragments_removed"], res["rows_removed"]) == (2, 6)
    assert sorted(os.listdir(part)) == ["dt=2024-01-03"]


def test_expire_propagates_read_errors_and_deletes_nothing(tmp_path, monkeypatch):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
        fsio as F,
    )

    lake = str(tmp_path)
    part = _gold_fragments(lake, ["2024-01-01", "2024-01-02", "2024-01-03"])
    real = F.parquet_rows

    def denied(path):
        if "dt=2024-01-02" in path:
            raise PermissionError(13, "Permission denied", path)
        return real(path)

    monkeypatch.setattr(F, "parquet_rows", denied)
    with pytest.raises(PermissionError):
        expire_gold_partitions(lake, keep_from_dt="2024-01-03")
    assert sorted(os.listdir(part)) == ["dt=2024-01-01", "dt=2024-01-02", "dt=2024-01-03"]
    assert M.load_manifests(lake, "expire") == []


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
    root = str(tmp_path)
    write_run_record_at(root, "r1", 10.0, [
        {"part": 1, "silver_rows_out": 1, "max_ts": "2026-01-02 23:59:59"},
        {"part": 2, "silver_rows_out": 1, "max_ts": "2026-01-01T23:59:59"},
    ])
    assert M.backfill_targets(root, "2026-01-02T00:00:00") == {"00001"}
    assert M.backfill_targets(root, "2026-01-02 00:00:00") == {"00001"}
    assert M.backfill_targets(root, "2026-01-03T00:00:00") == set()


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
        text = f.read()
    assert text == json.dumps(dataclasses.asdict(m))
    assert M.PartitionManifest(**json.loads(text)) == m


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
