"""Non-posix filesystem exercise (VERDICT r2 §next-4).

The reference lake lives on S3 (``infra/terraform/modules/s3_datalake/
main.tf``); the engine's lake roots therefore accept ``scheme://`` URIs
routed through state/fsio.py. Two layers of evidence:

* ``file://`` URI e2e: the FULL stream + daily pipelines run over a URI
  root ACROSS Ray worker processes (every read/write resolves through
  the URI code path, the same one ``s3://`` takes), and the outputs are
  byte-identical to the posix run on the same bronze input.
* ``memory://`` (fsspec's in-memory FS, genuinely non-posix but
  process-local): the driver-side control plane — bootstrap, manifest
  log, online lookup, retention cutoff, expiry, reconciliation —
  operates entirely on it.
"""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray import schema as S
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
    incremental as I,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.daily import (
    run_daily,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    bootstrap_lake,
    expire_gold_partitions,
    lookup_online,
    read_online,
    reconcile_lake,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
    write_bronze,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
    fsio as F,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
    manifest as M,
)

PROCESSED_AT = "2024-02-01T00:00:00"


@pytest.fixture(scope="module")
def bronze_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("bronze_uri"))
    tbl = generate_transcripts(
        n_convs=40, avg_turns=15, seed=23, dup_frac=0.02, late_frac=0.05
    )
    write_bronze(tbl, d, rows_per_file=400)
    return d


def _gold_df(root: str) -> pd.DataFrame:
    files = sorted(
        F.glob(F.join(root, "gold", "part=*", "dt=*", "data.parquet"))
    )
    t = pa.concat_tables([F.read_table(f) for f in files])
    return t.to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True
    )


def test_stream_and_daily_over_file_uri(ray_session, bronze_dir, tmp_path):
    """The whole stream + daily pipeline runs over a ``file://`` URI root
    (every path op and parquet IO resolves through the URI branch, in
    Ray workers too) and produces byte-identical output to the posix
    run."""
    posix_root = str(tmp_path / "lake_posix")
    uri_root = "file://" + str(tmp_path / "lake_uri")

    res_p = run_stream(
        bronze_dir, posix_root, run_id="r1",
        processed_at=PROCESSED_AT, num_parts=4,
    )
    res_u = run_stream(
        bronze_dir, uri_root, run_id="r1",
        processed_at=PROCESSED_AT, num_parts=4,
    )
    assert res_u["gold"]["rows_out"] == res_p["gold"]["rows_out"] > 0
    assert res_u["silver"]["rows_out"] == res_p["silver"]["rows_out"]
    assert res_u["online"] == res_p["online"]

    gp, gu = _gold_df(posix_root), _gold_df(uri_root)
    assert sorted(gp.columns) == sorted(gu.columns)
    for c in sorted(gp.columns):
        a, b = gp[c], gu[c]
        if np.issubdtype(a.dtype, np.floating):
            assert np.array_equal(
                a.to_numpy(float), b.to_numpy(float), equal_nan=True
            ), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c

    # lineage integrity holds on the URI lake
    rec = reconcile_lake(uri_root)
    assert rec["ok"], rec

    # daily datasets over the URI root == posix counts
    meta_p = run_daily(posix_root, created_at=PROCESSED_AT)
    meta_u = run_daily(uri_root, created_at=PROCESSED_AT)
    assert meta_u["counts"] == meta_p["counts"]
    assert meta_u["counts"]["train"] > 0
    # the split files actually landed under the URI root
    train_files = F.glob(
        F.join(uri_root, "datasets", "train", "**", "*.parquet"),
        recursive=True,
    )
    assert train_files and all(f.startswith("file://") for f in train_files)

    # online point lookup through the URI meta/partition routing
    got = lookup_online(uri_root, [gp["conv_id"].iloc[0]])
    assert got.num_rows == 1


def test_control_plane_on_memory_fs(ray_session):
    """Driver-side control plane — bootstrap, manifest log, online read,
    retention cutoff, expiry audit, reconciliation — runs entirely on a
    genuinely non-posix fsspec filesystem (``memory://``)."""
    import fsspec

    fs = fsspec.filesystem("memory")
    try:
        root = "memory://nplake"

        # C7 bootstrap: schemas; an empty lake reads as an empty online table
        reg = bootstrap_lake(root)
        assert reg["status"] == "Created"
        with F.open_(F.join(root, "_schemas.json")) as f:
            schemas = json.load(f)
        assert set(schemas) == {"bronze", "silver", "gold"}
        assert read_online(root).num_rows == 0
        assert lookup_online(root, ["conv_x"]).num_rows == 0

        # fake gold fragments + their state record, all through the facade
        gold_root = F.join(root, "gold")
        rows_by_dt = {"2024-01-01": 3, "2024-01-05": 2}
        files = []
        for dt, n in rows_by_dt.items():
            tbl = pa.table(
                {
                    "conv_id": pa.array([f"c{i}" for i in range(n)]),
                    "dt": pa.array([dt] * n),
                }
            )
            f_path = F.join(gold_root, "part=00000", f"dt={dt}", "data.parquet")
            M.atomic_write_table(tbl, f_path)
            files.append(f_path)
        I._commit_state(
            F.join(root, "state", "part=00000"),
            I._state_schema("r1", rows_by_dt, {}).empty_table(),
        )
        rec = reconcile_lake(root)
        assert rec["ok"] and rec["manifests_checked"] == 1, rec

        # C8 expiry: cutoff persisted, fragment removed, audit written
        res = expire_gold_partitions(root, keep_from_dt="2024-01-02")
        assert res["fragments_removed"] == 1 and res["rows_removed"] == 3
        assert not F.exists(files[0]) and F.exists(files[1])
        with F.open_(F.join(gold_root, "_retention.json")) as f:
            assert json.load(f)["keep_from_dt"] == "2024-01-02"
        # reconcile accounts the expired rows via the audit manifest
        rec = reconcile_lake(root)
        assert rec["ok"], rec
        # idempotent re-run
        res2 = expire_gold_partitions(root, keep_from_dt="2024-01-02")
        assert res2["fragments_removed"] == 0
    finally:
        fs.store.clear()
        fs.pseudo_dirs.clear()
        fs.pseudo_dirs.append("")


def test_fsio_local_uri_equivalence(tmp_path):
    """The facade's URI branch and posix branch agree on the same local
    tree (glob, exists, parquet rows, atomic write, rename)."""
    posix = str(tmp_path / "t")
    uri = "file://" + posix
    tbl = pa.table({"x": pa.array([1, 2, 3], pa.int64())})
    F.write_table_atomic(tbl, F.join(uri, "a", "data.parquet"))
    assert os.path.exists(os.path.join(posix, "a", "data.parquet"))
    assert F.parquet_rows(F.join(uri, "a", "data.parquet")) == 3
    assert F.parquet_rows(os.path.join(posix, "a", "data.parquet")) == 3
    assert [F.basename(p) for p in F.glob(F.join(uri, "*", "*.parquet"))] == [
        "data.parquet"
    ]
    F.write_text_atomic(F.join(uri, "m.json"), '{"k": 1}')
    with F.open_(F.join(uri, "m.json")) as f:
        assert json.load(f)["k"] == 1
    F.replace(F.join(uri, "a"), F.join(uri, "b"))
    assert F.isdir(F.join(uri, "b")) and not F.exists(F.join(uri, "a"))
    assert F.canon(F.join(uri, "b", "data.parquet")) == F.canon(
        "file://" + os.path.join(posix, "b", "data.parquet")
    )
    F.rmtree(F.join(uri, "b"))
    assert not F.exists(F.join(uri, "b"))


def test_incremental_over_file_uri(ray_session, bronze_dir, tmp_path):
    """The incremental stream (cross-run carried state, pointer-swapped
    state generations) also runs over a ``file://`` URI root and matches
    the posix run byte-for-byte."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.incremental import (
        read_gold_incremental,
        run_stream_incremental,
    )

    posix_root = str(tmp_path / "inc_posix")
    uri_root = "file://" + str(tmp_path / "inc_uri")
    for root in (posix_root, uri_root):
        run_stream_incremental(
            bronze_dir, root, run_id="r1", run_seq=0,
            processed_at=PROCESSED_AT, num_parts=4,
        )
    gp = (
        read_gold_incremental(posix_root)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    gu = (
        read_gold_incremental(uri_root)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    assert len(gp) == len(gu) > 0
    for c in sorted(gp.columns):
        a, b = gp[c], gu[c]
        if np.issubdtype(a.dtype, np.floating):
            assert np.array_equal(
                a.to_numpy(float), b.to_numpy(float), equal_nan=True
            ), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c


def test_uri_atomic_writes_use_temp_rename(tmp_path, monkeypatch):
    """ADVICE r3: on fsspec filesystems WITH atomic rename (file://,
    memory://) the atomic writers must keep the temp + rename commit
    protocol — a crash mid-write must never leave a partial manifest at
    the destination path. Proven by spying the fs-level mv: the commit
    is a rename from a .tmp- staging name onto the destination."""
    import fsspec
    import pyarrow as pa

    fs = fsspec.filesystem("file")
    calls = []
    orig_mv = type(fs).mv

    def spy_mv(self, a, b, **kw):
        calls.append((a, b))
        return orig_mv(self, a, b, **kw)

    monkeypatch.setattr(type(fs), "mv", spy_mv)

    dst = f"file://{tmp_path}/m/manifest.json"
    F.write_text_atomic(dst, '{"ok": 1}')
    assert calls, "file:// text write did not go through rename commit"
    a, b = calls[-1]
    assert ".tmp-" in a and b.rstrip("/").endswith("m/manifest.json")
    with F.open_(dst) as f:
        assert f.read() == '{"ok": 1}'

    calls.clear()
    tdst = f"file://{tmp_path}/m/data.parquet"
    F.write_table_atomic(pa.table({"x": pa.array([1, 2])}), tdst)
    assert calls and ".tmp-" in calls[-1][0]
    assert F.read_table(tdst).num_rows == 2


def test_uri_replace_stages_old_dst(tmp_path):
    """ADVICE r3: replace() on a URI must move the old dst aside (not
    delete it) before renaming src in — no crash window where the data
    exists nowhere — and clean the staging name afterwards."""
    import os

    src = f"file://{tmp_path}/newdir"
    dst = f"file://{tmp_path}/livedir"
    F.makedirs(src)
    F.write_text_atomic(f"{src}/f.txt", "new")
    F.makedirs(dst)
    F.write_text_atomic(f"{dst}/f.txt", "old")
    F.replace(src, dst)
    with F.open_(f"{dst}/f.txt") as f:
        assert f.read() == "new"
    assert not F.exists(src)
    leftovers = [e for e in os.listdir(tmp_path) if ".replaced-" in e]
    assert leftovers == []


def test_bytes_hint_private_chain_resolves(ray_session, tmp_path):
    """ADVICE r3: _bytes_hint depends on a private Ray attribute chain;
    pin it so a Ray upgrade that renames it fails loudly here instead of
    silently degrading every derived partition count to the CPU floor."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
        _bytes_hint,
    )

    f = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": list(range(1000))}), f)
    hint = _bytes_hint(rd.read_parquet(f))
    assert hint is not None and hint > 0, (
        "Ray private metadata chain (_logical_plan.dag.infer_metadata()"
        ".size_bytes) no longer resolves on this Ray version"
    )


def test_orc_stripe_rows_deterministic(tmp_path):
    """ADVICE r3: stripe_rows must mean ROWS regardless of row width —
    a narrow table must not collapse into one stripe."""
    import pyarrow.orc as paorc

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.orc import (
        write_orc,
    )

    narrow = pa.table({"x": pa.array(list(range(10_000)), pa.int64())})
    files = write_orc(narrow, str(tmp_path / "o"), rows_per_file=10_000,
                      stripe_rows=2_000)
    r = paorc.ORCFile(files[0])
    assert r.nstripes == 5
    assert [r.read_stripe(i).num_rows for i in range(5)] == [2_000] * 5


@pytest.mark.parametrize("uri", [False, True])
def test_atomic_write_creates_missing_dirs(tmp_path, uri):
    """A write into a directory that does not exist yet commits (the
    local writer creates the parent only when the temp file's open finds
    it missing) and leaves no temp file behind."""
    root = str(tmp_path / "w")
    base = "file://" + root if uri else root
    F.write_table_atomic(pa.table({"x": [1, 2]}), F.join(base, "a", "b", "data.parquet"))
    F.write_text_atomic(F.join(base, "c", "d", "m.json"), '{"k": 1}')
    F.write_ipc_atomic(pa.table({"y": [3]}), F.join(base, "a", "b", "s.arrow"))
    F.write_text_atomic(F.join(base, "c", "d", "m.json"), '{"k": 2}')  # dir exists now
    assert F.read_table(F.join(base, "a", "b", "data.parquet")).num_rows == 2
    assert F.read_ipc(F.join(base, "a", "b", "s.arrow"))["y"].to_pylist() == [3]
    with open(os.path.join(root, "c", "d", "m.json")) as f:
        assert json.load(f) == {"k": 2}
    left = [
        os.path.relpath(os.path.join(d, n), root)
        for d, _, names in os.walk(root) for n in names
    ]
    assert sorted(left) == ["a/b/data.parquet", "a/b/s.arrow", "c/d/m.json"]
