"""S8 — online batch put: validation, quarantine, retry, accounting
(reference feature_store/ingest_features.py:63-98 batch_put_records)."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
    feature_put as FP,
)


def _tbl(n=6):
    return pa.table(
        {
            "conv_id": pa.array([f"conv_{i:04d}" for i in range(n)]),
            "ts": pa.array(
                np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")
            ),
            "event_time": pa.array(np.arange(n, dtype=np.float64)),
            "turns_1h": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


def _invalid_tbl():
    """Six rows, four of which the store rejects: conv_0000 and conv_0005
    pass."""
    t = _tbl(6).to_pydict()
    t["conv_id"][1] = None  # missing record identifier
    t["conv_id"][2] = ""  # empty record identifier
    t["ts"][3] = None  # missing timestamp
    t["event_time"][4] = float("nan")  # non-finite event time
    return pa.table(
        {
            "conv_id": pa.array(t["conv_id"], pa.string()),
            "ts": pa.array(t["ts"], pa.timestamp("us")),
            "event_time": pa.array(t["event_time"], pa.float64()),
            "turns_1h": pa.array(t["turns_1h"], pa.int64()),
        }
    )


def test_put_all_valid(tmp_path):
    """Accepted rows are counted, not written: the online row is
    committed with the partition's state."""
    root = str(tmp_path / "online")
    res = FP.put_partition(_tbl(), root, "00000", run_id="r1")
    assert res == {"success": 6, "errors": 0}
    assert not os.path.exists(root)


def test_put_rejects_and_quarantines(tmp_path):
    root = str(tmp_path / "online")
    res = FP.put_partition(_invalid_tbl(), root, "00007", run_id="r2")
    assert res == {"success": 2, "errors": 4}
    assert glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True) == [
        os.path.join(root, "_errors", "part=00007", "run-r2.parquet")
    ]
    err = pq.read_table(
        os.path.join(root, "_errors", "part=00007", "run-r2.parquet")
    )
    # every rejected row kept for re-put
    assert err["conv_id"].to_pylist() == [None, "", "conv_0003", "conv_0004"]


def test_put_retries_transient_failure(tmp_path, monkeypatch):
    """A transient quarantine-write failure is retried after a backoff."""
    calls = {"n": 0}
    real = FP._write_table

    def flaky(tbl, path):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("transient")
        real(tbl, path)

    slept = []
    monkeypatch.setattr(FP, "_write_table", flaky)
    root = str(tmp_path / "online")
    res = FP.put_partition(
        _invalid_tbl(), root, "00000", run_id="r3", sleep=slept.append
    )
    assert res == {"success": 2, "errors": 4}
    assert calls["n"] == 2 and len(slept) == 1
    err = pq.read_table(os.path.join(root, "_errors", "part=00000", "run-r3.parquet"))
    assert err.num_rows == 4


def test_put_quarantine_failure_never_aborts(tmp_path, monkeypatch):
    """A quarantine write that keeps failing gives up after its retries
    without raising; the counts stand (reference ingest_features.py:92-94
    never lets a failed batch abort the run)."""
    calls = []

    def always_fail(tbl, path):
        calls.append(path)
        raise OSError("down")

    monkeypatch.setattr(FP, "_write_table", always_fail)
    res = FP.put_partition(
        _invalid_tbl(), str(tmp_path / "online"), "00000", run_id="r4",
        max_retries=1, sleep=lambda s: None,
    )
    assert res == {"success": 2, "errors": 4}
    assert len(calls) == 2


@pytest.fixture(scope="module")
def bronze_dir(tmp_path_factory):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
        generate_transcripts,
        write_bronze,
    )

    d = str(tmp_path_factory.mktemp("bronze"))
    write_bronze(
        generate_transcripts(n_convs=40, avg_turns=10, seed=3, null_frac=0.01),
        d,
        rows_per_file=500,
    )
    return d


def test_run_stream_reports_put_summary(ray_session, bronze_dir, tmp_path):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        read_online,
        run_stream,
    )

    out = str(tmp_path / "lake")
    res = run_stream(bronze_dir, out, run_id="s8", processed_at="2026-01-01T00:00:00")
    online = read_online(out)
    assert res["online"]["errors"] == 0
    assert res["online"]["success"] == online.num_rows > 0


def test_put_counts_only_the_runs_rows(tmp_path):
    """Run 2 touches one of the partition's three conversations: its
    record counts that one put, and the online table still holds all
    three conversations."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        incremental as I,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        normalize_bronze,
        read_online,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
        generate_transcripts,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
        GoldConfig,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
        add_partition_col,
    )

    bronze = generate_transcripts(n_convs=3, avg_turns=6, seed=5)
    conv = np.asarray(bronze["conv_id"].to_pylist(), dtype=object)
    turn = np.asarray(bronze["turn_idx"])
    last = (conv == conv[0]) & (turn == turn[conv == conv[0]].max())
    assert len(set(conv)) == 3 and (conv == conv[0]).sum() > 1
    out = str(tmp_path / "lake")

    def run(tbl, run_id):
        t = normalize_bronze(tbl, processed_at="2024-02-01T00:00:00")
        rec = I.process_partition_incremental(
            add_partition_col(t, "conv_id", 1),
            silver_root=os.path.join(out, "silver"),
            gold_root=os.path.join(out, "gold"),
            online_root=os.path.join(out, "online"),
            state_root=os.path.join(out, "state"),
            cfg=GoldConfig(dedup=False),
            run_id=run_id,
        )
        return rec.to_pylist()[0]

    assert run(bronze.filter(pa.array(~last)), "r1")["put_success"] == 3
    assert run(bronze.filter(pa.array(last)), "r2")["put_success"] == 1
    assert sorted(read_online(out)["conv_id"].to_pylist()) == sorted(set(conv))
