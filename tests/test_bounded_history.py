"""The stream's carried-state gold step (``medallion._gold_partition_bounded``).

Three bronze batches land ~10 days apart for the SAME conversations, so
a run sees conversations that continue past their carried ``last_ts``
(extended from the 7-day carried window, with ``lead1_ts`` repaired in
place on an older ``dt=`` file) next to conversations whose new turns
land before it (late → exact full recompute). Both kinds, and new
conversations, go through ONE gold kernel call per partition-run: the
carried window rows are context, and each conversation's latest one
seeds its session numbering. The windowed lake must be value-identical
to ONE backfill run over the union of the batches — the full recompute,
itself oracle-exact (tests/test_medallion.py) — in gold and online,
including after a conflicting redelivery and after silver compaction.
"""

import collections
import glob
import os
import sys
import threading

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
    medallion,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    compact_silver,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
    write_bronze,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
    featurize,
    salted,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
    fsio as F,
)

DAY_US = 24 * 3600 * 1_000_000
START = 1_704_067_200_000_000  # 2024-01-01
PROCESSED_AT = "2024-03-01T00:00:00"


def _batch(i: int, seed: int) -> pa.Table:
    tbl = generate_transcripts(
        n_convs=30,
        avg_turns=8,
        seed=seed,
        start_us=START + i * 10 * DAY_US,
        mean_gap_s=60.0,
    )
    # same conv ids continue across batches; disambiguate turn_idx ranges
    ti = np.asarray(tbl["turn_idx"].combine_chunks().cast(pa.int32()))
    return tbl.set_column(
        tbl.schema.get_field_index("turn_idx"),
        "turn_idx",
        pa.array(ti + i * 100_000, pa.int32()),
    )


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    root = tmp_path_factory.mktemp("bhist_bronze")
    dirs = []
    for i in range(3):
        d = str(root / f"batch{i}")
        write_bronze(_batch(i, seed=500 + i), d, rows_per_file=100_000)
        dirs.append(d)
    return dirs


def _windowed(batches, out_root):
    return [
        run_stream(b, out_root, run_id=f"r{i}", processed_at=PROCESSED_AT,
                   num_parts=4)
        for i, b in enumerate(batches)
    ]


def _backfill(batches, tmp_path, name):
    """One run over the union of the batches: the full recompute."""
    union = str(tmp_path / f"union_{name}")
    os.makedirs(union)
    tbl = pa.concat_tables(
        [pq.read_table(f) for b in batches
         for f in sorted(glob.glob(os.path.join(b, "**", "*.parquet"),
                                   recursive=True))],
        promote_options="default",
    )
    pq.write_table(tbl, os.path.join(union, "part-0.parquet"))
    out = str(tmp_path / f"backfill_{name}")
    run_stream(union, out, run_id="all", processed_at=PROCESSED_AT, num_parts=4)
    return out


def _sorted_frame(t):
    df = t.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


def _gold_frame(root):
    files = sorted(glob.glob(os.path.join(root, "gold/part=*/dt=*/data.parquet")))
    return _sorted_frame(pa.concat_tables([F.read_table(f) for f in files],
                                          promote_options="default"))


def _assert_same_lake(a, b):
    """Same gold rows and the same online table. The online rows live in
    the state files: no online Parquet file may exist."""
    pd.testing.assert_frame_equal(_gold_frame(a), _gold_frame(b))
    for lake in (a, b):
        assert not glob.glob(os.path.join(lake, "online", "part=*"))
    online = [_sorted_frame(medallion.read_online(lake)) for lake in (a, b)]
    assert len(online[0]) > 0
    pd.testing.assert_frame_equal(*online)


def test_bounded_equals_full(batches, tmp_path, ray_session):
    windowed = str(tmp_path / "windowed")
    parts = _windowed(batches, windowed)[2]["partition_records"]
    _assert_same_lake(windowed, _backfill(batches, tmp_path, "all"))

    assert parts and all(p["gold_mode"] == "carried" for p in parts)
    # some conversation continued from its carried window: its previous
    # last row (written by an earlier run) had lead1_ts repaired in place
    assert sum(p["lead_patches"] for p in parts) > 0
    # a partition with no late conversation fed only the run's own turns
    # to the kernels — no silver history was read
    calm = [p for p in parts if p["late_convs"] == 0]
    assert calm and all(p["gold_rows_in"] <= p["silver_rows_out"] for p in calm)


def test_conflicting_redelivery_falls_back_to_full(batches, tmp_path,
                                                   ray_session):
    # a 4th batch redelivers an old key with an EARLIER ts: the dedup
    # winner flips, so its conversation takes the exact full recompute
    b0 = pa.concat_tables(
        [F.read_table(f) for f in sorted(
            glob.glob(os.path.join(batches[0], "**", "*.parquet"),
                      recursive=True))],
        promote_options="default",
    )
    row = b0.slice(0, 1).to_pandas()
    row["ts"] = row["ts"] - pd.Timedelta(microseconds=1)
    row["ingest_ts"] = row["ingest_ts"] + pd.Timedelta(days=40)
    late = pa.Table.from_pandas(row, schema=b0.schema, preserve_index=False)
    conflict_dir = str(tmp_path / "conflict_bronze")
    write_bronze(late, conflict_dir, rows_per_file=10)

    seq = list(batches) + [conflict_dir]
    windowed = str(tmp_path / "windowed4")
    res = _windowed(seq, windowed)
    assert res[-1]["late_convs"] == 1
    _assert_same_lake(windowed, _backfill(seq, tmp_path, "conflict"))
    assert any(p["late_convs"] == 1 for p in res[-1]["partition_records"])


def test_bounded_after_compaction_still_exact(batches, tmp_path,
                                              ray_session):
    """compact_silver rewrites run files as run-compact-*; the full
    recompute of late conversations reads them (plus later run files)
    and the lake stays value-identical to the backfill."""
    windowed = str(tmp_path / "windowed_c")
    for i, b in enumerate(batches[:2]):
        run_stream(b, windowed, run_id=f"r{i}", processed_at=PROCESSED_AT,
                   num_parts=4)
    compact_silver(windowed, run_id="c1")
    res = run_stream(batches[2], windowed, run_id="r2",
                     processed_at=PROCESSED_AT, num_parts=4)
    assert res["late_convs"] > 0
    _assert_same_lake(windowed, _backfill(batches, tmp_path, "c"))


def _calls_by_file(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and a count of the Python calls it made,
    by ``(file, function)``, in this thread and in threads it starts."""
    calls = collections.Counter()

    def prof(frame, event, arg):
        if event == "call":
            calls[(frame.f_code.co_filename, frame.f_code.co_name)] += 1

    threading.setprofile(prof)
    sys.setprofile(prof)
    try:
        out = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return out, calls


def test_one_kernel_call_per_partition_run(tmp_path, monkeypatch):
    """One partition whose second run extends some conversations,
    recomputes late ones and starts new ones makes exactly one gold
    kernel call, and never enters stages.salted."""
    # the one-task plan in this process, so the profiler sees its calls
    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    first, second = _batch(0, seed=600), _batch(1, seed=601)
    new = generate_transcripts(n_convs=3, avg_turns=6, seed=602,
                               start_us=START + 10 * DAY_US, mean_gap_s=60.0,
                               conv_id_offset=1000)
    first_dir, second_dir = str(tmp_path / "b0"), str(tmp_path / "b1")
    write_bronze(first, first_dir, rows_per_file=100_000)
    write_bronze(pa.concat_tables([second, new]), second_dir, rows_per_file=100_000)

    lake = str(tmp_path / "lake")
    run_stream(first_dir, lake, run_id="r0", processed_at=PROCESSED_AT, num_parts=1)
    res, calls = _calls_by_file(run_stream, second_dir, lake, run_id="r1",
                                processed_at=PROCESSED_AT, num_parts=1)

    (rec,) = res["partition_records"]
    assert res["partitions"] == 1
    assert res["late_convs"] == rec["late_convs"] > 0
    assert rec["lead_patches"] > 0  # extended conversations
    assert set(new["conv_id"].to_pylist()) <= set(
        medallion.read_online(lake)["conv_id"].to_pylist())
    assert calls[(featurize.__file__, "gold_features_partition")] == 1
    salted_calls = [k for k in calls if k[0] == salted.__file__]
    assert not salted_calls, salted_calls
    _assert_same_lake(lake, _backfill([first_dir, second_dir], tmp_path, "one_call"))
