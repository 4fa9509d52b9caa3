"""``run_stream``'s two plans. An input of one block (``sources.reads
.num_blocks_for`` == 1, at most ``SMALL_BLOCK`` bytes on disk) runs every
hash partition in one Ray task; a larger one goes through the keyed
exchange. Both call the same per-partition step on the same partitions,
so they must write byte-identical lakes. Every test bronze is far below
``SMALL_BLOCK``; the exchange plan is forced by shrinking that constant.
"""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    read_online,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources import (
    reads,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
    write_bronze,
)

DAY_US = 24 * 3600 * 1_000_000
START = 1_704_067_200_000_000  # 2024-01-01
PROCESSED_AT = "2024-03-01T00:00:00"
LAKE_FILES = (
    "silver/part=*/*.parquet",
    "gold/part=*/dt=*/*.parquet",
    "state/part=*/*",
)
# per-task wall times and the commit time: the only run-result figures
# that differ between runs
WALL_KEYS = {"sum_task_wall_s", "rows_per_task_s", "task_wall_p50_s",
             "task_wall_p99_s", "task_wall_max_s", "skew_p99_over_p50",
             "silver_wall_s", "gold_wall_s", "commit_ts"}


def force_exchange(monkeypatch):
    """Make every input larger than one block, so ``run_stream`` takes the
    keyed exchange."""
    monkeypatch.setattr(reads, "SMALL_BLOCK", 1)


@pytest.fixture(scope="module")
def windows(tmp_path_factory):
    """Three batches ten days apart for the same conversations (later ones
    extend some conversations and hold late turns for others), then a
    conflicting redelivery of a first-batch key with an earlier ts."""
    root = tmp_path_factory.mktemp("plans_bronze")
    dirs, first = [], None
    for i in range(3):
        tbl = generate_transcripts(
            n_convs=30, avg_turns=8, seed=700 + i, dup_frac=0.05,
            start_us=START + i * 10 * DAY_US, mean_gap_s=60.0,
        )
        ti = np.asarray(tbl["turn_idx"].combine_chunks().cast(pa.int32()))
        tbl = tbl.set_column(
            tbl.schema.get_field_index("turn_idx"), "turn_idx",
            pa.array(ti + i * 100_000, pa.int32()),
        )
        first = tbl if first is None else first
        d = str(root / f"w{i}")
        write_bronze(tbl, d, rows_per_file=100)
        dirs.append(d)
    row = first.slice(0, 1).to_pandas()
    row["ts"] = row["ts"] - pd.Timedelta(microseconds=1)
    row["ingest_ts"] = row["ingest_ts"] + pd.Timedelta(days=40)
    d = str(root / "w3")
    write_bronze(pa.Table.from_pandas(row, schema=first.schema, preserve_index=False), d)
    dirs.append(d)
    return dirs


def _run_all(windows, out):
    return [
        run_stream(w, out, run_id=f"r{i}", processed_at=PROCESSED_AT, num_parts=4)
        for i, w in enumerate(windows)
    ]


def _lake_bytes(out):
    """Every lake file's bytes, by relative path. The online rows are in
    the state files; no online Parquet file may exist."""
    assert not glob.glob(os.path.join(out, "online", "part=*"))
    got = {}
    for pattern in LAKE_FILES:
        for f in glob.glob(os.path.join(out, pattern)):
            with open(f, "rb") as fh:
                got[os.path.relpath(f, out)] = fh.read()
    return got


def _comparable(result):
    """A run result without its plan, wall times and commit time."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in WALL_KEYS}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v

    return strip({k: v for k, v in result.items() if k != "plan"})


def test_plans_write_identical_lakes(ray_session, monkeypatch, tmp_path, windows):
    one = str(tmp_path / "one_task")
    res_one = _run_all(windows, one)
    force_exchange(monkeypatch)
    ex = str(tmp_path / "exchange")
    res_ex = _run_all(windows, ex)

    assert [r["plan"] for r in res_one] == ["one_task"] * len(windows)
    assert [r["plan"] for r in res_ex] == ["exchange"] * len(windows)
    for w, r in zip(windows, res_one):
        assert r["input_bytes"] == reads._total_bytes(w) > 0
    assert res_one[-1]["late_convs"] == 1  # the conflicting redelivery
    assert sum(r["late_convs"] for r in res_one[1:3]) > 0  # late turns
    with open(os.path.join(one, "run-r0.json")) as f:
        record = json.load(f)
    assert record["plan"] == "one_task"
    assert record["input_bytes"] == res_one[0]["input_bytes"]

    assert [_comparable(r) for r in res_one] == [_comparable(r) for r in res_ex]
    want, got = _lake_bytes(ex), _lake_bytes(one)
    assert sorted(got) == sorted(want)
    assert any(p.startswith("silver/") for p in got)
    for path in want:
        assert got[path] == want[path], path
    assert read_online(one).equals(read_online(ex))
    assert read_online(one).num_rows > 0


def test_one_block_run_plans_no_exchange(ray_session, monkeypatch, tmp_path, windows):
    from ray.data.grouped_data import GroupedData

    def no_exchange(*a, **k):
        raise AssertionError("a one-block run planned a keyed exchange")

    monkeypatch.setattr(GroupedData, "map_groups", no_exchange)
    res = run_stream(windows[0], str(tmp_path / "lake"), run_id="r0",
                     processed_at=PROCESSED_AT, num_parts=4)
    assert res["plan"] == "one_task" and res["partitions"] == 4
