"""``run_daily``'s two plans. Gold of one block (``sources.reads
.num_blocks_for`` == 1, at most ``SMALL_BLOCK`` bytes on disk) is labelled,
split and written by one Ray task without Ray Data; larger gold goes
through Ray Data pipelines. Both must write the same rows with the same
Arrow schemas and report the same counts. Every test gold is far below
``SMALL_BLOCK``; the Ray Data plan is forced by shrinking that constant.
"""

import glob
import hashlib
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
    daily,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    gold_dt_fragments,
    run_stream,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources import (
    reads,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
    write_bronze,
)

PROCESSED_AT = "2024-03-01T00:00:00"
DATASETS = ("train", "validation", "inference")
KEY = ["conv_id", "turn_idx"]


def force_dataset_plan(monkeypatch):
    """Make every gold larger than one block, so ``run_daily`` takes the
    Ray Data plan."""
    monkeypatch.setattr(reads, "SMALL_BLOCK", 1)


@pytest.fixture(scope="module")
def gold_lake(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("daily_plans")
    bronze = str(root / "bronze")
    tbl = generate_transcripts(
        n_convs=60, avg_turns=20, seed=31, dup_frac=0.02, null_frac=0.01,
        empty_text_frac=0.01, late_frac=0.05,
    )
    write_bronze(tbl, bronze, rows_per_file=500)
    out = str(root / "lake")
    run_stream(bronze, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    return out


@pytest.fixture
def lake(gold_lake, tmp_path):
    """A private copy of the module's gold, so each test owns its datasets."""
    out = str(tmp_path / "lake")
    shutil.copytree(os.path.join(gold_lake, "gold"), os.path.join(out, "gold"))
    return out


def _dataset_files(out):
    root = os.path.join(out, "datasets")
    return sorted(
        os.path.relpath(f, root)
        for f in glob.glob(os.path.join(root, "**", "*"), recursive=True)
        if os.path.isfile(f) and not f.endswith("metadata.json")
    )


def _datasets(out):
    """Per dataset: (digest of its sorted rows, the set of its files'
    serialized Arrow schemas — metadata included —, row count)."""
    got = {}
    for which in DATASETS:
        files = glob.glob(os.path.join(out, "datasets", which, "**", "*.parquet"), recursive=True)
        tables = [pq.read_table(f) for f in files]
        schemas = {t.schema.serialize().to_pybytes() for t in tables}
        df = pa.concat_tables(tables).to_pandas() if tables else pd.DataFrame()
        if len(df):
            df = df.sort_values(KEY, ignore_index=True)
        h = hashlib.sha256(pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes())
        got[which] = (h.hexdigest(), schemas, len(df))
    return got


def _range(lake, which):
    if which == "full":
        return None, None
    _, dts = gold_dt_fragments(os.path.join(lake, "gold"))
    assert len(dts) > 3, "fixture must span several days"
    return dts[1], dts[-2]


@pytest.mark.parametrize("rng", ["full", "sub"])
def test_plans_build_identical_datasets(lake, tmp_path, monkeypatch, rng):
    lo, hi = _range(lake, rng)
    other = str(tmp_path / "other")
    shutil.copytree(os.path.join(lake, "gold"), os.path.join(other, "gold"))

    one = daily.run_daily(lake, created_at=PROCESSED_AT, dt_start=lo, dt_end=hi)
    force_dataset_plan(monkeypatch)
    ds = daily.run_daily(other, created_at=PROCESSED_AT, dt_start=lo, dt_end=hi)

    assert (one["plan"], ds["plan"]) == ("one_task", "dataset")
    files, _ = gold_dt_fragments(os.path.join(lake, "gold"), lo, hi)
    assert one["input_bytes"] == ds["input_bytes"] >= reads._total_bytes(files) > 0
    assert one["counts"] == ds["counts"]
    assert one["inference_dts"] == ds["inference_dts"]
    a, b = _datasets(lake), _datasets(other)
    assert a == b
    for which in DATASETS:
        _, schemas, n = a[which]
        assert n == one["counts"][which] > 0 and len(schemas) == 1
    # the one-block plan writes one file per dataset
    assert _dataset_files(lake) == [f"{w}/data.parquet" for w in sorted(DATASETS)]
    for out, meta in ((lake, one), (other, ds)):
        with open(os.path.join(out, "datasets", "metadata.json")) as f:
            assert json.load(f) == meta


def test_one_block_plan_never_uses_ray_data(lake, monkeypatch):
    calls = []

    def spy(*a, **k):
        calls.append(a)
        return reads.read_parquet_sized(*a, **k)

    monkeypatch.setattr(daily, "read_parquet_sized", spy)
    meta = daily.run_daily(lake, created_at=PROCESSED_AT)
    assert meta["plan"] == "one_task" and calls == []
    force_dataset_plan(monkeypatch)
    assert daily.run_daily(lake, created_at=PROCESSED_AT)["plan"] == "dataset"
    assert len(calls) == 2  # the spy sees the Ray Data plan's two reads


@pytest.mark.parametrize("first", ["one_task", "dataset"])
def test_rebuild_with_other_plan_leaves_only_its_files(lake, monkeypatch, first):
    """Overwrite semantics across plans: a build leaves no file of an
    earlier build by the other plan in any dataset directory."""
    with monkeypatch.context() as m:
        if first == "dataset":
            force_dataset_plan(m)
        meta1 = daily.run_daily(lake, created_at=PROCESSED_AT)
    before, data1 = _dataset_files(lake), _datasets(lake)
    with monkeypatch.context() as m:
        if first == "one_task":
            force_dataset_plan(m)
        meta2 = daily.run_daily(lake, created_at=PROCESSED_AT)
    after = _dataset_files(lake)

    assert meta1["plan"] == first != meta2["plan"]
    assert before and after and not set(before) & set(after)
    assert not os.path.exists(os.path.join(lake, "datasets", "_splits"))
    # a leftover data file would add rows to its dataset
    assert _datasets(lake) == data1
    assert meta2["counts"] == meta1["counts"]


@pytest.mark.parametrize("days", [0, -1])
def test_inference_days_below_one_raises(lake, days):
    """``all_dts[-0:]`` is every dt and a negative count a silent suffix:
    both are refused before any dataset is written."""
    with pytest.raises(ValueError, match="inference_days"):
        daily.run_daily(lake, created_at=PROCESSED_AT, inference_days=days)
    assert not os.path.exists(os.path.join(lake, "datasets"))
    meta = daily.run_daily(lake, created_at=PROCESSED_AT, inference_days=1)
    _, dts = gold_dt_fragments(os.path.join(lake, "gold"))
    assert meta["inference_dts"] == dts[-1:]
