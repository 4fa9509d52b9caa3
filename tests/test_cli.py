"""CLI e2e: the ``python -m … run-stream --window-end`` path (C2 watermark
semantics, reference state_machines/stream_pipeline.asl.json:21-30) must work
with ISO-string windows — this was dead in round 1 (VERDICT §wrong #1)."""

import glob
import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.__main__ import main
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    run_stream,
)

PROCESSED_AT = "2024-02-01T00:00:00"


@pytest.fixture(scope="module")
def cli_bronze(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("cli_bronze"))
    rc = main(
        [
            "gen-data", "--out", d, "--convs", "50", "--avg-turns", "20",
            "--shards", "3", "--seed", "11", "--late-frac", "0.05",
        ]
    )
    assert rc == 0
    return d


def _window_bounds(bronze_dir):
    full = pq.read_table(bronze_dir, columns=["ingest_ts"])
    ing = full["ingest_ts"].to_pandas()
    return ing.min(), ing.max()


def test_run_stream_window_end_cli(ray_session, cli_bronze, tmp_path, capsys):
    """ISO-string --window-end exercises the full stream pipeline."""
    lo, hi = _window_bounds(cli_bronze)
    lookback_min = int((hi - lo).total_seconds() // 60) + 1
    out = str(tmp_path / "lake_cli")
    rc = main(
        [
            "run-stream", "--bronze", cli_bronze, "--out", out,
            "--run-id", "c1", "--processed-at", PROCESSED_AT,
            "--window-end", hi.isoformat(),
            "--lookback-minutes", str(lookback_min),
            "--num-parts", "4",
        ]
    )
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["silver"]["rows_out"] > 0
    assert glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "*.parquet"))


def test_build_datasets_cli(ray_session, cli_bronze, tmp_path, capsys):
    """``build-datasets`` over a one-block gold: exit 0, the plan in the
    printed record, and train + validation together hold every gold row."""
    out = str(tmp_path / "lake_daily")
    run_stream(cli_bronze, out, run_id="d1", processed_at=PROCESSED_AT, num_parts=4)
    capsys.readouterr()
    rc = main(["build-datasets", "--out", out, "--processed-at", PROCESSED_AT])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["plan"] == "one_task" and meta["input_bytes"] > 0
    gold = glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "*.parquet"))
    gold_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in gold)
    assert meta["counts"]["train"] + meta["counts"]["validation"] == gold_rows > 0


def test_build_datasets_cli_rejects_zero_inference_days(ray_session, tmp_path):
    """``--inference-days 0`` fails loudly instead of projecting every dt."""
    with pytest.raises(ValueError, match="inference_days"):
        main(["build-datasets", "--out", str(tmp_path / "lake"),
              "--inference-days", "0", "--processed-at", PROCESSED_AT])
    assert not os.path.exists(tmp_path / "lake" / "datasets")


def test_string_window_matches_timestamp_window(ray_session, cli_bronze, tmp_path):
    """str and pd.Timestamp windows produce identical gold bytes."""
    lo, hi = _window_bounds(cli_bronze)
    out_s = str(tmp_path / "lake_str")
    out_t = str(tmp_path / "lake_ts")
    run_stream(
        cli_bronze, out_s, run_id="w", processed_at=PROCESSED_AT,
        ingest_window=(lo.isoformat(), hi.isoformat()), num_parts=4,
    )
    run_stream(
        cli_bronze, out_t, run_id="w", processed_at=PROCESSED_AT,
        ingest_window=(lo, hi), num_parts=4,
    )

    def gold(root):
        files = sorted(glob.glob(os.path.join(root, "gold", "part=*", "dt=*", "*.parquet")))
        t = pd.concat([pq.read_table(f).to_pandas() for f in files])
        return t.sort_values(["conv_id", "turn_idx"], ignore_index=True)

    pd.testing.assert_frame_equal(gold(out_s), gold(out_t))


def test_gen_data_exact_conv_count(ray_session, tmp_path):
    """--convs not divisible by --shards still yields exactly that many
    conversations (ADVICE: remainder was silently dropped)."""
    d = str(tmp_path / "b")
    rc = main(
        ["gen-data", "--out", d, "--convs", "10", "--avg-turns", "5",
         "--shards", "3", "--seed", "1"]
    )
    assert rc == 0
    t = pq.read_table(d, columns=["conv_id"])
    assert t["conv_id"].to_pandas().nunique() == 10
