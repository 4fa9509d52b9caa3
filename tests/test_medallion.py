"""End-to-end medallion tests on synthetic transcripts: gold parity vs a
DuckDB oracle (the north-rule allclose gate, here bit-exact), resume
idempotence, backfill equivalence, parallelism invariance, daily job."""

import glob
import json
import os
import shutil

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray import schema as S
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
    write_bronze,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    run_stream,
    read_online,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.daily import (
    run_daily,
)

PROCESSED_AT = "2024-02-01T00:00:00"

GOLD_ORACLE_SQL = """
WITH src AS (
    SELECT conv_id, turn_idx, role, text, tool, ts FROM (
        SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                     ORDER BY ts, ingest_ts) AS rn
        FROM read_parquet('{bronze}/*.parquet')
        WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL AND length(text) > 0
    ) WHERE rn = 1
),
f AS (
    SELECT conv_id, turn_idx, role, tool, text, ts,
        strftime(ts, '%Y-%m-%d') AS dt,
        CAST(epoch_us(ts) AS DOUBLE) / 1000000 AS event_time,
        count(*) OVER w1h AS turns_1h,
        CAST(sum(length(text)) OVER w1h AS DOUBLE) AS chars_1h,
        count(DISTINCT tool) OVER w24h AS tool_count_24h,
        CAST(sum(length(text)) OVER w7d AS DOUBLE)
            / count(*) OVER w7d AS avg_chars_7d,
        count(CASE WHEN role = 'user' THEN 1 END) OVER w1h AS user_turns_1h,
        count(CASE WHEN role = 'assistant' THEN 1 END) OVER w1h AS assistant_turns_1h,
        lag(ts) OVER wo AS lag1_ts,
        lead(ts) OVER wo AS lead1_ts,
        epoch_us(ts) - lag(epoch_us(ts)) OVER wo AS gap_us
    FROM src
    WINDOW
        w1h AS (PARTITION BY conv_id ORDER BY ts
                RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW),
        w24h AS (PARTITION BY conv_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW),
        w7d AS (PARTITION BY conv_id ORDER BY ts
                RANGE BETWEEN INTERVAL 7 DAYS PRECEDING AND CURRENT ROW),
        wo AS (PARTITION BY conv_id ORDER BY ts, turn_idx)
),
sess AS (
    SELECT *,
        CAST(gap_us AS DOUBLE) / 1000000 AS gap_s,
        CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > 1800000000 THEN 1 ELSE 0 END)
            OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
    FROM f
)
SELECT conv_id, turn_idx, role, tool, text, ts, dt, event_time,
    turns_1h, chars_1h, tool_count_24h, avg_chars_7d,
    user_turns_1h, assistant_turns_1h,
    lag1_ts, lead1_ts, gap_s, session_id,
    CAST(row_number() OVER (PARTITION BY conv_id, session_id
                            ORDER BY ts, turn_idx) - 1 AS INTEGER)
        AS session_turn_idx
FROM sess
ORDER BY conv_id, turn_idx
"""


@pytest.fixture(scope="module")
def bronze_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("bronze"))
    tbl = generate_transcripts(
        n_convs=120,
        avg_turns=30,
        seed=7,
        dup_frac=0.02,
        null_frac=0.01,
        empty_text_frac=0.01,
        late_frac=0.05,
    )
    write_bronze(tbl, d, rows_per_file=1500)
    return d


def gold_to_pandas(out_root: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_root, "gold", "part=*", "dt=*", "data.parquet")))
    import pyarrow.parquet as pq

    t = pa.concat_tables([pq.read_table(f) for f in files])
    return t.to_pandas().sort_values(["conv_id", "turn_idx"], ignore_index=True)


def compare_gold(got: pd.DataFrame, exp: pd.DataFrame):
    assert len(got) == len(exp)
    assert sorted(got.columns) == sorted(exp.columns)
    for c in sorted(exp.columns):
        a, b = got[c], exp[c]
        if np.issubdtype(a.dtype, np.floating) or np.issubdtype(b.dtype, np.floating):
            av, bv = a.to_numpy(float), b.to_numpy(float)
            assert np.array_equal(av, bv, equal_nan=True), f"{c} mismatch"
        else:
            assert (a.astype(str) == b.astype(str)).all(), f"{c} mismatch"


def test_stream_gold_parity(ray_session, bronze_dir, tmp_path):
    out = str(tmp_path / "lake")
    res = run_stream(
        bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=8
    )
    assert res["gold"]["rows_out"] > 0
    got = gold_to_pandas(out)
    exp = duckdb.connect().execute(
        GOLD_ORACLE_SQL.format(bronze=bronze_dir)
    ).df().sort_values(["conv_id", "turn_idx"], ignore_index=True)
    compare_gold(got, exp)
    # text byte-equality under stable (conv_id, turn_idx) ordering
    assert (got["text"] == exp["text"]).all()
    # temporal-leakage spot check: recompute turns_1h using only past rows
    g = got[got["conv_id"] == got["conv_id"].iloc[0]]
    ts = g["ts"].to_numpy()
    for i in range(len(g)):
        w = (ts >= ts[i] - np.timedelta64(3600, "s")) & (ts <= ts[i])
        assert g["turns_1h"].iloc[i] == int(w.sum())


def test_resume_idempotent(ray_session, bronze_dir, tmp_path):
    from test_stream_plans import _comparable

    out = str(tmp_path / "lake")
    res1 = run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    g1 = gold_to_pandas(out)
    # rerun after a crash that came after every commit: each partition's
    # state names the run, so every step is skipped and returns the
    # record it stored
    res2 = run_stream(
        bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4
    )
    assert res2["silver"]["partitions"] == 4
    assert _comparable(res2) == _comparable(res1)
    assert res2["gold"]["rows_out"] == len(g1)
    assert all(p["silver_wall_s"] is None and p["gold_wall_s"] is None
               for p in res2["partition_records"])
    g2 = gold_to_pandas(out)
    pd.testing.assert_frame_equal(g1, g2)
    # silver files were not duplicated (the reference's append hazard)
    files = glob.glob(os.path.join(out, "silver", "part=*", "run-r1.parquet"))
    assert len(files) == 4


def test_backfill_equivalence(ray_session, bronze_dir, tmp_path):
    """Two ingest-windowed runs (late rows in run 2) == one full run."""
    import pyarrow.parquet as pq

    full = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(f"{bronze_dir}/*.parquet"))]
    )
    ing = full["ingest_ts"].to_pandas()
    cut = ing.quantile(0.7)
    lo, hi = ing.min(), ing.max()

    out_a = str(tmp_path / "lake_split")
    run_stream(
        bronze_dir, out_a, run_id="w1", processed_at=PROCESSED_AT,
        ingest_window=(lo, cut), num_parts=4,
    )
    run_stream(
        bronze_dir, out_a, run_id="w2", processed_at=PROCESSED_AT,
        ingest_window=(cut + pd.Timedelta(microseconds=1), hi), num_parts=4,
    )
    out_b = str(tmp_path / "lake_once")
    run_stream(bronze_dir, out_b, run_id="all", processed_at=PROCESSED_AT, num_parts=4)
    pd.testing.assert_frame_equal(gold_to_pandas(out_a), gold_to_pandas(out_b))


def test_parallelism_invariance(ray_session, bronze_dir, tmp_path):
    out1 = str(tmp_path / "p1")
    out2 = str(tmp_path / "p2")
    run_stream(bronze_dir, out1, run_id="r", processed_at=PROCESSED_AT, num_parts=1)
    run_stream(bronze_dir, out2, run_id="r", processed_at=PROCESSED_AT, num_parts=16)
    pd.testing.assert_frame_equal(gold_to_pandas(out1), gold_to_pandas(out2))


def test_online_latest(ray_session, bronze_dir, tmp_path):
    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    online = read_online(out).to_pandas()
    gold = gold_to_pandas(out)
    assert len(online) == gold["conv_id"].nunique()
    last = gold.sort_values(["conv_id", "ts", "turn_idx"]).groupby("conv_id").tail(1)
    m = online.sort_values("conv_id", ignore_index=True)
    l = last.sort_values("conv_id", ignore_index=True)
    assert (m["ts"].to_numpy() == l["ts"].to_numpy()).all()


def test_daily_job(ray_session, bronze_dir, tmp_path):
    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    meta = run_daily(out, created_at=PROCESSED_AT)
    c = meta["counts"]
    gold_n = len(gold_to_pandas(out))
    assert c["train"] + c["validation"] == gold_n
    assert 0.7 < c["train"] / gold_n < 0.9
    # inference excludes label-ish cols and dt
    import pyarrow.parquet as pq

    inf_files = glob.glob(os.path.join(out, "datasets", "inference", "*.parquet"))
    sch = pq.read_schema(inf_files[0])
    assert "dt" not in sch.names and "text" not in sch.names and "is_long" not in sch.names
    # deterministic split: rerun gives identical counts
    meta2 = run_daily(out, created_at=PROCESSED_AT)
    assert meta2["counts"] == c
    assert os.path.exists(os.path.join(out, "datasets", "metadata.json"))
    json.load(open(os.path.join(out, "datasets", "metadata.json")))


def test_backfill_targets(ray_session, bronze_dir, tmp_path):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
        manifest as M,
    )

    out = str(tmp_path / "lake")
    res = run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=8)
    max_ts = {f"{p['part']:05d}": p["max_ts"] for p in res["partition_records"]}
    assert len(max_ts) == 8
    # a late window before every partition's max_ts touches all of them;
    # one after the global max touches none
    assert M.backfill_targets(out, "2000-01-01") == set(max_ts)
    assert M.backfill_targets(out, "2999-01-01") == set()
    # a mid-range cut selects exactly the partitions whose max_ts reaches it
    cut = sorted(max_ts.values())[4]
    got = M.backfill_targets(out, cut)
    assert got == {k for k, v in max_ts.items() if v >= cut} and 0 < len(got) <= 8


def test_daily_dt_fragment_pruning(ray_session, bronze_dir, tmp_path):
    """run_daily must only touch the dt range's physical fragments: the
    pruned file list is a strict subset for a sub-range, and the built
    datasets contain exactly the rows of that range."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        gold_dt_fragments,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    gold_dir = os.path.join(out, "gold")
    all_files, all_dts = gold_dt_fragments(gold_dir)
    assert len(all_dts) > 2, "fixture must span several days"
    lo, hi = all_dts[1], all_dts[-2]
    sub_files, sub_dts = gold_dt_fragments(gold_dir, lo, hi)
    assert sub_dts == [d for d in all_dts if lo <= d <= hi]
    assert set(sub_files) < set(all_files)
    # every pruned file path lies inside the requested dt range
    for f in sub_files:
        dt = os.path.basename(os.path.dirname(f))[3:]
        assert lo <= dt <= hi

    meta = run_daily(out, created_at=PROCESSED_AT, dt_start=lo, dt_end=hi)
    gold = gold_to_pandas(out)
    in_range = gold[(gold["dt"] >= lo) & (gold["dt"] <= hi)]
    c = meta["counts"]
    assert c["train"] + c["validation"] == len(in_range)


def test_gold_dt_layout_matches_column(ray_session, bronze_dir, tmp_path):
    """Physical dt= dir of every gold file equals the dt column inside."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    files = glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "*.parquet"))
    assert files
    for f in files:
        dt = os.path.basename(os.path.dirname(f))[3:]
        col = pq.read_table(f, columns=["dt"])["dt"].to_pylist()
        assert all(v == dt for v in col)


def test_lookup_online_roundtrip(ray_session, bronze_dir, tmp_path):
    """S9 keyed lookup: returns exactly the online rows of the requested
    conv_ids, touching only their hash partitions."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        lookup_online,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=8)
    online = read_online(out).to_pandas()
    want = sorted(online["conv_id"].unique()[:7])
    got = lookup_online(out, want).to_pandas().sort_values("conv_id", ignore_index=True)
    exp = online[online["conv_id"].isin(want)].sort_values(
        "conv_id", ignore_index=True
    )
    pd.testing.assert_frame_equal(got, exp)
    # missing ids return empty, not error
    assert len(lookup_online(out, ["no-such-conv"])) == 0


def test_bootstrap_lake(ray_session, tmp_path):
    """C7 bootstrap: schemas registered, empty typed online table, lookup
    works before any data lands, idempotent."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        bootstrap_lake,
        lookup_online,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray import schema as S

    out = str(tmp_path / "lake")
    r1 = bootstrap_lake(out)
    assert r1["status"] == "Created"
    reg = json.load(open(os.path.join(out, "_schemas.json")))
    assert set(reg) == {"bronze", "silver", "gold"}
    assert [c["name"] for c in reg["gold"]] == [f.name for f in S.GOLD]
    t = lookup_online(out, ["anything"])
    assert t.num_rows == 0 and t.schema.names == [f.name for f in S.GOLD]
    r2 = bootstrap_lake(out)  # idempotent
    assert r2["status"] == "Created"


def test_reject_accounting(ray_session, tmp_path):
    """S8: validity rejects are counted into manifests and the run
    summary; silver output excludes exactly those rows."""
    d = str(tmp_path / "bronze")
    tbl = generate_transcripts(
        n_convs=40, avg_turns=20, seed=5, null_frac=0.05, empty_text_frac=0.05
    )
    write_bronze(tbl, d, rows_per_file=500)
    n_bad = sum(
        1 for r in tbl.to_pylist()
        if r["conv_id"] is None or r["turn_idx"] is None or not r["text"]
    )
    out = str(tmp_path / "lake")
    res = run_stream(d, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    assert res["silver"]["rows_rejected"] == n_bad
    assert res["silver"]["rows_out"] <= tbl.num_rows - n_bad


def test_expire_gold_partitions(ray_session, bronze_dir, tmp_path):
    """C8 retention: fragments older than the cutoff are deleted with an
    audit manifest; the remaining lake serves daily builds; idempotent."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        expire_gold_partitions,
        gold_dt_fragments,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
        manifest as M,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    gold_dir = os.path.join(out, "gold")
    _, all_dts = gold_dt_fragments(gold_dir)
    assert len(all_dts) > 2
    cutoff = all_dts[1]  # expire only the oldest day
    gold_before = gold_to_pandas(out)

    res = expire_gold_partitions(out, keep_from_dt=cutoff)
    assert res["fragments_removed"] > 0
    assert res["rows_removed"] == int((gold_before["dt"] < cutoff).sum())
    _, left_dts = gold_dt_fragments(gold_dir)
    assert left_dts == [d for d in all_dts if d >= cutoff]
    # audit manifest exists and itemizes the removals
    ms = [m for m in M.load_manifests(out, "expire")]
    assert ms and ms[0].extra["keep_from_dt"] == cutoff
    assert len(ms[0].extra["removed"]) == res["fragments_removed"]
    # idempotent
    res2 = expire_gold_partitions(out, keep_from_dt=cutoff)
    assert res2["fragments_removed"] == 0
    # surviving lake still serves dataset builds
    meta = run_daily(out, created_at=PROCESSED_AT, dt_start=cutoff, dt_end=left_dts[-1])
    gold_after = gold_to_pandas(out)
    assert (gold_after["dt"] >= cutoff).all()
    c = meta["counts"]
    assert c["train"] + c["validation"] == len(gold_after)


def test_reconcile_lake(ray_session, bronze_dir, tmp_path):
    """Lineage reconciliation: clean lake passes; a deleted file, a row
    mismatch, and an orphan are each flagged; C8-expired fragments are
    expected absences, not errors."""
    import pyarrow.parquet as pq

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        expire_gold_partitions,
        gold_dt_fragments,
        reconcile_lake,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    rep = reconcile_lake(out)
    assert rep["ok"], rep
    assert rep["manifests_checked"] > 0

    # C8 expiry is an expected absence
    _, dts = gold_dt_fragments(os.path.join(out, "gold"))
    expire_gold_partitions(out, keep_from_dt=dts[1])
    rep = reconcile_lake(out)
    assert rep["ok"], rep

    # orphan parquet file (killed-run debris) is flagged
    orphan = os.path.join(out, "gold", "part=00000", "dt=1999-01-01", "data.parquet")
    os.makedirs(os.path.dirname(orphan), exist_ok=True)
    files, _ = gold_dt_fragments(os.path.join(out, "gold"))
    shutil.copyfile(files[0], orphan)
    rep = reconcile_lake(out)
    assert not rep["ok"] and rep["orphan_files"] == [orphan]
    os.remove(orphan)
    shutil.rmtree(os.path.dirname(orphan))

    # a truncated partition file is a row mismatch
    victim = files[0]
    tbl = pq.read_table(victim)
    pq.write_table(tbl.slice(0, tbl.num_rows - 1), victim)
    rep = reconcile_lake(out)
    assert any(
        m["disk_rows"] == m["manifest_rows"] - 1 for m in rep["row_mismatches"]
    )

    # a missing manifested file is flagged
    os.remove(victim)
    rep = reconcile_lake(out)
    assert any(m["file"] == victim for m in rep["missing_files"])


def test_reconcile_lake_multi_run(ray_session, bronze_dir, tmp_path):
    """A healthy two-run lake must reconcile clean: silver appends from
    both runs are claimed, each partition's gold is checked against its
    latest state record, and the run_id filter narrows checks without
    flagging the other run's files."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        reconcile_lake,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    run_stream(bronze_dir, out, run_id="r2", processed_at=PROCESSED_AT, num_parts=4)
    rep = reconcile_lake(out)
    assert rep["ok"], rep
    rep2 = reconcile_lake(out, run_id="r2")
    assert rep2["ok"], rep2
    rep1 = reconcile_lake(out, run_id="r1")
    assert rep1["ok"], rep1


def test_run_keeps_one_record_per_partition(ray_session, bronze_dir, tmp_path,
                                            monkeypatch):
    """A stream run writes and opens no manifest: each
    partition's record lives in its ``state.arrow`` metadata and comes
    back as the step's metrics row, and ``run-{id}.json`` lists one entry
    per partition."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (
        incremental as I,
        medallion,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state import (
        manifest as M,
    )

    def spy(name):
        def opened(*a, **k):
            raise AssertionError(f"run_stream called M.{name}")
        return opened

    # the one-task plan in this process, so the spies see the steps too
    monkeypatch.setattr(medallion, "run_one_task", lambda fn, *a: fn(*a))
    monkeypatch.setattr(M, "load_manifests", spy("load_manifests"))
    monkeypatch.setattr(M, "write_manifest", spy("write_manifest"))
    out = str(tmp_path / "lake")
    res = run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    monkeypatch.undo()

    for layer in ("silver", "gold"):
        assert not os.path.exists(os.path.join(out, layer, "_manifests"))
    with open(os.path.join(out, "run-r1.json")) as f:
        assert json.load(f) == res
    parts = res["partition_records"]
    assert [p["part"] for p in parts] == [0, 1, 2, 3] and res["partitions"] == 4
    for p in parts:
        _, state = I._read_state(os.path.join(out, "state", f"part={p['part']:05d}"))
        assert state["run_id"] == "r1"
        assert state["record"] == {k: v for k, v in p.items() if k in state["record"]}
        assert set(state["record"]) == set(I._COUNTS) | set(I._TS_RANGE) | {"gold_mode"}
        assert p["gold_rows_out"] == sum(state["gold"].values())
        assert p["silver_wall_s"] > 0 and p["gold_wall_s"] > 0
    assert sum(p["gold_rows_out"] for p in parts) == res["gold"]["rows_out"] > 0
    assert sum(p["silver_rows_out"] for p in parts) == res["silver"]["rows_out"]
    assert sum(p["rows_rejected"] for p in parts) == res["silver"]["rows_rejected"] > 0
    assert sum(p["put_success"] for p in parts) == res["online"]["success"] > 0
    assert {p["gold_mode"] for p in parts} == {"full"}


def test_reconcile_lake_partial_rerun(ray_session, bronze_dir, tmp_path):
    """Run r2 touches only some of r1's partitions: ``run_id="r1"``
    checks the gold of the partitions r2 left alone, against each one's
    ``state.arrow`` record, and a truncated ``dt=`` file there is a row
    mismatch."""
    import pyarrow.parquet as pq

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        reconcile_lake,
    )

    out = str(tmp_path / "lake")
    run_stream(bronze_dir, out, run_id="r1", processed_at=PROCESSED_AT, num_parts=4)
    tbl = pa.concat_tables([pq.read_table(f) for f in
                            sorted(glob.glob(os.path.join(bronze_dir, "*.parquet")))])
    one = tbl.filter(pa.compute.equal(tbl["conv_id"], tbl["conv_id"][0]))
    b2 = tmp_path / "bronze2"
    b2.mkdir()
    pq.write_table(one, b2 / "part-0.parquet")
    res2 = run_stream(str(b2), out, run_id="r2", processed_at=PROCESSED_AT, num_parts=4)
    (touched,) = [p["part"] for p in res2["partition_records"]]
    left = [k for k in range(4) if k != touched]

    rep1 = reconcile_lake(out, run_id="r1")
    assert rep1["ok"], rep1
    # r1's four silver manifests + the gold records r2 did not replace
    assert rep1["manifests_checked"] == 4 + len(left)
    rep2 = reconcile_lake(out, run_id="r2")
    assert rep2["ok"] and rep2["manifests_checked"] == 2, rep2

    def truncate(part):
        victim = sorted(glob.glob(os.path.join(
            out, "gold", f"part={part:05d}", "dt=*", "data.parquet")))[0]
        t = pq.read_table(victim)
        pq.write_table(t.slice(0, t.num_rows - 1), victim)

    truncate(touched)  # r2's gold: not r1's to check
    assert reconcile_lake(out, run_id="r1")["ok"]
    assert not reconcile_lake(out, run_id="r2")["ok"]
    truncate(left[0])
    rep1 = reconcile_lake(out, run_id="r1")
    bad = [m for m in rep1["row_mismatches"] if m["stage"] == "gold"]
    assert [m["partition"] for m in bad] == [f"{left[0]:05d}"]
    assert bad[0]["disk_rows"] == bad[0]["manifest_rows"] - 1
