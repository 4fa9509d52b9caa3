"""Hardening behaviors of the carried-state stream plan: exact
re-deliveries leave gold untouched, conflicting re-deliveries (same
key, different ts) trigger the late full-recompute and converge to the
dedup contract, equal-ts ties route late, the state is one atomically
renamed file whose only text is each conversation's online row (and a
partition that lost it, or holds one in an older layout, takes the full
recompute), and the partition layout is pinned."""

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

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.incremental import (
    read_gold_incremental,
    run_stream_incremental,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    read_online,
    read_silver_snapshot,
    run_stream,
)

PROCESSED_AT = "2024-06-01T00:00:00"


def _bronze(rows, tmp, name):
    d = str(tmp / name)
    os.makedirs(d, exist_ok=True)
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("turn_idx"),
        "turn_idx",
        tbl["turn_idx"].cast(pa.int32()),
    )
    pq.write_table(tbl, os.path.join(d, "p.parquet"))
    return d


def _row(conv, turn, ts_min, text="hello world", ing_extra=0):
    base = pd.Timestamp("2024-03-01")
    return {
        "conv_id": conv,
        "turn_idx": turn,
        "role": "user",
        "text": text,
        "tool": None,
        "ts": base + pd.Timedelta(minutes=ts_min),
        "ingest_ts": base + pd.Timedelta(minutes=ts_min + 1 + ing_extra),
    }


def _merged(out):
    return (
        read_gold_incremental(out)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )


def _full_ref(bronze_dirs, tmp, name):
    """One full-history run over the union of the bronze dirs."""
    import pyarrow as pa

    allt = pa.concat_tables(
        [
            pq.read_table(f)
            for d in bronze_dirs
            for f in glob.glob(os.path.join(d, "*.parquet"))
        ]
    )
    d = str(tmp / f"union_{name}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(allt, os.path.join(d, "p.parquet"))
    out = str(tmp / f"fulllake_{name}")
    run_stream(d, out, run_id="full", processed_at=PROCESSED_AT, num_parts=2)
    files = sorted(
        glob.glob(os.path.join(out, "gold", "part=*", "dt=*", "data.parquet"))
    )
    return (
        pa.concat_tables([pq.read_table(f) for f in files])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )


def _compare(a, b):
    assert len(a) == len(b)
    assert sorted(a.columns) == sorted(b.columns)
    for c in sorted(a.columns):
        x, y = a[c], b[c]
        if np.issubdtype(x.dtype, np.floating):
            assert np.array_equal(
                x.to_numpy(float), y.to_numpy(float), equal_nan=True
            ), c
        else:
            assert (x.astype(str) == y.astype(str)).all(), c


def test_exact_redelivery_is_idempotent(ray_session, tmp_path):
    rows = [_row("c1", i, 10 * i) for i in range(4)]
    b0 = _bronze(rows, tmp_path, "b0")
    b1 = _bronze(rows, tmp_path, "b1")  # the same batch, re-delivered
    out = str(tmp_path / "lake")
    run_stream_incremental(b0, out, run_id="r0", run_seq=0,
                           processed_at=PROCESSED_AT, num_parts=2)
    g1 = _merged(out)
    res = run_stream_incremental(b1, out, run_id="r1", run_seq=1,
                                 processed_at=PROCESSED_AT, num_parts=2)
    assert res["new_rows"] == 0 and res["late_convs"] == 0
    # silver appends every run's slice; the deduped silver read (the
    # contract every consumer applies) holds each turn exactly once
    assert read_silver_snapshot(out, time.time()).count() == 4
    _compare(_merged(out), g1)


def test_conflicting_redelivery_triggers_late_and_dedup_contract(
    ray_session, tmp_path
):
    rows0 = [_row("c1", i, 10 * i) for i in range(4)]
    # turn 2 re-delivered with an EARLIER ts (and different text): the
    # dedup contract (first ts wins) must flip the winner
    conflict = [_row("c1", 2, 15, text="earlier version", ing_extra=500)]
    b0 = _bronze(rows0, tmp_path, "b0")
    b1 = _bronze(conflict, tmp_path, "b1")
    out = str(tmp_path / "lake")
    run_stream_incremental(b0, out, run_id="r0", run_seq=0,
                           processed_at=PROCESSED_AT, num_parts=2)
    res = run_stream_incremental(b1, out, run_id="r1", run_seq=1,
                                 processed_at=PROCESSED_AT, num_parts=2)
    assert res["late_convs"] == 1
    got = _merged(out)
    exp = _full_ref([b0, b1], tmp_path, "conflict")
    _compare(got, exp)
    assert (got[got["turn_idx"] == 2]["text"] == "earlier version").all()


def test_equal_ts_tie_routes_late_and_matches_full(ray_session, tmp_path):
    rows0 = [_row("c1", i, 10 * i) for i in range(3)]
    # new turn with ts EXACTLY equal to the conv's last_ts: the stored
    # final row's RANGE windows must now include this peer
    tie = [_row("c1", 3, 20, text="tie peer", ing_extra=500)]
    b0 = _bronze(rows0, tmp_path, "b0")
    b1 = _bronze(tie, tmp_path, "b1")
    out = str(tmp_path / "lake")
    run_stream_incremental(b0, out, run_id="r0", run_seq=0,
                           processed_at=PROCESSED_AT, num_parts=2)
    res = run_stream_incremental(b1, out, run_id="r1", run_seq=1,
                                 processed_at=PROCESSED_AT, num_parts=2)
    assert res["late_convs"] == 1
    _compare(_merged(out), _full_ref([b0, b1], tmp_path, "tie"))


def test_redelivery_beyond_window_with_later_ts_routes_late(ray_session, tmp_path):
    # turns 0-3 leave the 7-day carried window when turns 4-5 land 8 days
    # later; turn 1 then comes back with a ts AFTER the conversation's
    # last_ts. Dedup keeps the original (earlier ts) version, which only
    # the full recompute can see — the redelivery must not become a new row
    rows0 = [_row("c1", i, 10 * i) for i in range(4)]
    rows1 = [_row("c1", i, 11_520 + 10 * i) for i in range(4, 6)]
    again = [_row("c1", 1, 11_600, text="stale copy", ing_extra=500)]
    dirs = [_bronze(r, tmp_path, f"b{i}") for i, r in enumerate([rows0, rows1, again])]
    out = str(tmp_path / "lake")
    for i, d in enumerate(dirs):
        res = run_stream_incremental(d, out, run_id=f"r{i}", run_seq=i,
                                     processed_at=PROCESSED_AT, num_parts=2)
    assert res["late_convs"] == 1
    got = _merged(out)
    _compare(got, _full_ref(dirs, tmp_path, "beyond"))
    assert (got["text"] != "stale copy").all()


def test_state_pointer_atomic_and_textless(ray_session, tmp_path):
    rows = [_row("c1", i, 10 * i) for i in range(4)]
    more = [_row("c1", i, 10 * i) for i in range(4, 6)]
    b0 = _bronze(rows, tmp_path, "b0")
    b1 = _bronze(more, tmp_path, "b1")
    out = str(tmp_path / "lake")
    run_stream_incremental(b0, out, run_id="r0", run_seq=0,
                           processed_at=PROCESSED_AT, num_parts=2)
    run_stream_incremental(b1, out, run_id="r1", run_seq=1,
                           processed_at=PROCESSED_AT, num_parts=2)
    dirs = glob.glob(os.path.join(out, "state", "part=*"))
    assert dirs
    for d in dirs:
        # one committed file: no pointer, temp file or older generation
        assert os.listdir(d) == ["state.arrow"]
        with pa.OSFile(os.path.join(d, "state.arrow")) as f:
            t = pa.ipc.open_file(f).read_all()
        assert t.schema.metadata[b"run_id"] == b"r1"
        assert json.loads(t.schema.metadata[b"gold"])
        # window rows carry their text's length; only each
        # conversation's latest row carries its text, its other gold
        # columns (its online row) and max_turn
        assert t["n_chars"].to_pylist() == [len("hello world")] * t.num_rows
        latest = t.filter(pc.is_valid(t["text"]))
        assert latest["conv_id"].to_pylist() == ["c1"]
        assert latest["turn_idx"].to_pylist() == [5]
        assert latest["text"].to_pylist() == ["hello world"]
        assert latest["max_turn"].to_pylist() == [5]
        assert latest["session_id"].is_valid().to_pylist() == [True]
        assert t.filter(pc.is_valid(t["max_turn"])).num_rows == 1
        assert t.filter(pc.is_valid(t["session_id"])).num_rows == 1


def test_deleted_state_takes_full_recompute(ray_session, tmp_path):
    """A partition without ``state.arrow`` (deleted, or a lake written in
    an older state layout) recomputes every conversation from silver and
    converges to the lake that kept its state."""
    wins = [
        [_row("c1", i, 10 * i) for i in range(4)] + [_row("c2", 0, 5)],
        [_row("c1", i, 10 * i) for i in range(4, 7)] + [_row("c2", 1, 100)],
        [_row("c1", 7, 200), _row("c2", 2, 150), _row("c3", 0, 160)],
    ]
    dirs = [_bronze(r, tmp_path, f"b{i}") for i, r in enumerate(wins)]
    ref, out = str(tmp_path / "ref"), str(tmp_path / "lake")

    def run(lake, i):
        run_stream(dirs[i], lake, run_id=f"r{i}", processed_at=PROCESSED_AT,
                   num_parts=2)

    for lake in (ref, out):
        run(lake, 0)
        run(lake, 1)
    gone = glob.glob(os.path.join(out, "state", "part=*", "state.arrow"))
    assert gone
    for f in gone:
        os.remove(f)
    run(ref, 2)
    run(out, 2)

    def modes(lake):
        with open(os.path.join(lake, "run-r2.json")) as f:
            return {p["gold_mode"] for p in json.load(f)["partition_records"]}

    assert modes(ref) == {"carried"}
    assert modes(out) == {"full"}
    _compare(_merged(out), _merged(ref))
    _compare(_merged(out), _full_ref(dirs, tmp_path, "deleted"))

    def state(lake):
        got = {}
        for f in glob.glob(os.path.join(lake, "state", "part=*", "state.arrow")):
            with pa.OSFile(f) as fh:
                t = pa.ipc.open_file(fh).read_all()
            got[os.path.relpath(f, lake)] = (
                t.schema.metadata,
                t.to_pandas().sort_values(["conv_id", "turn_idx"], ignore_index=True),
            )
        return got

    # the run records differ (gold mode, rows in, patches, puts); the
    # run id, the dt= row counts and the rows must not
    want, got = state(ref), state(out)
    assert sorted(got) == sorted(want)
    for path, (meta, rows) in want.items():
        for k in (b"run_id", b"gold"):
            assert got[path][0][k] == meta[k]
        pd.testing.assert_frame_equal(got[path][1], rows)


def _pre_online_state(path):
    """Rewrite ``state.arrow`` at ``path`` in the layout written before the
    state held each conversation's online row: the window columns, and
    ``b_prior``/``trail_in``/``max_turn`` on each latest row."""
    with pa.OSFile(path) as f:
        t = pa.ipc.open_file(f).read_all()
    old = t.select(["conv_id", "turn_idx", "role", "n_chars", "tool", "ts"])
    old = old.append_column("b_prior", pc.add(t["session_id"], 1))
    old = old.append_column(
        "trail_in", pc.add(t["session_turn_idx"].cast(pa.int64()), 1))
    old = old.append_column("max_turn", t["max_turn"])
    old = old.replace_schema_metadata(t.schema.metadata)
    with pa.OSFile(path, "wb") as f, pa.ipc.new_file(f, old.schema) as w:
        w.write_table(old)


def test_state_without_online_row_takes_full_recompute(ray_session, tmp_path):
    """A ``state.arrow`` written before it held the online rows reads as
    no state: its partition recomputes every conversation once, and gold
    and the online table equal the lake that kept its state (c4 is
    untouched after the first run, so its online row is a carried one)."""
    wins = [
        [_row("c1", i, 10 * i) for i in range(4)] + [_row("c2", 0, 5)]
        + [_row("c4", i, 20 * i) for i in range(2)],
        [_row("c1", i, 10 * i) for i in range(4, 7)] + [_row("c2", 1, 100)],
        [_row("c1", 7, 200), _row("c2", 2, 150), _row("c3", 0, 160)],
    ]
    dirs = [_bronze(r, tmp_path, f"b{i}") for i, r in enumerate(wins)]
    ref, out = str(tmp_path / "ref"), str(tmp_path / "lake")

    def run(lake, i):
        return run_stream(dirs[i], lake, run_id=f"r{i}", processed_at=PROCESSED_AT,
                          num_parts=2)

    for lake in (ref, out):
        run(lake, 0)
        run(lake, 1)
    states = sorted(glob.glob(os.path.join(out, "state", "part=*", "state.arrow")))
    assert len(states) == 2
    _pre_online_state(states[0])
    stripped = int(os.path.basename(os.path.dirname(states[0]))[5:])
    run(ref, 2)
    res = run(out, 2)

    modes = {p["part"]: p["gold_mode"] for p in res["partition_records"]}
    assert modes == {stripped: "full", 1 - stripped: "carried"}
    _compare(_merged(out), _merged(ref))

    def online(lake):
        return read_online(lake).to_pandas().sort_values("conv_id", ignore_index=True)

    assert online(ref)["conv_id"].tolist() == ["c1", "c2", "c3", "c4"]
    pd.testing.assert_frame_equal(online(out), online(ref))


def test_num_parts_layout_is_pinned(ray_session, tmp_path):
    rows = [_row("c1", i, 10 * i) for i in range(3)]
    b0 = _bronze(rows, tmp_path, "b0")
    out = str(tmp_path / "lake")
    run_stream_incremental(b0, out, run_id="r0", run_seq=0,
                           processed_at=PROCESSED_AT, num_parts=2)
    with pytest.raises(ValueError, match="num_parts"):
        run_stream_incremental(b0, out, run_id="r1", run_seq=1,
                               processed_at=PROCESSED_AT, num_parts=4)
