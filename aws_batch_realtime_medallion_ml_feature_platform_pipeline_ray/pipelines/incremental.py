"""The stream job's per-partition step: O(new turns) of feature compute.

``run_stream`` (pipelines/medallion.py) hash-partitions each run's bronze
slice by conversation and hands every partition to
:func:`process_partition_incremental` — the north star's "sessionization
carrying session state across batch boundaries": per-partition state
carried across RUNS, new turns processed against a bounded window of
carried rows instead of the partition's whole history.

Per hash partition the state is one LZ4-compressed Arrow IPC file,
``state/part=*/state.arrow``, in the gold layout plus ``n_chars`` and
``max_turn``:
- its rows are each conversation's trailing ``Δmax`` (= longest window,
  7 d) of silver rows: exactly the context any future row's trailing
  window can reach. O(active window per conv), never O(history). Every
  row holds the window columns (keys, ``role``, ``tool``, ``ts``) and
  ``n_chars`` (int32): the kernel reads a context row's text only
  through its length, and ``_classify`` and the ``lead1_ts`` patch read
  keys and ``ts`` alone;
- each conversation's latest row (max ``ts``, then max ``turn_idx`` —
  the row ``latest_per_conv`` picks from its gold) also holds the rest
  of its gold row: ``text``, ``dt``, ``event_time``, the features,
  ``lag1_ts``, ``lead1_ts``, ``gap_s``, ``session_id`` and
  ``session_turn_idx``, plus the highest ``turn_idx`` emitted
  (``max_turn``); the other rows hold nulls there. That row is the
  conversation's online row (S7): ``medallion.read_online`` and
  ``lookup_online`` read it from here. The window always holds it, so
  its ``ts`` is the conversation's ``last_ts``, its key is the gold row
  whose ``lead1_ts`` the conversation's next turns repair in place, and
  one past its ``session_id``/``session_turn_idx`` are the session
  seeds (``b_prior``/``trail_in``) an extension starts from;
- the schema metadata is the record of the run that wrote the file: its
  ``run_id``, the row count of each of the partition's gold ``dt=``
  files (``gold``), and its counts (``record``): silver rows in, out and
  rejected, the silver slice's ``min_ts``/``max_ts``/``max_ingest_ts``,
  new rows, the gold mode, late conversations, gold rows in, ``lead1_ts``
  patches, and online puts accepted and rejected. Wall times stay out,
  so the file is byte-identical across plans and across a crash and
  rerun.

The file is written under a temp name and renamed into place
(``fsio.write_ipc_atomic``), so it needs no pointer and leaves no old
generations behind.

A run classifies the partition's new rows against the state:
- a (conv, turn_idx) key already in the state window with the SAME ts
  is an exact re-delivery → no gold work (at-least-once input);
- a key re-delivered with a DIFFERENT ts is a conflicting version → its
  conversation goes to the exact full recompute (the dedup contract
  "first (ts, ingest_ts) per key" may flip the winner);
- a fresh turn at or before the conversation's ``last_ts`` (ties
  included: an equal-ts peer belongs inside already-emitted rows'
  trailing RANGE windows) marks the conversation late → full recompute;
- so does a fresh turn whose ``turn_idx`` is at or below ``max_turn``:
  it may redeliver a key that has left the carried window, and only the
  full recompute can apply the dedup contract to it;
- every other conversation is extended from its carried window.

The full recompute is dedup + the gold kernel over the conversation's
silver history — the per-entity blast radius of B12. A partition with no
``state.arrow`` (a new lake, or one written in an older state layout)
takes it for every conversation, and so does one whose ``state.arrow``
was written before the state held the online rows (it has no ``text``).
Both kinds go through ONE kernel call per partition-run
(``medallion._gold_partition_bounded``): an extended conversation's
window rows are context rows there, its latest row seeds its session
numbering, and every touched conversation's next latest row is its
latest gold row.

Commit order; every step is idempotent, so rerunning a crashed
``run_id`` converges to the uninterrupted result:
1. silver run file (``manifest.silver_file``), in the silver log once
   ``run_stream`` commits the run's record after every partition;
2. ``dt=`` merges (``medallion.write_gold_partition``);
3. ``state.arrow`` rename (``_commit_state``), last: the window, the
   online rows and the record at once. A partition whose state names
   the run is done, and a rerun skips it and returns the stored record.

Between 2 and 3, ``feature_put.put_partition`` validates the touched
conversations' latest rows and quarantines the rejected ones under
``online/_errors/``; the readers apply the same validation.

Equivalence with one full-history run is tested by splitting bronze into
several ingest windows (tests/test_incremental.py), late arrivals and
conflicting redeliveries included.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..stages.featurize import N_CHARS_COL, GoldConfig, dedup_first, gold_schema
from ..stages.keyed import PART_COL
from ..state import feature_put as FP
from ..state import fsio as F
from ..state import manifest as M
from .medallion import (
    KEY,
    VALID_COL,
    _gold_partition_bounded,
    _retention_cutoff,
    _row_keys,
    latest_per_conv,
    run_stream,
    write_gold_partition,
)

_STATE_FILE = "state.arrow"
_WINDOW_SCHEMA = pa.schema(
    [S.SILVER.field(c) for c in ("conv_id", "turn_idx", "role")]
    + [pa.field(N_CHARS_COL, pa.int32())]
    + [S.SILVER.field(c) for c in ("tool", "ts")]
)
_WINDOW_COLS = _WINDOW_SCHEMA.names
# a partition-run's record: stored in state.arrow, returned as its metrics
# row (with the partition, its gold rows out and its wall times)
_COUNTS = ("silver_rows_in", "silver_rows_out", "rows_rejected", "new_rows",
           "late_convs", "gold_rows_in", "lead_patches", "put_success", "put_errors")
_TS_RANGE = ("min_ts", "max_ts", "max_ingest_ts")  # of the silver slice, ISO
_METRICS_SCHEMA = pa.schema(
    [pa.field("part", pa.int32()), pa.field("gold_mode", pa.string())]
    + [pa.field(c, pa.int64()) for c in _COUNTS + ("gold_rows_out",)]
    + [pa.field(c, pa.string()) for c in _TS_RANGE]
    + [pa.field(c, pa.float64()) for c in ("silver_wall_s", "gold_wall_s")]
)


@functools.cache
def _state_columns(role_counts: tuple[str, ...]) -> pa.Schema:
    """``state.arrow``'s columns: the gold layout, then ``n_chars`` and
    ``max_turn``. The window columns are set on every row; the other
    gold columns and ``max_turn`` only on each conversation's latest
    row."""
    return pa.schema(
        list(gold_schema(role_counts))
        + [pa.field(N_CHARS_COL, pa.int32()), pa.field("max_turn", pa.int64())]
    )


def _state_table(state_dir: str) -> pa.Table | None:
    """The partition's ``state.arrow``, schema metadata included; ``None``
    when there is none, or only one written before the state held each
    conversation's online row (it has no ``text``)."""
    path = F.join(state_dir, _STATE_FILE)
    if not F.exists(path):
        return None
    tbl = F.read_ipc(path)
    return tbl if tbl.schema.get_field_index("text") >= 0 else None


def _read_state(state_dir: str) -> tuple[pa.Table | None, dict]:
    """The partition's carried window rows and the record of the run that
    wrote them (``run_id``, ``gold``, ``record``); ``None`` and ``{}``
    when :func:`_state_table` finds no state."""
    tbl = _state_table(state_dir)
    if tbl is None:
        return None, {}
    meta = tbl.schema.metadata
    return tbl.replace_schema_metadata(None), {
        "run_id": meta[b"run_id"].decode(), "gold": json.loads(meta[b"gold"]),
        "record": json.loads(meta[b"record"]),
    }


def _state_schema(run_id: str, gold_rows: dict, record: dict,
                  role_counts: tuple[str, ...] = GoldConfig.role_counts) -> pa.Schema:
    """``state.arrow``'s schema, the run's record as its metadata."""
    return _state_columns(role_counts).with_metadata({
        "run_id": run_id,
        "gold": json.dumps(gold_rows, sort_keys=True),
        "record": json.dumps(record, sort_keys=True),
    })


def _commit_state(state_dir: str, tbl: pa.Table) -> None:
    """Commit point 3: write ``state.arrow`` under a temp name and rename
    it into place."""
    F.write_ipc_atomic(tbl, F.join(state_dir, _STATE_FILE))


def _latest_rows(window: pa.Table) -> pa.Table:
    """Each conversation's latest window row, in the gold layout plus
    ``max_turn``."""
    return window.filter(pc.is_valid(window["max_turn"])).drop_columns([N_CHARS_COL])


def _online_table(state_dirs: list[str], conv_ids: pa.Array | None = None) -> pa.Table:
    """The online table (S7) that the partitions ``state_dirs`` hold: each
    conversation's latest state row in the gold layout, narrowed to
    ``conv_ids`` when given, that passes the put validation
    (``feature_put.validate_online``); a typed empty ``GOLD`` table when
    :func:`_state_table` finds no state in any of them. The states are
    concatenated first, so each compute call runs once, not once per
    partition."""
    tables = [t for t in map(_state_table, state_dirs) if t is not None]
    if not tables:  # pre-bootstrap / wiped lake
        return S.GOLD.empty_table()
    tbl = pa.concat_tables(tables).replace_schema_metadata(None)
    keep = pc.is_valid(tbl["max_turn"])
    if conv_ids is not None:
        keep = pc.and_(keep, pc.is_in(tbl["conv_id"], value_set=conv_ids))
    return FP.validate_online(tbl.drop_columns([N_CHARS_COL, "max_turn"]).filter(keep))[0]


def process_partition_incremental(
    group: pa.Table,
    *,
    silver_root: str,
    gold_root: str,
    online_root: str,
    state_root: str,
    cfg: GoldConfig,
    run_id: str,
) -> pa.Table:
    """One partition, one run: the three commits of the module docstring.
    Returns the run's record as a metrics row, with the silver and gold
    wall times; a partition whose state already names the run returns
    the stored record, with null walls."""

    t0 = time.perf_counter()
    part = int(group[PART_COL][0].as_py())
    key = f"{part:05d}"
    state_dir = F.join(state_root, f"part={key}")
    window, state = _read_state(state_dir)
    if state.get("run_id") == run_id:  # committed before a crash: skip
        return _metrics(part, state["record"], state["gold"], None, None)
    if window is None:
        window = _state_columns(cfg.role_counts).empty_table()

    # S8 error accounting: count tagged validity rejects, then drop
    g = group.drop_columns([PART_COL])
    valid = np.asarray(g[VALID_COL].combine_chunks())
    rows_rejected = int((valid == 0).sum())
    g = g.filter(pa.array(valid == 1)).drop_columns([VALID_COL])
    g = dedup_first(g, KEY, ["ts", "ingest_ts"])
    ts_arr = g["ts"].combine_chunks()
    g = g.append_column("dt", pc.strftime(ts_arr, format="%Y-%m-%d"))

    # ---- 1. silver: append the run's deduped slice ----
    M.atomic_write_table(g.select([f.name for f in S.SILVER] + ["ingest_ts"]),
                         M.silver_file(silver_root, part, run_id))
    silver_wall = time.perf_counter() - t0

    # ---- gold rows: one kernel call extends the conversations past their
    # carried last_ts and recomputes the late ones ----
    t1 = time.perf_counter()
    carried = _latest_rows(window)
    if state:
        fresh, late_convs = _classify(g, window, carried)
        extend = fresh.filter(
            pc.invert(pc.is_in(fresh["conv_id"], value_set=_str_array(late_convs)))
        )
    else:  # no carried state: every conversation is recomputed
        fresh, late_convs, extend = g, set(), g.slice(0, 0)

    hist, clear_dts = None, set()
    if late_convs or not state:
        hist = _silver_history(silver_root, key, late_convs if state else None)
        # a conflicting version can move a turn to another date: clear the
        # conversation from every date any of its versions names
        clear_dts = set(pc.unique(hist["dt"]).to_pylist())
        hist = dedup_first(hist, KEY, ["ts", "ingest_ts"])
    gold_out = last_out = None
    latest = carried
    if extend.num_rows or hist is not None:
        gold_out = _gold_partition_bounded(window, extend, hist, cfg)
        last_out = latest_per_conv(gold_out)
        latest = _next_latest(carried, last_out, gold_out)
    patches = _lead_patches(carried, extend) if extend.num_rows else None
    recomputed = pc.unique(hist["conv_id"]) if hist is not None else _str_array(())

    # ---- 2. dt= merges ----
    part_dir = F.join(gold_root, f"part={key}")
    gold_rows = dict(state.get("gold", {}))
    gold_rows.update(
        write_gold_partition(
            gold_out, part_dir, clear_convs=recomputed.to_pylist(),
            clear_dts=clear_dts, lead_patch=patches,
        )
    )
    cutoff = _retention_cutoff(gold_root)
    gold_rows = {
        dt: n for dt, n in sorted(gold_rows.items())
        if n and (cutoff is None or dt >= cutoff)
    }

    # ---- online puts: validate each touched conversation's latest row
    # and quarantine the rejected ones (S8); the rows go online with the
    # state ----
    put = {"success": 0, "errors": 0}
    if gold_out is not None and gold_out.num_rows:
        put = FP.put_partition(last_out, online_root, key, run_id=run_id)

    # ---- 3. state: the trailing window with each conversation's online
    # row on its latest row and the run's record, committed by one
    # rename ----
    record = {
        "silver_rows_in": group.num_rows,
        "silver_rows_out": g.num_rows,
        "rows_rejected": rows_rejected,
        **_ts_range(g),
        "new_rows": fresh.num_rows,
        "gold_mode": "carried" if state else "full",
        "late_convs": len(late_convs),
        "gold_rows_in": extend.num_rows + (hist.num_rows if hist is not None else 0),
        "lead_patches": patches.num_rows if patches is not None else 0,
        "put_success": put["success"],
        "put_errors": put["errors"],
    }
    _commit_state(
        state_dir,
        _next_state(
            window, extend, hist, recomputed, latest,
            _state_schema(run_id, gold_rows, record, cfg.role_counts),
        ),
    )
    return _metrics(part, record, gold_rows, silver_wall, time.perf_counter() - t1)


def _metrics(part: int, record: dict, gold_rows: dict, silver_wall, gold_wall) -> pa.Table:
    row = dict(record, part=part, gold_rows_out=sum(gold_rows.values()),
               silver_wall_s=silver_wall, gold_wall_s=gold_wall)
    return pa.Table.from_pylist([row], schema=_METRICS_SCHEMA)


def _ts_range(g: pa.Table) -> dict:
    """The silver slice's ``min_ts``/``max_ts`` and ``max_ingest_ts`` as
    ISO strings, null when the slice is empty."""
    ts = pc.min_max(g["ts"])
    vals = (ts["min"].as_py(), ts["max"].as_py(), pc.max(g["ingest_ts"]).as_py())
    return {k: v and v.isoformat() for k, v in zip(_TS_RANGE, vals)}


def _str_array(values) -> pa.Array:
    return pa.array(sorted(values), pa.string())


def _classify(new: pa.Table, window, latest: pa.Table) -> tuple[pa.Table, set]:
    """Split a run's deduped rows against the carried state (``window``
    and each conversation's ``latest`` row) into (fresh rows — keys the
    window does not hold, conversations to recompute)."""
    late: set[str] = set()
    fresh = new
    if window.num_rows and new.num_rows:
        idx = pc.index_in(_row_keys(new), value_set=_row_keys(window))
        # key re-delivered with a DIFFERENT ts: the dedup winner may flip
        diverged = pc.fill_null(
            pc.not_equal(
                pc.take(window["ts"].combine_chunks(), idx),
                new["ts"].combine_chunks(),
            ),
            False,
        )
        late.update(pc.unique(new["conv_id"].combine_chunks().filter(diverged)).to_pylist())
        fresh = new.filter(pc.is_null(idx))
    if fresh.num_rows and latest.num_rows:
        conv = fresh["conv_id"].combine_chunks()
        pos = pc.index_in(conv, value_set=latest["conv_id"].combine_chunks())
        last_ts = pc.take(latest["ts"].combine_chunks().cast(pa.int64()), pos)
        max_turn = pc.take(latest["max_turn"].combine_chunks(), pos)
        # <= : an equal-ts peer sits inside already-emitted rows' trailing
        # RANGE windows (duplicate-ts peers included), so a tie must
        # re-derive those rows too
        behind = pc.fill_null(
            pc.or_(
                pc.less_equal(fresh["ts"].combine_chunks().cast(pa.int64()), last_ts),
                pc.less_equal(fresh["turn_idx"].combine_chunks().cast(pa.int64()), max_turn),
            ),
            False,
        )
        late.update(pc.unique(conv.filter(behind)).to_pylist())
    return fresh, late


def _silver_history(silver_root: str, key: str, convs) -> pa.Table:
    """The partition's silver rows, every version, optionally narrowed to
    ``convs``."""
    files = sorted(F.glob(F.join(silver_root, f"part={key}", "run-*.parquet")))
    hist = pa.concat_tables([F.read_table(f) for f in files], promote_options="default")
    if convs is None:
        return hist
    return hist.filter(pc.is_in(hist["conv_id"], value_set=_str_array(convs)))


def _max_turn(tbl: pa.Table, conv: pa.Array) -> np.ndarray:
    """Highest ``turn_idx`` of each conversation in ``conv`` within ``tbl``
    (numpy: a fraction of a ``group_by``'s fixed cost on small tables)."""
    enc = pc.dictionary_encode(tbl["conv_id"].combine_chunks())
    top = np.full(len(enc.dictionary), np.iinfo(np.int64).min, np.int64)
    turn = np.asarray(tbl["turn_idx"].combine_chunks()).astype(np.int64)
    np.maximum.at(top, np.asarray(enc.indices), turn)
    return top[pc.index_in(conv, value_set=enc.dictionary).to_numpy()]


def _next_latest(carried: pa.Table, last: pa.Table, gold: pa.Table) -> pa.Table:
    """``carried`` (each conversation's latest row with ``max_turn``) with
    each conversation of this run's ``gold`` replaced by its latest gold
    row ``last``. ``max_turn`` needs no maximum with the carried one:
    ``_classify`` sends a fresh turn at or below it to the recompute."""
    if not last.num_rows:
        return carried
    upd = last.append_column(
        "max_turn", pa.array(_max_turn(gold, last["conv_id"].combine_chunks()))
    )
    kept = carried.filter(
        pc.invert(pc.is_in(carried["conv_id"], value_set=upd["conv_id"].combine_chunks()))
    )
    return pa.concat_tables([kept, upd])


def _lead_patches(latest: pa.Table, extend: pa.Table) -> pa.Table:
    """``(conv_id, turn_idx, dt, lead1_ts)`` for each extended
    conversation's previous last gold row — its latest window row: its
    ``lead1_ts`` becomes the conversation's first new ts."""
    first = extend.group_by("conv_id").aggregate([("ts", "min")])
    first = pa.table(
        {"conv_id": first["conv_id"], "lead1_ts": first["ts_min"].cast(pa.timestamp("us"))}
    )
    t = latest.select(KEY + ["ts"]).join(first, keys="conv_id", join_type="inner")
    dt = pc.strftime(t["ts"].combine_chunks(), format="%Y-%m-%d")
    return t.append_column("dt", dt).select(KEY + ["dt", "lead1_ts"])


def _window_rows(t: pa.Table) -> pa.Table:
    """Silver rows in the state's window layout: ``n_chars`` for ``text``."""
    n_chars = pc.utf8_length(t["text"]).cast(pa.int32())
    cols = {c: n_chars if c == N_CHARS_COL else t[c] for c in _WINDOW_COLS}
    return pa.table(cols).cast(_WINDOW_SCHEMA)  # an all-null tool comes as null type


def _next_state(window, extend, hist, recomputed, latest, schema) -> pa.Table:
    """The partition's next ``state.arrow`` table: the rolled trailing
    window, each conversation's ``latest`` row (its online row and
    ``max_turn``) on its latest window row, under ``schema`` (which
    carries the run's record)."""
    # recomputed convs' window must reflect the DEDUPED truth (a
    # conflicting re-delivery may have changed the winning version)
    parts = [
        window.select(_WINDOW_COLS).filter(
            pc.invert(pc.is_in(window["conv_id"], value_set=recomputed))
        )
    ]
    parts += [_window_rows(t) for t in (extend, hist) if t is not None and t.num_rows]
    rows = pa.concat_tables(parts)
    if not rows.num_rows:
        return schema.empty_table()

    # trailing window per conv: keep rows with ts >= conv_last - Δmax
    codes = np.asarray(
        pc.dictionary_encode(rows["conv_id"].combine_chunks()).indices
    ).astype(np.int64)
    ts = np.asarray(rows["ts"].combine_chunks().cast(pa.int64()))
    last = np.full(codes.max() + 1, np.iinfo(np.int64).min, np.int64)
    np.maximum.at(last, codes, ts)
    keep = ts >= last[codes] - S.MAX_WINDOW_US
    rows = rows.filter(pa.array(keep)).combine_chunks()
    codes, ts = codes[keep], ts[keep]

    # each conv's latest row: max ts, then max turn_idx (latest_per_conv)
    turn = np.asarray(rows["turn_idx"].combine_chunks()).astype(np.int64)
    at_last = ts == last[codes]
    top = np.full(len(last), np.iinfo(np.int64).min, np.int64)
    np.maximum.at(top, codes[at_last], turn[at_last])
    is_latest = at_last & (turn == top[codes])
    pos = np.zeros(rows.num_rows, np.int64)
    # to_numpy raises on a null: every conversation has a latest row
    pos[is_latest] = pc.index_in(
        rows["conv_id"].combine_chunks().filter(pa.array(is_latest)),
        value_set=latest["conv_id"].combine_chunks(),
    ).to_numpy()
    online = latest.take(pa.array(pos, mask=~is_latest))  # null index: null row
    cols = [rows[f.name] if f.name in _WINDOW_COLS else online[f.name] for f in schema]
    return pa.Table.from_arrays(cols, schema=schema)


def run_stream_incremental(
    bronze_path: str,
    out_root: str,
    *,
    run_id: str,
    run_seq: int,
    processed_at: str,
    ingest_window: tuple | None = None,
    num_parts: int = 16,
    gold_cfg: GoldConfig | None = None,
) -> dict:
    """Former entry point of the carried-state plan, now
    :func:`medallion.run_stream` itself. ``run_seq`` is accepted for old
    callers and unused: each partition's state names its last run."""
    return run_stream(
        bronze_path, out_root, run_id=run_id, processed_at=processed_at,
        ingest_window=ingest_window, num_parts=num_parts, gold_cfg=gold_cfg,
    )


def read_gold_incremental(out_root: str) -> pa.Table:
    """The lake's gold layer as one table (the ``gold/part=*/dt=*`` files
    every reader uses). An empty lake returns an empty gold-schema
    table."""
    files = sorted(F.glob(F.join(out_root, "gold", "part=*", "dt=*", "data.parquet")))
    if not files:
        return S.GOLD.empty_table()
    return pa.concat_tables([F.read_table(f) for f in files], promote_options="default")
