"""The stream job's per-partition step: O(new turns) of feature compute.

``run_stream`` (pipelines/medallion.py) hash-partitions each run's bronze
slice by conversation and hands every partition to
:func:`process_partition_incremental` — the north star's "sessionization
carrying session state across batch boundaries": per-partition state
carried across RUNS, new turns processed against a bounded window of
carried rows instead of the partition's whole history.

Per hash partition the state holds
- ``rows-*.parquet`` — each conversation's trailing ``Δmax`` (= longest
  window, 7 d) of silver rows: exactly the context any future row's
  trailing window can reach. O(active window per conv), never O(history);
- ``summary-*.parquet`` — per conv: cumulative session-break count
  (``b_prior``), open-session run length (``trail_in``), ``last_ts`` and
  the highest ``turn_idx`` emitted (``max_turn``). This is irreducible
  watermark METADATA (4 ints per conversation — the streaming analog of
  a per-key watermark store);
- ``tails-*.parquet`` — per conv: the (conv_id, turn_idx) KEY of its
  last gold row, whose ``lead1_ts`` the conversation's next turns repair
  in place. No feature payload and no text lives in state.

The files have versioned names and are committed by an atomic
``_current.json`` pointer swap; the pointer also names the run and the
row count of each of the partition's gold ``dt=`` files.

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
- every other conversation is extended from its carried window
  (``medallion._gold_partition_bounded``).

The full recompute is dedup + ``gold_features_partition`` over the
conversation's silver history — the per-entity blast radius of B12. A
partition with no state yet (a new lake, or one written before state
existed) takes it for every conversation.

Commit order; every step is idempotent, so rerunning a crashed
``run_id`` converges to the uninterrupted result:
1. silver run file + silver manifest;
2. ``dt=`` merges (``medallion.write_gold_partition``);
3. online upsert;
4. gold manifest;
5. state pointer swap, last. A partition whose pointer names the run is
   done, and a rerun skips it.

Equivalence with one full-history run is tested by splitting bronze into
several ingest windows (tests/test_incremental.py), late arrivals and
conflicting redeliveries included.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..stages.featurize import GoldConfig, dedup_first, gold_features_partition
from ..stages.keyed import PART_COL
from ..state import feature_put as FP
from ..state import fsio as F
from ..state import manifest as M
from .medallion import (
    KEY,
    RUN_STAGE_GOLD,
    RUN_STAGE_SILVER,
    VALID_COL,
    _gold_partition_bounded,
    _retention_cutoff,
    _row_keys,
    latest_per_conv,
    run_stream,
    write_gold_partition,
)

_POINTER = "_current.json"
_STATE_FILES = ("rows", "summary", "tails")
_SILVER_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _empty_summary() -> pa.Table:
    return pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "b_prior": pa.array([], pa.int64()),
            "trail_in": pa.array([], pa.int64()),
            "last_ts": pa.array([], pa.int64()),
            "max_turn": pa.array([], pa.int64()),
        }
    )


def _read_pointer(state_dir: str) -> dict:
    ptr_path = F.join(state_dir, _POINTER)
    if not F.exists(ptr_path):
        return {}
    with F.open_(ptr_path) as f:
        pointer = json.load(f)
    # a pointer without a run names state from before this layout (its
    # gold lived elsewhere): start over from silver
    return pointer if "run_id" in pointer else {}


def _read_state(state_dir: str, pointer: dict):
    """``(rows_tbl | None, summary_tbl, tails_tbl | None)`` of the
    generation ``pointer`` names."""
    rows, summary, tails = (
        F.read_table(F.join(state_dir, pointer[k])) if pointer.get(k) else None
        for k in _STATE_FILES
    )
    return rows, (summary if summary is not None else _empty_summary()), tails


def _commit_state(state_dir: str, pointer: dict) -> None:
    """Atomically swap the state pointer, then best-effort delete
    unreferenced generations (a crash mid-cleanup is harmless — the
    pointer alone defines the current state)."""
    F.write_text_atomic(
        F.join(state_dir, _POINTER), json.dumps(pointer, sort_keys=True)
    )
    keep = {pointer[k] for k in _STATE_FILES if pointer.get(k)}
    for f in F.glob(F.join(state_dir, "*.parquet")):
        if F.basename(f) not in keep:
            try:
                F.remove(f)
            except OSError:
                pass


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
    """One partition, one run: the five commits of the module docstring.
    Returns a per-partition metrics row."""

    t0 = time.perf_counter()
    part = int(group[PART_COL][0].as_py())
    key = f"{part:05d}"
    state_dir = F.join(state_root, f"part={key}")
    pointer = _read_pointer(state_dir)
    if pointer.get("run_id") == run_id:  # committed before a crash: skip
        return _metrics(part, 0, 0)

    # S8 error accounting: count tagged validity rejects, then drop
    g = group.drop_columns([PART_COL])
    valid = np.asarray(g[VALID_COL].combine_chunks())
    rows_rejected = int((valid == 0).sum())
    g = g.filter(pa.array(valid == 1)).drop_columns([VALID_COL])
    g = dedup_first(g, KEY, ["ts", "ingest_ts"])
    ts_arr = g["ts"].combine_chunks()
    g = g.append_column("dt", pc.strftime(ts_arr, format="%Y-%m-%d"))

    # ---- 1. silver: append the run's deduped slice ----
    silver_file = F.join(silver_root, f"part={key}", f"run-{run_id}.parquet")
    M.atomic_write_table(g.select([f.name for f in S.SILVER] + ["ingest_ts"]), silver_file)
    ing = g["ingest_ts"].combine_chunks()
    M.write_manifest(
        silver_root,
        M.PartitionManifest(
            stage=RUN_STAGE_SILVER,
            partition_key=key,
            run_id=run_id,
            rows_in=group.num_rows,
            rows_out=g.num_rows,
            min_ts=str(pc.min(ts_arr).as_py()) if g.num_rows else None,
            max_ts=str(pc.max(ts_arr).as_py()) if g.num_rows else None,
            max_ingest_ts=str(pc.max(ing).as_py()) if g.num_rows else None,
            wall_s=time.perf_counter() - t0,
            files=[silver_file],
            extra={"rows_rejected": rows_rejected},
        ),
    )

    # ---- gold rows: carried-window extension + full recompute ----
    t1 = time.perf_counter()
    window, summary, tails = _read_state(state_dir, pointer)
    if pointer:
        fresh, late_convs = _classify(g, window, summary)
        extend = fresh.filter(
            pc.invert(pc.is_in(fresh["conv_id"], value_set=_str_array(late_convs)))
        )
    else:  # no carried state: every conversation is recomputed
        fresh, late_convs, extend = g, set(), g.slice(0, 0)

    outputs, patches = [], None
    if extend.num_rows:
        gold_new, harvested = _gold_partition_bounded(window, extend, summary, cfg)
        outputs.append(gold_new)
        if tails is not None and tails.num_rows:
            patches = _lead_patches(tails, window, harvested)
        summary = _roll_summary(summary, harvested, extend)

    hist, clear_dts = None, set()
    if late_convs or not pointer:
        hist = _silver_history(silver_root, key, late_convs if pointer else None)
        # a conflicting version can move a turn to another date: clear the
        # conversation from every date any of its versions names
        clear_dts = set(pc.unique(hist["dt"]).to_pylist())
        hist = dedup_first(hist, KEY, ["ts", "ingest_ts"])
        full = gold_features_partition(hist, cfg)
        outputs.append(full)
        summary = _rebuild_summary_from_full(summary, full)
    gold_out = pa.concat_tables(outputs, promote_options="default") if outputs else None
    recomputed = pc.unique(hist["conv_id"]) if hist is not None else _str_array(())

    # ---- 2. dt= merges ----
    part_dir = F.join(gold_root, f"part={key}")
    gold_rows = dict(pointer.get("gold", {}))
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

    # ---- 3. online: upsert each touched conversation's latest row (S7),
    # validated + retried with tallies (S8) ----
    put = {"success": 0, "errors": 0}
    if gold_out is not None and gold_out.num_rows:
        online_tbl = _upsert_online(online_root, key, latest_per_conv(gold_out))
        put = FP.put_partition(online_tbl, online_root, key, run_id=run_id)

    # ---- 4. gold manifest: the partition's whole dt= file set ----
    M.write_manifest(
        gold_root,
        M.PartitionManifest(
            stage=RUN_STAGE_GOLD,
            partition_key=key,
            run_id=run_id,
            rows_in=extend.num_rows + (hist.num_rows if hist is not None else 0),
            rows_out=sum(gold_rows.values()),
            wall_s=time.perf_counter() - t1,
            files=[F.join(part_dir, f"dt={dt}", "data.parquet") for dt in gold_rows],
            extra={
                "gold_mode": "carried" if pointer else "full",
                "late_convs": len(late_convs),
                "lead_patches": patches.num_rows if patches is not None else 0,
                "put_success": put["success"],
                "put_errors": put["errors"],
            },
        ),
    )

    # ---- 5. state: trailing window + summary + tail keys, committed by
    # one atomic pointer swap ----
    _write_state(
        state_dir, run_id, window, extend, hist, recomputed, summary, gold_out,
        tails, pointer, gold_rows,
    )
    return _metrics(part, fresh.num_rows, len(late_convs))


def _metrics(part: int, new_rows: int, late_convs: int) -> pa.Table:
    return pa.table(
        {
            "part": pa.array([part], pa.int32()),
            "new_rows": pa.array([new_rows], pa.int64()),
            "late_convs": pa.array([late_convs], pa.int64()),
        }
    )


def _str_array(values) -> pa.Array:
    return pa.array(sorted(values), pa.string())


def _classify(new: pa.Table, window, summary: pa.Table) -> tuple[pa.Table, set]:
    """Split a run's deduped rows against the carried state into (fresh
    rows — keys the window does not hold, conversations to recompute)."""
    late: set[str] = set()
    fresh = new
    if window is not None and window.num_rows and new.num_rows:
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
    if fresh.num_rows and summary.num_rows:
        conv = fresh["conv_id"].combine_chunks()
        pos = pc.index_in(conv, value_set=summary["conv_id"].combine_chunks())
        last_ts = pc.take(summary["last_ts"].combine_chunks(), pos)
        max_turn = pc.take(summary["max_turn"].combine_chunks(), pos)
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
    only = None if convs is None else [("conv_id", "in", sorted(convs))]
    return pa.concat_tables(
        [F.read_table(f, filters=only) for f in files], promote_options="default"
    )


def _upsert_online(online_root: str, key: str, latest: pa.Table) -> pa.Table:
    """The partition's online table with ``latest``'s conversations
    replaced (untouched conversations persist)."""
    dest = F.join(online_root, f"part={key}", "data.parquet")
    if not F.exists(dest):
        return latest
    old = F.read_table(dest)
    kept = old.filter(
        pc.invert(
            pc.is_in(
                old["conv_id"].combine_chunks(),
                value_set=latest["conv_id"].combine_chunks(),
            )
        )
    )
    return pa.concat_tables([kept, latest], promote_options="default")


def _replace_convs(summary: pa.Table, upd: pa.Table) -> pa.Table:
    """``summary`` with ``upd``'s conversations replaced by its rows."""
    kept = summary.filter(
        pc.invert(pc.is_in(summary["conv_id"], value_set=upd["conv_id"].combine_chunks()))
    )
    return pa.concat_tables([kept, upd.select(kept.column_names).cast(kept.schema)])


def _max_turn(tbl: pa.Table, conv: pa.Array) -> np.ndarray:
    """Highest ``turn_idx`` of each conversation in ``conv`` within ``tbl``."""
    mt = tbl.group_by("conv_id").aggregate([("turn_idx", "max")])
    pos = pc.index_in(conv, value_set=mt["conv_id"].combine_chunks())
    return np.asarray(pc.take(mt["turn_idx_max"].combine_chunks(), pos).cast(pa.int64()))


def _roll_summary(summary: pa.Table, harvested: pa.Table, extend: pa.Table) -> pa.Table:
    """Fold this run's per-conv pass summaries into the carried state —
    vectorized over the active conversations only."""
    if not harvested.num_rows:
        return summary
    conv = harvested["conv_id"].combine_chunks()
    pos = pc.index_in(conv, value_set=summary["conv_id"].combine_chunks())

    def prior(col: str, default: int) -> np.ndarray:
        taken = pc.take(summary[col].combine_chunks(), pos)
        return np.asarray(taken.fill_null(default))

    n_breaks = np.asarray(harvested["n_breaks"])
    upd = pa.table(
        {
            "conv_id": conv,
            "b_prior": prior("b_prior", 0) + n_breaks,
            "trail_in": np.where(
                n_breaks > 0,
                np.asarray(harvested["trail"]),
                prior("trail_in", 0) + np.asarray(harvested["n_real"]),
            ),
            "last_ts": harvested["last_ts"],
            "max_turn": np.maximum(prior("max_turn", -1), _max_turn(extend, conv)),
        }
    )
    return _replace_convs(summary, upd)


def _rebuild_summary_from_full(summary: pa.Table, full: pa.Table) -> pa.Table:
    """After a full per-conv recompute, rebuild those convs' carry state
    from their final gold rows."""
    if not full.num_rows:
        return summary
    last = latest_per_conv(full)
    conv = last["conv_id"].combine_chunks()
    upd = pa.table(
        {
            "conv_id": conv,
            "b_prior": pc.add(last["session_id"].cast(pa.int64()), 1),
            "trail_in": pc.add(last["session_turn_idx"].cast(pa.int64()), 1),
            "last_ts": last["ts"].cast(pa.int64()),  # us since epoch
            "max_turn": _max_turn(full, conv),
        }
    )
    return _replace_convs(summary, upd)


def _lead_patches(tails: pa.Table, window: pa.Table, harvested: pa.Table) -> pa.Table:
    """``(conv_id, turn_idx, dt, lead1_ts)`` for each extended
    conversation's previous last gold row: its ``lead1_ts`` becomes the
    first new turn's ts. The row's ``dt`` comes from its ts in the
    carried window, which always holds a conversation's last row."""
    first = pa.table(
        {
            "conv_id": harvested["conv_id"],
            "lead1_ts": harvested["first_ts"].cast(pa.timestamp("us")),
        }
    )
    t = tails.join(first, keys="conv_id", join_type="inner")
    t = t.join(window.select(KEY + ["ts"]), keys=KEY, join_type="inner")
    dt = pc.strftime(t["ts"].combine_chunks(), format="%Y-%m-%d")
    return t.append_column("dt", dt).select(KEY + ["dt", "lead1_ts"])


def _write_state(
    state_dir, run_id, window, extend, hist, recomputed, summary, gold_out,
    tails, pointer, gold_rows,
) -> None:
    """Roll the partition state and commit it with one atomic pointer
    swap (versioned files + ``_current.json``): a crash between writes or
    a task retry can never mix generations."""

    parts = []
    if window is not None and window.num_rows:
        # recomputed convs' window must reflect the DEDUPED truth (a
        # conflicting re-delivery may have changed the winning version)
        parts.append(
            window.select(_SILVER_COLS).filter(
                pc.invert(pc.is_in(window["conv_id"], value_set=recomputed))
            )
        )
    if extend.num_rows:
        parts.append(extend.select(_SILVER_COLS))
    if hist is not None and hist.num_rows:
        parts.append(hist.select(_SILVER_COLS))

    F.makedirs(state_dir, exist_ok=True)
    new = {"run_id": run_id, "gold": gold_rows}
    allr = pa.concat_tables(parts, promote_options="default") if parts else None
    if allr is not None and allr.num_rows:
        # trailing window per conv: keep rows with ts >= conv_last - Δmax
        conv = allr["conv_id"].combine_chunks()
        codes = np.asarray(pc.dictionary_encode(conv).indices).astype(np.int64)
        ts = np.asarray(allr["ts"].combine_chunks().cast(pa.int64()))
        last = np.full(codes.max() + 1, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(last, codes, ts)
        new["rows"] = f"rows-{run_id}.parquet"
        M.atomic_write_table(
            allr.filter(pa.array(ts >= last[codes] - S.MAX_WINDOW_US)),
            F.join(state_dir, new["rows"]),
        )
    new["summary"] = f"summary-{run_id}.parquet"
    M.atomic_write_table(summary, F.join(state_dir, new["summary"]))

    if gold_out is not None and gold_out.num_rows:
        # store each conv's final gold row KEY for future lead1_ts patches
        conv_g = gold_out["conv_id"].combine_chunks()
        tails_new = latest_per_conv(gold_out).select(KEY)
        if tails is not None and tails.num_rows:
            gone = pc.invert(pc.is_in(tails["conv_id"], value_set=conv_g.unique()))
            tails_new = pa.concat_tables(
                [tails_new, tails.filter(gone).select(KEY)], promote_options="default"
            )
        new["tails"] = f"tails-{run_id}.parquet"
        M.atomic_write_table(tails_new, F.join(state_dir, new["tails"]))
    elif pointer.get("tails"):
        # keep referencing the previous generation's tails unchanged
        new["tails"] = pointer["tails"]

    _commit_state(state_dir, new)


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
    callers and unused: the state pointer orders runs."""
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
