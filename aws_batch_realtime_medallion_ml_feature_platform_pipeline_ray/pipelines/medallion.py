"""The stream job: bronze → silver → gold → online, resumable + backfillable.

Re-expresses the reference's ``spark_jobs/silver_and_gold.py`` (trace in
SURVEY.md §3.1) as:

1. read bronze parquet for an *ingest* window (arrival time — the
   reference filters event time, :56-59; we window on ``ingest_ts`` so
   late turns are picked up by later runs and backfilled),
2. normalize + validate + filter (M1-M4, M12), stateless,
3. hash-partition by ``conv_id``,
4. per partition (``incremental.process_partition_incremental``): append
   this run's silver rows, build gold for the run's turns against the
   partition's carried state, merge the rows into the partition's
   ``gold/part=*/dt=*/data.parquet`` files, and commit the partition's
   new state, ``state/part=*/state.arrow``, last: one Arrow IPC file
   holding the trailing window of text-free rows, each conversation's
   latest gold row (its online row) and ``max_turn`` on its latest window
   row, and the partition-run's record, renamed into place. ``run_stream``
   builds the run's record from the records the steps return and commits
   it last, as ``run-{id}.json``: the silver log's entry for the run
   (``state/manifest.py``).

The input's size on disk picks how steps 1-4 run. An input the sized
read would make one block (``sources.reads.one_block``, at most
``SMALL_BLOCK`` = 4 MiB) — a scheduled window usually is — runs in ONE
Ray task: read, prepare, split by hash partition locally
(``stages.keyed.split_by_partition``) and call step 4 on each non-empty
partition in ascending order. A larger input runs as a Ray Data pipeline
with one keyed exchange (``groupby(__part).map_groups``). Both plans make
the same calls on the same partitions and write byte-identical lakes;
the run record (``run-{id}.json``) names the plan and the input bytes.

Either way there is one gold plan and one gold kernel call per
partition-run (:func:`_gold_partition_bounded`). A conversation whose new
turns all come after its carried ``last_ts`` is extended: its carried
trailing window rows enter the call as context, and its latest carried
row seeds the session numbering. A late turn or a conflicting redelivery
sends its conversation to the exact full recompute over the partition's
silver history, in the same call — the blast radius of a late turn is
its conversation (north-rule B12). A partition with no carried state (the
first run, or a lake written in an older state layout) takes the full
recompute for every conversation, so a single backfill run IS the full
recompute, the reference the tests compare every windowed run against.
Unlike the reference — whose gold only sees the current window's slice,
silently truncating 24h/7d features (silver_and_gold.py:200-207) — gold
here always equals a computation over full history (SURVEY.md §7.3).

The online table (S7) is a projection of the states: :func:`read_online`
and :func:`lookup_online` read ``state.arrow`` files, keep each
conversation's latest row and apply the put validation
(``feature_put.validate_online``). ``online/`` holds only ``_meta.json``,
which lookups route by, and the ``_errors/`` quarantine.

Resume: a partition whose ``state.arrow`` names the run is skipped, and
its stored record stands in for its step; every gold write is an
idempotent key-replace merge, so kill-and-rerun converges to the same
outputs.
"""

from __future__ import annotations

import dataclasses
import json

from ..state import fsio as F

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..stages.featurize import (
    N_CHARS_COL,
    PREFIX_COL,
    GoldConfig,
    dedup_first,
    gold_features_partition,
    gold_schema,
)
from ..stages.keyed import PART_COL, add_partition_col, run_one_task, split_by_partition
from ..state import manifest as M
from ..sources.reads import one_block, parquet_files, read_parquet_sized

KEY = ["conv_id", "turn_idx"]


def _coerce_ts(v):
    """Accept ISO strings (the CLI path, __main__.py run-stream), datetime /
    pd.Timestamp objects (the library path) — anything pa.scalar(...,
    timestamp) takes — and return a datetime usable as a timestamp bound."""
    if isinstance(v, str):
        import datetime as _dt

        return _dt.datetime.fromisoformat(v)
    return v


VALID_COL = "__valid"


def normalize_bronze(batch: pa.Table, *, processed_at: str,
                     window: tuple | None = None) -> pa.Table:
    """M1 ingest-window filter + M2 validity + M3 domain predicate + M12
    canonical casts + M4 audit column (explicit run timestamp for
    determinism vs the reference's utcnow(), silver_and_gold.py:67).

    Validity failures are kept and tagged in ``__valid`` (int8, 0/1)
    instead of silently dropped, so the partition task can
    count them into its run record — the S8 put-error accounting channel
    (reference ingest_features.py:63-98 tallies per-batch failures; here
    rejects are durable per-partition metrics, and 'retry' is the
    idempotent resume of the atomic writes and the state commit). Window
    misses are dropped: they are not errors, just out-of-slice.
    A valid row has a ``conv_id``, a ``turn_idx``, a ``ts`` and non-empty
    text."""
    t = batch
    if window is not None:
        lo, hi = (pa.scalar(_coerce_ts(b), pa.timestamp("us")) for b in window)
        its = t["ingest_ts"]
        t = t.filter(pc.and_(pc.greater_equal(its, lo), pc.less_equal(its, hi)))
    # fill_null(False): a NULL text makes the predicate null, which the
    # int8 cast would keep as null -> NaN, matching neither ==0 (reject
    # count) nor ==1 (keep) — the row would vanish uncounted
    mask = pc.greater(pc.utf8_length(t["text"]), 0)
    for c in ("conv_id", "turn_idx", "ts"):
        mask = pc.and_(mask, pc.is_valid(t[c]))
    mask = pc.fill_null(mask, False)
    t = t.append_column(VALID_COL, pc.cast(mask, pa.int8()))
    t = t.append_column("processed_at", pa.array([processed_at] * t.num_rows))
    return t


def run_stream(
    bronze_path: str,
    out_root: str,
    *,
    run_id: str,
    processed_at: str,
    ingest_window: tuple | None = None,
    num_parts: int = 16,
    gold_cfg: GoldConfig | None = None,
    ray_kwargs: dict | None = None,
) -> dict:
    """Execute one stream run. Returns the run record, also written to
    ``run-{id}.json``: ``silver``/``gold``/``online`` summaries,
    ``new_rows`` (turns not already in the carried window),
    ``late_convs`` (conversations sent to the full recompute), ``plan``
    (``"one_task"`` or ``"exchange"``, chosen from the input's size — see
    the module docstring), ``input_bytes`` (bronze bytes on disk) and
    ``partition_records``: each partition step's metrics row, ascending
    by partition (walls are null for a partition an earlier attempt of
    the run committed), and ``commit_ts``.

    Writing ``run-{id}.json`` (``manifest.write_run_record``) commits the
    run: its silver enters the silver log, all at once.

    ``num_parts`` is part of the lake's physical layout (conversation →
    partition assignment): it is pinned in ``state/_meta.json`` on the
    first run and later runs must match, else silver and state would
    silently split across partition directories."""
    _pin_num_parts(out_root, num_parts)
    silver_root = F.join(out_root, "silver")
    gold_root = F.join(out_root, "gold")
    online_root = F.join(out_root, "online")
    state_root = F.join(out_root, "state")
    # dedup happens explicitly on the silver slice and history read-back,
    # so the fused pass can skip its own dedup step
    cfg = gold_cfg or GoldConfig(dedup=False)
    step = dict(
        silver_root=silver_root, gold_root=gold_root, online_root=online_root,
        state_root=state_root, cfg=cfg, run_id=run_id,
    )
    prep = dict(processed_at=processed_at, window=ingest_window, num_parts=num_parts)

    files = parquet_files(bronze_path)
    input_bytes = sum(size for _, size in files)
    if files and one_block(input_bytes):
        plan = "one_task"
        rows = run_one_task(_run_partitions_one_task, [f for f, _ in files], prep, step)
    else:
        plan = "exchange"
        rows = _run_partitions_exchange(bronze_path, prep, step)
    parts = sorted(rows, key=lambda r: r["part"])

    def col(name):
        return [p[name] for p in parts]

    return M.write_run_record(out_root, dict(
        run_id=run_id,
        plan=plan,
        input_bytes=input_bytes,
        partitions=len(parts),
        silver=M.summarize(col("silver_rows_out"), col("silver_wall_s"),
                           sum(col("rows_rejected"))),
        gold=M.summarize(col("gold_rows_out"), col("gold_wall_s")),
        online={"success": sum(col("put_success")), "errors": sum(col("put_errors"))},
        new_rows=sum(col("new_rows")),
        late_convs=sum(col("late_convs")),
        partition_records=parts,
    ))


def _prepare_bronze(t: pa.Table, *, processed_at, window, num_parts) -> pa.Table:
    """The stateless steps both plans apply to bronze before the keyed
    split: window + validity tagging, then the hash-partition column."""
    t = normalize_bronze(t, processed_at=processed_at, window=window)
    return add_partition_col(t, "conv_id", num_parts)


def _run_partitions_one_task(files: list[str], prep: dict, step: dict) -> list[dict]:
    """The whole run's partition work in one process, for an input of one
    block: read, prepare, split by hash partition, and run the per-partition
    step on each non-empty partition in ascending order — the calls the
    keyed exchange makes, without the exchange. Returns their metric rows
    as dicts, which Ray sends back far cheaper than one-row tables."""
    from .incremental import process_partition_incremental

    tbl = pa.concat_tables([F.read_table(f) for f in files], promote_options="default")
    tbl = _prepare_bronze(tbl, **prep)
    return [r for g in split_by_partition(tbl)
            for r in process_partition_incremental(g, **step).to_pylist()]


def _run_partitions_exchange(bronze_path, prep: dict, step: dict) -> list[dict]:
    """The run's partition work as a Ray Data pipeline: sized read,
    prepare, one keyed exchange on ``__part``, the per-partition step per
    group. Returns the metric rows as dicts."""
    import ray

    from .incremental import process_partition_incremental

    ds = read_parquet_sized(bronze_path)
    ds = ds.map_batches(
        lambda t: _prepare_bronze(t, **prep),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    ds = ds.groupby(PART_COL).map_groups(
        lambda grp: process_partition_incremental(grp, **step),
        batch_format="pyarrow",
    )
    return [r for t in ray.get(ds.to_arrow_refs()) for r in t.to_pylist()]


def _pin_num_parts(out_root: str, num_parts: int) -> None:
    """Check ``num_parts`` against the lake's pinned ``state/_meta.json``;
    on the first run, write ``online/_meta.json`` (the partitioning keyed
    online lookups route by) and then the pin."""
    meta_path = F.join(out_root, "state", "_meta.json")
    if F.exists(meta_path):
        with F.open_(meta_path) as f:
            pinned = int(json.load(f)["num_parts"])
        if pinned != int(num_parts):
            raise ValueError(
                f"lake at {out_root} was created with "
                f"num_parts={pinned}; got {num_parts} — the partition "
                "layout is fixed at lake creation"
            )
        return
    F.write_text_atomic(F.join(out_root, "online", "_meta.json"),
                        json.dumps({"num_parts": int(num_parts), "key": "conv_id"}))
    F.write_text_atomic(meta_path, json.dumps({"num_parts": int(num_parts)}))


def write_gold_partition(
    gold_tbl: pa.Table | None,
    part_dir: str,
    *,
    clear_convs=(),
    clear_dts=(),
    lead_patch: pa.Table | None = None,
) -> dict[str, int]:
    """Merge rows into one gold hash partition's physical ``dt=`` Hive
    layout (``part=NNNNN/dt=YYYY-MM-DD/data.parquet``), so daily dataset
    builds prune fragments by date instead of scanning the whole lake
    (reference intent silver_and_gold.py:74-77 + build_datasets.py:51-53).
    The ``dt`` column stays in-file too, so readers that glob the whole
    tree see an unchanged schema.

    Every touched ``dt`` file is rewritten atomically as: its old rows,
    minus rows whose ``(conv_id, turn_idx)`` key ``gold_tbl`` carries and
    minus every row of ``clear_convs``, with ``lead1_ts`` set in place for
    the keys of ``lead_patch`` (``conv_id, turn_idx, dt, lead1_ts``), plus
    ``gold_tbl``'s rows of that date. Touched dates are those of
    ``gold_tbl``, ``clear_dts`` and ``lead_patch``; a date left empty is
    removed. Each merge is idempotent, so a rerun after a crash converges
    to the same files. Dates before the persisted retention cutoff are
    never written, so expiry sticks across later runs (C8). Returns
    ``{dt: rows now in that dt's file}`` for every touched date."""
    from concurrent.futures import ThreadPoolExecutor

    cutoff = _retention_cutoff(F.dirname(part_dir))
    new_by_dt: dict[str, pa.Table] = {}
    new_keys = None
    if gold_tbl is not None and gold_tbl.num_rows:
        new_keys = _row_keys(gold_tbl)
        dt_enc = pc.dictionary_encode(gold_tbl["dt"].combine_chunks())
        codes = np.asarray(dt_enc.indices)
        order = np.argsort(codes, kind="stable")
        sorted_tbl = gold_tbl.take(pa.array(order))
        counts = np.bincount(codes, minlength=len(dt_enc.dictionary))
        starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        for i, dt in enumerate(dt_enc.dictionary.to_pylist()):
            new_by_dt[dt] = sorted_tbl.slice(int(starts[i]), int(counts[i]))
    patch_dts = set()
    if lead_patch is not None and lead_patch.num_rows:
        patch_dts = set(pc.unique(lead_patch["dt"]).to_pylist())
    touched = sorted(
        dt for dt in set(new_by_dt) | set(clear_dts) | patch_dts
        if cutoff is None or dt >= cutoff
    )
    clear = pa.array(sorted(clear_convs), pa.string())

    def merge_one(dt: str) -> tuple[str, int]:
        f = F.join(part_dir, f"dt={dt}", "data.parquet")
        parts = []
        if F.exists(f):
            old = F.read_table(f)
            drop = pc.is_in(old["conv_id"].combine_chunks(), value_set=clear)
            if new_keys is not None:
                drop = pc.or_(drop, pc.is_in(_row_keys(old), value_set=new_keys))
            old = old.filter(pc.invert(drop))
            if dt in patch_dts and old.num_rows:
                old = _patch_lead(old, lead_patch)
            parts.append(old)
        if dt in new_by_dt:
            parts.append(new_by_dt[dt])
        t = pa.concat_tables(parts, promote_options="default") if parts else None
        if t is not None and t.num_rows:
            M.atomic_write_table(t, f)
            return dt, t.num_rows
        if F.exists(F.dirname(f)):
            F.rmtree(F.dirname(f))
        return dt, 0

    # per-dt merges are independent; parquet encode/IO releases the GIL,
    # so a small thread pool overlaps the many per-day files one
    # partition touches (days dominate wall time at fine dt grain)
    if len(touched) < 2:
        return dict(map(merge_one, touched))
    with ThreadPoolExecutor(max_workers=min(8, len(touched))) as ex:
        return dict(ex.map(merge_one, touched))


def _patch_lead(tbl: pa.Table, patch: pa.Table) -> pa.Table:
    """Set ``lead1_ts`` for the rows of ``tbl`` whose key ``patch`` names
    — the one forward-looking gold column an already-written row must
    absorb when its conversation continues."""
    idx = pc.index_in(_row_keys(tbl), value_set=_row_keys(patch))
    lead = pc.if_else(
        pc.is_valid(idx), pc.take(patch["lead1_ts"], idx), tbl["lead1_ts"]
    )
    return tbl.set_column(tbl.schema.get_field_index("lead1_ts"), "lead1_ts", lead)


def _row_keys(tbl: pa.Table) -> pa.Array:
    """Vectorized (conv_id, turn_idx) composite key."""
    return pc.binary_join_element_wise(
        tbl["conv_id"].combine_chunks(),
        pc.cast(tbl["turn_idx"].combine_chunks(), pa.string()),
        "#",
    )


def _gold_partition_bounded(
    window: pa.Table, extend: pa.Table, hist: pa.Table | None, cfg: GoldConfig
) -> pa.Table:
    """The partition-run's gold rows, from ONE kernel call over three row
    sets: the carried ``window`` rows of the conversations in ``extend``,
    as ``__prefix`` context; ``extend``, the turns that continue those
    conversations past their carried ``last_ts``; and ``hist``, the
    deduped silver history of the conversations to recompute (none, some,
    or the whole partition). No conversation is in both ``extend`` and
    ``hist``. Exactness of the extension:

    - every trailing window is <= Δmax = ``schema.MAX_WINDOW_US``, and
      ``window`` holds each conversation's last Δmax of silver rows
      (their ``n_chars`` in place of ``text``), so later turns never
      alter earlier rows' aggregates and see all the context they need;
    - lag and the first new turn's session break need only the latest
      carried row, which the window always holds;
    - session_id / session_turn_idx continue from that row's own: one
      past them are the kernel's session seeds (``b_prior``,
      ``trail_in``).

    The caller repairs the previous last row's ``lead1_ts`` in place."""
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    parts = []
    if extend.num_rows:
        active = pc.unique(extend["conv_id"].combine_chunks())
        prefix = window.filter(pc.is_in(window["conv_id"], value_set=active))
        # the seeds continue the latest row's session: one past its
        # session_id and session_turn_idx (null on the other rows)
        seeds = {
            "b_prior": pc.add(prefix["session_id"], 1),
            "trail_in": pc.add(prefix["session_turn_idx"].cast(pa.int64()), 1),
        }
        prefix = prefix.select(["conv_id", "turn_idx", "role", N_CHARS_COL, "tool", "ts"])
        for name, col in seeds.items():
            prefix = prefix.append_column(name, col)
        parts += [_with_prefix(prefix, 1), _with_prefix(extend.select(cols), 0)]
    if hist is not None:
        parts.append(_with_prefix(hist.select(cols), 0))
    tbl = pa.concat_tables(parts, promote_options="default")
    return gold_features_partition(
        tbl, dataclasses.replace(cfg, compute_turn_idx=False, dedup=False)
    )


def _with_prefix(tbl: pa.Table, prefix: int) -> pa.Table:
    flag = pa.array(np.full(tbl.num_rows, prefix, np.int8), pa.int8())
    return tbl.append_column(PREFIX_COL, flag)


def _retention_cutoff(gold_root: str) -> str | None:
    """The persisted retention cutoff (max keep_from_dt of all expire
    runs), or None when no retention is configured."""
    p = F.join(gold_root, "_retention.json")
    if not F.exists(p):
        return None
    with F.open_(p) as f:
        return json.load(f).get("keep_from_dt")


def _persist_retention_cutoff(gold_root: str, keep_from_dt: str) -> None:
    cur = _retention_cutoff(gold_root)
    if cur is not None and cur >= keep_from_dt:
        return
    F.makedirs(gold_root, exist_ok=True)
    F.write_text_atomic(
        F.join(gold_root, "_retention.json"),
        json.dumps({"keep_from_dt": keep_from_dt}),
    )


def gold_dt_fragments(
    gold_root: str, dt_start: str | None = None, dt_end: str | None = None
) -> tuple[list[str], list[str]]:
    """Fragment-pruned gold file list: filesystem-metadata-only discovery
    of ``part=*/dt=*`` leaves filtered to [dt_start, dt_end] (inclusive;
    ``None`` = unbounded). Returns (files, sorted distinct dts present in
    the pruned set) — no data bytes are read."""
    out: list[str] = []
    dts: set[str] = set()
    for f in F.glob(F.join(gold_root, "part=*", "dt=*", "*.parquet")):
        dt = F.basename(F.dirname(f))[3:]
        if dt_start is not None and dt < dt_start:
            continue
        if dt_end is not None and dt > dt_end:
            continue
        out.append(f)
        dts.add(dt)
    return sorted(out), sorted(dts)


def expire_gold_partitions(out_root: str, *, keep_from_dt: str) -> dict:
    """C8 retention lifecycle: delete gold ``dt=`` fragments strictly
    older than ``keep_from_dt`` — the engine analog of the reference's
    S3 lifecycle expiry (infra/terraform/modules/s3_datalake/main.tf:33-65,
    ``lifecycle_days`` default 30). Filesystem-metadata only (parquet
    footers for row counts — no data bytes); idempotent (re-running after
    a partial delete converges); an ``expire`` manifest records every
    removed fragment (dt, rows, file) so lineage stays auditable after
    the bytes are gone.

    A file whose footer is torn (a half-written leftover) counts 0 rows
    and is expired with its fragment. Any other read error (an OS or
    permission error) propagates before anything is deleted."""

    gold_root = F.join(out_root, "gold")
    # persist the cutoff FIRST so retention survives later full-history
    # gold recomputes (write_gold_partition filters dt < cutoff)
    _persist_retention_cutoff(gold_root, keep_from_dt)
    removed: list[dict] = []
    expired: list[str] = []
    for d in sorted(F.glob(F.join(gold_root, "part=*", "dt=*"))):
        dt = F.basename(d)[3:]
        if dt >= keep_from_dt:
            continue
        expired.append(d)
        rows = 0
        for f in F.glob(F.join(d, "*.parquet")):
            try:
                rows += F.parquet_rows(f)
            except pa.ArrowInvalid:
                pass  # torn footer: a half-written leftover, expired below
        removed.append(
            {"fragment": F.relpath(d, gold_root), "dt": dt, "rows": rows}
        )
    for d in expired:
        F.rmtree(d)
    if removed:  # a no-op re-run must not overwrite the audit record
        # unique run_id per invocation: a SECOND expire with the same
        # cutoff (late backfill wrote new old-dt fragments) must append
        # its audit, not overwrite the earlier one — reconcile_lake sums
        # expired rows across all audits
        M.write_manifest(
            out_root,
            M.PartitionManifest(
                stage="expire",
                partition_key=f"before-{keep_from_dt}",
                run_id=f"expire-{keep_from_dt}-{uuid_hex()[:8]}",
                rows_out=sum(r["rows"] for r in removed),
                extra={"keep_from_dt": keep_from_dt, "removed": removed},
            ),
        )
    return {
        "keep_from_dt": keep_from_dt,
        "fragments_removed": len(removed),
        "rows_removed": sum(r["rows"] for r in removed),
    }


def compact_silver(
    out_root: str, *, run_id: str | None = None, min_files: int = 2
) -> dict:
    """Small-file compaction for silver partitions: each incremental /
    streaming run appends one ``run-{id}.parquet`` per hash partition, so
    a long-lived lake accumulates thousands of small files per partition
    and every gold recompute / late-conv backfill pays open-and-footer
    cost per file. Coalesce each partition's run files into ONE
    ``run-compact-{id}.parquet`` (the name still matches the readers'
    ``run-*.parquet`` glob) holding the deduped union, then delete the
    sources.

    CRASH-SAFE WITHOUT TOMBSTONES: every silver consumer (the stream's
    full recompute in ``incremental.process_partition_incremental`` and
    the snapshot readers) already folds its read through
    ``dedup_first(["conv_id","turn_idx"], ["ts","ingest_ts"])``, so if a
    crash lands between the atomic compact-file rename and the source
    deletes, the temporarily duplicated rows collapse to the identical
    result, and re-running compaction converges. Compaction itself
    applies the same dedup rule, so the operation is idempotent.

    A rewrite reads the files the silver log (``manifest.silver_log``)
    names, so an uncommitted run's silver stays out of every snapshot,
    plus any unlogged ``run-compact-*`` output of a crashed compaction
    (committed rows only). It is logged as a ``silver_compact`` manifest
    (written before the source deletes) naming the files it coalesced,
    which supersedes their appends (``manifest.live_silver``).

    One Ray task per partition directory (filesystem-level work the
    Dataset API can't express); only O(partitions) summary rows return
    to the driver."""
    import ray


    silver_root = F.join(out_root, "silver")
    rid = run_id or uuid_hex()
    part_dirs = sorted(F.glob(F.join(silver_root, "part=*")))
    logged = {F.canon(f) for m in M.silver_log(out_root) for f in m.files}

    @ray.remote
    def compact_one(part_dir: str) -> dict:
        import time as _time

        t0 = _time.perf_counter()
        key = F.basename(part_dir)[5:]
        files = sorted(
            f for f in F.glob(F.join(part_dir, "run-*.parquet"))
            if F.canon(f) in logged or F.basename(f).startswith("run-compact-")
        )
        if len(files) < min_files:
            return {"part": key, "files_in": len(files), "skipped": True}
        tbl = pa.concat_tables(
            [F.read_table(f) for f in files], promote_options="default"
        )
        rows_in = tbl.num_rows
        tbl = dedup_first(tbl, ["conv_id", "turn_idx"], ["ts", "ingest_ts"])
        out = F.join(part_dir, f"run-compact-{rid}.parquet")
        M.atomic_write_table(tbl, out)
        # manifest BEFORE the source deletes: from the instant a source can
        # be missing, a newer silver_compact manifest already supersedes the
        # run records' appends that claimed it, so reconcile_lake stays
        # green through the crash window (and re-running compaction converges)
        ts_arr = tbl["ts"].combine_chunks() if tbl.num_rows else None
        ing = tbl["ingest_ts"].combine_chunks() if tbl.num_rows else None
        M.write_manifest(
            silver_root,
            M.PartitionManifest(
                stage="silver_compact",
                partition_key=key,
                run_id=rid,
                rows_in=rows_in,
                rows_out=tbl.num_rows,
                min_ts=str(pc.min(ts_arr).as_py()) if ts_arr is not None else None,
                max_ts=str(pc.max(ts_arr).as_py()) if ts_arr is not None else None,
                max_ingest_ts=str(pc.max(ing).as_py()) if ing is not None else None,
                wall_s=_time.perf_counter() - t0,
                files=[out],
                # record EXACTLY which files this rewrite coalesced, so
                # snapshot selection keeps a run that committed while the
                # compaction was in flight (its files were never read
                # here and stay on disk) instead of dropping it by
                # commit_ts alone
                extra={"files_in": len(files), "source_files": files},
            ),
        )
        for f in files:
            if f != out:
                F.remove(f)
        return {
            "part": key,
            "files_in": len(files),
            "rows_in": rows_in,
            "rows_out": tbl.num_rows,
            "file": out,
            "skipped": False,
        }

    results = ray.get([compact_one.remote(d) for d in part_dirs])
    done = [r for r in results if not r.get("skipped")]
    summary = {
        "run_id": rid,
        "partitions": len(part_dirs),
        "compacted": len(done),
        "files_removed": sum(r["files_in"] - 1 for r in done),
        "rows_out": sum(r["rows_out"] for r in done),
    }
    return summary


def uuid_hex() -> str:
    import uuid

    return uuid.uuid4().hex[:12]


def reconcile_lake(out_root: str, run_id: str | None = None) -> dict:
    """Lineage-integrity reconciliation: verify that every file the silver
    log or a partition's state record claims exists on disk with the
    recorded row counts, and flag on-disk parquet leaves nothing claims
    (orphans — e.g. the silver of a run that crashed before committing
    its run record). Filesystem metadata + parquet footers only, no data
    reads. The check a resumable lake needs before trusting a resume,
    and the per-partition-metrics audit the north rule's lineage
    requirement implies.

    Multi-run semantics: silver is append-per-run, and each committed run
    record claims its partitions' silver files (``manifest.silver_file``)
    with ``silver_rows_out`` rows. Only live commits
    (``manifest.live_silver``) are parity-checked: an append is live
    unless a ``silver_compact`` rewrite coalesced its file, a rewrite is
    live if it is its partition's newest. Superseded commits' still
    existing files remain claimed, so a compaction crash window never
    reports orphans. Gold is merged in place per partition, and the
    partition's ``state.arrow`` (committed last by each run) records the
    rows of each of its ``dt=`` files: it claims
    ``gold/part=K/dt=D/data.parquet`` for each recorded ``D``. ``run_id`` narrows missing/row checks to that run's record and
    to the partitions whose state names the run; the orphan scan always
    considers every claim. ``manifests_checked`` counts the silver
    commits and gold records checked."""
    from .incremental import _read_state

    missing: list[dict] = []
    mismatched: list[dict] = []
    claimed: set[str] = set()
    # fragments removed by C8 retention are expected absences; their
    # audited row counts reconcile the recorded totals below
    gold_root = F.join(out_root, "gold")
    expired_rows: dict[str, int] = {}
    for em in M.load_manifests(out_root, "expire"):
        for r in em.extra.get("removed", []):
            d = F.canon(F.join(gold_root, r["fragment"]))
            expired_rows[d] = expired_rows.get(d, 0) + int(r["rows"])

    def expired_dir_of(path: str) -> str | None:
        rp = F.canon(path)
        for d in expired_rows:
            if rp.startswith(d + "/") or rp == d:
                return d
        return None

    # EVERY silver commit claims its files (so older runs' appends are
    # never "orphans"), but only live ones are parity-checked
    silver = M.silver_log(out_root)
    for m in silver:
        claimed.update(F.canon(f) for f in m.files if F.exists(f))
    # (stage, partition, files, recorded rows) to check
    checks = [
        (m.stage, m.partition_key, m.files, m.rows_out)
        for m in M.live_silver(silver)
        if run_id is None or m.run_id == run_id
    ]
    for d in sorted(F.glob(F.join(out_root, "state", "part=*"))):
        state = _read_state(d)[1]
        if not state:
            continue
        key = F.basename(d)[5:]
        files = [F.join(gold_root, f"part={key}", f"dt={dt}", "data.parquet")
                 for dt in state["gold"]]
        claimed.update(F.canon(f) for f in files if F.exists(f))
        if run_id is None or state["run_id"] == run_id:
            checks.append(("gold", key, files, sum(state["gold"].values())))

    for stage, key, files, rows_out in checks:
        rows_found = 0
        rows_expired = 0
        any_missing = False
        expired_seen: set[str] = set()
        for f in files:
            if not F.exists(f):
                d = expired_dir_of(f)
                if d is not None:
                    if d not in expired_seen:  # dir rows counted once
                        expired_seen.add(d)
                        rows_expired += expired_rows[d]
                    continue
                any_missing = True
                missing.append({"stage": stage, "partition": key, "file": f})
                continue
            rows_found += F.parquet_rows(f)
        # row parity over surviving files: recorded total minus the rows
        # the expire audit accounts for must equal what is on disk
        if not any_missing and rows_found != rows_out - rows_expired:
            mismatched.append(
                {
                    "stage": stage,
                    "partition": key,
                    "manifest_rows": rows_out - rows_expired,
                    "disk_rows": rows_found,
                }
            )
    orphans = [
        f
        for layer in ("silver", "gold")
        for f in F.glob(F.join(out_root, layer, "part=*", "**", "*.parquet"),
                        recursive=True)
        if F.canon(f) not in claimed
    ]
    return {
        "manifests_checked": len(checks),
        "ok": not (missing or mismatched or orphans),
        "missing_files": missing,
        "row_mismatches": mismatched,
        "orphan_files": sorted(orphans),
    }


def latest_per_conv(gold_tbl: pa.Table) -> pa.Table:
    """Latest feature row per conv_id (argmax ts, tiebreak max turn_idx) —
    the row each conversation's ``state.arrow`` keeps as its typed online
    row, replacing the reference's stringified feature-store upsert
    (silver_and_gold.py:147-162, S13)."""
    if gold_tbl.num_rows == 0:
        return gold_tbl
    conv = pc.dictionary_encode(gold_tbl["conv_id"].combine_chunks()).indices
    kc = np.asarray(conv).astype(np.int64)
    ts = np.asarray(gold_tbl["ts"].combine_chunks().cast(pa.int64()))
    ti = np.asarray(gold_tbl["turn_idx"].combine_chunks().cast(pa.int64()))
    order = np.lexsort((-ti, -ts, kc))
    k = kc[order]
    first = np.zeros(len(k), dtype=bool)
    first[0] = True
    first[1:] = k[1:] != k[:-1]
    return gold_tbl.take(pa.array(order[first]))


def read_gold(out_root: str):
    """Gold layer as a Dataset (partition-pruned read for downstream)."""
    import ray.data as rd

    return read_parquet_sized(F.join(out_root, "gold"))


def _snapshot_part_datasets(out_root: str, as_of: float, per_group):
    """Shared snapshot-read shape for silver/gold time travel: pick the
    exact file set via the silver log (``manifest.snapshot_files``: the
    run records and compaction manifests), group files by silver hash
    partition (conv→partition assignment is stable across runs, so a
    ``part=`` dir is an exact dedup group with NO shuffle), and run
    ``per_group(deduped_table)`` as one Ray task per partition. Returns
    ``None`` when the snapshot is empty (``as_of`` before the first
    commit) — callers substitute their empty-schema table."""
    import ray
    import ray.data as rd

    files = M.snapshot_files(out_root, as_of)
    if not files:
        return None
    by_part: dict[str, list[str]] = {}
    for f in files:
        by_part.setdefault(F.basename(F.dirname(f)), []).append(f)

    @ray.remote
    def run_group(fs: list[str]) -> pa.Table:
        tbl = pa.concat_tables(
            [F.read_table(f) for f in fs], promote_options="default"
        )
        return per_group(dedup_first(tbl, ["conv_id", "turn_idx"], ["ts", "ingest_ts"]))

    return rd.from_arrow_refs(
        [run_group.remote(fs) for _, fs in sorted(by_part.items())]
    )


def read_silver_snapshot(out_root: str, as_of: float, *, dedup: bool = True):
    """Snapshot-isolation (time-travel) read of the silver layer as of
    wall-clock ``as_of`` (epoch seconds): the silver log picks the exact
    file set of every run whose record was committed at or before
    ``as_of`` (state/manifest.snapshot_files — a run that has not
    committed its record is not in any snapshot; compaction rewrites
    supersede exactly the files they coalesced). Raises
    ``SnapshotUnavailableError`` when a later compaction/expire
    garbage-collected the needed history; an ``as_of`` before the first
    commit returns an empty silver-schema dataset.

    ``dedup=True`` applies the standard silver consumer contract (keep
    first (ts, ingest_ts) per (conv_id, turn_idx)) distributed per
    silver hash-partition directory.

    Gold has no snapshot axis by design (partitions are merged in
    place); a historical gold is reproduced by running the feature pass
    over a silver snapshot — see :func:`gold_snapshot`."""
    import ray.data as rd

    from ..schema import SILVER

    if not dedup:
        files = M.snapshot_files(out_root, as_of)
        if not files:
            return rd.from_arrow(SILVER.empty_table())
        return read_parquet_sized(files)
    ds = _snapshot_part_datasets(out_root, as_of, lambda t: t)
    return ds if ds is not None else rd.from_arrow(SILVER.empty_table())


def gold_snapshot(out_root: str, as_of: float, *, gold_cfg: GoldConfig | None = None):
    """Historical gold feature vectors as of ``as_of``: the gold pass is
    a pure function of deduped silver, so the point-in-time gold is
    reproduced by running ``gold_features_partition`` over the silver
    snapshot's partition groups — exactly what the stream run whose
    commit was latest at ``as_of`` computed (training-time point-in-time
    correctness at the LAKE level; the as-of JOIN gives it at the row
    level). One Ray task per silver hash partition, files picked by the
    silver log, nothing recomputed outside the snapshot."""
    import ray.data as rd

    cfg = gold_cfg or GoldConfig(dedup=False)
    ds = _snapshot_part_datasets(
        out_root, as_of, lambda t, c=cfg: gold_features_partition(t, c)
    )
    if ds is not None:
        return ds
    return rd.from_arrow(gold_schema(cfg.role_counts).empty_table())


def read_online(out_root: str) -> pa.Table:
    """The S7 online table: each conversation's latest gold row, which
    its partition's ``state.arrow`` holds on its latest window row."""
    from .incremental import _online_table

    return _online_table(sorted(F.glob(F.join(out_root, "state", "part=*"))))


def lookup_online(out_root: str, conv_ids: list[str]) -> pa.Table:
    """S9 point/batch feature lookup (reference
    feature_store/ingest_features.py:107-143 get_record/batch_get_record):
    route each requested conv_id to its hash partition via the persisted
    partitioning meta, read ONLY those partitions' ``state.arrow`` files
    (Arrow IPC), and filter with a vectorized ``pc.is_in``. Cost is
    O(|ids| / num_parts) files touched, independent of lake size."""
    from ..stages.keyed import hash_key
    from .incremental import _online_table

    meta_path = F.join(out_root, "online", "_meta.json")
    if not F.exists(meta_path):  # before the lake's first run: no rows
        return S.GOLD.empty_table()
    with F.open_(meta_path) as f:
        meta = json.load(f)
    num_parts = int(meta["num_parts"])
    ids_arr = pa.array(conv_ids, pa.string())
    parts = np.unique(hash_key(ids_arr) % np.uint64(num_parts)).astype(np.int64)
    state_root = F.join(out_root, "state")
    return _online_table([F.join(state_root, f"part={int(p):05d}") for p in parts], ids_arr)


def bootstrap_lake(out_root: str) -> dict:
    """C7 feature-group bootstrap (reference
    feature_store/register_feature_groups.py:13-76 registers typed
    features and polls creation): write the canonical layer schemas as a
    JSON manifest, idempotently, so downstream consumers can resolve
    types before any data lands. An empty lake already reads as a typed
    empty online table. The online partitioning (``online/_meta.json``)
    is written by the first stream run, with the pinned ``num_parts``.
    Returns the registration summary."""
    layers = {"bronze": S.BRONZE, "silver": S.SILVER, "gold": S.GOLD}
    reg = {
        name: [{"name": f.name, "type": str(f.type)} for f in sch]
        for name, sch in layers.items()
    }
    F.makedirs(out_root, exist_ok=True)
    schema_path = F.join(out_root, "_schemas.json")
    F.write_text_atomic(schema_path, json.dumps(reg, indent=1))
    return {"schemas": schema_path, "layers": sorted(reg), "status": "Created"}
