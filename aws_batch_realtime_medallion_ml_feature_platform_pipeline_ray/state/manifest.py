"""The lake's commit log: stream run records, compaction and expiry
manifests.

Generalizes the reference's ad-hoc metadata sink (``spark_jobs/
build_datasets.py:76-84, 116-139``). A stream run commits ONE record,
``run-{id}.json`` at the lake root, written atomically after every
partition step has committed (:func:`write_run_record`): the run's
summaries, one record per partition (silver rows in/out/rejected,
``min_ts``/``max_ts``/``max_ingest_ts``, gold and online counts) and its
``commit_ts``. A partition's silver file follows from the run id
(:func:`silver_file`), so the record names it without listing it. The
run records and the ``silver_compact`` manifests that ``compact_silver``
writes are the silver log (:func:`silver_log`): snapshots
(``list_snapshots`` / ``snapshot_files``) and ``reconcile_lake`` read it
and share one supersession rule (:func:`live_silver`). A run's silver
becomes visible to a snapshot all at once, at its commit; a rerun of a
committed run keeps that commit. ``backfill_targets`` reads ``max_ts``
from the run records. Gold expiry writes ``expire`` manifests. Resume
reads none of them: a stream partition whose ``state/part=*/state.arrow``
names the run is done (pipelines/incremental.py), which fixes the
reference's append-duplication hazard (``silver_and_gold.py:75`` —
rerunning a window appends duplicate rows).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import fsio as F


@dataclass
class PartitionManifest:
    stage: str
    partition_key: str
    run_id: str
    rows_out: int
    rows_in: int = -1
    min_ts: str | None = None
    max_ts: str | None = None
    max_ingest_ts: str | None = None
    wall_s: float = 0.0
    files: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # commit wall-clock (epoch seconds), stamped by write_manifest — the
    # snapshot-isolation time axis. -1 on manifests from older lakes,
    # which snapshot selection treats as "before every as_of".
    commit_ts: float = -1.0


def manifest_dir(root: str) -> str:
    return F.join(root, "_manifests")


def manifest_path(root: str, stage: str, partition_key: str, run_id: str | None) -> str:
    name = f"{stage}__{partition_key}" + (f"__{run_id}" if run_id else "") + ".json"
    return F.join(manifest_dir(root), name)


def write_manifest(root: str, m: PartitionManifest) -> None:
    F.makedirs(manifest_dir(root), exist_ok=True)
    if m.commit_ts < 0:
        m.commit_ts = time.time()
    path = manifest_path(root, m.stage, m.partition_key, m.run_id)
    # temp + rename locally; direct atomic object PUT on URI filesystems
    # — either way a manifest exists only if complete. vars(): no field
    # holds a dataclass, so asdict's recursive deep copy buys nothing
    F.write_text_atomic(path, json.dumps(vars(m)))


def load_manifests(root: str, stage: str | None = None) -> list[PartitionManifest]:
    d = manifest_dir(root)
    if not F.isdir(d):
        return []
    out = []
    for name in sorted(F.listdir(d)):
        if not name.endswith(".json"):
            continue
        if stage is not None and not name.startswith(stage + "__"):
            continue
        with F.open_(F.join(d, name)) as f:
            out.append(PartitionManifest(**json.load(f)))
    return out


def silver_file(silver_root: str, part: int, run_id: str) -> str:
    """The silver file a stream run writes for hash partition ``part``."""
    return F.join(silver_root, f"part={int(part):05d}", f"run-{run_id}.parquet")


def write_run_record(root: str, record: dict) -> dict:
    """Commit a stream run: write ``run-{run_id}.json`` atomically with a
    ``commit_ts`` (epoch seconds) and return it. A rerun of a committed
    run keeps the first commit's ``commit_ts``, so the run stays where it
    was on the snapshot time axis."""
    path = F.join(root, f"run-{record['run_id']}.json")
    commit_ts = time.time()
    if F.exists(path):
        with F.open_(path) as f:
            commit_ts = json.load(f).get("commit_ts", commit_ts)
    record = dict(record, commit_ts=commit_ts)
    F.write_text_atomic(path, json.dumps(record, indent=1))
    return record


def load_run_records(root: str) -> list[dict]:
    """The lake's committed run records; those of older lakes, written
    without a ``commit_ts``, are skipped."""
    recs = []
    for path in sorted(F.glob(F.join(root, "run-*.json"))):
        with F.open_(path) as f:
            recs.append(json.load(f))
    return [r for r in recs if "commit_ts" in r]


def silver_log(root: str) -> list[PartitionManifest]:
    """The silver commits of the lake at ``root``, as manifests: each
    run's append per partition (stage ``silver``, from its run record)
    and every ``silver_compact`` rewrite. Rewrites of older lakes, logged
    without ``source_files``, are skipped like their run appends."""
    silver_root = F.join(root, "silver")
    appends = [
        PartitionManifest(
            stage="silver", partition_key=f"{p['part']:05d}", run_id=r["run_id"],
            rows_out=p["silver_rows_out"], max_ts=p.get("max_ts"),
            files=[silver_file(silver_root, p["part"], r["run_id"])],
            commit_ts=r["commit_ts"],
        )
        for r in load_run_records(root) for p in r["partition_records"]
    ]
    return appends + [m for m in load_manifests(silver_root, "silver_compact")
                      if "source_files" in m.extra]


def live_silver(log: list[PartitionManifest]) -> list[PartitionManifest]:
    """The entries of ``log`` (a silver log, or its commits up to some
    ``as_of``) that describe current bytes: per partition, the newest
    ``silver_compact`` rewrite, and each run append whose file no rewrite
    in ``log`` coalesced — so superseded through a chain of rewrites, and
    live if it committed while a rewrite was in flight."""
    superseded = {F.canon(f) for m in log if m.stage == "silver_compact"
                  for f in m.extra["source_files"]}
    newest: dict[str, PartitionManifest] = {}
    for m in log:
        cur = newest.get(m.partition_key)
        if m.stage == "silver_compact" and (cur is None or m.commit_ts > cur.commit_ts):
            newest[m.partition_key] = m
    return [
        m for m in log
        if (newest[m.partition_key] is m if m.stage == "silver_compact"
            else all(F.canon(f) not in superseded for f in m.files))
    ]


def backfill_targets(root: str, late_min_ts: str) -> set[str]:
    """B12 targeting: partition keys whose data could be affected by turns
    whose event time is >= ``late_min_ts`` (ISO string). Windows are
    per-entity, so the blast radius of late data is exactly the
    partitions where some run's ``max_ts`` (from the run records)
    reaches past the late window start; everything else can be skipped
    on the backfill rerun. The reference parsed
    ``watermark_delay_minutes`` (silver_and_gold.py:31) but never used
    it — here it bounds ``late_min_ts = window_start - watermark_delay``."""
    from datetime import datetime

    # parse both sides: a lexicographic compare across ' ' and 'T'
    # separators silently skips same-day partitions (' ' < 'T')
    bound = datetime.fromisoformat(late_min_ts)
    return {
        m.partition_key for m in silver_log(root)
        if m.stage == "silver" and m.max_ts is not None
        and datetime.fromisoformat(m.max_ts) >= bound
    }


def atomic_write_table(tbl, path: str) -> None:
    """Write a parquet file atomically (temp + rename locally; direct
    single-object PUT on URI filesystems, which is atomic per object) so
    partial outputs never count as complete."""
    F.write_table_atomic(tbl, path)


def summarize(rows_out: list[int], walls: list, rows_rejected: int = 0) -> dict:
    """Run-level metrics of one stage from its partition steps' rows out
    and wall seconds (``None`` for a step an earlier attempt committed) —
    replaces the reference's CloudWatch success metric + count() passes.

    Includes the per-partition task-skew summary (VERDICT r3 §next-8):
    p50/p99/max task wall seconds and ``skew_p99_over_p50`` so a
    Zipf-hot partition (one mega-conversation dominating a hash bucket)
    is observable straight from the run record — the salted
    repartition (stages/salted.py) is the remedy when this ratio runs
    hot."""
    rows = sum(rows_out)
    walls = sorted(w for w in walls if w is not None)
    wall = sum(walls)
    out = {
        "partitions": len(rows_out),
        "rows_out": rows,
        "rows_rejected": rows_rejected,
        "sum_task_wall_s": round(wall, 3),
        "rows_per_task_s": round(rows / wall, 1) if wall > 0 else None,
    }
    if walls:
        def _pctl(q: float) -> float:
            # nearest-rank on the sorted sample — no interpolation, so
            # the number is an actual observed task time
            i = min(len(walls) - 1, max(0, int(round(q * (len(walls) - 1)))))
            return walls[i]

        p50 = _pctl(0.50)
        p99 = _pctl(0.99)
        out["task_wall_p50_s"] = round(p50, 4)
        out["task_wall_p99_s"] = round(p99, 4)
        out["task_wall_max_s"] = round(walls[-1], 4)
        out["skew_p99_over_p50"] = (
            round(p99 / p50, 2) if p50 > 0 else None
        )
    return out


# ---------------------------------------------------------------------------
# Snapshot isolation (time travel) over the silver log
# ---------------------------------------------------------------------------


class SnapshotUnavailableError(RuntimeError):
    """The requested snapshot's files were garbage-collected by a later
    compaction/expire — the silver log still describes the snapshot,
    but its data no longer exists (same semantics as reading a Delta
    version past VACUUM's retention window)."""


def list_snapshots(root: str) -> list[dict]:
    """Distinct silver commits of the lake at ``root`` — runs and
    compactions — in commit order: the valid ``as_of`` axis for
    ``snapshot_files``. One entry per (run_id, stage) with its max
    commit_ts across partitions."""
    runs: dict[tuple[str, str], float] = {}
    for m in silver_log(root):
        k = (m.run_id, m.stage)
        runs[k] = max(runs.get(k, float("-inf")), m.commit_ts)
    return [
        {"run_id": rid, "stage": st, "commit_ts": ts}
        for (rid, st), ts in sorted(runs.items(), key=lambda kv: kv[1])
    ]


def snapshot_files(root: str, as_of: float) -> list[str]:
    """The exact silver file set of the lake at ``root`` as of wall-clock
    ``as_of`` (epoch seconds): the files of the silver log's commits at or
    before ``as_of`` that are live among them (:func:`live_silver`).
    Raises :class:`SnapshotUnavailableError` if any selected file was
    deleted by a LATER compaction/expire (the snapshot's history has been
    garbage-collected).

    Scale shape: pure log work — O(runs + compactions) driver-side JSON,
    no data files opened; the returned list feeds ``read_parquet``
    directly."""
    live = live_silver([m for m in silver_log(root) if m.commit_ts <= as_of])
    files = sorted({f for m in live for f in m.files})
    missing = [f for f in files if not F.exists(f)]
    if missing:
        raise SnapshotUnavailableError(
            f"snapshot as_of={as_of} needs {len(missing)} file(s) removed "
            f"by a later compaction/expire, e.g. {missing[0]}"
        )
    return files
