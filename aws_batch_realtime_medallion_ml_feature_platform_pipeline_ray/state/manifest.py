"""Lineage manifests: the silver snapshot log and maintenance audits.

Generalizes the reference's ad-hoc metadata sink (``spark_jobs/
build_datasets.py:76-84, 116-139``): every silver partition write lands
atomically (write temp → rename) together with a JSON manifest recording
its file, row counts, ts ranges and wall time. These manifests are the
snapshot log (``list_snapshots`` / ``snapshot_files``), and late-data
backfill targets partitions whose ``max_ts`` reaches the late window.
``compact_silver`` (``silver_compact``) and gold expiry (``expire``)
write manifests of the same shape. Resume does not read them: a stream
partition whose ``state/part=*/state.arrow`` names the run is done
(pipelines/incremental.py), which fixes the reference's
append-duplication hazard (``silver_and_gold.py:75`` — rerunning a
window appends duplicate rows).
"""

from __future__ import annotations

import json
import os
import time
import uuid
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


def read_manifest(root: str, stage: str, partition_key: str, run_id: str) -> PartitionManifest:
    with F.open_(manifest_path(root, stage, partition_key, run_id)) as f:
        return PartitionManifest(**json.load(f))


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


def backfill_targets(root: str, stage: str, late_min_ts: str) -> set[str]:
    """B12 targeting: partition keys whose data could be affected by turns
    whose event time is >= ``late_min_ts`` (ISO string, lexicographic on
    ISO timestamps == chronological). Windows are per-entity, so the blast
    radius of late data is exactly the partitions whose ``max_ts`` reaches
    past the late window start; everything else can be skipped on the
    backfill rerun. The reference parsed ``watermark_delay_minutes``
    (silver_and_gold.py:31) but never used it — here it bounds
    ``late_min_ts = window_start - watermark_delay``."""
    from datetime import datetime

    # parse both sides: manifests store str(datetime) with a SPACE
    # separator while callers may pass ISO-8601 'T' — a lexicographic
    # compare across the two formats silently skips same-day partitions
    # (' ' < 'T')
    bound = datetime.fromisoformat(late_min_ts)
    out = set()
    for m in load_manifests(root, stage):
        if m.max_ts is not None and datetime.fromisoformat(m.max_ts) >= bound:
            out.add(m.partition_key)
    return out


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
# Snapshot isolation (time travel) over the manifest log
# ---------------------------------------------------------------------------


class SnapshotUnavailableError(RuntimeError):
    """The requested snapshot's files were garbage-collected by a later
    compaction/expire — the manifest log still describes the snapshot,
    but its data no longer exists (same semantics as reading a Delta
    version past VACUUM's retention window)."""


def list_snapshots(root: str, stage: str) -> list[dict]:
    """Distinct commits of ``stage`` (+ its ``{stage}_compact`` rewrites)
    in commit order — the valid ``as_of`` axis for ``snapshot_files``.
    One entry per (run_id, stage) with its max commit_ts across
    partitions (a run's partitions commit within one logical write)."""
    runs: dict[tuple[str, str], float] = {}
    for m in load_manifests(root):
        if m.stage not in (stage, f"{stage}_compact"):
            continue
        k = (m.run_id, m.stage)
        runs[k] = max(runs.get(k, float("-inf")), m.commit_ts)
    return [
        {"run_id": rid, "stage": st, "commit_ts": ts}
        for (rid, st), ts in sorted(runs.items(), key=lambda kv: kv[1])
    ]


def snapshot_files(root: str, stage: str, as_of: float) -> list[str]:
    """The exact file set of ``stage`` as of wall-clock ``as_of``
    (epoch seconds): per partition, the latest ``{stage}_compact``
    rewrite committed at or before ``as_of`` supersedes everything
    older, plus every ``stage`` run committed after that rewrite and at
    or before ``as_of``. Raises :class:`SnapshotUnavailableError` if any
    selected file was deleted by a LATER compaction/expire (the
    snapshot's history has been garbage-collected).

    Scale shape: pure manifest-log work — O(#manifests) driver-side JSON,
    no data files opened; the returned list feeds ``read_parquet``
    directly."""
    compact_stage = f"{stage}_compact"
    compacts_by_part: dict[str, list[PartitionManifest]] = {}
    runs_by_part: dict[str, list[PartitionManifest]] = {}
    for m in load_manifests(root):
        if m.commit_ts > as_of:
            continue
        if m.stage == compact_stage:
            compacts_by_part.setdefault(m.partition_key, []).append(m)
        elif m.stage == stage:
            runs_by_part.setdefault(m.partition_key, []).append(m)
    files: list[str] = []
    for part in sorted(set(runs_by_part) | set(compacts_by_part)):
        comps = compacts_by_part.get(part, [])
        # a file is superseded iff SOME compaction at/before as_of
        # actually read it — the union over ALL such compactions, so a
        # run coalesced by an EARLIER rewrite (whose own output a later
        # rewrite coalesced in turn) stays superseded through the chain
        superseded: set[str] = set()
        floor_legacy = float("-inf")  # pre-source_files manifests:
        for c in comps:               # fall back to their commit_ts floor
            src = c.extra.get("source_files")
            if src is None:
                floor_legacy = max(floor_legacy, c.commit_ts)
            else:
                superseded.update(src)
        if comps:
            latest = max(comps, key=lambda c: c.commit_ts)
            files.extend(latest.files)
        for m in runs_by_part.get(part, []):
            if m.commit_ts <= floor_legacy:
                continue
            files.extend(f for f in m.files if f not in superseded)
    missing = [f for f in files if not F.exists(f)]
    if missing:
        raise SnapshotUnavailableError(
            f"snapshot as_of={as_of} needs {len(missing)} file(s) removed "
            f"by a later compaction/expire, e.g. {missing[0]}"
        )
    return sorted(set(files))
