"""The daily job: gold → training / validation / inference datasets.

Re-expresses ``spark_jobs/build_datasets.py`` (trace in SURVEY.md §3.2):
dt-range fragment pruning (M9 — physical ``dt=`` Hive dirs, reference
build_datasets.py:51-53) → label derivation (M8) → deterministic
splitmix64 hash split (O2 — stable under any parallelism, unlike Spark's
randomSplit seed, build_datasets.py:63) → the train / validation split
and the inference projection of the last ``inference_days`` dts, written
with overwrite semantics (build_datasets.py:68) + a metadata manifest
with counts (A1/S6). The recent-dt list comes from directory names.

The size of the gold it reads picks the plan, by the rule ``run_stream``
uses. Gold of one block (``sources.reads.one_block``, at most
``SMALL_BLOCK`` = 4 MiB on disk) — a daily build's usually is — is built
in ONE Ray task with no Ray Data: each needed gold file is read once, the
kernels run on the concatenated table, and each dataset is written as one
Parquet file; the counts are the written tables' rows. Larger gold runs as
Ray Data pipelines: ONE streaming pass writing both splits via
``partition_cols`` (S5) and renamed into place, a second for inference,
counts from Parquet footers (metadata only). Both plans write the same
rows with the same Arrow schemas; ``metadata.json`` names the plan and
the input bytes.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .medallion import gold_dt_fragments
from ..state import fsio as F
from ..state import manifest as M
from .queries_relational import split_bucket_str
from ..sources.reads import one_block, parquet_files, read_parquet_sized
from ..stages.keyed import run_one_task

LABEL_THRESHOLD = 1000  # is_long := len(text) > 1000 (reference: amount > 1000)
TRAIN_PCT = 80


def label_batch(t: pa.Table) -> pa.Table:
    is_long = pc.cast(
        pc.greater(pc.utf8_length(t["text"]), LABEL_THRESHOLD), pa.int32()
    )
    return t.append_column("is_long", is_long)


def split_column(t: pa.Table, train_pct: int = TRAIN_PCT) -> pa.Table:
    """Append the deterministic split assignment (vectorized siphash +
    splitmix64 over (conv_id, turn_idx) — no per-row Python)."""
    conv = t["conv_id"].combine_chunks()
    ti = np.asarray(t["turn_idx"].combine_chunks().cast(pa.int64()))
    bucket = split_bucket_str(conv, ti)
    split = np.where(bucket < train_pct, "train", "validation")
    return t.append_column("split", pa.array(split, pa.string()))


def _dir_row_count(d: str) -> int:
    """Row count from parquet footers only — no data pages read."""
    return sum(
        F.parquet_rows(f)
        for f in F.glob(F.join(d, "**", "*.parquet"), recursive=True)
    )


def _write_dataset(t: pa.Table, out_dir: str) -> int:
    """Replace ``out_dir`` with one Parquet file of ``t`` (none when ``t``
    is empty, as the Ray Data plan leaves it); returns the rows written."""
    if F.isdir(out_dir):
        F.rmtree(out_dir)
    if t.num_rows:
        M.atomic_write_table(t, F.join(out_dir, "data.parquet"))
    else:
        F.makedirs(out_dir, exist_ok=True)
    return t.num_rows


def _build_one_task(files: list[str], inf_files: list[str], datasets_root: str) -> dict:
    """The one-block plan: read every needed gold file once, label and split
    the range's rows, project the inference days', write the three
    datasets. Returns their row counts."""
    read = {f: F.read_table(f) for f in sorted({*files, *inf_files})}

    def concat(fs):
        return pa.concat_tables([read[f] for f in fs], promote_options="default")

    labeled = split_column(label_batch(concat(files)))
    split = labeled["split"]
    labeled = labeled.drop_columns(["split"])
    counts = {
        which: _write_dataset(
            labeled.filter(pc.equal(split, which)), F.join(datasets_root, which)
        )
        for which in ("train", "validation")
    }
    inf = concat(inf_files).drop_columns(["dt", "text"])
    counts["inference"] = _write_dataset(inf, F.join(datasets_root, "inference"))
    return counts


def _build_dataset(files: list[str], inf_files: list[str], datasets_root: str) -> dict:
    """The Ray Data plan: one sized read → label → split pass written with
    ``partition_cols=["split"]`` and renamed into place, then the inference
    read → projection → write. Counts come from Parquet footers."""
    split_root = F.join(datasets_root, "_splits")
    ds = read_parquet_sized(files)

    def drop_hive_part(t: pa.Table) -> pa.Table:
        return t.drop_columns(["part"]) if "part" in t.column_names else t

    ds = ds.map_batches(drop_hive_part, batch_format="pyarrow", zero_copy_batch=True)
    labeled = ds.map_batches(label_batch, batch_format="pyarrow", zero_copy_batch=True)
    with_split = labeled.map_batches(
        split_column, batch_format="pyarrow", zero_copy_batch=True
    )
    with_split.write_parquet(split_root, partition_cols=["split"])

    counts = {}
    for which in ("train", "validation"):
        out_dir = F.join(datasets_root, which)
        if F.isdir(out_dir):
            F.rmtree(out_dir)
        src = F.join(split_root, f"split={which}")
        if F.isdir(src):
            F.replace(src, out_dir)
        else:
            F.makedirs(out_dir, exist_ok=True)
        counts[which] = _dir_row_count(out_dir)
    F.rmtree(split_root, ignore_errors=True)

    inf_dir = F.join(datasets_root, "inference")
    if F.isdir(inf_dir):
        F.rmtree(inf_dir)
    inf = read_parquet_sized(inf_files).map_batches(
        drop_hive_part, batch_format="pyarrow", zero_copy_batch=True
    )
    inf.drop_columns(["dt", "text"]).write_parquet(inf_dir)
    counts["inference"] = _dir_row_count(inf_dir)
    return counts


def run_daily(
    out_root: str,
    *,
    created_at: str,
    dt_start: str | None = None,
    dt_end: str | None = None,
    inference_days: int = 2,
    feature_version: str = "1.0",
) -> dict:
    """Build train/validation/inference datasets from the gold layer.
    Returns the ``metadata.json`` record: the dt range, the inference dts,
    per-dataset ``counts``, ``plan`` (``"one_task"`` or ``"dataset"``,
    chosen from the input's size — see the module docstring; ``None`` for
    a range with no gold, which builds empty datasets without Ray) and
    ``input_bytes`` (on-disk bytes of the gold files the build reads).
    ``inference_days`` below 1 raises ``ValueError`` before anything is
    written: there is no empty or negative suffix of the gold's dts."""
    if inference_days < 1:
        raise ValueError(f"inference_days must be >= 1, got {inference_days}")
    gold_dir = F.join(out_root, "gold")
    files, _ = gold_dt_fragments(gold_dir, dt_start, dt_end)
    datasets_root = F.join(out_root, "datasets")

    split_root = F.join(datasets_root, "_splits")
    if F.isdir(split_root):
        F.rmtree(split_root)  # a crashed Ray Data build's staging dir
    plan, input_bytes, recent = None, 0, []
    if not files:
        # empty lake / dt range matching no fragments: write empty
        # datasets + metadata instead of crashing in read_parquet([])
        counts = {
            which: _write_dataset(pa.table({}), F.join(datasets_root, which))
            for which in ("train", "validation", "inference")
        }
    else:
        # inference: the last N dt fragments of the whole gold (M10); never
        # empty while the range has gold
        _, all_dts = gold_dt_fragments(gold_dir)
        recent = all_dts[-inference_days:]
        inf_files, _ = gold_dt_fragments(gold_dir, recent[0], recent[-1])
        input_bytes = sum(size for _, size in parquet_files(sorted({*files, *inf_files})))
        if one_block(input_bytes):
            plan = "one_task"
            counts = run_one_task(_build_one_task, files, inf_files, datasets_root)
        else:
            plan = "dataset"
            counts = _build_dataset(files, inf_files, datasets_root)

    meta = {
        "created_at": created_at,
        "dt_range": [dt_start, dt_end],
        "inference_dts": recent,
        "counts": counts,
        "plan": plan,
        "input_bytes": input_bytes,
        "feature_version": feature_version,
        "label": f"is_long := utf8_length(text) > {LABEL_THRESHOLD}",
    }
    meta_path = F.join(datasets_root, "metadata.json")
    F.write_text_atomic(meta_path, json.dumps(meta, indent=1))
    return meta
