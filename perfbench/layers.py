"""Per-layer metrics of a traced run, named after the engine's modules.

``<module>.<function>_s`` is the summed self time of that function's
spans inside the measured loop; other names are counts or ratios taken
at the same boundaries. The end-to-end metric each one should move, and
on which workload, is listed in ``README.md``. A layer the workload
never enters reads 0.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

from . import spans

# self-time metrics: metric name -> span name
SELF_TIME = {
    "stages.keyed.add_partition_col_s": "stages.keyed.add_partition_col",
    "stages.featurize.gold_features_partition_s": "stages.featurize.gold_features_partition",
    "stages.featurize.dedup_first_s": "stages.featurize.dedup_first",
    "functions.windows.windowed_distinct_s": "functions.windows.windowed_distinct",
    "functions.windows.sessionize_s": "functions.windows.sessionize",
    "functions.windows.trailing_bounds_s": "functions.windows.trailing_bounds",
    "sources.read_parquet_sized_s": "sources.reads.read_parquet_sized",
    "pipelines.medallion.normalize_bronze_s": "pipelines.medallion.normalize_bronze",
    "pipelines.medallion.run_stream_s": "pipelines.medallion.run_stream",
    "pipelines.medallion.write_gold_partition_s": "pipelines.medallion.write_gold_partition",
    "pipelines.medallion.lookup_online_s": "pipelines.medallion.lookup_online",
    "state.manifest.load_manifests_s": "state.manifest.load_manifests",
    "state.manifest.write_manifest_s": "state.manifest.write_manifest",
    "state.manifest.atomic_write_table_s": "state.manifest.atomic_write_table",
    "state.fsio.read_table_s": "state.fsio.read_table",
    "state.feature_put.put_partition_s": "state.feature_put.put_partition",
    "stages.salted.gold_partition_phase_a_s": "stages.salted.gold_partition_phase_a",
    "pipelines.incremental.process_partition_incremental_s":
        "pipelines.incremental.process_partition_incremental",
    "pipelines.incremental.run_stream_incremental_s": "pipelines.incremental.run_stream_incremental",
    "pipelines.incremental.read_gold_incremental_s": "pipelines.incremental.read_gold_incremental",
    "pipelines.daily.run_daily_s": "pipelines.daily.run_daily",
}
# counters summed over the loop: metric name -> counter name
COUNTS = {
    "stages.featurize.rows_in": "stages.featurize.gold_features_partition.rows_in",
    "stages.featurize.rows_out": "stages.featurize.gold_features_partition.rows_out",
    "sources.read_bytes": "sources.reads.read_parquet_sized.bytes",
    "pipelines.medallion.normalize_bronze_rows": "pipelines.medallion.normalize_bronze.rows",
    "state.manifest.load_manifests_calls": "state.manifest.load_manifests.calls",
    "state.manifest.files_written": "state.manifest.atomic_write_table.files_written",
    "state.fsio.read_table_bytes": "state.fsio.read_table.bytes",
    "pipelines.medallion.write_gold_partition_files": "pipelines.medallion.write_gold_partition.files",
    "state.feature_put.put_errors": "state.feature_put.put_partition.errors",
    "pipelines.daily.rows_written": "pipelines.daily.run_daily.rows_written",
}
UNITS = {"_s": "s", "_bytes": "bytes", "_ratio": "ratio", "_over_p50": "ratio"}


def unit(name: str) -> str:
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _partition_walls(lake: str) -> list[float]:
    """Per-(partition, run) wall seconds of stream runs, from the lake's
    own silver and gold manifests."""
    walls: dict[tuple, float] = {}
    for layer in ("silver", "gold"):
        d = os.path.join(lake, layer, "_manifests")
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            if name.startswith(f"{layer}__") and name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    m = json.load(f)
                key = (m["partition_key"], m["run_id"])
                walls[key] = walls.get(key, 0.0) + float(m["wall_s"])
    return list(walls.values())


def per_layer(tracer, trace_dir, run, wl, pass_s: float, cpu_per_pass_s: float,
              detail: dict) -> dict:
    t_lo, t_hi = run.window
    sp, counts = spans.collect(tracer, trace_dir, t_lo, t_hi)
    parent = spans.link_parents(sp, tracer.pid)
    s = spans.summarize(sp, counts, parent, t_hi - t_lo)
    self_s, totals = s["self_s"], s["counts"]

    m: dict[str, float] = {name: self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    m.update({name: totals.get(c, 0.0) for name, c in COUNTS.items()})
    m["ray_residual_s"] = s["ray_residual_s"]
    for mod in spans.STAGE_MODULES:
        m[f"{mod}_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))

    n_ops = sum(len(run.walls(k)) for k in wl.op_kinds)
    m["stages.keyed.exchanges"] = _ratio(totals.get("stages.keyed.exchanges", 0.0), n_ops)
    m["stages.featurize.dedup_keep_ratio"] = _ratio(
        totals.get("stages.featurize.dedup_first.rows_out", 0.0),
        totals.get("stages.featurize.dedup_first.rows_in", 0.0),
    )
    m["pipelines.incremental.late_conv_ratio"] = _ratio(
        totals.get("pipelines.incremental.process_partition_incremental.late_convs", 0.0),
        totals.get("pipelines.incremental.process_partition_incremental.convs", 0.0),
    )
    m["pipelines.incremental.state_bytes"] = float(detail.get("state_bytes", 0))

    # reads issued by lookups: read_table spans whose parent is a lookup
    by_id = {x[0]: x for x in sp}
    lookups = [x for x in sp if x[2] == "pipelines.medallion.lookup_online"]
    lookup_reads = sum(
        1 for x in sp
        if x[2] == "state.fsio.read_table"
        and by_id.get(parent.get(x[0]), (None, None, ""))[2] == "pipelines.medallion.lookup_online"
    )
    m["pipelines.medallion.lookup_partitions_read"] = _ratio(lookup_reads, len(lookups))

    walls = _partition_walls(os.path.join(run.work, "lake"))
    p50 = statistics.median(walls) if walls else 0.0
    m["pipelines.medallion.partition_wall_p50_s"] = p50
    m["pipelines.medallion.partition_skew_p99_over_p50"] = (
        _ratio(float(np.percentile(walls, 99)), p50) if walls else 0.0
    )

    m["traced.pass_s"] = pass_s
    m["traced.cpu_per_pass_s"] = cpu_per_pass_s
    m["trace.spans"] = float(len(sp))

    detail["trace"] = {
        "wall_s": t_hi - t_lo,
        "calls": s["calls"],
        "exchanges_per_entry": spans.per_entry_counts(sp, counts, parent, "stages.keyed.exchanges"),
    }
    return {k: (v, unit(k)) for k, v in sorted(m.items())}
