"""CLI driver — the ``ray job submit`` entry point.

Replaces the reference's Step Functions mode dispatch
(``state_machines/stream_pipeline.asl.json:5-30``: ModeChoice +
ComputeWindow) and EventBridge schedules with subcommands on one driver
script:

    ray job submit -- python -m aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray run-stream \\
        --bronze /data/bronze --out /data/lake --run-id r42 \\
        --window-end 2024-02-01T00:00:00 --lookback-minutes 60
    ray job submit -- python -m aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray build-datasets \\
        --out /data/lake --dt-start 2024-01-01 --dt-end 2024-01-30
    python -m aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray gen-data \\
        --out /tmp/bronze --convs 100000 --avg-turns 100 --seed 42

Ray Data auto-initialises inside a submitted job; when run standalone the
guarded ``ray.init`` below owns the session (the driver-contract module
``__ray_entry__.py`` never reaches this code path).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sys


def _ensure_ray():
    """Init Ray if nobody has; return (ray, owns_session)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
        return ray, True
    return ray, False


def cmd_run_stream(args) -> dict:
    from .pipelines.medallion import run_stream

    window = None
    if args.window_end:
        end = _dt.datetime.fromisoformat(args.window_end)
        start = end - _dt.timedelta(minutes=args.lookback_minutes)
        window = (start.isoformat(), end.isoformat())
    return run_stream(
        args.bronze,
        args.out,
        run_id=args.run_id,
        processed_at=args.processed_at or _dt.datetime.now(_dt.UTC).isoformat(),
        ingest_window=window,
        num_parts=args.num_parts,
    )


def cmd_build_datasets(args) -> dict:
    from .pipelines.daily import run_daily

    return run_daily(
        args.out,
        created_at=args.processed_at or _dt.datetime.now(_dt.UTC).isoformat(),
        dt_start=args.dt_start,
        dt_end=args.dt_end,
        inference_days=args.inference_days,
    )


def cmd_bootstrap(args) -> dict:
    from .pipelines.medallion import bootstrap_lake

    return bootstrap_lake(args.out)


def cmd_expire(args) -> dict:
    from .pipelines.medallion import expire_gold_partitions

    return expire_gold_partitions(args.out, keep_from_dt=args.keep_from_dt)


def cmd_reconcile(args) -> dict:
    from .pipelines.medallion import reconcile_lake

    return reconcile_lake(args.out, run_id=args.run_id)


def cmd_compact(args) -> dict:
    from .pipelines.medallion import compact_silver

    return compact_silver(args.out, run_id=args.run_id, min_files=args.min_files)


def cmd_snapshots(args) -> dict:
    from .state.manifest import list_snapshots

    return {"snapshots": list_snapshots(args.out)}


def cmd_lookup(args) -> dict:
    from .pipelines.medallion import lookup_online

    t = lookup_online(args.out, args.conv_ids)
    return {"rows": t.num_rows, "records": t.to_pylist()}


def cmd_gen_data(args) -> dict:
    from .sources.transcripts import generate_bronze_distributed

    n = generate_bronze_distributed(
        args.convs,
        args.avg_turns,
        args.out,
        shards=args.shards,
        seed=args.seed,
        dup_frac=args.dup_frac,
        late_frac=args.late_frac,
    )
    return {"rows": n, "path": args.out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    run_stream_help = (
        "bronze → silver → gold → online. One plan: conversations extend "
        "from carried per-partition state; late or conflicting ones are "
        "recomputed exactly from silver history. Bronze of at most 4 MiB "
        "runs in one Ray task, larger bronze through one keyed exchange. "
        "Rerunning a crashed --run-id resumes it."
    )
    s = sub.add_parser("run-stream", help=run_stream_help, description=run_stream_help)
    s.add_argument("--bronze", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--run-id", required=True)
    s.add_argument("--window-end", default=None, help="ISO ts; with lookback forms the ingest window")
    s.add_argument("--lookback-minutes", type=int, default=60)
    s.add_argument("--num-parts", type=int, default=64)
    s.add_argument("--processed-at", default=None)
    s.set_defaults(fn=cmd_run_stream)

    build_help = (
        "gold → train/val/inference. Gold of at most 4 MiB is built in one "
        "Ray task, larger gold through Ray Data; the printed record names "
        "the plan."
    )
    d = sub.add_parser("build-datasets", help=build_help, description=build_help)
    d.add_argument("--out", required=True)
    d.add_argument("--dt-start", default=None)
    d.add_argument("--dt-end", default=None)
    d.add_argument("--inference-days", type=int, default=2)
    d.add_argument("--processed-at", default=None)
    d.set_defaults(fn=cmd_build_datasets)

    b = sub.add_parser("bootstrap", help="register layer schemas")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_bootstrap)

    rc = sub.add_parser("reconcile", help="verify the run records' silver files, compaction manifests and each partition's state record vs on-disk files/rows; flag orphans")
    rc.add_argument("--out", required=True)
    rc.add_argument("--run-id", default=None)
    rc.set_defaults(fn=cmd_reconcile)

    ex = sub.add_parser("expire", help="C8 retention: drop gold dt= fragments older than a cutoff")
    ex.add_argument("--out", required=True)
    ex.add_argument("--keep-from-dt", required=True, help="YYYY-MM-DD; fragments with dt < this are deleted")
    ex.set_defaults(fn=cmd_expire)

    cp = sub.add_parser("compact", help="coalesce silver run files per partition (crash-safe)")
    cp.add_argument("--out", required=True)
    cp.add_argument("--run-id", default=None)
    cp.add_argument("--min-files", type=int, default=2)
    cp.set_defaults(fn=cmd_compact)

    sn = sub.add_parser("snapshots", help="list silver snapshot commits, runs and compactions, from the run records and compaction manifests (time-travel axis)")
    sn.add_argument("--out", required=True)
    sn.set_defaults(fn=cmd_snapshots)

    lk = sub.add_parser("lookup", help="point/batch online feature lookup")
    lk.add_argument("--out", required=True)
    lk.add_argument("conv_ids", nargs="+")
    lk.set_defaults(fn=cmd_lookup)

    g = sub.add_parser("gen-data", help="deterministic synthetic bronze")
    g.add_argument("--out", required=True)
    g.add_argument("--convs", type=int, default=10_000)
    g.add_argument("--avg-turns", type=int, default=50)
    g.add_argument("--shards", type=int, default=16)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--dup-frac", type=float, default=0.0)
    g.add_argument("--late-frac", type=float, default=0.0)
    g.set_defaults(fn=cmd_gen_data)

    args = p.parse_args(argv)
    ray, owns = _ensure_ray()
    try:
        result = args.fn(args)
        print(json.dumps(result, default=str))
    finally:
        if owns:
            ray.shutdown()
    # the audit command's exit status IS its contract: a pre-resume gate
    # (`reconcile && resume`) must fail on a corrupted lake
    if args.cmd == "reconcile" and not result.get("ok", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
