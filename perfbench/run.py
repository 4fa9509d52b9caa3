"""Lake-path benchmark of the medallion feature engine.

    python3 perfbench/run.py --workload microbatch --seed 1 --seconds 44 --trace 0

Workloads: ``microbatch``, ``query_mix``
(see ``workloads.py`` for why each exists). Inputs are generated from
``--seed`` and cached per seed under ``.perfbench_work/`` in the
checkout; Ray runs locally with ``num_cpus`` = the CPUs this process may
use.

A run sets up ``SETUP_CYCLES`` times (``ray.init`` plus the workload's
first pipelines on a warm-up corpus; ``setup_s`` is the import time plus
the median cycle), then repeats passes of the workload for ``--seconds``,
then checks every output it kept against the reference digests.

Output: a detail line (``{"detail": ...}``: host weather, per-workload
metrics, op counts, mismatches) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` the engine is
traced (``spans.py``) and the metrics are the per-layer ones. Exits
non-zero, printing no result, when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_CYCLES = 2
OBJECT_STORE_BYTES = 384 << 20
# AF_UNIX socket paths are limited to 107 bytes and Ray's deepest socket
# sits up to 64 bytes below its temp dir; a checkout at a deeper path falls back
# to Ray's default temp dir
_SOCKET_SLACK = 64


def _ray_init(run_dir: str, nproc: int, trace_dir: str | None) -> None:
    import ray
    import ray.data

    kw = dict(
        address="local",
        num_cpus=nproc,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
    )
    tmp = os.path.join(run_dir, "ray")
    if len(tmp) + _SOCKET_SLACK <= 107:
        kw["_temp_dir"] = tmp
    if trace_dir is not None:
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.spans.install_worker",
            "env_vars": {"PERFBENCH_TRACE_DIR": trace_dir},
        }
    ray.init(**kw)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs (smoke test)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    t_import = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines import (  # noqa: F401
        daily,
        incremental,
        medallion,
    )
    import_s = time.perf_counter() - t_import

    from perfbench import host
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    nproc = host.cpus()
    weather_start = host.weather()
    work = os.path.join(ROOT, ".perfbench_work")
    # short: Ray's sockets live under <run_dir>/ray (see _SOCKET_SLACK)
    run_dir = os.path.join(work, f"r{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        detail, result = _run(args, import_s, work, run_dir, nproc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail["host_start"] = weather_start
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result), flush=True)
    return 0


def _run(args, import_s: float, work: str, run_dir: str, nproc: int) -> tuple[dict, dict]:
    import ray

    from perfbench import corpus, host, spans
    from perfbench.queries import QUERIES
    from perfbench.workloads import WORKLOADS, Run, tail

    trace_dir = os.path.join(run_dir, "trace") if args.trace else None
    tracer = None
    try:
        inputs = corpus.Inputs(work, args.seed, nproc, toy=args.toy)
        t_inputs = time.perf_counter()
        # every workload builds the checkout-wide query digests on a miss,
        # so the slow oracle runs in the checkout's first run
        corpus.query_digests(work, QUERIES)
        wl = WORKLOADS[args.workload](inputs)
        warm_bronze = inputs.warmup_lake()
        inputs_s = time.perf_counter() - t_inputs

        if trace_dir is not None:
            os.makedirs(trace_dir)
            tracer = spans.Tracer()
            spans.install(tracer)
            spans.count_exchanges(tracer)

        cycles = []
        for i in range(SETUP_CYCLES):
            if i:
                ray.shutdown()
            t0 = time.perf_counter()
            _ray_init(run_dir, nproc, trace_dir)
            wl.warm(run_dir, warm_bronze)
            cycles.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(cycles)

        run = Run(run_dir, args.seconds, tracer)
        host.reset_peak_rss()
        run.on_loop_end = host.peak_rss_mb
        ticks = host.cpu_ticks()
        wl.measure(run)
        steal = host.steal_share(ticks, host.cpu_ticks())
        ray.shutdown()
    finally:
        killed = host.reap_children()

    attempted = len(run.ops)
    failed = sum(1 for _k, _w, ok in run.ops if not ok)
    pass_s = run.best_pass_s()
    # like pass_s, the quietest pass: CPU time does not count stolen time,
    # but a busy host still slows each instruction (shared caches and cores)
    cpu_per_pass_s = min(run.pass_cpu)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "toy": args.toy,
        "host_end": host.weather(),
        "steal_share": steal,
        "inputs_s": inputs_s,
        "setup_cycles_s": cycles,
        "import_s": import_s,
        "passes": len(run.passes),
        # not an end-to-end metric: on a shared host it swings with the
        # hypervisor's steal by more than a regression bound can allow
        "pass_s": pass_s,
        "pass_wall_s": tail(run.passes),
        "pass_cpu_s": tail(run.pass_cpu),
        "ops": {
            k: sum(1 for kk, _w, _ok in run.ops if kk == k)
            for k in sorted({k for k, _w, _ok in run.ops})
        },
        "failed_ops_ratio": failed / attempted if attempted else 1.0,
        "output_checks": run.checked,
        "output_mismatches": len(run.mismatches),
        "mismatched": run.mismatches,
        "killed_pids": killed,
        **run.detail,
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cpu_per_pass_s": (cpu_per_pass_s, "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
    else:
        from perfbench import layers

        metrics = layers.per_layer(tracer, trace_dir, run, wl, pass_s, cpu_per_pass_s, detail)
    result = {
        "correct": run.checked > 0 and not run.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


if __name__ == "__main__":
    sys.exit(main())
