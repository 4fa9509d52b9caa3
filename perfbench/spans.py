"""Span tracing for the traced benchmark run (``--trace 1``).

The benchmark records spans from its own files only: :func:`install`
replaces the engine functions listed in :data:`TARGETS` with
:class:`Traced` wrappers — in the main process, and in every Ray worker
through ``ray.init(runtime_env={"worker_process_setup_hook": ...})``.
A name bound by ``from … import`` is patched in every already-imported
module of the package that holds it, because that is where it is used.

Each span is ``(id, parent, name, start, end, pid, tid)`` on the host's
monotonic clock, which every process shares, plus counts recorded at
the same boundary. A counter runs after its span has closed, inside a
``perfbench.count`` span of its own, so neither the layer's self time
nor ``ray_residual_s`` holds the benchmark's counting work. Spans stay
in memory; the main process keeps all of its own, and a Ray worker,
which cannot be told when the run ends, appends its buffer to
``<trace dir>/spans-<pid>.jsonl`` when a top-level call on a thread
returns (the end of that task's work). Each such write is recorded as a
``perfbench.flush`` span, so its I/O is not counted as Ray overhead
either. The main process reads every file once the measured loop has
ended.

A span with no parent in its own thread adopts the innermost span, in
another thread of the same process or else in the main process, whose interval
contains it: that links Ray task work to the main-process call that caused it.
Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time

PKG = "aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray"


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _rows(t) -> int:
    return int(getattr(t, "num_rows", 0) or 0)


def _c_rows(a, k, out):
    return {"rows_in": _rows(a[0]), "rows_out": _rows(out)}


def _c_normalize(a, k, out):
    return {"rows": _rows(a[0])}


def _c_read_table(a, k, out):
    return {"bytes": int(out.nbytes)}


def _c_one_file(a, k, out):
    return {"files_written": 1}


def _c_files(a, k, out):
    return {"files": len(out)}


def _c_put(a, k, out):
    return {"errors": int(out.get("errors", 0))}


def _c_load_manifests(a, k, out):
    return {"calls": 1}


def _c_incremental(a, k, out):
    import pyarrow.compute as pc

    convs = int(pc.count_distinct(a[0]["conv_id"]).as_py()) if _rows(a[0]) else 0
    return {"convs": convs, "late_convs": int(out["late_convs"][0].as_py())}


def _c_daily(a, k, out):
    return {"rows_written": int(sum(out.get("counts", {}).values()))}


def _c_read_sized(a, k, out):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources import reads

    return {"bytes": int(reads._total_bytes(a[0]))}


# (module under the package, function, counter or None). The span name is
# "<module>.<function>"; per-layer metrics are named after it.
TARGETS = [
    ("sources.reads", "read_parquet_sized", _c_read_sized),
    ("stages.keyed", "add_partition_col", None),
    ("stages.featurize", "gold_features_partition", _c_rows),
    ("stages.featurize", "dedup_first", _c_rows),
    ("functions.windows", "windowed_distinct", None),
    ("functions.windows", "sessionize", None),
    ("functions.windows", "trailing_bounds", None),
    ("stages.salted", "gold_partition_phase_a", None),
    ("state.manifest", "load_manifests", _c_load_manifests),
    ("state.manifest", "write_manifest", None),
    ("state.manifest", "atomic_write_table", _c_one_file),
    ("state.fsio", "read_table", _c_read_table),
    ("state.feature_put", "put_partition", _c_put),
    ("pipelines.medallion", "normalize_bronze", _c_normalize),
    ("pipelines.medallion", "write_gold_partition", _c_files),
    ("pipelines.medallion", "latest_per_conv", None),
    ("pipelines.medallion", "_gold_partition_bounded", None),
    ("pipelines.medallion", "run_stream", None),
    ("pipelines.medallion", "lookup_online", None),
    ("pipelines.incremental", "process_partition_incremental", _c_incremental),
    ("pipelines.incremental", "run_stream_incremental", None),
    ("pipelines.incremental", "read_gold_incremental", None),
    ("pipelines.daily", "run_daily", _c_daily),
]
# every public function of these modules is traced, named by module
STAGE_MODULES = [
    "stages.ppjoin", "stages.dedup", "stages.globalorder", "stages.skewjoin", "stages.graph",
]
# the calls the benchmark itself makes: their self time is the engine's
# orchestration plus Ray's exchange and scheduling (see ray_residual_s)
ENTRY = {
    "pipelines.medallion.run_stream",
    "pipelines.medallion.lookup_online",
    "pipelines.incremental.run_stream_incremental",
    "pipelines.incremental.read_gold_incremental",
    "pipelines.daily.run_daily",
}
QUERY_PREFIX = "query."
# Ray Data calls that plan a keyed exchange (an all-to-all operator);
# GroupedData.map_groups / aggregate are counted too
EXCHANGE_METHODS = ["sort", "repartition", "random_shuffle", "join"]


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counts of one process. ``sink`` is the directory a
    worker flushes to; the main process passes ``None`` and keeps everything
    in memory."""

    def __init__(self, sink: str | None = None):
        self.sink = sink
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []  # (span id, name, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str):
        st = self._stack()
        sid = next(self._ids) + (self.pid << 32)
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, name, t0, t1, self.pid, threading.get_ident())
                )

    def count(self, sid: int, name: str, value: float) -> None:
        with self._lock:
            self.counts.append((sid, name, value))

    def maybe_flush(self) -> None:
        """In a worker, write the buffer once no span is open on this
        thread."""
        if self.sink is not None and not self._stack():
            self.flush()

    def flush(self) -> None:
        t0 = time.perf_counter()
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], []
        if not spans and not counts:
            return
        path = os.path.join(self.sink, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps({"spans": spans, "counts": counts}) + "\n")
            f.flush()
            # the write's own span goes out on the same open file
            sid = next(self._ids) + (self.pid << 32)
            rec = (sid, None, "perfbench.flush", t0, time.perf_counter(),
                   self.pid, threading.get_ident())
            f.write(json.dumps({"spans": [rec], "counts": []}) + "\n")


_TRACER: Tracer | None = None  # the process's tracer; set by install()


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


class Traced:
    """Callable stand-in for an engine function. Pickles by reference to
    its module attribute, so a Ray task shipped from the main process resolves
    to the worker's own wrapper (or to the original function in a
    process without tracing)."""

    def __init__(self, fn, module: str, attr: str, name: str, counter=None):
        functools.update_wrapper(self, fn)
        self.fn, self.module, self.attr = fn, module, attr
        self.name, self.counter = name, counter

    def __call__(self, *args, **kwargs):
        tr = _TRACER
        if tr is None:
            return self.fn(*args, **kwargs)
        with tr.span(self.name) as sid:
            out = self.fn(*args, **kwargs)
        if self.counter is not None:
            with tr.span("perfbench.count"):
                for k, v in self.counter(args, kwargs, out).items():
                    tr.count(sid, f"{self.name}.{k}", v)
        tr.maybe_flush()
        return out

    def __reduce__(self):
        return (_resolve, (self.module, self.attr))


def _targets():
    import inspect

    for mod, fn, counter in TARGETS:
        yield f"{PKG}.{mod}", fn, mod, counter
    for mod in STAGE_MODULES:
        m = importlib.import_module(f"{PKG}.{mod}")
        for fn, obj in vars(m).items():
            if (
                not fn.startswith("_")
                and inspect.isfunction(obj)
                and not inspect.isgeneratorfunction(obj)
                and obj.__module__ == m.__name__
            ):
                yield m.__name__, fn, mod, None


def install(tracer: Tracer) -> None:
    """Make ``tracer`` this process's tracer and wrap every target."""
    global _TRACER
    _TRACER = tracer
    for sub in ("medallion", "incremental", "daily"):
        importlib.import_module(f"{PKG}.pipelines.{sub}")
    for module, fn, short, counter in list(_targets()):
        m = importlib.import_module(module)
        orig = getattr(m, fn)
        if isinstance(orig, Traced):
            continue
        wrapped = Traced(orig, module, fn, f"{short}.{fn}", counter)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith(PKG):
                for attr, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, attr, wrapped)


def install_worker() -> None:
    """``worker_process_setup_hook`` of traced runs; the main process passes
    the trace directory in ``PERFBENCH_TRACE_DIR``."""
    install(Tracer(os.environ["PERFBENCH_TRACE_DIR"]))


def count_exchanges(tracer: Tracer) -> None:
    """Count, in the main process, each Ray Data call made inside a span that
    plans an all-to-all exchange, attributed to the innermost open span.
    A call made inside another counted call (``map_groups`` sorting, a
    join repartitioning) is the same exchange and is not counted again."""
    import ray.data
    from ray.data.grouped_data import GroupedData

    local = threading.local()

    def wrap(cls, meth):
        orig = getattr(cls, meth)

        @functools.wraps(orig)
        def inner(self, *a, **k):
            depth = getattr(local, "depth", 0)
            st = tracer._stack()
            if depth == 0 and st:
                tracer.count(st[-1], "stages.keyed.exchanges", 1)
            local.depth = depth + 1
            try:
                return orig(self, *a, **k)
            finally:
                local.depth = depth

        setattr(cls, meth, inner)

    for meth in EXCHANGE_METHODS:
        if hasattr(ray.data.Dataset, meth):
            wrap(ray.data.Dataset, meth)
    for meth in ("map_groups", "aggregate"):
        wrap(GroupedData, meth)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def collect(main: Tracer, sink: str, t_lo: float, t_hi: float):
    """All spans and counts recorded inside ``[t_lo, t_hi]``."""
    spans, counts = list(main.spans), list(main.counts)
    for path in sorted(glob.glob(os.path.join(sink, "spans-*.jsonl"))):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                spans.extend(tuple(s) for s in rec["spans"])
                counts.extend(tuple(c) for c in rec["counts"])
    spans = [s for s in spans if s[3] >= t_lo and s[4] <= t_hi]
    keep = {s[0] for s in spans}
    counts = [c for c in counts if c[0] in keep]
    return spans, counts


def link_parents(spans: list[tuple], main_pid: int) -> dict[int, int | None]:
    """Span id -> parent id, adopting a parent across threads/processes
    for spans that had none in their own thread."""
    parent = {s[0]: s[1] for s in spans}
    by_thread: dict[tuple, list] = collections.defaultdict(list)
    for s in spans:
        by_thread[(s[5], s[6])].append(s)
    for lst in by_thread.values():
        lst.sort(key=lambda s: s[3])
    starts = {k: [s[3] for s in v] for k, v in by_thread.items()}

    def innermost(key, s):
        lst, st = by_thread[key], starts[key]
        i = bisect.bisect_right(st, s[3]) - 1
        while i >= 0:
            c = lst[i]
            if c[0] != s[0] and c[3] <= s[3] and s[4] <= c[4]:
                return c
            i -= 1
        return None

    main_threads = [k for k in by_thread if k[0] == main_pid]
    for s in spans:
        if s[1] is not None:
            continue
        cands = [k for k in by_thread if k[0] == s[5] and k[1] != s[6]]
        if s[5] != main_pid:
            cands += main_threads
        best = None
        for key in cands:
            c = innermost(key, s)
            if c is not None and (best is None or c[4] - c[3] < best[4] - best[3]):
                best = c
        parent[s[0]] = best[0] if best is not None else None
    return parent


def self_times(spans: list[tuple], parent: dict) -> dict[int, float]:
    kids: dict[int, list] = collections.defaultdict(list)
    for s in spans:
        p = parent.get(s[0])
        if p is not None:
            kids[p].append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, end = 0.0, s[3]
        for a, b in sorted(kids.get(s[0], ())):
            a, b = max(a, end, s[3]), min(b, s[4])
            if b > a:
                covered += b - a
                end = b
        out[s[0]] = (s[4] - s[3]) - covered
    return out


def summarize(spans, counts, parent, wall_s: float) -> dict:
    """Per-name self time, call count and counter totals, plus
    ``ray_residual_s``: wall minus the self time of every span that is
    not a benchmark entry call (entries' self time is Ray's exchange and
    scheduling plus main-process orchestration, which is what the residual
    measures)."""
    self_t = self_times(spans, parent)
    by_name_s: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, int] = collections.defaultdict(int)
    for s in spans:
        by_name_s[s[2]] += self_t[s[0]]
        calls[s[2]] += 1
    totals: dict[str, float] = collections.defaultdict(float)
    for _sid, name, value in counts:
        totals[name] += value
    layer_self = sum(
        self_t[s[0]] for s in spans
        if s[2] not in ENTRY and not s[2].startswith(QUERY_PREFIX)
    )
    return {
        "self_s": dict(by_name_s),
        "calls": dict(calls),
        "counts": dict(totals),
        "ray_residual_s": wall_s - layer_self,
    }


def per_entry_counts(spans, counts, parent, name: str) -> dict[str, float]:
    """Counter ``name`` summed per entry span name (e.g. exchanges per
    query), following parents up to the entry."""
    by_id = {s[0]: s for s in spans}

    def entry_of(sid):
        while sid is not None and sid in by_id:
            nm = by_id[sid][2]
            if nm in ENTRY or nm.startswith(QUERY_PREFIX):
                return nm
            sid = parent.get(sid)
        return None

    out: dict[str, float] = collections.defaultdict(float)
    for sid, cname, value in counts:
        if cname == name:
            out[entry_of(sid) or "?"] += value
    return dict(out)
