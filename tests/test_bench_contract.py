"""The engine surface ``perfbench/`` relies on, checked without running
the benchmark: every traced ``(module, function)`` in
``perfbench.spans.TARGETS`` is a module-level function (``--trace 1``
wraps each by ``getattr``), and every entry point the workloads call
still accepts the arguments they pass."""

import importlib
import inspect

import pytest

from perfbench import spans

PKG = spans.PKG


@pytest.mark.parametrize(
    "module,fn", [(m, f) for m, f, _counter in spans.TARGETS]
)
def test_trace_target_resolves(module, fn):
    obj = getattr(importlib.import_module(f"{PKG}.{module}"), fn)
    assert inspect.isfunction(obj), (module, fn)
    assert obj.__qualname__ == fn, (module, fn, obj.__qualname__)


def _accepts(module, fn, *args, **kwargs):
    obj = getattr(importlib.import_module(f"{PKG}.{module}"), fn)
    inspect.signature(obj).bind(*args, **kwargs)


def test_benchmark_calls_bind():
    _accepts("pipelines.medallion", "run_stream", "bronze", "lake",
             run_id="w000", processed_at="2024-02-01T00:00:00")
    _accepts("pipelines.incremental", "run_stream_incremental", "bronze", "lake",
             run_id="w000", run_seq=0, processed_at="2024-02-01T00:00:00")
    _accepts("pipelines.incremental", "read_gold_incremental", "lake")
    _accepts("pipelines.medallion", "lookup_online", "lake", ["conv_1"])
    _accepts("pipelines.daily", "run_daily", "lake",
             created_at="2024-02-01T00:00:00")
