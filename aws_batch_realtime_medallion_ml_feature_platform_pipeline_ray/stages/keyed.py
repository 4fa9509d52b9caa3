"""The keyed exchange: hash-partition by entity key, then whole-partition tasks.

Everything wide in the reference is keyed by ``card_id`` (our ``conv_id``):
dedup, window features, upsert (SURVEY.md §4.2). Instead of per-group
``map_groups`` over millions of tiny conversations (a Python call per conv),
we add a ``__part = hash(conv_id) % P`` column in a vectorized
``map_batches``, then ``groupby("__part").map_groups`` so each Ray task
receives a *whole hash partition* as one Arrow table and runs the fused,
segmented, vectorized pass over thousands of conversations at once
(functions/windows.py). One all-to-all exchange serves dedup + sort +
lag/lead + sessionization + rolling windows + as-of probe.

Size rule: the exchange is for data that does not fit one block. An
input of one block under the sized-read rule (``sources.reads.one_block``:
``num_blocks_for`` == 1, at most 4 MiB) skips it: ONE Ray task tags
``__part`` with :func:`add_partition_col`, cuts the table with
:func:`split_by_partition` into the same partitions the exchange would
form, and calls the same per-partition function on each, in ascending
order. These follow it:

- the stream job (``pipelines/medallion.run_stream``) and the daily build;
- :func:`map_partitions_by_key` and :func:`cogroup_by_key` (and so
  :func:`fold_by_keys`), connected components (``stages/graph.py``) and
  the skew join (``stages/skewjoin.py``);
- :func:`sum_partials`, whose one task folds with pyarrow ``group_by``
  instead of ``groupby().aggregate`` + ``repartition(1)``;
- the global order (``stages/globalorder.py``), whose one task sorts with
  ``pc.sort_indices`` instead of ``Dataset.sort`` and scans directly.

A stage learns its input's size from Ray's metadata when Ray knows it
without running the plan (:func:`_bytes_hint`); otherwise it materializes
the input and reads the exact size, and a larger input is exchanged from
that materialized dataset, so nothing upstream runs twice. The one task's
output is the result Dataset's one block; it never passes through the
driver.

Scale note: P should be ~2-4x total cluster cores and sized so one
partition (~rows/P) fits a worker heap; at 100 TB that is P ~ 1e5-1e6 —
the groupby shuffle is Ray Data's sort-based exchange which streams and
spills, never materializing the dataset on one node.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.reads import one_block

PART_COL = "__part"


def tune_shuffle_context() -> None:
    """Engine default for the keyed exchange: push-based sort shuffle.

    Measured on the 8.8M-turn scaling corpus (32 CPUs): pull-based sort
    shuffle has an ~8 s coordination floor independent of payload bytes;
    push-based cuts the fused gold pass 9.6 s → 4.1 s and lifts 8→32-CPU
    scaling efficiency from 0.38 to ~0.8 (it pipelines merge work instead
    of a full map-barrier, per the Exoshuffle design). Process-local
    config; safe to set before or after ``ray.init``.
    """
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        DataContext.get_current().shuffle_strategy = (
            ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        )
    except ImportError:  # older/newer Ray without the enum: keep default
        pass

# Target bytes per hash partition for the derived partition count: small
# enough that a whole partition (an Arrow table handed to one task) fits a
# worker heap with headroom, large enough that per-task overhead amortizes.
TARGET_PART_BYTES = 128 << 20
_MAX_PARTS = 1 << 20


def derive_num_parts(input_bytes: int | None = None) -> int:
    """Partition count derived from the CLUSTER and (optionally) the DATA
    instead of a per-module constant: ``max(cluster CPUs,
    input_bytes / 128 MiB)``, capped at 2^20.

    The CPU floor keeps all cores busy; the bytes term takes over at
    cluster scale (100 TB → ~800 K partitions) so one partition never
    outgrows a worker heap. The floor is deliberately 1x cores, not the
    folkloric 2-4x: per-round keyed-exchange overhead grows ~linearly
    with partition count, and on iterative pipelines (connected
    components: 2 exchanges x O(log d) rounds) the difference is brutal
    — measured 11.5 s at 32 parts vs 39.9 s at 96 parts for the
    mutual-kNN CC at sf0.1 / 32 CPUs, with single-exchange queries flat
    to slightly worse. Long straggler-prone stages that want finer waves
    (the 70 M-turn scaling corpus runs 8x cores) should pass an explicit
    ``num_parts``.

    Correctness is partition-count-invariant throughout the engine
    (block-invariance suites), so the derived count only affects
    performance. Falls back to ``os.cpu_count()`` when Ray is not
    initialised (pure-local unit tests)."""
    cpus = 0
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        pass
    if not cpus:
        import os

        cpus = os.cpu_count() or 8
    parts = cpus
    if input_bytes:
        parts = max(parts, -(-int(input_bytes) // TARGET_PART_BYTES))
    return min(parts, _MAX_PARTS)


_BYTES_HINT_WARNED = False


def _bytes_hint(ds) -> int | None:
    """Best-effort input size WITHOUT executing the dataset: Ray can
    infer size metadata for read ops (Parquet footer stats) and
    propagates it through size-preserving transforms; anything unknown
    returns None and the CPU floor decides. Deliberately NOT
    ``Dataset.size_bytes()``, which executes the plan when metadata is
    missing.

    Reaches into private Ray internals (``_logical_plan.dag
    .infer_metadata().size_bytes``) — if a Ray upgrade renames the
    chain, every derived partition count silently degrades to the CPU
    floor, so the first failure is logged once (ADVICE r3) and
    tests/test_fold_by_keys.py pins the attribute chain on the shipped
    Ray version so an upgrade fails loudly in CI."""
    global _BYTES_HINT_WARNED
    try:
        n = ds._logical_plan.dag.infer_metadata().size_bytes
        return int(n) if n else None
    except AttributeError:
        if not _BYTES_HINT_WARNED:
            _BYTES_HINT_WARNED = True
            import logging

            logging.getLogger(__name__).warning(
                "keyed._bytes_hint: Ray private metadata chain no longer "
                "resolves — derived partition counts fall back to the "
                "CPU floor (perf cliff on large inputs)"
            )
        return None
    except Exception:
        return None


def sized(ds):
    """``(ds, bytes)``: the input's size for the plan rule. Ray's metadata
    size when it is known without running the plan; otherwise the input is
    materialized and its exact size read, and the materialized dataset is
    returned so that later stages do not run the plan again."""
    n = _bytes_hint(ds)
    if n is None:
        ds = ds.materialize()
        n = ds.size_bytes()
    return ds, n


@functools.cache
def _remote(fn, num_returns=1):
    import ray

    return ray.remote(num_returns=num_returns)(fn)


def run_one_task(fn, *args):
    """``fn(*args)`` as one Ray task, its value returned to the caller; the
    one-block plans of the stream and the daily build run through here.
    Each function is wrapped once per process: Ray pickles and exports a
    wrapped function on its first call in each session, not on every
    call."""
    import ray

    return ray.get(_remote(fn).remote(*args))


def one_task_dataset(fn, *args):
    """The tables the generator ``fn(*args)`` yields, run as one Ray task
    (the wrapper of :func:`run_one_task`), as the blocks of a Dataset. The
    tables stay in the object store; the driver sees only their refs."""
    import ray
    import ray.data as rd

    return rd.from_arrow_refs(list(ray.get(_remote(fn, "dynamic").remote(*args))))


def _concat(tables: list[pa.Table]) -> pa.Table:
    # the exchange's output blocks unify schemas the same way
    return pa.concat_tables(tables, promote_options="permissive")


def _groups_task(run, tags, counts, *blocks):
    """The keyed exchange's groups in one task. ``blocks`` holds the
    blocks of each input in turn, ``counts[i]`` of them tagged by
    ``tags[i]``; the tagged inputs are cut into hash partitions and
    ``run`` is called on each, in ascending ``__part`` order. Yields the
    outputs as one table, or nothing for an empty input, as the exchange
    then yields no rows."""
    inputs, start = [], 0
    for tag, n in zip(tags, counts):
        tables = [b for b in blocks[start:start + n] if b.num_rows]
        start += n
        if tables:
            inputs.append(tag(_concat(tables)))
    if inputs:
        yield _concat([run(g) for g in split_by_partition(_concat(inputs))])


_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit mix (public splitmix64 finalizer)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_C1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_C2
    return z ^ (z >> np.uint64(31))


def hash_key(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic uint64 hash of a key column (process-independent)."""
    if pa.types.is_integer(arr.type):
        return splitmix64(np.asarray(arr.cast(pa.int64())))
    # strings: pandas' stable siphash (fixed default key, deterministic
    # across processes), vectorized in C.
    values = arr.to_pandas().to_numpy(dtype=object)
    return pd.util.hash_array(values, categorize=True)


def add_partition_col(batch: pa.Table, key: str, num_parts: int) -> pa.Table:
    part = (hash_key(batch[key]) % np.uint64(num_parts)).astype(np.int32)
    return batch.append_column(PART_COL, pa.array(part, pa.int32()))


def split_by_partition(tbl: pa.Table) -> list[pa.Table]:
    """The local split: a table tagged by :func:`add_partition_col` cut
    into its non-empty hash partitions, in ascending ``__part`` order. A
    stable sort keeps each partition's rows in input order, as the keyed
    exchange does for one input block, so a per-partition function sees
    the same table either way."""
    if not tbl.num_rows:
        return []
    part = np.asarray(tbl[PART_COL].combine_chunks())
    order = np.argsort(part, kind="stable")
    tbl = tbl.take(pa.array(order))
    cuts = np.flatnonzero(np.diff(part[order])) + 1
    bounds = np.concatenate([[0], cuts, [len(order)]])
    return [tbl.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def map_partitions_by_key(
    ds,
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    *,
    num_parts: int | None = None,
    extra_cols_fn: Callable[[pa.Table], pa.Table] | None = None,
):
    """Hash-partition ``ds`` by ``key`` and apply ``fn`` to each whole
    partition as a single Arrow table (the fused keyed pass).

    ``fn`` must be self-contained per partition: all rows of any ``key``
    value land in exactly one call.

    ``num_parts=None`` derives the count from cluster CPUs and the input
    bytes — see :func:`derive_num_parts`. An input of one block runs in
    one Ray task (module docstring, "Size rule").
    """
    tune_shuffle_context()
    ds, nbytes = sized(ds)
    if num_parts is None:
        num_parts = derive_num_parts(nbytes)

    def tag(t: pa.Table, k=key, p=num_parts) -> pa.Table:
        return add_partition_col(
            t if extra_cols_fn is None else extra_cols_fn(t), k, p
        )

    def run(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([PART_COL]))

    if one_block(nbytes):
        refs = ds.to_arrow_refs()
        return one_task_dataset(_groups_task, run, [tag], [len(refs)], *refs)
    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby(PART_COL).map_groups(run, batch_format="pyarrow")


def fold_by_keys(
    ds,
    keys: list[str],
    *,
    sums: tuple[str, ...] | list[str] = (),
    mins: tuple[str, ...] | list[str] = (),
    maxs: tuple[str, ...] | list[str] = (),
    num_parts: int | None = None,
    part_key: str | None = None,
):
    """Exact distributed fold (sum/min/max) for HIGH-cardinality keys.

    ``Dataset.groupby(keys).aggregate(...)`` is the right tool for
    low-cardinality folds of pre-aggregated partials (tens..thousands of
    groups — fixed vocabularies like lang/day/brand), but its sort-based
    group-boundary handling degrades when most keys are unique: measured
    65-78 s (either shuffle strategy) vs 0.8 s for this fold on a
    1.36 M-row / 1.2 M-group table at sf0.1 / 32 CPUs (basket_rules pair
    fold). Any fold whose group count scales with the DATA (per-user,
    per-doc, per-node, per-pair partials) belongs here.

    Routes through the engine's keyed exchange: one hash partition on
    ``part_key`` (default ``keys[0]``; any single key column is correct
    because equal composite keys agree on every component), then a
    segmented ``lexsort`` + ``ufunc.reduceat`` per whole partition —
    O(rows log rows) vectorized work, no per-group Python.

    Key columns must be integer-typed. Value columns must be null-free
    (pre-aggregated partials always are; raises otherwise). Integer sums
    widen to int64, float sums to float64 (matching ray.data Sum); min/
    max preserve the input type (timestamps stay timestamps).
    """
    part_key = part_key or keys[0]
    specs: list[tuple[str, str]] = (
        [(c, "sum") for c in sums]
        + [(c, "min") for c in mins]
        + [(c, "max") for c in maxs]
    )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            cols = {c: pa.array([], pa.int64()) for c in keys}
            for c, op in specs:
                typ = t.schema.field(c).type
                if op == "sum":
                    typ = pa.float64() if pa.types.is_floating(typ) else pa.int64()
                cols[c] = pa.array([], typ)
            return pa.table(cols)
        karrs = [
            np.asarray(t[c].combine_chunks().cast(pa.int64())) for c in keys
        ]
        order = np.lexsort(karrs[::-1])  # primary = keys[0]
        karrs = [a[order] for a in karrs]
        head = np.zeros(len(order), dtype=bool)
        head[0] = True
        for a in karrs:
            head[1:] |= a[1:] != a[:-1]
        starts = np.flatnonzero(head)
        out = {c: pa.array(a[starts], pa.int64()) for c, a in zip(keys, karrs)}
        for c, op in specs:
            arr = t[c].combine_chunks()
            if arr.null_count:
                raise ValueError(f"fold_by_keys: nulls in value column {c!r}")
            orig = arr.type
            if op == "sum":
                v = np.asarray(
                    arr.cast(pa.float64() if pa.types.is_floating(orig) else pa.int64())
                )[order]
                out[c] = pa.array(np.add.reduceat(v, starts))
            else:
                v = np.asarray(arr)[order]  # datetime64 supported by min/max
                red = np.minimum if op == "min" else np.maximum
                out[c] = pa.array(red.reduceat(v, starts)).cast(orig)
        return pa.table(out)

    return map_partitions_by_key(ds, part_key, fold, num_parts=num_parts)


def _sum_finish_task(keys, sums, finish, *blocks):
    """:func:`sum_partials` of a one-block input: the fold and ``finish``
    in one task. Yields nothing when no block has a schema, as the
    exchange then has no rows to finish."""
    t = _concat(blocks) if blocks else pa.table({})
    if not all(c in t.column_names for c in [*keys, *sums]):
        return
    folded = t.group_by(keys, use_threads=False).aggregate(
        [(c, "sum") for c in sums]
    )
    yield finish(pa.table(
        {**{k: folded[k] for k in keys},
         **{out: folded[f"{c}_sum"] for c, out in sums.items()}}
    ))


def sum_partials(
    ds,
    keys: list[str],
    sums: dict[str, str],
    finish: Callable[[pa.Table], pa.Table],
):
    """Sum partials by a SMALL key set, then ``finish`` the whole folded
    table in one call: the fold of per-batch partials over a domain that
    does not grow with the data (pair alphabet, embedding dims).
    ``sums`` maps each value column to its output name; the folded table
    holds ``keys`` and those outputs, as ``groupby(keys).aggregate(Sum)``
    names them. A high-cardinality fold belongs in :func:`fold_by_keys`.

    An input of one block is folded with pyarrow ``group_by`` and
    finished in one Ray task. A larger one takes Ray's
    ``groupby().aggregate(Sum)``, then ``repartition(1)`` and ``finish``
    on the single block."""
    from ray.data.aggregate import Sum

    ds, nbytes = sized(ds)
    if one_block(nbytes):
        refs = ds.to_arrow_refs()
        return one_task_dataset(_sum_finish_task, keys, sums, finish, *refs)
    folded = ds.groupby(keys).aggregate(
        *[Sum(c, alias_name=out) for c, out in sums.items()]
    )
    return folded.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def fold_sum_by_keys(
    ds,
    keys: list[str],
    value_cols: list[str],
    *,
    num_parts: int | None = None,
    part_key: str | None = None,
):
    """Sum-only convenience wrapper over :func:`fold_by_keys`."""
    return fold_by_keys(
        ds, keys, sums=tuple(value_cols), num_parts=num_parts, part_key=part_key
    )


SIDE_COL = "__side"


def cogroup_by_key(
    left,
    right,
    key: str,
    fn: Callable[[pa.Table, pa.Table], pa.Table],
    *,
    num_parts: int | None = None,
    left_schema=None,
    right_schema=None,
):
    """Co-partition two datasets by ``key`` through ONE shuffle and apply
    ``fn(left_part, right_part)`` per hash partition.

    Implemented as schema-aligned union with a side tag column, then the
    same ``groupby(__part)`` exchange as :func:`map_partitions_by_key` —
    the portable partitioned-join pattern when both sides are large. When
    the two sides together are one block, one Ray task forms the same
    partitions (module docstring, "Size rule").

    ``left_schema`` / ``right_schema``: optional ray.data ``Schema``
    overrides for when ``ds.schema()`` returns None (Ray loses the
    schema of an all-empty dataset after ``map_batches``); pass the
    schema captured from the pre-transform dataset.
    """
    tune_shuffle_context()
    left, lb = sized(left)
    right, rb = sized(right)
    if num_parts is None:
        num_parts = derive_num_parts(lb + rb)
    l_schema = left.schema() or left_schema  # ray Schema (names + types)
    r_schema = right.schema() or right_schema
    if l_schema is None or r_schema is None:
        raise ValueError(
            "cogroup_by_key: a side has no observable schema (all-empty "
            "dataset after map_batches) — pass left_schema/right_schema"
        )
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    all_names = l_names + [n for n in r_names if n not in l_names]
    types: dict[str, pa.DataType] = {}
    for sch in (l_schema, r_schema):
        for n, t in zip(sch.names, sch.types):
            types.setdefault(n, t)

    def align(side: int):
        def _align(t: pa.Table) -> pa.Table:
            n_rows = t.num_rows
            cols, out_names = [], []
            for n in all_names:
                if n in t.column_names:
                    cols.append(t[n])
                else:
                    cols.append(pa.nulls(n_rows, types[n]))
                out_names.append(n)
            out = pa.table(dict(zip(out_names, cols)))
            return out.append_column(
                SIDE_COL, pa.array(np.full(n_rows, side, dtype=np.int8))
            )

        return _align

    def run(group: pa.Table) -> pa.Table:
        side = np.asarray(group[SIDE_COL].combine_chunks())
        g = group.drop_columns([SIDE_COL, PART_COL])
        lmask = side == 0
        lpart = g.select(l_names).filter(pa.array(lmask))
        rpart = g.select(r_names).filter(pa.array(~lmask))
        return fn(lpart, rpart)

    def tag(side: int):
        return lambda t, k=key, p=num_parts: add_partition_col(
            align(side)(t), k, p
        )

    if one_block(lb + rb):
        lrefs, rrefs = left.to_arrow_refs(), right.to_arrow_refs()
        return one_task_dataset(
            _groups_task, run, [tag(0), tag(1)], [len(lrefs), len(rrefs)],
            *lrefs, *rrefs,
        )
    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")
    return lt.union(rt).groupby(PART_COL).map_groups(run, batch_format="pyarrow")
