"""Skew-aware inner join: hot keys broadcast, cold keys shuffled.

Zipf-skewed join keys are the classic large-scale join failure: a
hash-partitioned (cogroup) join sends every row of a hot key to ONE
partition task, so a single straggler holds the whole stage hostage and
can exceed a worker's heap outright. Spark mitigates this with AQE
skew-join splitting; Ray Data has no planner, so this stage applies the
standard two-path mitigation explicitly:

1. **Detect** heavy-hitter keys on the probe (fact) side with the
   existing combiner-style exact counter (:func:`..stages.salted.
   detect_hot_keys`) — per-batch ``value_counts`` partials, one tiny
   ``groupby.sum`` shuffle over (key, cnt) pairs, a distributed
   threshold cut, and a bounded driver collect (the hot set is at most
   ``rows / threshold`` keys by construction).
2. **Broadcast path** for hot keys: the build side's hot rows (a
   dimension slice — one row per key under the documented uniqueness
   assumption, so ≤ |hot| rows total) are collected once, put in the
   object store once (``ray.put``), and every probe batch joins its hot
   rows locally inside ``map_batches`` — zero shuffle for exactly the
   rows that would have skewed the exchange.
3. **Shuffle path** for the cold remainder: the usual co-partitioned
   single-exchange join (:func:`..stages.keyed.cogroup_by_key`), now
   guaranteed balanced because no key exceeds ``threshold`` rows.
4. ``union`` of the two paths — identical inner-join semantics to a
   single-path join for ANY hot/cold split, so correctness never
   depends on the detector (routing is correctness-neutral).

Size rule (``stages/keyed.py``): when the two sides together are one
block (``sources.reads.one_block``) there is no exchange to skew, so the
join is the one-task cogroup straight away and no hot keys are detected.

This is the join-shaped sibling of the salted window pass
(stages/salted.py, SURVEY.md §2 B14): salting fixes skew for *keyed
windows* by splitting hot keys across shards with exact stitching;
broadcast routing fixes skew for *joins* by never shuffling hot keys at
all. Complements the reference's medallion joins-by-key upserts
(feature_store/ingest_features.py — keyed by card_id) at a scale the
reference never reaches.

Partitioning assumptions (documented per the custom-operator rule):
- Build side has at most a bounded number of rows per key (dimension
  semantics); the broadcast slice is O(|hot keys|) rows.
- ``threshold`` should be ~(fact_rows / cluster_cores) or lower so the
  cold path's largest key group fits one task comfortably.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.reads import one_block
from .keyed import cogroup_by_key, sized
from .salted import detect_hot_keys


def _collect_table(ds) -> pa.Table:
    """Bounded driver collect of a small Dataset as ONE Arrow table,
    preserving the exact Arrow schema (a pylist round-trip would re-infer
    types and diverge from the cold path on all-null or exotic columns)."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t is not None]
    tables = [t for t in tables if t.num_columns]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables).combine_chunks()


def skew_aware_join(
    left,
    right,
    key: str,
    join_fn: Callable[[pa.Table, pa.Table], pa.Table],
    *,
    num_parts: int,
    hot_threshold: int,
):
    """Inner-join ``left`` (large, possibly skewed fact) with ``right``
    (bounded-rows-per-key build side) on ``key``.

    ``join_fn(left_part, right_part) -> pa.Table`` must implement the
    per-partition inner join with a stable output schema (including for
    empty inputs) and must be ROW-DECOMPOSABLE on the left: the hot path
    feeds it per-batch left fragments while the cold path feeds whole
    key groups, so per-group semantics (e.g. keep-latest-per-key before
    joining) would emit per-batch results for hot keys — pre-aggregate
    such semantics upstream instead.

    ``hot_threshold``: keys with AT LEAST this many probe-side rows are
    routed to the broadcast path (>=). The hot set has at most
    ``probe_rows / hot_threshold`` keys — size it so that bound (and the
    matching build-side slice) comfortably fits the driver and every
    worker's heap.
    """
    import ray

    left, lb = sized(left)
    right, rb = sized(right)
    # capture schemas up front: filtered-to-empty sides lose theirs
    l_schema, r_schema = left.schema(), right.schema()
    if l_schema is None or r_schema is None:
        # Ray drops the schema of an all-empty dataset after a repartition
        # or map_batches; an inner join with an empty side has no rows
        return left if l_schema is None else right

    hot_keys = [] if one_block(lb + rb) else detect_hot_keys(left, key, hot_threshold)
    if len(hot_keys) == 0:
        return cogroup_by_key(
            left, right, key, join_fn, num_parts=num_parts,
            left_schema=l_schema, right_schema=r_schema,
        )

    right_hot = _collect_table(
        right.map_batches(
            lambda t, ks=hot_keys: t.filter(pc.is_in(t[key], value_set=ks)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    # hot_keys lives ONCE in the object store; every closure carries only
    # the ref (a low threshold on a big corpus makes the set non-trivial)
    keys_ref = ray.put(hot_keys)
    bcast = ray.put(right_hot)

    def hot_probe(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)  # zero-copy object-store reads per task
        rhot = ray.get(bcast)
        return join_fn(batch.filter(pc.is_in(batch[key], value_set=ks)), rhot)

    hot_out = left.map_batches(
        hot_probe, batch_format="pyarrow", zero_copy_batch=True
    )

    def drop_hot(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        return batch.filter(pc.invert(pc.is_in(batch[key], value_set=ks)))

    left_cold = left.map_batches(
        drop_hot, batch_format="pyarrow", zero_copy_batch=True
    )
    right_cold = right.map_batches(
        drop_hot, batch_format="pyarrow", zero_copy_batch=True
    )
    cold_out = cogroup_by_key(
        left_cold, right_cold, key, join_fn, num_parts=num_parts,
        left_schema=l_schema, right_schema=r_schema,
    )
    return hot_out.union(cold_out)
