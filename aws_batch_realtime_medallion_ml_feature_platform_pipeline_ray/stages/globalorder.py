"""Global total-order ranking and prefix scans.

``Dataset.sort`` gives a total order across blocks (range partitioning +
per-block sort) but no row numbers. This stage adds exact global ranks,
weighted ranks and running maxima, under the size rule of
``stages/keyed.py``:

- An input of one block (``sources.reads.one_block``) runs in ONE Ray
  task: the blocks are concatenated, sorted with ``pc.sort_indices`` (the
  per-block sort of ``Dataset.sort``: nulls last and NaN just before them
  in either direction, the default order of SQL too), and the scan
  columns are added directly (``1 + arange``, the exclusive weight
  cumsum, the running max). No exchange, no driver round trip.
- A larger input takes the canonical two-pass block-offset scan:

  1. ``ds.sort(keys)``, the range-partitioned all-to-all exchange.
  2. Per-block partials: (first-row key, row count) — one tiny row per
     block, collected to the driver (O(#blocks), never O(rows)).
  3. Driver exclusive-scan over the block partials, keyed by the block's
     first-row key (unique when ``keys`` is a candidate key), broadcast
     as an O(#blocks) dict.
  4. One more pass: each block adds its offset to its local scan.

  Passes 2 and 4 run with ``batch_size=None`` (whole blocks) over the
  SAME materialized sorted dataset, so batching is identical in both
  passes and the first-row key identifies each block. The mid-pipeline
  ``materialize`` is inherent to rank assignment (a scan barrier, like
  the sort itself); blocks live in the object store and spill, never on
  one node. Ray's range partitioning places null and NaN keys
  inconsistently, so ``Dataset.sort`` never sees them: it sorts on two
  helper columns per key (:func:`_with_order_cols`), a class (value,
  NaN, null; always ascending) and the value with NaN and null replaced
  by one constant, in the key's direction. That is the one-block order,
  and the helpers are dropped again in pass 4.

An empty input gives its columns plus the scan columns, with zero rows,
on both plans.

The per-entity ordering analog of the reference's global ``ORDER BY``
outputs (scripts/transform_and_prepare_sample_data.py writes sorted
samples); within-group ranks are ``queries_features.q_features_rank`` —
this is the *total order* version those can't express.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.reads import one_block
from .keyed import _concat, map_partitions_by_key, one_task_dataset, sized

I64MIN = np.iinfo(np.int64).min


def _sort_keys(keys: list[str], descending: list[bool]) -> list[tuple[str, str]]:
    return [(k, "descending" if d else "ascending") for k, d in zip(keys, descending)]


def _sorted(t: pa.Table, keys: list[str], descending: list[bool]) -> pa.Table:
    """``t`` in the order ``Dataset.sort`` gives one block."""
    if not t.num_rows:
        return t
    return t.take(pc.sort_indices(t, sort_keys=_sort_keys(keys, descending)))


def _filler(typ: pa.DataType) -> pa.Scalar:
    """One constant of ``typ`` to stand in for every null or NaN key."""
    for zero in (pa.array([0]), pa.array([0], pa.int32()), pa.array([0], pa.int8()),
                 pa.array([""])):
        try:
            return zero.cast(typ)[0]
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            continue
    raise TypeError(f"no sort stand-in for null keys of type {typ}")


def _with_order_cols(t: pa.Table, keys: list[str]) -> pa.Table:
    """``t`` plus, per key ``i``, ``__ocls{i}`` (0 value, 1 NaN, 2 null)
    and ``__oval{i}`` (the value, NaN and null replaced by a constant):
    sorting on them, the class ascending and the value in the key's
    direction, gives the one-block order without a null or NaN key."""
    for i, k in enumerate(keys):
        col = t[k]
        null = pc.is_null(col)
        cls = pc.if_else(null, np.int8(2), np.int8(0))
        if pa.types.is_floating(col.type):
            nan = pc.fill_null(pc.is_nan(col), False)
            cls = pc.if_else(nan, np.int8(1), cls)
            null = pc.or_(null, nan)
        t = t.append_column(f"__ocls{i}", cls)
        t = t.append_column(f"__oval{i}", pc.if_else(null, _filler(col.type), col))
    return t


def _sort_exchanged(ds, keys: list[str], descending: list[bool]):
    """``ds`` sorted by ``keys`` through ``Dataset.sort`` on the order
    columns of :func:`_with_order_cols` (still attached), materialized."""
    order, desc = [], []
    for i, d in enumerate(descending):
        order += [f"__ocls{i}", f"__oval{i}"]
        desc += [False, d]
    return ds.map_batches(
        lambda t: _with_order_cols(t, keys), batch_format="pyarrow", zero_copy_batch=True
    ).sort(order, descending=desc).materialize()


def _drop_order_cols(t: pa.Table, keys: list[str]) -> pa.Table:
    cols = {f"__o{c}{i}" for i in range(len(keys)) for c in ("cls", "val")}
    return t.drop_columns([c for c in t.column_names if c in cols])


def _row_key(t: pa.Table, keys: list[str], i: int) -> tuple:
    """Row ``i``'s ``keys`` as a dict key; NaN, equal to nothing, as a token."""
    vals = (t[k][i].as_py() for k in keys)
    return tuple("NaN" if isinstance(v, float) and v != v else v for v in vals)


def _block_partials(s, keys, descending, stat) -> pa.Table | None:
    """``stat`` of each non-empty block of the sorted ``s`` (one row each,
    led by the block's first-row ``keys``), in sort order; None when
    ``s`` has no rows."""
    import ray

    def one_row(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({})
        return pa.table({**{k: t[k].slice(0, 1) for k in keys}, **stat(t)})

    refs = s.map_batches(
        one_row, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    ).to_arrow_refs()
    stats = [b for b in ray.get(refs) if b.num_rows]  # O(#blocks) rows
    if not stats:
        return None
    return _sorted(_concat(stats), keys, descending)


def _empty_result(ds, cols: list[str]):
    """The zero-row result of an empty input: its columns plus the int64
    ``cols`` (``Dataset.sort`` drops an empty input's schema)."""
    import ray.data as rd

    schema = ds.schema()
    t = pa.table({})
    if schema is not None:
        t = pa.schema(zip(schema.names, schema.types)).empty_table()
    return rd.from_arrow(_with_empty(t, cols))


def _with_empty(t: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        t = t.append_column(c, pa.array([], pa.int64()))
    return t


def _add_scans(t: pa.Table, specs, bases) -> pa.Table:
    """``t`` (in sort order) with each spec's column: ``base + 1 + Σ
    weights of the earlier rows of t``."""
    if not t.num_rows:
        return _with_empty(t, [rc for rc, _wc in specs])
    for (rc, wc), base in zip(specs, bases):
        if wc is None:
            local = np.arange(t.num_rows, dtype=np.int64)
        else:
            w = np.asarray(t[wc].combine_chunks()).astype(np.int64)
            local = np.cumsum(w) - w
        t = t.append_column(rc, pa.array(base + 1 + local))
    return t


def _add_prefix_max(t: pa.Table, value_col, out_col, base, exclusive) -> pa.Table:
    """``t`` (in sort order) with the running max of ``value_col`` from the
    carry-in ``base`` on; a row with nothing before it gets null."""
    if not t.num_rows:
        return _with_empty(t, [out_col])
    v = np.asarray(t[value_col].combine_chunks().cast(pa.int64()))
    if exclusive:
        v = np.concatenate(([I64MIN], v[:-1]))
    run = np.maximum.accumulate(np.maximum(v, base))
    miss = run == I64MIN
    return t.append_column(
        out_col, pa.array(np.where(miss, 0, run), pa.int64(), mask=miss)
    )


def _scans_task(keys, descending, specs, *blocks):
    if blocks:
        t = _sorted(_concat(blocks), keys, descending)
        yield _add_scans(t, specs, [0] * len(specs))


def _prefix_max_task(keys, value_col, out_col, exclusive, *blocks):
    if blocks:
        t = _sorted(_concat(blocks), keys, [False] * len(keys))
        yield _add_prefix_max(t, value_col, out_col, I64MIN, exclusive)


def with_global_rank(
    ds,
    keys: list[str],
    *,
    descending: list[bool],
    rank_col: str = "rnk",
    weight_col: str | None = None,
):
    """Return ``ds`` with an exact 1-based global row number by ``keys``.

    ``keys`` must be a candidate key (no full duplicates across them) so
    the total order — and each block's first-row identity — is unique.

    ``weight_col``: optional int64 column of row weights; the rank then
    advances by each row's weight instead of 1 (``rank_col`` is
    ``1 + Σ weights of strictly-smaller rows``) — the weighted prefix
    that turns a distinct-value/count table into per-value MIN ranks of
    the underlying row population (exact distributed ECDF)."""
    return with_global_scans(
        ds, keys, descending=descending, specs=[(rank_col, weight_col)]
    )


def with_global_scans(
    ds,
    keys: list[str],
    *,
    descending: list[bool],
    specs: list[tuple[str, str | None]],
):
    """Several exact global prefix scans over ONE sort.

    ``specs`` is a list of ``(rank_col, weight_col | None)``: each entry
    adds a column holding ``1 + Σ weights of strictly-smaller rows``
    (``None`` weight = plain row numbering). One sort, one O(#blocks)
    driver scan for ALL specs — e.g. a sweep line needs BOTH the signed
    running level (weighted) and a dense adjacency rank (unweighted)."""
    ds, nbytes = sized(ds)
    if one_block(nbytes):
        refs = ds.to_arrow_refs()
        return one_task_dataset(_scans_task, keys, descending, specs, *refs)
    s = _sort_exchanged(ds, keys, descending)

    def count(t: pa.Table) -> dict:
        return {
            f"__cnt{i}": pa.array(
                [t.num_rows if wc is None
                 else int(np.asarray(t[wc].combine_chunks()).sum())],
                pa.int64(),
            )
            for i, (_rc, wc) in enumerate(specs)
        }

    stats = _block_partials(s, keys, descending, count)
    if stats is None:
        return _empty_result(ds, [rc for rc, _wc in specs])
    offsets = [
        np.cumsum(np.asarray(stats[f"__cnt{i}"])) - np.asarray(stats[f"__cnt{i}"])
        for i in range(len(specs))
    ]
    off_by_first = {
        _row_key(stats, keys, j): [int(o[j]) for o in offsets]
        for j in range(stats.num_rows)
    }

    def add_rank(t: pa.Table) -> pa.Table:
        t = _drop_order_cols(t, keys)
        if t.num_rows == 0:
            return _with_empty(t, [rc for rc, _wc in specs])
        first = _row_key(t, keys, 0)
        if first not in off_by_first:
            # batching diverged between the two passes — fail loudly
            # rather than emit wrong ranks
            raise RuntimeError(
                f"global-rank block boundary drift: no offset for {first}"
            )
        return _add_scans(t, specs, off_by_first[first])

    return s.map_batches(
        add_rank, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def neighbor_pairs(
    ranked,
    *,
    rank_col: str,
    window: int,
    carry_cols: list[str],
    bucket_size: int = 4096,
    num_parts: int = 32,
):
    """Sorted-neighborhood candidate pairs: every (a, b) whose global
    ranks differ by 1..``window``.

    The blocking step of sorted-neighborhood entity resolution (Monge &
    Elkan's classic alternative to LSH banding): sort by a blocking key,
    then only compare records inside a sliding window of the total
    order. Combined with :func:`with_global_rank` this is fully
    distributed: rows are hash-exchanged by ``rank // bucket_size``,
    rows within ``window`` of a bucket's start are ALSO copied into the
    previous bucket (the same overlap-prefix trick as the salted window
    shards, stages/salted.py), and each partition emits its pairs from a
    plain shifted-array zip — every pair produced exactly once because
    only the bucket that OWNS the left row emits it.

    Requires ``window < bucket_size``. Output columns:
    ``<c>_a`` / ``<c>_b`` for every carry column.
    """
    if window >= bucket_size:
        raise ValueError("window must be < bucket_size")

    def tag(t: pa.Table):
        import numpy as np

        rnk = np.asarray(t[rank_col].combine_chunks())
        bucket = (rnk - 1) // bucket_size
        own = t.append_column("__bkt", pa.array(bucket, pa.int64()))
        dup = (rnk - 1) % bucket_size < window
        dup &= bucket > 0
        copies = t.filter(pa.array(dup)).append_column(
            "__bkt", pa.array(bucket[dup] - 1, pa.int64())
        )
        return pa.concat_tables([own, copies])

    tagged_cols = carry_cols + [rank_col]

    def pairs_part(t: pa.Table) -> pa.Table:
        import numpy as np

        out_schema = pa.schema(
            [(f"{c}_a", t.schema.field(c).type) for c in carry_cols]
            + [(f"{c}_b", t.schema.field(c).type) for c in carry_cols]
        )
        n = t.num_rows
        if n < 2:
            return out_schema.empty_table()
        rnk = np.asarray(t[rank_col].combine_chunks())
        bkt_all = np.asarray(t["__bkt"].combine_chunks())
        own_all = (rnk - 1) // bucket_size == bkt_all
        # a row can be present twice (own + overlap copy) when adjacent
        # buckets hash to the same partition — dedup by rank, preferring
        # the owner copy, so index offset == rank offset below
        order = np.lexsort((~own_all, rnk))
        rs = rnk[order]
        keep = np.concatenate(([True], rs[1:] != rs[:-1]))
        order = order[keep]
        srt = t.take(pa.array(order))
        rs = rs[keep]
        owner = own_all[order]
        n = srt.num_rows
        if n < 2:
            return out_schema.empty_table()
        cols: dict[str, list] = {f.name: [] for f in out_schema}
        for d in range(1, window + 1):
            if n <= d:
                break
            la = np.arange(0, n - d)
            rb = la + d
            ok = owner[la] & (rs[rb] - rs[la] == d)
            sel_a, sel_b = pa.array(la[ok]), pa.array(rb[ok])
            for c in carry_cols:
                col = srt[c].combine_chunks()
                cols[f"{c}_a"].append(col.take(sel_a))
                cols[f"{c}_b"].append(col.take(sel_b))
        return pa.table(
            {
                name: pa.concat_arrays(
                    [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                     for c in chunks]
                )
                if chunks
                else pa.array([], out_schema.field(name).type)
                for name, chunks in cols.items()
            }
        ).cast(out_schema)

    slim = ranked.map_batches(
        lambda t: t.select(tagged_cols), batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return map_partitions_by_key(slim, "__bkt", pairs_part, num_parts=num_parts)


def with_global_prefix_max(
    ds,
    keys: list[str],
    value_col: str,
    out_col: str,
    *,
    exclusive: bool = True,
):
    """Exact global running MAX of ``value_col`` (int64-castable) in
    total ascending ``keys`` order — the distributed streaming-scan
    primitive behind watermark semantics (``max event-time seen so far``
    in arrival order).

    ``exclusive=True`` gives each row the max over STRICTLY EARLIER rows
    (the first row gets int64 min → emitted as null), matching ``MAX(v)
    OVER (ORDER BY keys ROWS BETWEEN UNBOUNDED PRECEDING AND 1
    PRECEDING)``. ``keys`` must be a candidate key so each block's
    first-row identity is unique. Same plans as
    :func:`with_global_scans`; the large one collects per-block (first
    key, block max) partials, takes an exclusive driver prefix-max
    across blocks and runs a per-block ``np.maximum.accumulate`` from
    the broadcast carry-in."""
    ds, nbytes = sized(ds)
    if one_block(nbytes):
        refs = ds.to_arrow_refs()
        return one_task_dataset(
            _prefix_max_task, keys, value_col, out_col, exclusive, *refs
        )
    descending = [False] * len(keys)
    s = _sort_exchanged(ds, keys, descending)

    def block_max(t: pa.Table) -> dict:
        v = np.asarray(t[value_col].combine_chunks().cast(pa.int64()))
        return {"__mx": pa.array([int(v.max())], pa.int64())}

    stats = _block_partials(s, keys, descending, block_max)
    if stats is None:
        return _empty_result(ds, [out_col])
    mx = np.asarray(stats["__mx"])
    carry = np.concatenate(
        ([I64MIN], np.maximum.accumulate(mx)[:-1])
    )  # exclusive across blocks
    carry_by_first = {
        _row_key(stats, keys, j): int(carry[j]) for j in range(stats.num_rows)
    }

    def add_scan(t: pa.Table) -> pa.Table:
        t = _drop_order_cols(t, keys)
        if t.num_rows == 0:
            return _with_empty(t, [out_col])
        first = _row_key(t, keys, 0)
        if first not in carry_by_first:
            raise RuntimeError(
                f"global-scan block boundary drift: no carry for {first}"
            )
        return _add_prefix_max(
            t, value_col, out_col, carry_by_first[first], exclusive
        )

    return s.map_batches(
        add_scan, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
