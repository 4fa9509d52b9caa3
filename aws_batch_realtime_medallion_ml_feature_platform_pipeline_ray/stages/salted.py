"""B14 — salted skew repartition for mega-conversations, exact by seeding.

The gold kernel (stages/featurize.py) sees all rows of a ``conv_id`` in
one hash partition, so a mega-conversation (10^7+ turns) bounds the job's
wall-clock and a worker's heap. Per SURVEY.md §2.7/B14, hot conversations
split into **time-bucket shards** ``(conv_id, ts // bucket_us)``, each
exact:

- **Windows:** each shard gets a ``__prefix=1`` copy of the previous
  bucket's last ``overlap = max(Δmax, gap_us)`` of rows; since
  ``bucket_us >= overlap``, no window reaches past the prefix.
- **turn_idx / session_id / session_turn_idx** continue through the
  kernel's seeds. A narrow pass numbers the hot shards' key columns as
  the kernel does (same dedup, sort and breaks), and the driver scans
  these per-shard summaries in shard order: O(hot shards), not O(rows).
  A break needs only its predecessor row, the last prefix row; with no
  prefix the true gap exceeds ``overlap >= gap_us``, so the row breaks.
- **lag1_ts / gap_s / lead1_ts** at shard edges come from non-emitted
  context rows: one at the next shard's first ts, and, for a shard
  without prefix rows, one at the previous shard's last ts, more than
  the overlap before every real row and so outside every window.

Duplicate ``(conv_id, turn_idx)`` rows are deduplicated exactly when they
fall in the same bucket; the medallion pipeline dedups upstream of
salting, so this only affects direct salted runs over raw bronze.

The plan: tag (+prefix copies) → shard summaries → seed scan on the
driver → one kernel pass with the seeds in its closure. Cold
conversations take the same kernel call unseeded, so salted output ==
unsalted output bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..functions import windows as W
from .featurize import (
    PREFIX_COL,
    SHARD_COL,
    GoldConfig,
    _dedup_sort,
    _numbering,
    gold_features_partition,
)
from .keyed import PART_COL, hash_key, splitmix64, tune_shuffle_context

# SHARD_COL holds the time-bucket id of a hot row, NON_SALTED for cold
# convs; PREFIX_COL = 1 marks an overlap copy (window state only)
NON_SALTED = np.int64(-1)
_BUCKET_MIX = np.uint64(0x9E3779B97F4A7C15)

# one row per hot (conv_id, __shard) with real rows; ts values are int64
_SUMMARY_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    (SHARD_COL, pa.int64()),
    ("n_real", pa.int64()),      # real rows after dedup
    ("breaks", pa.int64()),      # session breaks among them
    ("trail", pa.int64()),       # size of the session open at the shard's end
    ("first_ts", pa.int64()),    # first and last real ts
    ("last_ts", pa.int64()),
    ("has_prefix", pa.bool_()),  # the shard holds overlap copies
])


def detect_hot_keys(ds, key: str, threshold: int, *,
                    num_parts: int | None = None) -> pa.Array:
    """Exact heavy-hitter detection in two cheap passes: per-batch
    ``value_counts`` (pre-aggregation inside map_batches — the combiner
    pattern) → the engine's keyed exchange (stages/keyed.py) folding the
    (key, cnt) partials per hash partition with an Arrow-native
    ``group_by`` → filter ``>= threshold`` INSIDE the partition.

    Per-key counts are a data-scaling fold (distinct ``conv_id`` grows
    with the corpus), so this deliberately avoids
    ``Dataset.groupby(key).sum()`` — measured at 65-78 s vs <1 s for the
    keyed-exchange fold on ~1.2 M groups (see stages/keyed.fold_by_keys).
    Payload into the shuffle is one row per distinct key per block, never
    one per input row; the driver collect is the HOT key list only
    (bounded by rows/threshold, tiny by construction)."""
    from .keyed import map_partitions_by_key

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[key].combine_chunks())
        return pa.table({key: vc.field("values"), "cnt": vc.field("counts")})

    partials = ds.select_columns([key]).map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )

    def fold_and_filter(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        g = part.group_by([key]).aggregate([("cnt", "sum")])
        return pa.table(
            {key: g[key], "cnt": g["cnt_sum"].cast(pa.int64())}
        ).filter(pc.greater_equal(g["cnt_sum"], threshold))

    hot = map_partitions_by_key(
        partials, key, fold_and_filter, num_parts=num_parts
    ).select_columns([key])
    tbl = hot.take_all()
    if not tbl:
        return pa.array([], pa.string())
    return pa.Table.from_pylist(tbl).column(key).combine_chunks()


def _tag_salted(
    batch: pa.Table,
    key: str,
    num_parts: int,
    hot_parts: int,
    hot_keys: pa.Array,
    bucket_us: int,
    overlap_us: int,
) -> pa.Table:
    """Vectorized tag stage: cold rows → hash(conv) % num_parts; hot rows →
    dedicated shard partitions keyed by (conv, ts-bucket), plus overlap
    copies of each bucket's last ``overlap_us`` into the next bucket."""
    n = batch.num_rows
    h = hash_key(batch[key])
    part = (h % np.uint64(num_parts)).astype(np.int32)
    shard = np.full(n, NON_SALTED, dtype=np.int64)
    prefix = np.zeros(n, dtype=np.int8)

    hot_mask = np.asarray(pc.is_in(batch[key], value_set=hot_keys))
    out = batch
    if hot_mask.any():
        ts = np.asarray(batch["ts"].combine_chunks().cast(pa.int64()))
        bucket = ts // bucket_us
        hot_part = num_parts + (
            splitmix64(h + np.uint64(_BUCKET_MIX) * bucket.astype(np.uint64))
            % np.uint64(hot_parts)
        ).astype(np.int32)
        part = np.where(hot_mask, hot_part, part)
        shard = np.where(hot_mask, bucket, shard)

        # overlap copies: hot rows within overlap_us of their bucket's end
        # go once more to bucket+1 as window-state prefix
        near_end = hot_mask & (ts >= (bucket + 1) * bucket_us - overlap_us)
        if near_end.any():
            idx = np.flatnonzero(near_end)
            cp = batch.take(pa.array(idx))
            cp_bucket = bucket[idx] + 1
            cp_part = num_parts + (
                splitmix64(h[idx] + np.uint64(_BUCKET_MIX) * cp_bucket.astype(np.uint64))
                % np.uint64(hot_parts)
            ).astype(np.int32)
            part = np.concatenate([part, cp_part])
            shard = np.concatenate([shard, cp_bucket])
            prefix = np.concatenate([prefix, np.ones(len(idx), dtype=np.int8)])
            out = pa.concat_tables([batch, cp])

    out = out.append_column(SHARD_COL, pa.array(shard, pa.int64()))
    out = out.append_column(PREFIX_COL, pa.array(prefix, pa.int8()))
    return out.append_column(PART_COL, pa.array(part, pa.int32()))


def _hot_key_rows(batch: pa.Table, cfg: GoldConfig) -> pa.Table:
    """The summary pass's input: the hot rows of a tagged batch, with
    only the columns the kernel's dedup, sort and breaks read."""
    tiebreak = cfg.tiebreak_col if cfg.compute_turn_idx else "turn_idx"
    keys = ("conv_id", SHARD_COL, PREFIX_COL, "ts", tiebreak, "ingest_ts", PART_COL)
    cols = [c for c in dict.fromkeys(keys) if c in batch.column_names]
    return batch.select(cols).filter(pc.not_equal(batch[SHARD_COL], NON_SALTED))


def _shard_summaries(tbl: pa.Table, cfg: GoldConfig) -> pa.Table:
    """One ``_SUMMARY_SCHEMA`` row per ``(conv_id, __shard)`` of hot rows
    that has real rows, numbered exactly as the kernel numbers it."""
    if tbl.num_rows == 0:
        return _SUMMARY_SCHEMA.empty_table()
    tbl, ts, seg_start, real = _dedup_sort(tbl, cfg)
    _, ridx, b, sturn = _numbering(ts, seg_start, real, cfg.gap_us, 0)
    seg_id = W.segment_ids(seg_start)
    has_prefix = np.zeros(int(seg_id[-1]) + 1, dtype=bool)
    has_prefix[seg_id[~real]] = True
    keep = np.flatnonzero(real)
    starts = W.segment_starts(seg_id[keep])
    first = keep[starts]
    last = keep[np.roll(starts, -1)]
    return pa.Table.from_arrays(
        [
            tbl["conv_id"].take(first).cast(pa.string()),
            tbl[SHARD_COL].take(first),
            pa.array(ridx[last] + 1),
            pa.array(b[last]),
            # unseeded, a shard without breaks reports its n_real here
            pa.array(sturn[last] + 1),
            pa.array(ts[first]),
            pa.array(ts[last]),
            pa.array(has_prefix[seg_id[first]]),
        ],
        schema=_SUMMARY_SCHEMA,
    )


def _seed_table(summary: pa.Table) -> pa.Table:
    """The driver scan over the shard summaries, per conversation in shard
    order. Per shard: the earlier shards' breaks (``b_prior``) and real
    rows (``turn_off``), the size of the session open when it starts
    (``trail_in``), and the ts of its context rows: ``lead_ts``, the next
    shard's first, and ``lag_ts``, the previous shard's last when the
    shard has no prefix rows (else null). O(hot shards)."""
    s = summary.sort_by([("conv_id", "ascending"), (SHARD_COL, "ascending")])
    conv = np.asarray(pc.dictionary_encode(s["conv_id"].combine_chunks()).indices)
    starts = W.segment_starts(conv)
    arange = np.arange(s.num_rows)
    conv_first = np.maximum.accumulate(np.where(starts, arange, 0))
    n_real, breaks, trail, first_ts, last_ts = (
        np.asarray(s[c]) for c in ("n_real", "breaks", "trail", "first_ts", "last_ts")
    )

    def before(x):  # x summed over the conversation's earlier shards
        cum = np.cumsum(x) - x
        return cum - cum[conv_first]

    # the session open at a shard's end began in its last shard with a
    # break, or at the conversation's start: sum ``trail`` from there on
    anchor = np.maximum.accumulate(np.where(starts | (breaks > 0), arange, 0))
    cum = np.cumsum(trail)
    trail_out = cum - cum[anchor] + trail[anchor]
    no_lag = starts | np.asarray(s["has_prefix"])
    return pa.table({
        "conv_id": s["conv_id"],
        SHARD_COL: s[SHARD_COL],
        "b_prior": before(breaks),
        "trail_in": np.where(starts, 0, np.roll(trail_out, 1)),
        "turn_off": before(n_real),
        "lead_ts": pa.array(np.roll(first_ts, -1), mask=np.roll(starts, -1)),
        "lag_ts": pa.array(np.roll(last_ts, 1), mask=no_lag),
    })


def gold_partition_phase_a(
    tbl: pa.Table, cfg: GoldConfig, seeds: pa.Table | None = None
) -> pa.Table:
    """The gold kernel over one hash partition of a tagged table, where
    segments are ``(conv_id, __shard)``. With ``seeds``
    (:func:`_seed_table`), each hot shard's rows take its seeds and its
    context rows follow the partition's rows, so the one call emits
    final rows. ``index_in`` + ``take``, not a join: the kernel emits
    conversations in first-appearance order, so row order must hold."""
    if seeds is None or not pc.any(pc.not_equal(tbl[SHARD_COL], NON_SALTED)).as_py():
        return gold_features_partition(tbl, cfg)
    at = pc.index_in(_shard_keys(tbl), value_set=_shard_keys(seeds))
    for c in ("b_prior", "trail_in", "turn_off"):
        tbl = tbl.append_column(c, seeds[c].take(at))
    mine = seeds.take(pc.unique(at.drop_null()))
    context = [_context_rows(tbl.schema, mine, c, t, cfg)
               for c, t in (("lead_ts", -1), ("lag_ts", -2))]
    return gold_features_partition(
        pa.concat_tables([tbl, *context], promote_options="default"), cfg
    )


def _shard_keys(tbl: pa.Table) -> pa.Array:
    shard = pc.cast(tbl[SHARD_COL], pa.string())
    return pc.binary_join_element_wise(tbl["conv_id"], shard, "#").combine_chunks()


def _context_rows(
    schema: pa.Schema, shards: pa.Table, ts_col: str, turn: int, cfg: GoldConfig
) -> pa.Table:
    """One non-emitted ``__prefix`` row per shard where ``ts_col`` is set,
    at that ts. Its turn_idx ``turn`` (below every real one) keeps dedup
    from merging it with a real row; its tiebreak and ``ingest_ts`` are
    zero of their own types, and its other columns null."""
    shards = shards.filter(pc.is_valid(shards[ts_col]))
    n = shards.num_rows
    cols = {
        "conv_id": shards["conv_id"].cast(schema.field("conv_id").type),
        SHARD_COL: shards[SHARD_COL],
        PREFIX_COL: pa.array(np.ones(n, np.int8)),
        "ts": shards[ts_col].cast(schema.field("ts").type),
    }
    for c, v in ((cfg.tiebreak_col, 0), ("ingest_ts", 0), ("turn_idx", turn)):
        if c in schema.names:
            cols[c] = pa.array(np.full(n, v, np.int64)).cast(schema.field(c).type)
    return pa.table(cols)


def gold_features_salted(
    ds,
    cfg: GoldConfig | None = None,
    *,
    num_parts: int | None = None,
    hot_threshold: int = 2_000_000,
    hot_parts: int | None = None,
    bucket_us: int | None = None,
    hot_keys: pa.Array | None = None,
):
    """The salted gold pipeline: detect hot convs → tag (+overlap copies)
    → shard summaries of the hot rows' key columns → seed scan on the
    driver → one seeded kernel pass. With no hot keys it is the unsalted
    single-shuffle plan (identical output)."""
    cfg = cfg or GoldConfig()
    tune_shuffle_context()
    if num_parts is None:
        from .keyed import _bytes_hint, derive_num_parts

        num_parts = derive_num_parts(_bytes_hint(ds))
    # overlap must cover BOTH the longest window and the session gap: the
    # session-break argument needs "no prefix row => true gap > gap_us",
    # which only holds when the prefix spans >= gap_us (ADVICE r1)
    overlap_us = max(S.MAX_WINDOW_US, cfg.gap_us)
    bucket_us = bucket_us or overlap_us
    if bucket_us < overlap_us:
        raise ValueError("bucket_us must be >= max window / session gap")
    hot_parts = hot_parts or num_parts

    if hot_keys is None:
        hot_keys = detect_hot_keys(ds, "conv_id", hot_threshold)

    tagged = ds.map_batches(
        lambda t: _tag_salted(
            t, "conv_id", num_parts, hot_parts, hot_keys, bucket_us, overlap_us
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    seeds = None
    if len(hot_keys):
        # every shard's seeds depend on the earlier shards' summaries: the
        # one barrier of the plan, over a few key columns of the hot rows
        summary = (
            tagged.map_batches(
                lambda t: _hot_key_rows(t, cfg),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby(PART_COL)
            .map_groups(lambda g: _shard_summaries(g, cfg), batch_format="pyarrow")
            .take_all()
        )
        seeds = _seed_table(pa.Table.from_pylist(summary, schema=_SUMMARY_SCHEMA))

    return tagged.groupby(PART_COL).map_groups(
        lambda g: gold_partition_phase_a(g.drop_columns([PART_COL]), cfg, seeds),
        batch_format="pyarrow",
    )
