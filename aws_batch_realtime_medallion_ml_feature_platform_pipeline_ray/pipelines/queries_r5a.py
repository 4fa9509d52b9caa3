"""Round-5 operator additions, batch 1 (oracle-exact, DuckDB twins).

Relational breadth (classic TPC-H shapes the engine lacked) plus
behavioral/curation operators:

- ``orders_q3_unshipped``     — Q3: top unshipped-order revenue for one
  market segment (two pre-folded cogroups, per-partition top-k partials,
  ≤10-row driver fold).
- ``orders_q18_big_orders``   — Q18: orders whose total quantity clears
  a threshold, with order metadata attached (fold → filter → cogroup).
- ``top_supplier_revenue``    — Q15: supplier(s) with maximum revenue in
  a ship-date window (per-supplier fold; global max on the tiny folded
  relation).
- ``orders_q4_late_exists``   — Q4 shape: per-priority counts of orders
  with ≥1 lineitem shipped >90 days after the order date (EXISTS
  semi-join as one orderkey cogroup with per-order ANY fold).
- ``docs_norm_dedup``         — case/punctuation-normalized exact dedup:
  canonical id + dup flag per doc under the normalized key.
- ``events_type_value_quantiles`` — exact per-type p25/p50/p75 of value
  (quantile_disc index semantics, one keyed exchange).
- ``events_bounce_rate``      — 30-min-gap sessionization per user; per
  first-day share of single-event sessions.
- ``events_since_last_purchase`` — per non-purchase event: seconds since
  the user's previous purchase (point-in-time correct: strictly earlier
  (ts, event_id); -1 when none).
- ``events_reactivations``    — per user: number of >3-day dormancy gaps
  and the maximum gap (days).
- ``embedding_pq_energy_by_label`` — mean PQ reconstruction error per
  label (streaming partials over the broadcast codebook; tiny fold).

Reference provenance: relational shapes extend the reference's
single-pass silver aggregates (spark_jobs/silver_and_gold.py:86-131)
with the dimensional-join forms its Spark plan never exercised; the
events operators extend the same per-entity windows toward
training-data curation per the north rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.reads import read_parquet_sized
from ..functions.numeric import round6
from ..stages.keyed import (
    cogroup_by_key,
    fold_sum_by_keys,
    map_partitions_by_key,
)

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts

_US = 1_000_000
_US_PER_DAY = 86_400 * _US


def _ev(sf_dir: str, columns):
    return read_parquet_sized(f"{sf_dir}/events.parquet", columns=columns)


def _ts_us(date_str: str) -> int:
    import pandas as pd

    return int(pd.Timestamp(date_str).value // 1000)


def _rev_cents(extprice: np.ndarray, discount: np.ndarray) -> np.ndarray:
    """Fixed-point revenue: round(p*100) * (100 - round(d*100)) — exact
    int64 folds, /10000.0 only at the final projection (the engine's
    house convention; mirrors queries_r2h._rev_c100). Rounding is
    half-AWAY-from-zero to match DuckDB ROUND (numpy's np.round is
    half-to-even and diverges on exact .5 cents)."""
    from ..functions.numeric import round_half_away

    p = round_half_away(extprice * 100.0).astype(np.int64)
    d = round_half_away(discount * 100.0).astype(np.int64)
    return p * (100 - d)


# ---------------------------------------------------------------------------
# orders_q3_unshipped — TPC-H Q3 shape
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_DATE = "1997-06-30"
Q3_TOPK = 10


def q_orders_q3_unshipped(sf_dir: str):
    """Top-{Q3_TOPK} unshipped-order revenue for the {Q3_SEGMENT}
    segment (orders placed before {Q3_DATE}, lineitems shipped after):
    customer-segment semi via one custkey cogroup, revenue fold inside
    one orderkey cogroup (integer-cent partials), per-partition top-k
    then a ≤(parts×k)-row driver fold — orderkeys are partition-unique
    after the fold, so per-partition top-k loses no global candidate."""
    cut = _ts_us(Q3_DATE)

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: pa.table(
            {"custkey": t.filter(
                pc.equal(t["c_mktsegment"].combine_chunks(), Q3_SEGMENT)
            )["c_custkey"].combine_chunks().cast(pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t, _c=cut: (
            lambda ot: pa.table(
                {
                    "orderkey": ot["o_orderkey"].combine_chunks().cast(pa.int64()),
                    "custkey": ot["o_custkey"].combine_chunks().cast(pa.int64()),
                    "odate": ot["o_orderdate"].combine_chunks().cast(pa.int64()),
                }
            )
        )(t.filter(pc.less(t["o_orderdate"].combine_chunks().cast(pa.int64()), _c))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def semi_cust(opart: pa.Table, cpart: pa.Table) -> pa.Table:
        empty = pa.table(
            {"orderkey": pa.array([], pa.int64()),
             "odate": pa.array([], pa.int64())}
        )
        if opart.num_rows == 0 or cpart.num_rows == 0:
            return empty
        idx = pc.index_in(
            opart["custkey"], value_set=cpart["custkey"].combine_chunks()
        )
        kept = opart.filter(pc.is_valid(idx))
        return pa.table({"orderkey": kept["orderkey"], "odate": kept["odate"]})

    seg_orders = cogroup_by_key(orders, cust, "custkey", semi_cust,
                                num_parts=NUM_PARTS)

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda t, _c=cut: (
            lambda lt: pa.table(
                {
                    "orderkey": lt["l_orderkey"].combine_chunks().cast(pa.int64()),
                    "rev": pa.array(
                        _rev_cents(
                            np.asarray(lt["l_extendedprice"].combine_chunks()),
                            np.asarray(lt["l_discount"].combine_chunks()),
                        ),
                        pa.int64(),
                    ),
                }
            )
        )(t.filter(pc.greater(t["l_shipdate"].combine_chunks().cast(pa.int64()), _c))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def join_rev(lpart: pa.Table, opart: pa.Table) -> pa.Table:
        """Per-partition: fold lineitem revenue by orderkey, keep
        segment orders only, emit this partition's top-{Q3_TOPK}."""
        empty = pa.table(
            {"o_orderkey": pa.array([], pa.int64()),
             "o_orderdate": pa.array([], pa.int64()),
             "rev": pa.array([], pa.int64())}
        )
        if lpart.num_rows == 0 or opart.num_rows == 0:
            return empty
        ok = np.asarray(lpart["orderkey"].combine_chunks())
        rv = np.asarray(lpart["rev"].combine_chunks())
        import pandas as pd

        inv, uniq = pd.factorize(ok)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rv)
        ook = np.asarray(opart["orderkey"].combine_chunks())
        odt = np.asarray(opart["odate"].combine_chunks())
        pos = pc.index_in(
            pa.array(uniq, pa.int64()),
            value_set=opart["orderkey"].combine_chunks(),
        )
        keep = np.asarray(pc.is_valid(pos))
        if not keep.any():
            return empty
        taken = np.asarray(pos.cast(pa.int64()).fill_null(0))[keep]
        u = uniq[keep]
        sm = sums[keep]
        dt = odt[taken]
        order = np.lexsort((u, -sm))[:Q3_TOPK]
        return pa.table(
            {
                "o_orderkey": pa.array(u[order], pa.int64()),
                "o_orderdate": pa.array(dt[order], pa.int64()),
                "rev": pa.array(sm[order], pa.int64()),
            }
        )

    partials = cogroup_by_key(li, seg_orders, "orderkey", join_rev,
                              num_parts=NUM_PARTS)

    import ray
    import ray.data as rd

    tbls = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    if not tbls:
        final = pa.table(
            {"o_orderkey": pa.array([], pa.int64()),
             "o_orderdate": pa.array([], pa.string()),
             "revenue": pa.array([], pa.float64())}
        )
        return rd.from_arrow(final)
    allp = pa.concat_tables(tbls)  # ≤ parts × topk rows
    ok = np.asarray(allp["o_orderkey"].combine_chunks())
    dt = np.asarray(allp["o_orderdate"].combine_chunks())
    rv = np.asarray(allp["rev"].combine_chunks())
    order = np.lexsort((ok, -rv))[:Q3_TOPK]
    days = dt[order].astype("datetime64[us]").astype("datetime64[D]")
    return rd.from_arrow(
        pa.table(
            {
                "o_orderkey": pa.array(ok[order], pa.int64()),
                "o_orderdate": pa.array(
                    np.datetime_as_string(days, unit="D"), pa.string()
                ),
                "revenue": pa.array(rv[order].astype(np.float64) / 10000.0,
                                    pa.float64()),
            }
        )
    )


ORDERS_Q3_SQL = f"""
SELECT l.l_orderkey AS o_orderkey,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
            AS DOUBLE) / 10000.0 AS revenue
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_DATE}'
  AND l.l_shipdate > TIMESTAMP '{Q3_DATE}'
GROUP BY 1, 2
ORDER BY SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))) DESC,
         l.l_orderkey
LIMIT {Q3_TOPK}
"""


# ---------------------------------------------------------------------------
# orders_q18_big_orders — TPC-H Q18 shape
# ---------------------------------------------------------------------------

Q18_QTY = 200.0


def q_orders_q18_big_orders(sf_dir: str):
    """Orders whose total lineitem quantity exceeds {Q18_QTY}: one
    orderkey-keyed quantity fold (quantities are integral doubles, sums
    exact), filter, then one orderkey cogroup attaches order metadata."""
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(
        lambda t: pa.table(
            {
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "qty": t["l_quantity"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    qty = fold_sum_by_keys(li, ["orderkey"], ["qty"], num_parts=NUM_PARTS)
    big = qty.map_batches(
        lambda t: t.filter(
            pc.greater(t["qty"].combine_chunks(), Q18_QTY)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        lambda t: pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_custkey": t["o_custkey"].cast(pa.int64()),
                "o_totalprice": t["o_totalprice"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def attach(bpart: pa.Table, opart: pa.Table) -> pa.Table:
        empty = pa.table(
            {"o_orderkey": pa.array([], pa.int64()),
             "o_custkey": pa.array([], pa.int64()),
             "o_totalprice": pa.array([], pa.float64()),
             "total_qty": pa.array([], pa.float64())}
        )
        if bpart.num_rows == 0 or opart.num_rows == 0:
            return empty
        idx = pc.index_in(
            bpart["orderkey"], value_set=opart["orderkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        taken = idx.filter(keep)
        kept = bpart.filter(keep)
        return pa.table(
            {
                "o_orderkey": kept["orderkey"],
                "o_custkey": opart["o_custkey"].combine_chunks().take(taken),
                "o_totalprice": opart["o_totalprice"].combine_chunks().take(taken),
                "total_qty": kept["qty"],
            }
        )

    return cogroup_by_key(big, orders, "orderkey", attach,
                          num_parts=NUM_PARTS)


ORDERS_Q18_SQL = f"""
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
       SUM(l.l_quantity) AS total_qty
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY 1, 2, 3
HAVING SUM(l.l_quantity) > {Q18_QTY}
"""


# ---------------------------------------------------------------------------
# top_supplier_revenue — TPC-H Q15 shape
# ---------------------------------------------------------------------------

Q15_START = "1996-01-01"
Q15_END = "1996-04-01"


def q_top_supplier_revenue(sf_dir: str):
    """Supplier(s) with maximum revenue over shipdate ∈
    [{Q15_START}, {Q15_END}): one suppkey-keyed integer-cent fold; the
    folded per-supplier relation is O(suppliers), so the global max is
    one tiny aggregate over it and the equality filter streams."""
    lo, hi = _ts_us(Q15_START), _ts_us(Q15_END)

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda t, _lo=lo, _hi=hi: (
            lambda lt: pa.table(
                {
                    "suppkey": lt["l_suppkey"].combine_chunks().cast(pa.int64()),
                    "rev": pa.array(
                        _rev_cents(
                            np.asarray(lt["l_extendedprice"].combine_chunks()),
                            np.asarray(lt["l_discount"].combine_chunks()),
                        ),
                        pa.int64(),
                    ),
                }
            )
        )(
            t.filter(
                pc.and_(
                    pc.greater_equal(
                        t["l_shipdate"].combine_chunks().cast(pa.int64()), _lo
                    ),
                    pc.less(
                        t["l_shipdate"].combine_chunks().cast(pa.int64()), _hi
                    ),
                )
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    folded = fold_sum_by_keys(
        li, ["suppkey"], ["rev"], num_parts=NUM_PARTS
    ).materialize()
    mx = folded.max("rev")

    def pick(t: pa.Table, _m=mx) -> pa.Table:
        kept = t.filter(pc.equal(t["rev"].combine_chunks(), _m))
        return pa.table(
            {
                "s_suppkey": kept["suppkey"],
                "total_rev": pa.array(
                    np.asarray(kept["rev"].combine_chunks()).astype(
                        np.float64
                    )
                    / 10000.0,
                    pa.float64(),
                ),
            }
        )

    return folded.map_batches(pick, batch_format="pyarrow",
                              zero_copy_batch=True)


TOP_SUPPLIER_SQL = f"""
WITH r AS (
    SELECT l_suppkey AS s_suppkey,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS rev
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{Q15_START}'
      AND l_shipdate < TIMESTAMP '{Q15_END}'
    GROUP BY 1
)
SELECT s_suppkey, CAST(rev AS DOUBLE) / 10000.0 AS total_rev
FROM r WHERE rev = (SELECT MAX(rev) FROM r)
"""


# ---------------------------------------------------------------------------
# orders_q4_late_exists — TPC-H Q4 shape (EXISTS semi-join)
# ---------------------------------------------------------------------------

Q4_START = "1996-01-01"
Q4_END = "1996-04-01"
Q4_LATE_DAYS = 90


def q_orders_q4_late_exists(sf_dir: str):
    """Per-priority counts of orders (placed in [{Q4_START}, {Q4_END}))
    having ≥1 lineitem shipped more than {Q4_LATE_DAYS} days after the
    order date — the EXISTS semi-join as ONE orderkey cogroup with a
    per-order ANY fold; the final per-priority fold is a 5-row groupby
    of pre-aggregated partials."""
    lo, hi = _ts_us(Q4_START), _ts_us(Q4_END)
    late_us = Q4_LATE_DAYS * _US_PER_DAY

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda t, _lo=lo, _hi=hi: (
            lambda ot: pa.table(
                {
                    "orderkey": ot["o_orderkey"].combine_chunks().cast(pa.int64()),
                    "odate": ot["o_orderdate"].combine_chunks().cast(pa.int64()),
                    "priority": ot["o_orderpriority"],
                }
            )
        )(
            t.filter(
                pc.and_(
                    pc.greater_equal(
                        t["o_orderdate"].combine_chunks().cast(pa.int64()), _lo
                    ),
                    pc.less(
                        t["o_orderdate"].combine_chunks().cast(pa.int64()), _hi
                    ),
                )
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda t: pa.table(
            {
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "sdate": t["l_shipdate"].combine_chunks().cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def exists_late(opart: pa.Table, lpart: pa.Table) -> pa.Table:
        """Emit per-priority partial counts of late orders in this
        partition (pre-aggregated before the tiny priority fold)."""
        empty = pa.table(
            {"o_orderpriority": pa.array([], pa.string()),
             "pc_": pa.array([], pa.int64())}
        )
        if opart.num_rows == 0 or lpart.num_rows == 0:
            return empty
        ook = np.asarray(opart["orderkey"].combine_chunks())
        odt = np.asarray(opart["odate"].combine_chunks())
        pri = np.asarray(opart["priority"].combine_chunks(), dtype=object)
        lok = np.asarray(lpart["orderkey"].combine_chunks())
        sdt = np.asarray(lpart["sdate"].combine_chunks())
        order = np.argsort(ook, kind="stable")
        ook_s, odt_s, pri_s = ook[order], odt[order], pri[order]
        pos = np.searchsorted(ook_s, lok)
        ok = (pos < len(ook_s)) & (
            ook_s[np.minimum(pos, len(ook_s) - 1)] == lok
        )
        late = ok & (sdt - odt_s[np.minimum(pos, len(ook_s) - 1)] > late_us)
        flag = np.zeros(len(ook_s), dtype=bool)
        np.logical_or.at(flag, pos[late], True)
        import pandas as pd

        inv, uniq = pd.factorize(pri_s[flag])
        if len(uniq) == 0:
            return empty
        return pa.table(
            {
                "o_orderpriority": pa.array(uniq.astype(str), pa.string()),
                "pc_": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = cogroup_by_key(orders, li, "orderkey", exists_late,
                              num_parts=NUM_PARTS)
    return (
        partials.groupby("o_orderpriority")
        .aggregate(Sum("pc_", alias_name="order_count"))
    )


ORDERS_Q4_SQL = f"""
SELECT o_orderpriority, COUNT(*)::BIGINT AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '{Q4_START}'
  AND o.o_orderdate < TIMESTAMP '{Q4_END}'
  AND EXISTS (
      SELECT 1 FROM lineitem l
      WHERE l.l_orderkey = o.o_orderkey
        AND epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate)
            > {Q4_LATE_DAYS} * 86400000000
  )
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# docs_norm_dedup — normalized-key exact dedup
# ---------------------------------------------------------------------------

def q_docs_norm_dedup(sf_dir: str):
    """Case/punctuation-normalized exact dedup: key = collapse every
    non-[a-z0-9] run of lower(text) to one space, trimmed (RE2 on both
    sides — Arrow and DuckDB). Per doc: ``is_norm_dup`` (another doc
    shares the key) and ``canonical_id`` (min doc_id in the key group).
    ONE keyed exchange on the normalized-key hash; exact string groups
    inside the partition (hash collisions merge partitions, never
    groups)."""
    from ..stages.ppjoin import hash_grams

    docs = read_parquet_sized(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def norm(t: pa.Table) -> pa.Table:
        k = pc.utf8_trim(
            pc.replace_substring_regex(
                pc.utf8_lower(t["text"].combine_chunks()),
                pattern="[^a-z0-9]+",
                replacement=" ",
            ),
            characters=" ",
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
                "k": k,
                "kh": pa.array(hash_grams(k), pa.int64()),
            }
        )

    nk = docs.map_batches(norm, batch_format="pyarrow",
                          zero_copy_batch=True)

    def flags(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "is_norm_dup": pa.array([], pa.int64()),
             "canonical_id": pa.array([], pa.int64())}
        )
        if part.num_rows == 0:
            return empty
        import pandas as pd

        ids = np.asarray(part["doc_id"].combine_chunks())
        keys = np.asarray(part["k"].combine_chunks(), dtype=object)
        inv, _u = pd.factorize(keys)
        size = np.bincount(inv)
        mn = np.full(len(_u), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mn, inv, ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "is_norm_dup": pa.array(
                    (size[inv] > 1).astype(np.int64), pa.int64()
                ),
                "canonical_id": pa.array(mn[inv], pa.int64()),
            }
        )

    return map_partitions_by_key(nk, "kh", flags, num_parts=NUM_PARTS)


DOCS_NORM_DEDUP_SQL = """
WITH n AS (
    SELECT doc_id,
           trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'),
                ' ') AS k
    FROM documents
)
SELECT doc_id,
       CAST(COUNT(*) OVER (PARTITION BY k) > 1 AS BIGINT) AS is_norm_dup,
       MIN(doc_id) OVER (PARTITION BY k) AS canonical_id
FROM n
"""


# ---------------------------------------------------------------------------
# events_type_value_quantiles — exact per-type percentiles
# ---------------------------------------------------------------------------

def q_events_type_value_quantiles(sf_dir: str):
    """Exact p25/p50/p75 of ``value`` per event_type with
    ``quantile_disc`` index semantics (element at ceil(n·q)−1 of the
    ascending sort — exact integer index arithmetic, the selected
    element is returned bit-for-bit). ONE keyed exchange on event_type;
    per-type sort inside the partition. At corpus scale swap the exact
    per-type sort for a distributed rank (with_global_rank per type) or
    a mergeable sketch — the type domain is fixed, so this partitioning
    is also the skew bound."""
    ds = _ev(sf_dir, columns=["event_type", "value"])

    def qk(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {"event_type": pa.array([], pa.string()),
             "n": pa.array([], pa.int64()),
             "p25": pa.array([], pa.float64()),
             "p50": pa.array([], pa.float64()),
             "p75": pa.array([], pa.float64())}
        )
        if part.num_rows == 0:
            return empty
        et = np.asarray(part["event_type"].combine_chunks(), dtype=object)
        v = np.asarray(part["value"].combine_chunks())
        order = np.lexsort((v, et))
        et, v = et[order], v[order]
        seg_start = np.concatenate(([True], et[1:] != et[:-1]))
        starts = np.flatnonzero(seg_start)
        ends = np.concatenate((starts[1:], [len(et)]))
        n = ends - starts

        def at_q(num: int, den: int) -> np.ndarray:
            idx = -((-n * num) // den) - 1  # ceil(n*q) - 1
            return v[starts + idx]

        return pa.table(
            {
                "event_type": pa.array(et[starts].astype(str), pa.string()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
                "p25": pa.array(at_q(1, 4), pa.float64()),
                "p50": pa.array(at_q(1, 2), pa.float64()),
                "p75": pa.array(at_q(3, 4), pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "event_type", qk, num_parts=NUM_PARTS)


EVENTS_TYPE_QUANTILES_SQL = """
SELECT event_type,
       COUNT(*)::BIGINT AS n,
       quantile_disc(value, 0.25) AS p25,
       quantile_disc(value, 0.50) AS p50,
       quantile_disc(value, 0.75) AS p75
FROM events
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# events_bounce_rate — sessionized single-event share per day
# ---------------------------------------------------------------------------

BOUNCE_GAP_MIN = 30


def q_events_bounce_rate(sf_dir: str):
    """30-minute-gap sessionization per user (ties broken by event_id,
    matching the engine's sessionize convention), then per session-start
    day: total sessions, single-event sessions, bounce share. ONE keyed
    exchange on user_id with per-day partials pre-folded before the tiny
    day groupby."""
    gap_us = BOUNCE_GAP_MIN * 60 * _US
    ds = _ev(sf_dir, columns=["user_id", "ts", "event_id"])

    def part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"day": pa.array([], pa.string()),
             "ns": pa.array([], pa.int64()),
             "nb": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        from ..functions.robust import gap_session_ids

        uid = np.asarray(t["user_id"].combine_chunks())
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks())
        _order, uid, ts, sid = gap_session_ids(uid, ts, eid, gap_us)
        n_sess = int(sid[-1]) + 1
        sess_len = np.bincount(sid, minlength=n_sess)
        new_sess = np.concatenate(([True], sid[1:] != sid[:-1]))
        sess_start_ts = ts[new_sess]
        days = (
            sess_start_ts.astype("datetime64[us]").astype("datetime64[D]")
        )
        day_str = np.datetime_as_string(days, unit="D").astype(object)
        import pandas as pd

        inv, uniq = pd.factorize(day_str)
        ns = np.bincount(inv).astype(np.int64)
        nb = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(nb, inv, (sess_len == 1).astype(np.int64))
        return pa.table(
            {
                "day": pa.array(uniq.astype(str), pa.string()),
                "ns": pa.array(ns, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = map_partitions_by_key(ds, "user_id", part,
                                     num_parts=NUM_PARTS)
    folded = partials.groupby("day").aggregate(
        Sum("ns", alias_name="n_sessions"), Sum("nb", alias_name="n_bounce")
    )
    return folded.map_batches(
        lambda t: pa.table(
            {
                "day": t["day"],
                "n_sessions": t["n_sessions"].combine_chunks().cast(pa.int64()),
                "n_bounce": t["n_bounce"].combine_chunks().cast(pa.int64()),
                "bounce_rate": pa.array(
                    round6(
                        np.asarray(
                            t["n_bounce"].combine_chunks(), dtype=np.float64
                        )
                        / np.asarray(
                            t["n_sessions"].combine_chunks(),
                            dtype=np.float64,
                        )
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


EVENTS_BOUNCE_SQL = f"""
WITH o AS (
    SELECT user_id, ts, event_id,
           CASE WHEN epoch_us(ts) - epoch_us(
                    lag(ts) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id)
                ) > {BOUNCE_GAP_MIN * 60 * _US}
                OR lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) IS NULL
                THEN 1 ELSE 0 END AS new_sess
    FROM events
),
s AS (
    SELECT user_id, ts,
           SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS sid
    FROM o
),
g AS (
    SELECT user_id, sid, MIN(ts) AS start_ts, COUNT(*) AS len
    FROM s GROUP BY 1, 2
)
SELECT strftime(start_ts, '%Y-%m-%d') AS day,
       COUNT(*)::BIGINT AS n_sessions,
       CAST(SUM(CASE WHEN len = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounce,
       ROUND(CAST(SUM(CASE WHEN len = 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / COUNT(*), 6) AS bounce_rate
FROM g GROUP BY 1
"""


# ---------------------------------------------------------------------------
# events_since_last_purchase — backward-looking as-of feature
# ---------------------------------------------------------------------------

def q_events_since_last_purchase(sf_dir: str):
    """Point-in-time-correct recency feature: for every NON-purchase
    event, whole seconds since the same user's most recent purchase at a
    strictly earlier (ts, event_id) — never a later one (zero temporal
    leakage, the as-of contract of the north rule); −1 when no prior
    purchase exists. ONE keyed exchange, forward maximum-accumulate with
    segment reset."""
    ds = _ev(sf_dir, columns=["user_id", "ts", "event_id", "event_type"])

    def part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"event_id": pa.array([], pa.int64()),
             "user_id": pa.array([], pa.int64()),
             "since_s": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        uid = np.asarray(t["user_id"].combine_chunks())
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks())
        et = t["event_type"].combine_chunks()
        is_p = np.asarray(pc.fill_null(pc.equal(et, "purchase"), False))
        # a NULL type is neither a purchase nor emitted, like the twin's
        # `event_type <> 'purchase'`
        typed = np.asarray(pc.is_valid(et))
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, is_p, typed = (
            uid[order], ts[order], eid[order], is_p[order], typed[order]
        )
        n = len(uid)
        idx = np.arange(n, dtype=np.int64)
        # index of the latest purchase at or before each row; shift by
        # one row so only STRICTLY earlier rows count
        last_p = np.maximum.accumulate(np.where(is_p, idx, -1))
        prev_p = np.concatenate(([-1], last_p[:-1]))
        safe = np.maximum(prev_p, 0)
        has = (prev_p >= 0) & (uid[safe] == uid)
        keep = ~is_p & typed
        since = np.where(has, (ts - ts[safe]) // _US, -1)
        return pa.table(
            {
                "event_id": pa.array(eid[keep], pa.int64()),
                "user_id": pa.array(uid[keep], pa.int64()),
                "since_s": pa.array(since[keep], pa.int64()),
            }
        )

    return map_partitions_by_key(ds, "user_id", part, num_parts=NUM_PARTS)


EVENTS_SINCE_PURCHASE_SQL = """
WITH w AS (
    SELECT event_id, user_id, ts, event_type,
           MAX(CASE WHEN event_type = 'purchase'
                    THEN epoch_us(ts) END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS last_p_us
    FROM events
)
SELECT event_id, user_id,
       CAST(COALESCE((epoch_us(ts) - last_p_us) // 1000000, -1) AS BIGINT)
           AS since_s
FROM w WHERE event_type <> 'purchase'
"""


# ---------------------------------------------------------------------------
# events_reactivations — dormancy gaps per user
# ---------------------------------------------------------------------------

REACT_GAP_DAYS = 3


def q_events_reactivations(sf_dir: str):
    """Per user: number of dormancy gaps (> {REACT_GAP_DAYS} days
    between consecutive events, (ts, event_id) order) and the maximum
    gap in whole days. ONE keyed exchange + a segmented diff."""
    gap_us = REACT_GAP_DAYS * _US_PER_DAY
    ds = _ev(sf_dir, columns=["user_id", "ts", "event_id"])

    def part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"user_id": pa.array([], pa.int64()),
             "n_reactivations": pa.array([], pa.int64()),
             "max_gap_days": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        uid = np.asarray(t["user_id"].combine_chunks())
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        eid = np.asarray(t["event_id"].combine_chunks())
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        n = len(uid)
        same = np.zeros(n, dtype=bool)
        same[1:] = uid[1:] == uid[:-1]
        gap = np.zeros(n, dtype=np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        gap = np.where(same, gap, 0)
        import pandas as pd

        inv, uniq = pd.factorize(uid)
        k = len(uniq)
        n_re = np.zeros(k, dtype=np.int64)
        np.add.at(n_re, inv, (same & (gap > gap_us)).astype(np.int64))
        mx = np.zeros(k, dtype=np.int64)
        np.maximum.at(mx, inv, gap)
        return pa.table(
            {
                "user_id": pa.array(uniq.astype(np.int64), pa.int64()),
                "n_reactivations": pa.array(n_re, pa.int64()),
                "max_gap_days": pa.array(mx // _US_PER_DAY, pa.int64()),
            }
        )

    return map_partitions_by_key(ds, "user_id", part, num_parts=NUM_PARTS)


EVENTS_REACTIVATIONS_SQL = f"""
WITH g AS (
    SELECT user_id,
           epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id
                                                 ORDER BY ts, event_id))
               AS gap_us
    FROM events
)
SELECT user_id,
       CAST(SUM(CASE WHEN gap_us > {REACT_GAP_DAYS} * 86400000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_reactivations,
       CAST(COALESCE(MAX(gap_us), 0) // 86400000000 AS BIGINT)
           AS max_gap_days
FROM g GROUP BY 1
"""


# ---------------------------------------------------------------------------
# embedding_pq_energy_by_label — PQ distortion per label
# ---------------------------------------------------------------------------

def q_embedding_pq_energy_by_label(sf_dir: str):
    """Mean PQ reconstruction error per label: the per-vector exact
    int64 residual energy of ``embedding_pq_residual_energy`` folded to
    per-label (sum, count) partials per batch (codebook broadcast once,
    pure streaming), then one tiny 10-row label fold."""
    import ray

    from .queries_r4a import PQ_QSCALE, _pq_bounds, _pq_codebook

    emb = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    cq = _pq_codebook(emb)
    d = cq.shape[1]
    bounds = _pq_bounds(d)
    c_ref = ray.put(cq)

    def partial(t: pa.Table, _c=c_ref) -> pa.Table:
        empty = pa.table(
            {"label": pa.array([], pa.int64()),
             "se": pa.array([], pa.int64()),
             "cnt": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        cqs = ray.get(_c)
        vals = np.asarray(
            t["embedding"].combine_chunks().values.to_numpy(
                zero_copy_only=False
            ),
            dtype=np.float64,
        ).reshape(t.num_rows, -1)
        q = np.floor(vals * PQ_QSCALE + 0.5).astype(np.int64)
        total = np.zeros(t.num_rows, dtype=np.int64)
        for lo, hi in bounds:
            sl = slice(lo, hi)
            qc = cqs[:, sl]
            score = (qc * qc).sum(axis=1)[None, :] - 2 * (q[:, sl] @ qc.T)
            code = np.argmin(score, axis=1)
            diff = q[:, sl] - qc[code]
            total += (diff * diff).sum(axis=1)
        lab = np.asarray(t["label"].combine_chunks().cast(pa.int64()))
        import pandas as pd

        inv, uniq = pd.factorize(lab)
        se = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(se, inv, total)
        return pa.table(
            {
                "label": pa.array(uniq, pa.int64()),
                "se": pa.array(se, pa.int64()),
                "cnt": pa.array(np.bincount(inv).astype(np.int64),
                                pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = emb.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
    folded = partials.groupby("label").aggregate(
        Sum("se", alias_name="sum_e"), Sum("cnt", alias_name="n")
    )
    return folded.map_batches(
        lambda t: pa.table(
            {
                "label": t["label"].combine_chunks().cast(pa.int64()),
                "n": t["n"].combine_chunks().cast(pa.int64()),
                "avg_energy": pa.array(
                    round6(
                        np.asarray(t["sum_e"].combine_chunks(),
                                   dtype=np.float64)
                        / np.asarray(t["n"].combine_chunks(),
                                     dtype=np.float64)
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _pq_energy_by_label_sql() -> str:
    from .queries_r4e import _pq_residual_sql

    inner = _pq_residual_sql().strip().rstrip(";")
    return f"""
WITH r AS ({inner})
SELECT CAST(e.label AS BIGINT) AS label,
       COUNT(*)::BIGINT AS n,
       ROUND(CAST(SUM(r.residual_energy) AS DOUBLE) / COUNT(*), 6)
           AS avg_energy
FROM r JOIN embeddings e ON e.vec_id = r.vec_id
GROUP BY 1
"""


REGISTRY: dict[str, tuple] = {
    "orders_q3_unshipped": (q_orders_q3_unshipped, ORDERS_Q3_SQL),
    "orders_q18_big_orders": (q_orders_q18_big_orders, ORDERS_Q18_SQL),
    "top_supplier_revenue": (q_top_supplier_revenue, TOP_SUPPLIER_SQL),
    "orders_q4_late_exists": (q_orders_q4_late_exists, ORDERS_Q4_SQL),
    "docs_norm_dedup": (q_docs_norm_dedup, DOCS_NORM_DEDUP_SQL),
    "events_type_value_quantiles": (
        q_events_type_value_quantiles,
        EVENTS_TYPE_QUANTILES_SQL,
    ),
    "events_bounce_rate": (q_events_bounce_rate, EVENTS_BOUNCE_SQL),
    "events_since_last_purchase": (
        q_events_since_last_purchase,
        EVENTS_SINCE_PURCHASE_SQL,
    ),
    "events_reactivations": (q_events_reactivations,
                             EVENTS_REACTIVATIONS_SQL),
    "embedding_pq_energy_by_label": (
        q_embedding_pq_energy_by_label,
        _pq_energy_by_label_sql(),
    ),
}
