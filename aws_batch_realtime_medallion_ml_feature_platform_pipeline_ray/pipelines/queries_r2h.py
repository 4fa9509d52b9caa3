"""Round-2h operators: multi-table analytics parity, governance audits,
and evaluation statistics.

Analytics parity (the classic decision-support shapes a feature
platform's gold layer feeds — each one exercises a distinct JOIN plan):

- ``orders_market_share``: per-order-year revenue share of one supplier
  nation within one customer region (TPC-H Q8 shape) — a three-hop
  big-big join chain (lineitem ⋈ supplier, ⋈ orders, ⋈ customer), each
  hop ONE co-partitioning exchange with in-partition partial reduction,
  plus a broadcast of the fixed-cardinality nation→region map.
- ``returned_top_customers``: top customers by returned-lineitem revenue
  in a quarter (Q10 shape) — filter-at-read + two cogroups + the
  engine's global sort/limit.
- ``promo_revenue_ratio``: promo-type share of revenue in a ship month
  (Q14 shape) — one cogroup, O(1) partials, scalar finale.
- ``small_qty_revenue``: revenue lost to below-one-fifth-of-average
  order quantities (Q17 shape) — the correlated-subquery-as-join plan:
  per-part avg via the exact keyed fold, re-joined against lineitem in
  a second pass; the threshold compare is exact-integer
  (``5·qty·cnt < sum_qty``, all in cents).
- ``large_volume_customers``: orders whose total quantity exceeds a
  threshold, with customer attribution (Q18 shape) — fold → filter →
  two cogroups → global sort/limit.

Governance / privacy:

- ``fk_orphans_audit``: referential-integrity audit of three FK edges
  (lineitem→orders, orders→customer via cogroup anti-join;
  customer→nation via broadcast ``is_in``) — per-partition orphan
  partials, one tiny union'd rollup. The data-quality gate a medallion
  silver layer runs before promoting a snapshot.
- ``events_k_anonymity``: k-anonymity check over the quasi-identifier
  (event_type, hour-of-day, value-bucket) — group sizes via partial
  counts, violating-group/exposed-row totals in one scalar row. The
  privacy sign-off companion to ``docs_pii_redact``.

Evaluation statistics:

- ``events_anova_f``: one-way ANOVA F across event types from exact
  integer (n, Σ, Σ²) partials in cents; every double expression after
  the fold mirrors the SQL twin operand-for-operand (same contract as
  ``events_welch_t``).
- ``events_xcorr_lagged``: Pearson cross-correlation of two event
  types' daily counts at lags 0..7 — the lead/lag signal scan behind
  "do clicks predict purchases". Integer count sums, closed-form r.
- ``eval_ndcg``: NDCG@k of the exact-kNN retrieval against same-label
  relevance — the ranking-quality metric for the similarity-search
  stack (reuses ``knn``'s plan, adds a label cogroup).
- ``embedding_power_iteration``: one distributed power-iteration step
  ``v₁ = normalize(Gᵀ(G·s))`` of the uncentered second-moment operator
  — the top-eigenvector inner loop of PCA. Per-batch work is two BLAS
  products emitting O(d) partials; the vector stream never shuffles.

Scale notes: every join here is either a co-partitioning
``cogroup_by_key`` (both sides large) or a broadcast of a
fixed-cardinality dimension (nation/region: 25 rows by spec). Scalar
finales fold through ``Dataset.aggregate`` (O(1) driver rows);
``events_xcorr_lagged``'s finale takes the per-day fold driver-side —
O(active days), bounded by calendar time, not data volume. Integer
sums use cents headroom far beyond test scales; overflow margins are
documented per query.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import div_trunc, round6, round_half_away
from ..sources.reads import read_parquet_sized
from ..stages.keyed import cogroup_by_key, fold_by_keys

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts

# --- analytics-parity constants -------------------------------------------
MKT_REGION = "ASIA"  # customer region filter (Q8 shape)
MKT_NATION = "NATION_2"  # supplier nation whose share we track
RET_LO, RET_HI = "1996-01-01", "1996-04-01"  # returned-items quarter
RET_TOPK = 20
PROMO_LO, PROMO_HI = "1996-01-01", "1996-02-01"  # promo ship month
PROMO_TYPE = "PROMO"
BIGQTY_C100 = 250 * 100  # Q18 threshold: 250 quantity units, in cents
BIGQTY_TOPK = 50
# --- governance constants ---------------------------------------------------
KANON_K = 5
KANON_VBUCKET_C = 5000  # 50.00 value units per bucket, in cents
# --- eval constants ----------------------------------------------------------
XCORR_A, XCORR_B = "purchase", "click"
XCORR_MAX_LAG = 7


def _cents(x: np.ndarray) -> np.ndarray:
    return round_half_away(np.asarray(x, dtype=np.float64) * 100.0).astype(
        np.int64
    )


def _rev_c100(price: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """House revenue unit: price cents x (100 - discount percent), exact
    int64 (same contract as ``brand_revenue``)."""
    return _cents(price) * (100 - _cents(disc))


def _years(ts: np.ndarray) -> np.ndarray:
    """Calendar year of a datetime64[us] array (mirrors EXTRACT(year))."""
    return ts.astype("datetime64[Y]").astype(np.int64) + 1970


def _seg_sum(keys: list[np.ndarray], vals: list[np.ndarray]):
    """Composite-key segmented sum: lexsort + reduceat. Returns
    (unique key columns, summed value columns). Empty input yields
    empty outputs of the same dtypes (the house empty-block guard)."""
    order = np.lexsort(keys[::-1])
    if len(order) == 0:
        return [k[:0] for k in keys], [v[:0] for v in vals]
    ks = [k[order] for k in keys]
    head = np.zeros(len(order), dtype=bool)
    head[0] = True
    for k in ks:
        head[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(head)
    out_keys = [k[starts] for k in ks]
    out_vals = [np.add.reduceat(v[order], starts) for v in vals]
    return out_keys, out_vals


def _nation_maps(sf_dir: str):
    """The fixed-cardinality (25-row by spec) nation/region dimension,
    read once on the driver and closed over — the broadcast side of
    every region filter (house ``broadcast_join`` precedent)."""
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    reg_name = dict(
        zip(
            np.asarray(reg["r_regionkey"]).tolist(),
            reg["r_name"].to_pylist(),
        )
    )
    nkey = np.asarray(nat["n_nationkey"]).tolist()
    nname = nat["n_name"].to_pylist()
    nreg = [reg_name[r] for r in np.asarray(nat["n_regionkey"]).tolist()]
    return dict(zip(nkey, nname)), dict(zip(nkey, nreg))


# ---------------------------------------------------------------------------
# orders_market_share — Q8 shape: nation revenue share per order year
# ---------------------------------------------------------------------------


def q_orders_market_share(sf_dir: str):
    """Per order-year: the share of revenue (customers in ``MKT_REGION``)
    supplied by ``MKT_NATION``. Three co-partitioning exchanges — the
    canonical snowflake join chain when every dimension scales with the
    corpus except nation/region (broadcast).

    Overflow margin: revenue partials are cents x percent int64; a year
    bucket holds < 9.2e18 / ~1e9-per-row ≈ 9e9 rows before the fold
    would need the float path."""
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda t: t.rename_columns(
            ["orderkey", "suppkey", "l_extendedprice", "l_discount"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    supp = read_parquet_sized(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(
        lambda t: pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "s_nationkey": t["s_nationkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nation_name, nation_region = _nation_maps(sf_dir)
    tgt_nations = np.sort(
        np.array(
            [k for k, v in nation_name.items() if v == MKT_NATION],
            dtype=np.int64,
        )
    )
    region_nations = np.sort(
        np.array(
            [k for k, v in nation_region.items() if v == MKT_REGION],
            dtype=np.int64,
        )
    )

    ord_partial_schema = {
        "orderkey": pa.int64(),
        "tgt_c100": pa.int64(),
        "all_c100": pa.int64(),
    }

    def join_supp(lpart: pa.Table, spart: pa.Table) -> pa.Table:
        empty = pa.table(
            {n: pa.array([], t) for n, t in ord_partial_schema.items()}
        )
        if lpart.num_rows == 0 or spart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["suppkey"], value_set=spart["suppkey"].combine_chunks()
        ).combine_chunks()
        snat = spart["s_nationkey"].combine_chunks().take(idx)
        keep = pc.is_valid(snat)  # inner join: drop unmatched suppliers
        if not pc.any(keep).as_py():
            return empty
        kn = np.asarray(keep)
        rev = _rev_c100(
            np.asarray(lpart["l_extendedprice"].combine_chunks())[kn],
            np.asarray(lpart["l_discount"].combine_chunks())[kn],
        )
        snat_np = np.asarray(snat.filter(keep))
        is_tgt = np.isin(snat_np, tgt_nations)
        okey = np.asarray(lpart["orderkey"].combine_chunks())[kn]
        (ok,), (tgt, allr) = _seg_sum(
            [okey], [np.where(is_tgt, rev, 0), rev]
        )
        return pa.table(
            {"orderkey": pa.array(ok), "tgt_c100": pa.array(tgt),
             "all_c100": pa.array(allr)}
        )

    by_order = cogroup_by_key(li, supp, "suppkey", join_supp,
                              num_parts=NUM_PARTS)

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t: pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "custkey": t["o_custkey"].cast(pa.int64()),
                "o_year": pa.array(
                    _years(np.asarray(t["o_orderdate"].combine_chunks())),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    cust_partial_schema = {
        "custkey": pa.int64(),
        "o_year": pa.int64(),
        "tgt_c100": pa.int64(),
        "all_c100": pa.int64(),
    }

    def join_orders(lpart: pa.Table, opart: pa.Table) -> pa.Table:
        empty = pa.table(
            {n: pa.array([], t) for n, t in cust_partial_schema.items()}
        )
        if lpart.num_rows == 0 or opart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["orderkey"], value_set=opart["orderkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        kn = np.asarray(keep)
        taken = np.asarray(idx.filter(keep))
        cust = np.asarray(opart["custkey"].combine_chunks())[taken]
        year = np.asarray(opart["o_year"].combine_chunks())[taken]
        tgt = np.asarray(lpart["tgt_c100"].combine_chunks())[kn]
        allr = np.asarray(lpart["all_c100"].combine_chunks())[kn]
        (ck, yr), (ts_, as_) = _seg_sum([cust, year], [tgt, allr])
        return pa.table(
            {"custkey": pa.array(ck), "o_year": pa.array(yr),
             "tgt_c100": pa.array(ts_), "all_c100": pa.array(as_)}
        )

    by_cust = cogroup_by_key(
        by_order, orders, "orderkey", join_orders, num_parts=NUM_PARTS
    )

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda t: pa.table(
            {
                "custkey": t["c_custkey"].cast(pa.int64()),
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    year_partial_schema = {
        "o_year": pa.int64(),
        "tgt_c100": pa.int64(),
        "all_c100": pa.int64(),
    }

    def join_cust(lpart: pa.Table, cpart: pa.Table) -> pa.Table:
        empty = pa.table(
            {n: pa.array([], t) for n, t in year_partial_schema.items()}
        )
        if lpart.num_rows == 0 or cpart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["custkey"], value_set=cpart["custkey"].combine_chunks()
        ).combine_chunks()
        cnat = cpart["c_nationkey"].combine_chunks().take(idx)
        keep_np = np.zeros(lpart.num_rows, dtype=bool)
        valid = np.asarray(pc.is_valid(cnat))
        cnat_np = np.asarray(cnat)
        keep_np[valid] = np.isin(cnat_np[valid], region_nations)
        if not keep_np.any():
            return empty
        year = np.asarray(lpart["o_year"].combine_chunks())[keep_np]
        tgt = np.asarray(lpart["tgt_c100"].combine_chunks())[keep_np]
        allr = np.asarray(lpart["all_c100"].combine_chunks())[keep_np]
        (yr,), (ts_, as_) = _seg_sum([year], [tgt, allr])
        return pa.table(
            {"o_year": pa.array(yr), "tgt_c100": pa.array(ts_),
             "all_c100": pa.array(as_)}
        )

    by_year = cogroup_by_key(
        by_cust, cust, "custkey", join_cust, num_parts=NUM_PARTS
    )

    folded = fold_by_keys(
        by_year, ["o_year"], sums=("tgt_c100", "all_c100"),
        num_parts=NUM_PARTS,
    )

    def finish(t: pa.Table) -> pa.Table:
        tgt = np.asarray(t["tgt_c100"].combine_chunks(), dtype=np.int64)
        allr = np.asarray(t["all_c100"].combine_chunks(), dtype=np.int64)
        share = round6(tgt / allr.astype(np.float64))
        return pa.table(
            {
                "o_year": t["o_year"],
                "tgt_rev_c100": pa.array(tgt),
                "total_rev_c100": pa.array(allr),
                "mkt_share": pa.array(share, pa.float64()),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow")


ORDERS_MARKET_SHARE_SQL = f"""
WITH rev AS (
    SELECT EXTRACT(year FROM o.o_orderdate)::BIGINT AS o_year,
           CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100, 0) AS BIGINT)) AS r,
           (ns.n_name = '{MKT_NATION}') AS is_tgt
    FROM lineitem l
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
    JOIN nation ns ON s.s_nationkey = ns.n_nationkey
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation nc ON c.c_nationkey = nc.n_nationkey
    JOIN region rg ON nc.n_regionkey = rg.r_regionkey
    WHERE rg.r_name = '{MKT_REGION}'
)
SELECT o_year,
       CAST(sum(CASE WHEN is_tgt THEN r ELSE 0 END) AS BIGINT)
           AS tgt_rev_c100,
       CAST(sum(r) AS BIGINT) AS total_rev_c100,
       ROUND(sum(CASE WHEN is_tgt THEN r ELSE 0 END)
             / CAST(sum(r) AS DOUBLE), 6) AS mkt_share
FROM rev GROUP BY 1
"""


# ---------------------------------------------------------------------------
# returned_top_customers — Q10 shape
# ---------------------------------------------------------------------------


def q_returned_top_customers(sf_dir: str):
    """Top ``RET_TOPK`` customers by revenue of RETURNED lineitems for
    orders placed in [RET_LO, RET_HI). Filter at the scan, fold by
    order, one cogroup to attribute orders→customers, a second to
    attach customer attributes, then the engine's global sort/limit
    (O(k) rows reach the driver)."""
    lo = np.datetime64(RET_LO, "us")
    hi = np.datetime64(RET_HI, "us")

    def li_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"orderkey": pa.array([], pa.int64()),
             "rev_c100": pa.array([], pa.int64())}
        )
        flag = np.asarray(
            pc.equal(t["l_returnflag"], "R").combine_chunks()
        )
        if not flag.any():
            return empty
        okey = np.asarray(t["l_orderkey"].combine_chunks())[flag]
        rev = _rev_c100(
            np.asarray(t["l_extendedprice"].combine_chunks())[flag],
            np.asarray(t["l_discount"].combine_chunks())[flag],
        )
        (ok,), (rs,) = _seg_sum([okey], [rev])
        return pa.table({"orderkey": pa.array(ok), "rev_c100": pa.array(rs)})

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)

    def ord_window(t: pa.Table) -> pa.Table:
        d = np.asarray(t["o_orderdate"].combine_chunks())
        keep = (d >= lo) & (d < hi)
        return pa.table(
            {
                "orderkey": pa.array(
                    np.asarray(t["o_orderkey"].combine_chunks())[keep]
                ),
                "custkey": pa.array(
                    np.asarray(t["o_custkey"].combine_chunks())[keep]
                ),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_window, batch_format="pyarrow", zero_copy_batch=True)

    def join_orders(lpart: pa.Table, opart: pa.Table) -> pa.Table:
        empty = pa.table(
            {"custkey": pa.array([], pa.int64()),
             "rev_c100": pa.array([], pa.int64())}
        )
        if lpart.num_rows == 0 or opart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["orderkey"], value_set=opart["orderkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        kn = np.asarray(keep)
        cust = np.asarray(opart["custkey"].combine_chunks())[
            np.asarray(idx.filter(keep))
        ]
        rev = np.asarray(lpart["rev_c100"].combine_chunks())[kn]
        (ck,), (rs,) = _seg_sum([cust], [rev])
        return pa.table({"custkey": pa.array(ck), "rev_c100": pa.array(rs)})

    by_cust = fold_by_keys(
        cogroup_by_key(li, orders, "orderkey", join_orders,
                       num_parts=NUM_PARTS),
        ["custkey"],
        sums=("rev_c100",),
        num_parts=NUM_PARTS,
    )

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    ).map_batches(
        lambda t: pa.table(
            {
                "custkey": t["c_custkey"].cast(pa.int64()),
                "c_name": t["c_name"],
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    out_schema = {
        "c_custkey": pa.int64(),
        "c_name": pa.string(),
        "c_nationkey": pa.int64(),
        "revenue_c100": pa.int64(),
    }

    def join_cust(lpart: pa.Table, cpart: pa.Table) -> pa.Table:
        empty = pa.table({n: pa.array([], t) for n, t in out_schema.items()})
        if lpart.num_rows == 0 or cpart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["custkey"], value_set=cpart["custkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        taken = idx.filter(keep)
        return pa.table(
            {
                "c_custkey": lpart["custkey"].filter(keep),
                "c_name": cpart["c_name"].combine_chunks().take(taken),
                "c_nationkey": cpart["c_nationkey"].combine_chunks().take(taken),
                "revenue_c100": lpart["rev_c100"].filter(keep),
            }
        )

    full = cogroup_by_key(by_cust, cust, "custkey", join_cust,
                          num_parts=NUM_PARTS)
    return full.sort(
        ["revenue_c100", "c_custkey"], descending=[True, False]
    ).limit(RET_TOPK)


RETURNED_TOP_CUSTOMERS_SQL = f"""
SELECT c.c_custkey, c.c_name, CAST(c.c_nationkey AS BIGINT) AS c_nationkey,
       CAST(sum(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100, 0) AS BIGINT)))
            AS BIGINT) AS revenue_c100
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE l.l_returnflag = 'R'
  AND o.o_orderdate >= TIMESTAMP '{RET_LO}'
  AND o.o_orderdate < TIMESTAMP '{RET_HI}'
GROUP BY 1, 2, 3
ORDER BY revenue_c100 DESC, c_custkey ASC
LIMIT {RET_TOPK}
"""


# ---------------------------------------------------------------------------
# promo_revenue_ratio — Q14 shape
# ---------------------------------------------------------------------------


def q_promo_revenue_ratio(sf_dir: str):
    """Share of revenue from promo-type parts among lineitems shipped in
    [PROMO_LO, PROMO_HI): ONE cogroup on partkey, O(1) partials per
    partition, scalar finale through ``Dataset.aggregate``."""
    from ray.data.aggregate import Sum

    lo = np.datetime64(PROMO_LO, "us")
    hi = np.datetime64(PROMO_HI, "us")

    def li_window(t: pa.Table) -> pa.Table:
        d = np.asarray(t["l_shipdate"].combine_chunks())
        keep = (d >= lo) & (d < hi)
        return pa.table(
            {
                "partkey": pa.array(
                    np.asarray(t["l_partkey"].combine_chunks())[keep]
                ),
                "l_extendedprice": pa.array(
                    np.asarray(t["l_extendedprice"].combine_chunks())[keep]
                ),
                "l_discount": pa.array(
                    np.asarray(t["l_discount"].combine_chunks())[keep]
                ),
            }
        )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_window, batch_format="pyarrow", zero_copy_batch=True)

    part = read_parquet_sized(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda t: pa.table(
            {"partkey": t["p_partkey"].cast(pa.int64()), "p_type": t["p_type"]}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def join_part(lpart: pa.Table, ppart: pa.Table) -> pa.Table:
        empty = pa.table(
            {"promo_c100": pa.array([], pa.int64()),
             "total_c100": pa.array([], pa.int64())}
        )
        if lpart.num_rows == 0 or ppart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["partkey"], value_set=ppart["partkey"].combine_chunks()
        ).combine_chunks()
        ptype = ppart["p_type"].combine_chunks().take(idx)
        keep = pc.is_valid(ptype)
        if not pc.any(keep).as_py():
            return empty
        kn = np.asarray(keep)
        rev = _rev_c100(
            np.asarray(lpart["l_extendedprice"].combine_chunks())[kn],
            np.asarray(lpart["l_discount"].combine_chunks())[kn],
        )
        is_promo = np.asarray(
            pc.equal(ptype.filter(keep), PROMO_TYPE)
        )
        return pa.table(
            {
                "promo_c100": pa.array(
                    [int(rev[is_promo].sum())], pa.int64()
                ),
                "total_c100": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    partials = cogroup_by_key(li, part, "partkey", join_part,
                              num_parts=NUM_PARTS)
    agg = partials.aggregate(
        Sum("promo_c100", alias_name="p"), Sum("total_c100", alias_name="t")
    )
    promo = int(agg["p"] or 0)
    total = int(agg["t"] or 0)
    pct = (
        float(round6(np.array([100.0 * promo / float(total)]))[0])
        if total
        else None
    )
    return pa.table(
        {
            "promo_rev_c100": pa.array([promo], pa.int64()),
            "total_rev_c100": pa.array([total], pa.int64()),
            "promo_pct": pa.array([pct], pa.float64()),
        }
    )


PROMO_REVENUE_RATIO_SQL = f"""
WITH rev AS (
    SELECT CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100, 0) AS BIGINT)) AS r,
           (p.p_type = '{PROMO_TYPE}') AS is_promo
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    WHERE l.l_shipdate >= TIMESTAMP '{PROMO_LO}'
      AND l.l_shipdate < TIMESTAMP '{PROMO_HI}'
)
SELECT CAST(coalesce(sum(CASE WHEN is_promo THEN r ELSE 0 END), 0) AS BIGINT)
           AS promo_rev_c100,
       CAST(coalesce(sum(r), 0) AS BIGINT) AS total_rev_c100,
       ROUND(100.0 * sum(CASE WHEN is_promo THEN r ELSE 0 END)
             / CAST(sum(r) AS DOUBLE), 6) AS promo_pct
FROM rev
"""


# ---------------------------------------------------------------------------
# small_qty_revenue — Q17 shape: correlated subquery as a two-pass join
# ---------------------------------------------------------------------------


def q_small_qty_revenue(sf_dir: str):
    """Total revenue of lineitems whose quantity is below one fifth of
    their part's average quantity. The correlated-subquery plan: pass A
    folds (Σqty, n) per part; pass B re-joins those stats against the
    lineitem stream and applies the EXACT integer threshold
    ``5·qty_c·n < sum_qty_c`` — no float average, no epsilon."""
    from ray.data.aggregate import Sum

    def qty_partial(t: pa.Table) -> pa.Table:
        qc = _cents(np.asarray(t["l_quantity"].combine_chunks()))
        pk = np.asarray(t["l_partkey"].combine_chunks())
        (p,), (s, n) = _seg_sum(
            [pk], [qc, np.ones(len(pk), dtype=np.int64)]
        )
        return pa.table(
            {"partkey": pa.array(p), "sum_qty_c": pa.array(s),
             "n_li": pa.array(n)}
        )

    li_cols = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    stats = fold_by_keys(
        li_cols.map_batches(
            qty_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["partkey"],
        sums=("sum_qty_c", "n_li"),
        num_parts=NUM_PARTS,
    )

    li = li_cols.map_batches(
        lambda t: pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "l_quantity": t["l_quantity"],
                "l_extendedprice": t["l_extendedprice"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def probe(lpart: pa.Table, spart: pa.Table) -> pa.Table:
        empty = pa.table(
            {"price_c": pa.array([], pa.int64()),
             "n_small": pa.array([], pa.int64())}
        )
        if lpart.num_rows == 0 or spart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["partkey"], value_set=spart["partkey"].combine_chunks()
        ).combine_chunks()
        taken = np.asarray(idx)  # stats cover every part seen in pass A
        qc = _cents(np.asarray(lpart["l_quantity"].combine_chunks()))
        sq = np.asarray(spart["sum_qty_c"].combine_chunks())[taken]
        n = np.asarray(spart["n_li"].combine_chunks())[taken]
        small = 5 * qc * n < sq
        if not small.any():
            return empty
        price = _cents(
            np.asarray(lpart["l_extendedprice"].combine_chunks())[small]
        )
        return pa.table(
            {
                "price_c": pa.array([int(price.sum())], pa.int64()),
                "n_small": pa.array([int(small.sum())], pa.int64()),
            }
        )

    partials = cogroup_by_key(li, stats, "partkey", probe,
                              num_parts=NUM_PARTS)
    agg = partials.aggregate(
        Sum("price_c", alias_name="p"), Sum("n_small", alias_name="n")
    )
    price = int(agg["p"] or 0)
    n = int(agg["n"] or 0)
    yearly = int(div_trunc(np.array([price], dtype=np.int64), 7)[0])
    return pa.table(
        {
            "total_price_c100": pa.array([price], pa.int64()),
            "n_small_lines": pa.array([n], pa.int64()),
            "avg_yearly_c100": pa.array([yearly], pa.int64()),
        }
    )


SMALL_QTY_REVENUE_SQL = """
WITH s AS (
    SELECT l_partkey,
           CAST(sum(CAST(ROUND(l_quantity * 100, 0) AS BIGINT)) AS BIGINT)
               AS sum_qty_c,
           CAST(count(*) AS BIGINT) AS n_li
    FROM lineitem GROUP BY 1
),
small AS (
    SELECT CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT) AS price_c
    FROM lineitem l JOIN s ON l.l_partkey = s.l_partkey
    WHERE 5 * CAST(ROUND(l.l_quantity * 100, 0) AS BIGINT) * s.n_li
          < s.sum_qty_c
)
SELECT CAST(coalesce(sum(price_c), 0) AS BIGINT) AS total_price_c100,
       CAST(count(*) AS BIGINT) AS n_small_lines,
       CAST(coalesce(sum(price_c), 0) // 7 AS BIGINT) AS avg_yearly_c100
FROM small
"""


# ---------------------------------------------------------------------------
# large_volume_customers — Q18 shape
# ---------------------------------------------------------------------------


def q_large_volume_customers(sf_dir: str):
    """Orders whose total lineitem quantity exceeds ``BIGQTY_C100``
    cents, with customer attribution: fold → filter (tiny survivor set)
    → cogroup with orders → cogroup with customer → global sort/limit."""

    def qty_partial(t: pa.Table) -> pa.Table:
        qc = _cents(np.asarray(t["l_quantity"].combine_chunks()))
        ok = np.asarray(t["l_orderkey"].combine_chunks())
        (o,), (s,) = _seg_sum([ok], [qc])
        return pa.table(
            {"orderkey": pa.array(o), "qty_c100": pa.array(s)}
        )

    per_order = fold_by_keys(
        read_parquet_sized(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
        ).map_batches(
            qty_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["orderkey"],
        sums=("qty_c100",),
        num_parts=NUM_PARTS,
    ).map_batches(
        lambda t: t.filter(pc.greater(t["qty_c100"], BIGQTY_C100)),
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
                "custkey": t["o_custkey"].cast(pa.int64()),
                "total_price_c100": pa.array(
                    _cents(np.asarray(t["o_totalprice"].combine_chunks())),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    mid_schema = {
        "custkey": pa.int64(),
        "o_orderkey": pa.int64(),
        "total_price_c100": pa.int64(),
        "qty_c100": pa.int64(),
    }

    def join_orders(lpart: pa.Table, opart: pa.Table) -> pa.Table:
        empty = pa.table({n: pa.array([], t) for n, t in mid_schema.items()})
        if lpart.num_rows == 0 or opart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["orderkey"], value_set=opart["orderkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        taken = idx.filter(keep)
        return pa.table(
            {
                "custkey": opart["custkey"].combine_chunks().take(taken),
                "o_orderkey": lpart["orderkey"].filter(keep),
                "total_price_c100": opart["total_price_c100"]
                .combine_chunks()
                .take(taken),
                "qty_c100": lpart["qty_c100"].filter(keep),
            }
        )

    mid = cogroup_by_key(per_order, orders, "orderkey", join_orders,
                         num_parts=NUM_PARTS)

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(
        lambda t: pa.table(
            {"custkey": t["c_custkey"].cast(pa.int64()), "c_name": t["c_name"]}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    out_schema = {
        "c_custkey": pa.int64(),
        "c_name": pa.string(),
        "o_orderkey": pa.int64(),
        "total_price_c100": pa.int64(),
        "qty_c100": pa.int64(),
    }

    def join_cust(lpart: pa.Table, cpart: pa.Table) -> pa.Table:
        empty = pa.table({n: pa.array([], t) for n, t in out_schema.items()})
        if lpart.num_rows == 0 or cpart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["custkey"], value_set=cpart["custkey"].combine_chunks()
        ).combine_chunks()
        keep = pc.is_valid(idx)
        if not pc.any(keep).as_py():
            return empty
        taken = idx.filter(keep)
        return pa.table(
            {
                "c_custkey": lpart["custkey"].filter(keep),
                "c_name": cpart["c_name"].combine_chunks().take(taken),
                "o_orderkey": lpart["o_orderkey"].filter(keep),
                "total_price_c100": lpart["total_price_c100"].filter(keep),
                "qty_c100": lpart["qty_c100"].filter(keep),
            }
        )

    full = cogroup_by_key(mid, cust, "custkey", join_cust,
                          num_parts=NUM_PARTS)
    return full.sort(
        ["total_price_c100", "o_orderkey"], descending=[True, False]
    ).limit(BIGQTY_TOPK)


LARGE_VOLUME_CUSTOMERS_SQL = f"""
WITH big AS (
    SELECT l_orderkey,
           CAST(sum(CAST(ROUND(l_quantity * 100, 0) AS BIGINT)) AS BIGINT)
               AS qty_c100
    FROM lineitem GROUP BY 1
    HAVING sum(CAST(ROUND(l_quantity * 100, 0) AS BIGINT)) > {BIGQTY_C100}
)
SELECT c.c_custkey, c.c_name, b.l_orderkey AS o_orderkey,
       CAST(ROUND(o.o_totalprice * 100, 0) AS BIGINT) AS total_price_c100,
       b.qty_c100
FROM big b
JOIN orders o ON b.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
ORDER BY total_price_c100 DESC, o_orderkey ASC
LIMIT {BIGQTY_TOPK}
"""


# ---------------------------------------------------------------------------
# fk_orphans_audit — referential-integrity governance
# ---------------------------------------------------------------------------


def q_fk_orphans_audit(sf_dir: str):
    """Orphan-row audit of three FK edges. The two scaling parents go
    through cogroup anti-joins (ONE exchange each); the fixed-size
    nation parent is a broadcast ``is_in``. Output: one row per edge
    with orphan and child-row counts — the promotion gate a medallion
    silver layer runs before publishing."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    def anti_counts(rel: str):
        def fn(lpart: pa.Table, rpart: pa.Table) -> pa.Table:
            n_child = lpart.num_rows
            if n_child == 0:
                return pa.table(
                    {"rel": pa.array([], pa.string()),
                     "orphans": pa.array([], pa.int64()),
                     "child_rows": pa.array([], pa.int64())}
                )
            if rpart.num_rows == 0:
                orphans = n_child
            else:
                idx = pc.index_in(
                    lpart["key"], value_set=rpart["key"].combine_chunks()
                )
                orphans = idx.null_count
            return pa.table(
                {
                    "rel": pa.array([rel], pa.string()),
                    "orphans": pa.array([orphans], pa.int64()),
                    "child_rows": pa.array([n_child], pa.int64()),
                }
            )

        return fn

    def keyed(path: str, col: str):
        return read_parquet_sized(path, columns=[col]).map_batches(
            lambda t, c=col: pa.table({"key": t[c].cast(pa.int64())}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    li_vs_orders = cogroup_by_key(
        keyed(f"{sf_dir}/lineitem.parquet", "l_orderkey"),
        keyed(f"{sf_dir}/orders.parquet", "o_orderkey"),
        "key",
        anti_counts("lineitem->orders"),
        num_parts=NUM_PARTS,
    )
    orders_vs_cust = cogroup_by_key(
        keyed(f"{sf_dir}/orders.parquet", "o_custkey"),
        keyed(f"{sf_dir}/customer.parquet", "c_custkey"),
        "key",
        anti_counts("orders->customer"),
        num_parts=NUM_PARTS,
    )

    nat_keys = np.sort(
        np.asarray(
            pq.read_table(
                f"{sf_dir}/nation.parquet", columns=["n_nationkey"]
            )["n_nationkey"]
        ).astype(np.int64)
    )

    def cust_vs_nation(t: pa.Table) -> pa.Table:
        n_child = t.num_rows
        if n_child == 0:
            return pa.table(
                {"rel": pa.array([], pa.string()),
                 "orphans": pa.array([], pa.int64()),
                 "child_rows": pa.array([], pa.int64())}
            )
        nk = np.asarray(t["c_nationkey"].combine_chunks()).astype(np.int64)
        orphans = int((~np.isin(nk, nat_keys)).sum())
        return pa.table(
            {
                "rel": pa.array(["customer->nation"], pa.string()),
                "orphans": pa.array([orphans], pa.int64()),
                "child_rows": pa.array([n_child], pa.int64()),
            }
        )

    cust_edge = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey"]
    ).map_batches(cust_vs_nation, batch_format="pyarrow",
                  zero_copy_batch=True)

    partials = li_vs_orders.union(orders_vs_cust).union(cust_edge)
    out = partials.groupby("rel").aggregate(
        Sum("orphans", alias_name="orphan_rows"),
        Sum("child_rows", alias_name="child_rows"),
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "rel": t["rel"],
                "orphan_rows": t["orphan_rows"].cast(pa.int64()),
                "child_rows": t["child_rows"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


FK_ORPHANS_AUDIT_SQL = """
SELECT 'lineitem->orders' AS rel,
       CAST(count(*) FILTER (o.o_orderkey IS NULL) AS BIGINT) AS orphan_rows,
       CAST(count(*) AS BIGINT) AS child_rows
FROM lineitem l LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey
UNION ALL
SELECT 'orders->customer',
       CAST(count(*) FILTER (c.c_custkey IS NULL) AS BIGINT),
       CAST(count(*) AS BIGINT)
FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
UNION ALL
SELECT 'customer->nation',
       CAST(count(*) FILTER (n.n_nationkey IS NULL) AS BIGINT),
       CAST(count(*) AS BIGINT)
FROM customer c LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey
"""


# ---------------------------------------------------------------------------
# events_k_anonymity — privacy group-size audit
# ---------------------------------------------------------------------------


def q_events_k_anonymity(sf_dir: str):
    """k-anonymity over QI = (event_type, hour-of-day, value bucket of
    ``KANON_VBUCKET_C`` cents): per-batch partial counts collapse each
    block to O(|QI-space|) rows, one low-cardinality groupby folds them,
    and the finale is a single scalar row (groups, violators, exposed
    rows). NULL values form their own bucket (-1), mirroring the twin."""
    from ray.data.aggregate import Sum

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        empty = pa.table(
            {"event_type": pa.array([], pa.string()),
             "hod": pa.array([], pa.int64()),
             "vbucket": pa.array([], pa.int64()),
             "pn": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        us = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        hod = (us // 3_600_000_000) % 24
        val = t["value"].combine_chunks()
        valid = np.asarray(pc.is_valid(val))
        vb = np.full(t.num_rows, -1, dtype=np.int64)
        if valid.any():
            cents = _cents(np.asarray(val)[valid])
            vb[valid] = div_trunc(cents, KANON_VBUCKET_C)
        et = np.asarray(t["event_type"].combine_chunks().cast(pa.large_string()))
        inv, uniq = pd.factorize(et)
        (code, h, v), (n,) = _seg_sum(
            [inv.astype(np.int64), hod, vb],
            [np.ones(t.num_rows, dtype=np.int64)],
        )
        return pa.table(
            {
                "event_type": pa.array(uniq[code], pa.string()),
                "hod": pa.array(h),
                "vbucket": pa.array(v),
                "pn": pa.array(n),
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hod", "vbucket"])
        .aggregate(Sum("pn", alias_name="n"))
    )

    def summarize(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n"].combine_chunks(), dtype=np.int64)
        viol = n < KANON_K
        return pa.table(
            {
                "total_groups": pa.array([len(n)], pa.int64()),
                "violating_groups": pa.array([int(viol.sum())], pa.int64()),
                "exposed_rows": pa.array([int(n[viol].sum())], pa.int64()),
            }
        )

    agg = folded.map_batches(
        summarize, batch_format="pyarrow"
    ).aggregate(
        Sum("total_groups", alias_name="g"),
        Sum("violating_groups", alias_name="v"),
        Sum("exposed_rows", alias_name="e"),
    )
    return pa.table(
        {
            "total_groups": pa.array([int(agg["g"] or 0)], pa.int64()),
            "violating_groups": pa.array([int(agg["v"] or 0)], pa.int64()),
            "exposed_rows": pa.array([int(agg["e"] or 0)], pa.int64()),
        }
    )


EVENTS_K_ANONYMITY_SQL = f"""
WITH g AS (
    SELECT event_type,
           (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS hod,
           CASE WHEN value IS NULL THEN -1
                ELSE CAST(ROUND(value * 100, 0) AS BIGINT)
                     // {KANON_VBUCKET_C} END AS vbucket,
           count(*) AS n
    FROM events GROUP BY 1, 2, 3
)
SELECT CAST(count(*) AS BIGINT) AS total_groups,
       CAST(count(*) FILTER (n < {KANON_K}) AS BIGINT) AS violating_groups,
       CAST(coalesce(sum(n) FILTER (n < {KANON_K}), 0) AS BIGINT)
           AS exposed_rows
FROM g
"""


# ---------------------------------------------------------------------------
# events_anova_f — one-way ANOVA F across event types
# ---------------------------------------------------------------------------


def q_events_anova_f(sf_dir: str):
    """One-way ANOVA of ``value`` across event types: exact int64
    (n, Σ, Σ²) partials in cents per type (|cents| <= ~5e4 here, so Σ²
    headroom is ~4e9 rows per type), then the F formula in doubles
    written operand-for-operand like the SQL twin. NULL values drop on
    both sides."""
    from ray.data.aggregate import Sum

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        empty = pa.table(
            {"event_type": pa.array([], pa.string()),
             "pn": pa.array([], pa.int64()),
             "ps": pa.array([], pa.int64()),
             "pq": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        mask = pc.is_valid(t["value"])
        if pc.any(pc.invert(mask)).as_py():
            t = t.filter(mask)
        if t.num_rows == 0:
            return empty
        k = _cents(np.asarray(t["value"].combine_chunks()))
        et = np.asarray(t["event_type"].combine_chunks().cast(pa.large_string()))
        inv, uniq = pd.factorize(et)
        inv64 = inv.astype(np.int64)
        (code,), (n, s, q) = _seg_sum(
            [inv64], [np.ones(len(k), dtype=np.int64), k, k * k]
        )
        return pa.table(
            {
                "event_type": pa.array(uniq[code], pa.string()),
                "pn": pa.array(n),
                "ps": pa.array(s),
                "pq": pa.array(q),
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("pn", alias_name="n"),
            Sum("ps", alias_name="s"),
            Sum("pq", alias_name="q"),
        )
    )

    def finale(t: pa.Table) -> pa.Table:
        # sorted by type for a deterministic summation order; the SQL
        # twin's 5-term sums may associate differently — round6 absorbs
        # the ~1e-15-relative ULP drift (see module docstring)
        order = pc.sort_indices(t["event_type"])
        n = np.asarray(t["n"].combine_chunks().take(order), dtype=np.int64)
        s = np.asarray(t["s"].combine_chunks().take(order), dtype=np.int64)
        q = np.asarray(t["q"].combine_chunks().take(order), dtype=np.int64)
        k = len(n)
        big_n = int(n.sum())
        big_s = int(s.sum())
        grand = big_s / float(big_n)
        ssb = float(np.sum(n * (s / n.astype(np.float64) - grand) ** 2))
        ssw = float(np.sum(q - s * (s / n.astype(np.float64))))
        f = None
        if k >= 2 and big_n > k and ssw > 0.0:
            f = float(
                round6((ssb / float(k - 1)) / (ssw / float(big_n - k)))
            )
        return pa.table(
            {
                "n_groups": pa.array([k], pa.int64()),
                "n_rows": pa.array([big_n], pa.int64()),
                "f_stat": pa.array([f], pa.float64()),
            }
        )

    # the fold output is O(#types) rows — a single block finale
    import ray.data as rd  # noqa: F401  (documents the tiny-final contract)

    return folded.repartition(1).map_batches(finale, batch_format="pyarrow")


EVENTS_ANOVA_F_SQL = """
WITH g AS (
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS s,
           CAST(sum(CAST(ROUND(value * 100, 0) AS BIGINT)
                    * CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS q
    FROM events WHERE value IS NOT NULL GROUP BY 1
),
tot AS (
    SELECT CAST(sum(n) AS BIGINT) AS big_n, CAST(sum(s) AS BIGINT) AS big_s,
           CAST(count(*) AS BIGINT) AS k
    FROM g
),
parts AS (
    SELECT t.k, t.big_n,
           sum(g.n * (g.s / CAST(g.n AS DOUBLE)
                      - t.big_s / CAST(t.big_n AS DOUBLE))
                   * (g.s / CAST(g.n AS DOUBLE)
                      - t.big_s / CAST(t.big_n AS DOUBLE))) AS ssb,
           sum(g.q - g.s * (g.s / CAST(g.n AS DOUBLE))) AS ssw
    FROM g, tot t GROUP BY 1, 2
)
SELECT k AS n_groups, big_n AS n_rows,
       CASE WHEN k >= 2 AND big_n > k AND ssw > 0.0
            THEN ROUND((ssb / CAST(k - 1 AS DOUBLE))
                       / (ssw / CAST(big_n - k AS DOUBLE)), 6)
            ELSE NULL END AS f_stat
FROM parts
"""


# ---------------------------------------------------------------------------
# events_xcorr_lagged — daily-count cross-correlation at lags 0..7
# ---------------------------------------------------------------------------


def q_events_xcorr_lagged(sf_dir: str):
    """Pearson correlation between daily counts of ``XCORR_A`` (x) and
    ``XCORR_B`` (y shifted later by `lag` days), lags 0..XCORR_MAX_LAG.
    Per-day counts fold through ONE low-cardinality groupby (O(active
    days) rows); the day grid [min_day, max_day] is zero-filled on both
    engines; all Pearson sums are exact int64 so the only float ops are
    the final sqrt/division, identical operand order → bit-exact."""
    from ray.data.aggregate import Sum

    ds = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"d": pa.array([], pa.int64()),
             "pa_": pa.array([], pa.int64()),
             "pb_": pa.array([], pa.int64())}
        )
        et = t["event_type"].combine_chunks()
        is_a = np.asarray(pc.equal(et, XCORR_A))
        is_b = np.asarray(pc.equal(et, XCORR_B))
        keep = is_a | is_b
        if not keep.any():
            return empty
        us = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))[keep]
        d = us // 86_400_000_000
        (dd,), (na, nb) = _seg_sum(
            [d], [is_a[keep].astype(np.int64), is_b[keep].astype(np.int64)]
        )
        return pa.table(
            {"d": pa.array(dd), "pa_": pa.array(na), "pb_": pa.array(nb)}
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("d")
        .aggregate(Sum("pa_", alias_name="xa"), Sum("pb_", alias_name="xb"))
    )
    # O(active days) rows — bounded by calendar time, not data volume
    tiny = folded.to_pandas()
    if len(tiny) == 0:
        return pa.table(
            {
                "lag": pa.array([], pa.int64()),
                "n_days": pa.array([], pa.int64()),
                "r": pa.array([], pa.float64()),
            }
        )
    d = tiny["d"].to_numpy(np.int64)
    d0, d1 = int(d.min()), int(d.max())
    span = d1 - d0 + 1
    x = np.zeros(span, dtype=np.int64)
    y = np.zeros(span, dtype=np.int64)
    x[d - d0] = tiny["xa"].to_numpy(np.int64)
    y[d - d0] = tiny["xb"].to_numpy(np.int64)
    lags, nn, rr = [], [], []
    for lag in range(XCORR_MAX_LAG + 1):
        # max(.., 0): a lag beyond the span yields an empty pair series
        # (x[:negative] would otherwise wrap and mismatch y[lag:])
        n = max(span - lag, 0)
        xs = x[:n]
        ys = y[lag : lag + n]
        lags.append(lag)
        nn.append(n)
        if n == 0:
            rr.append(None)
            continue
        sx, sy = int(xs.sum()), int(ys.sum())
        sxx = int((xs * xs).sum())
        syy = int((ys * ys).sum())
        sxy = int((xs * ys).sum())
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        if vx <= 0 or vy <= 0:
            rr.append(None)
            continue
        r = float(
            round6(
                (n * sxy - sx * sy)
                / (np.sqrt(float(vx)) * np.sqrt(float(vy)))
            )
        )
        rr.append(r)
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "n_days": pa.array(nn, pa.int64()),
            "r": pa.array(rr, pa.float64()),
        }
    )


EVENTS_XCORR_LAGGED_SQL = f"""
WITH c AS (
    SELECT CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS d,
           CAST(count(*) FILTER (event_type = '{XCORR_A}') AS BIGINT) AS xa,
           CAST(count(*) FILTER (event_type = '{XCORR_B}') AS BIGINT) AS xb
    FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
    GROUP BY 1
),
b AS (SELECT min(d) AS d0, max(d) AS d1 FROM c),
days AS (
    SELECT CAST(unnest(generate_series(b.d0, b.d1)) AS BIGINT) AS d FROM b
),
f AS (
    SELECT days.d, coalesce(c.xa, 0) AS xa, coalesce(c.xb, 0) AS xb
    FROM days LEFT JOIN c USING (d)
),
lags AS (SELECT CAST(unnest(generate_series(0, {XCORR_MAX_LAG})) AS BIGINT)
                AS lag),
p AS (
    SELECT l.lag, fx.xa AS x, fy.xb AS y
    FROM lags l
    JOIN f fx ON true
    JOIN f fy ON fy.d = fx.d + l.lag
),
s AS (
    SELECT lag, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
           CAST(sum(x * x) AS BIGINT) AS sxx,
           CAST(sum(y * y) AS BIGINT) AS syy,
           CAST(sum(x * y) AS BIGINT) AS sxy
    FROM p GROUP BY 1
)
SELECT l.lag, COALESCE(s.n, 0) AS n_days,
       CASE WHEN s.n IS NULL
              OR n * sxx - sx * sx <= 0 OR n * syy - sy * sy <= 0 THEN NULL
            ELSE ROUND((n * sxy - sx * sy)
                       / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                          * sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6)
       END AS r
FROM lags l LEFT JOIN s ON s.lag = l.lag
"""
# The LEFT JOIN from the lags CTE keeps a (lag, n_days=0, r NULL) row for
# lags exceeding the active-day span, mirroring the Ray side on short-span
# inputs (the inner-join twin silently dropped those groups; ADVICE r2).


# ---------------------------------------------------------------------------
# eval_ndcg — NDCG@k of the exact-kNN retrieval vs same-label relevance
# ---------------------------------------------------------------------------


def q_eval_ndcg(sf_dir: str):
    """NDCG@K per query of the brute-force cosine kNN, relevance = 1 iff
    the neighbor shares the query's class label. Reuses ``knn``'s
    broadcast-scorer plan; neighbor labels attach through ONE cogroup on
    vec_id (labels travel only for retrieved ids); the per-query finale
    is a groupby over q_id (K rows each)."""
    import pyarrow.parquet as pq

    from .queries_ann import K, N_QUERIES, _emb, _query_tbl
    from ..stages.ann import knn_bruteforce

    knn = knn_bruteforce(_emb(sf_dir), _query_tbl(sf_dir), k=K)
    knn = knn.map_batches(
        lambda t: pa.table(
            {
                "q_id": t["q_id"].cast(pa.int64()),
                "vec_id": t["vec_id"].cast(pa.int64()),
                "rank": t["rank"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    labels = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    ).map_batches(
        lambda t: pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "label": t["label"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # query labels: fixed-size probe (N_QUERIES rows), row-group pruned
    qlab_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    qlab = dict(
        zip(
            np.asarray(qlab_tbl["vec_id"]).astype(np.int64).tolist(),
            np.asarray(qlab_tbl["label"]).astype(np.int64).tolist(),
        )
    )

    rel_schema = {
        "q_id": pa.int64(),
        "rank": pa.int64(),
        "rel": pa.int64(),
    }

    def attach(lpart: pa.Table, rpart: pa.Table) -> pa.Table:
        empty = pa.table({n: pa.array([], t) for n, t in rel_schema.items()})
        if lpart.num_rows == 0 or rpart.num_rows == 0:
            return empty
        idx = pc.index_in(
            lpart["vec_id"], value_set=rpart["vec_id"].combine_chunks()
        ).combine_chunks()
        nlab = np.asarray(rpart["label"].combine_chunks())[np.asarray(idx)]
        qid = np.asarray(lpart["q_id"].combine_chunks())
        qarr = np.array([qlab[int(q)] for q in qid], dtype=np.int64)
        return pa.table(
            {
                "q_id": pa.array(qid),
                "rank": lpart["rank"],
                "rel": pa.array((nlab == qarr).astype(np.int64)),
            }
        )

    rels = cogroup_by_key(knn, labels, "vec_id", attach,
                          num_parts=NUM_PARTS)

    def per_query(t: pa.Table) -> pa.Table:
        qid = int(t["q_id"][0].as_py())
        rank = np.asarray(t["rank"].combine_chunks(), dtype=np.int64)
        rel = np.asarray(t["rel"].combine_chunks(), dtype=np.int64)
        order = np.argsort(rank)
        rel = rel[order]
        rank = rank[order]
        gains = rel / np.log2(rank + 1.0)
        dcg = float(gains.sum())
        ideal = np.sort(rel)[::-1]
        idcg = float((ideal / np.log2(np.arange(1, len(rel) + 1) + 1.0)).sum())
        n_rel = int(rel.sum())
        ndcg = 0.0 if n_rel == 0 else float(round6(dcg / idcg))
        return pa.table(
            {
                "q_id": pa.array([qid], pa.int64()),
                "n_rel": pa.array([n_rel], pa.int64()),
                "ndcg": pa.array([ndcg], pa.float64()),
            }
        )

    return rels.groupby("q_id").map_groups(per_query, batch_format="pyarrow")


def _eval_ndcg_sql() -> str:
    from .queries_ann import K, N_QUERIES

    return f"""
WITH q AS (
    SELECT vec_id AS q_id, CAST(embedding AS DOUBLE[]) AS qe, label AS qlab
    FROM embeddings WHERE vec_id < {N_QUERIES}
),
sims AS (
    SELECT q.q_id, q.qlab, e.vec_id, e.label,
           list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS sim
    FROM q, embeddings e
    WHERE e.vec_id <> q.q_id
),
r AS (
    SELECT *, row_number() OVER (PARTITION BY q_id
                                 ORDER BY sim DESC, vec_id) AS rank
    FROM sims
),
lab AS (
    SELECT q_id, rank,
           CASE WHEN label = qlab THEN 1 ELSE 0 END AS rel
    FROM r WHERE rank <= {K}
),
ideal AS (
    SELECT q_id, rel,
           row_number() OVER (PARTITION BY q_id
                              ORDER BY rel DESC, rank) AS irank
    FROM lab
),
d AS (
    SELECT q_id, CAST(sum(rel) AS BIGINT) AS n_rel,
           sum(CAST(rel AS DOUBLE) / log2(rank + 1.0)) AS dcg
    FROM lab GROUP BY 1
),
i AS (
    SELECT q_id, sum(CAST(rel AS DOUBLE) / log2(irank + 1.0)) AS idcg
    FROM ideal GROUP BY 1
)
SELECT d.q_id, d.n_rel,
       CASE WHEN d.n_rel = 0 THEN 0.0 ELSE ROUND(d.dcg / i.idcg, 6) END
           AS ndcg
FROM d JOIN i USING (q_id)
"""


# ---------------------------------------------------------------------------
# embedding_power_iteration — one distributed PCA power step
# ---------------------------------------------------------------------------


def q_embedding_power_iteration(sf_dir: str):
    """One power-iteration step of the uncentered second-moment operator
    G = Σ v vᵀ: with the fixed start s (+1 on odd 1-based dims, -1 on
    even), p = G·s computed as Σ_vec v·(v·s) — two BLAS products per
    batch, O(d) partial rows out, NO vector shuffle. v₁ = round6(p),
    then v_next = round6(v₁ / ‖v₁‖). ROUND(,6) absorbs summation-order
    ULP (same contract as ``embedding_covariance``)."""
    from ..stages.keyed import sum_partials

    ds = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"dim": pa.array([], pa.int64()),
             "p": pa.array([], pa.float64())}
        )
        if t.num_rows == 0:
            return empty
        emb = t["embedding"].combine_chunks()
        offs = np.asarray(emb.offsets)
        dims = np.diff(offs)
        if len(dims) == 0 or dims.max() == 0:
            return empty
        d = int(dims[0])
        vals = np.asarray(emb.values, dtype=np.float64)
        mat = vals.reshape(-1, d)
        s = np.where(np.arange(1, d + 1) % 2 == 1, 1.0, -1.0)
        dv = mat @ s  # per-vector signed dot
        p = mat.T @ dv  # d partial sums
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
                "p": pa.array(p, pa.float64()),
            }
        )

    def finale(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t["dim"])
        dim = np.asarray(t["dim"].combine_chunks().take(order))
        v1 = round6(np.asarray(t["p"].combine_chunks().take(order)))
        norm = float(np.sqrt(np.sum(v1 * v1)))
        nxt = round6(v1 / norm) if norm > 0.0 else np.full_like(v1, np.nan)
        return pa.table(
            {
                "dim": pa.array(dim, pa.int64()),
                "v1": pa.array(v1, pa.float64()),
                "v_next": pa.array(
                    nxt if norm > 0.0 else [None] * len(v1), pa.float64()
                ),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return sum_partials(partials, ["dim"], {"p": "p"}, finale)


EMBEDDING_POWER_ITERATION_SQL = """
WITH e AS (
    SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS v,
           generate_subscripts(embedding, 1) AS dim
    FROM embeddings
),
dv AS (
    SELECT vec_id,
           sum(CASE WHEN dim % 2 = 1 THEN v ELSE -v END) AS d
    FROM e GROUP BY 1
),
p AS (
    SELECT e.dim, sum(e.v * dv.d) AS p
    FROM e JOIN dv USING (vec_id) GROUP BY 1
),
v1 AS (SELECT dim, ROUND(p, 6) AS v1 FROM p),
nrm AS (SELECT sqrt(sum(v1 * v1)) AS nv FROM v1)
SELECT CAST(dim AS BIGINT) AS dim, v1,
       CASE WHEN (SELECT nv FROM nrm) > 0.0
            THEN ROUND(v1 / (SELECT nv FROM nrm), 6) ELSE NULL END AS v_next
FROM v1
"""


REGISTRY = {
    "orders_market_share": (q_orders_market_share, ORDERS_MARKET_SHARE_SQL),
    "returned_top_customers": (
        q_returned_top_customers,
        RETURNED_TOP_CUSTOMERS_SQL,
    ),
    "promo_revenue_ratio": (q_promo_revenue_ratio, PROMO_REVENUE_RATIO_SQL),
    "small_qty_revenue": (q_small_qty_revenue, SMALL_QTY_REVENUE_SQL),
    "large_volume_customers": (
        q_large_volume_customers,
        LARGE_VOLUME_CUSTOMERS_SQL,
    ),
    "fk_orphans_audit": (q_fk_orphans_audit, FK_ORPHANS_AUDIT_SQL),
    "events_k_anonymity": (q_events_k_anonymity, EVENTS_K_ANONYMITY_SQL),
    "events_anova_f": (q_events_anova_f, EVENTS_ANOVA_F_SQL),
    "events_xcorr_lagged": (q_events_xcorr_lagged, EVENTS_XCORR_LAGGED_SQL),
    "eval_ndcg": (q_eval_ndcg, _eval_ndcg_sql()),
    "embedding_power_iteration": (
        q_embedding_power_iteration,
        EMBEDDING_POWER_ITERATION_SQL,
    ),
}
