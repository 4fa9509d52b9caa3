"""Truncation-duplicate flags without shuffling corpus text bytes.

``docs_prefix_dupes`` / ``docs_suffix_dupes`` (r4) range-partition-sorted
the FULL ``text`` column — correct, but the one exchange moved every
text byte in the corpus (VERDICT r4 "What's wrong #5" / §next-6, SURVEY
§7.3 "never shuffle text twice"). This stage replaces that plan with a
fixed-width-key decomposition:

1. **Narrow global sort** — every doc reduced to
   ``(doc_id, pk = text[:K] codepoints, tlen)``; ONE range-partitioned
   sort over ≤ K-codepoint keys (O(docs·K) bytes, not O(text bytes)).
   Because string order compares prefixes first, same-``pk`` docs are
   exactly the full-sort's contiguous runs.
2. **Short docs (tlen < K)** — ``pk`` IS the whole text, so the classic
   sorted-contiguity lemma closes them entirely inside the narrow sort:
   ``a`` has a superstring iff its immediate successor's ``pk`` starts
   with it (anything lexicographically between ``a`` and a superstring
   also starts with ``a``), or an equal neighbour exists (equal pk at
   tlen < K ⇔ equal text). Block boundaries stitch through the same
   O(#blocks) driver summary the r4 plan used.
3. **Long docs (tlen ≥ K)** — any superstring shares the doc's full
   K-prefix, so candidates are confined to multi-doc ``pk`` groups. One
   int-keyed pass over (doc_id, pkh) marks those groups; ONLY their
   members' texts (the truncation-dup cohort — the docs that actually
   share a K-codepoint head with another doc) are fetched via a
   broadcast id filter and exchanged by ``pkh`` for the exact in-group
   adjacency check. Singleton-group docs are flagged 0 with zero text
   movement.

Exchange volume: O(docs·K) narrow keys + O(cohort text bytes). The
worst case — a corpus where most docs share one K-codepoint boilerplate
head — degrades toward the r4 full-text sort for the cohort only; K=64
makes that cohort the genuinely-suspicious near-dup set. The cohort id
list is a driver/broadcast array (same bound contract as
ppjoin.collect_candidates) up to ``COHORT_BROADCAST_LIMIT``; past it
the plan AUTO-ROUTES (the ppjoin.verify_pairs routing convention) to a
doc_id cogroup that attaches text only to cohort members — that
fallback moves the docs table through one doc_id hash exchange (the r4
plan's cost), never a driver-held id array. Both paths are
output-identical (tests/test_prefixdup.py).

Both outputs are value-identical to the r4 full-sort plan; the DuckDB
twins (EXISTS starts_with / ends_with) are unchanged.

Reference provenance: the reference has no truncation-dup surface; this
extends spark_jobs/silver_and_gold.py:65 (exact dropDuplicates) toward
LLM-corpus curation per the north rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PFX_K = 64  # codepoints of fixed-width sort key

COHORT_BROADCAST_LIMIT = 20_000_000
"""Cohort ids (int64) broadcast cap: 20 M ids ≈ 160 MB shared
read-only per node. Past it the text attach auto-routes to the doc_id
cogroup fallback."""

_HI = "\U0010FFFF"  # sorts after any other codepoint (see caveat below)


def _succ_startswith(sorted_texts: pa.Array) -> np.ndarray:
    """succ[i] = sorted_texts[i+1] startswith sorted_texts[i] (length
    n-1). b startswith a  <=>  a <= b < a + U+10FFFF; rows are sorted so
    a <= b holds — one Arrow concat + compare instead of a per-row
    Python loop. Exact unless a text itself contains U+10FFFF (no real
    corpus/oracle disagreement in practice; fixtures are ASCII)."""
    n = len(sorted_texts)
    if n < 2:
        return np.zeros(max(n - 1, 0), dtype=bool)
    a_plus = pc.binary_join_element_wise(
        sorted_texts.slice(0, n - 1).cast(pa.large_string()),
        pa.scalar(_HI, pa.large_string()),
        pa.scalar("", pa.large_string()),
    )
    return np.asarray(
        pc.less(sorted_texts.slice(1).cast(pa.large_string()), a_plus)
    )


def prefix_dup_flags(docs, text_col: str, out_col: str, *,
                     k: int = PFX_K, num_parts: int | None = None):
    """(doc_id, <text_col>) dataset → (doc_id, <out_col>: int64) where 1
    marks docs whose text is a strict-or-equal prefix of ANOTHER doc's
    text. Plan per module docstring. For suffix dups, reverse the text
    in ``docs`` first — the machinery is order-agnostic. The text attach
    plan routes on the cohort size against ``COHORT_BROADCAST_LIMIT``."""
    import ray

    from .keyed import map_partitions_by_key
    from .ppjoin import hash_grams

    def keys(t: pa.Table) -> pa.Table:
        txt = t[text_col].combine_chunks()
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
                "pk": pc.utf8_slice_codeunits(txt, 0, k),
                "tlen": pc.utf8_length(txt).cast(pa.int64()),
            }
        )

    nr = docs.map_batches(keys, batch_format="pyarrow",
                          zero_copy_batch=True)

    # ---- phase 1: narrow global sort, closes SHORT docs ----------------
    s = nr.sort(["pk", "doc_id"]).materialize()

    def summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"first_pk": pa.array([], pa.string()),
                 "last_pk": pa.array([], pa.string()),
                 "first_doc": pa.array([], pa.int64()),
                 "last_doc": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "first_pk": t["pk"].slice(0, 1),
                "last_pk": t["pk"].slice(t.num_rows - 1, 1),
                "first_doc": t["doc_id"].slice(0, 1),
                "last_doc": t["doc_id"].slice(t.num_rows - 1, 1),
            }
        )

    sums = (
        s.map_batches(summary, batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        .to_pandas()  # O(#blocks)
        .sort_values(["first_pk", "last_pk"], ignore_index=True)
    )
    last_next: dict[int, str] = {}   # block's last doc -> next block's first pk
    first_prev: dict[int, str] = {}  # block's first doc -> prev block's last pk
    for i in range(len(sums)):
        if i + 1 < len(sums):
            last_next[int(sums["last_doc"].iloc[i])] = str(
                sums["first_pk"].iloc[i + 1]
            )
        if i > 0:
            first_prev[int(sums["first_doc"].iloc[i])] = str(
                sums["last_pk"].iloc[i - 1]
            )
    ln_ref = ray.put(last_next)
    fp_ref = ray.put(first_prev)

    empty_flags = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         out_col: pa.array([], pa.int64())}
    )

    def short_flags(t: pa.Table, _ln=ln_ref, _fp=fp_ref) -> pa.Table:
        if t.num_rows == 0:
            return empty_flags
        ln = ray.get(_ln)
        fp = ray.get(_fp)
        pk = t["pk"].combine_chunks()
        pk_np = np.asarray(pk, dtype=object)
        doc = np.asarray(t["doc_id"].combine_chunks())
        tlen = np.asarray(t["tlen"].combine_chunks())
        n = len(doc)
        out = np.zeros(n, dtype=bool)
        if n > 1:
            out[:-1] = _succ_startswith(pk)
            out[1:] |= pk_np[1:] == pk_np[:-1]  # equal neighbour
        nxt = ln.get(int(doc[-1]))
        if nxt is not None:
            out[-1] |= nxt.startswith(str(pk_np[-1]))
        pv = fp.get(int(doc[0]))
        if pv is not None:
            out[0] |= pv == pk_np[0]
        short = tlen < k
        return pa.table(
            {
                "doc_id": pa.array(doc[short], pa.int64()),
                out_col: pa.array(out[short].astype(np.int64), pa.int64()),
            }
        )

    shorts = s.map_batches(short_flags, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)

    # ---- phase 2: LONG docs — multi-group detection on hashed keys -----
    def long_keys(t: pa.Table) -> pa.Table:
        tlen = np.asarray(t["tlen"].combine_chunks())
        long = tlen >= k
        kept = t.filter(pa.array(long))
        return pa.table(
            {
                "doc_id": kept["doc_id"],
                "pkh": pa.array(hash_grams(kept["pk"]), pa.int64()),
            }
        )

    longs = nr.map_batches(long_keys, batch_format="pyarrow",
                           zero_copy_batch=True)

    def mark_multi(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "multi": pa.array([], pa.int8())}
            )
        ph = np.asarray(part["pkh"].combine_chunks())
        ids = np.asarray(part["doc_id"].combine_chunks())
        order = np.argsort(ph, kind="stable")
        p = ph[order]
        seg_start = np.concatenate(([True], p[1:] != p[:-1]))
        seg_id = np.cumsum(seg_start) - 1
        size = np.bincount(seg_id)[seg_id]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "multi": pa.array((size > 1).astype(np.int8), pa.int8()),
            }
        )

    marked = map_partitions_by_key(longs, "pkh", mark_multi,
                                   num_parts=num_parts).materialize()

    def zero_flags(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t["multi"].combine_chunks(),
                                 pa.scalar(0, pa.int8())))
        return pa.table(
            {
                "doc_id": kept["doc_id"],
                out_col: pa.array(
                    np.zeros(kept.num_rows, np.int64), pa.int64()
                ),
            }
        )

    singles = marked.map_batches(zero_flags, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # cohort: docs sharing a K-codepoint head with another doc
    cohort_rows = marked.map_batches(
        lambda t: pa.table(
            {"doc_id": t.filter(
                pc.equal(t["multi"].combine_chunks(),
                         pa.scalar(1, pa.int8()))
            )["doc_id"]}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_cohort = cohort_rows.count()  # metadata on materialized
    # read at call time, not bound as a default, so a changed limit applies
    path = "broadcast" if n_cohort <= COHORT_BROADCAST_LIMIT else "cogroup"

    def _with_pk(kept_ids: pa.Array, txt) -> pa.Table:
        pk = pc.utf8_slice_codeunits(txt, 0, k)
        return pa.table(
            {
                "doc_id": kept_ids,
                "pkh": pa.array(hash_grams(pk), pa.int64()),
                "txt": txt,
            }
        )

    if path == "broadcast":
        # bounded driver/broadcast id array (collect_candidates contract)
        cohort_parts = [
            np.asarray(tb["doc_id"].combine_chunks())
            for tb in ray.get(cohort_rows.to_arrow_refs())
            if tb.num_rows
        ]
        cohort = (
            np.sort(np.concatenate(cohort_parts))
            if cohort_parts
            else np.empty(0, np.int64)
        )
        co_ref = ray.put(cohort)

        def cohort_texts(t: pa.Table, _c=co_ref) -> pa.Table:
            c = ray.get(_c)
            ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
            if len(c) == 0 or len(ids) == 0:
                return pa.table(
                    {"doc_id": pa.array([], pa.int64()),
                     "pkh": pa.array([], pa.int64()),
                     "txt": pa.array([], pa.string())}
                )
            pos = np.searchsorted(c, ids)
            keep = (pos < len(c)) & (c[np.minimum(pos, len(c) - 1)] == ids)
            kept = t.filter(pa.array(keep))
            return _with_pk(
                kept["doc_id"].combine_chunks().cast(pa.int64()),
                kept[text_col].combine_chunks(),
            )

        ctexts = docs.map_batches(cohort_texts, batch_format="pyarrow",
                                  zero_copy_batch=True)
    else:
        # cogroup fallback: attach text to cohort members through one
        # doc_id hash exchange — no driver/broadcast id array; cost =
        # the r4 plan's one text exchange, paid only in the
        # pathological every-doc-shares-a-head regime
        from .keyed import cogroup_by_key

        dtext = docs.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
                    "txt": t[text_col].combine_chunks(),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

        def attach_text(refs: pa.Table, dpart: pa.Table) -> pa.Table:
            empty = pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "pkh": pa.array([], pa.int64()),
                 "txt": pa.array([], pa.string())}
            )
            if refs.num_rows == 0 or dpart.num_rows == 0:
                return empty
            idx = pc.index_in(
                refs["doc_id"], value_set=dpart["doc_id"].combine_chunks()
            ).combine_chunks()
            keep = pc.is_valid(idx)
            if not pc.any(keep).as_py():
                return empty
            taken = idx.filter(keep)
            kept_refs = refs.filter(keep)
            return _with_pk(
                kept_refs["doc_id"].combine_chunks().cast(pa.int64()),
                dpart["txt"].combine_chunks().take(taken),
            )

        ctexts = cogroup_by_key(cohort_rows, dtext, "doc_id", attach_text,
                                num_parts=num_parts)

    def group_flags(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty_flags
        import pandas as pd

        df = pd.DataFrame(
            {
                "pkh": np.asarray(part["pkh"].combine_chunks()),
                "txt": np.asarray(part["txt"].combine_chunks(),
                                  dtype=object),
                "doc_id": np.asarray(part["doc_id"].combine_chunks()),
            }
        ).sort_values(["pkh", "txt", "doc_id"], ignore_index=True)
        ph = df["pkh"].to_numpy(np.int64)
        txt_np = df["txt"].to_numpy(object)
        n = len(df)
        out = np.zeros(n, dtype=bool)
        if n > 1:
            same_seg = ph[1:] == ph[:-1]
            succ = _succ_startswith(pa.array(txt_np, pa.string()))
            out[:-1] = succ & same_seg
            out[1:] |= same_seg & (txt_np[1:] == txt_np[:-1])
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64),
                                   pa.int64()),
                out_col: pa.array(out.astype(np.int64), pa.int64()),
            }
        )

    multi_flags = map_partitions_by_key(ctexts, "pkh", group_flags,
                                        num_parts=num_parts)

    return shorts.union(singles).union(multi_flags)
