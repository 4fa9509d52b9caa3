"""Prefix-filtered exact set-similarity join (PPJoin-style).

Round-3 verdict: the exact n-gram pair family (`docs_ngram_jaccard`,
`docs_containment_pairs`, `docs_weighted_jaccard`) expanded EVERY gram's
posting list to all C(df, 2) pairs — a boilerplate trigram with df = 1e6
(guaranteed in any 100-TB web corpus) puts ~5e11 pair rows in one task.
This module replaces that plan with the classic prefix-filtering
principle (Chaudhuri et al. ICDE'06; Xiao et al. "Efficient Similarity
Joins for Near Duplicate Detection", WWW'08 — public literature):

    Fix ANY global total order on grams. For Jaccard(A, B) >= t the
    overlap o = |A∩B| satisfies o >= ceil(t·|A|) and o >= ceil(t·|B|).
    If A's first  p_A = |A| - ceil(t·|A|) + 1  grams (its *prefix*)
    share nothing with B's prefix, let g be the globally-smallest
    common gram; g lies in the suffix of A or of B (say A), so ALL
    common grams lie in A's last  |A| - p_A = ceil(t·|A|) - 1  slots —
    contradiction. Hence every qualifying pair co-occurs in at least
    one *prefix* gram, and it suffices to expand posting lists of
    prefix occurrences only.

    Ordering grams by ascending global document frequency (rarest
    first, ties by hash) makes prefixes hit the SMALL posting lists:
    a boilerplate gram (huge df) sorts last and appears in almost no
    prefix, so its posting list is never expanded. Exactness does not
    depend on this choice — any consistent order is correct — df-order
    is purely the candidate-minimizing heuristic.

Weighted variant (IDF-weighted Jaccard >= t): wi >= t·W_A and
wi >= t·W_B by the same argument (W_X = total idf weight of X, wi =
shared weight), so the prefix of X is the minimal head, in global
order, whose complement has weight < t·W_X; the globally-smallest
shared gram again lands in some prefix.  Containment
|A∩B| / min(|A|,|B|) >= t only bounds overlap against the SMALLER set,
so the guarantee is one-sided: the smaller doc's prefix must share a
gram with the other doc *anywhere* — candidates are
(prefix-of-smaller x full posting list), still bounded by
(#prefix rows in the list) x df instead of C(df, 2).

Candidates are then verified EXACTLY with the engine's existing
cogroup machinery (stages/dedup.pair_refs -> attach by doc_id ->
pair-keyed score), so the filter is output-invariant: the DuckDB SQL
twins are unchanged and still hash-match.

All thresholds are rational (1/2, 7/10, 7/20); prefix cuts use exact
int64 cross-multiplication, never float compares.

Reference provenance: the reference has no similarity join at all —
this family extends spark_jobs/silver_and_gold.py:65 (exact dropDup)
toward LLM-corpus curation per the north rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import _check_packable

__all__ = [
    "hash_grams",
    "ngram_hashed_table",
    "attach_df",
    "attach_df_hashed",
    "attach_idf",
    "with_idf_w",
    "gram_df_front",
    "candidate_doc_ids",
    "filter_docs",
    "verify_pairs",
    "select_prefix",
    "select_prefix_flagged",
    "select_prefix_weighted",
    "expand_prefix_pairs",
    "expand_jaccard_pairs",
    "expand_weighted_pairs",
    "expand_smallside_pairs",
    "gramhash_table",
    "collect_candidates",
    "count_shared",
    "finish_pair_scores",
    "attach_gram_weights",
    "pair_containment",
    "pair_wjaccard",
]


def hash_grams(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic int64 hash of gram strings (pandas' stable siphash,
    fixed key, identical across processes — same basis as
    stages/keyed.hash_key). A 64-bit collision between two distinct
    grams of one document would perturb a set size by 1; probability
    ~n²/2^64 per doc — the same epsilon the MinHash verify path already
    accepts for hashed shingles."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    values = arr.to_pandas().to_numpy(dtype=object)
    return pd.util.hash_array(values, categorize=True).view(np.int64)


def _ceil_div(n: np.ndarray, num: int, den: int) -> np.ndarray:
    """ceil(num * n / den) in exact int64."""
    return -((-num * n) // den)


def attach_df(part: pa.Table) -> pa.Table:
    """Gram-keyed kernel over (doc_id, gram, dn) rows: every row of a
    gram is in this partition, so its GLOBAL df is the local segment
    length. Emits (doc_id, gh, df, dn) with the gram hashed to int64 —
    the string never travels further."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "df": pa.array([], pa.int64()), "dn": pa.array([], pa.int64())}
    )
    if part.num_rows == 0:
        return empty
    gh = hash_grams(part["gram"])
    ids = np.asarray(part["doc_id"].combine_chunks().cast(pa.int64()))
    dns = np.asarray(part["dn"].combine_chunks())
    order = np.argsort(gh, kind="stable")
    g = gh[order]
    seg_start = np.concatenate(([True], g[1:] != g[:-1]))
    seg_id = np.cumsum(seg_start) - 1
    df = np.bincount(seg_id)[seg_id].astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[order], pa.int64()),
            "gh": pa.array(g, pa.int64()),
            "df": pa.array(df, pa.int64()),
            "dn": pa.array(dns[order], pa.int64()),
        }
    )


def ngram_hashed_table(batch: pa.Table, k: int = 3) -> pa.Table:
    """Per-batch map: documents → distinct (doc_id, gh, dn) rows with the
    gram HASHED in the same pass that explodes it — the gram string never
    enters an exchange (r4 shipped full trigram strings through the first
    shuffle at ~3-5× the bytes of an int64; VERDICT r4 §next-5)."""
    from .dedup import ngram_table

    g = ngram_table(batch, k=k)
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "gh": pa.array(hash_grams(g["gram"]), pa.int64()),
            "dn": g["dn"],
        }
    )


def attach_df_hashed(part: pa.Table) -> pa.Table:
    """Gram-keyed kernel over PRE-HASHED (doc_id, gh, dn) rows: every row
    of a gram hash is in this partition, so its GLOBAL df is the local
    segment length. The int-keyed sibling of :func:`attach_df` (which
    takes gram strings and hashes them post-exchange)."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "df": pa.array([], pa.int64()), "dn": pa.array([], pa.int64())}
    )
    if part.num_rows == 0:
        return empty
    gh = np.asarray(part["gh"].combine_chunks())
    ids = np.asarray(part["doc_id"].combine_chunks().cast(pa.int64()))
    dns = np.asarray(part["dn"].combine_chunks())
    order = np.argsort(gh, kind="stable")
    g = gh[order]
    seg_start = np.concatenate(([True], g[1:] != g[:-1]))
    seg_id = np.cumsum(seg_start) - 1
    df = np.bincount(seg_id)[seg_id].astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[order], pa.int64()),
            "gh": pa.array(g, pa.int64()),
            "df": pa.array(df, pa.int64()),
            "dn": pa.array(dns[order], pa.int64()),
        }
    )


def with_idf_w(part: pa.Table, n_docs: int) -> pa.Table:
    """Append fixed-point idf micro-units w = round_half_away(ln(N/df)
    * 1e6) (int64) to a (…, df, …) relation — w is a pure function of
    df, so the weighted family derives it wherever needed instead of
    shipping it through exchanges."""
    from ..functions.numeric import round_half_away

    if part.num_rows == 0:
        return part.append_column("w", pa.array([], pa.int64()))
    df = np.asarray(part["df"].combine_chunks()).astype(np.float64)
    w = round_half_away(np.log(float(n_docs) / df) * 1_000_000.0).astype(
        np.int64
    )
    return part.append_column("w", pa.array(w, pa.int64()))


def gram_df_front(ds, num_parts: int | None = None, k: int = 3):
    """Shared front-end of the exact set-similarity family
    (docs_ngram_jaccard / docs_containment_pairs / docs_weighted_jaccard
    — VERDICT r4 §next-5): explode docs to hashed distinct word-k-grams
    IN-BATCH (strings die before the shuffle), one int-keyed exchange
    attaches the global df, and the (doc_id, gh, df, dn) relation is
    materialized ONCE — an object-store checkpoint (spillable, never on
    one node) read by BOTH downstream consumers: prefix selection and
    the candidate verify. r4's plan shipped gram strings through the
    first exchange, then re-read + re-tokenized the whole corpus for the
    verify side; this fuses that to one tokenize pass and one full-width
    exchange."""
    from .keyed import map_partitions_by_key

    hashed = ds.map_batches(
        lambda t, _k=k: ngram_hashed_table(t, k=_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return map_partitions_by_key(
        hashed, "gh", attach_df_hashed, num_parts=num_parts
    ).materialize()


def candidate_doc_ids(ct: pa.Table) -> np.ndarray:
    """Sorted unique doc ids appearing in any packed candidate pair."""
    p = np.asarray(ct["pair"])
    if len(p) == 0:
        return np.empty(0, np.int64)
    return np.unique(
        np.concatenate([p >> np.int64(32), p & np.int64(0xFFFFFFFF)])
    )


def filter_docs(t: pa.Table, docs_sorted) -> pa.Table:
    """Keep only rows whose doc_id is in the broadcast sorted id array —
    cuts the verify exchange from O(all gram rows) to O(gram rows of
    candidate docs), provably output-invariant because count_shared only
    ever reads rows of docs that occur in a candidate pair."""
    import ray

    if isinstance(docs_sorted, ray.ObjectRef):
        docs_sorted = ray.get(docs_sorted)
    if t.num_rows == 0:
        return t
    if len(docs_sorted) == 0:
        return t.slice(0, 0)
    d = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
    pos = np.searchsorted(docs_sorted, d)
    ok = (pos < len(docs_sorted)) & (
        docs_sorted[np.minimum(pos, len(docs_sorted) - 1)] == d
    )
    return t.filter(pa.array(ok))


def attach_idf(part: pa.Table, n_docs: int) -> pa.Table:
    """Gram-keyed kernel: df per segment -> fixed-point idf micro-units
    w = round_half_away(ln(N/df) * 1e6) (int64 — exact folds downstream,
    mirroring the SQL twin bit for bit). Emits (doc_id, gh, w)."""
    from ..functions.numeric import round_half_away

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "w": pa.array([], pa.int64())}
    )
    if part.num_rows == 0:
        return empty
    with_df = attach_df(part)
    df = np.asarray(with_df["df"].combine_chunks()).astype(np.float64)
    w = round_half_away(np.log(float(n_docs) / df) * 1_000_000.0).astype(
        np.int64
    )
    return pa.table(
        {"doc_id": with_df["doc_id"], "gh": with_df["gh"],
         "w": pa.array(w, pa.int64())}
    )


def _doc_segments(ids: np.ndarray):
    seg_start = np.concatenate(([True], ids[1:] != ids[:-1]))
    seg_id = np.cumsum(seg_start) - 1
    seg_len = np.bincount(seg_id)
    arange = np.arange(len(ids), dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
    pos = arange - seg_first
    return seg_id, seg_len, pos


def select_prefix(part: pa.Table, tau_num: int, tau_den: int) -> pa.Table:
    """Doc-keyed kernel over (doc_id, gh, df, dn): per doc, sort grams by
    the global order (df asc, gh) and keep the LOOSE (index) prefix —
    the first n - ceil(tau*n) + 1 rows. Each row also carries:

    - ``pos``  — the gram's 0-based rank in the doc's full sorted order
      (feeds the PPJoin positional filter at expansion), and
    - ``tight`` — whether the row is inside the TIGHT (probe) prefix of
      length n - ceil(alpha*n) + 1 with alpha = 2*tau/(1+tau): the
      overlap of a qualifying pair satisfies
      o >= tau/(1+tau) * (|A|+|B|) >= alpha * min(|A|,|B|), so the
      globally-first common gram must sit in the SMALLER doc's tight
      prefix and the larger doc's loose prefix (Xiao et al. WWW'08
      probe/index prefix asymmetry — exactness-preserving).

    Emits (doc_id, gh, dn, pos, tight) loose-prefix rows only."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "dn": pa.array([], pa.int64()), "pos": pa.array([], pa.int64()),
         "tight": pa.array([], pa.int8())}
    )
    if part.num_rows == 0:
        return empty
    ids = np.asarray(part["doc_id"].combine_chunks().cast(pa.int64()))
    gh = np.asarray(part["gh"].combine_chunks())
    df = np.asarray(part["df"].combine_chunks())
    dn = np.asarray(part["dn"].combine_chunks())
    order = np.lexsort((gh, df, ids))
    ids, gh, df, dn = ids[order], gh[order], df[order], dn[order]
    _seg_id, seg_len, pos = _doc_segments(ids)
    n = seg_len[_seg_id].astype(np.int64)
    plen = n - _ceil_div(n, tau_num, tau_den) + 1
    # alpha = 2*num/(num+den)
    plen_tight = n - _ceil_div(n, 2 * tau_num, tau_num + tau_den) + 1
    keep = pos < plen
    return pa.table(
        {
            "doc_id": pa.array(ids[keep], pa.int64()),
            "gh": pa.array(gh[keep], pa.int64()),
            "dn": pa.array(dn[keep], pa.int64()),
            "pos": pa.array(pos[keep].astype(np.int64), pa.int64()),
            "tight": pa.array(
                (pos[keep] < plen_tight[keep]).astype(np.int8), pa.int8()
            ),
        }
    )


def select_prefix_flagged(
    part: pa.Table, tau_num: int, tau_den: int
) -> pa.Table:
    """Containment variant of :func:`select_prefix`: emits ALL rows with
    an ``is_pfx`` flag (the one-sided guarantee needs the full posting
    list on the probe side) plus the sorted rank ``pos`` for the
    positional filter. Emits (doc_id, gh, dn, pos, is_pfx)."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "dn": pa.array([], pa.int64()), "pos": pa.array([], pa.int64()),
         "is_pfx": pa.array([], pa.int8())}
    )
    if part.num_rows == 0:
        return empty
    ids = np.asarray(part["doc_id"].combine_chunks().cast(pa.int64()))
    gh = np.asarray(part["gh"].combine_chunks())
    df = np.asarray(part["df"].combine_chunks())
    dn = np.asarray(part["dn"].combine_chunks())
    order = np.lexsort((gh, df, ids))
    ids, gh, dn = ids[order], gh[order], dn[order]
    _seg_id, seg_len, pos = _doc_segments(ids)
    n = seg_len[_seg_id].astype(np.int64)
    plen = n - _ceil_div(n, tau_num, tau_den) + 1
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "gh": pa.array(gh, pa.int64()),
            "dn": pa.array(dn, pa.int64()),
            "pos": pa.array(pos.astype(np.int64), pa.int64()),
            "is_pfx": pa.array((pos < plen).astype(np.int8), pa.int8()),
        }
    )


def select_prefix_weighted(
    part: pa.Table, tau_num: int, tau_den: int
) -> pa.Table:
    """Doc-keyed kernel over (doc_id, gh, w): per doc, sort grams
    heaviest-idf-first (w desc == df asc; ties by gh — a consistent
    global order because w is a pure function of df) and keep the
    minimal head whose complement weight drops below tau * W. A row at
    position p stays iff tail(p) * tau_den >= tau_num * W (exact int64
    cross-multiply; tail(p) = suffix weight including row p). Rows also
    carry ``W`` (the doc's total weight), ``tail`` (suffix weight at the
    row — the weighted positional filter's overlap upper bound) and
    ``tight`` (inside the alpha = 2*tau/(1+tau) probe prefix: shared
    weight wi >= tau/(1+tau)*(W_A+W_B) >= alpha*min(W_A,W_B), so the
    first common gram sits in the smaller-W doc's tight prefix).
    Emits (doc_id, gh, W, tail, tight) loose-prefix rows."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "gh": pa.array([], pa.int64()),
         "W": pa.array([], pa.int64()), "tail": pa.array([], pa.int64()),
         "tight": pa.array([], pa.int8())}
    )
    if part.num_rows == 0:
        return empty
    ids = np.asarray(part["doc_id"].combine_chunks().cast(pa.int64()))
    gh = np.asarray(part["gh"].combine_chunks())
    w = np.asarray(part["w"].combine_chunks())
    order = np.lexsort((gh, -w, ids))
    ids, gh, w = ids[order], gh[order], w[order]
    seg_id, seg_len, _pos = _doc_segments(ids)
    # suffix sums per segment via the global cumsum — all int64, exact
    cum = np.cumsum(w)
    seg_end_cum = np.cumsum(seg_len) - 1  # index of each segment's last row
    seg_total_cum = cum[seg_end_cum]      # cumulative sum at segment end
    tail = seg_total_cum[seg_id] - cum + w  # inclusive suffix weight
    seg_first_idx = np.cumsum(seg_len) - seg_len
    W_row = tail[seg_first_idx][seg_id]     # W = tail at segment head
    keep = tail * np.int64(tau_den) >= np.int64(tau_num) * W_row
    # alpha cut: tail * (num+den) >= 2 * num * W
    tight = (
        tail * np.int64(tau_num + tau_den) >= np.int64(2 * tau_num) * W_row
    )
    return pa.table(
        {
            "doc_id": pa.array(ids[keep], pa.int64()),
            "gh": pa.array(gh[keep], pa.int64()),
            "W": pa.array(W_row[keep], pa.int64()),
            "tail": pa.array(tail[keep], pa.int64()),
            "tight": pa.array(tight[keep].astype(np.int8), pa.int8()),
        }
    )


_EMPTY_SIZED_PAIRS = pa.table(
    {"pair": pa.array([], pa.int64()), "s_lo": pa.array([], pa.int64()),
     "s_hi": pa.array([], pa.int64())}
)


def _segment_pair_idx(gh: np.ndarray):
    """All (i, j) index pairs within gh segments (gh sorted ascending):
    the cumsum/repeat construction, no per-segment Python."""
    seg_id, seg_len, pos = _doc_segments(gh)
    cnt = seg_len[seg_id] - 1 - pos
    total = int(cnt.sum())
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    arange = np.arange(len(gh), dtype=np.int64)
    a_idx = np.repeat(arange, cnt)
    row_start = np.cumsum(cnt) - cnt
    off = np.arange(total, dtype=np.int64) - np.repeat(row_start, cnt)
    return a_idx, a_idx + 1 + off


def expand_prefix_pairs(part: pa.Table) -> pa.Table:
    """gh-keyed kernel over PREFIX rows (doc_id, gh, ...): segment by gh
    and expand each (small — prefixes avoid hot grams) posting list to
    packed (a < b) candidate pairs, distinct within the partition.
    Global dedup happens in the verify stage's distinct counts. The
    unfiltered baseline — production queries use the filtered
    :func:`expand_jaccard_pairs` / :func:`expand_weighted_pairs`."""
    empty = pa.table({"pair": pa.array([], pa.int64())})
    if part.num_rows == 0:
        return empty
    gh = np.asarray(part["gh"].combine_chunks())
    d = np.asarray(part["doc_id"].combine_chunks())
    _check_packable(d)
    order = np.lexsort((d, gh))
    gh, d = gh[order], d[order]
    a_idx, b_idx = _segment_pair_idx(gh)
    if len(a_idx) == 0:
        return empty
    lo = np.minimum(d[a_idx], d[b_idx])
    hi = np.maximum(d[a_idx], d[b_idx])
    pairs = (lo << np.int64(32)) | hi
    return pa.table({"pair": pa.array(np.unique(pairs), pa.int64())})


def expand_jaccard_pairs(part: pa.Table, tau_num: int, tau_den: int) -> pa.Table:
    """gh-keyed kernel over :func:`select_prefix` rows
    (doc_id, gh, dn, pos, tight): prefix pair expansion with the two
    classic exactness-preserving candidate cuts —

    - probe/index asymmetry: require ``tight`` on the smaller-dn side
      (either side on ties);
    - positional filter: at the globally-first common gram, every
      shared gram sits at this rank or later in BOTH docs, so overlap
      <= min(dn_a - pos_a, dn_b - pos_b); prune occurrences where that
      bound misses o_req = ceil(tau/(1+tau) * (dn_a + dn_b)). A pruned
      occurrence of a qualifying pair is never its first common gram,
      which always survives — candidates stay complete."""
    empty = _EMPTY_SIZED_PAIRS
    if part.num_rows == 0:
        return empty
    gh = np.asarray(part["gh"].combine_chunks())
    d = np.asarray(part["doc_id"].combine_chunks())
    dn = np.asarray(part["dn"].combine_chunks())
    pos = np.asarray(part["pos"].combine_chunks())
    tight = np.asarray(part["tight"].combine_chunks()).astype(bool)
    _check_packable(d)
    order = np.lexsort((d, gh))
    gh, d, dn, pos, tight = (
        gh[order], d[order], dn[order], pos[order], tight[order]
    )
    a_idx, b_idx = _segment_pair_idx(gh)
    if len(a_idx) == 0:
        return empty
    dn_a, dn_b = dn[a_idx], dn[b_idx]
    small_tight = np.where(
        dn_a < dn_b, tight[a_idx],
        np.where(dn_b < dn_a, tight[b_idx], tight[a_idx] | tight[b_idx]),
    )
    o_req = _ceil_div(dn_a + dn_b, tau_num, tau_num + tau_den)
    ubound = np.minimum(dn_a - pos[a_idx], dn_b - pos[b_idx])
    ok = small_tight & (ubound >= o_req)
    a, b = d[a_idx[ok]], d[b_idx[ok]]
    if len(a) == 0:
        return empty
    swap = a > b
    lo = np.where(swap, b, a)
    hi = np.where(swap, a, b)
    s_lo = np.where(swap, dn_b[ok], dn_a[ok])
    s_hi = np.where(swap, dn_a[ok], dn_b[ok])
    return _dedup_sized_pairs(lo, hi, s_lo, s_hi)


def _dedup_sized_pairs(lo, hi, s_lo, s_hi) -> pa.Table:
    """Distinct packed pairs with their (pure-function-of-doc) size
    columns riding along for the broadcast-verify score stage."""
    pairs = (lo << np.int64(32)) | hi
    order = np.argsort(pairs, kind="stable")
    first = np.concatenate(([True], pairs[order][1:] != pairs[order][:-1]))
    idx = order[first]
    return pa.table(
        {
            "pair": pa.array(pairs[idx], pa.int64()),
            "s_lo": pa.array(s_lo[idx], pa.int64()),
            "s_hi": pa.array(s_hi[idx], pa.int64()),
        }
    )


def expand_weighted_pairs(
    part: pa.Table, tau_num: int, tau_den: int
) -> pa.Table:
    """gh-keyed kernel over :func:`select_prefix_weighted` rows
    (doc_id, gh, W, tail, tight): the weighted analog of
    :func:`expand_jaccard_pairs` — require ``tight`` on the smaller-W
    side, and prune occurrences where the weighted positional bound
    min(tail_a, tail_b) (shared weight is carried entirely by grams at
    this rank or later at the first common gram) misses
    wi_req = tau/(1+tau) * (W_a + W_b), cross-multiplied in int64."""
    empty = _EMPTY_SIZED_PAIRS
    if part.num_rows == 0:
        return empty
    gh = np.asarray(part["gh"].combine_chunks())
    d = np.asarray(part["doc_id"].combine_chunks())
    W = np.asarray(part["W"].combine_chunks())
    tail = np.asarray(part["tail"].combine_chunks())
    tight = np.asarray(part["tight"].combine_chunks()).astype(bool)
    _check_packable(d)
    order = np.lexsort((d, gh))
    gh, d, W, tail, tight = (
        gh[order], d[order], W[order], tail[order], tight[order]
    )
    a_idx, b_idx = _segment_pair_idx(gh)
    if len(a_idx) == 0:
        return empty
    W_a, W_b = W[a_idx], W[b_idx]
    small_tight = np.where(
        W_a < W_b, tight[a_idx],
        np.where(W_b < W_a, tight[b_idx], tight[a_idx] | tight[b_idx]),
    )
    ubound = np.minimum(tail[a_idx], tail[b_idx])
    ok = small_tight & (
        ubound * np.int64(tau_num + tau_den) >= np.int64(tau_num) * (W_a + W_b)
    )
    a, b = d[a_idx[ok]], d[b_idx[ok]]
    if len(a) == 0:
        return empty
    swap = a > b
    lo = np.where(swap, b, a)
    hi = np.where(swap, a, b)
    s_lo = np.where(swap, W_b[ok], W_a[ok])
    s_hi = np.where(swap, W_a[ok], W_b[ok])
    return _dedup_sized_pairs(lo, hi, s_lo, s_hi)


def expand_smallside_pairs(
    part: pa.Table, tau_num: int, tau_den: int
) -> pa.Table:
    """gh-keyed kernel over FLAGGED rows (doc_id, gh, dn, pos, is_pfx):
    containment candidates — pairs where one side holds the gram in its
    prefix AND is the smaller (or equal-size) set. Prefix rows are
    ordered first within each gram segment (the incremental-LSH
    new-first trick: forward expansion from prefix rows emits exactly
    prefix x rest, each pair once); the dn constraint and the
    positional filter (overlap <= min(dn - pos) at the first common
    gram, must reach o_req = ceil(tau * min(dn_a, dn_b))) are
    vectorized post-filters. Worst case per gram:
    (#prefix rows) x df, not C(df,2)."""
    empty = _EMPTY_SIZED_PAIRS
    if part.num_rows == 0:
        return empty
    gh = np.asarray(part["gh"].combine_chunks())
    d = np.asarray(part["doc_id"].combine_chunks())
    dn = np.asarray(part["dn"].combine_chunks())
    rpos = np.asarray(part["pos"].combine_chunks())
    f = np.asarray(part["is_pfx"].combine_chunks()).astype(bool)
    _check_packable(d)
    order = np.lexsort((d, (~f).view(np.int8), gh))
    gh, d, dn, rpos, f = gh[order], d[order], dn[order], rpos[order], f[order]
    n = len(gh)
    seg_start = np.concatenate(([True], gh[1:] != gh[:-1]))
    seg_id = np.cumsum(seg_start) - 1
    seg_len = np.bincount(seg_id)
    arange = np.arange(n, dtype=np.int64)
    seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
    pos = arange - seg_first
    cnt = np.where(f, seg_len[seg_id] - 1 - pos, 0)
    total = int(cnt.sum())
    if total == 0:
        return empty
    a_idx = np.repeat(arange, cnt)
    row_start = np.cumsum(cnt) - cnt
    off = np.arange(total, dtype=np.int64) - np.repeat(row_start, cnt)
    b_idx = a_idx + 1 + off
    # a is always a prefix row; keep pairs where a is the smaller side,
    # or b is itself a prefix row (then the smaller of the two carries
    # the prefix guarantee whichever it is)
    dn_a, dn_b = dn[a_idx], dn[b_idx]
    o_req = _ceil_div(np.minimum(dn_a, dn_b), tau_num, tau_den)
    ubound = np.minimum(dn_a - rpos[a_idx], dn_b - rpos[b_idx])
    ok = ((dn_a <= dn_b) | f[b_idx]) & (ubound >= o_req)
    a, b = d[a_idx[ok]], d[b_idx[ok]]
    dn_ka, dn_kb = dn_a[ok], dn_b[ok]
    if len(a) == 0:
        return empty
    swap = a > b
    lo = np.where(swap, b, a)
    hi = np.where(swap, a, b)
    s_lo = np.where(swap, dn_kb, dn_ka)
    s_hi = np.where(swap, dn_ka, dn_kb)
    return _dedup_sized_pairs(lo, hi, s_lo, s_hi)


def gramhash_table(batch: pa.Table, k: int = 3) -> pa.Table:
    """Per-batch map: documents -> distinct (doc_id, sh) gram-hash rows
    for the verify cogroup (word-k-gram analog of
    stages/dedup.shingle_table — the column is named ``sh`` so
    stages/dedup.attach_shingles applies unchanged)."""
    from .dedup import ngram_table

    g = ngram_table(batch, k=k)
    return pa.table(
        {"doc_id": g["doc_id"],
         "sh": pa.array(hash_grams(g["gram"]), pa.int64())}
    )


def pair_containment(part: pa.Table, threshold: float) -> pa.Table:
    """Pair-keyed verify kernel over attached (pair, side, sh) rows:
    containment = |A∩B| / min(|A|,|B|) from distinct counts, duplicate
    refs from multi-gram candidates collapsing in the distinct pass
    (mirrors stages/dedup.pair_jaccard)."""
    from ..functions.numeric import round6

    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
         "containment": pa.array([], pa.float64())}
    )
    if part.num_rows == 0:
        return empty
    p = np.asarray(part["pair"].combine_chunks())
    sd = np.asarray(part["side"].combine_chunks())
    s = np.asarray(part["sh"].combine_chunks())
    order = np.lexsort((sd, s, p))
    p, sd, s = p[order], sd[order], s[order]
    n = len(p)
    pair_start = np.concatenate(([True], p[1:] != p[:-1]))
    pid = np.cumsum(pair_start) - 1
    n_pairs = int(pid[-1]) + 1
    sh_start = np.empty(n, dtype=bool)
    sh_start[0] = True
    sh_start[1:] = pair_start[1:] | (s[1:] != s[:-1])
    side_start = np.empty(n, dtype=bool)
    side_start[0] = True
    side_start[1:] = sh_start[1:] | (sd[1:] != sd[:-1])
    # distinct (pair, side, sh) rows, split by side
    na = np.bincount(pid[side_start & (sd == 0)], minlength=n_pairs)
    nb = np.bincount(pid[side_start & (sd == 1)], minlength=n_pairs)
    union = np.bincount(pid[sh_start], minlength=n_pairs)
    inter = na + nb - union
    denom = np.minimum(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        cont = np.where(denom > 0, round6(inter / np.maximum(denom, 1)), 0.0)
    keep = cont >= threshold
    pr = p[pair_start][keep]
    return pa.table(
        {
            "doc_a": pa.array(pr >> np.int64(32), pa.int64()),
            "doc_b": pa.array(pr & np.int64(0xFFFFFFFF), pa.int64()),
            "containment": pa.array(cont[keep], pa.float64()),
        }
    )


def attach_gram_weights(refs: pa.Table, sets: pa.Table) -> pa.Table:
    """Cogroup kernel (both sides doc_id-partitioned): for every
    (doc_id, pair, side) reference emit that doc's (sh, w) gram rows
    tagged with the pair key — the weighted analog of
    stages/dedup.attach_shingles."""
    empty = pa.table(
        {"pair": pa.array([], pa.int64()), "side": pa.array([], pa.int8()),
         "sh": pa.array([], pa.int64()), "w": pa.array([], pa.int64())}
    )
    if refs.num_rows == 0 or sets.num_rows == 0:
        return empty
    rdoc = np.asarray(refs["doc_id"].combine_chunks())
    rpair = np.asarray(refs["pair"].combine_chunks())
    rside = np.asarray(refs["side"].combine_chunks())
    sdoc = np.asarray(sets["doc_id"].combine_chunks())
    sv = np.asarray(sets["gh"].combine_chunks())
    sw = np.asarray(sets["w"].combine_chunks())
    order = np.argsort(sdoc, kind="stable")
    sdoc, sv, sw = sdoc[order], sv[order], sw[order]
    lo = np.searchsorted(sdoc, rdoc, side="left")
    hi = np.searchsorted(sdoc, rdoc, side="right")
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return empty
    row_start = np.cumsum(cnt) - cnt
    idx = np.repeat(lo, cnt) + (np.arange(total, dtype=np.int64)
                                - np.repeat(row_start, cnt))
    return pa.table(
        {
            "pair": pa.array(np.repeat(rpair, cnt), pa.int64()),
            "side": pa.array(np.repeat(rside, cnt), pa.int8()),
            "sh": pa.array(sv[idx], pa.int64()),
            "w": pa.array(sw[idx], pa.int64()),
        }
    )


def pair_wjaccard(part: pa.Table, threshold: float) -> pa.Table:
    """Pair-keyed verify kernel over attached (pair, side, sh, w) rows:
    wjac = wi / (W_A + W_B - wi) with wi = shared idf weight — all
    int64 folds, one float ratio at the end (the SQL-twin convention).
    Duplicate refs collapse via the distinct (pair, side, sh) pass."""
    from ..functions.numeric import round6

    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
         "wjaccard": pa.array([], pa.float64())}
    )
    if part.num_rows == 0:
        return empty
    p = np.asarray(part["pair"].combine_chunks())
    sd = np.asarray(part["side"].combine_chunks())
    s = np.asarray(part["sh"].combine_chunks())
    w = np.asarray(part["w"].combine_chunks())
    order = np.lexsort((sd, s, p))
    p, sd, s, w = p[order], sd[order], s[order], w[order]
    n = len(p)
    pair_start = np.concatenate(([True], p[1:] != p[:-1]))
    pid = np.cumsum(pair_start) - 1
    n_pairs = int(pid[-1]) + 1
    sh_start = np.empty(n, dtype=bool)
    sh_start[0] = True
    sh_start[1:] = pair_start[1:] | (s[1:] != s[:-1])
    side_start = np.empty(n, dtype=bool)
    side_start[0] = True
    side_start[1:] = sh_start[1:] | (sd[1:] != sd[:-1])
    # per distinct (pair, sh) group: #distinct sides present (1 or 2)
    shg = np.cumsum(sh_start) - 1
    sides_per_sh = np.bincount(shg[side_start])
    shared = sides_per_sh == 2

    def _segsum_int(sel_pid: np.ndarray, sel_w: np.ndarray) -> np.ndarray:
        """Exact int64 per-pair sum of selected (nondecreasing-pid) rows."""
        out = np.zeros(n_pairs, dtype=np.int64)
        if len(sel_pid):
            starts = np.flatnonzero(
                np.concatenate(([True], sel_pid[1:] != sel_pid[:-1]))
            )
            out[sel_pid[starts]] = np.add.reduceat(sel_w, starts)
        return out

    # total weight of distinct (pair, side, sh) rows = W_A + W_B
    wsum = _segsum_int(pid[side_start], w[side_start])
    # shared weight: count each shared sh once (its first distinct row)
    sh_first_pid = pid[sh_start]
    sh_first_w = w[sh_start]
    wi = _segsum_int(sh_first_pid[shared], sh_first_w[shared])
    denom = wsum - wi
    with np.errstate(divide="ignore", invalid="ignore"):
        wjac = np.where(denom > 0, round6(wi / np.maximum(denom, 1)), 0.0)
    keep = wjac >= threshold
    pr = p[pair_start][keep]
    return pa.table(
        {
            "doc_a": pa.array(pr >> np.int64(32), pa.int64()),
            "doc_b": pa.array(pr & np.int64(0xFFFFFFFF), pa.int64()),
            "wjaccard": pa.array(wjac[keep], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# Broadcast-candidate verification (the fast verify path)
# ---------------------------------------------------------------------------
# The cogroup verify above ships each candidate doc's full gram set once
# per pair it appears in — Σ_pairs (|A|+|B|) exchanged rows. When the
# candidate set fits memory (it is bounded by the near-dup pair count
# plus filter false-positives; ~1 MB per 130 K pairs), it is far cheaper
# to ray.put the packed pair list once and count intersections INSIDE
# the gram-keyed partitions: for each row (gram g, doc d) look up d's
# candidate partners and test (g, partner) membership against the
# partition's own rows — pure local searchsorted work, zero extra
# exchange volume. Partial counts then fold through one tiny pair-keyed
# exchange. If candidates outgrow broadcast at extreme scale, the
# cogroup path (pair_refs -> attach_shingles -> pair_jaccard /
# pair_containment / attach_gram_weights -> pair_wjaccard) is the
# drop-in fallback — same inputs, same exact outputs.


def collect_candidates(cand_ds, extra_cols: tuple[str, ...] = ()) -> pa.Table:
    """Driver-side collect + global dedup of candidate pairs (bounded:
    see module comment above; the per-partition expansion already
    deduped locally). Returns a pair-sorted Arrow table."""
    import ray

    parts = [t for t in ray.get(cand_ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        cols = {"pair": pa.array([], pa.int64())}
        for c in extra_cols:
            cols[c] = pa.array([], pa.int64())
        return pa.table(cols)
    tbl = pa.concat_tables(parts)
    pairs = np.asarray(tbl["pair"].combine_chunks())
    order = np.argsort(pairs, kind="stable")
    keep_first = np.concatenate(
        ([True], pairs[order][1:] != pairs[order][:-1])
    )
    idx = order[keep_first]
    cols = {"pair": pa.array(pairs[idx], pa.int64())}
    for c in extra_cols:
        cols[c] = pa.array(np.asarray(tbl[c].combine_chunks())[idx])
    return pa.table(cols)


BROADCAST_CAND_LIMIT = 5_000_000
"""Auto-routing threshold (candidate pairs) between the broadcast verify
and the cogroup fallback: 5 M pairs ≈ 120 MB of packed (pair, s_lo, s_hi)
int64 triples — one read-only zero-copy object per NODE (not per task)
under Ray's shared object store, comfortably inside a 128 GiB worker.
Past it, shipping each candidate doc's gram set through the doc_id
cogroup wins (volume scales with candidates, not with a driver-held
array)."""


def verify_pairs(
    dfd,
    cand,
    mode: str,
    threshold: float,
    out_col: str,
    num_parts: int | None = None,
    *,
    n_docs: int | None = None,
):
    """Exact candidate verification with AUTOMATIC plan routing.

    ``dfd`` is the materialized :func:`gram_df_front` relation
    (doc_id, gh, df, dn); ``cand`` the expanded candidate pairs
    (pair, s_lo, s_hi). The candidate count (one metadata read after a
    distributed materialize) picks the plan against
    :data:`BROADCAST_CAND_LIMIT` — the same measured-count routing as
    skew_aware_join (VERDICT r4 §next-7):

    - **broadcast** (small candidate sets — the common case): pairs +
      sizes ``ray.put`` once; dfd is FILTERED to candidate docs before
      the gh-keyed count exchange (O(candidate-doc gram rows) moved,
      not O(corpus)); partial counts fold through one pair-keyed pass.
    - **cogroup** (beyond-broadcast candidate sets): pair_refs →
      doc_id cogroup attaches each candidate doc's gram set →
      pair-keyed exact score. No driver- or broadcast-side array ever
      holds the candidates.

    Both paths are output-identical (tests/test_ppjoin_fallback.py,
    tests/test_ppjoin_routing.py). ``mode`` ∈ {jaccard, containment,
    wjaccard}; wjaccard requires ``n_docs`` (idf weights are derived
    from df on each side, never exchanged)."""
    import ray

    from .keyed import cogroup_by_key, map_partitions_by_key as mpk

    weighted = mode == "wjaccard"
    if weighted and n_docs is None:
        raise ValueError("wjaccard verify requires n_docs")
    cand = cand.materialize()
    # read at call time, not bound as a default, so a changed limit applies
    path = "broadcast" if cand.count() <= BROADCAST_CAND_LIMIT else "cogroup"

    if path == "broadcast":
        ct = collect_candidates(cand, ("s_lo", "s_hi"))
        pref = ray.put(np.asarray(ct["pair"]))
        slo = ray.put(np.asarray(ct["s_lo"]))
        shi = ray.put(np.asarray(ct["s_hi"]))
        dref = ray.put(candidate_doc_ids(ct))

        def prep(t: pa.Table, _d=dref) -> pa.Table:
            t = filter_docs(t, _d)
            return with_idf_w(t, n_docs) if weighted else t

        vf = dfd.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
        counts = mpk(
            vf, "gh", lambda t: count_shared(t, pref, weighted=weighted),
            num_parts=num_parts,
        )
        return mpk(
            counts,
            "pair",
            lambda t: finish_pair_scores(
                t, pref, slo, shi, mode, threshold, out_col
            ),
            num_parts=num_parts,
        )

    # cogroup fallback — same exact outputs, no broadcast array
    from .dedup import attach_shingles, pair_jaccard, pair_refs

    refs = cand.map_batches(pair_refs, batch_format="pyarrow",
                            zero_copy_batch=True)
    if weighted:

        def mk_wsets(t: pa.Table) -> pa.Table:
            t = with_idf_w(t, n_docs)
            return pa.table(
                {"doc_id": t["doc_id"], "gh": t["gh"], "w": t["w"]}
            )

        sets = dfd.map_batches(mk_wsets, batch_format="pyarrow",
                               zero_copy_batch=True)
        joined = cogroup_by_key(refs, sets, "doc_id", attach_gram_weights,
                                num_parts=num_parts)
        return mpk(joined, "pair", lambda t: pair_wjaccard(t, threshold),
                   num_parts=num_parts)

    def mk_sets(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "sh": t["gh"]})

    sets = dfd.map_batches(mk_sets, batch_format="pyarrow",
                           zero_copy_batch=True)
    joined = cogroup_by_key(refs, sets, "doc_id", attach_shingles,
                            num_parts=num_parts)
    if mode == "jaccard":
        return mpk(joined, "pair", lambda t: pair_jaccard(t, threshold),
                   num_parts=num_parts)
    if mode == "containment":
        return mpk(joined, "pair",
                   lambda t: pair_containment(t, threshold),
                   num_parts=num_parts)
    raise ValueError(mode)  # pragma: no cover


def count_shared(part: pa.Table, pairs_sorted: np.ndarray,
                 weighted: bool = False) -> pa.Table:
    """gh-keyed kernel over (doc_id, gh[, w]) rows: per-partition partial
    intersection counts (or shared-weight sums) for the broadcast
    candidate pairs. For every row whose doc is some pair's LO side,
    check whether the HI partner also holds this gram (all rows of a
    gram are local); matches contribute 1 (or the gram's weight) to the
    pair — each shared gram counted exactly once, on its LO row."""
    import ray

    if isinstance(pairs_sorted, ray.ObjectRef):
        pairs_sorted = ray.get(pairs_sorted)
    name = "c"
    empty = pa.table(
        {"pair": pa.array([], pa.int64()), name: pa.array([], pa.int64())}
    )
    if part.num_rows == 0 or len(pairs_sorted) == 0:
        return empty
    col = "gh" if "gh" in part.column_names else "sh"
    gh = np.asarray(part[col].combine_chunks())
    d = np.asarray(part["doc_id"].combine_chunks())
    w = np.asarray(part["w"].combine_chunks()) if weighted else None
    order = np.lexsort((d, gh))
    gh, d = gh[order], d[order]
    if w is not None:
        w = w[order]
    # gram codes (per-partition dense ids, < 2^31)
    seg_start = np.concatenate(([True], gh[1:] != gh[:-1]))
    code = (np.cumsum(seg_start) - 1).astype(np.int64)
    packed_rows = (code << np.int64(32)) | d  # sorted ascending
    # candidate partners of each row's doc (doc as LO side)
    lo_start = np.searchsorted(pairs_sorted, d << np.int64(32), side="left")
    lo_end = np.searchsorted(
        pairs_sorted, (d + 1) << np.int64(32), side="left"
    )
    cnt = lo_end - lo_start
    total = int(cnt.sum())
    if total == 0:
        return empty
    arange = np.arange(len(d), dtype=np.int64)
    row_idx = np.repeat(arange, cnt)
    row_start = np.cumsum(cnt) - cnt
    off = np.arange(total, dtype=np.int64) - np.repeat(row_start, cnt)
    cand_idx = np.repeat(lo_start, cnt) + off
    partner = pairs_sorted[cand_idx] & np.int64(0xFFFFFFFF)
    probe = (code[row_idx] << np.int64(32)) | partner
    hit_pos = np.searchsorted(packed_rows, probe)
    hit = (hit_pos < len(packed_rows)) & (
        packed_rows[np.minimum(hit_pos, len(packed_rows) - 1)] == probe
    )
    if not hit.any():
        return empty
    hit_pairs = pairs_sorted[cand_idx[hit]]
    vals = (
        w[row_idx[hit]] if weighted else np.ones(int(hit.sum()), np.int64)
    )
    inv, uniq = pd.factorize(hit_pairs)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, vals)
    return pa.table(
        {"pair": pa.array(uniq, pa.int64()), name: pa.array(sums, pa.int64())}
    )


def finish_pair_scores(
    part: pa.Table,
    pairs_sorted: np.ndarray,
    size_lo: np.ndarray,
    size_hi: np.ndarray,
    mode: str,
    threshold: float,
    out_col: str,
) -> pa.Table:
    """Pair-keyed fold of count partials + final score against the
    broadcast per-pair sizes (set sizes for jaccard/containment, total
    idf weights for wjaccard). All folds int64-exact; one float ratio."""
    import ray

    from ..functions.numeric import round6

    if isinstance(pairs_sorted, ray.ObjectRef):
        pairs_sorted, size_lo, size_hi = (
            ray.get(pairs_sorted), ray.get(size_lo), ray.get(size_hi)
        )
    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
         out_col: pa.array([], pa.float64())}
    )
    if part.num_rows == 0:
        return empty
    p = np.asarray(part["pair"].combine_chunks())
    c = np.asarray(part["c"].combine_chunks())
    inv, uniq = pd.factorize(p)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, c)
    at = np.searchsorted(pairs_sorted, uniq)
    na = size_lo[at].astype(np.float64)
    nb = size_hi[at].astype(np.float64)
    cf = sums.astype(np.float64)
    if mode == "jaccard":
        denom = na + nb - cf
        score = round6(cf / denom)
    elif mode == "containment":
        score = round6(cf / np.minimum(na, nb))
    elif mode == "wjaccard":
        denom = na + nb - cf
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(denom > 0, round6(cf / np.maximum(denom, 1.0)), 0.0)
    else:  # pragma: no cover
        raise ValueError(mode)
    keep = score >= threshold
    pr = uniq[keep]
    return pa.table(
        {
            "doc_a": pa.array(pr >> np.int64(32), pa.int64()),
            "doc_b": pa.array(pr & np.int64(0xFFFFFFFF), pa.int64()),
            out_col: pa.array(score[keep], pa.float64()),
        }
    )
