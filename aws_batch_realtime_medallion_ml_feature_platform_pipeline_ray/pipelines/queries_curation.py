"""Second batch of training-data curation operators: token-window
chunking (training-sequence prep), corpus-level repeated-n-gram
(boilerplate) detection, contiguous token-budget sharding via a
distributed global prefix sum, and blocklist filtering. Every operator
has an exact DuckDB twin.

Scale shapes:

- ``docs_chunk``: zero shuffles — chunking is per-document and docs are
  whole per batch, so the stage streams; output rows ~= W/S x the token
  stream, written straight through.
- ``docs_boilerplate_ngrams``: per-batch (gram, occ, ndocs) partials
  (exact because docs never span batches) -> ONE small groupby over
  distinct grams -> threshold + tiny global top-k. The token stream
  never shuffles.
- ``docs_pack_bins``: the classic two-level scan — per-batch partial
  sums per doc-id range bucket -> tiny bucket-total aggregate ->
  driver-side exclusive scan over O(#buckets) totals (broadcast) ->
  ONE partition-by-bucket pass computes exact within-bucket prefixes.
  Only O(N / G) bucket totals ever leave the workers; pick G so that
  stays ~1e6 rows at any corpus size.
- ``docs_blocklist_filter``: zero shuffles, one vectorized membership
  pass per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.keyed import map_partitions_by_key
from .queries_extra import NUM_PARTS, _docs
from ..functions.numeric import round6

# --------------------------------------------------------------------------
# Token-window chunking
# --------------------------------------------------------------------------

CHUNK_W = 64  # chunk size in tokens
CHUNK_S = 48  # stride (W - S = 16 tokens of overlap)


def q_docs_chunk(sf_dir: str):
    """Split each document into overlapping ``CHUNK_W``-token windows at
    stride ``CHUNK_S`` — the standard prep step that turns variable-length
    documents into training/embedding sequences. The last window of a doc
    is short rather than padded.

    Fully vectorized: one flat token gather per batch (segmented
    arange), then an Arrow ``ListArray`` + ``binary_join`` rebuilds every
    chunk string in a single kernel call. No shuffle."""
    from ..functions.text import _flat_tokens, tokens_list

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            }
        )
        if t.num_rows == 0:
            return empty
        flat, offsets = _flat_tokens(tokens_list(t["text"]))
        lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        n_chunks = (lens + CHUNK_S - 1) // CHUNK_S  # ceil; 0 for empty doc
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        doc_of_chunk = np.repeat(np.arange(len(ids), dtype=np.int64), n_chunks)
        chunk_starts_excl = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
        chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(
            chunk_starts_excl, n_chunks
        )
        start_tok = chunk_idx * CHUNK_S
        clen = np.minimum(CHUNK_W, lens[doc_of_chunk] - start_tok)
        # flat-token gather indices for every chunk, segmented arange
        tot_tok = int(clen.sum())
        cs_excl = np.concatenate(([0], np.cumsum(clen)))[:-1]
        tok_index = (
            np.arange(tot_tok, dtype=np.int64)
            - np.repeat(cs_excl, clen)
            + np.repeat(offsets[:-1][doc_of_chunk].astype(np.int64) + start_tok, clen)
        )
        gathered = flat.take(pa.array(tok_index))
        lst = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(clen))), pa.int32()), gathered
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_of_chunk], pa.int64()),
                "chunk_idx": pa.array(chunk_idx, pa.int64()),
                "n_tokens": pa.array(clen, pa.int64()),
                "chunk_text": pc.binary_join(lst, " "),
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow", zero_copy_batch=True)


DOCS_CHUNK_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
c AS (
    SELECT doc_id, len(ts) AS n, ts, unnest(range(0, len(ts), {CHUNK_S})) AS s
    FROM tok
)
SELECT doc_id,
       (s // {CHUNK_S})::BIGINT AS chunk_idx,
       (LEAST(s + {CHUNK_W}, n) - s)::BIGINT AS n_tokens,
       array_to_string(ts[s + 1 : LEAST(s + {CHUNK_W}, n)], ' ') AS chunk_text
FROM c
"""


# --------------------------------------------------------------------------
# Chunk-level cross-corpus dedup (C4/RefinedWeb paragraph-dedup analog)
# --------------------------------------------------------------------------

CHUNKD_W = 16  # non-overlapping dedup unit, in tokens


def q_docs_chunk_dedup(sf_dir: str):
    """Sub-document dedup audit at fixed ``CHUNKD_W``-token chunk
    granularity — the C4-style "paragraph" dedup signal (our documents
    carry no newline structure, so the unit is a fixed token window):
    per document, how many of its distinct chunks also appear in at
    least one OTHER document, and the shared fraction.

    Scale shape: chunking is a streamed per-batch map (no shuffle);
    (doc_id, chunk) pairs are distinct by construction within a doc, so
    exchange 1 (hash by chunk string) sees each pair once and counts
    distinct docs per chunk segment-vectorized; per-doc partials then
    collapse in exchange 2 via the keyed sum fold (doc-cardinality
    groups — the high-cardinality fold path). No stage holds more than
    one partition of pairs."""
    from ..functions.text import _flat_tokens, tokens_list
    from ..stages.keyed import fold_sum_by_keys

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def chunk_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "chunk": pa.array([], pa.string())}
        )
        if t.num_rows == 0:
            return empty
        flat, offsets = _flat_tokens(tokens_list(t["text"]))
        lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        n_chunks = (lens + CHUNKD_W - 1) // CHUNKD_W
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        doc_of_chunk = np.repeat(np.arange(len(ids), dtype=np.int64), n_chunks)
        clen = np.minimum(
            CHUNKD_W,
            lens[doc_of_chunk]
            - (np.arange(total, dtype=np.int64)
               - np.repeat(np.concatenate(([0], np.cumsum(n_chunks)))[:-1], n_chunks)
               ) * CHUNKD_W,
        )
        # token gather: contiguous within each doc, so the flat index is
        # just a segmented arange over the doc's token span
        lst = pa.ListArray.from_arrays(
            pa.array(
                np.concatenate(([0], np.cumsum(clen))), pa.int32()
            ),
            flat,
        )
        pairs = pa.table(
            {
                "doc_id": pa.array(ids[doc_of_chunk], pa.int64()),
                "chunk": pc.binary_join(lst, " "),
            }
        )
        # distinct within the doc == distinct globally (a doc lives in
        # exactly one input row)
        return pairs.group_by(["doc_id", "chunk"]).aggregate([])

    pairs = ds.map_batches(chunk_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)

    def per_chunk(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "p_n": pa.array([], pa.int64()),
             "p_shared": pa.array([], pa.int64())}
        )
        if part.num_rows == 0:
            return empty
        ch = part["chunk"].combine_chunks()
        codes = np.asarray(pc.dictionary_encode(ch).indices).astype(np.int64)
        d = np.asarray(part["doc_id"].combine_chunks())
        order = np.argsort(codes, kind="stable")
        codes_s, d_s = codes[order], d[order]
        seg = np.empty(len(codes_s), dtype=bool)
        seg[0] = True
        np.not_equal(codes_s[1:], codes_s[:-1], out=seg[1:])
        starts = np.flatnonzero(seg)
        nd = np.diff(np.append(starts, len(codes_s)))
        shared = (np.repeat(nd, nd) > 1).astype(np.int64)
        g = pa.table(
            {"doc_id": pa.array(d_s, pa.int64()),
             "one": pa.array(np.ones(len(d_s), np.int64)),
             "sh": pa.array(shared)}
        ).group_by("doc_id").aggregate([("one", "sum"), ("sh", "sum")])
        return g.rename_columns(["doc_id", "p_n", "p_shared"])

    partials = map_partitions_by_key(pairs, "chunk", per_chunk,
                                     num_parts=NUM_PARTS)
    folded = fold_sum_by_keys(partials, ["doc_id"], ["p_n", "p_shared"],
                              num_parts=NUM_PARTS)
    return folded.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chunks": t["p_n"].cast(pa.int64()),
                "n_shared": t["p_shared"].cast(pa.int64()),
                "shared_frac": pa.array(
                    round6(
                        np.asarray(t["p_shared"].combine_chunks()).astype(np.float64)
                        / np.asarray(t["p_n"].combine_chunks())
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


DOCS_CHUNK_DEDUP_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
c AS (
    SELECT doc_id,
           array_to_string(ts[s + 1 : LEAST(s + {CHUNKD_W}, n)], ' ') AS chunk
    FROM (
        SELECT doc_id, len(ts) AS n, ts,
               unnest(range(0, len(ts), {CHUNKD_W})) AS s
        FROM tok
    )
),
p AS (SELECT DISTINCT doc_id, chunk FROM c),
d AS (SELECT chunk, count(*) AS ndocs FROM p GROUP BY 1)
SELECT p.doc_id,
       CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(CASE WHEN d.ndocs > 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_shared,
       ROUND(sum(CASE WHEN d.ndocs > 1 THEN 1 ELSE 0 END)::DOUBLE
             / count(*), 6) AS shared_frac
FROM p JOIN d USING (chunk)
GROUP BY 1
"""


# --------------------------------------------------------------------------
# Boilerplate detection: corpus-level repeated n-grams
# --------------------------------------------------------------------------

BOILER_K = 3  # word-k-grams
BOILER_MIN_DOCS = 5  # a gram is boilerplate once it appears in >= docs
BOILER_TOP = 50


def boilerplate_gram_partial(t: pa.Table) -> pa.Table:
    """Per-batch (gram, occ, ndocs) partial counts for word-``BOILER_K``-
    grams. Exact partials because documents never span batches: occ sums
    and ndocs (distinct docs per gram) sums are both additive across
    batches."""
    import pandas as pd

    from ..functions.text import _flat_tokens, tokens_list

    empty = pa.table(
        {
            "gram": pa.array([], pa.string()),
            "occ": pa.array([], pa.int64()),
            "ndocs": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    from ..functions.text import gram_explode

    flat, offsets = _flat_tokens(tokens_list(t["text"]))
    n_tok = len(flat)
    n_docs = len(offsets) - 1
    lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
    if n_tok == 0:
        return empty
    gram, _pos, _len_per_tok, keep = gram_explode(flat, offsets, BOILER_K)
    doc_per_tok = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    gram = gram.filter(pa.array(keep))
    doc_per_gram = doc_per_tok[keep]
    enc = pc.dictionary_encode(gram)
    code = np.asarray(enc.indices).astype(np.int64)
    occ = np.bincount(code, minlength=len(enc.dictionary)).astype(np.int64)
    # distinct (doc, gram) within batch -> per-gram doc frequency
    key = (doc_per_gram << np.int64(32)) | code
    _inv, uniq = pd.factorize(key)
    ndocs = np.bincount(
        (uniq & np.int64(0xFFFFFFFF)), minlength=len(enc.dictionary)
    ).astype(np.int64)
    return pa.table(
        {
            "gram": enc.dictionary,
            "occ": pa.array(occ, pa.int64()),
            "ndocs": pa.array(ndocs, pa.int64()),
        }
    )


def q_docs_boilerplate_ngrams(sf_dir: str):
    """Corpus-level repeated word-{BOILER_K}-gram detection — the
    boilerplate/template-text scan of web-corpus curation: every gram's
    total occurrence count and document frequency, thresholded at
    ``BOILER_MIN_DOCS`` docs, top ``BOILER_TOP`` ranked by
    (ndocs DESC, occ DESC, gram) with a deterministic rank column."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    partials = ds.map_batches(
        boilerplate_gram_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def combine(part: pa.Table) -> pa.Table:
        g = part.group_by("gram").aggregate([("occ", "sum"), ("ndocs", "sum")])
        g = g.rename_columns(["gram", "occ", "ndocs"])
        return g.filter(pc.greater_equal(g["ndocs"], BOILER_MIN_DOCS))

    agg = map_partitions_by_key(partials, "gram", combine, num_parts=NUM_PARTS)

    # global top-k over the (tiny) thresholded aggregate: local top-k per
    # block bounds what the final single-block rank pass ever sees
    def _boiler_order(t: pa.Table) -> np.ndarray:
        occ = np.asarray(t["occ"].combine_chunks())
        nd = np.asarray(t["ndocs"].combine_chunks())
        gram = np.asarray(t["gram"].combine_chunks().cast(pa.large_string()))
        return np.lexsort((gram, -occ, -nd))

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= BOILER_TOP:
            return t
        return t.take(pa.array(_boiler_order(t)[:BOILER_TOP]))

    def final_rank(part: pa.Table) -> pa.Table:
        order = _boiler_order(part)[:BOILER_TOP]
        out = part.take(pa.array(order))
        return out.append_column(
            "rk", pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64())
        )

    return (
        agg.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(
            final_rank,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,  # the single repartitioned block, whole
        )
    )


DOCS_BOILERPLATE_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
g AS (
    SELECT doc_id, array_to_string(ts[i : i + {BOILER_K - 1}], ' ') AS gram
    FROM tok, unnest(range(1, len(ts) - {BOILER_K - 2})) AS t(i)
),
agg AS (
    SELECT gram, count(*)::BIGINT AS occ,
           count(DISTINCT doc_id)::BIGINT AS ndocs
    FROM g GROUP BY gram
),
r AS (
    SELECT gram, occ, ndocs,
           row_number() OVER (ORDER BY ndocs DESC, occ DESC, gram) AS rk
    FROM agg WHERE ndocs >= {BOILER_MIN_DOCS}
)
SELECT gram, occ, ndocs, rk FROM r WHERE rk <= {BOILER_TOP}
"""


# --------------------------------------------------------------------------
# Contiguous token-budget sharding (global prefix sum)
# --------------------------------------------------------------------------

PACK_BUDGET = 1000  # tokens per shard
PACK_BUCKET = 64  # doc_ids per scan bucket (scale: ~corpus_docs / 1e6)


def q_docs_pack_bins(sf_dir: str):
    """Assign every document to a contiguous training shard of
    ~``PACK_BUDGET`` tokens: shard id = exclusive-prefix-sum of token
    counts in doc_id order, integer-divided by the budget. A document
    whose tokens straddle a boundary goes with its starting shard
    (contiguous packing with overflow — the deterministic, fully
    parallel variant of greedy packing).

    The exact global scan in two small exchanges: per-batch partial sums
    per doc-id range bucket -> tiny bucket-total groupby collected and
    exclusive-scanned on the driver (O(N / PACK_BUCKET) values — size
    PACK_BUCKET so this stays ~1e6 at any corpus) -> one
    partition-by-bucket pass sorts each bucket's docs and adds the
    bucket's broadcast base offset."""
    from ..functions.text import token_count

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        n = token_count(t["text"]).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "bucket": pa.array(ids // PACK_BUCKET, pa.int64()),
            }
        )

    per_doc = ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        b = np.asarray(t["bucket"].combine_chunks())
        n = np.asarray(t["n_tokens"].combine_chunks())
        inv, uniq = pd.factorize(b)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, n)
        return pa.table(
            {"bucket": pa.array(uniq, pa.int64()), "tok": pa.array(s, pa.int64())}
        )

    totals = (
        per_doc.map_batches(bucket_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .sum("tok")
        .to_pandas()  # O(#buckets) rows only — the one driver touch
        .sort_values("bucket")
    )
    buckets = totals["bucket"].to_numpy()
    base = np.concatenate(([0], np.cumsum(totals["sum(tok)"].to_numpy())))[:-1]

    def scan_bucket(part: pa.Table) -> pa.Table:
        ids = np.asarray(part["doc_id"].combine_chunks())
        n = np.asarray(part["n_tokens"].combine_chunks())
        b = np.asarray(part["bucket"].combine_chunks())
        order = np.argsort(ids)  # doc_id sorts (bucket, doc) together
        ids, n, b = ids[order], n[order], b[order]
        seg_start = np.empty(len(ids), dtype=bool)
        if len(ids):
            seg_start[0] = True
            np.not_equal(b[1:], b[:-1], out=seg_start[1:])
        cum = np.cumsum(n) - n  # exclusive within the sorted partition
        # reset to zero at each bucket boundary
        reset = np.maximum.accumulate(np.where(seg_start, cum, 0))
        within = cum - reset
        prefix = within + base[np.searchsorted(buckets, b)]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "bin_id": pa.array(prefix // PACK_BUDGET, pa.int64()),
            }
        )

    out = map_partitions_by_key(per_doc, "bucket", scan_bucket, num_parts=NUM_PARTS)
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "bin_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


DOCS_PACK_BINS_SQL = f"""
WITH t AS (
    SELECT doc_id, len(string_split(text, ' '))::BIGINT AS n_tokens
    FROM documents
)
SELECT doc_id, n_tokens,
       (COALESCE(sum(n_tokens) OVER (
            ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
        ), 0) // {PACK_BUDGET})::BIGINT AS bin_id
FROM t
"""


# --------------------------------------------------------------------------
# Blocklist filtering
# --------------------------------------------------------------------------

BLOCKLIST: tuple[str, ...] = ("spark", "slow", "stale")
BLOCK_MAX_FRACTION = 0.08


def q_docs_blocklist_filter(sf_dir: str):
    """Per-document blocked-term accounting + keep flag — the bad-word /
    policy filter of web-corpus curation. Zero shuffles; one vectorized
    set-membership pass per batch (``member_count``)."""
    from ..functions.text import member_count, token_count, tokens_list

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().cast(pa.int64())
        toks = tokens_list(t["text"])
        n = token_count(t["text"]).astype(np.int64)
        blocked = member_count(toks, BLOCKLIST).astype(np.int64)
        frac = round6(blocked / np.maximum(n, 1))
        return pa.table(
            {
                "doc_id": ids,
                "n_tokens": pa.array(n, pa.int64()),
                "blocked": pa.array(blocked, pa.int64()),
                "blocked_frac": pa.array(frac, pa.float64()),
                "keep": pa.array(frac <= BLOCK_MAX_FRACTION),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


_BLOCK_IN = ", ".join(f"'{w}'" for w in BLOCKLIST)

DOCS_BLOCKLIST_SQL = f"""
WITH t AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
s AS (
    SELECT doc_id, len(ts)::BIGINT AS n_tokens,
           len(list_filter(ts, x -> x IN ({_BLOCK_IN})))::BIGINT AS blocked
    FROM t
)
SELECT doc_id, n_tokens, blocked,
       ROUND(blocked * 1.0 / GREATEST(n_tokens, 1), 6) AS blocked_frac,
       ROUND(blocked * 1.0 / GREATEST(n_tokens, 1), 6) <= {BLOCK_MAX_FRACTION}
           AS keep
FROM s
"""


# --------------------------------------------------------------------------
# Duplicated-span coverage (suffix-array-dedup-style per-doc score)
# --------------------------------------------------------------------------

SPAN_K = 5  # span granularity: word-K-grams


def span_gram_partial(t: pa.Table) -> pa.Table:
    """Per-batch (gram, doc_id, pos, n_tokens) explode for word-``SPAN_K``-
    grams — one row per token position ``0..len-K``. ``n_tokens`` rides
    along (constant per doc) so the doc-keyed coverage pass needs no
    second join. Exact because documents never span batches."""
    from ..functions.text import _flat_tokens, tokens_list

    empty = pa.table(
        {
            "gram": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    from ..functions.text import gram_explode

    flat, offsets = _flat_tokens(tokens_list(t["text"]))
    n_tok = len(flat)
    if n_tok == 0:
        return empty
    lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
    gram, pos, len_per_tok, keep = gram_explode(flat, offsets, SPAN_K)
    doc_ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
    doc_per_tok = np.repeat(doc_ids, lens)
    return pa.table(
        {
            "gram": gram.filter(pa.array(keep)),
            "doc_id": pa.array(doc_per_tok[keep], pa.int64()),
            "pos": pa.array(pos[keep], pa.int64()),
            "n_tokens": pa.array(len_per_tok[keep], pa.int64()),
        }
    )


def _shared_gram_hits(part: pa.Table) -> pa.Table:
    """Gram-keyed pass: keep the (doc_id, pos, n_tokens) rows whose gram
    occurs in >= 2 DISTINCT docs (cross-doc duplication; a within-doc
    repeat alone does not flag). All rows of a gram are in this
    partition, so the distinct-doc count is exact."""
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("pos", pa.int64()), ("n_tokens", pa.int64())]
    )
    if part.num_rows == 0:
        return out_schema.empty_table()
    enc = pc.dictionary_encode(part["gram"].combine_chunks())
    code = np.asarray(enc.indices).astype(np.int64)
    n_codes = len(enc.dictionary)
    doc = np.asarray(part["doc_id"].combine_chunks())
    _, doc_inv = np.unique(doc, return_inverse=True)
    n_docs_u = np.int64(doc_inv.max()) + 1
    # guard in Python ints — a np.int64 product would itself wrap silently
    if int(n_codes) * int(n_docs_u) >= np.iinfo(np.int64).max:
        raise OverflowError("span-coverage pair packing would overflow int64")
    pair = np.unique(code * n_docs_u + doc_inv)
    ndocs = np.bincount((pair // n_docs_u).astype(np.int64), minlength=n_codes)
    shared = ndocs[code] >= 2
    return part.drop_columns(["gram"]).filter(pa.array(shared))


def _coverage_partition(part: pa.Table) -> pa.Table:
    """Doc-keyed pass: union-of-intervals coverage of fixed-length spans.
    For each doc's sorted hit positions p_0 < ... < p_m the covered token
    count is sum(min(K, p_{i+1} - p_i)) + K — one lexsort + one reduceat,
    no Python loop."""
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("covered_tokens", pa.int64()),
            ("dup_fraction", pa.float64()),
        ]
    )
    if part.num_rows == 0:
        return out_schema.empty_table()
    doc = np.asarray(part["doc_id"].combine_chunks())
    pos = np.asarray(part["pos"].combine_chunks())
    ntok = np.asarray(part["n_tokens"].combine_chunks())
    order = np.lexsort((pos, doc))
    doc, pos, ntok = doc[order], pos[order], ntok[order]
    starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
    # per-row contribution: min(K, next_pos - pos); segment-last rows -> K
    contrib = np.full(len(pos), SPAN_K, dtype=np.int64)
    if len(pos) > 1:
        inner = np.minimum(SPAN_K, pos[1:] - pos[:-1])
        same = doc[1:] == doc[:-1]
        contrib[:-1] = np.where(same, inner, SPAN_K)
    covered = np.add.reduceat(contrib, starts)
    n_tokens = ntok[starts]
    return pa.table(
        {
            "doc_id": pa.array(doc[starts], pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "covered_tokens": pa.array(covered, pa.int64()),
            "dup_fraction": pa.array(
                covered.astype(np.float64) / n_tokens.astype(np.float64),
                pa.float64(),
            ),
        }
    )


def q_docs_dup_span_coverage(sf_dir: str):
    """Duplicated-span coverage — the per-document dedup score behind
    suffix-array substring dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): the fraction of a
    document's tokens covered by at least one word-``SPAN_K``-gram that
    also occurs in ANOTHER document. The 8th dedup family next to
    exact / MinHash / SimHash / Jaccard / fuzzy / containment /
    incremental: it scores partial template reuse positionally instead
    of whole-doc similarity.
    Docs with no cross-doc shared gram (or < ``SPAN_K`` tokens) emit no
    row — at scale the zero-score majority stays out of the exchange and
    is recovered by an anti-join only if needed.

    Scale shape: the (gram, doc, pos) explode is one streamed pass
    (~1 row per token); exchange 1 keys by gram (distinct-doc count and
    the shared filter happen inside the partition — only flagged hits
    leave); exchange 2 keys by doc_id for the interval-union coverage,
    moving only flagged positions. No stage broadcasts or materializes
    the corpus; hot grams can be salted exactly like the boilerplate
    scan's heavy keys."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    grams = ds.map_batches(
        span_gram_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    hits = map_partitions_by_key(
        grams, "gram", _shared_gram_hits, num_parts=NUM_PARTS
    )
    return map_partitions_by_key(
        hits, "doc_id", _coverage_partition, num_parts=NUM_PARTS
    )


DOCS_DUP_SPAN_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
g AS (
    SELECT doc_id, len(ts)::BIGINT AS n_tokens, i::BIGINT AS pos,
           array_to_string(ts[i : i + {SPAN_K - 1}], ' ') AS gram
    FROM tok, unnest(range(1, len(ts) - {SPAN_K - 2})) AS t(i)
),
shared AS (
    SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
),
hits AS (
    SELECT g.doc_id, g.n_tokens, g.pos FROM g JOIN shared USING (gram)
),
cov AS (
    SELECT doc_id, n_tokens,
           LEAST({SPAN_K}, COALESCE(
               LEAD(pos) OVER (PARTITION BY doc_id ORDER BY pos) - pos,
               {SPAN_K}))::BIGINT AS c
    FROM hits
)
SELECT doc_id,
       CAST(max(n_tokens) AS BIGINT) AS n_tokens,
       CAST(sum(c) AS BIGINT) AS covered_tokens,
       CAST(sum(c) AS DOUBLE) / CAST(max(n_tokens) AS DOUBLE) AS dup_fraction
FROM cov GROUP BY doc_id
"""


# --------------------------------------------------------------------------
# BPE tokenizer-training merge step (adjacent-pair counting)
# --------------------------------------------------------------------------

BPE_TOP_K = 10


def q_docs_bpe_merge(sf_dir: str):
    """One BPE tokenizer-training merge step: count every adjacent
    character pair inside every word of the corpus and rank the top
    ``BPE_TOP_K`` merge candidates — the inner loop of byte-pair-encoding
    vocabulary induction, run distributed.

    Plan: ZERO data shuffles — each batch's token stream collapses to
    (pair, count) partials via O(max word length) vectorized slice
    kernels + one dictionary-encoded bincount (the pair space is bounded
    by alphabet², not corpus size); ``stages.keyed.sum_partials`` folds
    the partials by pair and ranks the winners on the one folded table.
    Slices are codepoint-based on both sides (pyarrow
    ``utf8_slice_codeunits`` / SQL ``substr``), identical on this
    corpus's ASCII vocabulary."""
    import numpy as np

    from ..functions.text import _flat_tokens, tokens_list
    from ..sources.reads import read_parquet_sized
    from ..stages.keyed import sum_partials

    ds = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["text"])

    def pair_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"pair": pa.array([], pa.string()), "pn": pa.array([], pa.int64())}
        )
        flat, _off = _flat_tokens(tokens_list(t["text"]))
        if len(flat) == 0:
            return empty
        lens = np.asarray(pc.utf8_length(flat).cast(pa.int64()))
        max_len = int(lens.max())
        chunks = []
        for i in range(max(0, max_len - 1)):
            sel = flat.filter(pa.array(lens >= i + 2))
            if len(sel):
                chunks.append(pc.utf8_slice_codeunits(sel, start=i, stop=i + 2))
        if not chunks:
            return empty
        allp = pa.concat_arrays([c.cast(pa.large_string()) for c in chunks])
        enc = pc.dictionary_encode(allp)
        counts = np.bincount(
            np.asarray(enc.indices), minlength=len(enc.dictionary)
        ).astype(np.int64)
        return pa.table(
            {"pair": enc.dictionary.cast(pa.string()), "pn": pa.array(counts)}
        )

    def finish(t: pa.Table) -> pa.Table:
        pairs = np.asarray(t["pair"].combine_chunks().cast(pa.large_string()))
        n = np.asarray(t["n"].combine_chunks().cast(pa.int64()))
        order = np.lexsort((pairs, -n))[:BPE_TOP_K]
        return pa.table(
            {
                "pair": pa.array(pairs[order], pa.string()),
                "n": pa.array(n[order], pa.int64()),
                "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    partials = ds.map_batches(
        pair_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return sum_partials(partials, ["pair"], {"pn": "n"}, finish)


DOCS_BPE_MERGE_SQL = f"""
WITH words AS (
    SELECT unnest(string_split(text, ' ')) AS w FROM documents
),
pairs AS (
    SELECT substr(w, CAST(i AS INTEGER), 2) AS pair
    FROM (SELECT w, unnest(generate_series(1, length(w) - 1)) AS i FROM words)
),
c AS (SELECT pair, count(*)::BIGINT AS n FROM pairs GROUP BY 1)
SELECT pair, n, CAST(row_number() OVER (ORDER BY n DESC, pair) AS BIGINT) AS rk
FROM c ORDER BY rk LIMIT {BPE_TOP_K}
"""


REGISTRY: dict[str, tuple] = {
    "docs_bpe_merge": (q_docs_bpe_merge, DOCS_BPE_MERGE_SQL),
    "docs_chunk": (q_docs_chunk, DOCS_CHUNK_SQL),
    "docs_chunk_dedup": (q_docs_chunk_dedup, DOCS_CHUNK_DEDUP_SQL),
    "docs_boilerplate_ngrams": (q_docs_boilerplate_ngrams, DOCS_BOILERPLATE_SQL),
    "docs_dup_span_coverage": (q_docs_dup_span_coverage, DOCS_DUP_SPAN_SQL),
    "docs_pack_bins": (q_docs_pack_bins, DOCS_PACK_BINS_SQL),
    "docs_blocklist_filter": (q_docs_blocklist_filter, DOCS_BLOCKLIST_SQL),
}
