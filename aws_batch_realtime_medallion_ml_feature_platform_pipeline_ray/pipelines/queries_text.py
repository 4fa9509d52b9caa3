"""Text-analysis / dedup operator queries over the ``documents`` table
(doc_id, text, lang, source, n_chars). Every operator here — including
MinHash-LSH and SimHash — has an exact DuckDB twin: the 64-bit hash
kernels (md5-lower-64 token basis + splitmix64 mixing) are mirrored in
generated SQL via HUGEINT limb arithmetic."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..stages.dedup import (
    attach_shingles,
    lsh_partition_pairs,
    minhash_band_table,
    pair_jaccard,
    pair_refs,
    shingle_table,
    simhash64,
)
from ..stages.featurize import dedup_first
from ..stages.keyed import cogroup_by_key, map_partitions_by_key
from ..functions.numeric import round6

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts


def _docs(sf_dir: str, columns=None):
    from ..sources.reads import read_parquet_sized

    return read_parquet_sized(f"{sf_dir}/documents.parquet", columns=columns)


def q_docs_exact_dedup(sf_dir: str):
    """Exact dedup by content hash: md5(text) → hash-partitioned
    keep-min-doc_id (one shuffle on the hash)."""
    ds = _docs(sf_dir)

    def add_hash(t: pa.Table) -> pa.Table:
        return t.append_column("text_hash", T.md5_hex(t["text"].to_pylist()))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
    return map_partitions_by_key(
        hashed,
        "text_hash",
        lambda t: dedup_first(t, ["text_hash"], ["doc_id"]),
        num_parts=NUM_PARTS,
    )


DOCS_EXACT_DEDUP_SQL = """
SELECT doc_id, text, lang, source, n_chars, text_hash
FROM (
    SELECT *, md5(text) AS text_hash,
           row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
    FROM documents
) WHERE rn = 1
"""


def q_docs_quality(sf_dir: str):
    """Quality scoring: token count, char count, avg token length,
    stopword ratio — vectorized flatten + segment-sum per batch."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        m = T.quality_metrics(t["text"].combine_chunks())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(m["n_tokens"]),
                "n_chars_c": pa.array(m["n_chars_c"]),
                "avg_token_len": pa.array(m["avg_token_len"]),
                "stopword_ratio": pa.array(m["stopword_ratio"]),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_STOP_IN = ", ".join(repr(s) for s in T.STOPWORDS)

DOCS_QUALITY_SQL = f"""
SELECT doc_id,
    length(string_split(text, ' ')) AS n_tokens,
    length(text) AS n_chars_c,
    (length(text) - (length(string_split(text, ' ')) - 1))
        / CAST(length(string_split(text, ' ')) AS DOUBLE) AS avg_token_len,
    len(list_filter(string_split(text, ' '), x -> x IN ({_STOP_IN})))
        / CAST(length(string_split(text, ' ')) AS DOUBLE) AS stopword_ratio
FROM documents
"""


# --------------------------------------------------------------------------
# Model-scoring apply: fixed logistic quality classifier
# --------------------------------------------------------------------------

# frozen model weights (intercept, ln(1+n_tokens), avg_token_len,
# stopword_ratio) — the shipped-artifact analog of a trained fastText/LR
# quality filter; scoring is the operator under test, not the fit
LR_B = -1.45
LR_W_LOGTOK = 0.6
LR_W_AVGLEN = -0.25
LR_W_STOP = 3.0


def lr_quality_scores(texts) -> "np.ndarray":
    """THE parity-critical frozen-LR expression chain (features → logit →
    round6 sigmoid), shared by every consumer (scoring apply, AUC,
    calibration, Pareto front) so a weight or rounding tweak can never
    desynchronize the copies. Returns the rounded double scores."""
    import numpy as np

    from ..functions.numeric import round6

    m = T.quality_metrics(texts)
    z = (
        LR_B
        + LR_W_LOGTOK * np.log(1.0 + m["n_tokens"].astype(np.float64))
        + LR_W_AVGLEN * m["avg_token_len"]
        + LR_W_STOP * m["stopword_ratio"]
    )
    return round6(1.0 / (1.0 + np.exp(-z)))


def lr_micro_scores(texts) -> "np.ndarray":
    """The scores as exact int64 micro-units (score * 1e6) — the
    bounded-domain histogram/rank key the evaluation operators fold on."""
    import numpy as np

    from ..functions.numeric import round_half_away

    return round_half_away(lr_quality_scores(texts) * 1e6).astype(np.int64)


def q_docs_quality_score_lr(sf_dir: str):
    """Model-scoring APPLY: run a frozen logistic-regression quality
    classifier over every document and emit the calibrated score + keep
    flag — the batch-inference step of a classifier-based curation
    pipeline (the weights are a fixed artifact riding the task closure;
    swap in any linear model without touching the plumbing).

    Plan: ZERO shuffles — the features come from the same vectorized
    quality kernel as ``docs_quality``, the score is one fused numpy
    expression per batch, and the keep decision thresholds the ROUNDED
    score so both sides decide on the identical double."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        import numpy as np

        s = lr_quality_scores(t["text"].combine_chunks())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "q_score": pa.array(s, pa.float64()),
                "keep": pa.array((s >= 0.5).astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


DOCS_QUALITY_LR_SQL = f"""
WITH f AS (
    SELECT doc_id,
        length(string_split(text, ' ')) AS n_tokens,
        (length(text) - (length(string_split(text, ' ')) - 1))
            / CAST(length(string_split(text, ' ')) AS DOUBLE) AS avg_token_len,
        len(list_filter(string_split(text, ' '), x -> x IN ({_STOP_IN})))
            / CAST(length(string_split(text, ' ')) AS DOUBLE) AS stopword_ratio
    FROM documents
),
s AS (
    SELECT doc_id,
           ROUND(1.0 / (1.0 + exp(-({LR_B} + {LR_W_LOGTOK} * ln(1.0 + n_tokens)
               + {LR_W_AVGLEN} * avg_token_len
               + {LR_W_STOP} * stopword_ratio))), 6) AS q_score
    FROM f
)
SELECT doc_id, q_score, CAST(q_score >= 0.5 AS BIGINT) AS keep FROM s
"""


# Gopher-style composite quality rules, all in INTEGER arithmetic so the
# keep decision is bit-exact: token count in range, mean token length in
# [3, 10] (as 3·nt <= alpha_len <= 10·nt), and >= 2 stopword hits.
GOPHER_MIN_TOKENS = 10
GOPHER_MAX_TOKENS = 10_000
GOPHER_MIN_MEAN_LEN = 3
GOPHER_MAX_MEAN_LEN = 10
GOPHER_MIN_STOPWORDS = 2


def q_docs_gopher_filter(sf_dir: str):
    """Gopher-rules quality filter (Rae et al. 2021 §A1.1 style): drop
    documents failing cheap structural rules. Pure streaming filter —
    zero shuffles, runs at read speed; every rule is integer arithmetic
    over the existing vectorized quality kernels."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "text"])

    def fn(t: pa.Table) -> pa.Table:
        keep, nt, _nc = T.gopher_keep(
            t["text"],
            min_tokens=GOPHER_MIN_TOKENS,
            max_tokens=GOPHER_MAX_TOKENS,
            min_mean_len=GOPHER_MIN_MEAN_LEN,
            max_mean_len=GOPHER_MAX_MEAN_LEN,
            min_stopwords=GOPHER_MIN_STOPWORDS,
        )
        return pa.table(
            {"doc_id": t["doc_id"], "lang": t["lang"], "n_tokens": pa.array(nt)}
        ).filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


DOCS_GOPHER_SQL = f"""
WITH m AS (
    SELECT doc_id, lang,
        length(string_split(text, ' '))::BIGINT AS n_tokens,
        (length(text) - (length(string_split(text, ' ')) - 1))::BIGINT
            AS alpha_len,
        len(list_filter(string_split(text, ' '), x -> x IN ({{stop}})))::BIGINT
            AS stop_cnt
    FROM documents
)
SELECT doc_id, lang, n_tokens FROM m
WHERE n_tokens >= {GOPHER_MIN_TOKENS} AND n_tokens <= {GOPHER_MAX_TOKENS}
  AND alpha_len >= {GOPHER_MIN_MEAN_LEN} * n_tokens
  AND alpha_len <= {GOPHER_MAX_MEAN_LEN} * n_tokens
  AND stop_cnt >= {GOPHER_MIN_STOPWORDS}
""".replace("{stop}", _STOP_IN)


def q_docs_token_count(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(T.token_count(t["text"].combine_chunks())),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


DOCS_TOKEN_COUNT_SQL = """
SELECT doc_id, length(string_split(text, ' ')) AS n_tokens FROM documents
"""

# BPE-ish pre-tokenizer: word pieces, digit runs, and single punctuation
# marks — the GPT-2-style coarse split that approximates subword counts
# far better than whitespace on punctuated text. RE2 on both sides.
BPE_PATTERN = r"[a-z]+|[0-9]+|[^a-z0-9\s]"


def q_docs_token_count_bpe(sf_dir: str):
    """Regex (BPE-ish) token counting — the second counter the brief
    calls for alongside the whitespace splitter: one vectorized RE2
    ``count_substring_regex`` per batch, zero shuffles."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_pieces": pc.count_substring_regex(
                    t["text"].combine_chunks(), pattern=BPE_PATTERN
                ).cast(pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


DOCS_TOKEN_COUNT_BPE_SQL = rf"""
SELECT doc_id,
       len(regexp_extract_all(text, '{BPE_PATTERN}'))::BIGINT AS n_pieces
FROM documents
"""


def q_docs_langid(sf_dir: str):
    """Marker-stopword language-ID heuristic (first-max argmax over
    LANG_MARKERS, 'und' fallback)."""
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "pred_lang": T.lang_id(t["text"].combine_chunks()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_selects, _case = T.lang_id_sql_case("text")
DOCS_LANGID_SQL = f"""
SELECT doc_id, lang, {_case} AS pred_lang
FROM (SELECT doc_id, lang, {_selects} FROM documents)
"""


def q_docs_fingerprint(sf_dir: str):
    """Document fingerprint: md5 of casefolded text (oracle-parity
    variant; the scale path uses vectorized splitmix64 shingle hashes,
    see docs_simhash / docs_minhash_pairs)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t["text"].combine_chunks())
        return pa.table(
            {"doc_id": t["doc_id"], "fp": T.md5_hex(low.to_pylist())}
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


DOCS_FINGERPRINT_SQL = """
SELECT doc_id, md5(lower(text)) AS fp FROM documents
"""


NOVELTY_BATCH = 50  # synthetic arrival order: ingest batch = doc_id // 50


def q_docs_novelty_by_batch(sf_dir: str):
    """Per-ingest-batch corpus novelty rate: for each arrival batch
    (synthesized deterministically as ``doc_id // 50``), the count and
    fraction of documents whose CONTENT fingerprint was never seen in any
    earlier batch — the dedup-rate-over-time signal an ingest pipeline
    monitors to detect crawler loops and saturating sources.

    Scale shape: per-block distinct (fp, batch, count) partials (the
    fingerprint is pandas' stable 64-bit siphash of the text — only its
    EQUALITY structure matters, which is text equality, matching the SQL
    twin's md5), ONE keyed exchange on the fingerprint, per-partition
    first-batch flagging off segment boundaries, then a per-batch sum
    fold through fold_sum_by_keys (batch count scales with the corpus).
    The raw text is read once and never leaves the first map."""
    import pandas as pd

    from ..stages.keyed import fold_sum_by_keys

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks())
        txt = t["text"].combine_chunks().to_pandas().to_numpy(dtype=object)
        fp = pd.util.hash_array(txt, categorize=True).view(np.int64)
        batch = (ids // NOVELTY_BATCH).astype(np.int64)
        u, cnt = np.unique(np.stack([fp, batch]), axis=1, return_counts=True)
        return pa.table(
            {
                "fp": pa.array(u[0], pa.int64()),
                "batch": pa.array(u[1], pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def per_fp(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "batch": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_novel": pa.array([], pa.int64()),
                }
            )
        fp = np.asarray(t["fp"].combine_chunks())
        batch = np.asarray(t["batch"].combine_chunks())
        cnt = np.asarray(t["cnt"].combine_chunks())
        order = np.lexsort((batch, fp))
        fp, batch, cnt = fp[order], batch[order], cnt[order]
        # fold duplicate (fp, batch) rows from different input blocks
        head = np.concatenate(
            ([True], (fp[1:] != fp[:-1]) | (batch[1:] != batch[:-1]))
        )
        starts = np.flatnonzero(head)
        fp, batch = fp[starts], batch[starts]
        cnt = np.add.reduceat(cnt, starts)
        # first batch per fp = segment head (batch ascending within fp)
        fp_head = np.concatenate(([True], fp[1:] != fp[:-1]))
        first_batch = batch[np.maximum.accumulate(
            np.where(fp_head, np.arange(len(fp)), 0)
        )]
        novel = np.where(batch == first_batch, cnt, 0)
        # pre-fold by batch within the partition (small output)
        b_u, inv = np.unique(batch, return_inverse=True)
        return pa.table(
            {
                "batch": pa.array(b_u, pa.int64()),
                "n_docs": pa.array(np.bincount(inv, weights=cnt).astype(np.int64), pa.int64()),
                "n_novel": pa.array(np.bincount(inv, weights=novel).astype(np.int64), pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    per_batch = fold_sum_by_keys(
        map_partitions_by_key(partials, "fp", per_fp, num_parts=NUM_PARTS),
        ["batch"],
        ["n_docs", "n_novel"],
        num_parts=NUM_PARTS,
    )

    def rate(t: pa.Table) -> pa.Table:
        nd = np.asarray(t["n_docs"].combine_chunks()).astype(np.float64)
        nn = np.asarray(t["n_novel"].combine_chunks()).astype(np.float64)
        return t.append_column(
            "novelty_rate",
            pa.array(round6(nn / nd), pa.float64()),
        )

    return per_batch.map_batches(rate, batch_format="pyarrow", zero_copy_batch=True)


DOCS_NOVELTY_SQL = f"""
WITH f AS (
    SELECT doc_id, doc_id // {NOVELTY_BATCH} AS batch, md5(text) AS fp
    FROM documents
),
fb AS (SELECT fp, min(batch) AS first_batch FROM f GROUP BY fp)
SELECT f.batch AS batch,
       count(*)::BIGINT AS n_docs,
       sum(CASE WHEN f.batch = fb.first_batch THEN 1 ELSE 0 END)::BIGINT
           AS n_novel,
       ROUND(sum(CASE WHEN f.batch = fb.first_batch THEN 1 ELSE 0 END)
             * 1.0 / count(*), 6) AS novelty_rate
FROM f JOIN fb USING (fp)
GROUP BY 1
"""


JACCARD_THRESHOLD = 0.5


def q_docs_minhash_pairs(sf_dir: str):
    """MinHash(64) + LSH(16 bands x 4 rows) near-duplicate pairs, verified
    by exact shingle Jaccard >= 0.5. Oracle-checked end to end: the md5+splitmix hash basis gives the
    whole pipeline (shingles → signatures → bands → truncated buckets →
    verified pairs) a generated DuckDB twin (DOCS_MINHASH_SQL). Fully distributed (VERDICT r1 §next-2): signatures per
    batch → bucket-partitioned vectorized pair expansion → pair-keyed
    global dedup → doc_id cogroup with per-doc shingle sets → pair-keyed
    exact Jaccard. No stage holds more than one hash partition."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    bands = ds.map_batches(
        minhash_band_table, batch_format="pyarrow", zero_copy_batch=True
    )
    cand = map_partitions_by_key(
        bands, "bkey", lsh_partition_pairs, num_parts=NUM_PARTS
    )
    # side-tagged refs straight off the bucket partitions: duplicate pairs
    # from multiple buckets collapse in the distinct counts of
    # pair_jaccard, so no pair-dedup shuffle is needed
    refs = cand.map_batches(pair_refs, batch_format="pyarrow", zero_copy_batch=True)
    shingles = ds.map_batches(
        shingle_table, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = cogroup_by_key(
        refs, shingles, "doc_id", attach_shingles, num_parts=NUM_PARTS
    )
    return map_partitions_by_key(
        joined,
        "pair",
        lambda t: pair_jaccard(t, JACCARD_THRESHOLD),
        num_parts=NUM_PARTS,
    )


NEW_DOC_MOD = 10  # synthetic daily increment: doc_id % 10 == 0 is "new"


def q_docs_incremental_neardup(sf_dir: str):
    """Incremental near-dup: verify ONLY candidate pairs that touch a NEW
    document (synthesized deterministically as ``doc_id % 10 == 0`` — the
    daily increment arriving against the historical corpus). The LSH
    bucket stage uses the new-first expansion kernel
    (stages/dedup.lsh_partition_pairs_incremental), so per-bucket work is
    O(n_new x bucket) instead of O(bucket^2) — at a 100 TB corpus with a
    ~1% daily increment this is the difference between re-verifying the
    whole lake's pair set and touching only increment-adjacent pairs.
    Signatures for old docs are recomputed here only because the oracle
    needs a closed form; a production run persists the (bkey, doc_id)
    band index as Parquet and unions the increment's bands against it
    (same downstream stages)."""
    from ..stages.dedup import lsh_partition_pairs_incremental

    def flag_new(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks())
        return t.append_column(
            "is_new", pa.array((ids % NEW_DOC_MOD == 0).astype(np.int8))
        )

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    bands = ds.map_batches(
        minhash_band_table, batch_format="pyarrow", zero_copy_batch=True
    )
    flagged = bands.map_batches(
        flag_new, batch_format="pyarrow", zero_copy_batch=True
    )
    cand = map_partitions_by_key(
        flagged, "bkey", lsh_partition_pairs_incremental, num_parts=NUM_PARTS
    )
    refs = cand.map_batches(pair_refs, batch_format="pyarrow", zero_copy_batch=True)
    shingles = ds.map_batches(
        shingle_table, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = cogroup_by_key(
        refs, shingles, "doc_id", attach_shingles, num_parts=NUM_PARTS
    )
    return map_partitions_by_key(
        joined,
        "pair",
        lambda t: pair_jaccard(t, JACCARD_THRESHOLD),
        num_parts=NUM_PARTS,
    )


def _sm_cte(prev: str, in_expr: str, out: str, tag: str) -> tuple[str, str]:
    """CTE chain computing ``out = splitmix64(in_expr mod 2^64)`` from
    relation ``prev`` — linear (6 CTEs), no expression blow-up, exact
    uint64 semantics over HUGEINT (wrapping multiply via 32-bit limbs,
    see queries_relational._mul64_sql)."""
    from .queries_relational import _M64, _SM_C1, _SM_C2, _SM_GOLD, _mul64_sql

    a, b, c, d, e = (f"__{tag}{x}" for x in "abcde")
    frag = f"""
{tag}_1 AS (SELECT *, ((({in_expr}) + {_SM_GOLD}) % {_M64}) AS {a} FROM {prev}),
{tag}_2 AS (SELECT *, xor({a}, {a} >> 30) AS {b} FROM {tag}_1),
{tag}_3 AS (SELECT *, {_mul64_sql(b, _SM_C1)} AS {c} FROM {tag}_2),
{tag}_4 AS (SELECT *, xor({c}, {c} >> 27) AS {d} FROM {tag}_3),
{tag}_5 AS (SELECT *, {_mul64_sql(d, _SM_C2)} AS {e} FROM {tag}_4),
{tag}_6 AS (SELECT *, xor({e}, {e} >> 31) AS {out} FROM {tag}_5)"""
    return frag, f"{tag}_6"


def _minhash_sql() -> str:
    """Generated exact DuckDB twin of the FULL MinHash+LSH near-dup
    pipeline: md5-lower-64 token hashes → splitmix64 k-gram shingles →
    64-perm minhash (MIN over salted splitmix) → 16 banded bucket keys
    (chained splitmix) → per-bucket truncation at 64 docs (row_number
    by doc_id — deterministic because the Ray side co-locates each
    bucket in one partition) → distinct candidate pairs → exact shingle
    Jaccard >= threshold. ~70 linear CTEs; every 64-bit op mirrors the
    numpy kernels bit for bit."""
    from ..stages.dedup import _SALTS, N_PERMS

    parts: list[str] = [
        """tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
shw0 AS (
    SELECT doc_id, unnest(generate_series(1, len(ts) - 2)) AS i, ts
    FROM tok WHERE len(ts) >= 3
),
shw AS (
    SELECT doc_id,
           md5_number_lower(ts[i])::HUGEINT AS h0,
           md5_number_lower(ts[i + 1])::HUGEINT AS h1,
           md5_number_lower(ts[i + 2])::HUGEINT AS h2
    FROM shw0
)"""
    ]
    frag, prev = _sm_cte("shw", "h0", "s1", "g1")
    parts.append(frag)
    frag, prev = _sm_cte(prev, "h1 + 1", "t1", "g2")
    parts.append(frag)
    frag, prev = _sm_cte(prev, "xor(s1, t1)", "s2", "g3")
    parts.append(frag)
    frag, prev = _sm_cte(prev, "h2 + 2", "t2", "g4")
    parts.append(frag)
    frag, prev = _sm_cte(prev, "xor(s2, t2)", "shh", "g5")
    parts.append(frag)
    parts.append(f"shingles AS (SELECT doc_id, shh AS sh FROM {prev})")
    salts = ", ".join(
        f"({i + 1}, {int(_SALTS[i])}::HUGEINT)" for i in range(N_PERMS)
    )
    parts.append(f"salts(perm, salt) AS (VALUES {salts})")
    parts.append(
        "pm AS (SELECT doc_id, sh, perm, salt FROM shingles CROSS JOIN salts)"
    )
    frag, prev = _sm_cte("pm", "xor(sh, salt)", "ph", "g6")
    parts.append(frag)
    parts.append(
        f"mins AS (SELECT doc_id, perm, MIN(ph) AS mh FROM {prev} "
        "GROUP BY doc_id, perm)"
    )
    parts.append(
        "sig AS (SELECT doc_id, list(mh ORDER BY perm) AS arr "
        "FROM mins GROUP BY doc_id)"
    )
    parts.append(
        "bx AS (SELECT doc_id, arr, unnest(generate_series(0, 15)) AS band "
        "FROM sig)"
    )
    parts.append(
        "bs0 AS (SELECT doc_id, arr, band, (band + 1)::HUGEINT AS acc0 FROM bx)"
    )
    prev = "bs0"
    for r in range(4):
        frag, prev = _sm_cte(
            prev, f"xor(acc{r}, arr[4 * band + {r} + 1])", f"acc{r + 1}", f"g7{r}"
        )
        parts.append(frag)
    parts.append(f"bands AS (SELECT doc_id, acc4 AS bkey FROM {prev})")
    parts.append(
        """bd AS (SELECT DISTINCT bkey, doc_id FROM bands),
bt AS (SELECT bkey, doc_id,
              row_number() OVER (PARTITION BY bkey ORDER BY doc_id) AS rn
       FROM bd),
cand AS (
    SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
    FROM bt a JOIN bt b ON a.bkey = b.bkey AND a.doc_id < b.doc_id
    WHERE a.rn <= 64 AND b.rn <= 64
),
ssets AS (SELECT DISTINCT doc_id, sh FROM shingles),
ssz AS (SELECT doc_id, count(*) AS n FROM ssets GROUP BY 1),
isect AS (
    SELECT cd.da, cd.db, count(*) AS cc
    FROM cand cd
    JOIN ssets x ON x.doc_id = cd.da
    JOIN ssets y ON y.doc_id = cd.db AND y.sh = x.sh
    GROUP BY cd.da, cd.db
)"""
    )
    final = f"""
SELECT i.da AS doc_a, i.db AS doc_b,
       ROUND(i.cc * 1.0 / (sa.n + sb.n - i.cc), 6) AS jaccard
FROM isect i
JOIN ssz sa ON sa.doc_id = i.da
JOIN ssz sb ON sb.doc_id = i.db
WHERE ROUND(i.cc * 1.0 / (sa.n + sb.n - i.cc), 6) >= {JACCARD_THRESHOLD}
"""
    return "WITH " + ",".join(parts) + final


def _minhash_cte_chain() -> str:
    """The MinHash pipeline as an extendable CTE chain ending in a
    ``nearpairs(doc_a, doc_b, jaccard)`` relation — lets downstream
    oracles (connected-components clustering) build on the exact same
    verified pair set without duplicating the generator."""
    sql = _minhash_sql()
    head, final = sql[len("WITH "):].rsplit("\nSELECT", 1)
    return head + ",\nnearpairs AS (SELECT" + final + ")"


DOCS_MINHASH_SQL = _minhash_sql()

_BT_CAND_FULL = """bt AS (SELECT bkey, doc_id,
              row_number() OVER (PARTITION BY bkey ORDER BY doc_id) AS rn
       FROM bd),
cand AS (
    SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
    FROM bt a JOIN bt b ON a.bkey = b.bkey AND a.doc_id < b.doc_id
    WHERE a.rn <= 64 AND b.rn <= 64
)"""

_BT_CAND_INCR = f"""bt AS (SELECT bkey, doc_id, (doc_id % {NEW_DOC_MOD} = 0) AS is_new,
              row_number() OVER (PARTITION BY bkey
                  ORDER BY (doc_id % {NEW_DOC_MOD} = 0) DESC, doc_id) AS rn
       FROM bd),
cand AS (
    SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
    FROM bt a JOIN bt b ON a.bkey = b.bkey AND a.doc_id < b.doc_id
    WHERE a.rn <= 64 AND b.rn <= 64 AND (a.is_new OR b.is_new)
)"""


def _minhash_incremental_sql() -> str:
    """Twin of q_docs_incremental_neardup: the full generated MinHash
    chain with the bucket-truncation/candidate block swapped for the
    new-first ordering + at-least-one-new filter."""
    sql = _minhash_sql()
    assert _BT_CAND_FULL in sql, "minhash SQL generator drifted"
    return sql.replace(_BT_CAND_FULL, _BT_CAND_INCR)


DOCS_INCREMENTAL_NEARDUP_SQL = _minhash_incremental_sql()


def q_docs_simhash(sf_dir: str):
    """64-bit SimHash signature per document (hex string) + 4x16-bit
    chunk keys for banded near-dup lookup. Token-hash basis is
    md5-lower-64 (DuckDB ``md5_number_lower`` parity) so the whole
    operator has an exact generated-SQL twin — the bit-vote kernel
    itself is hash-agnostic."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        sh, offsets = T.token_hashes_md5(t["text"].combine_chunks())
        sig = simhash64(sh, offsets)
        chunks = {
            f"band{b}": pa.array(
                ((sig >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int32)
            )
            for b in range(4)
        }
        hexes = np.array([format(s, "016x") for s in sig], dtype=object)
        return pa.table(
            {"doc_id": t["doc_id"], "simhash": pa.array(hexes, pa.string()), **chunks}
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _simhash_sql() -> str:
    """Generated exact DuckDB twin of q_docs_simhash: per-token
    md5_number_lower, 64 per-bit vote sums, majority → bit assembly as
    UBIGINT, hex + 16-bit band extraction. Verbose (64 aggregates) but
    pure ANSI-ish SQL — it exists so the driver's value-hash gate covers
    SimHash instead of a rows-only check."""
    bits_sum = ", ".join(
        f"SUM(((th >> {b}) & 1)::BIGINT) AS b{b}" for b in range(64)
    )
    terms = " + ".join(
        f"(CASE WHEN 2 * b{b} > n THEN {1 << b} ELSE 0 END)::HUGEINT"
        for b in range(64)
    )
    bands = ", ".join(
        f"((sig >> {16 * b}) & 65535)::INTEGER AS band{b}" for b in range(4)
    )
    return f"""
WITH tok AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
),
h AS (SELECT doc_id, md5_number_lower(t) AS th FROM tok),
votes AS (SELECT doc_id, count(*) AS n, {bits_sum} FROM h GROUP BY doc_id),
sig AS (SELECT doc_id, ({terms})::UBIGINT AS sig FROM votes)
SELECT doc_id, lpad(lower(to_hex(sig)), 16, '0') AS simhash, {bands} FROM sig
"""


DOCS_SIMHASH_SQL = _simhash_sql()


# --------------------------------------------------------------------------
# SimHash near-dup PAIRS: band blocking + exact Hamming verify
# --------------------------------------------------------------------------

SIMHASH_HAM_MAX = 3


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR; numpy<2 has no bitwise_count)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(
        np.int64
    )


def q_docs_simhash_pairs(sf_dir: str):
    """End-to-end SimHash near-dup detection: 64-bit signatures, 4×16-bit
    band blocking (any equal band → candidate, the standard ≤3-bit
    Hamming guarantee: 4 bands, ≤3 flipped bits leave ≥1 band intact, so
    recall is EXACT at this radius — no probabilistic miss), then exact
    Hamming verify ≤ {SIMHASH_HAM_MAX}.

    Scale shape: one keyed exchange on (band#, band value) — signatures
    ride the band rows, candidate pairs expand segment-vectorized per
    whole hash partition and are Hamming-checked in the same pass (only
    surviving pairs leave the partition), then one pair-keyed exchange
    dedups pairs found by multiple bands. No all-pairs stage anywhere."""
    from ..stages.dedup import pack_pairs, unpack_pairs

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def band_rows(t: pa.Table) -> pa.Table:
        sh, offsets = T.token_hashes_md5(t["text"].combine_chunks())
        sig = simhash64(sh, offsets)
        ids = np.asarray(t["doc_id"].combine_chunks()).astype(np.int64)
        bkeys, docs, sigs = [], [], []
        for b in range(4):
            band = ((sig >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                np.int64
            )
            bkeys.append((np.int64(b) << np.int64(16)) | band)
            docs.append(ids)
            sigs.append(sig.view(np.int64))
        return pa.table(
            {
                "bkey": pa.array(np.concatenate(bkeys)),
                "doc_id": pa.array(np.concatenate(docs)),
                "sig": pa.array(np.concatenate(sigs)),
            }
        )

    rows = ds.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pairs(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "pair": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        if part.num_rows == 0:
            return empty
        bk = np.asarray(part["bkey"].combine_chunks())
        d = np.asarray(part["doc_id"].combine_chunks())
        s = np.asarray(part["sig"].combine_chunks())
        order = np.lexsort((d, bk))
        bk, d, s = bk[order], d[order], s[order]
        n = len(bk)
        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        np.not_equal(bk[1:], bk[:-1], out=seg_start[1:])
        seg_id = np.cumsum(seg_start) - 1
        arange = np.arange(n, dtype=np.int64)
        seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
        cnt = np.bincount(seg_id)[seg_id] - 1 - (arange - seg_first)
        total = int(cnt.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(arange, cnt)
        row_start = np.cumsum(cnt) - cnt
        b_idx = a_idx + 1 + (np.arange(total, dtype=np.int64)
                             - np.repeat(row_start, cnt))
        ham = _popcount64(
            s[a_idx].view(np.uint64) ^ s[b_idx].view(np.uint64)
        )
        keep = ham <= SIMHASH_HAM_MAX
        if not keep.any():
            return empty
        return pa.table(
            {
                "pair": pa.array(pack_pairs(d[a_idx][keep], d[b_idx][keep])),
                "hamming": pa.array(ham[keep], pa.int64()),
            }
        )

    cand = map_partitions_by_key(rows, "bkey", bucket_pairs, num_parts=NUM_PARTS)

    def dedup_pairs(part: pa.Table) -> pa.Table:
        p = np.asarray(part["pair"].combine_chunks())
        h = np.asarray(part["hamming"].combine_chunks())
        order = np.argsort(p)
        p, h = p[order], h[order]
        first = np.concatenate(([True], p[1:] != p[:-1]))
        a, b = unpack_pairs(p[first])
        return pa.table(
            {
                "doc_a": pa.array(a, pa.int64()),
                "doc_b": pa.array(b, pa.int64()),
                "hamming": pa.array(h[first], pa.int64()),
            }
        )

    return map_partitions_by_key(cand, "pair", dedup_pairs, num_parts=NUM_PARTS)


def _simhash_pairs_sql() -> str:
    """Generated twin: the exact SimHash signature chain self-joined on
    band equality, Hamming via bit_count(xor) — identical blocking, so
    the pair sets agree exactly."""
    sql = _simhash_sql()
    head, final = sql[len("WITH "):].rsplit("\nSELECT", 1)
    chain = head + ",\nsigband AS (SELECT" + final + ")"
    return f"""
WITH {chain},
num AS (SELECT doc_id, sig, band0, band1, band2, band3
        FROM sigband JOIN sig USING (doc_id))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       bit_count(xor(a.sig, b.sig))::BIGINT AS hamming
FROM num a JOIN num b
  ON a.doc_id < b.doc_id
 AND (a.band0 = b.band0 OR a.band1 = b.band1
      OR a.band2 = b.band2 OR a.band3 = b.band3)
WHERE bit_count(xor(a.sig, b.sig)) <= {SIMHASH_HAM_MAX}
"""


DOCS_SIMHASH_PAIRS_SQL = _simhash_pairs_sql()


def q_docs_ngram_jaccard(sf_dir: str):
    """Exact n-gram (word-trigram) Jaccard similarity join, >= 0.5 pairs,
    via PPJoin-style prefix filtering (stages/ppjoin.py — round-3 verdict
    item #1, fused per round-4 §next-5): the shared ``gram_df_front``
    checkpoint (grams hashed IN the explode batch — strings never
    shuffled — one int-keyed df-attach exchange, materialized once for
    both consumers) → doc-keyed prefix selection (first
    n - ceil(t*n) + 1 grams in global rarest-first order) → gh-keyed
    posting-list expansion over PREFIX rows only → auto-routed exact
    verify (``verify_pairs``: broadcast counting when candidates fit,
    doc_id-cogroup fallback past the limit; the verify exchange moves
    only CANDIDATE docs' gram rows). A boilerplate gram with df=1e6
    never lands in a prefix, so the old C(df,2)-per-hot-gram wall is
    gone while the emitted pair set — and the unchanged DuckDB twin —
    stay value-exact (the filter provably loses no pair at t >= any
    threshold; see stages/ppjoin.py module docstring)."""
    from ..stages import ppjoin as P

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    dfd = P.gram_df_front(ds, num_parts=NUM_PARTS)
    # JACCARD_THRESHOLD = 0.5 = 1/2 — exact rational prefix cut
    pfx = map_partitions_by_key(
        dfd, "doc_id", lambda t: P.select_prefix(t, 1, 2),
        num_parts=NUM_PARTS,
    )
    cand = map_partitions_by_key(
        pfx, "gh", lambda t: P.expand_jaccard_pairs(t, 1, 2),
        num_parts=NUM_PARTS,
    )
    return P.verify_pairs(
        dfd, cand, "jaccard", JACCARD_THRESHOLD, "jaccard",
        num_parts=NUM_PARTS,
    )


DOCS_NGRAM_JACCARD_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
tri AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(
               generate_series(1, len(ts) - 2),
               i -> ts[i] || ' ' || ts[i + 1] || ' ' || ts[i + 2]
           )) AS g
    FROM tok
    WHERE len(ts) >= 3
),
sz AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY 1),
inter AS (
    SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
    FROM tri a JOIN tri b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT da AS doc_a, db AS doc_b,
       ROUND(c * 1.0 / (sa.n + sb.n - c), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = da
JOIN sz sb ON sb.doc_id = db
WHERE c * 1.0 / (sa.n + sb.n - c) >= {JACCARD_THRESHOLD}
"""


def q_docs_minhash_calibration(sf_dir: str):
    """MinHash estimator calibration: for every verified near-dup pair,
    the exact shingle Jaccard NEXT TO the MinHash signature estimate
    (fraction of the 64 components that agree) — the evaluation table
    that tells a curation team how much to trust the sketch before
    dropping the exact verify at full scale.

    Scale shape: reuses the distributed pair pipeline, then TWO doc/pair
    cogroups — (pairs x signatures) by doc_id, agreement fold by pair —
    both vectorized searchsorted gathers; the verified pair set is
    materialized once (it is the reduced output relation, bounded by the
    true near-dup count) because it feeds both the refs and the final
    jaccard merge."""
    from ..stages.dedup import (
        N_PERMS,
        minhash_signatures,
        pack_pairs,
        shingle_hashes_md5,
        unpack_pairs,
    )
    from ..stages.keyed import cogroup_by_key

    pairs = q_docs_minhash_pairs(sf_dir).materialize()

    def to_refs(t: pa.Table) -> pa.Table:
        a = np.asarray(t["doc_a"].combine_chunks())
        b = np.asarray(t["doc_b"].combine_chunks())
        pr = pack_pairs(a, b)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, b]), pa.int64()),
                "pair": pa.array(np.concatenate([pr, pr]), pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(a), np.int8), np.ones(len(b), np.int8)]
                    ),
                    pa.int8(),
                ),
            }
        )

    refs = pairs.map_batches(
        to_refs, batch_format="pyarrow", zero_copy_batch=True
    )

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def sig_rows(t: pa.Table) -> pa.Table:
        sh, offsets = shingle_hashes_md5(t["text"])
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        sig = minhash_signatures(sh, offsets)  # (n, 64) uint64
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, N_PERMS), pa.int64()),
                "perm": pa.array(
                    np.tile(np.arange(N_PERMS, dtype=np.int64), len(ids)),
                    pa.int64(),
                ),
                "mh": pa.array(sig.reshape(-1).view(np.int64), pa.int64()),
            }
        )

    sigs = ds.map_batches(sig_rows, batch_format="pyarrow", zero_copy_batch=True)

    _REFS_SCHEMA = pa.schema(
        [("doc_id", pa.int64()), ("pair", pa.int64()), ("side", pa.int8())]
    )
    _SIGS_SCHEMA = pa.schema(
        [("doc_id", pa.int64()), ("perm", pa.int64()), ("mh", pa.int64())]
    )

    def attach(r: pa.Table, s: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "pair": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                "perm": pa.array([], pa.int64()),
                "mh": pa.array([], pa.int64()),
            }
        )
        if r.num_rows == 0 or s.num_rows == 0:
            return empty
        rdoc = np.asarray(r["doc_id"].combine_chunks())
        rpair = np.asarray(r["pair"].combine_chunks())
        rside = np.asarray(r["side"].combine_chunks())
        sdoc = np.asarray(s["doc_id"].combine_chunks())
        sperm = np.asarray(s["perm"].combine_chunks())
        smh = np.asarray(s["mh"].combine_chunks())
        order = np.argsort(sdoc, kind="stable")
        sdoc, sperm, smh = sdoc[order], sperm[order], smh[order]
        lo = np.searchsorted(sdoc, rdoc, side="left")
        hi = np.searchsorted(sdoc, rdoc, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        row_start = np.cumsum(cnt) - cnt
        idx = np.repeat(lo, cnt) + (
            np.arange(total, dtype=np.int64) - np.repeat(row_start, cnt)
        )
        return pa.table(
            {
                "pair": pa.array(np.repeat(rpair, cnt), pa.int64()),
                "side": pa.array(np.repeat(rside, cnt), pa.int8()),
                "perm": pa.array(sperm[idx], pa.int64()),
                "mh": pa.array(smh[idx], pa.int64()),
            }
        )

    joined = cogroup_by_key(
        refs,
        sigs,
        "doc_id",
        attach,
        num_parts=NUM_PARTS,
        left_schema=_REFS_SCHEMA,
        right_schema=_SIGS_SCHEMA,
    )

    def est_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "pair": pa.array([], pa.int64()),
                "eq": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        pair = np.asarray(t["pair"].combine_chunks())
        side = np.asarray(t["side"].combine_chunks())
        perm = np.asarray(t["perm"].combine_chunks())
        mh = np.asarray(t["mh"].combine_chunks())
        order = np.lexsort((side, perm, pair))
        pair, side, mh = pair[order], side[order], mh[order]
        # exactly two rows (side 0, side 1) per (pair, perm): docs in a
        # verified pair always carry all 64 signature components
        assert len(pair) % 2 == 0 and (side[::2] == 0).all()
        eq = (mh[::2] == mh[1::2]).astype(np.int64)
        p2 = pair[::2]
        head = np.concatenate(([True], p2[1:] != p2[:-1]))
        return pa.table(
            {
                "pair": pa.array(p2[head], pa.int64()),
                "eq": pa.array(
                    np.add.reduceat(eq, np.flatnonzero(head)), pa.int64()
                ),
            }
        )

    est = map_partitions_by_key(joined, "pair", est_part, num_parts=NUM_PARTS)

    def pj(t: pa.Table) -> pa.Table:
        a = np.asarray(t["doc_a"].combine_chunks())
        b = np.asarray(t["doc_b"].combine_chunks())
        return pa.table(
            {
                "pair": pa.array(pack_pairs(a, b), pa.int64()),
                "jaccard": t["jaccard"].combine_chunks(),
            }
        )

    pair_jac = pairs.map_batches(pj, batch_format="pyarrow", zero_copy_batch=True)

    _EST_SCHEMA = pa.schema([("pair", pa.int64()), ("eq", pa.int64())])
    _PJ_SCHEMA = pa.schema([("pair", pa.int64()), ("jaccard", pa.float64())])

    def merge(e: pa.Table, p: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
                "minhash_est": pa.array([], pa.float64()),
            }
        )
        if e.num_rows == 0 or p.num_rows == 0:
            return empty
        ep = np.asarray(e["pair"].combine_chunks())
        eq = np.asarray(e["eq"].combine_chunks())
        pp = np.asarray(p["pair"].combine_chunks())
        jac = np.asarray(p["jaccard"].combine_chunks())
        order = np.argsort(pp, kind="stable")
        pp, jac = pp[order], jac[order]
        pos = np.searchsorted(pp, ep)
        a, b = unpack_pairs(ep)
        return pa.table(
            {
                "doc_a": pa.array(a, pa.int64()),
                "doc_b": pa.array(b, pa.int64()),
                "jaccard": pa.array(jac[pos], pa.float64()),
                "minhash_est": pc.round(
                    pa.array(eq / 64.0, pa.float64()),
                    ndigits=6,
                    round_mode="half_towards_infinity",
                ),
            }
        )

    return cogroup_by_key(
        est,
        pair_jac,
        "pair",
        merge,
        num_parts=NUM_PARTS,
        left_schema=_EST_SCHEMA,
        right_schema=_PJ_SCHEMA,
    )


def _minhash_calibration_sql() -> str:
    return f"""
WITH {_minhash_cte_chain()},
agree AS (
    SELECT np.doc_a, np.doc_b, np.jaccard,
           sum(CASE WHEN a.mh = b.mh THEN 1 ELSE 0 END)::BIGINT AS eq
    FROM nearpairs np
    JOIN mins a ON a.doc_id = np.doc_a
    JOIN mins b ON b.doc_id = np.doc_b AND b.perm = a.perm
    GROUP BY 1, 2, 3
)
SELECT doc_a, doc_b, jaccard, ROUND(eq / 64.0, 6) AS minhash_est
FROM agree
"""


CONTAINMENT_THRESHOLD = 0.7


def q_docs_containment_pairs(sf_dir: str):
    """Asymmetric n-gram containment join: pairs where the SMALLER
    document's trigram set is >= 70% contained in the other
    (``|A∩B| / min(|A|,|B|)``) — catches partial copies and
    quote-expansions that symmetric Jaccard misses (a doc pasted inside
    a 10x-longer one has Jaccard ~0.1 but containment ~1.0). The 6th
    dedup family next to exact / MinHash / SimHash / Jaccard / fuzzy.

    Scale shape: prefix-filtered like docs_ngram_jaccard over the same
    shared ``gram_df_front`` checkpoint (strings hashed in-batch, one
    int-keyed df exchange, materialized once), but the containment
    bound is one-sided (overlap >= t * min(|A|,|B|) only constrains the
    SMALLER set), so candidates come from (prefix-of-smaller x full
    posting list) — worst case per gram is (#prefix rows) x df, never
    C(df,2). Verified exactly through the auto-routed ``verify_pairs``
    (broadcast counting / cogroup fallback)."""
    from ..stages import ppjoin as P

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    dfd = P.gram_df_front(ds, num_parts=NUM_PARTS)
    # CONTAINMENT_THRESHOLD = 0.7 = 7/10 — exact rational prefix cut
    flagged = map_partitions_by_key(
        dfd, "doc_id", lambda t: P.select_prefix_flagged(t, 7, 10),
        num_parts=NUM_PARTS,
    )
    cand = map_partitions_by_key(
        flagged, "gh", lambda t: P.expand_smallside_pairs(t, 7, 10),
        num_parts=NUM_PARTS,
    )
    return P.verify_pairs(
        dfd, cand, "containment", CONTAINMENT_THRESHOLD, "containment",
        num_parts=NUM_PARTS,
    )


DOCS_CONTAINMENT_SQL = f"""
WITH tok AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
tri AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(
               generate_series(1, len(ts) - 2),
               i -> ts[i] || ' ' || ts[i + 1] || ' ' || ts[i + 2]
           )) AS g
    FROM tok
    WHERE len(ts) >= 3
),
sz AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY 1),
inter AS (
    SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
    FROM tri a JOIN tri b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT da AS doc_a, db AS doc_b,
       ROUND(c * 1.0 / LEAST(sa.n, sb.n), 6) AS containment
FROM inter
JOIN sz sa ON sa.doc_id = da
JOIN sz sb ON sb.doc_id = db
WHERE ROUND(c * 1.0 / LEAST(sa.n, sb.n), 6) >= {CONTAINMENT_THRESHOLD}
"""


# --------------------------------------------------------------------------
# Near-dup clustering: connected components over verified pairs
# --------------------------------------------------------------------------

def q_docs_dup_clusters(sf_dir: str):
    """Connected components over the verified MinHash near-dup pair
    graph: every document that appears in a >= threshold pair gets a
    ``cluster_id`` = the smallest doc_id in its component (the canonical
    keep-one representative for cluster-level dedup).

    The CC core (stages/graph.py) is hash-to-min label propagation with
    a vectorized per-partition local closure: a handful of rounds at two
    keyed exchanges each, edge set materialized once, only the small
    labels relation per round. An edge set of one block is labelled in
    one task with no rounds."""
    from ..stages.graph import connected_components

    pairs = q_docs_minhash_pairs(sf_dir)
    labels = connected_components(pairs, num_parts=NUM_PARTS)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["node"], "cluster_id": t["rep"]})

    return labels.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def _dup_clusters_sql() -> str:
    """Generated twin: the exact MinHash CTE chain (nearpairs) extended
    with a recursive transitive closure; cluster id = LEAST(node, min
    reachable node)."""
    return f"""
WITH RECURSIVE {_minhash_cte_chain()},
und AS (
    SELECT doc_a AS a, doc_b AS b FROM nearpairs
    UNION SELECT doc_b, doc_a FROM nearpairs
),
reach(a, b) AS (
    SELECT a, b FROM und
    UNION
    SELECT r.a, u.b FROM reach r JOIN und u ON r.b = u.a
)
SELECT a AS doc_id, LEAST(a, MIN(b))::BIGINT AS cluster_id
FROM reach GROUP BY a
"""


DOCS_DUP_CLUSTERS_SQL = _dup_clusters_sql()


def q_docs_dup_cluster_sizes(sf_dir: str):
    """Dedup observability: the histogram of near-dup cluster sizes
    (how many clusters of 2 docs, of 3, ...) — the first diagram a
    curation run reports, and the input to "expected rows removed"
    estimates. Runs on the CC labels: one exact keyed fold counts each
    cluster's members (cluster count scales with data → fold_by_keys,
    not Dataset.groupby), then per-batch histogram partials collapse to
    O(distinct sizes) rows."""
    from ray.data.aggregate import Sum

    from ..stages.keyed import fold_by_keys

    labels = q_docs_dup_clusters(sf_dir)

    def one_col(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "cluster_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "cluster_id": t["cluster_id"].combine_chunks().cast(pa.int64()),
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64), pa.int64()),
            }
        )

    sizes = fold_by_keys(
        labels.map_batches(one_col, batch_format="pyarrow", zero_copy_batch=True),
        ["cluster_id"],
        sums=("one",),
        num_parts=NUM_PARTS,
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"size": pa.array([], pa.int64()), "pn": pa.array([], pa.int64())}
            )
        s = np.asarray(t["one"].combine_chunks())
        u, c = np.unique(s, return_counts=True)
        return pa.table(
            {
                "size": pa.array(u, pa.int64()),
                "pn": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    out = (
        sizes.map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("size")
        .aggregate(Sum("pn", alias_name="n_clusters"))
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "size": t["size"].combine_chunks().cast(pa.int64()),
                "n_clusters": t["n_clusters"].combine_chunks().cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _dup_cluster_sizes_sql() -> str:
    return f"""
WITH labels AS ({_dup_clusters_sql().strip()})
SELECT CAST(sz AS BIGINT) AS size, CAST(count(*) AS BIGINT) AS n_clusters
FROM (SELECT cluster_id, count(*) AS sz FROM labels GROUP BY 1)
GROUP BY 1
"""


def q_docs_soft_dedup_weights(sf_dir: str):
    """SoftDeDup: instead of DROPPING near-duplicates, keep every
    document and downweight cluster members by ``1 / cluster_size``
    (so each duplicated content unit contributes ~one document of
    training loss). Docs outside any near-dup pair keep weight 1.

    Scale shape on top of the CC labels: one exact keyed member-count
    fold (cluster count scales with data), one cogroup that routes each
    labeled doc to its cluster partition for the weight, then a streamed
    left-union with the unlabeled remainder — no driver materialization
    of doc rows."""
    from ..stages.keyed import cogroup_by_key, fold_by_keys

    labels = q_docs_dup_clusters(sf_dir)

    def one_col(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "cluster_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "cluster_id": t["cluster_id"].combine_chunks().cast(pa.int64()),
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64), pa.int64()),
            }
        )

    sizes = fold_by_keys(
        labels.map_batches(one_col, batch_format="pyarrow", zero_copy_batch=True),
        ["cluster_id"],
        sums=("one",),
        num_parts=NUM_PARTS,
    )

    def weight_part(lab: pa.Table, sz: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "weight": pa.array([], pa.float64())}
        )
        if lab.num_rows == 0:
            return empty
        cid = lab["cluster_id"].combine_chunks().cast(pa.int64())
        idx = pc.index_in(cid, value_set=sz["cluster_id"].combine_chunks())
        n = np.asarray(pc.take(sz["one"].combine_chunks(), idx))
        return pa.table(
            {
                "doc_id": lab["doc_id"].combine_chunks().cast(pa.int64()),
                "weight": pa.array(
                    round6(1.0 / n.astype(np.float64)), pa.float64()
                ),
            }
        )

    clustered = cogroup_by_key(
        labels, sizes, "cluster_id", weight_part, num_parts=NUM_PARTS
    )

    # unlabeled docs (not in any pair): weight 1 — anti-join via a second
    # cogroup on doc_id against the labeled ids
    docs = _docs(sf_dir, columns=["doc_id"])

    def rest_part(d: pa.Table, lab: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "weight": pa.array([], pa.float64())}
        )
        if d.num_rows == 0:
            return empty
        ids = d["doc_id"].combine_chunks().cast(pa.int64())
        seen = pc.is_in(ids, value_set=lab["doc_id"].combine_chunks().cast(pa.int64()))
        keep = pc.invert(seen)
        ids = pc.filter(ids, keep)
        return pa.table(
            {
                "doc_id": ids,
                "weight": pa.array(np.ones(len(ids)), pa.float64()),
            }
        )

    rest = cogroup_by_key(docs, labels, "doc_id", rest_part, num_parts=NUM_PARTS)
    return clustered.union(rest)


def _soft_dedup_sql() -> str:
    return f"""
WITH labels AS ({_dup_clusters_sql().strip()}),
sz AS (SELECT cluster_id, count(*) AS n FROM labels GROUP BY 1)
SELECT d.doc_id,
       ROUND(1.0 / coalesce(sz.n, 1), 6) AS weight
FROM documents d
LEFT JOIN labels l ON d.doc_id = l.doc_id
LEFT JOIN sz ON l.cluster_id = sz.cluster_id
"""


# --------------------------------------------------------------------------
# Cluster-level dedup, keep-BEST (not keep-first): the full curation path
# --------------------------------------------------------------------------


def q_docs_dedup_keep_best(sf_dir: str):
    """End-to-end near-dup dedup with a quality tiebreak: MinHash+LSH
    pairs → exact-Jaccard verify → connected components → keep, per
    cluster, the LONGEST document (ties: smallest doc_id). Docs outside
    any pair are their own cluster and survive.

    Scale shape on top of the CC labels: one cogroup routes each doc's
    (n_chars) to its label partition (docs without a label keep
    cluster = doc_id), then one keyed exchange on cluster_id with a
    segmented argmax per whole hash partition. No driver materialization
    anywhere — labels, docs and survivors all stream."""
    from ..stages.graph import connected_components
    from ..stages.keyed import cogroup_by_key

    labels = connected_components(
        q_docs_minhash_pairs(sf_dir), num_parts=NUM_PARTS
    ).map_batches(
        lambda t: pa.table({"doc_id": t["node"], "cluster_id": t["rep"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])

    def assign(dpart: pa.Table, lpart: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "cluster_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
            }
        )
        if dpart.num_rows == 0:
            return empty
        did = dpart["doc_id"].combine_chunks().cast(pa.int64())
        idx = pc.index_in(did, value_set=lpart["doc_id"].combine_chunks())
        cluster = pc.if_else(
            pc.is_null(idx),
            did,
            lpart["cluster_id"].combine_chunks().cast(pa.int64()).take(idx),
        )
        return pa.table(
            {
                "cluster_id": cluster,
                "doc_id": did,
                "n_chars": dpart["n_chars"].cast(pa.int64()),
            }
        )

    assigned = cogroup_by_key(docs, labels, "doc_id", assign, num_parts=NUM_PARTS)

    def keep_best(part: pa.Table) -> pa.Table:
        c = np.asarray(part["cluster_id"].combine_chunks())
        d = np.asarray(part["doc_id"].combine_chunks())
        n = np.asarray(part["n_chars"].combine_chunks())
        order = np.lexsort((d, -n, c))
        cs, ds_, ns = c[order], d[order], n[order]
        first = np.concatenate(([True], cs[1:] != cs[:-1]))
        return pa.table(
            {
                "cluster_id": pa.array(cs[first], pa.int64()),
                "doc_id": pa.array(ds_[first], pa.int64()),
                "n_chars": pa.array(ns[first], pa.int64()),
            }
        )

    from ..stages.keyed import map_partitions_by_key

    return map_partitions_by_key(
        assigned, "cluster_id", keep_best, num_parts=NUM_PARTS
    )


def _dedup_keep_best_sql() -> str:
    return f"""
WITH RECURSIVE {_minhash_cte_chain()},
und AS (
    SELECT doc_a AS a, doc_b AS b FROM nearpairs
    UNION SELECT doc_b, doc_a FROM nearpairs
),
reach(a, b) AS (
    SELECT a, b FROM und
    UNION
    SELECT r.a, u.b FROM reach r JOIN und u ON r.b = u.a
),
clusters AS (
    SELECT a AS doc_id, LEAST(a, MIN(b))::BIGINT AS cluster_id
    FROM reach GROUP BY a
),
lab AS (
    SELECT COALESCE(c.cluster_id, d.doc_id) AS cluster_id, d.doc_id, d.n_chars
    FROM documents d LEFT JOIN clusters c ON c.doc_id = d.doc_id
)
SELECT cluster_id, doc_id, n_chars FROM (
    SELECT *, row_number() OVER (
        PARTITION BY cluster_id ORDER BY n_chars DESC, doc_id) AS rn
    FROM lab
) WHERE rn = 1
"""


DOCS_DEDUP_KEEP_BEST_SQL = _dedup_keep_best_sql()


REGISTRY: dict[str, tuple] = {
    "docs_dup_clusters": (q_docs_dup_clusters, DOCS_DUP_CLUSTERS_SQL),
    "docs_dup_cluster_sizes": (q_docs_dup_cluster_sizes, _dup_cluster_sizes_sql()),
    "docs_soft_dedup_weights": (q_docs_soft_dedup_weights, _soft_dedup_sql()),
    "docs_dedup_keep_best": (q_docs_dedup_keep_best, DOCS_DEDUP_KEEP_BEST_SQL),
    "docs_exact_dedup": (q_docs_exact_dedup, DOCS_EXACT_DEDUP_SQL),
    "docs_ngram_jaccard": (q_docs_ngram_jaccard, DOCS_NGRAM_JACCARD_SQL),
    "docs_containment_pairs": (q_docs_containment_pairs, DOCS_CONTAINMENT_SQL),
    "docs_quality": (q_docs_quality, DOCS_QUALITY_SQL),
    "docs_quality_score_lr": (q_docs_quality_score_lr, DOCS_QUALITY_LR_SQL),
    "docs_gopher_filter": (q_docs_gopher_filter, DOCS_GOPHER_SQL),
    "docs_token_count": (q_docs_token_count, DOCS_TOKEN_COUNT_SQL),
    "docs_token_count_bpe": (q_docs_token_count_bpe, DOCS_TOKEN_COUNT_BPE_SQL),
    "docs_langid": (q_docs_langid, DOCS_LANGID_SQL),
    "docs_fingerprint": (q_docs_fingerprint, DOCS_FINGERPRINT_SQL),
    "docs_novelty_by_batch": (q_docs_novelty_by_batch, DOCS_NOVELTY_SQL),
    "docs_minhash_pairs": (q_docs_minhash_pairs, DOCS_MINHASH_SQL),
    "docs_incremental_neardup": (
        q_docs_incremental_neardup,
        DOCS_INCREMENTAL_NEARDUP_SQL,
    ),
    "docs_minhash_calibration": (
        q_docs_minhash_calibration,
        _minhash_calibration_sql(),
    ),
    "docs_simhash": (q_docs_simhash, DOCS_SIMHASH_SQL),
    "docs_simhash_pairs": (q_docs_simhash_pairs, DOCS_SIMHASH_PAIRS_SQL),
}
