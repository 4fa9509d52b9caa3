"""Round-5 operator additions, batch 2 (oracle-exact, DuckDB twins).

Transcript/behavioral curation + embedding-drift operators:

- ``conv_roleseq_dupes``    — behavioral-template dedup: conversations
  with identical role sequences (the conversation-level analog of exact
  text dedup — scripted/bot flows collapse to one template).
- ``conv_verbosity_trend``  — per-conversation OLS slope of turn text
  length over turn index (integer-exact sums, one float division).
- ``docs_len_outlier_mad``  — per-language robust length outliers:
  |n_chars − median| > 3·MAD with quantile_disc semantics, all-integer
  compares.
- ``events_type_user_jaccard`` — user-set Jaccard between event-type
  pairs via per-user type bitmasks → 2^|types| combo counts (the
  inclusion fold) — never a user-level pair join.
- ``embedding_label_centroid_shift`` — per-label L2 distance between
  the even- and odd-vec_id centroids (split-half drift): fixed-point
  integer sums per (label, parity, dim), exact big-int fold of squared
  numerators, ONE double conversion on each side so the twin matches
  bit for bit.

Reference provenance: extends the reference's per-entity aggregates
(spark_jobs/silver_and_gold.py:86-131) toward LLM-corpus curation and
embedding-drift monitoring per the north rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import round6
from ..sources.reads import read_parquet_sized
from ..sources.transcripts import (
    TRANSCRIPTS_SQL_CTE,
    read_events_as_transcripts,
)
from ..stages.keyed import fold_sum_by_keys, map_partitions_by_key

NUM_PARTS = None  # derived: stages/keyed.derive_num_parts


# ---------------------------------------------------------------------------
# conv_roleseq_dupes — behavioral-template dedup
# ---------------------------------------------------------------------------

def q_conv_roleseq_dupes(sf_dir: str):
    """Conversations whose ROLE SEQUENCE (turn-ordered, '>'-joined) is
    shared with at least one other conversation — scripted flows and
    bot loops surface as high-multiplicity templates even when their
    text differs. Two keyed exchanges: conv_id (build one sequence row
    per conv, (ts, event_id) order) then sequence-hash (group counts;
    hash collisions merge partitions, never groups — counts use the
    exact string)."""
    from ..stages.ppjoin import hash_grams
    from .queries import _conv_order

    ds = read_events_as_transcripts(sf_dir)

    def build_seq(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "seq": pa.array([], pa.string()),
             "sh": pa.array([], pa.int64())}
        )
        if tbl.num_rows == 0:
            return empty
        import pandas as pd

        order, k, _ts, _seg = _conv_order(tbl)
        conv = np.asarray(
            tbl["conv_id"].combine_chunks().take(pa.array(order)),
            dtype=object,
        )
        role = np.asarray(
            tbl["role"].combine_chunks().take(pa.array(order)), dtype=object
        )
        df = pd.DataFrame({"k": k, "conv": conv, "role": role})
        g = df.groupby("k", sort=True)
        seq = g["role"].agg(">".join)
        first_conv = g["conv"].first()
        seq_np = seq.to_numpy(object)
        return pa.table(
            {
                "conv_id": pa.array(first_conv.to_numpy(object), pa.string()),
                "seq": pa.array(seq_np, pa.string()),
                "sh": pa.array(
                    hash_grams(pa.array(seq_np, pa.string())), pa.int64()
                ),
            }
        )

    per_conv = map_partitions_by_key(ds, "conv_id", build_seq,
                                     num_parts=NUM_PARTS)

    def flags(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "seq_len": pa.array([], pa.int64()),
             "n_convs_same_seq": pa.array([], pa.int64()),
             "is_template_dup": pa.array([], pa.int64())}
        )
        if part.num_rows == 0:
            return empty
        import pandas as pd

        seq = np.asarray(part["seq"].combine_chunks(), dtype=object)
        conv = np.asarray(part["conv_id"].combine_chunks(), dtype=object)
        inv, _u = pd.factorize(seq)
        cnt = np.bincount(inv)
        n_turns = (
            np.asarray(
                pc.utf8_length(
                    pc.replace_substring_regex(
                        part["seq"].combine_chunks(), pattern="[^>]", replacement=""
                    )
                )
            )
            + 1
        )
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.string()),
                "seq_len": pa.array(n_turns.astype(np.int64), pa.int64()),
                "n_convs_same_seq": pa.array(
                    cnt[inv].astype(np.int64), pa.int64()
                ),
                "is_template_dup": pa.array(
                    (cnt[inv] > 1).astype(np.int64), pa.int64()
                ),
            }
        )

    return map_partitions_by_key(per_conv, "sh", flags,
                                 num_parts=NUM_PARTS)


CONV_ROLESEQ_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
s AS (
    SELECT conv_id,
           string_agg(role, '>' ORDER BY turn_idx) AS seq,
           COUNT(*) AS seq_len
    FROM transcripts GROUP BY 1
)
SELECT conv_id,
       CAST(seq_len AS BIGINT) AS seq_len,
       CAST(COUNT(*) OVER (PARTITION BY seq) AS BIGINT)
           AS n_convs_same_seq,
       CAST(COUNT(*) OVER (PARTITION BY seq) > 1 AS BIGINT)
           AS is_template_dup
FROM s
"""


# ---------------------------------------------------------------------------
# conv_verbosity_trend — OLS slope of text length over turn index
# ---------------------------------------------------------------------------

def q_conv_verbosity_trend(sf_dir: str):
    """Per conversation (≥2 turns): the least-squares slope of
    ``length(text)`` against ``turn_idx`` — are replies growing or
    shrinking as the conversation progresses (a verbosity/decay signal
    for curriculum and truncation policies). All sums exact int64;
    slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²) with ONE double division,
    identical on both sides. ONE keyed exchange."""
    from .queries import _conv_order

    ds = read_events_as_transcripts(sf_dir)

    def part(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "slope": pa.array([], pa.float64())}
        )
        if tbl.num_rows == 0:
            return empty
        import pandas as pd

        order, k, _ts, seg_start = _conv_order(tbl)
        conv = np.asarray(
            tbl["conv_id"].combine_chunks().take(pa.array(order)),
            dtype=object,
        )
        ln = np.asarray(
            pc.utf8_length(tbl["text"].combine_chunks())
            .cast(pa.int64())
            .take(pa.array(order))
        )
        arange = np.arange(len(k), dtype=np.int64)
        seg_first = np.maximum.accumulate(np.where(seg_start, arange, 0))
        x = arange - seg_first  # turn_idx
        inv, _u = pd.factorize(k)
        m = int(inv.max()) + 1 if len(inv) else 0
        n = np.bincount(inv, minlength=m).astype(np.int64)
        sx = np.zeros(m, np.int64)
        sy = np.zeros(m, np.int64)
        sxy = np.zeros(m, np.int64)
        sxx = np.zeros(m, np.int64)
        np.add.at(sx, inv, x)
        np.add.at(sy, inv, ln)
        np.add.at(sxy, inv, x * ln)
        np.add.at(sxx, inv, x * x)
        first = np.zeros(m, np.int64)
        first[inv[::-1]] = np.arange(len(inv) - 1, -1, -1)
        keep = n >= 2
        num = (n * sxy - sx * sy).astype(np.float64)
        den = (n * sxx - sx * sx).astype(np.float64)
        slope = round6(num[keep] / den[keep])
        return pa.table(
            {
                "conv_id": pa.array(conv[first][keep], pa.string()),
                "n_turns": pa.array(n[keep], pa.int64()),
                "slope": pa.array(slope, pa.float64()),
            }
        )

    return map_partitions_by_key(ds, "conv_id", part, num_parts=NUM_PARTS)


CONV_VERBOSITY_SQL = f"""
WITH {TRANSCRIPTS_SQL_CTE},
t AS (
    SELECT conv_id,
           CAST(turn_idx AS BIGINT) AS x,
           CAST(length(text) AS BIGINT) AS y
    FROM transcripts
),
g AS (
    SELECT conv_id, COUNT(*)::BIGINT AS n,
           SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy,
           SUM(x * x) AS sxx
    FROM t GROUP BY 1
)
SELECT conv_id, n AS n_turns,
       ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS slope
FROM g WHERE n >= 2
"""


# ---------------------------------------------------------------------------
# docs_len_outlier_mad — robust per-language length outliers
# ---------------------------------------------------------------------------

MAD_K = 3


def q_docs_len_outlier_mad(sf_dir: str):
    """Per-language robust outlier flags: median and MAD of ``n_chars``
    with quantile_disc index semantics (element at ceil(n/2)−1 of the
    ascending sort), flag |n_chars − med| > {MAD_K}·MAD — every compare
    exact int64. ONE keyed exchange on lang (fixed domain = the skew
    bound; distributed rank per language beyond one partition's
    memory)."""
    docs = read_parquet_sized(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )

    def part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "lang": pa.array([], pa.string()),
             "is_len_outlier": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        from ..functions.robust import mad_outlier_flags

        lang = np.asarray(t["lang"].combine_chunks(), dtype=object)
        nc = np.asarray(t["n_chars"].combine_chunks().cast(pa.int64()))
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        order, flag = mad_outlier_flags(lang, nc, MAD_K)
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "lang": pa.array(lang[order].astype(str), pa.string()),
                "is_len_outlier": pa.array(flag.astype(np.int64), pa.int64()),
            }
        )

    return map_partitions_by_key(docs, "lang", part, num_parts=NUM_PARTS)


DOCS_LEN_OUTLIER_SQL = f"""
WITH med AS (
    SELECT lang, quantile_disc(n_chars, 0.5) AS med
    FROM documents GROUP BY 1
),
dev AS (
    SELECT d.doc_id, d.lang, d.n_chars, m.med,
           abs(d.n_chars - m.med) AS dv
    FROM documents d JOIN med m ON m.lang = d.lang
),
mad AS (SELECT lang, quantile_disc(dv, 0.5) AS mad FROM dev GROUP BY 1)
SELECT dev.doc_id, dev.lang,
       CAST(dev.dv > {MAD_K} * mad.mad AS BIGINT) AS is_len_outlier
FROM dev JOIN mad ON mad.lang = dev.lang
"""


# ---------------------------------------------------------------------------
# events_type_user_jaccard — type-pair audience overlap
# ---------------------------------------------------------------------------

def q_events_type_user_jaccard(sf_dir: str):
    """User-set Jaccard for every event-type pair: which behaviors share
    an audience. NEVER a user-level pair join — one user_id-keyed
    exchange builds each user's type BITMASK, partitions fold to counts
    per observed mask, and the pairwise overlap falls out of the
    inclusion sums over those masks on the driver."""
    import ray

    from ..sources.reads import read_parquet_sized as _r

    ds = _r(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    # alphabetical type order defines bit positions — derived from the
    # DATA (matching the twin's SELECT DISTINCT), via per-block distinct
    # partials (O(|types|) rows per block, driver union bounded)
    tparts = ds.map_batches(
        lambda t: pa.table(
            {
                "et": pa.array(
                    np.unique(
                        np.asarray(
                            t["event_type"].combine_chunks(), dtype=object
                        ).astype(str)
                    ),
                    pa.string(),
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    seen: set[str] = set()
    for tb in ray.get(tparts.to_arrow_refs()):
        seen.update(np.asarray(tb["et"].combine_chunks(), dtype=object))
    TYPES = sorted(seen)
    if len(TYPES) > 62:
        raise ValueError("type-bitmask fold supports <= 62 event types")

    tset = pa.array(TYPES, pa.string())

    def distinct_pairs(t: pa.Table) -> pa.Table:
        uid = np.asarray(t["user_id"].combine_chunks())
        bits = np.asarray(
            pc.index_in(t["event_type"].combine_chunks(), value_set=tset)
            .cast(pa.int64())
        )
        key = (uid << np.int64(8)) | bits
        uk = np.unique(key)
        return pa.table(
            {
                "user_id": pa.array(uk >> np.int64(8), pa.int64()),
                "bit": pa.array(uk & np.int64(0xFF), pa.int64()),
            }
        )

    pairs = ds.map_batches(distinct_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)

    def mask_counts(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {"mask": pa.array([], pa.int64()),
             "cnt": pa.array([], pa.int64())}
        )
        if part.num_rows == 0:
            return empty
        import pandas as pd

        uid = np.asarray(part["user_id"].combine_chunks())
        bit = np.asarray(part["bit"].combine_chunks())
        inv, _u = pd.factorize(uid)
        masks = np.zeros(len(_u), dtype=np.int64)
        np.bitwise_or.at(masks, inv, np.int64(1) << bit)
        inv2, uniq = pd.factorize(masks)
        return pa.table(
            {
                "mask": pa.array(uniq, pa.int64()),
                "cnt": pa.array(np.bincount(inv2).astype(np.int64),
                                pa.int64()),
            }
        )

    combo = fold_sum_by_keys(
        map_partitions_by_key(pairs, "user_id", mask_counts,
                              num_parts=NUM_PARTS),
        ["mask"], ["cnt"],
    )

    import ray
    import ray.data as rd

    # the OBSERVED masks only — at most min(2^|types|, #users) rows;
    # never a dense 2^|types| array
    tbls = [t for t in ray.get(combo.to_arrow_refs()) if t.num_rows]
    masks = np.concatenate(
        [np.zeros(0, np.int64)]
        + [np.asarray(t["mask"].combine_chunks()) for t in tbls]
    )
    cnts = np.concatenate(
        [np.zeros(0, np.int64)]
        + [np.asarray(t["cnt"].combine_chunks()) for t in tbls]
    )
    has = [((masks >> np.int64(a)) & 1) == 1 for a in range(len(TYPES))]
    rows = {"type_a": [], "type_b": [], "n_both": [], "n_either": [],
            "jaccard": []}
    for a in range(len(TYPES)):
        for b in range(a + 1, len(TYPES)):
            both = int(cnts[has[a] & has[b]].sum())
            either = int(cnts[has[a] | has[b]].sum())
            rows["type_a"].append(TYPES[a])
            rows["type_b"].append(TYPES[b])
            rows["n_both"].append(both)
            rows["n_either"].append(either)
            rows["jaccard"].append(
                float(round6(both / either)) if either else 0.0
            )
    return rd.from_arrow(
        pa.table(
            {
                "type_a": pa.array(rows["type_a"], pa.string()),
                "type_b": pa.array(rows["type_b"], pa.string()),
                "n_both": pa.array(rows["n_both"], pa.int64()),
                "n_either": pa.array(rows["n_either"], pa.int64()),
                "jaccard": pa.array(rows["jaccard"], pa.float64()),
            }
        )
    )


EVENTS_TYPE_JACCARD_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
tp AS (
    SELECT a.event_type AS type_a, b.event_type AS type_b
    FROM (SELECT DISTINCT event_type FROM events) a
    JOIN (SELECT DISTINCT event_type FROM events) b
      ON a.event_type < b.event_type
),
bo AS (
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           COUNT(*) AS n_both
    FROM ut a JOIN ut b
      ON b.user_id = a.user_id AND a.event_type < b.event_type
    GROUP BY 1, 2
),
sz AS (SELECT event_type, COUNT(*) AS n FROM ut GROUP BY 1)
SELECT tp.type_a, tp.type_b,
       CAST(COALESCE(bo.n_both, 0) AS BIGINT) AS n_both,
       CAST(sa.n + sb.n - COALESCE(bo.n_both, 0) AS BIGINT) AS n_either,
       ROUND(CAST(COALESCE(bo.n_both, 0) AS DOUBLE)
             / (sa.n + sb.n - COALESCE(bo.n_both, 0)), 6) AS jaccard
FROM tp
LEFT JOIN bo ON bo.type_a = tp.type_a AND bo.type_b = tp.type_b
JOIN sz sa ON sa.event_type = tp.type_a
JOIN sz sb ON sb.event_type = tp.type_b
"""


# ---------------------------------------------------------------------------
# embedding_label_centroid_shift — split-half centroid drift per label
# ---------------------------------------------------------------------------

CSHIFT_SCALE = 1_000_000


def q_embedding_label_centroid_shift(sf_dir: str):
    """Per label: L2 distance between the centroid of even-vec_id and
    odd-vec_id members (split-half drift — a stability probe for
    label-conditioned embedding spaces). Fixed-point q =
    floor(v·1e6 + 0.5) partials per (label, parity, dim) (exact int64
    fold, ≤ |labels|·2·dim rows), squared numerators folded as exact
    PYTHON ints on the ≤1280-row driver relation (the SQL side uses
    HUGEINT), ONE float conversion + division each side → bit-exact
    twin."""
    emb = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"label": pa.array([], pa.int64()),
             "par": pa.array([], pa.int64()),
             "dim": pa.array([], pa.int64()),
             "sq": pa.array([], pa.int64()),
             "c": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        vals = np.asarray(
            t["embedding"].combine_chunks().values.to_numpy(
                zero_copy_only=False
            ),
            dtype=np.float64,
        ).reshape(t.num_rows, -1)
        q = np.floor(vals * CSHIFT_SCALE + 0.5).astype(np.int64)
        lab = np.asarray(t["label"].combine_chunks().cast(pa.int64()))
        par = np.asarray(t["vec_id"].combine_chunks().cast(pa.int64())) % 2
        import pandas as pd

        key = (lab << np.int64(1)) | par
        inv, uniq = pd.factorize(key)
        d = q.shape[1]
        sq = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sq, inv, q)
        cnt = np.bincount(inv).astype(np.int64)
        k = len(uniq)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq >> 1, d), pa.int64()),
                "par": pa.array(np.repeat(uniq & 1, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), k),
                                pa.int64()),
                "sq": pa.array(sq.reshape(-1), pa.int64()),
                "c": pa.array(np.repeat(cnt, d), pa.int64()),
            }
        )

    folded = fold_sum_by_keys(
        emb.map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["label", "par", "dim"], ["sq", "c"],
    )

    import ray
    import ray.data as rd

    tbls = [t for t in ray.get(folded.to_arrow_refs()) if t.num_rows]
    out = {"label": [], "n_even": [], "n_odd": [], "l2_shift": []}
    if tbls:
        allt = pa.concat_tables(tbls)  # ≤ |labels| x 2 x dim rows
        lab = np.asarray(allt["label"].combine_chunks())
        par = np.asarray(allt["par"].combine_chunks())
        dim = np.asarray(allt["dim"].combine_chunks())
        sq = np.asarray(allt["sq"].combine_chunks())
        c = np.asarray(allt["c"].combine_chunks())
        for lb in sorted(set(lab.tolist())):
            m0 = (lab == lb) & (par == 0)
            m1 = (lab == lb) & (par == 1)
            if not m0.any() or not m1.any():
                continue
            c0 = int(c[m0][0])
            c1 = int(c[m1][0])
            s0 = {int(d_): int(s_) for d_, s_ in zip(dim[m0], sq[m0])}
            s1 = {int(d_): int(s_) for d_, s_ in zip(dim[m1], sq[m1])}
            s2 = 0  # exact python int — no int64 overflow
            for d_ in s0:
                numer = s0[d_] * c1 - s1[d_] * c0
                s2 += numer * numer
            denom = float(CSHIFT_SCALE) * c0 * c1
            out["label"].append(lb)
            out["n_even"].append(c0)
            out["n_odd"].append(c1)
            out["l2_shift"].append(
                float(round6(np.sqrt(float(s2)) / denom))
            )
    return rd.from_arrow(
        pa.table(
            {
                "label": pa.array(out["label"], pa.int64()),
                "n_even": pa.array(out["n_even"], pa.int64()),
                "n_odd": pa.array(out["n_odd"], pa.int64()),
                "l2_shift": pa.array(out["l2_shift"], pa.float64()),
            }
        )
    )


EMBEDDING_CSHIFT_SQL = f"""
WITH e AS (
    SELECT vec_id, label,
           CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * {CSHIFT_SCALE}
                      + 0.5) AS BIGINT) AS q,
           generate_subscripts(embedding, 1) AS dim
    FROM embeddings
),
g AS (
    SELECT label, vec_id % 2 AS par, dim,
           SUM(q) AS sq, COUNT(*)::BIGINT AS c
    FROM e GROUP BY 1, 2, 3
),
m AS (
    SELECT g0.label, g0.dim,
           g0.sq * g1.c - g1.sq * g0.c AS numer,
           g0.c AS c0, g1.c AS c1
    FROM g g0 JOIN g g1
      ON g1.label = g0.label AND g1.dim = g0.dim
     AND g0.par = 0 AND g1.par = 1
),
s AS (
    SELECT label, MAX(c0) AS c0, MAX(c1) AS c1,
           SUM(CAST(numer AS HUGEINT) * numer) AS s2
    FROM m GROUP BY 1
)
SELECT CAST(label AS BIGINT) AS label,
       c0 AS n_even, c1 AS n_odd,
       ROUND(SQRT(CAST(s2 AS DOUBLE))
             / (CAST({CSHIFT_SCALE} AS DOUBLE) * c0 * c1), 6) AS l2_shift
FROM s
"""


REGISTRY: dict[str, tuple] = {
    "conv_roleseq_dupes": (q_conv_roleseq_dupes, CONV_ROLESEQ_SQL),
    "conv_verbosity_trend": (q_conv_verbosity_trend, CONV_VERBOSITY_SQL),
    "docs_len_outlier_mad": (q_docs_len_outlier_mad, DOCS_LEN_OUTLIER_SQL),
    "events_type_user_jaccard": (
        q_events_type_user_jaccard,
        EVENTS_TYPE_JACCARD_SQL,
    ),
    "embedding_label_centroid_shift": (
        q_embedding_label_centroid_shift,
        EMBEDDING_CSHIFT_SQL,
    ),
}
