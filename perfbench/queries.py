"""The ``query_mix`` list: registered ``queries()`` entries, resolved
from the registry module that defines each one.

Entries are looked up in their own module's ``REGISTRY`` rather than via
``__ray_entry__.queries()``: building the merged registry also builds
the medallion/NDJSON/CSV fixtures under ``/tmp``, and the benchmark
reads and writes only inside its checkout. The callables and SQL are the
same objects the merged registry returns.
"""

from __future__ import annotations

import importlib

PKG = "aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines"

# name -> defining module (under pipelines/). At least one entry per
# scale class, covering featurize + windows (gold_features), globalorder
# (events_value_quantiles, docs_global_rank, docs_fuzzy_pairs), skewjoin
# (skew_join), dedup (docs_simhash_pairs, docs_fuzzy_pairs), ppjoin
# (conv_roleseq_dupes, docs_ngram_jaccard) and graph (docs_dup_clusters:
# MinHash candidates + connected components). Left out: stages.ann, whose
# kNN operators start actor pools of two and wait forever on a one-CPU
# Ray cluster.
QUERY_MODULES = {
    "gold_features": "queries",                      # one-exchange
    "events_value_quantiles": "queries_extra",       # streaming
    "docs_global_rank": "queries_extra",             # one-exchange
    "skew_join": "queries_relational",               # multi-exchange
    "docs_simhash_pairs": "queries_text",            # multi-exchange
    "conv_roleseq_dupes": "queries_r5b",             # multi-exchange
    "docs_ngram_jaccard": "queries_text",            # broadcast-bounded
    "docs_fuzzy_pairs": "queries_extra",             # exact-baseline
    "docs_bpe_merge": "queries_curation",            # iterative
    "embedding_power_iteration": "queries_r2h",      # iterative
    "docs_dup_clusters": "queries_text",             # iterative
}
QUERIES = list(QUERY_MODULES)


def registry(names: list[str]) -> dict[str, tuple]:
    """name -> (callable, oracle SQL)."""
    out = {}
    for n in names:
        mod = importlib.import_module(f"{PKG}.{QUERY_MODULES[n]}")
        out[n] = mod.REGISTRY[n]
    return out
