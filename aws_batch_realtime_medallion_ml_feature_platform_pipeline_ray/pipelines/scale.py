"""Machine-readable scale contract per registry query (VERDICT r3 §next-6).

Every ``queries()`` entry carries a ``scale_class`` describing the data
motion its plan needs at 100-TB scale, so the operator selection for a
real cluster is explicit rather than implied by docstrings:

- ``streaming``      — map-only over blocks (plus at most a
                       fixed-cardinality fold of pre-aggregated partials:
                       per-language, per-day, per-type...). No
                       data-cardinality exchange; scales linearly.
- ``one-exchange``   — exactly one data-cardinality keyed exchange
                       (hash partition by entity key / groupby / sort),
                       everything else vectorized per partition.
- ``multi-exchange`` — a fixed small number (2-5) of keyed exchanges
                       (cogroups, pair folds, candidate pipelines); each
                       exchange streams and spills, none is all-pairs.
- ``iterative``      — per-round exchanges or map rounds with a bounded
                       round count (O(log diameter) or a fixed constant).
- ``broadcast-bounded`` — correctness relies on a ``ray.put`` side whose
                       size is bounded and documented (query matrix,
                       candidate pair set, label/rank vector, eval-gram
                       set); the docstring names the beyond-memory
                       fallback plan.
- ``exact-baseline`` — deliberately exact reference implementation with
                       super-linear worst-case work (block-pair kNN,
                       all-pair audits); ``SCALE_PATH`` names the
                       operator to use at 100 TB instead.
- ``control-plane``  — driver-side lake/metadata operation over
                       manifests or bounded state (no bulk data motion).

A class names the data motion of an input larger than one block. The
query stages run an input of one block (``sources.reads.one_block``, at
most 4 MiB) as one Ray task with no exchange (``stages/keyed.py``, "Size
rule"): the keyed passes and cogroups, connected components, the skew
join, the global order's sort and scans (``stages/globalorder.py``) and
the small-key sum folds (``keyed.sum_partials``).

``scale_class(name)`` and ``scale_classes()`` are exported through
``__ray_entry__``; ``python -m ..pipelines.scale`` regenerates
``docs/SCALE_CLASSES.md``. tests/test_scale_classes.py pins full
coverage of the registry.
"""

from __future__ import annotations

CLASSES = (
    "streaming",
    "one-exchange",
    "multi-exchange",
    "iterative",
    "broadcast-bounded",
    "exact-baseline",
    "control-plane",
)

# scale path notes: exact baselines, broadcast-bounded plans and the
# plans whose one-block path skips more than the exchange
SCALE_PATH: dict[str, str] = {
    "skew_join": "one block: one-task cogroup, no hot-key detection; beyond it hot keys broadcast, the rest one keyed exchange (stages/skewjoin.py)",
    "gold_features_salted": "two keyed exchanges: the hot rows' key columns (shard summaries), then the seeded gold pass; the driver collects one row per hot shard (stages/salted.py)",
    "docs_dup_clusters": "one-block adjacency: one-task union of all edges, no rounds; beyond it two keyed exchanges per label-propagation round (stages/graph.py)",
    "docs_dup_cluster_sizes": "shares the docs_dup_clusters plan",
    "docs_dedup_keep_best": "shares the docs_dup_clusters plan, then one keyed exchange on cluster_id",
    "embedding_knn_components": "shares the connected-components plan of docs_dup_clusters",
    "knn_self": "IVF (knn_ivf) or LSH (knn_lsh) blocking at corpus scale",
    "knn": "broadcast query matrix is O(queries x dim); shard queries when large",
    "embedding_neardup": "LSH blocking (knn_lsh plan) at corpus scale",
    "embedding_triangles": "kNN edge list is O(n*k); wedge expansion bounded by degree",
    "embedding_clustering_coeff": "shares the triangle wedge plan",
    "embedding_hard_negatives": "IVF/LSH candidate generation at corpus scale",
    "embedding_mmr": "greedy top-m loop; shard candidates via IVF at scale",
    "embedding_label_prop_step": "label vector is O(nodes); vec_id cogroup beyond memory",
    "embedding_pagerank": "rank vector is O(nodes); pagerank_constant_outdegree beyond memory",
    "embedding_bfs_hops": "frontier broadcast is O(reached nodes); cogroup variant beyond memory",
    "docs_ngram_jaccard": "candidate set bounded by prefix filter; verify AUTO-ROUTES to the cogroup plan past BROADCAST_CAND_LIMIT (ppjoin.verify_pairs)",
    "docs_containment_pairs": "candidate set bounded by prefix filter; verify auto-routes to cogroup past BROADCAST_CAND_LIMIT",
    "docs_weighted_jaccard": "candidate set bounded by weighted prefix filter; verify auto-routes to cogroup past BROADCAST_CAND_LIMIT",
    "docs_neardup_filter": "removal list bounded by dup rate; keyed anti-join beyond memory",
    "docs_decontam": "eval-gram set is fixed benchmark-sized",
    "docs_fuzzy_pairs": "sorted-neighborhood window bounds the pair set; the global rank shares the docs_global_rank plan",
    "docs_del1_pairs": "deletion-neighborhood keys are O(len) per doc",
    "docs_dedup_semantic_audit": "audit over sampled pairs at scale",
    "eval_dim_truncation": "exact recall audit; sample queries at scale",
    "eval_quant_recall": "exact recall audit; sample queries at scale",
    "events_subseq_support": "candidate subsequences bounded by alphabet^2",
    "docs_vocab_overlap": "per-language vocab partials; cap vocab at scale",
    "embedding_pq_codes": "codebook broadcast is O(M*K*dim) — constant",
    "docs_prefix_dupes": "narrow 64-codepoint-key sort + O(#blocks) stitch; text exchanged only for the multi-group cohort (broadcast id list; doc_id cogroup beyond it)",
    "docs_head_middle_tail": "one block: one-task local sort + scan; beyond it one range-partitioned sort + O(#blocks) offset scan (stages/globalorder.with_global_rank)",
    "docs_global_rank": "one block: one-task local sort + 1 + arange; beyond it one range-partitioned sort + O(#blocks) offset scan (stages/globalorder.with_global_rank)",
    "events_value_quantiles": "shares the docs_global_rank plan, then a map-only pick of the target ranks",
    "docs_bpe_merge": "one block: one-task pyarrow fold of the pair partials + top-K; beyond it groupby().aggregate(Sum) + repartition(1) (stages/keyed.sum_partials)",
    "embedding_power_iteration": "one block: one-task pyarrow fold of the per-dim partials + normalize; beyond it groupby().aggregate(Sum) + repartition(1) (stages/keyed.sum_partials)",
    "docs_suffix_dupes": "narrow 64-codepoint-key sort + O(#blocks) stitch; text exchanged only for the multi-group cohort (broadcast id list; doc_id cogroup beyond it)",
    "docs_token_coverage_curve": "per-partition top-K partials; driver merge is O(parts x K)",
    "orders_q3_unshipped": "per-partition top-k partials; driver fold is O(parts x k)",
    "events_type_value_quantiles": "fixed type domain bounds the per-type sort; distributed rank or sketch beyond one partition's memory",
    "embedding_pq_energy_by_label": "codebook broadcast is O(M*K*dim) — constant",
    "embedding_label_centroid_shift": "driver fold is O(|labels| x 2 x dim) pre-aggregated partials — constant",
    "knn_pq_rerank": "codebook + per-query ADC tables broadcast (O(Q*M*K)); candidate folds O(Q*C); shard queries when Q large",
    "events_type_user_jaccard": "combo fold is O(2^|types|) rows; bitmask build is the one user-keyed exchange",
    "docs_len_outlier_mad": "fixed lang domain bounds the per-language sort; distributed rank beyond one partition's memory",
}

_BY_CLASS: dict[str, list[str]] = {
    # ---- pure per-row / per-doc transforms; fixed-cardinality folds ----
    "streaming": [
        "silver_normalize",
        "docs_langid", "docs_quality", "docs_token_count",
        "docs_token_count_bpe", "docs_fingerprint", "docs_gopher_filter",
        "docs_entropy", "docs_normalize", "docs_repetition",
        "docs_blocklist_filter", "docs_pii_redact", "docs_chunk",
        "docs_charclass_profile", "docs_quality_score_lr", "docs_lr_brier",
        "docs_unigram_xent", "docs_zipf_fit", "docs_heaps_vocab",
        "docs_len_quantiles", "docs_commonness", "docs_bigram_lm",
        "docs_lang_source_chi2", "docs_sample_systematic",
        "docs_mixture_budget", "docs_mixture_temperature",
        "events_json_extract", "events_weekend_lift", "events_dow_adjusted",
        "events_time_cyclical", "events_benford_profile", "events_describe",
        "events_rate_ratio", "events_ratio_ci", "events_value_gini",
        "events_lorenz_deciles", "events_cond_entropy", "events_welch_t",
        "events_ks_drift", "events_srm_check", "events_cuped",
        "events_mi_type_dow", "events_anova_f", "events_psi_drift",
        "events_hll_users", "events_kmv_distinct", "docs_cms_tokens",
        "docs_heavy_tokens", "events_dau_wau", "events_value_pctl_hist",
        "events_value_quantiles", "events_hill_tail", "events_expectations",
        "lineitem_q6_revenue", "lineitem_ship_delay_hist",
        "lineitem_discount_elasticity", "train_label_weights",
        "events_daily_volume_anomalies", "events_peak_hour",
        "orders_weekday_seasonality", "parts_size_price_profile",
        "events_type_dow_heatmap", "suppliers_nation_balance",
        "lineitem_q19_disjunctive", "events_bot_flags",
        "features_poly2", "features_hashed", "features_onehot",
        "features_bucketize", "features_minmax", "features_zscore",
        "features_robust_scale", "features_woe_hour", "features_corr",
        "embedding_norm_topk", "embedding_covariance", "embedding_centroids",
        "embedding_random_projection", "embedding_quantize",
        "embedding_fisher_ratio", "train_lr_grad_step", "docs_lr_auc",
        "docs_lr_calibration", "train_temp_scaling", "media_meta",
        "media_decode", "media_resize", "media_frames", "agg_pushdown",
        "events_periodogram", "events_diurnal_harmonic", "docs_llr_bigrams",
        "docs_pmi_bigrams", "events_seasonal_naive", "engine_partition_balance",
        "events_haar_details", "orders_priority_path",
        "lineitem_pricing_summary", "embedding_pq_codes",
        "docs_tokenizer_fertility", "embedding_pq_residual_energy",
        "embedding_pq_energy_by_label",
        "embedding_label_centroid_shift",
    ],
    # ---- one data-cardinality keyed exchange ----
    "one-exchange": [
        "gold_features", "sessionize", "sessionize_capped", "lag_lead",
        "rolling_windows", "rolling_rows_window", "conv_context_window",
        "conv_dedup_turns", "conv_dedup_whole", "conv_flatten",
        "conv_role_runs", "conv_role_transitions", "dedup_exact",
        "session_stats", "docs_exact_dedup", "conv_handoff_latency",
        "conv_reward_decay", "conv_token_share", "conv_token_novelty",
        "conv_truncate_budget", "conv_prefix_groups", "conv_preference_pairs",
        "events_windowed", "events_hopping", "events_union",
        "events_distinct_users", "events_rolling_distinct_users",
        "events_dedup_window", "events_holdout_split", "events_resample_daily",
        "events_rolling_median", "events_twa", "features_cummax",
        "features_cumsum", "events_ewma", "events_mode_by_user",
        "events_profile", "events_retention", "events_scd2",
        "events_autocorr_7d", "events_max_drawdown", "events_ohlc_daily",
        "events_type_trigrams", "events_interarrival", "events_markov",
        "events_rfm", "events_streaks", "events_time_to_purchase",
        "events_session_conversion", "events_first_touch",
        "events_attribution", "events_decayed_counts", "events_cusum",
        "events_ols_trend", "events_cooccurrence", "events_cohort_ltv",
        "events_user_growth", "events_max_run", "events_dfa_violations",
        "events_sprt", "events_holt_linear", "events_mann_kendall",
        "events_theil_sen", "events_allowed_lateness", "events_window_topk",
        "events_funnel", "events_pivot", "events_zorder",
        "events_k_anonymity", "events_l_diversity", "events_xcorr_lagged",
        "eval_ndcg",
        "events_anomaly_mad", "events_ntile", "events_cube", "events_rollup",
        "events_target_encode_loo", "features_rank", "features_pct_rank",
        "features_group_median", "features_target_encode",
        "docs_tfidf_top_terms", "docs_bm25", "docs_topk_per_lang",
        "docs_sample_stratified", "docs_sample_weighted",
        "docs_sample_weighted_k", "docs_sample_k_per_lang",
        "docs_epoch_order", "docs_boilerplate_ngrams", "docs_chunk_dedup",
        "docs_pack_bins", "docs_kwic", "docs_winnow_minimizers",
        "docs_novelty_by_batch", "docs_dup_span_coverage", "docs_simhash",
        "topk", "train_split", "train_kfold", "train_temporal_cv",
        "brand_revenue", "events_band_join", "broadcast_join",
        "online_latest", "bronze_lateness_profile", "csv_ingest",
        "ndjson_ingest", "orc_ingest", "ipc_ingest", "schema_evolution_read",
        "events_interp_daily", "events_concurrency_hist",
        "events_peak_concurrency", "events_survival_hazard",
        "docs_global_rank", "idle_rich_customers", "orders_priority_delays",
        "parts_supplier_variety", "orders_repeat_rate", "orders_revenue_hhi",
        "large_volume_customers", "small_qty_revenue", "promo_revenue_ratio",
        "events_interval_join", "suppliers_late_blame", "docs_winsorize",
        "embedding_knn_degree_hist", "events_subseq_support",
        "docs_vocab_overlap", "basket_rules", "events_cdc_apply",
        "user_feature_snapshot", "orders_shipping_priority",
        "conv_loss_mask",
        "docs_dedup_survivorship", "events_watermark_lag",
        "train_dedup_aware_split", "conv_concurrent_turns",
        "docs_dup_ratio_by_source", "conv_tool_call_stats",
        "events_lateness_by_day",
        "docs_token_coverage_curve", "conv_repeat_loops",
        "docs_head_middle_tail",
        "docs_norm_dedup", "events_type_value_quantiles",
        "events_bounce_rate", "events_since_last_purchase",
        "events_reactivations", "orders_q18_big_orders",
        "top_supplier_revenue",
        "conv_verbosity_trend", "docs_len_outlier_mad",
        "conv_tool_response_latency", "conv_mask_budget",
        "events_session_depth_hist", "conv_role_transition_latency",
        "embedding_norm_outliers", "conv_error_bursts",
        "conv_first_error", "customers_order_gap_median",
        "docs_cross_source_dup_matrix", "conv_gap_quantiles",
        "train_split_contamination", "events_lifecycle_stages",
        "conv_tool_bigrams",
    ],
    # ---- fixed small number of keyed exchanges ----
    "multi-exchange": [
        "gold_features_salted", "skew_join", "join_shuffle", "join_multiway",
        "join_left_outer", "join_full_outer", "join_anti", "join_semi",
        "join_semi_bloom", "asof_join", "asof_join_partitioned",
        "asof_join_tolerance", "asof_join_forward", "asof_join_nearest",
        "asof_join_forward_bcast", "asof_join_nearest_bcast", "range_join",
        "docs_minhash_pairs", "docs_minhash_calibration",
        "docs_simhash_pairs", "docs_incremental_neardup",
        "docs_sorted_neighborhood", "docs_soft_dedup_weights",
        "docs_curation_e2e", "docs_curation_funnel", "docs_curation_to_shards",
        "medallion_stream", "medallion_incremental", "train_kfold",
        "orders_custdist", "docs_dsir_weights",
        "orders_local_supplier_revenue", "nations_trade_volume",
        "returned_top_customers", "orders_market_share", "fk_orphans_audit",
        "large_volume_customers", "docs_lr_auc", "embedding_kmeans_step",
        "docs_pareto_front", "gdpr_cascade_audit", "events_hopping",
        "orders_q3_unshipped", "orders_q4_late_exists",
        "conv_roleseq_dupes", "events_type_user_jaccard",
        "customers_rfm_quintiles", "suppliers_ship_delay_median",
        "segments_revenue_share", "docs_tercile_length_bias",
    ],
    # ---- bounded-round iterations ----
    "iterative": [
        "embedding_knn_components", "embedding_power_iteration",
        "docs_dup_clusters", "docs_dup_cluster_sizes", "docs_dedup_keep_best",
        "docs_bpe_merge",
    ],
    # ---- ray.put small side with documented bound + named fallback ----
    "broadcast-bounded": [
        "knn_pq_rerank",
        "docs_prefix_dupes", "docs_suffix_dupes",
        "embedding_pagerank", "embedding_label_prop_step",
        "embedding_bfs_hops", "docs_ngram_jaccard", "docs_containment_pairs",
        "docs_weighted_jaccard", "docs_neardup_filter", "docs_decontam",
        "knn", "knn_ivf", "knn_lsh",
    ],
    # ---- exact reference baselines with named scale paths ----
    "exact-baseline": [
        "knn_self", "embedding_neardup", "embedding_triangles",
        "embedding_clustering_coeff", "embedding_hard_negatives",
        "embedding_mmr", "docs_fuzzy_pairs", "docs_del1_pairs",
        "docs_dedup_semantic_audit", "eval_dim_truncation",
        "eval_quant_recall",
    ],
}

SCALE_CLASS: dict[str, str] = {}
for _cls, _names in _BY_CLASS.items():
    for _n in _names:
        # a later, more specific class wins when a name is listed twice
        SCALE_CLASS[_n] = _cls


def scale_class(name: str) -> str:
    return SCALE_CLASS[name]


def scale_classes() -> dict[str, str]:
    return dict(SCALE_CLASS)


def render_doc() -> str:
    from .registry import full_registry

    reg = full_registry()
    lines = [
        "# Scale classes",
        "",
        "Generated by `python -m"
        " aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray"
        ".pipelines.scale` — do not edit by hand.",
        "",
        "Class definitions: see `pipelines/scale.py` module docstring.",
        "",
        "| query | scale_class | 100-TB path note |",
        "|---|---|---|",
    ]
    for name in sorted(reg):
        cls = SCALE_CLASS.get(name, "MISSING")
        note = SCALE_PATH.get(name, "")
        lines.append(f"| `{name}` | {cls} | {note} |")
    lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    import os

    out = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                       "SCALE_CLASSES.md")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        f.write(render_doc())
    print(f"wrote {os.path.abspath(out)}")
