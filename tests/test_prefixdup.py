"""stages/prefixdup.py — narrow-key truncation-dup flags must match the
brute-force EXISTS starts_with semantics on inputs engineered to hit
every branch: short docs (< K codepoints) closed by the narrow sort,
long docs in singleton key groups (zero text movement), long docs
sharing a K-prefix WITHOUT being prefix-related, genuine long prefix
pairs, exact duplicates both short and long, and short-prefix-of-long
spans across distinct key groups."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
    keyed,
    prefixdup,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.prefixdup import (
    PFX_K,
    prefix_dup_flags,
)


def _brute(texts):
    n = len(texts)
    return [
        int(any(j != i and texts[j].startswith(texts[i]) for j in range(n)))
        for i in range(n)
    ]


def _run(texts, k=PFX_K, blocks=3):
    import ray.data as rd

    ids = list(range(len(texts)))
    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
    ).repartition(blocks)
    got = (
        prefix_dup_flags(ds, "text", "flag", k=k, num_parts=4)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got["doc_id"].tolist() == ids  # every doc exactly once
    return got["flag"].tolist()


BASE = "x" * PFX_K  # one full K-codepoint head


@pytest.mark.parametrize("blocks", [1, 3, 7])
def test_engineered_corpus_matches_bruteforce(ray_session, blocks):
    texts = [
        "short",                      # prefix of "short and longer"
        "short and longer",           # not a prefix of anything
        "tiny",                       # prefix of nothing
        "dup",                        # short exact dup …
        "dup",                        # … of each other
        BASE + "alpha",               # long: shares head, prefix of next
        BASE + "alpha tail",          # long superstring
        BASE + "beta",                # long: shares head, NOT prefix-related
        "y" * PFX_K + "solo",         # long singleton group
        "z" * (PFX_K + 5),            # long exact dup …
        "z" * (PFX_K + 5),            # … of each other
        BASE[: PFX_K - 1],            # short = K-1 head, prefix of BASE+…
    ]
    assert _run(texts, blocks=blocks) == _brute(texts)


def test_short_prefix_of_long_across_groups(ray_session):
    # the short doc's flag must come from the narrow sort successor,
    # whose pk belongs to a long doc in a different key group
    texts = ["ab", "ab" + "c" * 100, "ab" + "d" * 100, "ae"]
    assert _run(texts) == _brute(texts)


def test_small_k_forces_cohort_path(ray_session):
    # k=4 pushes ordinary strings into the long/cohort machinery
    texts = [
        "abcdefgh", "abcdefgh extended", "abcdXYZW", "abcd",
        "qrstuv", "zzzz", "zzzz",
    ]
    assert _run(texts, k=4) == _brute(texts)


def test_all_unique_no_flags(ray_session):
    texts = [f"doc {i} unique body" for i in range(20)]
    assert _run(texts) == [0] * 20


def test_equal_run_spanning_blocks(ray_session):
    # an equal-text run larger than any single block
    texts = ["same text " * 3] * 10 + ["other"]
    assert _run(texts, blocks=5) == _brute(texts)


def _route(monkeypatch, limit) -> list:
    """Set ``COHORT_BROADCAST_LIMIT = limit``; the returned list records
    each cogroup-plan call."""
    monkeypatch.setattr(prefixdup, "COHORT_BROADCAST_LIMIT", limit)
    calls = []
    real = keyed.cogroup_by_key

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(keyed, "cogroup_by_key", spy)
    return calls


@pytest.mark.parametrize("path", ["broadcast", "cogroup"])
def test_cohort_paths_identical(ray_session, monkeypatch, path):
    """The broadcast cohort filter and the doc_id-cogroup fallback must
    flag identically (auto-route safety)."""
    import ray.data as rd

    cogroup_calls = _route(
        monkeypatch, np.iinfo(np.int64).max if path == "broadcast" else -1
    )
    texts = [
        BASE + "alpha", BASE + "alpha tail", BASE + "beta",
        "y" * PFX_K + "solo", "z" * (PFX_K + 5), "z" * (PFX_K + 5),
        "short", "short and longer",
    ]
    ids = list(range(len(texts)))
    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
    ).repartition(3)
    got = (
        prefix_dup_flags(ds, "text", "flag", num_parts=4)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got["flag"].tolist() == _brute(texts)
    assert bool(cogroup_calls) == (path == "cogroup")


def test_cohort_auto_route_zero_limit(ray_session, monkeypatch):
    """COHORT_BROADCAST_LIMIT = 0 must take the cogroup plan and still
    match brute force."""
    import ray.data as rd

    cogroup_calls = _route(monkeypatch, 0)
    texts = [BASE + "a", BASE + "a plus", BASE + "b", "tiny"]
    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
    )
    got = (
        prefix_dup_flags(ds, "text", "flag", num_parts=4)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got["flag"].tolist() == _brute(texts)
    assert cogroup_calls
