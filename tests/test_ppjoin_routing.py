"""Auto-routing of the PPJoin exact verify (VERDICT r4 §next-7).

``stages/ppjoin.verify_pairs`` must (a) pick the broadcast plan for
small candidate sets and the cogroup plan past ``BROADCAST_CAND_LIMIT``, and
(b) produce IDENTICAL outputs on both sides of the threshold for all
three score modes — so flipping plans at scale can never change results.
Also covers the r5 fused front-end: ``gram_df_front`` (in-batch gram
hashing + int-keyed df attach) must agree with the r4 string-keyed
``attach_df`` path.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.reads import (
    read_parquet_sized,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
    keyed,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
    ppjoin as P,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.dedup import (
    ngram_table,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
    map_partitions_by_key,
)

SF = "/root/testdata/sf0.001"


class _PathTaken(Exception):
    pass


class _Candidates:
    """Just enough of a Ray Dataset for verify_pairs to route on."""

    def __init__(self, n):
        self.n = n

    def materialize(self):
        return self

    def count(self):
        return self.n

    def map_batches(self, *args, **kwargs):
        return self


def test_route_verify_threshold(monkeypatch):
    """count == limit takes the broadcast plan, limit + 1 the cogroup
    plan; the limit is read when verify_pairs runs. A spy on each plan's
    first call records the path and stops the run."""
    taken = []

    def spy(path):
        def stop(*args, **kwargs):
            taken.append(path)
            raise _PathTaken

        return stop

    monkeypatch.setattr(P, "collect_candidates", spy("broadcast"))
    monkeypatch.setattr(keyed, "cogroup_by_key", spy("cogroup"))

    def route(n):
        with pytest.raises(_PathTaken):
            P.verify_pairs(_Candidates(0), _Candidates(n), "jaccard", 0.5, "j")
        return taken.pop()

    assert route(0) == "broadcast"
    assert route(P.BROADCAST_CAND_LIMIT) == "broadcast"
    assert route(P.BROADCAST_CAND_LIMIT + 1) == "cogroup"
    monkeypatch.setattr(P, "BROADCAST_CAND_LIMIT", 9)
    assert route(9) == "broadcast"
    assert route(10) == "cogroup"


def _verify(monkeypatch, limit, *args, **kwargs):
    """verify_pairs routed with ``BROADCAST_CAND_LIMIT = limit``."""
    with monkeypatch.context() as m:
        m.setattr(P, "BROADCAST_CAND_LIMIT", limit)
        return P.verify_pairs(*args, **kwargs)


BROADCAST = np.iinfo(np.int64).max  # every candidate count fits
COGROUP = -1  # no candidate count fits


def _docs():
    return read_parquet_sized(f"{SF}/documents.parquet",
                              columns=["doc_id", "text"])


def _fetch(ds, score_col):
    df = ds.to_pandas()
    return df.sort_values(["doc_a", "doc_b"], ignore_index=True)


def _jaccard_cand(dfd):
    pfx = map_partitions_by_key(
        dfd, "doc_id", lambda t: P.select_prefix(t, 1, 2), num_parts=8
    )
    return map_partitions_by_key(
        pfx, "gh", lambda t: P.expand_jaccard_pairs(t, 1, 2), num_parts=8
    )


def test_verify_paths_identical_jaccard(ray_session, monkeypatch):
    dfd = P.gram_df_front(_docs(), num_parts=8)
    cand = _jaccard_cand(dfd)
    bc = _fetch(
        _verify(monkeypatch, BROADCAST, dfd, cand, "jaccard", 0.5, "jaccard", 8),
        "jaccard",
    )
    cg = _fetch(
        _verify(monkeypatch, COGROUP, dfd, cand, "jaccard", 0.5, "jaccard", 8),
        "jaccard",
    )
    assert len(bc) > 0  # fixture must exercise the path
    pd.testing.assert_frame_equal(bc, cg)
    # auto-routing with a 0 limit must take the cogroup plan and still
    # match; default limit takes broadcast and matches too
    auto_cg = _fetch(
        _verify(monkeypatch, 0, dfd, cand, "jaccard", 0.5, "jaccard", 8),
        "jaccard",
    )
    auto_bc = _fetch(
        P.verify_pairs(dfd, cand, "jaccard", 0.5, "jaccard", 8), "jaccard"
    )
    pd.testing.assert_frame_equal(auto_cg, bc)
    pd.testing.assert_frame_equal(auto_bc, bc)


def test_verify_paths_identical_containment(ray_session, monkeypatch):
    dfd = P.gram_df_front(_docs(), num_parts=8)
    flagged = map_partitions_by_key(
        dfd, "doc_id", lambda t: P.select_prefix_flagged(t, 7, 10),
        num_parts=8,
    )
    cand = map_partitions_by_key(
        flagged, "gh", lambda t: P.expand_smallside_pairs(t, 7, 10),
        num_parts=8,
    )
    bc = _fetch(
        _verify(monkeypatch, BROADCAST, dfd, cand, "containment", 0.7,
                "containment", 8),
        "containment",
    )
    cg = _fetch(
        _verify(monkeypatch, COGROUP, dfd, cand, "containment", 0.7,
                "containment", 8),
        "containment",
    )
    assert len(bc) > 0
    pd.testing.assert_frame_equal(bc, cg)


def test_verify_paths_identical_wjaccard(ray_session, monkeypatch):
    docs = _docs()
    n_docs = docs.count()  # sf0.001 docs all have >= 3 tokens
    dfd = P.gram_df_front(docs, num_parts=8)
    pfx = map_partitions_by_key(
        dfd,
        "doc_id",
        lambda t: P.select_prefix_weighted(P.with_idf_w(t, n_docs), 7, 20),
        num_parts=8,
    )
    cand = map_partitions_by_key(
        pfx, "gh", lambda t: P.expand_weighted_pairs(t, 7, 20), num_parts=8
    )
    bc = _fetch(
        _verify(monkeypatch, BROADCAST, dfd, cand, "wjaccard", 0.35,
                "wjaccard", 8, n_docs=n_docs),
        "wjaccard",
    )
    cg = _fetch(
        _verify(monkeypatch, COGROUP, dfd, cand, "wjaccard", 0.35,
                "wjaccard", 8, n_docs=n_docs),
        "wjaccard",
    )
    assert len(bc) > 0
    pd.testing.assert_frame_equal(bc, cg)


def test_hashed_front_matches_string_front(ray_session):
    """gram_df_front (hash-in-batch, int-keyed exchange) must produce the
    same (doc_id, gh, df, dn) multiset as the r4 string-keyed plan."""
    ds = _docs()
    fused = P.gram_df_front(ds, num_parts=8).to_pandas()
    grams = ds.map_batches(ngram_table, batch_format="pyarrow",
                           zero_copy_batch=True)
    legacy = map_partitions_by_key(
        grams, "gram", P.attach_df, num_parts=8
    ).to_pandas()
    cols = ["doc_id", "gh", "df", "dn"]
    a = fused[cols].sort_values(cols, ignore_index=True)
    b = legacy[cols].sort_values(cols, ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_filter_docs_membership():
    t = pa.table(
        {"doc_id": pa.array([1, 2, 3, 5, 8], pa.int64()),
         "gh": pa.array([10, 20, 30, 50, 80], pa.int64())}
    )
    kept = P.filter_docs(t, np.array([2, 5], np.int64))
    assert kept["doc_id"].to_pylist() == [2, 5]
    # empty candidate set keeps nothing; empty table stays empty
    assert P.filter_docs(t, np.empty(0, np.int64)).num_rows == 0
    assert P.filter_docs(t.slice(0, 0), np.array([1], np.int64)).num_rows == 0


def test_candidate_doc_ids_unpacks_pairs():
    pairs = (np.array([1, 1, 4], np.int64) << np.int64(32)) | np.array(
        [7, 9, 7], np.int64
    )
    ct = pa.table({"pair": pa.array(pairs, pa.int64())})
    assert P.candidate_doc_ids(ct).tolist() == [1, 4, 7, 9]
    assert P.candidate_doc_ids(
        pa.table({"pair": pa.array([], pa.int64())})
    ).tolist() == []
