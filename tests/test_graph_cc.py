"""Connected-components core: deep chains (pointer-jumping path),
stars, and multi-component graphs, checked against a union-find oracle."""

import numpy as np
import pyarrow as pa
import pytest
from test_stream_plans import force_exchange


def _cc_oracle(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in parent}


def _shuffled_chain(n):
    """A path over ``n`` shuffled ids: edge-min label propagation moves a
    label about one hop per iteration along it (540 iterations at n=1000)."""
    ids = np.random.default_rng(0).permutation(n)
    return [(int(a), int(b)) for a, b in zip(ids[:-1], ids[1:])]


def _run_cc(ray_session, edges, num_parts=8):
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
        connected_components,
    )

    a = pa.array([e[0] for e in edges], pa.int64())
    b = pa.array([e[1] for e in edges], pa.int64())
    pairs = rd.from_arrow(pa.table({"doc_a": a, "doc_b": b}))
    out = connected_components(pairs, num_parts=num_parts).to_pandas()
    return dict(zip(out["node"], out["rep"]))


def test_local_closure_pure_numpy():
    """_local_closure without Ray: random graphs of several densities vs
    the union-find oracle, plus the adversarial deep-chain case that
    exercises the pointer-jumping bound."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
        _local_closure,
    )

    rng = np.random.default_rng(7)
    cases = []
    for n, m in [(10, 4), (50, 30), (200, 120), (300, 600)]:
        e = rng.integers(0, n, (m, 2))
        cases.append([(int(a), int(b)) for a, b in e])
    cases.append([(i, i + 1) for i in range(500)])  # depth-500 chain
    cases.append([(i + 1, i) for i in range(500)])  # reversed orientation
    cases.append([(0, 0), (5, 5)])  # self loops only
    cases.append(_shuffled_chain(1000))
    for edges in cases:
        x = np.array([a for a, _ in edges], dtype=np.int64)
        y = np.array([b for _, b in edges], dtype=np.int64)
        uniq_sorted, lab, cx = _local_closure(x, y)
        assert np.array_equal(uniq_sorted, np.unique(np.concatenate([x, y])))
        got = dict(zip(uniq_sorted.tolist(), uniq_sorted[lab].tolist()))
        assert got == _cc_oracle(edges)
        # cx indexes the x-side rows back into uniq_sorted
        assert np.array_equal(uniq_sorted[cx], x)


def test_popcount64_pure_numpy():
    """SWAR popcount vs Python's int.bit_count over edge values and a
    random uint64 sweep."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries_text import (
        _popcount64,
    )

    edge = np.array(
        [0, 1, 2, 3, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000,
         0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 0x0123456789ABCDEF],
        dtype=np.uint64,
    )
    rng = np.random.default_rng(13)
    rand = rng.integers(0, 2**63, 4096, dtype=np.int64).astype(np.uint64)
    rand |= rng.integers(0, 2, 4096, dtype=np.uint64) << np.uint64(63)
    for arr in (edge, rand):
        got = _popcount64(arr)
        want = np.array([int(v).bit_count() for v in arr], dtype=np.int64)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    # int64 input (signed view of the same bits) must give identical counts
    assert np.array_equal(_popcount64(rand.view(np.int64)), _popcount64(rand))


def test_cc_long_chain(ray_session, monkeypatch):
    """A 40-node path: plain propagation would need ~40 rounds, past
    CC_MAX_ROUNDS (30) — only the pointer-jumping path converges. A star,
    a random component, and an isolated pair ride along so ONE Ray run
    covers all shapes (each CC round costs real keyed exchanges, so tests
    are merged rather than paying the round loop per shape). The graph is
    one block, so the round loop is forced by shrinking SMALL_BLOCK."""
    force_exchange(monkeypatch)
    edges = [(i, i + 1) for i in range(40)]
    edges += [(100, i) for i in range(101, 110)]  # star centered at 100
    edges += [(1000, 2000)]  # isolated pair
    rng = np.random.default_rng(11)
    edges += [
        tuple(sorted(e + 5000))
        for e in rng.integers(0, 60, (50, 2))
        if e[0] != e[1]
    ]
    got = _run_cc(ray_session, edges)
    assert got == _cc_oracle(edges)


@pytest.mark.parametrize("plan", ["one_task", "exchange"])
def test_cc_shuffled_chain(ray_session, monkeypatch, plan):
    """connected_components on a 999-edge path over shuffled ids, with the
    derived partition count, on both plans."""
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
        connected_components,
    )

    if plan == "exchange":
        force_exchange(monkeypatch)
    edges = _shuffled_chain(1000)
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], pa.int64()),
        "doc_b": pa.array([b for _, b in edges], pa.int64()),
    }))
    out = connected_components(pairs).to_pandas()
    assert sorted(out["node"]) == list(range(1000))
    assert (out["rep"] == 0).all()


# ---------------------------------------------------------------------------
# integer-exact PageRank
# ---------------------------------------------------------------------------

def test_pagerank_cycle_exact(ray_session):
    """3-cycle with k_out=1: ranks follow the exact integer recurrence."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
        pagerank_constant_outdegree,
    )

    edges = rd.from_arrow(
        pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                  "dst": pa.array([1, 2, 0], pa.int64())})
    )
    nodes = rd.from_arrow(pa.table({"node": pa.array([0, 1, 2], pa.int64())}))
    scale = 1 << 20
    out = pagerank_constant_outdegree(
        edges, nodes, k_out=1, iters=3, num_parts=4, scale=scale
    ).to_pandas().sort_values("node")

    r = {n: scale for n in range(3)}
    base = (15 * scale) // 100
    for _ in range(3):
        r = {v: base + (85 * r[(v - 1) % 3]) // 100 for v in range(3)}
    assert list(out["rank"]) == [r[0], r[1], r[2]]


def test_pagerank_star_concentrates(ray_session):
    """Star: the hub ends above scale, the leaves below; every rank has
    at least the teleport floor."""
    import pyarrow as pa
    import ray.data as rd

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.graph import (
        pagerank_constant_outdegree,
    )

    # leaves 1..4 all point at hub 0; hub points at leaf 1 (k_out=1 all)
    edges = rd.from_arrow(
        pa.table({"src": pa.array([1, 2, 3, 4, 0], pa.int64()),
                  "dst": pa.array([0, 0, 0, 0, 1], pa.int64())})
    )
    nodes = rd.from_arrow(
        pa.table({"node": pa.array([0, 1, 2, 3, 4], pa.int64())})
    )
    scale = 1 << 20
    out = (
        pagerank_constant_outdegree(
            edges, nodes, k_out=1, iters=3, num_parts=4, scale=scale
        )
        .to_pandas()
        .set_index("node")["rank"]
    )
    base = (15 * scale) // 100
    assert out[0] > scale  # hub concentrates mass
    assert out[2] == out[3] == out[4] == base  # sink leaves: teleport only
    assert (out >= base).all()
