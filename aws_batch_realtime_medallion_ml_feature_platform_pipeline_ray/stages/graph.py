"""Distributed connected components over a pair (edge) dataset.

Hash-to-min style label propagation with per-partition local closure:

- ``labels`` maps every node to the smallest node id known to be in its
  component (rows double as *edges* of the label graph).
- Each round runs TWO keyed exchanges plus a coalesce. The DELIVER
  exchange fuses the three per-round message flows — send rep(u) over
  the original edges to every neighbor, route label rows to their rep's
  partition (swap), and GLOBAL pointer jumping (deliver rep(rep(u))
  back to u) — into one (node, rep, side)-tagged union probed once per
  partition. The MERGE exchange then re-keys the emitted (node, rep)
  rows and each hash partition runs a fully VECTORIZED local transitive
  closure (iterated min + pointer jumping in code space) over every row
  it holds; the result is repartition-coalesced before materializing so
  block counts stay flat across rounds.

The local closure is the accelerator: instead of shaving one hop per
round (O(component diameter) rounds), each partition collapses every
locally-visible chain in one numpy pass, and the global jump halves
CROSS-partition chain depth per round, so even high-diameter graphs
(kNN meshes) converge in O(log d) rounds. This is the hash-to-min
recipe (Rastogi et al., "Finding Connected Components in Map-Reduce in
Logarithmic Rounds") plus explicit pointer jumping, adapted to the
engine's one-shuffle keyed pass.

Size rule (``stages/keyed.py``): when the materialized adjacency is one
block (``sources.reads.one_block``), ONE Ray task runs the local closure
over all of it and yields every node's label; no rounds and no fixpoint
checks run.

Scale shape: the edge set is materialized ONCE (O(duplicate pairs),
bounded by the dup rate, spillable) and streams through each round's
cogroup; only the LABELS relation (O(nodes that appear in any pair))
materializes per round. The fixpoint is detected by the label sum,
which strictly decreases until convergence (labels are monotonically
nonincreasing and bounded below by the component minimum).

Reference parity: cluster-level dedup is the reference's keep-one-per-
group semantics (spark_jobs/silver_and_gold.py dedup) lifted from exact
keys to a similarity graph.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.reads import one_block
from .keyed import cogroup_by_key, map_partitions_by_key, one_task_dataset

CC_MAX_ROUNDS = 30
CC_PART_BYTES = 4 << 20  # adjacency bytes per partition (derived count)


def _empty_labels() -> pa.Table:
    return pa.table(
        {"node": pa.array([], pa.int64()), "rep": pa.array([], pa.int64())}
    )


def _local_closure(x: np.ndarray, y: np.ndarray):
    """Vectorized connected components over in-memory edges (x[i], y[i]).

    Returns (uniq_sorted, lab) where ``uniq_sorted`` is the sorted array
    of distinct node ids and ``lab[i]`` indexes the smallest node id in
    the local component of ``uniq_sorted[i]``. Labels live in *rank*
    space (ranks are id-ordered, so min rank = min id) and always point to
    a root. Each iteration hooks every root to the smallest root across
    its edges, then pointer-jumps each node all the way to its new root;
    it stops when no edge joins two roots. A label only ever points to a
    smaller or equal rank, so the trees have no cycles and the root of a
    component is its minimum. O(E) numpy work per iteration, no Python
    per-edge loop; a few iterations even on long chains with shuffled ids.
    """
    codes, uniq = pd.factorize(np.concatenate([x, y]))
    m = len(uniq)
    order = np.argsort(uniq)
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m, dtype=np.int64)
    uniq_sorted = uniq[order]
    cx = rank[codes[: len(x)]]
    cy = rank[codes[len(x) :]]
    lab = np.arange(m, dtype=np.int64)
    while True:
        lx, ly = lab[cx], lab[cy]
        nxt = lab.copy()
        np.minimum.at(nxt, lx, ly)  # hook roots
        np.minimum.at(nxt, ly, lx)
        while True:  # full pointer jumping: every node to its root
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, lab):
            return uniq_sorted, lab, cx
        lab = nxt


def _closure_part(part: pa.Table, x_col: str, y_col: str) -> pa.Table:
    """Per-partition kernel: rows are edges; emit (node, rep) for every
    distinct value in the PARTITION-KEY position only (values seen only
    on the y side belong to — and are labeled in — their own hash
    partition, keeping the output free of duplicate node rows)."""
    if part.num_rows == 0:
        return _empty_labels()
    x = np.asarray(part[x_col].combine_chunks())
    y = np.asarray(part[y_col].combine_chunks())
    uniq_sorted, lab, cx = _local_closure(x, y)
    own = np.unique(cx)
    return pa.table(
        {
            "node": pa.array(uniq_sorted[own], pa.int64()),
            "rep": pa.array(uniq_sorted[lab[own]], pa.int64()),
        }
    )


def _closure_all(*blocks: pa.Table):
    """Every node's label from the whole adjacency, in one task: the
    adjacency holds both directions, so every node is in the x position."""
    tables = [b for b in blocks if b.num_rows]
    yield _closure_part(pa.concat_tables(tables), "node", "nbr") if tables else _empty_labels()


def connected_components(
    pairs,
    *,
    num_parts: int | None = None,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
):
    """Labels every node of the undirected pair graph with the smallest
    node id in its component. Returns a Dataset of (node, rep).

    ``num_parts=None`` derives the count from the MATERIALIZED adjacency
    bytes (exact, known before the first exchange): iterative round cost
    grows with partition count while per-partition closure work shrinks,
    so a small graph wants FEW partitions — each round's local closure
    then collapses more of the component in one numpy pass and the
    cross-partition diameter (= rounds) drops. One partition per ~4 MiB
    of adjacency, floored at 1, capped by the cluster-scale derivation
    (stages/keyed.derive_num_parts) so huge graphs still spread.

    An adjacency of one block is labelled in one task with no rounds
    (module docstring, "Size rule"); ``num_parts`` then plays no part."""

    def to_adj(t: pa.Table) -> pa.Table:
        a = np.asarray(t[a_col].combine_chunks())
        b = np.asarray(t[b_col].combine_chunks())
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), pa.int64()),
                "nbr": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    # materialized ONCE: consumed by every round; lazy would re-execute
    # the whole upstream (e.g. MinHash+verify) per round
    adj = pairs.map_batches(
        to_adj, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    adj_bytes = adj.size_bytes() or 0  # materialized: exact, free
    if one_block(adj_bytes):
        return one_task_dataset(_closure_all, *adj.to_arrow_refs())

    if num_parts is None:
        from .keyed import derive_num_parts

        num_parts = max(
            1,
            min(
                derive_num_parts(adj_bytes),
                -(-adj_bytes // CC_PART_BYTES),
            ),
        )

    # init: local closure straight over the adjacency rows — every node
    # appears in the x position (adj holds both directions), so this
    # yields one label row per node with all partition-local chains
    # already collapsed.
    labels = map_partitions_by_key(
        adj,
        "node",
        lambda p: _closure_part(p, "node", "nbr"),
        num_parts=num_parts,
    ).materialize()

    # --- fused round: ONE 3-way keyed exchange delivers send + jump ----
    # The three per-round message flows all probe the labels relation
    # keyed by node, so they ride a single exchange: adjacency rows
    # (side 0, rep column = neighbor), label rows (side 1) and
    # pointer-jump queries (side 2: node = rep(u), rep column = u, i.e.
    # "tell u the rep of its current rep") are unioned into one
    # (node, rep, side) stream, hash-exchanged once, and each partition
    # emits msgs + jumped + its own labels + swapped rows in one pass.
    # Round cost drops from three keyed exchanges to two (deliver,
    # merge) — measured 38.8 s → ~20 s on the sf0.01 mutual-kNN CC.
    SIDE_ADJ, SIDE_LAB, SIDE_JQ = 0, 1, 2

    def tag(side: int, x_col: str, y_col: str):
        def _tag(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t[x_col].cast(pa.int64()),
                    "rep": t[y_col].cast(pa.int64()),
                    "side": pa.array(
                        np.full(t.num_rows, side, dtype=np.int8)
                    ),
                }
            )

        return _tag

    def deliver(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return _empty_labels()
        side = np.asarray(part["side"].combine_chunks())
        node = np.asarray(part["node"].combine_chunks())
        rep = np.asarray(part["rep"].combine_chunks())
        lab_m = side == SIDE_LAB
        bn, br = node[lab_m], rep[lab_m]
        o = np.argsort(bn)
        bn, br = bn[o], br[o]
        adj_m = side == SIDE_ADJ
        n, nb = node[adj_m], rep[adj_m]
        outs_n: list[np.ndarray] = [bn, br]   # labels + swapped(rep->node)
        outs_r: list[np.ndarray] = [br, bn]
        if len(n):
            pos = np.searchsorted(bn, n)
            # labels must cover every adj node; a violated invariant
            # would otherwise silently propagate a NEIGHBOR's rep
            if len(bn) == 0 or pos.max() >= len(bn) or not np.array_equal(
                bn[pos], n
            ):
                raise RuntimeError(
                    "connected-components invariant violated: labels "
                    "table is missing nodes present in the adjacency "
                    "partition"
                )
            outs_n.append(nb)        # deliver rep(u) to every neighbor
            outs_r.append(br[pos])
        jq_m = side == SIDE_JQ
        qk, qn = node[jq_m], rep[jq_m]
        if len(qk) and len(bn):
            pos = np.searchsorted(bn, qk)
            pos_c = np.minimum(pos, len(bn) - 1)
            hit = bn[pos_c] == qk  # a rep without a label row yet: skip
            outs_n.append(qn[hit])   # GLOBAL pointer jump: rep(rep(u))->u
            outs_r.append(br[pos_c][hit])
        return pa.table(
            {
                "node": pa.array(np.concatenate(outs_n), pa.int64()),
                "rep": pa.array(np.concatenate(outs_r), pa.int64()),
            }
        )

    adj_tagged = adj.map_batches(
        tag(SIDE_ADJ, "node", "nbr"), batch_format="pyarrow",
        zero_copy_batch=True,
    )

    prev_sum = None
    for _ in range(CC_MAX_ROUNDS):
        cur_sum = labels.sum("rep")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
        lab_tagged = labels.map_batches(
            tag(SIDE_LAB, "node", "rep"), batch_format="pyarrow",
            zero_copy_batch=True,
        )
        jq_tagged = labels.map_batches(
            tag(SIDE_JQ, "rep", "node"), batch_format="pyarrow",
            zero_copy_batch=True,
        )
        delivered = map_partitions_by_key(
            adj_tagged.union(lab_tagged).union(jq_tagged),
            "node",
            deliver,
            num_parts=num_parts,
        )
        # repartition BEFORE materializing: unions multiply block count
        # every round and the groupby sort preserves it, so without the
        # coalesce blocks grow geometrically and round cost explodes
        # with pure scheduling overhead (measured 1.4 s → 383 s by
        # round 6 on a 500-node kNN graph)
        labels = (
            map_partitions_by_key(
                delivered,
                "node",
                lambda p: _closure_part(p, "node", "rep"),
                num_parts=num_parts,
            )
            .repartition(num_parts)
            .materialize()
        )
    return labels


# ---------------------------------------------------------------------------
# PageRank (integer-exact, constant out-degree)
# ---------------------------------------------------------------------------

def pagerank_constant_outdegree(
    edges,
    nodes,
    *,
    k_out: int,
    iters: int,
    num_parts: int | None = None,
    scale: int = 1 << 38,
    damp_num: int = 85,
    damp_den: int = 100,
):
    """Distributed PageRank over a directed graph in which EVERY source
    node has exactly ``k_out`` out-edges (a kNN similarity graph) —
    centrality-based data selection: high-rank rows sit in dense
    semantic neighborhoods, low-rank rows are outliers.

    Integer-exact so an unrolled-CTE SQL twin reproduces it bit-for-bit:
    ``rank_0 = scale`` and

        rank_{t+1}(v) = ((den-num)*scale)//den
                        + (num * sum_{(u,v) in E} rank_t(u)//k_out)//den

    with floor division throughout (all values nonnegative, so numpy
    ``//`` and DuckDB ``//`` agree). No floats anywhere, so there is no
    summation-order sensitivity to begin with.

    Scale shape: the edge set is materialized ONCE and streamed through
    each round; per iteration exactly TWO keyed exchanges (contributions
    routed to their dst partition; per-node sums folded against the
    vertex set). The rank relation — O(nodes) — is the only thing that
    rematerializes per round; nothing is ever broadcast.

    ``edges``: Dataset with columns (src, dst); every src must appear in
    ``nodes`` and have exactly ``k_out`` rows. ``nodes``: Dataset with
    column (node) — the complete vertex set, and must be non-empty.
    Returns a Dataset (node, rank) with rank still in scaled-integer
    form.
    """
    base = ((damp_den - damp_num) * scale) // damp_den

    edges = edges.map_batches(
        lambda t: pa.table(
            {
                "node": t["src"].cast(pa.int64()),
                "dst": t["dst"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    ranks = nodes.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"].cast(pa.int64()),
                "rank": pa.array(
                    np.full(t.num_rows, scale, dtype=np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    if num_parts is None:
        # same sizing rule as connected_components: iterative round cost
        # grows with partition count, so size from the materialized edge
        # bytes (exact) — small graphs collapse to few partitions
        from .keyed import derive_num_parts

        eb = edges.size_bytes() or 0
        num_parts = max(
            1, min(derive_num_parts(eb), -(-eb // CC_PART_BYTES))
        )

    def emit_contribs(lpart: pa.Table, rpart: pa.Table) -> pa.Table:
        """lpart: edges of this src-partition; rpart: ranks of the same
        partition (complete by co-hashing on the src node)."""
        import pyarrow.compute as pc

        if lpart.num_rows == 0:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        idx = pc.index_in(
            lpart["node"].combine_chunks(),
            value_set=rpart["node"].combine_chunks(),
        )
        idx_np = np.asarray(idx.fill_null(-1)).astype(np.int64)
        if (idx_np < 0).any():
            raise ValueError("pagerank: edge src missing from vertex set")
        rk = np.asarray(rpart["rank"].combine_chunks()).astype(np.int64)
        return pa.table(
            {
                "node": lpart["dst"],
                "c": pa.array(rk[idx_np] // k_out, pa.int64()),
            }
        )

    def fold_ranks(lpart: pa.Table, rpart: pa.Table) -> pa.Table:
        """lpart: current ranks (carries the vertex set); rpart: contribs."""
        import pyarrow.compute as pc

        if lpart.num_rows == 0:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        node_arr = lpart["node"].combine_chunks()
        insum = np.zeros(lpart.num_rows, dtype=np.int64)
        if rpart.num_rows:
            g = rpart.group_by("node").aggregate([("c", "sum")])
            idx = pc.index_in(node_arr, value_set=g["node"].combine_chunks())
            idx_np = np.asarray(idx.fill_null(-1)).astype(np.int64)
            sums = np.asarray(g["c_sum"].combine_chunks()).astype(np.int64)
            hit = idx_np >= 0
            insum[hit] = sums[idx_np[hit]]
        rank = base + (damp_num * insum) // damp_den
        return pa.table(
            {
                "node": node_arr,
                "rank": pa.array(rank, pa.int64()),
            }
        )

    for _ in range(iters):
        contribs = cogroup_by_key(
            edges, ranks, "node", emit_contribs, num_parts=num_parts
        )
        ranks = cogroup_by_key(
            ranks, contribs, "node", fold_ranks, num_parts=num_parts
        ).materialize()
    return ranks


def pagerank_broadcast_ranks(
    edges,
    nodes,
    *,
    k_out: int,
    iters: int,
    scale: int = 1 << 38,
    damp_num: int = 85,
    damp_den: int = 100,
):
    """Fast-path PageRank for graphs whose RANK VECTOR fits memory
    (VERDICT r3 §next-5): identical integer-exact recurrence as
    :func:`pagerank_constant_outdegree`, but the edge relation is
    materialized ONCE and never re-shuffled — each round is a pure
    map over the resident edge blocks against a ``ray.put`` rank vector
    (per-block contribution partials pre-aggregated by dst), folded on
    the driver in O(nodes).

    Scale contract: O(nodes) driver/object-store memory for the rank
    vector (16 B/node — 1e9 nodes = 16 GB: fine on a head node, and far
    below the O(edges) that moves per round in the cogroup plan). For
    rank vectors beyond memory, use :func:`pagerank_constant_outdegree`
    (two keyed exchanges per round, nothing broadcast) — same outputs
    bit for bit (tests/test_graph_pagerank_fast.py).
    """
    import ray

    base = ((damp_den - damp_num) * scale) // damp_den

    node_tbls = [
        t
        for t in ray.get(
            nodes.map_batches(
                lambda t: pa.table({"node": t["node"].cast(pa.int64())}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).to_arrow_refs()
        )
        if t.num_rows
    ]
    node_ids = np.sort(
        np.unique(
            np.concatenate(
                [np.asarray(t["node"].combine_chunks()) for t in node_tbls]
            )
        )
    )
    n = len(node_ids)
    if n == 0:
        raise ValueError("pagerank: empty vertex set")
    rank = np.full(n, scale, dtype=np.int64)

    eds = edges.map_batches(
        lambda t: pa.table(
            {
                "src": t["src"].cast(pa.int64()),
                "dst": t["dst"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    ids_ref = ray.put(node_ids)

    for _ in range(iters):
        rank_ref = ray.put(rank)

        def contrib(t: pa.Table, _r=rank_ref, _i=ids_ref) -> pa.Table:
            ids = ray.get(_i)
            rk = ray.get(_r)
            src = np.asarray(t["src"].combine_chunks())
            dst = np.asarray(t["dst"].combine_chunks())
            pos = np.searchsorted(ids, src)
            if len(pos) and (
                (pos >= len(ids)).any()
                or (ids[np.minimum(pos, len(ids) - 1)] != src).any()
            ):
                raise ValueError("pagerank: edge src missing from vertex set")
            c = rk[pos] // k_out
            # per-block combiner: one row per distinct dst
            inv, uniq = pd.factorize(dst)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv, c)
            return pa.table(
                {"node": pa.array(uniq, pa.int64()),
                 "c": pa.array(sums, pa.int64())}
            )

        partials = [
            t
            for t in ray.get(
                eds.map_batches(
                    contrib, batch_format="pyarrow", zero_copy_batch=True
                ).to_arrow_refs()
            )
            if t.num_rows
        ]
        insum = np.zeros(n, dtype=np.int64)
        for t in partials:
            nd = np.asarray(t["node"].combine_chunks())
            cc = np.asarray(t["c"].combine_chunks())
            pos = np.searchsorted(node_ids, nd)
            # mirror the src check: a dst absent from the vertex set must
            # fail loudly, not credit the insertion-point node
            if len(pos) and (
                (pos >= n).any()
                or (node_ids[np.minimum(pos, n - 1)] != nd).any()
            ):
                raise ValueError("pagerank: edge dst missing from vertex set")
            np.add.at(insum, pos, cc)
        rank = base + (damp_num * insum) // damp_den

    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {"node": pa.array(node_ids, pa.int64()),
             "rank": pa.array(rank, pa.int64())}
        )
    )
