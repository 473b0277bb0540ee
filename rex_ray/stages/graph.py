"""Graph analytics over the materialized triple store.

The canonical entity graph (nodes = canonical entities, undirected
edges = subj—obj co-occurrence) is the "graph materialize" half of the
north rule.  Beyond the degree view (``stages/aggregate.entity_degrees``)
this module provides distributed triangle counting and fixed-iteration
PageRank, both expressed as Ray Data groupby/join dataflows — no driver
materialization of nodes or edges.

Triangle counting follows the degree-ordered wedge pattern (Suri &
Vassilvitskii, "Counting triangles and the curse of the last reducer",
WWW 2011): orient every edge from its lower-(degree, id) endpoint,
generate wedges per source node, and close them with one hash join
against the oriented edge set.  The orientation bounds per-node wedge
fan-out by O(sqrt(m)) regardless of raw degree skew — the hub that
would otherwise emit deg^2 wedges emits almost none, because nearly all
its edges point INTO it.

Routing: like the flagship's canonicalization (pipelines/kg.py), every
op here is guarded by a COUNT-only cardinality check on the deduped
edge set (the count is metadata-cheap — the edge Dataset is already
materialized for join-partition sizing).  At or below
``DRIVER_GRAPH_MAX_EDGES`` distinct edges the graph is a sliver by
cluster standards and each Pregel superstep would be pure Ray-job
spin-up, so the op runs on an exact driver twin; above it, the
distributed groupby/join dataflow runs and the driver never holds
nodes or edges.  Both engines are equality-asserted in tests
(tests/test_graph_routing.py) and the distributed dataflow keeps its
own unit coverage via ``max_driver_edges=0``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray.functions.blocks import arrow_block, compact_blocks, pre_shuffle
from rex_ray.functions.routing import DRIVER_SLIVER_MAX_ROWS, route_driver
from rex_ray.stages.relational import hash_join


_EDGE_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])

# Graphs at or below this many DISTINCT undirected edges run on the
# exact driver twin instead of the multi-superstep shuffle dataflow —
# the shared sliver-vs-cluster cut (functions/routing.py), and small
# enough that even the driver triangle counter's worst case
# (O(sum over edges of min-degree)) stays in the tens of millions of
# set operations.  Pass ``max_driver_edges=0`` to force the
# distributed route, or a larger bound on a fat-driver deployment.
DRIVER_GRAPH_MAX_EDGES = DRIVER_SLIVER_MAX_ROWS


def _route_driver(n_edges: int, max_driver_edges, route_out) -> bool:
    """COUNT-only route decision shared by every graph op; records the
    route + cardinality in ``route_out`` under the graph-specific keys
    (``graph_route``, ``n_edges``) for observability/tests."""
    driver = route_driver(
        n_edges, max_driver_edges, route_out, key="graph_route"
    )
    if route_out is not None:
        route_out["n_edges"] = route_out.pop("n_rows")
    return driver


def _edge_pairs(edges_ds) -> list:
    """Fetch a guard-bounded deduped edge Dataset to the driver as
    (a, b) string tuples."""
    df = edges_ds.to_pandas()
    return list(zip(df["a"].astype(str), df["b"].astype(str)))


def _undirected_edges(edges_ds):
    """Canonicalize to distinct (a < b) string edges, dropping loops,
    materialized (the count is metadata-cheap).  Ids are cast to string
    so one code path serves entity surfaces and integer doc ids alike
    (and every block carries a stable schema)."""
    def canon(t: pa.Table) -> pa.Table:
        a = np.asarray([str(x) for x in t["a"].to_pylist()], dtype=object)
        b = np.asarray([str(x) for x in t["b"].to_pylist()], dtype=object)
        keep = a != b
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        df = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return arrow_block(df, schema=_EDGE_SCHEMA)

    from ray.data.aggregate import Count

    dedup = (
        pre_shuffle(edges_ds.map_batches(canon, batch_format="pyarrow"))
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["a", "b"])
    )
    # coalesces small blocks: the groupby emits one block per shuffle
    # partition (200 by default) and each per-op edge UDF downstream
    # would otherwise run one task per block
    return compact_blocks(dedup).materialize()


def triangle_counts(edges_ds, max_driver_edges: int = None,
                    route_out: dict = None):
    """Per-node triangle participation over an undirected edge list
    (columns ``a``, ``b``).  Returns (entity_id, n_triangles), nodes in
    >=1 triangle only.

    Dataflow: dedup edges -> degree table -> orient by (degree, id)
    rank via one broadcast-free join per endpoint -> wedges per source
    (bounded by orientation) -> close wedges against the edge set with
    a hash join on the composite key -> explode 3 nodes per triangle ->
    partial-count shuffle.
    """
    from ray.data.aggregate import Count, Sum

    edges = _undirected_edges(edges_ds)
    n_edges = edges.count()

    _empty_out = pa.schema(
        [("entity_id", pa.string()), ("n_triangles", pa.int64())]
    ).empty_table()
    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(_empty_out)
    if _route_driver(n_edges, max_driver_edges, route_out):
        import ray.data as rd

        counts = triangle_counts_local(_edge_pairs(edges))
        ids = sorted(counts)
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array(ids, pa.string()),
                    "n_triangles": pa.array(
                        [counts[i] for i in ids], pa.int64()
                    ),
                }
            )
            if ids
            else _empty_out
        )

    # degree per node (partial counts per batch -> one slim shuffle)
    def deg_rows(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table({"node": ids})
            .group_by("node")
            .aggregate([("node", "count")])
            .rename_columns(["node", "deg"])
        )

    degrees = (
        pre_shuffle(edges.map_batches(deg_rows, batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
    )

    # orient: join degree onto both endpoints, keep u -> v where
    # (deg_u, u) < (deg_v, v)
    da = degrees.map_batches(
        lambda t: pa.table({"a": t["node"], "deg_a": t["deg"]}),
        batch_format="pyarrow",
    )
    db = degrees.map_batches(
        lambda t: pa.table({"b": t["node"], "deg_b": t["deg"]}),
        batch_format="pyarrow",
    )
    with_deg = hash_join(
        hash_join(edges, da, on="a", rows=n_edges), db, on="b", rows=n_edges
    )

    def orient(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        fwd = (df["deg_a"] < df["deg_b"]) | (
            (df["deg_a"] == df["deg_b"]) & (df["a"] < df["b"])
        )
        u = np.where(fwd, df["a"], df["b"])
        v = np.where(fwd, df["b"], df["a"])
        return arrow_block(
            pd.DataFrame({"u": u, "v": v}),
            schema=pa.schema([("u", pa.string()), ("v", pa.string())]),
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow")

    # wedges per source: for u with oriented neighbors {v1..vk}, every
    # unordered neighbor pair is a wedge candidate keyed like an edge
    def wedges(g: pd.DataFrame) -> pa.Table:
        vs = np.sort(g["v"].to_numpy(dtype="U"))
        if len(vs) < 2:
            return pa.table(
                {"u": pa.array([], pa.string()),
                 "k": pa.array([], pa.string())}
            )
        u = g["u"].iloc[0]
        i, j = np.triu_indices(len(vs), k=1)
        ks = np.char.add(np.char.add(vs[i], "\x1f"), vs[j])
        return pa.table({"u": pa.array([u] * len(ks)), "k": pa.array(ks)})

    # materialize: wedge rows are the shuffle input of the closure join
    # anyway (pre_shuffle pattern), and the count() guards the join
    # against a zero-row wedge side (triangle-free graph)
    wedge_ds = oriented.groupby("u").map_groups(
        wedges, batch_format="pandas"
    ).materialize()
    if wedge_ds.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_empty_out)

    # close: wedge (v,w) is a triangle iff (v,w) is an edge (canonical
    # a<b order matches the sorted wedge key by construction)
    def edge_key_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "k": pc.binary_join_element_wise(
                    t["a"].combine_chunks().cast(pa.string()),
                    t["b"].combine_chunks().cast(pa.string()),
                    "\x1f",
                )
            }
        )

    edge_keys = edges.map_batches(edge_key_rows, batch_format="pyarrow")
    closed = hash_join(wedge_ds, edge_keys, on="k", rows=n_edges)

    # explode the 3 corners, partial-count, final shuffle
    def corners(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = pc.split_pattern(t["k"].combine_chunks(), "\x1f")
        nodes = pa.concat_arrays(
            [t["u"].combine_chunks(), parts.flatten()]
        )
        return (
            pa.table({"entity_id": nodes.cast(pa.string())})
            .group_by("entity_id")
            .aggregate([("entity_id", "count")])
            .rename_columns(["entity_id", "n_triangles"])
        )

    return (
        pre_shuffle(closed.map_batches(corners, batch_format="pyarrow"))
        .groupby("entity_id")
        .aggregate(Sum("n_triangles", alias_name="n_triangles"))
    )


def triangle_counts_local(edges) -> dict:
    """Driver-side brute force over an edge iterable — the test twin."""
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj: dict = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out: dict = {}
    for a, b in es:
        for c in adj[a] & adj[b]:
            for n in (a, b, c):
                out[n] = out.get(n, 0) + 1
    # each triangle is detected once per edge (3x) and each detection
    # increments all 3 corners, so every node gets +3 per triangle
    return {k: v // 3 for k, v in out.items()}


def pagerank(edges_ds, num_iters: int = 3, damping: float = 0.85,
             max_driver_edges: int = None, route_out: dict = None):
    """Fixed-iteration PageRank over an undirected edge list (columns
    ``a``, ``b``) — returns (entity_id, pr) with ``pr`` rounded to 8
    decimals so the double sums (whose addition order differs between
    engines by ~1 ulp) compare exactly against a SQL oracle.

    Dataflow (one bulk-synchronous step per iteration, the standard
    Pregel formulation): symmetrize edges -> degree table -> adjacency
    with source degree attached (built ONCE, materialized) -> per
    iteration: join current ranks onto adjacency by source, emit
    rank/deg messages, partial-sum per batch, one groupby per
    iteration.  The rank table is O(nodes) — the only per-iteration
    shuffle weight is messages O(edges), and the join input is the
    rank table, never the raw graph.
    """
    from ray.data.aggregate import Sum

    edges = _undirected_edges(edges_ds)
    n_edges = edges.count()

    out_schema = pa.schema([("entity_id", pa.string()), ("pr", pa.float64())])
    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    if _route_driver(n_edges, max_driver_edges, route_out):
        import ray.data as rd

        ranks_d = pagerank_local(
            _edge_pairs(edges), num_iters=num_iters, damping=damping
        )
        ids = sorted(ranks_d)
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array(ids, pa.string()),
                    "pr": pa.array([ranks_d[i] for i in ids], pa.float64()),
                }
            )
        )

    def both_dirs(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        v = pa.concat_arrays(
            [t["b"].combine_chunks(), t["a"].combine_chunks()]
        )
        return pa.table({"u": u, "v": v})

    directed = edges.map_batches(both_dirs, batch_format="pyarrow")

    def deg_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table({"u": t["u"]})
            .group_by("u")
            .aggregate([("u", "count")])
            .rename_columns(["u", "deg"])
        )

    degrees = (
        pre_shuffle(directed.map_batches(deg_rows, batch_format="pyarrow"))
        .groupby("u")
        .aggregate(Sum("deg", alias_name="deg"))
        .materialize()
    )
    n_nodes = degrees.count()

    # adjacency with source degree, built once and reused per iteration
    adj = hash_join(directed, degrees, on="u", rows=n_edges).materialize()

    init = 1.0 / n_nodes
    ranks = degrees.map_batches(
        lambda t, _r=init: pa.table(
            {"u": t["u"], "r": pa.array([_r] * t.num_rows, pa.float64())}
        ),
        batch_format="pyarrow",
    )

    teleport = (1.0 - damping) / n_nodes
    for _ in range(num_iters):
        msgs = hash_join(adj, ranks, on="u", rows=n_edges)

        def msg_partials(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            w = pc.divide(t["r"], pc.cast(t["deg"], pa.float64()))
            return (
                pa.table({"u": t["v"], "w": w})
                .group_by("u")
                .aggregate([("w", "sum")])
                .rename_columns(["u", "w"])
            )

        summed = (
            pre_shuffle(msgs.map_batches(msg_partials, batch_format="pyarrow"))
            .groupby("u")
            .aggregate(Sum("w", alias_name="w"))
        )
        ranks = summed.map_batches(
            lambda t, _tp=teleport, _d=damping: pa.table(
                {
                    "u": t["u"],
                    "r": pa.array(
                        _tp + _d * t["w"].to_numpy(zero_copy_only=False),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {
                "entity_id": t["u"],
                "pr": pa.array(
                    np.round(t["r"].to_numpy(zero_copy_only=False), 8),
                    pa.float64(),
                ),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def pagerank_local(edges, num_iters: int = 3, damping: float = 0.85) -> dict:
    """Driver-side twin for tests."""
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj: dict = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    n = len(adj)
    if n == 0:
        return {}
    r = {k: 1.0 / n for k in adj}
    for _ in range(num_iters):
        nxt = {}
        for v in adj:
            s = sum(r[u] / len(adj[u]) for u in adj[v])
            nxt[v] = (1.0 - damping) / n + damping * s
        r = nxt
    return {k: round(v, 8) for k, v in r.items()}


def edge_pmi(pairs_ds, weight_col: str = None,
             max_driver_edges: int = None, route_out: dict = None):
    """Pointwise mutual information per co-occurring entity pair:
    ``pmi = ln((c_xy * n) / (c_x * c_y))`` over OCCURRENCES (input rows
    with columns ``a``, ``b``, duplicates = one co-occurrence each, or
    pre-aggregated with an integer ``weight_col`` of occurrence counts;
    loops dropped, pairs canonicalized a < b).  The standard edge
    weighting for association strength in a co-occurrence graph
    (Church & Hanks, CL 1990).

    Output: (entity_a, entity_b, n_cooc, pmi), pmi rounded to 8
    decimals.  Determinism contract with the SQL oracle: the ratio is
    ONE double division of two exact int64 products, and ln of the
    same double on both engines — the only cross-engine wobble is a
    possible last-ulp in ln, absorbed by the rounding.

    Dataflow: canonicalize per occurrence (map) -> pair counts + node
    counts (two partial-agg groupbys) -> attach node counts to pair
    rows via two hash joins -> vectorized pmi.
    """
    from ray.data.aggregate import Sum

    _W_SCHEMA = pa.schema(
        [("a", pa.string()), ("b", pa.string()), ("w", pa.int64())]
    )

    def canon_keep_dups(t: pa.Table) -> pa.Table:
        a = np.asarray([str(x) for x in t["a"].to_pylist()], dtype=object)
        b = np.asarray([str(x) for x in t["b"].to_pylist()], dtype=object)
        w = (
            t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if weight_col is not None
            else np.ones(len(a), dtype=np.int64)
        )
        keep = a != b
        a, b, w = a[keep], b[keep], w[keep]
        return arrow_block(
            pd.DataFrame(
                {"a": np.minimum(a, b), "b": np.maximum(a, b), "w": w}
            ),
            schema=_W_SCHEMA,
        )

    pairs = pairs_ds.map_batches(
        canon_keep_dups, batch_format="pyarrow"
    ).materialize()
    n_total = int(pairs.sum("w") or 0)

    out_schema = pa.schema(
        [
            ("entity_a", pa.string()),
            ("entity_b", pa.string()),
            ("n_cooc", pa.int64()),
            ("pmi", pa.float64()),
        ]
    )
    if n_total == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    # guard on OCCURRENCE rows (what the driver would hold), not the
    # distinct-pair count — conservative for duplicate-heavy inputs
    if _route_driver(pairs.count(), max_driver_edges, route_out):
        import ray.data as rd

        df = pairs.to_pandas()
        ec = (
            df.groupby(["a", "b"], as_index=False)["w"]
            .sum()
            .rename(columns={"w": "c_xy"})
        )
        node = (
            pd.concat(
                [
                    df[["a", "w"]].rename(columns={"a": "node"}),
                    df[["b", "w"]].rename(columns={"b": "node"}),
                ]
            )
            .groupby("node")["w"]
            .sum()
        )
        cxy = ec["c_xy"].to_numpy(dtype=np.int64)
        cx = node.loc[ec["a"]].to_numpy(dtype=np.int64)
        cy = node.loc[ec["b"]].to_numpy(dtype=np.int64)
        # the SAME one-division-of-int-products + ln + round as the
        # distributed finish() — bit-identical across routes
        ratio = (cxy * n_total).astype(np.float64) / (cx * cy).astype(
            np.float64
        )
        return rd.from_arrow(
            pa.table(
                {
                    "entity_a": pa.array(ec["a"], pa.string()),
                    "entity_b": pa.array(ec["b"], pa.string()),
                    "n_cooc": pa.array(cxy, pa.int64()),
                    "pmi": pa.array(np.round(np.log(ratio), 8), pa.float64()),
                }
            )
        )

    def pair_partials(t: pa.Table) -> pa.Table:
        return (
            t.group_by(["a", "b"])
            .aggregate([("w", "sum")])
            .rename_columns(["a", "b", "c_xy"])
        )

    edge_counts = (
        pre_shuffle(pairs.map_batches(pair_partials, batch_format="pyarrow"))
        .groupby(["a", "b"])
        .aggregate(Sum("c_xy", alias_name="c_xy"))
        .materialize()
    )

    def node_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        w = pa.concat_arrays(
            [t["w"].combine_chunks(), t["w"].combine_chunks()]
        )
        return (
            pa.table({"node": ids, "c": w})
            .group_by("node")
            .aggregate([("c", "sum")])
            .rename_columns(["node", "c"])
        )

    node_counts = (
        pre_shuffle(pairs.map_batches(node_partials, batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Sum("c", alias_name="c"))
    )

    ca = node_counts.map_batches(
        lambda t: pa.table({"a": t["node"], "c_a": t["c"]}),
        batch_format="pyarrow",
    )
    cb = node_counts.map_batches(
        lambda t: pa.table({"b": t["node"], "c_b": t["c"]}),
        batch_format="pyarrow",
    )
    with_counts = hash_join(
        hash_join(edge_counts, ca, on="a", rows=n_total),
        cb, on="b", rows=n_total,
    )

    def finish(t: pa.Table) -> pa.Table:
        cxy = t["c_xy"].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = t["c_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        cy = t["c_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        ratio = (cxy * n_total).astype(np.float64) / (cx * cy).astype(
            np.float64
        )
        pmi = np.round(np.log(ratio), 8)
        return pa.table(
            {
                "entity_a": t["a"],
                "entity_b": t["b"],
                "n_cooc": pa.array(cxy, pa.int64()),
                "pmi": pa.array(pmi, pa.float64()),
            }
        )

    return with_counts.map_batches(finish, batch_format="pyarrow")


def shared_neighbor_candidates_local(
    edges, min_shared: int = 2, hot_cap: int = 1000
) -> list:
    """Driver twin: list of (entity_a, entity_b, n_shared, deg_a,
    deg_b) tuples, a < b.  Degrees are FULL degrees; ``hot_cap`` only
    drops hubs as blocking keys, exactly like the distributed wedge
    stage."""
    from itertools import combinations

    es = {tuple(sorted((str(a), str(b)))) for a, b in edges if str(a) != str(b)}
    adj: dict = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts: dict = {}
    for nbrs in adj.values():
        if 2 <= len(nbrs) <= hot_cap:
            for p in combinations(sorted(nbrs), 2):
                counts[p] = counts.get(p, 0) + 1
    return [
        (ea, eb, n, len(adj[ea]), len(adj[eb]))
        for (ea, eb), n in counts.items()
        if n >= min_shared
    ]


def shared_neighbor_candidates(
    edges_ds,
    min_shared: int = 2,
    hot_cap: int = 1000,
    max_driver_edges: int = None,
    route_out: dict = None,
):
    """Entity-merge candidate pairs by neighborhood overlap — the
    blocking step of graph-signature entity resolution (CESI, Vashishth
    et al. WWW'18: canonicalize open-KG entities whose neighborhood
    signatures agree): two canonical entities sharing >=
    ``min_shared`` distinct graph neighbors become merge candidates,
    with both degrees attached so consumers derive Jaccard =
    n_shared / (deg_a + deg_b - n_shared) without a float contract.

    Dataflow: distinct undirected edges -> symmetric incidence rows ->
    one groupby(node) emits each node's neighbor pairs (the wedge
    fan-out, O(deg^2) bounded by ``hot_cap``: hubs above the cap are
    skipped as blocking keys on BOTH engines — a hub shared by
    everything carries no merge signal, the same argument as stop-word
    removal) -> per-pair partial counts -> one slim shuffle -> degree
    attach via two hash joins.  Output:
    (entity_a, entity_b, n_shared, deg_a, deg_b), a < b.
    """
    from ray.data.aggregate import Sum

    import ray.data as rd

    edges = _undirected_edges(edges_ds)
    n_edges = edges.count()

    out_schema = pa.schema(
        [
            ("entity_a", pa.string()),
            ("entity_b", pa.string()),
            ("n_shared", pa.int64()),
            ("deg_a", pa.int64()),
            ("deg_b", pa.int64()),
        ]
    )
    if n_edges == 0:
        return rd.from_arrow(out_schema.empty_table())
    if _route_driver(n_edges, max_driver_edges, route_out):
        rows = shared_neighbor_candidates_local(
            _edge_pairs(edges), min_shared=min_shared, hot_cap=hot_cap
        )
        if not rows:
            return rd.from_arrow(out_schema.empty_table())
        ea, eb, ns, da_, db_ = zip(*rows)
        return rd.from_arrow(
            pa.table(
                {
                    "entity_a": pa.array(ea, pa.string()),
                    "entity_b": pa.array(eb, pa.string()),
                    "n_shared": pa.array(ns, pa.int64()),
                    "deg_a": pa.array(da_, pa.int64()),
                    "deg_b": pa.array(db_, pa.int64()),
                }
            )
        )

    def und_rows(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().cast(pa.string())
        b = t["b"].combine_chunks().cast(pa.string())
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "nb": pa.concat_arrays([b, a]),
            }
        )

    und = edges.map_batches(und_rows, batch_format="pyarrow")

    def deg_rows(t: pa.Table) -> pa.Table:
        return (
            t.select(["node"])
            .group_by("node")
            .aggregate([("node", "count")])
            .rename_columns(["node", "deg"])
        )

    degrees = (
        pre_shuffle(und.map_batches(deg_rows, batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
    )

    _WEDGE = pa.schema([("ea", pa.string()), ("eb", pa.string())])

    def wedges(g: pd.DataFrame) -> pa.Table:
        vs = np.sort(g["nb"].to_numpy(dtype="U"))
        if len(vs) < 2 or len(vs) > hot_cap:
            return _WEDGE.empty_table()
        i, j = np.triu_indices(len(vs), k=1)
        return arrow_block(
            pd.DataFrame({"ea": vs[i], "eb": vs[j]}), schema=_WEDGE
        )

    wedge_ds = (
        pre_shuffle(und)
        .groupby("node")
        .map_groups(wedges, batch_format="pandas")
        .materialize()
    )
    if wedge_ds.count() == 0:
        return rd.from_arrow(out_schema.empty_table())

    def pair_partial(t: pa.Table) -> pa.Table:
        return (
            t.group_by(["ea", "eb"])
            .aggregate([("ea", "count")])
            .rename_columns(["ea", "eb", "n_shared"])
        )

    cand = (
        pre_shuffle(wedge_ds.map_batches(pair_partial, batch_format="pyarrow"))
        .groupby(["ea", "eb"])
        .aggregate(Sum("n_shared", alias_name="n_shared"))
    )

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t["n_shared"], min_shared))

    cand = cand.map_batches(keep, batch_format="pyarrow")

    da = degrees.map_batches(
        lambda t: pa.table({"ea": t["node"], "deg_a": t["deg"]}),
        batch_format="pyarrow",
    )
    db = degrees.map_batches(
        lambda t: pa.table({"eb": t["node"], "deg_b": t["deg"]}),
        batch_format="pyarrow",
    )
    joined = hash_join(
        hash_join(cand, da, on="ea", rows=n_edges), db, on="eb", rows=n_edges
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "entity_a": t["ea"].combine_chunks(),
                "entity_b": t["eb"].combine_chunks(),
                "n_shared": t["n_shared"].combine_chunks(),
                "deg_a": t["deg_a"].combine_chunks(),
                "deg_b": t["deg_b"].combine_chunks(),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def kcore_peel_local(edges, k: int = 2, rounds: int = 3) -> dict:
    """Driver twin of :func:`kcore_peel`: same fixed-round peel with
    the same break-at-fixpoint shortcut, returning {entity_id: deg}
    for nodes alive after ``rounds`` peels (NOT the true k-core when
    ``rounds`` is too small — identical contract to the distributed
    op and the unrolled SQL oracle)."""
    es = {tuple(sorted((str(a), str(b)))) for a, b in edges if str(a) != str(b)}
    for _ in range(rounds):
        if not es:
            return {}
        deg: dict = {}
        for a, b in es:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        alive = {n for n, d in deg.items() if d >= k}
        if not alive:
            return {}
        if len(alive) == len(deg):
            break
        es = {(a, b) for a, b in es if a in alive and b in alive}
    deg = {}
    for a, b in es:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return deg


def kcore_peel(edges_ds, k: int = 2, rounds: int = 3,
               max_driver_edges: int = None, route_out: dict = None):
    """Fixed-round k-core peeling over the undirected entity graph —
    the standard coreness filter for separating the KG's dense
    backbone from noise-tail entities (Seidman 1983; at web scale the
    Pregel-style round-synchronous peel is how k-core runs on Giraph/
    GraphX).  Each round removes every node with current degree < k
    and all its edges; ``rounds`` is fixed (like :func:`pagerank`'s
    fixed supersteps) so the result is deterministic and a DuckDB
    oracle can replay the same number of unrolled rounds — after
    enough rounds this converges to the true k-core (asserted against
    a driver fixpoint twin in tests).

    Per round: one slim degree aggregate + two Bloom-prefiltered exact
    semi-joins (:func:`rex_ray.stages.relational.bloom_semi_join`) to
    keep edges whose BOTH endpoints survive — dropped-majority rounds
    ship only the survivor sliver (plus the alive node ids) through
    the shuffle.  Output:
    (entity_id, deg) for nodes alive after ``rounds`` peels.
    """
    from ray.data.aggregate import Sum

    from rex_ray.stages.relational import bloom_semi_join

    import ray.data as rd

    out_schema = pa.schema([("entity_id", pa.string()), ("deg", pa.int64())])

    edges = _undirected_edges(edges_ds)
    n_edges = edges.count()

    if n_edges == 0:
        return rd.from_arrow(out_schema.empty_table())
    if _route_driver(n_edges, max_driver_edges, route_out):
        deg = kcore_peel_local(_edge_pairs(edges), k=k, rounds=rounds)
        ids = sorted(deg)
        if not ids:
            return rd.from_arrow(out_schema.empty_table())
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array(ids, pa.string()),
                    "deg": pa.array([deg[i] for i in ids], pa.int64()),
                }
            )
        )

    def deg_rows(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [
                t["a"].combine_chunks().cast(pa.string()),
                t["b"].combine_chunks().cast(pa.string()),
            ]
        )
        return (
            pa.table({"node": ids})
            .group_by("node")
            .aggregate([("node", "count")])
            .rename_columns(["node", "deg"])
        )

    def degrees_of(e):
        return (
            pre_shuffle(e.map_batches(deg_rows, batch_format="pyarrow"))
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg"))
        )

    for _ in range(rounds):
        if edges.count() == 0:
            return rd.from_arrow(out_schema.empty_table())
        def keep_alive(t: pa.Table, _k=k) -> pa.Table:
            import pyarrow.compute as pc

            return t.filter(pc.greater_equal(t["deg"], _k)).select(["node"])

        degs = degrees_of(edges).materialize()
        alive = degs.map_batches(
            keep_alive, batch_format="pyarrow"
        ).materialize()
        if alive.count() == 0:
            return rd.from_arrow(out_schema.empty_table())
        if alive.count() == degs.count():
            # fixpoint: no node below k, so this and every later round
            # is the identity — same result as running them (the SQL
            # oracle's extra unrolled rounds are no-ops too)
            break
        kept = bloom_semi_join(
            edges, alive.map_batches(
                lambda t: pa.table({"a": t["node"]}), batch_format="pyarrow"
            ), on="a",
        )
        kept = bloom_semi_join(
            kept, alive.map_batches(
                lambda t: pa.table({"b": t["node"]}), batch_format="pyarrow"
            ), on="b",
        )
        edges = kept.select_columns(["a", "b"]).materialize()

    if edges.count() == 0:
        return rd.from_arrow(out_schema.empty_table())
    return degrees_of(edges).map_batches(
        lambda t: pa.table(
            {
                "entity_id": t["node"].combine_chunks(),
                "deg": t["deg"].combine_chunks(),
            }
        ),
        batch_format="pyarrow",
    )


_TWO_HOP_SCHEMA = pa.schema(
    [("pred1", pa.string()), ("pred2", pa.string()),
     ("n_paths", pa.int64())]
)


def two_hop_pred_paths(store_ds, max_driver_rows: int = None,
                       route_out: dict = None):
    """Two-hop path composition counts over a triple store (columns
    ``subj_id``, ``pred``, ``obj_id``): for every predicate pair
    (p1, p2), the number of entity paths a -p1-> x -p2-> b — the
    first step of AMIE-style path-pattern mining.  Returns
    (pred1, pred2, n_paths), pairs with >= 1 path only.

    Wedge-count dataflow: both sides pre-aggregate to
    (mid, pred, cnt) — one slim count shuffle each — and the join on
    ``mid`` multiplies counts, so per-mid join output is bounded by
    the PREDICATE VOCABULARY squared, not the mid's degree squared.
    A raw self-join of store rows (the first version) explodes on hub
    entities: one mid with 10^5 in- and out-edges emits 10^10 join
    rows; the count composition emits |preds_in| x |preds_out| <= a
    few hundred.  n_paths(p1, p2) = sum over mid of
    c_in(mid, p1) * c_out(mid, p2) — exact, all-integer.

    Routing: the store is materialized (it is the REDUCED output of
    the corpus pipeline), so the row count is one metadata read; at
    or below ``max_driver_rows`` (default
    ``functions.routing.DRIVER_SLIVER_MAX_ROWS``) the same wedge
    composition runs on an exact pandas driver twin.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    store = store_ds.materialize()
    n_rows = store.count()
    if n_rows == 0:
        return rd.from_arrow(_TWO_HOP_SCHEMA.empty_table())
    if route_driver(n_rows, max_driver_rows, route_out):
        df = store.select_columns(
            ["subj_id", "pred", "obj_id"]
        ).to_pandas()
        left = (
            df.groupby(["obj_id", "pred"], sort=False).size()
            .rename("c1").reset_index()
            .rename(columns={"obj_id": "mid", "pred": "pred1"})
        )
        right = (
            df.groupby(["subj_id", "pred"], sort=False).size()
            .rename("c2").reset_index()
            .rename(columns={"subj_id": "mid", "pred": "pred2"})
        )
        m = left.merge(right, on="mid")
        if len(m) == 0:
            return rd.from_arrow(_TWO_HOP_SCHEMA.empty_table())
        m["n_paths"] = m["c1"].to_numpy(np.int64) * m["c2"].to_numpy(
            np.int64
        )
        out = (
            m.groupby(["pred1", "pred2"], sort=False)["n_paths"].sum()
            .reset_index()
        )
        return rd.from_arrow(
            pa.table(
                {
                    "pred1": pa.array(out["pred1"], pa.string()),
                    "pred2": pa.array(out["pred2"], pa.string()),
                    "n_paths": pa.array(
                        out["n_paths"].to_numpy(np.int64), pa.int64()
                    ),
                }
            )
        )

    def side_partial(mid_col: str, pred_out: str):
        def fn(t: pa.Table) -> pa.Table:
            return (
                pa.table(
                    {"mid": t[mid_col].combine_chunks().cast(pa.string()),
                     pred_out: t["pred"].combine_chunks()}
                )
                .group_by(["mid", pred_out])
                .aggregate([([], "count_all")])
                .rename_columns(["mid", pred_out, "c"])
            )

        return fn

    left = (
        pre_shuffle(
            store.map_batches(
                side_partial("obj_id", "pred1"), batch_format="pyarrow"
            )
        )
        .groupby(["mid", "pred1"])
        .aggregate(Sum("c", alias_name="c1"))
    )
    right = (
        pre_shuffle(
            store.map_batches(
                side_partial("subj_id", "pred2"), batch_format="pyarrow"
            )
        )
        .groupby(["mid", "pred2"])
        .aggregate(Sum("c", alias_name="c2"))
    )
    joined = hash_join(left, right, on="mid", rows=n_rows)

    def mul_partial(t: pa.Table) -> pa.Table:
        n = t["c1"].to_numpy(zero_copy_only=False).astype(
            np.int64
        ) * t["c2"].to_numpy(zero_copy_only=False).astype(np.int64)
        return (
            pa.table(
                {"pred1": t["pred1"].combine_chunks(),
                 "pred2": t["pred2"].combine_chunks(),
                 "n_paths": pa.array(n, pa.int64())}
            )
            .group_by(["pred1", "pred2"])
            .aggregate([("n_paths", "sum")])
            .rename_columns(["pred1", "pred2", "n_paths"])
        )

    return (
        pre_shuffle(joined.map_batches(mul_partial, batch_format="pyarrow"))
        .groupby(["pred1", "pred2"])
        .aggregate(Sum("n_paths", alias_name="n_paths"))
    )
