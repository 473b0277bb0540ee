"""Query registry: every implemented operator/pipeline exposed as a
``(sf_dir) -> Dataset`` callable, with an equivalent DuckDB oracle SQL
string where SQL can express the semantics.

Adding a query is one decorator on its callable, here or in
``pipelines/queries_ext.py``::

    @query("kg_mentions", sql=f"SELECT ... FROM mention")  # rows-only: no sql
    def q_kg_mentions(sf_dir: str): ...

The SQL is rendered from the SAME literals in ``pipelines/spec.py`` that
the Ray stages use (gazetteer, predicate map, variant edges, window,
interleaved-synthesis arithmetic), so Ray and oracle cannot drift.

Column names are aligned 1:1 between the Ray result and the SQL (the
driver hash-compares values after sorting columns by name).
"""

from __future__ import annotations

from typing import Callable, Dict

import pandas as pd

from rex_ray.pipelines import spec
from rex_ray.registry import list_registered, register, registered


def query(name: str, sql: str | None = None) -> Callable:
    """Decorator: register the callable as query ``name`` (registry
    namespace ``"query"``) and ``sql``, when given, as its DuckDB
    oracle (namespace ``"oracle_sql"``).  A name registered twice
    raises: a silently shadowed query would drop out of the oracle
    check."""
    if name in list_registered("query"):
        raise ValueError(f"query {name!r} is already registered")

    def deco(fn: Callable) -> Callable:
        register("query", name)(fn)
        if sql is not None:
            register("oracle_sql", name)(sql)
        return fn

    return deco


def queries() -> Dict[str, Callable]:
    import rex_ray.pipelines.queries_ext  # noqa: F401  (registers its half)

    return registered("query")


def oracle_sql() -> Dict[str, str]:
    import rex_ray.pipelines.queries_ext  # noqa: F401

    return registered("oracle_sql")


# --------------------------------------------------------------------------
# shared SQL fragments
# --------------------------------------------------------------------------

def _kg_ctes() -> str:
    """tok / mention / tri CTE chain over the ``documents`` view."""
    return f"""
    tok AS ({spec.SQL_TOKENS}),
    mention AS (
        SELECT t.doc_id, t.pos, t.tok AS surface, gaz.ent_type
        FROM tok t JOIN {spec.sql_gazetteer_values()} ON t.tok = gaz.surface
    ),
    tri AS (
        SELECT h.doc_id,
               h.surface AS subj, h.pos AS subj_pos, h.ent_type AS subj_type,
               t.surface AS obj,  t.pos AS obj_pos,  t.ent_type AS obj_type,
               {spec.sql_pred_case()} AS pred,
               1.0 / (t.pos - h.pos) AS score
        FROM mention h
        JOIN mention t
          ON h.doc_id = t.doc_id
         AND t.pos - h.pos BETWEEN 1 AND {spec.PAIR_WINDOW}
    )"""


def _canon_ctes() -> str:
    """present / edge / reach / canon CTEs (requires WITH RECURSIVE and
    the ``mention`` CTE in scope)."""
    return f"""
    present AS (SELECT DISTINCT surface FROM mention),
    vedge AS (SELECT a, b FROM {spec.sql_variant_edges_values()}),
    edge AS (
        SELECT v.a, v.b FROM vedge v
        JOIN present p1 ON v.a = p1.surface
        JOIN present p2 ON v.b = p2.surface
        UNION ALL
        SELECT v.b, v.a FROM vedge v
        JOIN present p1 ON v.a = p1.surface
        JOIN present p2 ON v.b = p2.surface
    ),
    reach(s, r) AS (
        SELECT surface, surface FROM present
        UNION
        SELECT re.s, e.b FROM reach re JOIN edge e ON re.r = e.a
    ),
    canon AS (
        SELECT s AS surface, '{spec.ENTITY_ID_PREFIX}' || min(r) AS canonical_id
        FROM reach GROUP BY s
    )"""


# --------------------------------------------------------------------------
# queries: each callable under its @query, oracle SQL included (lazy
# imports keep module import cheap and keep Ray out of oracle-only
# contexts)
# --------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns=None):
    import pyarrow.parquet as pq
    import ray.data as rd

    # the generator's parquet carries a pandas metadata dict that makes
    # schemas unhashable, defeating Ray's schema dedup (it warns and
    # keeps one schema copy per block); reading with an explicit
    # metadata-free schema avoids it at the source
    import pyarrow as pa

    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def _docs(sf_dir: str):
    return _read(sf_dir, "documents", columns=["doc_id", "text"])


@query("kg_mentions", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, pos, surface, ent_type FROM mention
""")
def q_kg_mentions(sf_dir: str):
    from rex_ray.stages import extract

    return extract.extract_mentions(_docs(sf_dir))


@query("kg_mention_type_counts", sql=f"""
WITH {_kg_ctes()}
SELECT ent_type, CAST(count(*) AS BIGINT) AS n_mentions
FROM mention GROUP BY ent_type
""")
def q_kg_mention_type_counts(sf_dir: str):
    from ray.data.aggregate import Sum
    from rex_ray.stages import extract

    mentions = extract.extract_mentions(_docs(sf_dir))
    from rex_ray.functions.blocks import arrow_block

    partial = mentions.map_batches(
        lambda b: arrow_block(
            b.groupby("ent_type", sort=False)
            .size()
            .rename("n_mentions")
            .reset_index()
        ),
        batch_format="pandas",
    )
    from rex_ray.functions.blocks import pre_shuffle

    return pre_shuffle(partial).groupby("ent_type").aggregate(
        Sum("n_mentions", alias_name="n_mentions")
    )


@query("kg_triples", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, subj, subj_pos, subj_type, pred, obj, obj_pos, obj_type,
       subj || '{spec.BAG_KEY_SEP}' || obj AS pair_key, score
FROM tri
""")
def q_kg_triples(sf_dir: str):
    from rex_ray.stages import extract

    return extract.extract_triples(_docs(sf_dir))


@query("kg_triple_tiers", sql=f"""
WITH {_kg_ctes()},
tiers AS (SELECT unnest({spec.SCORE_TIERS!r}::DOUBLE[]) AS tier)
SELECT t.tier,
       CAST(count(*) AS BIGINT) AS n_triples,
       CAST(count(DISTINCT tri.pred) AS BIGINT) AS n_predicates
FROM tiers t JOIN tri ON tri.score >= t.tier
GROUP BY t.tier
""")
def q_kg_triple_tiers(sf_dir: str):
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages import extract

    triples = extract.extract_triples(_docs(sf_dir))
    return agg.score_tier_counts(triples, spec.SCORE_TIERS)


@query("kg_bags", sql=f"""
WITH {_kg_ctes()},
bagcnt AS (
    SELECT subj || '{spec.BAG_KEY_SEP}' || obj AS pair_key, pred,
           CAST(count(*) AS BIGINT) AS cnt, max(score) AS mx
    FROM tri GROUP BY 1, 2
),
ranked AS (
    SELECT pair_key, pred, cnt, mx,
           row_number() OVER (PARTITION BY pair_key
                              ORDER BY cnt DESC, pred ASC) AS rn,
           CAST(sum(cnt) OVER (PARTITION BY pair_key) AS BIGINT) AS n_instances,
           max(mx) OVER (PARTITION BY pair_key) AS max_score
    FROM bagcnt
)
SELECT pair_key, pred AS bag_label, n_instances, max_score
FROM ranked WHERE rn = 1
""")
def q_kg_bags(sf_dir: str):
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages import extract

    return agg.aggregate_bags(extract.extract_triples(_docs(sf_dir)))


_CANONICAL_MAP_SQL = f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()}
SELECT surface, canonical_id FROM canon
"""


@query("kg_canonical_map", sql=_CANONICAL_MAP_SQL)
def q_kg_canonical_map(sf_dir: str):
    import ray.data as rd
    from rex_ray.pipelines import kg

    canon = kg.build_canonical_map(_docs(sf_dir))
    return rd.from_items(
        [
            {"surface": s, "canonical_id": c}
            for s, c in sorted(canon.items())
        ]
    )


@query("kg_canonical_map_lp", sql=_CANONICAL_MAP_SQL)
def q_kg_canonical_map_lp(sf_dir: str):
    """The SAME canonical map computed by the DISTRIBUTED route
    (stages/canonical.canonical_labels_from_nodes_ds with the sliver
    fixpoint forced — the code the cardinality guard runs above
    DRIVER_CC_MAX_NODES), against the same recursive-CTE oracle as
    kg_canonical_map: the scale path itself is driver-gate-checked,
    not just equality-tested against the union-find twin."""
    from rex_ray.pipelines import kg
    from rex_ray.stages import canonical as canon
    from rex_ray.stages import extract

    nodes = kg._surface_nodes(extract.extract_mentions(_docs(sf_dir)))
    return canon.canonical_labels_from_nodes_ds(
        nodes, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
        sliver_max_driver_nodes=0,
    ).rename_columns({"node": "surface", "canonical": "canonical_id"})


_TRIPLE_STORE_SQL = f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()}
SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id,
       max(tri.score) AS score, CAST(count(*) AS BIGINT) AS support
FROM tri
JOIN canon cs ON tri.subj = cs.surface
JOIN canon co ON tri.obj = co.surface
GROUP BY 1, 2, 3
"""


@query("kg_triple_store", sql=_TRIPLE_STORE_SQL)
def q_kg_triple_store(sf_dir: str):
    from rex_ray.pipelines import kg

    return kg.triple_store_from_text_docs(_docs(sf_dir))


@query("kg_triple_store_lp", sql=_TRIPLE_STORE_SQL)
def q_kg_triple_store_lp(sf_dir: str):
    """The SAME triple store through the fully-distributed route the
    cardinality guard takes above DRIVER_CC_MAX_NODES surfaces:
    surfaces stay a Dataset, components come from label propagation
    (canonical_labels_from_nodes_ds) and linking is a pair of
    hash-shuffle joins (link_triples_via_join) — no surface list and
    no broadcast dict ever land on the driver.  Checked against the
    same oracle as kg_triple_store, so the scale path itself is
    driver-gate-verified end-to-end (round-3 verdict item #1)."""
    from rex_ray import trace
    from rex_ray.pipelines import kg

    with trace.run() as rec:
        out = kg.triple_store_from_text_docs(
            _docs(sf_dir), max_driver_nodes=0
        )
    assert rec["canonical_route"] == "lp", rec
    return out


@query("kg_triple_store_interleaved", sql=_TRIPLE_STORE_SQL)
def q_kg_triple_store_interleaved(sf_dir: str):
    """Same result as kg_triple_store, but through the full interleaved
    path: synthesize Lance-shaped docs -> validate span sequence ->
    text view -> extract.  Proves the interleaved plumbing end-to-end
    against the same oracle."""
    from rex_ray.pipelines import kg

    return kg.run_flagship(sf_dir)


@query("kg_entity_degrees", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
)
SELECT entity_id,
       CAST(sum(CASE WHEN role = 0 THEN 1 ELSE 0 END) AS BIGINT) AS out_deg,
       CAST(sum(CASE WHEN role = 1 THEN 1 ELSE 0 END) AS BIGINT) AS in_deg
FROM (
    SELECT subj_id AS entity_id, 0 AS role FROM store
    UNION ALL
    SELECT obj_id, 1 FROM store
)
GROUP BY entity_id
""")
def q_kg_entity_degrees(sf_dir: str):
    """Graph view over the materialized store: per-entity in/out
    degree."""
    from rex_ray.pipelines import kg
    from rex_ray.stages.aggregate import entity_degrees

    return entity_degrees(kg.triple_store_from_text_docs(_docs(sf_dir)))


@query("kg_entity_triangles", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2
),
e AS (
    SELECT DISTINCT least(subj_id, obj_id) AS a,
           greatest(subj_id, obj_id) AS b
    FROM store WHERE subj_id != obj_id
),
tris AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM e e1
    JOIN e e2 ON e2.a = e1.b
    JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
)
SELECT entity_id, CAST(count(*) AS BIGINT) AS n_triangles
FROM (
    SELECT x AS entity_id FROM tris
    UNION ALL SELECT y FROM tris
    UNION ALL SELECT z FROM tris
)
GROUP BY entity_id
""")
def q_kg_entity_triangles(sf_dir: str):
    """Distributed triangle counting over the canonical entity graph
    (degree-ordered wedges + edge-closure hash join) — per-entity
    triangle participation."""
    import pyarrow as pa

    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import triangle_counts

    store = kg.triple_store_from_text_docs(_docs(sf_dir))
    edges = store.map_batches(
        lambda t: pa.table({"a": t["subj_id"], "b": t["obj_id"]}),
        batch_format="pyarrow",
    )
    return triangle_counts(edges)


@query("kg_entity_pagerank", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2
),
e AS (
    SELECT DISTINCT least(subj_id, obj_id) AS a,
           greatest(subj_id, obj_id) AS b
    FROM store WHERE subj_id != obj_id
),
dir AS (
    SELECT a AS u, b AS v FROM e
    UNION ALL
    SELECT b AS u, a AS v FROM e
),
deg AS (SELECT u, CAST(count(*) AS DOUBLE) AS deg FROM dir GROUP BY u),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg),
pr0 AS (SELECT u, 1.0 / (SELECT n FROM nn) AS r FROM deg),
pr1 AS (
    SELECT d.v AS u,
           (1.0 - 0.85) / (SELECT n FROM nn)
               + 0.85 * SUM(p.r / g.deg) AS r
    FROM dir d JOIN pr0 p ON d.u = p.u JOIN deg g ON d.u = g.u
    GROUP BY d.v
),
pr2 AS (
    SELECT d.v AS u,
           (1.0 - 0.85) / (SELECT n FROM nn)
               + 0.85 * SUM(p.r / g.deg) AS r
    FROM dir d JOIN pr1 p ON d.u = p.u JOIN deg g ON d.u = g.u
    GROUP BY d.v
),
pr3 AS (
    SELECT d.v AS u,
           (1.0 - 0.85) / (SELECT n FROM nn)
               + 0.85 * SUM(p.r / g.deg) AS r
    FROM dir d JOIN pr2 p ON d.u = p.u JOIN deg g ON d.u = g.u
    GROUP BY d.v
)
SELECT u AS entity_id, ROUND(r, 8) AS pr FROM pr3
""")
def q_kg_entity_pagerank(sf_dir: str):
    """Fixed-iteration (3) PageRank over the canonical entity graph —
    one rank-join + message-sum shuffle per Pregel superstep."""
    import pyarrow as pa

    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import pagerank

    store = kg.triple_store_from_text_docs(_docs(sf_dir))
    edges = store.map_batches(
        lambda t: pa.table({"a": t["subj_id"], "b": t["obj_id"]}),
        batch_format="pyarrow",
    )
    return pagerank(edges, num_iters=3, damping=0.85)


@query("kg_edge_pmi", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
occ AS (
    SELECT least(cs.canonical_id, co.canonical_id) AS a,
           greatest(cs.canonical_id, co.canonical_id) AS b
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    WHERE cs.canonical_id != co.canonical_id
),
cxy AS (
    SELECT a, b, CAST(count(*) AS BIGINT) AS c_xy FROM occ GROUP BY a, b
),
nodes AS (
    SELECT node, CAST(count(*) AS BIGINT) AS c FROM (
        SELECT a AS node FROM occ UNION ALL SELECT b FROM occ
    ) GROUP BY node
),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM occ)
SELECT cxy.a AS entity_a, cxy.b AS entity_b, c_xy AS n_cooc,
       ROUND(LN(CAST(c_xy * (SELECT n FROM nn) AS DOUBLE)
                / CAST(na.c * nb.c AS DOUBLE)), 8) AS pmi
FROM cxy
JOIN nodes na ON cxy.a = na.node
JOIN nodes nb ON cxy.b = nb.node
""")
def q_kg_edge_pmi(sf_dir: str):
    """PMI association weight per co-occurring canonical entity pair,
    support-weighted over the deduped triple store."""
    import pyarrow as pa

    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import edge_pmi

    store = kg.triple_store_from_text_docs(_docs(sf_dir))
    pairs = store.map_batches(
        lambda t: pa.table(
            {"a": t["subj_id"], "b": t["obj_id"], "support": t["support"]}
        ),
        batch_format="pyarrow",
    )
    return edge_pmi(pairs, weight_col="support")


@query("kg_merge_candidates", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
),
edges AS (
    SELECT DISTINCT least(subj_id, obj_id) AS a,
           greatest(subj_id, obj_id) AS b
    FROM store WHERE subj_id <> obj_id
),
und AS (
    SELECT a AS node, b AS nb FROM edges
    UNION ALL
    SELECT b, a FROM edges
),
deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM und GROUP BY 1),
wedge AS (
    SELECT u1.nb AS ea, u2.nb AS eb
    FROM und u1
    JOIN und u2 ON u1.node = u2.node AND u1.nb < u2.nb
    JOIN deg d ON d.node = u1.node AND d.deg <= 50
),
cand AS (
    SELECT ea, eb, CAST(count(*) AS BIGINT) AS n_shared
    FROM wedge GROUP BY 1, 2 HAVING count(*) >= 2
)
SELECT c.ea AS entity_a, c.eb AS entity_b, c.n_shared,
       da.deg AS deg_a, db.deg AS deg_b
FROM cand c
JOIN deg da ON da.node = c.ea
JOIN deg db ON db.node = c.eb
""")
def q_kg_merge_candidates(sf_dir: str):
    """Neighborhood-overlap merge candidates over the canonical entity
    graph (CESI-style entity-resolution blocking): pairs sharing >= 2
    distinct neighbors, with both degrees attached so Jaccard is
    derivable downstream without a float contract."""
    import pyarrow as pa

    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import shared_neighbor_candidates

    store = kg.triple_store_from_text_docs(_docs(sf_dir))
    edges = store.map_batches(
        lambda t: pa.table({"a": t["subj_id"], "b": t["obj_id"]}),
        batch_format="pyarrow",
    )
    return shared_neighbor_candidates(edges, min_shared=2, hot_cap=50)


@query("kg_grounded_mentions", sql=f"""
WITH {_kg_ctes()}
SELECT printf('doc-%08d', m.doc_id) AS doc_id, m.pos, m.surface,
       m.ent_type,
       'media://' || m.doc_id || '/'
           || ((m.pos // (4 + m.doc_id % 4)) // 2) AS media_ref
FROM mention m
WHERE (m.pos // (4 + m.doc_id % 4)) // 2 >= 1
""")
def q_kg_grounded_mentions(sf_dir: str):
    """Mention->media grounding over the interleaved docs: each
    gazetteer mention attached to the last media span preceding it in
    the span layout (the caption/grounding record)."""
    from rex_ray.sources import interleaved as il
    from rex_ray.stages.multimodal import ground_mentions

    return ground_mentions(il.synthesize_interleaved(_docs(sf_dir)))


@query("kg_functional_preds", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
),
s AS (
    SELECT pred, subj_id, count(*) AS c FROM store GROUP BY 1, 2
),
o AS (
    SELECT pred, CAST(count(DISTINCT obj_id) AS BIGINT) AS n_obj
    FROM store GROUP BY 1
),
a AS (
    SELECT pred,
           CAST(sum(c) AS BIGINT) AS n_triples,
           CAST(count(*) AS BIGINT) AS n_subj,
           CAST(max(c) AS BIGINT) AS max_fanout
    FROM s GROUP BY 1
)
SELECT a.pred, a.n_triples, a.n_subj, o.n_obj, a.max_fanout,
       CAST(floor(1e9 * a.n_subj / a.n_triples + 0.5) AS BIGINT)
           AS functionality_ppb
FROM a JOIN o USING (pred)
""")
def q_kg_functional_preds(sf_dir: str):
    """Per-predicate functionality statistics over the triple store
    (AMIE/PARIS-style schema signal): n_triples, distinct subj/obj
    counts, max per-subject fan-out, functionality in integer parts
    per billion — the 'is this predicate one-to-one' cleaning test."""
    from rex_ray.pipelines import kg
    from rex_ray.stages.aggregate import predicate_functionality

    return predicate_functionality(
        kg.triple_store_from_text_docs(_docs(sf_dir))
    )


@query("kg_predicate_overlap", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS (
    SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
),
sp AS (SELECT DISTINCT subj_id, pred FROM store),
pp AS (
    SELECT s1.pred AS p1, s2.pred AS p2
    FROM sp s1
    JOIN sp s2 ON s1.subj_id = s2.subj_id AND s1.pred < s2.pred
),
cand AS (
    SELECT p1, p2, CAST(count(*) AS BIGINT) AS n_shared
    FROM pp GROUP BY 1, 2 HAVING count(*) >= 2
),
sup AS (SELECT pred, CAST(count(*) AS BIGINT) AS n FROM sp GROUP BY 1)
SELECT c.p1 AS pred_a, c.p2 AS pred_b, c.n_shared,
       sa.n AS n_a, sb.n AS n_b
FROM cand c
JOIN sup sa ON sa.pred = c.p1
JOIN sup sb ON sb.pred = c.p2
""")
def q_kg_predicate_overlap(sf_dir: str):
    """AMIE/PATTY-style predicate domain-overlap candidates:
    predicates attested for >= 2 identical distinct subjects, with
    distinct-subject supports attached (overlap ratio derivable
    downstream)."""
    from rex_ray.pipelines import kg
    from rex_ray.stages.aggregate import predicate_overlap

    return predicate_overlap(
        kg.triple_store_from_text_docs(_docs(sf_dir)), min_shared=2
    )


KCORE_K = 2
KCORE_ROUNDS = 3


def _kcore_round_sql(i: int) -> str:
    # MATERIALIZED: each round reads the previous one three times; an
    # inlined CTE chain re-evaluates every earlier round per reference
    return f"""
d{i} AS MATERIALIZED (
    SELECT node, CAST(count(*) AS BIGINT) AS deg FROM (
        SELECT a AS node FROM e{i - 1} UNION ALL SELECT b FROM e{i - 1}
    ) GROUP BY node
),
alive{i} AS MATERIALIZED (SELECT node FROM d{i} WHERE deg >= {KCORE_K}),
e{i} AS MATERIALIZED (
    SELECT e.a, e.b FROM e{i - 1} e
    JOIN alive{i} x ON e.a = x.node
    JOIN alive{i} y ON e.b = y.node
)"""


@query("kg_entity_kcore", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
store AS MATERIALIZED (
    SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
),
e0 AS MATERIALIZED (
    SELECT DISTINCT least(subj_id, obj_id) AS a,
           greatest(subj_id, obj_id) AS b
    FROM store WHERE subj_id <> obj_id
),{",".join(_kcore_round_sql(i) for i in range(1, KCORE_ROUNDS + 1))}
SELECT node AS entity_id, CAST(count(*) AS BIGINT) AS deg FROM (
    SELECT a AS node FROM e{KCORE_ROUNDS}
    UNION ALL SELECT b FROM e{KCORE_ROUNDS}
) GROUP BY node
""")
def q_kg_entity_kcore(sf_dir: str):
    """Fixed-round k-core peel (k=2, 3 rounds) over the canonical
    entity graph — coreness filter separating the KG's dense backbone
    from noise-tail entities."""
    import pyarrow as pa

    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import kcore_peel

    store = kg.triple_store_from_text_docs(_docs(sf_dir))
    edges = store.map_batches(
        lambda t: pa.table({"a": t["subj_id"], "b": t["obj_id"]}),
        batch_format="pyarrow",
    )
    return kcore_peel(edges, k=KCORE_K, rounds=KCORE_ROUNDS)


def _bucket_filter(docs_ds, lo: int, hi: int):
    """Docs whose md5(doc_id) % 100 bucket falls in [lo, hi)
    (stages/relational.bucket_filter; DuckDB computes the identical
    md5 bucket)."""
    from rex_ray.stages.relational import bucket_filter

    return bucket_filter(docs_ds, "doc_id", lo, hi)


@query("kg_store_delta", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
bucket AS (
    SELECT doc_id,
           ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
               % 100 AS b
    FROM documents
),
base_keys AS (
    SELECT DISTINCT cs.canonical_id AS subj_id, tri.pred,
           co.canonical_id AS obj_id
    FROM tri
    JOIN bucket bk ON tri.doc_id = bk.doc_id AND bk.b < 2
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
),
delta_store AS (
    SELECT cs.canonical_id AS subj_id, tri.pred,
           co.canonical_id AS obj_id,
           max(tri.score) AS score, CAST(count(*) AS BIGINT) AS support
    FROM tri
    JOIN bucket bk ON tri.doc_id = bk.doc_id AND bk.b >= 2
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
    GROUP BY 1, 2, 3
)
SELECT d.subj_id, d.pred, d.obj_id, d.score, d.support
FROM delta_store d
ANTI JOIN base_keys b USING (subj_id, pred, obj_id)
""")
def q_kg_store_delta(sf_dir: str):
    """Incremental triple-store update: the corpus is split into a BASE
    slice (md5 doc buckets 0-1, the bootstrap store) and a DELTA
    slice (buckets 2-99, a large newly-arrived increment); the query emits only the
    delta-store triples whose (subj_id, pred, obj_id) key the base
    store does not already hold — the append set of an incremental
    run.  The anti-join is Bloom-prefiltered (stages/relational.
    bloom_anti_join): delta triples that fail the Bloom of the base
    keys are kept map-side, and only the Bloom-passing sliver of the
    delta shuffles; every distinct base key still shuffles once, so
    the append costs O(delta + base keys), not O(delta).  The
    canonical map is global state built over the FULL corpus
    (kg.linked_triples)."""
    from rex_ray.pipelines import kg
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages.relational import bloom_anti_join, bucket_filter

    # ONE corpus pass and one canonical map over the full corpus;
    # base and delta are cheap bucket filters over the linked rows
    linked = kg.linked_triples(_docs(sf_dir)).materialize()

    def store_slice(lo: int, hi: int):
        return agg.dedup_triple_store(bucket_filter(linked, "doc_id", lo, hi))

    base_keys = store_slice(0, 2).select_columns(
        ["subj_id", "pred", "obj_id"]
    )
    # the delta store is consumed twice by the anti-join (Bloom-fail
    # branch + exact-residual branch); it is already aggregated (small
    # vs the corpus), so materialize once instead of re-filtering
    delta_store = store_slice(2, 100).materialize()
    return bloom_anti_join(
        delta_store, base_keys, on=("subj_id", "pred", "obj_id")
    )


@query("kg_predicate_signatures", sql=f"""
WITH {_kg_ctes()},
sig AS (
    SELECT pred, subj_type, obj_type, CAST(count(*) AS BIGINT) AS n
    FROM tri GROUP BY 1, 2, 3
),
tot AS (SELECT pred, CAST(sum(n) AS BIGINT) AS tot FROM sig GROUP BY 1)
SELECT sig.pred, sig.subj_type, sig.obj_type, sig.n,
       CAST(floor(CAST(sig.n AS DOUBLE) * 1000000000.0
                  / CAST(tot.tot AS DOUBLE) + 0.5) AS BIGINT) AS share_ppb
FROM sig JOIN tot ON sig.pred = tot.pred
""")
def q_kg_predicate_signatures(sf_dir: str):
    """Ontology/schema induction over the extracted triples: for each
    predicate, the (subj_type, obj_type) signature distribution —
    support count and share of the predicate's total — the standard
    type-constraint statistic for KG cleaning (a triple whose type
    pair is off-signature is a likely extraction error).  Dataflow:
    per-batch partial counts -> one tiny (pred, types) shuffle -> a
    second per-pred total aggregate joined back; share is emitted in
    integer parts-per-billion via the same floor(x + 0.5) contract as
    the money sums (to_cents), so the result hash-matches SQL with no
    rounding-mode hazard."""
    import numpy as np
    import pyarrow as pa

    from rex_ray.stages import extract
    from rex_ray.stages.relational import hash_join, partial_groupby_sum

    tri = extract.extract_triples(_docs(sf_dir)).select_columns(
        ["pred", "subj_type", "obj_type"]
    )

    def ones(df):
        df = df.copy()
        df["n"] = 1
        return df

    # materialized: read twice (totals + join), and its count sizes
    # the join to the bounded (pred, subj_type, obj_type) vocabulary
    counts = partial_groupby_sum(
        tri.map_batches(ones, batch_format="pandas"),
        ["pred", "subj_type", "obj_type"],
        {"n": "n"},
    ).materialize()
    totals = partial_groupby_sum(
        counts.select_columns(["pred", "n"]), ["pred"], {"n": "tot"}
    )
    joined = hash_join(counts, totals, on="pred", rows=counts.count())

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = t["tot"].to_numpy(zero_copy_only=False).astype(np.float64)
        ppb = np.floor(n * 1000000000.0 / tot + 0.5).astype(np.int64)
        return pa.table(
            {
                "pred": t["pred"],
                "subj_type": t["subj_type"],
                "obj_type": t["obj_type"],
                "n": t["n"],
                "share_ppb": pa.array(ppb, pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


_STORE_KEYS_CTE = """
store AS (
    SELECT DISTINCT cs.canonical_id AS subj_id, tri.pred,
           co.canonical_id AS obj_id
    FROM tri
    JOIN canon cs ON tri.subj = cs.surface
    JOIN canon co ON tri.obj = co.surface
)"""


@query("kg_two_hop_paths", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
{_STORE_KEYS_CTE}
SELECT e1.pred AS pred1, e2.pred AS pred2,
       CAST(count(*) AS BIGINT) AS n_paths
FROM store e1 JOIN store e2 ON e1.obj_id = e2.subj_id
GROUP BY 1, 2
""")
def q_kg_two_hop_paths(sf_dir: str):
    """Two-hop path composition over the materialized store: for every
    predicate pair (p1, p2), the number of entity paths
    a -p1-> x -p2-> b — the first step of path-pattern mining /
    rule induction (AMIE-style) over the graph.  Wedge-count
    composition (stages/graph.two_hop_pred_paths): both sides
    pre-aggregate to (mid, pred, cnt) so the mid join multiplies
    counts — per-mid output bounded by the predicate vocabulary, not
    the mid's degree squared."""
    from rex_ray.pipelines import kg
    from rex_ray.stages.graph import two_hop_pred_paths

    return two_hop_pred_paths(kg.triple_store_from_text_docs(_docs(sf_dir)))


@query("kg_negative_samples", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()},
{_STORE_KEYS_CTE},
ent AS (
    -- DISTINCT over UNION ALL, not bare UNION: inside a WITH RECURSIVE
    -- block DuckDB gives union CTEs the recursive-union treatment and
    -- does NOT deduplicate
    SELECT DISTINCT e FROM (
        SELECT subj_id AS e FROM store
        UNION ALL SELECT obj_id FROM store
    )
),
ents AS (SELECT e, row_number() OVER (ORDER BY e) - 1 AS rk FROM ent),
cand AS (
    SELECT s.subj_id, s.pred, s.obj_id, kk.k,
           ('0x' || substr(md5(s.subj_id || '|' || s.pred || '|'
                               || s.obj_id || '|'
                               || CAST(kk.k AS VARCHAR)), 1, 8))::UBIGINT
               % CAST((SELECT count(*) FROM ents) AS UBIGINT) AS rk
    FROM store s CROSS JOIN (VALUES (0), (1)) AS kk(k)
)
SELECT c.subj_id, c.pred, c.obj_id, CAST(c.k AS BIGINT) AS k,
       e.e AS neg_obj_id,
       CAST(CASE WHEN s2.subj_id IS NULL THEN 0 ELSE 1 END AS BIGINT)
           AS is_known
FROM cand c
JOIN ents e ON e.rk = c.rk
LEFT JOIN store s2
  ON s2.subj_id = c.subj_id AND s2.pred = c.pred AND s2.obj_id = e.e
""")
def q_kg_negative_samples(sf_dir: str):
    """Deterministic filtered negative sampling for KG-embedding
    training (corrupt-tail protocol of TransE et al.): each store
    triple yields K=2 candidates whose tail is replaced by the entity
    at rank md5(subj|pred|obj|k) % n_entities in the SORTED distinct
    entity vocabulary, and each candidate carries is_known = whether
    the corrupted triple accidentally exists in the store (the filter
    bit of 'filtered' evaluation).  The entity vocabulary is broadcast
    worker-built (it is the embedding table the downstream trainer
    holds anyway); the is_known flag is a left_outer marker join
    against the store keys, not a driver-side set."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from rex_ray.functions.blocks import pre_shuffle
    from rex_ray.pipelines import kg
    from rex_ray.stages.dedup import _side_object, _worker_built_ref
    from rex_ray.stages.relational import hash_join

    K = 2
    store = kg.triple_store_from_text_docs(_docs(sf_dir)).materialize()

    def ent_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["subj_id"].combine_chunks(), t["obj_id"].combine_chunks()]
        )
        return (
            pa.table({"e": ids}).group_by("e").aggregate([])
        )

    ents_ds = (
        pre_shuffle(store.map_batches(ent_partials, batch_format="pyarrow"))
        .groupby("e")
        .count()
        .select_columns(["e"])
    )
    ents_ref = _worker_built_ref(
        ents_ds,
        lambda tables: np.array(
            sorted(
                set().union(
                    *(
                        t["e"].to_pylist()
                        for t in tables
                        if "e" in t.schema.names
                    )
                )
            ),
            dtype=object,
        ),
    )

    def corrupt(t: pa.Table, _ref=ents_ref) -> pa.Table:
        ents = _side_object(_ref)
        n = len(ents)
        subj = [str(x) for x in t["subj_id"].to_pylist()]
        pred = [str(x) for x in t["pred"].to_pylist()]
        obj = [str(x) for x in t["obj_id"].to_pylist()]
        out = {
            "subj_id": [], "pred": [], "obj_id": [], "k": [],
            "neg_obj_id": [],
        }
        for s, p, o in zip(subj, pred, obj):
            for k in range(K):
                rk = (
                    int(
                        hashlib.md5(
                            f"{s}|{p}|{o}|{k}".encode()
                        ).hexdigest()[:8],
                        16,
                    )
                    % n
                )
                out["subj_id"].append(s)
                out["pred"].append(p)
                out["obj_id"].append(o)
                out["k"].append(k)
                out["neg_obj_id"].append(ents[rk])
        return pa.table(
            {
                "subj_id": pa.array(out["subj_id"], pa.string()),
                "pred": pa.array(out["pred"], pa.string()),
                "obj_id": pa.array(out["obj_id"], pa.string()),
                "k": pa.array(out["k"], pa.int64()),
                "neg_obj_id": pa.array(out["neg_obj_id"], pa.string()),
            }
        )

    cand = store.map_batches(corrupt, batch_format="pyarrow")

    known = store.map_batches(
        lambda t: pa.table(
            {
                "subj_id": t["subj_id"],
                "pred": t["pred"],
                "neg_obj_id": t["obj_id"],
                "_m": pa.array(
                    np.ones(t.num_rows, dtype=np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(
        cand, known, on=("subj_id", "pred", "neg_obj_id"),
        join_type="left_outer", rows=K * store.count(),
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flag = pc.cast(pc.is_valid(t["_m"]), pa.int64())
        return pa.table(
            {
                "subj_id": t["subj_id"],
                "pred": t["pred"],
                "obj_id": t["obj_id"],
                "k": t["k"],
                "neg_obj_id": t["neg_obj_id"],
                "is_known": flag,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


@query("kg_triple_provenance", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()}
SELECT cs.canonical_id AS subj_id, tri.pred, co.canonical_id AS obj_id,
       CAST(count(DISTINCT tri.doc_id) AS BIGINT) AS n_docs,
       array_to_string(
           list_transform(
               list_slice(list_sort(list(DISTINCT tri.doc_id)), 1, 3),
               x -> CAST(x AS VARCHAR)),
           ',') AS evidence
FROM tri
JOIN canon cs ON tri.subj = cs.surface
JOIN canon co ON tri.obj = co.surface
GROUP BY 1, 2, 3
""")
def q_kg_triple_provenance(sf_dir: str):
    """Per-triple provenance: distinct supporting-doc count + the 3
    smallest doc_ids as a deterministic evidence sample
    (stages/aggregate.triple_provenance)."""
    from rex_ray.pipelines import kg
    from rex_ray.stages import aggregate as agg

    return agg.triple_provenance(
        kg.linked_triples(_docs(sf_dir)), evidence_k=3
    )


@query("kg_parity_prf", sql=f"""
WITH {_kg_ctes()},
views AS (
    SELECT 'triple' AS v,
           CAST(count(*) AS BIGINT) AS n
    FROM (SELECT DISTINCT doc_id, subj, pred, obj FROM tri)
    UNION ALL
    SELECT 'subject', CAST(count(*) AS BIGINT)
    FROM (SELECT DISTINCT doc_id, subj FROM tri)
    UNION ALL
    SELECT 'relation', CAST(count(*) AS BIGINT)
    FROM (SELECT DISTINCT doc_id, pred FROM tri)
    UNION ALL
    SELECT 'object', CAST(count(*) AS BIGINT)
    FROM (SELECT DISTINCT doc_id, obj FROM tri)
)
SELECT v AS "view", 1.0::DOUBLE AS p, 1.0::DOUBLE AS r, 1.0::DOUBLE AS f1,
       n AS tp, CAST(0 AS BIGINT) AS fp, CAST(0 AS BIGINT) AS fn
FROM views
""")
def q_kg_parity_prf(sf_dir: str):
    """Triple-set P/R/F1 of the distributed extractor vs the
    independent straight-line gold implementation (north_rule's
    P/R >= 0.95 criterion; semantics of rex/metrics/triple.py:6-43).
    The oracle computes the same counts from its own triple CTE with
    P=R=F1=1.0 — any extractor drift breaks the value match."""
    from rex_ray.pipelines import gold
    from rex_ray.stages import extract, parity

    pred = extract.extract_triples(_docs(sf_dir)).select_columns(
        ["doc_id", "subj", "pred", "obj"]
    )
    return parity.parity_table(pred, gold.gold_triples_ds(sf_dir))


@query("kg_feature_rows", sql=f"""
WITH {_kg_ctes()},
doclen AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n_tok FROM documents
)
SELECT t.doc_id, t.subj_pos, t.obj_pos, t.pred,
       LEAST(d.n_tok, {spec.MAX_SEQ_LEN}) AS n_real_tokens,
       LEAST(t.subj_pos, t.obj_pos) AS seg1_len,
       GREATEST(t.subj_pos, t.obj_pos) - LEAST(t.subj_pos, t.obj_pos)
           AS seg2_len,
       LEAST(d.n_tok, {spec.MAX_SEQ_LEN}) - GREATEST(t.subj_pos, t.obj_pos) AS seg3_len
FROM tri t JOIN doclen d ON t.doc_id = d.doc_id
WHERE t.subj_pos < {spec.MAX_SEQ_LEN} AND t.obj_pos < {spec.MAX_SEQ_LEN}
""")
def q_kg_feature_rows(sf_dir: str):
    """Model-ready feature rows projected to their SQL-expressible
    invariants: pad-mask token count and the three piecewise-segment
    lengths (proves encode + piecewise_mask construction against the
    oracle's closed-form arithmetic)."""
    import numpy as np
    import pyarrow as pa

    from rex_ray.functions.blocks import arrow_block
    from rex_ray.stages import features

    feats = features.featurize(_docs(sf_dir))

    def project(t: pa.Table):
        pm = np.stack(t["pmask"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame(
            {
                "doc_id": t["doc_id"].to_pylist(),
                "subj_pos": t["subj_pos"].to_pylist(),
                "obj_pos": t["obj_pos"].to_pylist(),
                "pred": features.relation_label_encoder().decode(
                    t["label_id"].to_pylist()
                ),
                "n_real_tokens": t["n_real_tokens"].to_pylist(),
                "seg1_len": (pm == 1).sum(axis=1).astype("int64"),
                "seg2_len": (pm == 2).sum(axis=1).astype("int64"),
                "seg3_len": (pm == 3).sum(axis=1).astype("int64"),
            }
        )
        return arrow_block(df)

    return feats.map_batches(project, batch_format="pyarrow")


@query("kg_scored_triples")
def q_kg_scored_triples(sf_dir: str):
    """PCNN-style scorer over feature rows, FUSED featurize+score actor
    (feature tensors never enter the object store).  Deterministic
    seeded weights — no SQL oracle; rows-only check + determinism and
    fused-vs-staged equality asserted in tests."""
    from rex_ray.stages import scorer

    return scorer.score_docs(_docs(sf_dir)).drop_columns(["scores"])


@query("kg_scored_triples_bilstm")
def q_kg_scored_triples_bilstm(sf_dir: str):
    """BiLSTM-attention scorer variant over the same feature rows,
    fused (rows-only; determinism + masking asserted in tests)."""
    from rex_ray.stages import scorer
    from rex_ray.stages.scorer import BiLstmAttScorer, BiLstmAttWeights

    n_rels = len(__import__("rex_ray.stages.features", fromlist=["x"])
                 .relation_label_encoder())
    return scorer.score_docs(
        _docs(sf_dir),
        weights=BiLstmAttWeights(1 << 16, n_rels),
        scorer_cls=BiLstmAttScorer,
    ).drop_columns(["scores"])


@query("kg_bag_one")
def q_kg_bag_one(sf_dir: str):
    from rex_ray.stages import scorer

    return scorer.bag_scores_one(scorer.score_docs(_docs(sf_dir)))


@query("kg_bag_att")
def q_kg_bag_att(sf_dir: str):
    from rex_ray.stages import scorer

    return scorer.bag_scores_att(scorer.score_docs(_docs(sf_dir)))


@query("kg_pcnn_rule", sql=spec.sql_pcnn_rule())
def q_kg_pcnn_rule(sf_dir: str):
    """The PCNN dataflow (token + 2 relative-position channels ->
    width-3 conv -> piecewise segment max-pool -> per-relation dense)
    under the integer-exact spec.PCNN_RULE parameterization — upgrades
    the flagship scorer's STRUCTURE from rows-only to oracle-checked
    (conv via LAG/LEAD window functions in the SQL); kg_scored_triples
    keeps the seeded float forward."""
    from rex_ray.stages import scorer

    return scorer.score_pcnn_rule(_docs(sf_dir))


@query("kg_bag_one_rule", sql=f"""
WITH {_kg_ctes()},
mem AS (
    SELECT subj || '{spec.BAG_KEY_SEP}' || obj AS pair_key, pred,
           CAST(round(12 * score) AS DOUBLE) AS s
    FROM tri
),
per_rel AS (
    SELECT pair_key, pred, max(s) AS mx FROM mem GROUP BY 1, 2
),
nm AS (
    SELECT pair_key, CAST(count(*) AS BIGINT) AS n_members
    FROM mem GROUP BY 1
)
SELECT p.pair_key, p.pred AS bag_label, p.mx AS bag_score, nm.n_members
FROM per_rel p JOIN nm USING (pair_key)
QUALIFY row_number() OVER (
    PARTITION BY p.pair_key ORDER BY p.mx DESC, p.pred ASC
) = 1
""")
def q_kg_bag_one_rule(sf_dir: str):
    """The bag-ONE reduce (per-relation max, argmax label) over
    deterministic integer member scores — upgrades the reduce operator
    itself from rows-only to oracle-checked; kg_bag_one keeps the
    model-scored members."""
    from rex_ray.stages import scorer

    return scorer.bag_scores_one(scorer.rule_scored_pairs(_docs(sf_dir)))


@query("kg_bag_att_rule", sql=f"""
WITH {_kg_ctes()},
mem AS (
    SELECT subj || '{spec.BAG_KEY_SEP}' || obj AS pair_key, pred,
           CAST(round(12 * score) AS DOUBLE) AS s
    FROM tri
),
num AS (
    SELECT pair_key, pred, sum(s * s) AS num FROM mem GROUP BY 1, 2
),
wt AS (SELECT pair_key, sum(s) AS wsum FROM mem GROUP BY 1)
SELECT n.pair_key, n.pred AS bag_label, n.num / w.wsum AS bag_score
FROM num n JOIN wt w USING (pair_key)
QUALIFY row_number() OVER (
    PARTITION BY n.pair_key ORDER BY n.num / w.wsum DESC, n.pred ASC
) = 1
""")
def q_kg_bag_att_rule(sf_dir: str):
    """The bag-ATT reduce in linear-weight mode over integer member
    scores: weighted sums are exact in float64, so the attention
    decomposition (sum(w*s)/sum(w)) hash-matches the oracle."""
    from rex_ray.stages import scorer

    return scorer.bag_scores_att(
        scorer.rule_scored_pairs(_docs(sf_dir)), weight="linear"
    )


@query("kg_ner_roundtrip", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, surface, ent_type,
       pos AS start_pos, pos + 1 AS end_pos
FROM mention
""")
def q_kg_ner_roundtrip(sf_dir: str):
    """mentions -> BIO tags -> reference decoder -> entity rows; the
    oracle derives the same rows directly from the mention CTE, so any
    tag-emission or decode drift hash-mismatches."""
    from rex_ray.stages import ner

    return ner.ner_roundtrip(_docs(sf_dir))


@query("kg_crf_entities", sql=f"""
WITH {_kg_ctes()},
capped AS (SELECT * FROM mention WHERE pos < {spec.MAX_SEQ_LEN}),
runs AS (
    SELECT doc_id, pos, surface, ent_type,
           pos - ROW_NUMBER() OVER (
               PARTITION BY doc_id, ent_type ORDER BY pos
           ) AS grp
    FROM capped
)
SELECT doc_id,
       CAST(MIN(pos) AS BIGINT) AS start_pos,
       CAST(MAX(pos) + 1 AS BIGINT) AS end_pos,
       STRING_AGG(surface, ' ' ORDER BY pos) AS surface,
       ent_type
FROM runs GROUP BY doc_id, ent_type, grp
""")
def q_kg_crf_entities(sf_dir: str):
    """Gazetteer emissions -> seeded masked-CRF viterbi decode ->
    entity spans (consecutive same-type mentions merge into one span).
    The emission margin makes the optimal path closed-form, so the
    oracle derives the same spans with an islands query — while the
    Ray stage runs the real dynamic program over the seeded
    transition matrix (brute-force-verified in tests/test_crf.py)."""
    from rex_ray.stages import crf

    return crf.crf_entities(_docs(sf_dir))


@query("kg_feature_rows_subword", sql=f"""
WITH {_kg_ctes()},
wc AS (
    SELECT doc_id, pos,
           CAST(ceil(length(tok) / 4.0) AS BIGINT) AS cnt
    FROM tok
),
off AS (
    SELECT doc_id, pos, cnt,
           COALESCE(SUM(cnt) OVER (
               PARTITION BY doc_id ORDER BY pos
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS sub_start
    FROM wc
),
doc_tot AS (
    SELECT doc_id, MAX(pos) + 1 AS n_words,
           CAST(LEAST(SUM(cnt), {spec.MAX_SEQ_LEN - 2}) + 2 AS BIGINT) AS n_subwords
    FROM wc GROUP BY doc_id
),
remapped AS (
    SELECT tri.doc_id,
           tri.subj || '{spec.BAG_KEY_SEP}' || tri.obj AS pair_key,
           tri.pred, tri.subj_pos, tri.obj_pos,
           CAST(so.sub_start AS BIGINT) AS subj_sub_start,
           CAST(CASE WHEN tri.subj_pos + 1 >= dt.n_words THEN -1
                ELSE so.sub_start + so.cnt END AS BIGINT) AS subj_sub_end,
           CAST(oo.sub_start AS BIGINT) AS obj_sub_start,
           CAST(CASE WHEN tri.obj_pos + 1 >= dt.n_words THEN -1
                ELSE oo.sub_start + oo.cnt END AS BIGINT) AS obj_sub_end,
           dt.n_subwords
    FROM tri
    JOIN off so ON so.doc_id = tri.doc_id AND so.pos = tri.subj_pos
    JOIN off oo ON oo.doc_id = tri.doc_id AND oo.pos = tri.obj_pos
    JOIN doc_tot dt ON dt.doc_id = tri.doc_id
)
SELECT doc_id, pair_key, pred, subj_pos, obj_pos,
       subj_sub_start, subj_sub_end, obj_sub_start, obj_sub_end,
       n_subwords
FROM remapped
WHERE subj_sub_start > 0 AND subj_sub_start < {spec.MAX_SEQ_LEN}
  AND subj_sub_end   > 0 AND subj_sub_end   < {spec.MAX_SEQ_LEN}
  AND obj_sub_start  > 0 AND obj_sub_start  < {spec.MAX_SEQ_LEN}
  AND obj_sub_end    > 0 AND obj_sub_end    < {spec.MAX_SEQ_LEN}
""")
def q_kg_feature_rows_subword(sf_dir: str):
    """Subword-tokenized feature rows: deterministic fixed-width
    BPE-ish split, CLS/SEP assembly, word->subword offset remap and the
    reference's strict boundary filter (entity_re.py:106-251 quirks
    preserved — see stages/subword.py).  The oracle recomputes the
    remap with ceil(len/4) window sums."""
    from rex_ray.stages import subword

    feats = subword.featurize_subword(_docs(sf_dir))
    return feats.drop_columns(["token_ids", "mask"])


@query("kg_usm_relations", sql=f"""
WITH {_kg_ctes()},
hp AS (SELECT DISTINCT doc_id, subj_pos AS pos, pred FROM tri),
tp AS (SELECT DISTINCT doc_id, obj_pos AS pos, pred FROM tri)
SELECT DISTINCT t.doc_id, t.subj_pos AS head_pos, hp.pred,
       t.obj_pos AS tail_pos
FROM tri t
JOIN hp ON hp.doc_id = t.doc_id AND hp.pos = t.subj_pos
JOIN tp ON tp.doc_id = t.doc_id AND tp.pos = t.obj_pos
       AND tp.pred = hp.pred
""")
def q_kg_usm_relations(sf_dir: str):
    """USM three-pointer emission + five-way structured join decode
    (functions/usm.py).  The oracle replicates the decode's exact
    label-attachment semantics: a relation (h, P, t) survives iff
    (h, t) is a window pair AND P occurs among h's head-predicates AND
    among t's tail-predicates — including the decoder's inherent
    cross-pair label ambiguity (usm.py:146-164 carries no pair
    identity on label links)."""
    from rex_ray.stages import usm

    return usm.usm_relations(_docs(sf_dir))


def _event_ctes() -> str:
    """trig / ea / hp / tp CTEs of the event layer (requires the
    ``mention`` CTE in scope): trig = typed triggers, ea = rule-emitted
    trigger->argument role links (EITHER side, EVENT_WINDOW), hp/tp =
    the per-span role-attachment sets the five-way decode actually
    joins on (cross-pair label ambiguity, kg_usm_relations pattern)."""
    return f"""
    trig AS (
        SELECT doc_id, pos,
               {spec.sql_event_type_case("ent_type")} AS event_type
        FROM mention
        WHERE ent_type IN ({spec.sql_event_trigger_types()})
    ),
    ea AS (
        SELECT tr.doc_id, tr.event_type, tr.pos AS trigger_pos,
               {spec.sql_role_case("tr.event_type", "m.ent_type")} AS role,
               m.pos AS arg_pos
        FROM trig tr
        JOIN mention m
          ON m.doc_id = tr.doc_id
         AND m.pos <> tr.pos
         AND abs(m.pos - tr.pos) <= {spec.EVENT_WINDOW}
    ),
    hp AS (SELECT DISTINCT doc_id, trigger_pos AS pos, role FROM ea),
    tp AS (SELECT DISTINCT doc_id, arg_pos AS pos, role FROM ea),
    dec AS (
        SELECT DISTINCT e.doc_id, e.event_type, e.trigger_pos,
               hp.role, e.arg_pos
        FROM ea e
        JOIN hp ON hp.doc_id = e.doc_id AND hp.pos = e.trigger_pos
        JOIN tp ON tp.doc_id = e.doc_id AND tp.pos = e.arg_pos
               AND tp.role = hp.role
    )"""


@query("kg_event_args", sql=f"""
WITH {_kg_ctes()},
{_event_ctes()}
SELECT doc_id, event_type, trigger_pos, role, arg_pos FROM dec
""")
def q_kg_event_args(sf_dir: str):
    """Event extraction on the USM decode base (the reference's event
    shape, joint.py:97: typed trigger + role-labeled arguments): one
    row per decoded trigger->argument role link.  Same five-way join
    decode as kg_usm_relations with the EVENT label space (event types
    as 'm' labels on trigger spans, roles as 'p' links), so the oracle
    reuses the hp/tp cross-pair-ambiguity pattern."""
    from rex_ray.stages import usm

    return usm.usm_event_args(_docs(sf_dir))


@query("kg_events", sql=f"""
WITH {_kg_ctes()},
{_event_ctes()}
SELECT tr.doc_id, tr.event_type, tr.pos AS trigger_pos,
       CAST(count(DISTINCT d.arg_pos) AS BIGINT) AS n_args,
       CAST(count(DISTINCT d.role) AS BIGINT) AS n_roles,
       CAST(count(d.role) AS BIGINT) AS n_links
FROM trig tr
LEFT JOIN dec d ON d.doc_id = tr.doc_id AND d.trigger_pos = tr.pos
GROUP BY 1, 2, 3
""")
def q_kg_events(sf_dir: str):
    """Per-event assembly over the decoded event layer: one row per
    trigger span (argless triggers included with zero counts) with
    distinct-argument / distinct-role / surviving-link counts.
    Assembly is doc-local — the whole query is a single map_batches
    pass, zero shuffle."""
    from rex_ray.stages import usm

    return usm.usm_events(_docs(sf_dir))


@query("kg_globalpointer_scored")
def q_kg_globalpointer_scored(sf_dir: str):
    """Seeded biaffine + RoPE + tril-masked GlobalPointer forward ->
    thresholded spans with scores.  Model-random output: rows-only
    driver check; determinism + masking invariants asserted in
    tests/test_gpointer_usm.py (the kg_scored_triples pattern)."""
    from rex_ray.stages import gpointer

    return gpointer.score_globalpointer(_docs(sf_dir))


@query("kg_globalpointer_rule", sql=spec.sql_gp_rule())
def q_kg_globalpointer_rule(sf_dir: str):
    """The SAME GlobalPointer forward (embedding lookup, linear heads,
    RoPE rotation, biaffine einsum, pad+tril masking, threshold decode)
    under the integer-exact spec.GP_RULE parameterization — upgrades
    the biaffine+RoPE matrix itself from rows-only to oracle-checked;
    kg_globalpointer_scored keeps the seeded float forward."""
    from rex_ray.stages import gpointer

    return gpointer.score_globalpointer_rule(_docs(sf_dir))


_IPRE_ID2REL = {0: "rel_a", 1: "rel_b", 2: "rel_c"}


# id2rel rule shared with _IPRE_ID2REL: 'rel_' || chr(97 + id)
@query("kg_ingest_ipre", sql="""
WITH raw AS (
    SELECT doc_id, text, string_split(text, ' ') AS ts FROM documents
),
sides AS (
    SELECT doc_id, text,
           CASE WHEN len(ts) > 1 THEN ts[2] ELSE ts[1] END AS head,
           CASE WHEN len(ts) > 4 THEN ts[5]
                ELSE chr(0) || 'absent' END AS tail,
           doc_id % 3 AS ra, (doc_id // 3) % 3 AS rb
    FROM raw
)
SELECT doc_id,
       CAST(strpos(text, head) - 1 AS BIGINT) AS head_start,
       CAST(strpos(text, head) - 1 + length(head) AS BIGINT) AS head_end,
       CAST(strpos(text, tail) - 1 AS BIGINT) AS tail_start,
       CAST(strpos(text, tail) - 1 + length(tail) AS BIGINT) AS tail_end,
       CASE WHEN ra = rb THEN 'rel_' || chr(97 + CAST(ra AS INT))
            WHEN ra < rb THEN 'rel_' || chr(97 + CAST(ra AS INT))
                 || ',rel_' || chr(97 + CAST(rb AS INT))
            ELSE 'rel_' || chr(97 + CAST(rb AS INT))
                 || ',rel_' || chr(97 + CAST(ra AS INT)) END AS preds
FROM sides
WHERE strpos(text, head) > 0 AND strpos(text, tail) > 0
""")
def q_kg_ingest_ipre(sf_dir: str):
    """IPRE-shaped ingest (sources/ingest.ingest_ipre): two raw sides
    synthesized deterministically from documents (sentences: head =
    2nd token, tail = 5th token or an absent marker; labels: dup-heavy
    relation-id strings), joined on id, char-anchored at FIRST
    substring occurrence with converter drop semantics.  Flattened to
    span/pred columns for the oracle, which re-derives them with
    strpos over the same synthesis rule."""
    from rex_ray.sources import ingest

    docs = _docs(sf_dir)

    def sent_rows(df: pd.DataFrame) -> pd.DataFrame:
        heads, tails = [], []
        for t in df["text"]:
            ts = t.split(" ")
            heads.append(ts[1] if len(ts) > 1 else ts[0])
            tails.append(ts[4] if len(ts) > 4 else "\x00absent")
        return pd.DataFrame(
            {"id": df["doc_id"], "head": heads, "tail": tails,
             "text": df["text"]}
        )

    def label_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        return pd.DataFrame(
            {
                "id": df["doc_id"],
                "relations": [
                    f"{i % 3} {(i // 3) % 3} {i % 3}" for i in ids
                ],
            }
        )

    sent = docs.map_batches(sent_rows, batch_format="pandas")
    labels = docs.map_batches(label_rows, batch_format="pandas")
    canon = ingest.ingest_ipre(sent, labels, _IPRE_ID2REL)

    def flat(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, ents, rels in zip(
            df["doc_id"], df["entities"], df["relations"]
        ):
            h, t = ents[0], ents[1]
            rows.append(
                (
                    int(doc_id),
                    int(h["start"]), int(h["end"]),
                    int(t["start"]), int(t["end"]),
                    ",".join(r["predicate"] for r in rels),
                )
            )
        import pyarrow as pa

        from rex_ray.functions.blocks import arrow_block

        return arrow_block(
            pd.DataFrame(
                rows,
                columns=["doc_id", "head_start", "head_end",
                         "tail_start", "tail_end", "preds"],
            ),
            schema=pa.schema(
                [("doc_id", pa.int64()), ("head_start", pa.int64()),
                 ("head_end", pa.int64()), ("tail_start", pa.int64()),
                 ("tail_end", pa.int64()), ("preds", pa.string())]
            ),
        )

    return canon.map_batches(flat, batch_format="pandas")


@query("kg_ingest_webnlg", sql="""
WITH base AS (
    SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
tri AS (
    SELECT doc_id, ts, i AS h, (i + 3) % len(ts) AS t,
           (doc_id + i) % 3 AS r, i // 7 AS rel_idx
    FROM base, LATERAL (SELECT unnest(range(0, len(ts), 7)) AS i)
),
app AS (
    SELECT doc_id, pos, MIN(ord) AS first_app FROM (
        SELECT doc_id, h AS pos, 2 * rel_idx AS ord FROM tri
        UNION ALL
        SELECT doc_id, t AS pos, 2 * rel_idx + 1 AS ord FROM tri
    ) GROUP BY doc_id, pos
),
idx AS (
    SELECT doc_id, pos,
           ROW_NUMBER() OVER (
               PARTITION BY doc_id ORDER BY first_app
           ) - 1 AS ent_idx
    FROM app
)
SELECT tri.doc_id,
       CAST(rel_idx AS BIGINT) AS rel_idx,
       'rel_' || chr(97 + CAST(r AS INT)) AS predicate,
       CAST(h AS BIGINT) AS head_pos,
       CAST(t AS BIGINT) AS tail_pos,
       CAST(hi.ent_idx AS BIGINT) AS head_ent_idx,
       CAST(ti.ent_idx AS BIGINT) AS tail_ent_idx,
       ts[h + 1] AS head_text,
       ts[t + 1] AS tail_text
FROM tri
JOIN idx hi ON hi.doc_id = tri.doc_id AND hi.pos = tri.h
JOIN idx ti ON ti.doc_id = tri.doc_id AND ti.pos = tri.t
""")
def q_kg_ingest_webnlg(sf_dir: str):
    """WebNLG-shaped ingest (sources/ingest.ingest_webnlg): docs coded
    into word ids under the corpus vocab, triples at every 7th
    position with wrap-around endpoints (forcing the entity-dedup
    path), decoded back through the id2word/id2rel broadcast remap.
    Flattened to one row per relation carrying the FIRST-APPEARANCE
    entity indices the converter computes with ``entities.index``."""
    from rex_ray.sources import ingest
    from rex_ray.state.dictionaries import distinct_corpus_tokens

    docs = _docs(sf_dir)
    words = sorted(distinct_corpus_tokens(docs))
    word2id = {w: i for i, w in enumerate(words)}
    id2word = {i: w for i, w in enumerate(words)}
    w2i_ref = __import__("ray").put(word2id)

    def raw_rows(df: pd.DataFrame, _ref=w2i_ref) -> pd.DataFrame:
        import ray as _ray

        w2i = _ray.get(_ref) if not isinstance(_ref, dict) else _ref
        sents, spos = [], []
        ids = df["doc_id"].astype("int64")
        for doc_id, t in zip(ids, df["text"]):
            ts = t.split(" ")
            n = len(ts)
            sents.append([w2i[w] for w in ts])
            flat = []
            for i in range(0, n, 7):
                flat.extend([i, (i + 3) % n, (int(doc_id) + i) % 3])
            spos.append(flat)
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "sent": sents, "spo": spos}
        )

    raw = docs.map_batches(raw_rows, batch_format="pandas")
    canon = ingest.ingest_webnlg(raw, id2word, _IPRE_ID2REL)

    def flat(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, tokens, ents, rels in zip(
            df["doc_id"], df["tokens"], df["entities"], df["relations"]
        ):
            for k, r in enumerate(rels):
                hp = ents[r["head"]]["start"]
                tp = ents[r["tail"]]["start"]
                rows.append(
                    (
                        int(doc_id), k, r["predicate"],
                        int(hp), int(tp),
                        int(r["head"]), int(r["tail"]),
                        tokens[hp], tokens[tp],
                    )
                )
        import pyarrow as pa

        from rex_ray.functions.blocks import arrow_block

        return arrow_block(
            pd.DataFrame(
                rows,
                columns=["doc_id", "rel_idx", "predicate", "head_pos",
                         "tail_pos", "head_ent_idx", "tail_ent_idx",
                         "head_text", "tail_text"],
            ),
            schema=pa.schema(
                [("doc_id", pa.int64()), ("rel_idx", pa.int64()),
                 ("predicate", pa.string()), ("head_pos", pa.int64()),
                 ("tail_pos", pa.int64()), ("head_ent_idx", pa.int64()),
                 ("tail_ent_idx", pa.int64()), ("head_text", pa.string()),
                 ("tail_text", pa.string())]
            ),
        )

    return canon.map_batches(flat, batch_format="pandas")


@query("kg_ingest_bmes", sql=f"""
WITH {_kg_ctes()},
runs AS (
    SELECT doc_id, pos, surface, ent_type,
           pos - ROW_NUMBER() OVER (
               PARTITION BY doc_id, ent_type ORDER BY pos
           ) AS grp
    FROM mention
)
SELECT doc_id,
       ent_type,
       CAST(MIN(pos) AS BIGINT) AS start_pos,
       CAST(MAX(pos) + 1 AS BIGINT) AS end_pos,
       STRING_AGG(surface, ' ' ORDER BY pos) AS surface
FROM runs GROUP BY doc_id, ent_type, grp
""")
def q_kg_ingest_bmes(sf_dir: str):
    """MSRA-BMES-shaped ingest: gazetteer runs rendered to B/M/E/S tag
    lines, round-tripped through the REAL line parser
    (sources/ingest.parse_bmes_lines) and the reference tag decoder —
    the oracle re-derives the merged entity spans with an islands
    query, so any render / parse / decode drift hash-mismatches."""
    from rex_ray.functions.tagging import get_entities_from_tags
    from rex_ray.sources import ingest

    gaz = spec.GAZETTEER

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            ts = text.split(" ")
            types = [gaz.get(t, "") for t in ts]
            tags = ingest.render_bmes_tags(ts, types)
            lines = [f"{tok} {tag}" for tok, tag in zip(ts, tags)] + [""]
            for d in ingest.parse_bmes_lines(lines, shard=str(doc_id)):
                for surface, et, (s, e) in get_entities_from_tags(
                    d["tokens"], d["ner_tags"], join=" "
                ):
                    rows.append((int(doc_id), et, s, e, surface))
        import pyarrow as pa

        from rex_ray.functions.blocks import arrow_block

        return arrow_block(
            pd.DataFrame(
                rows,
                columns=["doc_id", "ent_type", "start_pos", "end_pos",
                         "surface"],
            ),
            schema=pa.schema(
                [("doc_id", pa.int64()), ("ent_type", pa.string()),
                 ("start_pos", pa.int64()), ("end_pos", pa.int64()),
                 ("surface", pa.string())]
            ),
        )

    return _docs(sf_dir).map_batches(fn, batch_format="pandas")


@query("kg_disambiguated_mentions", sql=f"""
WITH tok AS ({spec.SQL_TOKENS}),
amb AS (SELECT * FROM {spec.sql_ambig_values()}),
m AS (
    SELECT DISTINCT t.doc_id, t.pos, t.tok AS surface
    FROM tok t WHERE t.tok IN (SELECT DISTINCT surface FROM amb)
),
ctx AS (
    SELECT m.doc_id, m.pos, m.surface, t.tok
    FROM m JOIN tok t
      ON t.doc_id = m.doc_id
     AND t.pos BETWEEN m.pos - {spec.AMBIG_CONTEXT_RADIUS}
                   AND m.pos + {spec.AMBIG_CONTEXT_RADIUS}
     AND t.pos != m.pos
),
scored AS (
    SELECT m.doc_id, m.pos, m.surface, a.entity_id,
           count(c.tok) AS score
    FROM m
    JOIN amb a ON a.surface = m.surface
    LEFT JOIN ctx c ON c.doc_id = m.doc_id AND c.pos = m.pos
                   AND c.tok = a.marker
    GROUP BY m.doc_id, m.pos, m.surface, a.entity_id
)
SELECT doc_id, pos, surface, entity_id FROM scored
QUALIFY row_number() OVER (
    PARTITION BY doc_id, pos, surface
    ORDER BY score DESC, entity_id ASC
) = 1
""")
def q_kg_disambiguated_mentions(sf_dir: str):
    """Ambiguous-surface mentions resolved by embedding-cosine context
    similarity (broadcast candidate matrix, one matmul per batch).
    One-hot marker embeddings make the cosine argmax equal a
    marker-count rule the oracle replicates; ties break to the smaller
    entity id."""
    from rex_ray.stages import link

    return link.disambiguate_mentions(_docs(sf_dir))


@query("kg_ner_type_prf", sql=f"""
WITH {_kg_ctes()},
bytype AS (
    SELECT ent_type, CAST(count(*) AS BIGINT) AS n FROM mention
    GROUP BY ent_type
)
SELECT ent_type, 1.0::DOUBLE AS p, 1.0::DOUBLE AS r, 1.0::DOUBLE AS f1,
       n AS tp, CAST(0 AS BIGINT) AS fp, CAST(0 AS BIGINT) AS fn
FROM bytype
""")
def q_kg_ner_type_prf(sf_dir: str):
    """Per-entity-type P/R/F1 of the decoded NER path vs the direct
    gazetteer mentions (macro breakdown semantics of
    rex/metrics/tagging.py:52-93; exact match expected)."""
    from rex_ray.stages import extract, ner

    pred = ner.ner_roundtrip(_docs(sf_dir))
    gold = extract.extract_mentions(_docs(sf_dir)).map_batches(
        lambda t: t.append_column(
            "start_pos", t["pos"]
        ).append_column(
            "end_pos", __import__("pyarrow").compute.add(t["pos"], 1)
        ).drop_columns(["pos"]),
        batch_format="pyarrow",
    )
    return ner.ner_type_prf(pred, gold)


@query("kg_pointer_entities", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, ent_type, pos AS start_pos, pos + 1 AS end_pos
FROM mention
""")
def q_kg_pointer_entities(sf_dir: str):
    """GlobalPointer-family matrix decode: per-class pointer matrix ->
    spans (exclusive end, reference +1 shift) -> entity rows; oracle
    derives the same rows from the mention CTE."""
    from rex_ray.stages import pointer

    return pointer.pointer_entities(_docs(sf_dir))


@query("docs_top_longest", sql="""
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
FROM documents
ORDER BY n_tokens DESC, doc_id ASC
LIMIT 10
""")
def q_docs_top_longest(sf_dir: str):
    """Global sort (n_tokens desc, doc_id asc) + limit — the
    'sorted output ordering' family (SURVEY.md §2.6)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rex_ray.functions.blocks import pre_shuffle

    docs = _docs(sf_dir)

    def measure(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(t["text"], pattern=" "))
        return pa.Table.from_arrays(
            [t["doc_id"].combine_chunks(), pc.cast(n, pa.int64()).combine_chunks()],
            names=["doc_id", "n_tokens"],
        )

    sized = pre_shuffle(docs.map_batches(measure, batch_format="pyarrow"))
    return sized.sort(
        ["n_tokens", "doc_id"], descending=[True, False]
    ).limit(10)


@query("kg_mrc_entities", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, ent_type, pos AS start_pos, pos AS end_pos
FROM mention
""")
def q_kg_mrc_entities(sf_dir: str):
    """MRC-style per-type query fan-out + pointer decode; oracle
    derives the same (inclusive-end) spans from the mention CTE."""
    from rex_ray.stages import mrc

    return mrc.mrc_entities(_docs(sf_dir))


@query("kg_mrc_doc_counts", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_entities
FROM mention GROUP BY doc_id
""")
def q_kg_mrc_doc_counts(sf_dir: str):
    """Per-doc union of per-type MRC results (id2ents merge pattern)."""
    from rex_ray.stages import mrc

    return mrc.union_per_doc(mrc.mrc_entities(_docs(sf_dir)))


@query("kg_entity_resolution_salted", sql=f"""
WITH RECURSIVE {_kg_ctes()},
{_canon_ctes()}
SELECT cs.canonical_id AS subj_id,
       CAST(count(*) AS BIGINT) AS n_mentions,
       max(tri.score) AS best_score
FROM tri JOIN canon cs ON tri.subj = cs.surface
GROUP BY 1
""")
def q_kg_entity_resolution_salted(sf_dir: str):
    """Per-canonical-entity resolution stats via the EXPLICITLY salted
    groupby (hot head entities split across n_salts sub-keys, folded by
    an associative merge) — result provably identical to a plain
    groupby, oracle-checked."""
    from rex_ray.pipelines import kg
    from rex_ray.stages import salt

    return salt.salted_entity_resolution(kg.linked_triples(_docs(sf_dir)))


@query("kg_cascade_triples", sql=f"""
WITH {_kg_ctes()}
SELECT doc_id, subj, subj_pos, pred, obj, obj_pos, score FROM tri
""")
def q_kg_cascade_triples(sf_dir: str):
    """CasRel-style two-step cascade (subjects -> per-subject objects,
    batch-1 per doc inside the actor); provably equal to the one-shot
    extractor under the deterministic rules — the oracle is the same
    triple CTE."""
    from rex_ray.stages import cascade

    return cascade.cascade_triples(_docs(sf_dir))


@query("mm_media_stats", sql="""
WITH stats AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n,
           4 + doc_id % 4 AS c
    FROM documents
),
m AS (
    SELECT doc_id,
           ((n + c - 1) // c) // 2 AS mcount,
           doc_id % 2 AS par
    FROM stats
),
per_doc AS (
    SELECT 'image' AS kind,
           CASE WHEN par = 0 THEN mcount // 2 ELSE (mcount + 1) // 2 END AS n
    FROM m
    UNION ALL
    SELECT 'audio' AS kind,
           mcount - (CASE WHEN par = 0 THEN mcount // 2
                          ELSE (mcount + 1) // 2 END) AS n
    FROM m
)
SELECT kind, CAST(sum(n) AS BIGINT) AS n_spans
FROM per_doc GROUP BY kind HAVING sum(n) > 0
""")
def q_mm_media_stats(sf_dir: str):
    from ray.data.aggregate import Sum
    from rex_ray.sources import interleaved as il

    inter = il.synthesize_interleaved(_docs(sf_dir))
    media = il.media_spans(inter)
    from rex_ray.functions.blocks import arrow_block

    partial = media.map_batches(
        lambda b: arrow_block(
            b.groupby("kind", sort=False)
            .size()
            .rename("n_spans")
            .reset_index()
        ),
        batch_format="pandas",
    )
    from rex_ray.functions.blocks import pre_shuffle

    return pre_shuffle(partial).groupby("kind").aggregate(
        Sum("n_spans", alias_name="n_spans")
    )
