"""Flagship KG-construction pipeline (SURVEY.md §7).

    read (Parquet, blocks sized from the footers)             [read]
      -> normalize (span-sequence validation + text view)     [Arrow tasks]
      -> mention detection + pair fan-out                     [Arrow tasks]
      -> distinct surfaces (partial distinct + one shuffle)   [groupby]
      -> canonical map + entity linking (COUNT-routed)        [Arrow tasks|joins]
      -> triple-store dedup (Arrow partial agg + one shuffle) [groupby]

Every read goes through ``sources.io.read_parquet``, which sizes its
blocks by the bytes it reads: a sub-MiB partition is one block, so
each operator downstream runs one task for it, not one per twice the
CPUs.  Light dictionary stages run as TASKS with per-process state
caches over Arrow batches; actor pools are reserved for heavy model
state (see stages/scorer.py).

One canonicalization path: every canonical map starts from
:func:`_surface_nodes` (the distinct-surface Dataset), and every
corpus-derived linking goes through :func:`linked_triples`, whose
distinct-surface COUNT picks the canonical route — at gazetteer
scale the surfaces are pulled to build a dict, above
``canonical.DRIVER_CC_MAX_NODES`` they stay distributed through label
propagation — and both maps are linked by one join-based
:func:`link.link_triples`.  The resumable runners share one slice
runner (:func:`_resumable_slice`) that persists the driver-route dict
as a per-epoch artifact and links every partition against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from rex_ray import trace
from rex_ray.pipelines import spec
from rex_ray.sources import interleaved as il
from rex_ray.sources.io import read_parquet
from rex_ray.stages import aggregate as agg
from rex_ray.stages import canonical as canon
from rex_ray.stages import extract, link


def _surface_nodes(rows_ds):
    """Distinct ``surface`` values of ``rows_ds`` as a materialized
    one-column ``node`` Dataset: a per-batch partial distinct keeps the
    shuffle input tiny (one row per surface per batch), then one small
    groupby.  The driver reads only its COUNT."""
    import pyarrow as pa

    from rex_ray.functions.blocks import pre_shuffle

    def part_distinct(t: "pa.Table") -> "pa.Table":
        return (
            t.select(["surface"])
            .group_by("surface")
            .aggregate([])
            .rename_columns(["node"])
        )

    partial = rows_ds.map_batches(part_distinct, batch_format="pyarrow")
    return (
        pre_shuffle(partial)
        .groupby("node")
        .count()
        .select_columns(["node"])
        .materialize()
    )


def _node_list(nodes_ds) -> list:
    # an empty aggregate loses the column entirely: guard the
    # degenerate (mention-free) corpus before indexing it
    return sorted(nodes_ds.to_pandas()["node"]) if nodes_ds.count() else []


def distinct_surfaces(docs_text_ds) -> list:
    """Sorted distinct gazetteer surfaces present in the corpus."""
    return _node_list(_surface_nodes(extract.extract_mentions(docs_text_ds)))


def build_canonical_map(docs_text_ds) -> Dict[str, str]:
    """surface -> canonical entity id, via connected components over the
    variant-edge graph restricted to present surfaces — the dict the
    resumable runners persist and broadcast to every partition."""
    return canon.canonical_map_for_surfaces(
        distinct_surfaces(docs_text_ds),
        spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
    )


def linked_triples(
    docs_text_ds,
    min_score: float = 0.0,
    max_driver_nodes: Optional[int] = None,
    gazetteer: Optional[Dict[str, str]] = None,
):
    """(doc_id, text) Dataset -> scored triples with ``subj_id`` /
    ``obj_id``, canonicalized over the corpus's own surfaces.

    Single doc pass: one fused extraction emits tagged triples +
    per-batch distinct surfaces (boundary-safe: the pair fan-out
    happens inside the doc batch, immune to Ray's dynamic block
    splitting), materialized once and consumed by BOTH the
    distinct-surface shuffle and the triple path.

    Cardinality guard (canonicalization at 10^12-doc scale, SURVEY.md
    §7.1 steps 9-10): the distinct-surface COUNT — one int — is the
    only thing the driver sees before routing.  At or below
    ``max_driver_nodes`` (default ``canonical.DRIVER_CC_MAX_NODES``)
    the surfaces are pulled and components come from driver
    union-find (gazetteer-sized inventories).  Above it NOTHING
    corpus-sized ever lands on the driver: surfaces stay a Dataset and
    components come from distributed label propagation
    (:func:`canonical.canonical_labels_from_nodes_ds`).  Either map
    goes to one :func:`link.link_triples` call, whose joins broadcast
    the map while it is small and co-group it above
    ``routing.BROADCAST_MAX_BYTES``.  Both routes are hash-equal
    (asserted in tests and by the kg_triple_store_lp driver-gate row).

    Notes ``canonical_route`` ("driver"|"lp") and ``n_surfaces`` in
    the run record (``rex_ray/trace.py``) for observability/tests.
    """
    if max_driver_nodes is None:
        max_driver_nodes = canon.DRIVER_CC_MAX_NODES
    tagged = extract.extract_triples_and_surfaces(
        docs_text_ds, min_score=min_score, gazetteer=gazetteer
    ).materialize()
    nodes_ds = _surface_nodes(tagged.filter(expr="kind == 's'"))
    n_surfaces = nodes_ds.count()
    triples = tagged.filter(expr="kind == 't'").drop_columns(
        ["kind", "surface"]
    )
    route = "driver" if n_surfaces <= max_driver_nodes else "lp"
    trace.note(canonical_route=route, n_surfaces=n_surfaces)
    if route == "driver":
        canonical = canon.canonical_map_for_surfaces(
            _node_list(nodes_ds), spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
            max_driver_nodes=max(max_driver_nodes, 1),
        )
    else:
        # the sliver engine obeys the SAME driver-size knob as the
        # route itself: a forced-LP run (max_driver_nodes=0) also
        # forces the distributed fixpoint on the sliver, while the
        # natural route union-finds the alias-dict-bounded sliver on
        # the driver (it is already driver-resident)
        canonical = canon.canonical_labels_from_nodes_ds(
            nodes_ds, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
            sliver_max_driver_nodes=max_driver_nodes,
        )
    # tagged is materialized -> count() is a metadata read; it
    # upper-bounds the triple rows, so a co-grouped link can't funnel a
    # huge left side through map-sized partitions
    return link.link_triples(triples, canonical, rows=tagged.count())


def triple_store_from_text_docs(
    docs_text_ds,
    min_score: float = 0.0,
    max_driver_nodes: Optional[int] = None,
    gazetteer: Optional[Dict[str, str]] = None,
    route_out: Optional[dict] = None,
):
    """(doc_id, text) Dataset -> deduped triple store Dataset
    (subj_id, pred, obj_id, score, support): :func:`linked_triples`
    (one corpus pass, one COUNT-routed canonical map) then the dedup
    aggregate.  Arguments as in :func:`linked_triples`.

    ``route_out``: optional dict; gets this call's run record, which an
    enclosing ``trace.run()`` sees too.  The one out-dict left in the
    package: the benchmark's long-tail workload reads its route here."""
    with trace.run() as rec:
        store = agg.dedup_triple_store(
            linked_triples(
                docs_text_ds, min_score=min_score,
                max_driver_nodes=max_driver_nodes, gazetteer=gazetteer,
            )
        )
    if route_out is not None:
        route_out.update(rec)
    return store


def triple_store_from_interleaved(interleaved_ds, min_score: float = 0.0):
    """Interleaved text+media docs -> triple store.  The normalize stage
    validates the span-sequence invariant on every row and projects the
    text view; media spans pass through untouched to the multimodal
    stages (``stages.multimodal``)."""
    return triple_store_from_text_docs(
        il.text_view(interleaved_ds), min_score=min_score
    )


def _resumable_slice(sf_dir, out_dir, parts_dir, bucket_lo, bucket_hi,
                     num_partitions, min_score):
    """Checkpointed build of the docs whose md5 bucket falls in
    [bucket_lo, bucket_hi) (everything for [0, 100)).

    Phase 0  canonical map — one global artifact of ``out_dir``
             (connected components need corpus-wide surface presence),
             built over the slice on first need, frozen afterwards.
    Phase 1  per doc_id-range partition: synthesize -> normalize ->
             extract -> link -> partition-local dedup -> Parquet part
             + ``_SUCCESS`` + lineage row under ``parts_dir``.  Resume
             skips done parts.
    Phase 2  associative merge (max score, sum support) over all parts.

    Returns (merged triple-store Dataset, lineage list).
    """
    from rex_ray.stages.relational import bucket_filter
    from rex_ray.state import checkpoint as ckpt

    path = f"{sf_dir}/documents.parquet"

    def text_slice(docs_ds):
        if bucket_lo > 0 or bucket_hi < 100:
            docs_ds = bucket_filter(docs_ds, "doc_id", bucket_lo, bucket_hi)
        return il.text_view(
            il.synthesize_interleaved(
                docs_ds.select_columns(["doc_id", "text"])
            )
        )

    canonical = ckpt.write_artifact(
        out_dir,
        "canonical_map",
        None,
        build=lambda: build_canonical_map(
            text_slice(read_parquet(path, columns=["doc_id", "text"]))
        ),
    )

    def stage(docs_ds):
        triples = extract.extract_triples(
            text_slice(docs_ds), min_score=min_score
        )
        return agg.dedup_triple_store(link.link_triples(triples, canonical))

    parts = ckpt.plan_id_ranges(path, "doc_id", num_partitions)
    lineage = ckpt.run_resumable(parts, stage, parts_dir)
    return agg.merge_triple_stores(ckpt.read_output(parts_dir)), lineage


def run_flagship_resumable(
    sf_dir: str,
    out_dir: str,
    num_partitions: int = 8,
    min_score: float = 0.0,
    bucket_lo: int = 0,
    bucket_hi: int = 100,
):
    """Checkpoint-resumable flagship (north_rule): per-partition
    lineage + metrics under ``out_dir``, exact vs :func:`run_flagship`
    (phases in :func:`_resumable_slice`).

    With ``bucket_lo``/``bucket_hi`` the run covers only docs whose
    md5 bucket falls in [lo, hi) — the bootstrap half of the
    bootstrap + :func:`run_incremental` pair (default: everything).

    Returns (triple_store Dataset, lineage list).
    """
    return _resumable_slice(
        sf_dir, out_dir, out_dir, bucket_lo, bucket_hi, num_partitions,
        min_score,
    )


def run_incremental(
    sf_dir: str,
    out_dir: str,
    bucket_lo: int = 2,
    bucket_hi: int = 100,
    num_partitions: int = 4,
    min_score: float = 0.0,
):
    """Incremental update of an existing :func:`run_flagship_resumable`
    store: docs in md5 buckets [bucket_lo, bucket_hi) are the newly
    arrived increment.  Their triples are linked with the FROZEN
    canonical-map artifact of the base run (per-epoch dictionary —
    linking must stay consistent with the store already on disk;
    rebuild the dictionary in a fresh epoch dir when alias drift
    matters), deduped per partition with lineage, merged, and
    Bloom-anti-joined against the existing store so only
    genuinely-new (subj, pred, obj) keys are appended.  Known keys
    drop map-side at the Bloom and finished partitions resume from
    their ``_SUCCESS`` markers, but the anti-join's exact step still
    reads every distinct key of the base store: it broadcasts them
    while they fit ``routing.BROADCAST_MAX_BYTES`` and shuffles them
    above it, so an increment costs O(new + base keys), not O(new).

    Returns (new_triples Dataset, lineage list, delta_out path).
    """
    import os

    from rex_ray.stages.relational import bloom_anti_join
    from rex_ray.state import checkpoint as ckpt

    delta_dir = os.path.join(out_dir, f"delta-{bucket_lo}-{bucket_hi}")
    delta_store, lineage = _resumable_slice(
        sf_dir, out_dir, delta_dir, bucket_lo, bucket_hi, num_partitions,
        min_score,
    )
    existing = ckpt.read_output(out_dir).select_columns(
        ["subj_id", "pred", "obj_id"]
    )
    new_triples = bloom_anti_join(
        delta_store.materialize(), existing, on=("subj_id", "pred", "obj_id")
    )
    return new_triples, lineage, delta_dir


def run_flagship(sf_dir: str, min_score: float = 0.0):
    """documents.parquet -> interleaved synthesis -> full pipeline.
    Column-pruned read; returns the (small) triple-store Dataset."""
    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    inter = il.synthesize_interleaved(docs)
    return triple_store_from_interleaved(inter, min_score=min_score)
