"""The benchmark's workloads.

Each workload generates its inputs from the seed, computes its
reference once, and offers two ways to run:

* ``op()`` -- the untraced operation through the repo's public entry
  point, timed from input to a materialized, counted result, then
  checked against the reference (outside the timed region);
* ``traced(tr)`` -- the same work layer by layer: each layer's public
  function is called and materialized inside a span, so its wall time,
  rows and bytes are attributed to that layer.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import gen
import reference
from reference import KEYS, Mismatch, check_store, key_set

DOC_COLS = ["doc_id", "text"]


def collect(ds) -> pa.Table:
    """Materialized Dataset -> one Arrow table, no extra Ray job."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables, promote_options="default")


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


class Tracer:
    """Span recorder: name, start, end, parent, workload, iteration,
    plus row/byte counts for materialized layers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = 0
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "workload": self.workload,
               "iteration": self.iteration,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def layer(self, name: str, ds):
        """Run one layer to completion and record its output size."""
        with self.span(name) as rec:
            ds = ds.materialize()
            rec["rows"] = ds.count()
            rec["bytes"] = ds.size_bytes()
        return ds

    def totals(self, iteration: int) -> Dict[str, dict]:
        """Per span name: summed seconds, rows, bytes."""
        out: Dict[str, dict] = {}
        for s in self.spans:
            if s["iteration"] != iteration:
                continue
            t = out.setdefault(s["name"], {"s": 0.0, "rows": 0, "bytes": 0})
            t["s"] += s["end"] - s["start"]
            t["rows"] += s.get("rows", 0)
            t["bytes"] += s.get("bytes", 0)
        return out


def traced_text_store(tr: Tracer, text, stats: dict,
                      gazetteer: Optional[Dict[str, str]] = None,
                      max_driver_nodes: Optional[int] = None):
    """(doc_id, text) Dataset -> store, layer by layer; mirrors the
    corpus-derived route of ``kg.triple_store_from_text_docs``."""
    from rex_ray.functions.blocks import pre_shuffle
    from rex_ray.pipelines import spec
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages import canonical as canon
    from rex_ray.stages import extract, link

    if max_driver_nodes is None:
        max_driver_nodes = canon.DRIVER_CC_MAX_NODES
    tagged = tr.layer("stages.extract", extract.extract_triples_and_surfaces(
        text, gazetteer=gazetteer))

    def part_distinct(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "surface" not in t.schema.names:
            return pa.table({"node": pa.array([], pa.string())})
        return (t.select(["surface"]).group_by("surface").aggregate([])
                .rename_columns(["node"]))

    surf = tagged.filter(expr="kind == 's'").map_batches(
        part_distinct, batch_format="pyarrow")
    nodes = tr.layer(
        "pipelines.kg.distinct_surfaces",
        pre_shuffle(surf).groupby("node").count().select_columns(["node"]),
    )
    n_surfaces = nodes.count()
    triples = tagged.filter(expr="kind == 't'").drop_columns(
        ["kind", "surface"])
    stats["n_surfaces"] = n_surfaces
    stats["route_lp"] = int(n_surfaces > max_driver_nodes)
    if not stats["route_lp"]:
        with tr.span("stages.canonical"):
            surfaces = sorted(nodes.to_pandas()["node"]) if n_surfaces else []
            canonical = canon.canonical_map_for_surfaces(
                surfaces, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
                max_driver_nodes=max(max_driver_nodes, 1))
        linked = tr.layer("stages.link", link.link_triples(triples, canonical))
    else:
        map_ds = tr.layer("stages.canonical", canon.canonical_labels_from_nodes_ds(
            nodes, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
            sliver_max_driver_nodes=max_driver_nodes))
        linked = tr.layer("stages.link", link.link_triples_via_join(
            triples, map_ds, est_left_rows=tagged.count()))
    ids = collect(linked).select(["subj_id", "obj_id"]).to_pandas()
    nil = ids["subj_id"].str.startswith("nil:") | ids["obj_id"].str.startswith("nil:")
    stats["nil_frac"] = float(nil.mean()) if len(ids) else 0.0
    return tr.layer("stages.aggregate.dedup", agg.dedup_triple_store(linked))


class Workload:
    name = ""

    def __init__(self, seed: int, size: dict, work: str):
        self.seed, self.size = seed, size
        self.dir = os.path.join(work, self.name)
        self.gazetteer: Optional[Dict[str, str]] = None
        self.path = gen.write_docs(self.make_docs(), self.dir)
        self.inputs = reference.shape(self.path, self.gazetteer)
        self.stats: Dict[str, float] = {
            "mentions_per_token":
                self.inputs["mentions"] / max(self.inputs["tokens"], 1),
        }
        self.ref = self.reference()
        if self.ref is not None:
            self.inputs["store_rows"] = len(self.ref)
            self.stats["store_rows"] = len(self.ref)
            self.stats["store_per_candidate"] = (
                len(self.ref) / max(self.inputs["candidates"], 1))
        self._outs = 0

    def reference(self) -> Optional[pd.DataFrame]:
        """The oracle triple store of the generated docs."""
        return reference.store(self.path, self.gazetteer)

    def make_docs(self) -> pa.Table:
        return gen.documents(self.seed, self.size["docs"])

    def read(self):
        import ray.data as rd

        return rd.read_parquet(self.path, columns=DOC_COLS)

    def fresh_dir(self) -> str:
        self._outs += 1
        path = os.path.join(self.dir, f"out{self._outs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check(self, store_ds, what: str) -> None:
        check_store(collect(store_ds).to_pandas(), self.ref, what)

    def warmup(self) -> Dict[str, float]:
        """The cold operation that ends set-up."""
        return self.op()

    def op(self) -> Dict[str, float]:
        raise NotImplementedError

    def traced(self, tr: Tracer) -> None:
        raise NotImplementedError


class BulkBuild(Workload):
    """kg.run_flagship: read -> synthesize -> normalize -> extract ->
    link -> dedup over the sf0.1 token distribution (hot keys)."""

    name = "bulk_build"

    def op(self):
        from rex_ray.pipelines import kg

        t0 = time.perf_counter()
        store = kg.run_flagship(self.dir).materialize()
        store.count()
        wall = time.perf_counter() - t0
        self.check(store, "store")
        return {"build_s": wall}

    def traced(self, tr):
        from rex_ray.sources import interleaved as il

        docs = tr.layer("sources.read", self.read())
        inter = tr.layer("sources.synthesize", il.synthesize_interleaved(docs))
        text = tr.layer("sources.normalize", il.text_view(inter))
        self.check(traced_text_store(tr, text, self.stats), "traced store")


class LongtailBuild(Workload):
    """kg.triple_store_from_text_docs with a generated long-tail
    gazetteer whose distinct surfaces exceed the route threshold, so
    the guard takes the label-propagation + join-link route."""

    name = "longtail_build"
    DOC_LEN = 100
    TAIL_FRAC = 0.9  # share of token slots drawn from the long tail

    def make_docs(self):
        from rex_ray.pipelines import spec

        tail = gen.longtail_gazetteer(self.seed, self.size["surfaces"])
        self.gazetteer = {**spec.GAZETTEER, **tail}
        return gen.documents(
            self.seed, self.size["docs"], doc_len=self.DOC_LEN,
            longtail={"surfaces": list(tail), "frac": self.TAIL_FRAC})

    def op(self):
        from rex_ray.pipelines import kg

        route: dict = {}
        t0 = time.perf_counter()
        store = kg.triple_store_from_text_docs(
            self.read(), gazetteer=self.gazetteer, route_out=route,
            max_driver_nodes=self.size["max_driver_nodes"]).materialize()
        store.count()
        wall = time.perf_counter() - t0
        if route.get("canonical_route") != "lp":
            raise Mismatch(f"route {route}, expected lp")
        self.check(store, "store")
        return {"build_s": wall}

    def traced(self, tr):
        docs = tr.layer("sources.read", self.read())
        store = traced_text_store(
            tr, docs, self.stats, gazetteer=self.gazetteer,
            max_driver_nodes=self.size["max_driver_nodes"])
        self.check(store, "traced store")


class CheckpointedIncrement(Workload):
    """kg.run_flagship_resumable over md5 buckets [0, SPLIT), then
    kg.run_incremental over [SPLIT, 100), then the same increment again
    (a no-op resume), each in a fresh out-dir.  Set-up warms up with
    the bootstrap alone; the resume runs on the first timed op of a
    run only, so the timed loop fits more samples."""

    name = "checkpointed_increment"
    SPLIT = 2  # the bucket split the kg_store_delta oracle hard-codes
    PARTS = 1  # per step; each part is a few Ray jobs on a 1-core host

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.delta_ref = reference.store(self.path, query="kg_store_delta")
        self.keys = key_set(self.ref)
        boot = os.path.join(self.dir, "bootstrap_docs.parquet")
        reference.write_bucket_slice(self.path, boot, self.SPLIT)
        self.base_ref = reference.store(boot)
        self.resume_pending = True

    def bootstrap(self, out):
        from rex_ray.pipelines import kg

        base, lineage = kg.run_flagship_resumable(
            self.dir, out, bucket_hi=self.SPLIT,
            num_partitions=self.PARTS)
        base = base.materialize()
        base.count()
        return base, lineage

    def warmup(self):
        out = self.fresh_dir()
        check_store(collect(self.bootstrap(out)[0]).to_pandas(),
                    self.base_ref, "bootstrap")
        shutil.rmtree(out, ignore_errors=True)
        return {}

    def check_keys(self, base_ds, new_ds, what: str) -> pd.DataFrame:
        new = collect(new_ds).to_pandas()
        check_store(new, self.delta_ref, f"{what} new keys")
        if key_set(collect(base_ds).to_pandas()) | key_set(new) != self.keys:
            raise Mismatch(f"{what}: base keys | new keys != reference keys")
        return new

    def op(self):
        from rex_ray.pipelines import kg

        out, split = self.fresh_dir(), self.SPLIT
        t0 = time.perf_counter()
        base, lin_b = self.bootstrap(out)
        new, lin_i, _ = kg.run_incremental(
            self.dir, out, bucket_lo=split, bucket_hi=100,
            num_partitions=self.PARTS)
        new = new.materialize()
        new.count()
        timings = {"build_s": time.perf_counter() - t0}
        check_store(collect(base).to_pandas(), self.base_ref, "bootstrap")
        new_df = self.check_keys(base, new, "increment")
        self.stats.update(
            part_s_p50=statistics.median(r["wall_s"] for r in lin_b + lin_i),
            parts_run=len(lin_b) + len(lin_i),
            bytes_written=dir_bytes(out),
            new_keys=len(new_df),
        )
        if self.resume_pending:
            self.resume_pending = False
            t1 = time.perf_counter()
            again, lin_r, _ = kg.run_incremental(
                self.dir, out, bucket_lo=split, bucket_hi=100,
                num_partitions=self.PARTS)
            again = again.materialize()
            again.count()
            timings["resume_s"] = time.perf_counter() - t1
            check_store(collect(again).to_pandas(), new_df, "resume")
            if ([r["finished_at"] for r in lin_r]
                    != [r["finished_at"] for r in lin_i]):
                raise Mismatch("resume re-ran finished partitions")
            self.stats["parts_skipped"] = len(lin_r)
        shutil.rmtree(out, ignore_errors=True)
        return timings

    def _stage(self, tr, canonical, lo, hi):
        from rex_ray.sources import interleaved as il
        from rex_ray.stages import aggregate as agg
        from rex_ray.stages import extract, link
        from rex_ray.stages.relational import bucket_filter

        def stage(docs_ds):
            docs = tr.layer("sources.read", docs_ds.select_columns(DOC_COLS))
            part = bucket_filter(docs, "doc_id", lo, hi)
            inter = tr.layer("sources.synthesize", il.synthesize_interleaved(part))
            text = tr.layer("sources.normalize", il.text_view(inter))
            triples = tr.layer("stages.extract", extract.extract_triples(text))
            linked = tr.layer("stages.link", link.link_triples(triples, canonical))
            return tr.layer("stages.aggregate.dedup", agg.dedup_triple_store(linked))

        return stage

    def _canonical(self, tr, out, lo, hi):
        from rex_ray.pipelines import kg, spec
        from rex_ray.sources import interleaved as il
        from rex_ray.stages import canonical as canon
        from rex_ray.stages.relational import bucket_filter
        from rex_ray.state import checkpoint as ckpt

        def build():
            text = il.text_view(il.synthesize_interleaved(
                bucket_filter(self.read(), "doc_id", lo, hi)))
            with tr.span("pipelines.kg.distinct_surfaces"):
                surfaces = kg.distinct_surfaces(text)
            self.stats["n_surfaces"] = len(surfaces)
            with tr.span("stages.canonical"):
                return canon.canonical_map_for_surfaces(
                    surfaces, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX)

        return ckpt.write_artifact(out, "canonical_map", None, build=build)

    def _resumable(self, tr, out, parts_dir, lo, hi, n_parts):
        """Mirrors the per-partition half of kg.run_flagship_resumable /
        kg.run_incremental; returns the merged store of ``parts_dir``."""
        from rex_ray.stages import aggregate as agg
        from rex_ray.state import checkpoint as ckpt

        canonical = self._canonical(tr, out, lo, hi)
        with tr.span("state.checkpoint.run_resumable"):
            ckpt.run_resumable(ckpt.plan_id_ranges(self.path, "doc_id", n_parts),
                               self._stage(tr, canonical, lo, hi), parts_dir)
        parts = tr.layer("state.checkpoint.read_output",
                         ckpt.read_output(parts_dir))
        return tr.layer("stages.aggregate.merge", agg.merge_triple_stores(parts))

    def traced(self, tr):
        from rex_ray.stages.relational import bloom_anti_join
        from rex_ray.state import checkpoint as ckpt

        out, split = self.fresh_dir(), self.SPLIT
        base = self._resumable(tr, out, out, 0, split,
                               self.PARTS)
        delta = self._resumable(tr, out, os.path.join(out, f"delta-{split}-100"),
                                split, 100, self.PARTS)
        existing = ckpt.read_output(out).select_columns(KEYS)
        new = tr.layer("stages.relational.anti_join",
                       bloom_anti_join(delta, existing, on=tuple(KEYS)))
        self.check_keys(base, new, "traced increment")
        shutil.rmtree(out, ignore_errors=True)


class ScoredPairs(Workload):
    """scorer.score_docs: fused featurize + PCNN scorer on an actor
    pool, with the corpus vocabulary built with the inputs,
    ``batch_docs``-doc batches and a fixed pool of ``ACTORS`` actors (an
    autoscaling pool grows on some runs and not others, which moves
    both time and memory).
    Reference: the candidate-pair count inside the scorer's window
    (DuckDB) and a score checksum fixed by the warm-up op."""

    name = "scored_pairs"
    ACTORS = 1

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.checksum: Optional[float] = None

    def make_docs(self):
        from rex_ray.state.dictionaries import Vocab

        docs = super().make_docs()
        # what features.build_corpus_vocab returns: sorted distinct tokens
        self.vocab = Vocab(sorted(set(
            pc.list_flatten(pc.split_pattern(docs["text"], " ")).to_pylist())))
        return docs

    def reference(self):
        return None  # checked by pair count and checksum instead

    def check_scores(self, out_ds, what: str) -> None:
        scores = np.sort(collect(out_ds)["pred_score"].to_numpy())
        if len(scores) != self.inputs["scorable_pairs"]:
            raise Mismatch(f"{what}: {len(scores)} pairs, reference "
                           f"{self.inputs['scorable_pairs']}")
        total = float(scores.astype(np.float64).sum())
        if self.checksum is None:
            self.checksum = total
        elif not np.isclose(total, self.checksum, rtol=1e-6, atol=0):
            raise Mismatch(f"{what}: score checksum {total} != {self.checksum}")

    def op(self):
        from rex_ray.stages import scorer

        t0 = time.perf_counter()
        out = scorer.score_docs(
            self.read(), vocab=self.vocab, concurrency=self.ACTORS,
            batch_size=self.size["batch_docs"]).materialize()
        out.count()
        wall = time.perf_counter() - t0
        self.check_scores(out, "scores")
        return {"build_s": wall}

    def traced(self, tr):
        from rex_ray.stages import scorer

        docs = tr.layer("sources.read", self.read())
        out = tr.layer("stages.scorer", scorer.score_docs(
            docs, vocab=self.vocab, concurrency=self.ACTORS,
            batch_size=self.size["batch_docs"]))
        self.check_scores(out, "traced scores")


WORKLOADS = {w.name: w for w in (BulkBuild, LongtailBuild,
                                 CheckpointedIncrement, ScoredPairs)}
