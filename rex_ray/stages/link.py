"""Entity linking: canonical-map joins + embedding-similarity
disambiguation (SURVEY.md §2.4 'new-engine only' row).

The canonical map (surface -> entity id) is joined to the triples by
:func:`link_triples` through ``relational.hash_join``: a gazetteer-scale
map takes the join's broadcast plan (resolved once per worker process,
probed per batch), a corpus-scale one co-groups.  NIL mentions (surface
absent from the map) keep a ``nil:<surface>`` id.

Disambiguation: when a surface maps to MULTIPLE candidate canonical
ids, the candidate whose entity embedding is most cosine-similar to the
mention's context embedding wins.  Candidate embeddings are one-hot
marker vectors from the spec fixture (equal norms, so the cosine
argmax is closed-form for the oracle); the plumbing — broadcast
candidate matrix, ONE batch-level matmul — is the real, scale-ready
part, and a learned entity-embedding table drops into the same matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from rex_ray.functions.blocks import as_arrow, default_concurrency
from rex_ray.stages.relational import _probe, hash_join


def hashed_embedding(tokens: List[str], dim: int = 32) -> np.ndarray:
    """Deterministic hashed-BoW unit vector (FNV bucket + sign)."""
    v = np.zeros(dim, dtype=np.float64)
    for t in tokens:
        h = 2166136261
        for b in t.encode("utf-8"):
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        v[h % dim] += 1.0 if (h >> 16) & 1 else -1.0
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _fill_nil(linked, surfaces, nil_prefix: str = "nil:"):
    """``linked`` ids with each null — an unmatched surface — filled by
    ``nil_prefix + surface``."""
    if linked.null_count == surfaces.null_count:  # no NIL surface
        return linked
    nil = pc.binary_join_element_wise(nil_prefix, surfaces, "")
    return pc.coalesce(linked.cast(nil.type), nil)


class CanonicalLinker:
    """mention/triple rows -> canonical entity ids via a surface->id
    dict, in process.

    ``canon_ref`` is the dict or a ``ray.ObjectRef`` to it.  Per batch
    one probe per surface column against the dict's keys — the probe
    of ``relational.hash_join``'s per-batch join — a ``take`` of the
    ids and a ``nil:<surface>`` fill: Arrow in (or a pandas frame from
    a direct caller), Arrow out.
    """

    def __init__(self, canon_ref, nil_prefix: str = "nil:"):
        canon = ray.get(canon_ref) if isinstance(canon_ref, ray.ObjectRef) else canon_ref
        self._keys = pa.array(list(canon), pa.string())
        self._ids = pa.array(list(canon.values()), pa.string())
        self.nil_prefix = nil_prefix

    def _link(self, surfaces) -> pa.Array:
        surfaces = surfaces.combine_chunks().cast(pa.string())
        linked = self._ids.take(_probe(surfaces, self._keys))
        return _fill_nil(linked, surfaces, self.nil_prefix)

    def __call__(self, batch) -> pa.Table:
        t = as_arrow(batch)
        if "subj" in t.column_names:  # triple rows
            out = {"subj_id": "subj", "obj_id": "obj"}
        else:  # mention rows
            out = {"entity_id": "surface"}
        for col, src in out.items():
            linked = self._link(t[src])
            if col in t.column_names:
                t = t.set_column(t.column_names.index(col), col, linked)
            else:
                t = t.append_column(col, linked)
        return t


class EmbeddingDisambiguator:
    """Ambiguous-surface resolution by embedding cosine similarity.

    ``candidates``: surface -> {entity id -> marker tokens} (the spec's
    ``AMBIG_ALIASES`` shape).  Each candidate's entity embedding is a
    one-hot vector over the marker vocabulary (equal marker counts per
    candidate, so cosine argmax reduces to the context marker-count
    argmax — the property the DuckDB oracle checks); the context
    embedding is the count vector of the mention's +-radius window
    tokens over that same vocabulary.

    Fully vectorized: the candidate matrix C is built once per actor;
    per batch, ONE ``X @ C.T`` scores every (mention, candidate) pair,
    a per-surface candidate mask restricts the argmax, and ties break
    to the lexicographically smaller entity id (candidate rows sorted
    by id, argmax takes the first maximum).
    """

    def __init__(self, candidates_ref, radius: int = 2):
        cands: Dict[str, Dict[str, List[str]]] = (
            ray.get(candidates_ref)
            if isinstance(candidates_ref, ray.ObjectRef)
            else candidates_ref
        )
        self.radius = radius
        self._window_cols = [
            f"w{o:+d}" for o in range(-radius, radius + 1) if o != 0
        ]
        markers = sorted(
            {m for c in cands.values() for ms in c.values() for m in ms}
        )
        self._marker_idx = {m: i for i, m in enumerate(markers)}
        # candidate rows sorted by entity id -> argmax tie = smaller id
        self.cand_ids = sorted(
            {e for c in cands.values() for e in c}
        )
        cid = {e: i for i, e in enumerate(self.cand_ids)}
        self.C = np.zeros((len(self.cand_ids), len(markers)))
        self._surfaces = sorted(cands)
        sidx = {s: i for i, s in enumerate(self._surfaces)}
        self._surface_idx = sidx
        self.mask = np.zeros(
            (len(self._surfaces), len(self.cand_ids)), dtype=bool
        )
        for s, cmap in cands.items():
            for e, ms in cmap.items():
                for m in ms:
                    self.C[cid[e], self._marker_idx[m]] = 1.0
                self.mask[sidx[s], cid[e]] = True

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        """mention rows (surface + window-token columns w-2..w+2) ->
        + entity_id column."""
        n = len(batch)
        X = np.zeros((n, len(self._marker_idx)))
        rows = np.arange(n)
        for col in self._window_cols:
            idx = batch[col].map(self._marker_idx)
            valid = idx.notna().to_numpy()
            np.add.at(
                X, (rows[valid], idx[valid].astype(np.int64)), 1.0
            )
        sims = X @ self.C.T  # (n, n_candidates)
        srow = batch["surface"].map(self._surface_idx).to_numpy(
            dtype=np.int64
        )
        sims = np.where(self.mask[srow], sims, -np.inf)
        best = sims.argmax(axis=1)
        out = batch.copy()
        out["entity_id"] = np.asarray(self.cand_ids, dtype=object)[best]
        return out


def canonical_map(canonical: Dict[str, str]):
    """A surface -> id dict as the materialized (node, canonical) map
    Dataset that :func:`link_triples` joins against.  Building it runs
    a Ray metadata task, so a caller that links many partitions against
    one dict builds it once and passes the Dataset."""
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "node": pa.array(list(canonical), pa.string()),
        "canonical": pa.array(list(canonical.values()), pa.string()),
    }))


def link_triples(triples_ds, canonical, rows: Optional[int] = None):
    """Scored triples -> triples with ``subj_id`` / ``obj_id`` columns.

    ``canonical`` is a surface -> id dict or a (node, canonical)
    Dataset (e.g. :func:`canonical.canonical_labels_from_nodes_ds`
    output, ids already prefixed); either becomes one materialized
    map, joined twice (subj side, obj side) by left_outer
    ``relational.hash_join``s, and an unmatched surface gets
    ``nil:<surface>``.  A map within ``routing.BROADCAST_MAX_BYTES``
    (every gazetteer-scale map, and an empty one) takes the join's
    broadcast plan: no shuffle.  A larger map co-groups, in ``rows``
    buckets' worth — pass an upper bound on the triple rows (e.g. a
    metadata ``count()`` of the materialized upstream), so a huge
    triple stream is not funneled through map-sized buckets."""
    if isinstance(canonical, dict):
        canonical = canonical_map(canonical)
    m = canonical.materialize()
    out = triples_ds
    for side in ("subj", "obj"):
        out = hash_join(
            out, m, on=side, right_on="node", join_type="left_outer",
            rows=rows,
        ).rename_columns({"canonical": f"{side}_id"})

    def fill_nil(t: pa.Table) -> pa.Table:
        for side in ("subj", "obj"):
            col = f"{side}_id"
            t = t.set_column(
                t.column_names.index(col), col, _fill_nil(t[col], t[side])
            )
        return t

    return out.map_batches(fill_nil, batch_format="pyarrow")


def link_triples_via_join(triples_ds, map_ds, nil_prefix: str = "nil:",
                          est_left_rows: int = None):
    """:func:`link_triples` of a (node, canonical) Dataset, under its
    older name; ``nil_prefix`` must be ``"nil:"``."""
    if nil_prefix != "nil:":
        raise ValueError("link_triples fills unmatched surfaces with 'nil:'")
    return link_triples(triples_ds, map_ds, rows=est_left_rows)


def ambiguous_mentions_with_context(docs_ds, radius: int = 2):
    """(doc_id, text) -> one row per AMBIG_ALIASES-surface mention with
    its +-radius window tokens as columns w-2..w+2 (None beyond the doc
    edge).  Vectorized: explode + isin + one hash merge per offset."""
    from rex_ray.pipelines import spec
    from rex_ray.stages.extract import _doc_id_type, _explode_tokens

    surfaces = set(spec.AMBIG_ALIASES)

    def fn(batch: pd.DataFrame) -> "pa.Table":
        from rex_ray.functions.blocks import arrow_block

        ex = _explode_tokens(batch)
        m = ex[ex["tok"].isin(surfaces)].rename(
            columns={"tok": "surface"}
        )
        look = ex.rename(columns={"tok": "w"})
        for off in range(-radius, radius + 1):
            if off == 0:
                continue
            col = f"w{off:+d}"
            shifted = look.assign(pos=look["pos"] - off)
            m = m.merge(
                shifted.rename(columns={"w": col}),
                on=["doc_id", "pos"],
                how="left",
            )
        m["pos"] = m["pos"].astype("int64")
        cols = ["doc_id", "pos", "surface"] + [
            f"w{o:+d}" for o in range(-radius, radius + 1) if o != 0
        ]
        schema = pa.schema(
            [("doc_id", _doc_id_type(batch["doc_id"])),
             ("pos", pa.int64()), ("surface", pa.string())]
            + [(c, pa.string()) for c in cols[3:]]
        )
        return arrow_block(m[cols].reset_index(drop=True), schema=schema)

    return docs_ds.map_batches(fn, batch_format="pandas")


def disambiguate_mentions(docs_ds, radius: int = None, **kwargs):
    """documents -> disambiguated ambiguous-surface mentions
    (doc_id, pos, surface, entity_id) via the broadcast candidate
    matrix + one vectorized dot product per batch."""
    from rex_ray.pipelines import spec

    r = radius if radius is not None else spec.AMBIG_CONTEXT_RADIUS
    ctx = ambiguous_mentions_with_context(docs_ds, radius=r)
    ref = ray.put(spec.AMBIG_ALIASES)
    out = ctx.map_batches(
        EmbeddingDisambiguator,
        fn_constructor_kwargs={"candidates_ref": ref, "radius": r},
        batch_format="pandas",
        concurrency=kwargs.pop("concurrency", None) or default_concurrency(),
        **kwargs,
    )
    return out.select_columns(["doc_id", "pos", "surface", "entity_id"])
