"""Mention detection and triple extraction stages.

Reference shape: gazetteer NER (mention flat-map, like the tag-decode
path of ``rex/utils/tagging.py`` feeding ``rex/data/transforms/
sent_re.py:31-63``'s entity-pair fan-out with a validity window), then a
deterministic relation rule + distance-based confidence standing in for
the PCNN scorer (the learned scorer lives in ``stages/scorer.py``).

Both stages are callable CLASSES whose state — the gazetteer as Arrow
arrays, the relation rule as a type-code table — is compiled once per
worker process in ``__init__`` (``blocks.worker_state``).  Per batch
the work is Arrow compute end to end: ``split_pattern`` the text,
``index_in`` the tokens against the gazetteer, fan pairs out by index
shifts over the (doc, pos)-ordered mentions, and ``take`` the
predicate from the code table.  A batch
enters and leaves as Arrow (direct callers may pass a pandas frame),
so no stage pays an Arrow/pandas round trip in front of a shuffle.
Mention+pair extraction is FUSED into one stage for the pipeline
path: a document's mentions never cross a batch boundary, so the pair
fan-out needs no shuffle and no doc reassembly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rex_ray.functions.blocks import as_arrow, worker_state, worker_udf
from rex_ray.pipelines import spec


def _doc_id_type(col) -> pa.DataType:
    """documents.parquet carries int64 doc ids; the interleaved text
    view carries 'doc-XXXXXXXX' strings — the stages serve both.
    ``col`` is a pandas Series or an Arrow (chunked) array."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        integer = pa.types.is_integer(col.type)
    else:
        integer = np.issubdtype(col.dtype, np.integer)
    return pa.int64() if integer else pa.string()


def _mentions_schema(doc_id_t: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", doc_id_t),
            ("pos", pa.int64()),
            ("surface", pa.string()),
            ("ent_type", pa.string()),
        ]
    )


def _triples_schema(doc_id_t: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", doc_id_t),
            ("subj", pa.string()),
            ("subj_pos", pa.int64()),
            ("subj_type", pa.string()),
            ("pred", pa.string()),
            ("obj", pa.string()),
            ("obj_pos", pa.int64()),
            ("obj_type", pa.string()),
            ("pair_key", pa.string()),
            ("score", pa.float64()),
        ]
    )


def _explode_tokens(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, text) -> one row per token with its 0-based position.
    Vectorized: split + explode + cumcount (the pandas token frame of
    the CRF, subword and disambiguation stages)."""
    toks = batch["text"].str.split(" ")
    ex = pd.DataFrame(
        {"doc_id": batch["doc_id"], "tok": toks}
    ).explode("tok", ignore_index=False)
    ex["pos"] = ex.groupby(level=0).cumcount()
    return ex.reset_index(drop=True)


def split_tokens(t: pa.Table) -> pa.ListArray:
    """``t["text"]`` split on single spaces: one token list per row
    (null for null text) — the one tokenization of the Arrow stages."""
    text = t["text"].combine_chunks()
    if pa.types.is_null(text.type):  # an all-None pandas column
        text = text.cast(pa.string())
    return pc.split_pattern(text, " ")


class MentionExtractor:
    """Gazetteer mention detector: token == surface -> mention row
    (doc_id, pos, surface, ent_type), span = [pos, pos+1)."""

    def __init__(self, gazetteer: Optional[Dict[str, str]] = None):
        gaz = gazetteer if gazetteer is not None else spec.GAZETTEER
        self.surfaces = pa.array(list(gaz), pa.string())
        self.types = pa.array(list(gaz.values()), pa.string())

    def __call__(self, batch) -> pa.Table:
        t = as_arrow(batch)
        row, pos, gi = self.locate(split_tokens(t))
        doc_t = _doc_id_type(t["doc_id"])
        return pa.Table.from_arrays(
            [
                t["doc_id"].take(row).cast(doc_t),
                pa.array(pos),
                self.surfaces.take(gi),
                self.types.take(gi),
            ],
            schema=_mentions_schema(doc_t),
        )

    def locate(self, toks: pa.ListArray) -> Tuple[np.ndarray, ...]:
        """Every gazetteer token of ``toks`` (:func:`split_tokens` of a
        batch) as three int64 arrays in (row, pos) order: its batch
        row, its token position and its gazetteer index.  Null text
        has no tokens."""
        n_tok = pc.list_value_length(toks).fill_null(0).to_numpy()
        ends = np.cumsum(n_tok)
        hit = pc.index_in(toks.flatten(), value_set=self.surfaces)
        at = np.flatnonzero(hit.is_valid().to_numpy(zero_copy_only=False))
        row = np.searchsorted(ends, at, side="right")
        pos = at - (ends - n_tok)[row]
        gi = hit.drop_null().to_numpy().astype(np.int64)
        return row, pos, gi


class TripleExtractor:
    """Fused mention + windowed pair fan-out + relation rule + score.

    Emits one scored triple per ordered mention pair (h, t) in the same
    document with ``1 <= pos_t - pos_h <= window``, in (doc row,
    subj_pos, obj_pos) order:
        (doc_id, subj, subj_pos, subj_type, pred, obj, obj_pos,
         obj_type, pair_key, score)
    The mentions arrive in (row, pos) order and positions are distinct
    within a row, so every such pair is k = 1..window mentions apart:
    ``window`` index shifts, each a vectorized compare — no join, no
    Python loop over rows.
    """

    def __init__(
        self,
        gazetteer: Optional[Dict[str, str]] = None,
        window: int = spec.PAIR_WINDOW,
        pred_map: Optional[Dict[Tuple[str, str], str]] = None,
        min_score: float = 0.0,
    ):
        self._mentions = MentionExtractor(gazetteer)
        self.window = window
        self.min_score = min_score
        pm = pred_map if pred_map is not None else spec.PRED_MAP
        # pred of a pair = preds[table[type code of h, type code of t]]
        types, self._gaz_code = np.unique(
            self._mentions.types.to_numpy(zero_copy_only=False),
            return_inverse=True,
        )
        code = {ty: i for i, ty in enumerate(types)}
        preds = [spec.PRED_FALLBACK] + sorted(set(pm.values()))
        self._preds = pa.array(preds, pa.string())
        self._pred_code = np.zeros((len(types), len(types)), dtype=np.int64)
        for (h, t), p in pm.items():
            if h in code and t in code:
                self._pred_code[code[h], code[t]] = preds.index(p)

    def __call__(self, batch) -> pa.Table:
        t = as_arrow(batch)
        located = self._mentions.locate(split_tokens(t))
        return self.triples(t, located, self.pairs(located))

    def pairs(self, located) -> Tuple[np.ndarray, ...]:
        """Windowed pair fan-out over ``located`` (the
        :meth:`MentionExtractor.locate` of a batch): the head and tail
        mention index of every pair, in (doc row, subj_pos, obj_pos)
        order, and its score."""
        row, pos, _ = located
        heads, tails = [], []
        for k in range(1, self.window + 1):
            h = np.arange(len(row) - k)
            ok = (row[h] == row[h + k]) & (pos[h + k] - pos[h] <= self.window)
            heads.append(h[ok])
            tails.append(h[ok] + k)
        h = np.concatenate(heads) if heads else np.zeros(0, np.int64)
        tl = np.concatenate(tails) if tails else np.zeros(0, np.int64)
        score = 1.0 / (pos[tl] - pos[h])
        keep = np.lexsort((tl, h))
        if self.min_score > 0.0:
            keep = keep[score[keep] >= self.min_score]
        return h[keep], tl[keep], score[keep]

    def triples(self, t: pa.Table, located, pairs) -> pa.Table:
        """The triple rows of ``pairs`` (:meth:`pairs`, or a subset of
        it) over ``located`` (the :meth:`MentionExtractor.locate` of the
        same batch ``t``)."""
        row, pos, gi = located
        h, tl, score = pairs
        surfaces, types = self._mentions.surfaces, self._mentions.types
        subj, obj = surfaces.take(gi[h]), surfaces.take(gi[tl])
        code = self._gaz_code
        doc_t = _doc_id_type(t["doc_id"])
        return pa.Table.from_arrays(
            [
                t["doc_id"].take(row[h]).cast(doc_t),
                subj,
                pa.array(pos[h]),
                types.take(gi[h]),
                self._preds.take(self._pred_code[code[gi[h]], code[gi[tl]]]),
                obj,
                pa.array(pos[tl]),
                types.take(gi[tl]),
                pc.binary_join_element_wise(subj, obj, spec.BAG_KEY_SEP),
                pa.array(score, pa.float64()),
            ],
            schema=_triples_schema(doc_t),
        )


def extract_mentions(docs_ds, **kwargs):
    """documents Dataset (doc_id, text) -> mentions Dataset, a task
    stage whose extractor is built once per worker process
    (``blocks.worker_udf``); an actor pool here only paid ~5 s of
    spin-up per pipeline (measured: the whole flagship dropped 7.7 s ->
    2.2 s at sf0.1 when the light stages left actor pools)."""
    return docs_ds.map_batches(
        worker_udf(MentionExtractor), batch_format="pyarrow", **kwargs)


def extract_triples(docs_ds, min_score: float = 0.0, **kwargs):
    """documents Dataset (doc_id, text) -> scored candidate triples
    (a task stage; see :func:`extract_mentions`)."""
    return docs_ds.map_batches(
        worker_udf(TripleExtractor, min_score=min_score),
        batch_format="pyarrow", **kwargs)


def _tagged_schema(doc_id_t: pa.DataType) -> pa.Schema:
    return _triples_schema(doc_id_t).append(
        pa.field("kind", pa.string())
    ).append(pa.field("surface", pa.string()))


def extract_triples_and_surfaces(
    docs_ds, min_score: float = 0.0, gazetteer: Optional[Dict[str, str]] = None,
    **kwargs
):
    """Single-doc-pass extraction: one streamed output carrying BOTH
    the scored triples (``kind='t'``) and the per-batch distinct
    mention surfaces (``kind='s'``, one tiny row per surface per
    batch) — so the canonical-map aggregation and the pair fan-out
    share ONE pass over the corpus without an intermediate mentions
    dataset.

    Boundary-safe by construction: the pair fan-out runs inside the
    same UDF call that detected the mentions, over input batches that
    respect document row boundaries — unlike fanning out over a
    materialized mentions dataset, where Ray Data's dynamic block
    splitting can cut a large mention block mid-document and silently
    drop cross-boundary pairs.
    """
    # Non-default gazetteer (e.g. a learned-NER surface inventory, the
    # >DRIVER_CC_MAX_NODES scenario): broadcast once via ray.put, build
    # the extractor once per worker process keyed by the ref.
    gaz_ref = None
    if gazetteer is not None:
        import ray

        gaz_ref = ray.put(gazetteer)

    def fn(batch: pa.Table, _ms=min_score, _gref=gaz_ref) -> pa.Table:
        ex = worker_state(TripleExtractor, gazetteer=_gref, min_score=_ms)
        located = ex._mentions.locate(split_tokens(batch))
        triples = ex.triples(batch, located, ex.pairs(located))
        n_t = triples.num_rows
        surfaces = pc.unique(ex._mentions.surfaces.take(located[2]))
        kind = pa.array(["t"] * n_t + ["s"] * len(surfaces), pa.string())
        return pa.concat_tables(
            [triples, pa.table({"surface": surfaces})],
            promote_options="default",
        ).append_column("kind", kind).select(
            _tagged_schema(triples.schema.field("doc_id").type).names
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow", **kwargs)
