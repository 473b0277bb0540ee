"""CRF-decoded NER stage: emissions -> masked viterbi -> entity spans.

The learned half of the reference's CRF taggers is a trained torch
module; this stage is its inference twin with a DETERMINISTIC seeded
parameterization (same uniform(-0.1, 0.1) init distribution as
reference ``rex/modules/crf.py:265-272``) so the whole path is
reproducible and oracle-checkable:

* emissions are built from the spec gazetteer in closed form — the
  favored tag (B-ty / I-ty on gazetteer hits, I when the previous
  token is the same type; O elsewhere) scores ``EMIT_SCORE``, all
  others 0.  The margin (10.0) dominates any transition-score
  difference (|t| <= 0.1), so the viterbi argmax path IS the favored
  tag sequence — which DuckDB can derive with an islands query — while
  the kernel still runs the full dynamic program over the seeded
  transition matrix (the unit tests exercise the nontrivial regime
  against brute-force path enumeration).
* decode runs :func:`rex_ray.functions.crf.masked_decode` (BIO-masked
  transitions, MaskedCRF semantics) by default; ``plain`` and
  ``constrained`` modes expose the other two reference decoders.

A trained checkpoint drops in by replacing the seeded parameters via
``CrfWeights`` (same shapes as PlainCRF:253-263).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray.functions import crf as crf_fn
from rex_ray.functions.blocks import arrow_block
from rex_ray.functions.tagging import get_entities_from_tags
from rex_ray.pipelines import spec
from rex_ray.pipelines.spec import MAX_SEQ_LEN
from rex_ray.stages.extract import _doc_id_type, _explode_tokens

EMIT_SCORE = 10.0
CRF_SEED = 20260817


def bio_labels(ent_types: Optional[List[str]] = None) -> List[str]:
    """Order-stable BIO label inventory over the spec entity types."""
    types = (
        sorted(ent_types)
        if ent_types is not None
        else sorted(set(spec.GAZETTEER.values()))
    )
    out = ["O"]
    for ty in types:
        out.extend([f"B-{ty}", f"I-{ty}"])
    return out


@dataclass
class CrfWeights:
    """CRF parameters (shape contract of PlainCRF:253-263).  The
    default is the deterministic seeded init; a trained checkpoint
    loads via :func:`rex_ray.state.weights` into the same fields."""

    transitions: np.ndarray  # (T, T)
    start_transitions: np.ndarray  # (T,)
    end_transitions: np.ndarray  # (T,)

    @classmethod
    def seeded(cls, num_tags: int, seed: int = CRF_SEED) -> "CrfWeights":
        rng = np.random.default_rng(seed)
        return cls(
            transitions=rng.uniform(-0.1, 0.1, (num_tags, num_tags)),
            start_transitions=rng.uniform(-0.1, 0.1, num_tags),
            end_transitions=rng.uniform(-0.1, 0.1, num_tags),
        )


def _entities_schema(doc_id_t: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", doc_id_t),
            ("start_pos", pa.int64()),
            ("end_pos", pa.int64()),
            ("surface", pa.string()),
            ("ent_type", pa.string()),
        ]
    )


class CrfNerTagger:
    """(doc_id, text) batches -> CRF-decoded entity spans.

    Stateful setup (label space, seeded weights, BIO transition mask)
    happens once per actor/worker; per batch the emission build is
    vectorized pandas/numpy and the viterbi loop is over L only.
    """

    def __init__(
        self,
        gazetteer: Optional[Dict[str, str]] = None,
        max_seq_len: int = MAX_SEQ_LEN,
        decode_mode: str = "masked",
        weights: Optional[CrfWeights] = None,
    ):
        self.gaz = gazetteer if gazetteer is not None else spec.GAZETTEER
        self.max_seq_len = max_seq_len
        self.decode_mode = decode_mode
        self.labels = bio_labels(sorted(set(self.gaz.values())))
        self.label2id = {l: i for i, l in enumerate(self.labels)}
        T = len(self.labels)
        self.w = weights if weights is not None else CrfWeights.seeded(T)
        self.allowed = crf_fn.allowed_transitions(
            "BIO", dict(enumerate(self.labels))
        )
        self.trans_mask, self.start_mask, self.end_mask = (
            crf_fn.transition_mask(T, self.allowed)
        )
        self._gaz_series = pd.Series(self.gaz, name="ent_type")

    # -- emission construction (closed-form, vectorized) --------------
    def emissions(self, batch: pd.DataFrame):
        """(emissions (B, L, T), mask (B, L), token_lists) for a
        (doc_id, text) batch; L = min(longest doc, max_seq_len)."""
        tok_lists = [t.split(" ") for t in batch["text"]]
        L = min(max(len(t) for t in tok_lists), self.max_seq_len)
        B, T = len(batch), len(self.labels)

        ex = _explode_tokens(batch)
        ex["ent_type"] = ex["tok"].map(self._gaz_series)
        same_doc = ex["doc_id"].eq(ex["doc_id"].shift(1))
        cont = (
            ex["ent_type"].notna()
            & same_doc
            & (ex["ent_type"].shift(1) == ex["ent_type"])
        )
        label = pd.Series(np.where(
            ex["ent_type"].isna(),
            "O",
            np.where(cont, "I-", "B-") + ex["ent_type"].fillna(""),
        ), index=ex.index)
        lab_id = label.map(self.label2id).to_numpy(dtype=np.int64)

        # row index of each exploded token within the batch
        doc_row = (
            ex["doc_id"].ne(ex["doc_id"].shift(1)).cumsum().to_numpy() - 1
        )
        pos = ex["pos"].to_numpy(dtype=np.int64)
        keep = pos < L
        em = np.zeros((B, L, T), dtype=np.float64)
        em[doc_row[keep], pos[keep], lab_id[keep]] = EMIT_SCORE

        lens = np.minimum([len(t) for t in tok_lists], L)
        mask = (np.arange(L)[None, :] < lens[:, None]).astype(np.int64)
        return em, mask, tok_lists

    def decode(self, em, mask):
        if self.decode_mode == "masked":
            return crf_fn.masked_decode(
                em, mask,
                self.w.transitions, self.w.start_transitions,
                self.w.end_transitions,
                self.trans_mask, self.start_mask, self.end_mask,
            )
        if self.decode_mode == "constrained":
            return crf_fn.constrained_decode(
                em, mask,
                self.w.transitions, self.w.start_transitions,
                self.w.end_transitions, self.allowed,
            )
        return crf_fn.viterbi_decode_batch(
            em, mask,
            self.w.transitions, self.w.start_transitions,
            self.w.end_transitions,
        )

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        schema = _entities_schema(_doc_id_type(batch["doc_id"]))
        em, mask, tok_lists = self.emissions(batch)
        tags, _ = self.decode(em, mask)
        lens = mask.sum(axis=1)

        rows = {k: [] for k in schema.names}
        for r, doc_id in enumerate(batch["doc_id"]):
            n = int(lens[r])
            tag_names = [self.labels[t] for t in tags[r, :n]]
            for surface, ent_type, (s, e) in get_entities_from_tags(
                tok_lists[r][:n], tag_names, join=" "
            ):
                rows["doc_id"].append(doc_id)
                rows["start_pos"].append(s)
                rows["end_pos"].append(e)
                rows["surface"].append(surface)
                rows["ent_type"].append(ent_type)
        return arrow_block(pd.DataFrame(rows), schema=schema)


from functools import lru_cache


@lru_cache(maxsize=4)
def _tagger_singleton(decode_mode: str) -> CrfNerTagger:
    return CrfNerTagger(decode_mode=decode_mode)


def crf_entities(docs_ds, decode_mode: str = "masked", **kwargs):
    """documents Dataset (doc_id, text) -> CRF-decoded entity spans.
    Task-based with per-process state cache (the CRF state is small;
    see stages/extract.py:193-211 for the task-vs-actor rationale)."""
    kwargs.pop("concurrency", None)

    def fn(batch: pd.DataFrame, _m=decode_mode) -> pa.Table:
        return _tagger_singleton(_m)(batch)

    return docs_ds.map_batches(fn, batch_format="pandas", **kwargs)
