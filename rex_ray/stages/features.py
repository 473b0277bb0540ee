"""Doc -> model-ready feature rows (the reference's cached-transform
stage, rex/data/transforms/sent_re.py:31-90, re-expressed as a
vectorized flat-map).

One feature row per valid entity pair: padded ``token_ids`` + pad
``mask``, piecewise segment mask, relative-position vectors for head
and tail, and the (here deterministic) relation label.  Pairs whose
head or tail lies beyond ``max_seq_len`` are dropped — the reference's
truncation filter (sent_re.py:44-48).

The rows are built from a FACTORED form (:class:`DocPairs`): the
extractor's own Arrow tokenization of the batch gives each pair's
positions and each referenced document's token ids, once per document
rather than once per pair.  The fused PCNN scorer consumes that form
directly; :meth:`PairFeaturizer.__call__` expands it to the per-pair
rows above for the feature-row consumers (BiLSTM, the rule twin,
``kg_feature_rows``).

The Vocab is SMALL-SIDE state: built once from the corpus distinct
tokens (one tiny aggregate) and resolved per actor from a broadcast
ref, mirroring how the reference loads its pretrained vocab once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from rex_ray.functions.blocks import (
    as_arrow,
    default_concurrency,
    fixed_list_column,
)
from rex_ray.functions.mask import piecewise_mask_batch
from rex_ray.functions.position import relative_positions_matrix
from rex_ray.pipelines import spec
from rex_ray.pipelines.spec import MAX_SEQ_LEN
from rex_ray.state.dictionaries import LabelEncoder, Vocab


def _feature_schema(max_seq_len: int, doc_id_t: pa.DataType) -> pa.Schema:
    """Fixed output schema for feature rows — every block (including
    empty ones, which pandas would otherwise infer as ``null``-typed)
    carries identical columns/dtypes.  ``doc_id_t`` follows the input
    (int64 parquet ids vs 'doc-XXXX' interleaved strings)."""
    fsl = lambda t: pa.list_(t, max_seq_len)  # noqa: E731
    return pa.schema(
        [
            ("doc_id", doc_id_t),
            ("pair_key", pa.string()),
            ("subj_pos", pa.int64()),
            ("obj_pos", pa.int64()),
            ("label_id", pa.int64()),
            ("n_real_tokens", pa.int64()),
            ("token_ids", fsl(pa.int32())),
            ("mask", fsl(pa.int8())),
            ("pmask", fsl(pa.int8())),
            ("rel_pos_subj", fsl(pa.int32())),
            ("rel_pos_obj", fsl(pa.int32())),
        ]
    )


def relation_label_encoder() -> LabelEncoder:
    """Fixed relation inventory from the spec (order-stable)."""
    rels = sorted(set(spec.PRED_MAP.values()) | {spec.PRED_FALLBACK})
    return LabelEncoder(rels)


def build_corpus_vocab(docs_ds) -> Vocab:
    """Corpus distinct tokens -> Vocab (driver-side, broadcast once)."""
    from rex_ray.state.dictionaries import distinct_corpus_tokens

    return Vocab(distinct_corpus_tokens(docs_ds))


class DocPairs(NamedTuple):
    """A batch's candidate pairs in factored form: every pair's scalars
    once (``pairs``: doc_id, pair_key, subj_pos, obj_pos, label_id,
    n_real_tokens) and every referenced document's token ids once
    (``token_ids`` (D, L) int32 padded with the pad id, ``n_real``
    (D,) its real-token count); ``doc_row`` (n,) is each pair's row in
    ``token_ids``.  A document's ~56 pairs share one row of tokens."""

    pairs: pa.Table
    token_ids: np.ndarray
    n_real: np.ndarray
    doc_row: np.ndarray


class PairFeaturizer:
    """(doc_id, text) batches -> one feature row per valid pair.

    Output columns: doc_id, pair_key, subj_pos, obj_pos, label_id,
    n_real_tokens, token_ids (list<int32>), mask, pmask, rel_pos_subj,
    rel_pos_obj.  :meth:`doc_pairs` is the same batch in factored form,
    which the PCNN scorer consumes without expanding it.
    """

    def __init__(self, vocab_ref, max_seq_len: int = MAX_SEQ_LEN):
        self.vocab: Vocab = (
            ray.get(vocab_ref)
            if isinstance(vocab_ref, ray.ObjectRef)
            else vocab_ref
        )
        self.max_seq_len = max_seq_len
        self.labels = relation_label_encoder()
        from rex_ray.stages.extract import TripleExtractor

        self._extract = TripleExtractor()
        # token id = index in id2token; label id = index in id2label
        self._tokens = pa.array(self.vocab.id2token, pa.string())
        self._label_names = pa.array(self.labels.id2label, pa.string())

    def doc_pairs(self, batch) -> DocPairs:
        """Pairs with head and tail inside ``max_seq_len``, from the
        extractor's own tokenization of the batch (no second split)."""
        from rex_ray.stages.extract import split_tokens

        L = self.max_seq_len
        t = as_arrow(batch)
        toks = split_tokens(t)
        ex = self._extract
        located = ex._mentions.locate(toks)
        h, tl, score = ex.pairs(located)
        row, pos, _ = located
        keep = (pos[h] < L) & (pos[tl] < L)
        h, tl = h[keep], tl[keep]
        tri = ex.triples(t, located, (h, tl, score[keep]))
        docs, doc_row = np.unique(row[h], return_inverse=True)
        # the first L tokens of each referenced doc, as vocab ids
        heads = pc.list_slice(toks.take(docs), 0, L)
        n_real = pc.list_value_length(heads).to_numpy().astype(np.int64)
        ids = np.full((len(docs), L), self.vocab.pad_id, dtype=np.int32)
        flat = pc.index_in(pc.list_flatten(heads), value_set=self._tokens)
        ends = np.cumsum(n_real)
        at = np.arange(ends[-1] if len(ends) else 0)
        r = np.repeat(np.arange(len(docs)), n_real)
        ids[r, at - (ends - n_real)[r]] = (
            flat.fill_null(self.vocab.unk_id).to_numpy()
        )
        label_id = pc.index_in(tri["pred"], value_set=self._label_names)
        pairs = pa.table(
            {
                "doc_id": tri["doc_id"],
                "pair_key": tri["pair_key"],
                "subj_pos": tri["subj_pos"],
                "obj_pos": tri["obj_pos"],
                "label_id": label_id.cast(pa.int64()),
                "n_real_tokens": pa.array(n_real[doc_row], pa.int64()),
            }
        )
        return DocPairs(pairs, ids, n_real, doc_row)

    def __call__(self, batch) -> pa.Table:
        """:meth:`doc_pairs` expanded to one fixed-shape row per pair."""
        dp = self.doc_pairs(batch)
        L = self.max_seq_len
        p = dp.pairs
        schema = _feature_schema(L, p.schema.field("doc_id").type)
        sp = p["subj_pos"].to_numpy()
        op = p["obj_pos"].to_numpy()
        n_real = dp.n_real[dp.doc_row]
        mask = (np.arange(L)[None, :] < n_real[:, None]).astype(np.int8)
        # fixed-shape tensors go into Arrow FixedSizeList columns built
        # from the raveled buffers — no per-row Python, zero-copy reads
        # in the scorer (measured ~20x vs object-list columns)
        for name, mat in (
            ("token_ids", dp.token_ids[dp.doc_row]),
            ("mask", mask),
            ("pmask", piecewise_mask_batch(sp, op, n_real, L)),
            ("rel_pos_subj", relative_positions_matrix(sp, L).astype(np.int32)),
            ("rel_pos_obj", relative_positions_matrix(op, L).astype(np.int32)),
        ):
            p = p.append_column(name, fixed_list_column(mat))
        return p.cast(schema)


def featurize(docs_ds, vocab: Optional[Vocab] = None, **kwargs):
    if vocab is None:
        vocab = build_corpus_vocab(docs_ds)
    ref = ray.put(vocab)
    return docs_ds.map_batches(
        PairFeaturizer,
        fn_constructor_kwargs={"vocab_ref": ref},
        batch_format="pyarrow",
        concurrency=kwargs.pop("concurrency", None) or default_concurrency(),
        **kwargs,
    )
