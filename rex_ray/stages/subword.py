"""Subword tokenization + word->subword offset remapping.

Re-expression of the reference's BERT-tokenizer transform
(``/root/reference/rex/data/transforms/entity_re.py:106-251``,
``StreamBERTSubjObjSpanTransform``) with a DETERMINISTIC subword rule
(no HF tokenizer in this environment): a word splits into fixed-width
pieces of at most :data:`PIECE_WIDTH` chars, continuations prefixed
``##`` — so the remapped position of word *i* is the running sum of
``ceil(len(word)/PIECE_WIDTH)`` over preceding words, which the DuckDB
oracle expresses as a window sum.

Faithfully-replicated reference semantics (quirks included):

* ``encode`` (entity_re.py:124-141): ``[CLS] + flat_subwords[:L-2] +
  [SEP]`` then pad; mask covers CLS/SEP.
* ``get_offset_position`` (entity_re.py:143-160): the new position is
  the subword index WITHOUT the +1 CLS offset (the reference's
  ``offset`` arg is never applied), and a word index past the last
  word returns -1.
* boundary filter (entity_re.py:193-198): a pair survives only when
  all four remapped positions satisfy ``0 < p < max_seq_len`` — which
  silently drops entities starting at word 0 (remaps to 0) and
  entities ending at the last word (end remaps to -1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from rex_ray.functions.blocks import fixed_list_column
from rex_ray.pipelines.spec import MAX_SEQ_LEN
from rex_ray.stages.extract import (
    TripleExtractor,
    _doc_id_type,
    _explode_tokens,
)
from rex_ray.state.dictionaries import Vocab

PIECE_WIDTH = 4
CLS, SEP = "[CLS]", "[SEP]"


def subword_pieces(word: str) -> List[str]:
    """Deterministic BPE-ish split: fixed-width pieces, ``##``
    continuations.  ``n_pieces(word) == ceil(len(word)/PIECE_WIDTH)``
    (0 for the empty string) — the property the oracle relies on."""
    if not word:
        return []
    out = [word[:PIECE_WIDTH]]
    for i in range(PIECE_WIDTH, len(word), PIECE_WIDTH):
        out.append("##" + word[i : i + PIECE_WIDTH])
    return out


def n_pieces_array(lengths: np.ndarray) -> np.ndarray:
    """Vectorized piece count per word length."""
    return -(-lengths // PIECE_WIDTH)


def build_subword_vocab(docs_ds) -> Vocab:
    """Distinct corpus subword pieces (+ CLS/SEP) -> Vocab, built with
    one tiny distinct-aggregate and broadcast once."""
    from rex_ray.state.dictionaries import distinct_corpus_tokens

    words = distinct_corpus_tokens(docs_ds)
    pieces = sorted({p for w in words for p in subword_pieces(w)})
    return Vocab([CLS, SEP] + pieces)


def encode_subwords(
    vocab: Vocab, token_list: List[List[str]], max_seq_len: int
):
    """Reference ``encode`` (entity_re.py:124-141): CLS + truncated
    flat pieces + SEP, padded; returns (ids, mask) lists."""
    flat: List[str] = []
    for pieces in token_list:
        flat.extend(pieces)
    flat = flat[: max_seq_len - 2]
    toks = [CLS] + flat + [SEP]
    mask = [1] * len(toks)
    ids = vocab.convert_tokens_to_ids(toks)
    pad = max_seq_len - len(ids)
    ids = ids + [vocab.pad_id] * pad
    mask = mask + [0] * pad
    return ids, mask


def get_offset_position(
    token_list: List[List[str]], pos: int, offset: int = 1
) -> int:
    """Reference ``get_offset_position`` (entity_re.py:143-160),
    quirks preserved: ``offset`` is accepted but NOT applied, and a
    ``pos`` past the last word returns -1."""
    record_idx = 0
    for idx, pieces in enumerate(token_list):
        if idx == pos:
            return record_idx
        record_idx += len(pieces)
    return -1


def _subword_schema(doc_id_t: pa.DataType, L: int) -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", doc_id_t),
            ("pair_key", pa.string()),
            ("pred", pa.string()),
            ("subj_pos", pa.int64()),
            ("obj_pos", pa.int64()),
            ("subj_sub_start", pa.int64()),
            ("subj_sub_end", pa.int64()),
            ("obj_sub_start", pa.int64()),
            ("obj_sub_end", pa.int64()),
            ("n_subwords", pa.int64()),
            ("token_ids", pa.list_(pa.int32(), L)),
            ("mask", pa.list_(pa.int8(), L)),
        ]
    )


class SubwordPairFeaturizer:
    """(doc_id, text) batches -> one subword-feature row per surviving
    entity pair: remapped subj/obj subword spans + CLS/SEP-assembled
    ``token_ids``/``mask``.

    The remap is vectorized: piece counts come from token lengths, the
    per-word start offset is a per-doc shifted cumsum over the exploded
    token frame, and the four position lookups are hash joins — no
    Python loop over pairs.
    """

    def __init__(self, vocab_ref, max_seq_len: int = MAX_SEQ_LEN):
        self.vocab: Vocab = (
            ray.get(vocab_ref)
            if isinstance(vocab_ref, ray.ObjectRef)
            else vocab_ref
        )
        self.max_seq_len = max_seq_len
        self._extract = TripleExtractor()

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        L = self.max_seq_len
        schema = _subword_schema(_doc_id_type(batch["doc_id"]), L)
        pairs = self._extract(batch).to_pandas()
        if len(pairs) == 0:
            return schema.empty_table()

        # per-word subword start offsets (reference get_offset_position
        # as a shifted per-doc cumsum) + -1 sentinel past the last word
        ex = _explode_tokens(batch)
        cnt = n_pieces_array(ex["tok"].str.len().to_numpy(dtype=np.int64))
        grp = ex["doc_id"].ne(ex["doc_id"].shift(1)).cumsum()
        csum = pd.Series(cnt).groupby(grp.values).cumsum().to_numpy()
        ex = ex.assign(sub_start=csum - cnt)

        look = ex[["doc_id", "pos", "sub_start"]]
        for role in ("subj", "obj"):
            pairs = pairs.merge(
                look.rename(
                    columns={"pos": f"{role}_pos",
                             "sub_start": f"{role}_sub_start"}
                ),
                on=["doc_id", f"{role}_pos"],
                how="left",
            )
            # end = offset of word pos+1; past-the-end word -> -1
            end_look = look.assign(pos_m1=look["pos"] - 1)
            pairs = pairs.merge(
                end_look[["doc_id", "pos_m1", "sub_start"]].rename(
                    columns={"pos_m1": f"{role}_pos",
                             "sub_start": f"{role}_sub_end"}
                ),
                on=["doc_id", f"{role}_pos"],
                how="left",
            )
        for c in ("subj_sub_start", "subj_sub_end",
                  "obj_sub_start", "obj_sub_end"):
            pairs[c] = pairs[c].fillna(-1).astype(np.int64)

        # boundary filter (entity_re.py:193-198): all four strictly
        # inside (0, max_seq_len)
        keep = np.ones(len(pairs), dtype=bool)
        for c in ("subj_sub_start", "subj_sub_end",
                  "obj_sub_start", "obj_sub_end"):
            keep &= (pairs[c] > 0) & (pairs[c] < L)
        pairs = pairs[keep].reset_index(drop=True)
        if len(pairs) == 0:
            return schema.empty_table()

        # encode each referenced doc once
        texts = dict(zip(batch["doc_id"], batch["text"]))
        doc_ids = pairs["doc_id"].unique()
        ids_rows, mask_rows, n_sub = [], [], {}
        for d in doc_ids:
            token_list = [subword_pieces(w) for w in texts[d].split(" ")]
            ids, mask = encode_subwords(self.vocab, token_list, L)
            ids_rows.append(ids)
            mask_rows.append(mask)
            n_sub[d] = sum(mask)
        row_of_doc = {d: i for i, d in enumerate(doc_ids)}
        sel = pairs["doc_id"].map(row_of_doc).to_numpy(dtype=np.int64)
        ids_mat = np.asarray(ids_rows, dtype=np.int32)[sel]
        mask_mat = np.asarray(mask_rows, dtype=np.int8)[sel]

        out = pa.Table.from_pydict(
            {
                "doc_id": pairs["doc_id"],
                "pair_key": pairs["pair_key"],
                "pred": pairs["pred"],
                "subj_pos": pairs["subj_pos"],
                "obj_pos": pairs["obj_pos"],
                "subj_sub_start": pairs["subj_sub_start"],
                "subj_sub_end": pairs["subj_sub_end"],
                "obj_sub_start": pairs["obj_sub_start"],
                "obj_sub_end": pairs["obj_sub_end"],
                "n_subwords": pairs["doc_id"].map(n_sub).astype(np.int64),
            },
            schema=schema.remove(schema.get_field_index("mask")).remove(
                schema.get_field_index("token_ids")
            ),
        )
        out = out.append_column("token_ids", fixed_list_column(ids_mat))
        out = out.append_column("mask", fixed_list_column(mask_mat))
        return out.select(schema.names).cast(schema)


def featurize_subword(
    docs_ds, vocab: Optional[Vocab] = None, **kwargs
):
    """documents Dataset -> subword feature rows (broadcast vocab,
    actor-pool stage — the vocab is model-like state)."""
    from rex_ray.functions.blocks import default_concurrency

    if vocab is None:
        vocab = build_subword_vocab(docs_ds)
    ref = ray.put(vocab)
    return docs_ds.map_batches(
        SubwordPairFeaturizer,
        fn_constructor_kwargs={"vocab_ref": ref},
        batch_format="pandas",
        concurrency=kwargs.pop("concurrency", None) or default_concurrency(),
        **kwargs,
    )
