"""Broadcastable dictionary state: Vocab, LabelEncoder, embedding file.

Reference semantics (re-derived, not ported):

* ``Vocab`` — token<->id maps with optional per-token weight rows and
  pad/unk handling (rex/data/vocab.py:35-156); fixed-length encode
  producing (ids, mask) with pad=0 mask (vocab.py:21-32,105-122).
* ``LabelEncoder`` — label<->id with multi-hot / one-hot conversion
  (rex/data/label_encoder.py:6-86).
* ``load_embedding_file`` — whitespace emb file with optional
  "<num> <dim>" header sniff and dim-mismatch row skip
  (rex/utils/io.py:138-169).
* ``build_filtered_embedding`` — corpus-vocab ∩ pretrained-emb
  semi-join (rex/utils/build_emb.py:18-49), distributed: the distinct
  corpus tokens come from a Dataset aggregation, the emb table is
  filtered on the driver and broadcast.

In the engine these are SMALL-SIDE state: built once on the driver,
``ray.put`` once, resolved once per worker process with the stage
object that holds them (``functions/blocks.worker_state``) — never
reshipped per batch (SURVEY.md §2.3).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PAD = "[PAD]"
UNK = "[UNK]"


class Vocab:
    """token <-> id map with optional weight rows.

    ids 0/1 are reserved for pad/unk when ``include_pad_unk`` (the
    reference's default layout)."""

    def __init__(
        self,
        tokens: Optional[Iterable[str]] = None,
        include_pad_unk: bool = True,
        pad: str = PAD,
        unk: str = UNK,
    ):
        self.pad, self.unk = pad, unk
        self.token2id: Dict[str, int] = {}
        self.id2token: List[str] = []
        self.weights: Optional[np.ndarray] = None
        if include_pad_unk:
            self.add(pad)
            self.add(unk)
        for t in tokens or ():
            self.add(t)

    def __len__(self) -> int:
        return len(self.id2token)

    def __contains__(self, token: str) -> bool:
        return token in self.token2id

    @property
    def pad_id(self) -> int:
        return self.token2id[self.pad]

    @property
    def unk_id(self) -> int:
        return self.token2id[self.unk]

    def add(self, token: str) -> int:
        if token not in self.token2id:
            self.token2id[token] = len(self.id2token)
            self.id2token.append(token)
        return self.token2id[token]

    def update(self, tokens: Iterable[str]) -> None:
        for t in tokens:
            self.add(t)

    def convert_tokens_to_ids(self, tokens: Sequence[str]) -> List[int]:
        unk = self.token2id.get(self.unk)
        return [self.token2id.get(t, unk) for t in tokens]

    def convert_ids_to_tokens(self, ids: Sequence[int]) -> List[str]:
        return [self.id2token[i] for i in ids]

    def encode(
        self, tokens: Sequence[str], max_len: int
    ) -> Tuple[List[int], List[int]]:
        """Fixed-length (ids, mask): truncate to ``max_len``, pad with
        pad_id, mask 1 on real tokens / 0 on padding (reference
        ``get_pad_mask`` semantics, vocab.py:21-32)."""
        ids = self.convert_tokens_to_ids(list(tokens)[:max_len])
        mask = [1] * len(ids)
        if len(ids) < max_len:
            pad_n = max_len - len(ids)
            ids = ids + [self.pad_id] * pad_n
            mask = mask + [0] * pad_n
        return ids, mask

    def encode_batch(
        self, token_lists: Sequence[Sequence[str]], max_len: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized batch encode -> (N, max_len) int64 ids + mask."""
        n = len(token_lists)
        ids = np.full((n, max_len), self.pad_id, dtype=np.int64)
        mask = np.zeros((n, max_len), dtype=np.int64)
        unk = self.unk_id
        t2i = self.token2id
        for r, toks in enumerate(token_lists):
            k = min(len(toks), max_len)
            ids[r, :k] = [t2i.get(t, unk) for t in toks[:k]]
            mask[r, :k] = 1
        return ids, mask

    # -- persistence (json map + optional .npy weights) ---------------
    def save_pretrained(self, dirname: str) -> None:
        os.makedirs(dirname, exist_ok=True)
        with open(os.path.join(dirname, "vocab.json"), "w") as f:
            json.dump(
                {"id2token": self.id2token, "pad": self.pad, "unk": self.unk},
                f,
            )
        if self.weights is not None:
            np.save(os.path.join(dirname, "weights.npy"), self.weights)

    @classmethod
    def from_pretrained(cls, dirname: str) -> "Vocab":
        with open(os.path.join(dirname, "vocab.json")) as f:
            obj = json.load(f)
        v = cls(include_pad_unk=False, pad=obj["pad"], unk=obj["unk"])
        for t in obj["id2token"]:
            v.add(t)
        wpath = os.path.join(dirname, "weights.npy")
        if os.path.exists(wpath):
            v.weights = np.load(wpath)
        return v

    @classmethod
    def from_embedding(
        cls,
        token2vec: Dict[str, np.ndarray],
        dim: Optional[int] = None,
    ) -> "Vocab":
        """Vocab + weight matrix from an embedding dict; pad row =
        zeros, unk row = mean of all vectors (common convention)."""
        v = cls()
        vecs = list(token2vec.values())
        if dim is None:
            dim = len(vecs[0]) if vecs else 0
        rows = [np.zeros(dim), np.mean(vecs, axis=0) if vecs else np.zeros(dim)]
        for t, vec in token2vec.items():
            v.add(t)
            rows.append(np.asarray(vec, dtype=np.float64))
        v.weights = np.stack(rows) if rows else None
        return v


class LabelEncoder:
    """label <-> id map with multi-hot/one-hot conversion
    (rex/data/label_encoder.py:6-86 semantics)."""

    def __init__(self, labels: Optional[Iterable[str]] = None):
        self.label2id: Dict[str, int] = {}
        self.id2label: List[str] = []
        for lab in labels or ():
            self.add(lab)

    def __len__(self) -> int:
        return len(self.id2label)

    def __contains__(self, label: str) -> bool:
        return label in self.label2id

    def add(self, label: str) -> int:
        if label not in self.label2id:
            self.label2id[label] = len(self.id2label)
            self.id2label.append(label)
        return self.label2id[label]

    def update(self, labels: Iterable[str]) -> None:
        for lab in labels:
            self.add(lab)

    def encode(self, labels: Sequence[str]) -> List[int]:
        return [self.label2id[lab] for lab in labels]

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self.id2label[i] for i in ids]

    def to_multi_hot(self, labels: Sequence[str]) -> np.ndarray:
        out = np.zeros(len(self.id2label), dtype=np.int64)
        for lab in labels:
            out[self.label2id[lab]] = 1
        return out

    def to_one_hot(self, label: str) -> np.ndarray:
        out = np.zeros(len(self.id2label), dtype=np.int64)
        out[self.label2id[label]] = 1
        return out

    def save_pretrained(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.label2id, f)

    @classmethod
    def from_pretrained(cls, path: str) -> "LabelEncoder":
        with open(path) as f:
            label2id = json.load(f)
        enc = cls()
        for lab, _ in sorted(label2id.items(), key=lambda kv: kv[1]):
            enc.add(lab)
        return enc


def load_embedding_file(
    path: str, encoding: str = "utf-8"
) -> Tuple[List[str], Dict[str, np.ndarray]]:
    """Whitespace-separated embedding file -> (tokens, token2vec).

    First line may be a "<num_tokens> <dim>" header (sniffed: exactly
    two integer fields); rows whose vector length disagrees with the
    established dim are SKIPPED, mirroring the reference loader
    (rex/utils/io.py:138-169)."""
    tokens: List[str] = []
    token2vec: Dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    with open(path, encoding=encoding) as f:
        first = f.readline().rstrip("\n")
        parts = first.split()
        header = len(parts) == 2 and all(
            p.lstrip("-").isdigit() for p in parts
        )
        if header:
            dim = int(parts[1])
        else:
            if len(parts) >= 2:
                vec = np.asarray([float(x) for x in parts[1:]])
                dim = len(vec)
                tokens.append(parts[0])
                token2vec[parts[0]] = vec
        for line in f:
            parts = line.rstrip("\n").split()
            if len(parts) < 2:
                continue
            vec_len = len(parts) - 1
            if dim is None:
                dim = vec_len
            if vec_len != dim:
                continue  # dim-mismatch row skip
            tok = parts[0]
            tokens.append(tok)
            token2vec[tok] = np.asarray([float(x) for x in parts[1:]])
    return tokens, token2vec


def distinct_corpus_tokens(docs_ds) -> List[str]:
    """Distinct whitespace tokens of a (doc_id, text) Dataset — the
    distributed half of the emb semi-join (build_emb.py:34-43):
    per-batch distinct inside map_batches, one tiny unique shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rex_ray.functions.blocks import pre_shuffle

    def batch_distinct(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(t["text"], pattern=" ")
        ).unique()
        return pa.Table.from_arrays([toks], names=["token"])

    partial = docs_ds.map_batches(batch_distinct, batch_format="pyarrow")
    uniq = pre_shuffle(partial).unique("token")
    return sorted(uniq) if uniq else []


def build_filtered_embedding(
    docs_ds, token2vec: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """corpus-vocab ∩ pretrained-emb (rex/utils/build_emb.py:18-49):
    keep only embedding rows whose token occurs in the corpus."""
    present = set(distinct_corpus_tokens(docs_ds))
    return {t: v for t, v in token2vec.items() if t in present}
