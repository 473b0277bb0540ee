"""Interleaved text+media documents: the engine's primary input shape.

Schema (``BASELINE.json`` ``input_hint``)::

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

Per-row invariant (SURVEY.md §2.9): the span sequence (kind, text,
media_ref, order) is preserved verbatim by every stage; media payloads
stay behind ``media_ref`` strings — bytes are never inlined.

At production scale this table is a Lance dataset read via
``ray.data.read_lance`` (zero-copy Arrow).  Lance is not installed in
this sandbox, so :func:`read_interleaved` falls back to Parquet with the
identical schema; the synthesizer below derives the table
deterministically from ``documents.parquet`` (seeded by ``doc_id``
arithmetic only — see ``pipelines/spec.py`` for the exact rule, which
the DuckDB oracle replicates).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rex_ray.pipelines import spec

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

INTERLEAVED_SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("spans", pa.list_(SPAN_STRUCT))]
)


def doc_id_str(doc_id_int: int) -> str:
    return f"doc-{doc_id_int:08d}"


def doc_id_int_array(doc_id: pa.ChunkedArray) -> pa.Array:
    """'doc-00000042' -> 42, vectorized."""
    return pc.cast(pc.utf8_slice_codeunits(doc_id, 4, 99), pa.int64())


def synthesize_batch_rowwise(batch: pa.Table) -> pa.Table:
    """Straight-line per-doc reference implementation of the synthesis
    spec — kept as the equality gold for the vectorized path."""
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    out_ids: List[str] = []
    out_spans: List[List[dict]] = []
    for did, text in zip(doc_ids, texts):
        tokens = text.split(" ")
        c = spec.chunk_size(did)
        spans: List[dict] = []
        offset = 0
        n_text = 0
        n_media = 0
        for i in range(0, len(tokens), c):
            spans.append(
                {
                    "kind": "text",
                    "text": " ".join(tokens[i : i + c]),
                    "media_ref": "",
                    "offset": offset,
                }
            )
            offset += 1
            n_text += 1
            if n_text % 2 == 0:
                n_media += 1
                spans.append(
                    {
                        "kind": spec.media_kind(did, n_media),
                        "text": "",
                        "media_ref": f"media://{did}/{n_media}",
                        "offset": offset,
                    }
                )
                offset += 1
        out_ids.append(doc_id_str(did))
        out_spans.append(spans)
    return pa.Table.from_pydict(
        {"doc_id": out_ids, "spans": out_spans}, schema=INTERLEAVED_SCHEMA
    )


def synthesize_batch(batch: pa.Table) -> pa.Table:
    """documents rows (doc_id:int64, text:string) -> interleaved docs.

    Fully vectorized (Arrow kernels + numpy offset arithmetic; no
    per-doc Python).  Span layout per the spec: text chunks of
    ``4 + doc_id % 4`` tokens with one media span after every 2nd text
    span, i.e. the slot pattern (text, text, media) repeating, so slot
    j is media iff j % 3 == 2.  Equality with the row-wise reference
    implementation is asserted in tests on real data.
    """
    n_docs = len(batch)
    if n_docs == 0:
        return INTERLEAVED_SCHEMA.empty_table()
    did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    tok_lists = pc.split_pattern(batch["text"], pattern=" ")
    if isinstance(tok_lists, pa.ChunkedArray):
        tok_lists = tok_lists.combine_chunks()
    n_tok = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    c = 4 + (did % 4)                         # spec.chunk_size, vectorized
    n_text = -(-n_tok // c)                   # ceil
    n_media = n_text // 2
    slots = n_text + n_media

    # ---- text chunk strings: regroup flat tokens by (doc, chunk) ----
    flat_tokens = tok_lists.flatten()
    parent = np.repeat(np.arange(n_docs), n_tok)
    tok_start = np.concatenate([[0], np.cumsum(n_tok)[:-1]])
    pos_in_doc = np.arange(len(flat_tokens)) - tok_start[parent]
    chunk_in_doc = pos_in_doc // c[parent]
    text_base = np.concatenate([[0], np.cumsum(n_text)[:-1]])
    gchunk = text_base[parent] + chunk_in_doc
    total_chunks = int(n_text.sum())
    chunk_sizes = np.bincount(gchunk, minlength=total_chunks)
    chunk_offsets = np.zeros(total_chunks + 1, dtype=np.int32)
    np.cumsum(chunk_sizes, out=chunk_offsets[1:])
    chunk_lists = pa.ListArray.from_arrays(
        pa.array(chunk_offsets), flat_tokens
    )
    chunk_strings = pc.binary_join(chunk_lists, " ")  # in (doc, chunk) order

    # ---- slot grid: interleave text chunks and media spans ----------
    total_slots = int(slots.sum())
    slot_parent = np.repeat(np.arange(n_docs), slots)
    slot_base = np.concatenate([[0], np.cumsum(slots)[:-1]])
    j = np.arange(total_slots) - slot_base[slot_parent]
    is_media = (j % 3) == 2
    media_m = (j + 1) // 3                    # 1-based media ordinal
    text_idx = text_base[slot_parent] + (j - (j + 1) // 3)

    slot_doc = did[slot_parent]
    kind = np.where(
        is_media,
        np.where((slot_doc + media_m) % 2 == 0, "image", "audio"),
        "text",
    )
    # text field: chunk string for text slots, "" for media
    texts_np = chunk_strings.to_numpy(zero_copy_only=False)
    text_field = np.where(is_media, "", texts_np[text_idx])
    media_ref = np.where(
        is_media,
        np.char.add(
            np.char.add(
                np.char.add("media://", slot_doc.astype("U")), "/"
            ),
            media_m.astype("U"),
        ),
        "",
    )
    struct = pa.StructArray.from_arrays(
        [
            pa.array(kind, type=pa.string()),
            pa.array(text_field, type=pa.string()),
            pa.array(media_ref, type=pa.string()),
            pa.array(j.astype(np.int32), type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    span_offsets = np.zeros(n_docs + 1, dtype=np.int32)
    span_offsets[1:] = np.cumsum(slots)
    spans = pa.ListArray.from_arrays(pa.array(span_offsets), struct)
    out_ids = pa.array(np.char.mod("doc-%08d", did), type=pa.string())
    return pa.Table.from_arrays(
        [out_ids, spans], schema=INTERLEAVED_SCHEMA
    )


def synthesize_interleaved(documents_ds):
    """Ray Dataset of documents rows -> Dataset of interleaved docs."""
    return documents_ds.select_columns(["doc_id", "text"]).map_batches(
        synthesize_batch, batch_format="pyarrow"
    )


def read_interleaved(path: str, **kwargs):
    """Read an interleaved-doc table: Lance when available, else Parquet
    (identical schema)."""
    import ray.data as rd

    try:
        import lance  # noqa: F401

        return rd.read_lance(path, **kwargs)
    except ImportError:
        from rex_ray.sources.io import read_parquet

        return read_parquet(path, **kwargs)


def write_interleaved(ds, path: str, **kwargs) -> None:
    """Persist an interleaved-doc Dataset: Lance when available, else
    Parquet with the identical nested schema (the spans list<struct>
    round-trips bit-exactly through either; asserted in tests)."""
    try:
        import lance  # noqa: F401

        ds.write_lance(path, **kwargs)
    except ImportError:
        ds.write_parquet(path, **kwargs)


def explode_spans(batch: pa.Table) -> pa.Table:
    """Flatten interleaved docs to one row per span (doc_id carried),
    zero-copy where Arrow allows."""
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()  # struct array
    # parent doc_id repeated per span
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    parent = np.repeat(np.arange(len(batch)), lengths)
    doc_id = pc.take(batch["doc_id"].combine_chunks(), pa.array(parent))
    return pa.Table.from_arrays(
        [
            doc_id,
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
            flat.field("offset"),
        ],
        names=["doc_id", "kind", "text", "media_ref", "offset"],
    )


def validate_span_sequence(batch: pa.Table) -> pa.Table:
    """Enforce the per-row span-sequence invariant cheaply (Arrow
    compute): offsets within each doc must be exactly 0..k-1 in order.
    Raises on violation; passes the batch through untouched otherwise.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    offsets = flat.field("offset").to_numpy(zero_copy_only=False)
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    expected = np.arange(len(offsets)) - starts
    if not np.array_equal(offsets, expected):
        bad = np.nonzero(offsets != expected)[0]
        doc_idx = np.searchsorted(np.cumsum(lengths), bad[0], side="right")
        raise ValueError(
            f"span-sequence invariant violated in doc "
            f"{batch['doc_id'][int(doc_idx)]}: offsets not consecutive"
        )
    return batch


def text_view_batch(batch: pa.Table) -> pa.Table:
    """Normalize: interleaved docs -> (doc_id, text) rows, where text is
    the space-join of the text spans in order.  Inverse of the
    synthesizer by construction (round-trip asserted in tests).

    Fully vectorized Arrow path — this is the production normalize
    stage on every document at 10^12-doc scale: filter text spans,
    rebuild per-doc list offsets, one ``binary_join_element_wise``-free
    ``binary_join`` over the list column.  No per-doc Python.
    """
    validate_span_sequence(batch)
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    is_text = pc.equal(flat.field("kind"), "text")
    texts_only = flat.field("text").filter(is_text)
    # per-doc count of text spans -> list offsets over the filtered texts
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    parent = np.repeat(np.arange(len(batch)), lengths)
    mask = is_text.to_numpy(zero_copy_only=False)
    per_doc = np.bincount(parent[mask], minlength=len(batch))
    offsets = np.zeros(len(batch) + 1, dtype=np.int32)
    np.cumsum(per_doc, out=offsets[1:])
    lists = pa.ListArray.from_arrays(pa.array(offsets), texts_only)
    joined = pc.binary_join(lists, " ")
    return pa.Table.from_arrays(
        [batch["doc_id"].combine_chunks(), joined],
        names=["doc_id", "text"],
    )


def text_view(interleaved_ds):
    return interleaved_ds.map_batches(text_view_batch, batch_format="pyarrow")


def media_spans(interleaved_ds):
    """Dataset of media spans only: (doc_id, kind, media_ref, offset)."""
    return interleaved_ds.map_batches(
        lambda b: explode_spans(b).filter(pc.field("kind") != "text"),
        batch_format="pyarrow",
    ).select_columns(["doc_id", "kind", "media_ref", "offset"])
