"""Multimodal plumbing: media spans are opaque ``media_ref`` strings
with typed metadata; decode / feature-extraction runs as an actor-pool
``map_batches`` stage.

The image/audio codec libraries are not installed in this sandbox, so
the DECODE step is a clearly-marked stub: :class:`MediaFeatureStub`
produces deterministic fake features (md5 of the ref) with the real
Ray-side plumbing — actor signature, small batch size for large
payloads, Arrow-friendly output schema.  Swap ``_decode`` for a real
codec (PIL / torchaudio / pyav) in production; everything else stands.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from rex_ray.functions.blocks import default_concurrency


class MediaFeatureStub:
    """(doc_id, kind, media_ref) -> (doc_id, media_ref, kind, feat_hash).

    ``__init__`` is where a real decoder would load its model/codecs
    (once per actor).  ``decode_real`` documents the unimplemented
    surface.
    """

    def __init__(self, feature_dim: int = 8):
        self.feature_dim = feature_dim

    @staticmethod
    def decode_real(media_ref: str, payload: bytes):
        raise NotImplementedError(
            "media codecs are not available in this environment; "
            "MediaFeatureStub substitutes deterministic fake features"
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feat_hash = batch["media_ref"].map(
            lambda r: hashlib.md5(r.encode("utf-8")).hexdigest()
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "media_ref": batch["media_ref"],
                "kind": batch["kind"],
                "feat_hash": feat_hash,
            }
        )


def media_features(media_spans_ds, batch_size: int = 1024, concurrency=None):
    """Actor-pool feature extraction over media spans.  batch_size is
    deliberately small: with real payloads each row carries MBs."""
    return media_spans_ds.map_batches(
        MediaFeatureStub,
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency or default_concurrency(),
    )


class FrameSampleStub:
    """(doc_id, kind, media_ref) -> one row per sampled unit index
    (frame for video-like media, window for audio, tile for image):
    (doc_id, media_ref, kind, unit_idx).

    A real sampler probes the container for its unit count and decodes
    only the selected units (that decode lives behind
    :meth:`MediaFeatureStub.decode_real`'s sandbox boundary); here the
    unit count is a deterministic fake probe — ``1 + md5(ref) % 240``
    — so the fan-out PLUMBING is real and oracle-checkable: an
    actor-pool flat-map whose output is one row per sampled unit, the
    shape a decode stage downstream consumes at a bounded batch size.
    """

    def __init__(self, stride: int = 16, max_units: int = 240):
        self.stride = stride
        self.max_units = max_units

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        refs = batch["media_ref"]
        n_units = refs.map(
            lambda r: 1
            + int(hashlib.md5(r.encode("utf-8")).hexdigest()[:8], 16)
            % self.max_units
        )
        reps = ((n_units + self.stride - 1) // self.stride).astype(int)
        idx = np.concatenate(
            [np.arange(0, n, self.stride) for n in n_units]
        ) if len(refs) else np.array([], dtype=np.int64)
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].repeat(reps).to_numpy(),
                "media_ref": refs.repeat(reps).to_numpy(),
                "kind": batch["kind"].repeat(reps).to_numpy(),
                "unit_idx": idx.astype(np.int64),
            }
        )
        return out


def frame_samples(media_ds, stride: int = 16, concurrency=None):
    """Actor-pool unit-sampling fan-out over media spans."""
    from rex_ray.functions.blocks import default_concurrency

    return media_ds.map_batches(
        FrameSampleStub,
        fn_constructor_kwargs={"stride": stride},
        batch_format="pandas",
        concurrency=concurrency or default_concurrency(),
    )


def media_context(interleaved_ds):
    """Text context for every media span: the text spans immediately
    before and after it in the document's span sequence — the
    alignment record a caption/ASR/grounding stage consumes (media
    span + surrounding text), produced WITHOUT materializing an
    exploded span table: explode + neighbor lookup run inside one
    ``map_batches`` call, so a document's spans can never straddle a
    block boundary (same boundary-safety argument as the fused
    extraction pass, stages/extract.extract_triples_and_surfaces).

    Output: (doc_id, media_ref, span_offset, prev_kind, prev_text,
    next_text) — ``next_text`` is '' when the media span closes the
    document (even text-chunk count).  Vectorized: neighbor texts via
    shifted numpy views; a span's predecessor row is always the same
    document's previous offset because explode preserves per-doc span
    order.
    """
    import pyarrow as pa

    from rex_ray.sources.interleaved import explode_spans

    def per_batch(batch: pa.Table) -> pa.Table:
        t = explode_spans(batch)
        n = t.num_rows
        kind = np.asarray(t["kind"].to_pylist(), dtype=object)
        text = np.asarray(t["text"].to_pylist(), dtype=object)
        ref = np.asarray(t["media_ref"].to_pylist(), dtype=object)
        off = t["offset"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = np.asarray(t["doc_id"].to_pylist(), dtype=object)

        is_media = kind != "text"
        # previous row is the same doc's previous span iff offset > 0
        prev_ok = off > 0
        prev_kind = np.where(
            prev_ok, np.roll(kind, 1), np.array("", dtype=object)
        )
        prev_text = np.where(
            prev_ok, np.roll(text, 1), np.array("", dtype=object)
        )
        # next row is the same doc's next span iff it exists and does
        # not restart at offset 0
        nxt = np.roll(off, -1)
        next_ok = np.arange(n) + 1 < n
        next_ok &= nxt > 0
        next_text = np.where(
            next_ok, np.roll(text, -1), np.array("", dtype=object)
        )

        sel = is_media
        return pa.table(
            {
                "doc_id": pa.array(doc[sel], pa.string()),
                "media_ref": pa.array(ref[sel], pa.string()),
                "span_offset": pa.array(off[sel], pa.int64()),
                "prev_kind": pa.array(prev_kind[sel], pa.string()),
                "prev_text": pa.array(prev_text[sel], pa.string()),
                "next_text": pa.array(next_text[sel], pa.string()),
            }
        )

    return interleaved_ds.map_batches(per_batch, batch_format="pyarrow")


def ground_mentions(inter_ds):
    """Mention→media grounding over interleaved documents: every
    gazetteer mention is attached to the LAST media span preceding its
    token position — the record an entity-grounding / caption-linking
    stage consumes.  The grounding comes from the SPAN LAYOUT the
    interleaved docs carry (kind / media_ref / order), not from any
    synthetic closed form, so it works for arbitrary interleaved input;
    the oracle merely replays the synthesis layout to check it.

    One streaming ``map_batches`` pass: flatten spans once (Arrow),
    token counts per text span via one vectorized split, per-doc media
    token-boundaries by segmented cumsum, gazetteer mentions on the
    text view (the flagship's own vectorized detector), then one
    ``searchsorted`` per doc to ground.  Output: (doc_id, pos, surface,
    ent_type, media_ref) for mentions with >= 1 preceding media span.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from rex_ray.sources.interleaved import (
        text_view_batch,
        validate_span_sequence,
    )
    from rex_ray.stages.extract import MentionExtractor

    out_schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("pos", pa.int64()),
            ("surface", pa.string()),
            ("ent_type", pa.string()),
            ("media_ref", pa.string()),
        ]
    )

    def fn(batch: pa.Table) -> pa.Table:
        validate_span_sequence(batch)
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        kinds = flat.field("kind")
        is_text = pc.equal(kinds, "text").to_numpy(zero_copy_only=False)
        # tokens per span: split text spans once, media spans count 0
        tok_counts = pc.list_value_length(
            pc.split_pattern(flat.field("text"), pattern=" ")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        tok_counts[~is_text] = 0
        lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(batch)), lengths)
        # token offset of each span within its doc (exclusive cumsum,
        # segmented by doc)
        csum = np.cumsum(tok_counts)
        doc_base = np.zeros(len(batch), dtype=np.int64)
        ends = np.cumsum(lengths) - 1
        # guarded gather: a zero-span doc at the head of the batch has
        # ends == -1, and csum[-1] would alias the batch's LAST span —
        # its cumulative total is simply 0.
        if len(flat):
            doc_total = np.where(ends >= 0, csum[np.maximum(ends, 0)], 0)
        else:
            doc_total = np.zeros(len(batch), dtype=np.int64)
        doc_base[1:] = doc_total[:-1]
        span_start = csum - tok_counts - doc_base[parent]
        refs = flat.field("media_ref").to_pylist()

        # per-doc media boundaries
        media_sel = ~is_text
        m_parent = parent[media_sel]
        m_start = span_start[media_sel]
        m_refs = [refs[i] for i in np.nonzero(media_sel)[0]]

        tv = text_view_batch(batch).to_pandas()
        tv_index = {d: i for i, d in enumerate(tv["doc_id"])}
        mentions = MentionExtractor()(tv).to_pandas()
        if len(mentions) == 0 or len(m_parent) == 0:
            return out_schema.empty_table()
        mdoc = mentions["doc_id"].map(tv_index).to_numpy()
        mpos = mentions["pos"].to_numpy()
        out_ref = np.full(len(mentions), None, dtype=object)
        for d in np.unique(mdoc):
            bsel = m_parent == d
            if not bsel.any():
                continue
            B, R = m_start[bsel], [m_refs[i] for i in np.nonzero(bsel)[0]]
            msel = mdoc == d
            idx = np.searchsorted(B, mpos[msel], side="right") - 1
            vals = np.full(msel.sum(), None, dtype=object)
            ok = idx >= 0
            vals[ok] = np.asarray(R, dtype=object)[idx[ok]]
            out_ref[msel] = vals
        keep = np.asarray([r is not None for r in out_ref])
        m = mentions[keep]
        return pa.table(
            {
                "doc_id": pa.array(m["doc_id"].tolist(), pa.string()),
                "pos": pa.array(m["pos"].to_numpy(), pa.int64()),
                "surface": pa.array(m["surface"].tolist(), pa.string()),
                "ent_type": pa.array(m["ent_type"].tolist(), pa.string()),
                "media_ref": pa.array(
                    [r for r, k in zip(out_ref, keep) if k], pa.string()
                ),
            },
            schema=out_schema,
        )

    return inter_ds.map_batches(fn, batch_format="pyarrow")
