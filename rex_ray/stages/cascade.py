"""CasRel-style cascade triple extraction — subjects first, then
object spans per (subject, relation) — the reference's two-step decode
(rex/models/casrel.py:13-188 + rex/modules/span.py:11-146), whose eval
is inherently batch-size-1 per document (span.py:100-107).

SURVEY.md §7.3: the cascade stays a PER-ROW loop INSIDE the stage —
the batch is Arrow in/out and the extractor (built once per worker
process, ``blocks.worker_udf``) processes its documents one at a time
(exactly how a real CasRel model would run with eval batch 1), so the
pattern scales by task concurrency, not by intra-doc vectorization.

The subject tagger and per-subject object predictor here are the
deterministic gazetteer/window rules (a trained CasRel drops into
``_predict_subjects`` / ``_predict_objects``), which makes the output
provably equal to the one-shot extractor — asserted by the SQL oracle.
"""

from __future__ import annotations

from typing import List, Tuple

import pandas as pd
import pyarrow as pa

from rex_ray.functions.blocks import arrow_block, worker_udf
from rex_ray.functions.span import find_closest_span_pairs
from rex_ray.pipelines import spec


class CascadeExtractor:
    """Per-doc cascade: subjects -> per-subject object spans."""

    def __init__(self, window: int = spec.PAIR_WINDOW):
        self.window = window
        self.gaz = dict(spec.GAZETTEER)

    # -- step 1: subject head/tail indicator vectors + span pairing ----
    def _predict_subjects(self, tokens: List[str]) -> List[Tuple[int, int]]:
        heads = [1 if t in self.gaz else 0 for t in tokens]
        tails = heads  # single-token mentions: head == tail position
        return find_closest_span_pairs(heads, tails)

    # -- step 2: object spans for ONE subject ---------------------------
    def _predict_objects(
        self, tokens: List[str], subj_pos: int
    ) -> List[Tuple[int, str, float]]:
        out = []
        for d in range(1, self.window + 1):
            pos = subj_pos + d
            if pos >= len(tokens):
                break
            tok = tokens[pos]
            if tok in self.gaz:
                pred = spec.PRED_MAP.get(
                    (self.gaz[tokens[subj_pos]], self.gaz[tok]),
                    spec.PRED_FALLBACK,
                )
                out.append((pos, pred, 1.0 / d))
        return out

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        rows = []
        # batch-size-1 semantics: one document per inner iteration
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            tokens = text.split(" ")
            for s_start, s_end in self._predict_subjects(tokens):
                for obj_pos, pred, score in self._predict_objects(
                    tokens, s_start
                ):
                    rows.append(
                        (
                            doc_id,
                            tokens[s_start],
                            s_start,
                            pred,
                            tokens[obj_pos],
                            obj_pos,
                            score,
                        )
                    )
        return arrow_block(
            pd.DataFrame(
                rows,
                columns=[
                    "doc_id", "subj", "subj_pos", "pred",
                    "obj", "obj_pos", "score",
                ],
            ),
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("subj", pa.string()),
                    ("subj_pos", pa.int64()),
                    ("pred", pa.string()),
                    ("obj", pa.string()),
                    ("obj_pos", pa.int64()),
                    ("score", pa.float64()),
                ]
            ),
        )


def cascade_triples(docs_ds, **kwargs):
    return docs_ds.map_batches(
        worker_udf(CascadeExtractor), batch_format="pandas", **kwargs)
