"""Serving / predict API — the reference's inference path
(rex/tasks/entity_relation_extraction.py:143-168 ``predict(texts)``,
rex/tasks/simple_task.py:115-121) over the Ray pipeline: texts in,
surface-level triples out, no training artifacts required.

Small-input path: the texts arrive as a Python list (an API request),
so the Dataset is built with ``from_items``; the SAME stage objects the
batch pipeline uses do the work, guaranteeing serve/batch parity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pandas as pd


def predict_texts(
    texts: List[str],
    min_score: float = 0.0,
    canonical: Optional[Dict[str, str]] = None,
) -> pd.DataFrame:
    """texts -> surface triples (text_id, subj, pred, obj, score),
    ordered by (text_id, subj_pos, obj_pos) for stable output."""
    import ray.data as rd

    from rex_ray.stages import extract

    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    triples = extract.extract_triples(
        ds, min_score=min_score, concurrency=2
    ).to_pandas()
    out = triples.sort_values(
        ["doc_id", "subj_pos", "obj_pos"]
    ).reset_index(drop=True)
    out = out.rename(columns={"doc_id": "text_id"})
    return out[["text_id", "subj", "pred", "obj", "score"]]


def predict_pair(text: str, head: str, tail: str) -> dict:
    """Single (text, head, tail) relation prediction — the reference's
    predict_transform contract (rex/data/transforms/sent_re.py:92-124):
    RAISES ValueError when head or tail is not anchorable in the text
    (reference errors on non-substring head/tail), else returns the
    spec relation for the first-occurrence pair.
    """
    from rex_ray.functions.position import find_all_positions
    from rex_ray.pipelines import spec

    tokens = text.split(" ")
    h_spans = find_all_positions(tokens, head.split(" "))
    if not h_spans:
        raise ValueError(f"head {head!r} not found in text")
    t_spans = find_all_positions(tokens, tail.split(" "))
    if not t_spans:
        raise ValueError(f"tail {tail!r} not found in text")
    h, t = h_spans[0], t_spans[0]
    h_type = spec.GAZETTEER.get(tokens[h[0]])
    t_type = spec.GAZETTEER.get(tokens[t[0]])
    pred = (
        spec.PRED_MAP.get((h_type, t_type), spec.PRED_FALLBACK)
        if h_type and t_type
        else spec.PRED_FALLBACK
    )
    return {
        "head": head, "head_span": list(h),
        "tail": tail, "tail_span": list(t),
        "relation": pred,
    }


def predict_linked_triples(
    texts: List[str],
    min_score: float = 0.0,
) -> pd.DataFrame:
    """texts -> canonicalized, deduped triple store rows (the full
    flagship semantics on an ad-hoc corpus)."""
    import ray.data as rd

    from rex_ray.pipelines import kg

    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    store = kg.triple_store_from_text_docs(ds, min_score=min_score)
    return (
        store.to_pandas()
        .sort_values(["subj_id", "pred", "obj_id"])
        .reset_index(drop=True)
    )


def predict_scored_pairs(
    texts: List[str],
    task_dir: Optional[str] = None,
) -> pd.DataFrame:
    """texts -> per-relation-scored entity pairs through the fused
    featurize+score inference stage.  With ``task_dir`` the scorer
    hosts the saved checkpoint's weights (reference ``from_taskdir``,
    base_task.py:264-283) instead of the seeded default."""
    import ray.data as rd

    from rex_ray.stages import scorer

    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    scored = scorer.score_docs(ds, task_dir=task_dir, concurrency=2)
    return (
        scored.to_pandas()
        .sort_values(["doc_id", "subj_pos", "obj_pos"])
        .reset_index(drop=True)
    )
