"""Pure-kernel microbenchmarks: one fixed in-memory batch, no Ray.

The batch is generated from the run's seed with the sf0.1 token
distribution; each kernel is timed ``repeats`` times and reported as
the median in milliseconds.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import gen


def _median_ms(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run(seed: int, batch_docs: int, score_docs: int,
        repeats: int = 3) -> Dict[str, float]:
    from rex_ray.pipelines import spec
    from rex_ray.sources import interleaved as il
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages import canonical as canon
    from rex_ray.stages import extract, link, scorer
    from rex_ray.stages.features import relation_label_encoder
    from rex_ray.state.dictionaries import Vocab

    docs = gen.documents(seed, batch_docs, stream="kernel")
    inter = il.synthesize_batch(docs)
    text = il.text_view_batch(inter).to_pandas()
    extractor = extract.TripleExtractor()
    triples = extractor(text).to_pandas()
    canonical = canon.canonical_map_for_surfaces(
        sorted(spec.GAZETTEER), spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX)
    linker = link.CanonicalLinker(canonical)
    linked = linker(triples)
    combine = agg._partial_counts_max(["subj_id", "pred", "obj_id"])
    fused = scorer.FeaturizeAndScore(
        Vocab(gen.table()[0]),
        scorer.PcnnWeights(1 << 16, len(relation_label_encoder())))
    score_batch = docs.slice(0, score_docs).to_pandas()
    return {
        "kernel.synthesize_batch_ms":
            _median_ms(lambda: il.synthesize_batch(docs), repeats),
        "kernel.text_view_batch_ms":
            _median_ms(lambda: il.text_view_batch(inter), repeats),
        "kernel.triple_extractor_ms":
            _median_ms(lambda: extractor(text), repeats),
        "kernel.canonical_linker_ms":
            _median_ms(lambda: linker(triples), repeats),
        "kernel.dedup_combiner_ms":
            _median_ms(lambda: combine(linked), repeats),
        "kernel.featurize_score_ms":
            _median_ms(lambda: fused(score_batch), repeats),
    }
