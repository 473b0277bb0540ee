"""rex_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the data-processing capabilities of
Spico197/REx (reference at /root/reference, analyzed in SURVEY.md) as an
idiomatic Ray Data pipeline: triple extraction -> entity linking ->
canonicalization -> deduplicated triple store, plus the large-scale
training-data operators (dedup, similarity search, text analysis,
multimodal plumbing) such an engine needs at 100 TB scale.

Layout:
    functions/  pure, vectorizable kernels (no Ray dependency)
    sources/    readers/writers + the interleaved-doc synthesizer
    stages/     map_batches / actor-pool / groupby stage implementations
    state/      broadcastable dictionary state (Vocab, LabelEncoder, ...)
    pipelines/  end-to-end pipeline compositions + query registry
    trace.py    the run record: which route each scale guard took
"""

__version__ = "0.1.0"
