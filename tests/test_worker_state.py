"""Per-worker stage state: ``blocks.worker_state`` builds a stage object
once per worker process in the one bounded side-object cache, in a slot
of its class and plain arguments whose version is its refs' ids."""

import gc
import weakref

import numpy as np
import pyarrow as pa
import ray

from rex_ray.functions import blocks
from rex_ray.stages.features import relation_label_encoder
from rex_ray.stages.scorer import FeaturizeAndScore, PcnnWeights
from rex_ray.state.dictionaries import Vocab

VOCAB = Vocab(["join", "hash", "table", "spark", "row"])
DOCS = pa.table({
    "doc_id": pa.array([1, 2], pa.int64()),
    "text": ["spark join table row hash", "hash join spark"],
})


def _weights(seed):
    return PcnnWeights(64, len(relation_label_encoder()), seed=seed)


def test_same_refs_one_instance_new_ref_new_scores(ray_session):
    vref, wref = ray.put(VOCAB), ray.put(_weights(1234))
    a = blocks.worker_state(FeaturizeAndScore, vref, wref)
    assert blocks.worker_state(FeaturizeAndScore, vref, wref) is a
    assert isinstance(a.featurize.vocab, Vocab)  # refs arrive resolved
    sa = a(DOCS)
    gone = weakref.ref(a)
    del a

    b = blocks.worker_state(FeaturizeAndScore, vref, ray.put(_weights(5)))
    gc.collect()
    assert gone() is None  # the stale instance left the cache
    sb = b(DOCS)
    assert sa.num_rows == sb.num_rows > 0
    assert sa["pair_key"] == sb["pair_key"]
    assert not np.allclose(blocks.matrix_from_column(sa, "scores"),
                           blocks.matrix_from_column(sb, "scores"))


def test_plain_arguments_pick_the_slot(ray_session):
    """Plain arguments select a slot of their own: two of them stay
    cached side by side."""
    from rex_ray.stages.extract import TripleExtractor

    lo = blocks.worker_state(TripleExtractor, min_score=0.0)
    hi = blocks.worker_state(TripleExtractor, min_score=0.5)
    assert lo is not hi and (lo.min_score, hi.min_score) == (0.0, 0.5)
    assert blocks.worker_state(TripleExtractor, min_score=0.5) is hi
    assert blocks.worker_state(TripleExtractor, min_score=0.0) is lo


def test_cache_never_exceeds_its_bound(ray_session):
    from rex_ray.stages.extract import TripleExtractor

    for i in range(20):
        blocks.worker_state(TripleExtractor, min_score=i / 20)
        blocks._side_object(ray.put(i))
        assert len(blocks._SIDE_CACHE) <= 8
    assert len(blocks._SIDE_CACHE) == 8


def test_one_instance_per_worker_process(ray_session):
    """Through Ray: every call in one worker process finds the instance
    the first call built, for the same refs, and calls made one after
    another reuse a warm worker."""
    vref, wref = ray.put(VOCAB), ray.put(_weights(1234))

    @ray.remote
    def probe(refs):  # in a list, so Ray passes the refs unresolved
        import os

        from rex_ray.functions.blocks import worker_state
        from rex_ray.stages.scorer import FeaturizeAndScore

        return os.getpid(), id(worker_state(FeaturizeAndScore, *refs))

    seen = {}
    for _ in range(6):
        pid, obj = ray.get(probe.remote([vref, wref]))
        seen.setdefault(pid, set()).add(obj)
    assert all(len(ids) == 1 for ids in seen.values())
    assert len(seen) < 6


def test_model_stages_map_no_actor_class():
    """No ``map_batches`` in the model-stage modules takes a class or
    ``fn_constructor_kwargs`` (an actor pool), and none sizes a pool
    with ``default_concurrency``: their state goes through
    ``worker_udf``."""
    import ast
    import importlib
    import inspect
    from pathlib import Path

    sites = []
    for name in ("scorer", "features", "gpointer", "cascade"):
        mod = importlib.import_module(f"rex_ray.stages.{name}")
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "default_concurrency":
                sites.append((name, node.lineno, "default_concurrency"))
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            fn = node.args[0] if node.args else None
            if isinstance(fn, ast.Name) and inspect.isclass(
                    getattr(mod, fn.id, None)):
                sites.append((name, node.lineno, fn.id))
            if any(k.arg == "fn_constructor_kwargs" for k in node.keywords):
                sites.append((name, node.lineno, "fn_constructor_kwargs"))
    assert sites == []
