"""Block-format helpers.

Ray Data's native block format is Arrow; pandas blocks are legal but
pay a heavy conversion + per-row cost inside the sort/aggregate
all-to-all operators (measured ~5x on a 100k-row, 95k-group
groupby-sum at sf0.1).  The flagship's map stages — extraction,
linking and the dedup combiner — are Arrow end to end
(``batch_format="pyarrow"``, Arrow compute inside, :func:`as_arrow`
for a direct caller's pandas frame), so their batches never make an
Arrow/pandas round trip.  The remaining pandas stage UDFs convert
their result back to Arrow on the way out with :func:`arrow_block`:
the object store and the shuffles only ever see Arrow.

Ray contract (pinned by tests/test_empty_batch_contract.py): a
``map_batches`` or ``map_groups`` UDF is never called on a batch with
zero rows.  Ray passes an empty input block through unchanged and
never buffers one into a batch, and ``map_groups`` yields only groups
that have rows — so stage UDFs carry no empty-batch guards.  An empty
block passed through keeps its INPUT schema (or none); every consumer
of the mapped Dataset skips it, so nothing sees that schema.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def arrow_block(df: pd.DataFrame, schema: pa.Schema | None = None) -> pa.Table:
    """pandas -> Arrow block (no index).  Pass ``schema`` when the
    frame may be empty with object dtypes (which would otherwise infer
    ``null`` columns and produce schema-unstable blocks).

    The pandas metadata blob is stripped: schemas carrying metadata are
    unhashable in pyarrow 16, which defeats Ray Data's schema
    deduplication (it warns and keeps one schema copy per block)."""
    t = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    return t.replace_schema_metadata(None)


def as_arrow(batch) -> pa.Table:
    """A pandas or Arrow batch as an Arrow table — the input side of
    the Arrow stage kernels, which direct callers feed pandas frames."""
    if isinstance(batch, pa.Table):
        return batch
    return arrow_block(batch)


def fixed_list_column(mat) -> pa.Array:
    """(n, k) numpy matrix -> Arrow FixedSizeList column, built from
    the raveled buffer in one shot (no per-row Python).  The inverse is
    :func:`matrix_from_column`; together they move fixed-shape tensors
    through the object store zero-copy."""
    import numpy as np

    mat = np.ascontiguousarray(mat)
    return pa.FixedSizeListArray.from_arrays(
        pa.array(mat.ravel()), mat.shape[1]
    )


def matrix_from_column(table: pa.Table, col: str):
    """Arrow FixedSizeList (or plain list) column -> (n, k) numpy
    matrix; zero-copy for fixed-size numeric lists."""
    import numpy as np

    a = table[col]
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    if pa.types.is_fixed_size_list(a.type):
        flat = a.values.to_numpy(zero_copy_only=False)
        return flat.reshape(len(a), a.type.list_size)
    return np.stack(a.to_numpy(zero_copy_only=False))


def cluster_cpus() -> int:
    """The cluster's CPU count (8 when Ray cannot report it) — the one
    read of ``ray.cluster_resources()`` behind actor-pool and join
    sizing."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def default_concurrency():
    """Actor-pool sizing for the stages that still map a callable class
    (subword, multimodal, mention disambiguation, text statistics,
    local top-k): scale the pool cap to the cluster's CPU count (a
    fixed cap would serialize them on bigger clusters; the pool still
    starts at 1 and grows on demand).  Extraction and the model stages
    run as tasks on :func:`worker_udf` and take no pool size."""
    return (1, max(2, cluster_cpus()))


def compact_blocks(ds, batch_size: int = 65536):
    """Bundle consecutive blocks so empty blocks merge into their
    neighbors: a pass-through ``map_batches`` with an explicit
    ``batch_size`` coalesces consecutive blocks per task (Arrow concat,
    no Python rows), so a groupby's one-block-per-partition output
    stops costing one downstream task per block, and a selective
    filter's schema-less empty blocks vanish unless the whole dataset
    is empty.  Cost: one streaming copy of each block, no shuffle."""
    return ds.map_batches(
        lambda t: t, batch_format="pyarrow", batch_size=batch_size
    )


# Broadcast side objects and stage state built in this worker process:
# slot -> (version, object); the oldest slot is evicted past 8.
_SIDE_CACHE: dict = {}


def _cached(slot, make, version=None):
    """The object cached in ``slot``, built by ``make()`` on a miss.  A
    slot holds one version: a new ``version`` drops the old object
    before building its successor.  A resolved broadcast value is a
    zero-copy view that keeps its object-store buffer alive, so a stale
    object left cached would keep its buffer from being reused
    (measured on the ``scored_pairs`` benchmark: the driver's RSS grew
    ~4 MiB per op, one weights ``ray.put`` each, until 8 stale scorers
    per worker were cached)."""
    hit = _SIDE_CACHE.get(slot)
    if hit is None or hit[0] != version:
        _SIDE_CACHE.pop(slot, None)
        hit = _SIDE_CACHE[slot] = (version, make())
        while len(_SIDE_CACHE) > 8:
            _SIDE_CACHE.pop(next(iter(_SIDE_CACHE)))
    return hit[1]


def _worker_built_ref(ds, build_fn):
    """Reduce a (small) Dataset into one broadcastable Python object
    INSIDE a Ray task — the driver only ever holds the ObjectRef, so
    there is no driver-side row materialization.  ``build_fn`` receives
    the dataset's Arrow tables and returns the object (a key set, a
    lookup dict, ...)."""
    import ray

    @ray.remote
    def build(*tables):
        return build_fn(tables)

    return build.remote(*ds.to_arrow_refs())


def _side_object(ref):
    """Resolve a broadcast side object once per worker process.  ``ref``
    is one ObjectRef, or a list of them (e.g. a materialized Dataset's
    ``to_arrow_refs()``, resolved to the list of its tables)."""
    import ray

    key = tuple(r.hex() for r in ref) if isinstance(ref, list) else ref.hex()
    return _cached(key, lambda: ray.get(ref))


def worker_state(cls, *args, **kwargs):
    """``cls(*args, **kwargs)`` built once per worker process, with
    every ObjectRef argument resolved: a stage's vocab, weights and
    compiled tables.  ``cls`` must be importable (pickled by reference)
    for its tasks to share one instance.  The slot in the side-object
    cache is ``cls`` and the plain arguments; the refs' ids are its
    version, so the same refs reuse the instance and new refs (the
    stage's next call) replace it."""
    import ray

    refs = []

    def plain(v):
        if isinstance(v, ray.ObjectRef):
            refs.append(v.hex())
            return ray.ObjectRef  # the ref's place in the slot
        return v

    def val(v):
        return ray.get(v) if isinstance(v, ray.ObjectRef) else v

    slot = (cls, tuple(map(plain, args)),
            tuple((k, plain(kwargs[k])) for k in sorted(kwargs)))
    return _cached(
        slot,
        lambda: cls(*map(val, args), **{k: val(v) for k, v in kwargs.items()}),
        tuple(refs),
    )


def worker_udf(cls, *args, **kwargs):
    """A ``map_batches`` task UDF that applies ``worker_state(cls,
    *args, **kwargs)`` to each batch.  The stage runs on Ray's already
    warm task workers, and a worker builds the state once for all the
    calls it serves.  A callable-class actor pool instead starts a new
    worker process per call, which pays ``import ray.data`` (~0.7 s on
    one core) before its first batch and exits after the call."""

    def udf(batch):
        return worker_state(cls, *args, **kwargs)(batch)

    return udf


# Rows per shuffle partition: the bucket rule of relational.hash_join
# and the block floor of pre_shuffle.
ROWS_PER_PARTITION = 50_000


def pre_shuffle(ds):
    """Stage a shuffle input: materialize the partial-aggregate output
    right before a ``groupby``/``sort`` all-to-all, split into at least
    ``1 + rows // ROWS_PER_PARTITION`` blocks.

    This is NOT a mid-pipeline full-data materialization: by
    construction the caller has already combined per batch, so what
    lands in the object store is the same (bounded) partial table the
    sort-shuffle would materialize internally anyway — the explicit
    boundary just decouples it from the streaming upstream.  Measured
    on Ray 2.49 (single node, 32 cpus, 95k-group aggregate at sf0.1):
    streaming straight into ``groupby().aggregate()`` spends ~2.7 ms
    of reduce CPU PER GROUP (21 s wall); with the explicit boundary the
    same aggregate finishes in ~1.5 s.  Spilling still applies, so the
    pattern holds at scale.

    Ray's sort-based aggregate takes its partition count from the
    input's block count, and its cost grows faster than linearly in a
    partition's rows (200k groups: 34.6 s from 1 block, 11.9 s from
    8).  So an input with fewer blocks than the floor — a one-block
    Parquet read, a bundled map — is split up to it; a small input
    (the 144-row store) stays one partition.  The row count is a
    metadata read of the materialized input.
    """
    ds = ds.materialize()
    want = 1 + ds.count() // ROWS_PER_PARTITION
    if ds.num_blocks() < want:
        ds = ds.repartition(want).materialize()
    return ds
