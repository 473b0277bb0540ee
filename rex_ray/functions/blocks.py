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
    """Actor-pool sizing for light stateful stages: scale the pool cap
    to the cluster's CPU count (a fixed cap would serialize the hot
    stages on bigger clusters; the pool still starts at 1 and grows
    on demand)."""
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


# Broadcast side objects resolved in this worker process, by ref; the
# oldest is evicted past 8.
_SIDE_CACHE: dict = {}


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
    key = tuple(r.hex() for r in ref) if isinstance(ref, list) else ref.hex()
    obj = _SIDE_CACHE.get(key)
    if obj is None:
        import ray

        obj = _SIDE_CACHE[key] = ray.get(ref)
        while len(_SIDE_CACHE) > 8:
            _SIDE_CACHE.pop(next(iter(_SIDE_CACHE)))
    return obj


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
