"""Relational operators: broadcast hash joins, large-large shuffle
joins, money-exact aggregation helpers.

Join strategy (SURVEY.md §2.4): dimension tables (nation, customer at
TPC-H scale factors) are SMALL-side — loaded once on the driver,
``ray.put`` once, probed per batch with a vectorized pandas ``map``
(:func:`broadcast_join`).  Every other join is a hash-partitioned
shuffle through :func:`hash_join`, the only ``Dataset.join`` call in
the package: it compacts both inputs (the Ray 2.49 empty-first-block
schema loss, ``functions.blocks.compact_blocks``) and sizes the
partition count by one rule, so callers pass keys and, when they hold
one, a row count — nothing else.  Callers still guard a join side with
ZERO rows themselves: no compaction can give it a schema.

Money sums are computed in integer CENTS — per-row double arithmetic
is bit-identical across engines, and integer sums are
order-insensitive, so results hash-match the SQL oracle exactly
(double sums would differ in the last ulp by summation order).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from rex_ray.functions.blocks import (
    arrow_block,
    cluster_cpus,
    compact_blocks,
    default_concurrency,
    pre_shuffle,
)


def to_cents(values) -> pd.Series:
    """floor(x * 100.0 + 0.5) as int64 — EXACT mirror of SQL
    ``CAST(floor(x * 100.0 + 0.5) AS BIGINT)``.  floor(+0.5) (not
    round()) on both sides: numpy rounds half-to-even while DuckDB
    rounds half-away-from-zero, so round() would diverge on exact
    half-cents."""
    return pd.Series(np.floor(np.asarray(values) * 100.0 + 0.5)).astype("int64")


class BroadcastLookup:
    """Actor-pool stage mapping a key column through a broadcast dict.

    ``mapping_ref``: ray.ObjectRef of {key -> value} put ONCE on the
    driver; resolved once per actor (never re-shipped per batch).
    Rows with unmatched keys are dropped when ``inner=True`` (semi-join
    flavor) else get NaN (left-join flavor).
    """

    def __init__(self, mapping_ref, key: str, out: str, inner: bool = True):
        mapping = (
            ray.get(mapping_ref)
            if isinstance(mapping_ref, ray.ObjectRef)
            else mapping_ref
        )
        self._map = pd.Series(mapping)
        self.key = key
        self.out = out
        self.inner = inner

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vals = batch[self.key].map(self._map)
        batch = batch.assign(**{self.out: vals})
        if self.inner:
            batch = batch[vals.notna()]
        return batch.reset_index(drop=True)


def broadcast_join(ds, mapping: Dict, key: str, out: str, inner: bool = True,
                   concurrency=None, **kwargs):
    ref = ray.put(mapping)
    return ds.map_batches(
        BroadcastLookup,
        fn_constructor_kwargs={
            "mapping_ref": ref, "key": key, "out": out, "inner": inner,
        },
        batch_format="pandas",
        concurrency=concurrency or default_concurrency(),
        **kwargs,
    )


def hash_join(left, right, on, join_type: str = "inner", right_on=None,
              rows: Optional[int] = None):
    """Hash-partitioned shuffle join — the one ``Dataset.join`` entry
    point.  ``on`` / ``right_on`` are a column name or a sequence of
    them (``right_on`` only when the right key names differ).

    Both inputs are compacted first (``functions.blocks.
    compact_blocks``), so a join, groupby or filter output can feed
    straight in.  The partition count is ``1 + rows // 50_000`` clamped
    to [2, cluster CPUs capped at 32], where ``rows`` is a row count
    the caller already holds (e.g. a metadata ``count()`` of a
    materialized input); without one it is the cluster width.  An input
    with zero rows still loses its schema — guard that case before the
    call.  Each partition is an aggregator actor: a fixed 32 deadlocks
    a 4-cpu cluster, and fan-out beyond the data is pure spin-up.

    Below 2 CPUs the aggregators reserve no CPU: Ray gives them half
    the cluster and every shuffle task asks for a whole CPU, so on 1
    CPU no shuffle task could ever be scheduled (the join hangs)."""
    cpus = cluster_cpus()
    width = max(2, min(32, cpus))
    if rows is not None:
        width = max(2, min(width, 1 + rows // 50_000))

    def cols(c):
        return (c,) if isinstance(c, str) else tuple(c)

    return compact_blocks(left).join(
        compact_blocks(right), join_type=join_type, num_partitions=width,
        on=cols(on), right_on=cols(right_on) if right_on else None,
        aggregator_ray_remote_args={"num_cpus": 0} if cpus < 2 else None,
    )


def partial_groupby_sum(ds, keys, sums: Dict[str, str],
                        counts: Optional[str] = None):
    """Combiner + final shuffle for sum/count aggregates.

    ``sums``: {input_col: output_col}; ``counts``: name for a row-count
    column.  Per-batch partial groupby keeps the shuffle tiny.
    """
    from ray.data.aggregate import Sum

    def combine(batch: pd.DataFrame):
        g = batch.groupby(keys, sort=False, observed=True)
        agg = g[list(sums)].sum().rename(columns=sums)
        if counts:
            agg[counts] = g.size()
        return arrow_block(agg.reset_index())  # Arrow into the shuffle

    partial = pre_shuffle(ds.map_batches(combine, batch_format="pandas"))
    aggs = [Sum(out, alias_name=out) for out in sums.values()]
    if counts:
        aggs.append(Sum(counts, alias_name=counts))
    return partial.groupby(keys).aggregate(*aggs)


def per_key_cap(ds, key_col: str, id_col: str, n: int):
    """Deterministic per-key cap — keep the ``n`` rows of each key with
    the smallest ``md5(id)``: the standard "cap every source/class at N
    examples" balancing step of a training-data pipeline, made
    reproducible by hash order instead of an RNG (and oracle-checkable:
    DuckDB computes the identical md5 rank).

    Top-n is associative, so each batch contributes at most n rows per
    key to the shuffle (partial top-n combiner), and the final
    groupby merge handles at most n x num_batches rows per key.  At
    scale the exchange is O(n x keys), independent of input rows.
    """
    import hashlib

    def partial(batch: pd.DataFrame) -> "pa.Table":
        b = batch[[key_col, id_col]].copy()
        b["r"] = [
            hashlib.md5(str(int(i)).encode()).hexdigest()
            for i in b[id_col]
        ]
        b = (
            b.sort_values([key_col, "r", id_col])
            .groupby(key_col, sort=False)
            .head(n)
        )
        return arrow_block(b)

    part = pre_shuffle(ds.map_batches(partial, batch_format="pandas"))

    def merge(g: pd.DataFrame) -> "pa.Table":
        g = g.sort_values(["r", id_col]).head(n)
        return arrow_block(g[[key_col, id_col]].reset_index(drop=True))

    return part.groupby(key_col).map_groups(merge, batch_format="pandas")


def bloom_semi_join(left, right, on: str, num_bits: int = 1 << 20,
                    num_hashes: int = 5, right_is_distinct: bool = False):
    """Exact semi-join ``left ⋉ right`` with a broadcast Bloom
    prefilter: the left side is filtered against a bitmap of the right
    keys BEFORE the exact hash join, so only candidate rows (true
    matches + the Bloom false-positive sliver) enter the shuffle.

    At 100 TB this is the difference between shuffling the whole left
    table and shuffling ~|matches|: the bitmap (128 KB at 1M bits) is
    built worker-side from the right key column — a tree of per-block
    partial filters OR-merged in one task, the driver only ever holds
    the ObjectRef — and read once per filter task.  Correctness does
    not depend on the Bloom parameters (no false negatives; false
    positives are removed by the exact join), so num_bits is purely a
    perf knob.  Reference analog: the in-memory id-probe joins of
    data/IPRE/convert.py:12-20, made scale-safe.
    """
    from rex_ray.functions.hashing import IntBloomFilter
    from rex_ray.stages.dedup import _side_object, _worker_built_ref

    right_keys = right.select_columns([on])

    def build_filter(tables) -> IntBloomFilter:
        bf = IntBloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        for t in tables:
            if t.num_rows:
                bf.add_many(t[on].to_numpy(zero_copy_only=False))
        return bf

    bf_ref = _worker_built_ref(right_keys, build_filter)

    def prefilter(t: "pa.Table", _ref=bf_ref) -> "pa.Table":
        bf = _side_object(_ref)
        keys = t[on].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(bf.contains_many(keys)))

    # staging the candidates is free (the join's all-to-all would
    # materialize them anyway) and lets us short-circuit the fully-
    # filtered case: an all-empty left side loses its schema inside
    # the hash-shuffle join (Ray 2.49) and aborts with ArrowInvalid —
    # and with zero Bloom-passing rows the exact answer IS empty.
    candidates = left.map_batches(
        prefilter, batch_format="pyarrow"
    ).materialize()
    if candidates.count() == 0:
        import ray.data as rd

        s = candidates.schema() or left.schema()
        return rd.from_arrow(
            pa.schema(list(zip(s.names, s.types))).empty_table()
        )

    # exact verify: distinct right keys (partial unique per batch keeps
    # the shuffle at O(distinct)) joined back to the candidates.
    # right_is_distinct=True skips the dedup shuffle entirely — pass it
    # when the right side is already key-unique (e.g. a groupby output),
    # where re-deduplicating costs a pointless all-to-all per call.
    def batch_unique(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        return pa.table({on: pc.unique(t[on].combine_chunks())})

    from ray.data.aggregate import Count

    if right_is_distinct:
        distinct = right_keys
    else:
        distinct = (
            pre_shuffle(
                right_keys.map_batches(batch_unique, batch_format="pyarrow")
            )
            .groupby(on)
            .aggregate(Count(alias_name="_n"))
            .select_columns([on])
        )
    return hash_join(candidates, distinct, on=on)


def bucket_filter(ds, id_col: str, lo: int, hi: int):
    """Rows whose md5(id) % 100 bucket falls in [lo, hi) — the same
    deterministic routing as :func:`hash_split`, as a filter.  Pure
    function of the id: any shard filters independently, re-runs are
    stable, and a DuckDB oracle computes the identical bucket."""
    import hashlib

    def keep(t: pa.Table) -> pa.Table:
        b = np.fromiter(
            (
                int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16) % 100
                for v in t[id_col].to_pylist()
            ),
            dtype=np.int64,
            count=t.num_rows,
        )
        return t.filter(pa.array((b >= lo) & (b < hi)))

    return ds.map_batches(keep, batch_format="pyarrow")


def bloom_anti_join(left, right, on, num_bits: int = 1 << 20,
                    num_hashes: int = 5):
    """Exact anti-join ``left ▷ right`` (rows of ``left`` with NO match
    in ``right`` on the key column(s) ``on``), with a broadcast Bloom
    shortcut: a row whose composite key FAILS the Bloom filter of the
    right keys is provably unmatched and bypasses the shuffle entirely;
    only the Bloom-PASSING sliver (true matches + the false-positive
    margin) enters an exact left_outer hash join, from which the
    residual unmatched rows are recovered.  At 100 TB the shuffle
    carries ~|matches| rows, not |left| — the workhorse of incremental
    "append only what the store doesn't already hold" updates
    (reference analog: the dict-membership skip of
    data/EncyclopediaDS/convert.py:27-46, made distributed and exact).

    ``on`` may be one column or a list (composite keys are FNV-hashed
    to int64 for the Bloom probe only; the exact join runs on the real
    columns, so hash collisions cannot drop rows).  NOTE: ``left``'s
    lineage is consumed twice (fail branch + candidate branch) —
    pass a cheap or already-aggregated dataset (e.g. a deduped store),
    or materialize it first.
    """
    from rex_ray.functions.hashing import IntBloomFilter, _stable_hash64_batch
    from rex_ray.stages.dedup import _side_object, _worker_built_ref

    cols = [on] if isinstance(on, str) else list(on)

    def composite_keys(t: pa.Table) -> np.ndarray:
        parts = [
            np.asarray([str(x) for x in t[c].to_pylist()], dtype=object)
            for c in cols
        ]
        joined = parts[0]
        for p in parts[1:]:
            joined = joined + "\x1f" + p
        return _stable_hash64_batch(list(joined)).astype(np.int64)

    def build_filter(tables) -> IntBloomFilter:
        bf = IntBloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        for t in tables:
            if t.num_rows and cols[0] in t.schema.names:
                bf.add_many(composite_keys(t))
        return bf

    bf_ref = _worker_built_ref(right.select_columns(cols), build_filter)

    def split(t: pa.Table, keep_pass: bool, _ref=bf_ref) -> pa.Table:
        bf = _side_object(_ref)
        hit = bf.contains_many(composite_keys(t))
        return t.filter(pa.array(hit if keep_pass else ~hit))

    fails = left.map_batches(
        lambda t: split(t, keep_pass=False), batch_format="pyarrow"
    )
    candidates = left.map_batches(
        lambda t: split(t, keep_pass=True), batch_format="pyarrow"
    ).materialize()
    # nothing passed the Bloom (e.g. an all-new increment or an empty
    # right side): every left row is unmatched, and an all-empty join
    # input would lose its schema (Ray 2.49) — skip the join
    if candidates.count() == 0:
        return fails

    # exact residual: candidates left_outer-joined to the distinct right
    # keys + marker; unmatched (null marker) rows are genuinely new.
    def batch_unique(t: pa.Table) -> pa.Table:
        out = t.select(cols).group_by(cols).aggregate([])
        return out.append_column(
            "_m", pa.array(np.ones(out.num_rows, dtype=np.int64))
        )

    from ray.data.aggregate import Max

    distinct = (
        pre_shuffle(
            right.select_columns(cols).map_batches(
                batch_unique, batch_format="pyarrow"
            )
        )
        .groupby(cols)
        .aggregate(Max("_m", alias_name="_m"))
    )
    joined = hash_join(candidates, distinct, on=cols, join_type="left_outer")

    def unmatched(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_null(t["_m"])).drop_columns(["_m"])

    residual = joined.map_batches(unmatched, batch_format="pyarrow")
    out = fails.union(residual)

    # An all-matched left (steady-state incremental run with no new
    # rows) yields only empty blocks, whose schema Ray may drop; union
    # a 0-row seed table carrying the left schema so the result is
    # schema-stable even when empty.
    try:
        sch = left.schema()
        arrow_sch = pa.schema(
            [pa.field(n, t) for n, t in zip(sch.names, sch.types)]
        )
        import ray.data as rd

        out = out.union(rd.from_arrow(arrow_sch.empty_table()))
    except Exception:
        pass
    return out


def hash_split(ds, id_col: str, ratios=(80, 10, 10),
               names=("train", "val", "test")):
    """Deterministic dataset split assignment: md5(id) % 100 routed by
    cumulative ``ratios`` — the distributed, reproducible version of
    the reference's ratio splitter (rex/utils/segmentation.py split):
    assignment is a pure function of the id, so it is stable across
    runs, cluster sizes, and block boundaries, and any shard can be
    re-split independently (no global shuffle, no driver state).
    Output: input columns + ``split``."""
    import hashlib

    assert sum(ratios) == 100 and len(ratios) == len(names)
    cuts = np.cumsum(ratios)

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        h = np.asarray(
            [
                int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16) % 100
                for v in ids
            ]
        )
        idx = np.searchsorted(cuts, h, side="right")
        split = np.asarray(names, dtype=object)[idx]
        return t.append_column("split", pa.array(split, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")
