"""Relational operators: broadcast hash joins, large-large shuffle
joins, money-exact aggregation helpers.

Join strategy (SURVEY.md §2.4): dimension tables (nation, customer at
TPC-H scale factors) are SMALL-side — loaded once on the driver,
``ray.put`` once, probed per batch with a vectorized pandas ``map``
(:func:`broadcast_join`).  The two Bloom joins (:func:`bloom_semi_join`,
:func:`bloom_anti_join`) verify their Bloom-passing rows with one
task-only co-group (:func:`_bloom_verify`: a sort-shuffle ``groupby``
on a hash bucket, an Arrow join per bucket), which starts no join
aggregator actors.  Every other join is a hash-partitioned shuffle
through :func:`hash_join`, the only ``Dataset.join`` call in the
package: it compacts both inputs (the Ray 2.49 empty-first-block
schema loss, ``functions.blocks.compact_blocks``) and sizes the
partition count by one rule (:func:`_partitions`, shared with the
co-group), so callers pass keys and, when they hold one, a row count —
nothing else.  Callers still guard a join side with ZERO rows
themselves: no compaction can give it a schema.

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


def _partitions(rows: Optional[int] = None) -> int:
    """The shuffle partition count of :func:`hash_join` and the Bloom
    joins' verify: ``1 + rows // 50_000`` clamped to [2, cluster CPUs
    capped at 32], where ``rows`` is a row count the caller already
    holds (e.g. a metadata ``count()`` of a materialized input);
    without one it is the cluster width.  Each join partition is an
    aggregator actor: a fixed 32 deadlocks a 4-cpu cluster, and fan-out
    beyond the data is pure spin-up."""
    width = max(2, min(32, cluster_cpus()))
    if rows is not None:
        width = max(2, min(width, 1 + rows // 50_000))
    return width


def hash_join(left, right, on, join_type: str = "inner", right_on=None,
              rows: Optional[int] = None):
    """Hash-partitioned shuffle join — the one ``Dataset.join`` entry
    point.  ``on`` / ``right_on`` are a column name or a sequence of
    them (``right_on`` only when the right key names differ).

    Both inputs are compacted first (``functions.blocks.
    compact_blocks``), so a join, groupby or filter output can feed
    straight in.  ``rows`` sizes the partition count
    (:func:`_partitions`).  An input with zero rows still loses its
    schema — guard that case before the call.

    The aggregator actors reserve nothing: Ray's default CPU and
    ``memory`` reservations hung one join on 1 CPU (no whole CPU left
    for a shuffle task) and two chained 8-partition joins on 8 CPUs
    (0.875 GiB each; the second join's actors never started)."""

    def cols(c):
        return (c,) if isinstance(c, str) else tuple(c)

    return compact_blocks(left).join(
        compact_blocks(right), join_type=join_type,
        num_partitions=_partitions(rows),
        on=cols(on), right_on=cols(right_on) if right_on else None,
        aggregator_ray_remote_args={"num_cpus": 0},
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


def _key_hash(t: pa.Table, cols) -> np.ndarray:
    """Composite FNV-64 of the key columns (``str`` of each part,
    joined by ``"\\x1f"``) as int64: the Bloom key and the routing key
    of both Bloom joins.  Distinct keys can share a hash (a part may
    contain the separator); only the exact verify decides a match."""
    from rex_ray.functions.hashing import _stable_hash64_batch

    parts = [
        np.asarray([str(x) for x in t[c].to_pylist()], dtype=object)
        for c in cols
    ]
    joined = parts[0]
    for p in parts[1:]:
        joined = joined + "\x1f" + p
    return _stable_hash64_batch(list(joined)).astype(np.int64)


def _bloom_split(left, right, cols, num_bits: int, num_hashes: int):
    """The Bloom half of both Bloom joins: ``(fails, candidates,
    right_keys)``.  ``right_keys`` is the right side's key columns,
    distinct per batch, plus their :func:`_key_hash` ``_h``
    (materialized: it builds the filter and feeds the verify).
    ``fails`` (lazy) holds the left rows whose key FAILS the filter,
    which are provably unmatched; ``candidates`` (materialized) the rows
    that pass (true matches + the false-positive sliver) plus ``_h``.
    The bitmap (128 KB at 1M bits) is built worker-side, the driver
    only ever holds the ObjectRef, and is read once per filter task.
    No false negatives, so ``num_bits`` is purely a perf knob."""
    from rex_ray.functions.hashing import IntBloomFilter
    from rex_ray.stages.dedup import _side_object, _worker_built_ref

    def hashed_distinct(t: pa.Table) -> pa.Table:
        d = t.group_by(cols).aggregate([])
        return d.append_column("_h", pa.array(_key_hash(d, cols)))

    right_keys = right.select_columns(cols).map_batches(
        hashed_distinct, batch_format="pyarrow"
    ).materialize()

    def build_filter(tables) -> IntBloomFilter:
        bf = IntBloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        for t in tables:
            if t.num_rows:
                bf.add_many(t["_h"].to_numpy())
        return bf

    bf_ref = _worker_built_ref(right_keys, build_filter)

    def split(t: pa.Table, keep_pass: bool, _ref=bf_ref) -> pa.Table:
        h = _key_hash(t, cols)
        hit = _side_object(_ref).contains_many(h)
        if not keep_pass:
            return t.filter(pa.array(~hit))
        return t.filter(pa.array(hit)).append_column("_h", pa.array(h[hit]))

    fails = left.map_batches(
        lambda t: split(t, keep_pass=False), batch_format="pyarrow"
    )
    candidates = left.map_batches(
        lambda t: split(t, keep_pass=True), batch_format="pyarrow"
    ).materialize()
    return fails, candidates, right_keys


def _bloom_verify(candidates, right_keys, cols, keep: str):
    """The exact half of both Bloom joins: the ``candidates`` rows whose
    key has a match in ``right_keys`` (``keep="matched"``) or has none
    (``"unmatched"``); a null key part never matches.  Both inputs come
    from :func:`_bloom_split` and carry the key hash ``_h``.

    One task-only co-group, not a shuffle join: the two sides are
    tagged (``_side`` 0/1; the right rows carry the candidates' payload
    columns as typed nulls and their keys cast to the candidates'
    types, so the union has one schema), routed to ``_h % B`` buckets
    (``B`` = :func:`_partitions`; grouping by the key itself pays a
    per-group cost per distinct key) and co-grouped by one sort-shuffle
    ``groupby``.  Each bucket runs an Arrow left semi/anti join of its
    candidate keys plus a row index against its right keys, then
    ``take``s the kept rows: Arrow rejects a list as a non-key join
    field, so any payload type passes through.  Measured on 1 core at
    ``num_cpus=2``: a 144x144-row :func:`hash_join` took 6.4-7.6 s,
    almost all of it waiting for the join's aggregator actors; a
    sort-shuffle groupby over the same rows took 0.16-0.19 s."""
    from pyarrow import acero

    import ray.data as rd

    s = candidates.schema()
    out = pa.schema(
        [pa.field(n, t) for n, t in zip(s.names, s.types) if n != "_h"]
    )
    tagged = out.append(pa.field("_side", pa.int8())).append(
        pa.field("_b", pa.int64())
    )
    buckets = _partitions()

    def tag(t: pa.Table, side: int) -> pa.Table:
        n = t.num_rows
        if side == 0:
            data = [t[f.name] for f in out]
        else:
            data = [
                t[f.name].cast(f.type) if f.name in cols
                else pa.nulls(n, f.type)
                for f in out
            ]
        return pa.Table.from_arrays(
            data + [
                pa.array(np.full(n, side, dtype=np.int8)),
                pa.array(t["_h"].to_numpy() % buckets),
            ],
            schema=tagged,
        )

    join_type = "left semi" if keep == "matched" else "left anti"

    def verify(g: pa.Table) -> pa.Table:
        side = g["_side"].to_numpy()
        lt = g.filter(pa.array(side == 0)).select(out.names)
        idx = lt.select(cols).append_column(
            "_i", pa.array(np.arange(lt.num_rows, dtype=np.int64))
        )
        rt = g.filter(pa.array(side == 1)).select(cols)
        hit = acero.Declaration(
            "hashjoin", acero.HashJoinNodeOptions(join_type, cols, cols),
            inputs=[
                acero.Declaration("table_source",
                                  acero.TableSourceNodeOptions(x))
                for x in (idx, rt)
            ],
        ).to_table()
        return lt.take(np.sort(hit["_i"].to_numpy()))

    both = candidates.map_batches(
        tag, fn_kwargs={"side": 0}, batch_format="pyarrow"
    ).union(
        right_keys.map_batches(
            tag, fn_kwargs={"side": 1}, batch_format="pyarrow"
        )
    )
    verified = both.groupby("_b").map_groups(verify, batch_format="pyarrow")
    # a 0-row seed keeps the schema when every bucket comes back empty
    return verified.union(rd.from_arrow(out.empty_table()))


def bloom_semi_join(left, right, on: str, num_bits: int = 1 << 20,
                    num_hashes: int = 5):
    """Exact semi-join ``left ⋉ right`` with a broadcast Bloom
    prefilter: the left side is filtered against a bitmap of the right
    keys BEFORE the exact verify, so only candidate rows (true matches
    + the Bloom false-positive sliver) enter the co-group
    (:func:`_bloom_split`, :func:`_bloom_verify`).  Every right key is
    still shuffled once, distinct per batch, so a call costs
    O(candidates + right keys).  A left row with a null key never
    matches.  Reference analog: the in-memory id-probe joins of
    data/IPRE/convert.py:12-20, made scale-safe.
    """
    import ray.data as rd

    cols = [on]
    _, candidates, right_keys = _bloom_split(
        left, right, cols, num_bits, num_hashes
    )
    # nothing passed the Bloom: the exact answer is empty (and an
    # all-empty co-group input would lose its schema)
    if candidates.count() == 0:
        s = left.schema()
        return rd.from_arrow(
            pa.schema(list(zip(s.names, s.types))).empty_table()
        )
    return _bloom_verify(candidates, right_keys, cols, "matched")


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
    right keys is provably unmatched and bypasses the exact step
    entirely; only the Bloom-PASSING sliver (true matches + the
    false-positive margin) is verified, by a co-group with the right
    keys (:func:`_bloom_split`, :func:`_bloom_verify`).  The left rows
    shuffled are ~|matches|, not |left| — the workhorse of incremental
    "append only what the store doesn't already hold" updates
    (reference analog: the dict-membership skip of
    data/EncyclopediaDS/convert.py:27-46, made distributed and exact).
    The right side is not filtered: every right key is shuffled once,
    distinct per batch, so an append costs O(delta + store keys), not
    O(delta).  A left row with a null key part is always kept.

    ``on`` may be one column or a list (composite keys are FNV-hashed
    to int64 for the Bloom probe and the routing only; the exact verify
    runs on the real columns, so hash collisions cannot drop rows).
    NOTE: ``left``'s lineage is consumed twice (fail branch +
    candidate branch) — pass a cheap or already-aggregated dataset
    (e.g. a deduped store), or materialize it first.
    """
    cols = [on] if isinstance(on, str) else list(on)
    fails, candidates, right_keys = _bloom_split(
        left, right, cols, num_bits, num_hashes
    )
    # nothing passed the Bloom (e.g. an all-new increment or an empty
    # right side): every left row is unmatched
    if candidates.count() == 0:
        return fails
    return fails.union(
        _bloom_verify(candidates, right_keys, cols, "unmatched")
    )


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
