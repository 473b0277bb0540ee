"""Relational operators: one hash join with two physical plans, the
Bloom semi/anti joins built on it, money-exact aggregation helpers.

Every join — the dimension lookups of the queries, the linker, the
dedup hot-bucket filters and the exact verify of both Bloom joins
(:func:`bloom_semi_join`, :func:`bloom_anti_join`) — is one call of
:func:`hash_join`, which picks its plan from the right side alone.  A
materialized right side of at most ``routing.BROADCAST_MAX_BYTES`` is
broadcast: resolved once per worker process and joined to each left
batch, with no shuffle.  Any other join is one task-only co-group:
each side is cut into per-bucket Arrow pieces, one sort shuffle brings
a bucket's pieces together, and the same per-batch join
(:func:`_join_tables`) runs per bucket.  No join starts actors, and
the package makes no ``Dataset.join`` call.  The bucket count comes
from one rule (:func:`_partitions`), so callers pass keys and, when
they hold one, a row count — nothing else.

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
import pyarrow.compute as pc

from rex_ray import trace
from rex_ray.functions import routing
from rex_ray.functions.blocks import (
    ROWS_PER_PARTITION,
    _side_object,
    _worker_built_ref,
    arrow_block,
    cluster_cpus,
    pre_shuffle,
)


def to_cents(values) -> pd.Series:
    """floor(x * 100.0 + 0.5) as int64 — EXACT mirror of SQL
    ``CAST(floor(x * 100.0 + 0.5) AS BIGINT)``.  floor(+0.5) (not
    round()) on both sides: numpy rounds half-to-even while DuckDB
    rounds half-away-from-zero, so round() would diverge on exact
    half-cents."""
    return pd.Series(np.floor(np.asarray(values) * 100.0 + 0.5)).astype("int64")


def _partitions(rows: Optional[int] = None) -> int:
    """The bucket count of :func:`hash_join`: ``1 + rows //
    ROWS_PER_PARTITION`` (also ``pre_shuffle``'s block floor) clamped
    to [2, cluster CPUs capped at 32], where ``rows`` is a row
    count the caller already holds (e.g. a metadata ``count()`` of a
    materialized input); without one it is the cluster width.  Each
    bucket is one sort partition, one Arrow join and one output block,
    so the rule bounds a bucket's rows without cutting small joins
    into pieces that only add per-bucket overhead."""
    width = max(2, min(32, cluster_cpus()))
    if rows is not None:
        width = max(2, min(width, 1 + rows // ROWS_PER_PARTITION))
    return width


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _probe(keys, values):
    """Position in ``values`` (distinct) of each key's match, null when
    there is none; a null key never matches.  ``values`` is cast to the
    keys' type, so int32 keys probe int64 values."""
    return pc.index_in(keys, value_set=values.cast(keys.type), skip_nulls=True)


def _join_tables(lt: pa.Table, rt: Optional[pa.Table], lcols, rcols,
                 how: str) -> pa.Table:
    """Join one left table to one right table: the per-batch join of
    both :func:`hash_join` plans (``how`` in Arrow's spelling, e.g.
    ``left outer``).  Output rows keep the left order.  A right side
    keyed by one column with no duplicate keys is probed
    (:func:`_probe` + ``take``); any other runs an Arrow hash join on
    the keys plus a row index, and the payload is ``take``n after it,
    so any payload type (lists too) passes.  ``rt`` is None when the
    right side brought no schema."""
    if rt is None:
        if how == "left outer":
            raise ValueError(
                "hash_join: left_outer against a zero-row right side,"
                " whose columns are unknown; guard the empty case"
            )
        rt = pa.table({r: lt[c][:0] for c, r in zip(lcols, rcols)})
    rkeys = {r: rt[r].cast(lt[c].type) for c, r in zip(lcols, rcols)}
    if len(rcols) == 1 and (
        pc.count_distinct(rkeys[rcols[0]], mode="all").as_py() == rt.num_rows
    ):
        j = _probe(lt[lcols[0]], rkeys[rcols[0]])
        if how == "left anti":
            return lt.filter(pc.is_null(j))
        if how != "left outer":
            lt, j = lt.filter(pc.is_valid(j)), j.drop_null()
    else:
        from pyarrow import acero

        filtering = how in ("left semi", "left anti")
        idx = pa.table(
            {**{c: lt[c] for c in lcols}, "_i": np.arange(lt.num_rows)}
        )
        rkeys = pa.table({**rkeys, "_j": np.arange(rt.num_rows)})
        pairs = acero.Declaration(
            "hashjoin",
            acero.HashJoinNodeOptions(
                how, lcols, rcols, left_output=["_i"],
                right_output=[] if filtering else ["_j"],
            ),
            inputs=[
                acero.Declaration("table_source",
                                  acero.TableSourceNodeOptions(x))
                for x in (idx, rkeys)
            ],
        ).to_table()
        pairs = pairs.sort_by([(c, "ascending") for c in pairs.column_names])
        lt = lt.take(pairs["_i"])
        if filtering:
            return lt
        j = pairs["_j"]
    if how == "left semi":
        return lt
    for name in rt.column_names:
        if name not in rcols:
            lt = lt.append_column(name, rt[name].take(j))
    return lt


def hash_join(left, right, on, join_type: str = "inner", right_on=None,
              rows: Optional[int] = None):
    """Hash join — the package's one join operator, with two physical
    plans.  ``on`` / ``right_on`` are a column name or a sequence of
    them (``right_on`` only when the right key names differ);
    ``join_type`` is ``inner``, ``left_outer``, ``left_semi`` or
    ``left_anti``.  Output: the left columns, then (inner /
    left_outer) the right non-key columns; a null key part never
    matches.  Each call notes ``join_plan`` ("broadcast"|"cogroup")
    and ``join_right_bytes`` (None when ``right`` is lazy) in the run
    record.

    BROADCAST, when ``right`` is a ``MaterializedDataset`` of at most
    ``routing.BROADCAST_MAX_BYTES`` or of zero rows (block metadata, no
    job): its Arrow blocks are resolved once per worker process
    (``_side_object``), and each left batch is joined to them
    (:func:`_join_tables`) in a ``map_batches`` — no shuffle.  A
    typed zero-row right side gives null payloads under left_outer.
    A caller that wants this plan materializes its small side.

    CO-GROUP, otherwise; both sides stay lazy.  A tag step bundles
    blocks (so a join, groupby or filter output feeds straight in) and
    cuts each batch into one Arrow IPC piece per bucket —
    :func:`_key_hash` of the keys mod :func:`_partitions` of ``rows``
    — one ``(_b, _side, _t)`` row each, so both sides share one schema
    without knowing each other's columns.  Every batch sends a piece,
    maybe empty, to EVERY bucket, so each bucket sees both sides'
    schemas.  One sort shuffle on ``_b`` with fixed boundaries
    co-groups the pieces, one partition (and one output block) per
    bucket, and :func:`_join_tables` joins each bucket.

    A side with zero rows sends no piece to the co-group (Ray skips a
    UDF on an empty block), so its columns are unknown: an empty left
    side gives an empty, schema-less result, an empty right side an
    inner or semi result with only the left columns, and left_outer
    raises.  Callers that need a typed answer guard the zero-row case
    or materialize the right side."""
    from ray.data.dataset import MaterializedDataset

    def cols(c):
        return [c] if isinstance(c, str) else list(c)

    lcols = cols(on)
    rcols = cols(right_on) if right_on else lcols
    how = join_type.replace("_", " ")
    filtering = how in ("left semi", "left anti")
    nbytes = (
        right.size_bytes() if isinstance(right, MaterializedDataset) else None
    )
    broadcast = nbytes is not None and (
        nbytes <= routing.BROADCAST_MAX_BYTES or right.count() == 0
    )
    trace.note(join_plan="broadcast" if broadcast else "cogroup",
               join_right_bytes=nbytes)

    if broadcast:
        # the block refs, not a task-built table: a build task would
        # need a worker process of its own while the probe waits on it
        refs = right.to_arrow_refs()

        def probe(t: pa.Table) -> pa.Table:
            parts = [p for p in _side_object(refs) if p.num_columns]
            rt = (
                pa.concat_tables(parts, promote_options="permissive")
                if parts else None
            )
            return _join_tables(t, rt, lcols, rcols, how)

        return left.map_batches(probe, batch_format="pyarrow")

    buckets = _partitions(rows)

    def tag(t: pa.Table, side: int, keys) -> pa.Table:
        if side == 1 and filtering:
            t = t.select(keys)
        b = _key_hash(t, keys) % buckets
        t = t.take(np.argsort(b, kind="stable"))
        n = np.bincount(b, minlength=buckets)
        pieces = [_ipc(t.slice(s, k)) for s, k in zip(np.cumsum(n) - n, n)]
        return pa.table({
            "_b": np.arange(buckets, dtype=np.int64),
            "_side": np.full(buckets, side, dtype=np.int8),
            "_t": pa.array(pieces, pa.large_binary()),
        })

    def side_table(g: pa.Table, side: int) -> Optional[pa.Table]:
        blobs = g["_t"].combine_chunks()
        parts = [
            pa.ipc.open_stream(blobs[i].as_buffer()).read_all()
            for i in np.flatnonzero(g["_side"].to_numpy() == side)
        ]
        if not parts:
            return None
        return pa.concat_tables(parts, promote_options="permissive")

    def join(g: pa.Table) -> pa.Table:
        lt = side_table(g, 0)
        if lt is None:
            return pa.table({})
        return _join_tables(lt, side_table(g, 1), lcols, rcols, how)

    def tagged(ds, side: int, keys):
        return ds.map_batches(
            tag, fn_kwargs={"side": side, "keys": keys},
            batch_format="pyarrow", batch_size=65536,
        )

    # fixed boundaries, not a sampled groupby: the output keeps one
    # block per bucket, and a downstream sort-based aggregate over
    # fewer, larger blocks is slower (200k groups: 34.6 s from 1
    # block, 12.6 s from 4)
    return (
        tagged(left, 0, lcols).union(tagged(right, 1, rcols))
        .sort("_b", boundaries=list(range(1, buckets)))
        .map_batches(join, batch_size=None, batch_format="pyarrow")
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
    """Composite hash of the key columns as int64: the bucket key of
    :func:`hash_join` and the Bloom key of both Bloom joins.  Each
    part goes through ``pandas.util.hash_array`` — integer parts as
    int64, string parts as text, other types as their ``str`` — so
    equal keys of different int widths, and string/large_string keys,
    hash alike; the parts' hashes combine FNV-style.  An int key and
    its decimal text do not hash alike.  A null part hashes to a fixed
    value (the exact join never matches it), and distinct keys can
    share a hash: only the exact join decides a match."""
    from pandas.util import hash_array

    h = np.zeros(t.num_rows, dtype=np.uint64)
    for c in cols:
        col = t[c]
        if pa.types.is_integer(col.type):
            v = col.cast(pa.int64(), safe=False).fill_null(0).to_numpy()
        elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = col.to_numpy(zero_copy_only=False)
        else:
            v = np.asarray([str(x) for x in col.to_pylist()], dtype=object)
        h = (h * np.uint64(0x100000001B3)) ^ hash_array(v, categorize=False)
    return h.view(np.int64)


def _bloom_split(left, right, cols, num_bits: int, num_hashes: int):
    """The Bloom half of both Bloom joins: ``(fails, candidates,
    right_keys)``.  ``right_keys`` is the right side's key columns,
    distinct per batch, plus their :func:`_key_hash` ``_h``
    (materialized: it builds the filter and feeds the exact join).
    ``fails`` (lazy) holds the left rows whose key FAILS the filter,
    which are provably unmatched; ``candidates`` (materialized) the rows
    that pass (true matches + the false-positive sliver).  The bitmap
    (128 KB at 1M bits) is built worker-side, the driver only ever
    holds the ObjectRef, and is read once per filter task.  No false
    negatives, so ``num_bits`` is purely a perf knob."""
    from rex_ray.functions.hashing import IntBloomFilter

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
        hit = _side_object(_ref).contains_many(_key_hash(t, cols))
        return t.filter(pa.array(hit if keep_pass else ~hit))

    fails = left.map_batches(
        lambda t: split(t, keep_pass=False), batch_format="pyarrow"
    )
    candidates = left.map_batches(
        lambda t: split(t, keep_pass=True), batch_format="pyarrow"
    ).materialize()
    return fails, candidates, right_keys


def bloom_semi_join(left, right, on: str, num_bits: int = 1 << 20,
                    num_hashes: int = 5):
    """Exact semi-join ``left ⋉ right`` with a broadcast Bloom
    prefilter: the left side is filtered against a bitmap of the right
    keys BEFORE the exact verify, so only candidate rows (true matches
    + the Bloom false-positive sliver) enter the exact
    :func:`hash_join` (:func:`_bloom_split`).  The materialized right
    keys, distinct per batch, take the join's broadcast plan while they
    fit ``routing.BROADCAST_MAX_BYTES``; above it every right key is
    shuffled once, so a call costs O(candidates + right keys).  A left
    row with a null key never matches.  Reference analog: the in-memory id-probe joins of
    data/IPRE/convert.py:12-20, made scale-safe.
    """
    import ray.data as rd

    cols = [on]
    _, candidates, right_keys = _bloom_split(
        left, right, cols, num_bits, num_hashes
    )
    # nothing passed the Bloom: the exact answer is empty (and a
    # zero-row left side brings no schema into hash_join)
    if candidates.count() == 0:
        s = left.schema()
        return rd.from_arrow(
            pa.schema(list(zip(s.names, s.types))).empty_table()
        )
    return hash_join(candidates, right_keys, on=cols, join_type="left_semi")


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
    false-positive margin) is verified, by a :func:`hash_join` with the
    right keys (:func:`_bloom_split`).  The left rows shuffled are
    ~|matches|, not |left| — the workhorse of incremental
    "append only what the store doesn't already hold" updates
    (reference analog: the dict-membership skip of
    data/EncyclopediaDS/convert.py:27-46, made distributed and exact).
    The right side is not filtered: its keys, distinct per batch, are
    broadcast while they fit ``routing.BROADCAST_MAX_BYTES``; above it
    every right key is shuffled once, so an append costs O(delta +
    store keys), not O(delta).  A left row with a null key part is
    always kept.

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
        hash_join(candidates, right_keys, on=cols, join_type="left_anti")
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
