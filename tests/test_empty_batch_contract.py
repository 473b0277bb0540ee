"""The Ray contract stage UDFs rely on instead of empty-batch guards:
``map_batches`` and ``map_groups`` never call a UDF on a batch with
zero rows (functions/blocks.py module docstring).  Every UDF here
raises on an empty batch, and runs over inputs that carry empty
blocks: a typed 0-row block between full ones, a filter that drops
every row, a join with empty partitions, and a groupby over an empty
dataset."""

import gc

import pyarrow as pa
import pytest

_KV = pa.schema([("k", pa.int64()), ("v", pa.int64())])


def _kv(keys):
    return pa.table(
        {"k": pa.array(keys, pa.int64()), "v": pa.array(keys, pa.int64())},
        schema=_KV,
    )


def _guarded():
    """A UDF and a callable class that raise on a 0-row batch.  Built
    inside a function so Ray pickles them by value (workers cannot
    import this test module)."""

    def rows(batch) -> int:
        if isinstance(batch, pa.Table):
            return batch.num_rows
        if isinstance(batch, dict):
            return len(next(iter(batch.values())))
        return len(batch)

    def nonempty(batch):
        if rows(batch) == 0:
            raise AssertionError("UDF called on an empty batch")
        return batch

    class NonEmpty:
        def __call__(self, batch):
            return nonempty(batch)

    return nonempty, NonEmpty


def _empty_between_full():
    import ray.data as rd

    return rd.from_arrow([_kv([0, 1, 2]), _KV.empty_table(), _kv([3, 4])]), 5


def _filter_drops_all():
    import ray.data as rd

    return rd.from_arrow([_kv([0, 1]), _kv([2, 3])]).filter(expr="k < 0"), 0


def _join_with_empty_partitions():
    import ray.data as rd

    # two keys over four partitions: at least two partitions are empty
    left = rd.from_arrow(_kv([1, 1, 2]))
    right = rd.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "w": pa.array([10, 20], pa.int64())})
    )
    return left.join(right, join_type="inner", num_partitions=4, on=("k",)), 3


def _groupby_count_of_empty():
    import ray.data as rd

    return rd.from_arrow(_KV.empty_table()).groupby("k").count(), 0


INPUTS = {
    "empty_block_between_full": _empty_between_full,
    "filter_drops_all": _filter_drops_all,
    "join_with_empty_partitions": _join_with_empty_partitions,
    "groupby_count_of_empty": _groupby_count_of_empty,
}


@pytest.mark.parametrize("batch_size", [None, 2])
@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow", "numpy"])
@pytest.mark.parametrize("source", sorted(INPUTS))
def test_map_batches_never_sees_an_empty_batch(
    ray_session, source, batch_format, batch_size
):
    ds, n = INPUTS[source]()
    kw = {} if batch_size is None else {"batch_size": batch_size}
    fn, _ = _guarded()
    out = ds.map_batches(fn, batch_format=batch_format, **kw)
    assert out.count() == n


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("source", sorted(INPUTS))
def test_map_groups_never_sees_an_empty_group(
    ray_session, source, batch_format
):
    ds, n = INPUTS[source]()
    fn, _ = _guarded()
    out = ds.groupby("k").map_groups(fn, batch_format=batch_format)
    assert out.count() == n


@pytest.mark.parametrize("source", sorted(INPUTS))
def test_actor_udf_never_sees_an_empty_batch(ray_session, source):
    ds, n = INPUTS[source]()
    _, cls = _guarded()
    out = ds.map_batches(cls, batch_format="pyarrow", concurrency=1)
    assert out.count() == n
    del out
    gc.collect()  # drop the actor pool so its CPU is free again


def test_passed_through_empty_block_schema_is_not_seen(ray_session):
    """Ray passes the 0-row ``{a, b}`` block through a ``{node, deg}``
    map unchanged; the consumers skip it."""
    import ray.data as rd

    ab = pa.schema([("a", pa.string()), ("b", pa.int64())])
    blocks = [
        pa.table({"a": ["x", "y"], "b": [1, 2]}, schema=ab),
        ab.empty_table(),
        pa.table({"a": ["x", "z"], "b": [3, 4]}, schema=ab),
    ]
    out = rd.from_arrow(blocks).map_batches(
        lambda t: pa.table({"node": t["a"], "deg": t["b"]}),
        batch_format="pyarrow",
    )
    df = out.to_pandas()
    assert list(df.columns) == ["node", "deg"]
    got = out.groupby("node").sum("deg").to_pandas()
    assert dict(zip(got["node"], got["sum(deg)"])) == {
        "x": 4, "y": 2, "z": 4
    }
