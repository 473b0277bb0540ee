"""The Ray contract stage UDFs rely on instead of empty-batch guards:
``map_batches`` and ``map_groups`` never call a UDF on a batch with
zero rows (functions/blocks.py module docstring).  Every UDF here
raises on an empty batch, and runs over inputs that carry empty
blocks: a typed 0-row block between full ones, a filter that drops
every row, a join with empty partitions, and a groupby over an empty
dataset.  The fused scorer task is pinned on such inputs too: no input
rows give no rows, and documents without a pair a typed 0-row batch."""

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


_DOCS = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _docs(ids, texts):
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())}, schema=_DOCS)


@pytest.mark.parametrize("source", ["empty_corpus", "filter_drops_all",
                                    "no_pairs", "empty_block_between_full"])
def test_fused_scorer_task_on_empty_and_zero_pair_inputs(ray_session, source):
    """``scorer.score_docs`` (the fused featurize + PCNN task): an input
    with no rows gives 0 rows; documents with no scorable pair give a
    typed 0-row batch; an empty block between full ones changes
    nothing."""
    import ray
    import ray.data as rd

    from rex_ray.stages import scorer
    from rex_ray.stages.features import relation_label_encoder
    from rex_ray.state.dictionaries import Vocab

    full = [_docs([1], ["join hash table"]), _docs([2], ["hash join"])]
    ds = {
        "empty_corpus": lambda: rd.from_arrow(_DOCS.empty_table()),
        "filter_drops_all": lambda: rd.from_arrow(full).filter(
            expr="doc_id < 0"),
        "no_pairs": lambda: rd.from_arrow(_docs([1, 2], ["zz zz", "join"])),
        "empty_block_between_full": lambda: rd.from_arrow(
            [full[0], _DOCS.empty_table(), full[1]]),
    }[source]()
    vocab = Vocab(["join", "hash", "table", "zz"])
    out = scorer.score_docs(ds, vocab=vocab, concurrency=1).materialize()
    tables = [t for t in ray.get(out.to_arrow_refs())
              if t.num_rows or t.num_columns]
    if source == "empty_block_between_full":
        assert out.count() == 4  # 3 pairs + 1 pair
        return
    assert out.count() == 0
    if source == "no_pairs":
        (t,) = tables
        n_rels = len(relation_label_encoder())
        assert t.schema == pa.schema([
            ("doc_id", pa.int64()), ("pair_key", pa.string()),
            ("subj_pos", pa.int64()), ("obj_pos", pa.int64()),
            ("label_id", pa.int64()),
            ("scores", pa.list_(pa.float32(), n_rels)),
            ("pred_id", pa.int64()), ("pred_score", pa.float64()),
        ])
    else:  # the UDF never ran: nothing typed, nothing to type
        assert tables == []
