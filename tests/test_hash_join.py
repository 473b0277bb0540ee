"""``relational.hash_join`` (the task-only co-group) against a
``pandas.merge`` reference, for the two join types the pipelines use:
int, string and composite keys, right keys under other names, null key
parts, duplicate keys on both sides, a list payload, every row on one
hot key, zero-row sides that still carry a schema, and a left side fed
straight from a ``groupby``."""

from collections import Counter

import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd
from ray.data.aggregate import Count

from rex_ray.stages.relational import hash_join

KEYS = {
    "int": {"k": (pa.int64(), st.integers(0, 3))},
    "str": {"s": (pa.string(), st.sampled_from(["a", "b", "a\x1fb", ""]))},
    "composite": {
        "k": (pa.int64(), st.integers(0, 2)),
        "s": (pa.string(), st.sampled_from(["a", "a\x1f", ""])),
    },
}
HOT = {"k": 1, "s": "a"}


@st.composite
def join_cases(draw):
    keys = KEYS[draw(st.sampled_from(sorted(KEYS)))]
    rename = draw(st.booleans())
    rnames = {c: f"r_{c}" if rename else c for c in keys}
    hot = draw(st.booleans())

    def key_row():
        if hot:  # every row on one key
            return {c: HOT[c] for c in keys}
        return {
            c: draw(st.none() | values) for c, (_, values) in keys.items()
        }

    left = [
        {**key_row(), "v": i,
         "tags": draw(st.none() | st.lists(st.integers(0, 9), max_size=3))}
        for i in range(draw(st.integers(0, 12)))
    ]
    right = [
        {**{rnames[c]: x for c, x in key_row().items()}, "w": 100 + j}
        for j in range(draw(st.integers(0, 8)))
    ]
    lschema = pa.schema(
        [(c, t) for c, (t, _) in keys.items()]
        + [("v", pa.int64()), ("tags", pa.list_(pa.int64()))]
    )
    rschema = pa.schema(
        [(rnames[c], t) for c, (t, _) in keys.items()] + [("w", pa.int64())]
    )
    lcols = list(keys)
    return left, right, lschema, rschema, lcols, [rnames[c] for c in lcols]


def _dataset(rows, schema):
    """Two blocks (so duplicates also sit in different batches); a
    zero-row side keeps its schema."""
    t = pa.Table.from_pylist(rows, schema=schema)
    half = t.num_rows // 2
    return rd.from_arrow([t.slice(0, half), t.slice(half)])


def _norm(v):
    if isinstance(v, (list, tuple)):
        return tuple(v)
    return None if pd.isna(v) else v


def _rows(records, columns):
    return Counter(tuple(_norm(r.get(c)) for c in columns) for r in records)


def _reference(left, right, lcols, rcols, how):
    """``pandas.merge`` with Arrow's null rule: a null key part never
    matches, so right rows with one are dropped before the merge; the
    right key columns are dropped after it."""
    lf = pd.DataFrame(left, columns=[*lcols, "v", "tags"], dtype=object)
    rf = pd.DataFrame(right, columns=[*rcols, "w"], dtype=object)
    rf = rf.dropna(subset=rcols)
    if rcols == lcols:
        out = lf.merge(rf, on=lcols, how=how)
    else:
        out = lf.merge(rf, left_on=lcols, right_on=rcols, how=how)
        out = out.drop(columns=rcols)
    return out.to_dict("records")


@settings(max_examples=30, deadline=None)
@given(join_cases(), st.sampled_from(["inner", "left_outer"]))
def test_hash_join_matches_pandas_merge(ray_session, case, join_type):
    left, right, lschema, rschema, lcols, rcols = case
    out = hash_join(
        _dataset(left, lschema), _dataset(right, rschema), on=lcols,
        join_type=join_type, right_on=rcols if rcols != lcols else None,
    )
    if join_type == "left_outer" and left and not right:
        # the right columns of a zero-row right side are unknown
        with pytest.raises(Exception, match="zero-row right side"):
            out.take_all()
        return
    columns = [*lcols, "v", "tags", "w"]
    want = _reference(
        left, right, lcols, rcols, "inner" if join_type == "inner" else "left"
    )
    got = out.take_all()
    assert _rows(got, columns) == _rows(want, columns)
    assert all(set(r) == set(columns) for r in got)


def test_hash_join_one_hot_key(ray_session):
    left = rd.from_items([{"k": 7, "x": i} for i in range(3000)])
    right = rd.from_items([{"k": 7, "y": j} for j in range(3)])
    out = hash_join(left, right, on="k", rows=3000)
    assert out.count() == 9000
    assert sorted({r["y"] for r in out.take_all()}) == [0, 1, 2]


def test_hash_join_fed_from_groupby(ray_session):
    counts = rd.from_items(
        [{"k": i % 7, "x": i} for i in range(200)]
    ).groupby("k").aggregate(Count(alias_name="n"))
    right = rd.from_items([{"kk": k, "y": -k} for k in range(0, 10, 2)])
    got = hash_join(counts, right, on="k", right_on="kk").take_all()
    want = [
        {"k": k, "n": sum(1 for i in range(200) if i % 7 == k), "y": -k}
        for k in (0, 2, 4, 6)
    ]
    assert sorted(got, key=lambda r: r["k"]) == want
