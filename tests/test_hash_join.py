"""``relational.hash_join`` against a ``pandas.merge`` reference,
under both physical plans (broadcast and co-group, forced through
``routing.BROADCAST_MAX_BYTES``) and all four join types: int, string
and composite keys, right keys under other names, null key parts,
duplicate keys on both sides, int32 keys against int64 ones, a list
payload, every row on one hot key, zero-row sides that still carry a
schema, and a left side fed straight from a ``groupby``."""

from collections import Counter
from contextlib import contextmanager

import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd
from ray.data.aggregate import Count

from rex_ray import trace
from rex_ray.functions import routing
from rex_ray.stages.relational import hash_join

JOIN_TYPES = ["inner", "left_outer", "left_semi", "left_anti"]
PLANS = {"broadcast": 1 << 40, "cogroup": 0}

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


def _reference(left, right, lcols, rcols, join_type):
    """``pandas.merge`` with Arrow's null rule: a null key part never
    matches, so right rows with one are dropped before the merge; the
    right key columns are dropped after it.  Semi and anti keep the
    left rows with (without) a match, each once."""
    lf = pd.DataFrame(left, columns=[*lcols, "v", "tags"], dtype=object)
    rf = pd.DataFrame(right, columns=[*rcols, "w"], dtype=object)
    rf = rf.dropna(subset=rcols).rename(columns=dict(zip(rcols, lcols)))
    if join_type in ("left_semi", "left_anti"):
        hit = lf.reset_index().merge(rf, on=lcols)["index"]
        keep = lf.index.isin(hit)
        return lf[keep if join_type == "left_semi" else ~keep].to_dict(
            "records"
        )
    how = "inner" if join_type == "inner" else "left"
    return lf.merge(rf, on=lcols, how=how).to_dict("records")


@contextmanager
def _plan(name):
    """Force ``hash_join``'s plan for non-empty right sides (a
    materialized zero-row right side is broadcast under either
    bound)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "BROADCAST_MAX_BYTES", PLANS[name])
        yield


def _check(case, join_type, plan):
    left, right, lschema, rschema, lcols, rcols = case
    with _plan(plan), trace.run() as rec:
        out = hash_join(
            _dataset(left, lschema), _dataset(right, rschema), on=lcols,
            join_type=join_type, right_on=rcols if rcols != lcols else None,
        )
    assert rec["join_plan"] == (plan if right else "broadcast")
    columns = [*lcols, "v", "tags"]
    if join_type in ("inner", "left_outer"):
        columns.append("w")
    got = out.take_all()
    want = _reference(left, right, lcols, rcols, join_type)
    assert _rows(got, columns) == _rows(want, columns)
    assert all(set(r) == set(columns) for r in got)


@settings(max_examples=30, deadline=None)
@given(join_cases(), st.sampled_from(JOIN_TYPES), st.sampled_from(sorted(PLANS)))
def test_hash_join_matches_pandas_merge(ray_session, case, join_type, plan):
    _check(case, join_type, plan)


def _int_case(lkeys, rkeys, ltype=pa.int64(), rtype=pa.int64()):
    left = [{"k": k, "v": i, "tags": [i]} for i, k in enumerate(lkeys)]
    right = [{"k": k, "w": 100 + j} for j, k in enumerate(rkeys)]
    lschema = pa.schema(
        [("k", ltype), ("v", pa.int64()), ("tags", pa.list_(pa.int64()))]
    )
    rschema = pa.schema([("k", rtype), ("w", pa.int64())])
    return left, right, lschema, rschema, ["k"], ["k"]


CASES = {
    # distinct right keys, one of them null: the probe path
    "null_keys": _int_case([1, None, 2, None, 3], [1, None, 2]),
    # duplicate right keys: the generic per-batch join
    "dup_right": _int_case([1, 2, 3, None], [1, 1, 2, None, None]),
    "int32_int64": _int_case([1, 2, 3, 4], [4, 2, 9], ltype=pa.int32()),
    "int64_int32": _int_case([1, 2, 3, 4], [4, 2, 9], rtype=pa.int32()),
    # typed zero-row right side: left_outer gives null payloads
    "empty_right": _int_case([1, None, 2], []),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("join_type", JOIN_TYPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_join_cases(ray_session, name, join_type, plan):
    _check(CASES[name], join_type, plan)


def test_hash_join_lazy_empty_right_left_outer_raises(ray_session):
    """A lazy right side co-groups; with zero rows it brings no schema,
    so left_outer cannot know its columns and says so."""
    left = rd.from_items([{"k": 1, "x": 0}])
    right = rd.from_items([{"k": 1, "y": 2}]).filter(expr="k > 5")
    with trace.run() as rec:
        out = hash_join(left, right, on="k", join_type="left_outer")
    assert rec == {"join_plan": "cogroup", "join_right_bytes": None}
    with pytest.raises(Exception, match="zero-row right side"):
        out.take_all()


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
