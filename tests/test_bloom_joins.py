"""Both Bloom joins against a pure-Python reference, on the inputs
their Bloom filter and exact verify must not get wrong: null key
parts, keys that collide once their parts are joined into one string,
list payloads, duplicate keys on either side, and a filter so small
that nearly every row is a false positive."""

import ast
from collections import Counter
from pathlib import Path

import pyarrow as pa
import pytest

import ray.data as rd

from rex_ray.stages.relational import bloom_anti_join, bloom_semi_join

RELATIONAL = (
    Path(__file__).resolve().parent.parent / "rex_ray" / "stages"
    / "relational.py"
)


def _blocks(table: pa.Table):
    """Two blocks, so duplicates also sit in different batches."""
    half = table.num_rows // 2
    return rd.from_arrow([table.slice(0, half), table.slice(half)])


def _int_case():
    n = 30
    left = pa.table(
        {
            # duplicate left keys (i % 20) and one null key
            "k": pa.array([i % 20 for i in range(n)] + [None], pa.int64()),
            "v": pa.array([f"v{i}" for i in range(n + 1)]),
        }
    )
    # duplicate right keys, in both blocks, and a null key
    right = pa.table(
        {
            "k": pa.array(
                [0, 3, 6, 9, 12, None, 0, 3, 6, 9, 12, 15, 99], pa.int64()
            ),
            "other": pa.array(list(range(13)), pa.int64()),
        }
    )
    return left, right, ["k"]


def _separator_case():
    # joined with "\x1f" (or "\x00") the left and right keys would be
    # the same string; as column tuples they differ
    left = pa.table(
        {
            "a": ["x\x1fy", "x\x00y", "x", "x", "p", None, "q\x00", "q\x00"],
            "b": ["z", "z", "y\x1fz", "y\x00z", "r", "r", "s", "s"],
            "n": pa.array(range(8), pa.int64()),
        }
    )
    right = pa.table(
        {
            "a": ["x", "x", "p", "p", None, "q\x00", "x\x1fy\x1fz"],
            "b": ["y\x1fz", "y\x00z", "r", "r", "r", "s", ""],
        }
    )
    return left, right, ["a", "b"]


def _list_payload_case():
    left = pa.table(
        {
            "s": ["e1", "e2", "e3", "e2", "e4", "e1"],
            "p": ["r", "r", "q", "r", "q", "q"],
            "o": ["e9", "e8", "e7", "e8", "e6", "e9"],
            "tags": pa.array(
                [[1, 2], [], None, [3], [4, 5, 6], [7]],
                pa.list_(pa.int64()),
            ),
            "score": pa.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5]),
        }
    )
    right = pa.table(
        {
            "s": ["e1", "e2", "e2", "e5", "e4"],
            "p": ["r", "r", "r", "q", None],
            "o": ["e9", "e8", "e8", "e6", "e6"],
        }
    )
    return left, right, ["s", "p", "o"]


CASES = {
    "int": _int_case,
    "separators": _separator_case,
    "list_payload": _list_payload_case,
}


def _key_tuples(table: pa.Table, cols):
    return list(zip(*(table[c].to_pylist() for c in cols)))


def _reference(left: pa.Table, right: pa.Table, cols, matched: bool):
    """Rows of ``left`` whose key (all parts non-null) is in ``right``
    (``matched``) or is not; a null part never matches."""
    rkeys = {
        k for k in _key_tuples(right, cols) if None not in k
    }
    rows = left.to_pylist()
    keys = _key_tuples(left, cols)
    return [
        r for r, k in zip(rows, keys)
        if (None not in k and k in rkeys) == matched
    ]


def _multiset(rows):
    def freeze(v):
        return tuple(v) if isinstance(v, list) else v

    return Counter(
        tuple(sorted((c, freeze(v)) for c, v in r.items())) for r in rows
    )


BLOOM = {"default": {}, "forced_false_positives": dict(num_bits=8,
                                                      num_hashes=1)}


@pytest.mark.parametrize("bloom", sorted(BLOOM))
@pytest.mark.parametrize("case", sorted(CASES))
def test_bloom_anti_join_matches_reference(ray_session, case, bloom):
    left, right, cols = CASES[case]()
    out = bloom_anti_join(
        _blocks(left), _blocks(right), on=cols, **BLOOM[bloom]
    )
    want = _reference(left, right, cols, matched=False)
    assert _multiset(out.take_all()) == _multiset(want)
    assert want  # every case keeps some rows


@pytest.mark.parametrize("bloom", sorted(BLOOM))
@pytest.mark.parametrize("case", sorted(CASES))
def test_bloom_semi_join_matches_reference(ray_session, case, bloom):
    left, right, cols = CASES[case]()
    on = cols[0]
    out = bloom_semi_join(
        _blocks(left), _blocks(right), on=on, **BLOOM[bloom]
    )
    want = _reference(left, right, [on], matched=True)
    assert _multiset(out.take_all()) == _multiset(want)
    assert want


def _reachable(defs, fn):
    """``fn`` and every module-level function of relational.py it
    calls, transitively."""
    seen, todo = set(), [fn]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += [
            n.func.id for n in ast.walk(defs[name])
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in defs
        ]
    return seen


@pytest.mark.parametrize("fn", ["bloom_anti_join", "bloom_semi_join"])
def test_bloom_joins_start_no_join_actors(fn):
    """Both Bloom joins verify through ``hash_join``, the one co-group
    kernel, and reach no ``Dataset.join`` call (a ``.join`` with a
    ``join_type`` or ``on`` keyword, as ``tests/test_join_entry.py``
    finds them), so no join aggregator actors start."""
    tree = ast.parse(RELATIONAL.read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached = _reachable(defs, fn)
    assert "hash_join" in reached
    joins = [
        (name, n.lineno) for name in reached for n in ast.walk(defs[name])
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "join"
        and any(k.arg in ("join_type", "on") for k in n.keywords)
    ]
    assert joins == []
