"""The run record (``rex_ray/trace.py``): route and stats facts reach
callers through ``trace.run()``, and ``kg.triple_store_from_text_docs``
keeps the one out-dict parameter left in the package."""

import ast
from pathlib import Path

import pytest

import ray.data as rd

from rex_ray import trace

PKG = Path(__file__).resolve().parent.parent / "rex_ray"


def test_note_outside_a_run_is_a_no_op():
    trace.note(route="driver", n_rows=3)
    with trace.run() as rec:
        pass
    assert rec == {}


def test_nested_run_facts_reach_the_enclosing_run():
    with trace.run() as outer:
        trace.note(a=1)
        with trace.run() as inner:
            trace.note(b=2)
        trace.note(c=3)
    assert inner == {"b": 2}
    assert outer == {"a": 1, "b": 2, "c": 3}


def test_run_is_reset_after_an_exception():
    with pytest.raises(RuntimeError):
        with trace.run() as failed:
            trace.note(a=1)
            raise RuntimeError("boom")
    trace.note(b=2)  # no run is active any more
    with trace.run() as rec:
        trace.note(c=3)
    assert failed == {"a": 1}
    assert rec == {"c": 3}


def test_triple_store_route_out_and_enclosing_run_see_the_same_facts():
    from rex_ray.pipelines import kg

    gaz = {"alpha": "ORG", "beta": "PER", "gamma": "LOC"}
    docs = rd.from_items(
        [{"doc_id": 0, "text": "alpha beta gamma"},
         {"doc_id": 1, "text": "gamma alpha"}]
    )
    route: dict = {}
    with trace.run() as outer:
        kg.triple_store_from_text_docs(
            docs, max_driver_nodes=0, gazetteer=gaz, route_out=route
        )
    assert route == outer
    assert set(route) == {
        "canonical_route", "n_surfaces", "sliver_engine", "n_touched",
        "join_plan", "join_right_bytes",
    }
    assert route["canonical_route"] == "lp"
    # the label-propagation map is materialized and small: the link
    # broadcasts it
    assert route["join_plan"] == "broadcast"
    assert route["n_surfaces"] == 3
    # no surface is an alias-graph endpoint: the sliver is empty
    assert (route["n_touched"], route["sliver_engine"]) == (0, "none")


def test_only_triple_store_from_text_docs_takes_an_out_parameter():
    """Route and stats facts go through ``trace.note``; the one
    ``*_out`` parameter left under ``rex_ray/`` is
    ``kg.triple_store_from_text_docs(route_out=...)``."""
    found = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p
            ]
            found += [
                (path.relative_to(PKG).as_posix(),
                 getattr(node, "name", "<lambda>"), p.arg)
                for p in params if p.arg.endswith("_out")
            ]
    assert found == [
        ("pipelines/kg.py", "triple_store_from_text_docs", "route_out")
    ]
