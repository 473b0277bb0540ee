"""Invariants of the ``@query`` registry: every query carries a DuckDB
oracle except the six rows-only (model-scored / approximate) ones, and
a query name can be registered only once."""

import pytest

from rex_ray.pipelines.queries import oracle_sql, queries, query

ROWS_ONLY = {
    "ann_ivf_topk",
    "kg_bag_att",
    "kg_bag_one",
    "kg_globalpointer_scored",
    "kg_scored_triples",
    "kg_scored_triples_bilstm",
}


def test_every_query_but_the_rows_only_six_has_an_oracle():
    qs, sqls = queries(), oracle_sql()
    assert set(qs) - set(sqls) == ROWS_ONLY
    assert set(sqls) <= set(qs)


def test_registering_a_query_name_twice_raises():
    before = queries()["kg_mentions"]
    with pytest.raises(ValueError, match="kg_mentions"):

        @query("kg_mentions", sql="SELECT 1")
        def shadow(sf_dir: str):
            return None

    assert queries()["kg_mentions"] is before
    assert oracle_sql()["kg_mentions"] != "SELECT 1"
