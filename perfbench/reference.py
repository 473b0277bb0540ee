"""DuckDB references, computed once per run at set-up (never timed).

The bulk and checkpointed workloads use the repo's own oracle SQL; the
long-tail workload runs the same query with its generated gazetteer as
a table instead of the spec literal.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pandas as pd

from rex_ray.pipelines import spec
from rex_ray.pipelines.queries import _canon_ctes, _kg_ctes, oracle_sql
from rex_ray.stages.features import MAX_SEQ_LEN

KEYS = ["subj_id", "pred", "obj_id"]


class Mismatch(AssertionError):
    """A timed output differs from its reference."""


def _connect(path: str, gazetteer: Optional[Dict[str, str]]):
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    if gazetteer is not None:
        con.register("gaz", pd.DataFrame(
            {"surface": list(gazetteer), "ent_type": list(gazetteer.values())}
        ))
    return con


def _with_gazetteer(sql: str, gazetteer) -> str:
    if gazetteer is None:
        return sql
    lit = spec.sql_gazetteer_values()
    if lit not in sql:
        raise ValueError("oracle SQL no longer inlines the spec gazetteer")
    return sql.replace(lit, "gaz")


def store(path: str, gazetteer: Optional[Dict[str, str]] = None,
          query: str = "kg_triple_store_interleaved") -> pd.DataFrame:
    """(subj_id, pred, obj_id, score, support) per the oracle."""
    sql = _with_gazetteer(oracle_sql()[query], gazetteer)
    with _connect(path, gazetteer) as con:
        return con.sql(sql).df()


def shape(path: str,
          gazetteer: Optional[Dict[str, str]] = None) -> Dict[str, int]:
    """Input sizes: docs, tokens, mentions, candidate triples, distinct
    surfaces, and candidates inside the scorer's ``MAX_SEQ_LEN``."""
    sql = _with_gazetteer(
        f"""WITH RECURSIVE {_kg_ctes()}, {_canon_ctes()}
        SELECT (SELECT count(*) FROM documents),
               (SELECT count(*) FROM tok),
               (SELECT count(*) FROM mention),
               (SELECT count(*) FROM tri),
               (SELECT count(*) FROM present),
               (SELECT count(*) FROM tri
                 WHERE subj_pos < {MAX_SEQ_LEN} AND obj_pos < {MAX_SEQ_LEN})""",
        gazetteer,
    )
    with _connect(path, gazetteer) as con:
        row = con.sql(sql).fetchone()
    names = ["docs", "tokens", "mentions", "candidates", "surfaces",
             "scorable_pairs"]
    return dict(zip(names, map(int, row)))


def write_bucket_slice(path: str, out_path: str, hi: int) -> None:
    """Docs whose md5 bucket (the oracle's rule) is below ``hi``."""
    with _connect(path, None) as con:
        con.execute(f"""COPY (SELECT * FROM documents WHERE
            ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
            % 100 < {hi}) TO '{out_path}' (FORMAT parquet)""")


def check_store(got: pd.DataFrame, ref: pd.DataFrame, what: str) -> None:
    """Same key set, same support, same max score (to 1e-9)."""
    if len(got) != len(ref):
        raise Mismatch(f"{what}: {len(got)} rows, reference {len(ref)}")
    g = got.sort_values(KEYS).reset_index(drop=True)
    r = ref.sort_values(KEYS).reset_index(drop=True)
    for k in KEYS:
        if not np.array_equal(g[k].astype(str).to_numpy(),
                              r[k].astype(str).to_numpy()):
            raise Mismatch(f"{what}: key column {k} differs")
    if not np.array_equal(g["support"].to_numpy(np.int64),
                          r["support"].to_numpy(np.int64)):
        raise Mismatch(f"{what}: support differs")
    if not np.allclose(g["score"].to_numpy(np.float64),
                       r["score"].to_numpy(np.float64), rtol=0, atol=1e-9):
        raise Mismatch(f"{what}: score differs")


def key_set(df: pd.DataFrame) -> set:
    return set(zip(*(df[k].astype(str) for k in KEYS)))
