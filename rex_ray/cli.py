"""CLI multiplexer — the ``ray job submit`` entrypoint.

    ray job submit --working-dir . -- \
        python -m rex_ray run -c conf/flagship.yaml -a num_partitions=64

Subcommands (reference analog rex/cmds/__init__.py:21-38):

    run     resolve the configured pipeline from the registry, execute
            it, print a one-line JSON report (rows, lineage, timings)
    dryrun  resolve + validate config and print the plan, execute nothing
    list    show registered pipelines / queries
    new     scaffold a user stage module (reference ``rex new``)

Only this CLI owns a Ray session (guarded — the grading driver and
``ray job submit`` both init Ray before us; ``__ray_entry__``/library
code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict

from rex_ray.config import load_config
from rex_ray.functions import fsio
from rex_ray.registry import (
    get_registered,
    import_module_and_submodules,
    list_registered,
    register,
)

DEFAULTS: Dict[str, Any] = {
    "pipeline": "flagship_resumable",
    "sf_dir": "/root/testdata/sf0.001",
    "out_dir": "/tmp/rex_ray_out",
    "num_partitions": 8,
    "min_score": 0.0,
    "num_cpus": None,  # None -> let Ray size itself / reuse session
    # md5 doc-bucket slice [lo, hi) for the bootstrap + incremental
    # pair (flagship_resumable / incremental pipelines)
    "bucket_lo": 0,
    "bucket_hi": 100,
}


# -- built-in pipelines ----------------------------------------------------

@register("pipeline", "flagship")
def _flagship(cfg: Dict[str, Any]):
    from rex_ray.pipelines import kg

    ds = kg.run_flagship(cfg["sf_dir"], min_score=cfg["min_score"])
    return {"rows": ds.count()}


@register("pipeline", "flagship_resumable")
def _flagship_resumable(cfg: Dict[str, Any]):
    from rex_ray.pipelines import kg

    store, lineage = kg.run_flagship_resumable(
        cfg["sf_dir"],
        cfg["out_dir"],
        num_partitions=int(cfg["num_partitions"]),
        min_score=cfg["min_score"],
        bucket_lo=int(cfg.get("bucket_lo", 0)),
        bucket_hi=int(cfg.get("bucket_hi", 100)),
    )
    out = f"{cfg['out_dir'].rstrip('/')}/triple_store"
    # the merge output is rebuilt from the (checkpointed) partitions on
    # every invocation — replace, don't accumulate.  All output IO goes
    # through fsio (pyarrow.fs), so out_dir may be an object-store URI.
    fsio.delete_dir_if_exists(out)
    store.write_parquet(out)
    n = fsio.parquet_rows(out)
    return {
        "rows": n,
        "partitions": len(lineage),
        "partition_rows_out": sum(r["rows_out"] for r in lineage),
        "partition_rows_per_s": [r["rows_per_s"] for r in lineage],
        # unchanged finished_at across reruns is the deterministic
        # evidence that a partition was skipped (resume worked)
        "partition_finished_at": [r["finished_at"] for r in lineage],
        "triple_store": out,
    }


@register("pipeline", "incremental")
def _incremental(cfg: Dict[str, Any]):
    """Incremental store update (``kg.run_incremental``): the docs in
    md5 buckets [bucket_lo, bucket_hi) are the newly-arrived increment;
    only (subj, pred, obj) keys the existing out_dir store does not
    already hold are appended (Bloom-prefiltered anti-join), under the
    base run's frozen canonical-map artifact, with per-partition
    lineage and idempotent re-runs."""
    from rex_ray.pipelines import kg

    new_triples, lineage, delta_dir = kg.run_incremental(
        cfg["sf_dir"],
        cfg["out_dir"],
        bucket_lo=int(cfg.get("bucket_lo", 2)),
        bucket_hi=int(cfg.get("bucket_hi", 100)),
        num_partitions=int(cfg["num_partitions"]),
        min_score=cfg["min_score"],
    )
    out = f"{delta_dir.rstrip('/')}/new_triples"
    fsio.delete_dir_if_exists(out)
    new_triples.write_parquet(out)
    n = fsio.parquet_rows(out)
    return {
        "rows": n,
        "partitions": len(lineage),
        "partition_finished_at": [r["finished_at"] for r in lineage],
        "new_triples": out,
    }


@register("pipeline", "fiveseed")
def _fiveseed(cfg: Dict[str, Any]):
    """Five-seed repeated evaluation of the scored-triples pipeline
    (reference rex/templates/five_runs.py) — reports per-seed metric
    plus mean/std."""
    from rex_ray.pipelines.repeated import (
        REF_SEEDS,
        five_seed_scored_triples,
    )

    seeds = cfg.get("seeds") or REF_SEEDS
    if isinstance(seeds, str):
        seeds = [int(s) for s in seeds.split(",")]
    out = five_seed_scored_triples(cfg["sf_dir"], seeds=seeds)
    rows = sum(r["rows"] for r in out["runs"].values())
    return {
        "rows": rows,
        "seeds": out["seeds"],
        "metrics": out["metrics"],
        "mean": out["mean"],
        "std": out["std"],
    }


@register("pipeline", "ingest")
def _ingest(cfg: Dict[str, Any]):
    """Raw-corpus ingest into the canonical (doc_id, tokens, entities,
    relations) parquet shape.  ``-a shape={nyt10,ipre,webnlg,bmes}``:

      nyt10   -a raw=<jsonl glob>  (doc_id, text, head, tail, relation)
      ipre    -a sent_path=<jsonl> -a label_path=<jsonl>
              -a rel2id_path=<json {relation: id}>
      webnlg  -a raw_path=<json [sents, spos]> -a word2id_path=<json>
              -a rel2id_path=<json>
      bmes    -a raw=<comma-joined BMES file paths>  (docs only:
              doc_id, tokens, ner_tags)

    Output parquet lands in ``<out_dir>/ingested``.  Reference
    converters: data/{NYT10,IPRE,WebNLG,MSRAv2}/convert.py."""
    import ray.data as rd

    from rex_ray.sources import ingest as ing
    from rex_ray.sources import io as rio

    shape = cfg.get("shape", "nyt10")
    if shape == "nyt10":
        ds = rio.ingest_raw_corpus(rio.read_jsonlines_ds(cfg["raw"]))
    elif shape == "ipre":
        rel2id = rio.load_json(cfg["rel2id_path"])
        id2rel = {int(v): k for k, v in rel2id.items()}
        ds = ing.ingest_ipre(
            rio.read_jsonlines_ds(cfg["sent_path"]),
            rio.read_jsonlines_ds(cfg["label_path"]),
            id2rel,
        )
    elif shape == "webnlg":
        sents, spos = rio.load_json(cfg["raw_path"])
        word2id = rio.load_json(cfg["word2id_path"])
        rel2id = rio.load_json(cfg["rel2id_path"])
        raw = rd.from_items(
            [
                {"doc_id": f"{i}", "sent": s, "spo": p}
                for i, (s, p) in enumerate(zip(sents, spos))
            ]
        )
        ds = ing.ingest_webnlg(
            raw,
            {int(v): k for k, v in word2id.items()},
            {int(v): k for k, v in rel2id.items()},
        )
    elif shape == "bmes":
        ds = ing.ingest_bmes_files(str(cfg["raw"]).split(","))
    else:
        raise ValueError(f"unknown ingest shape: {shape}")

    out = f"{cfg['out_dir'].rstrip('/')}/ingested"
    fsio.delete_dir_if_exists(out)
    ds.write_parquet(out)
    n = fsio.parquet_rows(out)
    return {"rows": n, "shape": shape, "ingested": out}


def _query_pipeline(name: str):
    """Registry query ``name`` run as a pipeline that reports its row
    count (``pipeline=query:<name>``)."""
    import rex_ray.pipelines.queries_ext  # noqa: F401  (registers every query)

    fn = get_registered("query", name)

    def run(cfg):
        res = fn(cfg["sf_dir"])
        n = res.count() if hasattr(res, "count") and callable(res.count) else len(res)
        return {"rows": int(n)}

    return run


# -- commands --------------------------------------------------------------

def _init_ray(cfg: Dict[str, Any]) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = dict(
            address="local", include_dashboard=False, logging_level="ERROR"
        )
        if cfg.get("num_cpus"):
            kwargs["num_cpus"] = int(cfg["num_cpus"])
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(cfg: Dict[str, Any], dry: bool = False) -> Dict[str, Any]:
    name = cfg["pipeline"]
    if name.startswith("query:"):
        fn = _query_pipeline(name[len("query:"):])
    else:
        fn = get_registered("pipeline", name)
    report: Dict[str, Any] = {"pipeline": cfg["pipeline"], "config": cfg}
    if dry:
        report["dryrun"] = True
        return report
    _init_ray(cfg)
    t0 = time.perf_counter()
    result = fn(cfg)
    report.update(result)
    report["wall_s"] = round(time.perf_counter() - t0, 3)
    return report


SCAFFOLD = '''"""Custom rex_ray stage — registered via --include-package."""

import pandas as pd

from rex_ray.functions.blocks import arrow_block
from rex_ray.registry import register


@register("pipeline", "{name}")
def {name}(cfg):
    from rex_ray.sources.io import read_parquet

    ds = read_parquet(f"{{cfg['sf_dir']}}/documents.parquet",
                      columns=["doc_id", "text"])

    def stage(batch: pd.DataFrame):
        out = batch[["doc_id"]].copy()
        out["n_tokens"] = batch["text"].str.split(" ").str.len()
        return arrow_block(out)

    return {{"rows": ds.map_batches(stage, batch_format="pandas").count()}}
'''


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rex_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("run", "dryrun"):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", action="append", default=[],
                       help="yaml config layer (repeatable, later wins)")
        p.add_argument("-a", "--override", action="append", default=[],
                       help="dot.key=value override (repeatable)")
        p.add_argument("-m", "--include-package", action="append", default=[],
                       help="import a user package (registers its stages)")
    sub.add_parser("list")
    pn = sub.add_parser("new")
    pn.add_argument("name")
    pn.add_argument("--dir", default=".")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        from rex_ray.pipelines.queries import queries

        for name in sorted(
            list_registered("pipeline") + [f"query:{q}" for q in queries()]
        ):
            print(name)
        return 0
    if args.cmd == "new":
        path = os.path.join(args.dir, f"{args.name}.py")
        with open(path, "w") as f:
            f.write(SCAFFOLD.format(name=args.name))
        print(path)
        return 0

    for pkg in args.include_package:
        import_module_and_submodules(pkg)
    cfg = load_config(args.config, args.override, defaults=DEFAULTS)
    report = cmd_run(cfg, dry=(args.cmd == "dryrun"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
