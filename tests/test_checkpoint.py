"""Checkpoint/resume/lineage layer (rex_ray.state.checkpoint).

Reference analog: rex/tasks/base_task.py:122-232 (checkpoint save/load)
— here re-expressed as per-partition Parquet + _SUCCESS + lineage.
"""

import json
import os

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_plan_id_ranges_covers_all_rows(tmp_path):
    from rex_ray.state import plan_id_ranges

    path = f"{SF}/documents.parquet"
    parts = plan_id_ranges(path, "doc_id", 4)
    assert len(parts) >= 2
    import pyarrow.parquet as pq

    total = sum(p.make_dataset().count() for p in parts)
    assert total == pq.read_metadata(path).num_rows
    # ranges are disjoint & ordered
    ranges = [p.inputs["range"] for p in parts]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
        assert a_hi == b_lo and a_lo < a_hi


def test_resumable_flagship_equals_single_shot(tmp_path):
    from rex_ray import trace
    from rex_ray.pipelines import kg

    out = str(tmp_path / "ckpt")
    with trace.run() as rec:
        merged, lineage = kg.run_flagship_resumable(
            SF, out, num_partitions=4
        )
    # the link's joins, the only joins of the run, broadcast the map
    assert rec["join_plan"] == "broadcast"
    assert 0 < rec["join_right_bytes"] < 1 << 20
    got = _sorted(merged.to_pandas())
    want = _sorted(kg.run_flagship(SF).to_pandas())
    pd.testing.assert_frame_equal(got, want)
    # lineage: one record per partition with throughput metrics
    assert len(lineage) == 4
    for rec in lineage:
        assert rec["rows_out"] >= 0 and rec["wall_s"] > 0
        assert rec["inputs"]["col"] == "doc_id"
    # manifest readable from disk
    from rex_ray.state import load_manifest

    assert [r["part_id"] for r in load_manifest(out)] == [
        r["part_id"] for r in sorted(lineage, key=lambda r: r["part_id"])
    ]


def test_resumable_flagship_builds_link_map_once(tmp_path, monkeypatch):
    """The four partitions link against one (node, canonical) map
    Dataset, built from the canonical-map artifact once per run."""
    from rex_ray.pipelines import kg
    from rex_ray.stages import link

    built = []
    real = link.canonical_map

    def counting(canonical):
        built.append(len(canonical))
        return real(canonical)

    monkeypatch.setattr(link, "canonical_map", counting)
    merged, lineage = kg.run_flagship_resumable(
        SF, str(tmp_path / "ckpt"), num_partitions=4
    )
    got = _sorted(merged.to_pandas())
    assert len(lineage) == 4 and len(built) == 1 and built[0] > 0
    monkeypatch.undo()
    pd.testing.assert_frame_equal(
        got, _sorted(kg.run_flagship(SF).to_pandas())
    )


@pytest.mark.parametrize("texts, n_store", [
    # docs 3-4 carry no gazetteer mention: with 2 partitions the second
    # partition's stage emits no rows
    (["spark join customer table row scan",
      "merge sort order filter hash line",
      "alpha beta gamma", "delta epsilon zeta"], 24),
    (["alpha beta", "gamma delta", "epsilon", "zeta"], 0),
])
def test_resumable_runners_with_empty_partitions(tmp_path, texts, n_store):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rex_ray.pipelines import kg

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": texts}),
        str(sf / "documents.parquet"),
    )

    def rows(ds):
        return sorted(
            (r["subj_id"], r["pred"], r["obj_id"], r["score"], r["support"])
            for r in ds.take_all()
        )

    want = rows(kg.run_flagship(str(sf)))
    assert len(want) == n_store
    out = str(tmp_path / "ckpt")
    merged, lineage = kg.run_flagship_resumable(
        str(sf), out, num_partitions=2
    )
    assert rows(merged) == want
    assert lineage[1]["rows_out"] == 0
    # the empty part finished: resume skips it
    again, lineage_r = kg.run_flagship_resumable(
        str(sf), out, num_partitions=2
    )
    assert [r["finished_at"] for r in lineage_r] == [
        r["finished_at"] for r in lineage
    ]
    assert rows(again) == want
    new, _, _ = kg.run_incremental(
        str(sf), str(tmp_path / "inc"), bucket_lo=0, bucket_hi=100,
        num_partitions=2,
    )
    assert rows(new) == want


def test_resume_skips_finished_and_recovers_crash(tmp_path):
    import ray.data as rd

    from rex_ray.state import Partition, load_manifest, read_output, run_resumable

    calls = []

    def mk(i):
        return lambda: rd.from_items([{"k": i, "v": j} for j in range(3)])

    parts = [Partition(f"{i:05d}", mk(i), {"i": i}) for i in range(3)]

    def stage(ds):
        calls.append(1)
        return ds

    out = str(tmp_path / "out")

    class Boom(RuntimeError):
        pass

    def stage_fail_last(ds):
        calls.append(1)
        if len(calls) == 3:
            raise Boom()
        return ds

    with pytest.raises(Boom):
        run_resumable(parts, stage_fail_last, out)
    assert len(calls) == 3  # two succeeded, third crashed
    # simulate a stale partial dir for the crashed partition
    pdir = os.path.join(out, "parts", "part=00002")
    os.makedirs(pdir, exist_ok=True)
    with open(os.path.join(pdir, "garbage.parquet"), "w") as f:
        f.write("not parquet")

    lineage = run_resumable(parts, stage, out)
    # only the crashed partition re-ran
    assert len(calls) == 4
    assert [r["part_id"] for r in lineage] == ["00000", "00001", "00002"]
    assert read_output(out).count() == 9
    assert len(load_manifest(out)) == 3
    # second resume is a pure no-op
    run_resumable(parts, stage, out)
    assert len(calls) == 4


def test_checkpoint_root_as_filesystem_uri(tmp_path):
    """The whole checkpoint protocol (partition write, marker,
    lineage, resume skip, merged read, artifacts) works when out_dir
    is a ``file://`` URI — every IO call routes through pyarrow.fs
    (functions/fsio.py), so the same code targets s3://... on a real
    cluster instead of assuming POSIX (north_rule: checkpoint-
    resumable at 10^12-doc scale; round-4-verdict hardening class)."""
    import ray.data as rd

    from rex_ray.state import (
        Partition, load_manifest, read_artifact, read_output,
        run_resumable, write_artifact,
    )

    def mk(i):
        return lambda: rd.from_items([{"k": i, "v": j} for j in range(2)])

    parts = [Partition(f"{i:05d}", mk(i), {"i": i}) for i in range(2)]
    calls = []

    def stage(ds):
        calls.append(1)
        return ds

    out = f"file://{tmp_path}/uri_ckpt"
    lineage = run_resumable(parts, stage, out)
    assert [r["part_id"] for r in lineage] == ["00000", "00001"]
    assert read_output(out).count() == 4
    assert len(load_manifest(out)) == 2
    # resume through the URI is a pure no-op
    run_resumable(parts, stage, out)
    assert len(calls) == 2
    # artifacts round-trip through the same fs layer
    assert write_artifact(out, "m", {"x": 1}) == {"x": 1}
    assert read_artifact(out, "m") == {"x": 1}
    # and the bytes really landed under the local path the URI names
    assert (tmp_path / "uri_ckpt" / "artifacts" / "m.json").exists()


def test_artifact_write_once(tmp_path):
    from rex_ray.state import read_artifact, write_artifact

    out = str(tmp_path / "a")
    built = []

    def build():
        built.append(1)
        return {"x": 1}

    assert write_artifact(out, "m", None, build=build) == {"x": 1}
    assert write_artifact(out, "m", None, build=build) == {"x": 1}
    assert built == [1]  # second call served from disk
    assert read_artifact(out, "m") == {"x": 1}
    # lineage file content is valid json on disk
    with open(os.path.join(out, "artifacts", "m.json")) as f:
        assert json.load(f) == {"x": 1}


def test_weight_checkpoint_roundtrip_identical_scores(ray_session, tmp_path):
    """A saved scorer reproduces bit-identical scored output after
    reload (the trained-checkpoint serving contract)."""
    import numpy as np
    import ray.data as rd

    from rex_ray.stages import features, scorer
    from rex_ray.state import weights as W

    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    ).limit(40)
    n_rels = len(features.relation_label_encoder())
    w = scorer.PcnnWeights(vocab_size=1 << 12, n_rels=n_rels, seed=99)
    task_dir = str(tmp_path / "task")
    path = W.save_weights(w, task_dir)
    assert path.endswith("PcnnWeights.best.npz")

    w2 = W.from_taskdir(scorer.PcnnWeights, task_dir)
    for k, v in vars(w).items():
        if isinstance(v, np.ndarray):
            assert np.array_equal(v, getattr(w2, k))
        else:
            assert v == getattr(w2, k)

    vocab = features.build_corpus_vocab(docs)
    a = scorer.score_docs(docs, vocab=vocab, weights=w).to_pandas()
    b = scorer.score_docs(docs, vocab=vocab, weights=w2).to_pandas()
    key = ["doc_id", "subj_pos", "obj_pos", "pair_key"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)


def test_weight_checkpoint_missing_raises(tmp_path):
    import pytest

    from rex_ray.stages.scorer import PcnnWeights
    from rex_ray.state import weights as W

    with pytest.raises(ValueError, match="does not exist"):
        W.load_weights(PcnnWeights, str(tmp_path))


def test_serve_scored_pairs_with_taskdir(ray_session, tmp_path):
    from rex_ray.pipelines.serve import predict_scored_pairs
    from rex_ray.stages import features, scorer
    from rex_ray.state import weights as W

    n_rels = len(features.relation_label_encoder())
    w = scorer.PcnnWeights(vocab_size=1 << 16, n_rels=n_rels, seed=5)
    task_dir = str(tmp_path / "t2")
    W.save_weights(w, task_dir)
    texts = ["spark join table row hash", "customer order group window"]
    out_ckpt = predict_scored_pairs(texts, task_dir=task_dir)
    out_direct = predict_scored_pairs(texts)  # seeded default (seed 1234)
    assert len(out_ckpt) > 0
    # same pair set; scores differ because the checkpoint carries
    # different (seed-5) parameters than the default
    assert list(out_ckpt["pair_key"]) == list(out_direct["pair_key"])
