"""Dedup family + similarity search behavior tests at sf0.001."""

import numpy as np
import pandas as pd
import pytest

from rex_ray import trace

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def test_exact_dedup_finds_planted_dups(docs_ds):
    from rex_ray.stages.dedup import exact_dedup_groups

    g = exact_dedup_groups(docs_ds).to_pandas()
    n_docs = docs_ds.count()
    assert g["group_size"].sum() == n_docs
    # the generator plants near-dups that normalize to equality
    assert (g["group_size"] > 1).any()


def test_minhash_pairs_match_planted_dups(docs_ds):
    """LSH pairs == the exact-dup pairs (planted dups have Jaccard 1.0
    after normalization; nothing else reaches 0.9)."""
    from rex_ray.functions import text as T
    from rex_ray.stages.dedup import minhash_dup_pairs

    pairs = minhash_dup_pairs(docs_ds).to_pandas()
    df = docs_ds.to_pandas()
    df["k"] = T.normalize_dedup_text(df["text"])
    expected = set()
    for _, g in df.groupby("k"):
        ids = sorted(g["doc_id"])
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                expected.add((ids[i], ids[j]))
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert got == expected


def test_minhash_join_regime_matches_broadcast_on_dup_heavy(ray_session):
    """The degradation path (hot keys above the broadcast bound ->
    sketches ship through the bucket shuffle) must produce the IDENTICAL
    pair set on a planted 50%-duplicate corpus (round-2 verdict #2).
    max_broadcast_keys=0 forces the join regime; the default exercises
    the broadcast regime on the same input."""
    import ray.data as rd

    from rex_ray.stages.dedup import minhash_dup_pairs

    rng = np.random.RandomState(7)
    vocab = [f"tok{i}" for i in range(50)]
    base = [
        " ".join(rng.choice(vocab, size=30)) for _ in range(40)
    ]
    # 50% duplicates: every base doc gets one exact dup (ids offset)
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(base)]
    rows += [
        {"doc_id": 1000 + i, "text": t} for i, t in enumerate(base)
    ]
    docs = rd.from_pandas(pd.DataFrame(rows)).repartition(4)

    def pairs(max_keys):
        df = minhash_dup_pairs(
            docs, max_broadcast_keys=max_keys
        ).to_pandas()
        return set(zip(df["doc_a"], df["doc_b"]))

    broadcast, joined = pairs(10**9), pairs(0)
    assert broadcast == joined
    # every planted dup pair found (Jaccard 1.0 >= 0.9)
    assert {(i, 1000 + i) for i in range(40)} <= joined


def test_ngram_jaccard_join_regime_matches_broadcast(ray_session):
    """Same two-regime equality for the prefix-filter path."""
    import ray.data as rd

    from rex_ray.stages.dedup import ngram_jaccard_dup_pairs

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(40)]
    base = [" ".join(rng.choice(vocab, size=25)) for _ in range(20)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(base)]
    rows += [{"doc_id": 500 + i, "text": t} for i, t in enumerate(base)]
    docs = rd.from_pandas(pd.DataFrame(rows)).repartition(3)

    def pairs(max_keys):
        df = ngram_jaccard_dup_pairs(
            docs, threshold=0.8, max_broadcast_keys=max_keys
        ).to_pandas()
        return set(zip(df["doc_a"], df["doc_b"]))

    assert pairs(10**9) == pairs(0)


def test_simhash_identical_for_planted_dups(docs_ds):
    from rex_ray.functions import text as T
    from rex_ray.stages.dedup import simhash_table

    sh = simhash_table(docs_ds).to_pandas().set_index("doc_id")["simhash"]
    df = docs_ds.to_pandas()
    df["k"] = T.normalize_dedup_text(df["text"])
    dup_groups = [g for _, g in df.groupby("k") if len(g) > 1]
    assert dup_groups
    for g in dup_groups:
        hashes = {sh[d] for d in g["doc_id"]}
        assert len(hashes) == 1  # identical normalized text -> same simhash


def test_brute_force_topk_matches_numpy(emb_ds):
    from rex_ray.stages.similarity import brute_force_topk

    got = brute_force_topk(emb_ds, query_ids=range(3), k=4).to_pandas()
    df = emb_ds.to_pandas().sort_values("vec_id")
    M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    ids = df["vec_id"].to_numpy()
    for q in range(3):
        sims = M[ids == q][0] @ M.T
        mask = ids != q
        order = np.lexsort((ids[mask], -sims[mask]))[:4]
        expect = ids[mask][order].tolist()
        mine = got[got["query_id"] == q].sort_values("rank")[
            "neighbor_id"
        ].tolist()
        assert mine == expect


def _hard_negatives_ref(df: pd.DataFrame, qids, k: int) -> dict:
    """{query: neighbor ids by rank} — numpy reference of
    hard_negative_topk (queries without candidates are absent)."""
    df = df.sort_values("vec_id")
    M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    ids, labels = df["vec_id"].to_numpy(), df["label"].to_numpy()
    out = {}
    for q in qids:
        row = np.flatnonzero(ids == q)[0]
        sims = M[row] @ M.T
        mask = (ids != q) & (labels != labels[row])
        order = np.lexsort((ids[mask], -sims[mask]))[:k]
        if len(order):
            out[q] = ids[mask][order].tolist()
    return out


def test_hard_negative_topk_matches_numpy(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.stages.similarity import hard_negative_topk

    labeled = rd.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    rng = np.random.RandomState(7)
    small = pd.DataFrame(
        {
            "vec_id": np.arange(7, dtype=np.int64),
            "embedding": list(rng.standard_normal((7, 8)).astype(np.float32)),
            "label": np.array([5, 5, 5, 5, 5, 5, 9], dtype=np.int32),
        }
    )

    def table(df):
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(df["vec_id"], pa.int64()),
                    "embedding": pa.array(
                        [e.tolist() for e in df["embedding"]],
                        pa.list_(pa.float32()),
                    ),
                    "label": pa.array(df["label"], pa.int32()),
                }
            )
        )

    def mined(ds, qids, k):
        got = hard_negative_topk(ds, query_ids=qids, k=k).to_pandas()
        got = got.reindex(columns=["query_id", "neighbor_id", "rank"])
        out = {}
        for q, g in got.groupby("query_id"):
            g = g.sort_values("rank")
            assert g["rank"].tolist() == list(range(1, len(g) + 1))
            out[int(q)] = g["neighbor_id"].tolist()
        return out

    real = mined(labeled, list(range(4)), 4)
    assert real == _hard_negatives_ref(labeled.to_pandas(), range(4), 4)
    assert len(real) == 4
    # query 0's only other-label vector is id 6: k=3 above its 1 candidate
    few = mined(table(small), [0, 6], 3)
    assert few == _hard_negatives_ref(small, [0, 6], 3)
    assert few[0] == [6] and len(few[6]) == 3
    # ids 0..5 all share label 5: query 0 has no candidate and drops out
    assert mined(table(small[:6]), [0, 1], 3) == {}


@pytest.mark.parametrize("query_ids", [[], [999]])
@pytest.mark.parametrize(
    "fn", ["brute_force_topk", "lsh_topk", "hard_negative_topk",
           "ivf_topk_int"],
)
def test_topk_without_matching_query_is_empty(ray_session, fn, query_ids):
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.stages import similarity

    ds = rd.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    out = getattr(similarity, fn)(ds, query_ids=query_ids, k=5)
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        [("query_id", pa.int64()), ("neighbor_id", pa.int64()),
         ("rank", pa.int64())]
    )


def test_topk_without_any_candidate_is_typed_empty(ray_session):
    """Query ids that exist but find no candidate anywhere (every vector
    shares the query's label) give the typed empty result, as an
    unknown query id does."""
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.stages.similarity import _TOPK_SCHEMA, hard_negative_topk

    one_label = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(6), pa.int64()),
                "embedding": pa.array(
                    [[float(i), 1.0] for i in range(6)],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([5] * 6, pa.int32()),
            }
        )
    )
    out = hard_negative_topk(one_label, query_ids=[0, 1], k=3)
    assert out.count() == 0
    assert out.schema().names == _TOPK_SCHEMA.names


def test_ivf_topk_finishes_on_two_cpus(ray_session):
    """``ivf_topk`` in a ``num_cpus=2`` session: the bucketing must
    leave a CPU for the read tasks beside the top-k kernel's actor
    pool.  Runs in its own session under a fixed timeout (a hang is a
    timeout failure) and must equal the same call in this session."""
    import json
    import os
    import sys
    import textwrap

    import process_group

    from rex_ray.stages.similarity import ivf_topk

    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    script = textwrap.dedent(
        f"""
        import json
        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from rex_ray.stages.similarity import ivf_topk

        emb = rd.read_parquet("{sf}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        out = ivf_topk(emb, range(10), k=5, num_centroids=8, nprobe=4)
        print(json.dumps(sorted(
            (r["query_id"], r["neighbor_id"], r["rank"])
            for r in out.take_all()
        )))
        """
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": repo}
    r = process_group.run([sys.executable, "-c", script], env=env,
                          timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    want = sorted(
        (r["query_id"], r["neighbor_id"], r["rank"])
        for r in ivf_topk(
            emb, range(10), k=5, num_centroids=8, nprobe=4
        ).take_all()
    )
    got = [tuple(x) for x in json.loads(r.stdout.strip().splitlines()[-1])]
    assert got == want and len(want) == 50


def test_similarity_has_one_topk_merge():
    """Every top-k search in ``stages/similarity.py`` runs through one
    engine: exactly one ``groupby("query_id")`` call in the module."""
    import ast
    from pathlib import Path

    import rex_ray.stages.similarity as mod

    tree = ast.parse(Path(mod.__file__).read_text())
    calls = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "groupby"
        and [getattr(a, "value", None) for a in n.args] == ["query_id"]
    ]
    assert len(calls) == 1


def test_ivf_recall_reasonable(emb_ds):
    from rex_ray.stages.similarity import brute_force_topk, ivf_topk

    exact = brute_force_topk(emb_ds, query_ids=range(10), k=5).to_pandas()
    approx = ivf_topk(
        emb_ds, query_ids=range(10), k=5, num_centroids=8, nprobe=4
    ).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(e & a) / len(e)
    assert recall >= 0.5  # nprobe/centroids = half the space probed


def test_lsh_topk_bucket_contract_and_invariance(ray_session, emb_ds):
    """LSH-bucketed ANN: every emitted neighbor shares its query's
    sign-projection bucket; result invariant to partition count; with
    0 planes (one bucket) it degrades to brute force exactly."""
    import numpy as np
    import ray.data as rd

    from rex_ray.stages.similarity import (
        brute_force_topk,
        lsh_buckets,
        lsh_planes,
        lsh_topk,
    )

    out = lsh_topk(emb_ds, query_ids=range(10), k=5).to_pandas()
    assert len(out) > 0
    emb = emb_ds.to_pandas().set_index("vec_id")
    S = lsh_planes(4, 64)
    bid = {
        int(v): int(b)
        for v, b in zip(
            emb.index,
            lsh_buckets(np.stack(emb["embedding"].to_numpy()), S),
        )
    }
    for q, n in zip(out["query_id"], out["neighbor_id"]):
        assert bid[int(q)] == bid[int(n)]

    # partition invariance
    re = lsh_topk(
        emb_ds.repartition(7), query_ids=range(10), k=5
    ).to_pandas()
    key = ["query_id", "rank"]
    pd.testing.assert_frame_equal(
        out.sort_values(key, ignore_index=True),
        re.sort_values(key, ignore_index=True),
    )

    # 0 planes = single bucket = brute force
    zero = lsh_topk(emb_ds, query_ids=range(10), k=5, n_planes=0)
    bf = brute_force_topk(emb_ds, query_ids=range(10), k=5)
    pd.testing.assert_frame_equal(
        zero.to_pandas().sort_values(key, ignore_index=True),
        bf.to_pandas().sort_values(key, ignore_index=True),
    )


def test_media_feature_stub(ray_session):
    import ray.data as rd
    from rex_ray.sources import interleaved as il
    from rex_ray.stages import multimodal as mm

    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": [3], "text": [" ".join(["w"] * 30)]})
    )
    feats = mm.media_features(
        il.media_spans(il.synthesize_interleaved(docs)).drop_columns(["offset"])
    ).to_pandas()
    # chunk=4+3%4=7 -> ceil(30/7)=5 text spans -> 2 media spans
    assert len(feats) == 2
    assert set(feats["kind"]) <= {"image", "audio"}
    assert feats["feat_hash"].str.len().eq(32).all()
    with pytest.raises(NotImplementedError):
        mm.MediaFeatureStub.decode_real("media://x/1", b"")


def test_embedding_pairs_multichunk_equals_singlechunk(emb_ds):
    """The block-partitioned self-join is exact: tiny chunks (many
    chunk-pair groups) and one giant chunk (single group) emit the
    identical pair set."""
    from rex_ray.stages.dedup import embedding_dup_pairs

    def run(chunk_rows):
        df = embedding_dup_pairs(
            emb_ds, threshold=0.45, chunk_rows=chunk_rows
        ).to_pandas()
        return df.sort_values(["a_id", "b_id"]).reset_index(drop=True)

    multi = run(8)       # P = ceil(n/8) chunks
    single = run(10**9)  # P = 1
    assert len(multi) > 0          # planted near-dups exist
    assert multi.equals(single)
    assert (multi["a_id"] < multi["b_id"]).all()
    # each unordered pair appears exactly once (no cross-group dup)
    assert not multi.duplicated().any()


def test_simhash_dup_pairs_match_bruteforce_hamming(docs_ds):
    """Pigeonhole-bucketed simhash pairs == brute-force pairs at
    hamming <= max_hamming over the full corpus."""
    from itertools import combinations

    from rex_ray.functions import hashing as H
    from rex_ray.functions import text as T
    from rex_ray.stages.dedup import simhash_dup_pairs

    docs = docs_ds.to_pandas()
    norm = T.normalize_dedup_text(docs["text"])
    sh = {
        d: int(
            H.simhash64_batch([t.split(" ")], hasher=H.md5_hash64_batch)[0]
        )
        for d, t in zip(docs["doc_id"], norm)
    }
    for max_h in (0, 3):
        expect = sorted(
            (a, b)
            for a, b in combinations(sorted(sh), 2)
            if H.hamming64(sh[a], sh[b]) <= max_h
        )
        got = simhash_dup_pairs(docs_ds, max_hamming=max_h).to_pandas()
        got_pairs = sorted(zip(got["doc_a"], got["doc_b"]))
        assert got_pairs == expect
        assert len(got_pairs) > 0  # planted dups collide at hamming 0


def test_minhash_band_rows_are_slim(docs_ds):
    """The per-band shuffle carries (band_key, doc_id) ONLY — constant
    bytes per band row, no text duplication x num_bands."""
    from rex_ray.stages.dedup import MinHashBander, ShingleSketcher

    sketches = docs_ds.map_batches(
        ShingleSketcher(k=3), batch_format="pandas"
    )
    assert str(sketches.schema().base_schema.field("sh").type) == "string"
    bands = sketches.map_batches(
        MinHashBander(), batch_format="pandas"
    ).materialize()
    assert bands.schema().names == ["band_key", "doc_id"]
    bytes_per_row = bands.size_bytes() / bands.count()
    assert bytes_per_row <= 32  # two int64s + block overhead


def test_ngram_jaccard_pairs_match_bruteforce(docs_ds):
    """Prefix-filtered exact Jaccard == brute-force all-pairs Jaccard
    (recall 1 by the SSJoin prefix theorem — no LSH probability)."""
    from rex_ray.functions import hashing as H
    from rex_ray.functions import text as T
    from rex_ray.stages.dedup import ngram_jaccard_dup_pairs

    threshold = 0.8
    pairs = ngram_jaccard_dup_pairs(docs_ds, threshold=threshold).to_pandas()
    df = docs_ds.to_pandas()
    norm = T.normalize_dedup_text(df["text"])
    sh = {
        d: H.token_shingles(t.split(" "), 3)
        for d, t in zip(df["doc_id"], norm)
    }
    ids = sorted(sh)
    expected = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if H.jaccard(sh[a], sh[b]) >= threshold
    }
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert got == expected
    assert len(got) > 0  # planted dups exist at sf0.001


def test_prefix_len_bound():
    """p = n - ceil(t*n) + 1, robust to float error on exact products."""
    from rex_ray.stages.dedup import _prefix_len

    assert _prefix_len(5, 0.8) == 2   # ceil(4.0)=4
    assert _prefix_len(10, 0.8) == 3  # ceil(8.0)=8
    assert _prefix_len(7, 0.9) == 1   # ceil(6.3)=7
    assert _prefix_len(1, 0.8) == 1
    assert _prefix_len(3, 0.1) == 3   # clamped to n? n-1+1=3


def test_dup_clusters_match_local_union_find(docs_ds):
    """Distributed CC over the near-dup pair graph == driver union-find
    over the same pairs; survivors = corpus minus non-representatives."""
    from rex_ray.stages.canonical import cc_local
    from rex_ray.stages.dedup import (
        dedup_survivors,
        near_dup_clusters,
        ngram_jaccard_dup_pairs,
    )

    threshold = 0.8
    pairs = ngram_jaccard_dup_pairs(docs_ds, threshold=threshold).to_pandas()
    assert len(pairs) > 0
    edges = list(zip(pairs["doc_a"], pairs["doc_b"]))
    nodes = sorted({x for e in edges for x in e})
    expected = cc_local(nodes, edges)

    # default route: the dup graph is a sliver -> exact driver
    # union-find (COUNT-only guard, functions/routing.py)
    with trace.run() as ro:
        got = near_dup_clusters(docs_ds, threshold=threshold).to_pandas()
    assert ro["cluster_route"] == "driver"
    assert dict(zip(got["doc_id"], got["cluster_id"])) == expected

    # forced distributed route (max_driver_nodes=0): the min-label-
    # propagation engine must produce the identical cluster map
    with trace.run() as ro_lp:
        got_lp = near_dup_clusters(
            docs_ds, threshold=threshold, max_driver_nodes=0
        ).to_pandas()
    assert ro_lp["cluster_route"] == "distributed"
    assert dict(zip(got_lp["doc_id"], got_lp["cluster_id"])) == expected

    surv = set(
        dedup_survivors(docs_ds, threshold=threshold).to_pandas()["doc_id"]
    )
    losers = {n for n, c in expected.items() if n != c}
    all_ids = set(docs_ds.to_pandas()["doc_id"])
    assert surv == all_ids - losers
    # every cluster keeps exactly its min member
    reps = {c for c in expected.values()}
    assert reps <= surv


def test_dup_clusters_without_near_duplicates():
    """A corpus with no near-dup pair (the pair table comes back empty
    and schema-less): no clusters, and every doc survives."""
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.stages.dedup import dedup_survivors, near_dup_clusters

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["the quick brown fox jumps over",
                 "a completely different sentence about cats",
                 "yet another unrelated text on databases"],
    }))
    assert near_dup_clusters(docs).count() == 0
    surv = dedup_survivors(docs).to_pandas()["doc_id"]
    assert sorted(surv) == [1, 2, 3]


def test_hll_registers_and_estimate():
    from rex_ray.functions.hashing import (
        hll_bucket_rho_batch,
        hll_estimate,
        md5_hash64_batch,
    )
    import numpy as np

    words = [f"w{i}" for i in range(5000)]
    bucket, rho = hll_bucket_rho_batch(words, p=10)
    # registers computed locally == merged per-chunk maxima (associative)
    reg = {}
    for b, r in zip(bucket, rho):
        reg[b] = max(reg.get(b, 0), r)
    reg2 = {}
    for lo in range(0, 5000, 333):  # arbitrary chunking
        b2, r2 = hll_bucket_rho_batch(words[lo:lo + 333], p=10)
        for b, r in zip(b2, r2):
            reg2[b] = max(reg2.get(b, 0), r)
    assert reg == reg2
    est = hll_estimate(reg, p=10)
    assert abs(est - 5000) / 5000 < 0.1  # ~3.25% std error at m=1024
    # rho definition: 1 + trailing zeros of the post-bucket bits
    h = md5_hash64_batch(["w0"])[0]
    rest = int(h) >> 10
    tz = 0
    while rest and not (rest & 1):
        rest >>= 1
        tz += 1
    b0, r0 = hll_bucket_rho_batch(["w0"], p=10)
    assert b0[0] == int(h) & 1023 and r0[0] == tz + 1


def test_hll_stage_matches_local(ray_session):
    import ray.data as rd
    from rex_ray.functions.hashing import hll_bucket_rho_batch
    from rex_ray.stages.textstats import distinct_word_hll_registers

    docs = [
        {"text": "alpha beta gamma"},
        {"text": "beta  gamma delta"},   # double space -> empty token dropped
        {"text": "epsilon alpha"},
    ]
    got = {
        r["bucket"]: r["max_rho"]
        for r in distinct_word_hll_registers(
            rd.from_items(docs), p=10
        ).take_all()
    }
    toks = [t for d in docs for t in d["text"].split(" ") if t]
    b, r = hll_bucket_rho_batch(toks, p=10)
    want = {}
    for bb, rr in zip(b, r):
        want[bb] = max(want.get(bb, 0), rr)
    assert got == want


def test_decontaminate_planted_overlap(ray_session):
    """Doc 1 copies an 8-gram from benchmark doc 0 twice (counted
    once — distinct semantics); doc 3 shares nothing; doc 11 shares a
    7-token run only (below n=8, no hit)."""
    import ray

    from rex_ray.stages.decontam import decontaminate

    bench_text = " ".join(f"b{i}" for i in range(12))  # doc 0: bench
    gram8 = " ".join(f"b{i}" for i in range(8))
    run7 = " ".join(f"b{i}" for i in range(7))
    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": bench_text},
            {"doc_id": 1, "text": f"x y z {gram8} q r {gram8}"},
            {"doc_id": 3, "text": " ".join(f"c{i}" for i in range(20))},
            {"doc_id": 11, "text": f"u v {run7} w x y z0 z1 z2"},
        ]
    )
    out = decontaminate(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    # doc 1 hits: the copied gram appears at two offsets but is ONE
    # distinct gram; sliding windows over "b0..b7 q r b0..b7" add no
    # other gram fully inside benchmark text
    assert out["doc_id"].tolist() == [1]
    assert out["n_hits"].tolist() == [1]


def test_kmeans_partition_invariant_and_matches_numpy(emb_ds):
    """Integer-grid k-means is associative: any repartitioning yields
    bit-identical centroids, and both equal a single-process numpy
    reference of the same spec."""
    from rex_ray.stages.similarity import (
        _assign_int,
        kmeans_fit,
        quantize_grid,
    )

    C1 = kmeans_fit(emb_ds, k=4, iters=2)
    C2 = kmeans_fit(emb_ds.repartition(7), k=4, iters=2)
    assert np.array_equal(C1, C2)

    # single-process reference
    df = emb_ds.to_pandas().sort_values("vec_id")
    X = quantize_grid(df["embedding"])
    C = X[df["vec_id"].to_numpy() < 4]
    for _ in range(2):
        a, _ = _assign_int(X, C)
        new = C.copy()
        for c in range(4):
            m = a == c
            if m.any():
                s, n = X[m].sum(axis=0), int(m.sum())
                new[c] = np.floor_divide(2 * s + n, 2 * n)
        C = new
    assert np.array_equal(C1, C)


def test_ivf_trained_codebook_recall(emb_ds):
    """IVF bucketing with the kmeans-learned codebook keeps recall
    against brute force at least as high as a sane floor."""
    from rex_ray.stages.similarity import (
        brute_force_topk,
        ivf_topk,
        kmeans_fit,
    )

    qids = list(range(5))
    C = kmeans_fit(emb_ds, k=8, iters=2)
    exact = brute_force_topk(emb_ds, qids, k=5).to_pandas()
    approx = ivf_topk(
        emb_ds, qids, k=5, num_centroids=8, nprobe=3, centroids=C
    ).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    assert len(e & a) / len(e) >= 0.5


def test_repetition_stats_hand_computed(ray_session):
    import ray

    from rex_ray.stages.textstats import repetition_stats

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "a b a b a"},
            {"doc_id": 1, "text": "solo"},
        ]
    )
    out = repetition_stats(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    # doc 0 bigrams: ab ba ab ba -> total 4, dup 2, top 2
    # doc 0 trigrams: aba bab aba -> total 3, dup 1, top 2
    assert out.loc[0, ["n2_total", "n2_dup", "n2_top"]].tolist() == [4, 2, 2]
    assert out.loc[0, ["n3_total", "n3_dup", "n3_top"]].tolist() == [3, 1, 2]
    assert out.loc[1, ["n2_total", "n2_dup", "n2_top"]].tolist() == [0, 0, 0]
    assert out.loc[1, ["n3_total", "n3_dup", "n3_top"]].tolist() == [0, 0, 0]


def test_pattern_scrubber_pii_defaults():
    """Default email/phone/IP patterns redact and count correctly
    (pure-pandas unit, no Ray)."""
    from rex_ray.stages.textstats import PatternScrubber

    batch = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": [
                "mail a.b+c@host.example.com or call +1 555 123 4567 now",
                "server at 10.0.0.1 clean otherwise",
            ],
        }
    )
    out = PatternScrubber()(batch)
    assert out["n_pii"].tolist() == [2, 1]
    assert "[EMAIL]" in out.loc[0, "clean_text"]
    assert "[PHONE]" in out.loc[0, "clean_text"]
    assert out.loc[1, "clean_text"] == "server at [IP] clean otherwise"
    assert "@" not in out.loc[0, "clean_text"]


def test_bpe_pair_counts_hand_computed(ray_session):
    import ray

    from rex_ray.stages.textstats import bpe_pair_counts

    docs = ray.data.from_items(
        [{"doc_id": 0, "text": "ab ab"}, {"doc_id": 1, "text": "abc"}]
    )
    out = bpe_pair_counts(docs).to_pandas()
    got = {(r.a, r.b): r.freq for r in out.itertuples()}
    # "ab" x2 and "abc": pairs ab,ab,ab,bc
    assert got == {("a", "b"): 3, ("b", "c"): 1}


def test_bpe_train_paper_example(ray_session):
    """Sennrich et al. (ACL'16) worked example: vocab low:5 lower:2
    newest:6 widest:3 -> first merges (e,s), (es,t), ..."""
    import ray

    from rex_ray.stages.textstats import bpe_train

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": " ".join(
                ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
            )}
        ]
    )
    out = bpe_train(docs, num_merges=4).to_pandas()
    got = list(zip(out["a"], out["b"], out["freq"]))
    # e+s freq 9 (newest 6 + widest 3); es+t freq 9; then lo (7), lo+w (7)
    assert got[0] == ("e", "s", 9)
    assert got[1] == ("es", "t", 9)
    assert got[2] == ("l", "o", 7)
    assert got[3] == ("lo", "w", 7)
    # deterministic under repartitioning
    docs2 = docs.union(ray.data.from_items([])) if False else docs
    out2 = bpe_train(docs.repartition(3), num_merges=4).to_pandas()
    assert out.equals(out2)


def test_substring_dup_runs_planted(ray_session):
    """Two docs sharing a 12-token run -> ONE maximal island of
    len_tokens=12 (not five 8-gram hits); a third unrelated doc
    contributes nothing."""
    import ray

    from rex_ray.stages.dedup import substring_dup_runs

    shared = " ".join(f"s{i}" for i in range(12))
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": f"p q r {shared} z1 z2"},
            {"doc_id": 2, "text": f"{shared} tail0 tail1 tail2"},
            {"doc_id": 3, "text": " ".join(f"u{i}" for i in range(20))},
        ]
    )
    out = substring_dup_runs(docs).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.doc_a, r.doc_b) == (1, 2)
    assert (r.start_a, r.start_b, r.len_tokens) == (3, 0, 12)


def test_segment_dup_stats_matches_local(docs_ds):
    """dd_line_dedup core vs a local pandas recompute at sf0.001, and
    planted whole-doc duplicates must share ALL their segments."""
    import pandas as pd

    from rex_ray.stages.dedup import SEG_TOKENS, segment_dup_stats
    from rex_ray.stages.dedup import exact_dedup_groups

    got = (
        segment_dup_stats(docs_ds)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )

    docs = docs_ds.to_pandas()
    rows = []
    for _, r in docs.iterrows():
        toks = [x for x in r["text"].split(" ") if x != "dup"]
        k = (len(toks) + SEG_TOKENS - 1) // SEG_TOKENS
        segs = {
            " ".join(toks[j * SEG_TOKENS:(j + 1) * SEG_TOKENS])
            for j in range(k)
        }
        for s in segs:
            rows.append((int(r["doc_id"]), s))
    df = pd.DataFrame(rows, columns=["doc_id", "seg"])
    nd = df.groupby("seg")["doc_id"].nunique()
    dup_segs = set(nd[nd >= 2].index)
    want = (
        df.groupby("doc_id")
        .agg(
            n_segments=("seg", "size"),
            n_dup_segments=("seg", lambda s: sum(x in dup_segs for x in s)),
        )
        .reset_index()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64")
    )

    # planted exact-dup groups: every member's segments are corpus-dup
    g = exact_dedup_groups(docs_ds).to_pandas()
    assert (g["group_size"] >= 2).any()
    dup_group_docs = set(
        g.loc[g["group_size"] >= 2, "survivor_doc_id"].astype(int)
    )
    flagged = got[got["n_dup_segments"] == got["n_segments"]]
    assert dup_group_docs <= set(flagged["doc_id"].astype(int))


def _segment_stats(*blocks):
    """segment_dup_stats over one Dataset block per list of
    (doc_id, text) -> {doc_id: (n_segments, n_dup_segments)}."""
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.stages.dedup import segment_dup_stats

    ds = rd.from_arrow(
        [
            pa.table(
                {
                    "doc_id": pa.array([d for d, _ in b], pa.int64()),
                    "text": pa.array([t for _, t in b], pa.string()),
                }
            )
            for b in blocks
        ]
    )
    out = segment_dup_stats(ds)
    return out, {
        r["doc_id"]: (r["n_segments"], r["n_dup_segments"])
        for r in out.take_all()
    }


def test_segment_dup_stats_first_block_without_segments():
    """A first block whose docs are all 'dup' markers emits no segment
    row; the joins behind it must not lose their schema."""
    from rex_ray.stages.dedup import SEG_TOKENS

    line = " ".join(f"w{i}" for i in range(SEG_TOKENS))
    markers = [(1, "dup"), (2, "dup dup")]
    rest = [(3, line), (4, line), (5, "a b c")]
    want = {3: (1, 1), 4: (1, 1), 5: (1, 0)}
    assert _segment_stats(markers, rest)[1] == want
    assert _segment_stats(rest, markers)[1] == want


def test_segment_dup_stats_without_shared_segments():
    _, got = _segment_stats([(1, "a b c"), (2, "d e f"), (3, "g h i")])
    assert got == {1: (1, 0), 2: (1, 0), 3: (1, 0)}


def test_segment_dup_stats_empty_corpus():
    out, got = _segment_stats([])
    assert got == {}
    assert out.schema().names == ["doc_id", "n_segments", "n_dup_segments"]


def test_ivf_topk_int_partition_invariant_and_recall(emb_ds):
    """Exact-int IVF: bit-identical under repartitioning (the oracle
    contract) and reasonable recall vs probing every bucket."""
    from rex_ray.stages.similarity import ivf_topk_int

    qids = range(6)
    a = (
        ivf_topk_int(emb_ds, qids, k=5, num_centroids=8, nprobe=3)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    b = (
        ivf_topk_int(
            emb_ds.repartition(7), qids, k=5, num_centroids=8, nprobe=3
        )
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)

    # nprobe = num_centroids == exhaustive: recall baseline
    full = (
        ivf_topk_int(emb_ds, qids, k=5, num_centroids=8, nprobe=8)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    hits = len(
        set(map(tuple, a[["query_id", "neighbor_id"]].to_numpy()))
        & set(map(tuple, full[["query_id", "neighbor_id"]].to_numpy()))
    )
    assert hits / len(full) >= 0.5


def test_lm_perplexity_hand_computed(ray_session):
    """Bigram-LM NLL on a 3-doc corpus vs closed-form micronat terms;
    docs without bigrams are omitted; min_count pruning scores pruned
    bigrams as unseen."""
    import ray

    from rex_ray.stages.textstats import lm_perplexity

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "a b a"},
            {"doc_id": 1, "text": "b a"},
            {"doc_id": 2, "text": "x"},
        ]
    )
    out = lm_perplexity(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    # unigrams a:3 b:2 x:1, V=3; bigrams (a,b):1 (b,a):2
    # term(a,b) = floor(1e6*ln(2/6)+.5) = -1098612
    # term(b,a) = floor(1e6*ln(3/5)+.5) = -510826
    assert out["doc_id"].tolist() == [0, 1]
    assert out["n_bigrams"].tolist() == [2, 1]
    assert out["nll_micronats"].tolist() == [1098612 + 510826, 510826]

    pruned = lm_perplexity(docs, min_count=2).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    # (a,b) pruned -> unseen: term = floor(1e6*ln(1/6)+.5) = -1791759
    assert pruned["nll_micronats"].tolist() == [
        1791759 + 510826, 510826,
    ]


def test_semantic_dup_drops_planted_pair(ray_session):
    """A planted epsilon-pair loses exactly one member (the one nearer
    its centroid); singletons keep; result is partition-invariant."""
    import ray

    from rex_ray.stages.dedup import semantic_dup_drops

    rows = [
        {"vec_id": 0, "embedding": [1.0, 0.0, 0.0, 0.0]},   # seed A
        {"vec_id": 1, "embedding": [0.0, 1.0, 0.0, 0.0]},   # seed B
        {"vec_id": 2, "embedding": [0.99, 0.01, 0.0, 0.0]},
        {"vec_id": 3, "embedding": [0.985, 0.015, 0.0, 0.0]},
        {"vec_id": 4, "embedding": [0.05, 0.9, 0.1, 0.0]},
    ]

    def run(n_parts):
        ds = ray.data.from_items(rows).repartition(n_parts)
        return (
            semantic_dup_drops(ds, radius=100, k=2, iters=2)
            .to_pandas()
            .sort_values("vec_id", ignore_index=True)
        )

    out = run(1)
    assert len(out) == 5
    pair = out[out["vec_id"].isin([2, 3])]
    assert pair["keep"].sum() == 1          # exactly one of the pair dropped
    others = out[~out["vec_id"].isin([2, 3])]
    assert others["keep"].all()
    # the kept member is the farther-from-centroid one
    kept = pair[pair["keep"]].iloc[0]
    dropped = pair[~pair["keep"]].iloc[0]
    assert (kept["dist"], -kept["vec_id"]) >= (dropped["dist"], -dropped["vec_id"])
    # partition invariance
    pd.testing.assert_frame_equal(out, run(3))


def test_dsir_weights_hand_computed(ray_session):
    """DSIR weight = per-bigram micronat difference of the target and
    raw models; target slice = doc_id % 3 == 0 (doc 0 only here)."""
    import ray

    from rex_ray.stages.textstats import dsir_weights

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "a b a"},
            {"doc_id": 1, "text": "b a"},
            {"doc_id": 2, "text": "x"},
        ]
    )
    out = dsir_weights(docs, target_mod=3).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    # target model (doc 0): V=2, (a,b):1 c_a=2; (b,a):1 c_b=1
    # raw model: V=3, (a,b):1 c_a=3; (b,a):2 c_b=2
    assert out["doc_id"].tolist() == [0, 1]
    assert out["weight_micronats"].tolist() == [510826, 105361]


def test_dsir_dual_fit_matches_independent_fits_min_count(ray_session):
    """The fused dual-model fit must produce byte-identical model
    arrays to two independent _bigram_model_refs fits at min_count>1
    (regression: the dual fit used to prune the raw UNIGRAM table too,
    and counted target V from unpruned rows while pruning the target
    tables — ADVICE r2)."""
    import numpy as np
    import ray

    from rex_ray.stages.textstats import (
        _bigram_model_refs,
        _dual_bigram_model_refs,
    )

    rows = [
        {"doc_id": 0, "text": "a b a b a x"},   # target (0 % 3 == 0)
        {"doc_id": 1, "text": "b a b a y"},
        {"doc_id": 2, "text": "x y x y x y a"},
        {"doc_id": 3, "text": "a b q"},          # target
    ]
    docs = ray.data.from_items(rows)
    target = ray.data.from_items([r for r in rows if r["doc_id"] % 3 == 0])

    big_pair, uni_pair = _dual_bigram_model_refs(docs, 3, min_count=2)
    (t_big, r_big), (t_uni, r_uni) = ray.get(big_pair), ray.get(uni_pair)

    tb_ref, tu_ref = _bigram_model_refs(target, min_count=2)
    rb_ref, ru_ref = _bigram_model_refs(docs, min_count=2)
    tb, tu = ray.get(tb_ref), ray.get(tu_ref)
    rb, ru = ray.get(rb_ref), ray.get(ru_ref)

    for got, want in [(t_big, tb), (r_big, rb)]:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    # unigram arrays are NEVER pruned, V = unpruned vocab size
    for got, want in [(t_uni, tu), (r_uni, ru)]:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


def test_bpe_encode_matches_sql_replace_on_adversarial_words(ray_session):
    """The token-list merge loop and the oracle's boundary-marked
    string replaces are the SAME function — asserted on the words that
    break a naive 'a b'->'ab' replace: token-suffix false match
    ('xab': 'a' is a suffix of nothing here but 'xa'+'b' adjacency is),
    self-merge runs ('aaaa' with (a,a)), chained merges, adjacency
    after a merge."""
    import duckdb
    import ray.data as rd

    from rex_ray.stages.textstats import bpe_encode

    merges = [("a", "b"), ("a", "a"), ("ab", "c"), ("o", "r"),
              ("or", "d")]
    words = [
        "xab",      # 'a b' must merge; the x prefix must not block it
        "xaab",     # 'aa' then no 'ab' left (a consumed) -> x aa b
        "aaaa",     # (a,a) leftmost non-overlap -> aa aa
        "aaab",     # ab merges first (rank 0) -> a a ab -> aa ab
        "abc",      # chained: ab then ab+c
        "ordword",  # or, then or+d
        "",         # empty word edge
    ]
    docs = rd.from_items(
        [{"doc_id": i, "text": w} for i, w in enumerate(words)]
    )
    got = (
        bpe_encode(docs, merges)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )

    expr = "'||' || regexp_replace(w, '(.)', '\\1||', 'g')"
    for a, b in merges:
        expr = f"replace({expr}, '|{a}||{b}|', '|{a}{b}|')"
    sql = duckdb.connect().execute(
        f"SELECT trim(replace({expr}, '||', ' ')) FROM (VALUES "
        + ", ".join(f"('{w}')" for w in words)
        + ") AS t(w)"
    ).fetchall()
    assert got["encoded"].tolist() == [r[0] for r in sql]
    # spot-check the hand-derived expansions
    by_word = dict(zip(got["word"], got["encoded"]))
    assert by_word["aaaa"] == "aa aa"
    assert by_word["aaab"] == "aa ab"
    assert by_word["abc"] == "abc"
    assert by_word["xab"] == "x ab"
    assert by_word["ordword"] == "ord w ord"


def test_cross_doc_dup_ngrams_hand_computed(ray_session):
    """n=2: doc 0 'a b c', doc 1 'a b d', doc 2 'a b a b'.
    Corpus bigram counts: 'a b' 4 (docs 0,1 + 2x in doc 2), 'b c' 1,
    'b d' 1, 'b a' 1.  Dup = corpus > within-doc count.  Partition
    count must not change the result (broadcast built from partials)."""
    import ray.data as rd

    from rex_ray.stages.textstats import cross_doc_dup_ngrams

    rows = [
        {"doc_id": 0, "text": "a b c"},
        {"doc_id": 1, "text": "a b d"},
        {"doc_id": 2, "text": "a b a b"},
        {"doc_id": 3, "text": "x"},  # no bigram -> omitted
    ]

    def run(parts):
        return (
            cross_doc_dup_ngrams(
                rd.from_items(rows).repartition(parts), n=2
            )
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )

    out = run(1)
    assert out["doc_id"].tolist() == [0, 1, 2]
    assert out["n_distinct"].tolist() == [2, 2, 2]  # {ab,bc} {ab,bd} {ab,ba}
    # 'a b': corpus 4 > doc counts 1/1/2 -> dup everywhere; others not
    assert out["n_dup"].tolist() == [1, 1, 1]
    pd.testing.assert_frame_equal(out, run(3))


def test_bpe_train_encode_roundtrip(ray_session):
    """Merges trained by bpe_train plug straight into bpe_encode and
    reproduce the training loop's own segmentation."""
    import ray.data as rd

    from rex_ray.stages.textstats import bpe_encode, bpe_train

    docs = rd.from_items(
        [
            {"doc_id": 0, "text": "low low low lower lower"},
            {"doc_id": 1, "text": "newest newest widest"},
        ]
    )
    mt = bpe_train(docs, num_merges=4).to_pandas()
    merges = list(zip(mt["a"], mt["b"]))
    out = bpe_encode(docs, merges).to_pandas()
    enc = dict(zip(out["word"], out["encoded"]))
    # 'low' (freq 3+2 as prefix) drives the first merges
    assert enc["low"].replace(" ", "") == "low"
    assert len(enc["low"].split(" ")) < 3  # at least one merge applied
    # every word re-joins to itself (merging never loses chars)
    assert all(e.replace(" ", "") == w for w, e in enc.items())
    """Tier cuts are the exact 1/3 and 2/3 order statistics; ties on
    the cut value all land in the lower tier; tier sizes ~ n/3."""
    import ray

    from rex_ray.stages.textstats import ppl_tiers

    # 9 docs with increasingly repetitive text -> spread of metrics
    docs = ray.data.from_items(
        [
            {"doc_id": i, "text": " ".join(
                ["w%d" % (j % (i + 2)) for j in range(30)]
            )}
            for i in range(9)
        ]
    )
    out = ppl_tiers(docs).to_pandas()
    assert len(out) == 9
    assert set(out["tier"]) <= {"head", "middle", "tail"}
    # value-based assignment: every doc with metric <= head max is head
    hmax = out[out["tier"] == "head"]["metric"].max()
    assert (out[out["metric"] <= hmax]["tier"] == "head").all()
    mmax = out[out["tier"] == "middle"]["metric"].max()
    assert (out[(out["metric"] > hmax) & (out["metric"] <= mmax)]["tier"]
            == "middle").all()
    assert (out["tier"] == "head").sum() >= 3  # ceil(9/3)=3rd smallest cut


def test_skipgram_pairs_hand_computed(ray_session):
    """window=2 pairs on 'a b c' + doc boundary isolation."""
    import ray

    from rex_ray.stages.textstats import skipgram_pairs

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "a b c"},
            {"doc_id": 1, "text": "c"},
        ]
    )
    out = skipgram_pairs(docs, window=2).to_pandas()
    got = {
        (r.center, r.context): r.n for r in out.itertuples()
    }
    # doc 0 pairs: (a,b)x1 (b,a) (b,c) (c,b) (a,c) (c,a); doc 1 none
    assert got == {
        ("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1,
        ("c", "b"): 1, ("a", "c"): 1, ("c", "a"): 1,
    }


def test_cross_doc_dup_ngrams_join_regime_equals_broadcast(ray_session):
    """Planted boilerplate-heavy corpus (every doc shares a large
    boilerplate prefix, so most distinct grams are duplicated — the
    CommonCrawl pathology): forcing the duplicated-gram table above
    the broadcast bound must route through the (hash, doc) shuffle
    join and produce EXACTLY the broadcast regime's output."""
    import ray.data as rd

    from rex_ray.stages.textstats import cross_doc_dup_ngrams

    boiler = " ".join(f"b{i}" for i in range(40))
    rows = [
        {"doc_id": i, "text": boiler + f" u{i} v{i} w{i} u{i} v{i}"}
        for i in range(30)
    ]
    rows.append({"doc_id": 99, "text": "x y"})  # no trigram -> omitted
    docs = rd.from_items(rows).repartition(4)

    with trace.run() as r_b:
        broadcast = (
            cross_doc_dup_ngrams(docs, n=3)
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
    with trace.run() as r_j:
        joined = (
            cross_doc_dup_ngrams(docs, n=3, max_broadcast_grams=0)
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
    assert r_b["dup_ngram_regime"] == "broadcast"
    assert r_j["dup_ngram_regime"] == "join"
    assert r_j["n_dup_grams"] == r_b["n_dup_grams"] > 0
    pd.testing.assert_frame_equal(broadcast, joined)
    # the planted boilerplate grams are flagged dup in every doc
    assert (broadcast.loc[broadcast.doc_id < 30, "n_dup"] >= 38).all()
    assert 99 not in set(broadcast["doc_id"])


def test_embedding_dim_stats_hand_computed(ray_session):
    """Integer-grid per-dim stats on a tiny table; partition-invariant."""
    import ray.data as rd

    from rex_ray.stages.similarity import embedding_dim_stats

    rows = [
        {"vec_id": 0, "embedding": [0.5, -1.0]},
        {"vec_id": 1, "embedding": [0.25, 2.0]},
        {"vec_id": 2, "embedding": [0.0, 0.5]},
    ]
    # grid: dim0 [512, 256, 0]; dim1 [-1024, 2048, 512]

    def run(parts):
        return (
            embedding_dim_stats(rd.from_items(rows).repartition(parts))
            .to_pandas().sort_values("dim", ignore_index=True)
        )

    got = run(1)
    assert got["dim"].tolist() == [0, 1]
    assert got["n"].tolist() == [3, 3]
    assert got["sum_q"].tolist() == [768, 1536]
    assert got["sumsq_q"].tolist() == [512**2 + 256**2, 1024**2 + 2048**2 + 512**2]
    assert got["min_q"].tolist() == [0, -1024]
    assert got["max_q"].tolist() == [512, 2048]
    pd.testing.assert_frame_equal(got, run(3))
