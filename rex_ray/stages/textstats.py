"""Text-analysis stages over the documents table: language ID, quality
scoring, token counting, fingerprinting, corpus word frequency.

All per-doc math is closed-form and evaluated in the same operation
order as the SQL oracle, so float outputs are bit-identical.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray import trace
from rex_ray.functions import text as T
from rex_ray.functions.blocks import (
    arrow_block,
    pre_shuffle,
)


class DocStats:
    """(doc_id, text) -> doc_id, n_tokens, n_chars, fingerprint(md5)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": T.token_count_series(batch["text"]),
                "n_chars": batch["text"].str.len().astype("int64"),
                "fingerprint": T.md5_fingerprint_series(batch["text"]),
            }
        )


class LangId:
    """(doc_id, lang, text) -> doc_id, lang, pred_lang (stopword-hit
    argmax; stopword lists compiled once per actor)."""

    def __init__(self):
        self.langs = sorted(T.LANG_STOPWORDS)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        hits = T.langid_frame(batch["text"])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": hits["pred_lang"],
            }
        )


class QualityScore:
    """(doc_id, text) -> per-doc quality signals + composite score."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        q = T.quality_frame(batch["text"])
        q.insert(0, "doc_id", batch["doc_id"])
        return q[
            [
                "doc_id", "n_tokens", "distinct_ratio",
                "stopword_ratio", "quality_score",
            ]
        ]


from functools import lru_cache


@lru_cache(maxsize=1)
def _langid_singleton() -> "LangId":
    return LangId()


def _langid_task(batch: pd.DataFrame) -> pd.DataFrame:
    # task-based: stopword lists rebuild once per worker via lru_cache;
    # an actor pool pays seconds of spin-up for the same semantics
    return _langid_singleton()(batch)


def word_frequency(docs_ds):
    """Corpus-wide token histogram: per-batch partial counts (one row
    per token per batch) then one small groupby-sum shuffle."""
    from ray.data.aggregate import Sum

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        counts = (
            batch["text"].str.split(" ").explode().value_counts()
        )
        return arrow_block(
            counts.rename("n").rename_axis("token").reset_index()
        )

    partial = pre_shuffle(docs_ds.map_batches(combine, batch_format="pandas"))
    return partial.groupby("token").aggregate(Sum("n", alias_name="n"))


def langid_confusion(docs_ds):
    """(lang, pred_lang) -> n_docs, via actor-pool LangId + partial
    count + groupby-sum."""
    from ray.data.aggregate import Sum

    preds = docs_ds.map_batches(
        _langid_task, batch_format="pandas"
    )

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby(["lang", "pred_lang"], sort=False)
            .size()
            .rename("n_docs")
            .reset_index()
        )
        return arrow_block(g)

    partial = pre_shuffle(preds.map_batches(combine, batch_format="pandas"))
    return partial.groupby(["lang", "pred_lang"]).aggregate(
        Sum("n_docs", alias_name="n_docs")
    )


def document_fingerprints(docs_ds, k: int = 3, w: int = 4):
    """Winnowing document fingerprints (Schleimer et al., SIGMOD'03):
    per doc, hash every k-token gram (md5 top-32 — the one hash the
    DuckDB oracle can reproduce) and keep the winnowed minima.  Output
    (doc_id, pos 1-based gram position, h) — the industry-standard
    compact near-dup / plagiarism index: any shared run of
    >= w + k - 1 tokens between two docs shares a fingerprint.

    Fully map-side (one pass, no shuffle): fingerprinting is
    per-document, so the operator streams at input bandwidth; a
    downstream ``groupby(h)`` turns the table into a shared-substring
    candidate index (same hot-bucket discipline as LSH)."""
    import pyarrow as pa

    from rex_ray.functions import hashing as H

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("pos", pa.int64()), ("h", pa.int64())]
    )

    def per_batch(batch: pd.DataFrame) -> pa.Table:
        ids, poss, hss = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            ts = text.split(" ")
            if len(ts) < k:
                continue
            grams = [
                " ".join(ts[i : i + k]) for i in range(len(ts) - k + 1)
            ]
            pos, hs = H.winnow(H.md5_gram_hash(grams), w)
            ids.append(np.full(len(pos), doc_id, dtype=np.int64))
            poss.append(pos + 1)  # 1-based, matching the SQL oracle
            hss.append(hs)
        if not ids:
            return out_schema.empty_table()
        return pa.table(
            {
                "doc_id": np.concatenate(ids),
                "pos": np.concatenate(poss),
                "h": np.concatenate(hss),
            },
            schema=out_schema,
        )

    return docs_ds.map_batches(per_batch, batch_format="pandas")


def inverted_index(docs_ds, min_df: int = 1):
    """Token -> posting-list index: (token, df, postings) with
    ``postings`` the comma-joined sorted distinct doc_ids.  The shuffle
    carries slim distinct (token, doc_id) pairs (per-batch dedup
    combiner).  Scale note: head tokens (stopwords) concentrate one
    group's postings on one worker — cap or shard head tokens by
    doc_id range (same salting discipline as ``stages/salt``) before
    building a web-scale index."""
    import pyarrow as pa

    out_schema = pa.schema(
        [
            ("token", pa.string()),
            ("df", pa.int64()),
            ("postings", pa.string()),
        ]
    )

    def pairs(batch: pd.DataFrame) -> pa.Table:
        toks, dids = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            for t in set(text.split(" ")):
                toks.append(t)
                dids.append(doc_id)
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )

    def merge(g: pd.DataFrame) -> pa.Table:
        ids = np.unique(g["doc_id"].to_numpy())
        if len(ids) < min_df:
            return out_schema.empty_table()
        return pa.table(
            {
                "token": [g["token"].iloc[0]],
                "df": pa.array([len(ids)], pa.int64()),
                "postings": [",".join(str(i) for i in ids)],
            },
            schema=out_schema,
        )

    slim = pre_shuffle(docs_ds.map_batches(pairs, batch_format="pandas"))
    return slim.groupby("token").map_groups(merge, batch_format="pandas")


def distinct_word_hll_registers(docs_ds, p: int = 10):
    """HyperLogLog register table for the corpus's distinct-token
    cardinality: (bucket, max_rho), at most 2^p rows.

    The 100 TB shape: each batch folds its tokens into <= 2^p partial
    registers (a per-batch groupby-max — constant output size no
    matter how much text went in), then ONE groupby-max shuffle of
    O(batches * 2^p) tiny integer rows merges them.  Nothing about the
    corpus size ever leaves the mappers; the register table is exact
    and deterministic (md5-based), so it is oracle-checkable even
    though the cardinality it encodes is an estimate —
    ``functions/hashing.hll_estimate`` turns it into the number.
    """
    from ray.data.aggregate import Max

    from rex_ray.functions import hashing as H

    def partial(batch: pd.DataFrame) -> "pa.Table":
        import pyarrow as pa

        toks = batch["text"].str.split(" ").explode()
        toks = toks[toks.notna() & (toks != "")]
        if not len(toks):
            return pa.schema(
                [("bucket", pa.int64()), ("max_rho", pa.int64())]
            ).empty_table()
        bucket, rho = H.hll_bucket_rho_batch(toks.tolist(), p=p)
        df = pd.DataFrame({"bucket": bucket, "max_rho": rho})
        g = df.groupby("bucket", sort=False)["max_rho"].max().reset_index()
        return arrow_block(
            g, schema=pa.schema([("bucket", pa.int64()), ("max_rho", pa.int64())])
        )

    part = pre_shuffle(docs_ds.map_batches(partial, batch_format="pandas"))
    return part.groupby("bucket").aggregate(Max("max_rho", alias_name="max_rho"))


def tf_idf(docs_ds, n_docs: int):
    """Per (doc_id, token) TF-IDF over the corpus — the classic
    text-weighting primitive (Sparck Jones 1972), shaped for scale:

    * tf: per-batch (doc_id, token) partial counts -> ONE slim
      groupby-sum shuffle (rows = distinct doc-token pairs, not
      tokens);
    * df: per-batch distinct-doc counts per token (a document never
      straddles a row batch, so per-batch distinct is globally exact)
      -> a vocabulary-sized aggregate, broadcast worker-built as a
      dict — NO second large join;
    * score: vectorized ``round(tf * ln(N / df), 8)`` — one double
      division, ln, multiply in identical order on both engines (the
      PMI determinism contract, stages/graph.edge_pmi).

    ``n_docs`` is passed by the caller (a Parquet metadata read — no
    extra pass over the data).
    """
    from ray.data.aggregate import Sum

    from rex_ray.functions.blocks import _side_object, _worker_built_ref

    def tf_partial(batch: pd.DataFrame) -> pa.Table:
        ex = batch[["doc_id"]].assign(
            token=batch["text"].str.split(" ")
        ).explode("token")
        g = (
            ex.groupby(["doc_id", "token"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
        )
        return arrow_block(g)

    tf = (
        pre_shuffle(docs_ds.map_batches(tf_partial, batch_format="pandas"))
        .groupby(["doc_id", "token"])
        .aggregate(Sum("tf", alias_name="tf"))
    )

    def df_partial(batch: pd.DataFrame) -> pa.Table:
        counts: dict = {}
        for text in batch["text"]:
            for t in set(text.split(" ")):
                counts[t] = counts.get(t, 0) + 1
        return pa.table(
            {
                "token": pa.array(list(counts), pa.string()),
                "df": pa.array(list(counts.values()), pa.int64()),
            }
        )

    df_ds = (
        pre_shuffle(docs_ds.map_batches(df_partial, batch_format="pandas"))
        .groupby("token")
        .aggregate(Sum("df", alias_name="df"))
    )
    df_ref = _worker_built_ref(
        df_ds,
        lambda tables: {
            t: int(d)
            for tbl in tables
            if "token" in tbl.schema.names
            for t, d in zip(tbl["token"].to_pylist(), tbl["df"].to_pylist())
        },
    )

    def score(t: pa.Table, _ref=df_ref) -> pa.Table:
        dfm = _side_object(_ref)
        toks = t["token"].to_pylist()
        df = np.fromiter(
            (dfm[x] for x in toks), dtype=np.float64, count=len(toks)
        )
        tfv = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        tfidf = np.round(tfv * np.log(n_docs / df), 8)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "token": t["token"],
                "tf": t["tf"],
                "df": pa.array(df.astype(np.int64), pa.int64()),
                "tfidf": pa.array(tfidf, pa.float64()),
            }
        )

    return tf.map_batches(score, batch_format="pyarrow")


def repetition_stats(docs_ds, ns=(2, 3)):
    """Gopher-style intra-document repetition signals (Rae et al.
    2021 §A1.1, adapted to integer-exact form): for each n in ``ns``,
    per doc — total n-gram occurrences, duplicate occurrences
    (total - distinct), and the top gram's occurrence count.  All
    int64, so the DuckDB oracle agrees exactly (no float fraction
    contract needed; consumers divide downstream).

    One streaming map_batches; grams are hashed batch-wide (md5-64,
    :func:`functions.hashing.md5_hash64_batch`) and per-doc run
    statistics come from one segmented lexsort — no Python loop past
    gram string assembly.
    """
    from rex_ray.functions import hashing as H

    def gram_stats(texts, n):
        grams: list = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            k = max(len(toks) - n + 1, 0)
            counts[i] = k
            grams.extend(
                " ".join(toks[j : j + n]) for j in range(k)
            )
        total = counts
        distinct = np.zeros(len(texts), dtype=np.int64)
        top = np.zeros(len(texts), dtype=np.int64)
        if grams:
            hv = H.md5_hash64_batch(grams)
            parent = np.repeat(np.arange(len(texts)), counts)
            order = np.lexsort((hv, parent))
            p, h = parent[order], hv[order]
            new_run = np.empty(len(p), dtype=bool)
            new_run[0] = True
            new_run[1:] = (p[1:] != p[:-1]) | (h[1:] != h[:-1])
            starts = np.flatnonzero(new_run)
            run_len = np.diff(np.append(starts, len(p)))
            run_doc = p[starts]
            distinct = np.bincount(
                run_doc, minlength=len(texts)
            ).astype(np.int64)
            top = np.zeros(len(texts), dtype=np.int64)
            np.maximum.at(top, run_doc, run_len)
        return total, total - distinct, top

    def per_batch(batch: pd.DataFrame) -> pa.Table:
        texts = list(batch["text"])
        cols = {
            "doc_id": pa.array(
                batch["doc_id"].to_numpy().astype(np.int64), pa.int64()
            )
        }
        for n in ns:
            tot, dup, top = gram_stats(texts, n)
            cols[f"n{n}_total"] = pa.array(tot, pa.int64())
            cols[f"n{n}_dup"] = pa.array(dup, pa.int64())
            cols[f"n{n}_top"] = pa.array(top, pa.int64())
        return pa.table(cols)

    return docs_ds.map_batches(per_batch, batch_format="pandas")


# Cardinality bound for the duplicated-gram broadcast: ~2M hashed
# grams ≈ 32 MB of worker-resident sorted arrays.  Below it the
# broadcast probe wins (no joins, one streaming pass); above it — a
# boilerplate-heavy crawl where 30-60% of the corpus duplicates and
# the >=2-count gram set is itself corpus-sized — the probe degrades
# to a slim (hash, doc) shuffle join with bounded per-partition
# memory (round-3 verdict).  The probe is fused with a per-doc
# reduction, so it is not a ``hash_join`` plan.
MAX_BROADCAST_GRAMS = 2_000_000


def cross_doc_dup_ngrams(
    docs_ds, n: int = 3,
    max_broadcast_grams: int = None,
):
    """Cross-document duplicated-n-gram signal (the Gopher/Dolma rule
    family's CROSS-doc sibling of :func:`repetition_stats`; CCNet §4.1
    measures the same overlap to drop boilerplate): per doc, how many
    of its DISTINCT n-grams also occur outside the doc
    (corpus_count > within-doc count).  All int64 — consumers divide
    for the fraction; the oracle agrees exactly.

    Dataflow (the tf_idf / LM-model idiom): one slim (gram_hash,
    count) partial shuffle builds corpus totals (grams are md5-64
    hashed MAP-SIDE, so no gram strings ever shuffle); grams with
    corpus count >= 2 survive (singleton grams, the Zipf tail and
    the bulk of the vocabulary, are pruned since they can never be
    duplicated).  The driver reads only the COUNT of that table to
    pick the regime:

    * BROADCAST (<= ``max_broadcast_grams`` duplicated grams): one
      worker-built broadcast (sorted hashes + counts), then one
      streaming probe pass scores every doc — no joins, no second
      corpus shuffle;
    * JOIN (dup-heavy corpus above the bound): one tagged per-doc
      pass emits slim (doc_id, gram_hash, within_count) rows plus a
      per-doc distinct-count row; the dup test runs as an exact hash
      join against the totals table and a tiny per-doc sum folds
      both row kinds — per-partition memory bounded by the
      partition, never a corpus-sized broadcast object.

    Both regimes are equality-asserted in tests on a planted
    boilerplate-heavy corpus.  Notes ``dup_ngram_regime``
    ("broadcast"|"join") and ``n_dup_grams`` in the run record
    (``rex_ray/trace.py``).
    Output: (doc_id, n_distinct, n_dup) for docs with >= 1 n-gram.
    """
    from ray.data.aggregate import Sum

    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import _side_object, _worker_built_ref

    if max_broadcast_grams is None:
        max_broadcast_grams = MAX_BROADCAST_GRAMS

    _P = pa.schema([("h", pa.int64()), ("c", pa.int64())])

    def batch_grams(texts):
        grams: list = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            k = max(len(toks) - n + 1, 0)
            counts[i] = k
            grams.extend(" ".join(toks[j: j + n]) for j in range(k))
        return grams, counts

    def partial(batch: pd.DataFrame) -> pa.Table:
        grams, _ = batch_grams(list(batch["text"]))
        if not grams:
            return _P.empty_table()
        hv = H.md5_hash64_batch(grams).view(np.int64)
        uniq, cnt = np.unique(hv, return_counts=True)
        return pa.table(
            {
                "h": pa.array(uniq, pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            },
            schema=_P,
        )

    totals = (
        pre_shuffle(docs_ds.map_batches(partial, batch_format="pandas"))
        .groupby("h")
        .aggregate(Sum("c", alias_name="c"))
        .filter(expr="c >= 2")  # singletons can never be duplicated
        .materialize()
    )
    n_dup_grams = totals.count()

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_distinct", pa.int64()),
         ("n_dup", pa.int64())]
    )

    def doc_runs(batch: pd.DataFrame):
        """Per-doc distinct-gram runs: (ids, counts, run_doc, run_h,
        run_len) — shared by both regimes."""
        texts = list(batch["text"])
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        grams, counts = batch_grams(texts)
        if not grams:
            return ids, counts, None, None, None
        hv = H.md5_hash64_batch(grams).view(np.int64)
        parent = np.repeat(np.arange(len(texts)), counts)
        order = np.lexsort((hv, parent))
        p, h = parent[order], hv[order]
        new_run = np.empty(len(p), dtype=bool)
        new_run[0] = True
        new_run[1:] = (p[1:] != p[:-1]) | (h[1:] != h[:-1])
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(p)))  # within-doc count
        return ids, counts, p[starts], h[starts], run_len

    broadcast = n_dup_grams <= max_broadcast_grams
    trace.note(
        dup_ngram_regime="broadcast" if broadcast else "join",
        n_dup_grams=n_dup_grams,
    )
    if broadcast:
        def build(tables):
            hs: list = []
            cs: list = []
            for t in tables:
                if t.num_rows and "h" in t.schema.names:
                    hs.append(t["h"].to_numpy(zero_copy_only=False))
                    cs.append(t["c"].to_numpy(zero_copy_only=False))
            if not hs:
                return (np.empty(0, np.int64), np.empty(0, np.int64))
            hv = np.concatenate(hs).astype(np.int64)
            c = np.concatenate(cs).astype(np.int64)
            o = np.argsort(hv)
            return (hv[o], c[o])

        tot_ref = _worker_built_ref(totals, build)

        def score(batch: pd.DataFrame, _ref=tot_ref) -> pa.Table:
            hs, cs = _side_object(_ref)
            ids, counts, run_doc, run_h, run_len = doc_runs(batch)
            if run_doc is None:
                return out_schema.empty_table()
            # corpus totals via searchsorted probe; absent -> singleton
            if len(hs):
                idx = np.searchsorted(hs, run_h)
                idx = np.minimum(idx, len(hs) - 1)
                hit = hs[idx] == run_h
                corpus = np.where(hit, cs[idx], 0)
            else:
                corpus = np.zeros(len(run_h), dtype=np.int64)
            dup = corpus > run_len
            n_texts = len(counts)
            n_distinct = np.bincount(run_doc, minlength=n_texts)
            n_dup = np.bincount(
                run_doc, weights=dup.astype(np.float64),
                minlength=n_texts,
            ).astype(np.int64)
            sel = counts > 0
            return pa.table(
                {
                    "doc_id": pa.array(ids[sel], pa.int64()),
                    "n_distinct": pa.array(
                        n_distinct[sel].astype(np.int64), pa.int64()
                    ),
                    "n_dup": pa.array(n_dup[sel], pa.int64()),
                },
                schema=out_schema,
            )

        return docs_ds.map_batches(score, batch_format="pandas")

    # --- JOIN regime: duplicated-gram table too large to broadcast ---
    from rex_ray.stages.relational import hash_join

    _T = pa.schema(
        [("kind", pa.string()), ("doc_id", pa.int64()),
         ("h", pa.int64()), ("v", pa.int64())]
    )

    def per_doc(batch: pd.DataFrame) -> pa.Table:
        ids, counts, run_doc, run_h, run_len = doc_runs(batch)
        if run_doc is None:
            return _T.empty_table()
        n_texts = len(counts)
        n_distinct = np.bincount(run_doc, minlength=n_texts)
        sel = counts > 0
        n_d = int(sel.sum())
        n_g = len(run_doc)
        return pa.table(
            {
                "kind": pa.array(["d"] * n_d + ["g"] * n_g, pa.string()),
                "doc_id": pa.array(
                    np.concatenate([ids[sel], ids[run_doc]]), pa.int64()
                ),
                "h": pa.array(
                    np.concatenate(
                        [np.zeros(n_d, np.int64), run_h]
                    ), pa.int64()
                ),
                "v": pa.array(
                    np.concatenate(
                        [n_distinct[sel].astype(np.int64), run_len]
                    ), pa.int64()
                ),
            },
            schema=_T,
        )

    tagged = docs_ds.map_batches(
        per_doc, batch_format="pandas"
    ).materialize()

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_distinct": t["v"],
                "n_dup": pa.array(
                    np.zeros(t.num_rows, np.int64), pa.int64()
                ),
            },
            schema=out_schema,
        )

    base = tagged.filter(expr="kind == 'd'").map_batches(
        base_rows, batch_format="pyarrow"
    )
    slim = tagged.filter(expr="kind == 'g'").select_columns(
        ["doc_id", "h", "v"]
    )
    joined = hash_join(slim, totals, on="h", rows=n_dup_grams)

    def dup_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kept = t.filter(pc.greater(t["c"], t["v"]))
        if kept.num_rows == 0:
            return out_schema.empty_table()
        d = kept["doc_id"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq.astype(np.int64), pa.int64()),
                "n_distinct": pa.array(
                    np.zeros(len(uniq), np.int64), pa.int64()
                ),
                "n_dup": pa.array(cnt.astype(np.int64), pa.int64()),
            },
            schema=out_schema,
        )

    dups = joined.map_batches(dup_partial, batch_format="pyarrow")
    return (
        pre_shuffle(base.union(dups))
        .groupby("doc_id")
        .aggregate(
            Sum("n_distinct", alias_name="n_distinct"),
            Sum("n_dup", alias_name="n_dup"),
        )
    )


def _mg_compress(vc: pd.Series, k: int) -> pd.Series:
    """One Misra-Gries compress step: keep at most ``k`` counters by
    subtracting the (k+1)-th largest count from all and dropping the
    non-positive remainder (Misra & Gries 1982).  ``vc`` must be a
    count Series sorted descending (``value_counts`` order).  The mass
    removed is >= (k+1) x the subtracted value, which is what bounds
    the total underestimate of any single item across every compress
    in the job by total/(k+1) (Agarwal et al., Mergeable Summaries,
    2012)."""
    if len(vc) <= k:
        return vc
    v = int(vc.iloc[k])
    out = vc - v
    return out[out > 0]


def heavy_hitter_ngrams(docs_ds, n: int = 3, k: int = 4000):
    """EXACT corpus-wide heavy-hitter n-grams: every word n-gram whose
    count exceeds total_grams/k, with its exact count — the frequent-
    phrase / boilerplate-mining primitive (the SpaceSaving/Misra-Gries
    use case of Metwally et al. 2005), shaped as the classic two-pass
    sketch-then-verify dataflow so the answer is exact and
    oracle-checkable while nothing corpus-sized ever shuffles:

    * pass 1 (sketch): each batch folds its grams into a Misra-Gries
      summary of <= k rows NO MATTER how much text went in (exact
      ``value_counts`` + one :func:`_mg_compress`), plus one sentinel
      row carrying the batch's exact raw gram count -> ONE slim
      groupby-sum shuffle of O(batches x k) rows.  Summed MG
      estimates underestimate any gram by < total/(k+1), so every
      true heavy hitter survives with a positive estimate; a final
      global compress (the (k+1)-th largest summed estimate, found by
      a distributed sort + bounded ``take`` of k+1 rows) cuts the
      candidate set to <= k rows — a SUPERSET of the true heavy
      hitters (property-tested).
    * pass 2 (verify): the <= k candidate grams broadcast once
      (``ray.put``); one streaming pass counts ONLY candidates
      exactly -> a tiny groupby-sum; ``count * k > total`` filters to
      the exact answer.

    At 100 TB both shuffles move O(batches x k) integer/string rows;
    the corpus is read twice and never materialized.  Output:
    (gram, n) int64-exact.  Notes ``n_candidates`` and ``total_grams``
    in the run record (``rex_ray/trace.py``) for observability.
    """
    import ray
    from ray.data.aggregate import Sum

    _P = pa.schema(
        [("kind", pa.string()), ("gram", pa.string()), ("c", pa.int64())]
    )
    _OUT = pa.schema([("gram", pa.string()), ("n", pa.int64())])

    def batch_grams(texts):
        grams: list = []
        for t in texts:
            toks = t.split(" ")
            grams.extend(
                " ".join(toks[j: j + n])
                for j in range(max(len(toks) - n + 1, 0))
            )
        return grams

    def sketch_partial(batch: pd.DataFrame) -> pa.Table:
        grams = batch_grams(list(batch["text"]))
        vc = _mg_compress(pd.Series(grams).value_counts(), k)
        df = pd.DataFrame(
            {
                "kind": "mg",
                "gram": vc.index.astype(str),
                "c": vc.to_numpy(dtype=np.int64),
            }
        )
        tot = pd.DataFrame({"kind": ["tot"], "gram": [""], "c": [len(grams)]})
        return arrow_block(pd.concat([df, tot], ignore_index=True), schema=_P)

    summed = (
        pre_shuffle(docs_ds.map_batches(sketch_partial, batch_format="pandas"))
        .groupby(["kind", "gram"])
        .aggregate(Sum("c", alias_name="c"))
        .materialize()
    )
    total = int(
        summed.filter(expr="kind == 'tot'").sum("c", ignore_nulls=True) or 0
    )
    from rex_ray.functions.blocks import compact_blocks

    # compacted for the sort: the filter emits schema-less empty blocks
    est = compact_blocks(summed.filter(expr="kind == 'mg'"))
    # global compress: v = (k+1)-th largest summed estimate (bounded
    # k+1-row take off a distributed sort of the slim estimate table)
    top = est.sort("c", descending=True).limit(k + 1).take(k + 1)
    v = int(top[-1]["c"]) if len(top) > k else 0
    cand_rows = est.filter(expr=f"c > {v}").take(k)  # <= k by construction
    candidates = [r["gram"] for r in cand_rows]
    trace.note(n_candidates=len(candidates), total_grams=total)
    if not candidates or total == 0:
        return ray.data.from_arrow(_OUT.empty_table())
    cand_ref = ray.put(frozenset(candidates))

    def exact_partial(batch: pd.DataFrame, _ref=cand_ref) -> pa.Table:
        cand = ray.get(_ref)
        s = pd.Series(batch_grams(list(batch["text"])))
        vc = s[s.isin(cand)].value_counts()
        return arrow_block(
            pd.DataFrame(
                {
                    "gram": vc.index.astype(str),
                    "n": vc.to_numpy(dtype=np.int64),
                }
            ),
            schema=_OUT,
        )

    # n * k > total  <=>  n > total // k  (exact for int n, any k/total)
    return (
        pre_shuffle(docs_ds.map_batches(exact_partial, batch_format="pandas"))
        .groupby("gram")
        .aggregate(Sum("n", alias_name="n"))
        .filter(expr=f"n > {total // k}")
    )


# BPE-ish pretokenizer classes (GPT-2-style, lookahead-free so the
# same pattern runs identically under Python re and DuckDB's RE2):
# letter runs, digit runs, single non-alnum non-space marks.
REGEX_TOKEN_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]"


class RegexTokenCounter:
    """(doc_id, text) -> per-doc token counts under the BPE-ish
    pretokenizer regex: n_regex_tokens (all matches), n_alpha, n_num,
    n_other — the 'token counting' quality/quota signal computed the
    way a BPE tokenizer would segment, not by whitespace (whitespace
    counts live in DocStats).  Pattern compiled once per actor;
    counting is findall-per-row over the batch (regex state is the
    per-actor setup, the hot loop is C)."""

    def __init__(self, pattern: str = REGEX_TOKEN_PATTERN):
        import re

        self._re = re.compile(pattern)

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        total = np.empty(len(ids), dtype=np.int64)
        alpha = np.empty(len(ids), dtype=np.int64)
        num = np.empty(len(ids), dtype=np.int64)
        for i, t in enumerate(batch["text"]):
            ms = self._re.findall(t)
            total[i] = len(ms)
            alpha[i] = sum(1 for m in ms if m[0].isalpha())
            num[i] = sum(1 for m in ms if m[0].isdigit())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_regex_tokens": pa.array(total, pa.int64()),
                "n_alpha": pa.array(alpha, pa.int64()),
                "n_num": pa.array(num, pa.int64()),
                "n_other": pa.array(total - alpha - num, pa.int64()),
            }
        )


def regex_token_counts(docs_ds, pattern: str = REGEX_TOKEN_PATTERN,
                       **kwargs):
    from rex_ray.functions.blocks import default_concurrency

    return docs_ds.map_batches(
        RegexTokenCounter,
        fn_constructor_kwargs={"pattern": pattern},
        batch_format="pandas",
        concurrency=kwargs.pop("concurrency", None) or default_concurrency(),
        **kwargs,
    )


# Default PII-shaped scrub patterns (email / phone / IPv4).  The
# synthetic corpus contains none of these; the ta_redact query uses
# patterns that do fire there so the dataflow is exercised end to end.
PII_PATTERNS = (
    (r"[\w.+-]+@[\w-]+\.[\w.]+", "[EMAIL]"),
    (r"\+?\d[\d -]{7,}\d", "[PHONE]"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "[IP]"),
)


class PatternScrubber:
    """(doc_id, text) -> (doc_id, clean_text, n_pii): regex redaction
    with per-actor compiled patterns (compile once in ``__init__``,
    vectorized pandas str kernels per batch).  Counts are taken on the
    ORIGINAL text and replacements applied sequentially; replacement
    strings must not re-create any pattern (true of the defaults).
    Patterns are intersection-of-RE2-and-Python syntax so a DuckDB
    oracle can replay them with regexp_replace/extract_all."""

    def __init__(self, patterns=PII_PATTERNS):
        import re

        self.patterns = [
            (re.compile(p), repl) for p, repl in patterns
        ]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        n = np.zeros(len(batch), dtype=np.int64)
        clean = text
        for rx, repl in self.patterns:
            n += text.str.count(rx).to_numpy(dtype=np.int64)
            clean = clean.str.replace(rx, repl, regex=True)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "clean_text": clean,
                "n_pii": n,
            }
        )


def scrub_patterns(docs_ds, patterns=PII_PATTERNS):
    from rex_ray.functions.blocks import default_concurrency

    return docs_ds.map_batches(
        PatternScrubber,
        fn_constructor_kwargs={"patterns": tuple(patterns)},
        batch_format="pandas",
        concurrency=default_concurrency(),
    )


def bpe_pair_counts(docs_ds):
    """Corpus-wide adjacent character-pair frequencies — step 1 of a
    BPE tokenizer-training loop (Sennrich et al. ACL'16) run as a
    distributed counting pass: each batch joins its tokens into one
    byte buffer and bincounts 2-byte pair codes (pairs straddling the
    token separator masked out), emitting at most 65,536 partial rows
    per batch regardless of corpus size; one tiny groupby merges
    partials.  ASCII corpus fast path; a non-ASCII batch falls back to
    codepoint arrays with np.unique (same semantics, no bincount cap).

    Output: (a, b, freq) — the pair a DuckDB substring oracle can
    recount exactly.
    """
    from rex_ray.functions.blocks import pre_shuffle
    from ray.data.aggregate import Sum

    def partial(batch: pd.DataFrame) -> pa.Table:
        joined = " ".join(batch["text"])
        if not joined:
            return pa.schema(
                [("code", pa.int64()), ("n", pa.int64())]
            ).empty_table()
        if joined.isascii():
            b = np.frombuffer(joined.encode(), dtype=np.uint8)
        else:
            b = np.fromiter(map(ord, joined), dtype=np.int64)
        lo, hi = b[:-1].astype(np.int64), b[1:].astype(np.int64)
        mask = (lo != 32) & (hi != 32)
        codes = lo[mask] * 0x110000 + hi[mask]
        uniq, counts = np.unique(codes, return_counts=True)
        return pa.table(
            {
                "code": pa.array(uniq, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    merged = (
        pre_shuffle(docs_ds.map_batches(partial, batch_format="pandas"))
        .groupby("code")
        .aggregate(Sum("n", alias_name="freq"))
    )

    def decode(t: pa.Table) -> pa.Table:
        code = t["code"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(
                    [chr(c) for c in code // 0x110000], pa.string()
                ),
                "b": pa.array(
                    [chr(c) for c in code % 0x110000], pa.string()
                ),
                "freq": t["freq"].combine_chunks().cast(pa.int64()),
            }
        )

    return merged.map_batches(decode, batch_format="pyarrow")


def bpe_train(docs_ds, num_merges: int = 10, top_k: int = 20000):
    """Full BPE merge training (Sennrich et al. ACL'16): ONE
    distributed pass aggregates the word-frequency vocabulary (the
    only corpus-sized step); the merge loop then runs on that
    bounded (word, count) table — the standard trick that makes BPE
    training corpus-size-independent.  ``top_k`` caps the vocabulary
    pulled to the driver (distributed sort-limit), so driver memory is
    O(top_k), never O(corpus).

    Ties in pair frequency break to the lexicographically smallest
    (a, b) so the merge sequence is deterministic across partitionings
    (float-free, order-free).  Returns one row per merge:
    (rank, a, b, freq).  Iterative — no SQL oracle; equality against a
    straight-line reference implementation and the paper's example is
    asserted in tests.
    """
    vocab = (
        word_frequency(docs_ds)
        .sort(["n", "token"], descending=[True, False])
        .limit(top_k)
        .to_pandas()
    )
    words = [tuple(w) for w in vocab["token"]]
    counts = vocab["n"].to_numpy(dtype=np.int64)

    merges = []
    for rank in range(num_merges):
        pair_freq: dict = {}
        for w, c in zip(words, counts):
            for i in range(len(w) - 1):
                p = (w[i], w[i + 1])
                pair_freq[p] = pair_freq.get(p, 0) + int(c)
        if not pair_freq:
            break
        (a, b), freq = min(
            pair_freq.items(), key=lambda kv: (-kv[1], kv[0])
        )
        merges.append((rank, a, b, freq))
        ab = a + b
        new_words = []
        for w in words:
            out, i = [], 0
            while i < len(w):
                if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(w[i])
                    i += 1
            new_words.append(tuple(out))
        words = new_words

    return pa.table(
        {
            "rank": pa.array([m[0] for m in merges], pa.int64()),
            "a": pa.array([m[1] for m in merges], pa.string()),
            "b": pa.array([m[2] for m in merges], pa.string()),
            "freq": pa.array([m[3] for m in merges], pa.int64()),
        }
    )


def bpe_encode(docs_ds, merges):
    """Apply a trained BPE merge list to the corpus — the tokenizer-
    APPLICATION half that pairs with :func:`bpe_train` (Sennrich et
    al. ACL'16 inference): each word starts as its character sequence
    and every merge (a, b) -> ab is applied in rank order with
    leftmost non-overlapping scanning (exactly the training loop's
    application rule, so train->encode round-trips).

    ``merges``: list of (a, b) in rank order (from ``bpe_train`` rows
    or a spec literal).  Broadcast once; the encode is one streaming
    map pass (token counting at scale is this op with a sum on top).
    Output: one row per word occurrence (doc_id, pos, word, encoded
    subwords space-joined, n_subwords) — exact strings, so a DuckDB
    oracle replays the same merges with ordered replace() calls
    (leftmost non-overlapping replacement is the same scan rule).
    """
    import ray as _ray

    merges_ref = _ray.put([(str(a), str(b)) for a, b in merges])

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("pos", pa.int64()),
            ("word", pa.string()),
            ("encoded", pa.string()),
            ("n_subwords", pa.int64()),
        ]
    )

    def apply_merges(w: str, ms) -> str:
        # token-list merge with leftmost non-overlapping scanning —
        # identical to bpe_train's application loop.  (A naive
        # `"a b" -> "ab"` string replace would false-match a token
        # SUFFIX, e.g. 'xa b'; the SQL oracle avoids the same trap
        # with doubled boundary markers — equivalence is pytest-
        # asserted on adversarial words.)
        toks = list(w)
        for a, b in ms:
            out, i = [], 0
            n = len(toks)
            while i < n:
                if i + 1 < n and toks[i] == a and toks[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(toks[i])
                    i += 1
            toks = out
        return " ".join(toks)

    def encode(batch: pd.DataFrame, _ref=merges_ref) -> pa.Table:
        from rex_ray.functions.blocks import _side_object

        ms = _side_object(_ref)
        ids: list = []
        poss: list = []
        words: list = []
        encs: list = []
        # per-batch memo: corpora repeat words heavily (Zipf), so each
        # distinct word encodes once per batch
        memo: dict = {}
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            for pos, w in enumerate(text.split(" ")):
                e = memo.get(w)
                if e is None:
                    memo[w] = e = apply_merges(w, ms)
                ids.append(int(doc_id))
                poss.append(pos)
                words.append(w)
                encs.append(e)
        n_sub = [e.count(" ") + 1 if e else 0 for e in encs]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "word": pa.array(words, pa.string()),
                "encoded": pa.array(encs, pa.string()),
                "n_subwords": pa.array(n_sub, pa.int64()),
            },
            schema=out_schema,
        )

    return docs_ds.map_batches(encode, batch_format="pandas")


def bottomk_sample(ds, id_col: str, k: int = 1000):
    """Deterministic uniform corpus sample: the ``k`` rows with the
    smallest ``md5(id)`` — the bottom-k / KMV sketch (Bar-Yossef et
    al. RANDOM'02) that backs "inspect a uniform sample of the
    corpus" and distinct-count estimation at 100 TB.  Associative:
    each batch contributes at most k candidate rows (partial
    bottom-k), the global sort-limit merges them; re-runs, shard
    counts and cluster sizes cannot change the sample (pure function
    of the ids).  Oracle: ORDER BY md5(id), id LIMIT k.
    Output: (id_col, h) sorted ascending by (h, id)."""
    import hashlib

    def partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        h = [hashlib.md5(str(v).encode()).hexdigest() for v in ids]
        order = sorted(range(len(ids)), key=lambda i: (h[i], ids[i]))[:k]
        return pa.table(
            {
                id_col: pa.array([ids[i] for i in order]),
                "h": pa.array([h[i] for i in order], pa.string()),
            }
        )

    part = pre_shuffle(ds.map_batches(partial, batch_format="pyarrow"))
    return part.sort(["h", id_col]).limit(k)


# ---------------------------------------------------------------------------
# bigram-LM perplexity (CCNet-style quality signal)
# ---------------------------------------------------------------------------

def _bigram_model_refs(docs_ds, min_count: int = 1):
    """Train the add-one bigram LM distributed and return
    ``(big_ref, uni_ref)`` — ObjectRefs of worker-built sorted md5-64
    hash arrays + parallel int64 counts (and V for the unigram side).
    Shared by :func:`lm_perplexity` and :func:`dsir_weights`."""
    from ray.data.aggregate import Sum

    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import _worker_built_ref

    _PARTIAL = pa.schema([("g", pa.string()), ("n", pa.int64())])

    def bigram_partial(batch: pd.DataFrame) -> pa.Table:
        grams: list = []
        for t in batch["text"]:
            toks = t.split(" ")
            grams.extend(
                toks[j] + " " + toks[j + 1] for j in range(len(toks) - 1)
            )
        if not grams:
            return _PARTIAL.empty_table()
        s = pd.Series(grams, dtype=object).value_counts()
        return arrow_block(
            s.rename("n").rename_axis("g").reset_index(), schema=_PARTIAL
        )

    bg = (
        pre_shuffle(docs_ds.map_batches(bigram_partial, batch_format="pandas"))
        .groupby("g")
        .aggregate(Sum("n", alias_name="n"))
    )
    if min_count > 1:
        bg = bg.filter(expr=f"n >= {min_count}")

    def build_big(tables):
        gs: list = []
        cnts: list = []
        for t in tables:
            if t.num_rows:
                gs.extend(t["g"].to_pylist())
                cnts.append(t["n"].to_numpy(zero_copy_only=False))
        if not gs:
            return (np.empty(0, np.uint64), np.empty(0, np.int64))
        hv = H.md5_hash64_batch(gs)
        c = np.concatenate(cnts).astype(np.int64)
        o = np.argsort(hv)
        return (hv[o], c[o])

    big_ref = _worker_built_ref(bg, build_big)

    def build_uni(tables):
        toks: list = []
        cnts: list = []
        for t in tables:
            if t.num_rows:
                toks.extend(t["token"].to_pylist())
                cnts.append(t["n"].to_numpy(zero_copy_only=False))
        if not toks:
            return (np.empty(0, np.uint64), np.empty(0, np.int64), 0)
        hv = H.md5_hash64_batch(toks)
        c = np.concatenate(cnts).astype(np.int64)
        o = np.argsort(hv)
        return (hv[o], c[o], len(toks))

    uni_ref = _worker_built_ref(word_frequency(docs_ds), build_uni)
    return big_ref, uni_ref


def _batch_bigram_arrays(texts):
    """Flat per-position (gram, history-token) string lists + per-doc
    bigram counts for one batch."""
    grams: list = []
    hist: list = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = t.split(" ")
        kk = max(len(toks) - 1, 0)
        counts[i] = kk
        grams.extend(toks[j] + " " + toks[j + 1] for j in range(kk))
        hist.extend(toks[:kk])
    return grams, hist, counts


def _micronat_terms(hv, hu, model):
    """int64 floor(1e6 * ln((c_ab+1)/(c_a+V)) + 0.5) per bigram
    position under one broadcast model — the cross-engine contract."""
    (gh, gc), (uh, uc, V) = model
    c_ab = np.zeros(len(hv), dtype=np.int64)
    if len(gh):
        idx = np.searchsorted(gh, hv)
        idx[idx == len(gh)] = 0
        hit = gh[idx] == hv
        c_ab[hit] = gc[idx[hit]]
    c_a = np.zeros(len(hu), dtype=np.int64)
    if len(uh):
        idx = np.searchsorted(uh, hu)
        idx[idx == len(uh)] = 0
        hit = uh[idx] == hu
        c_a[hit] = uc[idx[hit]]
    return np.floor(
        1e6 * np.log((c_ab + 1).astype(np.float64)
                     / (c_a + V).astype(np.float64)) + 0.5
    ).astype(np.int64)


def lm_perplexity(docs_ds, min_count: int = 1):
    """Per-doc bigram-LM negative log-likelihood — the CCNet quality
    signal (Wenzek et al., LREC 2020: score every crawl document under
    a language model, filter/tier by perplexity), with the LM trained
    on the corpus itself in the same job.  Model: add-one-smoothed
    bigram LM, ``P(b|a) = (c_ab + 1) / (c_a + V)``.

    Determinism contract (cross-engine, like ``graph.edge_pmi``): each
    bigram term is the int64 ``floor(1e6 * ln((c_ab+1)/(c_a+V)) + 0.5)``
    ("micronats", :func:`_micronat_terms`) — ONE double division of
    exact int64 counts and one ``ln``, evaluated in identical order on
    both engines, rounded onto the 1e-6 grid BEFORE the per-doc sum,
    so the sum is exact integer arithmetic and independent of
    summation order / partitioning.

    Dataflow (all slim): model training + broadcast is
    :func:`_bigram_model_refs` (two partial-count shuffles, count
    tables worker-built as sorted md5-64 + int64 arrays, zero driver
    materialization); scoring is ONE streaming ``map_batches`` pass —
    batch-wide md5, two ``searchsorted`` probes, per-doc segmented
    integer sums.

    ``min_count`` prunes the broadcast bigram table for web-scale
    corpora (a pruned bigram scores exactly like an unseen one — the
    +1 smoothing mass); the oracle query runs unpruned.  Docs with
    fewer than 2 tokens have no bigrams and are omitted (as in SQL).

    Output: (doc_id, n_bigrams, nll_micronats); perplexity =
    ``exp(nll_micronats / 1e6 / n_bigrams)`` is a consumer-side float.
    """
    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import _side_object

    big_ref, uni_ref = _bigram_model_refs(docs_ds, min_count=min_count)

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_bigrams", pa.int64()),
            ("nll_micronats", pa.int64()),
        ]
    )

    def score(batch: pd.DataFrame) -> pa.Table:
        model = (_side_object(big_ref), _side_object(uni_ref))
        texts = list(batch["text"])
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        grams, hist, counts = _batch_bigram_arrays(texts)
        if not grams:
            return out_schema.empty_table()
        term = _micronat_terms(
            H.md5_hash64_batch(grams), H.md5_hash64_batch(hist), model
        )
        tot = np.zeros(len(texts), dtype=np.int64)
        np.add.at(tot, np.repeat(np.arange(len(texts)), counts), term)
        sel = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_bigrams": pa.array(counts[sel], pa.int64()),
                "nll_micronats": pa.array(-tot[sel], pa.int64()),
            }
        )

    return docs_ds.map_batches(score, batch_format="pandas")


def _dual_bigram_model_refs(docs_ds, target_mod: int, min_count: int = 1):
    """Train the TARGET (doc_id %% target_mod == 0) and RAW (full
    corpus) bigram LMs in the SAME two counting passes: each batch
    emits (gram, n_total, n_target) partial rows, one groupby sums
    both, and the broadcast builder splits the merged table into the
    two sorted-hash models — halving the corpus passes vs fitting the
    models independently (5 -> 3 passes for DSIR).  Returns
    (t_big, t_uni, r_big, r_uni) ObjectRefs with the same shapes as
    :func:`_bigram_model_refs` produces."""
    from ray.data.aggregate import Sum

    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import _worker_built_ref

    _BP = pa.schema(
        [("g", pa.string()), ("n", pa.int64()), ("nt", pa.int64())]
    )

    def bigram_partial(batch: pd.DataFrame) -> pa.Table:
        grams: list = []
        tgt: list = []
        ids = batch["doc_id"].to_numpy()
        for i, t in enumerate(batch["text"]):
            toks = t.split(" ")
            k = len(toks) - 1
            grams.extend(
                toks[j] + " " + toks[j + 1] for j in range(k)
            )
            tgt.extend([int(ids[i]) % target_mod == 0] * max(k, 0))
        if not grams:
            return _BP.empty_table()
        df = pd.DataFrame({"g": grams, "t": np.asarray(tgt)})
        gr = df.groupby("g", sort=False)["t"].agg(["size", "sum"])
        return arrow_block(
            gr.rename(columns={"size": "n", "sum": "nt"})
            .astype({"n": "int64", "nt": "int64"})
            .reset_index(),
            schema=_BP,
        )

    def uni_partial(batch: pd.DataFrame) -> pa.Table:
        toks: list = []
        tgt: list = []
        ids = batch["doc_id"].to_numpy()
        for i, t in enumerate(batch["text"]):
            ts = t.split(" ")
            toks.extend(ts)
            tgt.extend([int(ids[i]) % target_mod == 0] * len(ts))
        if not toks:
            return _BP.empty_table()
        df = pd.DataFrame({"g": toks, "t": np.asarray(tgt)})
        gr = df.groupby("g", sort=False)["t"].agg(["size", "sum"])
        return arrow_block(
            gr.rename(columns={"size": "n", "sum": "nt"})
            .astype({"n": "int64", "nt": "int64"})
            .reset_index(),
            schema=_BP,
        )

    def counts_of(partial_fn):
        return (
            pre_shuffle(
                docs_ds.map_batches(partial_fn, batch_format="pandas")
            )
            .groupby("g")
            .aggregate(Sum("n", alias_name="n"), Sum("nt", alias_name="nt"))
        )

    def build_pair(tables, with_v: bool, prune: bool):
        # ``prune`` follows _bigram_model_refs semantics: min_count
        # trims the BIGRAM tables only — both unigram (history) count
        # arrays stay unpruned, and V is the unpruned vocab size.
        gs: list = []
        ns: list = []
        nts: list = []
        for t in tables:
            if t.num_rows:
                gs.extend(t["g"].to_pylist())
                ns.append(t["n"].to_numpy(zero_copy_only=False))
                nts.append(t["nt"].to_numpy(zero_copy_only=False))
        if not gs:
            z = (np.empty(0, np.uint64), np.empty(0, np.int64))
            zz = z + (0,) if with_v else z
            return (zz, zz)
        hv = H.md5_hash64_batch(gs)
        n = np.concatenate(ns).astype(np.int64)
        nt = np.concatenate(nts).astype(np.int64)
        if prune and min_count > 1:
            keep_r = n >= min_count
        else:
            keep_r = np.ones(len(n), dtype=bool)
        o = np.argsort(hv)
        hv, n, nt, keep_r = hv[o], n[o], nt[o], keep_r[o]
        tm = nt > 0
        if prune and min_count > 1:
            tm &= nt >= min_count
        raw = (hv[keep_r], n[keep_r])
        tgt = (hv[tm], nt[tm])
        if with_v:
            raw = raw + (len(hv),)
            tgt = tgt + (int((nt > 0).sum()),)
        return (tgt, raw)

    big_pair_ref = _worker_built_ref(
        counts_of(bigram_partial),
        lambda ts: build_pair(ts, with_v=False, prune=True),
    )
    uni_pair_ref = _worker_built_ref(
        counts_of(uni_partial),
        lambda ts: build_pair(ts, with_v=True, prune=False),
    )

    return big_pair_ref, uni_pair_ref



def dsir_weights(docs_ds, target_mod: int = 10, min_count: int = 1):
    """DSIR importance weights (Xie et al., NeurIPS 2023, "Data
    Selection for Language Models via Importance Resampling"): score
    every document by ``log p_target(doc) - log p_raw(doc)`` under two
    n-gram LMs — one trained on a small in-domain target slice, one on
    the full raw corpus — then resample the corpus proportionally to
    the weights.  Here the target slice is the held-out benchmark
    partition (``doc_id % target_mod == 0``, the same convention as
    ``stages/decontam``) and both models are the add-one bigram LM of
    :func:`lm_perplexity`.

    Same micronat integer contract per bigram term
    (:func:`_micronat_terms`), so the per-doc weight is the exact
    int64 sum of per-position term differences — partition-invariant
    and reproducible by the DuckDB oracle (query ``ta_dsir_weights``).

    Dataflow: two model fits (4 slim count shuffles; the target fit
    reads only the target slice), both models broadcast worker-built,
    then ONE streaming scoring pass probing all four arrays.  Output:
    (doc_id, n_bigrams, weight_micronats), docs with no bigrams
    omitted; resampling = keep docs where weight (plus Gumbel noise,
    consumer-side) clears a quantile.
    """
    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import _side_object

    big_pair_ref, uni_pair_ref = _dual_bigram_model_refs(
        docs_ds, target_mod=target_mod, min_count=min_count
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_bigrams", pa.int64()),
            ("weight_micronats", pa.int64()),
        ]
    )

    def score(batch: pd.DataFrame) -> pa.Table:
        t_big, r_big = _side_object(big_pair_ref)
        t_uni, r_uni = _side_object(uni_pair_ref)
        tm, rm = (t_big, t_uni), (r_big, r_uni)
        texts = list(batch["text"])
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        grams, hist, counts = _batch_bigram_arrays(texts)
        if not grams:
            return out_schema.empty_table()
        hv, hu = H.md5_hash64_batch(grams), H.md5_hash64_batch(hist)
        diff = _micronat_terms(hv, hu, tm) - _micronat_terms(hv, hu, rm)
        tot = np.zeros(len(texts), dtype=np.int64)
        np.add.at(tot, np.repeat(np.arange(len(texts)), counts), diff)
        sel = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_bigrams": pa.array(counts[sel], pa.int64()),
                "weight_micronats": pa.array(tot[sel], pa.int64()),
            }
        )

    return docs_ds.map_batches(score, batch_format="pandas")


def dsir_resample(docs_ds, target_mod: int = 10,
                  keep_fraction: float = 1 / 3):
    """DSIR's SELECTION step (Xie et al. §3.2), closing the
    weights -> resample loop: keep the top ``keep_fraction`` of the
    corpus by importance weight.  Deterministic variant: the cut is
    the exact ``(1 - keep_fraction)`` order statistic of
    weight_micronats (3 bounded quantile passes, no sort) and a doc is
    kept iff its weight is STRICTLY above the cut (ties OUT — the same
    ties-low rule as :func:`ppl_tiers`), so both engines agree
    bit-exactly; the paper's Gumbel-noise top-k is this cut with
    per-doc noise keys added consumer-side.

    Output: (doc_id, weight_micronats, keep) — the decision table a
    curation pass consumes; docs with no bigrams are omitted (they
    carry no weight).
    """
    from rex_ray.stages.quantiles import grouped_exact_quantiles

    scored = dsir_weights(docs_ds, target_mod=target_mod)

    def to_metric(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks(),
                "weight_micronats": t["weight_micronats"].combine_chunks(),
                "g": pa.array(["all"] * t.num_rows, pa.string()),
            }
        )

    m = scored.map_batches(to_metric, batch_format="pyarrow").materialize()
    qrows = grouped_exact_quantiles(
        m, "g", "weight_micronats", ps=(1 - keep_fraction,)
    ).take_all()
    cut = int(qrows[0]["q"])

    def assign(t: pa.Table) -> pa.Table:
        wm = t["weight_micronats"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks(),
                "weight_micronats": t["weight_micronats"].combine_chunks(),
                "keep": pa.array(wm > cut, pa.bool_()),
            }
        )

    return m.map_batches(assign, batch_format="pyarrow")


def ppl_tiers(docs_ds, min_count: int = 1):
    """CCNet's head/middle/tail corpus split (Wenzek et al., LREC'20,
    §4.3): rank every document by LM perplexity and cut the corpus at
    the 1/3 and 2/3 order statistics — 'head' is the cleanest third
    used for training, 'tail' the noisiest.

    The ranking metric is exact int64 ``nll_micronats // n_bigrams``
    (micronats per bigram — monotone in perplexity), and the two cut
    points are the exact ``max(1, ceil(p*n))``-th smallest metrics via
    :func:`rex_ray.stages.quantiles.grouped_exact_quantiles` (3
    bounded passes, no sort, no gather).  Tier assignment is by VALUE
    against the cuts (ties all land in the lower tier), so the result
    is deterministic and the DuckDB oracle replays it bit-exactly.

    The slim (doc_id, metric) table is materialized once so the
    quantile passes and the final assignment don't re-train the LM —
    16 bytes/row in the object store (spillable), never the driver.

    Output: (doc_id, metric, tier); docs without bigrams are omitted
    (they have no perplexity).
    """
    from rex_ray.stages.quantiles import grouped_exact_quantiles

    scored = lm_perplexity(docs_ds, min_count=min_count)

    def to_metric(t: pa.Table) -> pa.Table:
        nll = t["nll_micronats"].to_numpy(zero_copy_only=False)
        nb = t["n_bigrams"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks(),
                "metric": pa.array(nll // nb, pa.int64()),
                "g": pa.array(["all"] * t.num_rows, pa.string()),
            }
        )

    m = scored.map_batches(to_metric, batch_format="pyarrow").materialize()
    qrows = grouped_exact_quantiles(
        m, "g", "metric", ps=(1 / 3, 2 / 3)
    ).take_all()
    cuts = sorted((r["p"], int(r["q"])) for r in qrows)
    c1, c2 = cuts[0][1], cuts[1][1]

    def assign(t: pa.Table) -> pa.Table:
        met = t["metric"].to_numpy(zero_copy_only=False)
        tier = np.where(
            met <= c1, "head", np.where(met <= c2, "middle", "tail")
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks(),
                "metric": t["metric"].combine_chunks(),
                "tier": pa.array(tier.tolist(), pa.string()),
            }
        )

    return m.map_batches(assign, batch_format="pyarrow")


def skipgram_pairs(docs_ds, window: int = 2):
    """word2vec skip-gram training-pair counts (Mikolov et al., 2013):
    corpus-wide (center, context, n) for every token pair within
    ``window`` positions inside a document — the pair-generation pass
    an embedding-training pipeline runs over the whole corpus.

    One streaming pass: each batch concatenates its token streams with
    a doc-boundary array, builds all pairs per offset with two shifted
    views + a boundary mask (no per-position Python), and emits
    per-batch partial counts; ONE groupby-sum shuffle of distinct-pair
    rows merges (shuffle rows ~ distinct pairs per batch, never
    positions).  Both directions are emitted, matching the symmetric
    SQL window join.
    """
    from ray.data.aggregate import Sum

    _PARTIAL = pa.schema(
        [("center", pa.string()), ("context", pa.string()),
         ("n", pa.int64())]
    )

    def partial(batch: pd.DataFrame) -> pa.Table:
        toks_all: list = []
        docb: list = []
        for di, t in enumerate(batch["text"]):
            ts = t.split(" ")
            toks_all.extend(ts)
            docb.extend([di] * len(ts))
        if len(toks_all) < 2:
            return _PARTIAL.empty_table()
        toks = np.asarray(toks_all, dtype=object)
        db = np.asarray(docb, dtype=np.int64)
        cs: list = []
        xs: list = []
        for off in range(1, window + 1):
            if off >= len(toks):
                break
            ok = db[off:] == db[:-off]
            a, b = toks[:-off][ok], toks[off:][ok]
            cs.append(a)
            xs.append(b)
            cs.append(b)
            xs.append(a)
        if not cs:
            return _PARTIAL.empty_table()
        df = pd.DataFrame(
            {"center": np.concatenate(cs), "context": np.concatenate(xs)}
        )
        g = (
            df.groupby(["center", "context"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return arrow_block(g, schema=_PARTIAL)

    return (
        pre_shuffle(docs_ds.map_batches(partial, batch_format="pandas"))
        .groupby(["center", "context"])
        .aggregate(Sum("n", alias_name="n"))
    )


def chunk_documents(docs_ds, chunk_tokens: int = 64, overlap: int = 16):
    """RAG-style document chunking: split every document into
    fixed-size token windows with overlap (stride = chunk_tokens −
    overlap), each chunk carrying a stable (doc_id, chunk_id) key and
    its token span — the standard retrieval-corpus preparation pass
    (LangChain/LlamaIndex chunkers; fixed-stride variant so ids are a
    pure function of position and re-runs/shards are stable).

    Pure map-side flat-map (one streaming pass, no shuffle): output
    rows = ceil(n_tokens / stride) per doc — one window per stride
    start position inside the document, so a trailing window that is
    fully contained in its predecessor is still emitted (e.g. 64
    tokens with chunk_tokens=64, overlap=16 → 2 chunks).  The SQL
    oracle implements the identical formula.  Output: (doc_id,
    chunk_id, start_tok 1-based, n_tokens, chunk_text).
    """
    stride = chunk_tokens - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_tokens")

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("chunk_id", pa.int64()),
            ("start_tok", pa.int64()),
            ("n_tokens", pa.int64()),
            ("chunk_text", pa.string()),
        ]
    )

    def chunks(batch: pd.DataFrame) -> pa.Table:
        ids: list = []
        cids: list = []
        starts: list = []
        lens: list = []
        texts: list = []
        for doc_id, t in zip(batch["doc_id"], batch["text"]):
            ts = t.split(" ")
            n = len(ts)
            c = 0
            for s in range(0, n, stride):
                w = ts[s: s + chunk_tokens]
                ids.append(doc_id)
                cids.append(c)
                starts.append(s + 1)
                lens.append(len(w))
                texts.append(" ".join(w))
                c += 1
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_id": pa.array(cids, pa.int64()),
                "start_tok": pa.array(starts, pa.int64()),
                "n_tokens": pa.array(lens, pa.int64()),
                "chunk_text": pa.array(texts, pa.string()),
            },
            schema=out_schema,
        )

    return docs_ds.map_batches(chunks, batch_format="pandas")


def stratified_bottomk(ds, strata_col: str, id_col: str, k: int = 100):
    """Per-stratum deterministic uniform sample — the data-MIXING
    primitive ('k uniform docs from EVERY language / source / quality
    tier', the inspection + mixture-calibration tool at 100 TB):
    within each stratum, the k rows with the smallest md5(id), the
    same KMV rule as :func:`bottomk_sample`, so re-runs, shard counts
    and cluster sizes cannot change any stratum's sample.

    Associative: each batch emits <= k partial rows PER STRATUM SEEN
    IN IT; one per-stratum group merge finishes — the shuffle carries
    O(k x strata x batches), never the corpus.  Output:
    (strata_col, id_col, h)."""
    import hashlib

    def partial(t: pa.Table) -> pa.Table:
        strat = t[strata_col].to_pylist()
        ids = t[id_col].to_pylist()
        h = [hashlib.md5(str(v).encode()).hexdigest() for v in ids]
        by: dict = {}
        for i, s in enumerate(strat):
            by.setdefault(s, []).append(i)
        keep: list = []
        for s, idxs in by.items():
            idxs.sort(key=lambda i: (h[i], ids[i]))
            keep.extend(idxs[:k])
        keep.sort()
        return pa.table(
            {
                strata_col: pa.array(
                    [strat[i] for i in keep], t[strata_col].type
                ),
                id_col: pa.array([ids[i] for i in keep], t[id_col].type),
                "h": pa.array([h[i] for i in keep], pa.string()),
            }
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", id_col]).head(k).reset_index(drop=True)
        return arrow_block(g)

    part = pre_shuffle(ds.map_batches(partial, batch_format="pyarrow"))
    return part.groupby(strata_col).map_groups(
        finish, batch_format="pandas"
    )
