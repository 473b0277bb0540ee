"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale notes (each documented per stage): exact dedup and LSH bucketing
shuffle only small derived keys; the embedding near-dup is an exact
block-partitioned distributed self-join (bounded per-group memory, no
driver materialization); the sub-quadratic approximate path is IVF /
LSH bucketing in ``stages/similarity.py``.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

import numpy as np
import pandas as pd

from rex_ray import trace
from rex_ray.functions import hashing as H
from rex_ray.functions import text as T
from rex_ray.functions.blocks import (
    arrow_block,
    pre_shuffle,
)

import pyarrow as pa

_PAIR_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_groups(docs_ds):
    """Group docs by normalized content; emit (survivor_doc_id = min id,
    group_size).  The shuffle key is the normalized text itself (at
    scale: its md5, same semantics, fixed-width key); partial per-batch
    min/count keeps the exchange small."""
    from ray.data.aggregate import Min, Sum

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        key = T.normalize_dedup_text(batch["text"])
        g = (
            pd.DataFrame({"k": key, "doc_id": batch["doc_id"]})
            .groupby("k", sort=False)
            .agg(survivor_doc_id=("doc_id", "min"), group_size=("doc_id", "size"))
        )
        g["group_size"] = g["group_size"].astype("int64")
        return arrow_block(g.reset_index())  # Arrow into the shuffle

    partial = pre_shuffle(docs_ds.map_batches(combine, batch_format="pandas"))
    merged = partial.groupby("k").aggregate(
        Min("survivor_doc_id", alias_name="survivor_doc_id"),
        Sum("group_size", alias_name="group_size"),
    )
    return merged.drop_columns(["k"])


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

SHINGLE_SEP = "\x1f"  # unit separator; never occurs in token text


class ShingleSketcher:
    """doc -> (doc_id, sh: string) distinct k-token shingles joined
    with :data:`SHINGLE_SEP` (Arrow's hash join rejects list-typed
    payload columns, so the sketch rides as one string).  The sketch
    side table is computed ONCE and joined to hot bucket rows only —
    the per-band shuffle never carries text."""

    def __init__(self, k: int = 3):
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        norm = T.normalize_dedup_text(batch["text"])
        sh = [
            SHINGLE_SEP.join(sorted(H.token_shingles(t.split(" "), self.k)))
            for t in norm
        ]
        return pa.table(
            {
                "doc_id": pa.array(batch["doc_id"], type=pa.int64()),
                "sh": pa.array(sh, type=pa.string()),
            }
        )


class MinHashBander:
    """sketch rows -> SLIM LSH band rows (band_key, doc_id) — 16 bytes
    of key + id per band, constant regardless of document size (the
    round-1 version shipped norm_text x num_bands through the
    shuffle).  ``band_key`` folds (band_id, band_hash) into one int64;
    a key collision merely merges two buckets, adding candidates the
    exact-Jaccard verify rejects."""

    def __init__(self, num_perm: int = 64, num_bands: int = 16):
        self.mh = H.MinHasher(num_perm=num_perm)
        self.num_bands = num_bands

    def band_key_matrix(self, shingle_lists) -> np.ndarray:
        """(n_docs, num_bands) int64 folded band keys — fully
        vectorized (batch signatures + band hashes + key fold)."""
        sigs = self.mh.signatures(shingle_lists)
        bh = self.mh.band_matrix(sigs, self.num_bands)
        gold = np.arange(self.num_bands, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        return (
            (bh ^ gold[None, :]) & np.uint64((1 << 63) - 1)
        ).astype(np.int64)

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        keys = self.band_key_matrix(
            [sh.split(SHINGLE_SEP) for sh in batch["sh"]]
        )
        return arrow_block(
            pd.DataFrame(
                {
                    "band_key": keys.reshape(-1),
                    "doc_id": np.repeat(
                        batch["doc_id"].to_numpy(), self.num_bands
                    ),
                }
            ),
            schema=pa.schema(
                [("band_key", pa.int64()), ("doc_id", pa.int64())]
            ),
        )


_SIDE_CACHE: dict = {}


def _worker_built_ref(ds, build_fn):
    """Reduce a (small) Dataset into one broadcastable Python object
    INSIDE a Ray task — the driver only ever holds the ObjectRef, so
    there is no driver-side row materialization.  ``build_fn`` receives
    the dataset's Arrow tables and returns the object (a key set, a
    lookup dict, ...)."""
    import ray as _ray

    @_ray.remote
    def build(*tables):
        return build_fn(tables)

    return build.remote(*ds.to_arrow_refs())


def _side_object(ref):
    """Resolve a broadcast side object once per worker process."""
    key = ref.hex()
    obj = _SIDE_CACHE.get(key)
    if obj is None:
        import ray as _ray

        obj = _SIDE_CACHE[key] = _ray.get(ref)
        while len(_SIDE_CACHE) > 8:
            _SIDE_CACHE.pop(next(iter(_SIDE_CACHE)))
    return obj


def _hot_key_ds(bands_ds, key_col: str):
    """Dataset of bucket keys holding >= 2 rows — the only buckets that
    can emit a candidate pair.  Vectorized Arrow partial count + one
    tiny aggregate; the shuffle carries one row per (key, batch)."""
    from ray.data.aggregate import Sum

    partial = bands_ds.map_batches(
        lambda t: t.select([key_col])
        .group_by(key_col)
        .aggregate([(key_col, "count")])
        .rename_columns([key_col, "n"]),
        batch_format="pyarrow",
    )
    counts = pre_shuffle(partial).groupby(key_col).aggregate(
        Sum("n", alias_name="n")
    )
    return counts.filter(expr="n >= 2").drop_columns(["n"])


def _broadcast_hot_filter(bands_ds, hot_keys, key_col: str):
    """Map-side filter of ``bands_ds`` to the ``hot_keys`` key set,
    built INSIDE a worker (``_worker_built_ref``) — no driver rows, and
    none of ``Dataset.join``'s actor-pool spin-up (measured ~30 s of
    fixed overhead per join at sf0.1).  Small-side assumption: the
    hot-key set (O(duplicate clusters)) fits one worker's heap — the
    caller must route to :func:`_join_hot_filter` beyond that."""
    key_ref = _worker_built_ref(
        hot_keys,
        lambda tables: set().union(
            *(
                t[key_col].to_pylist()
                for t in tables
                if key_col in t.schema.names
            )
        )
        if any(key_col in t.schema.names for t in tables)
        else set(),
    )
    import pyarrow.compute as pc

    def keep_hot(t: pa.Table, _ref=key_ref, _col=key_col) -> pa.Table:
        keys = _side_object(_ref)
        if not keys:
            return t.schema.empty_table()
        vs = pa.array(sorted(keys), type=t[_col].type)
        return t.filter(pc.is_in(t[_col], value_set=vs))

    return bands_ds.map_batches(keep_hot, batch_format="pyarrow")


def _join_hot_filter(bands_ds, hot_keys, key_col: str):
    """Degradation path of :func:`_broadcast_hot_filter`: semi-join via
    an exact hash join when the hot-key set is too large to broadcast
    (dup-heavy crawls where 30-60%% of the corpus is duplicated and the
    hot-key set IS the corpus).  The shuffle carries the slim 16-byte
    band rows — bounded per-partition memory, no single-worker set."""
    from rex_ray.stages.relational import hash_join

    return hash_join(bands_ds, hot_keys, on=key_col)


def _hot_bucket_rows(bands_ds, key_col: str):
    """Band rows in buckets holding >= 2 rows (broadcast-filter path;
    see :func:`_broadcast_hot_filter` for the small-side contract)."""
    return _broadcast_hot_filter(bands_ds, _hot_key_ds(bands_ds, key_col),
                                 key_col)


def minhash_dup_pairs(docs_ds, threshold: float = 0.9, k: int = 3,
                      max_broadcast_keys: int = None):
    """LSH candidate generation + exact-Jaccard verification.

    Dataflow (every exchange carries bounded rows):
      1. sketch side table (doc_id, shingles, band keys) — one pass
         over text;
      2. slim band rows (band_key, doc_id) from the sketches;
      3. hot buckets via partial counts + a worker-built broadcast
         key-set filter (no driver rows, no join operator);
      4. hot-DOC sketches broadcast as a worker-built lookup dict;
         exact Jaccard verified inside each bucket group over the
         slim hot rows;
      5. pair dedup is MAP-SIDE: each pair is emitted only from its
         minimal shared bucket (both docs' band-key sets ride the
         broadcast dict), so no global pair shuffle is needed.
    Returns (doc_a, doc_b) with doc_a < doc_b.  Small-side assumption
    (documented in :func:`_broadcast_hot_filter`): hot keys / hot-doc
    sketches are O(duplicate clusters) and fit one worker's heap —
    beyond ``max_broadcast_keys`` hot keys the verify tail degrades
    automatically to the sketch-through-shuffle join regime
    (:func:`_sketch_join_pairs`), same answer, no broadcast object.
    """
    # ONE fused pass over the text emits both outputs as a tagged
    # union (band rows kind='b' with null sh; sketch rows kind='s'
    # with null band_key and the doc's full band-key list) — shingles
    # are computed once, and a single materialize feeds all downstream
    # consumers via cheap map-side filters.  Task-based: the hash
    # family is tiny and ships with the task.
    sketcher, bander = ShingleSketcher(k=k), MinHashBander()

    def fused(batch: pd.DataFrame) -> pa.Table:
        norm = T.normalize_dedup_text(batch["text"])
        shingle_lists = [
            sorted(H.token_shingles(t.split(" "), sketcher.k)) for t in norm
        ]
        doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        keys = bander.band_key_matrix(shingle_lists)  # (n, B) int64
        n_s, B = len(doc_ids), bander.num_bands
        n_b = n_s * B
        return pa.table(
            {
                "kind": pa.array(["s"] * n_s + ["b"] * n_b),
                "doc_id": pa.array(
                    np.concatenate([doc_ids, np.repeat(doc_ids, B)]),
                    type=pa.int64(),
                ),
                "sh": pa.array(
                    [SHINGLE_SEP.join(s) for s in shingle_lists]
                    + [None] * n_b,
                    type=pa.string(),
                ),
                "band_key": pa.concat_arrays(
                    [
                        pa.nulls(n_s, pa.int64()),
                        pa.array(keys.reshape(-1), type=pa.int64()),
                    ]
                ),
                "bands": pa.concat_arrays(
                    [
                        pa.array(
                            keys.tolist(), type=pa.list_(pa.int64())
                        ),
                        pa.nulls(n_b, pa.list_(pa.int64())),
                    ]
                ),
            }
        )

    tagged = docs_ds.map_batches(fused, batch_format="pandas").materialize()
    return _bucketed_jaccard_pairs(
        tagged, key_col="band_key", keyset_col="bands",
        slim_kind="b", threshold=threshold,
        max_broadcast_keys=(
            MAX_BROADCAST_HOT_KEYS
            if max_broadcast_keys is None else max_broadcast_keys
        ),
    )


# Hot-key cardinality bound for the broadcast verify path: ~2M int64
# keys ≈ tens of MB of worker-resident set/dict state.  Below it the
# worker-built broadcast dict wins (no join-operator spin-up); above it
# — a dup-heavy crawl where 30-60% of the corpus duplicates and the
# hot set IS the corpus — the verify tail degrades to shipping
# sketches through the bucket shuffle (bounded per-partition memory,
# no single-worker set).  Round-2 verdict item #2.
MAX_BROADCAST_HOT_KEYS = 2_000_000


def _bucketed_jaccard_pairs(
    tagged, key_col: str, keyset_col: str, slim_kind: str, threshold: float,
    max_broadcast_keys: int = MAX_BROADCAST_HOT_KEYS,
):
    """Shared verify tail of the MinHash-LSH and prefix-filter paths:

    1. hot buckets over the slim (key_col, doc_id) rows (partial
       counts; the hot-key Dataset is materialized once and counted —
       the count picks the regime, noted in the run record as
       ``n_hot_keys`` and ``dedup_regime``);
    2. BROADCAST regime (hot keys <= ``max_broadcast_keys``): hot rows
       via a worker-built key-set filter, hot-DOC sketch lookup built
       worker-side (O(duplicate clusters) entries), in-bucket exact
       Jaccard against the broadcast dict;
    3. JOIN regime (dup-heavy corpus, hot keys above the bound): hot
       rows via an exact hash join, sketches attached to the bucket
       rows by a second hash join on doc_id, and the verify runs on
       in-group columns only — no broadcast object of corpus-
       proportional size anywhere (:func:`_sketch_join_pairs`).

    Pair dedup is MAP-SIDE in both regimes — each pair is emitted only
    from its minimal shared bucket (both docs' key sets are available
    at verify time), so no global pair shuffle is needed.  The two
    regimes are equality-asserted in tests on a 50%-duplicate corpus.
    """
    import pyarrow.compute as pc

    sketches = tagged.filter(expr="kind == 's'").select_columns(
        ["doc_id", "sh", keyset_col]
    )
    slim = tagged.filter(expr=f"kind == '{slim_kind}'").select_columns(
        [key_col, "doc_id"]
    )

    hot_keys = _hot_key_ds(slim, key_col).materialize()
    n_hot = hot_keys.count()
    trace.note(
        n_hot_keys=n_hot,
        dedup_regime="join" if n_hot > max_broadcast_keys else "broadcast",
    )
    if n_hot > max_broadcast_keys:
        return _sketch_join_pairs(
            _join_hot_filter(slim, hot_keys, key_col),
            sketches, key_col, keyset_col, threshold,
        )

    hot = pre_shuffle(_broadcast_hot_filter(slim, hot_keys, key_col))

    doc_ref = _worker_built_ref(
        hot,
        lambda tables: set().union(
            *(
                t["doc_id"].to_pylist()
                for t in tables
                if "doc_id" in t.schema.names
            )
        )
        if any("doc_id" in t.schema.names for t in tables)
        else set(),
    )

    def keep_hot_docs(t: pa.Table, _ref=doc_ref) -> pa.Table:
        docs = _side_object(_ref)
        if not docs:
            return t.schema.empty_table()
        vs = pa.array(sorted(docs), type=pa.int64())
        return t.filter(pc.is_in(t["doc_id"], value_set=vs))

    sketch_ref = _worker_built_ref(
        sketches.map_batches(keep_hot_docs, batch_format="pyarrow"),
        lambda tables: {
            d: (sh, frozenset(kl))
            for t in tables
            if "doc_id" in t.schema.names
            for d, sh, kl in zip(
                t["doc_id"].to_pylist(),
                t["sh"].to_pylist(),
                t[keyset_col].to_pylist(),
            )
        },
    )

    def bucket_pairs(g: pd.DataFrame, _ref=sketch_ref) -> pa.Table:
        rows = []
        if len(g) > 1:
            sk = _side_object(_ref)
            this_key = int(g[key_col].iloc[0])
            ids = sorted(set(g["doc_id"]))
            shingles = {
                d: set(sk[d][0].split(SHINGLE_SEP)) for d in ids
            }
            for da, db in combinations(ids, 2):
                # map-side pair dedup: a colliding pair appears in
                # every bucket the two docs share; only the minimal
                # shared key emits it, so no global pair shuffle
                if min(sk[da][1] & sk[db][1]) != this_key:
                    continue
                if H.jaccard(shingles[da], shingles[db]) >= threshold:
                    rows.append((da, db))
        return arrow_block(
            pd.DataFrame(rows, columns=["doc_a", "doc_b"]),
            schema=_PAIR_SCHEMA,
        )

    return hot.groupby(key_col).map_groups(
        bucket_pairs, batch_format="pandas"
    )


def _sketch_join_pairs(hot, sketches, key_col: str, keyset_col: str,
                       threshold: float):
    """JOIN-regime verify tail: each hot bucket row picks up its doc's
    sketch (sh + full key set) through an exact hash join on doc_id,
    so the per-bucket verify reads ONLY in-group columns.  The shuffle
    grows to O(hot rows x sketch size) — the price of dropping every
    corpus-proportional broadcast object; per-partition memory stays
    bounded by the partition, not the corpus."""
    from rex_ray.stages.relational import hash_join

    # Arrow's hash join rejects list-typed payload columns — ship the
    # key set as one delimited string (parsed once per group).
    def pack_keysets(t: pa.Table) -> pa.Table:
        kls = t[keyset_col].to_pylist()
        packed = pa.array(
            [",".join(str(int(x)) for x in kl) for kl in kls], pa.string()
        )
        return pa.table(
            {"doc_id": t["doc_id"], "sh": t["sh"], "_ks": packed}
        )

    flat_sketches = sketches.map_batches(pack_keysets, batch_format="pyarrow")
    joined = hash_join(hot, flat_sketches, on="doc_id")

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        rows = []
        if len(g) > 1:
            this_key = int(g[key_col].iloc[0])
            g = g.drop_duplicates("doc_id")
            ids = sorted(int(d) for d in g["doc_id"])
            sh = dict(zip((int(d) for d in g["doc_id"]), g["sh"]))
            ks = {
                int(d): frozenset(int(x) for x in kl.split(","))
                for d, kl in zip(g["doc_id"], g["_ks"])
            }
            shingles = {d: set(sh[d].split(SHINGLE_SEP)) for d in ids}
            for da, db in combinations(ids, 2):
                # map-side pair dedup: only the minimal shared bucket
                # key emits the pair (same rule as the broadcast tail)
                if min(ks[da] & ks[db]) != this_key:
                    continue
                if H.jaccard(shingles[da], shingles[db]) >= threshold:
                    rows.append((da, db))
        return arrow_block(
            pd.DataFrame(rows, columns=["doc_a", "doc_b"]),
            schema=_PAIR_SCHEMA,
        )

    return joined.groupby(key_col).map_groups(
        bucket_pairs, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (prefix filtering)
# ---------------------------------------------------------------------------

def _prefix_len(n: int, threshold: float) -> int:
    """SSJoin prefix bound: a pair with Jaccard >= t has shingle
    overlap >= ceil(t*|A|), so at most |A| - ceil(t*|A|) elements of A
    miss B; the first |A| - ceil(t*|A|) + 1 elements in ANY global
    canonical order must therefore contain a shared element.  The tiny
    epsilon keeps float error from rounding an exact integer product
    up (which would SHORTEN the prefix and break recall)."""
    import math

    alpha = int(math.ceil(threshold * n - 1e-12))
    return max(1, min(n, n - alpha + 1))


def ngram_jaccard_dup_pairs(docs_ds, threshold: float = 0.8, k: int = 3,
                            max_broadcast_keys: int = None):
    """EXACT n-gram Jaccard near-dup via prefix filtering (the
    SSJoin/PPJoin family — Chaudhuri et al. ICDE'06, Xiao et al.
    WWW'08): emits EVERY pair with Jaccard(shingles_a, shingles_b) >=
    threshold.  Unlike MinHash+LSH there is no probabilistic recall
    loss, yet candidate generation stays sub-quadratic: docs are
    bucketed only on their PREFIX shingles (canonical order = stable
    64-bit shingle hash), and the prefix bound guarantees every
    qualifying pair shares a prefix bucket.

    Dataflow mirrors :func:`minhash_dup_pairs` (every exchange
    bounded): one fused text pass emits a tagged union of sketch rows
    (doc_id, sh, prefix-hash list) and SLIM prefix rows (bucket_key,
    doc_id — 16 bytes); hot buckets via partial counts + worker-built
    broadcast filter; exact Jaccard verified in-bucket against a
    broadcast hot-doc sketch dict; pair dedup is map-side (only the
    minimal shared prefix bucket emits a pair).  Scale notes: prefix
    rows are ~(1-t)*|shingles| per doc; at scale, replace hash order
    with a corpus-frequency order (rarest-first) to shrink hot
    buckets further — same theorem, smaller buckets.
    """
    sketcher = ShingleSketcher(k=k)

    def fused(batch: pd.DataFrame) -> pa.Table:
        sk_t = sketcher(batch)
        doc_ids = sk_t["doc_id"].to_pylist()
        shs = sk_t["sh"].to_pylist()
        pref_lists: List[List[int]] = []
        rows_key: List[int] = []
        rows_doc: List[int] = []
        for doc_id, sh in zip(doc_ids, shs):
            sset = sh.split(SHINGLE_SEP)
            hv = np.sort(
                H._stable_hash64(sset).view(np.int64)
            )  # canonical global order = hash64 value
            pref = hv[: _prefix_len(len(sset), threshold)]
            pref_lists.append([int(x) for x in pref])
            rows_key.extend(int(x) for x in pref)
            rows_doc.extend([doc_id] * len(pref))
        n_s, n_p = len(doc_ids), len(rows_key)
        return pa.table(
            {
                "kind": pa.array(["s"] * n_s + ["p"] * n_p),
                "doc_id": pa.array(doc_ids + rows_doc, type=pa.int64()),
                "sh": pa.array(shs + [None] * n_p, type=pa.string()),
                "bucket_key": pa.array(
                    [None] * n_s + rows_key, type=pa.int64()
                ),
                "pref": pa.array(
                    pref_lists + [None] * n_p, type=pa.list_(pa.int64())
                ),
            }
        )

    tagged = docs_ds.map_batches(fused, batch_format="pandas").materialize()
    return _bucketed_jaccard_pairs(
        tagged, key_col="bucket_key", keyset_col="pref",
        slim_kind="p", threshold=threshold,
        max_broadcast_keys=(
            MAX_BROADCAST_HOT_KEYS
            if max_broadcast_keys is None else max_broadcast_keys
        ),
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """doc -> 64-bit SimHash (hex) of its normalized tokens.  Token
    hash is md5-top-64 so the table is oracle-checkable (DuckDB
    computes the identical simhash in SQL)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        norm = T.normalize_dedup_text(batch["text"])
        hv = H.simhash64_batch(
            [t.split(" ") for t in norm], hasher=H.md5_hash64_batch
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "simhash": [f"{int(h):016x}" for h in hv],
            }
        )


def simhash_table(docs_ds):
    return docs_ds.map_batches(SimHasher(), batch_format="pandas")


def simhash_dup_pairs(docs_ds, max_hamming: int = 3):
    """SimHash near-dup: bucket by each of 4 16-bit chunks (a pair
    within hamming distance 3 of 64 bits shares at least one exact
    16-bit chunk — pigeonhole), verify hamming inside buckets."""
    from ray.data.aggregate import Count

    def band_rows(batch: pd.DataFrame):
        norm = T.normalize_dedup_text(batch["text"])
        sh = H.simhash64_batch(
            [t.split(" ") for t in norm], hasher=H.md5_hash64_batch
        )  # (n,) uint64 — same md5 simhash as simhash_table
        doc = np.asarray(batch["doc_id"], dtype=np.int64)
        c = np.arange(4, dtype=np.uint64)
        # exact composite key: chunk_id in the high bits
        keys = (
            (c[None, :] << np.uint64(16))
            | ((sh[:, None] >> (np.uint64(16) * c[None, :])) & np.uint64(0xFFFF))
        ).astype(np.int64)
        return arrow_block(
            pd.DataFrame(
                {
                    "band_key": keys.reshape(-1),
                    "doc_id": np.repeat(doc, 4),
                    "simhash": np.repeat(sh, 4),
                }
            )
        )

    bands = docs_ds.map_batches(band_rows, batch_format="pandas").materialize()

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        if len(g) > 1:
            docs = sorted(zip(g["doc_id"], g["simhash"]))
            for (da, ha), (db, hb) in combinations(docs, 2):
                if da != db and H.hamming64(int(ha), int(hb)) <= max_hamming:
                    rows.append((da, db))
        return arrow_block(
            pd.DataFrame(rows, columns=["doc_a", "doc_b"]),
            schema=_PAIR_SCHEMA,
        )

    # simhash band rows are self-contained (8-byte hash rides along) —
    # hot-bucket semi-join, then per-bucket hamming verify
    hot = _hot_bucket_rows(bands, "band_key")
    cand = pre_shuffle(hot).groupby("band_key").map_groups(
        bucket_pairs, batch_format="pandas"
    )
    return pre_shuffle(cand).groupby(["doc_a", "doc_b"]).aggregate(
        Count(alias_name="_nb")
    ).drop_columns(["_nb"])


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(
    emb_ds,
    threshold: float,
    id_col: str = "vec_id",
    chunk_rows: int = 65536,
):
    """Exact all pairs with cosine similarity >= threshold, distributed.

    Block-partitioned self-join (no driver materialization anywhere):

    1. vectors hash into ``P = ceil(n / chunk_rows)`` chunks by id;
    2. each vector fans out to the P chunk-PAIR groups its chunk
       participates in (one shuffle of n x P rows);
    3. each group (a, b) holds ONLY chunks a and b — bounded worker
       memory — and runs one float64 matmul: triangular within the
       diagonal group, full cross between distinct chunks.

    Every unordered vector pair lands in exactly ONE group (the group
    of its two chunks), so the output needs no global pair dedup and
    no second shuffle.  Compute is the inherent O(n^2) of exact
    all-pairs, spread over P*(P+1)/2 independent groups; for a
    sub-quadratic approximate path, bucket with
    ``similarity._assign_buckets`` (or hyperplane LSH) first and
    verify inside buckets — recall < 1 by design there.
    """
    import math

    n = emb_ds.count()
    P = max(1, math.ceil(n / chunk_rows))

    def fanout(batch: pd.DataFrame) -> pa.Table:
        nb = len(batch)
        c = (batch[id_col].to_numpy() % P).astype(np.int64)
        rep = np.repeat(np.arange(nb), P)
        q = np.tile(np.arange(P, dtype=np.int64), nb)
        cr = c[rep]
        a = np.minimum(cr, q)
        b = np.maximum(cr, q)
        out = batch.iloc[rep].reset_index(drop=True)
        out["pair_key"] = a * P + b
        out["side"] = (cr != a).astype(np.int8)
        return arrow_block(out)

    pair_schema = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64())])

    def pair_group(g: pd.DataFrame) -> pa.Table:
        key = int(g["pair_key"].iloc[0])
        a, b = key // P, key % P
        ga = g[g["side"] == 0].sort_values(id_col)
        A = np.stack(ga["embedding"].to_numpy()).astype(np.float64)
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        aids = ga[id_col].to_numpy()
        if a == b:
            sims = A @ A.T
            i, j = np.nonzero(np.triu(sims >= threshold, k=1))
            out_a, out_b = aids[i], aids[j]  # aids sorted -> a < b
        else:
            gb = g[g["side"] == 1]
            if len(ga) == 0 or len(gb) == 0:
                return pair_schema.empty_table()
            B = np.stack(gb["embedding"].to_numpy()).astype(np.float64)
            B /= np.linalg.norm(B, axis=1, keepdims=True)
            bids = gb[id_col].to_numpy()
            sims = A @ B.T
            i, j = np.nonzero(sims >= threshold)
            x, y = aids[i], bids[j]
            out_a, out_b = np.minimum(x, y), np.maximum(x, y)
        return arrow_block(
            pd.DataFrame(
                {"a_id": out_a.astype(np.int64),
                 "b_id": out_b.astype(np.int64)}
            ),
            schema=pair_schema,
        )

    fanned = emb_ds.map_batches(fanout, batch_format="pandas")
    return pre_shuffle(fanned).groupby("pair_key").map_groups(
        pair_group, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# near-dup clusters + corpus materialization (the dedup endgame)
# ---------------------------------------------------------------------------

def near_dup_clusters(docs_ds, threshold: float = 0.8, k: int = 3,
                      max_driver_nodes: int = None):
    """Connected components over the EXACT n-gram-Jaccard near-dup pair
    graph: (doc_id, cluster_id = min doc_id of the component).  Only
    docs participating in >=1 dup pair appear — singletons stay out, so
    the label table is O(dup docs), not O(corpus).

    Pairs come from :func:`ngram_jaccard_dup_pairs` (prefix-filtered
    SSJoin, recall 1 by theorem).  Components route through the same
    COUNT-only cardinality guard as the flagship's canonicalization and
    the graph ops (``functions/routing.py``, noted in the run record
    as ``cluster_route``): the pair table is the
    post-reduction input and is materialized anyway, so ``2 * count()``
    is a metadata-cheap upper bound on the node inventory.  At or below
    ``max_driver_nodes`` (default ``DRIVER_SLIVER_MAX_ROWS``) the dup
    graph is a sliver by cluster standards and each min-label-
    propagation round would be pure Ray-job spin-up (measured: the
    multi-round fixpoint dominated this op at test SFs), so components
    come from exact driver union-find; above it, the distributed
    min-label propagation in ``stages/canonical.py`` runs and the
    driver never holds pairs — the same machinery that canonicalizes
    entity surfaces (reference analog: set-dedup semantics of
    rex/models/usm.py:149 lifted to a corpus-level transitive
    closure).  Both engines are equality-asserted in tests.  Scale:
    edges/labels shuffles carry 16-byte rows; rounds = O(cluster
    diameter), typically 2-3 for near-dup chains."""
    import ray.data as rd

    from rex_ray.functions.routing import route_driver
    from rex_ray.stages.canonical import cc_label_propagation, cc_local

    pairs = ngram_jaccard_dup_pairs(
        docs_ds, threshold=threshold, k=k
    ).materialize()

    # COUNT-only route: node count <= 2 * pair count (each pair
    # contributes two endpoints); the bound errs toward the
    # distributed path, never toward an oversized driver pull
    if route_driver(2 * pairs.count(), max_driver_nodes, "cluster_route"):
        # an empty pair table may come back schema-less: take the id
        # type from the declared pair schema, and no pairs -> no edges
        id_type = _PAIR_SCHEMA.field("doc_a").type
        df = pairs.to_pandas()
        edges_l = (
            list(zip(df["doc_a"], df["doc_b"])) if len(df) else []
        )
        nodes_l = sorted({x for e in edges_l for x in e})
        cc = cc_local(nodes_l, edges_l)
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes_l, id_type),
                    "cluster_id": pa.array(
                        [cc[x] for x in nodes_l], id_type
                    ),
                }
            )
        )

    def as_nodes(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        return pa.table({"node": pa.compute.unique(ids)})

    nodes = pairs.map_batches(as_nodes, batch_format="pyarrow")
    edges = pairs.map_batches(
        lambda t: pa.table({"a": t["doc_a"], "b": t["doc_b"]}),
        batch_format="pyarrow",
    )
    labels = cc_label_propagation(nodes, edges)
    return labels.map_batches(
        lambda t: pa.table(
            {"doc_id": t["node"], "cluster_id": t["canonical"]}
        ),
        batch_format="pyarrow",
    )


def dedup_survivors(docs_ds, threshold: float = 0.8, k: int = 3,
                    max_driver_nodes: int = None):
    """Materialize the deduplicated corpus id set: every doc except
    non-representative near-dup cluster members (representative = min
    doc_id).  The loser set is built worker-side from the (small)
    cluster label table and broadcast once; the corpus pass is a
    streaming filter — the full doc table never gathers anywhere."""
    clusters = near_dup_clusters(
        docs_ds, threshold=threshold, k=k, max_driver_nodes=max_driver_nodes
    )

    def build_losers(tables) -> set:
        losers: set = set()
        for t in tables:
            if t.num_rows == 0:
                continue
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            c = t["cluster_id"].to_numpy(zero_copy_only=False)
            losers.update(d[d != c].tolist())
        return losers

    loser_ref = _worker_built_ref(clusters, build_losers)

    def keep(t: pa.Table, _ref=loser_ref) -> pa.Table:
        losers = _side_object(_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = np.fromiter(
            (int(x) not in losers for x in ids), count=len(ids), dtype=bool
        )
        return pa.table({"doc_id": pa.array(ids[mask], pa.int64())})

    return docs_ds.select_columns(["doc_id"]).map_batches(
        keep, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# exact substring-run dedup (Lee et al. 2021 "Deduplicating Training
# Data Makes Language Models Better" — the suffix-array pass, recast
# as n-gram anchor matching + diagonal island merging)
# ---------------------------------------------------------------------------

def substring_dup_runs(docs_ds, n: int = 8, max_gram_occ: int = 50):
    """Maximal cross-document duplicated token runs of length >= n.

    Three-stage dataflow, every shuffle row a few int64s:

      1. anchor rows — one streaming pass emits (h, doc_id, pos) per
         n-gram position (md5-64 hash; text never enters a shuffle);
      2. ``groupby(h)`` -> cross-doc matched positions (doc_a < doc_b).
         Grams occurring more than ``max_gram_occ`` times corpus-wide
         are skipped (the Lee-et-al-style hot-anchor cap: a gram in f
         positions yields O(f^2) pairs; boilerplate/templates would
         otherwise dominate the exchange).  The cap is part of the
         operator contract and the oracle applies the same rule;
      3. matches on one (doc_a, doc_b) diagonal (pos_a - pos_b
         constant) with consecutive pos_a merge into maximal islands
         -> (doc_a, doc_b, start_a, start_b, len_tokens) with
         len_tokens = run_grams + n - 1.

    Partitioning note: stage 3 groups by (doc_a, doc_b, diag), so a
    single pathological pair cannot skew beyond its own match count,
    which stage 2's cap already bounds.
    """
    from rex_ray.functions import hashing as H
    from rex_ray.functions.blocks import arrow_block, pre_shuffle

    def anchor_rows(batch: pd.DataFrame) -> pa.Table:
        grams: list = []
        counts = np.empty(len(batch), dtype=np.int64)
        texts = list(batch["text"])
        for i, t in enumerate(texts):
            toks = t.split(" ")
            k = max(len(toks) - n + 1, 0)
            counts[i] = k
            grams.extend(" ".join(toks[j : j + n]) for j in range(k))
        if not grams:
            return pa.schema(
                [
                    ("h", pa.int64()),
                    ("doc_id", pa.int64()),
                    ("pos", pa.int64()),
                ]
            ).empty_table()
        hv = H.md5_hash64_batch(grams).view(np.int64)
        parent = np.repeat(np.arange(len(batch)), counts)
        pos = np.arange(len(grams), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        doc = batch["doc_id"].to_numpy().astype(np.int64)[parent]
        return pa.table(
            {
                "h": pa.array(hv, pa.int64()),
                "doc_id": pa.array(doc, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    anchors = pre_shuffle(
        docs_ds.map_batches(anchor_rows, batch_format="pandas")
    )

    def cross_pairs(g: pd.DataFrame) -> pa.Table:
        out_schema = pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("diag", pa.int64()),
                ("pos_a", pa.int64()),
            ]
        )
        if len(g) < 2 or len(g) > max_gram_occ:
            return out_schema.empty_table()
        d = g["doc_id"].to_numpy()
        p = g["pos"].to_numpy()
        ia, ib = np.triu_indices(len(g), k=1)
        swap = d[ia] > d[ib]
        ia[swap], ib[swap] = ib[swap], ia[swap]
        keep = d[ia] < d[ib]
        ia, ib = ia[keep], ib[keep]
        return pa.table(
            {
                "doc_a": pa.array(d[ia], pa.int64()),
                "doc_b": pa.array(d[ib], pa.int64()),
                "diag": pa.array(p[ia] - p[ib], pa.int64()),
                "pos_a": pa.array(p[ia], pa.int64()),
            },
            schema=out_schema,
        )

    matches = anchors.groupby("h").map_groups(
        cross_pairs, batch_format="pandas"
    )

    def islands(g: pd.DataFrame) -> pa.Table:
        pos = np.sort(g["pos_a"].to_numpy())
        brk = np.flatnonzero(np.diff(pos) != 1)
        starts = np.concatenate([[0], brk + 1])
        ends = np.concatenate([brk, [len(pos) - 1]])
        run_len = pos[ends] - pos[starts] + 1
        da = int(g["doc_a"].iloc[0])
        db = int(g["doc_b"].iloc[0])
        diag = int(g["diag"].iloc[0])
        sa = pos[starts]
        return pa.table(
            {
                "doc_a": pa.array(np.full(len(sa), da), pa.int64()),
                "doc_b": pa.array(np.full(len(sa), db), pa.int64()),
                "start_a": pa.array(sa, pa.int64()),
                "start_b": pa.array(sa - diag, pa.int64()),
                "len_tokens": pa.array(run_len + n - 1, pa.int64()),
            }
        )

    return pre_shuffle(matches).groupby(
        ["doc_a", "doc_b", "diag"]
    ).map_groups(islands, batch_format="pandas")

# ---------------------------------------------------------------------------
# line/segment-level exact dedup (CCNet / Dolma paragraph-dedup pass)
# ---------------------------------------------------------------------------

SEG_TOKENS = 12


def _segment_rows(batch: pd.DataFrame, seg_tokens: int) -> pa.Table:
    """Per-doc DISTINCT segment hashes: (h:int64, doc_id:int64).

    Segments are consecutive ``seg_tokens``-token chunks of the
    dedup-normalized token stream (the 'dup' markers dropped, the same
    normalization the exact-dedup family uses).  Real corpora with
    newline structure pass newline-split rows instead — the corpus-wide
    counting core below is identical either way.
    """
    segs: list = []
    counts = np.empty(len(batch), dtype=np.int64)
    for i, t in enumerate(batch["text"]):
        toks = [x for x in t.split(" ") if x != "dup"]
        k = (len(toks) + seg_tokens - 1) // seg_tokens
        # distinct within doc (a doc is one row, so per-row set IS the
        # per-doc distinct — no cross-batch reconciliation needed)
        uniq = {
            " ".join(toks[j * seg_tokens : (j + 1) * seg_tokens])
            for j in range(k)
        }
        counts[i] = len(uniq)
        segs.extend(sorted(uniq))
    if not segs:
        return pa.schema(
            [("h", pa.int64()), ("doc_id", pa.int64())]
        ).empty_table()
    hv = H.md5_hash64_batch(segs).view(np.int64)
    doc = np.repeat(
        batch["doc_id"].to_numpy().astype(np.int64), counts
    )
    return pa.table(
        {"h": pa.array(hv, pa.int64()), "doc_id": pa.array(doc, pa.int64())}
    )


def segment_dup_stats(docs_ds, seg_tokens: int = SEG_TOKENS):
    """Duplicated-line pass (CCNet, Wenzek et al. 2020; Dolma's exact
    paragraph dedup): count, per document, how many of its distinct
    segments also occur in at least one OTHER document.

    (doc_id, text) -> (doc_id, n_segments, n_dup_segments); counts are
    exact int64 (consumers derive the drop fraction downstream).

    Dataflow — every shuffle row is two int64s, text never enters an
    exchange:

      1. one streaming pass emits per-doc distinct (h=md5-64(segment),
         doc_id) rows; a second independent cheap pass over the same
         pruned (doc_id, text) read emits per-doc totals map-side
         (re-reading beats materializing the exploded rows);
      2. ``groupby(h)`` -> distinct-doc count per segment; segments
         with >= 2 docs form the dup-hash table (kept distributed —
         on a boilerplate-heavy crawl it is O(shared lines), far too
         big to broadcast);
      3. segment rows inner-join the dup-hash table on ``h`` (16-byte
         keys), ``groupby(doc_id)`` -> n_dup_segments;
      4. totals LEFT join the dup counts on doc_id, nulls -> 0.
    """
    import ray.data as rd
    from ray.data.aggregate import Count

    from rex_ray.stages.relational import hash_join

    seg_rows = pre_shuffle(
        docs_ds.map_batches(
            lambda b, _s=seg_tokens: _segment_rows(b, _s),
            batch_format="pandas",
        )
    )
    per_seg = seg_rows.groupby("h").aggregate(Count(alias_name="n_docs"))
    dup_hashes = (
        per_seg.filter(expr="n_docs >= 2").select_columns(["h"]).materialize()
    )

    def totals(batch: pd.DataFrame) -> pa.Table:
        t = _segment_rows(batch, seg_tokens)
        g = (
            t.to_pandas().groupby("doc_id", sort=False).size()
            .rename("n_segments").reset_index()
        )
        g["n_segments"] = g["n_segments"].astype("int64")
        return arrow_block(g)

    totals_ds = docs_ds.map_batches(totals, batch_format="pandas")

    if dup_hashes.count() == 0:
        # no segment occurs in two docs (or the corpus has no segment):
        # every dup count is 0, and a zero-row join side has no schema
        totals_ds = totals_ds.materialize()
        if totals_ds.count() == 0:
            return rd.from_arrow(
                pa.schema(
                    [(c, pa.int64())
                     for c in ("doc_id", "n_segments", "n_dup_segments")]
                ).empty_table()
            )
        joined = totals_ds.map_batches(
            lambda t: t.append_column(
                "n_dup_segments", pa.nulls(t.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )
    else:
        dup_counts = (
            hash_join(seg_rows, dup_hashes, on="h")
            .groupby("doc_id")
            .aggregate(Count(alias_name="n_dup_segments"))
        )
        joined = hash_join(
            totals_ds, dup_counts, on="doc_id", join_type="left_outer"
        )

    def finalize(t: pa.Table) -> pa.Table:
        nd = t["n_dup_segments"].to_pandas().fillna(0).astype("int64")
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_segments": t["n_segments"].cast(pa.int64()),
                "n_dup_segments": pa.array(nd, pa.int64()),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# semantic dedup (SemDeDup)
# ---------------------------------------------------------------------------

def semantic_dup_drops(
    emb_ds,
    radius: int,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
):
    """SemDeDup (Abbas et al., 2023): k-means-cluster the embedding
    space, then near-dedup WITHIN clusters only — the sub-quadratic
    scale path for semantic dedup (pairwise work is O(sum m_c^2) over
    cluster sizes, not O(n^2); k grows with the corpus).

    Exact integer contract end to end: the codebook is the distributed
    integer-grid k-means (:func:`rex_ray.stages.similarity.kmeans_fit`),
    closeness is int64 squared grid distance <= ``radius``, and the
    keep rule is deterministic — drop v iff some u in the same cluster
    is within ``radius`` and outranks v under (dist-to-centroid DESC,
    id ASC); i.e. each epsilon-neighborhood keeps its farthest-from-
    centroid member, the paper's retention policy.  Every step is
    partition-invariant, so a DuckDB oracle replays it bit-exactly
    (query ``dd_semantic_dups``).

    Dataflow: codebook fit = per-batch k-row partials + merge task;
    ONE assign pass carries (id, cluster, dist, grid vector) into a
    ``groupby(cluster)`` shuffle (dim x 8 bytes/row — the vector IS
    the payload here, unlike text dedup where we ship hashes); each
    cluster group runs a chunked int64 matmul.  Clusters far larger
    than worker memory would chunk-pair like
    :func:`embedding_dup_pairs`; at that point raise k instead — the
    paper's regime is n/k documents per cluster.

    Output: (vec_id, cluster_id, dist, keep).
    """
    import ray

    from rex_ray.functions.blocks import fixed_list_column, matrix_from_column
    from rex_ray.stages.similarity import _assign_int, kmeans_fit, quantize_grid

    C = kmeans_fit(emb_ds, k=k, iters=iters, id_col=id_col)
    cref = ray.put(C)

    def assign(batch: pd.DataFrame) -> pa.Table:
        Cc = _side_object(cref)
        X = quantize_grid(batch["embedding"])
        a, d = _assign_int(X, Cc)
        return pa.table(
            {
                id_col: pa.array(
                    batch[id_col].to_numpy().astype(np.int64), pa.int64()
                ),
                "cluster_id": pa.array(a, pa.int64()),
                "dist": pa.array(d, pa.int64()),
                "grid": fixed_list_column(X),
            }
        )

    def cluster_dedup(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        dist = g["dist"].to_numpy(zero_copy_only=False).astype(np.int64)
        X = matrix_from_column(g, "grid").astype(np.int64)
        order = np.lexsort((ids, -dist))  # rank 0 = farthest, ties by id
        Xo, ido, disto = X[order], ids[order], dist[order]
        m = len(ido)
        n2 = (Xo * Xo).sum(axis=1)
        keep = np.ones(m, dtype=bool)
        jj = np.arange(m)[None, :]
        for s in range(0, m, 1024):
            e = min(s + 1024, m)
            d2 = n2[s:e, None] + n2[None, :] - 2 * (Xo[s:e] @ Xo.T)
            outranked = (d2 <= radius) & (jj < np.arange(s, e)[:, None])
            keep[s:e] = ~outranked.any(axis=1)
        cid = g["cluster_id"].to_numpy(zero_copy_only=False)[order]
        return pa.table(
            {
                id_col: pa.array(ido, pa.int64()),
                "cluster_id": pa.array(cid.astype(np.int64), pa.int64()),
                "dist": pa.array(disto, pa.int64()),
                "keep": pa.array(keep),
            }
        )

    assigned = emb_ds.map_batches(assign, batch_format="pandas")
    return pre_shuffle(assigned).groupby("cluster_id").map_groups(
        cluster_dedup, batch_format="pyarrow"
    )
