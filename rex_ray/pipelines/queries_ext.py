"""Extended query registry: relational operators over the TPC-H-ish
tables, text analysis, the dedup family, similarity search, and the
multimodal stub pipeline.  Each query is one ``@query(name, sql=...)``
on its callable (see ``pipelines/queries.py``).

Float policy for oracle-checked queries: per-row float math uses the
identical operation order as the SQL (bit-identical IEEE results);
aggregates over floats are restricted to order-insensitive forms
(min/max, sums of integral-valued doubles, integer-cent sums) so
results hash-match exactly regardless of summation order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from rex_ray.functions.text import LANG_STOPWORDS, QUALITY_STOPWORDS
from rex_ray.pipelines import spec
from rex_ray.pipelines.queries import _read, query

Q1_CUTOFF = "1998-09-02"
EVENTS_WINDOW_US = 3_600_000_000  # 1 hour
ANN_NUM_QUERIES = 10
ANN_K = 5
EMB_DUP_THRESHOLD = 0.45
MINHASH_JACCARD = 0.9
NGRAM_JACCARD = 0.8
SOURCE_CAP_N = 20


def _cents(values) -> np.ndarray:
    # mirror of SQL CAST(floor(x * 100.0 + 0.5) AS BIGINT)
    return np.floor(np.asarray(values, dtype=np.float64) * 100.0 + 0.5).astype(
        np.int64
    )


_CENTS = "CAST(floor({expr} * 100.0 + 0.5) AS BIGINT)"


# --------------------------------------------------------------------------
# relational
# --------------------------------------------------------------------------

@query("q1_pricing_summary", sql=f"""
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       CAST(sum({_CENTS.format(expr='l_extendedprice')}) AS BIGINT)
           AS sum_base_cents,
       CAST(sum({_CENTS.format(expr='l_extendedprice * (1.0 - l_discount)')})
           AS BIGINT) AS sum_disc_cents,
       CAST(sum({_CENTS.format(
           expr='l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)')})
           AS BIGINT) AS sum_charge_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
""")
def q_q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: filtered scan -> partial aggregate -> small
    groupby (reference analog: the metric-style grouped aggregation of
    SURVEY.md §2.5)."""
    from rex_ray.stages.relational import partial_groupby_sum

    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_shipdate",
            "l_quantity", "l_extendedprice", "l_discount", "l_tax",
        ],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= pd.Timestamp(Q1_CUTOFF)]
        ext = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        tax = df["l_tax"].to_numpy()
        disc_price = ext * (1.0 - disc)
        charge = disc_price * (1.0 + tax)
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["l_quantity"],
                "sum_base_cents": _cents(ext),
                "sum_disc_cents": _cents(disc_price),
                "sum_charge_cents": _cents(charge),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pandas")
    return partial_groupby_sum(
        prepped,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": "sum_qty",
            "sum_base_cents": "sum_base_cents",
            "sum_disc_cents": "sum_disc_cents",
            "sum_charge_cents": "sum_charge_cents",
        },
        counts="n_rows",
    )


@query("orders_with_returns", sql="""
SELECT o_orderkey FROM orders
WHERE o_orderkey IN
      (SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R')
""")
def q_orders_with_returns(sf_dir: str):
    """Exact semi-join via broadcast Bloom prefilter: orders with at
    least one returned lineitem.  The Bloom pass drops non-candidate
    orders before the exact co-group."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rex_ray.stages.relational import bloom_semi_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])

    def returned_keys(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t["l_returnflag"], "R"))
        return pa.table({"o_orderkey": keep["l_orderkey"]})

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"]
    ).map_batches(returned_keys, batch_format="pyarrow")
    return bloom_semi_join(orders, li, on="o_orderkey")


@query("revenue_by_nation", sql=f"""
SELECT n.n_name,
       CAST(sum({_CENTS.format(expr='l.l_extendedprice * (1.0 - l.l_discount)')})
           AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
""")
def q_revenue_by_nation(sf_dir: str):
    """Large-large hash join (lineitem x orders on orderkey) ->
    pre-aggregate per customer (shrinks the second join's left side to
    ~|customers| slim rows) -> distributed hash join against the
    SF-proportional customer table -> join against the materialized
    25-row nation table (the join's broadcast plan) -> final partial-agg
    groupby.  Neither customer nor nation is read on the driver."""
    from rex_ray.stages.relational import hash_join, partial_groupby_sum

    lineitem = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    li = lineitem.map_batches(
        lambda df: pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"],
                "rev_cents": _cents(
                    df["l_extendedprice"].to_numpy()
                    * (1.0 - df["l_discount"].to_numpy())
                ),
            }
        ),
        batch_format="pandas",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    # large-large join, sized by the bigger side (parquet row counts
    # are metadata reads)
    joined = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        rows=lineitem.count(),
    )
    per_cust = partial_groupby_sum(
        joined, ["o_custkey"], {"rev_cents": "rev_cents"}, counts="n_items"
    )
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    with_nkey = hash_join(
        per_cust, cust, on="o_custkey", right_on="c_custkey",
        rows=cust.count(),
    )
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    named = hash_join(
        with_nkey, nation.materialize(), on="c_nationkey",
        right_on="n_nationkey",
    )
    return partial_groupby_sum(
        named,
        ["n_name"],
        {"rev_cents": "revenue_cents", "n_items": "n_items"},
    )


@query("top_customers", sql=f"""
SELECT o_custkey, c_name, revenue_cents
FROM (
    SELECT o_custkey,
           CAST(sum({_CENTS.format(expr='o_totalprice')}) AS BIGINT)
               AS revenue_cents
    FROM orders GROUP BY o_custkey
) r JOIN customer ON c_custkey = o_custkey
ORDER BY revenue_cents DESC, o_custkey ASC
LIMIT 10
""")
def q_top_customers(sf_dir: str):
    """Pre-aggregate -> global sort (revenue desc, custkey asc) ->
    limit 10 -> resolve the TEN names with a distributed filter over
    customer (the driver only ever holds the 10-row answer; the
    SF-proportional customer table is never driver-materialized —
    round-2 verdict item #1)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rex_ray.functions.blocks import pre_shuffle
    from rex_ray.stages.relational import partial_groupby_sum

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    prepped = orders.map_batches(
        lambda df: pd.DataFrame(
            {
                "o_custkey": df["o_custkey"],
                "rev_cents": _cents(df["o_totalprice"].to_numpy()),
            }
        ),
        batch_format="pandas",
    )
    agg = partial_groupby_sum(
        prepped, ["o_custkey"], {"rev_cents": "revenue_cents"}
    )
    top = (
        pre_shuffle(agg)
        .sort(["revenue_cents", "o_custkey"], descending=[True, False])
        .limit(10)
        .to_pandas()  # the 10-row final answer — small by construction
    )
    keys = pa.array([int(k) for k in top["o_custkey"]], pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["c_custkey"], value_set=keys))

    names = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()  # <= 10 rows survive the distributed filter
    )
    name_map = dict(zip(names["c_custkey"].astype(int), names["c_name"]))
    top["c_name"] = top["o_custkey"].map(name_map)
    return top


@query("events_hourly", sql=f"""
SELECT user_id,
       epoch_us(ts) // {EVENTS_WINDOW_US} AS hour_bucket,
       CAST(sum({_CENTS.format(expr='value')}) AS BIGINT) AS sum_value_cents,
       CAST(count(*) AS BIGINT) AS n_events
FROM events
GROUP BY 1, 2
""")
def q_events_hourly(sf_dir: str):
    """Tumbling-window aggregate over the event stream: key =
    (user_id, hour bucket), implemented as a partial-agg groupby — no
    ordering assumption needed for tumbling windows."""
    from rex_ray.stages.relational import partial_groupby_sum

    ev = _read(sf_dir, "events", columns=["ts", "user_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "hour_bucket": us // EVENTS_WINDOW_US,
                "value_cents": _cents(df["value"].to_numpy()),
            }
        )

    prepped = ev.map_batches(prep, batch_format="pandas")
    return partial_groupby_sum(
        prepped,
        ["user_id", "hour_bucket"],
        {"value_cents": "sum_value_cents"},
        counts="n_events",
    )


@query("events_type_stats", sql="""
SELECT event_type, min(value) AS min_value, max(value) AS max_value,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY event_type
""")
def q_events_type_stats(sf_dir: str):
    """Per-event-type min/max/count (order-insensitive float aggs)."""
    from ray.data.aggregate import Max, Min, Sum

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def combine(df: pd.DataFrame):
        from rex_ray.functions.blocks import arrow_block

        g = df.groupby("event_type", sort=False)["value"].agg(
            ["min", "max", "size"]
        )
        g.columns = ["min_value", "max_value", "n_events"]
        g["n_events"] = g["n_events"].astype("int64")
        return arrow_block(g.reset_index())

    from rex_ray.functions.blocks import pre_shuffle

    partial = pre_shuffle(ev.map_batches(combine, batch_format="pandas"))
    return partial.groupby("event_type").aggregate(
        Min("min_value", alias_name="min_value"),
        Max("max_value", alias_name="max_value"),
        Sum("n_events", alias_name="n_events"),
    )


SESSION_GAP_US = 30 * 60 * 1_000_000
SLIDE_WIDTH_US = 2 * 3_600_000_000
SLIDE_STEP_US = 3_600_000_000


@query("events_sessions", sql=f"""
WITH e AS (
    SELECT user_id, epoch_us(ts) AS ts_us FROM events
),
marked AS (
    SELECT user_id, ts_us,
           CASE WHEN lag(ts_us) OVER w IS NULL
                  OR ts_us - lag(ts_us) OVER w > {SESSION_GAP_US}
                THEN 1 ELSE 0 END AS new_s
    FROM e
    WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)
),
sess AS (
    SELECT user_id, ts_us,
           SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts_us
                            ROWS UNBOUNDED PRECEDING) - 1 AS session_id
    FROM marked
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       min(ts_us) AS start_ts_us, max(ts_us) AS end_ts_us,
       max(ts_us) - min(ts_us) AS duration_us
FROM sess GROUP BY 1, 2
""")
def q_events_sessions(sf_dir: str):
    """Gap-based session windows per user (custom operator: groupby
    co-locates a user's events, in-group sort by ts; see
    stages/windows.py for the partitioning contract)."""
    from rex_ray.stages.windows import sessionize

    return sessionize(
        _read(sf_dir, "events", columns=["ts", "user_id"]),
        gap_us=SESSION_GAP_US,
    )


@query("events_sliding", sql=f"""
WITH e AS (SELECT epoch_us(ts) AS ts_us FROM events),
k AS (SELECT unnest(range({SLIDE_WIDTH_US // SLIDE_STEP_US})) AS i)
SELECT (ts_us // {SLIDE_STEP_US}) * {SLIDE_STEP_US}
           - i * {SLIDE_STEP_US} AS window_start_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM e, k
WHERE ts_us < (ts_us // {SLIDE_STEP_US}) * {SLIDE_STEP_US}
          - i * {SLIDE_STEP_US} + {SLIDE_WIDTH_US}
GROUP BY 1
""")
def q_events_sliding(sf_dir: str):
    """Sliding-window event counts (width 2h, slide 1h): windows as
    derived keys from a vectorized flat-map + partial-sum groupby."""
    from rex_ray.stages.windows import sliding_window_counts

    return sliding_window_counts(
        _read(sf_dir, "events", columns=["ts"]),
        width_us=SLIDE_WIDTH_US,
        slide_us=SLIDE_STEP_US,
    )


# --------------------------------------------------------------------------
# text analysis
# --------------------------------------------------------------------------

@query("ta_fingerprints", sql="""
WITH grams AS (
    SELECT doc_id, i + 1 AS pos,
           ('0x' || substr(md5(ts[i+1] || ' ' || ts[i+2] || ' ' || ts[i+3]),
                           1, 8))::BIGINT AS h
    FROM (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
         unnest(range(len(ts) - 2)) AS u(i)
    WHERE len(ts) >= 3
),
wins AS (
    SELECT doc_id, pos AS wstart, mn FROM (
        SELECT doc_id, pos,
               min(h) OVER (PARTITION BY doc_id ORDER BY pos
                            ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS mn,
               count(*) OVER (PARTITION BY doc_id) AS m
        FROM grams)
    WHERE pos <= m - 3
),
picks AS (
    SELECT w.doc_id, w.wstart, max(g.pos) AS pos
    FROM wins w JOIN grams g
      ON g.doc_id = w.doc_id
     AND g.pos BETWEEN w.wstart AND w.wstart + 3
     AND g.h = w.mn
    GROUP BY w.doc_id, w.wstart
)
SELECT DISTINCT p.doc_id, p.pos, g.h
FROM picks p JOIN grams g ON g.doc_id = p.doc_id AND g.pos = p.pos
""")
def q_ta_fingerprints(sf_dir: str):
    from rex_ray.stages.textstats import document_fingerprints

    return document_fingerprints(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        k=3,
        w=4,
    )


@query("events_quantiles", sql="""
WITH n AS (SELECT event_type, count(*) AS n FROM events GROUP BY 1),
r AS (SELECT event_type, value,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY value) AS rn
      FROM events)
SELECT r.event_type, p.p, r.value AS q
FROM r
JOIN n USING (event_type)
JOIN (VALUES (0.5), (0.9), (0.99)) AS p(p)
  ON r.rn = CAST(ceil(p.p * n.n) AS BIGINT)
""")
def q_events_quantiles(sf_dir: str):
    """Exact per-type value quantiles via 3-pass histogram drill-down
    (no sort, no per-group gather)."""
    from rex_ray.stages.quantiles import grouped_exact_quantiles

    return grouped_exact_quantiles(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        group_col="event_type",
        value_col="value",
        ps=(0.5, 0.9, 0.99),
    )


@query("events_asof", sql="""
WITH c AS (
    SELECT event_id, user_id, epoch_us(ts) AS ts_us
    FROM events WHERE event_type = 'click'
),
v AS (
    SELECT user_id, epoch_us(ts) AS ts_us, value
    FROM events WHERE event_type = 'view'
    QUALIFY row_number() OVER (PARTITION BY user_id, epoch_us(ts)
                               ORDER BY event_id DESC) = 1
)
SELECT c.event_id, c.user_id, c.ts_us,
       v.ts_us AS asof_ts_us, v.value AS asof_value
FROM c ASOF JOIN v
  ON c.user_id = v.user_id AND c.ts_us >= v.ts_us
""")
def q_events_asof(sf_dir: str):
    from rex_ray.stages.windows import asof_join_events

    return asof_join_events(
        _read(
            sf_dir,
            "events",
            columns=["event_id", "ts", "user_id", "event_type", "value"],
        )
    )


BURST_LOOKBACK, BURST_MULT = 3, 2


@query("events_bursts", sql=f"""
WITH c AS (
    SELECT event_type, epoch_us(ts) // 3600000000 AS bucket,
           CAST(count(*) AS BIGINT) AS n
    FROM events GROUP BY 1, 2
),
w AS (
    SELECT event_type, bucket, n,
           max(n) OVER (PARTITION BY event_type ORDER BY bucket
                        ROWS BETWEEN {BURST_LOOKBACK} PRECEDING
                        AND 1 PRECEDING) AS prev_max
    FROM c
)
SELECT event_type, bucket * 3600000000 AS bucket_start_us, n AS n_events,
       prev_max,
       (prev_max IS NOT NULL AND n > {BURST_MULT} * prev_max) AS is_burst
FROM w
""")
def q_events_bursts(sf_dir: str):
    """Per-type hourly burst flags: n > 2x the max of the 3 preceding
    non-empty hour buckets (row window, all-integer)."""
    from rex_ray.stages.windows import burst_hours

    return burst_hours(
        _read(sf_dir, "events", columns=["ts", "event_type"]),
        lookback=BURST_LOOKBACK,
        mult=BURST_MULT,
    )


INTERVAL_COHORT_MOD = 20


@query("events_interval", sql=f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events),
ce AS (SELECT * FROM e WHERE user_id % {INTERVAL_COHORT_MOD} = 0),
marked AS (
    SELECT user_id, ts_us,
           CASE WHEN lag(ts_us) OVER w IS NULL
                  OR ts_us - lag(ts_us) OVER w > {SESSION_GAP_US}
                THEN 1 ELSE 0 END AS new_s
    FROM ce
    WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)
),
sess AS (
    SELECT user_id, ts_us,
           SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts_us
                            ROWS UNBOUNDED PRECEDING) - 1 AS session_id
    FROM marked
),
ivals AS (
    SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
           min(ts_us) AS start_ts_us, max(ts_us) AS end_ts_us
    FROM sess GROUP BY 1, 2
)
SELECT i.user_id, i.session_id, i.start_ts_us, i.end_ts_us,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_users
FROM ivals i JOIN e ON e.ts_us BETWEEN i.start_ts_us AND i.end_ts_us
GROUP BY 1, 2, 3, 4
""")
def q_events_interval(sf_dir: str):
    """Broadcast interval (range) join: sampled-cohort session windows
    vs every event ts (inclusive BETWEEN); per-interval traffic counts."""
    from rex_ray.stages.windows import interval_join_events

    return interval_join_events(
        _read(sf_dir, "events", columns=["ts", "user_id"]),
        cohort_mod=INTERVAL_COHORT_MOD,
    )


@query("ta_inverted_index", sql="""
WITH pairs AS (
    SELECT DISTINCT u.token, doc_id
    FROM documents, unnest(string_split(text, ' ')) AS u(token)
)
SELECT token, CAST(count(*) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM pairs GROUP BY token
""")
def q_ta_inverted_index(sf_dir: str):
    from rex_ray.stages.textstats import inverted_index

    return inverted_index(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


@query("ta_source_cap", sql=f"""
SELECT source, doc_id FROM documents
QUALIFY row_number() OVER (
    PARTITION BY source
    ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= {SOURCE_CAP_N}
""")
def q_ta_source_cap(sf_dir: str):
    from rex_ray.stages.relational import per_key_cap

    return per_key_cap(
        _read(sf_dir, "documents", columns=["doc_id", "source"]),
        key_col="source",
        id_col="doc_id",
        n=SOURCE_CAP_N,
    )


@query("ta_hll_registers", sql="""
WITH toks AS (
    SELECT u.tok
    FROM documents, unnest(string_split(text, ' ')) AS u(tok)
    WHERE u.tok != ''
),
hs AS (
    SELECT ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
),
reg AS (
    SELECT CAST(h % 1024 AS BIGINT) AS bucket,
           CAST(h >> 10 AS BIGINT) AS r
    FROM hs
)
SELECT bucket,
       max(CASE WHEN r = 0 THEN 55
                ELSE bit_count((~r) & (r - 1)) + 1 END) AS max_rho
FROM reg GROUP BY bucket
""")
def q_ta_hll_registers(sf_dir: str):
    """HyperLogLog register table (bucket, max_rho) for distinct-token
    cardinality — exact, deterministic, oracle-checkable even though
    the cardinality it encodes is an estimate."""
    from rex_ray.stages.textstats import distinct_word_hll_registers

    return distinct_word_hll_registers(
        _read(sf_dir, "documents", columns=["text"]), p=10
    )


@query("ta_packed_bins", sql="""
WITH counted AS (
    SELECT doc_id,
           len(list_filter(string_split(text, ' '), x -> x != ''))
               AS n_tokens
    FROM documents
),
scanned AS (
    SELECT doc_id, n_tokens,
           COALESCE(SUM(n_tokens) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS prefix
    FROM counted
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(prefix AS BIGINT) AS prefix,
       CAST(prefix // 2048 AS BIGINT) AS bin_id,
       CAST(prefix % 2048 AS BIGINT) AS bin_offset
FROM scanned
""")
def q_ta_packed_bins(sf_dir: str):
    """Sequence packing: exclusive token-prefix scan over doc_id order,
    chunked into 2048-token bins (concat-then-chunk layout)."""
    from rex_ray.stages.pack import pack_sequences

    return pack_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        window=2048,
    )


@query("ta_dataset_splits", sql="""
SELECT doc_id,
       CASE WHEN b < 80 THEN 'train'
            WHEN b < 90 THEN 'val'
            ELSE 'test' END AS split
FROM (
    SELECT doc_id,
           ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
               % 100 AS b
    FROM documents
)
""")
def q_ta_dataset_splits(sf_dir: str):
    """Deterministic md5-bucket train/val/test assignment (80/10/10)."""
    from rex_ray.stages.relational import hash_split

    return hash_split(
        _read(sf_dir, "documents", columns=["doc_id"]), id_col="doc_id"
    )


@query("ta_doc_stats", sql="""
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT) AS n_chars,
       md5(text) AS fingerprint
FROM documents
""")
def q_ta_doc_stats(sf_dir: str):
    from rex_ray.stages.textstats import DocStats

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        DocStats(), batch_format="pandas"
    )


@query("ta_regex_tokens", sql=r"""
WITH m AS (
    SELECT doc_id,
           regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]')
               AS toks
    FROM documents
),
f AS (
    SELECT doc_id, unnest(toks) AS tok FROM m
),
c AS (
    SELECT doc_id,
           CAST(count(*) AS BIGINT) AS n_regex_tokens,
           CAST(sum(CASE WHEN substr(tok, 1, 1) BETWEEN 'a' AND 'z'
                           OR substr(tok, 1, 1) BETWEEN 'A' AND 'Z'
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_alpha,
           CAST(sum(CASE WHEN substr(tok, 1, 1) BETWEEN '0' AND '9'
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_num
    FROM f GROUP BY doc_id
)
SELECT m.doc_id,
       COALESCE(c.n_regex_tokens, 0) AS n_regex_tokens,
       COALESCE(c.n_alpha, 0) AS n_alpha,
       COALESCE(c.n_num, 0) AS n_num,
       COALESCE(c.n_regex_tokens - c.n_alpha - c.n_num, 0) AS n_other
FROM m LEFT JOIN c USING (doc_id)
""")
def q_ta_regex_tokens(sf_dir: str):
    """Token counting under the BPE-ish pretokenizer regex (letter
    runs / digit runs / single marks) — the tokenizer-eye token count
    a training-data quota system budgets by; lookahead-free pattern so
    Python re and DuckDB RE2 segment identically."""
    from rex_ray.stages.textstats import regex_token_counts

    return regex_token_counts(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


_HITS = {
    code: "len(list_filter(string_split(text, ' '), x -> x IN ({})))".format(
        ", ".join(f"'{w}'" for w in words)
    )
    for code, words in sorted(LANG_STOPWORDS.items())
}


@query("ta_langid_confusion", sql=f"""
WITH hits AS (
    SELECT doc_id, lang,
           {_HITS['de']} AS h_de, {_HITS['en']} AS h_en,
           {_HITS['es']} AS h_es, {_HITS['fr']} AS h_fr
    FROM documents
),
pred AS (
    SELECT lang,
           CASE
             WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr THEN 'de'
             WHEN h_en >= h_es AND h_en >= h_fr THEN 'en'
             WHEN h_es >= h_fr THEN 'es'
             ELSE 'fr'
           END AS pred_lang
    FROM hits
)
SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n_docs
FROM pred GROUP BY lang, pred_lang
""")
def q_ta_langid_confusion(sf_dir: str):
    from rex_ray.stages.textstats import langid_confusion

    return langid_confusion(
        _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    )


_Q_STOP = ", ".join(f"'{w}'" for w in QUALITY_STOPWORDS)


@query("ta_quality", sql=f"""
WITH base AS (
    SELECT doc_id,
           string_split(text, ' ') AS ts,
           CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
           CAST(len(list_filter(string_split(text, ' '),
                                x -> x IN ({_Q_STOP}))) AS BIGINT) AS stop_hits
    FROM documents
),
ratios AS (
    SELECT doc_id, n_tokens,
           CAST(len(list_distinct(ts)) AS DOUBLE) / n_tokens
               AS distinct_ratio,
           CAST(stop_hits AS DOUBLE) / n_tokens AS stopword_ratio
    FROM base
)
SELECT doc_id, n_tokens, distinct_ratio, stopword_ratio,
       0.5 * least(1.0, n_tokens / 64.0)
       + 0.3 * distinct_ratio
       + 0.2 * least(1.0, 5.0 * stopword_ratio) AS quality_score
FROM ratios
""")
def q_ta_quality(sf_dir: str):
    from rex_ray.stages.textstats import QualityScore

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        QualityScore(), batch_format="pandas"
    )


# stages/textstats.repetition_stats: per-doc duplicate/top n-gram
# occurrence counts, n in {2, 3}; docs too short for any n-gram get
# zeros on the Ray side, mirrored here with LEFT JOIN + COALESCE.
@query("ta_repetition", sql="""
WITH toks AS (
    SELECT doc_id, string_split(text, ' ') AS t FROM documents
),
g2 AS (
    SELECT doc_id, array_to_string(t[i+1:i+2], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 1, 0))) AS i) u
),
c2 AS (SELECT doc_id, g, count(*) AS cnt FROM g2 GROUP BY 1, 2),
s2 AS (
    SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n2_total,
           CAST(sum(cnt) - count(*) AS BIGINT) AS n2_dup,
           CAST(max(cnt) AS BIGINT) AS n2_top
    FROM c2 GROUP BY doc_id
),
g3 AS (
    SELECT doc_id, array_to_string(t[i+1:i+3], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 2, 0))) AS i) u
),
c3 AS (SELECT doc_id, g, count(*) AS cnt FROM g3 GROUP BY 1, 2),
s3 AS (
    SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n3_total,
           CAST(sum(cnt) - count(*) AS BIGINT) AS n3_dup,
           CAST(max(cnt) AS BIGINT) AS n3_top
    FROM c3 GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(n2_total, 0) AS n2_total,
       COALESCE(n2_dup, 0) AS n2_dup,
       COALESCE(n2_top, 0) AS n2_top,
       COALESCE(n3_total, 0) AS n3_total,
       COALESCE(n3_dup, 0) AS n3_dup,
       COALESCE(n3_top, 0) AS n3_top
FROM documents d
LEFT JOIN s2 USING (doc_id)
LEFT JOIN s3 USING (doc_id)
""")
def q_ta_repetition(sf_dir: str):
    """Gopher-style intra-doc repetition signals: per doc, total /
    duplicate / top-gram occurrence counts for 2- and 3-grams
    (integer-exact)."""
    from rex_ray.stages.textstats import repetition_stats

    return repetition_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


REDACT_PATTERNS = (
    (r"\bcustomer\b", "[PII1]"),
    (r"\bline\b", "[PII2]"),
)


# stages/textstats.PatternScrubber with the query's corpus-firing
# patterns; counts on original text, sequential replace (replacements
# never re-create a pattern).
@query("ta_redact", sql=r"""
SELECT doc_id,
       regexp_replace(
           regexp_replace(text, '\bcustomer\b', '[PII1]', 'g'),
           '\bline\b', '[PII2]', 'g') AS clean_text,
       CAST(len(regexp_extract_all(text, '\bcustomer\b'))
            + len(regexp_extract_all(text, '\bline\b'))
            AS BIGINT) AS n_pii
FROM documents
""")
def q_ta_redact(sf_dir: str):
    """Regex PII scrubbing (compiled-pattern actor pool).  Patterns
    here are chosen to fire on the synthetic corpus; production
    defaults (email/phone/IP) live in `stages/textstats.PII_PATTERNS`."""
    from rex_ray.stages.textstats import scrub_patterns

    return scrub_patterns(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        patterns=REDACT_PATTERNS,
    )


_LM_SQL_CORE = """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
pos AS (SELECT doc_id, l, unnest(range(1, len(l))) AS x FROM d),
big AS (SELECT doc_id, l[x] AS a, l[x + 1] AS b FROM pos),
uni AS (SELECT u.token AS tok, CAST(count(*) AS BIGINT) AS c
        FROM documents, unnest(string_split(text, ' ')) AS u(token)
        GROUP BY 1),
v AS (SELECT CAST(count(*) AS BIGINT) AS v FROM uni),
bc AS (SELECT a, b, CAST(count(*) AS BIGINT) AS c_ab
       FROM big GROUP BY 1, 2),
terms AS (
    SELECT big.doc_id,
           CAST(floor(1e6 * ln(CAST(bc.c_ab + 1 AS DOUBLE)
                               / CAST(uni.c + v.v AS DOUBLE)) + 0.5)
                AS BIGINT) AS term
    FROM big JOIN bc USING (a, b)
             JOIN uni ON uni.tok = big.a
             CROSS JOIN v
),
scored AS (
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
           CAST(-sum(term) AS BIGINT) AS nll_micronats
    FROM terms GROUP BY doc_id
)"""


@query("ta_lm_perplexity", sql=_LM_SQL_CORE + """
SELECT doc_id, n_bigrams, nll_micronats FROM scored
""")
def q_ta_lm_perplexity(sf_dir: str):
    """Per-doc bigram-LM negative log-likelihood (the CCNet perplexity
    quality signal, Wenzek et al. LREC'20), model trained on the corpus
    in the same job; integer micronat terms make it oracle-checkable."""
    from rex_ray.stages.textstats import lm_perplexity

    return lm_perplexity(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


@query("ta_ppl_tiers", sql=_LM_SQL_CORE + """,
m AS (SELECT doc_id, nll_micronats // n_bigrams AS metric FROM scored),
cnt AS (SELECT CAST(count(*) AS BIGINT) AS c FROM m),
ranked AS (
    SELECT metric, row_number() OVER (ORDER BY metric) AS rn FROM m
),
th AS (
    SELECT
        max(CASE WHEN rn = greatest(
            1, CAST(ceil((1.0/3) * c) AS BIGINT)) THEN metric END) AS c1,
        max(CASE WHEN rn = greatest(
            1, CAST(ceil((2.0/3) * c) AS BIGINT)) THEN metric END) AS c2
    FROM ranked, cnt
)
SELECT m.doc_id, m.metric,
       CASE WHEN m.metric <= th.c1 THEN 'head'
            WHEN m.metric <= th.c2 THEN 'middle'
            ELSE 'tail' END AS tier
FROM m, th
""")
def q_ta_ppl_tiers(sf_dir: str):
    """CCNet head/middle/tail corpus split at the exact 1/3 and 2/3
    order statistics of micronats-per-bigram."""
    from rex_ray.stages.textstats import ppl_tiers

    return ppl_tiers(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


CHUNK_TOKENS, CHUNK_OVERLAP = 64, 16


_CHUNK_STRIDE = CHUNK_TOKENS - CHUNK_OVERLAP


@query("ta_chunks", sql=f"""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
k AS (
    SELECT doc_id, l,
           unnest(range(0, (len(l) + {_CHUNK_STRIDE} - 1)
                           // {_CHUNK_STRIDE})) AS c
    FROM d
)
SELECT doc_id, CAST(c AS BIGINT) AS chunk_id,
       CAST(c * {_CHUNK_STRIDE} + 1 AS BIGINT) AS start_tok,
       CAST(len(list_slice(l, c * {_CHUNK_STRIDE} + 1,
                           c * {_CHUNK_STRIDE} + {CHUNK_TOKENS}))
            AS BIGINT) AS n_tokens,
       array_to_string(list_slice(l, c * {_CHUNK_STRIDE} + 1,
                                  c * {_CHUNK_STRIDE} + {CHUNK_TOKENS}),
                       ' ') AS chunk_text
FROM k
""")
def q_ta_chunks(sf_dir: str):
    """RAG-style fixed-stride overlapping chunker: stable
    (doc_id, chunk_id) keys, token spans, chunk text."""
    from rex_ray.stages.textstats import chunk_documents

    return chunk_documents(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        chunk_tokens=CHUNK_TOKENS,
        overlap=CHUNK_OVERLAP,
    )


SKIPGRAM_WINDOW = 2


@query("ta_skipgram_pairs", sql=f"""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
pos AS (SELECT doc_id, l, unnest(range(1, len(l) + 1)) AS x FROM d),
tok AS (SELECT doc_id, x, l[x] AS t FROM pos)
SELECT t1.t AS center, t2.t AS context, CAST(count(*) AS BIGINT) AS n
FROM tok t1
JOIN tok t2 ON t1.doc_id = t2.doc_id
    AND t2.x BETWEEN t1.x - {SKIPGRAM_WINDOW} AND t1.x + {SKIPGRAM_WINDOW}
    AND t2.x <> t1.x
GROUP BY 1, 2
""")
def q_ta_skipgram_pairs(sf_dir: str):
    """word2vec skip-gram (center, context) pair counts within a
    2-token window — the embedding-training pair-generation pass."""
    from rex_ray.stages.textstats import skipgram_pairs

    return skipgram_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        window=SKIPGRAM_WINDOW,
    )


DSIR_TARGET_MOD = 10


_DSIR_CTES = f"""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
pos AS (SELECT doc_id, l, unnest(range(1, len(l))) AS x FROM d),
big AS (SELECT doc_id, l[x] AS a, l[x + 1] AS b FROM pos),
tuni AS (SELECT u.token AS tok, CAST(count(*) AS BIGINT) AS c
         FROM documents, unnest(string_split(text, ' ')) AS u(token)
         WHERE doc_id % {DSIR_TARGET_MOD} = 0 GROUP BY 1),
tv AS (SELECT CAST(count(*) AS BIGINT) AS v FROM tuni),
tbc AS (SELECT a, b, CAST(count(*) AS BIGINT) AS c_ab
        FROM big WHERE doc_id % {DSIR_TARGET_MOD} = 0 GROUP BY 1, 2),
runi AS (SELECT u.token AS tok, CAST(count(*) AS BIGINT) AS c
         FROM documents, unnest(string_split(text, ' ')) AS u(token)
         GROUP BY 1),
rv AS (SELECT CAST(count(*) AS BIGINT) AS v FROM runi),
rbc AS (SELECT a, b, CAST(count(*) AS BIGINT) AS c_ab
        FROM big GROUP BY 1, 2),
terms AS (
    SELECT big.doc_id,
           CAST(floor(1e6 * ln(CAST(COALESCE(tbc.c_ab, 0) + 1 AS DOUBLE)
                               / CAST(COALESCE(tuni.c, 0) + tv.v AS DOUBLE))
                      + 0.5) AS BIGINT)
           - CAST(floor(1e6 * ln(CAST(rbc.c_ab + 1 AS DOUBLE)
                                 / CAST(runi.c + rv.v AS DOUBLE))
                        + 0.5) AS BIGINT) AS term
    FROM big
    LEFT JOIN tbc USING (a, b)
    LEFT JOIN tuni ON tuni.tok = big.a
    JOIN rbc USING (a, b)
    JOIN runi ON runi.tok = big.a
    CROSS JOIN tv CROSS JOIN rv
)"""


@query("ta_dsir_weights", sql=_DSIR_CTES + """
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(term) AS BIGINT) AS weight_micronats
FROM terms GROUP BY doc_id
""")
def q_ta_dsir_weights(sf_dir: str):
    """DSIR importance weights: log p_target - log p_raw per doc under
    two corpus-trained bigram LMs (target = benchmark partition);
    integer micronat terms keep it oracle-checkable."""
    from rex_ray.stages.textstats import dsir_weights

    return dsir_weights(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        target_mod=DSIR_TARGET_MOD,
    )


@query("ta_dsir_resample", sql=_DSIR_CTES + """,
w AS (SELECT doc_id, CAST(sum(term) AS BIGINT) AS weight_micronats
      FROM terms GROUP BY doc_id),
cnt AS (SELECT CAST(count(*) AS BIGINT) AS c FROM w),
ranked AS (
    SELECT weight_micronats AS wm,
           row_number() OVER (ORDER BY wm) AS rn
    FROM w
),
th AS (
    SELECT max(CASE WHEN rn = greatest(
        1, CAST(ceil((2.0/3) * c) AS BIGINT)) THEN wm END) AS cut
    FROM ranked, cnt
)
SELECT w.doc_id, w.weight_micronats, w.weight_micronats > th.cut AS keep
FROM w, th
""")
def q_ta_dsir_resample(sf_dir: str):
    """DSIR end-to-end: importance weights -> exact-quantile cut ->
    keep decision for the top third of the corpus (ties out)."""
    from rex_ray.stages.textstats import dsir_resample

    return dsir_resample(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        target_mod=DSIR_TARGET_MOD,
        keep_fraction=1 / 3,
    )


# stages/textstats.bpe_pair_counts: pairs within words only (the Ray
# side masks the token separator), codes decoded back to chars.
@query("ta_bpe_pairs", sql="""
WITH words AS (
    SELECT unnest(string_split(text, ' ')) AS w FROM documents
),
pairs AS (
    SELECT substring(w, i, 1) AS a, substring(w, i + 1, 1) AS b
    FROM words, LATERAL (SELECT unnest(range(1, len(w))) AS i) u
)
SELECT a, b, CAST(count(*) AS BIGINT) AS freq
FROM pairs GROUP BY a, b
""")
def q_ta_bpe_pairs(sf_dir: str):
    """Adjacent char-pair frequencies (BPE training step 1) as a
    bounded-partial distributed count."""
    from rex_ray.stages.textstats import bpe_pair_counts

    return bpe_pair_counts(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


@query("ta_bpe_merges", sql=spec.sql_bpe_merges(num_merges=10, top_k=20000))
def q_ta_bpe_merges(sf_dir: str):
    """Full BPE merge training (10 merges) on the distributed word
    vocabulary — oracle-checked: the bounded merge loop unrolls into
    10 chained CTE stages (spec.sql_bpe_merges), each recounting
    pairs and applying the arg-max merge with the Ray side's exact
    tie-break (was rows-only through round 3)."""
    from rex_ray.stages.textstats import bpe_train

    return bpe_train(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        num_merges=10,
    )


@query("ta_bpe_encode", sql=spec.sql_bpe_encode())
def q_ta_bpe_encode(sf_dir: str):
    """BPE tokenizer APPLICATION (the encode half pairing with
    ta_bpe_merges' training): the fixed spec.BPE_ENCODE_MERGES list
    applied in rank order to every word occurrence — exact subword
    strings, so the oracle replays the same merges with boundary-
    marked ordered replaces."""
    from rex_ray.pipelines import spec
    from rex_ray.stages.textstats import bpe_encode

    return bpe_encode(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        spec.BPE_ENCODE_MERGES,
    )


@query("ta_corpus_sample", sql="""
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h
FROM documents
ORDER BY h, doc_id
LIMIT 100
""")
def q_ta_corpus_sample(sf_dir: str):
    """Bottom-k/KMV uniform corpus sample: the 100 docs with the
    smallest md5(doc_id) — deterministic, associative (each batch
    contributes <= k partial rows), invariant to sharding and cluster
    size; the 'inspect a uniform sample of 100 TB' tool."""
    from rex_ray.stages.textstats import bottomk_sample

    return bottomk_sample(
        _read(sf_dir, "documents", columns=["doc_id"]), "doc_id", k=100
    )


@query("ta_stratified_sample", sql="""
SELECT lang, doc_id, h FROM (
    SELECT lang, doc_id, md5(CAST(doc_id AS VARCHAR)) AS h,
           row_number() OVER (
               PARTITION BY lang
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
           ) AS rn
    FROM documents
) WHERE rn <= 20
""")
def q_ta_stratified_sample(sf_dir: str):
    """Per-language deterministic uniform sample (k=20 per stratum):
    the KMV bottom-k rule applied WITHIN each stratum — the
    data-mixing / mixture-calibration primitive.  Associative partial
    bottom-k per (batch, stratum); invariant to sharding."""
    from rex_ray.stages.textstats import stratified_bottomk

    return stratified_bottomk(
        _read(sf_dir, "documents", columns=["doc_id", "lang"]),
        strata_col="lang", id_col="doc_id", k=20,
    )


_DUP_NGRAMS_SQL = """
WITH g AS (
    SELECT doc_id, ts[i + 1] || ' ' || ts[i + 2] || ' ' || ts[i + 3] AS gram
    FROM (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
         LATERAL (SELECT unnest(range(len(ts) - 2)) AS i)
    WHERE len(ts) >= 3
),
dg AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2),
cg AS (SELECT gram, sum(c) AS tot FROM dg GROUP BY 1)
SELECT dg.doc_id,
       CAST(count(*) AS BIGINT) AS n_distinct,
       CAST(sum(CASE WHEN cg.tot > dg.c THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dup
FROM dg JOIN cg USING (gram)
GROUP BY dg.doc_id
"""


@query("ta_dup_ngrams", sql=_DUP_NGRAMS_SQL)
def q_ta_dup_ngrams(sf_dir: str):
    """Cross-doc duplicated-trigram counts per doc (the Gopher/Dolma
    boilerplate signal): one slim count shuffle + a singleton-pruned
    worker-built broadcast + one streaming probe pass."""
    from rex_ray.stages.textstats import cross_doc_dup_ngrams

    return cross_doc_dup_ngrams(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n=3
    )


@query("ta_heavy_hitters", sql="""
WITH g AS (
    SELECT ts[i + 1] || ' ' || ts[i + 2] || ' ' || ts[i + 3] AS gram
    FROM (SELECT string_split(text, ' ') AS ts FROM documents),
         LATERAL (SELECT unnest(range(len(ts) - 2)) AS i)
    WHERE len(ts) >= 3
),
tot AS (SELECT count(*) AS t FROM g)
SELECT gram, CAST(count(*) AS BIGINT) AS n
FROM g, tot
GROUP BY gram, tot.t
HAVING count(*) * 4000 > tot.t
""")
def q_ta_heavy_hitters(sf_dir: str):
    """Exact heavy-hitter trigrams (count > total/4000) via the
    two-pass Misra-Gries sketch-then-verify dataflow: per-batch <= k-row
    MG summaries -> one slim groupby-sum -> <= k candidate broadcast ->
    one exact counting pass.  Nothing corpus-sized ever shuffles; the
    output is exact and oracle-checked."""
    from rex_ray.stages.textstats import heavy_hitter_ngrams

    return heavy_hitter_ngrams(
        _read(sf_dir, "documents", columns=["text"]), n=3, k=4000
    )


@query("ta_dup_ngrams_joined", sql=_DUP_NGRAMS_SQL)
def q_ta_dup_ngrams_joined(sf_dir: str):
    """The SAME dup-ngram signal through the degradation regime the
    cardinality guard takes on boilerplate-heavy crawls (duplicated-
    gram table above MAX_BROADCAST_GRAMS): slim (hash, doc) shuffle
    join instead of the broadcast probe.  Checked against the same
    oracle as ta_dup_ngrams, so the scale path itself is driver-gate
    verified end-to-end."""
    from rex_ray import trace
    from rex_ray.stages.textstats import cross_doc_dup_ngrams

    with trace.run() as rec:
        out = cross_doc_dup_ngrams(
            _read(sf_dir, "documents", columns=["doc_id", "text"]), n=3,
            max_broadcast_grams=0,
        )
    assert rec["dup_ngram_regime"] == "join", rec
    return out


@query("ta_tfidf", sql="""
WITH tf AS (
    SELECT doc_id, u.token, CAST(count(*) AS BIGINT) AS tf
    FROM documents, unnest(string_split(text, ' ')) AS u(token)
    GROUP BY 1, 2
),
df AS (SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents)
SELECT tf.doc_id, tf.token, tf.tf, df.df,
       round(tf.tf * ln((SELECT n FROM n) / CAST(df.df AS DOUBLE)), 8)
           AS tfidf
FROM tf JOIN df USING (token)
""")
def q_ta_tfidf(sf_dir: str):
    """Distributed TF-IDF per (doc_id, token): one slim doc-token
    shuffle for tf, a vocabulary-sized broadcast for df (no second
    join), vectorized scoring under the PMI double-determinism
    contract.  N comes from Parquet metadata — no extra data pass."""
    import pyarrow.parquet as pq

    from rex_ray.stages.textstats import tf_idf

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return tf_idf(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n_docs
    )


@query("ta_word_freq", sql="""
SELECT u.token, CAST(count(*) AS BIGINT) AS n
FROM documents, unnest(string_split(text, ' ')) AS u(token)
GROUP BY u.token
""")
def q_ta_word_freq(sf_dir: str):
    from rex_ray.stages.textstats import word_frequency

    return word_frequency(_read(sf_dir, "documents", columns=["text"]))


# --------------------------------------------------------------------------
# dedup
# --------------------------------------------------------------------------

_NORM_TEXT = (
    "array_to_string(list_filter(string_split(text, ' '), "
    "x -> x != 'dup'), ' ')"
)


@query("dd_exact_groups", sql=f"""
SELECT min(doc_id) AS survivor_doc_id, CAST(count(*) AS BIGINT) AS group_size
FROM (SELECT doc_id, {_NORM_TEXT} AS k FROM documents)
GROUP BY k
""")
def q_dd_exact_groups(sf_dir: str):
    from rex_ray.stages.dedup import exact_dedup_groups

    return exact_dedup_groups(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


_SHINGLES = f"""
    SELECT doc_id,
           CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                ELSE list_distinct(list_transform(
                    range(1, len(ts) - 1),
                    i -> ts[i] || ' ' || ts[i + 1] || ' ' || ts[i + 2]))
           END AS sh
    FROM (SELECT doc_id,
                 list_filter(string_split(text, ' '), x -> x != 'dup') AS ts
          FROM documents)
"""


@query("dd_minhash_pairs", sql=f"""
WITH sh AS ({_SHINGLES})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
      / len(list_distinct(list_concat(a.sh, b.sh))) >= {MINHASH_JACCARD}
""")
def q_dd_minhash_pairs(sf_dir: str):
    from rex_ray.stages.dedup import minhash_dup_pairs

    return minhash_dup_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=MINHASH_JACCARD,
    )


@query("dd_simhash_pairs", sql=f"""
WITH toks AS (
    SELECT doc_id, u.tok
    FROM (SELECT doc_id, {_NORM_TEXT} AS nt FROM documents),
         unnest(string_split(nt, ' ')) AS u(tok)
),
th AS (
    SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
),
votes AS (
    SELECT doc_id, i,
           sum(CASE WHEN (h >> i) & 1 = 1 THEN 1 ELSE -1 END) AS s
    FROM th, unnest(range(64)) AS u(i)
    GROUP BY doc_id, i
),
sh AS (
    SELECT doc_id,
           sum(CASE WHEN s > 0 THEN (1::UBIGINT << i)
                    ELSE 0::UBIGINT END)::UBIGINT AS simhash
    FROM votes GROUP BY doc_id
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
""")
def q_dd_simhash_pairs(sf_dir: str):
    """Pigeonhole-bucketed simhash near-dup pairs (hamming <= 3),
    oracle-checked: DuckDB recomputes the md5 simhash and brute-forces
    bit_count(xor(a, b))."""
    from rex_ray.stages.dedup import simhash_dup_pairs

    return simhash_dup_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_hamming=3,
    )


@query("dd_jaccard_pairs", sql=f"""
WITH sh AS ({_SHINGLES})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
      / len(list_distinct(list_concat(a.sh, b.sh))) >= {NGRAM_JACCARD}
""")
def q_dd_jaccard_pairs(sf_dir: str):
    """Exact prefix-filtered n-gram Jaccard — recall 1 by theorem, so
    this oracle-checks against brute-force SQL at a LOOSER threshold
    than MinHash (where LSH recall is probabilistic)."""
    from rex_ray.stages.dedup import ngram_jaccard_dup_pairs

    return ngram_jaccard_dup_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=NGRAM_JACCARD,
    )


_DUP_REACH = f"""
pairs AS (
    SELECT a.doc_id AS a, b.doc_id AS b
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / len(list_distinct(list_concat(a.sh, b.sh))) >= {NGRAM_JACCARD}
),
edges AS (
    SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs
),
reach(node, r) AS (
    SELECT a AS node, a AS r FROM edges
    UNION
    SELECT e.b AS node, reach.r FROM reach JOIN edges e ON e.a = reach.node
)
"""


@query("dd_dup_clusters", sql=f"""
WITH RECURSIVE sh AS ({_SHINGLES}),
{_DUP_REACH}
SELECT node AS doc_id, min(r) AS cluster_id FROM reach GROUP BY node
""")
def q_dd_dup_clusters(sf_dir: str):
    """Near-dup connected components: (doc_id, cluster_id) for every
    doc in >=1 exact-Jaccard dup pair.  Oracle = recursive-CTE
    transitive closure over the same pair graph."""
    from rex_ray.stages.dedup import near_dup_clusters

    return near_dup_clusters(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=NGRAM_JACCARD,
    )


@query("dd_survivors", sql=f"""
WITH RECURSIVE sh AS ({_SHINGLES}),
{_DUP_REACH},
lbl AS (SELECT node, min(r) AS r FROM reach GROUP BY node)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT node FROM lbl WHERE node != r)
""")
def q_dd_survivors(sf_dir: str):
    """The deduplicated corpus id set (keep min-doc_id representative
    per near-dup cluster) — the materialization step a 100 TB dedup
    actually ships."""
    from rex_ray.stages.dedup import dedup_survivors

    return dedup_survivors(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=NGRAM_JACCARD,
    )


@query("dd_simhash", sql=f"""
WITH toks AS (
    SELECT doc_id, u.tok
    FROM (SELECT doc_id, {_NORM_TEXT} AS nt FROM documents),
         unnest(string_split(nt, ' ')) AS u(tok)
),
th AS (
    SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
),
votes AS (
    SELECT doc_id, i,
           sum(CASE WHEN (h >> i) & 1 = 1 THEN 1 ELSE -1 END) AS s
    FROM th, unnest(range(64)) AS u(i)
    GROUP BY doc_id, i
)
SELECT doc_id,
       lpad(lower(hex(sum(CASE WHEN s > 0 THEN (1::UBIGINT << i)
                               ELSE 0::UBIGINT END)::UBIGINT)), 16, '0')
           AS simhash
FROM votes GROUP BY doc_id
""")
def q_dd_simhash(sf_dir: str):
    from rex_ray.stages.dedup import simhash_table

    return simhash_table(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


@query("dd_embedding_pairs", sql=f"""
SELECT a.vec_id AS a_id, b.vec_id AS b_id
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
      >= {EMB_DUP_THRESHOLD}
""")
def q_dd_embedding_pairs(sf_dir: str):
    """Exact distributed all-pairs cosine (block-partitioned self-
    join).  chunk_rows sized so sf0.1 runs the real multi-chunk
    shuffle path; multi-vs-single-chunk equality is asserted in
    tests/test_dedup_similarity.py."""
    from rex_ray.stages.dedup import embedding_dup_pairs

    return embedding_dup_pairs(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        threshold=EMB_DUP_THRESHOLD,
        chunk_rows=1024,
    )


# --------------------------------------------------------------------------
# similarity search
# --------------------------------------------------------------------------

@query("ann_topk", sql=f"""
WITH sims AS (
    SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
           list_cosine_similarity(q.embedding::DOUBLE[],
                                  n.embedding::DOUBLE[]) AS sim
    FROM embeddings q
    JOIN embeddings n ON n.vec_id != q.vec_id
    WHERE q.vec_id < {ANN_NUM_QUERIES}
)
SELECT query_id, neighbor_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id ASC)
            AS BIGINT) AS rank
FROM sims
QUALIFY rank <= {ANN_K}
""")
def q_ann_topk(sf_dir: str):
    from rex_ray.stages.similarity import brute_force_topk

    return brute_force_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_ids=range(ANN_NUM_QUERIES),
        k=ANN_K,
    )


LSH_PLANES = 4


def _lsh_sql() -> str:
    from rex_ray.stages.similarity import lsh_planes

    dim = 64  # embeddings.parquet vector width (FIXTURES.md)
    S = lsh_planes(LSH_PLANES, dim)
    bits = []
    for p in range(LSH_PLANES):
        terms = "".join(
            (" + " if S[p, d] > 0 else " - ") + f"e[{d + 1}]"
            for d in range(dim)
        ).lstrip(" +")
        if terms.startswith("- "):
            terms = "-" + terms[2:]
        bits.append(
            f"CASE WHEN {terms} > 0 THEN {1 << (LSH_PLANES - 1 - p)}"
            f" ELSE 0 END"
        )
    bucket = " + ".join(bits)
    return f"""
WITH v AS (
    SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings
),
b AS (
    SELECT vec_id, e, {bucket} AS bucket FROM v
),
sims AS (
    SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
           list_cosine_similarity(q.e, n.e) AS sim
    FROM b q
    JOIN b n ON n.bucket = q.bucket AND n.vec_id != q.vec_id
    WHERE q.vec_id < {ANN_NUM_QUERIES}
)
SELECT query_id, neighbor_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id ASC)
            AS BIGINT) AS rank
FROM sims
QUALIFY rank <= {ANN_K}
"""


@query("ann_lsh_topk", sql=_lsh_sql())
def q_ann_lsh_topk(sf_dir: str):
    """LSH-bucketed ANN (sign random projections): candidates
    restricted to the query's bucket — approximate but fully
    deterministic (±1 planes from an md5 rule, left-fold sign sums),
    so the oracle reproduces it exactly."""
    from rex_ray.stages.similarity import lsh_topk

    return lsh_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_ids=range(ANN_NUM_QUERIES),
        k=ANN_K,
        n_planes=LSH_PLANES,
    )


@query("ann_lsh_topk_bucketed", sql=_lsh_sql())
def q_ann_lsh_topk_bucketed(sf_dir: str):
    """ann_lsh_topk over a PERSISTED bucket-partitioned Parquet layout
    (hive ``bucket=<b>/`` dirs + manifest + slim id index): both the
    candidate scan AND the query-vector fetch read only the relevant
    partitions (round-3 item #3, round-4 item #1).  Same oracle as
    ann_lsh_topk; byte-identical output is the contract.  The layout
    lives in a per-run unique temp dir (two concurrent runs against
    the same sf_dir must not race on a shared path) and is removed
    once the tiny result is materialized."""
    import shutil
    import tempfile

    from rex_ray.stages.similarity import (
        lsh_topk_from_layout,
        write_lsh_bucket_layout,
    )

    layout_dir = tempfile.mkdtemp(prefix="rex_ray_lsh_layout_")
    try:
        write_lsh_bucket_layout(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
            layout_dir, n_planes=LSH_PLANES,
        )
        return lsh_topk_from_layout(
            layout_dir, query_ids=range(ANN_NUM_QUERIES), k=ANN_K,
            n_planes=LSH_PLANES,
        ).materialize()
    finally:
        shutil.rmtree(layout_dir, ignore_errors=True)


@query("ann_lsh_topk_appended", sql=_lsh_sql())
def q_ann_lsh_topk_appended(sf_dir: str):
    """Incremental index maintenance: the LSH layout is written from
    the EVEN-id half of the embedding table, the odd half is APPENDED
    (:func:`rex_ray.stages.similarity.append_to_bucket_layout` — new
    files into existing hive dirs + new index files, manifest
    refreshed last/atomically; O(new), no re-bucketing), and the
    pruned reader runs over the result.  The LSH rule is row-local,
    so the appended layout must reproduce the one-shot layout EXACTLY
    — same oracle as ann_lsh_topk / ann_lsh_topk_bucketed."""
    import shutil
    import tempfile

    import pyarrow.compute as pc

    from rex_ray.stages.similarity import (
        append_to_bucket_layout,
        lsh_topk_from_layout,
        write_lsh_bucket_layout,
    )

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def half(parity):
        def fn(t):
            return t.filter(
                pc.equal(pc.bit_wise_and(t["vec_id"], 1), parity)
            )
        return fn

    layout_dir = tempfile.mkdtemp(prefix="rex_ray_lsh_append_")
    try:
        write_lsh_bucket_layout(
            emb.map_batches(half(0), batch_format="pyarrow"),
            layout_dir, n_planes=LSH_PLANES,
        )
        append_to_bucket_layout(
            emb.map_batches(half(1), batch_format="pyarrow"), layout_dir
        )
        return lsh_topk_from_layout(
            layout_dir, query_ids=range(ANN_NUM_QUERIES), k=ANN_K,
            n_planes=LSH_PLANES,
        ).materialize()
    finally:
        shutil.rmtree(layout_dir, ignore_errors=True)


IVF_NPROBE = 3


# stages/similarity.py k-means: exact integer grid v = floor(x*1024 +
# 0.5); centroid update m = floordiv(2*sum + n, 2*n) (floor-div
# emulated below since DuckDB's // truncates toward zero); empty
# clusters keep their previous centroid; ties break to lowest cid.
# shared prefix: integer-grid embeddings + 2 unrolled Lloyd updates
# (c2 = trained codebook, d3 = final distances of every vec to c2) —
# used by both ann_kmeans and the exact-IVF oracle below
_KM_SQL_PREFIX = """
WITH qe AS (
    SELECT vec_id, i - 1 AS i,
           CAST(floor(CAST(list_extract(embedding, i) AS DOUBLE)
                      * 1024 + 0.5) AS BIGINT) AS v
    FROM embeddings,
         LATERAL (SELECT unnest(range(1, len(embedding) + 1)) AS i) u
),
c0 AS (SELECT vec_id AS cid, i, v FROM qe WHERE vec_id < 8),
d1 AS (
    SELECT q.vec_id, c.cid, sum((q.v - c.v) * (q.v - c.v)) AS d
    FROM qe q JOIN c0 c USING (i) GROUP BY 1, 2
),
a1 AS (
    SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY d, cid) AS rn
        FROM d1
    ) WHERE rn = 1
),
u1 AS (
    SELECT cid, i, (a - ((a % b + b) % b)) // b AS v
    FROM (
        SELECT a1.cid, q.i,
               2 * sum(q.v) + count(*) AS a, 2 * count(*) AS b
        FROM a1 JOIN qe q USING (vec_id) GROUP BY 1, 2
    )
),
c1 AS (
    SELECT c0.cid, c0.i, COALESCE(u1.v, c0.v) AS v
    FROM c0 LEFT JOIN u1 ON u1.cid = c0.cid AND u1.i = c0.i
),
d2 AS (
    SELECT q.vec_id, c.cid, sum((q.v - c.v) * (q.v - c.v)) AS d
    FROM qe q JOIN c1 c USING (i) GROUP BY 1, 2
),
a2 AS (
    SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY d, cid) AS rn
        FROM d2
    ) WHERE rn = 1
),
u2 AS (
    SELECT cid, i, (a - ((a % b + b) % b)) // b AS v
    FROM (
        SELECT a2.cid, q.i,
               2 * sum(q.v) + count(*) AS a, 2 * count(*) AS b
        FROM a2 JOIN qe q USING (vec_id) GROUP BY 1, 2
    )
),
c2 AS (
    SELECT c1.cid, c1.i, COALESCE(u2.v, c1.v) AS v
    FROM c1 LEFT JOIN u2 ON u2.cid = c1.cid AND u2.i = c1.i
),
d3 AS (
    SELECT q.vec_id, c.cid, sum((q.v - c.v) * (q.v - c.v)) AS d
    FROM qe q JOIN c2 c USING (i) GROUP BY 1, 2
)"""


_IVF_EXACT_SQL = _KM_SQL_PREFIX + f""",
assign AS (
    SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY d, cid) AS rn
        FROM d3
    ) WHERE rn = 1
),
qd AS (
    SELECT q.vec_id AS query_id, c.cid,
           sum((q.v - c.v) * (q.v - c.v)) AS d
    FROM qe q JOIN c2 c USING (i)
    WHERE q.vec_id < {ANN_NUM_QUERIES}
    GROUP BY 1, 2
),
probe AS (
    SELECT query_id, cid FROM (
        SELECT query_id, cid,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY d, cid) AS rn
        FROM qd
    ) WHERE rn <= {IVF_NPROBE}
),
cand AS (
    SELECT p.query_id, a.vec_id AS neighbor_id
    FROM probe p JOIN assign a USING (cid)
    WHERE a.vec_id <> p.query_id
),
nd AS (
    SELECT c.query_id, c.neighbor_id,
           sum((q.v - n.v) * (q.v - n.v)) AS d
    FROM cand c
    JOIN qe q ON q.vec_id = c.query_id
    JOIN qe n ON n.vec_id = c.neighbor_id AND n.i = q.i
    GROUP BY 1, 2
)
SELECT query_id, neighbor_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY d, neighbor_id) AS BIGINT) AS rank
FROM nd
QUALIFY rank <= {ANN_K}
"""


@query("ann_ivf_exact_bucketed", sql=_IVF_EXACT_SQL)
def q_ann_ivf_exact_bucketed(sf_dir: str):
    """ann_ivf_exact over a PERSISTED cluster-partitioned layout with
    the trained codebook as a sidecar: the candidate scan opens only
    the probed cluster partitions, and the query-vector fetch reads
    only each query's home cluster via the slim id index.  Same oracle
    as ann_ivf_exact; byte-identical output is the contract (same
    integer-grid k-means, same probe rule, same int64 tie-break).
    Per-run unique temp layout dir, removed after materialization."""
    import shutil
    import tempfile

    from rex_ray.stages.similarity import (
        ivf_topk_int_from_layout,
        write_ivf_bucket_layout,
    )

    layout_dir = tempfile.mkdtemp(prefix="rex_ray_ivf_layout_")
    try:
        write_ivf_bucket_layout(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
            layout_dir, num_centroids=KMEANS_K, iters=KMEANS_ITERS,
        )
        return ivf_topk_int_from_layout(
            layout_dir, query_ids=range(ANN_NUM_QUERIES), k=ANN_K,
            nprobe=3,
        ).materialize()
    finally:
        shutil.rmtree(layout_dir, ignore_errors=True)


@query("ann_embedding_stats", sql="""
WITH qe AS (
    SELECT i - 1 AS dim,
           CAST(floor(CAST(list_extract(embedding, i) AS DOUBLE)
                      * 1024 + 0.5) AS BIGINT) AS v
    FROM embeddings,
         LATERAL (SELECT unnest(range(1, len(embedding) + 1)) AS i) u
)
SELECT dim,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v) AS BIGINT) AS sum_q,
       CAST(sum(v * v) AS BIGINT) AS sumsq_q,
       CAST(min(v) AS BIGINT) AS min_q,
       CAST(max(v) AS BIGINT) AS max_q
FROM qe GROUP BY 1
""")
def q_ann_embedding_stats(sf_dir: str):
    """Per-dimension embedding-table QC on the exact integer grid
    (n / sum / sum-of-squares / min / max per dim): the health audit
    run before ANN or semantic dedup trusts a 100 TB embedding table
    — collapsed dims, scale bugs and zero-padding stripes all show.
    One partial row per (dim, batch); a tiny groupby merges."""
    from rex_ray.stages.similarity import embedding_dim_stats

    return embedding_dim_stats(
        _read(sf_dir, "embeddings", columns=["embedding"])
    )


@query("ann_hard_negatives", sql=f"""
WITH sims AS (
    SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
           list_cosine_similarity(q.embedding::DOUBLE[],
                                  n.embedding::DOUBLE[]) AS sim
    FROM embeddings q
    JOIN embeddings n
      ON n.vec_id != q.vec_id AND n.label != q.label
    WHERE q.vec_id < {ANN_NUM_QUERIES}
)
SELECT query_id, neighbor_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id ASC)
            AS BIGINT) AS rank
FROM sims
QUALIFY rank <= {ANN_K}
""")
def q_ann_hard_negatives(sf_dir: str):
    """Hard-negative mining (DPR/Contriever): per query, the k most
    cosine-similar vectors with a DIFFERENT label — broadcast query
    matrix, per-batch matmul partials, per-query merge."""
    from rex_ray.stages.similarity import hard_negative_topk

    return hard_negative_topk(
        _read(
            sf_dir, "embeddings",
            columns=["vec_id", "embedding", "label"],
        ),
        query_ids=range(ANN_NUM_QUERIES),
        k=ANN_K,
    )


@query("ann_ivf_topk")
def q_ann_ivf_topk(sf_dir: str):
    """Approximate IVF variant — recall < 1 by design (rows-only
    check; recall vs brute force asserted in tests)."""
    from rex_ray.stages.similarity import ivf_topk

    return ivf_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_ids=range(ANN_NUM_QUERIES),
        k=ANN_K,
    )


# --------------------------------------------------------------------------
# multimodal
# --------------------------------------------------------------------------

@query("mm_decode_features", sql="""
WITH stats AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n, 4 + doc_id % 4 AS c
    FROM documents
),
m AS (SELECT doc_id, ((n + c - 1) // c) // 2 AS mcount FROM stats),
media AS (
    SELECT doc_id, i + 1 AS mi
    FROM m, LATERAL (SELECT unnest(range(mcount)) AS i)
)
SELECT printf('doc-%08d', doc_id) AS doc_id,
       'media://' || doc_id || '/' || mi AS media_ref,
       CASE WHEN (doc_id + mi) % 2 = 0 THEN 'image' ELSE 'audio' END AS kind,
       md5('media://' || doc_id || '/' || mi) AS feat_hash
FROM media
""")
def q_mm_decode_features(sf_dir: str):
    from rex_ray.sources import interleaved as il
    from rex_ray.stages.multimodal import media_features

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    inter = il.synthesize_interleaved(docs)
    return media_features(il.media_spans(inter).drop_columns(["offset"]))


@query("mm_frame_samples", sql="""
WITH stats AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n, 4 + doc_id % 4 AS c
    FROM documents
),
m AS (SELECT doc_id, ((n + c - 1) // c) // 2 AS mcount FROM stats),
media AS (
    SELECT doc_id, i + 1 AS mi
    FROM m, LATERAL (SELECT unnest(range(mcount)) AS i)
),
probed AS (
    SELECT doc_id, mi,
           'media://' || doc_id || '/' || mi AS media_ref,
           CASE WHEN (doc_id + mi) % 2 = 0 THEN 'image' ELSE 'audio' END
               AS kind,
           1 + ('0x' || substr(md5('media://' || doc_id || '/' || mi),
                               1, 8))::UBIGINT % 240 AS n_units
    FROM media
)
SELECT printf('doc-%08d', doc_id) AS doc_id, media_ref, kind,
       CAST(u.unit_idx AS BIGINT) AS unit_idx
FROM probed, LATERAL (
    SELECT unnest(range(0, CAST(n_units AS BIGINT), 16)) AS unit_idx
) u
""")
def q_mm_frame_samples(sf_dir: str):
    """Stride-16 unit sampling per media span (frame/window/tile
    fan-out) — the bounded-batch decode shape for media pipelines."""
    from rex_ray.sources import interleaved as il
    from rex_ray.stages.multimodal import frame_samples

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    inter = il.synthesize_interleaved(docs)
    return frame_samples(il.media_spans(inter).drop_columns(["offset"]))


KMEANS_K = 8
KMEANS_ITERS = 2


@query("ann_kmeans", sql=_KM_SQL_PREFIX + """
SELECT vec_id, cid AS cluster_id, CAST(d AS BIGINT) AS dist FROM (
    SELECT vec_id, cid, d,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY d, cid) AS rn
    FROM d3
) WHERE rn = 1
""")
def q_ann_kmeans(sf_dir: str):
    """Distributed integer-grid k-means (2 Lloyd updates, seeds =
    vec_id < 8) then final assignment — the trained IVF codebook path;
    exact int64 arithmetic makes it oracle-checkable."""
    from rex_ray.stages.similarity import kmeans_assign, kmeans_fit

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    C = kmeans_fit(emb, k=KMEANS_K, iters=KMEANS_ITERS)
    return kmeans_assign(emb, C)


@query("ann_ivf_exact", sql=_IVF_EXACT_SQL)
def q_ann_ivf_exact(sf_dir: str):
    """IVF ANN on the trained integer-grid codebook with exact int64
    probe + rank arithmetic — the oracle-checkable IVF path (the only
    approximation is which buckets are probed, and the oracle probes
    the same ones)."""
    from rex_ray.stages.similarity import ivf_topk_int

    return ivf_topk_int(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_ids=range(ANN_NUM_QUERIES),
        k=ANN_K,
        num_centroids=KMEANS_K,
        iters=KMEANS_ITERS,
        nprobe=3,
    )


@query("dd_line_dedup", sql="""
WITH base AS (
    SELECT doc_id,
           list_filter(string_split(text, ' '), x -> x != 'dup') AS ts
    FROM documents
),
segs AS (
    SELECT DISTINCT doc_id,
           array_to_string(ts[i * 12 + 1:(i + 1) * 12], ' ') AS seg
    FROM base,
         LATERAL (SELECT unnest(range((len(ts) + 11) // 12)) AS i) u
),
dup AS (SELECT seg FROM segs GROUP BY seg HAVING count(*) >= 2),
tot AS (
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_segments
    FROM segs GROUP BY doc_id
),
dups AS (
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup_segments
    FROM segs JOIN dup USING (seg) GROUP BY doc_id
)
SELECT t.doc_id, t.n_segments,
       COALESCE(d.n_dup_segments, CAST(0 AS BIGINT)) AS n_dup_segments
FROM tot t LEFT JOIN dups d USING (doc_id)
""")
def q_dd_line_dedup(sf_dir: str):
    """Duplicated-line pass (CCNet / Dolma exact paragraph dedup):
    per-doc counts of distinct segments shared with another document;
    segments are 12-token chunks of the dedup-normalized stream."""
    from rex_ray.stages.dedup import segment_dup_stats

    return segment_dup_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


@query("dd_curation", sql=f"""
WITH surv AS (
    SELECT doc_id, min(doc_id) OVER (PARTITION BY k) AS survivor_doc_id
    FROM (SELECT doc_id, {{NORM}} AS k FROM documents)
),
toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
    SELECT doc_id, array_to_string(t[i+1:i+8], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 7, 0))) AS i) u
),
bg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 0),
contam AS (
    SELECT DISTINCT tg.doc_id
    FROM (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % 10 <> 0) tg
    JOIN bg USING (g)
),
hits AS (
    SELECT doc_id, lang,
           {{H_DE}} AS h_de, {{H_EN}} AS h_en,
           {{H_ES}} AS h_es, {{H_FR}} AS h_fr
    FROM documents
),
pred AS (
    SELECT doc_id, lang,
           CASE
             WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr THEN 'de'
             WHEN h_en >= h_es AND h_en >= h_fr THEN 'en'
             WHEN h_es >= h_fr THEN 'es'
             ELSE 'fr'
           END AS pred_lang
    FROM hits
),
qual AS (
    SELECT doc_id,
           0.5 * least(1.0, n_tokens / 64.0)
           + 0.3 * distinct_ratio
           + 0.2 * least(1.0, 5.0 * stopword_ratio) AS quality_score
    FROM (
        SELECT doc_id, n_tokens,
               CAST(len(list_distinct(ts)) AS DOUBLE) / n_tokens
                   AS distinct_ratio,
               CAST(stop_hits AS DOUBLE) / n_tokens AS stopword_ratio
        FROM (
            SELECT doc_id,
                   string_split(text, ' ') AS ts,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                   CAST(len(list_filter(string_split(text, ' '),
                                        x -> x IN ({{QSTOP}}))) AS BIGINT)
                       AS stop_hits
            FROM documents))
),
flags AS (
    SELECT d.doc_id,
           d.doc_id % 10 = 0 AS f_bench,
           s.doc_id <> s.survivor_doc_id AS f_dup,
           c.doc_id IS NOT NULL AS f_contam,
           p.pred_lang <> p.lang AS f_lang,
           q.quality_score < 0.5 AS f_qual
    FROM documents d
    JOIN surv s ON s.doc_id = d.doc_id
    LEFT JOIN contam c ON c.doc_id = d.doc_id
    JOIN pred p ON p.doc_id = d.doc_id
    JOIN qual q ON q.doc_id = d.doc_id
)
SELECT doc_id,
       CAST(CASE WHEN f_bench OR f_dup OR f_contam OR f_lang OR f_qual
                 THEN 0 ELSE 1 END AS BIGINT) AS keep,
       COALESCE(array_to_string(list_filter([
           CASE WHEN f_bench THEN 'benchmark_heldout' ELSE '' END,
           CASE WHEN f_dup THEN 'exact_dup' ELSE '' END,
           CASE WHEN f_contam THEN 'contaminated' ELSE '' END,
           CASE WHEN f_lang THEN 'lang_mismatch' ELSE '' END,
           CASE WHEN f_qual THEN 'low_quality' ELSE '' END
       ], x -> x != ''), ','), '') AS reasons
FROM flags
""".replace("{NORM}", _NORM_TEXT).replace("{QSTOP}", _Q_STOP).replace(
    "{H_DE}", _HITS["de"]
).replace("{H_EN}", _HITS["en"]).replace(
    "{H_ES}", _HITS["es"]
).replace("{H_FR}", _HITS["fr"]))
def q_dd_curation(sf_dir: str):
    """Corpus-curation decision table (FineWeb/Dolma-style): per-doc
    keep flag + ordered reason codes (benchmark holdout, exact dup,
    contamination, language mismatch, low quality) composed from the
    engine's own signal stages."""
    from rex_ray.pipelines.curation import curate_corpus

    return curate_corpus(
        _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    )


SEMDEDUP_RADIUS = 1_160_000  # int64 grid sqdist ~ cosine 0.45 at |v|=1


@query("dd_semantic_dups", sql=_KM_SQL_PREFIX + f""",
asg AS (
    SELECT vec_id, cid AS cluster_id, CAST(d AS BIGINT) AS dist FROM (
        SELECT vec_id, cid, d,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY d, cid) AS rn
        FROM d3
    ) WHERE rn = 1
),
pd AS (
    SELECT a.vec_id AS v, b.vec_id AS u,
           sum((qa.v - qb.v) * (qa.v - qb.v)) AS sq
    FROM asg a
    JOIN asg b ON a.cluster_id = b.cluster_id AND a.vec_id <> b.vec_id
    JOIN qe qa ON qa.vec_id = a.vec_id
    JOIN qe qb ON qb.vec_id = b.vec_id AND qb.i = qa.i
    GROUP BY 1, 2
),
drops AS (
    SELECT DISTINCT pd.v AS vec_id
    FROM pd
    JOIN asg da ON da.vec_id = pd.v
    JOIN asg db ON db.vec_id = pd.u
    WHERE pd.sq <= {SEMDEDUP_RADIUS}
      AND (db.dist > da.dist
           OR (db.dist = da.dist AND db.vec_id < da.vec_id))
)
SELECT a.vec_id, a.cluster_id, a.dist,
       (dr.vec_id IS NULL) AS keep
FROM asg a LEFT JOIN drops dr USING (vec_id)
""")
def q_dd_semantic_dups(sf_dir: str):
    """SemDeDup: integer-grid k-means clustering then within-cluster
    near-dedup under an exact int64 radius; keeps the farthest-from-
    centroid member of each epsilon-neighborhood."""
    from rex_ray.stages.dedup import semantic_dup_drops

    return semantic_dup_drops(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        radius=SEMDEDUP_RADIUS,
        k=KMEANS_K,
        iters=KMEANS_ITERS,
    )


# stages/dedup.substring_dup_runs: n=8 anchors, grams occurring more
# than 50 times corpus-wide skipped (same cap on both sides), islands
# = consecutive pos_a on one (doc_a, doc_b, diag) diagonal.
@query("dd_substring_runs", sql="""
WITH toks AS (
    SELECT doc_id, string_split(text, ' ') AS t FROM documents
),
grams AS (
    SELECT doc_id, i AS pos, array_to_string(t[i+1:i+8], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 7, 0))) AS i) u
),
ok AS (SELECT g FROM grams GROUP BY g
       HAVING count(*) BETWEEN 2 AND 50),
m AS (
    SELECT a.doc_id AS da, a.pos AS pa, b.doc_id AS db, b.pos AS pb
    FROM grams a
    JOIN ok USING (g)
    JOIN grams b USING (g)
    WHERE a.doc_id < b.doc_id
),
isl AS (
    SELECT da, db, pa - pb AS diag, pa,
           pa - row_number() OVER (PARTITION BY da, db, pa - pb
                                   ORDER BY pa) AS grp
    FROM m
)
SELECT da AS doc_a, db AS doc_b,
       CAST(min(pa) AS BIGINT) AS start_a,
       CAST(min(pa) - diag AS BIGINT) AS start_b,
       CAST(count(*) + 7 AS BIGINT) AS len_tokens
FROM isl GROUP BY da, db, diag, grp
""")
def q_dd_substring_runs(sf_dir: str):
    """Maximal cross-doc duplicated token runs (>= 8 tokens), the
    substring-level dedup pass (Lee et al. 2021) via n-gram anchors +
    diagonal island merge."""
    from rex_ray.stages.dedup import substring_dup_runs

    return substring_dup_runs(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


# stages/decontam.py: n=8 token grams, benchmark = doc_id % 10 == 0.
# The Ray side joins on md5-64 gram hashes; the oracle joins on the
# gram strings themselves (equivalent up to md5-64 collisions).
@query("dd_decontam", sql="""
WITH toks AS (
    SELECT doc_id, string_split(text, ' ') AS t FROM documents
),
grams AS (
    SELECT doc_id, array_to_string(t[i+1:i+8], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 7, 0))) AS i) u
),
bg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 0),
tg AS (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % 10 <> 0)
SELECT tg.doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM tg JOIN bg USING (g)
GROUP BY tg.doc_id
""")
def q_dd_decontam(sf_dir: str):
    """Benchmark decontamination: training docs (doc_id % 10 != 0)
    sharing any distinct 8-gram with the benchmark partition
    (doc_id % 10 == 0); broadcast sorted-hash probe, no shuffle."""
    from rex_ray.stages.decontam import decontaminate

    return decontaminate(_read(sf_dir, "documents", columns=["doc_id", "text"]))


@query("dd_split_leakage", sql="""
WITH b AS (
    SELECT doc_id, text,
           ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
               % 100 AS bucket
    FROM documents
),
toks AS (SELECT doc_id, bucket, string_split(text, ' ') AS t FROM b),
grams AS (
    SELECT doc_id, bucket, array_to_string(t[i+1:i+8], ' ') AS g
    FROM toks,
         LATERAL (SELECT unnest(range(greatest(len(t) - 7, 0))) AS i) u
),
vg AS (SELECT DISTINCT g FROM grams WHERE bucket >= 90),
tg AS (SELECT DISTINCT doc_id, g FROM grams WHERE bucket < 90)
SELECT tg.doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM tg JOIN vg USING (g)
GROUP BY tg.doc_id
""")
def q_dd_split_leakage(sf_dir: str):
    """Train/val split-hygiene audit: train-split docs (md5 buckets
    0-89) sharing any distinct 8-gram with the val split (buckets
    90-99)."""
    from rex_ray.stages.decontam import split_leakage

    return split_leakage(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    )


# Slot layout (sources/interleaved.py synthesis spec): text chunks of
# c = 4 + doc_id % 4 tokens, one media span after every 2nd text chunk
# -> media m (1-indexed) sits at offset 3m-1, preceded by text chunk 2m
# (tokens (2m-1)*c+1 .. 2m*c, 1-indexed) and followed by text chunk
# 2m+1 when it exists.  The span before a media span is always text.
@query("mm_media_context", sql="""
WITH stats AS (
    SELECT doc_id, string_split(text, ' ') AS toks,
           4 + doc_id % 4 AS c
    FROM documents
),
m AS (
    SELECT doc_id, c, toks,
           (len(toks) + c - 1) // c AS n_text
    FROM stats
),
media AS (
    SELECT doc_id, c, toks, n_text, i + 1 AS mi
    FROM m, LATERAL (SELECT unnest(range(n_text // 2)) AS i)
)
SELECT printf('doc-%08d', doc_id) AS doc_id,
       'media://' || doc_id || '/' || mi AS media_ref,
       CAST(3 * mi - 1 AS BIGINT) AS span_offset,
       'text' AS prev_kind,
       array_to_string(list_slice(toks, (2*mi-1)*c + 1, 2*mi*c), ' ')
           AS prev_text,
       CASE WHEN n_text >= 2*mi + 1
            THEN array_to_string(
                list_slice(toks, 2*mi*c + 1, (2*mi+1)*c), ' ')
            ELSE '' END AS next_text
FROM media
""")
def q_mm_media_context(sf_dir: str):
    """Text-neighborhood alignment for every media span (the record a
    caption/ASR/grounding stage consumes)."""
    from rex_ray.sources import interleaved as il
    from rex_ray.stages.multimodal import media_context

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return media_context(il.synthesize_interleaved(docs))
