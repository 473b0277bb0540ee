"""Deterministic KG-extraction specification.

Single source of truth shared by the Ray pipeline stages AND the DuckDB
oracle SQL (``pipelines/queries.py`` renders the literals below into SQL
fragments), so the two can never drift apart.

The corpus (``documents.parquet``) is space-separated tokens over a small
vocabulary with Zipf-ish skew; the spec mirrors the reference's
extraction shape (gazetteer NER -> windowed entity-pair fan-out ->
scored triples -> bags keyed "head###tail" -> alias linking ->
connected-component canonicalization -> deduped triple store) as
closed-form deterministic rules:

* mention  = any token equal to a gazetteer surface; span = (pos, pos+1)
  (flat-map per doc, reference ``rex/data/transforms/sent_re.py:31-63``)
* pair     = mentions (h, t) in one doc with 1 <= pos_t - pos_h <= PAIR_WINDOW
  (pair fan-out + validity window, ``sent_re.py:44-63``)
* pred     = PRED_MAP[(type_h, type_t)]     (relation classification stand-in)
* score    = 1.0 / (pos_t - pos_h)          (confidence, thresholded like
  ``data/EncyclopediaDS/convert.py:27-46``)
* bag key  = subj || '###' || obj           (``rex/data/transforms/bag_re.py:78``)
* linking  = surface -> canonical component of the VARIANT_EDGES graph
  restricted to surfaces present in the corpus; canonical surface = the
  lexicographic minimum of the component; entity id = 'ent:' || canonical
* triple store = group by (subj_id, pred, obj_id): max(score), count(*)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# surface -> entity type. Mixed popularity: 'join'/'hash' are head
# entities (~1k mentions per 500 docs -> skewed bags), exercising the
# salting path of the wide aggregations.
GAZETTEER: Dict[str, str] = {
    "spark": "SYS",
    "customer": "ACTOR",
    "join": "ALGO",
    "merge": "ALGO",
    "hash": "ALGO",
    "scan": "ALGO",
    "filter": "ALGO",
    "sort": "ALGO",
    "order": "ALGO",
    "table": "OBJ",
    "row": "OBJ",
    "line": "OBJ",
    "column": "OBJ",
    "vector": "OBJ",
    "agg": "OP",
    "group": "OP",
    "window": "OP",
}

PAIR_WINDOW = 4

# Token cap of every per-doc model input (feature rows, CRF tagging,
# global-pointer spans, subword pieces incl. [CLS]/[SEP]); the oracle
# SQL renders the same cap.
MAX_SEQ_LEN = 64

# (head_type, tail_type) -> predicate; missing pairs fall back.
PRED_MAP: Dict[Tuple[str, str], str] = {
    ("SYS", "ALGO"): "implements",
    ("SYS", "OBJ"): "stores",
    ("SYS", "OP"): "schedules",
    ("ALGO", "OBJ"): "applies_to",
    ("OBJ", "ALGO"): "feeds",
    ("ALGO", "ALGO"): "composed_with",
    ("OBJ", "OBJ"): "linked_to",
    ("OP", "OBJ"): "operates_on",
    ("OBJ", "OP"): "input_of",
    ("ACTOR", "OBJ"): "owns",
    ("ACTOR", "ALGO"): "runs",
}
PRED_FALLBACK = "related_to"

# Alias / surface-signature graph for canonicalization. Edges are only
# honored when BOTH endpoints occur as mentions in the corpus; the
# {agg, group, window} chain needs multi-hop propagation. 'arrange' is
# intentionally absent from GAZETTEER (never mentioned) so its edge is
# always filtered out — exercising the presence filter.
VARIANT_EDGES: List[Tuple[str, str]] = [
    ("merge", "join"),
    ("order", "sort"),
    ("sort", "arrange"),
    ("line", "row"),
    ("agg", "group"),
    ("group", "window"),
]

ENTITY_ID_PREFIX = "ent:"

# Ambiguous-alias fixture for embedding-similarity disambiguation:
# surface -> {candidate entity id -> marker tokens}.  Each candidate's
# "entity embedding" is one-hot over its markers (all candidates carry
# the SAME marker count, so cosine argmax == context marker-count
# argmax — closed form for the oracle, real broadcast-matrix dot
# product in the stage).  Winner = most context-window marker hits,
# ties -> lexicographically smaller entity id.
AMBIG_ALIASES: Dict[str, Dict[str, List[str]]] = {
    "scan": {
        "ent:scan#idx": ["hash", "join"],
        "ent:scan#seq": ["table", "row"],
    },
    "window": {
        "ent:window#buf": ["line", "vector"],
        "ent:window#time": ["order", "sort"],
    },
}
AMBIG_CONTEXT_RADIUS = 2
BAG_KEY_SEP = "###"

# ---------------------------------------------------------------------------
# Event-extraction spec (the reference's event shape,
# ``/root/reference/rex/data/transforms/joint.py:97``: a typed TRIGGER
# span plus role-labeled ARGUMENT spans — event types live in the
# entity-label space, roles in the relation-label space), expressed on
# the USM three-pointer decode base exactly like relations:
#
# * trigger  = mention whose entity type is in EVENT_TYPE_MAP; its
#   event type is an 'm' label on the trigger span
# * argument = any OTHER mention within EVENT_WINDOW tokens of the
#   trigger, EITHER side (unlike the one-directional pair rule) —
#   role = ROLE_MAP[(event_type, arg_type)] as a 'p' label linking
#   trigger span -> argument span
#
# The decode (functions/usm.usm_join_decode) carries no pair
# attribution, so a role that attaches to a trigger through one
# argument and to another in-window argument through a different
# trigger ALSO survives — the oracles replicate that five-way-join
# semantics faithfully (the kg_usm_relations hp/tp pattern).
# ---------------------------------------------------------------------------

# trigger mention type -> event type
EVENT_TYPE_MAP: Dict[str, str] = {
    "OP": "operation",
    "ALGO": "computation",
}
EVENT_WINDOW = 3
# (event_type, argument mention type) -> role; missing pairs fall back
ROLE_MAP: Dict[Tuple[str, str], str] = {
    ("operation", "OBJ"): "target",
    ("operation", "SYS"): "host",
    ("operation", "ALGO"): "method",
    ("computation", "OBJ"): "operand",
    ("computation", "SYS"): "engine",
    ("computation", "ACTOR"): "initiator",
}
ROLE_FALLBACK = "participant"

# Confidence tiers reported by the threshold-filter query, mirroring the
# reference's .97/.98/.99/.999 tiered exports (EncyclopediaDS/convert.py).
SCORE_TIERS: List[float] = [0.25, 0.5, 1.0]

# ---------------------------------------------------------------------------
# Interleaved-document synthesis spec (the `input_hint` Lance shape).
# documents.parquet row -> one interleaved doc:
#   * tokens chunked into text spans of size CHUNK = 4 + doc_id % 4
#   * after every 2nd text span, one media span; the m-th media span
#     (1-based) has kind 'image' when (doc_id + m) % 2 == 0 else 'audio',
#     media_ref 'media://{doc_id}/{m}', text ''
#   * offset = ordinal of the span within the doc (0-based)
# Invariant: ' '.join(text-span texts) == original document text.
# ---------------------------------------------------------------------------

def chunk_size(doc_id: int) -> int:
    return 4 + doc_id % 4


def media_kind(doc_id: int, m: int) -> str:
    return "image" if (doc_id + m) % 2 == 0 else "audio"


# ---------------------------------------------------------------------------
# GlobalPointer integer-rule twin (query kg_globalpointer_rule): the REAL
# biaffine + RoPE + tril forward of stages/gpointer.py with an
# integer-exact parameterization, so the full logit MATRIX (not just its
# decode) is DuckDB-checkable.  Contract:
#   * emb(token)[k] = (md5(token) hex byte k) % GP_RULE_EMB_MOD - 4
#     — a pure function of the token string, recomputable in SQL;
#   * Wh/bh/Wt/bt/U are the small-integer literals below;
#   * RoPE uses EXACT Pythagorean rotations: position p rotates by the
#     (cos, sin)*5^r pair GP_RULE_ROT[p % 4] (3-4-5 triple powers), the
#     same concat-halves recipe as the float path — integer-exact, and
#     the per-position positive scale 5^r never flips the sign that the
#     `logit > 0` decode thresholds;
#   * no final /sqrt(biaffine_size) (a positive scalar — decode-
#     invariant), so every surviving logit is an exact int64.
# All values stay < 2^53, so the numpy float64 forward is exact.
# ---------------------------------------------------------------------------

GP_RULE_DIM = 2
GP_RULE_MAX_LEN = 16
GP_RULE_EMB_MOD = 9
GP_RULE_WH = [[2, -1], [1, 3]]
GP_RULE_BH = [1, -2]
GP_RULE_WT = [[-2, 1], [3, 2]]
GP_RULE_BT = [0, 1]
# ent_type -> 3x3 biaffine U (bias_x = bias_y = True), keys = the
# sorted GAZETTEER entity types
GP_RULE_U: Dict[str, List[List[int]]] = {
    "ACTOR": [[1, -2, 0], [2, 1, -1], [0, 1, 1]],
    "ALGO": [[-1, 1, 2], [1, 0, -2], [2, -1, 0]],
    "OBJ": [[2, 0, -1], [-1, 2, 1], [1, 1, -2]],
    "OP": [[0, 2, 1], [-2, -1, 1], [1, 0, 2]],
    "SYS": [[1, 1, -1], [0, -2, 2], [-1, 2, 0]],
}
# (cos, sin) * 5^r for r = pos % 4: exact integer rotations
GP_RULE_ROT: List[Tuple[int, int]] = [(1, 0), (3, 4), (-7, 24), (-117, 44)]

# ---------------------------------------------------------------------------
# Fixed BPE merge list for the oracle-checked tokenizer-application
# query (ta_bpe_encode): rank-ordered, with later merges consuming
# earlier outputs ('jo'+'in' needs both predecessors) — the corpus-
# TRAINED list from bpe_train plugs into the same operator (round-
# tripped in tests); the fixed literal is what makes a static SQL
# oracle possible.  Contract: words and merge tokens contain no '|'
# (the oracle's boundary marker).
# ---------------------------------------------------------------------------

BPE_ENCODE_MERGES: List[Tuple[str, str]] = [
    ("o", "r"), ("e", "r"), ("or", "d"),
    ("j", "o"), ("i", "n"), ("jo", "in"),
    ("s", "c"), ("a", "n"),
]

# ---------------------------------------------------------------------------
# PCNN integer-rule twin (query kg_pcnn_rule): the REAL PCNN dataflow
# (token+2 relative-position channels -> width-3 same-padding conv ->
# piecewise max-pool over the 3 pmask segments -> dense per relation)
# under an integer-exact parameterization, so the convolution +
# piecewise pooling + dense matrix — the flagship scorer's structure —
# is DuckDB-checkable end to end (the kg_bag_*_rule / GP_RULE pattern
# extended to the conv stage).  Contract differences from the float
# scorer, by design: no tanh / sigmoid (monotone pointwise maps; the
# rule emits raw integer logits), dims 2/2/2, window L = 16.
#   * emb(token)[k]   = (md5(token) hex byte k) % 9 - 4   (GP rule;
#     padding positions use the vocab pad token '[PAD]')
#   * pos_subj[r][k]  = (r * PS_A[k] + PS_B[k]) % 9 - 4
#   * pos_obj[r][k]   = (r * PO_A[k] + PO_B[k]) % 9 - 4
#   * dense[rel][k]   = (md5(rel) hex byte k) % 9 - 4, bias byte 6
# ---------------------------------------------------------------------------

PCNN_RULE_MAX_LEN = 16
PCNN_RULE_PS_A = (3, 5)
PCNN_RULE_PS_B = (1, 7)
PCNN_RULE_PO_A = (2, 7)
PCNN_RULE_PO_B = (4, 2)
# (n_filters=2) x (taps: left, center, right) x (channels: e0 e1 ps0
# ps1 po0 po1)
PCNN_RULE_CONV_W: List[List[List[int]]] = [
    [[1, -2, 0, 2, -1, 1], [2, 1, -1, 0, 1, -2], [0, 1, 2, -1, -2, 1]],
    [[-1, 0, 2, 1, 1, -2], [1, -1, 0, 2, -2, 1], [2, 1, -1, -2, 0, 1]],
]
PCNN_RULE_CONV_B = (1, -1)


# ---------------------------------------------------------------------------
# SQL fragment renderers (DuckDB dialect) — used by the oracle queries.
# ---------------------------------------------------------------------------

def sql_gazetteer_values() -> str:
    rows = ", ".join(
        f"('{s}', '{t}')" for s, t in sorted(GAZETTEER.items())
    )
    return f"(VALUES {rows}) AS gaz(surface, ent_type)"


def sql_pred_case(head_type: str = "h.ent_type", tail_type: str = "t.ent_type") -> str:
    whens = "\n        ".join(
        f"WHEN {head_type} = '{ht}' AND {tail_type} = '{tt}' THEN '{p}'"
        for (ht, tt), p in sorted(PRED_MAP.items())
    )
    return f"CASE\n        {whens}\n        ELSE '{PRED_FALLBACK}' END"


def sql_event_trigger_types() -> str:
    """``'ALGO', 'OP'`` — the EVENT_TYPE_MAP key list for IN filters."""
    return ", ".join(f"'{t}'" for t in sorted(EVENT_TYPE_MAP))


def sql_event_type_case(col: str = "ent_type") -> str:
    whens = "\n        ".join(
        f"WHEN {col} = '{mt}' THEN '{et}'"
        for mt, et in sorted(EVENT_TYPE_MAP.items())
    )
    return f"CASE\n        {whens}\n        END"


def sql_role_case(etype: str, arg_type: str) -> str:
    whens = "\n        ".join(
        f"WHEN {etype} = '{et}' AND {arg_type} = '{at}' THEN '{r}'"
        for (et, at), r in sorted(ROLE_MAP.items())
    )
    return f"CASE\n        {whens}\n        ELSE '{ROLE_FALLBACK}' END"


def sql_ambig_values() -> str:
    """(surface, entity_id, marker) rows of AMBIG_ALIASES."""
    rows = ", ".join(
        f"('{s}', '{e}', '{m}')"
        for s, cands in sorted(AMBIG_ALIASES.items())
        for e, markers in sorted(cands.items())
        for m in markers
    )
    return f"(VALUES {rows}) AS amb(surface, entity_id, marker)"


def sql_variant_edges_values() -> str:
    rows = ", ".join(f"('{a}', '{b}')" for a, b in sorted(VARIANT_EDGES))
    return f"(VALUES {rows}) AS vedge(a, b)"


# Tokenization with positions over the documents view (0-based pos),
# matching pandas .str.split(' ') + cumcount in the Ray stages.
SQL_TOKENS = """
    SELECT doc_id, ts[i + 1] AS tok, i AS pos
    FROM (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
         LATERAL (SELECT unnest(range(len(ts))) AS i)
"""

def md5_int(s: str, k: int, mod: int = 9) -> int:
    """Hex byte ``k`` of md5(s), mapped to [-mod//2, mod//2] — the
    shared integer-rule derivation for token embeddings (GP_RULE,
    PCNN rule) and per-relation dense weights."""
    import hashlib

    return int(
        hashlib.md5(s.encode()).hexdigest()[2 * k: 2 * k + 2], 16
    ) % mod - mod // 2


def pcnn_rule_rels() -> List[str]:
    return sorted(set(PRED_MAP.values()) | {PRED_FALLBACK})


def sql_pcnn_rule() -> str:
    """Oracle for kg_pcnn_rule: pair fan-out -> per-position channel
    values (md5 token embedding + linear-rule position embeddings) ->
    width-3 conv via LAG/LEAD window functions -> piecewise segment
    max -> per-relation dense, all integer — rendered from the same
    PCNN_RULE_* literals the Ray stage consumes."""
    L = PCNN_RULE_MAX_LEN
    W, B = PCNN_RULE_CONV_W, PCNN_RULE_CONV_B

    def mbyte(expr: str, k: int) -> str:
        return (
            f"(('0x' || substr(md5({expr}), {2 * k + 1}, 2))::BIGINT"
            f" % 9 - 4)"
        )

    xs = [
        mbyte("tok", 0),
        mbyte("tok", 1),
        f"((rs * {PCNN_RULE_PS_A[0]} + {PCNN_RULE_PS_B[0]}) % 9 - 4)",
        f"((rs * {PCNN_RULE_PS_A[1]} + {PCNN_RULE_PS_B[1]}) % 9 - 4)",
        f"((ro * {PCNN_RULE_PO_A[0]} + {PCNN_RULE_PO_B[0]}) % 9 - 4)",
        f"((ro * {PCNN_RULE_PO_A[1]} + {PCNN_RULE_PO_B[1]}) % 9 - 4)",
    ]
    x_cols = ",\n           ".join(
        f"{e} AS x{c}" for c, e in enumerate(xs)
    )
    lag_cols = ",\n           ".join(
        f"LAG(x{c}) OVER w AS lx{c}, LEAD(x{c}) OVER w AS nx{c}"
        for c in range(6)
    )

    def conv_expr(f: int) -> str:
        center = " + ".join(f"x{c}*({W[f][1][c]})" for c in range(6))
        left = " + ".join(
            f"COALESCE(lx{c}, 0)*({W[f][0][c]})" for c in range(6)
        )
        right = " + ".join(
            f"COALESCE(nx{c}, 0)*({W[f][2][c]})" for c in range(6)
        )
        return f"{center} + {left} + {right} + ({B[f]})"

    pooled_cols = ",\n           ".join(
        f"COALESCE(MAX(CASE WHEN seg = {seg} THEN c{f} END), 0)"
        f" AS p{(seg - 1) * 2 + f}"
        for seg in (1, 2, 3)
        for f in (0, 1)
    )
    dense_rows = ",\n          ".join(
        "('{r}', {expr} + ({b}))".format(
            r=r,
            expr=" + ".join(
                f"p{j}*({md5_int(r, j)})" for j in range(6)
            ),
            b=md5_int(r, 6),
        )
        for r in pcnn_rule_rels()
    )

    return f"""
WITH tok AS ({SQL_TOKENS}),
mention AS (
    SELECT t.doc_id, t.pos, t.tok AS surface, gaz.ent_type
    FROM tok t JOIN {sql_gazetteer_values()} ON t.tok = gaz.surface
),
pairs AS (
    SELECT h.doc_id, h.pos AS subj_pos, t.pos AS obj_pos
    FROM mention h
    JOIN mention t
      ON h.doc_id = t.doc_id
     AND t.pos - h.pos BETWEEN 1 AND {PAIR_WINDOW}
    WHERE h.pos < {L} AND t.pos < {L}
),
doclen AS (
    SELECT doc_id, string_split(text, ' ') AS ts,
           LEAST(len(string_split(text, ' ')), {L}) AS n_real
    FROM documents
),
posrows AS (
    SELECT p.doc_id, p.subj_pos, p.obj_pos, i AS t,
           CASE WHEN i < d.n_real THEN d.ts[i + 1]
                ELSE '[PAD]' END AS tok,
           abs(i - p.subj_pos) AS rs, abs(i - p.obj_pos) AS ro,
           CASE WHEN i >= d.n_real THEN 0
                WHEN i < LEAST(p.subj_pos, p.obj_pos) THEN 1
                WHEN i < GREATEST(p.subj_pos, p.obj_pos) THEN 2
                ELSE 3 END AS seg
    FROM pairs p JOIN doclen d ON p.doc_id = d.doc_id,
         LATERAL (SELECT unnest(range({L})) AS i)
),
xch AS (
    SELECT doc_id, subj_pos, obj_pos, t, seg,
           {x_cols}
    FROM posrows
),
lagged AS (
    SELECT *,
           {lag_cols}
    FROM xch
    WINDOW w AS (PARTITION BY doc_id, subj_pos, obj_pos ORDER BY t)
),
conv AS (
    SELECT doc_id, subj_pos, obj_pos, seg,
           {conv_expr(0)} AS c0,
           {conv_expr(1)} AS c1
    FROM lagged
),
pooled AS (
    SELECT doc_id, subj_pos, obj_pos,
           {pooled_cols}
    FROM conv GROUP BY 1, 2, 3
)
SELECT doc_id,
       CAST(subj_pos AS BIGINT) AS subj_pos,
       CAST(obj_pos AS BIGINT) AS obj_pos,
       label,
       CAST(score AS BIGINT) AS score
FROM pooled,
     LATERAL (VALUES
          {dense_rows}) AS l(label, score)
"""


def sql_bpe_encode() -> str:
    """Oracle for ta_bpe_encode: every word rendered as a
    boundary-marked character string ('||c1||c2||'), each merge
    (a, b) applied in rank order as replace('|a||b|' -> '|ab|') —
    leftmost non-overlapping replacement, the same scan rule as the
    token-list merge loop; the doubled '||' boundary prevents the
    token-suffix false match a naive 'a b'->'ab' replace commits
    (equivalence pytest-asserted on adversarial words)."""
    expr = "'||' || regexp_replace(word, '(.)', '\\1||', 'g')"
    for a, b in BPE_ENCODE_MERGES:
        expr = f"replace({expr}, '|{a}||{b}|', '|{a}{b}|')"
    return f"""
WITH toks AS ({SQL_TOKENS}),
enc AS (
    SELECT doc_id, pos, tok AS word,
           trim(replace({expr}, '||', ' ')) AS encoded
    FROM toks
)
SELECT doc_id,
       CAST(pos AS BIGINT) AS pos,
       word,
       encoded,
       CAST(CASE WHEN word = '' THEN 0
                 ELSE len(string_split(encoded, ' ')) END
            AS BIGINT) AS n_subwords
FROM enc
"""


def sql_bpe_merges(num_merges: int = 10, top_k: int = 20000) -> str:
    """Oracle for ta_bpe_merges: the full BPE TRAINING loop unrolled
    as ``num_merges`` chained CTE stages (the loop is bounded and
    data-independent in its shape, so unrolling is mechanical).  Each
    stage recounts adjacent symbol pairs over the boundary-marked
    vocabulary strings (SUM weighted by word count), picks the
    arg-max pair with the Ray side's exact tie-break (freq DESC, then
    lexicographically smallest (a, b)), and applies the merge with
    the same doubled-boundary replace trick as :func:`sql_bpe_encode`
    (leftmost non-overlapping, token-suffix-safe).  The vocabulary is
    the top_k (count DESC, token ASC) word table — the identical
    driver-bounded table bpe_train sorts/limits.  Assumes >= 1
    adjacent pair survives every stage (true for any real corpus;
    bpe_train breaks early on degenerate ones)."""
    parts = [
        f"""
WITH v0 AS MATERIALIZED (
    SELECT '||' || regexp_replace(token, '(.)', '\\1||', 'g') AS seg,
           CAST(n AS BIGINT) AS n
    FROM (
        SELECT u.token AS token, count(*) AS n
        FROM documents, unnest(string_split(text, ' ')) AS u(token)
        GROUP BY u.token
        ORDER BY n DESC, u.token
        LIMIT {top_k}
    )
)"""
    ]
    for k in range(1, num_merges + 1):
        parts.append(
            f""",
pc{k} AS MATERIALIZED (
    SELECT syms[j] AS a, syms[j + 1] AS b, SUM(n) AS freq
    FROM (
        SELECT list_filter(string_split(seg, '||'), x -> x <> '')
                   AS syms,
               n
        FROM v{k - 1}
    ), LATERAL (SELECT unnest(range(1, len(syms))) AS j)
    GROUP BY 1, 2
),
b{k} AS MATERIALIZED (SELECT a, b, freq FROM pc{k} ORDER BY freq DESC, a, b LIMIT 1),
v{k} AS MATERIALIZED (
    SELECT replace(
               seg,
               '|' || (SELECT a FROM b{k}) || '||'
                   || (SELECT b FROM b{k}) || '|',
               '|' || (SELECT a || b FROM b{k}) || '|'
           ) AS seg,
           n
    FROM v{k - 1}
)"""
        )
    union = "\nUNION ALL\n".join(
        f"SELECT CAST({k - 1} AS BIGINT) AS rank, a, b, "
        f"CAST(freq AS BIGINT) AS freq FROM b{k}"
        for k in range(1, num_merges + 1)
    )
    return "".join(parts) + "\n" + union


def sql_gp_rule() -> str:
    """Full oracle for kg_globalpointer_rule: tokens -> md5-rule
    embeddings -> linear heads -> integer RoPE -> per-class biaffine
    logits -> `logit > 0` span rows.  Rendered from the SAME literals
    the Ray stage consumes, so the two cannot drift."""
    (wh00, wh01), (wh10, wh11) = GP_RULE_WH
    (wt00, wt01), (wt10, wt11) = GP_RULE_WT
    bh0, bh1 = GP_RULE_BH
    bt0, bt1 = GP_RULE_BT
    m = GP_RULE_EMB_MOD
    c_case = " ".join(
        f"WHEN {r} THEN {c}" for r, (c, _) in enumerate(GP_RULE_ROT)
    )
    s_case = " ".join(
        f"WHEN {r} THEN {s}" for r, (_, s) in enumerate(GP_RULE_ROT)
    )
    logit_rows = ",\n          ".join(
        "('{et}', rh0*({u00})*rt0 + rh0*({u01})*rt1 + rh0*({u02})"
        " + rh1*({u10})*rt0 + rh1*({u11})*rt1 + rh1*({u12})"
        " + ({u20})*rt0 + ({u21})*rt1 + ({u22}))".format(
            et=et,
            u00=U[0][0], u01=U[0][1], u02=U[0][2],
            u10=U[1][0], u11=U[1][1], u12=U[1][2],
            u20=U[2][0], u21=U[2][1], u22=U[2][2],
        )
        for et, U in sorted(GP_RULE_U.items())
    )
    return f"""
WITH toks AS ({SQL_TOKENS}),
feat AS (
    SELECT doc_id, pos,
           (('0x' || substr(md5(tok), 1, 2))::BIGINT % {m} - 4) AS e0,
           (('0x' || substr(md5(tok), 3, 2))::BIGINT % {m} - 4) AS e1
    FROM toks WHERE pos < {GP_RULE_MAX_LEN}
),
heads AS (
    SELECT doc_id, pos,
           e0*({wh00}) + e1*({wh10}) + ({bh0}) AS h0,
           e0*({wh01}) + e1*({wh11}) + ({bh1}) AS h1,
           e0*({wt00}) + e1*({wt10}) + ({bt0}) AS t0,
           e0*({wt01}) + e1*({wt11}) + ({bt1}) AS t1,
           CASE pos % {len(GP_RULE_ROT)} {c_case} END AS c,
           CASE pos % {len(GP_RULE_ROT)} {s_case} END AS s
    FROM feat
),
rot AS (
    SELECT doc_id, pos,
           h0*c - h1*s AS rh0, h1*c + h0*s AS rh1,
           t0*c - t1*s AS rt0, t1*c + t0*s AS rt1
    FROM heads
),
pairs AS (
    SELECT a.doc_id, a.pos AS i, b.pos AS j,
           a.rh0, a.rh1, b.rt0, b.rt1
    FROM rot a JOIN rot b ON a.doc_id = b.doc_id AND a.pos <= b.pos
)
SELECT doc_id, ent_type,
       CAST(i AS BIGINT) AS start_pos,
       CAST(j + 1 AS BIGINT) AS end_pos,
       CAST(logit AS DOUBLE) AS score
FROM pairs,
     LATERAL (VALUES
          {logit_rows}) AS l(ent_type, logit)
WHERE logit > 0
"""
