"""The Arrow stage kernels — mention detection, triple extraction, the
tagged triples+surfaces UDF, canonical linking and the dedup combiner —
checked against straight-line Python references (a double loop over a
document's tokens) on hypothesis-generated batches.  Only the tagged
UDF's custom gazetteer touches Ray (its ``ray.put`` broadcast)."""

import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rex_ray.pipelines import spec
from rex_ray.stages import aggregate as agg
from rex_ray.stages import extract
from rex_ray.stages.link import CanonicalLinker

CUSTOM_GAZ = {"a": "T1", "b": "T2", "cc": "T1", "long-surface": "T3"}
CUSTOM_PRED = {("T1", "T2"): "r12", ("T2", "T1"): "r21", ("T1", "T1"): "r11"}
WORDS = ["x", "y", "zz", "the", "nil-word"]


def ref_triples(docs, gaz, pred_map, window, min_score):
    """Every (h, t) token pair of a doc with 1 <= t - h <= window and
    both tokens in the gazetteer, in (doc, h, t) order."""
    out = []
    for doc_id, text in docs:
        if text is None:
            continue
        toks = text.split(" ")
        for h in range(len(toks)):
            for t in range(h + 1, len(toks)):
                d = t - h
                if d > window or toks[h] not in gaz or toks[t] not in gaz:
                    continue
                if min_score > 0.0 and 1.0 / d < min_score:
                    continue
                sh, so = toks[h], toks[t]
                pred = pred_map.get((gaz[sh], gaz[so]), spec.PRED_FALLBACK)
                out.append((doc_id, sh, h, gaz[sh], pred, so, t, gaz[so],
                            sh + spec.BAG_KEY_SEP + so, 1.0 / d))
    return out


def ref_mentions(docs, gaz):
    return [
        (doc_id, p, tok, gaz[tok])
        for doc_id, text in docs
        if text is not None
        for p, tok in enumerate(text.split(" "))
        if tok in gaz
    ]


@st.composite
def doc_batches(draw):
    """A batch of docs (doc_id, text) plus its setting: the gazetteer
    (default or custom), int or string doc ids, string or large_string
    text, pandas or Arrow, and a min_score.  Texts mix gazetteer and
    non-gazetteer tokens, repeat surfaces within the window, and
    include empty and null text and doubled spaces."""
    custom = draw(st.booleans())
    gaz = CUSTOM_GAZ if custom else spec.GAZETTEER
    vocab = sorted(gaz)[:6] + WORDS
    n = draw(st.integers(1, 6))
    texts = []
    for _ in range(n):
        kind = draw(st.sampled_from(["tokens", "tokens", "tokens", "empty",
                                     "null"]))
        if kind == "null":
            texts.append(None)
            continue
        if kind == "empty":
            texts.append("")
            continue
        toks = draw(st.lists(st.sampled_from(vocab + [""]), min_size=1,
                             max_size=14))
        texts.append(" ".join(toks))
    if draw(st.booleans()):
        ids = [f"doc-{i:04d}" for i in range(n)]
        id_type = pa.string()
    else:
        ids = [10 * i + 3 for i in range(n)]
        id_type = draw(st.sampled_from([pa.int64(), pa.int32()]))
    text_type = draw(st.sampled_from([pa.string(), pa.large_string()]))
    table = pa.table({"doc_id": pa.array(ids, id_type),
                      "text": pa.array(texts, text_type)})
    batch = table.to_pandas() if draw(st.booleans()) else table
    min_score = draw(st.sampled_from([0.0, 0.0, 0.3, 0.5]))
    return list(zip(ids, texts)), batch, custom, min_score


def _extractor(custom, min_score):
    if custom:
        return extract.TripleExtractor(
            gazetteer=CUSTOM_GAZ, pred_map=CUSTOM_PRED, min_score=min_score
        )
    return extract.TripleExtractor(min_score=min_score)


@given(doc_batches())
@settings(max_examples=150, deadline=None)
def test_mention_extractor_matches_reference(case):
    docs, batch, custom, _ = case
    gaz = CUSTOM_GAZ if custom else spec.GAZETTEER
    out = extract.MentionExtractor(CUSTOM_GAZ if custom else None)(batch)
    assert isinstance(out, pa.Table)
    assert out.schema.field("pos").type == pa.int64()
    assert [tuple(r.values()) for r in out.to_pylist()] == ref_mentions(
        docs, gaz
    )


@given(doc_batches())
@settings(max_examples=150, deadline=None)
def test_triple_extractor_matches_reference(case):
    docs, batch, custom, min_score = case
    gaz, pm = (CUSTOM_GAZ, CUSTOM_PRED) if custom else (
        spec.GAZETTEER, spec.PRED_MAP)
    out = _extractor(custom, min_score)(batch)
    assert isinstance(out, pa.Table)
    assert out.schema == extract._triples_schema(out.schema.field(0).type)
    want = ref_triples(docs, gaz, pm, spec.PAIR_WINDOW, min_score)
    assert [tuple(r.values()) for r in out.to_pylist()] == want


@given(doc_batches())
@settings(max_examples=100, deadline=None)
def test_tagged_udf_matches_reference(case):
    """The pipeline's fused UDF: the triples (kind 't') then each
    distinct surface of the batch once (kind 's'), first-seen order.
    A custom gazetteer keeps the default relation rule."""
    docs, batch, custom, min_score = case
    gaz = CUSTOM_GAZ if custom else spec.GAZETTEER
    captured = {}

    class _Capture:  # stands in for the Dataset: keeps the UDF
        def map_batches(self, fn, **kw):
            captured["fn"], captured["kw"] = fn, kw

    extract.extract_triples_and_surfaces(
        _Capture(), min_score=min_score,
        gazetteer=CUSTOM_GAZ if custom else None,
    )
    assert captured["kw"]["batch_format"] == "pyarrow"
    if isinstance(batch, pd.DataFrame):
        batch = pa.Table.from_pandas(batch, preserve_index=False)
    out = captured["fn"](batch).to_pylist()
    triples = [r for r in out if r["kind"] == "t"]
    surfaces = [r["surface"] for r in out if r["kind"] == "s"]
    want = ref_triples(docs, gaz, spec.PRED_MAP, spec.PAIR_WINDOW, min_score)
    assert [
        tuple(v for k, v in r.items() if k not in ("kind", "surface"))
        for r in triples
    ] == want
    assert all(r["surface"] is None for r in triples)
    assert surfaces == list(
        dict.fromkeys(m[2] for m in ref_mentions(docs, gaz))
    )


@given(
    st.lists(st.sampled_from(["join", "hash", "zz", "spark", "", None]),
             min_size=1, max_size=12),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_canonical_linker_matches_reference(surfaces, triples, as_pandas):
    """Known surfaces take their id, unknown ones (NIL) get
    ``nil:<surface>``, a null surface stays null."""
    canon = {"join": "ent:join", "hash": "ent:join", "spark": "ent:spark"}

    def ref(s):
        return None if s is None else canon.get(s, "nil:" + s)

    if triples:
        t = pa.table({"subj": surfaces, "obj": surfaces[::-1],
                      "pred": ["p"] * len(surfaces)})
    else:
        t = pa.table({"surface": pa.array(surfaces, pa.large_string())})
    out = CanonicalLinker(canon)(t.to_pandas() if as_pandas else t)
    assert isinstance(out, pa.Table)
    if triples:
        assert out["subj_id"].to_pylist() == [ref(s) for s in surfaces]
        assert out["obj_id"].to_pylist() == [ref(s) for s in surfaces[::-1]]
    else:
        assert out["entity_id"].to_pylist() == [ref(s) for s in surfaces]


@given(
    st.lists(
        st.tuples(st.sampled_from(["e1", "e2", "nil:q"]),
                  st.sampled_from(["p", "q"]),
                  st.sampled_from(["e1", "e3"]),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=30,
    ),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_partial_counts_max_matches_reference(rows, as_pandas):
    keys = ["subj_id", "pred", "obj_id"]
    want: dict = {}
    for s, p, o, score in rows:
        c, m = want.get((s, p, o), (0, float("-inf")))
        want[(s, p, o)] = (c + 1, max(m, score))
    t = pa.table({"subj_id": [r[0] for r in rows],
                  "pred": [r[1] for r in rows],
                  "obj_id": [r[2] for r in rows],
                  "score": [r[3] for r in rows]})
    out = agg._partial_counts_max(keys)(t.to_pandas() if as_pandas else t)
    assert out.column_names == keys + ["cnt", "max_score"]
    assert out.schema.field("cnt").type == pa.int64()
    got = [tuple(r.values()) for r in out.to_pylist()]
    assert got == [k + v for k, v in want.items()]  # first-seen order
