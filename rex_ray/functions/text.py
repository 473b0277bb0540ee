"""Text-analysis kernels: tokenization, language ID, quality scoring,
token counting, document fingerprinting.

These are deliberately deterministic closed-form rules so the Ray
pipeline can be cross-checked against an ANSI-SQL oracle (see
``pipelines/queries.py``).  All batch variants are vectorized with
pandas/numpy string kernels — no per-row Python in the hot path.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np
import pandas as pd

# Tiny deterministic stopword inventories per language. The language-ID
# heuristic scores a document by stopword hits per language and picks the
# argmax (ties broken by language code order) — the standard n-gram/
# stopword LID shape, kept SQL-expressible.
LANG_STOPWORDS: Dict[str, List[str]] = {
    "de": ["der", "die", "und", "das", "ein"],
    "en": ["the", "a", "and", "of", "to"],
    "es": ["el", "la", "los", "una", "y"],
    "fr": ["le", "la", "les", "une", "et"],
}

# English stopwords used by the quality score.
QUALITY_STOPWORDS = ["the", "a", "and", "of", "to"]


def tokenize_series(text: pd.Series) -> pd.Series:
    """Whitespace tokenization of a string Series -> Series of lists."""
    return text.str.split(" ")


def token_count_series(text: pd.Series) -> pd.Series:
    """Token count per document == separator count + 1 on non-empty text.

    Matches SQL ``len(string_split(text, ' '))``.
    """
    n = text.str.count(" ").fillna(-1) + 1
    return n.astype("int64")


def langid_frame(text: pd.Series) -> pd.DataFrame:
    """Stopword-hit language ID. Returns per-language hit counts plus the
    predicted language (argmax, ties -> lexicographically first code)."""
    padded = " " + text + " "
    out = pd.DataFrame(index=text.index)
    for code, words in sorted(LANG_STOPWORDS.items()):
        hits = np.zeros(len(text), dtype=np.int64)
        for w in words:
            # zero-width lookahead so adjacent repeats all count,
            # matching SQL token-equality counting
            hits += padded.str.count(f"(?= {w} )").to_numpy(dtype=np.int64)
        out[f"hits_{code}"] = hits
    codes = sorted(LANG_STOPWORDS)
    mat = out.to_numpy()
    out["pred_lang"] = [codes[i] for i in mat.argmax(axis=1)]
    return out


def quality_frame(text: pd.Series) -> pd.DataFrame:
    """Deterministic quality signals:
      n_tokens, n_chars, avg_token_len, stopword_ratio, distinct_ratio
    and a composite quality score in [0, 1]:
      0.5*min(1, n_tokens/64) + 0.3*distinct_ratio + 0.2*min(1, 5*stopword_ratio)
    """
    n_tokens = token_count_series(text)
    n_chars = text.str.len().astype("int64")
    avg_token_len = (n_chars - (n_tokens - 1)) / n_tokens
    padded = " " + text + " "
    stop_hits = np.zeros(len(text), dtype=np.int64)
    for w in QUALITY_STOPWORDS:
        stop_hits += padded.str.count(f"(?= {w} )").to_numpy(dtype=np.int64)
    stopword_ratio = stop_hits / n_tokens.to_numpy()
    toks = tokenize_series(text)
    distinct_ratio = toks.map(lambda t: len(set(t))).astype("float64") / n_tokens
    score = (
        0.5 * np.minimum(1.0, n_tokens.to_numpy() / 64.0)
        + 0.3 * distinct_ratio.to_numpy()
        + 0.2 * np.minimum(1.0, 5.0 * stopword_ratio)
    )
    return pd.DataFrame(
        {
            "n_tokens": n_tokens,
            "n_chars": n_chars,
            "avg_token_len": avg_token_len,
            "stopword_ratio": stopword_ratio,
            "distinct_ratio": distinct_ratio,
            "quality_score": score,
        },
        index=text.index,
    )


def md5_fingerprint_series(text: pd.Series) -> pd.Series:
    """Hex MD5 per document (matches SQL ``md5(text)``)."""
    return text.map(lambda s: hashlib.md5(s.encode("utf-8")).hexdigest())


def normalize_dedup_text(text: pd.Series) -> pd.Series:
    """Dedup normalization: drop the injected ``dup`` marker tokens, then
    collapse whitespace.  Two planted near-duplicates become equal under
    this normalization."""
    # token-level filter, mirrors SQL
    # array_to_string(list_filter(string_split(text,' '), x -> x != 'dup'), ' ')
    return text.str.split(" ").map(
        lambda toks: " ".join(t for t in toks if t != "dup")
    )
