"""Rebuild ``token_table.json`` from a ``documents.parquet``.

The benchmark never reads the test corpus at run time: it resamples
documents from this table (token frequencies + document-length
histogram), so a checkout carries everything it needs.  The committed
table was derived from the sf0.1 ``documents.parquet`` (5,000 docs,
270,704 tokens)::

    python3 perfbench/make_token_table.py <sf0.1 dir>/documents.parquet
"""

from __future__ import annotations

import collections
import json
import os
import sys


def main(path: str) -> None:
    import pyarrow.parquet as pq

    texts = pq.read_table(path, columns=["text"])["text"].to_pylist()
    tokens: collections.Counter = collections.Counter()
    lengths: collections.Counter = collections.Counter()
    for text in texts:
        words = text.split(" ")
        tokens.update(words)
        lengths[len(words)] += 1
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "token_table.json")
    with open(out, "w") as f:
        json.dump(
            {
                "source": os.path.basename(path),
                "docs": len(texts),
                "tokens": dict(sorted(tokens.items())),
                "lengths": {str(k): v for k, v in sorted(lengths.items())},
            },
            f, indent=1,
        )
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: make_token_table.py <documents.parquet>")
    main(sys.argv[1])
