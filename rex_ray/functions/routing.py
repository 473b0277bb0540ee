"""Sliver-vs-cluster routing: the COUNT-only cardinality guard.

The flagship's canonicalization (pipelines/kg.py), every graph op
(stages/graph.py) and the store-level schema aggregates
(stages/aggregate.py) share one routing idiom: the op's REDUCED input
(deduped edges, the distinct triple store) is materialized anyway —
for join-partition sizing and reuse — so its row count is one
metadata read.  At or below a driver bound the input is a sliver by
cluster standards and a multi-superstep shuffle dataflow would be
pure Ray-job spin-up, so the op runs on an exact driver twin; above
it, the distributed dataflow runs and the driver never holds rows.
Both engines are equality-asserted in tests (tests/test_graph_routing
.py) and the distributed dataflow keeps unit coverage via
``max_driver_rows=0``.

Each decision is noted in the run record (``rex_ray/trace.py``): the
route taken and the count it was made from.

The guard must only ever be applied to POST-reduction inputs (a
deduped edge set, a distinct store) — never to a pre-reduction stream
(e.g. linked-but-undeduped triples), where the materialize+count
itself would pin a corpus-sized intermediate.
"""

from __future__ import annotations

from rex_ray import trace

#: Default bound on the number of (already-reduced) input rows at or
#: below which an op runs on its exact driver twin.  50k rows is far
#: below one Arrow block, and small enough that even a quadratic-ish
#: driver twin (triangle wedges over min-degree) stays in the tens of
#: millions of set operations.  Pass ``max_driver_rows=0`` to force
#: the distributed route, or a larger bound on a fat-driver
#: deployment.
DRIVER_SLIVER_MAX_ROWS = 50_000


def route_driver(n_rows: int, max_driver_rows, key: str = "route",
                 n_key: str = "n_rows") -> bool:
    """COUNT-only route decision: True -> run the exact driver twin.

    Notes ``{key: "driver"|"distributed", n_key: n_rows}`` in the run
    record (:func:`rex_ray.trace.note`) for observability and tests —
    the same contract as the flagship's ``canonical_route``.
    """
    if max_driver_rows is None:
        max_driver_rows = DRIVER_SLIVER_MAX_ROWS
    driver = n_rows <= max_driver_rows
    trace.note(**{key: "driver" if driver else "distributed", n_key: n_rows})
    return driver
