"""One run record: the route and stats facts a call decided.

Every scale guard picks its route on the driver, at call time, from a
count it already holds, and reports it with :func:`note`.  A caller
reads it with ``with trace.run() as rec: pagerank(edges)`` and then
``rec["graph_route"]``.  A fact reaches the innermost run and every
run enclosing it; outside any run :func:`note` does nothing.
"""

from __future__ import annotations

import contextlib
import contextvars

_RUNS: contextvars.ContextVar = contextvars.ContextVar(
    "rex_ray_trace_runs", default=()
)


@contextlib.contextmanager
def run():
    """Open a run; yields the dict that collects its facts."""
    rec: dict = {}
    token = _RUNS.set(_RUNS.get() + (rec,))
    try:
        yield rec
    finally:
        _RUNS.reset(token)


def note(**facts) -> None:
    """Record ``facts`` in the active run and every run enclosing it."""
    for rec in _RUNS.get():
        rec.update(facts)
