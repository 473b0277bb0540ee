"""Event-stream windowing beyond the tumbling aggregate: gap-based
SESSION windows — a custom operator Ray Data lacks (SURVEY.md 'custom
operators': composition of groupby().map_groups + in-group sort).

Partitioning assumption (documented per the custom-operator rule): all
events of one ``user_id`` are co-located by the groupby shuffle; the
per-group sort is by timestamp, so sessionization is exact regardless
of input order.  Skewed users bound the largest group — for a pathological
hot user, pre-split by day and merge sessions at the boundary.

Window semantics: a new session starts when the gap to the previous
event of the same user exceeds ``gap``; emitted per session:
(user_id, session_id (0-based per user in time order), n_events,
start_ts_us, end_ts_us, duration_us).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray.functions.blocks import arrow_block, pre_shuffle

DEFAULT_GAP_US = 30 * 60 * 1_000_000  # 30 minutes


def sessionize(events_ds, gap_us: int = DEFAULT_GAP_US):
    """events (ts, user_id) -> session rows.

    The map_groups is the only per-group step; everything else is
    columnar.  The pre-projection keeps only (user_id, ts_us) so the
    shuffle moves 16 bytes/event, not the full event row.
    """

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # normalize any timestamp unit (us/ns/...) to epoch microseconds
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.Table.from_arrays(
            [t["user_id"].combine_chunks(), us.combine_chunks()],
            names=["user_id", "ts_us"],
        )

    slim = pre_shuffle(events_ds.map_batches(project, batch_format="pyarrow"))

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["ts_us"].to_numpy())
        new_session = np.empty(len(ts), dtype=bool)
        new_session[0] = True
        new_session[1:] = np.diff(ts) > gap_us
        sid = np.cumsum(new_session) - 1
        df = pd.DataFrame({"sid": sid, "ts": ts})
        agg = df.groupby("sid")["ts"].agg(["size", "min", "max"])
        return pd.DataFrame(
            {
                "user_id": g["user_id"].iloc[0],
                "session_id": agg.index.to_numpy().astype("int64"),
                "n_events": agg["size"].to_numpy().astype("int64"),
                "start_ts_us": agg["min"].to_numpy(),
                "end_ts_us": agg["max"].to_numpy(),
                "duration_us": (agg["max"] - agg["min"]).to_numpy(),
            }
        )

    return slim.groupby("user_id").map_groups(
        lambda g: arrow_block(per_user(g)), batch_format="pandas"
    )


def asof_join_events(
    events_ds,
    left_type: str = "click",
    right_type: str = "view",
):
    """Distributed AS-OF join — a custom operator Ray Data lacks: each
    left event picks the latest right event of the same ``user_id``
    with ``right.ts <= left.ts`` (DuckDB ``ASOF LEFT JOIN``
    semantics; unmatched left rows keep nulls).

    Dataflow: one pass projects BOTH sides out of the same stream into
    a tagged slim union (user_id, ts_us, side, event_id, val — ~33
    bytes/row); one groupby(user_id) shuffle co-locates a user's rows;
    the per-group step sorts the right side once and answers every
    left row with a vectorized ``np.searchsorted``.  Partitioning
    assumption (custom-operator rule): one user's rows fit a group —
    for a pathological hot user, pre-split by coarse time bucket and
    stitch via a boundary pass, as with sessions.  Right rows that tie
    on ts are deduped to the max event_id, making the join
    deterministic on both engines.
    """

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ty = t["event_type"]
        keep = pc.or_(
            pc.equal(ty, left_type), pc.equal(ty, right_type)
        )
        t = t.filter(keep)
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        side = pc.cast(pc.equal(t["event_type"], right_type), pa.int8())
        return pa.Table.from_arrays(
            [
                t["user_id"].combine_chunks(),
                us.combine_chunks(),
                side.combine_chunks(),
                t["event_id"].combine_chunks(),
                t["value"].combine_chunks(),
            ],
            names=["user_id", "ts_us", "side", "event_id", "val"],
        )

    slim = pre_shuffle(events_ds.map_batches(project, batch_format="pyarrow"))

    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("ts_us", pa.int64()),
            ("asof_ts_us", pa.int64()),
            ("asof_value", pa.float64()),
        ]
    )

    def per_user(g: pd.DataFrame) -> pa.Table:
        left = g[g["side"] == 0]
        if len(left) == 0:
            return out_schema.empty_table()
        right = g[g["side"] == 1].sort_values(["ts_us", "event_id"])
        right = right.drop_duplicates("ts_us", keep="last")
        if len(right) == 0:
            return out_schema.empty_table()
        lt = left["ts_us"].to_numpy()
        rts = right["ts_us"].to_numpy()
        idx = np.searchsorted(rts, lt, side="right") - 1
        # inner as-of semantics (DuckDB ASOF JOIN default): drop left
        # rows with no prior right row so the output is NULL-free.
        hit = idx >= 0
        left, lt, idx = left[hit], lt[hit], idx[hit]
        return pa.table(
            {
                "event_id": pa.array(left["event_id"].to_numpy(), pa.int64()),
                "user_id": pa.array(left["user_id"].to_numpy(), pa.int64()),
                "ts_us": pa.array(lt, pa.int64()),
                "asof_ts_us": pa.array(rts[idx], pa.int64()),
                "asof_value": pa.array(
                    right["val"].to_numpy()[idx].astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return slim.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def sliding_window_counts(events_ds, width_us: int, slide_us: int):
    """Sliding windows over the whole stream: per (window_start) event
    count.  Each event lands in width/slide windows — emitted from a
    vectorized flat-map, then a partial-sum groupby (no ordering
    assumption; windows are derived keys, the same trick as the
    tumbling aggregate)."""
    from ray.data.aggregate import Sum

    k = int(np.ceil(width_us / slide_us))

    def expand(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = pc.cast(
            pc.cast(t["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        base = (ts // slide_us) * slide_us
        starts = base[:, None] - np.arange(k)[None, :] * slide_us
        valid = ts[:, None] < starts + width_us
        flat = starts[valid]
        df = (
            pd.DataFrame({"window_start_us": flat})
            .groupby("window_start_us")
            .size()
            .rename("n_events")
            .reset_index()
        )
        df["n_events"] = df["n_events"].astype("int64")
        return arrow_block(df)

    partial = pre_shuffle(events_ds.map_batches(expand, batch_format="pyarrow"))
    return partial.groupby("window_start_us").aggregate(
        Sum("n_events", alias_name="n_events")
    )


def interval_join_events(
    events_ds,
    cohort_mod: int = 20,
    gap_us: int = DEFAULT_GAP_US,
):
    """Broadcast interval (range) join — the second range-predicate
    join Ray Data lacks natively (the first is
    :func:`asof_join_events`): every session interval of a sampled
    "monitored cohort" (``user_id % cohort_mod == 0``) is joined
    against EVERY event whose ``ts`` lies in ``[start, end]``
    (inclusive, SQL ``BETWEEN``), producing per-interval traffic
    stats: (user_id, session_id, start_ts_us, end_ts_us, n_events,
    n_users).  Intervals overlap each other arbitrarily across users,
    so this is a true range join, not an equi-join in disguise.

    Dataflow: the interval side is inherently small (a monitoring
    cohort), so it broadcasts worker-built — sorted start/end arrays,
    zero-copy plasma reads, never on the driver.  The probe side is
    ONE streaming pass: each batch sorts its timestamps once and
    answers every interval with two ``searchsorted`` calls; emitted
    partials are distinct (interval, probe_user, n) rows, so the
    merge shuffles O(intervals x active users), not O(events).  If
    the interval side ever outgrows broadcast, bucket BOTH sides by
    coarse time range and equi-join on the bucket (intervals fan out
    to each bucket they overlap) — same probe kernel per bucket.
    """
    from ray.data.aggregate import Count, Sum

    from rex_ray.functions.blocks import _side_object, _worker_built_ref

    def cohort_filter(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(uid % cohort_mod == 0))

    cohort = events_ds.map_batches(cohort_filter, batch_format="pyarrow")
    sessions = sessionize(cohort, gap_us=gap_us)

    def build_intervals(tables):
        tabs = [t for t in tables if t.num_rows]
        if not tabs:
            z = np.empty(0, np.int64)
            return (z, z, z, z)
        allt = pa.concat_tables(tabs)
        uid = allt["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sid = allt["session_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        st = allt["start_ts_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        en = allt["end_ts_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((sid, uid, st))
        return (uid[o], sid[o], st[o], en[o])

    iref = _worker_built_ref(sessions, build_intervals)

    partial_schema = pa.schema(
        [
            ("iidx", pa.int64()),
            ("probe_user", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    def probe(t: pa.Table) -> pa.Table:
        uid, sid, st, en = _side_object(iref)
        if len(st) == 0:
            return partial_schema.empty_table()
        import pyarrow.compute as pc

        ts = pc.cast(
            pc.cast(t["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        users = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ts, kind="stable")
        ts_s, users_s = ts[order], users[order]
        lo = np.searchsorted(ts_s, st, side="left")
        hi = np.searchsorted(ts_s, en, side="right")
        out_i: list = []
        out_u: list = []
        out_n: list = []
        for i in np.nonzero(hi > lo)[0]:
            u, c = np.unique(users_s[lo[i]: hi[i]], return_counts=True)
            out_i.append(np.full(len(u), i, dtype=np.int64))
            out_u.append(u)
            out_n.append(c.astype(np.int64))
        if not out_i:
            return partial_schema.empty_table()
        return pa.table(
            {
                "iidx": pa.array(np.concatenate(out_i), pa.int64()),
                "probe_user": pa.array(np.concatenate(out_u), pa.int64()),
                "n": pa.array(np.concatenate(out_n), pa.int64()),
            }
        )

    per_user = (
        pre_shuffle(events_ds.map_batches(probe, batch_format="pyarrow"))
        .groupby(["iidx", "probe_user"])
        .aggregate(Sum("n", alias_name="n"))
    )
    per_interval = per_user.groupby("iidx").aggregate(
        Sum("n", alias_name="n_events"),
        Count(alias_name="n_users"),
    )

    def attach(t: pa.Table) -> pa.Table:
        uid, sid, st, en = _side_object(iref)
        ii = t["iidx"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid[ii], pa.int64()),
                "session_id": pa.array(sid[ii], pa.int64()),
                "start_ts_us": pa.array(st[ii], pa.int64()),
                "end_ts_us": pa.array(en[ii], pa.int64()),
                "n_events": pa.array(
                    t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "n_users": pa.array(
                    t["n_users"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return per_interval.map_batches(attach, batch_format="pyarrow")


def burst_hours(events_ds, window_us: int = 3_600_000_000,
                lookback: int = 3, mult: int = 2):
    """Per-type traffic-burst detection — the windowed-aggregate
    anomaly pass of a streaming events pipeline: an hour bucket is a
    burst when its event count exceeds ``mult`` x the max of the
    ``lookback`` preceding NON-EMPTY buckets of the same type (row
    window, ``ROWS BETWEEN lookback PRECEDING AND 1 PRECEDING`` in
    SQL — both engines skip empty hours identically).  All-integer
    arithmetic, no float contract.

    Dataflow: per-batch (event_type, bucket) partial counts -> ONE
    slim groupby-sum shuffle -> groupby(event_type) window pass (the
    per-type series is |hours| rows — tiny by construction; a
    centuries-long stream would sub-bucket by year first).  Output:
    (event_type, bucket_start_us, n_events, prev_max nullable,
    is_burst).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        bucket = us.to_numpy(zero_copy_only=False) // window_us
        return (
            pa.table(
                {
                    "event_type": t["event_type"].combine_chunks(),
                    "bucket": pa.array(bucket, pa.int64()),
                }
            )
            .group_by(["event_type", "bucket"])
            .aggregate([("bucket", "count")])
            .rename_columns(["event_type", "bucket", "n"])
        )

    counts = (
        pre_shuffle(events_ds.map_batches(partial, batch_format="pyarrow"))
        .groupby(["event_type", "bucket"])
        .aggregate(Sum("n", alias_name="n"))
    )

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("bucket_start_us", pa.int64()),
            ("n_events", pa.int64()),
            ("prev_max", pa.int64()),
            ("is_burst", pa.bool_()),
        ]
    )

    def per_type(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("bucket", ignore_index=True)
        n = g["n"].to_numpy().astype(np.int64)
        prev = np.full(len(n), -1, dtype=np.int64)
        for i in range(1, len(n)):
            lo = max(0, i - lookback)
            prev[i] = n[lo:i].max()
        has_prev = prev >= 0
        burst = has_prev & (n > mult * prev)
        return pa.table(
            {
                "event_type": pa.array(
                    g["event_type"].tolist(), pa.string()
                ),
                "bucket_start_us": pa.array(
                    g["bucket"].to_numpy().astype(np.int64) * window_us,
                    pa.int64(),
                ),
                "n_events": pa.array(n, pa.int64()),
                "prev_max": pa.array(
                    [int(p) if h else None
                     for p, h in zip(prev, has_prev)],
                    pa.int64(),
                ),
                "is_burst": pa.array(burst),
            },
            schema=out_schema,
        )

    return pre_shuffle(counts).groupby("event_type").map_groups(
        per_type, batch_format="pandas"
    )
