"""Event-stream windows, sessions, funnels, and user rollups.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ._shared import QUERIES, ORACLE_SQL
from .relational import EVENT_TYPES


def q_asof_clicks(sf_dir: str):
    """Each click joined to the user's most recent prior-or-same-time view
    (backward as-of join) — bucket-by-user, one merge_asof per bucket."""
    from ...ops.join import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    import pyarrow.compute as _pc

    clicks = ev.map_batches(
        lambda b: b.filter(_pc.equal(b["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    views = ev.map_batches(
        lambda b: b.filter(_pc.equal(b["event_type"], "view")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    return asof_join(clicks, views, key="user_id", ts="ts").select_columns(
        ["event_id", "user_id", "ts", "event_id_r", "ts_r"]
    )


def q_event_sessions(sf_dir: str):
    """Range join: every event matched into its session interval (sessions
    from the 30-minute-gap sessionizer) — the disjoint-interval merge_asof
    path, one bucket-by-user shuffle per side."""
    from ...ops.events import sessionize
    from ...ops.join import range_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    sessions = sessionize(ev)
    return range_join(
        ev, sessions, key="user_id", ts="ts", start="start_ts", end="end_ts",
        disjoint=True,
    ).select_columns(["event_id", "user_id", "ts", "session_id"])


def q_sliding_window(sf_dir: str):
    """60-minute windows sliding every 15 — each event in 4 windows."""
    from ...ops.events import sliding_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    out = sliding_window(ev, window_minutes=60, slide_minutes=15)

    def round4(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return batch.set_column(
            batch.schema.get_field_index("sum_value"),
            "sum_value",
            _pc.round(batch["sum_value"], ndigits=4),
        )

    return out.map_batches(round4, batch_format="pyarrow")


def q_value_quantiles(sf_dir: str):
    """Exact p50/p90/p99 of event value per event_type."""
    from ...ops.events import key_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return key_quantiles(ev)


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window aggregate over the events stream
    (SURVEY.md §2.9: event-time windows reduce to groupby(key, bucket))."""
    import pyarrow.compute as pc

    from ...ops.events import tumbling_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    out = tumbling_window(ev)

    def final(batch: pa.Table) -> pa.Table:
        rounded = pc.round(batch["sum_value"], 4)
        return batch.set_column(
            batch.schema.get_field_index("sum_value"),
            pa.field("sum_value", pa.float64()),
            rounded,
        )

    return out.map_batches(final, batch_format="pyarrow")


def q_sessionize(sf_dir: str):
    """Session windows over the events stream (per-user 30-minute gap rule)
    — bucketed vectorized kernel, see ops/events.py."""
    from ...ops.events import sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    return sessionize(ev)


def q_event_ohlc(sf_dir: str):
    """Hourly OHLC bars per event type — `ops/events.ohlc_window`
    (order-dependent first/last carried as (ts, value)-paired partials;
    one (key, window)-sharded exchange).  (event_type, ts) is unique in
    the corpus, so arg_min/arg_max semantics are well-defined."""
    from ...ops.events import ohlc_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    out = ohlc_window(ev, num_shards=16)

    def typed(df):
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "window_start": pa.array(
                    df["window_start"], type=pa.timestamp("us")
                ),
                "open": pa.array(df["open"], type=pa.float64()),
                "high": pa.array(df["high"], type=pa.float64()),
                "low": pa.array(df["low"], type=pa.float64()),
                "close": pa.array(df["close"], type=pa.float64()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_event_funnel(sf_dir: str):
    """view -> click -> purchase funnel completion counts per step —
    `ops/events.funnel_counts` (one user-sharded exchange; the greedy
    earliest-match chain is len(steps) vectorized filter+min passes per
    shard, matching the SQL MIN(ts)-chaining semantics exactly)."""
    from ...ops.events import funnel_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    out = funnel_counts(
        ev, ["view", "click", "purchase"], num_shards=16
    )

    def typed(df):
        return pa.table(
            {
                "step": pa.array(df["step"], type=pa.int64()),
                "n_keys": pa.array(df["n_keys"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_event_share(sf_dir: str):
    """Ratio-to-report: each event type's share of its hour's total
    volume — hourly counts (tumbling window) + a broadcast of the
    window totals (window count is time-extent-sized, not corpus-sized);
    share is an exact integer ratio rounded to 8."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.events import tumbling_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    hourly = tumbling_window(ev, unit="hour").materialize()

    totals = sharded_groupby_apply(
        hourly.select_columns(["window_start", "n_events"]),
        ["window_start"],
        lambda df: df.groupby("window_start", sort=False, as_index=False)[
            "n_events"
        ].sum(),
        8,
    ).to_pandas()
    tot_map = dict(zip(totals["window_start"], totals["n_events"]))
    ref = ray.put(tot_map)

    def attach(df):
        tm = ray.get(ref)
        tot = df["window_start"].map(tm).to_numpy(dtype=np.float64)
        n = df["n_events"].to_numpy(dtype=np.float64)
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "window_start": pa.array(
                    df["window_start"], type=pa.timestamp("us")
                ),
                "n_events": pa.array(
                    df["n_events"].astype("int64"), type=pa.int64()
                ),
                "share": pa.array(np.round(n / tot, 8), type=pa.float64()),
            }
        )

    return hourly.map_batches(attach, batch_format="pandas")


def q_event_running(sf_dir: str):
    """Global running balance: per-event running sum of integer cents in
    total (ts, event_id) order — `ops/scan.prefix_sum`, one range-sort
    exchange + per-block partial sums with only O(num_blocks) int64
    scalars crossing the driver."""
    from ...ops.scan import prefix_sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_id": batch["event_id"],
                "t_us": pc.cast(batch["ts"], pa.int64()),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )

    run = prefix_sum(
        ev.map_batches(prep, batch_format="pyarrow"),
        "cents",
        sort_keys=["t_us", "event_id"],
    )
    return run.select_columns(["event_id", "run_total"])


def q_max_concurrent(sf_dir: str):
    """Interval-concurrency sweep: treat each event as a session of
    ``floor(value)`` seconds and find the maximum number of simultaneously
    open sessions — +1/-1 boundary deltas, global prefix scan, MAX fold.
    Ends sort before starts at equal timestamps (touching intervals do
    not overlap), and since only the MAX of the run is consumed the scan
    tolerates the +1/+1 ties within one timestamp."""
    from ...ops.scan import prefix_sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )

    def deltas(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dur = np.floor(
            batch["value"].to_numpy(zero_copy_only=False)
        ).astype(np.int64) * np.int64(1_000_000)
        return pa.table(
            {
                "t": pa.array(np.concatenate([s, s + dur]), type=pa.int64()),
                "d": pa.array(
                    np.concatenate(
                        [np.ones(len(s), np.int64), -np.ones(len(s), np.int64)]
                    ),
                    type=pa.int64(),
                ),
            }
        )

    run = prefix_sum(
        ev.map_batches(deltas, batch_format="pyarrow"),
        "d",
        sort_keys=["t", "d"],
        out_column="run",
    )
    peak = run.max("run")
    return pa.table({"max_concurrent": pa.array([peak], type=pa.int64())})


def q_event_deltas(sf_dir: str):
    """Period-over-period event volume: hourly counts per type with the
    delta vs the previous hour — `ops/events.tumbling_window` composed
    with `ops/window.window_over` (the windowed aggregate is
    key+window-sized, so the second exchange is tiny)."""
    from ...ops.events import tumbling_window
    from ...ops.window import window_over

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    hourly = tumbling_window(ev, unit="hour")
    out = window_over(
        hourly,
        keys=["event_type"],
        order_by=["window_start"],
        specs=[("delta", "n_events", "delta_n", 0)],
        num_shards=8,
    )

    def typed(df):
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "window_start": pa.array(
                    df["window_start"], type=pa.timestamp("us")
                ),
                "n_events": pa.array(df["n_events"], type=pa.int64()),
                "delta_n": pa.array(
                    df["delta_n"].astype("int64"), type=pa.int64()
                ),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_user_top_event(sf_dir: str):
    """Most frequent event type per user (grouped mode, ties to the
    smaller value) — `ops/topk.group_mode` (per-batch pair-count
    partials, one key-sharded fold)."""
    from ...ops.topk import group_mode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    out = group_mode(ev, ["user_id"], "event_type", num_shards=16)

    def typed(df):
        return pa.table(
            {
                "user_id": pa.array(df["user_id"], type=pa.int64()),
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_hll_by_type(sf_dir: str):
    """Per-event-type approximate distinct users as HLL register state —
    `ops/sketch.hll_registers_by`: per-batch register partials (dedup +
    max) make the one group-sharded exchange carry sketch cells, never
    user ids; registers are bit-equal to the SQL mirror per group."""
    from ...ops.sketch import hll_registers_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    out = hll_registers_by(ev, "event_type", "user_id", num_shards=8)

    def typed(df):
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "idx": pa.array(df["idx"], type=pa.int64()),
                "rho": pa.array(df["rho"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_distinct_users_by_type(sf_dir: str):
    """EXACT distinct users per event type — the ground-truth companion
    to `hll_by_type`: one (type, user) dedup exchange (per-batch
    pre-dedup bounds it to distinct pairs per block), then a bounded
    per-type count fold."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.setops import distinct_rows

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    pairs = distinct_rows(ev, ["event_type", "user_id"], num_shards=8)

    def count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=False).size()
        return pd.DataFrame(
            {
                "event_type": g.index.to_numpy(),
                "n_users": g.to_numpy().astype("int64"),
            }
        )

    # distinct pairs are already type-sharded? no — dedup shards on the
    # PAIR; re-shard on type for the count (tiny: one row per pair)
    return sharded_groupby_apply(pairs, ["event_type"], count, num_shards=4)


def q_user_first_event(sf_dir: str):
    """Accumulating-snapshot fact: each user's FIRST event (type + time,
    (ts, event_id) total order) — `ops/topk.group_argmin`, per-batch
    per-key minima bound the exchange to one row per key per block."""
    from ...ops.topk import group_argmin

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    )
    out = group_argmin(ev, ["user_id"], ["ts", "event_id"], num_shards=16)

    def typed(df):
        return pa.table(
            {
                "user_id": pa.array(df["user_id"], type=pa.int64()),
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "ts": pa.array(df["ts"], type=pa.timestamp("us")),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_event_pivot(sf_dir: str):
    """Per-user event-type counts as a wide table (pivot with a pinned
    category schema)."""
    from ...ops.reshape import pivot

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return pivot(events, index="user_id", columns_from="event_type",
                 categories=EVENT_TYPES)


def q_click_buyers(sf_dir: str):
    """SQL INTERSECT: users who both clicked and purchased."""
    from ...ops.setops import intersect_rows

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    clickers = ev.filter(expr="event_type == 'click'").select_columns(["user_id"])
    buyers = ev.filter(expr="event_type == 'purchase'").select_columns(["user_id"])
    return intersect_rows(clickers, buyers, cols=["user_id"])


def q_retention(sf_dir: str):
    """Weekly retention-cohort matrix over the events table: one
    user-sharded exchange + a bounded (weeks x weeks) final fold
    (`ops/events.py:retention_cohorts`)."""
    from ...ops.events import retention_cohorts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return retention_cohorts(ev)


def q_hist_quantiles(sf_dir: str):
    """Mergeable histogram-quantile sketch of event value per event_type
    (bounded-memory companion to the exact key_quantiles; bin counts, not
    values, cross the wire — `ops/sketch.py:histogram_quantiles`)."""
    from ...ops.sketch import histogram_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return histogram_quantiles(ev, "event_type", "value")


def q_value_buckets(sf_dir: str):
    """Equi-depth quartile bucket per event (within event_type): exact
    quantile grid broadcast as a LUT, stateless map, zero row exchange
    (`ops/feature.py:quantile_bucketize`)."""
    from ...ops.feature import quantile_bucketize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return quantile_bucketize(ev, "event_type", "value", n_buckets=4)
QUERIES["event_running"] = q_event_running
QUERIES["max_concurrent"] = q_max_concurrent
QUERIES["user_first_event"] = q_user_first_event
QUERIES["hll_by_type"] = q_hll_by_type
QUERIES["distinct_users_by_type"] = q_distinct_users_by_type
QUERIES["user_top_event"] = q_user_top_event
QUERIES["event_deltas"] = q_event_deltas
QUERIES["event_share"] = q_event_share
QUERIES["event_funnel"] = q_event_funnel
QUERIES["event_ohlc"] = q_event_ohlc
QUERIES["asof_clicks"] = q_asof_clicks
QUERIES["event_sessions"] = q_event_sessions
QUERIES["value_quantiles"] = q_value_quantiles
QUERIES["sliding_window"] = q_sliding_window
QUERIES["events_window"] = q_events_window
QUERIES["sessionize"] = q_sessionize
QUERIES["event_pivot"] = q_event_pivot
QUERIES["click_buyers"] = q_click_buyers
QUERIES["retention"] = q_retention
QUERIES["hist_quantiles"] = q_hist_quantiles
QUERIES["value_buckets"] = q_value_buckets
ORACLE_SQL["events_window"] = """
        SELECT event_type, date_trunc('hour', ts) AS window_start,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               round(SUM(COALESCE(value, 0)), 4) AS sum_value
        FROM events GROUP BY 1, 2
    """
ORACLE_SQL["sessionize"] = """
        WITH e AS (SELECT user_id, event_id, ts,
                          CASE WHEN LAG(ts) OVER w IS NULL
                                 OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS new_s
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        s AS (SELECT user_id, event_id, ts,
                     SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS session_id
              FROM e)
        SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               MIN(ts) AS start_ts, MAX(ts) AS end_ts
        FROM s GROUP BY 1, 2
    """

# native DuckDB ASOF LEFT JOIN — identical backward semantics
ORACLE_SQL["asof_clicks"] = """
    SELECT l.event_id, l.user_id, l.ts,
           r.event_id AS event_id_r, r.ts AS ts_r
    FROM (SELECT event_id, ts, user_id FROM events WHERE event_type = 'click') l
    ASOF LEFT JOIN
         (SELECT event_id, ts, user_id FROM events WHERE event_type = 'view') r
    ON l.user_id = r.user_id AND r.ts <= l.ts
"""

# range join replay: the sessionize oracle as a CTE, then an interval join
ORACLE_SQL["event_sessions"] = f"""
    WITH sess AS ({ORACLE_SQL["sessionize"]})
    SELECT e.event_id, e.user_id, e.ts, sess.session_id
    FROM events e JOIN sess
      ON e.user_id = sess.user_id
     AND e.ts BETWEEN sess.start_ts AND sess.end_ts
"""

# each event in its 4 covering 60-min/15-min-slide windows
ORACLE_SQL["sliding_window"] = """
    WITH off AS (SELECT unnest(generate_series(0, 3)) AS j),
    w AS (SELECT e.event_type,
                 make_timestamp(((epoch_us(e.ts) // 900000000) - off.j) * 900000000)
                     AS window_start,
                 COALESCE(e.value, 0) AS v
          FROM events e, off)
    SELECT event_type, window_start,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           round(SUM(v), 4) AS sum_value
    FROM w GROUP BY 1, 2
"""

# exact discrete quantiles (lower interpolation == quantile_disc)
ORACLE_SQL["value_quantiles"] = """
    SELECT event_type,
           quantile_disc(value, 0.5)  AS p50,
           quantile_disc(value, 0.9)  AS p90,
           quantile_disc(value, 0.99) AS p99
    FROM events GROUP BY 1
"""

ORACLE_SQL["event_pivot"] = """
    SELECT user_id,
           CAST(COUNT(CASE WHEN event_type = 'click' THEN 1 END) AS BIGINT) AS click,
           CAST(COUNT(CASE WHEN event_type = 'error' THEN 1 END) AS BIGINT) AS error,
           CAST(COUNT(CASE WHEN event_type = 'purchase' THEN 1 END) AS BIGINT) AS purchase,
           CAST(COUNT(CASE WHEN event_type = 'signup' THEN 1 END) AS BIGINT) AS signup,
           CAST(COUNT(CASE WHEN event_type = 'view' THEN 1 END) AS BIGINT) AS view
    FROM events GROUP BY user_id
"""

ORACLE_SQL["click_buyers"] = """
    SELECT user_id FROM events WHERE event_type = 'click'
    INTERSECT
    SELECT user_id FROM events WHERE event_type = 'purchase'
"""

def _hll_by_sql():
    from ...ops.sketch import hll_by_oracle_sql

    return hll_by_oracle_sql("events", "event_type", "user_id")


ORACLE_SQL["hll_by_type"] = _hll_by_sql()

ORACLE_SQL["distinct_users_by_type"] = """
    SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events GROUP BY event_type
"""

ORACLE_SQL["user_first_event"] = """
    SELECT user_id, event_type, ts
    FROM (SELECT user_id, event_type, ts,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS rn
          FROM events)
    WHERE rn = 1
"""

ORACLE_SQL["event_ohlc"] = """
    SELECT event_type, date_trunc('hour', ts) AS window_start,
           arg_min(value, ts) AS open, MAX(value) AS high,
           MIN(value) AS low, arg_max(value, ts) AS close,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM events GROUP BY event_type, date_trunc('hour', ts)
"""

ORACLE_SQL["event_funnel"] = """
    WITH s1 AS (SELECT user_id, MIN(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id),
    s2 AS (SELECT e.user_id, MIN(e.ts) AS t
           FROM events e JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
           WHERE e.event_type = 'click' GROUP BY e.user_id),
    s3 AS (SELECT e.user_id, MIN(e.ts) AS t
           FROM events e JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
           WHERE e.event_type = 'purchase' GROUP BY e.user_id)
    SELECT CAST(1 AS BIGINT) AS step, CAST(COUNT(*) AS BIGINT) AS n_keys
    FROM s1
    UNION ALL SELECT 2, CAST(COUNT(*) AS BIGINT) FROM s2
    UNION ALL SELECT 3, CAST(COUNT(*) AS BIGINT) FROM s3
"""


ORACLE_SQL["event_share"] = """
    WITH h AS (SELECT event_type, date_trunc('hour', ts) AS window_start,
                      CAST(COUNT(*) AS BIGINT) AS n_events
               FROM events GROUP BY 1, 2)
    SELECT event_type, window_start, n_events,
           round(CAST(n_events AS DOUBLE)
                 / SUM(n_events) OVER (PARTITION BY window_start), 8)
               AS share
    FROM h
"""

ORACLE_SQL["event_deltas"] = """
    WITH h AS (SELECT event_type, date_trunc('hour', ts) AS window_start,
                      CAST(COUNT(*) AS BIGINT) AS n_events
               FROM events GROUP BY 1, 2)
    SELECT event_type, window_start, n_events,
           CAST(n_events - COALESCE(
               LAG(n_events) OVER (PARTITION BY event_type
                                   ORDER BY window_start), n_events)
               AS BIGINT) AS delta_n
    FROM h
"""

ORACLE_SQL["user_top_event"] = """
    WITH c AS (SELECT user_id, event_type,
                      CAST(COUNT(*) AS BIGINT) AS n
               FROM events GROUP BY user_id, event_type)
    SELECT user_id, event_type, n FROM c
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY n DESC, event_type) = 1
"""

ORACLE_SQL["event_running"] = """
    SELECT event_id,
           CAST(SUM(CAST(round(value * 100.0) AS BIGINT))
                OVER (ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
                AS BIGINT) AS run_total
    FROM events
"""

ORACLE_SQL["max_concurrent"] = """
    WITH iv AS (SELECT epoch_us(ts) AS s,
                       epoch_us(ts)
                       + CAST(floor(value) AS BIGINT) * 1000000 AS e
                FROM events),
    d AS (SELECT s AS t, CAST(1 AS BIGINT) AS d FROM iv
          UNION ALL
          SELECT e AS t, CAST(-1 AS BIGINT) AS d FROM iv),
    r AS (SELECT SUM(d) OVER (ORDER BY t, d ROWS UNBOUNDED PRECEDING)
                 AS run FROM d)
    SELECT CAST(MAX(run) AS BIGINT) AS max_concurrent FROM r
"""


ORACLE_SQL["retention"] = """
    WITH uw AS (SELECT DISTINCT user_id,
                       datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) // 7 AS w
                FROM events),
    first AS (SELECT user_id, MIN(w) AS w0 FROM uw GROUP BY user_id)
    SELECT CAST(w0 AS BIGINT) AS cohort_week,
           CAST(uw.w - w0 AS BIGINT) AS week_offset,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM uw JOIN first USING (user_id)
    GROUP BY 1, 2
"""

from ...ops.sketch import histogram_quantiles_sql as _hq_sql  # noqa: E402

ORACLE_SQL["hist_quantiles"] = _hq_sql("events", "event_type", "value")


ORACLE_SQL["value_buckets"] = """
    WITH thr AS (SELECT event_type,
                        quantile_disc(value, 0.25) AS q1,
                        quantile_disc(value, 0.5)  AS q2,
                        quantile_disc(value, 0.75) AS q3
                 FROM events GROUP BY event_type)
    SELECT e.event_id, e.event_type, e.value,
           CAST((CASE WHEN e.value >= q1 THEN 1 ELSE 0 END)
              + (CASE WHEN e.value >= q2 THEN 1 ELSE 0 END)
              + (CASE WHEN e.value >= q3 THEN 1 ELSE 0 END) AS BIGINT) AS bucket
    FROM events e JOIN thr USING (event_type)
"""


def q_interval_union(sf_dir: str):
    """Per-user union session coverage: each event opens a session of
    floor(value) seconds; overlapping sessions count ONCE (the
    islands-and-gaps sweep in `ops/intervals.py` — touching intervals
    merge).  Complements q_max_concurrent's peak with total coverage +
    merged-island counts, one hash exchange, vectorized per-group
    kernel."""
    from ...ops.intervals import interval_union

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def to_iv(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dur = np.floor(
            batch["value"].to_numpy(zero_copy_only=False)
        ).astype(np.int64) * np.int64(1_000_000)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "s": pa.array(s, type=pa.int64()),
                "e": pa.array(s + dur, type=pa.int64()),
            }
        )

    iv = ev.map_batches(to_iv, batch_format="pyarrow")
    return interval_union(iv, "user_id", "s", "e").rename_columns(
        {"covered": "covered_us"}
    )


QUERIES["interval_union"] = q_interval_union
ORACLE_SQL["interval_union"] = """
    WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                       epoch_us(ts) + CAST(FLOOR(value) AS BIGINT) * 1000000 AS e
                FROM events),
    m AS (SELECT user_id, s, e,
                 MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                     AS prev_max
          FROM iv),
    isl AS (SELECT user_id, s, e,
                   CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END
                       AS new_isl
            FROM m),
    g AS (SELECT user_id, s, e,
                 SUM(new_isl) OVER (PARTITION BY user_id ORDER BY s, e
                                    ROWS UNBOUNDED PRECEDING) AS island
          FROM isl),
    u AS (SELECT user_id, island, MAX(e) - MIN(s) AS len
          FROM g GROUP BY user_id, island)
    SELECT user_id, CAST(SUM(len) AS BIGINT) AS covered_us,
           CAST(COUNT(*) AS BIGINT) AS n_islands
    FROM u GROUP BY user_id
"""


def q_type_entropy(sf_dir: str):
    """Per-event-type Shannon entropy (nats) of its user distribution —
    how concentrated each event type is on few users.  (type, user)
    pair counts via the sharded-groupby combinator (pair cardinality
    scales with data), then additive (Σc, Σ c·ln c) partials folded per
    type (`ops/entropy.py`); H = ln N - Σ c·ln c / N."""
    from ...ops.entropy import group_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return group_entropy(ev, ["event_type"], "user_id")


QUERIES["type_entropy"] = q_type_entropy
ORACLE_SQL["type_entropy"] = """
    WITH c AS (SELECT event_type, user_id, COUNT(*) AS c
               FROM events GROUP BY 1, 2)
    SELECT event_type,
           ROUND(LN(SUM(c)) - SUM(c * LN(c)) / SUM(c), 6) AS entropy
    FROM c GROUP BY event_type
"""


def q_event_trigrams(sf_dir: str):
    """Top-25 event-type trigrams across users' time-ordered sequences
    (sequential pattern mining at sequence level): one hash exchange by
    user, a double grouped C shift per shard, bounded |types|^3 count
    partials, tiny combine + top-k."""
    from ...ops.agg import sharded_groupby_apply

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        g = d.groupby("user_id", sort=False)["event_type"]
        tri = pd.DataFrame(
            {"t1": d["event_type"], "t2": g.shift(-1), "t3": g.shift(-2)}
        ).dropna()
        return (
            tri.groupby(["t1", "t2", "t3"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    parts = sharded_groupby_apply(ev, ["user_id"], apply, num_shards=64)
    combined = (
        parts.groupby(["t1", "t2", "t3"]).sum("n").to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values(["n", "t1", "t2", "t3"],
                     ascending=[False, True, True, True])
        .head(25)
        .reset_index(drop=True)
    )  # |types|^3 rows by construction — bounded
    return pa.table(
        {
            "t1": pa.array(combined["t1"], type=pa.string()),
            "t2": pa.array(combined["t2"], type=pa.string()),
            "t3": pa.array(combined["t3"], type=pa.string()),
            "n": pa.array(combined["n"], type=pa.int64()),
        }
    )


QUERIES["event_trigrams"] = q_event_trigrams
ORACLE_SQL["event_trigrams"] = """
    WITH o AS (SELECT event_type AS t1,
                      LEAD(event_type, 1) OVER w AS t2,
                      LEAD(event_type, 2) OVER w AS t3
               FROM events
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
    FROM o WHERE t2 IS NOT NULL AND t3 IS NOT NULL
    GROUP BY 1, 2, 3
    ORDER BY n DESC, t1, t2, t3 LIMIT 25
"""


# ---------------------------------------------------------------------------
# HLL set algebra: the distinct-user sketches for two event types plus
# their UNION obtained by register-wise max merge — the mergeability
# property that lets 100 TB of per-shard sketches fold to one
# ---------------------------------------------------------------------------

HLL_SETOPS_A = "click"
HLL_SETOPS_B = "purchase"


def q_hll_setops(sf_dir: str):
    """HyperLogLog register tables for distinct users of two event types
    and their union, where the union registers come from MERGING the two
    sketches (element-wise max) rather than re-reading the data — the
    algebra that makes sketches the right 100-TB distinct-count plan.

    Plan, scale notes: one pass over the type-filtered events builds
    both sketches via the group-sharded register fold
    (:func:`hll_registers_by` — sketch cells move, never user ids); the
    max-merge then runs on two register tables bounded by 2^p rows each,
    a constant independent of data size.  The oracle computes the union
    registers directly over the filtered rows — register-max merge is
    exactly distinct-set union, so the two surfaces are bit-equal."""
    from ...ops.sketch import hll_registers_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).filter(
        expr=f"event_type == '{HLL_SETOPS_A}' or event_type == '{HLL_SETOPS_B}'"
    )
    regs = hll_registers_by(ev, "event_type", "user_id").to_pandas()
    a = regs[regs["event_type"] == HLL_SETOPS_A][["idx", "rho"]]
    b = regs[regs["event_type"] == HLL_SETOPS_B][["idx", "rho"]]
    union = (
        pd.concat([a, b], ignore_index=True)
        .groupby("idx", as_index=False)["rho"].max()
    )
    out = pd.concat(
        [a.assign(set_name="a"), b.assign(set_name="b"),
         union.assign(set_name="union")],
        ignore_index=True,
    )
    return pa.table(
        {
            "set_name": pa.array(out["set_name"], type=pa.string()),
            "idx": pa.array(out["idx"].to_numpy().astype(np.int64),
                            type=pa.int64()),
            "rho": pa.array(out["rho"].to_numpy().astype(np.int64),
                            type=pa.int64()),
        }
    )


def _hll_set_sql(label: str, pred: str) -> str:
    from ...ops.sketch import hll_oracle_sql

    sub = f"(SELECT user_id FROM events WHERE {pred}) AS s"
    inner = hll_oracle_sql(sub, "user_id")
    return f"SELECT '{label}' AS set_name, idx, rho FROM ({inner})"


QUERIES["hll_setops"] = q_hll_setops
ORACLE_SQL["hll_setops"] = " UNION ALL ".join(
    [
        _hll_set_sql("a", f"event_type = '{HLL_SETOPS_A}'"),
        _hll_set_sql("b", f"event_type = '{HLL_SETOPS_B}'"),
        _hll_set_sql(
            "union",
            f"event_type IN ('{HLL_SETOPS_A}', '{HLL_SETOPS_B}')",
        ),
    ]
)


# ---------------------------------------------------------------------------
# Semi-structured extraction: pull a typed field out of the JSON props
# column and aggregate it — the schema-on-read pattern for event payloads
# ---------------------------------------------------------------------------


def q_props_extract(sf_dir: str):
    """Per-event-type stats over the integer field ``k`` extracted from
    the JSON ``props`` payload column — schema-on-read without a UDF row
    loop.

    Plan, scale notes: extraction is pyarrow's C++ ``extract_regex``
    kernel (zero Python per row); rows whose payload lacks the field
    drop like SQL NULLs.  Each batch folds to at most |event_type| = 5
    cells (sum/min/max/count in exact int64), so the engine groupby runs
    over a constant-size key domain."""
    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        df = pd.DataFrame(
            {"event_type": batch["event_type"].to_pandas(),
             "k": k.to_pandas()}
        ).dropna(subset=["k"])
        if df.empty:
            return pa.table(
                {"event_type": pa.array([], type=pa.string()),
                 "sum_k": pa.array([], type=pa.int64()),
                 "min_k": pa.array([], type=pa.int64()),
                 "max_k": pa.array([], type=pa.int64()),
                 "n_k": pa.array([], type=pa.int64())}
            )
        g = df.groupby("event_type", sort=False)["k"].agg(
            ["sum", "min", "max", "size"]
        )
        return pa.table(
            {
                "event_type": pa.array(g.index, type=pa.string()),
                "sum_k": pa.array(g["sum"].to_numpy().astype(np.int64)),
                "min_k": pa.array(g["min"].to_numpy().astype(np.int64)),
                "max_k": pa.array(g["max"].to_numpy().astype(np.int64)),
                "n_k": pa.array(g["size"].to_numpy().astype(np.int64)),
            }
        )

    cells = ev.map_batches(partial, batch_format="pyarrow")
    final = (
        cells.groupby("event_type")
        .aggregate(
            *[a for a in _props_aggs()]
        )
        .to_pandas()
        .rename(columns={"sum(sum_k)": "sum_k", "min(min_k)": "min_k",
                         "max(max_k)": "max_k", "sum(n_k)": "n_k"})
        .sort_values("event_type")
    )
    return pa.table(
        {
            "event_type": pa.array(final["event_type"], type=pa.string()),
            "sum_k": pa.array(final["sum_k"].to_numpy().astype(np.int64)),
            "min_k": pa.array(final["min_k"].to_numpy().astype(np.int64)),
            "max_k": pa.array(final["max_k"].to_numpy().astype(np.int64)),
            "n_k": pa.array(final["n_k"].to_numpy().astype(np.int64)),
        }
    )


def _props_aggs():
    from ray.data.aggregate import Max, Min, Sum

    return [Sum("sum_k"), Min("min_k"), Max("max_k"), Sum("n_k")]


QUERIES["props_extract"] = q_props_extract
ORACLE_SQL["props_extract"] = r"""
    SELECT event_type,
           CAST(SUM(k) AS BIGINT) AS sum_k,
           CAST(MIN(k) AS BIGINT) AS min_k,
           CAST(MAX(k) AS BIGINT) AS max_k,
           COUNT(k) AS n_k
    FROM (SELECT event_type,
                 CAST(NULLIF(regexp_extract(props, '"k":\s*(-?\d+)', 1), '')
                      AS BIGINT) AS k
          FROM events)
    WHERE k IS NOT NULL
    GROUP BY event_type
    ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Rolling distinct users: per-day DAU and trailing-7-day distinct users in
# ONE user-sharded exchange (per-user day sets expand and dedupe in-shard,
# so shard partials sum to exact global distincts)
# ---------------------------------------------------------------------------

ROLLING_DAU_WINDOW = 7


def q_rolling_dau(sf_dir: str):
    """Per calendar day: exact distinct active users (DAU) and exact
    distinct users active in the trailing 7 days — the windowed
    COUNT(DISTINCT) that naive plans answer with 7 self-joined distinct
    exchanges.

    Plan, scale notes: ONE hash(user) exchange of per-batch-deduped
    (user, day) pairs.  Because each user lives in exactly one shard,
    in-shard distinct counts are disjoint across shards and SUM to the
    global distinct — the window expansion (each day covering its next 6
    days) and its dedup also stay in-shard, so nothing user-level ever
    crosses the wire twice.  Shards emit <= |days| x 2 cells; the final
    groupby runs over the bounded day domain."""
    from ...ops.agg import sharded_groupby_apply

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        d = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[D]").astype(np.int64)
        key = np.unique(u.astype(np.int64) * (1 << 20) + d)
        return pa.table(
            {"user_id": pa.array(key >> 20, type=pa.int64()),
             "day": pa.array(key & ((1 << 20) - 1), type=pa.int64())}
        )

    W = ROLLING_DAU_WINDOW

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        key = np.unique(u * (1 << 20) + d)
        uu, dd = key >> 20, key & ((1 << 20) - 1)
        # exact-day DAU partial: pairs are globally distinct in this shard
        day_u, day_n = np.unique(dd, return_counts=True)
        # window: (user, day) covers days day..day+W-1; dedupe per user
        wkey = np.unique(
            (np.repeat(uu, W) * (1 << 20))
            + (np.repeat(dd, W) + np.tile(np.arange(W), len(uu)))
        )
        wday, wn = np.unique(wkey & ((1 << 20) - 1), return_counts=True)
        a = pd.DataFrame({"day": day_u, "dau": day_n.astype(np.int64),
                          "dau_7d": np.zeros(len(day_u), dtype=np.int64)})
        b = pd.DataFrame({"day": wday,
                          "dau": np.zeros(len(wday), dtype=np.int64),
                          "dau_7d": wn.astype(np.int64)})
        return (
            pd.concat([a, b], ignore_index=True)
            .groupby("day", as_index=False, sort=False)[["dau", "dau_7d"]]
            .sum()
        )

    cells = sharded_groupby_apply(
        ev.map_batches(pairs, batch_format="pyarrow"), ["user_id"], in_shard
    )
    final = (
        cells.groupby("day")
        .sum(["dau", "dau_7d"])
        .to_pandas()
        .rename(columns={"sum(dau)": "dau", "sum(dau_7d)": "dau_7d"})
    )
    final = final[final["dau"] > 0].sort_values("day")
    days = final["day"].to_numpy().astype("datetime64[D]").astype(
        "datetime64[us]")
    return pa.table(
        {"day": pa.array(days, type=pa.timestamp("us")),
         "dau": pa.array(final["dau"].to_numpy().astype(np.int64)),
         "dau_7d": pa.array(final["dau_7d"].to_numpy().astype(np.int64))}
    )


QUERIES["rolling_dau"] = q_rolling_dau
ORACLE_SQL["rolling_dau"] = f"""
    WITH pairs AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d
                   FROM events),
    days AS (SELECT DISTINCT d FROM pairs)
    SELECT CAST(days.d AS TIMESTAMP) AS day,
           (SELECT COUNT(*) FROM pairs p WHERE p.d = days.d) AS dau,
           (SELECT COUNT(DISTINCT p.user_id) FROM pairs p
             WHERE p.d BETWEEN days.d - {ROLLING_DAU_WINDOW - 1} AND days.d)
               AS dau_7d
    FROM days ORDER BY day
"""


# ---------------------------------------------------------------------------
# Cohort LTV: cumulative value by signup-week cohort x weeks-since
# ---------------------------------------------------------------------------

COHORT_REF_DATE = "2024-01-01"


def q_cohort_value(sf_dir: str):
    """Cohort lifetime-value table: users bucketed by the week of their
    FIRST event (weeks since COHORT_REF_DATE), value summed per
    (cohort_week, age_weeks) in exact integer cents plus exact distinct
    users.  Pass 1 folds per-user first-event timestamps through one
    hash(user) exchange; the (user -> cohort week) map attaches through
    the gated broadcast-or-bucketed path; pass 2 pre-aggregates
    (cohort, age, user) cells per batch so the final exchange is bounded
    by users x weeks, not events."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.join import attach_by_key

    ref = np.datetime64(COHORT_REF_DATE, "D")

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def first_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        tsv = batch["ts"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"user_id": uid, "t0": tsv})
        g = df.groupby("user_id", as_index=False, sort=False)["t0"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    def first_fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False, sort=False)["t0"].min()
        wk = (
            (g["t0"].to_numpy().astype("datetime64[D]") - ref).astype(np.int64)
            // 7
        )
        return pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(np.int64), "cohort_week": wk}
        )

    firsts = sharded_groupby_apply(
        ev.select_columns(["user_id", "ts"]).map_batches(
            first_partial, batch_format="pyarrow"
        ),
        ["user_id"],
        first_fold,
    ).map_batches(
        lambda b: pa.table(
            {
                "user_id": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False), type=pa.int64()
                ),
                "cohort_week": pa.array(
                    b["cohort_week"].to_numpy(zero_copy_only=False),
                    type=pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    tagged = attach_by_key(ev, firsts, on="user_id", val_cols=["cohort_week"])

    def pre(batch: pa.Table) -> pa.Table:
        tsv = batch["ts"].to_numpy(zero_copy_only=False)
        wk = (tsv.astype("datetime64[D]") - ref).astype(np.int64) // 7
        cw = batch["cohort_week"].to_numpy(zero_copy_only=False)
        age = wk - cw
        v = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "cohort_week": cw,
                "age_weeks": age,
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "value_c": v,
            }
        )
        g = df.groupby(
            ["cohort_week", "age_weeks", "user_id"], as_index=False, sort=False
        )["value_c"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        per_user = df.groupby(
            ["cohort_week", "age_weeks", "user_id"], as_index=False, sort=False
        )["value_c"].sum()
        g = per_user.groupby(
            ["cohort_week", "age_weeks"], as_index=False, sort=False
        ).agg(n_users=("user_id", "nunique"), value_c=("value_c", "sum"))
        return g

    out = (
        sharded_groupby_apply(
            tagged.map_batches(pre, batch_format="pyarrow"),
            ["cohort_week", "age_weeks"],
            fold,
        )
        .to_pandas()
        .sort_values(["cohort_week", "age_weeks"])
    )
    return pa.table(
        {
            "cohort_week": pa.array(
                out["cohort_week"].to_numpy(np.int64), type=pa.int64()
            ),
            "age_weeks": pa.array(
                out["age_weeks"].to_numpy(np.int64), type=pa.int64()
            ),
            "n_users": pa.array(out["n_users"].to_numpy(np.int64), type=pa.int64()),
            "value_c": pa.array(out["value_c"].to_numpy(np.int64), type=pa.int64()),
        }
    )


QUERIES["cohort_value"] = q_cohort_value
ORACLE_SQL["cohort_value"] = f"""
    WITH f AS (SELECT user_id,
                      DATEDIFF('day', DATE '{COHORT_REF_DATE}',
                               CAST(MIN(ts) AS DATE)) // 7 AS cohort_week
               FROM events GROUP BY 1),
    e AS (SELECT e.user_id, f.cohort_week,
                 DATEDIFF('day', DATE '{COHORT_REF_DATE}',
                          CAST(e.ts AS DATE)) // 7 - f.cohort_week AS age_weeks,
                 CAST(ROUND(e.value * 100) AS BIGINT) AS v
          FROM events e JOIN f USING (user_id))
    SELECT CAST(cohort_week AS BIGINT) AS cohort_week,
           CAST(age_weeks AS BIGINT) AS age_weeks,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
           CAST(SUM(v) AS BIGINT) AS value_c
    FROM e
    GROUP BY cohort_week, age_weeks
    ORDER BY cohort_week, age_weeks
"""
