"""Event-stream windows, sessions, funnels, and user rollups.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count

from ..config import PipelineConfig
from ..graph import build_nodes, concept_scores, extract_triples, triples_to_edges
from ..tag import extract_mentions, tag_dataset
from ..transcripts import TRANSCRIPTS_SQL, read_transcripts
from ...core.ontology import clean_ontology
from ...ops import dedup as dedup_ops
from ...ops import similarity as sim_ops
from ...ops import text as text_ops
from ._shared import (ONTOLOGY, ONTOLOGY_SQL_VALUES, _ONTO_CTE, _T_CTE, _OCC_CTE, _cfg, QUERIES, ORACLE_SQL)
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


def q_value_mad(sf_dir: str):
    """Median absolute deviation per event type (robust dispersion):
    two exact discrete-quantile passes — per-key medians broadcast
    between them (`ops/events.key_quantiles` composed with itself).
    Discrete quantiles pick actual data values, so both engines agree
    bit-for-bit with no rounding."""
    from ...ops.events import key_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    med = key_quantiles(ev, quantiles=(0.5,), num_shards=8).to_pandas()
    med_map = dict(zip(med["event_type"], med["p50"]))
    ref = ray.put(med_map)

    def dev(df):
        import pandas as pd

        m = ray.get(ref)
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "value": (df["value"] - df["event_type"].map(m)).abs(),
            }
        )

    mad = key_quantiles(
        ev.map_batches(dev, batch_format="pandas"),
        quantiles=(0.5,),
        num_shards=8,
    )

    def typed(df):
        m = ray.get(ref)
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "med": pa.array(
                    df["event_type"].map(m), type=pa.float64()
                ),
                "mad": pa.array(df["p50"], type=pa.float64()),
            }
        )

    return mad.map_batches(typed, batch_format="pandas")


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
QUERIES["value_mad"] = q_value_mad
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

ORACLE_SQL["value_mad"] = """
    WITH m AS (SELECT event_type, quantile_disc(value, 0.5) AS med
               FROM events GROUP BY event_type),
    d AS (SELECT e.event_type, abs(e.value - m.med) AS dev
          FROM events e JOIN m USING (event_type)),
    md AS (SELECT event_type, quantile_disc(dev, 0.5) AS mad
           FROM d GROUP BY event_type)
    SELECT m.event_type, m.med, md.mad FROM m JOIN md USING (event_type)
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


def q_value_ewma(sf_dir: str):
    """Per-user EWMA (alpha = 0.3, adjust=False recurrence;
    0.3 is deliberately NOT binary-exact — a dyadic alpha like 0.25
    produces values landing exactly on 6-digit rounding boundaries,
    where numpy half-even and SQL half-away disagree) of event
    value in (ts, event_id) order — one hash exchange, the recurrence
    runs on pandas' C grouped ewm inside the shard (`ops/ewma.py`);
    state never crosses shards."""
    from ...ops.ewma import ewma_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return ewma_by(
        ev, "user_id", ["ts", "event_id"], "value", 0.3,
        id_cols=["event_id"],
    )


QUERIES["value_ewma"] = q_value_ewma
# No SQL mirror by design (the logistic_fit precedent): the recurrence
# y_t = 0.3 x_t + 0.7 y_{t-1} and the closed-form POWER sum are different
# float paths — measured 2/10k rows landing within ~1e-10 of a 6-digit
# rounding boundary and flipping. Driver records the rows-only check;
# exactness is pinned in test_ops_stats vs a pure-Python recurrence.


def q_user_survival(sf_dir: str):
    """Kaplan-Meier survival over inter-event gaps (time-to-next-event
    per user, integer-hour durations; the gap after a user's last event
    is right-censored at the observed span end).  One sharded exchange
    for the grouped shift, bounded (duration, observed) count partials,
    exp(cumsum(log(1 - d/n))) in the SAME op order as the SQL window
    mirror (`ops/survival.py`)."""
    from ...ops.survival import km_gap_curve

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return km_gap_curve(ev, "user_id", "ts")


QUERIES["user_survival"] = q_user_survival
ORACLE_SQL["user_survival"] = """
    WITH sp AS (SELECT epoch_us(MAX(ts)) AS mx FROM events),
    g AS (SELECT user_id, epoch_us(ts) AS t,
                 LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                                          ORDER BY ts) AS nxt
          FROM events),
    e AS (SELECT CASE WHEN nxt IS NULL
                      THEN ((SELECT mx FROM sp) - t) // 3600000000
                      ELSE (nxt - t) // 3600000000 END AS duration_h,
                 nxt IS NOT NULL AS observed
          FROM g),
    c AS (SELECT duration_h, COUNT(*) AS exits,
                 SUM(CASE WHEN observed THEN 1 ELSE 0 END) AS deaths
          FROM e GROUP BY duration_h),
    k AS (SELECT duration_h, deaths,
                 (SELECT COUNT(*) FROM e)
                     - COALESCE(SUM(exits) OVER (ORDER BY duration_h
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS n_risk
          FROM c),
    s AS (SELECT duration_h, n_risk, deaths,
                 EXP(SUM(CASE WHEN deaths >= n_risk THEN -1e30
                              ELSE LN(1.0 - deaths * 1.0 / n_risk) END)
                     OVER (ORDER BY duration_h)) AS sv
          FROM k)
    SELECT duration_h, CAST(n_risk AS BIGINT) AS n_risk,
           CAST(deaths AS BIGINT) AS deaths, ROUND(sv, 6) AS survival
    FROM s WHERE deaths > 0
"""


def q_value_ks(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov test: does `value` come from the
    same distribution for 'click' vs 'purchase' events?  Integer-exact
    D numerator at tie-run ends of the pooled sorted sample — ONE
    range-partitioned sort, block-local cumsums with a driver prefix
    over O(blocks) metadata (`ops/ks.py`); D is reported in ppm via
    exact integer round-half-up so no float rounding path exists."""
    from ...ops.ks import ks_2sample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return ks_2sample(ev, "value", "event_type", "click", "purchase")


QUERIES["value_ks"] = q_value_ks
ORACLE_SQL["value_ks"] = """
    WITH s AS (SELECT value AS v,
                      CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS a,
                      CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS b
               FROM events
               WHERE value IS NOT NULL
                 AND event_type IN ('click', 'purchase')),
    c AS (SELECT v,
                 SUM(a) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS ca,
                 SUM(b) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cb,
                 LEAD(v) OVER (ORDER BY v) AS nxt
          FROM s),
    tot AS (SELECT SUM(a) AS n_a, SUM(b) AS n_b FROM s),
    d AS (SELECT v, ABS(tot.n_b * ca - tot.n_a * cb) AS dev
          FROM c, tot WHERE nxt IS NULL OR nxt <> v),
    mx AS (SELECT MAX(dev) AS d_num FROM d)
    SELECT CAST(tot.n_a AS BIGINT) AS n_a,
           CAST(tot.n_b AS BIGINT) AS n_b,
           CAST(mx.d_num AS BIGINT) AS d_num,
           CAST((mx.d_num * 2000000 + tot.n_a * tot.n_b)
                // (2 * tot.n_a * tot.n_b) AS BIGINT) AS d_ppm,
           (SELECT MIN(v) FROM d WHERE d.dev = mx.d_num) AS d_loc
    FROM tot, mx
"""


def q_value_cusum(sf_dir: str):
    """Per-user CUSUM changepoint over the time-ordered event values:
    the split k maximizing |n*S_k - k*S_n| in integer cents — exact
    int64 arithmetic end-to-end (no float path), one hash exchange via
    the sharded-groupby combinator, C grouped cumsums per shard
    (`ops/cusum.py`); ties break toward the smallest k."""
    from ...ops.cusum import cusum_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "v": pa.array(np.rint(v * 100).astype(np.int64),
                              type=pa.int64()),
            }
        )

    ev = ev.map_batches(cents, batch_format="pyarrow")
    return cusum_by(ev, "user_id", ["ts", "event_id"], "v")


QUERIES["value_cusum"] = q_value_cusum
ORACLE_SQL["value_cusum"] = """
    WITH o AS (SELECT user_id,
                      ROW_NUMBER() OVER w AS k,
                      COUNT(*) OVER (PARTITION BY user_id) AS n,
                      SUM(CAST(ROUND(value * 100) AS BIGINT))
                          OVER (w ROWS UNBOUNDED PRECEDING) AS s,
                      SUM(CAST(ROUND(value * 100) AS BIGINT))
                          OVER (PARTITION BY user_id) AS st
               FROM events
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
    d AS (SELECT user_id, n, k, ABS(n * s - k * st) AS dev
          FROM o WHERE k < n)
    SELECT user_id, CAST(n AS BIGINT) AS n, CAST(k AS BIGINT) AS change_k,
           CAST(dev AS BIGINT) AS dev
    FROM d
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY dev DESC, k) = 1
"""


def q_event_markov(sf_dir: str):
    """First-order Markov transition matrix of event types along each
    user's time-ordered sequence (session-modeling prior): one hash
    exchange by user, grouped C shift per shard, per-shard pair-count
    partials, then a bounded |types|^2 combine; probabilities are exact
    integer ppm (`ops/markov.py`)."""
    from ...ops.markov import transition_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return transition_counts(ev, "user_id", ["ts", "event_id"], "event_type")


QUERIES["event_markov"] = q_event_markov
ORACLE_SQL["event_markov"] = """
    WITH o AS (SELECT user_id, event_type,
                      LEAD(event_type) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) AS nxt
               FROM events),
    c AS (SELECT event_type AS prev_state, nxt AS next_state,
                 COUNT(*) AS c
          FROM o WHERE nxt IS NOT NULL GROUP BY 1, 2),
    t AS (SELECT prev_state, SUM(c) AS total FROM c GROUP BY 1)
    SELECT c.prev_state, c.next_state, CAST(c.c AS BIGINT) AS c,
           CAST(t.total AS BIGINT) AS total,
           CAST((c.c * 2000000 + t.total) // (2 * t.total) AS BIGINT)
               AS p_ppm
    FROM c JOIN t USING (prev_state)
"""


def q_type_dow_mi(sf_dir: str):
    """Mutual information (nats) and Cramér's V between event type and
    day-of-week — the feature-selection dependence scan over two
    categoricals.  Observed-cell partials per batch folded over a
    bounded |types|x7 table (`ops/contingency.mutual_info`); zero cells
    contribute nothing to MI by definition, so no dense grid exists."""
    from ...ops.contingency import mutual_info

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def dow(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # 1970-01-01 is a Thursday; (days + 4) % 7 -> 0 = Sunday,
        # matching DuckDB's dayofweek()
        us = pc.cast(batch["ts"], pa.int64())
        days = pc.divide(us, pa.scalar(86_400_000_000, type=pa.int64()))
        d = pc.add(days, pa.scalar(4, type=pa.int64()))
        return pa.table(
            {
                "event_type": batch["event_type"],
                "dow": pc.subtract(
                    d, pc.multiply(pc.divide(d, pa.scalar(7, type=pa.int64())),
                                   pa.scalar(7, type=pa.int64()))
                ),
            }
        )

    return mutual_info(ev.map_batches(dow, batch_format="pyarrow"),
                       "event_type", "dow")


QUERIES["type_dow_mi"] = q_type_dow_mi
ORACLE_SQL["type_dow_mi"] = """
    WITH x AS (SELECT event_type AS a, CAST(dayofweek(ts) AS BIGINT) AS b
               FROM events),
    c AS (SELECT a, b, COUNT(*) AS o FROM x GROUP BY 1, 2),
    ta AS (SELECT a, SUM(o) AS ra FROM c GROUP BY 1),
    tb AS (SELECT b, SUM(o) AS cb FROM c GROUP BY 1),
    nn AS (SELECT SUM(o) * 1.0 AS n FROM c),
    agg AS (SELECT SUM((o / nn.n) * LN(o * nn.n / (ra * cb))) AS mi,
                   SUM(o * o * nn.n / (ra * cb)) - nn.n AS chi2,
                   nn.n AS n
            FROM c JOIN ta USING (a) JOIN tb USING (b), nn
            GROUP BY nn.n)
    SELECT ROUND(agg.mi, 6) AS mi_nats,
           ROUND(SQRT(agg.chi2 / (agg.n *
                 (LEAST((SELECT COUNT(*) FROM ta),
                        (SELECT COUNT(*) FROM tb)) - 1))), 6) AS cramers_v,
           CAST(agg.n AS BIGINT) AS n,
           (SELECT COUNT(*) FROM ta) AS r,
           (SELECT COUNT(*) FROM tb) AS s
    FROM agg
"""


def q_value_anova(sf_dir: str):
    """One-way ANOVA F: does mean event value differ across event
    types?  Integer-cent moments (exact below 2^53 on both engines),
    per-batch additive partials, bounded |types| combine; only
    O(1)-scale ratios (F, eta-squared) are emitted rounded
    (`ops/anova.py` — raw sums of squares cannot hold a 1e-6 absolute
    contract across two engines' summation orders)."""
    from ...ops.anova import anova_f

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "v": pa.array(np.rint(v * 100).astype(np.int64),
                              type=pa.int64()),
            }
        )

    return anova_f(ev.map_batches(cents, batch_format="pyarrow"),
                   "event_type", "v")


QUERIES["value_anova"] = q_value_anova
ORACLE_SQL["value_anova"] = """
    WITH g AS (SELECT event_type,
                      COUNT(*) * 1.0 AS n,
                      SUM(CAST(ROUND(value * 100) AS BIGINT)) * 1.0 AS s,
                      SUM(CAST(ROUND(value * 100) AS BIGINT)
                          * CAST(ROUND(value * 100) AS BIGINT)) * 1.0 AS ss
               FROM events GROUP BY 1),
    t AS (SELECT SUM(n) AS n, SUM(s) AS s, SUM(ss) AS ss,
                 COUNT(*) AS k, SUM(s * s / n) AS sg
          FROM g)
    SELECT CAST(t.k AS BIGINT) AS k, CAST(t.n AS BIGINT) AS n,
           ROUND(((t.sg - t.s * t.s / t.n) / (t.k - 1))
                 / ((t.ss - t.sg) / (t.n - t.k)), 6) AS f_stat,
           ROUND((t.sg - t.s * t.s / t.n)
                 / ((t.sg - t.s * t.s / t.n) + (t.ss - t.sg)), 6) AS eta_sq
    FROM t
"""


def q_value_autocorr(sf_dir: str):
    """Pooled lag-1 autocorrelation of event value within each user's
    time-ordered sequence (panel-data serial dependence): integer-cent
    moments (exact below 2^53 on both engines), one hash exchange, a C
    grouped shift per shard, O(shards) moment rows out
    (`ops/autocorr.py`)."""
    from ...ops.autocorr import lag_corr

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "v": pa.array(np.rint(v * 100).astype(np.int64),
                              type=pa.int64()),
            }
        )

    return lag_corr(ev.map_batches(cents, batch_format="pyarrow"),
                    "user_id", ["ts", "event_id"], "v", lag=1)


QUERIES["value_autocorr"] = q_value_autocorr
ORACLE_SQL["value_autocorr"] = """
    WITH o AS (SELECT user_id,
                      CAST(ROUND(value * 100) AS BIGINT) AS v,
                      LAG(CAST(ROUND(value * 100) AS BIGINT))
                          OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS pv
               FROM events),
    p AS (SELECT pv * 1.0 AS x, v * 1.0 AS y FROM o WHERE pv IS NOT NULL),
    m AS (SELECT COUNT(*) * 1.0 AS n, SUM(x) AS sx, SUM(y) AS sy,
                 SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
          FROM p)
    SELECT CAST(m.n AS BIGINT) AS n_pairs,
           ROUND((m.n * m.sxy - m.sx * m.sy)
                 / SQRT((m.n * m.sxx - m.sx * m.sx)
                        * (m.n * m.syy - m.sy * m.sy)), 6) AS autocorr
    FROM m
"""


def q_value_psi(sf_dir: str):
    """Population Stability Index of the event-value distribution
    between the first and second half of the observed time span — the
    standard drift monitor (fixed 50-unit bins capped at 10, split at
    the exact integer midpoint of min/max event time).  Tiny min/max
    pass, then bounded (bucket, half) cell partials
    (`ops/psi.py`)."""
    from ...ops.psi import psi_time_split

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )
    return psi_time_split(ev, "ts", "value", width=50.0, nbuckets=10)


QUERIES["value_psi"] = q_value_psi
ORACLE_SQL["value_psi"] = """
    WITH b AS (SELECT epoch_us(ts) AS t,
                      LEAST(CAST(FLOOR(value / 50) AS BIGINT), 9) AS bucket
               FROM events),
    m AS (SELECT (MIN(t) + MAX(t)) // 2 AS mid FROM b),
    c AS (SELECT bucket, CASE WHEN t > m.mid THEN 1 ELSE 0 END AS half,
                 COUNT(*) AS n
          FROM b, m GROUP BY 1, 2),
    g AS (SELECT bucket,
                 COALESCE(SUM(n) FILTER (half = 0), 0) AS na,
                 COALESCE(SUM(n) FILTER (half = 1), 0) AS nb
          FROM c GROUP BY bucket),
    t AS (SELECT SUM(na) * 1.0 AS ta, SUM(nb) * 1.0 AS tb FROM g)
    SELECT ROUND(SUM((g.na / t.ta - g.nb / t.tb)
                     * LN((g.na / t.ta) / (g.nb / t.tb))), 6) AS psi,
           CAST(t.ta AS BIGINT) AS n_a, CAST(t.tb AS BIGINT) AS n_b
    FROM g, t WHERE g.na > 0 AND g.nb > 0
    GROUP BY t.ta, t.tb
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


def q_user_burstiness(sf_dir: str):
    """Per-user Fano factor (variance-to-mean ratio) of inter-event
    gaps in integer seconds — burstiness vs Poisson regularity.  One
    hash exchange, grouped C shift per shard, exact integer gap moments
    (sums below 2^53 on both engines), one fixed float tree for the
    ratio; users with < 2 gaps are dropped."""
    from ...ops.agg import sharded_groupby_apply

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts"], kind="stable").copy()
        d["t"] = d["ts"].astype("int64") // 1_000_000
        pv = d.groupby("user_id", sort=False)["t"].shift(1)
        gap = (d["t"] - pv).to_numpy(dtype=np.float64)
        m = ~np.isnan(gap)
        out = pd.DataFrame({"user_id": d["user_id"].to_numpy()[m],
                            "g": gap[m]})
        agg = out.groupby("user_id", sort=False)["g"].agg(
            n="size", s="sum", ss=lambda x: float((x.to_numpy() ** 2).sum())
        ).reset_index()
        agg = agg[agg["n"] >= 2]
        mean = agg["s"] / agg["n"]
        var = agg["ss"] / agg["n"] - mean * mean
        res = pd.DataFrame(
            {
                "user_id": agg["user_id"],
                "n_gaps": agg["n"].astype(np.int64),
                "fano": np.round(var / mean, 6),
            }
        )
        return res

    return sharded_groupby_apply(ev, ["user_id"], apply, num_shards=64)


QUERIES["user_burstiness"] = q_user_burstiness
ORACLE_SQL["user_burstiness"] = """
    WITH o AS (SELECT user_id, epoch_us(ts) // 1000000 AS t,
                      LAG(epoch_us(ts) // 1000000)
                          OVER (PARTITION BY user_id ORDER BY ts) AS pt
               FROM events),
    g AS (SELECT user_id, (t - pt) * 1.0 AS g FROM o WHERE pt IS NOT NULL),
    m AS (SELECT user_id, COUNT(*) * 1.0 AS n, SUM(g) AS s,
                 SUM(g * g) AS ss
          FROM g GROUP BY user_id HAVING COUNT(*) >= 2)
    SELECT user_id, CAST(n AS BIGINT) AS n_gaps,
           ROUND((ss / n - (s / n) * (s / n)) / (s / n), 6) AS fano
    FROM m
"""


TRIM_FRAC_PCT = 10


def q_value_trimmed(sf_dir: str):
    """10%-trimmed mean of event value per type (the classic robust
    location estimator): drop the lowest and highest floor(n/10) values
    by (value, event_id) order inside each type, integer-cent mean of the
    rest.  One hash(event_type)-sharded exchange (every value of a type
    lands in one shard — the `key_quantiles` shape), exact int64 cents so
    the window-SQL mirror matches bit-for-bit."""
    from ...ops.agg import sharded_groupby_apply

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        c = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {"event_type": batch["event_type"],
             "event_id": batch["event_id"],
             "cents": pa.array(c, type=pa.int64())}
        )

    def shard_trim(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby("event_type", sort=False):
            v = g.sort_values(["cents", "event_id"], kind="stable")[
                "cents"
            ].to_numpy(np.int64)
            n = len(v)
            t = n // TRIM_FRAC_PCT
            core = v[t : n - t] if n - 2 * t > 0 else v[0:0]
            if len(core) == 0:
                continue
            rows.append(
                {"event_type": k, "n": n, "n_trimmed": 2 * t,
                 "trimmed_mean_c": int(core.sum()) // len(core)}
            )
        return pd.DataFrame(
            rows, columns=["event_type", "n", "n_trimmed", "trimmed_mean_c"]
        )

    out = sharded_groupby_apply(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        ["event_type"], shard_trim, num_shards=64,
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"event_type": pc.cast(batch["event_type"], pa.string()),
             "n": pc.cast(batch["n"], pa.int64()),
             "n_trimmed": pc.cast(batch["n_trimmed"], pa.int64()),
             "trimmed_mean_c": pc.cast(batch["trimmed_mean_c"], pa.int64())}
        )

    return out.map_batches(typed, batch_format="pyarrow")


QUERIES["value_trimmed"] = q_value_trimmed
ORACLE_SQL["value_trimmed"] = f"""
    WITH c AS (SELECT event_type, event_id,
                      CAST(ROUND(value * 100) AS BIGINT) AS cents
               FROM events),
    r AS (SELECT event_type, cents,
                 ROW_NUMBER() OVER (PARTITION BY event_type
                                    ORDER BY cents, event_id) AS rn,
                 COUNT(*) OVER (PARTITION BY event_type) AS n
          FROM c),
    core AS (SELECT event_type, cents, n, n // {TRIM_FRAC_PCT} AS t
             FROM r
             WHERE rn > n // {TRIM_FRAC_PCT}
               AND rn <= n - n // {TRIM_FRAC_PCT})
    SELECT event_type, CAST(ANY_VALUE(n) AS BIGINT) AS n,
           CAST(2 * ANY_VALUE(t) AS BIGINT) AS n_trimmed,
           CAST(SUM(cents) // COUNT(*) AS BIGINT) AS trimmed_mean_c
    FROM core GROUP BY event_type
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
# Welch's t-test and Mann–Kendall trend — moment-/integer-exact inference
# ---------------------------------------------------------------------------

TTEST_LEVEL_A = "purchase"
TTEST_LEVEL_B = "error"


def q_value_ttest(sf_dir: str):
    """Welch's unequal-variance t-test of mean event value between the
    purchase and error event types: integer-cent moments (exact below
    2^53 on both engines), per-batch additive partials, one 2-key
    combine; only the O(1)-scale outputs (t, Welch dof, mean diff) are
    emitted 6-digit-rounded (`ops/ttest.py` — same contract as
    value_anova)."""
    from ...ops.ttest import welch_ttest

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "value": pa.array(
                    np.rint(v * 100).astype(np.int64), type=pa.int64()
                ),
            }
        )

    return welch_ttest(
        ev.map_batches(cents, batch_format="pyarrow"),
        "event_type", "value", TTEST_LEVEL_A, TTEST_LEVEL_B,
    )


QUERIES["value_ttest"] = q_value_ttest
ORACLE_SQL["value_ttest"] = f"""
    WITH g AS (SELECT event_type,
                      COUNT(*) * 1.0 AS n,
                      SUM(CAST(ROUND(value * 100) AS BIGINT)) * 1.0 AS s,
                      SUM(CAST(ROUND(value * 100) AS BIGINT)
                          * CAST(ROUND(value * 100) AS BIGINT)) * 1.0 AS ss
               FROM events
               WHERE event_type IN ('{TTEST_LEVEL_A}', '{TTEST_LEVEL_B}')
               GROUP BY 1),
    m AS (SELECT
            (SELECT n FROM g WHERE event_type = '{TTEST_LEVEL_A}') AS n1,
            (SELECT s FROM g WHERE event_type = '{TTEST_LEVEL_A}') AS s1,
            (SELECT ss FROM g WHERE event_type = '{TTEST_LEVEL_A}') AS ss1,
            (SELECT n FROM g WHERE event_type = '{TTEST_LEVEL_B}') AS n2,
            (SELECT s FROM g WHERE event_type = '{TTEST_LEVEL_B}') AS s2,
            (SELECT ss FROM g WHERE event_type = '{TTEST_LEVEL_B}') AS ss2),
    v AS (SELECT n1, n2, s1 / n1 AS m1, s2 / n2 AS m2,
                 ((ss1 - s1 * s1 / n1) / (n1 - 1.0)) / n1 AS a,
                 ((ss2 - s2 * s2 / n2) / (n2 - 1.0)) / n2 AS b
          FROM m)
    SELECT CAST(n1 AS BIGINT) AS n_a, CAST(n2 AS BIGINT) AS n_b,
           ROUND(100.0 * (m1 - m2), 6) AS mean_diff_x100,
           ROUND((m1 - m2) / SQRT(a + b), 6) AS t_stat,
           ROUND((a + b) * (a + b)
                 / (a * a / (n1 - 1.0) + b * b / (n2 - 1.0)), 6) AS dof
    FROM v
"""


def q_daily_trend(sf_dir: str):
    """Mann–Kendall monotonic-trend test over the per-day event counts:
    S = Σ sign differences is EXACT INTEGER, the bucketing is per-batch
    day partials + one calendar-bounded groupby, and the O(days²)
    pairwise fold runs on the driver over a few-thousand-element vector
    (`ops/trend.py`).  Tie-corrected normal Z emitted 6-digit-rounded."""
    from ...ops.trend import daily_count_trend

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    return daily_count_trend(ev, "ts")


QUERIES["daily_trend"] = q_daily_trend
ORACLE_SQL["daily_trend"] = """
    WITH d AS (SELECT CAST(ts AS DATE) AS day, COUNT(*) AS n
               FROM events GROUP BY 1),
    s AS (SELECT CAST(SUM(SIGN(b.n - a.n)) AS BIGINT) AS s_stat
          FROM d a JOIN d b ON b.day > a.day),
    ties AS (SELECT n AS val, COUNT(*) * 1.0 AS t FROM d GROUP BY n),
    var AS (SELECT ((SELECT COUNT(*) * 1.0 FROM d)
                    * ((SELECT COUNT(*) * 1.0 FROM d) - 1)
                    * (2 * (SELECT COUNT(*) * 1.0 FROM d) + 5)
                    - SUM(t * (t - 1) * (2 * t + 5))) / 18.0 AS v
            FROM ties)
    SELECT (SELECT COUNT(*) FROM d) AS n_buckets,
           (SELECT CAST(SUM(n) AS BIGINT) FROM d) AS n_rows,
           s.s_stat,
           ROUND(CASE WHEN var.v <= 0 THEN 0.0
                      WHEN s.s_stat > 0 THEN (s.s_stat - 1) / SQRT(var.v)
                      WHEN s.s_stat < 0 THEN (s.s_stat + 1) / SQRT(var.v)
                      ELSE 0.0 END, 6) AS z_stat
    FROM s, var
"""


# ---------------------------------------------------------------------------
# Per-type value trend: grouped OLS of cents on days-since-reference
# ---------------------------------------------------------------------------

SLOPE_REF_DATE = "2024-01-01"


def q_value_slope(sf_dir: str):
    """Per-event-type OLS trend of value over time: y = integer cents,
    x = whole days since SLOPE_REF_DATE — both exact ints below 2^53, so
    the six additive moments match the oracle bit-for-bit and only the
    rounded slope/intercept/r2 ratios are float (`ops/regress.py`;
    zero exchanges — per-batch grouped partials, driver combine over the
    bounded type domain)."""
    from ...ops.regress import linreg_by

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    ref = np.datetime64(SLOPE_REF_DATE, "D")

    def xy(batch: pa.Table) -> pa.Table:
        tsv = batch["ts"].to_numpy(zero_copy_only=False)
        days = (tsv.astype("datetime64[D]") - ref).astype(np.int64)
        cents = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "x": pa.array(days, type=pa.int64()),
                "y": pa.array(cents, type=pa.int64()),
            }
        )

    out = linreg_by(
        ev.map_batches(xy, batch_format="pyarrow"), ["event_type"], "x", "y"
    )
    return out.sort_by("event_type")


QUERIES["value_slope"] = q_value_slope
ORACLE_SQL["value_slope"] = f"""
    WITH m AS (SELECT event_type,
                      CAST(COUNT(*) AS DOUBLE) AS n,
                      SUM(CAST(DATEDIFF('day', DATE '{SLOPE_REF_DATE}',
                                        CAST(ts AS DATE)) AS DOUBLE)) AS sx,
                      SUM(CAST(CAST(ROUND(value * 100) AS BIGINT) AS DOUBLE))
                          AS sy,
                      SUM(CAST(DATEDIFF('day', DATE '{SLOPE_REF_DATE}',
                                        CAST(ts AS DATE)) AS DOUBLE)
                          * CAST(DATEDIFF('day', DATE '{SLOPE_REF_DATE}',
                                          CAST(ts AS DATE)) AS DOUBLE)) AS sxx,
                      SUM(CAST(CAST(ROUND(value * 100) AS BIGINT) AS DOUBLE)
                          * CAST(CAST(ROUND(value * 100) AS BIGINT) AS DOUBLE))
                          AS syy,
                      SUM(CAST(DATEDIFF('day', DATE '{SLOPE_REF_DATE}',
                                        CAST(ts AS DATE)) AS DOUBLE)
                          * CAST(CAST(ROUND(value * 100) AS BIGINT) AS DOUBLE))
                          AS sxy
               FROM events GROUP BY event_type)
    SELECT event_type, CAST(n AS BIGINT) AS n,
           ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
           ROUND((sy - (n * sxy - sx * sy) / (n * sxx - sx * sx) * sx) / n, 6)
               AS intercept,
           ROUND((n * sxy - sx * sy) * (n * sxy - sx * sy)
                 / ((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS r2
    FROM m
    ORDER BY event_type
"""


def q_value_outliers(sf_dir: str):
    """Robust per-type outlier scan: events whose value fails the
    modified-z test against their type's exact median/MAD.  Order stats
    come from a bounded (type x cent-domain) histogram — one small
    exchange — and the threshold 0.6745|x-med|/MAD > 3.5 is the pure
    integer predicate 6745|x-med| > 35000 MAD on both engines
    (`ops/robust.py`); the second pass streams and filters vectorized
    with the per-type stats broadcast once."""
    from ...ops.robust import mad_outliers

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "v": pa.array(
                    np.rint(
                        batch["value"].to_numpy(zero_copy_only=False) * 100
                    ).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    return mad_outliers(
        ev.map_batches(cents, batch_format="pyarrow"),
        "event_type", "v", ["event_id", "event_type"],
    )


QUERIES["value_outliers"] = q_value_outliers
ORACLE_SQL["value_outliers"] = """
    WITH c AS (SELECT event_id, event_type,
                      CAST(ROUND(value * 100) AS BIGINT) AS v
               FROM events),
    m AS (SELECT event_type, quantile_disc(v, 0.5) AS med
          FROM c GROUP BY 1),
    d AS (SELECT c.event_id, c.event_type, c.v,
                 ABS(c.v - m.med) AS dev
          FROM c, m WHERE c.event_type = m.event_type),
    md AS (SELECT event_type, quantile_disc(dev, 0.5) AS mad
           FROM d GROUP BY 1)
    SELECT d.event_id, d.event_type, d.v AS value_c,
           CAST(d.dev AS BIGINT) AS dev_c
    FROM d, md
    WHERE d.event_type = md.event_type AND 6745 * d.dev > 35000 * md.mad
    ORDER BY d.event_id
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


def q_type_trend(sf_dir: str):
    """Per-event-type Mann–Kendall daily-count trend: the bounded
    (type x day) table folds through one calendar-bounded groupby and
    each type's exact-integer S plus tie-corrected Z computes on the
    driver (`ops/trend.grouped_daily_trend`)."""
    from ...ops.trend import grouped_daily_trend

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    return grouped_daily_trend(ev, "event_type", "ts")


QUERIES["type_trend"] = q_type_trend
ORACLE_SQL["type_trend"] = """
    WITH d AS (SELECT event_type, CAST(ts AS DATE) AS day, COUNT(*) AS n
               FROM events GROUP BY 1, 2),
    s AS (SELECT a.event_type,
                 CAST(SUM(SIGN(b.n - a.n)) AS BIGINT) AS s_stat
          FROM d a JOIN d b ON a.event_type = b.event_type AND b.day > a.day
          GROUP BY 1),
    sz AS (SELECT event_type, COUNT(*) * 1.0 AS nb,
                  CAST(SUM(n) AS BIGINT) AS n_rows
           FROM d GROUP BY 1),
    ties AS (SELECT event_type, n AS val, COUNT(*) * 1.0 AS t
             FROM d GROUP BY 1, 2),
    var AS (SELECT sz.event_type,
                   (sz.nb * (sz.nb - 1) * (2 * sz.nb + 5)
                    - SUM(ties.t * (ties.t - 1) * (2 * ties.t + 5))) / 18.0
                       AS v
            FROM sz JOIN ties ON ties.event_type = sz.event_type
            GROUP BY sz.event_type, sz.nb)
    SELECT sz.event_type,
           CAST(sz.nb AS BIGINT) AS n_buckets,
           sz.n_rows,
           s.s_stat,
           ROUND(CASE WHEN var.v <= 0 THEN 0.0
                      WHEN s.s_stat > 0 THEN (s.s_stat - 1) / SQRT(var.v)
                      WHEN s.s_stat < 0 THEN (s.s_stat + 1) / SQRT(var.v)
                      ELSE 0.0 END, 6) AS z_stat
    FROM sz JOIN s ON s.event_type = sz.event_type
            JOIN var ON var.event_type = sz.event_type
    ORDER BY sz.event_type
"""


# ---------------------------------------------------------------------------
# Per-type Theil–Sen robust daily-count trend
# ---------------------------------------------------------------------------


def q_type_theil_sen(sf_dir: str):
    """Per-event-type Theil–Sen robust slope/intercept of the daily
    count series — median of pairwise slopes (up to ~29% outlier days
    cannot move it, unlike value_slope's OLS).  Per-batch day partials,
    one calendar-bounded groupby, driver-side O(days²) fold per type
    (`ops/trend.grouped_theil_sen`)."""
    from ...ops.trend import grouped_theil_sen

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    return grouped_theil_sen(ev, "event_type", "ts")


QUERIES["type_theil_sen"] = q_type_theil_sen
ORACLE_SQL["type_theil_sen"] = """
    WITH d AS (SELECT event_type,
                      CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT)
                          AS x,
                      CAST(COUNT(*) AS BIGINT) AS y
               FROM events GROUP BY event_type, CAST(ts AS DATE)),
    sl AS (SELECT a.event_type,
                  MEDIAN((b.y - a.y) * 1.0 / (b.x - a.x)) AS slope
           FROM d a JOIN d b ON a.event_type = b.event_type AND b.x > a.x
           GROUP BY a.event_type),
    ic AS (SELECT d.event_type,
                  MEDIAN(d.y - sl.slope * d.x) AS icept
           FROM d JOIN sl USING (event_type) GROUP BY d.event_type),
    nb AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_buckets
           FROM d GROUP BY event_type)
    SELECT nb.event_type, nb.n_buckets,
           ROUND(sl.slope, 6) AS slope,
           ROUND(ic.icept, 6) AS intercept
    FROM nb JOIN sl USING (event_type) JOIN ic USING (event_type)
"""
