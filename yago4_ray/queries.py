"""Driver-facing query implementations over the testdata tables and the
synthetic KG corpus.

Two families:
- SQL-matched queries (q*): each has a DuckDB oracle in
  __ray_entry__.oracle_sql(); value-hash-compared at sf0.01. Aggregates
  on monetary/float columns are computed in integer cents so Ray and
  DuckDB agree bit-exactly regardless of summation order.
- KG / dataops queries (kg_*, dedup_*, sim_*, text_*): rows-only checks
  (non-SQL-expressible); correctness is covered by the pytest golden
  oracle instead.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data import Dataset

from .joins import _concat, aggregate, fold

_CENTS = 100


def _strip_meta(batch):
    # the testdata parquet files carry pandas schema metadata (a dict);
    # Ray's shuffle schema-dedup can't hash it ("unhashable type: 'dict'"
    # in the logs) and keeps one schema copy per block — strip it at the
    # read (zero-copy, fuses with the read tasks)
    return batch.replace_schema_metadata(None) if batch.schema.metadata else batch


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> Dataset:
    # pass the file schema minus its pandas footer metadata explicitly:
    # a schema whose metadata holds a dict is UNHASHABLE, which defeats
    # Ray's schema dedup inside the read tasks themselves (one schema
    # copy per block before _strip_meta can run)
    path = os.path.join(sf_dir, f"{table}.parquet")
    import pyarrow.parquet as pq

    schema = pq.read_schema(path).remove_metadata()
    if columns:
        # Ray applies the given schema to the column-projected batches
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(
        path, columns=columns, schema=schema
    ).map_batches(_strip_meta, batch_format="pyarrow")


def _read_dim(sf_dir: str, table: str, columns: list[str]) -> pd.DataFrame:
    """Small dimension table read driver-side (pyarrow, column-pruned)
    for broadcast joins — a dim that fits in a broadcast dict does not
    need a Ray job to load; at 100 TB the fact side streams and the dim
    side is still a point read."""
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    ).to_pandas()


def _lowest_rows_pq(
    sf_dir: str, table: str, col: str, n: int, columns: list[str]
) -> pd.DataFrame:
    """The n smallest-`col` rows fetched by parquet row-group footer
    statistics — a driver-side metadata prune, not a Ray job: row groups
    are visited in ascending min(col) order and reading stops as soon as
    the next group's min exceeds the n-th smallest value seen. On a
    100-TB table this touches a handful of row groups; point query-row
    fetches should never cost a full corpus scan. Falls back to the
    distributed per-batch-nsmallest pass when stats are absent."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, f"{table}.parquet")
    pf = pq.ParquetFile(path)
    md = pf.metadata
    leaf = next(
        (
            i
            for i in range(md.row_group(0).num_columns)
            if md.row_group(0).column(i).path_in_schema == col
        ),
        None,
    )
    mins: list[tuple] = []
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(leaf).statistics if leaf is not None else None
        if st is None or not st.has_min_max:
            return _lowest_rows(
                _read(sf_dir, table, columns), [(col, "ascending")], n
            ).to_pandas()
        mins.append((st.min, rg))
    mins.sort()
    frames: list[pd.DataFrame] = []
    got = 0
    for lo, rg in mins:
        if got >= n:
            nth = pd.concat(frames)[col].nsmallest(n).iloc[-1]
            if lo > nth:
                break
        frames.append(pf.read_row_group(rg, columns=columns).to_pandas())
        got += len(frames[-1])
    return pd.concat(frames).nsmallest(n, col).reset_index(drop=True)


def _arrow_blocks(ds: Dataset) -> list[pa.Table]:
    """`ds`'s blocks on the driver, in one execution (a lazy Dataset's
    `to_arrow_refs` first runs a `limit(1)` job for its schema)."""
    return ray.get(ds.materialize().to_arrow_refs())


def _lowest_rows(
    ds: Dataset, sort_keys: list[tuple[str, str]], n: int
) -> pa.Table:
    """The first n rows of `ds` in `sort_keys` order (Arrow `sort_by`
    keys: (column, "ascending" | "descending") pairs), by a per-block
    Arrow top-n + a tiny driver merge — a global
    `ds.sort(...).limit(n)` is an all-to-all shuffle of the whole table
    for n rows. The sort is stable, so ties keep block order."""

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by(sort_keys).slice(0, n)

    return top(_concat(_arrow_blocks(ds.map_batches(top, batch_format="pyarrow"))))


# ---------------------------------------------------------------------------
# SQL-matched queries
# ---------------------------------------------------------------------------

def _partial_agg(ds, keys, aggs):
    """Decomposable aggregate as per-batch Arrow combiners + one tiny
    driver-side final combine (the brief's canonical pre-aggregation:
    at 1-25 groups a shuffle pays its tasks to move kilobytes).
    `aggs` is `joins.fold`'s spec (output column -> (input column, fn),
    fn in {sum, min, max, count}); no key is one global row. Partials
    are (num_blocks x groups) rows, re-folded by the same Arrow kernel
    (sum of counts, min of mins, ...). Returns a (tiny, materialized)
    Dataset so callers compose unchanged."""
    parts = _arrow_blocks(
        ds.map_batches(lambda t: fold(t, keys, aggs), batch_format="pyarrow")
    )
    # materialize(): marks the plan executed without running it, so a
    # consumer reads the block instead of starting an Input execution
    return ray.data.from_arrow(
        fold(_concat(parts), keys, aggs, refold=True)
    ).materialize()


def q1_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style pricing summary; money in integer cents."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-01"))))
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], _CENTS)), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], _CENTS)), pa.int64())
        qty = pc.cast(t["l_quantity"], pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": qty,
            "price_cents": price_c,
            "disc_cents": disc_c,
        })

    return _partial_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_price_cents": ("price_cents", "sum"),
            "sum_disc_cents": ("disc_cents", "sum"),
            "n_rows": (None, "count"),
        },
    )


def q2_orders_by_status(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderstatus": t["o_orderstatus"],
            "price_cents": pc.cast(
                pc.round(pc.multiply(t["o_totalprice"], _CENTS)), pa.int64()
            ),
        })

    return _partial_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["o_orderstatus"],
        {
            "n_orders": (None, "count"),
            "sum_price_cents": ("price_cents", "sum"),
            "min_price_cents": ("price_cents", "min"),
            "max_price_cents": ("price_cents", "max"),
        },
    )


def q3_revenue_by_nation(sf_dir: str):
    """customer ⨝ orders ⨝ nation → order count + revenue per nation.
    Small dims (customer, nation) broadcast; the big side streams."""
    import ray

    customers = _read_dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nations = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust_nation = dict(zip(customers["c_custkey"], customers["c_nationkey"]))
    nation_name = dict(zip(nations["n_nationkey"], nations["n_name"]))
    ref = ray.put((cust_nation, nation_name))
    from .joins import get_broadcast

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def join_batch(df: pd.DataFrame) -> pd.DataFrame:
        cn, nn = get_broadcast(ref)
        nk = df["o_custkey"].map(cn)
        out = pd.DataFrame({
            "n_name": nk.map(nn),
            "price_cents": (df["o_totalprice"] * _CENTS).round().astype("int64"),
        })
        return out[out["n_name"].notna()]

    return _partial_agg(
        orders.map_batches(join_batch, batch_format="pandas"),
        ["n_name"],
        {
            "n_orders": (None, "count"),
            "revenue_cents": ("price_cents", "sum"),
        },
    )


def q4_top_parts_by_quantity(sf_dir: str):
    """Top 10 parts by shipped quantity (groupby + sort + limit)."""
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t["l_partkey"],
            "qty": pc.cast(t["l_quantity"], pa.int64()),
        })

    # high-cardinality key → the exchange aggregate, then a per-block
    # top-10 and a driver merge instead of a sort shuffle
    sums = aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_partkey"], {"sum_qty": ("qty", "sum")},
    )
    return ray.data.from_arrow(_lowest_rows(
        sums, [("sum_qty", "descending"), ("l_partkey", "ascending")], 10
    )).materialize()


def q5_event_type_users(sf_dir: str):
    """Distinct users + row counts per event type (exact distinct)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    # inner level: rows per (type, user) over the exchange; outer: the
    # handful of types, a driver combine
    per_user = aggregate(
        ds, ["event_type", "user_id"], {"n": (None, "count")}
    )
    return _partial_agg(
        per_user, ["event_type"],
        {"n_users": (None, "count"), "n_events": ("n", "sum")},
    )


def q6_filtered_lineitems(sf_dir: str):
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1995-01-01"))),
                pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
            ),
            pc.less(t["l_quantity"], pa.scalar(25.0)),
        )
        t = t.filter(mask)
        revenue = pc.multiply(
            pc.multiply(t["l_extendedprice"], t["l_discount"]), 10000
        )
        return pa.table({
            "revenue_ten_thousandths": pc.cast(pc.round(revenue), pa.int64()),
        })

    return _partial_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        [],
        {
            "n_rows": (None, "count"),
            "revenue_sum": ("revenue_ten_thousandths", "sum"),
        },
    )


def q7_hourly_user_activity(sf_dir: str):
    """Events bucketed to epoch hours per user: stream-shaped workload
    as a batch groupby (ray_guide streaming-shaped pattern)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"],
            "epoch_hour": df["ts"].astype("int64") // (3600 * 1_000_000),
            "value_cents": (df["value"] * _CENTS).round().astype("int64"),
        })

    # the exchange aggregate's per-block combiner collapses ~100 event
    # rows per (user, hour) group to one before the shuffle (the same
    # decomposable-aggregate discipline as _partial_agg, kept
    # distributed here because the group count is high)
    return aggregate(
        ds.map_batches(prep, batch_format="pandas"),
        ["user_id", "epoch_hour"],
        {
            "n_events": (None, "count"),
            "sum_value_cents": ("value_cents", "sum"),
        },
    )


def q8_dedup_exact_docs(sf_dir: str):
    """Exact text dedup over documents (SQL-expressible flavor)."""
    from .dataops.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds, "text", "doc_id")


def q9_token_counts(sf_dir: str):
    """Whitespace token count per doc (empty text → 0)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        stripped = df["text"].astype(str).str.strip()
        n = stripped.str.split(r"\s+", regex=True).map(len)
        n = n.where(stripped != "", 0)
        return pd.DataFrame({"doc_id": df["doc_id"], "n_tokens": n.astype("int64")})

    return ds.map_batches(prep, batch_format="pandas")


def q10_embedding_stats(sf_dir: str):
    """Per-label embedding count + total dims (integer-only)."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "label": pc.cast(t["label"], pa.int64()),
            "dims": pc.cast(pc.list_value_length(t["embedding"]), pa.int64()),
        })

    return _partial_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["label"],
        {"n_vecs": (None, "count"), "total_dims": ("dims", "sum")},
    )


def q11_supplier_region(sf_dir: str):
    """lineitem ⨝ supplier ⨝ nation ⨝ region rollup (broadcast dims)."""
    import ray

    suppliers = _read_dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nations = _read_dim(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    regions = _read_dim(sf_dir, "region", ["r_regionkey", "r_name"])
    supp_nation = dict(zip(suppliers["s_suppkey"], suppliers["s_nationkey"]))
    nation_region = dict(zip(nations["n_nationkey"], nations["n_regionkey"]))
    region_name = dict(zip(regions["r_regionkey"], regions["r_name"]))
    ref = ray.put((supp_nation, nation_region, region_name))
    from .joins import get_broadcast

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])

    def join_batch(df: pd.DataFrame) -> pd.DataFrame:
        sn, nr, rn = get_broadcast(ref)
        region = df["l_suppkey"].map(sn).map(nr).map(rn)
        out = pd.DataFrame({
            "r_name": region,
            "price_cents": (df["l_extendedprice"] * _CENTS).round().astype("int64"),
        })
        return out[out["r_name"].notna()]

    return _partial_agg(
        ds.map_batches(join_batch, batch_format="pandas"),
        ["r_name"],
        {"n_items": (None, "count"), "sum_price_cents": ("price_cents", "sum")},
    )


def q12_language_share(sf_dir: str):
    """Docs + total chars per language tag (metadata column)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return _partial_agg(
        ds, ["lang"],
        {"n_docs": (None, "count"), "total_chars": ("n_chars", "sum")},
    )


def q13_session_windows(sf_dir: str):
    """Gap-based session windows over the events log (30-minute gap)."""
    from .dataops.windows import session_window

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return session_window(ds, "user_id", "ts", gap_s=1800)


def q14_daily_windows(sf_dir: str):
    """Tumbling daily windows per user."""
    from .dataops.windows import tumbling_window

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return tumbling_window(ds, "user_id", "ts", "value", window_s=86400)


def q15_asof_purchase_click(sf_dir: str):
    """Each purchase joined to the user's most recent prior click
    (backward as-of join; -1 when the user never clicked before)."""
    from .dataops.temporal import asof_join

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])

    def of_type(event_type: str, columns: list[str]):
        return lambda t: t.filter(
            pc.equal(t["event_type"], event_type)
        ).select(columns)

    purchases = events.map_batches(
        of_type("purchase", ["user_id", "ts", "value"]), batch_format="pyarrow"
    )
    clicks = events.map_batches(
        of_type("click", ["user_id", "ts"]), batch_format="pyarrow"
    )
    joined = asof_join(
        purchases, clicks, by="user_id", on="ts",
        left_columns=["value"], right_columns=[],
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        click = df["ts_right"].astype("datetime64[us]")
        click_us = click.astype("int64")
        click_us[click.isna()] = -1  # NaT sentinel → -1 (matches COALESCE)
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "purchase_ts_us": ts_us,
                "value_cents": (df["value"] * _CENTS).round().astype("int64"),
                "last_click_ts_us": click_us,
            }
        )

    return joined.map_batches(finalize, batch_format="pandas")


SQL_ORACLES = {
    "q1_lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
               COUNT(*) AS n_rows
        FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-01'
        GROUP BY l_returnflag, l_linestatus
    """,
    "q2_orders_by_status": """
        SELECT o_orderstatus,
               COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               MIN(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS min_price_cents,
               MAX(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS max_price_cents
        FROM orders GROUP BY o_orderstatus
    """,
    "q3_revenue_by_nation": """
        SELECT n.n_name AS n_name,
               COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "q4_top_parts_by_quantity": """
        SELECT l_partkey, CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
        FROM lineitem GROUP BY l_partkey
        ORDER BY sum_qty DESC, l_partkey ASC LIMIT 10
    """,
    "q5_event_type_users": """
        SELECT event_type,
               COUNT(DISTINCT user_id) AS n_users,
               COUNT(*) AS n_events
        FROM events GROUP BY event_type
    """,
    "q6_filtered_lineitems": """
        SELECT COUNT(*) AS n_rows,
               CAST(SUM(CAST(ROUND(l_extendedprice * l_discount * 10000) AS BIGINT)) AS BIGINT) AS revenue_sum
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1995-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND l_quantity < 25
    """,
    "q7_hourly_user_activity": """
        SELECT user_id,
               CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS epoch_hour,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY user_id, epoch_hour
    """,
    "q8_dedup_exact_docs": """
        SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dupes
        FROM documents GROUP BY text
    """,
    "q9_token_counts": """
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+'))
               END AS n_tokens
        FROM documents
    """,
    "q10_embedding_stats": """
        SELECT CAST(label AS BIGINT) AS label,
               COUNT(*) AS n_vecs,
               CAST(SUM(CAST(len(embedding) AS BIGINT)) AS BIGINT) AS total_dims
        FROM embeddings GROUP BY label
    """,
    "q11_supplier_region": """
        SELECT r.r_name AS r_name,
               COUNT(*) AS n_items,
               CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents
        FROM lineitem l
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        JOIN nation n ON s.s_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY r.r_name
    """,
    "q12_language_share": """
        SELECT lang, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars
        FROM documents GROUP BY lang
    """,
    "q13_session_windows": """
        WITH e AS (
            SELECT user_id, epoch_us(ts) AS ts_us FROM events
        ), marked AS (
            SELECT user_id, ts_us,
                   CASE WHEN LAG(ts_us) OVER w IS NULL
                          OR ts_us - LAG(ts_us) OVER w > 1800 * 1000000
                        THEN 1 ELSE 0 END AS is_new
            FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)
        ), numbered AS (
            SELECT user_id, ts_us,
                   SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts_us
                                     ROWS UNBOUNDED PRECEDING) AS session
            FROM marked
        )
        SELECT user_id,
               MIN(ts_us) AS session_start_us,
               MAX(ts_us) AS session_end_us,
               COUNT(*) AS n_events
        FROM numbered GROUP BY user_id, session
    """,
    "q14_daily_windows": """
        SELECT user_id,
               CAST(epoch_us(ts) // (86400 * CAST(1000000 AS BIGINT)) AS BIGINT) * 86400
                   AS window_start_s,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
                   AS sum_value_cents
        FROM events GROUP BY user_id, window_start_s
    """,
    "q15_asof_purchase_click": """
        SELECT p.user_id,
               epoch_us(p.ts) AS purchase_ts_us,
               CAST(ROUND(p.value * 100) AS BIGINT) AS value_cents,
               COALESCE(epoch_us(c.ts), -1) AS last_click_ts_us
        FROM (SELECT * FROM events WHERE event_type = 'purchase') p
        ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
          ON p.user_id = c.user_id AND p.ts >= c.ts
    """,
    "q16_customer_order_join": """
        SELECT c.c_mktsegment AS c_mktsegment,
               COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment
    """,
    "text_stats_exact": """
        SELECT doc_id,
               CAST(length(text) AS BIGINT) AS n_chars,
               CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
               CAST(len(regexp_extract_all(
                   text, '[A-Za-zÀ-ÿ]+|[0-9]+|[^\\sA-Za-zÀ-ÿ0-9]'
               )) AS BIGINT) AS n_bpe_tokens,
               CAST(len(regexp_extract_all(text, '[^A-Za-z0-9_\\s]')) AS BIGINT)
                   AS n_punct,
               CAST(len(list_filter(
                   regexp_extract_all(lower(text), '[a-z]+'),
                   t -> t IN ('the','and','of','to','a','in','is','was','that',
                              'for','it','with','as','his','on','be','at','by','an')
               )) AS BIGINT) AS n_stop_en
        FROM documents
    """,
    "sim_topk_brute": """
        WITH qs AS (
            SELECT vec_id, CAST(embedding AS DOUBLE[]) AS qe
            FROM embeddings ORDER BY vec_id LIMIT 4
        )
        SELECT qs.vec_id AS query_id, e.vec_id AS id,
               CAST(row_number() OVER (
                   PARTITION BY qs.vec_id
                   ORDER BY round(list_cosine_similarity(
                       qs.qe, CAST(e.embedding AS DOUBLE[])), 6) DESC,
                       e.vec_id ASC
               ) AS BIGINT) AS "rank"
        FROM qs, embeddings e
        QUALIFY "rank" <= 10
    """,
    # nprobe=n_centroids IVF is exact search: same ranking oracle
    "sim_topk_ivf_full": """
        WITH qs AS (
            SELECT vec_id, CAST(embedding AS DOUBLE[]) AS qe
            FROM embeddings ORDER BY vec_id LIMIT 4
        )
        SELECT qs.vec_id AS query_id, e.vec_id AS id,
               CAST(row_number() OVER (
                   PARTITION BY qs.vec_id
                   ORDER BY round(list_cosine_similarity(
                       qs.qe, CAST(e.embedding AS DOUBLE[])), 6) DESC,
                       e.vec_id ASC
               ) AS BIGINT) AS "rank"
        FROM qs, embeddings e
        QUALIFY "rank" <= 10
    """,
    "dedup_embedding_pairs": """
        WITH planted AS (
            SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
            UNION ALL
            SELECT vec_id + 1000000000 AS vec_id,
                   list_transform(CAST(embedding AS DOUBLE[]), x -> x * 1.01) AS e
            FROM embeddings WHERE vec_id < 25
        )
        SELECT p1.vec_id AS a, p2.vec_id AS b
        FROM planted p1, planted p2
        WHERE p1.vec_id < p2.vec_id
          AND list_cosine_similarity(p1.e, p2.e) >= 0.95
    """,
    "dedup_ngram_exact_pairs": """
        WITH d AS (
          SELECT doc_id,
                 string_split(
                     trim(regexp_replace(lower(text), '\\s+', ' ', 'g')), ' '
                 ) w
          FROM documents
        ),
        idx AS (
          SELECT doc_id, w, unnest(range(1, greatest(len(w) - 2, 1) + 1)) i
          FROM d
        ),
        sh AS (SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') s FROM idx),
        cnt AS (SELECT doc_id, count(*) c FROM sh GROUP BY doc_id),
        common AS (
          SELECT a.doc_id a, b.doc_id b, count(*) m
          FROM sh a JOIN sh b USING (s)
          WHERE a.doc_id < b.doc_id GROUP BY 1, 2
        )
        SELECT common.a AS a, common.b AS b,
               CAST(m AS BIGINT) AS n_common,
               CAST(ca.c + cb.c - m AS BIGINT) AS n_union
        FROM common
        JOIN cnt ca ON ca.doc_id = common.a
        JOIN cnt cb ON cb.doc_id = common.b
        WHERE m * 2 >= (ca.c + cb.c - m)
    """,
    "dedup_embedding_exact_pairs": """
        WITH planted AS (
            SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
            UNION ALL
            SELECT vec_id + 1000000000,
                   list_transform(CAST(embedding AS DOUBLE[]), x -> x * 1.01)
            FROM embeddings WHERE vec_id < 25
        )
        SELECT a.vec_id AS a, b.vec_id AS b
        FROM planted a JOIN planted b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.e, b.e) >= 0.95
    """,
    # MinHash+LSH clusters against the EXACT ground truth they
    # approximate: char-5-shingle Jaccard >= 0.8 all-pairs (the same
    # normalized byte-shingle space as dataops.dedup.batch_shingle_hashes),
    # clustered by min-label over the undirected edge graph (recursive
    # reachability). Deterministic: the seeded LSH catches every >=0.8
    # pair on this corpus and the verify step is exact Jaccard, so the
    # approximate pipeline must EQUAL the exact clustering.
    "dedup_minhash_docs": r"""
        WITH RECURSIVE norm AS (
            SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS t
            FROM documents
        ),
        idx AS (
            SELECT doc_id, t,
                   unnest(generate_series(1, greatest(length(t) - 4, 1))) AS i
            FROM norm
        ),
        sh AS (
            SELECT DISTINCT doc_id, substr(t, CAST(i AS INTEGER), 5) AS s
            FROM idx
        ),
        cnt AS (SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id),
        common AS (
            SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS m
            FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
            GROUP BY 1, 2
        ),
        edges AS (
            SELECT cm.a, cm.b FROM common cm
            JOIN cnt ca ON ca.doc_id = cm.a
            JOIN cnt cb ON cb.doc_id = cm.b
            WHERE cm.m * 5 >= (ca.c + cb.c - cm.m) * 4
        ),
        bidir AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
        reach(n, r) AS (
            SELECT a, a FROM bidir
            UNION
            SELECT bd.b, reach.r FROM reach JOIN bidir bd ON bd.a = reach.n
        )
        SELECT n AS doc_id, CAST(min(r) AS BIGINT) AS cluster
        FROM reach GROUP BY n ORDER BY doc_id
    """,
}


# ---------------------------------------------------------------------------
# KG pipeline queries (rows-only checks; golden-tested in pytest)
# ---------------------------------------------------------------------------

_KG_CACHE: dict = {}


def _kg_scale(sf_dir: str) -> int:
    name = os.path.basename(os.path.normpath(sf_dir))
    return {"sf0.001": 600, "sf0.01": 2500, "sf0.1": 20000}.get(name, 600)


def kg_context(sf_dir: str):
    """Corpus + statement store + build state for this scale, cached per
    process (the driver calls several kg_* queries per run)."""
    n = _kg_scale(sf_dir)
    if n in _KG_CACHE:
        return _KG_CACHE[n]
    from .corpus import materialize_corpus
    from .sources import write_statement_store
    from .state import build_state

    corpus_dir = materialize_corpus(n_entities=n, seed=42)
    # store cache is keyed off the corpus dir name, which carries the
    # corpus format version — a corpus bump can never leave a stale store
    store = os.path.join(
        "/tmp/yago4_ray_cache", f"store_{os.path.basename(corpus_dir)}"
    )
    marker = os.path.join(store, "_COMPLETE")
    if not os.path.exists(marker):
        ds = ray.data.read_parquet(os.path.join(corpus_dir, "statements.parquet"))
        write_statement_store(ds, store)
        with open(marker, "w") as f:
            f.write("ok\n")
    state = build_state(store)
    _KG_CACHE[n] = (corpus_dir, store, state)
    return _KG_CACHE[n]


def _kg_facts_pair(sf_dir: str):
    """(facts, annotated) Datasets, cached per scale — they share one
    build_facts run (whose statement⨝statement join is materialized), so
    kg_facts and kg_annotated_facts don't rebuild the fact state twice."""
    key = ("facts_pair", _kg_scale(sf_dir))
    if key not in _KG_CACHE:
        from .build import build_facts

        _, store, state = kg_context(sf_dir)
        _KG_CACHE[key] = build_facts(store, state)
    return _KG_CACHE[key]


def kg_facts(sf_dir: str):
    return _kg_facts_pair(sf_dir)[0]


def kg_annotated_facts(sf_dir: str):
    return _kg_facts_pair(sf_dir)[1]


def kg_labels(sf_dir: str):
    from .build import build_labels

    _, store, state = kg_context(sf_dir)
    return build_labels(store, state)


def kg_types(sf_dir: str):
    from .build import build_full_types

    _, store, state = kg_context(sf_dir)
    return build_full_types(store, state)


def kg_same_as(sf_dir: str):
    from .build import build_same_as

    _, store, state = kg_context(sf_dir)
    return build_same_as(store, state)


def kg_extract(sf_dir: str):
    """Mention detection + entity linking over the interleaved docs."""
    import pyarrow.parquet as pq

    from .extract import extract_statements

    corpus_dir, _, _ = kg_context(sf_dir)
    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
    dictionary = pq.read_table(os.path.join(corpus_dir, "qid_dictionary.parquet"))
    statements, _ = extract_statements(docs, dictionary, concurrency=4)
    return statements


# ---------------------------------------------------------------------------
# Dedup / similarity / text queries (rows-only)
# ---------------------------------------------------------------------------

def dedup_minhash_docs(sf_dir: str):
    from .dataops.dedup import minhash_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_dedup(ds, "text", "doc_id", threshold=0.8)


def dedup_simhash_docs(sf_dir: str):
    from .dataops.dedup import simhash_dedup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_dedup_pairs(ds, "text", "doc_id")


def dedup_embedding_pairs(sf_dir: str):
    """Embedding near-dup detection. Random vectors are never near-dup,
    so the query plants deterministic perturbed copies of the first 25
    vectors (ids offset by 10^9) — the operator must recover exactly
    those planted pairs."""
    from .dataops.dedup import embedding_dedup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant_dupes(df: pd.DataFrame) -> pd.DataFrame:
        dupes = df[df["vec_id"] < 25].copy()
        if len(dupes):
            dupes["vec_id"] = dupes["vec_id"] + 1_000_000_000
            dupes["embedding"] = dupes["embedding"].map(
                lambda v: (np.asarray(v, dtype=np.float32) * 1.01).tolist()
            )
        return pd.concat([df, dupes], ignore_index=True)

    planted = ds.map_batches(plant_dupes, batch_format="pandas")
    out = embedding_dedup_pairs(planted, "embedding", "vec_id", threshold=0.95)
    # the ids are int64 already: only the cosine column goes
    return out.select_columns(["a", "b"])


def sim_topk_brute(sf_dir: str):
    """Exact cosine top-10 for the 4 lowest-id query vectors: float32
    corpus scan with a candidate margin, float64 + 6-dp re-rank of the
    tiny candidate set + id tie-break — reproducible against DuckDB's
    double-precision list_cosine_similarity oracle at half the scan
    memory traffic. Query rows come from a parquet footer-stats prune,
    not a corpus pass."""
    from .dataops.similarity import brute_force_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _lowest_rows_pq(
        sf_dir, "embeddings", "vec_id", 4, ["vec_id", "embedding"]
    )
    queries = np.stack(
        [np.asarray(v, dtype=np.float64) for v in qdf["embedding"]]
    )
    top = brute_force_topk(ds, queries, k=10, round_decimals=6, rerank=True)
    out = pd.DataFrame(
        {
            "query_id": top["query_idx"].map(
                dict(enumerate(qdf["vec_id"]))
            ).astype("int64"),
            "id": top["id"].astype("int64"),
            "rank": (top["rank"] + 1).astype("int64"),
        }
    )
    return out


def sim_topk_ivf(sf_dir: str):
    from .dataops.similarity import ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = np.stack(
        [np.asarray(r["embedding"], dtype=np.float32) for r in ds.take(4)]
    )
    top = ivf_topk(ds, queries, k=10, n_centroids=16, nprobe=4)
    return top[["query_idx", "rank", "id"]]


def sim_topk_ivf_full(sf_dir: str):
    """IVF with nprobe = n_centroids (no list pruned) degenerates to
    exact search — the oracle-gated face of the IVF code path: same
    float64 + 6-dp + id tie-break treatment as sim_topk_brute, checked
    against the identical DuckDB ranking. Pruned-recall behaviour is
    covered by tests/test_dataops (recall vs exact)."""
    from .dataops.similarity import ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _lowest_rows_pq(
        sf_dir, "embeddings", "vec_id", 4, ["vec_id", "embedding"]
    )
    queries = np.stack(
        [np.asarray(v, dtype=np.float64) for v in qdf["embedding"]]
    )
    top = ivf_topk(
        ds, queries, k=10, n_centroids=16, nprobe=16,
        dtype=np.float64, round_decimals=6,
    )
    return pd.DataFrame(
        {
            "query_id": top["query_idx"].map(
                dict(enumerate(qdf["vec_id"]))
            ).astype("int64"),
            "id": top["id"].astype("int64"),
            "rank": (top["rank"] + 1).astype("int64"),
        }
    )


def text_stats_docs(sf_dir: str):
    from .dataops.textstats import text_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return text_stats(ds, "text").select_columns(
        ["doc_id", "n_tokens", "n_bpe_tokens", "lang_pred", "quality"]
    )


_STOP_EN = ("the", "and", "of", "to", "a", "in", "is", "was", "that", "for",
            "it", "with", "as", "his", "on", "be", "at", "by", "an")


def text_stats_exact(sf_dir: str):
    """Integer text-analysis stats chosen to be bit-exactly
    SQL-expressible (the oracled face of the text_stats family):
    chars, whitespace tokens, BPE-ish subword tokens, punctuation count,
    English-stopword count — all vectorized pandas str kernels."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    stop_set = set(_STOP_EN)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype(str)
        words = texts.str.lower().str.findall(r"[a-z]+")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars": texts.str.len().astype("int64"),
                "n_tokens": texts.str.count(r"\S+").astype("int64"),
                "n_bpe_tokens": texts.str.count(
                    r"[A-Za-zÀ-ÿ]+|[0-9]+|[^\sA-Za-zÀ-ÿ0-9]"
                ).astype("int64"),
                "n_punct": texts.str.count(r"[^A-Za-z0-9_\s]").astype("int64"),
                "n_stop_en": words.map(
                    lambda ws: sum(w in stop_set for w in ws)
                ).astype("int64"),
            }
        )

    return ds.map_batches(prep, batch_format="pandas")


def dedup_embedding_exact_pairs(sf_dir: str):
    """EXACT all-pairs cosine ≥ 0.95 over the planted-dupe embedding set
    (float64 broadcast-matmul baseline; the LSH variant is the scale
    path). SQL-oracled via DuckDB list_cosine_similarity."""
    from .dataops.similarity import brute_force_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant_dupes(df: pd.DataFrame) -> pd.DataFrame:
        dupes = df[df["vec_id"] < 25].copy()
        if len(dupes):
            dupes["vec_id"] = dupes["vec_id"] + 1_000_000_000
            dupes["embedding"] = dupes["embedding"].map(
                lambda v: (np.asarray(v, dtype=np.float64) * 1.01).tolist()
            )
        return pd.concat([df, dupes], ignore_index=True)

    planted = ds.map_batches(plant_dupes, batch_format="pandas")
    return brute_force_pairs(planted, threshold=0.95)  # int64 ids


def dedup_ngram_exact_pairs(sf_dir: str):
    """EXACT all-pairs word-3-gram Jaccard ≥ 1/2 over documents, via the
    distributed shingle inverted index (dataops.dedup.ngram_jaccard_pairs)
    — the exactly-verifiable measure MinHash approximates. Output is the
    integer (n_common, n_union) pair, so the DuckDB oracle hash-matches
    with no float tolerance."""
    from .dataops.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", n=3, threshold=(1, 2))


def q16_customer_order_join(sf_dir: str):
    """orders ⨝ customer via the task-based co-partitioned join
    (joins.copartition_join) → per-market-segment order count + revenue
    in integer cents."""
    from .joins import copartition_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda df: pd.DataFrame(
            {
                "custkey": df["o_custkey"],
                "price_cents": (df["o_totalprice"] * _CENTS)
                .round()
                .astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    customers = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda df: pd.DataFrame(
            {"custkey": df["c_custkey"], "c_mktsegment": df["c_mktsegment"]}
        ),
        batch_format="pandas",
    )
    joined = copartition_join(
        orders, customers, "custkey",
        ["custkey", "price_cents"], ["custkey", "c_mktsegment"],
        col_types={"price_cents": pa.int64()},
    )
    return aggregate(
        joined, ["c_mktsegment"],
        {"n_orders": (None, "count"), "revenue_cents": ("price_cents", "sum")},
    )


def media_decode_features(sf_dir: str):
    """Multimodal decode: REAL stdlib codecs (seeded PNG payloads per
    media ref → decode → grid-pool features + true dimensions); the
    `decoder="fake"` path remains for opaque/unsupported payloads."""
    from .dataops.multimodal import decode_media, media_table_from_refs
    from .extract import extract_statements
    import pyarrow.parquet as pq

    corpus_dir, _, _ = kg_context(sf_dir)
    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
    dictionary = pq.read_table(os.path.join(corpus_dir, "qid_dictionary.parquet"))
    _, media = extract_statements(docs, dictionary, concurrency=2)
    from .joins import distinct_rows

    refs = distinct_rows(media.select_columns(["media_ref"]), ["media_ref"])
    media_rows = refs.map_batches(
        lambda t: media_table_from_refs(
            sorted(t["media_ref"].to_pylist()), payload="real"
        ),
        batch_format="pyarrow",
    )
    return decode_media(media_rows, decoder="real").drop_columns(["features"])


def media_resize_decode(sf_dir: str):
    """Multimodal resize → decode chain: corpus media refs → seeded PNG
    payloads → nearest-neighbor resize to 32×24 (PPM re-encode, actor
    pool) → real decode; every output row must carry the resized
    dimensions."""
    from .dataops.multimodal import (
        decode_media,
        media_table_from_refs,
        resize_media,
    )
    from .extract import extract_statements
    import pyarrow.parquet as pq

    corpus_dir, _, _ = kg_context(sf_dir)
    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
    dictionary = pq.read_table(os.path.join(corpus_dir, "qid_dictionary.parquet"))
    _, media = extract_statements(docs, dictionary, concurrency=2)
    from .joins import distinct_rows

    refs = distinct_rows(media.select_columns(["media_ref"]), ["media_ref"])
    media_rows = refs.map_batches(
        lambda t: media_table_from_refs(
            sorted(t["media_ref"].to_pylist()), payload="real"
        ),
        batch_format="pyarrow",
    )
    resized = resize_media(media_rows, width=32, height=24)
    return decode_media(resized, decoder="real").drop_columns(["features"])


def media_video_frames(sf_dir: str):
    """Video frame-sample → decode chain: corpus media refs → seeded
    MJPEG-AVI payloads (real RIFF container, one baseline JPEG per
    frame) → FrameSampler fans each video out to one image row per
    1 s-grid frame → real JPEG decode with grid-pool features. Output is
    per-frame (media_id#t<ms>), deterministic: 3 sampled frames per ref."""
    from .dataops.multimodal import (
        decode_media,
        media_table_from_refs,
        sample_frames,
    )
    from .extract import extract_statements
    import pyarrow.parquet as pq

    corpus_dir, _, _ = kg_context(sf_dir)
    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
    dictionary = pq.read_table(os.path.join(corpus_dir, "qid_dictionary.parquet"))
    _, media = extract_statements(docs, dictionary, concurrency=2)
    from .joins import distinct_rows

    refs = distinct_rows(media.select_columns(["media_ref"]), ["media_ref"])
    video_rows = refs.map_batches(
        lambda t: media_table_from_refs(
            sorted(t["media_ref"].to_pylist()), kind="video", payload="real"
        ),
        batch_format="pyarrow",
    )
    frames = sample_frames(video_rows, every_ms=500)
    return decode_media(frames, decoder="real").drop_columns(["features"])


QUERIES = {
    "q1_lineitem_agg": q1_lineitem_agg,
    "q2_orders_by_status": q2_orders_by_status,
    "q3_revenue_by_nation": q3_revenue_by_nation,
    "q4_top_parts_by_quantity": q4_top_parts_by_quantity,
    "q5_event_type_users": q5_event_type_users,
    "q6_filtered_lineitems": q6_filtered_lineitems,
    "q7_hourly_user_activity": q7_hourly_user_activity,
    "q8_dedup_exact_docs": q8_dedup_exact_docs,
    "q9_token_counts": q9_token_counts,
    "q10_embedding_stats": q10_embedding_stats,
    "q11_supplier_region": q11_supplier_region,
    "q12_language_share": q12_language_share,
    "q13_session_windows": q13_session_windows,
    "q14_daily_windows": q14_daily_windows,
    "q15_asof_purchase_click": q15_asof_purchase_click,
    "q16_customer_order_join": q16_customer_order_join,
    "kg_facts": kg_facts,
    "kg_annotated_facts": kg_annotated_facts,
    "kg_labels": kg_labels,
    "kg_types": kg_types,
    "kg_same_as": kg_same_as,
    "kg_extract": kg_extract,
    "dedup_minhash_docs": dedup_minhash_docs,
    "dedup_simhash_docs": dedup_simhash_docs,
    "dedup_embedding_pairs": dedup_embedding_pairs,
    "sim_topk_brute": sim_topk_brute,
    "sim_topk_ivf": sim_topk_ivf,
    "sim_topk_ivf_full": sim_topk_ivf_full,
    "text_stats_docs": text_stats_docs,
    "text_stats_exact": text_stats_exact,
    "dedup_embedding_exact_pairs": dedup_embedding_exact_pairs,
    "dedup_ngram_exact_pairs": dedup_ngram_exact_pairs,
    "media_decode_features": media_decode_features,
    "media_resize_decode": media_resize_decode,
    "media_video_frames": media_video_frames,
}
