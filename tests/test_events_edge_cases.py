"""Event queries on inputs the sf tables never produce: a NULL event type
and more event types than a dense per-mask array can hold. Each output
must still equal its DuckDB twin."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries_r5a import (
    EVENTS_SINCE_PURCHASE_SQL,
    q_events_since_last_purchase,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries_r5b import (
    EVENTS_TYPE_JACCARD_SQL,
    q_events_type_user_jaccard,
)


def _write_events(tmp_path, user_id, event_type):
    n = len(user_id)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(
                pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(n) * 7, "s")
            ).cast(pa.timestamp("us")),
            "user_id": pa.array(user_id, pa.int64()),
            "event_type": pa.array(event_type, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    return str(tmp_path)


def _same(got, sql, sf_dir, key):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")
    want = con.execute(sql).df().sort_values(key, ignore_index=True)
    got = got.to_pandas().sort_values(key, ignore_index=True)
    assert len(got) == len(want)
    for c in want.columns:
        assert np.array_equal(got[c].to_numpy(), want[c].to_numpy()), c


def test_since_last_purchase_skips_null_event_type(ray_session, tmp_path):
    types = ["view", "purchase", None, "click", "purchase", None, "view"]
    sf = _write_events(tmp_path, [1, 1, 1, 1, 2, 2, 2], types)
    _same(q_events_since_last_purchase(sf), EVENTS_SINCE_PURCHASE_SQL, sf,
          ["event_id"])


def test_type_user_jaccard_with_forty_types(ray_session, tmp_path):
    rng = np.random.default_rng(5)
    n = 400
    types = [f"t{int(k):02d}" for k in rng.integers(0, 40, n)]
    sf = _write_events(tmp_path, rng.integers(0, 30, n), types)
    _same(q_events_type_user_jaccard(sf), EVENTS_TYPE_JACCARD_SQL, sf,
          ["type_a", "type_b"])
