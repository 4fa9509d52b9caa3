"""Canonical Arrow schemas for the medallion layers (FIXTURES.md).

The reference infers bronze schema at read time (``spark_jobs/
silver_and_gold.py:53``) and fixes it only at the feature-group boundary
(``feature_store/register_feature_groups.py:84-97``). We pin explicit
``pyarrow.Schema`` objects at every layer and validate on ingest.
"""

from __future__ import annotations

import pyarrow as pa

# Bronze: raw transcript turns (input_hint schema) + arrival time for
# late-data / backfill handling (analog of the reference's Firehose
# ``ingest_dt=`` layout, infra/terraform/modules/kinesis_firehose/main.tf:109).
BRONZE = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("ingest_ts", pa.timestamp("us")),
    ]
)

# Silver: validated, deduped turns (reference silver_and_gold.py:45-79).
SILVER = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("processed_at", pa.string()),
        ("dt", pa.string()),
    ]
)

# Gold: per-turn feature vectors (reference silver_and_gold.py:82-133 plus
# north-rule lag/lead/session/per-role features; FIXTURES.md §3).
GOLD = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("text", pa.string()),
        ("ts", pa.timestamp("us")),
        ("dt", pa.string()),
        ("event_time", pa.float64()),
        ("turns_1h", pa.int64()),
        ("chars_1h", pa.float64()),
        ("tool_count_24h", pa.int64()),
        ("avg_chars_7d", pa.float64()),
        ("user_turns_1h", pa.int64()),
        ("assistant_turns_1h", pa.int64()),
        ("lag1_ts", pa.timestamp("us")),
        ("lead1_ts", pa.timestamp("us")),
        ("gap_s", pa.float64()),
        ("session_id", pa.int64()),
        ("session_turn_idx", pa.int32()),
    ]
)

# As-of join right side: per-conversation state (FIXTURES.md §4).
CONV_STATE = pa.schema(
    [
        ("conv_id", pa.string()),
        ("ts", pa.timestamp("us")),
        ("state_tag", pa.string()),
        ("state_val", pa.float64()),
    ]
)

US_PER_S = 1_000_000
H1 = 3_600 * US_PER_S
H24 = 24 * H1
D7 = 7 * H24
# the gold trailing windows: turns_1h/chars_1h/<role>_turns_1h over H1,
# tool_count_24h over H24, avg_chars_7d over D7
MAX_WINDOW_US = max(H1, H24, D7)
SESSION_GAP_S = 1_800
SESSION_GAP_US = SESSION_GAP_S * US_PER_S


def validate(table: pa.Table, schema: pa.Schema, where: str = "") -> pa.Table:
    """Assert required columns exist and cast to the canonical schema
    (reference ``scripts/transform_and_prepare_sample_data.py:38-49``)."""
    missing = [f.name for f in schema if f.name not in table.column_names]
    if missing:
        raise ValueError(f"{where}: missing required columns {missing}")
    return table.select(schema.names).cast(schema)
