"""Byte-level pin of the fused gold kernel, without Ray.

``gold_features_partition`` and the salted plan (shard summaries, seed
scan, seeded ``gold_partition_phase_a``) run on seeded
``generate_transcripts`` tables (the salted path also with prefix rows
that carry ``n_chars`` in place of ``text``, as the stream's carried
window does), and ``gold_features_partition`` once more as the stream
extends conversations: earlier rows as text-free prefix rows whose
latest row per conversation seeds the session numbering; the SHA-256 of
each output's Arrow IPC stream is compared with a recorded digest.
Unlike the oracle's value hash this pins column order, types, null
masks and row order, so a refactor of the kernel that changes any of
them fails here.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray import schema as S
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
    latest_per_conv,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries import (
    EVENT_ROLES,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
    generate_transcripts,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.featurize import (
    N_CHARS_COL,
    PREFIX_COL,
    GoldConfig,
    gold_features_partition,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.keyed import (
    PART_COL,
)
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.salted import (
    SHARD_COL,
    _hot_key_rows,
    _seed_table,
    _shard_summaries,
    _tag_salted,
    gold_partition_phase_a,
)

CONFIGS = {
    "default": GoldConfig(),
    "no_dedup": GoldConfig(dedup=False),
    # the q_gold_features config
    "events": GoldConfig(
        compute_turn_idx=True,
        tiebreak_col="event_id",
        dedup=False,
        role_counts=EVENT_ROLES,
    ),
}


def _table(mean_gap_s: float = 4 * 3600.0) -> pa.Table:
    tbl = generate_transcripts(
        40, 30, seed=13, dup_frac=0.03, empty_text_frac=0.02,
        mean_gap_s=mean_gap_s,
    )
    rng = np.random.default_rng(13)
    event_id = rng.permutation(tbl.num_rows).astype(np.int64)
    return tbl.append_column("event_id", pa.array(event_id, pa.int64()))


def _digest(tbl: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    tbl = tbl.combine_chunks()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _textless_prefix(tagged: pa.Table) -> pa.Table:
    """Prefix rows as the stream carries them: ``n_chars`` set, ``text``
    null; real rows keep their text and a null ``n_chars``."""
    prefix = pc.equal(tagged["__prefix"], 1)
    text = tagged["text"].combine_chunks()
    n_chars = pc.if_else(prefix, pc.utf8_length(text), pa.scalar(None, pa.int32()))
    tagged = tagged.set_column(
        tagged.schema.get_field_index("text"), "text",
        pc.if_else(prefix, pa.scalar(None, pa.string()), text),
    )
    return tagged.append_column(N_CHARS_COL, n_chars)


def _salted(
    tbl: pa.Table, cfg: GoldConfig, hot_keys: pa.Array, textless: bool = False
) -> pa.Table:
    """The salted plan on one partition: tag (+prefix copies), the hot
    shards' summaries, the seed scan, the seeded kernel pass."""
    overlap = max(S.D7, cfg.gap_us)
    tagged = _tag_salted(tbl, "conv_id", 1, 1, hot_keys, overlap, overlap)
    if textless:
        tagged = _textless_prefix(tagged)
    seeds = _seed_table(_shard_summaries(_hot_key_rows(tagged, cfg), cfg))
    return gold_partition_phase_a(tagged.drop_columns([PART_COL]), cfg, seeds)


def _keys(tbl: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        tbl["conv_id"], tbl["turn_idx"].cast(pa.string()), "#"
    )


def _seeded(tbl: pa.Table, cfg: GoldConfig) -> tuple[pa.Table, pa.Table]:
    """The stream's extension of carried conversations, in one call: the
    rows before a cut as prefix rows with ``n_chars`` and a null ``text``,
    each conversation's latest one carrying the ``b_prior``/``trail_in``
    of its gold row, then the rows from the cut on. Returns the output
    and the one-pass gold of the later rows."""
    ts = tbl["ts"].combine_chunks()
    cut = pc.quantile(ts.cast(pa.int64()), 0.6, interpolation="lower")[0]
    cut = cut.cast(pa.int64()).cast(ts.type)
    early = tbl.filter(pc.less(ts, cut))
    later = tbl.filter(pc.greater_equal(ts, cut))
    last = latest_per_conv(gold_features_partition(early, cfg))
    at = pc.index_in(_keys(early), value_set=_keys(last))
    prefix = early.set_column(
        early.schema.get_field_index("text"), "text",
        pa.nulls(early.num_rows, pa.string()),
    )
    prefix = (
        prefix.append_column(N_CHARS_COL, pc.utf8_length(early["text"]))
        .append_column("b_prior", pc.take(pc.add(last["session_id"], 1), at))
        .append_column(
            "trail_in",
            pc.take(pc.add(last["session_turn_idx"].cast(pa.int64()), 1), at),
        )
        .append_column(PREFIX_COL, pa.array(np.ones(early.num_rows, np.int8)))
    )
    later = later.append_column(
        PREFIX_COL, pa.array(np.zeros(later.num_rows, np.int8))
    )
    got = gold_features_partition(
        pa.concat_tables([prefix, later], promote_options="default"), cfg
    )
    want = gold_features_partition(tbl, cfg)
    return got, want.filter(pc.greater_equal(want["ts"], cut))


def _all_convs(tbl: pa.Table) -> pa.Array:
    return pc.unique(tbl["conv_id"].combine_chunks())


# One digest per config: the salted plan reproduces the unsalted pass
# bit for bit, so every kernel path of a config must hash the same.
EXPECTED = {
    "default": "6e5d8024852eb58e39e47068e89b343ebc45398e1caa06017c960d3857283483",
    "no_dedup": "2fec94f9bac22fceefbe4fd03bf25b1aeffc7999e64f8292e0fe2b5c90df96d3",
    "events": "97d528fc3cf452d4381e96bec2ed36098d84402dec0fb275245ec53c1c2218bc",
}
# the stream's seeded extension emits only the later rows; it cannot
# derive turn_idx (events), which the stream never asks for
EXPECTED_SEEDED = {
    "default": "bf870495462197532e1dcc2f4dbc46321d365b06bee794ceebe6a3f79f6a351d",
    "no_dedup": "94369e1f13d8cccc0d32959c7069aabc867451b07bf94388b52ff20c2ac59faf",
}
# Two more tables, each pinned to its plain-pass digest: 2-day gaps (as
# test_salted's sparse corpus) leave many hot shards without prefix rows,
# which the lag context row serves; 10-minute gaps keep sessions open
# across shard boundaries, which trail_in continues.
MEAN_GAP_S = {"sparse": 86400.0 * 2, "short": 600.0}
EXPECTED_BY_TABLE = {
    "sparse": {
        "default": "ca25bfd0d6cc7bd79aae6b049600819c4fcb12745b1367356063b2f80846c080",
        "no_dedup": "a63d2fa88e928950a6cc8ba86531b62849f00892889c02f4fb7bae8348b62ce0",
        "events": "52947c0a61786619f54d17dfb904e2b923e4a6c138b1f716f52965ee3c982efb",
    },
    "short": {
        "default": "4bcdfd9a0bce32bd3f6070ad42b7dabb170dfea2ff4927b34c2bf8261e583b2b",
        "no_dedup": "85d46d116199aec7c55aa7f514fda227abe3ce632afd87cd2156b3d29e158914",
        "events": "1cf1e77eb04ee6c9f4f29b0f0ef7767f408e59602dd5cf03a52555866a7a8f92",
    },
}
CASES = [
    ("plain", "default"), ("plain", "no_dedup"), ("plain", "events"),
    ("phase_a", "default"), ("phase_a", "no_dedup"), ("phase_a", "events"),
    ("salted", "default"), ("salted", "no_dedup"), ("salted", "events"),
    # prefix rows with n_chars and a null text, as the stream carries them
    ("textless", "default"), ("textless", "no_dedup"), ("textless", "events"),
    # carried prefix rows whose latest row per conversation seeds sessions
    ("seeded", "default"), ("seeded", "no_dedup"),
    # "<table>_<kernel>": the kernels on the tables of MEAN_GAP_S
    ("sparse_plain", "default"), ("sparse_plain", "no_dedup"), ("sparse_plain", "events"),
    ("sparse_salted", "default"), ("sparse_salted", "no_dedup"),
    ("sparse_salted", "events"),
    ("sparse_textless", "default"), ("sparse_textless", "no_dedup"),
    ("sparse_textless", "events"),
    ("short_plain", "default"), ("short_plain", "no_dedup"), ("short_plain", "events"),
    ("short_salted", "default"), ("short_salted", "no_dedup"), ("short_salted", "events"),
]


@pytest.mark.parametrize("kernel,cfg_name", CASES)
def test_gold_kernel_bytes_pinned(kernel, cfg_name):
    tbl = _table()
    cfg = CONFIGS[cfg_name]
    expected = EXPECTED[cfg_name]
    name, _, rest = kernel.partition("_")
    if name in MEAN_GAP_S:
        tbl, kernel = _table(mean_gap_s=MEAN_GAP_S[name]), rest
        expected = EXPECTED_BY_TABLE[name][cfg_name]
    if kernel == "plain":
        out = gold_features_partition(tbl, cfg)
    elif kernel == "phase_a":
        out = _salted(tbl, cfg, pa.array([], pa.string()))
    elif kernel == "seeded":
        # 10-minute gaps: a session often stays open across the cut
        out, want = _seeded(_table(mean_gap_s=600.0), cfg)
        by_key = [(k, "ascending") for k in ("conv_id", "turn_idx")]
        assert out.sort_by(by_key).equals(want.sort_by(by_key))
        expected = EXPECTED_SEEDED[cfg_name]
    else:
        out = _salted(tbl, cfg, _all_convs(tbl), textless=kernel == "textless")
    assert out.num_rows > 0
    assert _digest(out) == expected


def test_salted_fixture_has_prefix_copies():
    """The all-hot tagging must produce multi-bucket shards with prefix
    rows, or the salted digests would not cover the prefix path."""
    tbl = _table()
    overlap = max(S.D7, S.SESSION_GAP_US)
    tagged = _tag_salted(tbl, "conv_id", 1, 1, _all_convs(tbl), overlap, overlap)
    assert pc.sum(tagged["__prefix"]).as_py() > 0
    textless = _textless_prefix(tagged)
    prefix = pc.equal(textless["__prefix"], 1)
    assert textless["text"].filter(prefix).null_count == pc.sum(prefix).as_py()
    assert textless[N_CHARS_COL].filter(pc.invert(prefix)).null_count == pc.sum(
        pc.invert(prefix)).as_py()
    per_conv = tagged.group_by("conv_id").aggregate([(SHARD_COL, "count_distinct")])
    assert pc.max(per_conv[f"{SHARD_COL}_count_distinct"]).as_py() > 1
