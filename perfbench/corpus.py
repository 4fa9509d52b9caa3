"""Seeded benchmark inputs, generated in one process and cached per seed.

Every generated input is a pure function of ``(seed, nproc, toy)``: the
same seed always yields byte-identical files, so a cached copy under the
work directory is reused by later runs with that seed. The program under
test only ever sees the files written here.

Two input families:

* the *lake corpus* — bronze transcript turns from
  ``sources.transcripts.generate_transcripts`` (Zipf conversation sizes
  with capped mega-conversations, ~1 % redelivered duplicates carrying
  different text, ~2 % late turns, null-conv and empty-text rejects),
  written once as one bronze directory and once cut by ``ingest_ts``
  into ingest windows (one directory per window, like the reference's
  ``ingest_dt=`` landing zone);
* the *query tables* — the repository's fixed sf0.01 test tables
  (TPC-H-like star schema plus ``events``, ``documents`` and
  ``embeddings``; see ``TESTDATA.md``), kept under ``testdata/`` next to
  this file so the benchmark reads only inside its checkout. They do not
  depend on the seed, so their oracle digests are computed once per
  checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Turns per core: sized so that per-run fixed cost dominates a scheduled
# run (a few hundred turns per window) and a measured run holds more than
# one pass.
TURNS_PER_CPU = 6_000
# One daily build's worth of scheduled stream runs at the reference's
# default cadence: the stream job runs every 60 minutes and the dataset
# build once a day (SURVEY.md C6), so 24 windows; run_growth_ratio
# compares the first and the last quarter (six runs each).
N_WINDOWS = 24
# Conversations per generator shard; shards are drawn until the corpus
# can be filled.
SHARD_CONVS = 200
AVG_TURNS = 20
# The generator caps a conversation at AVG_TURNS * 200 turns. Capped
# (mega) conversations are rare but huge, so a corpus that took whatever
# the shards held would vary 2-3x in size between seeds; and the history
# a scheduled run re-reads grows with the length of the conversations it
# touches, so even a corpus of fixed size cost 25-30 % more or less CPU
# with the seed's draw of the Zipf tail. Instead every corpus has the same
# conversation-length profile (size_profile): a fixed share of its turns
# in mega-conversations of MEGA_TURNS turns (capped conversations, cut),
# the rest in ordinary conversations of fewer than ORDINARY_MAX turns
# whose lengths are drawn once from the generator's own law with
# PROFILE_SEED. The seed picks the generated conversations that fill
# those lengths (each cut to its length) and everything in them: ids,
# texts, roles, tools, gaps, start times, duplicates, late and null rows.
# A mega-conversation spans days of turns; the generator starts it at a
# random point of its 30-day range, so the number of ingest windows it
# makes heavy would vary by seed. Each is moved (ts and ingest_ts
# together) to start with the corpus's first turn instead.
MEGA_TURNS = AVG_TURNS * 100
MEGA_SHARE = 1 / 3
ORDINARY_MAX = MEGA_TURNS // 4
PROFILE_SEED = 20240101
TOY_SCALE = 0.05
TABLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata", "sf0.01")

GEN_KW = dict(
    avg_turns=AVG_TURNS,
    zipf_a=1.8,
    dup_frac=0.01,
    null_frac=0.005,
    empty_text_frac=0.005,
    late_frac=0.02,
)


def _mix(seed: int, *salt: int) -> int:
    """Independent 32-bit sub-seed for one generator call."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def size_profile(target_turns: int) -> list[int]:
    """Conversation lengths of every corpus of ``target_turns`` turns,
    longest first; independent of the seed."""
    n_mega = int(target_turns * MEGA_SHARE) // MEGA_TURNS
    sizes, room = [], target_turns - n_mega * MEGA_TURNS
    rng = np.random.default_rng(PROFILE_SEED)
    while room > 0:
        n = int(rng.zipf(GEN_KW["zipf_a"])) * (AVG_TURNS // 2)
        if n < ORDINARY_MAX:
            sizes.append(min(n, room))
            room -= sizes[-1]
    return [MEGA_TURNS] * n_mega + sorted(sizes, reverse=True)


def transcript_corpus(seed: int, target_turns: int) -> pa.Table:
    """Bronze turns (schema.BRONZE): conversations of the lengths
    ``size_profile(target_turns)`` gives (plus their duplicate rows) and
    the generator's share of null-conv rows."""
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
        generate_transcripts,
    )

    want = size_profile(target_turns)
    n_mega = int(target_turns * MEGA_SHARE) // MEGA_TURNS
    rng = np.random.default_rng(_mix(seed, 2))
    shards, shard = [], 0
    while True:
        shards.append(generate_transcripts(
            SHARD_CONVS,
            seed=_mix(seed, 1, shard),
            conv_id_offset=shard * SHARD_CONVS,
            **GEN_KW,
        ))
        shard += 1
        tbl = pa.concat_tables(shards).combine_chunks()
        lengths = tbl.filter(tbl["conv_id"].is_valid()).group_by("conv_id").aggregate(
            [("turn_idx", "max")]
        )
        ids = lengths["conv_id"].to_numpy(zero_copy_only=False)
        n = lengths["turn_idx_max"].to_numpy() + 1
        # longest generated conversation fills the longest wanted length,
        # ties in a seeded order
        order = np.lexsort((rng.permutation(len(n)), -n))
        if len(n) >= len(want) and (n[order[:len(want)]] >= want).all():
            break

    keep = list(ids[order[:len(want)]])
    cut = dict(zip(keep, want))
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    valid = np.asarray(tbl["conv_id"].is_valid())
    turn = tbl["turn_idx"].to_numpy()
    n_null = round(target_turns * GEN_KW["null_frac"])
    mask = np.array([turn[i] < cut.get(c, 0) for i, c in enumerate(conv)], dtype=bool) & valid
    mask |= ~valid & (np.cumsum(~valid) <= n_null)
    tbl = tbl.filter(pa.array(mask))

    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    cols = {c: tbl[c].cast(pa.int64()).to_numpy().copy() for c in ("ts", "ingest_ts")}
    start = cols["ts"][~np.isin(conv, np.asarray(keep[:n_mega], dtype=object))].min()
    for cid in keep[:n_mega]:
        rows = conv == cid
        delta = start - cols["ts"][rows].min()
        for v in cols.values():
            v[rows] += delta
    for c, v in cols.items():
        tbl = tbl.set_column(
            tbl.schema.get_field_index(c), c, pa.array(v).cast(pa.timestamp("us"))
        )
    return tbl.take(pa.array(rng.permutation(tbl.num_rows)))


def _write_parts(tbl: pa.Table, d: str, rows_per_file: int) -> None:
    os.makedirs(d, exist_ok=True)
    for i, start in enumerate(range(0, max(tbl.num_rows, 1), rows_per_file)):
        pq.write_table(
            tbl.slice(start, rows_per_file), os.path.join(d, f"part-{i:05d}.parquet")
        )


def split_windows(tbl: pa.Table, n: int) -> list[pa.Table]:
    """Cut by ``ingest_ts`` into ``n`` windows of equal turn counts; late
    turns (large ingest delay) fall into later windows than their
    conversation's on-time turns."""
    ing = np.asarray(tbl["ingest_ts"].combine_chunks().cast(pa.int64()))
    order = np.argsort(ing, kind="stable")
    return [tbl.take(pa.array(np.sort(c))) for c in np.array_split(order, n)]


class Inputs:
    """Cached inputs of one seed under ``root/<kind>-<seed>``."""

    def __init__(self, work: str, seed: int, nproc: int, toy: bool = False):
        self.work, self.seed, self.nproc, self.toy = work, seed, nproc, toy
        self.scale = nproc * (TOY_SCALE if toy else 1.0)

    def _dir(self, kind: str) -> str:
        tag = "toy" if self.toy else f"p{self.nproc}"
        return os.path.join(self.work, "cache", f"{kind}-{tag}-s{self.seed}")

    def _cached(self, kind: str, build) -> tuple[str, dict]:
        """Return ``(dir, meta)``; ``build(dir) -> meta`` runs on a miss.
        The marker is written last, so a killed build is rebuilt."""
        d = self._dir(kind)
        marker = os.path.join(d, "_complete.json")
        if not os.path.exists(marker):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            meta = build(d)
            with open(marker, "w") as f:
                json.dump(meta, f)
        with open(marker) as f:
            return d, json.load(f)

    def lake(self) -> tuple[str, dict]:
        """The corpus as one bronze dir (the oracle's input) and cut into
        ``N_WINDOWS`` ingest windows (the engine's input), with the
        oracle gold digest and the lookup keys."""
        target = int(TURNS_PER_CPU * self.scale)

        def build(d: str) -> dict:
            tbl = transcript_corpus(self.seed, target)
            _write_parts(tbl, os.path.join(d, "bronze"), 50_000)
            wins = split_windows(tbl, N_WINDOWS)
            for i, w in enumerate(wins):
                _write_parts(w, os.path.join(d, "windows", f"w{i:03d}"), 50_000)
            from . import oracle

            return {
                "turns": tbl.num_rows,
                "window_turns": [w.num_rows for w in wins],
                "conv_ids": oracle.sample_conv_ids(tbl, self.seed),
                "gold": oracle.gold_digest(os.path.join(d, "bronze")),
            }

        return self._cached(f"lake-v3-{target}-w{N_WINDOWS}", build)

    def warmup_lake(self) -> str:
        """A few hundred turns: enough to start every worker and import
        every stage, small enough that warm-up time is fixed cost."""

        def build(d: str) -> dict:
            tbl = transcript_corpus(self.seed, 400)
            _write_parts(tbl, os.path.join(d, "bronze"), 50_000)
            return {"turns": tbl.num_rows}

        return os.path.join(self._cached("warmup", build)[0], "bronze")


def query_digests(work: str, names: list[str]) -> tuple[str, dict]:
    """The query tables' directory and the oracle digest of each named
    query over them, computed once per checkout (the DuckDB twins of the
    clustering queries take a minute or more)."""
    from . import oracle

    tag = hashlib.sha1(" ".join(names).encode()).hexdigest()[:8]
    d = os.path.join(work, "cache", f"digests-{tag}")
    marker = os.path.join(d, "_complete.json")
    if not os.path.exists(marker):
        os.makedirs(d, exist_ok=True)
        tmp = marker + f".{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(oracle.query_digests(TABLES_DIR, names), f)
        os.replace(tmp, marker)
    with open(marker) as f:
        return TABLES_DIR, json.load(f)
