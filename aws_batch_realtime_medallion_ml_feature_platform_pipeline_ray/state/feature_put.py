"""S8: online feature-store batch put — validation, quarantine, bounded
retry and success/error accounting.

Re-expresses the reference's ``batch_put_records`` loop
(``feature_store/ingest_features.py:63-98``): it puts records in batches,
tallies per-batch success/error counts, never lets a failed batch abort
the run, and returns ``{"success": N, "errors": M}``. The SageMaker
online store rejects records whose record identifier or event time is
missing/invalid; the local analog validates those rules VECTORIZED over
each Arrow partition table instead of per record:

* ``conv_id`` non-null and non-empty (record identifier),
* ``ts`` non-null,
* ``event_time`` non-null and finite (the store's required event-time
  feature).

Rejected rows are quarantined under ``online/_errors/part=*/`` — the
reference only counts them; keeping the rows means a fixed producer can
re-put instead of re-deriving. Accepted rows are upserted into the
partition's online file, written atomically with
a bounded exponential-backoff retry (the local analog of the put API's
throttling retry); a partition whose write still fails after retries is
counted entirely as errors, mirroring ``error_count += len(batch)`` on a
batch exception (ingest_features.py:92-94).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import fsio as F
from . import manifest as M

# injectable for tests (flaky-writer / no-sleep)
_write_table = M.atomic_write_table


def _no_sleep_backoff(attempt: int) -> float:
    return 0.05 * (2**attempt)


def validate_online(tbl: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Split a candidate online table into (accepted, rejected) by the
    store's record rules. Pure vectorized Arrow kernels — no row loop."""
    ok = pc.and_(
        pc.and_(
            pc.is_valid(tbl["conv_id"]),
            pc.greater(pc.utf8_length(pc.coalesce(tbl["conv_id"], "")), 0),
        ),
        pc.is_valid(tbl["ts"]),
    )
    if "event_time" in tbl.column_names:
        et = tbl["event_time"]
        ok = pc.and_(ok, pc.and_(pc.is_valid(et), pc.is_finite(et)))
    mask = np.asarray(pc.fill_null(ok, False).combine_chunks())
    if mask.all():
        return tbl, tbl.slice(0, 0)
    keep = pa.array(mask)
    return tbl.filter(keep), tbl.filter(pc.invert(keep))


def _upsert(dest: str, rows: pa.Table) -> pa.Table:
    """The online file at ``dest`` with ``rows``' conversations replaced."""
    if not F.exists(dest):
        return rows
    old = F.read_table(dest)
    kept = old.filter(
        pc.invert(
            pc.is_in(
                old["conv_id"].combine_chunks(),
                value_set=rows["conv_id"].combine_chunks(),
            )
        )
    )
    return pa.concat_tables([kept, rows], promote_options="default")


def put_partition(
    tbl: pa.Table,
    online_root: str,
    key: str,
    *,
    run_id: str = "",
    max_retries: int = 2,
    sleep=None,
) -> dict:
    """Validate this run's rows ``tbl`` (each touched conversation's
    latest row) and upsert the accepted ones into one hash partition of
    the online table: an accepted row replaces its conversation's stored
    row, untouched conversations persist.

    Returns ``{"success": n, "errors": n}`` over ``tbl``'s rows like the
    reference's ``batch_put_records``. Runs inside the per-partition
    step, which stores the tallies in the partition's run record
    (``state.arrow``) and returns them to ``run_stream`` — no extra
    driver pass."""
    import time as _time

    sleep = sleep or _time.sleep
    ok_tbl, err_tbl = validate_online(tbl)

    if err_tbl.num_rows:
        err_name = f"run-{run_id}.parquet" if run_id else "data.parquet"
        # the quarantine write gets the same retry + no-abort treatment
        # as the main put: a transient failure here must not kill the
        # partition task (the rows are already counted as errors)
        for attempt in range(max_retries + 1):
            try:
                _write_table(
                    err_tbl,
                    F.join(online_root, "_errors", f"part={key}", err_name),
                )
                break
            except OSError:
                if attempt < max_retries:
                    sleep(_no_sleep_backoff(attempt))

    dest = F.join(online_root, f"part={key}", "data.parquet")
    n_ok = ok_tbl.num_rows
    if n_ok:
        merged = _upsert(dest, ok_tbl)
        last_exc = None
        for attempt in range(max_retries + 1):
            try:
                _write_table(merged, dest)
                last_exc = None
                break
            except OSError as exc:  # transient-put analog
                last_exc = exc
                if attempt < max_retries:
                    sleep(_no_sleep_backoff(attempt))
        if last_exc is not None:
            # whole batch becomes errors (ingest_features.py:92-94)
            return {"success": 0, "errors": tbl.num_rows}
    return {"success": n_ok, "errors": err_tbl.num_rows}

