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
re-put instead of re-deriving. The quarantine write gets a bounded
exponential-backoff retry (the local analog of the put API's throttling
retry) and never aborts the step.

The accepted rows need no write of their own: each conversation's online
row is its latest row in the partition's ``state.arrow``
(``pipelines/incremental.py``), committed with the state, and the
readers (``medallion.read_online``, ``lookup_online``) apply
:func:`validate_online` to it. Whether a row passes depends only on its
``conv_id`` (silver rejects a null ``ts``, and ``event_time`` is derived
from ``ts``), so validating on read accepts the same rows as validating
on put.
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
    latest row) for one hash partition and quarantine the rejected ones
    under ``online/_errors/part={key}/``.

    Returns ``{"success": n, "errors": n}`` over ``tbl``'s rows like the
    reference's ``batch_put_records``. Runs inside the per-partition
    step, which stores the tallies in the partition's run record
    (``state.arrow``) and returns them to ``run_stream`` — no extra
    driver pass."""
    import time as _time

    sleep = sleep or _time.sleep
    _ok, err_tbl = validate_online(tbl)

    if err_tbl.num_rows:
        err_name = f"run-{run_id}.parquet" if run_id else "data.parquet"
        # a transient failure here must not kill the partition task (the
        # rows are already counted as errors)
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
    return {"success": tbl.num_rows - err_tbl.num_rows, "errors": err_tbl.num_rows}
