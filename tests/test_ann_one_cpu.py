"""``stages.ann`` on a one-CPU cluster. Its actor pools must fit the
cluster: a pool larger than the CPU count never schedules its last actor
and the query waits forever. The query runs in a subprocess with its own
one-CPU Ray, bounded by a timeout, and its result is checked against the
oracle SQL."""

import os
import subprocess
import sys

import pyarrow.parquet as pq

from test_oracle_parity import SF_DIR, compare, oracle_run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries_ann import q_knn
import pyarrow as pa
import pyarrow.parquet as pq
pq.write_table(pa.Table.from_pandas(q_knn(sys.argv[1]).to_pandas(), preserve_index=False), sys.argv[2])
ray.shutdown()
"""


def test_knn_on_one_cpu_finishes_and_matches_oracle(tmp_path):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.queries_ann import (
        KNN_SQL,
    )

    out = str(tmp_path / "knn.parquet")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, SF_DIR, out],
        cwd=REPO, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    compare("q_knn", pq.read_table(out).to_pandas(), oracle_run(KNN_SQL))
