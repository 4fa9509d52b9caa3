"""Task-skew telemetry in run summaries (VERDICT r3 §next-8)."""

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.state.manifest import (
    summarize,
)


def test_skew_summary_fields():
    walls = [0.1] * 98 + [5.0, 5.0]  # hot-partition stragglers
    s = summarize([10] * len(walls), walls)
    assert s["task_wall_p50_s"] == 0.1
    assert s["task_wall_p99_s"] == 5.0
    assert s["task_wall_max_s"] == 5.0
    assert s["skew_p99_over_p50"] == 50.0


def test_skew_summary_uniform():
    s = summarize([10] * 8, [0.2] * 8)
    assert s["skew_p99_over_p50"] == 1.0


def test_run_stream_summary_carries_skew(ray_session, tmp_path):
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.pipelines.medallion import (
        run_stream,
    )
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.sources.transcripts import (
        generate_transcripts,
        write_bronze,
    )

    b = str(tmp_path / "bronze")
    write_bronze(generate_transcripts(n_convs=20, avg_turns=8, seed=3), b,
                 rows_per_file=1000)
    res = run_stream(b, str(tmp_path / "lake"), run_id="r1",
                     processed_at="2024-02-01T00:00:00", num_parts=4)
    for stage in ("silver", "gold"):
        for k in ("task_wall_p50_s", "task_wall_p99_s", "task_wall_max_s",
                  "skew_p99_over_p50"):
            assert k in res[stage], (stage, k)
