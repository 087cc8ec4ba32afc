"""Sanity checks on the timing harness itself."""

from __future__ import annotations

import math

import pytest

from tierank.bench import bench_rerank, build_bench_channels, restricted_channels


def test_bench_requires_enough_samples():
    channels = build_bench_channels(n=200, m=1, k=4, dim=2, seed=0)
    with pytest.raises(ValueError):
        bench_rerank(channels, queries=[0, 1, 2], repetitions=1)


def test_bench_cost_grows_with_k():
    # wider neighborhoods mean strictly more online work per query
    channels = build_bench_channels(n=2000, m=2, k=50, dim=4, seed=3)
    queries = list(range(0, 2000, 19))[:100]
    narrow = bench_rerank(restricted_channels(channels, k=5, m=2), queries, 1, k_final=5)
    wide = bench_rerank(restricted_channels(channels, k=50, m=2), queries, 1, k_final=50)
    assert wide.median_ms > narrow.median_ms


def test_bench_reports_sample_count():
    channels = build_bench_channels(n=150, m=1, k=4, dim=2, seed=1)
    queries = list(range(60))
    result = bench_rerank(channels, queries, repetitions=2, k_final=4, label="tiny")
    assert result.samples == 120
    assert result.mean_ms > 0 and result.median_ms > 0
    assert result.row().startswith("tiny\t150\t1\t4\t")
    # p90, p99 and the warm-up pass come after the sample count, so the first seven columns keep their places
    fields = result.row().split("\t")
    assert len(fields) == 10 and fields[6] == "120"
    assert [float(f) for f in fields[7:]] == [round(v, 4) for v in (result.p90_ms, result.p99_ms, result.warmup_ms)]
    assert result.median_ms <= result.p90_ms <= result.p99_ms


def test_bench_reports_the_warm_up_pass_that_builds_the_fused_table():
    # the untimed warm-up pass, in which the first fused query builds the
    # channels' fused table, is the last column: finite and positive
    channels = build_bench_channels(n=300, m=2, k=6, dim=2, seed=2)
    result = bench_rerank(channels, list(range(100)), repetitions=1, k_final=6)
    assert math.isfinite(result.warmup_ms) and result.warmup_ms > 0
    assert float(result.row().split("\t")[-1]) == round(result.warmup_ms, 4)
    assert len(channels[0].index._fused) == 1
