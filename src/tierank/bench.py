"""Wall-clock benchmarking of the per-query re-ranking path.

Index construction is offline and excluded; what is timed is the online
step per query, :func:`rerank_query`: with several channels, the candidate
union of their neighbor rows, the fused affinity matrix and greedy
selection; with one, the tiered re-ranking of the query's row. Times are
per query in milliseconds, from warmed caches, over at least 100 samples:
their mean, median, 90th and 99th percentiles; and the untimed warm-up
pass, in which the channels' overlap and fused tables are built, as a whole.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import FeatureMatrix, Metric, build_index
from .pipeline import Channel, rerank_query


@dataclass(frozen=True)
class BenchResult:
    label: str
    n: int
    k: int
    m: int
    samples: int
    mean_ms: float
    median_ms: float
    p90_ms: float
    p99_ms: float
    warmup_ms: float

    def row(self) -> str:
        return (
            f"{self.label}\t{self.n}\t{self.m}\t{self.k}\t{self.mean_ms:.4f}\t{self.median_ms:.4f}\t"
            f"{self.samples}\t{self.p90_ms:.4f}\t{self.p99_ms:.4f}\t{self.warmup_ms:.4f}"
        )


def make_bench_collection(
    n: int,
    dim: int = 4,
    n_classes: int = 50,
    seed: int = 0,
    channel_name: str = "bench",
    noise: float = 0.6,
) -> FeatureMatrix:
    """Gaussian class blobs sized for timing runs."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(0.0, 1.0, size=(n_classes, dim))
    classes = rng.integers(0, n_classes, size=n)
    vectors = prototypes[classes] + rng.normal(0.0, noise, size=(n, dim))
    return FeatureMatrix(channel_name=channel_name, ids=tuple(range(n)), vectors=vectors)


def build_bench_channels(
    n: int,
    m: int,
    k: int,
    dim: int = 4,
    seed: int = 0,
    metric: Metric = Metric.L1,
) -> list[Channel]:
    """Build m independent synthetic channels, each indexed at k."""
    channels = []
    for c in range(m):
        features = make_bench_collection(n, dim=dim, seed=seed + 1000 * c, channel_name=f"bench{c}")
        index = build_index(features, k=k, metric=metric)
        channels.append(Channel(name=f"bench{c}", index=index, k1=k, k2=k, features=features))
    return channels


def bench_rerank(
    channels: Sequence[Channel],
    queries: Sequence[int],
    repetitions: int = 1,
    k_final: int | None = None,
    label: str = "bench",
) -> BenchResult:
    """Per-query wall time of the online rerank+fusion step.

    Runs one warmup pass over all queries, timed as a whole, then times
    each query `repetitions` times. Requires at least 100 timed samples.
    """
    samples = len(queries) * repetitions
    if samples < 100:
        raise ValueError(f"need >= 100 timed samples, got {samples}")
    start = time.perf_counter()
    for q in queries:
        rerank_query(channels, q, k_final=k_final)
    warmup_ms = (time.perf_counter() - start) * 1e3

    times_ms = []
    for _ in range(repetitions):
        for q in queries:
            start = time.perf_counter()
            rerank_query(channels, q, k_final=k_final)
            times_ms.append((time.perf_counter() - start) * 1e3)

    any_channel = channels[0]
    p90, p99 = np.percentile(times_ms, [90, 99]).tolist()
    return BenchResult(
        label=label,
        n=any_channel.index.n,
        k=max(ch.k1 for ch in channels),
        m=len(channels),
        samples=len(times_ms),
        mean_ms=statistics.fmean(times_ms),
        median_ms=statistics.median(times_ms),
        p90_ms=p90, p99_ms=p99, warmup_ms=warmup_ms,
    )


def restricted_channels(channels: Sequence[Channel], k: int, m: int) -> list[Channel]:
    """Reuse built indexes at a smaller k (neighbor lists are prefix-stable)."""
    picked = list(channels)[:m]
    return [
        Channel(name=ch.name, index=ch.index, k1=k, k2=k, alpha=ch.alpha, features=ch.features)
        for ch in picked
    ]
