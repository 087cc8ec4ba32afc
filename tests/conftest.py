"""Shared helpers for building small random instances."""

from __future__ import annotations

import numpy as np

from tierank.fusion import TieredPairwise, fuse_graphs
from tierank.index import FeatureMatrix, Metric, build_index
from tierank.pipeline import Channel
from tierank.rerank import tiered_graph


def random_features(rng, n, dim=4, channel="ch0", spread=1.0):
    vectors = rng.normal(0.0, spread, size=(n, dim))
    return FeatureMatrix(channel_name=channel, ids=tuple(range(n)), vectors=vectors)


def random_channels(rng, n, m, k, dim=4, metric=Metric.L1):
    channels = []
    for c in range(m):
        fm = random_features(rng, n, dim=dim, channel=f"ch{c}")
        index = build_index(fm, k=k, metric=metric)
        channels.append(Channel(name=f"ch{c}", index=index, k1=k, k2=k, features=fm))
    return channels


def fused_instance(rng, n, m, k, dim=4):
    """(channels, fused graph, pairwise) for a random query."""
    channels = random_channels(rng, n, m, k, dim=dim)
    query = int(rng.integers(0, n))
    graphs = [tiered_graph(ch.index, query, k1=ch.k1, k2=ch.k2)[1] for ch in channels]
    fused = fuse_graphs(graphs)
    pairwise = TieredPairwise(
        [(ch.index, ch.k1, ch.k2) for ch in channels],
        candidates=sorted(fused.nodes),
    )
    return channels, fused, pairwise


class FunctionPairwise:
    """A plain ``pairwise(u, i)`` function behind the candidate_ids/matrix interface."""

    def __init__(self, fn, fused):
        self.candidate_ids = tuple(sorted(fused.nodes))
        self._fn = fn

    def batch(self, u):
        return np.array([self._fn(u, i) for i in self.candidate_ids], dtype=np.float64)

    @property
    def matrix(self):
        return np.array([self.batch(u) for u in self.candidate_ids])
