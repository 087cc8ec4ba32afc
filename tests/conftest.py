"""Shared helpers for building small random instances, and the statistical fixtures."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from tierank.evaluation import GroundTruth
from tierank.fusion import TieredPairwise, fuse_graphs
from tierank.index import FeatureMatrix, Metric, NeighborhoodIndex, build_index, knn_candidates
from tierank.pipeline import Channel
from tierank.rerank import tiered_graph


@pytest.fixture
def table_builds(monkeypatch):
    """(channel name, k1, k2) of every overlap table built while the test runs."""
    builds = []
    build = NeighborhoodIndex._build_overlap_table

    def counting_build(self, k1, k2):
        builds.append((self.channel_name, k1, k2))
        return build(self, k1, k2)

    monkeypatch.setattr(NeighborhoodIndex, "_build_overlap_table", counting_build)
    return builds


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


def overlay_query(channels, vector, vid):
    """The channels with an out-of-sample query overlaid: its kNN row, led by ``vid``, through ``with_virtual``.

    The composition ``rerank_vector_query`` once ran, which the tests hold
    its rankings and errors to.
    """
    out = []
    for ch in channels:
        want = min(ch.index.k - 1, ch.features.n)
        ids, dists = knn_candidates(ch.features, vector, want, ch.index.metric) if want > 0 else ([], [])
        out.append(replace(ch, index=ch.index.with_virtual(vid, [vid, *ids], [0.0, *dists])))
    return out


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
        ids = self.candidate_ids = tuple(sorted(fused.nodes))
        self.matrix = np.array([[fn(u, i) for i in ids] for u in ids], dtype=np.float64)


# --- statistical fixtures ------------------------------------------------------


@dataclass(frozen=True)
class CorrelatedTrial:
    """A synthetic index whose neighbor slots are correlated draws.

    The query's candidate list and every candidate's own neighbor list fill
    each non-self slot from the query's candidate set with probability p,
    otherwise from fresh outside items. Both the share of in-class
    candidates and the normalized tier-3 weight then estimate the same
    underlying probability, which is what the expectation check exploits.
    """

    index: NeighborhoodIndex
    query: int
    members: tuple[int, ...]
    in_class: frozenset[int]
    k: int
    p: float


def gen_correlated_trial(rng: np.random.Generator, k: int, p: float) -> CorrelatedTrial:
    if k < 2:
        raise ValueError("k must be >= 2")
    query = 0
    members = tuple(range(1, k))
    next_outside = k

    n_in = int(rng.binomial(k - 1, p))
    in_members = rng.choice(len(members), size=n_in, replace=False) if n_in else []
    in_class = frozenset(members[int(i)] for i in in_members)

    rows = [[query, *members]]
    cknns = (query,) + members
    for member in members:
        n_linked = int(rng.binomial(k - 1, p))
        pool = [item for item in cknns if item != member]
        picks = rng.choice(len(pool), size=n_linked, replace=False) if n_linked else []
        linked = [pool[int(i)] for i in picks]
        outside = list(range(next_outside, next_outside + (k - 1 - n_linked)))
        next_outside += len(outside)
        rows.append([member, *linked, *outside])

    # rows in owner order: 0..k-1, then a self-led row for every outside id,
    # never read (no outside id is a candidate) but owed by every neighbor
    rows += [[item, *range(k - 1)] for item in range(k, next_outside)]
    table = np.asarray(rows, dtype=np.int64)
    dists = np.tile(np.arange(k, dtype=np.float64), (next_outside, 1))
    index = NeighborhoodIndex("correlated", k, Metric.L1, table[:, 0].copy(), table, dists)
    return CorrelatedTrial(
        index=index, query=query, members=members, in_class=in_class, k=k, p=p
    )


def gen_trend_channels(
    rng: np.random.Generator,
    n_classes: int = 8,
    class_size: int = 10,
    n_channels: int = 4,
    dim: int = 4,
    noise: float = 1.0,
) -> tuple[list[FeatureMatrix], GroundTruth]:
    """Independent equally-noisy channels over one labeled collection.

    Every channel draws its own class prototypes and its own per-item
    noise, so the channels carry independent evidence of equal quality.
    """
    n = n_classes * class_size
    labels = {item: item // class_size for item in range(n)}
    truth = GroundTruth(labels=labels)
    channels = []
    for c in range(n_channels):
        prototypes = rng.normal(0.0, 1.0, size=(n_classes, dim))
        vectors = np.empty((n, dim))
        for item in range(n):
            vectors[item] = prototypes[labels[item]] + rng.normal(0.0, noise, size=dim)
        channels.append(
            FeatureMatrix(channel_name=f"trend{c}", ids=tuple(range(n)), vectors=vectors)
        )
    return channels, truth
