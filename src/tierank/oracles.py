"""Independent brute-force reference implementations, used only for checking.

These deliberately avoid the production code paths: plain Python loops,
no incremental accumulation, no caching. They exist so that tests can
compare two routes to the same answer.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SizeError
from .fusion import FusedGraph
from .index import FeatureMatrix, Metric, NeighborhoodIndex, distance
from .pipeline import Channel
from .ranking import FinalRanking
from .rerank import TIER3_LITERAL, TIER3_QUERY_ANCHORED

_ORACLE_LIMIT = 50


def brute_force_knn(
    features: FeatureMatrix,
    query_vector: Sequence[float],
    k: int,
    metric: Metric = Metric.L1,
) -> list[tuple[int, float]]:
    """Top-k by scanning every stored item one pair at a time."""
    scored = []
    for item, vec in zip(features.ids, features.vectors):
        scored.append((distance(query_vector, vec, metric), item))
    scored.sort()
    return [(item, d) for d, item in scored[: min(k, len(scored))]]


def brute_force_neighborhood(
    features: FeatureMatrix,
    item: int,
    k: int,
    metric: Metric = Metric.L1,
) -> list[tuple[int, float]]:
    """Self-inclusive neighbor list computed the slow way."""
    own = features.row(item)
    scored = []
    for other, vec in zip(features.ids, features.vectors):
        scored.append((distance(own, vec, metric), other))
    scored.sort()
    top = scored[: min(k, len(scored))]
    if all(other != item for _, other in top):
        top[-1] = (0.0, item)
        top.sort()
    rest = [(other, d) for d, other in top if other != item]
    return [(item, 0.0)] + rest


def oracle_pairwise(channels: Sequence[Channel], u: int, i: int) -> float:
    """Fused affinity of i to u as a temporary ranking center, from plain sets.

    Per channel, in the given order: when i is one of u's k1 neighbors, add
    alpha times the number of i's k2 neighbors that are also u's k1
    neighbors; otherwise add nothing.
    """
    total = 0.0
    for ch in channels:
        support = set(ch.index.neighbor_ids(u, ch.k1).tolist())
        if i not in support:
            continue
        shared = 0
        for nbr in ch.index.neighbor_ids(i, ch.k2).tolist():
            if nbr in support:
                shared += 1
        total += ch.alpha * shared
    return total


def oracle_tier3(index: NeighborhoodIndex, query: int, k1: int, k2: int, mode: str) -> dict[int, int]:
    """Tier-3 count of every candidate of ``query``, from plain sets.

    Tier 1 counts, for each of the center's k1 neighbors x, how many of x's
    k2 neighbors are also the center's k1 neighbors; tier 2 keeps the x
    whose count is positive. The query-anchored count of x is the number of
    x's k2 neighbors in the query's tier-2 support; the literal count is the
    number in x's own tier-2 support, with x as the center.
    """

    def support(center: int) -> set[int]:
        members = set(index.neighbor_ids(center, k1).tolist())
        gated = set()
        for x in members:
            shared = 0
            for nbr in index.neighbor_ids(x, k2).tolist():
                if nbr in members:
                    shared += 1
            if shared > 0:
                gated.add(x)
        return gated

    if mode not in (TIER3_QUERY_ANCHORED, TIER3_LITERAL):
        raise ValueError(f"unknown tier-3 mode {mode!r}")
    query_support = support(query)
    counts = {}
    for x in index.neighbor_ids(query, k1).tolist():
        gated = query_support if mode == TIER3_QUERY_ANCHORED else support(x)
        counts[x] = 0
        for nbr in index.neighbor_ids(x, k2).tolist():
            if nbr in gated:
                counts[x] += 1
    return counts


def oracle_greedy_select(
    fused: FusedGraph,
    pairwise: Callable[[int, int], float],
    k: int,
) -> FinalRanking:
    """Step-by-step full re-enumeration of the greedy max-sum selection.

    At every step the summed affinity of every remaining candidate to the
    whole selected prefix is recomputed from scratch. Instances are capped
    at 50 nodes; this is a test oracle, not a production path.
    """
    if len(fused.nodes) > _ORACLE_LIMIT:
        raise SizeError(f"oracle limited to {_ORACLE_LIMIT} nodes, got {len(fused.nodes)}")
    if k < 1:
        raise ValueError("k must be >= 1")

    query = fused.query
    chosen = [query]
    chosen_scores = [0.0]
    pool = [item for item in sorted(fused.nodes) if item != query]

    while pool and len(chosen) < k + 1:
        best_item = None
        best_key = None
        for item in pool:
            total = 0.0
            for center in chosen:
                total += pairwise(center, item)
            key = (
                -total,
                -fused.edges.get(item, 0.0),
                fused.rank_of(item),
                item,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_item = item
        assert best_item is not None and best_key is not None
        pool.remove(best_item)
        chosen.append(best_item)
        chosen_scores.append(-best_key[0])

    return FinalRanking(query=query, items=tuple(chosen), scores=tuple(chosen_scores))
