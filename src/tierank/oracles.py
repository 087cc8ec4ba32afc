"""Independent brute-force reference implementations, used only for checking.

These deliberately avoid the production code paths: plain Python loops,
no incremental accumulation, no caching, no import from the code they
check (``fusion``, ``rerank``), and of the index only its stored rows
(:meth:`NeighborhoodIndex.neighbor_ids`) and the one-pair
:func:`~tierank.index.distance`, none of its kernels. They exist so that
tests and the scenario generators can compare two routes to the same
answer; :func:`oracle_rerank` is the reference every ranking is compared with.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

from .errors import SizeError
from .index import FeatureMatrix, Metric, NeighborhoodIndex, distance
from .pipeline import Channel
from .ranking import FinalRanking, RankedList

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
    return _pairwise(channels, u, i, _stored)


def _stored(ch: Channel, item: int, k: int) -> list[int]:
    """The first k ids of an item's stored row on channel ``ch``."""
    return ch.index.neighbor_ids(item, k).tolist()


def _pairwise(channels: Sequence[Channel], u: int, i: int, rows: Callable[[Channel, int, int], list[int]]) -> float:
    """:func:`oracle_pairwise` on the rows ``rows(channel, item, k)``, each an item's first k neighbor ids."""
    total = 0.0
    for ch in channels:
        support = set(rows(ch, u, ch.k1))
        if i not in support:
            continue
        shared = 0
        for nbr in rows(ch, i, ch.k2):
            if nbr in support:
                shared += 1
        total += ch.alpha * shared
    return total


def oracle_tier3(index: NeighborhoodIndex, query: int, k1: int, k2: int) -> dict[int, int]:
    """Tier-3 count of every candidate of ``query``, from plain sets.

    Tier 1 counts, for each of the query's k1 neighbors x, how many of x's
    k2 neighbors are also the query's k1 neighbors; tier 2 keeps the x
    whose count is positive. The tier-3 count of x is the number of x's k2
    neighbors in that tier-2 support.
    """
    return _tier3(lambda item, k: index.neighbor_ids(item, k).tolist(), query, k1, k2)


def _tier3(rows: Callable[[int, int], list[int]], query: int, k1: int, k2: int) -> dict[int, int]:
    """:func:`oracle_tier3` on the rows ``rows(item, k)``, each an item's first k neighbor ids."""
    members = set(rows(query, k1))
    gated = set()
    for x in members:
        shared = 0
        for nbr in rows(x, k2):
            if nbr in members:
                shared += 1
        if shared > 0:
            gated.add(x)
    counts = {}
    for x in rows(query, k1):
        counts[x] = 0
        for nbr in rows(x, k2):
            if nbr in gated:
                counts[x] += 1
    return counts


def oracle_greedy_select(fused, pairwise: Callable[[int, int], float], k: int) -> FinalRanking:
    """Step-by-step full re-enumeration of the greedy max-sum selection.

    ``fused`` is anything with the query's ``query``, its candidate
    ``nodes``, their fused weights ``edges`` and their distance ranks
    ``rank_of(item)``. At every step the summed affinity of every remaining
    candidate to the whole selected prefix is recomputed from scratch.
    Instances are capped at 50 nodes; this is a test oracle, not a
    production path.
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


def oracle_rerank(
    channels: Sequence[Channel],
    query: int,
    k_final: int | None = None,
    vector: Sequence[float] | None = None,
) -> RankedList:
    """The ranking of one query from the channels' plain neighbor lists: what the pipeline must return.

    ``query`` is a stored id or, with ``vector``, the name of an
    out-of-sample query at that vector: on every channel its row is itself,
    then its k - 1 nearest feature rows by :func:`brute_force_knn`, and no
    index is changed. On one channel the list is the query's k1 candidates,
    the query first, then by tier-3 count down, then by distance rank, each
    scored by its count; ``k_final`` is not read. On two or more, every
    candidate of any channel gets a fused weight, alpha times its tier-3
    count added in channel-name order, and a distance rank, its lowest
    place in the query's rows; :func:`oracle_greedy_select` then picks
    ``k_final`` of them (by default the largest k1).
    """
    own = {}
    if vector is not None:
        for ch in channels:
            nearest = brute_force_knn(ch.features, vector, ch.index.k - 1, ch.index.metric)
            own[ch.name] = [query] + [item for item, _ in nearest]

    def rows(ch: Channel, item: int, k: int) -> list[int]:
        return own[ch.name][:k] if ch.name in own and item == query else _stored(ch, item, k)

    by_name = sorted(channels, key=lambda ch: ch.name)
    counts = [_tier3(lambda item, k: rows(ch, item, k), query, ch.k1, ch.k2) for ch in by_name]
    if len(channels) == 1:
        ch, count = by_name[0], counts[0]
        order = rows(ch, query, ch.k1)
        rest = sorted((x for x in order if x != query), key=lambda x: (-count[x], order.index(x)))
        entries = tuple((x, float(count[x])) for x in [query, *rest])
        return RankedList(query=query, entries=entries, tier="3", channel=ch.index.channel_name)
    edges, rank = {}, {}
    for ch, count in zip(by_name, counts):
        for item, c in count.items():
            edges[item] = edges.get(item, 0.0) + ch.alpha * c
        for pos, item in enumerate(rows(ch, query, ch.k1)):
            rank[item] = min(rank.get(item, pos), pos)
    fused = SimpleNamespace(query=query, nodes=frozenset(edges), edges=edges, rank_of=rank.__getitem__)
    k = max(ch.k1 for ch in channels) if k_final is None else k_final
    final = oracle_greedy_select(fused, lambda u, i: _pairwise(by_name, u, i, rows), k)
    return final.to_ranked_list(tier="mfr")
