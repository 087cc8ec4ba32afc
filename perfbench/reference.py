"""Plain-loop, set-based reference of tiers 1-3, fusion and greedy selection.

It reads neighbor lists from the indexes and nothing else, recomputes every
selection step from scratch, and shares no code with the library's scoring
path. It is used where ``tierank.oracles.oracle_greedy_select`` cannot go:
fused unions larger than 50 nodes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_NO_RANK = 1 << 40


def _nbrs(index, item: int, k: int) -> list[int]:
    return [int(i) for i in index.neighbor_ids(item, k)]


def tier_weights(index, query: int, k1: int, k2: int) -> tuple[list[int], dict, dict]:
    """(candidates, tier-1 Jaccard, tier-3 count) for one query on one channel."""
    cand = _nbrs(index, query, k1)
    cand_set = set(cand)
    jac, support = {}, set()
    for x in cand:
        row = set(_nbrs(index, x, k2))
        inter = len(row & cand_set)
        jac[x] = Fraction(inter, len(row) + len(cand_set) - inter)
        if inter > 0:
            support.add(x)
    t3 = {x: len(set(_nbrs(index, x, k2)) & support) for x in cand}
    return cand, jac, t3


def single_channel(index, query: int, k1: int, k2: int) -> list[tuple[int, float]]:
    """Tiered re-ranking: query first, then by tier 3, tier 1, distance rank, id."""
    cand, jac, t3 = tier_weights(index, query, k1, k2)
    rest = [x for x in cand if x != query]
    rest.sort(key=lambda x: (-t3[x], -jac[x], cand.index(x), x))
    return [(x, float(t3[x])) for x in [query] + rest]


def pairwise(channels: Sequence[tuple], u: int, i: int) -> float:
    """Fused affinity of i to u as a temporary center; channels = (index, k1, k2, scale)."""
    total = 0.0
    for index, k1, k2, scale in channels:
        support = set(_nbrs(index, u, k1))
        if i in support:
            total += scale * len(set(_nbrs(index, i, k2)) & support)
    return total


def fused(channels: Sequence[tuple], query: int, k_final: int) -> list[tuple[int, float]]:
    """Fusion plus greedy max-sum selection; ``channels`` in channel-name order."""
    weight: dict[int, float] = {}
    rank: dict[int, int] = {}
    for index, k1, k2, scale in channels:
        cand, _, t3 = tier_weights(index, query, k1, k2)
        for pos, x in enumerate(cand):
            weight[x] = weight.get(x, 0.0) + scale * t3[x]
            rank[x] = min(rank.get(x, _NO_RANK), pos)

    memo: dict[tuple[int, int], float] = {}

    def affinity(u: int, i: int) -> float:
        if (u, i) not in memo:
            memo[(u, i)] = pairwise(channels, u, i)
        return memo[(u, i)]

    chosen, scores = [query], [0.0]
    pool = sorted(x for x in weight if x != query)
    while pool and len(chosen) < k_final + 1:
        best, best_key = None, None
        for x in pool:
            total = 0.0
            for center in chosen:
                total += affinity(center, x)
            key = (-total, -weight[x], rank[x], x)
            if best_key is None or key < best_key:
                best, best_key = x, key
        pool.remove(best)
        chosen.append(best)
        scores.append(-best_key[0])
    return list(zip(chosen, scores))
