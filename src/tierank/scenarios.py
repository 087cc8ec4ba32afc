"""Synthetic scenario generators with planted neighborhood relations.

Each generator lays out a small point cloud whose exact-KNN structure is
known in advance, applies a seeded jitter that is small enough to keep
every planted distance ordering intact, then rebuilds the index and
verifies every planted relation before returning, with plain sets over
the index rows, the oracles and the rankings themselves. A failed
verification raises ScenarioError rather than silently handing back a
broken fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .evaluation import GroundTruth
from .index import FeatureMatrix, Metric, NeighborhoodIndex, build_index
from .oracles import oracle_pairwise
from .pipeline import Channel, rerank_query
from .rerank import tiered_rerank

# ---------------------------------------------------------------------------
# Outlier-next-to-the-query scenario
#
# One elongated cluster A..I plus an outlier O sitting close to the query A,
# with two satellites O1, O2 that are close to O only. At list size 5 the
# planted neighbor sets give O the same first-tier overlap as honest cluster
# members (3/7), which is exactly the failure mode the tiered re-ranking is
# meant to fix: with a tight candidate-side neighborhood (k2=3) the outlier's
# own neighbors point away from A's candidate set and its third-tier count
# collapses below every cluster member's.
# ---------------------------------------------------------------------------

_OUTLIER_LABELS = {
    "A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "F": 5,
    "G": 6, "H": 7, "I": 8, "O": 9, "O1": 10, "O2": 11,
}

_OUTLIER_COORDS = {
    "A": (0.00, 0.00),
    "B": (1.40, 0.00),
    "C": (0.00, 1.50),
    "D": (-1.25, 0.70),
    "E": (3.05, 0.30),
    "F": (0.95, 1.85),
    "G": (0.85, 2.45),
    "H": (-0.55, 2.60),
    "I": (-2.60, 1.50),
    "O": (0.60, -1.05),
    "O1": (0.70, -2.15),
    "O2": (0.30, -2.15),
}

# smallest planted distance margin is 0.10; a per-coordinate jitter of
# 0.008 moves any L1 distance by at most 0.032 and cannot flip an ordering
_OUTLIER_JITTER = 0.008

_OUTLIER_K1 = 5
_OUTLIER_K2 = 3

_OUTLIER_TARGET_SETS = {
    "A": {"A", "B", "C", "O", "D"},
    "O": {"O", "O1", "O2", "A", "B"},
    "B": {"B", "A", "O", "E", "F"},
    "C": {"C", "F", "A", "H", "G"},
    "D": {"D", "A", "C", "I", "H"},
}

_OUTLIER_TARGET_PREFIXES = {
    "O": {"O", "O1", "O2"},
    "B": {"B", "A", "O"},
    "C": {"C", "F", "A"},
    "D": {"D", "A", "C"},
}

_OUTLIER_TARGET_JACCARD = {
    "O": (3, 7),
    "B": (3, 7),
    "C": (2, 8),
    "D": (3, 7),
}


@dataclass(frozen=True)
class OutlierScenario:
    features: FeatureMatrix
    truth: GroundTruth
    query: int
    k1: int
    k2: int
    ids: dict[str, int]
    manifest: dict


def _jittered_matrix(
    coords: dict[str, tuple[float, float]],
    labels: dict[str, int],
    rng: np.random.Generator,
    jitter: float,
    channel: str,
) -> FeatureMatrix:
    names = sorted(labels, key=labels.get)
    base = np.asarray([coords[n] for n in names], dtype=np.float64)
    base = base + rng.uniform(-jitter, jitter, size=base.shape)
    return FeatureMatrix(channel_name=channel, ids=tuple(labels[n] for n in names), vectors=base)


def _check_sets(
    index: NeighborhoodIndex, ids: dict[str, int], targets: dict[str, set[str]], k: int, what: str
) -> None:
    """Raise ScenarioError unless each named item's k-row holds exactly its target set."""
    for name, target in targets.items():
        got = frozenset(index.neighbor_ids(ids[name], k).tolist())
        want = frozenset(ids[n] for n in target)
        if got != want:
            raise ScenarioError(f"{what} for {name} is {got}, wanted {want}")


def gen_outlier_scenario(seed: int = 0) -> OutlierScenario:
    """Point cloud where an off-cluster item sits right next to the query."""
    rng = np.random.default_rng(seed)
    ids = dict(_OUTLIER_LABELS)
    features = _jittered_matrix(_OUTLIER_COORDS, ids, rng, _OUTLIER_JITTER, "plane")
    labels = {ids[name]: (1 if name.startswith("O") else 0) for name in ids}
    truth = GroundTruth(labels=labels)
    query = ids["A"]

    index = build_index(features, k=_OUTLIER_K1, metric=Metric.L1)

    _check_sets(index, ids, _OUTLIER_TARGET_SETS, _OUTLIER_K1, f"planted {_OUTLIER_K1}-set")
    _check_sets(index, ids, _OUTLIER_TARGET_PREFIXES, _OUTLIER_K2, f"planted {_OUTLIER_K2}-prefix")

    members = set(index.neighbor_ids(query, _OUTLIER_K1).tolist())
    for name, (num, den) in _OUTLIER_TARGET_JACCARD.items():
        row = set(index.neighbor_ids(ids[name], _OUTLIER_K1).tolist())
        got = (len(row & members), len(row | members))
        if got != (num, den):
            raise ScenarioError(f"overlap for {name} is {got[0]}/{got[1]}, wanted {num}/{den}")

    ranked = tiered_rerank(index, query, k1=_OUTLIER_K1, k2=_OUTLIER_K2)
    pos = {item: p for p, item in enumerate(ranked.ids())}
    outlier = ids["O"]
    for name in ("B", "C", "D"):
        if pos[outlier] <= pos[ids[name]]:
            raise ScenarioError(f"outlier not demoted below {name}: {ranked.ids()}")

    manifest = {
        "scenario": "outlier",
        "seed": seed,
        "query": query,
        "point_ids": ids,
        "classes": {name: labels[ids[name]] for name in ids},
        "index_k": _OUTLIER_K1,
        "rerank_k1": _OUTLIER_K1,
        "rerank_k2": _OUTLIER_K2,
        "planted_neighbor_sets": {n: sorted(_OUTLIER_TARGET_SETS[n]) for n in _OUTLIER_TARGET_SETS},
        "planted_tight_prefixes": {
            n: sorted(_OUTLIER_TARGET_PREFIXES[n]) for n in _OUTLIER_TARGET_PREFIXES
        },
        "overlap_vs_query": {n: list(_OUTLIER_TARGET_JACCARD[n]) for n in _OUTLIER_TARGET_JACCARD},
        "tiered_order": [int(i) for i in ranked.ids()],
    }
    return OutlierScenario(
        features=features,
        truth=truth,
        query=query,
        k1=_OUTLIER_K1,
        k2=_OUTLIER_K2,
        ids=ids,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# Two adjacent clusters scenario
#
# Channel 1 places clusters M1 = {A, C, D, P1, P2} and M2 = {B, E, F, Q1}
# with touching margins, so the boundary item B of the other cluster scores
# a higher tier-3 weight toward the query A than A's own clustermate D.
# Channel 2 separates the clusters cleanly. Fusing both channels and growing
# the list greedily pulls C and D above B.
# ---------------------------------------------------------------------------

_MANIFOLD_LABELS = {
    "A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "F": 5, "P1": 6, "P2": 7, "Q1": 8,
}

_MANIFOLD_CH1_X = {
    "A": 0.0, "B": 1.0, "C": -0.8, "D": -1.9, "E": 2.1,
    "F": 3.0, "P1": -2.7, "P2": -3.2, "Q1": 3.6,
}

_MANIFOLD_CH2_X = {
    "A": 0.0, "C": 0.35, "D": 0.72, "P1": 1.12, "P2": 1.55,
    "B": 100.0, "E": 100.33, "F": 100.67, "Q1": 101.05,
}

_MANIFOLD_JITTER = 0.015
_MANIFOLD_K = 4

_MANIFOLD_CH1_SETS = {
    "A": {"A", "C", "B", "D"},
    "B": {"B", "A", "E", "C"},
    "C": {"C", "A", "D", "B"},
    "D": {"D", "P1", "C", "P2"},
}

_MANIFOLD_CH2_SETS = {
    "A": {"A", "C", "D", "P1"},
    "B": {"B", "E", "F", "Q1"},
    "C": {"C", "A", "D", "P1"},
    "D": {"D", "C", "P1", "A"},
    "P1": {"P1", "D", "P2", "C"},
}


@dataclass(frozen=True)
class TwoManifoldScenario:
    channels: tuple[FeatureMatrix, FeatureMatrix]
    truth: GroundTruth
    query: int
    k1: int
    k2: int
    ids: dict[str, int]
    manifest: dict


def gen_two_manifold_scenario(seed: int = 0) -> TwoManifoldScenario:
    """Two adjacent clusters whose margins touch in the first channel."""
    rng = np.random.default_rng(seed)
    ids = dict(_MANIFOLD_LABELS)
    coords1 = {n: (x, 0.0) for n, x in _MANIFOLD_CH1_X.items()}
    coords2 = {n: (x, 0.0) for n, x in _MANIFOLD_CH2_X.items()}
    ch1 = _jittered_matrix(coords1, ids, rng, _MANIFOLD_JITTER, "boundary")
    ch2 = _jittered_matrix(coords2, ids, rng, _MANIFOLD_JITTER, "separated")
    labels = {ids[n]: (0 if n in {"A", "C", "D", "P1", "P2"} else 1) for n in ids}
    truth = GroundTruth(labels=labels)
    query = ids["A"]
    k = _MANIFOLD_K

    idx1 = build_index(ch1, k=k, metric=Metric.L1)
    idx2 = build_index(ch2, k=k, metric=Metric.L1)
    _check_sets(idx1, ids, _MANIFOLD_CH1_SETS, k, "channel-1 set")
    _check_sets(idx2, ids, _MANIFOLD_CH2_SETS, k, "channel-2 set")

    single = tiered_rerank(idx1, query)
    score = dict(single.entries)
    w = {n: score[ids[n]] for n in ("B", "C", "D")}
    if not (w["C"] > w["B"] > w["D"]):
        raise ScenarioError(f"channel-1 boundary weights out of order: {w}")
    pos1 = {item: p for p, item in enumerate(single.ids())}
    if pos1[ids["B"]] >= pos1[ids["D"]]:
        raise ScenarioError("single-channel list does not rank B above D")

    channels = [Channel(name=ix.channel_name, index=ix, k1=k, k2=k) for ix in (idx1, idx2)]
    union = set(idx1.neighbor_ids(query, k).tolist()) | set(idx2.neighbor_ids(query, k).tolist())
    final = rerank_query(channels, query, k_final=len(union) - 1)
    pos2 = {item: p for p, item in enumerate(final.ids())}
    if not (pos2[ids["C"]] < pos2[ids["B"]] and pos2[ids["D"]] < pos2[ids["B"]]):
        raise ScenarioError(f"fused selection does not demote B: {final.ids()}")

    def toward(u: str, n: str) -> float:
        return oracle_pairwise(channels, ids[u], ids[n])

    lhs = toward("D", "C") + toward("D", "A")
    rhs = toward("B", "C") + toward("B", "A")
    if not lhs > rhs:
        raise ScenarioError(f"fused pair sums violate planted inequality: {lhs} <= {rhs}")

    manifest = {
        "scenario": "two-manifold",
        "seed": seed,
        "query": query,
        "point_ids": ids,
        "classes": {n: labels[ids[n]] for n in ids},
        "index_k": k,
        "rerank_k1": k,
        "rerank_k2": k,
        "channel_1_sets": {n: sorted(_MANIFOLD_CH1_SETS[n]) for n in _MANIFOLD_CH1_SETS},
        "channel_2_sets": {n: sorted(_MANIFOLD_CH2_SETS[n]) for n in _MANIFOLD_CH2_SETS},
        "channel_1_weights_vs_query": w,
        "single_channel_order": [int(i) for i in single.ids()],
        "fused_order": [int(i) for i in final.ids()],
        "fused_pair_sums": {"from_D": lhs, "from_B": rhs},
    }
    return TwoManifoldScenario(
        channels=(ch1, ch2),
        truth=truth,
        query=query,
        k1=k,
        k2=k,
        ids=ids,
        manifest=manifest,
    )
