"""Jaccard overlap, tiered weights, and single-channel re-ranking."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_features
from tierank.errors import EmptySetError, FormatError, UnknownItemError
from tierank.index import FeatureMatrix, Metric, build_index, knn_candidates
from tierank.oracles import oracle_tier3
from tierank.rerank import (
    TIER3_LITERAL,
    TIER3_QUERY_ANCHORED,
    JaccardValue,
    QueryGraph,
    jaccard,
    tier1_rerank,
    tier1_weights,
    tier2_weights,
    tier3_weights,
    tiered_graph,
    tiered_rerank,
)
from tierank.scenarios import gen_outlier_scenario


# --- jaccard ----------------------------------------------------------------


def test_jaccard_planted_outlier_sets():
    # self-inclusive 5-sets from the planted scenario, spelled out by hand
    A, B, C, D, O, O1, O2, E, F, G, H, I = range(12)
    n_a = {A, O, B, C, D}
    assert jaccard(n_a, {O, A, B, O1, O2}) == JaccardValue(3, 7)
    assert jaccard(n_a, {B, A, O, E, F}) == JaccardValue(3, 7)
    assert jaccard(n_a, {C, A, F, H, G}) == JaccardValue(2, 8)
    assert jaccard(n_a, {D, A, C, H, I}) == JaccardValue(3, 7)


def test_jaccard_identical_sets():
    assert jaccard({1, 2, 3}, {1, 2, 3}).value == 1


def test_jaccard_disjoint_sets():
    assert jaccard({1, 2}, {3, 4}).value == 0


def test_jaccard_empty_set_rejected():
    with pytest.raises(EmptySetError):
        jaccard(set(), {1})


def test_jaccard_keeps_raw_counts():
    jv = jaccard({0, 1}, {0, 1, 2, 3, 4, 5, 6, 7})
    assert (jv.numerator, jv.denominator) == (2, 8)
    assert jv.value == Fraction(1, 4)
    assert float(jv) == 0.25


@settings(max_examples=100, deadline=None)
@given(
    st.frozensets(st.integers(0, 40), min_size=1, max_size=12),
    st.frozensets(st.integers(0, 40), min_size=1, max_size=12),
)
def test_jaccard_symmetry_and_range(a, b):
    ab = jaccard(a, b)
    ba = jaccard(b, a)
    assert ab == ba
    assert 0 <= ab.value <= 1
    assert (ab.value == 1) == (a == b)


# --- tier 1 -----------------------------------------------------------------


def test_tier1_query_edge_is_one():
    rng = np.random.default_rng(0)
    fm = random_features(rng, 15, dim=3)
    index = build_index(fm, k=4)
    t1 = tier1_weights(index, 7, alpha=1.0)
    assert t1.edges[7] == 1.0


def test_tier1_matches_set_arithmetic_oracle():
    rng = np.random.default_rng(1)
    fm = random_features(rng, 40, dim=4)
    index = build_index(fm, k=6)
    alpha = 0.9
    for query in (0, 11, 39):
        t1 = tier1_weights(index, query, alpha=alpha)
        members = set(index.neighbor_ids(query, 6).tolist())
        for item in t1.order:
            own = set(index.neighbor_ids(item, 6).tolist())
            inter = len(own & members)
            union = len(own | members)
            assert t1.edges[item] == alpha * (inter / union)


def test_tier1_alpha_never_changes_ordering():
    rng = np.random.default_rng(2)
    fm = random_features(rng, 30, dim=3)
    index = build_index(fm, k=8)
    base = tier1_rerank(index, 3, alpha=1.0).ids()
    for alpha in (1e-6, 0.5, 7.0, 1e6):
        assert tier1_rerank(index, 3, alpha=alpha).ids() == base


def test_tier1_unknown_query():
    rng = np.random.default_rng(3)
    fm = random_features(rng, 10, dim=2)
    index = build_index(fm, k=3)
    with pytest.raises(UnknownItemError):
        tier1_weights(index, 999)


# --- tier 2 -----------------------------------------------------------------


def test_tier2_all_candidates_connected():
    # self-inclusion forces a positive overlap for every candidate
    rng = np.random.default_rng(4)
    fm = random_features(rng, 25, dim=3)
    index = build_index(fm, k=5)
    t2 = tier2_weights(tier1_weights(index, 6))
    assert set(t2.edges.values()) == {1.0}


def _zero_overlap_tier1():
    """A hand-made tier-1 graph whose candidate 5 shares nothing with the query's set."""
    return QueryGraph(
        query=0,
        tier=1,
        edges={0: 1.0, 5: 0.0},
        order=(0, 5),
        k1=2,
        k2=2,
        overlap={0: JaccardValue(2, 2), 5: JaccardValue(0, 4)},
    )


def test_tier2_zero_overlap_edge_drops():
    t2 = tier2_weights(_zero_overlap_tier1())
    assert t2.edges == {0: 1.0, 5: 0.0}


# --- tier 3 -----------------------------------------------------------------


def test_tier3_saturated_candidate_scores_k2():
    rng = np.random.default_rng(5)
    fm = random_features(rng, 20, dim=3)
    index = build_index(fm, k=4)
    for query in range(20):
        t1 = tier1_weights(index, query)
        t3 = tier3_weights(index, query, tier2_weights(t1))
        # the query's own neighborhood lies fully inside the support
        assert t3.edges[query] == 4.0
        for item, w in t3.edges.items():
            assert w == int(w) and 0 <= w <= 4


def test_tier3_outlier_weight_bounded():
    scenario = gen_outlier_scenario(seed=0)
    index = build_index(scenario.features, k=scenario.k1, metric=Metric.L1)
    t1 = tier1_weights(index, scenario.query, k1=5, k2=3)
    t3 = tier3_weights(index, scenario.query, tier2_weights(t1))
    outlier = scenario.ids["O"]
    on_cluster = [scenario.ids[n] for n in ("B", "C", "D")]
    assert t3.edges[outlier] <= 2
    assert all(t3.edges[item] > t3.edges[outlier] for item in on_cluster)


def test_tier3_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    fm = random_features(rng, 35, dim=4)
    index = build_index(fm, k=5)
    for query in (2, 17, 30):
        t1 = tier1_weights(index, query)
        t2 = tier2_weights(t1)
        t3 = tier3_weights(index, query, t2)
        for item in t3.order:
            total = 0.0
            for nbr in index.neighbor_ids(item, 5).tolist():
                total += t2.edges.get(nbr, 0.0)
            assert t3.edges[item] == total


def test_tier3_rejects_non_binary_tier2():
    rng = np.random.default_rng(6)
    index = build_index(random_features(rng, 35, dim=4), k=5)
    t2 = tier2_weights(tier1_weights(index, 2))
    hand_built = replace(t2, edges={**t2.edges, t2.order[1]: 0.5})
    with pytest.raises(FormatError):
        tier3_weights(index, 2, hand_built)


def test_tier3_literal_mode_is_query_independent():
    rng = np.random.default_rng(7)
    fm = random_features(rng, 30, dim=3)
    index = build_index(fm, k=6)
    t1 = tier1_weights(index, 4)
    t3 = tier3_weights(index, 4, tier2_weights(t1), mode=TIER3_LITERAL)
    assert set(t3.edges.values()) == {6.0}


@st.composite
def _tier3_instances(draw):
    """(index, query, k1, k2) on a tie-heavy integer grid with sparse unsorted ids.

    n may be below k, k1 and k2 are drawn independently, and half of the
    queries are virtual rows cut to any length from the owner alone up to
    min(k, n + 1), one more than the stored width when n < k.
    """
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    coords = draw(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=n, max_size=n))
    fm = FeatureMatrix(channel_name="grid", ids=ids, vectors=np.asarray(coords, dtype=np.float64))
    k = draw(st.integers(1, 16))
    index = build_index(fm, k=k, metric=draw(st.sampled_from([Metric.L1, Metric.L2])))
    k1, k2 = draw(st.integers(1, k)), draw(st.integers(1, k))
    if draw(st.booleans()):
        query = max(ids) + 1
        vector = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        want = draw(st.integers(0, min(k - 1, n)))
        near, dists = knn_candidates(fm, vector, max(want, 1), index.metric)
        index = index.with_virtual(query, [query, *near[:want]], [0.0, *dists[:want]])
    else:
        query = draw(st.sampled_from(ids))
    return index, query, k1, k2


@settings(max_examples=200, deadline=None)
@given(_tier3_instances())
def test_tier3_matches_set_oracle_property(instance):
    index, query, k1, k2 = instance
    for mode in (TIER3_QUERY_ANCHORED, TIER3_LITERAL):
        t1, t3 = tiered_graph(index, query, k1=k1, k2=k2, mode=mode)
        want = oracle_tier3(index, query, k1, k2, mode)
        assert t3.order == t1.order == tuple(want)
        assert t3.edges == {x: float(count) for x, count in want.items()}


def test_tier3_rejects_a_gated_out_candidate():
    # no row led by its owner can produce this tier-2 graph, and the closed
    # forms would miscount it
    index = build_index(random_features(np.random.default_rng(6), 6, dim=2), k=2)
    for mode in (TIER3_QUERY_ANCHORED, TIER3_LITERAL):
        with pytest.raises(FormatError):
            tier3_weights(index, 0, tier2_weights(_zero_overlap_tier1()), mode)


# --- tiered rerank ----------------------------------------------------------


def test_rerank_singleton_collection():
    fm = FeatureMatrix(channel_name="one", ids=(5,), vectors=np.asarray([[0.0, 0.0]]))
    index = build_index(fm, k=3)
    assert tiered_rerank(index, 5).ids() == (5,)


def test_rerank_is_permutation_with_query_first():
    rng = np.random.default_rng(8)
    fm = random_features(rng, 40, dim=4)
    index = build_index(fm, k=7)
    for query in (0, 13, 39):
        ranked = tiered_rerank(index, query)
        assert ranked.ids()[0] == query
        assert sorted(ranked.ids()) == sorted(index.neighbor_ids(query, 7).tolist())


def test_rerank_deterministic():
    rng = np.random.default_rng(9)
    fm = random_features(rng, 28, dim=3)
    index = build_index(fm, k=6)
    assert tiered_rerank(index, 11).entries == tiered_rerank(index, 11).entries


def test_rerank_tie_break_prefers_distance_rank():
    scenario = gen_outlier_scenario(seed=0)
    index = build_index(scenario.features, k=scenario.k1, metric=Metric.L1)
    ranked = tiered_rerank(index, scenario.query, k1=scenario.k1, k2=scenario.k2)
    b, d = scenario.ids["B"], scenario.ids["D"]
    # B and D tie on both tier-3 and tier-1; B is nearer in the original list
    pos = {item: p for p, item in enumerate(ranked.ids())}
    assert pos[b] < pos[d]


def test_rerank_tie_break_order_on_short_virtual_rows():
    # items 0..9 on a line; virtual item 100 has a row shorter than k2, so
    # its Jaccard to the virtual query 101 has the numerator of stored item
    # 3's but a smaller denominator
    fm = FeatureMatrix(channel_name="line", ids=list(range(10)), vectors=np.arange(10.0)[:, None])
    index = build_index(fm, k=5)
    index = index.with_virtual(100, [100, 5], [0.0, 1.0])
    index = index.with_virtual(101, [101, 4, 5, 3, 100], [0.0, 1.0, 1.0, 2.0, 2.0])
    t1, t3 = tiered_graph(index, 101, k1=5, k2=4)
    exact = {item: jv.value for item, jv in t1.overlap.items()}
    assert t3.edges[3] == t3.edges[100] == 2.0
    assert (t1.overlap[3].numerator, t1.overlap[100].numerator) == (2, 2)
    assert exact[3] == Fraction(2, 7) and exact[100] == Fraction(2, 5)
    assert t3.edges[4] == t3.edges[5] == 3.0 and exact[4] == exact[5]

    rest = sorted(
        (item for item in t3.order if item != 101),
        key=lambda item: (-t3.edges[item], -exact[item], t3.order.index(item), item),
    )
    assert tiered_rerank(index, 101, k1=5, k2=4).ids() == (101, 4, 5, 100, 3) == (101, *rest)
    by_jaccard = sorted(t1.order, key=lambda item: (-exact[item], t1.order.index(item), item))
    assert tier1_rerank(index, 101, k1=5, k2=4).ids() == tuple(by_jaccard)
