"""Jaccard overlap, tiered weights, and single-channel re-ranking."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overlay_query, random_features
from tierank.errors import FormatError, UnknownItemError
from tierank.index import FeatureMatrix, Metric, NeighborhoodIndex, build_index, knn_candidates
from tierank.oracles import oracle_tier3
from tierank.pipeline import Channel, rerank_query, rerank_vector_query, virtual_query_id
from tierank.rerank import JaccardValue, tier1_rerank, tiered_graph, tiered_rerank
from tierank.scenarios import gen_outlier_scenario


# --- jaccard ----------------------------------------------------------------


def test_jaccard_planted_outlier_sets():
    # self-inclusive 5-rows from the planted scenario, spelled out by hand;
    # the rows of items outside the query's row are never read
    A, B, C, D, O, O1, O2, E, F, G, H, I = range(12)
    rows = {
        A: [A, O, B, C, D],
        O: [O, A, B, O1, O2],
        B: [B, A, O, E, F],
        C: [C, A, F, H, G],
        D: [D, A, C, H, I],
    }
    table = np.asarray([rows.get(x, [x, *[y for y in range(12) if y != x][:4]]) for x in range(12)])
    index = NeighborhoodIndex("plane", 5, Metric.L1, np.arange(12), table, np.zeros((12, 5)))
    overlap = tiered_graph(index, A)[0].overlap
    assert overlap[O] == overlap[B] == overlap[D] == JaccardValue(3, 7)
    assert overlap[C] == JaccardValue(2, 8)


def test_jaccard_keeps_raw_counts():
    jv = JaccardValue(2, 8)
    assert (jv.numerator, jv.denominator) == (2, 8)
    assert jv.value == Fraction(1, 4)
    assert float(jv) == 0.25


# --- tier 1 -----------------------------------------------------------------


def test_tier1_query_edge_is_one():
    rng = np.random.default_rng(0)
    fm = random_features(rng, 15, dim=3)
    index = build_index(fm, k=4)
    t1 = tiered_graph(index, 7, alpha=1.0)[0]
    assert t1.edges[7] == 1.0


def test_tier1_matches_set_arithmetic_oracle():
    rng = np.random.default_rng(1)
    fm = random_features(rng, 40, dim=4)
    index = build_index(fm, k=6)
    alpha = 0.9
    for query in (0, 11, 39):
        t1 = tiered_graph(index, query, alpha=alpha)[0]
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
        tiered_graph(index, 999)


# --- tier 2 -----------------------------------------------------------------


def test_tier2_all_candidates_connected():
    # self-inclusion forces a positive overlap for every candidate
    rng = np.random.default_rng(4)
    fm = random_features(rng, 25, dim=3)
    index = build_index(fm, k=5)
    t1 = tiered_graph(index, 6)[0]
    assert all(jv.numerator > 0 for jv in t1.overlap.values())


# --- tier 3 -----------------------------------------------------------------


def test_tier3_saturated_candidate_scores_k2():
    rng = np.random.default_rng(5)
    fm = random_features(rng, 20, dim=3)
    index = build_index(fm, k=4)
    for query in range(20):
        _, t3 = tiered_graph(index, query)
        # the query's own neighborhood lies fully inside the support
        assert t3.edges[query] == 4.0
        for item, w in t3.edges.items():
            assert w == int(w) and 0 <= w <= 4


def test_tier3_outlier_weight_bounded():
    scenario = gen_outlier_scenario(seed=0)
    index = build_index(scenario.features, k=scenario.k1, metric=Metric.L1)
    _, t3 = tiered_graph(index, scenario.query, k1=5, k2=3)
    outlier = scenario.ids["O"]
    on_cluster = [scenario.ids[n] for n in ("B", "C", "D")]
    assert t3.edges[outlier] <= 2
    assert all(t3.edges[item] > t3.edges[outlier] for item in on_cluster)


def test_tier3_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    fm = random_features(rng, 35, dim=4)
    index = build_index(fm, k=5)
    for query in (2, 17, 30):
        t1, t3 = tiered_graph(index, query)
        # tier 2 binarizes tier 1
        tier2 = {item: float(jv.numerator > 0) for item, jv in t1.overlap.items()}
        for item in t3.order:
            total = 0.0
            for nbr in index.neighbor_ids(item, 5).tolist():
                total += tier2.get(nbr, 0.0)
            assert t3.edges[item] == total


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
        row, row_dists = [query, *near[:want].tolist()], [0.0, *dists[:want].tolist()]
        index = index.with_virtual(query, row, row_dists)
    else:
        query = draw(st.sampled_from(ids))
    return index, query, k1, k2


@settings(max_examples=200, deadline=None)
@given(_tier3_instances())
def test_tier3_matches_set_oracle_property(instance):
    index, query, k1, k2 = instance
    t1, t3 = tiered_graph(index, query, k1=k1, k2=k2)
    want = oracle_tier3(index, query, k1, k2)
    assert t3.order == t1.order == tuple(want)
    assert t3.edges == {x: float(count) for x, count in want.items()}

    # both rankings, rebuilt from the oracle's counts, plain-set Fractions
    # and row positions alone; the tiered one keeps tier-1 Jaccard as a key
    # between tier 3 and the rank, which tiered_rerank drops because it can
    # never decide
    members = index.neighbor_ids(query, k1).tolist()
    exact = {}
    for x in members:
        own = set(index.neighbor_ids(x, k2).tolist())
        exact[x] = Fraction(len(own & set(members)), len(own | set(members)))
    rest = sorted((x for x in members if x != query), key=lambda x: (-want[x], -exact[x], members.index(x)))
    assert tiered_rerank(index, query, k1=k1, k2=k2).entries == tuple(
        (x, float(want[x])) for x in [query, *rest]
    )
    by_jaccard = sorted(members, key=lambda x: (-exact[x], members.index(x)))
    assert tier1_rerank(index, query, k1=k1, k2=k2).entries == tuple(
        (x, float(exact[x])) for x in by_jaccard
    )


def test_tier3_rejects_a_gated_out_candidate():
    # item 2's row leaves it out and shares nothing with the query's row
    # {0, 2}: tier 2 would gate 2 out and tier 3's count would miscount it,
    # so the index refuses the table when it is made
    table = np.asarray([[0, 2], [1, 3], [3, 1], [3, 1]], dtype=np.int64)
    with pytest.raises(FormatError, match="not led by its owner"):
        NeighborhoodIndex("bad", 2, Metric.L1, np.arange(4), table, np.zeros((4, 2)))


_NOT_OWNER_LED = [
    # item 2's row leaves it out and shares nothing with the query's row
    # {0, 2}, so tier 2 would gate 2 out and the closed form would miscount it
    [[0, 2], [1, 3], [3, 1], [3, 1]],
    # the query's row leaves the query out, so it cannot be put first
    [[1, 2], [1, 2], [2, 1], [3, 1]],
]


@pytest.mark.parametrize("table", _NOT_OWNER_LED)
def test_tiered_rerank_rejects_a_row_not_led_by_its_owner(table):
    # the check sits in the index, so no view of the tiers ever reads such a row
    table = np.asarray(table, dtype=np.int64)
    with pytest.raises(FormatError, match="not led by its owner"):
        NeighborhoodIndex("bad", 2, Metric.L1, np.arange(4), table, np.zeros((4, 2)))


@pytest.mark.parametrize("table", _NOT_OWNER_LED)
def test_fused_query_rejects_a_row_not_led_by_its_owner(table):
    # a fused query beside a good channel never reaches the bad rows either:
    # it used to rank them silently, the query first or not at all
    good = build_index(FeatureMatrix("good", range(4), np.arange(8.0).reshape(4, 2)), k=2)

    def fused_query():
        bad = NeighborhoodIndex("bad", 2, Metric.L1, np.arange(4), np.asarray(table), np.zeros((4, 2)))
        return rerank_query([Channel("bad", bad, 2, 2), Channel("good", good, 2, 2)], 0)

    with pytest.raises(FormatError, match="not led by its owner"):
        fused_query()


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


# --- out-of-sample queries ----------------------------------------------------


def _exact(ranking):
    return ranking.query, ranking.tier, ranking.channel, [(i, float(s).hex()) for i, s in ranking.entries]


@st.composite
def _vector_instances(draw):
    """(channel, vector, vid) on a tie-heavy grid with sparse unsorted ids, under any metric.

    n may be below k (the query's row is then one wider than a stored row),
    k may be 1 (the row is the query alone), k1 and k2 are drawn apart, the
    vector may repeat a stored one, and the vid sits below or above the
    largest stored id.
    """
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    coords = draw(st.lists(st.lists(st.integers(1, 3), min_size=2, max_size=2), min_size=n, max_size=n))
    fm = FeatureMatrix(channel_name="grid", ids=ids, vectors=np.asarray(coords, dtype=np.float64))
    k = draw(st.integers(1, 16))
    index = build_index(fm, k=k, metric=draw(st.sampled_from(list(Metric))))
    channel = Channel("grid", index, draw(st.integers(1, k)), draw(st.integers(1, k)), features=fm)
    vector = draw(st.sampled_from(coords) | st.lists(st.integers(1, 3), min_size=2, max_size=2))
    vid = draw(st.one_of(st.just(virtual_query_id([channel])), st.integers(0, max(ids))))
    while vid in ids:
        vid += 1
    return channel, vector, vid


@settings(max_examples=200, deadline=None)
@given(_vector_instances())
def test_a_vector_query_ranks_as_its_overlay_does_on_one_channel(instance):
    # the query's row at slot n, handed to the kernels, against the same
    # row held by an overlay: bit for bit, with the query named by its vid
    channel, vector, vid = instance
    got = rerank_vector_query([channel], vector, vid=vid)
    overlay = overlay_query([channel], vector, vid)
    assert _exact(got) == _exact(rerank_query(overlay, vid))
    # and the counts are the plain-set oracle's, which shares no kernel with either
    counts = oracle_tier3(overlay[0].index, vid, channel.k1, channel.k2)
    assert dict(got.entries) == {x: float(c) for x, c in counts.items()}
    assert got.query == vid and got.entries[0][0] == vid
    assert len(got) == min(channel.k1, channel.index.k, channel.features.n + 1)
