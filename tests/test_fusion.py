"""Graph fusion, the pairwise affinity matrix, and greedy list selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contextlib
import functools
import io
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

from conftest import FunctionPairwise, fused_instance, overlay_query, random_channels
from tierank import fusion, pipeline
from tierank.bench import restricted_channels
from tierank.cli import main
from tierank.errors import (
    DimensionError, EmptyChannelListError, FormatError, QueryMismatchError, UnknownItemError, ZeroVectorError,
)
from tierank.fusion import TieredPairwise, fuse_graphs, greedy_loop, greedy_select
from tierank.index import (
    FeatureMatrix, Metric, NeighborhoodIndex, build_index, knn_candidates, load_index, save_index,
    write_features_csv,
)
from tierank.oracles import brute_force_knn, oracle_greedy_select, oracle_pairwise, oracle_tier3
from tierank.index import _row_positions
from tierank.pipeline import (
    _BLOCK_BUDGET,
    _BLOCK_CAP,
    _block_queries,
    Channel,
    batch_rerank,
    batch_rerank_vectors,
    rerank_query,
    rerank_vector_query,
    virtual_query_id,
)
from tierank.ranking import write_rankings_tsv
from tierank.rerank import QueryGraph, tier1_rerank, tiered_graph, tiered_rerank


def _tier3(query, edges, order, k1=4, k2=4, channel="c0"):
    return QueryGraph(query=query, tier=3, edges=edges, order=order, k1=k1, k2=k2, channel=channel)


# --- fusion -----------------------------------------------------------------


def test_fuse_single_channel_identity():
    g = _tier3(0, {0: 4.0, 1: 3.0, 2: 1.0}, (0, 1, 2))
    fused = fuse_graphs([g])
    assert fused.nodes == frozenset({0, 1, 2})
    assert fused.edges == g.edges
    assert fused.channels == ("c0",)


def test_fuse_disjoint_channels():
    g1 = _tier3(0, {0: 4.0, 1: 3.0}, (0, 1), channel="a")
    g2 = _tier3(0, {0: 4.0, 7: 2.0}, (0, 7), channel="b")
    fused = fuse_graphs([g1, g2])
    assert fused.nodes == frozenset({0, 1, 7})
    assert fused.edges[1] == 3.0 and fused.edges[7] == 2.0
    assert fused.edges[0] == 8.0


def test_fuse_weights_match_per_channel_sums():
    rng = np.random.default_rng(0)
    channels = random_channels(rng, 30, 3, 5)
    query = 12
    graphs = [tiered_graph(ch.index, query)[1] for ch in channels]
    fused = fuse_graphs(graphs)
    for node in fused.nodes:
        assert fused.edges[node] == sum(g.edges.get(node, 0.0) for g in graphs)


def test_fuse_channel_permutation_invariant():
    rng = np.random.default_rng(1)
    channels = random_channels(rng, 25, 3, 4)
    graphs = [tiered_graph(ch.index, 3)[1] for ch in channels]
    a = fuse_graphs(graphs)
    b = fuse_graphs(graphs[::-1])
    assert a.edges == b.edges and a.nodes == b.nodes
    assert a.distance_rank == b.distance_rank


def test_fuse_errors():
    g1 = _tier3(0, {0: 1.0}, (0,), channel="a")
    g2 = _tier3(5, {5: 1.0}, (5,), channel="b")
    with pytest.raises(EmptyChannelListError):
        fuse_graphs([])
    with pytest.raises(QueryMismatchError):
        fuse_graphs([g1, g2])
    with pytest.raises(FormatError):
        fuse_graphs([g1, _tier3(0, {0: 1.0}, (0,), channel="a")])


def test_fuse_scales_apply_per_channel():
    g1 = _tier3(0, {0: 4.0, 1: 2.0}, (0, 1), channel="a")
    g2 = _tier3(0, {0: 4.0, 1: 1.0}, (0, 1), channel="b")
    fused = fuse_graphs([g1, g2], scales=[2.0, 0.5])
    assert fused.edges[1] == 2.0 * 2.0 + 0.5 * 1.0


def test_correlation_separates_classes_monte_carlo():
    # in-class candidates carry more fused tier-3 weight to the query; every
    # query here has the same weight ceiling (k2 summed over the channels),
    # so rescaling the weights to [0, 1] would change no comparison
    rng = np.random.default_rng(3)
    in_class, out_class = [], []
    for _ in range(60):
        prototypes = rng.normal(0.0, 1.0, size=(2, 4))
        labels = {i: i % 2 for i in range(30)}
        vectors = np.stack([prototypes[labels[i]] + rng.normal(0, 0.7, 4) for i in range(30)])
        from tierank.index import FeatureMatrix, build_index

        channels = []
        for c in range(2):
            noisy = vectors + rng.normal(0, 0.3, vectors.shape)
            fm = FeatureMatrix(channel_name=f"c{c}", ids=tuple(range(30)), vectors=noisy)
            channels.append(build_index(fm, k=6))
        query = int(rng.integers(0, 30))
        graphs = [tiered_graph(ix, query)[1] for ix in channels]
        fused = fuse_graphs(graphs)
        for node in fused.nodes:
            if node == query:
                continue
            weight = fused.edges[node]
            (in_class if labels[node] == labels[query] else out_class).append(weight)
    assert np.mean(in_class) > np.mean(out_class)


# --- pairwise ----------------------------------------------------------------


def _row(pw, u):
    """Center u's weights to every candidate, in candidate_ids order."""
    return pw.matrix[pw.candidate_ids.index(u)]


def test_pairwise_matches_tiered_route():
    # the affinity between two arbitrary items is read off the tiered graph
    # built with one of them as a temporary center; absent edges are 0
    rng = np.random.default_rng(4)
    channels = random_channels(rng, 30, 2, 5)
    query = 9
    graphs = [tiered_graph(ch.index, query)[1] for ch in channels]
    fused = fuse_graphs(graphs)
    pw = TieredPairwise([(ch.index, 5, 5) for ch in channels], sorted(fused.nodes))
    for center in sorted(fused.nodes)[:6]:
        for item in sorted(fused.nodes):
            expected = 0.0
            for ch in channels:
                expected += tiered_graph(ch.index, center)[1].edges.get(item, 0.0)
            assert _row(pw, center)[pw.candidate_ids.index(item)] == expected


def test_pairwise_from_query_reproduces_fused_edges():
    rng = np.random.default_rng(40)
    channels = random_channels(rng, 30, 3, 5)
    query = 9
    graphs = [tiered_graph(ch.index, query)[1] for ch in channels]
    fused = fuse_graphs(graphs)
    pw = TieredPairwise([(ch.index, 5, 5) for ch in channels], sorted(fused.nodes))
    assert _row(pw, query).tolist() == [fused.edges[item] for item in pw.candidate_ids]


def test_pairwise_batch_equals_scalar():
    rng = np.random.default_rng(5)
    channels = random_channels(rng, 35, 3, 6)
    query = 20
    graphs = [tiered_graph(ch.index, query)[1] for ch in channels]
    fused = fuse_graphs(graphs)
    pw = TieredPairwise([(ch.index, 6, 6) for ch in channels], sorted(fused.nodes))
    for center in sorted(fused.nodes)[:8]:
        got = _row(pw, center)
        want = [oracle_pairwise(channels, center, item) for item in pw.candidate_ids]
        assert got.tolist() == want


def test_pairwise_symmetric_for_mutual_neighbors():
    # with k1 == k2 the underlying overlap count is symmetric; the edge
    # exists in both directions only for mutually neighboring pairs
    rng = np.random.default_rng(6)
    channels = random_channels(rng, 30, 1, 5)
    index = channels[0].index
    pw = TieredPairwise([(index, 5, 5)], list(range(30)))
    for u in range(30):
        for i in index.neighbor_ids(u, 5).tolist():
            if u in index.neighbor_ids(i, 5).tolist():
                assert pw.matrix[u, i] == pw.matrix[i, u]  # candidate ids equal their rows


def test_pairwise_refuses_a_candidate_that_is_no_integer():
    # a cast would truncate 3.5 to 3 and read '7' as 7; 3.0 is item 3
    index = random_channels(np.random.default_rng(6), 30, 1, 5)[0].index
    for candidates in ([3.5, 4.9, "7"], [3, 4.5], ["7"], [np.nan], [2.0**63], np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(FormatError, match="candidate ids must be 64-bit integers"):
            TieredPairwise([(index, 5, 5)], candidates)
    as_floats = TieredPairwise([(index, 5, 5)], [7.0, 3.0, 4.0])
    as_ints = TieredPairwise([(index, 5, 5)], np.array([3, 4, 7], dtype=np.uint8))
    assert as_floats.candidate_ids == as_ints.candidate_ids == (3, 4, 7)
    assert all(type(c) is int for c in as_floats.candidate_ids)
    assert np.array_equal(as_floats.matrix, as_ints.matrix)


@st.composite
def _query_instances(draw):
    """Channels on shared sparse ids (k1, k2, alpha per channel) and a query.

    Channel names are permuted against input order, n may be below k, and
    vectors sit on a small integer grid, so duplicates are common. Returns
    (channels, query, vector): for a stored-id query the vector is None;
    otherwise ``query`` is a free virtual id for the vector, above every
    stored id as the CLI numbers them or below the largest, where its row
    position and its id sort differently.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 3))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    names = draw(st.permutations([f"c{c}" for c in range(m)]))
    channels = []
    for name in names:
        coords = draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), min_size=n, max_size=n))
        fm = FeatureMatrix(channel_name=name, ids=ids, vectors=np.asarray(coords, dtype=np.float64))
        k = draw(st.integers(1, 16))
        channels.append(
            Channel(
                name=name,
                index=build_index(fm, k=k),
                k1=draw(st.integers(1, k)),
                k2=draw(st.integers(1, k)),
                alpha=draw(st.sampled_from([1.0, 0.3, 1.7, 2.5])),
                features=fm,
            )
        )
    if draw(st.booleans()):
        vector = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2))
        vid = draw(st.one_of(st.just(virtual_query_id(channels)), st.integers(0, max(ids))))
        while vid in ids:  # the next free id: below the largest stored one unless none is free
            vid += 1
        return channels, vid, vector
    return channels, draw(st.sampled_from(ids)), None


@st.composite
def _pairwise_instances(draw):
    """A query instance with any vector query attached as a virtual row.

    The virtual row is one entry longer than the stored rows when n < k,
    so those are padded.
    """
    channels, query, vector = draw(_query_instances())
    if vector is not None:
        channels = overlay_query(channels, vector, query)
    return channels, query


def _fused_graph(channels, query):
    """Every channel's tier-3 graph of the query, fused."""
    graphs = [tiered_graph(ch.index, query, alpha=ch.alpha, k1=ch.k1, k2=ch.k2)[1] for ch in channels]
    return fuse_graphs(graphs, scales=[ch.alpha for ch in channels])


@pytest.mark.parametrize("length", [1, 2, 5, 6])
@pytest.mark.parametrize("with_virtual", [True, False])
def test_pairwise_on_a_hand_cut_virtual_row(length, with_virtual):
    # a virtual row shorter than the stored rows is padded with -1 in the
    # counted block, and one of n + 1 = 6 entries is wider than them; the
    # virtual item need not be a candidate at all
    rng = np.random.default_rng(60 + length)
    channels = random_channels(rng, 5, 2, 6)
    overlaid = []
    for ch in channels:
        ids, dists = knn_candidates(ch.features, rng.normal(size=4), 5, ch.index.metric)
        row, row_dists = [9, *ids[: length - 1].tolist()], [0.0, *dists[: length - 1].tolist()]
        overlaid.append(replace(ch, index=ch.index.with_virtual(9, row, row_dists)))
    candidates = [0, 2, 3, 9] if with_virtual else [0, 2, 3]
    pw = TieredPairwise([(ch.index, 6, 6) for ch in overlaid], candidates)
    for u in pw.candidate_ids:
        assert _row(pw, u).tolist() == [oracle_pairwise(overlaid, u, i) for i in pw.candidate_ids]
    # the ranking pads the shorter rows with -1, which names no candidate
    queries = [9, 0, 9, 4] if with_virtual else [0, 4]
    got = batch_rerank(overlaid, queries)
    assert _exact(got) == _exact([rerank_query(overlaid, q) for q in queries])
    assert [r.entries for r in got] == [_oracle_rerank(overlaid, q, None) for q in queries]


@settings(max_examples=150, deadline=None)
@given(_pairwise_instances())
def test_pairwise_matches_oracle_property(instance):
    channels, query = instance
    by_name = sorted(channels, key=lambda ch: ch.name)
    candidates = sorted(_fused_graph(channels, query).nodes)
    pw = TieredPairwise(
        [(ch.index, ch.k1, ch.k2) for ch in by_name],
        candidates=candidates,
        scales=[ch.alpha for ch in by_name],
    )
    for u in pw.candidate_ids:
        assert _row(pw, u).tolist() == [oracle_pairwise(by_name, u, i) for i in pw.candidate_ids]


@settings(max_examples=150, deadline=None)
@given(_pairwise_instances())
def test_fused_weights_and_ranks_match_fused_graph_property(instance):
    # the front end that rerank_query and a batch's blocks share
    channels, query = instance
    cand, _, ranks, weights, _, _ = pipeline._candidates(channels, [query])
    fused = _fused_graph(channels, query)
    cand = cand.tolist()
    assert len(cand) == len(fused.nodes) and set(cand) == fused.nodes
    want = np.array([fused.edges[item] for item in cand], dtype=np.float64)
    assert weights.dtype == np.float64 and weights.tobytes() == want.tobytes()  # bit for bit
    assert ranks.tolist() == [fused.distance_rank[item] for item in cand]


def _oracle_rerank(channels, query, k_final):
    """The fused ranking composed from oracles.py alone: weights, ranks and selection."""
    by_name = sorted(channels, key=lambda ch: ch.name)
    edges, rank = {}, {}
    for ch in by_name:
        for item, count in oracle_tier3(ch.index, query, ch.k1, ch.k2).items():
            edges[item] = edges.get(item, 0.0) + ch.alpha * count
        for pos, item in enumerate(ch.index.neighbor_ids(query, ch.k1).tolist()):
            rank[item] = min(rank.get(item, pos), pos)
    fused = SimpleNamespace(query=query, nodes=frozenset(edges), edges=edges, rank_of=rank.__getitem__)
    k = k_final if k_final is not None else max(ch.k1 for ch in channels)
    final = oracle_greedy_select(fused, partial(oracle_pairwise, by_name), k)
    return tuple(zip(final.items, final.scores))


def _oracle_overlay(channels, vector, vid):
    """Channels with the query vector's row, found by brute force, overlaid."""
    out = []
    for ch in channels:
        want = min(ch.index.k - 1, ch.features.n)
        nearest = brute_force_knn(ch.features, vector, want, ch.index.metric) if want > 0 else []
        ids = [vid] + [item for item, _ in nearest]
        dists = [0.0] + [d for _, d in nearest]
        out.append(replace(ch, index=ch.index.with_virtual(vid, ids, dists)))
    return out


@settings(max_examples=150, deadline=None)
@given(_query_instances(), st.sampled_from([None, 1, 2, 5]))
def test_rerank_query_matches_oracle_composition_property(instance, k_final):
    channels, query, vector = instance
    if vector is None:
        got = rerank_query(channels, query, k_final=k_final)
        want = _oracle_rerank(channels, query, k_final)
    else:
        got = rerank_vector_query(channels, vector, k_final=k_final, vid=query)
        want = _oracle_rerank(_oracle_overlay(channels, vector, query), query, k_final)
    assert got.entries == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("m", [1, 2])
def test_non_finite_query_vector_is_named_before_the_scan(bad, m):
    # not the virtual row's non-finite distance, which the scan would make;
    # at k = 1 no scan runs, and the vector is checked all the same
    for k in (5, 1):
        channels = random_channels(np.random.default_rng(13), 30, m, k)
        with pytest.raises(FormatError, match="query vector contains NaN or Inf"):
            rerank_vector_query(channels, [bad, 0.0, 0.0, 0.0])


def test_a_channel_is_named_after_its_index():
    # a channel has one name: one index under two names used to fail only at
    # query time as "duplicate channel names", and names listed out of their
    # indexes' order summed W's query row in another order than fuse_graphs
    rng = np.random.default_rng(14)
    a, b, c = random_channels(rng, 20, 3, 4)
    with pytest.raises(FormatError, match="channel 'x' holds the index of channel 'ch0'"):
        Channel("x", a.index, 4, 4)
    with pytest.raises(FormatError):
        [Channel(name, ch.index, 4, 4) for name, ch in zip(("ch2", "ch0", "ch1"), (a, b, c))]
    overlay = overlay_query([a], rng.normal(size=4), 99)[0]  # replace() checks again
    with pytest.raises(FormatError):
        replace(overlay, name="ch1")


# --- batches ----------------------------------------------------------------


def _exact(rankings):
    """Rankings with every score as its exact bits."""
    return [(r.query, r.tier, r.channel, [(i, float(s).hex()) for i, s in r.entries]) for r in rankings]


def _block_size(channels):
    """The queries per block that batch_rerank takes on these channels."""
    return _block_queries([ch.k1 for ch in channels], max(ch.index.n for ch in channels))


def _with_extra_ids(channel, extra):
    """The channel, with far-away items of the ids ``extra`` stored between its own.

    Every shared id then sits at another row position in this channel, and
    no row of a shared item within its first n entries names an extra one.
    """
    fm = channel.features
    far = np.full((len(extra), fm.dim), 100.0) + np.arange(len(extra))[:, None]
    both = FeatureMatrix(fm.channel_name, [*fm.ids.tolist(), *extra], np.concatenate((fm.vectors, far)))
    index = build_index(both, k=channel.index.k)
    return replace(channel, index=index, k1=min(channel.k1, fm.n), features=both)


@settings(max_examples=150, deadline=None)
@given(_query_instances(), st.sampled_from([None, 1, 2, 5]), st.data())
def test_batch_rerank_matches_rerank_query_property(instance, k_final, data):
    # batches of one, with repeated ids, and across a block boundary; with
    # n < k and k1 = 1 a query's union is often smaller than k_final + 1.
    # A channel may also store ids the others lack, so that a candidate's
    # row position differs between channels. With a vector, the channels
    # are overlaid and the virtual id is one more query
    channels, vid, vector = instance
    ids = channels[0].index.item_ids.tolist()
    if vector is not None:
        channels = overlay_query(channels, vector, vid)
        ids.append(vid)
    elif data.draw(st.booleans()):
        extra = sorted({i + 1 for i in ids} - set(ids))[:3]
        channels = [*channels[:-1], _with_extra_ids(channels[-1], extra)]
    size = _block_size(channels)
    queries = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2 * size + 3))
    got = batch_rerank(channels, queries, k_final)
    want = [rerank_query(channels, q, k_final) for q in queries]
    assert got == want and _exact(got) == _exact(want)



def _bits(array):
    """An array as (dtype, shape, bytes): equal only bit for bit."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _assert_one_is_its_slice(channels, block, rows=None):
    """``_candidates(channels, [q])``, a block of one, is q's slice of ``_candidates(channels, block)``, q = block[1].

    ``rows`` are the block's vector rows, or None; q's are row 1 of each.
    Also q's candidates are the ids its k1 rows name, each at its least
    rank. Returns the one-query result.
    """
    q = block[1]
    single_rows = None if rows is None else [r[1:2] for r in rows]
    cand, owner, rank, weights, own, lookups = pipeline._candidates(channels, block, rows)
    one = pipeline._candidates(channels, [q], single_rows)
    mine = owner == 1
    offset = int(np.argmax(mine))
    assert _bits(one[0]) == _bits(cand[mine]) and _bits(one[2]) == _bits(rank[mine])
    assert _bits(one[3]) == _bits(weights[mine])
    assert one[4].tolist() == [int(own[1]) - offset] and not one[1].any()
    for (ch1, pos1, counts1, row1), (ch, pos, counts, row) in zip(one[5], lookups):
        assert ch1 is ch and _bits(pos1) == _bits(pos[mine]) and _bits(counts1) == _bits(counts[mine])
        assert (row1 is None) == (row is None) and (row is None or _bits(row1) == _bits(row[1:2]))
    least = {}
    for ch, r in zip(channels, single_rows or [None] * len(channels)):
        near = None if r is None else r[0, 1 : ch.k1]
        named = ch.index.neighbor_ids(q, ch.k1) if r is None else [q, *ch.index.item_ids[near[near >= 0]]]
        for at, item in enumerate(np.asarray(named).tolist()):
            least[item] = min(least.get(item, at), at)
    assert one[0].tolist() == sorted(least) and one[2].tolist() == [least[i] for i in sorted(least)]
    return one


@settings(max_examples=150, deadline=None)
@given(_query_instances(), st.data())
def test_one_querys_front_end_is_its_slice_of_a_blocks_property(instance, data):
    # a block of one, as a batch of one runs, gives what a block [p, q, r]
    # gives q, bit for bit: candidates, distance ranks, fused weights, own candidate,
    # and per channel the positions and counts. Stored ids, vector rows and
    # an overlay's virtual row; n < k, so that -1 pads occur beside a wider
    # slot n row; alphas other than 1; and a channel that stores ids the
    # others lack, so that candidates' row positions differ and are looked up
    channels, vid, vector = instance
    rows = None
    kind = "ids" if vector is None else data.draw(st.sampled_from(["vectors", "overlay"]))
    if kind == "vectors":
        top = virtual_query_id(channels)
        stack = np.asarray([vector, data.draw(st.sampled_from([vector, [9, 9]])), vector], dtype=np.float64)
        block = [top + 1, vid, top + 2]
        rows = [ch.query_rows(stack, block) for ch in channels]
    elif kind == "overlay":
        channels = overlay_query(channels, vector, vid)
        ids = channels[0].index.item_ids.tolist() + [vid]
        block = [data.draw(st.sampled_from(ids)) for _ in range(3)]
    else:
        ids = channels[0].index.item_ids.tolist()
        if data.draw(st.booleans()):
            extra = sorted({i + 1 for i in ids} - set(ids))[:3]
            channels = [*channels[:-1], _with_extra_ids(channels[-1], extra)]
        block = [data.draw(st.sampled_from(ids)) for _ in range(3)]
    _assert_one_is_its_slice(channels, block, rows)


@pytest.mark.parametrize(("n", "k"), [(5, 8), (40, 6)])
def test_one_querys_front_end_is_its_slice_of_a_block_on_the_edges(n, k):
    # every case the property draws, each made sure of: on an overlay with
    # n < k a stored query's rows are -1-padded to the virtual row's width;
    # vector rows; a channel that stores odd ids the others lack, so that a
    # candidate's position is looked up; and alphas other than 1
    rng = np.random.default_rng(31)
    channels = []
    for ch, alpha in zip(random_channels(rng, n, 3, k), (1.0, 0.3, 2.5)):
        fm = FeatureMatrix(ch.name, 2 * ch.features.ids, ch.features.vectors)
        channels.append(replace(ch, index=build_index(fm, k=k), alpha=alpha, features=fm))
    overlaid = overlay_query(channels, rng.normal(size=4), 3)
    for q in (0, 2 * n - 2):
        rows = overlaid[0].index.position_rows(np.array([overlaid[0].index._position(q)]), k)
        assert (rows < 0).any() == (n < k)  # the pad a block of one must name as the query
        _assert_one_is_its_slice(overlaid, [3, q, 3])
    _assert_one_is_its_slice(overlaid, [0, 3, 2])
    vectors, vids = rng.normal(size=(3, 4)), [2 * n + 1, 3, 2 * n + 3]
    _assert_one_is_its_slice(channels, vids, [ch.query_rows(vectors, vids) for ch in channels])
    # features that lack ids 0 and 2: with n < k the query rows are
    # narrower than a stored row, and their -1 pads must not read as id 0
    few = [replace(ch, features=FeatureMatrix(ch.name, ch.features.ids[2:], ch.features.vectors[2:]))
           for ch in channels]
    rows = [ch.query_rows(vectors, vids) for ch in few]
    assert (few[0].index.position_rows(rows[0][:, 0], k, rows[0]) < 0).any() == (n < k)
    assert 0 not in _assert_one_is_its_slice(few, vids, rows)[0].tolist()
    shifted = [channels[0], _with_extra_ids(channels[1], [1, 5]), channels[2]]
    one = _assert_one_is_its_slice(shifted, [0, 2, 4])
    assert not np.array_equal(one[5][0][1], one[5][1][1])  # the channels' positions differ


def _greedy_reference(matrix, items, pos, k):
    """The greedy loop as plain Python: sum the picks' rows, take the first largest sum among the rest."""
    sums, picks, scores = [0.0] * len(items), [pos], [0.0]
    for _ in range(min(k, len(items) - 1)):
        sums = [total + float(weight) for total, weight in zip(sums, matrix[picks[-1]])]
        best = None
        for j, total in enumerate(sums):
            if j not in picks and (best is None or total > sums[best]):
                best = j
        picks.append(best)
        scores.append(sums[best])
    return [int(items[j]) for j in picks], scores


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_loop_matches_a_plain_python_loop_property(data):
    # on few distinct weights (ties are common) and on fractions whose sums
    # round, with any query row and k beyond the pool
    c = data.draw(st.integers(1, 12))
    values = data.draw(st.sampled_from([[0.0, 1.0, 2.0], [0.0, 0.3, 1.7, 2.5, 0.1]]))
    matrix = np.asarray(data.draw(st.lists(st.lists(st.sampled_from(values), min_size=c, max_size=c),
                                           min_size=c, max_size=c)))
    items = np.asarray(data.draw(st.lists(st.integers(0, 10**6), min_size=c, max_size=c, unique=True)))
    pos, k = data.draw(st.integers(0, c - 1)), data.draw(st.integers(1, 15))
    got = greedy_loop(written := matrix.copy(), items, pos, k)
    assert (np.isneginf(written) == np.eye(c, dtype=bool)).all()  # the loop writes W's diagonal, and no more
    want_items, want_scores = _greedy_reference(matrix, items, pos, k)
    assert got.query == want_items[0] and list(got.items) == want_items
    assert [s.hex() for s in got.scores] == [s.hex() for s in want_scores]
    assert all(type(i) is int for i in got.items) and all(type(s) is float for s in got.scores)

def test_batch_rerank_matches_rerank_query_on_the_edges():
    # a block boundary crossed by 2·B + 3 queries with repeats, a pool of
    # one candidate (k1 = 1 on every channel), pools smaller than k_final,
    # and a channel that also stores odd ids between the even ones all store
    rng = np.random.default_rng(15)
    channels = random_channels(rng, 40, 3, 6)
    narrow = [replace(ch, k1=1) for ch in channels]
    evens = []
    for ch in channels:
        fm = FeatureMatrix(ch.name, 2 * ch.features.ids, ch.features.vectors)
        evens.append(replace(ch, index=build_index(fm, k=6), features=fm))
    shifted = [evens[0], _with_extra_ids(evens[1], [1, 3, 5]), evens[2]]
    size = _block_size(channels)
    queries = rng.choice(40, size=2 * size + 3).tolist()
    assert len(set(queries)) < len(queries)
    for chans, k_final in ((channels, None), (channels, 30), (narrow, 3), (channels, 1), (shifted, None)):
        batch = [2 * q for q in queries] if chans is shifted else queries
        got = batch_rerank(chans, batch, k_final)
        assert _exact(got) == _exact([rerank_query(chans, q, k_final) for q in batch])
    assert [len(r) for r in batch_rerank(narrow, queries[:3])] == [1, 1, 1]


def test_a_block_whose_queries_all_run_out_of_candidates_equals_the_loop(monkeypatch):
    # k_final above every pool: each query's ranking ends at C_b - 1 picks,
    # its whole pool, while its block runs on in lockstep to the largest
    # pool, its finished queries' sums all -inf. Ids and vectors, with
    # n < k and k1 < k, and blocks that really run
    rng = np.random.default_rng(89)
    ran, sizes, block = [], set(), pipeline._rerank_block
    monkeypatch.setattr(pipeline, "_rerank_block", lambda *args: ran.append(block(*args)) or ran[-1])
    for channels in _kernel_cases(rng):
        k_final = sum(ch.k1 for ch in channels) + 1  # a pool is at most Σk1
        queries = rng.choice(channels[0].index.n, size=2 * _block_size(channels) + 3).tolist()
        ran.clear()
        got = batch_rerank(channels, queries, k_final)
        assert _exact(got) == _exact([rerank_query(channels, q, k_final) for q in queries])
        pools = [pipeline._candidates(channels, [q])[0].shape[0] for q in queries]
        assert [len(r.entries) for r in got] == pools
        sizes.update(pools)
        vectors = rng.normal(size=(2 * _vector_block_size(channels) + 3, 4))
        assert _exact(batch_rerank_vectors(channels, vectors, k_final)) == _exact(_loop(channels, vectors, k_final))
        assert len(ran) >= 4 and None not in ran
    assert len(sizes) > 2  # pools of many sizes run out at different steps of a block


@pytest.mark.parametrize(("n", "k"), [(5, 8), (40, 6)])
def test_batch_rerank_on_overlays_matches_rerank_query(n, k):
    # overlaid channels run in blocks; with n < k the virtual row is one
    # entry wider than the stored rows, and stored queries' rows are padded.
    # The stored ids are even, so a virtual id can sit below the largest
    rng = np.random.default_rng(26)
    channels = []
    for ch in random_channels(rng, n, 3, k):
        fm = FeatureMatrix(ch.name, 2 * ch.features.ids, ch.features.vectors)
        channels.append(replace(ch, index=build_index(fm, k=k), features=fm))
    for k1s in ((k, k, k), (k, 3, 1)):
        narrow = [replace(ch, k1=k1) for ch, k1 in zip(channels, k1s)]
        for vid in (3, 2 * n + 1):
            overlaid = overlay_query(narrow, rng.normal(size=4), vid)
            queries = [vid, *range(0, 2 * n, 2), vid]
            assert _block_size(overlaid) > 1
            for k_final in (None, 2):
                got = batch_rerank(overlaid, queries, k_final)
                assert _exact(got) == _exact([rerank_query(overlaid, q, k_final) for q in queries])


def test_a_block_fits_the_rule_at_the_benchmark_shapes():
    # 25 or more stored-id queries a block at the fused-ids shape, m = 3
    # channels of k1 = 25 over n = 10,000 items
    assert _block_queries([25] * 3, 10_000) >= 25
    assert 1 <= _block_queries([10_000] * 3, 10**9) <= _block_queries([50] * 2, 5_000) <= _BLOCK_CAP


@pytest.mark.parametrize(("m", "k"), [(3, 25), (2, 50)])
def test_one_block_works_within_the_budget(m, k):
    # the benchmark shapes (fused-ids, cli-mixed) at a smaller n; independent
    # random channels give unions near Σk1, the rule's worst case
    rng = np.random.default_rng(19)
    channels = random_channels(rng, 2000, m, k)
    batch_rerank(channels, [0, 1])  # builds the tables
    size = _block_size(channels)
    queries = rng.choice(2000, size=size, replace=False).tolist()
    tracemalloc.start()
    try:
        kept = batch_rerank(channels, queries)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == size
    assert peak - current <= _BLOCK_BUDGET


def _raised(call):
    """(class, message) of the error ``call`` raises."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - any class, compared below
        return type(exc), str(exc)
    pytest.fail("no error raised")


def test_batch_errors_match_the_per_query_loop():
    rng = np.random.default_rng(16)
    channels = random_channels(rng, 60, 3, 6)
    # a third channel that lacks item 59, which query 59's first channel row names
    fm = channels[2].features
    short = FeatureMatrix("ch2", fm.ids[:59], fm.vectors[:59])
    lacking = [*channels[:2], Channel("ch2", build_index(short, k=6), 6, 6)]
    near = [q for q in range(59) if 59 in channels[0].index.neighbor_ids(q, 6).tolist()]
    cases = [
        (channels, list(range(10)) + [1000] + list(range(10, 20)), None),  # unknown id mid-batch
        (lacking, list(range(10)) + near[:1] + [0], None),  # a candidate another channel lacks
        (channels, list(range(12)), 0),
        (channels, list(range(12)), 2.5),  # a k_final that is no integer
        (channels, list(range(12)), float("nan")),
        (channels, list(range(12)), "3"),
        (channels, list(range(12)), True),
        ([channels[0], channels[0], channels[1]], [0, 1, 2], None),  # one channel twice
        (channels[:1], list(range(10)) + [1000] + list(range(10, 20)), None),  # one channel: in blocks too
        ([], [0, 1, 2], None),
    ]
    assert near
    for chans, queries, k_final in cases:
        want = _raised(lambda: [rerank_query(chans, q, k_final) for q in queries])
        assert _raised(lambda: batch_rerank(chans, queries, k_final)) == want
    assert want == (EmptyChannelListError, "at least one channel required")


@pytest.mark.parametrize("target", ["_candidates", "add_counts"])
@pytest.mark.parametrize("fault", [ValueError, IndexError])
def test_a_fault_in_the_block_kernel_propagates_unchanged(monkeypatch, target, fault):
    # every query's checks pass, so the batch raises the kernel's own error
    # again: it ranks no query one at a time and builds no fused table
    channels = random_channels(np.random.default_rng(36), 40, 3, 5)
    vectors = np.random.default_rng(37).normal(size=(4, 4))
    error = fault("injected")

    def broken(*args):
        raise error

    monkeypatch.setattr(pipeline, target, broken)
    for batch in (lambda: batch_rerank(channels, [3, 7, 7, 12]), lambda: batch_rerank_vectors(channels, vectors)):
        with pytest.raises(fault) as info:
            batch()
        assert info.value is error
    assert _fused_tables(channels) == []


@functools.cache
def _junk_pool():
    """Channels for junk batches: three over ids 0..29 at k = 5, and the second again without features."""
    channels = random_channels(np.random.default_rng(39), 30, 3, 5)
    return (*channels, replace(channels[1], k1=3, features=None))


def _outcome(call):
    """The exact rankings ``call`` returns, or the (class, message) of its error."""
    try:
        return _exact(call())
    except Exception as exc:  # noqa: BLE001 - any class, compared below
        return type(exc), str(exc)


_JUNK_IDS = st.one_of(
    st.integers(0, 29),  # stored
    st.integers(-2, 32),
    st.sampled_from([None, 3.0, 3.5, float("nan"), float("inf"), "4", b"4", True, (), [1], np.array([3]),
                     np.array(3), np.int64(7), 10**23, 2**63, -(2**63) - 1, object()]),
)
_GRID_VECTORS = st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.5]), min_size=4, max_size=4)
_JUNK_VECTORS = st.one_of(
    _GRID_VECTORS,  # twice: about half the vectors are well formed
    _GRID_VECTORS,
    st.lists(st.sampled_from([0.0, 1.0, float("nan"), float("inf"), -1e308]), min_size=0, max_size=5),
    st.sampled_from([1.0, None, "abcd", ["a"] * 4, [[0.0] * 4], [[1.0] * 4] * 2, np.zeros(4), np.ones((1, 4))]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=3),  # empty, duplicated and featureless channel lists too
    st.lists(_JUNK_IDS, max_size=6),
    st.lists(_JUNK_VECTORS, max_size=5),
    st.sampled_from([None, 0, 3, 29, 30, 40, -1, 30.5, float("nan"), "a", b"5", 2**63, 10**23]),
    st.sampled_from([None, 0, 1, 3, -1, 2.5, float("nan"), "3", True, np.int64(2)]),
)
def test_a_junk_batch_fails_or_ranks_as_its_loop_property(picks, ids, vectors, vid, k_final):
    # batch_rerank and batch_rerank_vectors raise the per-query loop's
    # first error, class and message, or return its rankings bit for bit,
    # and neither caches a fused table, failing or not
    pool = _junk_pool()
    chans = [pool[i] for i in picks]
    cases = [
        (lambda: batch_rerank(chans, ids, k_final), lambda: [rerank_query(chans, q, k_final) for q in ids]),
        (lambda: batch_rerank_vectors(chans, vectors, k_final, vid), lambda: _loop(chans, vectors, k_final, vid)),
    ]
    for batch, loop in cases:
        for ch in pool:
            ch.index._fused.clear()
        got = _outcome(batch)
        assert _fused_tables(pool) == []
        assert got == _outcome(loop)


@pytest.mark.parametrize("k_final", [2.5, float("nan"), "3", True, 3.0])
def test_a_k_final_that_is_no_integer_is_a_value_error_that_names_it(k_final):
    # on two or more channels, alone and in a batch, for ids and vectors;
    # one channel takes no k_final and ranks as it did
    rng = np.random.default_rng(29)
    channels = random_channels(rng, 30, 2, 5)
    vectors = rng.normal(size=(3, 4))
    error = (ValueError, f"k_final must be an integer, got {k_final!r}")
    assert _raised(lambda: rerank_query(channels, 3, k_final)) == error
    assert _raised(lambda: batch_rerank(channels, [3, 4, 5], k_final)) == error
    assert _raised(lambda: rerank_vector_query(channels, vectors[0], k_final)) == error
    assert _raised(lambda: batch_rerank_vectors(channels, vectors, k_final)) == error
    assert _exact([rerank_query(channels[:1], 3, k_final)]) == _exact([rerank_query(channels[:1], 3)])
    assert _exact(batch_rerank(channels[:1], [3, 4, 5], k_final)) == _exact(batch_rerank(channels[:1], [3, 4, 5]))
    assert _exact(batch_rerank(channels, [3, 4], np.int64(2))) == _exact(batch_rerank(channels, [3, 4], 2))


def test_an_empty_batch_ranks_nothing():
    # on no channels too, where any query would raise EmptyChannelListError
    channels = random_channels(np.random.default_rng(22), 30, 2, 5)
    for chans in ([], channels[:1], channels):
        assert batch_rerank(chans, []) == [] and batch_rerank(chans, iter([]), 3) == []
        assert batch_rerank_vectors(chans, []) == [] and batch_rerank_vectors(chans, np.empty((0, 4)), 3, 40) == []


def test_an_id_beyond_int64_in_a_batch_is_an_unknown_item():
    # an id no int64 holds is stored nowhere: its block falls back to the
    # per-query loop, which raises the per-query error
    rng = np.random.default_rng(20)
    channels = random_channels(rng, 30, 2, 5)
    for huge in (10**23, 2**63, -(2**63) - 1):
        for queries in ([1, huge], [1, 2, huge, 3], [huge]):
            want = _raised(lambda: [rerank_query(channels, q) for q in queries])
            assert want == (UnknownItemError, f"item {huge} not in index for channel 'ch0'")
            assert _raised(lambda: batch_rerank(channels, queries)) == want
        assert _raised(lambda: channels[1].index.positions([0, huge])) == (
            UnknownItemError, f"item {huge} not in index for channel 'ch1'"
        )


def test_an_id_equal_to_no_stored_id_is_an_unknown_item():
    # an int64 cast would make 3.5 item 3 and '4' item 4; only an id equal
    # to a stored one is found, as 3.0 is item 3. An id that is no number
    # (None, a sequence, a plain object) has no order against the ids and
    # is none either, on one channel and on two
    rng = np.random.default_rng(25)
    channels = random_channels(rng, 30, 2, 5)
    thing = object()
    for chans in (channels, channels[:1]):
        for bad in (3.5, "4", None, [1], np.array([3]), (), thing):
            for queries in ([bad, 4], [4, bad]):
                want = _raised(lambda: [rerank_query(chans, q) for q in queries])
                assert want == (UnknownItemError, f"item {bad} not in index for channel 'ch0'")
                assert _raised(lambda: batch_rerank(chans, queries)) == want
    for queries, bad in (([3.5, 4], 3.5), ([4, "4"], "4"), ([4, None], None), ([thing, 4], thing), ([4, [1]], [1]),
                         ([4, ()], ()), ([4, np.array([3])], np.array([3]))):
        assert _raised(lambda: channels[1].index.positions(queries)) == (
            UnknownItemError, f"item {bad} not in index for channel 'ch1'"
        )
    got = batch_rerank(channels, [3.0, 4])
    assert _exact(got) == _exact([rerank_query(channels, q) for q in (3.0, 4)])
    assert got[0].entries[1:] == rerank_query(channels, 3).entries[1:]


@pytest.mark.parametrize("m", [1, 2])
def test_a_query_id_of_another_type_is_named_by_its_stored_id(tmp_path, m):
    # 3.0, np.float64(3) and np.int64(3) are item 3: the ranking, single or
    # batched (and tier 1's), names the query and its first entry by the
    # stored int, and the TSV reads 3, not 3.0
    channels = random_channels(np.random.default_rng(27), 30, m, 5)
    want = [rerank_query(channels, q) for q in (3, 4, 3)]
    write_rankings_tsv(want, tmp_path / "want.tsv")
    for q in (3.0, np.float64(3), np.int64(3)):
        got = [rerank_query(channels, q), *batch_rerank(channels, [q, 4, q])]
        assert _exact(got) == _exact(want[:1] + want)
        assert all(type(r.query) is int and type(r.entries[0][0]) is int for r in got)
        assert type(tier1_rerank(channels[0].index, q).query) is int
        write_rankings_tsv(got[1:], tmp_path / "got.tsv")
        assert (tmp_path / "got.tsv").read_text() == (tmp_path / "want.tsv").read_text()
    assert (tmp_path / "want.tsv").read_text().startswith("3\t1\t3\t")


def test_a_channel_refuses_bad_ks_and_alpha_when_made():
    # resolve_k's checks, run where a channel is made and again by
    # dataclasses.replace, so that no ranking meets a bad k or alpha. A NaN
    # alpha is neither above 0 nor below infinity; either would leave W's
    # row without an order, and the selection without a ranking
    ch = random_channels(np.random.default_rng(23), 40, 1, 5)[0]
    cases = [
        ({"k1": 6}, "k1/k2 cannot exceed the index k=5"),
        ({"k2": 6}, "k1/k2 cannot exceed the index k=5"),
        ({"k2": 0}, "k1 and k2 must be >= 1"),
        ({"k1": 0}, "k1 and k2 must be >= 1"),
        ({"k1": -1}, "k1 and k2 must be >= 1"),
        ({"alpha": 0.0}, "alpha must be positive"),
        # a k that is no integer, which a slice would refuse with a TypeError
        ({"k1": 2.0}, "k1 and k2 must be integers, got 2.0 and 5"),
        ({"k2": np.float64(3)}, "k1 and k2 must be integers, got 5 and np.float64(3.0)"),
        ({"k2": True}, "k1 and k2 must be integers, got 5 and True"),
        ({"alpha": float("nan")}, "alpha must be positive and finite, got nan"),
        ({"alpha": float("inf")}, "alpha must be positive and finite, got inf"),
    ]
    fields = {"name": ch.name, "index": ch.index, "k1": ch.k1, "k2": ch.k2, "alpha": ch.alpha, "features": ch.features}
    for change, message in cases:
        assert _raised(lambda: Channel(**{**fields, **change})) == (ValueError, message)
        assert _raised(lambda: replace(ch, **change)) == (ValueError, message)
    unset = replace(ch, k1=None, k2=None)  # an unset k is the index's
    assert (unset.k1, unset.k2) == (5, 5) and _exact([rerank_query([unset], 3)]) == _exact([rerank_query([ch], 3)])


def test_a_vector_query_on_a_channel_without_features_is_a_format_error():
    rng = np.random.default_rng(24)
    channels = random_channels(rng, 30, 2, 5)
    bare = [channels[0], replace(channels[1], features=None)]
    assert _raised(lambda: rerank_vector_query(bare, rng.normal(size=4))) == (
        FormatError, "channel 'ch1' has no feature matrix for vector queries"
    )


def test_a_rule_of_one_query_a_block_runs_blocks_of_one(monkeypatch):
    # when one query's estimate fills the budget, a block holds one query:
    # the batch runs blocks of one, not the per-query loop, which would
    # build the channels' fused table. Two channels of k1 = 200 over
    # 10,000 items do
    assert _block_queries([200, 200], 10_000) == 1
    rng = np.random.default_rng(21)
    channels = random_channels(rng, 60, 2, 6)
    assert _block_size(channels) > 1
    want = [rerank_query(random_channels(np.random.default_rng(21), 60, 2, 6), q) for q in [3, 7, 7, 40, 12]]
    monkeypatch.setattr(pipeline, "_BLOCK_BUDGET", 1)
    assert _block_size(channels) == 1
    sizes, block = [], pipeline._rerank_block
    monkeypatch.setattr(pipeline, "_rerank_block", lambda chs, qs, *rest: sizes.append(len(qs)) or block(chs, qs, *rest))
    monkeypatch.setattr(pipeline, "_rerank", lambda *args: pytest.fail("the per-query loop ran"))
    assert _exact(batch_rerank(channels, [3, 7, 7, 40, 12])) == _exact(want)
    assert sizes == [1] * 5 and all(ch.index._fused == {} for ch in channels)


@pytest.mark.parametrize("size", [1, 2, 5, 8, _block_queries([6] * 3, 80)])
def test_a_block_gathers_rows_a_fixed_number_of_times_per_channel(monkeypatch, size):
    # one gather of the queries' rows and one of their candidates' rows per
    # channel, and one read of the candidates' counts, whatever the block's
    # size, a batch of one included. The per-channel tiered graphs and
    # fuse_graphs stay off the path
    rng = np.random.default_rng(17)
    channels = random_channels(rng, 80, 3, 6)
    batch_rerank(channels, [0, 1])  # builds the tables
    rows, counts = [], []
    position_rows, center_counts = NeighborhoodIndex.position_rows, NeighborhoodIndex.center_counts

    def counting_rows(self, *args):
        rows.append(self.channel_name)
        return position_rows(self, *args)

    def counting_counts(self, *args):
        counts.append(self.channel_name)
        return center_counts(self, *args)

    monkeypatch.setattr(NeighborhoodIndex, "position_rows", counting_rows)
    monkeypatch.setattr(NeighborhoodIndex, "center_counts", counting_counts)
    batch_rerank(channels, rng.choice(80, size=size).tolist())
    assert sorted(rows) == sorted(["ch0", "ch1", "ch2"] * 2)
    assert sorted(counts) == ["ch0", "ch1", "ch2"]


def test_batch_memory_is_bounded_by_the_block():
    # beyond the rankings it returns, a batch of 240 ids holds no more
    # memory than its largest block does alone
    rng = np.random.default_rng(18)
    channels = random_channels(rng, 3000, 3, 20)
    queries = rng.choice(3000, size=240).tolist()
    batch_rerank(channels, queries[:2])  # builds the tables

    def working_peak(batch):
        tracemalloc.start()
        try:
            kept = batch_rerank(channels, batch)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == len(batch)
        return peak - current

    size = _block_size(channels)
    blocks = [queries[i : i + size] for i in range(0, 240, size)]
    assert working_peak(queries) <= 1.1 * max(working_peak(block) for block in blocks)


@pytest.mark.parametrize("k1s", [(85, 85, 85), (255,), (128, 128), (127, 129)])
def test_a_batch_at_the_scratch_dtypes_edge_equals_the_loop(k1s):
    # Σk1 = 255 holds every column and "no column" (255) in one byte, and
    # 256 takes two; unions near Σk1 put W's columns next to that max. One
    # channel's alpha is no power of two
    rng = np.random.default_rng(sum(k1s) + len(k1s))
    channels = [replace(ch, k1=k1, k2=5) for ch, k1 in zip(random_channels(rng, 1500, len(k1s), max(k1s)), k1s)]
    channels[0] = replace(channels[0], alpha=0.7)
    assert np.min_scalar_type(sum(k1s)) == (np.uint8 if sum(k1s) == 255 else np.uint16)
    queries = rng.choice(1500, size=2 * _block_size(channels) + 1).tolist()
    got = batch_rerank(channels, queries, 300)
    assert _exact(got) == _exact([rerank_query(channels, q, 300) for q in queries])
    assert max(len(r) for r in got) > 0.9 * sum(k1s) - len(k1s)  # k_final 300 ranks every candidate
    vectors = rng.normal(size=(2 * _vector_block_size(channels) + 1, 4))
    assert _exact(batch_rerank_vectors(channels, vectors, 300)) == _exact(_loop(channels, vectors, 300))


def _kernel_cases(rng):
    """Fused channels at (n, k): n < k pads stored rows with -1 beside an out-of-sample query's wider row."""
    for n, k in ((5, 8), (40, 6)):
        channels = random_channels(rng, n, 3, k)
        yield [replace(ch, k1=k1, alpha=a) for ch, k1, a in zip(channels, (k, 3, k - 1), (1.0, 0.3, 1.7))]


def test_a_blocks_w_is_each_querys_own_w(monkeypatch):
    # query b's W in a block's stack, on its real rows and columns, is the
    # W that one query builds off the fused table bit for bit, for ids and
    # for vectors; its padding holds nothing. Each W is compared as built:
    # both loops then write -inf on its diagonal, and on nothing else
    rng = np.random.default_rng(86)
    stacks, alone = [], []
    add_counts, greedy = pipeline.add_counts, pipeline.greedy_loop

    def watched_add(matrix, *args):  # (the stack, a copy as built after its last channel)
        add_counts(matrix, *args)
        if stacks and stacks[-1][0] is matrix:
            stacks.pop()
        stacks.append((matrix, matrix.copy()))

    def watched_loop(w, *args):
        alone.append((w, w.copy()))
        return greedy(w, *args)

    monkeypatch.setattr(pipeline, "add_counts", watched_add)
    monkeypatch.setattr(pipeline, "greedy_loop", watched_loop)
    for channels in _kernel_cases(rng):
        queries = rng.choice(channels[0].index.n, size=2 * _block_size(channels) + 3).tolist()
        vectors = rng.normal(size=(2 * _vector_block_size(channels) + 3, 4))
        for batch, loop in ((lambda: batch_rerank(channels, queries), lambda: [rerank_query(channels, q) for q in queries]),
                            (lambda: batch_rerank_vectors(channels, vectors), lambda: _loop(channels, vectors))):
            stacks.clear(), alone.clear()
            batch()
            assert alone == [] and len(stacks) > 1
            loop()
            blocks = [(masked, w) for stack, built in stacks
                      for masked, w in zip(*(np.split(m, m.shape[0] // m.shape[1]) for m in (stack, built)))]
            assert len(blocks) == len(alone)
            for (masked, block), (used, w) in zip(blocks, alone):
                c = w.shape[0]
                assert np.ascontiguousarray(block[:c, :c]).tobytes() == np.ascontiguousarray(w).tobytes()
                assert not block[c:].any() and not block[:, c:].any()
                assert np.isfinite(w).all() and (w >= 0).all()
                for final, built in ((masked[:c, :c], block[:c, :c]), (used, w)):
                    assert (np.isneginf(final) == np.eye(c, dtype=bool)).all()
                    assert (final[~np.eye(c, dtype=bool)] == built[~np.eye(c, dtype=bool)]).all()


def _w_by_sums(channels, cand):
    """W of the candidate ids ``cand`` as a plain dict of sums, {(center, candidate): weight}.

    Per channel in the given order, each candidate u centers its k1 row
    (``neighbor_positions``), and each entry there that names a candidate j
    adds alpha times its count: the entry's cell of ``overlap_table`` for a
    stored center, and for slot n's the size of the overlap of j's k2 row
    with u's k1 row, counted on sets of row positions.
    """
    sums = {}
    for ch in channels:
        index, table = ch.index, ch.index.overlap_table(ch.k1, ch.k2)
        for u in cand:
            at, near = index._position(u), index.neighbor_positions(u, ch.k1).tolist()
            for c, j in enumerate(index.ids_at(np.array(near, dtype=np.int64)).tolist()):
                if j not in cand:
                    continue
                if at < index.item_ids.shape[0]:
                    count = int(table[at, c])
                else:
                    count = len(set(index.neighbor_positions(j, ch.k2).tolist()) & set(near))
                sums[u, j] = sums.get((u, j), 0.0) + float(ch.alpha) * count
    return sums


def test_one_querys_w_is_a_plain_dict_of_sums(monkeypatch):
    # add_counts' W as a block of one (TieredPairwise's, in candidate
    # order, and one of given query rows, its rows and columns in a
    # shuffled order), and the W a single query builds off the fused
    # table, in tie-break order, byte for byte against plain loops over
    # each center's row (_w_by_sums): stored ids; a channel that stores ids
    # the others lack, so that candidates' row positions differ; slot n's
    # row, both on an overlay and given as a query row; with k1 < k, n < k
    # (-1 pads beside a wider slot n row) and alphas of 0.3 and 1.7
    rng = np.random.default_rng(88)
    built, greedy = [], pipeline.greedy_loop
    monkeypatch.setattr(pipeline, "greedy_loop", lambda w, items, *rest: built.append((w.copy(), items)) or greedy(w, items, *rest))
    for kernel_case in _kernel_cases(rng):
        channels = []
        for ch in kernel_case:  # even ids, so that odd ones can sit between them
            fm = FeatureMatrix(ch.name, 2 * ch.features.ids, ch.features.vectors)
            channels.append(replace(ch, index=build_index(fm, k=ch.index.k), features=fm))
        ids = channels[0].index.item_ids.tolist()
        shifted = [*channels[:-1], _with_extra_ids(channels[-1], [1, 3, 5])]
        assert (shifted[-1].index.positions(ids[3:]) != channels[-1].index.positions(ids[3:])).all()
        vector, vid = rng.normal(size=4), virtual_query_id(shifted)
        overlaid = overlay_query(channels, vector, vid)
        cases = [(chans, q, None, chans) for chans in (channels, shifted) for q in rng.choice(ids, 4).tolist()]
        cases += [(overlaid, q, None, overlaid) for q in (vid, *rng.choice(ids, 2).tolist())]
        cases.append((channels, vid, [ch.query_rows(vector[None], [vid]) for ch in channels], overlaid))
        for chans, q, rows, reference in cases:
            cand, _, _, _, _, lookups = pipeline._candidates(chans, [q], rows)
            c = cand.shape[0]
            if rows is None:
                col = np.arange(c)
                parts = [(ch.index, ch.k1, ch.k2) for ch in chans]
                got = TieredPairwise(parts, cand, [ch.alpha for ch in chans]).matrix
            else:
                col, got, dtype = rng.permutation(c), np.zeros((c, c)), np.min_scalar_type(c)
                scratch = np.full(max(ch.index.slots for ch in chans), np.iinfo(dtype).max, dtype=dtype)
                for ch, pos, counts, row in lookups:
                    fusion.add_counts(got, ch.index, pos, ch.k1, counts, float(ch.alpha), (col * c)[:, None],
                                      np.zeros((c, 1), dtype=np.int64), col, scratch, row)
            want, at = np.zeros((c, c)), dict(zip(cand.tolist(), col.tolist()))
            for (u, j), weight in _w_by_sums(reference, set(at)).items():
                want[at[u], at[j]] = weight
            assert got.dtype == np.float64 and np.ascontiguousarray(got).tobytes() == want.tobytes()
            built.clear()
            if rows is None:
                rerank_query(chans, q)
            else:
                rerank_vector_query(chans, vector, vid=q)
            (w, items), = built
            sums = _w_by_sums(reference, set(items.tolist()))
            want = np.array([[sums.get((u, j), 0.0) for j in items.tolist()] for u in items.tolist()])
            assert w.dtype == np.float64 and w.tobytes() == want.tobytes()
        n = channels[0].index.n  # with n < k, a stored center's row is padded beside slot n's
        assert any((ch.index.position_rows(np.array([0, n]), ch.k1) < 0).any() for ch in overlaid) == (n < channels[0].index.k)


def test_every_block_leaves_its_scratch_at_no_column(monkeypatch):
    # the block kernel writes its candidates' columns and resets them: after
    # every block of ids or of vectors, every slot of the batch's scratch
    # holds its dtype's max again
    rng = np.random.default_rng(87)
    blocks, seen = pipeline._blocks, []

    def watched(channels, count, per):
        for at, scratch in blocks(channels, count, per):
            yield at, scratch
            seen.append((scratch.dtype, (scratch == np.iinfo(scratch.dtype).max).all()))

    monkeypatch.setattr(pipeline, "_blocks", watched)
    for channels in _kernel_cases(rng):
        dtype = np.min_scalar_type(sum(ch.k1 for ch in channels))
        seen.clear()
        batch_rerank(channels, rng.choice(channels[0].index.n, size=2 * _block_size(channels) + 3).tolist())
        batch_rerank_vectors(channels, rng.normal(size=(2 * _vector_block_size(channels) + 3, 4)))
        assert len(seen) == 6 and seen == [(dtype, True)] * 6


# --- overlap table ---------------------------------------------------------------


def test_overlap_table_is_built_once_per_index_and_k(table_builds):
    # the first fused query, here a vector query on overlays, builds each
    # channel's table; every later query, overlay or batch reads it
    rng = np.random.default_rng(50)
    channels = random_channels(rng, 120, 3, 6)
    queries = rng.choice(120, size=30, replace=False).tolist()
    vid = virtual_query_id(channels)
    for j, query in enumerate(queries):
        rerank_vector_query(channels, rng.normal(size=4), vid=vid + j)
        rerank_query(channels, query)
    batch_rerank(channels, queries)
    assert sorted(table_builds) == [("ch0", 6, 6), ("ch1", 6, 6), ("ch2", 6, 6)]


@pytest.mark.parametrize(("n", "k1", "k2"), [(40, 8, 8), (40, 3, 8), (40, 8, 3), (5, 8, 8), (5, 2, 8)])
def test_overlays_share_the_table(table_builds, n, k1, k2):
    # with n = 5 < k = 8 the virtual row is one entry wider than the stored
    # rows; a table built through an overlay is still the stored index's
    rng = np.random.default_rng(51)
    channel = random_channels(rng, n, 1, 8)[0]
    overlay = overlay_query([channel], rng.normal(size=4), n)[0].index
    table = overlay.overlap_table(k1, k2)
    assert channel.index.overlap_table(k1, k2) is table
    assert not table.flags.writeable and table.shape == (n, min(k1, n))
    fresh = build_index(channel.features, k=8).overlap_table(k1, k2)
    assert fresh.dtype == table.dtype and np.array_equal(fresh, table)
    assert table_builds == [("ch0", k1, k2)] * 2


@settings(max_examples=100, deadline=None)
@given(_query_instances())
def test_overlap_table_matches_oracle_property(instance):
    channels, _, _ = instance
    for ch in channels:
        table = ch.index.overlap_table(ch.k1, ch.k2)
        plain = [replace(ch, alpha=1.0)]
        for u in ch.index.items():
            want = [oracle_pairwise(plain, u, j) for j in ch.index.neighbor_ids(u, ch.k1).tolist()]
            assert table[ch.index.positions([u])[0]].tolist() == want


def test_restricted_channels_get_their_own_table(table_builds):
    # one overlap table per (k1, k2), and one fused table per channel set
    # and (k1, k2): restricting k, or k2 alone, ranks as a fresh index does
    rng = np.random.default_rng(52)
    channels = random_channels(rng, 150, 2, 10)
    vector = rng.normal(size=4)
    for k1, k2 in ((4, 4), (4, 10)):
        narrow = [replace(ch, k2=k2) for ch in restricted_channels(channels, k=k1, m=2)]
        fresh = [replace(ch, index=build_index(ch.features, k=k2), k1=k1, k2=k2) for ch in channels]
        for query in range(0, 150, 7):
            rerank_query(channels, query)
            assert rerank_query(narrow, query) == rerank_query(fresh, query)
        assert rerank_vector_query(narrow, vector) == rerank_vector_query(fresh, vector)
        assert len(_fused_tables(narrow)) == (2 if k2 == 4 else 3) and len(_fused_tables(fresh)) == 1
        for ch, other in zip(channels, fresh):
            assert np.array_equal(ch.index.overlap_table(k1, k2), other.index.overlap_table(k1, k2))
    assert channels[0].index.overlap_table(10, 10).shape == (150, 10)
    built = [("ch0", 10, 10), ("ch1", 10, 10)] + [("ch0", 4, 4), ("ch1", 4, 4), ("ch0", 4, 10), ("ch1", 4, 10)] * 2
    assert sorted(table_builds) == sorted(built)


def test_single_channel_and_vector_only_runs_build_no_table(table_builds):
    rng = np.random.default_rng(53)
    channels = random_channels(rng, 60, 1, 6)
    index = channels[0].index
    for query in range(0, 60, 5):
        rerank_query(channels, query)
        tiered_graph(index, query)
        tier1_rerank(index, query)
    for _ in range(10):
        rerank_vector_query(channels, rng.normal(size=4))
    batch_rerank(channels, range(60))
    assert table_builds == []


def test_threads_racing_on_a_cold_table_cache_agree():
    # six threads (more than the cores) start fused queries on cold
    # indexes; whichever builds first, every thread reads one fused table,
    # whose one scratch each query writes and resets under its lock, and
    # one overlap table per channel, and ranks as a serial run does
    rng = np.random.default_rng(54)
    channels = random_channels(rng, 200, 3, 8)
    queries = list(range(0, 200, 9))
    want = [rerank_query(random_channels(np.random.default_rng(54), 200, 3, 8), q) for q in queries]
    got, tables = {}, {}

    def work(worker):
        got[worker] = [rerank_query(channels, q) for q in queries]
        tables[worker] = [ch.index.overlap_table(8, 8) for ch in channels] + _fused_tables(channels)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got[w] == want for w in range(6))
    assert len(tables[0]) == 4 and all(a is b for w in range(6) for a, b in zip(tables[w], tables[0]))


@pytest.mark.parametrize(("k1", "k2", "dtype"), [
    (255, 260, np.uint8), (256, 260, np.uint16), (260, 260, np.uint16), (260, 256, np.uint16),
])
def test_overlap_counts_never_wrap(k1, k2, dtype):
    # at k = n = 260 every row holds every item, so each count is min(k1, k2),
    # which a uint8 table would wrap from 256 up
    n = 260
    channels = []
    for c in range(2):
        fm = FeatureMatrix(f"c{c}", range(n), np.arange(n, dtype=np.float64)[:, None] * (c + 1))
        channels.append(Channel(f"c{c}", build_index(fm, k=n), k1, k2))
    table = channels[0].index.overlap_table(k1, k2)
    assert table.dtype == dtype and (table == min(k1, k2)).all()
    weights = pipeline._candidates(channels, [0])[3]
    assert weights.shape == (k1,) and (weights == 2.0 * min(k1, k2)).all()


# --- fused table -----------------------------------------------------------------


def _fused_tables(channels):
    """Every fused table cached on the channels' indexes."""
    return [table for ch in channels for table in ch.index._fused.values()]


@settings(max_examples=150, deadline=None)
@given(_query_instances(), st.sampled_from([None, 1, 2, 5]), st.data())
def test_single_queries_off_the_fused_table_match_the_oracles_property(instance, k_final, data):
    # rerank_query and rerank_vector_query against oracles.py alone, and a
    # vector query against its batch of one: stored ids and vectors, n < k,
    # k1 ≠ k2, alphas other than 1, channel names permuted against input
    # order and the input order shuffled, and a channel that stores ids the
    # others lack, so that the table is not shared. Alphas of 0.1, 0.2 and
    # 0.7 sum to another float in another order, so that W's query row must
    # add its channels in name order. The first query builds one table; a
    # second query, and one with another alpha, read it
    channels, query, vector = instance
    channels = data.draw(st.permutations(channels))
    if data.draw(st.booleans()):
        channels = [replace(ch, alpha=a) for ch, a in zip(channels, data.draw(st.permutations([0.1, 0.2, 0.7])))]
    ids = channels[0].index.item_ids.tolist()
    extra = data.draw(st.booleans())
    if extra:
        where, free = data.draw(st.integers(0, len(channels) - 1)), {i + 1 for i in ids} - {*ids, query}
        channels[where] = _with_extra_ids(channels[where], sorted(free | {ids[-1] + 2})[:3])  # never the vid

    def check(chans, q, v):
        if v is None:
            got, want = rerank_query(chans, q, k_final), _oracle_rerank(chans, q, k_final)
        else:
            got = rerank_vector_query(chans, v, k_final=k_final, vid=q)
            want = _oracle_rerank(_oracle_overlay(chans, v, q), q, k_final)
            assert batch_rerank_vectors(chans, [v], k_final, vid=q)[0].entries == got.entries
        assert got.entries == want

    check(channels, query, vector)
    tables = _fused_tables(channels)
    assert len(tables) == 1 and tables[0].shared is not extra
    check(channels, data.draw(st.sampled_from(ids)), None)
    changed = [replace(channels[0], alpha=data.draw(st.sampled_from([0.3, 1.7]))), *channels[1:]]
    check(changed, data.draw(st.sampled_from(ids)), None)
    assert _fused_tables(changed) == tables


def test_single_query_errors_keep_their_class_message_and_order():
    # an id no channel stores is named on the first channel in input
    # order; a candidate that one channel does not store is that channel's
    # lookup error, ahead of a bad k_final, alone and in a batch, before
    # and after the table is built. A query that fails builds no table
    rng = np.random.default_rng(32)
    a, b = [replace(ch, index=build_index(fm, k=5), features=fm) for ch in random_channels(rng, 20, 2, 5)
            for fm in [FeatureMatrix(ch.name, ch.features.ids + 10, ch.features.vectors)]]  # ids 10..29
    for chans in ([a, b], [b, a]):
        assert _raised(lambda: rerank_query(chans, 99)) == (
            UnknownItemError, f"item 99 not in index for channel {chans[0].name!r}"
        )
    # ch1 also stores ids 0 and 1 at items 10's and 11's vectors: its row of item 10 names 0, and
    # each id it shares with ch0 sits two row positions further on
    both = FeatureMatrix("ch1", [*range(10, 30), 0, 1], np.concatenate((b.features.vectors, b.features.vectors[:2])))
    wide = replace(b, index=build_index(both, k=5), features=both)
    assert 0 in wide.index.neighbor_ids(10, 5).tolist()
    fine = next(q for q in range(10, 30) if {0, 1}.isdisjoint(wide.index.neighbor_ids(q, 5).tolist()))
    missing = (UnknownItemError, "item 0 not in index for channel 'ch0'")
    for chans, built in (([a, wide], 0), ([a, wide], 1), ([wide, a], 1)):  # ch0's index holds the table
        assert _raised(lambda: rerank_query(chans, 10)) == missing
        assert _raised(lambda: rerank_query(chans, 10, k_final=0)) == missing
        assert _raised(lambda: batch_rerank(chans, [fine, 10])) == missing
        assert _raised(lambda: rerank_query(chans, 0)) == missing
        assert _raised(lambda: rerank_query(chans, fine, k_final=0)) == (ValueError, "k must be >= 1")
        assert len(_fused_tables(chans)) == built
        assert rerank_query(chans, fine).entries == _oracle_rerank(chans, fine, None)
    # vectors map each channel's rows into the id union: one at item 10 names 0 on ch1, one beside
    # item ``fine`` does not; each ranks, or fails, as its batch of one does
    near, far = b.features.vectors[0], b.features.vectors[fine - 10] + 0.01
    for chans in ([a, wide], [wide, a]):
        assert _raised(lambda: rerank_vector_query(chans, near, vid=500)) == missing
        assert _raised(lambda: batch_rerank_vectors(chans, [near], vid=500)) == missing
        got = rerank_vector_query(chans, far, vid=500)
        assert _exact([got]) == _exact(batch_rerank_vectors(chans, [far], vid=500))
        assert got.entries == _oracle_rerank(_oracle_overlay(chans, far, 500), 500, None)


def test_no_batch_or_command_builds_a_fused_table(monkeypatch, tmp_path):
    # batches of one and of many, of ids and of vectors, rank in blocks and
    # build no fused table, and neither does a one-id `tierank rerank`;
    # their rankings equal the single queries', which build one, bit for bit
    def fresh():
        return random_channels(np.random.default_rng(33), 60, 3, 6)

    channels, vectors = fresh(), np.random.default_rng(34).normal(size=(5, 4))
    for queries in ([7], [3, 9, 9, 40]):
        assert _exact(batch_rerank(channels, queries)) == _exact([rerank_query(fresh(), q) for q in queries])
    for batch in (vectors[:1], vectors):
        assert _exact(batch_rerank_vectors(channels, batch)) == _exact(_loop(fresh(), batch))
    assert _fused_tables(channels) == []
    rerank_query(channels, 7)
    assert len(_fused_tables(channels)) == 1
    for ch in channels:
        write_features_csv(ch.features, tmp_path / f"{ch.name}.csv")
    sections = "".join(f"[channel:{ch.name}]\nfeatures = {ch.name}.csv\nk1 = 6\nk2 = 4\n" for ch in channels)
    (tmp_path / "p.cfg").write_text(sections + "[rerank]\nk_final = 5\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["index", "--config", str(tmp_path / "p.cfg"), "--out-dir", str(tmp_path / "idx")]) == 0
        out.truncate(0), out.seek(0)
        builds = []
        monkeypatch.setattr(fusion, "FusedTable", lambda parts: builds.append(parts))
        assert main(["rerank", "--config", str(tmp_path / "p.cfg"), "--index-dir", str(tmp_path / "idx"),
                     "--query-ids", "7"]) == 0
    assert builds == []
    monkeypatch.undo()
    loaded = [Channel(ch.name, load_index(tmp_path / "idx" / f"{ch.name}.index"), 6, 4) for ch in channels]
    assert out.getvalue() == rerank_query(loaded, 7, 5).tsv_text()


def test_two_threads_that_miss_the_fused_cache_keep_one_table(monkeypatch):
    # both threads build, each waiting for the other to finish before it
    # keeps its table: one of the two equal tables is cached, and both
    # threads rank off it as a serial run does
    channels = random_channels(np.random.default_rng(35), 120, 3, 6)
    want = [rerank_query(random_channels(np.random.default_rng(35), 120, 3, 6), q) for q in (3, 50)]
    barrier, init, built, got = threading.Barrier(2, timeout=30), fusion.FusedTable.__init__, [], {}

    def racing_init(self, parts):
        init(self, parts)
        built.append(self)
        barrier.wait()

    monkeypatch.setattr(fusion.FusedTable, "__init__", racing_init)
    threads = [threading.Thread(target=lambda w=w, q=q: got.__setitem__(w, rerank_query(channels, q)))
               for w, q in enumerate((3, 50))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and [got.get(0), got.get(1)] == want
    (kept,) = _fused_tables(channels)
    assert len(built) == 2 and any(kept is table for table in built)
    for name in ("ids", "positions", "planes"):
        assert _bits(getattr(built[0], name)) == _bits(getattr(built[1], name))
    assert all(_bits(x) == _bits(y) for x, y in zip(built[0].maps, built[1].maps))


def _placed_counts(table, parts):
    """Each channel's overlap-table rows, put by plain loops at their entries' columns of the fused rows."""
    want = np.zeros(table.planes.shape, dtype=np.int64)
    for c, (index, k1, k2) in enumerate(parts):
        counts = index.overlap_table(k1, k2)
        for p, item in enumerate(table.ids.tolist()):
            if item not in index.item_ids:
                continue
            r = int(np.searchsorted(index.item_ids, item))
            row = table.positions[p].tolist()
            for j, entry in enumerate(index.neighbor_table[r, :k1].tolist()):
                want[c, p, row.index(int(table.maps[c][entry]))] = counts[r, j]
    return want


@pytest.mark.parametrize("case", ["shared ids", "extra ids", "overlay, n < k"])
def test_the_fused_table_fuses_the_channels_overlap_tables(case):
    # its planes are the overlap tables' rows, placed in the fused layout: a
    # channel's row of an item it lacks is all 0, and a table built through
    # overlays whose virtual row is wider than a stored one (n = 5 < k = 8)
    # is the stored indexes' table
    rng = np.random.default_rng(36)
    n, k = (5, 8) if case == "overlay, n < k" else (40, 6)
    channels = random_channels(rng, n, 3, k)
    channels = [replace(channels[0], k1=3), replace(channels[1], k2=2), channels[2]]
    if case == "extra ids":
        channels[1] = _with_extra_ids(channels[1], [10**6, 10**6 + 2])
    if case == "overlay, n < k":
        channels = overlay_query(channels, rng.normal(size=4), 100)
        assert channels[0].index.virtual[1].shape[0] > channels[0].index.neighbor_table.shape[1]
    parts = [(ch.index, ch.k1, ch.k2) for ch in channels]
    table = fusion.FusedTable(parts)
    assert table.planes.tolist() == _placed_counts(table, parts).tolist()
    for p in range(table.ids.shape[0]):
        union = {int(to[e]) for (index, k1, _), to in zip(parts, table.maps) if table.ids[p] in index.item_ids
                 for e in index.neighbor_table[np.searchsorted(index.item_ids, table.ids[p]), :k1].tolist()}
        assert table.positions[p].tolist() == sorted(union) + [table.pad] * (table.positions.shape[1] - len(union))
    if case == "overlay, n < k":
        stored = fusion.FusedTable([(replace(index, virtual=None), k1, k2) for index, k1, k2 in parts])
        for name in ("ids", "positions", "planes"):
            assert _bits(getattr(table, name)) == _bits(getattr(stored, name))


def test_a_tier3_section_feeds_the_fused_table_with_no_count(tmp_path, monkeypatch, table_builds):
    # the overlap tables that load_index reads are all a fused table needs:
    # the first single query builds it off them and counts no stored row
    channels = random_channels(np.random.default_rng(37), 60, 3, 6)
    count, counted = NeighborhoodIndex.overlap_counts, []
    monkeypatch.setattr(NeighborhoodIndex, "overlap_counts", lambda *a, **kw: counted.append(1) or count(*a, **kw))
    loaded = []
    for ch in channels:
        save_index(ch.index, tmp_path / f"{ch.name}.index", tier3=(ch.k1, ch.k2))
        loaded.append(replace(ch, index=load_index(tmp_path / f"{ch.name}.index")))
    want = [rerank_query(channels, q) for q in (4, 31)]
    table_builds.clear(), counted.clear()
    assert _exact([rerank_query(loaded, q) for q in (4, 31)]) == _exact(want)
    assert table_builds == [] and counted == [] and len(_fused_tables(loaded)) == 1
    for name in ("ids", "positions", "planes"):
        assert _bits(getattr(_fused_tables(loaded)[0], name)) == _bits(getattr(_fused_tables(channels)[0], name))


def test_the_fused_table_is_read_only():
    # queries read it at once, with no lock; none can write it
    channels = random_channels(np.random.default_rng(39), 40, 2, 6)
    rerank_query(channels, 3)
    (table,) = _fused_tables(channels)
    for array in (table.positions, table.planes):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("first", ["single", "batch", "vector"])
def test_each_overlap_table_is_built_once_whichever_query_runs_first(table_builds, first):
    # one (index, k1, k2) table, built by whichever query needs it first,
    # serves the fused table, the batches and the vector queries after it
    channels = random_channels(np.random.default_rng(38), 80, 3, 6)
    runs = {
        "single": lambda: rerank_query(channels, 5),
        "batch": lambda: batch_rerank(channels, [1, 2, 3]),
        "vector": lambda: batch_rerank_vectors(channels, np.ones((2, 4))),
    }
    runs[first]()
    assert sorted(table_builds) == [("ch0", 6, 6), ("ch1", 6, 6), ("ch2", 6, 6)]
    for run in runs.values():
        run()
    rerank_vector_query(channels, np.ones(4))
    assert sorted(table_builds) == [("ch0", 6, 6), ("ch1", 6, 6), ("ch2", 6, 6)]
    assert len(_fused_tables(channels)) == 1


# --- greedy selection ----------------------------------------------------------


def test_greedy_first_pick_is_top_fused_candidate():
    rng = np.random.default_rng(7)
    channels, fused, pw = fused_instance(rng, 40, 2, 5)
    final = greedy_select(fused, pw, k=1)
    best = max(
        (i for i in fused.nodes if i != fused.query),
        key=lambda i: (fused.edges.get(i, 0.0), -fused.rank_of(i), -i),
    )
    assert final.items == (fused.query, best)


def test_greedy_pool_of_one():
    g = _tier3(0, {0: 4.0, 9: 2.0}, (0, 9))
    fused = fuse_graphs([g])
    final = greedy_select(fused, FunctionPairwise(lambda u, i: fused.edges.get(i, 0.0), fused), k=5)
    assert final.items == (0, 9)


@pytest.mark.parametrize("candidates", [(0, 5, 9), (0,)])
def test_greedy_rejects_candidates_other_than_the_fused_nodes(candidates):
    # an extra candidate (5), or a fused node (9) the pairwise lacks
    fused = fuse_graphs([_tier3(0, {0: 4.0, 9: 2.0}, (0, 9))])
    pairwise = FunctionPairwise(lambda u, i: 1.0, fused)
    pairwise.candidate_ids = candidates
    with pytest.raises(UnknownItemError):
        greedy_select(fused, pairwise, k=5)


def test_greedy_select_takes_an_integer_matrix_and_writes_none():
    # greedy_loop writes -inf on its W's diagonal, so greedy_select hands it
    # a float64 copy: an integer matrix ranks as its float64 twin, and
    # neither matrix is written
    rng = np.random.default_rng(10)
    _, fused, pw = fused_instance(rng, 30, 2, 5)
    ints = SimpleNamespace(candidate_ids=pw.candidate_ids, matrix=pw.matrix.astype(np.int64))
    kept = ints.matrix.copy(), pw.matrix.copy()
    assert (kept[0] == kept[1]).all()
    got, want = greedy_select(fused, ints, k=12), greedy_select(fused, pw, k=12)
    assert got.items == want.items and [s.hex() for s in got.scores] == [s.hex() for s in want.scores]
    assert len(got.items) == len(pw.candidate_ids) and all(type(s) is float for s in got.scores)
    assert _bits(ints.matrix) == _bits(kept[0]) and _bits(pw.matrix) == _bits(kept[1])


def test_greedy_no_duplicates_query_first():
    rng = np.random.default_rng(8)
    for _ in range(10):
        _, fused, pw = fused_instance(rng, 30, 2, 5)
        final = greedy_select(fused, pw, k=8)
        assert final.items[0] == fused.query
        assert len(set(final.items)) == len(final.items)


def test_greedy_matches_oracle_small():
    rng = np.random.default_rng(9)
    for _ in range(15):
        channels, fused, pw = fused_instance(rng, int(rng.integers(10, 40)), 2, 5)
        got = greedy_select(fused, pw, k=6)
        want = oracle_greedy_select(fused, partial(oracle_pairwise, channels), k=6)
        assert got.items == want.items
        assert got.scores == pytest.approx(want.scores)


def test_greedy_scale_invariance_quick():
    rng = np.random.default_rng(11)
    for _ in range(10):
        channels, fused, pw = fused_instance(rng, 25, 2, 5)
        factor = float(2.0 ** rng.integers(-8, 12))
        graphs = [tiered_graph(ch.index, fused.query)[1] for ch in channels]
        scaled_fused = fuse_graphs(graphs, scales=[factor] * len(graphs))
        base = greedy_select(fused, pw, k=7)
        scaled_pw = TieredPairwise(
            [(ch.index, ch.k1, ch.k2) for ch in channels],
            sorted(scaled_fused.nodes),
            scales=[factor] * len(channels),
        )
        scaled = greedy_select(scaled_fused, scaled_pw, k=7)
        assert base.items == scaled.items


def test_single_channel_first_pick_consistent_with_tiered_list():
    rng = np.random.default_rng(12)
    for _ in range(15):
        channels = random_channels(rng, int(rng.integers(12, 35)), 1, 5)
        query = int(rng.integers(0, channels[0].index.n))
        t1, t3 = tiered_graph(channels[0].index, query)
        fused = fuse_graphs([t3])
        pw = TieredPairwise([(channels[0].index, 5, 5)], sorted(fused.nodes))
        final = greedy_select(fused, pw, k=1)
        tiered = tiered_rerank(channels[0].index, query)
        # the first greedy pick carries the same tier-3 weight as the tiered
        # runner-up; ids agree except on ties, where the tie-break hierarchies
        # legitimately differ (the tiered list also consults tier-1 weights)
        assert t3.edges[final.items[1]] == t3.edges[tiered.ids()[1]]
        if len({t3.edges[i] for i in t3.order if i != query}) == len(t3.order) - 1:
            assert final.items[1] == tiered.ids()[1]



# --- out-of-sample queries: the query's row at slot n --------------------------


@settings(max_examples=150, deadline=None)
@given(_query_instances(), st.sampled_from([None, 1, 2, 5]))
def test_a_vector_query_ranks_as_its_overlay_does_property(instance, k_final):
    # the kernels read the query's row from their argument; an overlay
    # holds the same row as the index's one virtual row. Both rank the
    # same, bit for bit, on n < k, k1 = 1, unequal k1/k2 and tied grids
    channels, vid, vector = instance
    assume(vector is not None)
    got = rerank_vector_query(channels, vector, k_final=k_final, vid=vid)
    want = rerank_query(overlay_query(channels, vector, vid), vid, k_final=k_final)
    assert _exact([got]) == _exact([want])


def _sparse_channels(rng, n, k, k1s, k2s, metric):
    """Channels on ids 3i + 2 of one tied grid, shifted per channel, at these k1 and k2."""
    ids = 3 * np.arange(n) + 2  # free ids below the first, between them and above the last
    grid = rng.integers(1, 4, size=(n, 3)).astype(np.float64)  # repeated vectors, no zero one
    channels = []
    for c, (k1, k2) in enumerate(zip(k1s, k2s)):
        fm = FeatureMatrix(f"c{c}", ids, grid + c)
        channels.append(Channel(f"c{c}", build_index(fm, k=k, metric=metric), k1, k2, 1.0 + 0.7 * c, fm))
    return channels, grid


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_vector_query_ranks_as_its_overlay_does(metric, m):
    rng = np.random.default_rng(70 + m)
    shapes = [(30, 6, (6, 3, 1), (6, 6, 2)), (5, 8, (8, 6, 8), (8, 3, 1)), (12, 1, (1, 1, 1), (1, 1, 1))]
    for n, k, k1s, k2s in shapes:  # n < k makes the query's row one wider than a stored row
        channels, grid = _sparse_channels(rng, n, k, k1s[:m], k2s[:m], metric)
        for vid in (0, 4, 3 * n + 2, 10**6):
            for vector in (grid[0], grid[1] + 0.5, rng.normal(size=3)):
                for k_final in (None, 1, 4):
                    got = rerank_vector_query(channels, vector, k_final=k_final, vid=vid)
                    want = rerank_query(overlay_query(channels, vector, vid), vid, k_final=k_final)
                    assert _exact([got]) == _exact([want])


def test_a_vector_query_builds_no_overlay_and_its_map_once(monkeypatch, tmp_path):
    # the library and the command line alike: with_virtual is never
    # called, and each channel maps feature rows to row positions once
    rng = np.random.default_rng(71)
    channels = random_channels(rng, 40, 2, 6)
    monkeypatch.setattr(NeighborhoodIndex, "with_virtual", lambda *args: pytest.fail("an overlay was built"))
    maps = []
    monkeypatch.setattr(pipeline, "_row_positions", lambda *args: maps.append(1) or _row_positions(*args))
    for j in range(5):
        for chans in (channels[:1], channels):
            rerank_vector_query(chans, rng.normal(size=4), vid=100 + j)
    assert len(maps) == 2
    for ch in channels:
        write_features_csv(ch.features, tmp_path / f"{ch.name}.csv")
    (tmp_path / "p.cfg").write_text("".join(f"[channel:{c}]\nfeatures = {c}.csv\nk1 = 6\n" for c in ("ch0", "ch1")))
    (tmp_path / "v.txt").write_text("0.1 0.2 0.3 0.4\n-1 0 1 2\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--config", str(tmp_path / "p.cfg"), "--out-dir", str(tmp_path / "idx")]) == 0
        assert main(["rerank", "--config", str(tmp_path / "p.cfg"), "--index-dir", str(tmp_path / "idx"),
                     "--query-vectors", str(tmp_path / "v.txt")]) == 0


def _extra_features(channel, rows):
    """The channel's features plus rows of ids 500, 501, ... that its index does not hold."""
    fm = channel.features
    extra = np.asarray(rows, dtype=np.float64)
    ids = [*fm.ids.tolist(), *range(500, 500 + len(rows))]
    return replace(channel, features=FeatureMatrix(fm.channel_name, ids, np.concatenate((fm.vectors, extra))))


def test_a_vector_query_keeps_every_error():
    # each error of the overlay path, with its class and message: pinned
    # here, and equal to the overlay composition's where that raises it
    rng = np.random.default_rng(72)
    a, b = random_channels(rng, 30, 2, 5)
    cos = random_channels(rng, 30, 2, 5, metric=Metric.COSINE)
    zeros = np.vstack(([0.0] * 4, cos[0].features.vectors[1:]))
    zero = replace(cos[0], features=FeatureMatrix("ch0", range(30), zeros))
    vector = rng.normal(size=4)
    near = _extra_features(a, [vector + 1e-9])  # id 500 is the vector's nearest feature row
    far = _extra_features(a, [vector + 1e3])
    huge = FeatureMatrix("ch0", range(3), np.asarray([[1e308] * 4, [0.0] * 4, [1.0] * 4]))
    overflow = Channel("ch0", build_index(huge, k=3), 3, 3, features=huge)  # an L1 distance of inf
    cases = [  # channels, vector, vid, error
        ([a, replace(b, features=None)], vector, None,
         (FormatError, "channel 'ch1' has no feature matrix for vector queries")),
        ([a, b], [0.0] * 3, None, (DimensionError, "query dim 3 != channel 'ch0' dim 4")),
        ([a, b], 1.0, None, (DimensionError, "a query vector must be 1-D, got 0-D")),
        ([a], [vector], None, (DimensionError, "a query vector must be 1-D, got 2-D")),
        (random_channels(rng, 30, 2, 1), [0.0, np.inf, 0.0, 0.0], None,
         (FormatError, "query vector contains NaN or Inf")),
        ([cos[0], b], [0.0] * 4, None, (ZeroVectorError, "cosine distance undefined for zero vector in query")),
        ([zero, b], vector, None, (ZeroVectorError, "cosine distance undefined for zero vector in channel 'ch0'")),
        ([a, b], vector, -1, (FormatError, "virtual id -1 is negative")),
        ([a, _with_extra_ids(b, [31])], vector, 31, (FormatError, "virtual id 31 collides with an indexed item")),
        ([a, b], vector, 30.5, (FormatError, "virtual row 30.5 is not led by its owner at distance 0")),
        ([near, b], vector, None, (FormatError, "virtual row 30 names item 500, which is not stored")),
        ([near], vector, None, (FormatError, "virtual row 30 names item 500, which is not stored")),
        ([overflow], [-1e308] * 4, None, (FormatError, "virtual row 3 has a non-finite distance")),
    ]
    for chans, vec, vid, error in cases:
        assert _raised(lambda: rerank_vector_query(chans, vec, vid=vid)) == error
        if error[0] is not DimensionError and chans[-1].features is not None and np.isfinite(vec).all():
            vid = virtual_query_id(chans) if vid is None else vid
            assert _raised(lambda: rerank_query(overlay_query(chans, vec, vid), vid)) == error
    # a feature row the index lacks, which the vector's nearest rows leave out, changes nothing
    for chans in ([far], [far, b]):
        got = rerank_vector_query(chans, vector)
        assert _exact([got]) == _exact([rerank_vector_query([a, b][: len(chans)], vector)])
        assert _exact([got]) == _exact([rerank_query(overlay_query(chans, vector, 30), 30)])


# --- out-of-sample queries in blocks ------------------------------------------


def _vector_block_size(channels):
    """The vectors per block that batch_rerank_vectors takes on these channels."""
    scan = max(ch.features.n for ch in channels)
    return _block_queries([ch.k1 for ch in channels], max(ch.index.n for ch in channels), scan)


def _loop(channels, vectors, k_final=None, vid=None):
    """The per-query loop that batch_rerank_vectors equals; a string or bytes vid names every query."""
    vid = virtual_query_id(channels) if vid is None else vid
    named = isinstance(vid, (str, bytes))
    return [rerank_vector_query(channels, v, k_final, vid if named else vid + j) for j, v in enumerate(vectors)]


@st.composite
def _vector_batches(draw):
    """Channels on shared sparse ids, and a batch of vectors with ties.

    m is 1 to 3, n may be below k (the query's row is then one entry wider
    than a stored row), the metric may be cosine, and vectors sit on a
    small grid: the batch repeats vectors and takes stored rows as they
    are, so distances tie at the k-th nearest. The batch holds 1, 2, a
    block's worth or a block and one more vectors.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(list(Metric)))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    low = 1 if metric == Metric.COSINE else 0  # cosine refuses a zero vector
    grid = st.lists(st.integers(low, 4), min_size=2, max_size=2)
    channels = []
    for name in draw(st.permutations([f"c{c}" for c in range(m)])):
        fm = FeatureMatrix(name, ids, np.asarray(draw(st.lists(grid, min_size=n, max_size=n)), dtype=np.float64))
        k = draw(st.integers(1, 16))
        channels.append(Channel(name, build_index(fm, k=k, metric=metric), draw(st.integers(1, k)),
                                draw(st.integers(1, k)), draw(st.sampled_from([1.0, 0.3, 1.7])), fm))
    stored = channels[0].features.vectors.tolist()
    pool = draw(st.lists(st.one_of(grid, st.sampled_from(stored)), min_size=1, max_size=4))
    count = draw(st.sampled_from([1, 2, _vector_block_size(channels), _vector_block_size(channels) + 1]))
    return channels, [draw(st.sampled_from(pool)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(_vector_batches(), st.sampled_from([None, 1, 3]), st.sampled_from([None, 0, 3]))
def test_batch_rerank_vectors_matches_the_loop_property(instance, k_final, vid):
    # bit for bit, or the loop's first error; a vid of 0 or 3 may name
    # stored ids, which both refuse alike. Where the loop raises nothing,
    # two or more vectors run in blocks, never through the loop
    channels, vectors = instance
    try:
        want = _loop(channels, vectors, k_final, vid)
    except Exception:  # noqa: BLE001 - any class, compared below
        assert _raised(lambda: batch_rerank_vectors(channels, vectors, k_final, vid)) == _raised(
            lambda: _loop(channels, vectors, k_final, vid))
        return
    with pytest.MonkeyPatch.context() as patch:
        if len(vectors) > 1:
            patch.setattr(pipeline, "_rerank", lambda *args: pytest.fail("the loop ran"))
        got = batch_rerank_vectors(channels, vectors, k_final, vid)
    assert got == want and _exact(got) == _exact(want)


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_batch_rerank_vectors_matches_the_loop(metric, m):
    # n < k (the query's row one entry wider than a stored row), k = 1 (no
    # scan), repeated vectors and stored rows, across a block boundary
    rng = np.random.default_rng(80 + m)
    shapes = [(30, 6, (6, 3, 1), (6, 6, 2)), (5, 8, (8, 6, 8), (8, 3, 1)), (12, 1, (1, 1, 1), (1, 1, 1))]
    for n, k, k1s, k2s in shapes:
        channels, grid = _sparse_channels(rng, n, k, k1s[:m], k2s[:m], metric)
        size = _vector_block_size(channels)
        pool = np.vstack((grid[:3], grid[:3] + 0.5, rng.normal(size=(3, 3))))
        for count in (1, 2, size, size + 1, 2 * size + 3):
            vectors = pool[rng.integers(0, len(pool), size=count)]
            for k_final in (None, 1, 4):
                got = batch_rerank_vectors(channels, vectors, k_final)
                assert _exact(got) == _exact(_loop(channels, vectors, k_final))


def test_a_vector_block_ranks_each_query_from_its_own_slot(monkeypatch):
    # one kNN scan per channel and block, whose rows every kernel reads at
    # their own query's slot n: no per-query call of the loop or the scan
    rng = np.random.default_rng(81)
    channels = random_channels(rng, 60, 2, 6)
    vectors = rng.normal(size=(9, 4))
    want = _loop(channels, vectors)
    scans = []
    knn_columns = pipeline.knn_columns
    monkeypatch.setattr(pipeline, "knn_columns", lambda fm, q, *args: scans.append(len(q)) or knn_columns(fm, q, *args))
    monkeypatch.setattr(pipeline, "_rerank", lambda *args: pytest.fail("the loop ran"))
    assert _exact(batch_rerank_vectors(channels, vectors)) == _exact(want)
    assert scans == [9, 9]


def test_batch_rerank_vectors_keeps_the_loops_first_error():
    rng = np.random.default_rng(82)
    a, b = random_channels(rng, 30, 2, 5)
    vectors = rng.normal(size=(5, 4))
    vectors[2] = 20.0  # far from every stored row, so no other vector's nearest is id 500 below
    nan = vectors.copy()
    nan[3, 1] = np.nan
    near = _extra_features(a, [vectors[2] + 1e-9])  # id 500 is vector 2's nearest feature row
    cases = [  # channels, vectors, vid, error
        ([a, b], nan, None, (FormatError, "query vector contains NaN or Inf")),
        ([a], nan, None, (FormatError, "query vector contains NaN or Inf")),
        ([a, b], vectors[:, :3], None, (DimensionError, "query dim 3 != channel 'ch0' dim 4")),
        ([a, b], [*vectors[:2], vectors[2, :3], *vectors[3:]], None,
         (DimensionError, "query dim 3 != channel 'ch0' dim 4")),  # ragged: no (B, d) matrix
        ([a, b], [1.0, 2.0], None, (DimensionError, "a query vector must be 1-D, got 0-D")),
        ([a], [1.0, 2.0], None, (DimensionError, "a query vector must be 1-D, got 0-D")),
        ([near, b], vectors, None, (FormatError, "virtual row 32 names item 500, which is not stored")),
        ([near], vectors, None, (FormatError, "virtual row 32 names item 500, which is not stored")),
        ([a, replace(b, features=None)], vectors, None,
         (FormatError, "channel 'ch1' has no feature matrix for vector queries")),
        ([a, b], vectors, 27, (FormatError, "virtual id 27 collides with an indexed item")),
        ([a, b], vectors, -3, (FormatError, "virtual id -3 is negative")),
        ([a, b], vectors, 30.5, (FormatError, "virtual row 30.5 is not led by its owner at distance 0")),
        ([a, b], vectors, 10**23, (FormatError, "virtual id 100000000000000000000000 does not fit in an int64")),
        ([a, b], vectors, None, None),
        ([], vectors, None, (EmptyChannelListError, "at least one channel required")),
    ]
    for chans, vecs, vid, error in cases:
        if error is None:  # k_final below one, raised after every check
            error = (ValueError, "k must be >= 1")
            assert _raised(lambda: batch_rerank_vectors(chans, vecs, 0, vid)) == error
            assert _raised(lambda: _loop(chans, vecs, 0, vid)) == error
            continue
        assert _raised(lambda: _loop(chans, vecs, None, vid)) == error
        assert _raised(lambda: batch_rerank_vectors(chans, vecs, None, vid)) == error


@pytest.mark.parametrize(("vid", "message"), [
    (2**64, "virtual id 18446744073709551616 does not fit in an int64"),
    (2**63, "virtual id 9223372036854775808 does not fit in an int64"),
    (float("inf"), "virtual id inf does not fit in an int64"),
    (-(2**63) - 1, "virtual id -9223372036854775809 is negative"),
    (float("nan"), "virtual row nan is not led by its owner at distance 0"),
    ("a", "virtual id 'a' is not a number"),  # a string, which no int64 holds either
    ("5", "virtual id '5' is not a number"),
    (b"5", "virtual id b'5' is not a number"),
])
def test_an_id_no_int64_holds_is_a_format_error_that_names_it(vid, message):
    rng = np.random.default_rng(87)
    a, b = random_channels(rng, 30, 2, 5)
    vectors = rng.normal(size=(3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        for chans in ([a], [a, b]):
            assert _raised(lambda: rerank_vector_query(chans, vectors[0], None, vid)) == (FormatError, message)
            assert _raised(lambda: batch_rerank_vectors(chans, vectors, None, vid)) == (FormatError, message)


def test_channel_query_rows_checks_every_row():
    # the checks of one query's row, run over the block: each names the first
    # row it refuses, and the id checks run row by row, each row's all before
    # the next row's, so [-5, 3] names -5 and [3, -5] names 3
    rng = np.random.default_rng(83)
    [a] = random_channels(rng, 30, 1, 5)
    vectors = rng.normal(size=(4, 4))
    vectors[2] = 20.0  # far from every stored row, so no other vector's nearest is id 500 below
    near = _extra_features(a, [vectors[2] + 1e-9])
    assert near.query_rows(vectors[:2], [40, 41]).shape == (2, 5)
    negative = (FormatError, "virtual id -5 is negative")
    stored = (FormatError, "virtual id 3 collides with an indexed item")
    cases = [
        (a, vectors, [40, -5, 3, 43], negative),
        (a, vectors, [40, 3, -5, 43], stored),
        (a, vectors[:1], [-5], negative),
        (a, vectors[:1], [3], stored),
        (a, vectors, [40, 41, 5, 43], (FormatError, "virtual id 5 collides with an indexed item")),
        (a, vectors, [40, 41, 42.5, 43], (FormatError, "virtual row 42.5 is not led by its owner at distance 0")),
        (near, vectors, [40, 41, 42, 43], (FormatError, "virtual row 42 names item 500, which is not stored")),
        (a, np.vstack((vectors[:3], [np.inf] * 4)), [40, 41, 42, 43],
         (FormatError, "query vector contains NaN or Inf")),
    ]
    for ch, vecs, vids, error in cases:
        assert _raised(lambda: ch.query_rows(vecs, vids)) == error
    rows = a.query_rows(vectors, [40, 41, 42, 43])
    for j, vector in enumerate(vectors):
        assert rows[j].tolist() == a.query_rows(vector[None], [40 + j])[0].tolist()


def test_the_kernels_read_a_block_of_query_rows_at_their_own_slots():
    # row i of a (B, w) query_row goes to the i-th slot n of the positions,
    # as each row alone would; stored rows stay as they are
    rng = np.random.default_rng(84)
    for n, k in ((40, 6), (5, 8)):
        [ch] = random_channels(rng, n, 1, k)
        rows = ch.query_rows(rng.normal(size=(3, 4)), [100, 101, 102])
        positions = np.array([n, 0, 1, n, n, 2])
        for k1 in (1, 3, k):
            near = ch.index.position_rows(positions, k1, rows)
            counts = ch.index.center_counts(positions, k1, 4, rows)
            for i, j in enumerate(np.flatnonzero(positions == n)):
                alone = ch.index.position_rows(positions[j : j + 1], k1, rows[i])
                assert near[j, : alone.shape[1]].tolist() == alone[0].tolist()
                assert (near[j, alone.shape[1] :] == -1).all()
                assert counts[j].tolist() == ch.index.center_counts(positions[j : j + 1], k1, 4, rows[i])[0].tolist()
            stored = positions < n
            assert near[stored, : min(k1, n)].tolist() == ch.index.position_rows(positions[stored], k1).tolist()


def test_a_block_of_vectors_works_within_the_budget():
    # the cli-mixed shape at a smaller n: a block's kNN scans hold a
    # distance and a mark per feature row a query, which the rule counts
    rng = np.random.default_rng(85)
    channels = random_channels(rng, 2000, 2, 50)
    batch_rerank(channels, [0, 1])  # builds the tables
    size = _vector_block_size(channels)
    assert 2 <= size < _block_size(channels)
    vectors = rng.normal(size=(size, 4))
    tracemalloc.start()
    try:
        kept = batch_rerank_vectors(channels, vectors)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == size
    assert peak - current <= _BLOCK_BUDGET
