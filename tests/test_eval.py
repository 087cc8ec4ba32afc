"""Metrics, synthetic scenario generators, and the selection oracle."""

from __future__ import annotations

import math
from argparse import Namespace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FunctionPairwise, fused_instance, gen_correlated_trial, gen_trend_channels
from tierank.cli import _parse_query_ids, _parse_query_vectors
from tierank.errors import (
    ClassSizeError, DimensionError, FormatError, SizeError, TierankError, UnknownItemError, parse_number,
)
from tierank.evaluation import (
    GroundTruth,
    load_ground_truth,
    ns_score,
    precision_at,
    recall_at,
    write_ground_truth,
)
from tierank.fusion import greedy_select
from tierank.index import Metric, build_index
from tierank.oracles import oracle_greedy_select, oracle_pairwise
from tierank import index
from tierank.ranking import RankedList, read_rankings_tsv, write_rankings_tsv
from tierank.rerank import tier1_rerank, tiered_graph
from tierank.scenarios import gen_outlier_scenario, gen_two_manifold_scenario


def _ranking(query, items, tier="3"):
    return RankedList(query=query, entries=tuple((i, 0.0) for i in items), tier=tier)


def _four_class_truth(n_classes=8):
    labels = {i: i // 4 for i in range(4 * n_classes)}
    return GroundTruth(labels=labels)


# --- ns score ---------------------------------------------------------------


def test_ns_perfect_retrieval():
    truth = _four_class_truth()
    rankings = [
        _ranking(q, [q] + [i for i in range(4 * (q // 4), 4 * (q // 4) + 4) if i != q])
        for q in range(8)
    ]
    assert ns_score(rankings, truth).value == 4.0


def test_ns_only_query_correct():
    truth = _four_class_truth()
    rankings = [_ranking(0, [0, 4, 8, 12])]
    assert ns_score(rankings, truth).value == 1.0


def test_ns_requires_four_per_class():
    truth = GroundTruth(labels={0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
    with pytest.raises(ClassSizeError):
        ns_score([_ranking(0, [0, 1, 2, 3])], truth)


def test_ns_matches_hand_count_on_noisy_collection():
    rng = np.random.default_rng(0)
    truth = _four_class_truth()
    ids = list(truth.labels)
    rankings = []
    expected = []
    for q in range(16):
        rest = [i for i in ids if i != q]
        rng.shuffle(rest)
        items = [q] + rest[:9]
        rankings.append(_ranking(q, items))
        expected.append(sum(1 for i in items[:4] if truth.labels[i] == truth.labels[q]))
    report = ns_score(rankings, truth)
    assert report.value == sum(expected) / len(expected)
    assert report.hits == sum(expected)


# --- precision / recall -------------------------------------------------------


def test_precision_all_correct():
    truth = _four_class_truth()
    assert precision_at([_ranking(0, [0, 1, 2, 3])], truth, 4).value == 100.0


def test_precision_bounded_by_class_size():
    truth = _four_class_truth()
    rankings = [_ranking(0, list(range(12)))]
    report = precision_at(rankings, truth, 12)
    assert report.value <= 100.0 * 4 / 12 + 1e-12


def test_precision_random_labels_near_half():
    rng = np.random.default_rng(1)
    labels = {i: i % 2 for i in range(1000)}
    truth = GroundTruth(labels=labels)
    rankings = []
    for _ in range(500):
        q = int(rng.integers(0, 1000))
        others = rng.choice([i for i in range(1000) if i != q], size=20, replace=False)
        rankings.append(_ranking(q, [q] + [int(i) for i in others]))
    report = precision_at(rankings, truth, 20, exclude_query=True)
    assert abs(report.value - 50.0) < 3.0


def test_precision_recall_invariant_under_relabeling():
    truth_a = GroundTruth(labels={i: i // 5 for i in range(20)})
    truth_b = GroundTruth(labels={i: 100 - (i // 5) * 7 for i in range(20)})
    rankings = [_ranking(q, [q] + [(q + j) % 20 for j in range(1, 8)]) for q in range(20)]
    for r in (3, 5):
        assert precision_at(rankings, truth_a, r).value == precision_at(rankings, truth_b, r).value
        assert recall_at(rankings, truth_a, r).value == recall_at(rankings, truth_b, r).value


def test_recall_full_class_recovered():
    truth = _four_class_truth()
    assert recall_at([_ranking(0, [0, 1, 2, 3, 9])], truth, 5).value == 100.0


def test_recall_equals_precision_at_class_size():
    truth = _four_class_truth()
    rankings = [_ranking(0, [0, 1, 2, 3])]
    p = precision_at(rankings, truth, 4)
    r = recall_at(rankings, truth, 4)
    assert p.value == 100.0 and r.value == 100.0


def test_recall_scale_for_large_classes():
    # class of 100, 12 returns, all correct: recall = 12%
    labels = {i: i // 100 for i in range(200)}
    truth = GroundTruth(labels=labels)
    rankings = [_ranking(0, list(range(12)))]
    assert precision_at(rankings, truth, 12).value == 100.0
    assert recall_at(rankings, truth, 12).value == 12.0


def test_ns_precision_identity_exact():
    rng = np.random.default_rng(2)
    truth = _four_class_truth(n_classes=6)
    ids = list(truth.labels)
    for trial in range(20):
        rankings = []
        n_queries = int(rng.integers(1, 9))
        for _ in range(n_queries):
            q = int(rng.integers(0, len(ids)))
            rest = [i for i in ids if i != q]
            rng.shuffle(rest)
            rankings.append(_ranking(q, [q] + rest[: int(rng.integers(3, 12))]))
        ns = ns_score(rankings, truth)
        p4 = precision_at(rankings, truth, 4)
        assert ns.hits == p4.hits and ns.n_queries == p4.n_queries
        assert Fraction(ns.hits, ns.n_queries) == 4 * Fraction(100 * p4.hits, 4 * p4.n_queries) / 100
        assert ns.value == pytest.approx(4 * p4.value / 100, abs=1e-12)


def test_exclude_query_switch():
    truth = _four_class_truth()
    rankings = [_ranking(0, [0, 1, 4, 8])]
    with_q = precision_at(rankings, truth, 2)
    without_q = precision_at(rankings, truth, 2, exclude_query=True)
    assert with_q.hits == 2  # query + one classmate
    assert without_q.hits == 1  # classmate only, window shifts past the query


def test_ground_truth_round_trip(tmp_path):
    truth = GroundTruth(labels={0: 3, 1: 3, 7: 5})
    path = tmp_path / "truth.csv"
    write_ground_truth(truth, path)
    back = load_ground_truth(path)
    assert back.labels == truth.labels
    assert back.class_sizes == truth.class_sizes == {3: 2, 5: 1}


def test_ground_truth_works_out_its_class_sizes_and_takes_none():
    with pytest.raises(TypeError, match="class_sizes"):
        GroundTruth(labels={0: 3}, class_sizes={3: 1})


@pytest.mark.parametrize("first", ["5,x", "x7,1", "5,1.5"])
def test_truth_malformed_first_line_is_an_error(tmp_path, first):
    # a first line with any numeric field is data, not a header: it used to
    # be dropped, losing that item's label
    path = tmp_path / "truth.csv"
    path.write_text(f"{first}\n1,2\n")
    with pytest.raises(FormatError, match=r"truth\.csv:1: "):
        load_ground_truth(path)


def test_truth_header_still_loads(tmp_path):
    # the header is the first non-blank line, as in a feature CSV
    path = tmp_path / "truth.csv"
    path.write_text("\nid,class\n0,1\n\n1,2\n")
    assert load_ground_truth(path).labels == {0: 1, 1: 2}
    path.write_text("\nid,class\n0,1\n\n1,x\n")
    with pytest.raises(FormatError, match=r"truth\.csv:5: non-integer"):
        load_ground_truth(path)


def test_unlabeled_item_rejected():
    truth = GroundTruth(labels={0: 0, 1: 0, 2: 0, 3: 0})
    with pytest.raises(UnknownItemError):
        precision_at([_ranking(0, [0, 99])], truth, 2)


# --- scenario generators --------------------------------------------------------


def test_outlier_scenario_deterministic_per_seed():
    a = gen_outlier_scenario(seed=5)
    b = gen_outlier_scenario(seed=5)
    assert np.array_equal(a.features.vectors, b.features.vectors)
    c = gen_outlier_scenario(seed=6)
    assert not np.array_equal(a.features.vectors, c.features.vectors)


def test_outlier_scenario_relations():
    s = gen_outlier_scenario(seed=0)
    index = build_index(s.features, k=s.k1, metric=Metric.L1)
    t1 = tiered_graph(index, s.query)[0]
    assert t1.overlap[s.ids["O"]].value == Fraction(3, 7)
    assert t1.overlap[s.ids["C"]].value == Fraction(2, 8)
    single = tier1_rerank(index, s.query)
    pos = {item: p for p, item in enumerate(single.ids())}
    # first-tier ranking keeps the outlier level with B, above C
    assert t1.overlap[s.ids["O"]].value == t1.overlap[s.ids["B"]].value
    assert pos[s.ids["O"]] < pos[s.ids["C"]]


def test_two_manifold_scenario_relations():
    s = gen_two_manifold_scenario(seed=0)
    assert s.manifest["single_channel_order"].index(s.ids["B"]) < s.manifest[
        "single_channel_order"
    ].index(s.ids["D"])
    fused_order = s.manifest["fused_order"]
    assert fused_order.index(s.ids["C"]) < fused_order.index(s.ids["B"])
    assert fused_order.index(s.ids["D"]) < fused_order.index(s.ids["B"])


def test_two_manifold_fusion_linearity():
    from tierank.fusion import fuse_graphs

    s = gen_two_manifold_scenario(seed=1)
    idx1 = build_index(s.channels[0], k=s.k1)
    idx2 = build_index(s.channels[1], k=s.k1)
    _, g1 = tiered_graph(idx1, s.query)
    _, g2 = tiered_graph(idx2, s.query)
    fused = fuse_graphs([g1, g2])
    for node in fused.nodes:
        assert fused.edges[node] == g1.edges.get(node, 0.0) + g2.edges.get(node, 0.0)


# --- statistical fixtures ----------------------------------------------------


def test_correlated_trial_expectation_small():
    rng = np.random.default_rng(3)
    k, p = 8, 0.5
    w_means, p_fracs = [], []
    for _ in range(300):
        t = gen_correlated_trial(rng, k=k, p=p)
        t3 = tiered_graph(t.index, t.query)[1]
        members_in = [m for m in t.members if m in t.in_class]
        p_fracs.append((1 + len(members_in)) / k)
        if members_in:
            w_means.append(float(np.mean([t3.edges[m] / k for m in members_in])))
    w = np.asarray(w_means)
    pe = np.asarray(p_fracs)
    se = np.sqrt(w.var(ddof=1) / len(w) + pe.var(ddof=1) / len(pe))
    assert abs(w.mean() - pe.mean()) <= 3 * se


def test_trend_channels_fusion_helps_small():
    from tierank.pipeline import Channel, rerank_query

    deltas = []
    for trial in range(25):
        rng = np.random.default_rng(50_000 + trial)
        mats, truth = gen_trend_channels(rng, n_channels=4, noise=1.0)
        channels = [
            Channel(name=fm.channel_name, index=build_index(fm, k=12), k1=12, k2=12)
            for fm in mats
        ]
        queries = [int(q) for q in rng.choice(80, size=3, replace=False)]
        per_m = {}
        for m in (1, 4):
            rankings = [rerank_query(channels[:m], q, k_final=10) for q in queries]
            per_m[m] = precision_at(rankings, truth, 10).value
        deltas.append(per_m[4] - per_m[1])
    assert np.mean(deltas) > 0


# --- selection oracle -----------------------------------------------------------


def test_oracle_pool_of_two():
    from tierank.fusion import fuse_graphs
    from tierank.rerank import QueryGraph

    g = QueryGraph(query=0, tier=3, edges={0: 3.0, 1: 2.0, 2: 1.0}, order=(0, 1, 2), k1=3, k2=3)
    fused = fuse_graphs([g])
    final = oracle_greedy_select(fused, lambda u, i: fused.edges.get(i, 0.0), k=2)
    assert final.items == (0, 1, 2)


def test_oracle_size_cap():
    rng = np.random.default_rng(4)
    _, fused, pw = fused_instance(rng, 80, 2, 30)
    if len(fused.nodes) > 50:
        with pytest.raises(SizeError):
            oracle_greedy_select(fused, pw, k=3)


def test_oracle_degenerate_all_zero_weights_falls_back_to_ordering():
    from tierank.fusion import fuse_graphs
    from tierank.rerank import QueryGraph

    g = QueryGraph(
        query=0, tier=3, edges={0: 0.0, 3: 0.0, 1: 0.0, 2: 0.0}, order=(0, 3, 1, 2), k1=4, k2=4
    )
    fused = fuse_graphs([g])
    zero = lambda u, i: 0.0  # noqa: E731
    got = greedy_select(fused, FunctionPairwise(zero, fused), k=3)
    want = oracle_greedy_select(fused, zero, k=3)
    assert got.items == want.items
    # all scores tie at zero: order falls back to distance rank, then id
    assert got.items == (0, 3, 1, 2)


def test_oracle_agrees_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(8, 45))
        m = int(rng.integers(1, 4))
        channels, fused, pw = fused_instance(rng, n, m, 5)
        got = greedy_select(fused, pw, k=5)
        want = oracle_greedy_select(fused, partial(oracle_pairwise, channels), k=5)
        assert got.items == want.items


# --- the rankings TSV -----------------------------------------------------------------


def _bits(rankings):
    return [(r.query, r.tier, [(i, float(s).hex()) for i, s in r.entries]) for r in rankings]


def test_the_rankings_tsv_round_trips_bit_for_bit(tmp_path):
    # extreme scores and ids, a query ranked twice in a row, and an empty list
    scores = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, float("inf"), -float("inf"), 0.1, 1 / 3]
    rankings = [
        RankedList(2**63 - 1, tuple((2**62 + j, s) for j, s in enumerate(scores)), "mfr"),
        RankedList(0, ((0, 0.0), (5, 2.5)), "3"),
        RankedList(0, ((0, 0.0), (6, 1.25)), "3"),
        RankedList(7, (), "3"),
        RankedList(-4, ((-4, 0.0),), "knn"),
    ]
    path = tmp_path / "r.tsv"
    write_rankings_tsv(rankings, path)
    rows = [f"{r.query}\t{rank}\t{item}\t{score!r}\t{r.tier}\n"
            for r in rankings for rank, (item, score) in enumerate(r.entries, start=1)]
    assert path.read_text() == "".join(rows)
    assert _bits(read_rankings_tsv(path)) == _bits([r for r in rankings if r.entries])


@pytest.mark.parametrize(("text", "message"), [
    ("1\t1\t1\t0.0\tmfr\n1\t2\t4\t1.0\n", "2: expected 5 tab-separated fields"),
    ("1\t1\t1\t0.0\tmfr\n\n1\t2\t4\t1.0\tmfr\tx\n", "3: expected 5 tab-separated fields"),
    ("1\t1\t1\t0.0\tmfr\n1\t2\t4\t1_0\tmfr\n", "2: malformed ranking row"),
    ("1\t1\t1\t0.0\tmfr\n1\t2\t\u0968\t1.0\tmfr\n", "2: malformed ranking row"),  # numpy reads 2360
    ("1\t1\t1\t0.0\tmfr\n1\t2\t4\t0x1\tmfr\n", "2: malformed ranking row"),
    ("\n\n1\t1\t1\t0.0\tmfr\n1\t3\t4\t1.0\tmfr\n", "4: rank column out of order"),
    ("1\t1\t1\t0.0\tmfr\n2\t2\t4\t1.0\tmfr\n", "2: rank column out of order"),
    ("1\t2\t1\t0.0\tmfr\n", "1: rank column out of order"),
])
def test_a_rankings_tsv_error_names_its_first_bad_line(tmp_path, text, message):
    path = tmp_path / "r.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_rankings_tsv(path)
    assert str(exc.value) == f"{path}:{message}"


def test_a_rankings_tsv_reads_ids_no_int64_holds(tmp_path):
    # the one pass refuses them; the scan reads them as before
    path = tmp_path / "r.tsv"
    path.write_text(f"{2**64}\t1\t{2**64}\t0.0\tmfr\n{2**64}\t2\t-{2**70}\t1e400\tmfr\n")
    [got] = read_rankings_tsv(path)
    assert (got.query, got.entries, got.tier) == (2**64, ((2**64, 0.0), (-(2**70), float("inf"))), "mfr")


# --- every text table against a plain line loop --------------------------------


def _table_lines(path, header=False):
    """A table's non-blank lines and their numbers; with ``header``, less a first line with no number in it."""
    lines = [(n, line) for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1) if line.strip()]
    if header and lines and not any(_is_float(text) for text in lines[0][1].split(",")):
        del lines[0]
    return lines


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# each reference reads every line first, naming the first whose field count,
# token or width is wrong, and only then checks what the rows mean


def _features_by_loop(path):
    ids, vectors = [], []
    for lineno, line in _table_lines(path, header=True):
        fields = line.split(",")
        if len(fields) < 2:
            raise FormatError(f"{path}:{lineno}: need an id and at least one feature")
        try:
            item, vector = parse_number(fields[0], int), [parse_number(field) for field in fields[1:]]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed row") from None
        if vectors and len(vector) != len(vectors[0]):
            raise FormatError(f"{path}:{lineno}: expected {len(vectors[0])} features, got {len(vector)}")
        ids.append(item)
        vectors.append(vector)
    if not ids:
        raise FormatError(f"{path}: no feature rows")
    return ids, vectors


def _rankings_by_loop(path):
    rows = []
    for lineno, line in _table_lines(path):
        parts = line.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields")
        try:
            numbers = [parse_number(part, int) for part in parts[:3]] + [parse_number(parts[3])]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed ranking row") from None
        rows.append((lineno, *numbers, parts[4]))
    rankings = []
    for lineno, query, rank, item, score, tier in rows:
        if not rankings or query != rankings[-1].query or rank == 1:
            rankings.append(RankedList(query, (), tier))
        if rank != len(rankings[-1]) + 1:
            raise FormatError(f"{path}:{lineno}: rank column out of order")
        last = rankings[-1]
        rankings[-1] = RankedList(last.query, (*last.entries, (item, score)), last.tier)
    return rankings


def _truth_by_loop(path):
    rows = []
    for lineno, line in _table_lines(path, header=True):
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected `<id>,<class_id>`")
        try:
            rows.append((lineno, parse_number(parts[0], int), parse_number(parts[1], int)))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer id or class") from None
    labels = {}
    for lineno, item, cls in rows:
        if item in labels:
            raise FormatError(f"{path}:{lineno}: duplicate item id {item}")
        labels[item] = cls
    if not labels:
        raise FormatError(f"{path}: no labels")
    return labels


def _query_ids_by_loop(path):
    ids = []
    for lineno, line in _table_lines(path):
        try:
            ids.append(parse_number(line, int))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad query id") from None
    return ids


_CHANNEL = SimpleNamespace(name="a", features=SimpleNamespace(dim=2))


def _query_vectors_by_loop(path):
    vectors = []
    for lineno, line in _table_lines(path):
        try:
            vector = [parse_number(token) for token in line.replace(",", " ").split()]
        except ValueError:
            vector = []
        if not vector:
            raise FormatError(f"{path}:{lineno}: bad vector line")
        vectors.append((lineno, vector))
    if not vectors:
        raise FormatError(f"{path}: no query vectors")
    for lineno, vector in vectors:
        if not all(math.isfinite(value) for value in vector):
            raise FormatError(f"{path}:{lineno}: query vector contains NaN or Inf")
    for lineno, vector in vectors:
        if len(vector) != _CHANNEL.features.dim:
            raise DimensionError(f"{path}:{lineno}: query dim {len(vector)} != channel 'a' dim 2")
    return [vector for _, vector in vectors]


def _read_features(path):
    ids, vectors = index._load_csv(path)
    return ids.tolist(), vectors.tolist()


_HUGE = st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**30])
_ID = st.integers(0, 9) | _HUGE
_REAL = st.floats().map(repr)
_TABLES = {  # reader, reference, field separator, a good line
    "feature csv": (_read_features, _features_by_loop, ",", st.tuples(_ID.map(str), _REAL, _REAL).map(",".join)),
    "rankings tsv": (
        lambda path: _bits(read_rankings_tsv(path)), lambda path: _bits(_rankings_by_loop(path)), "\t",
        st.tuples(st.sampled_from(["1", "2", str(2**64)]), st.integers(1, 3).map(str), _ID.map(str), _REAL)
        .map(lambda row: "\t".join(row) + "\tmfr"),
    ),
    "truth csv": (
        lambda path: load_ground_truth(path).labels, _truth_by_loop, ",",
        st.tuples(_ID.map(str), _ID.map(str)).map(",".join),
    ),
    "queries file": (
        lambda path: _parse_query_ids(Namespace(query_ids=None, queries_file=path)), _query_ids_by_loop, ",",
        _ID.map(str),
    ),
    "query vectors": (
        lambda path: [list(map(float, vector)) for vector in _parse_query_vectors(path, [_CHANNEL])],
        _query_vectors_by_loop, st.sampled_from([",", " ", ", ", "\t"]),
        st.lists(_REAL, min_size=1, max_size=3).map(" ".join),
    ),
}
_TOKENS = ["0", "1", "2", "7", "-3", "+4", " 5", "1.5", "-0.0", "1e3", "nan", "inf", "", "x", "1_0", "\u0968",
           "\u01fe", "99999999999999999999", "\t", "mfr", "3", "id"]


@pytest.mark.parametrize("table", sorted(_TABLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_text_table_reads_as_its_line_loop_does(tmp_path_factory, table, data):
    # the one pass and the scan it falls back on give what a plain line loop
    # gives, rows or error, on any mix of good rows, bad tokens, blank lines
    # and ids that no int64 holds
    read, reference, sep, good = _TABLES[table]
    sep = data.draw(sep) if isinstance(sep, st.SearchStrategy) else sep
    lines = data.draw(st.lists(st.one_of(
        st.just(""), st.just(" "), good, st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=6).map(sep.join),
    ), max_size=8))
    path = tmp_path_factory.mktemp("table") / "t.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def outcome(read):
        try:
            return "ok", repr(read(path))
        except TierankError as exc:
            return type(exc).__name__, str(exc)

    assert outcome(read) == outcome(reference)
