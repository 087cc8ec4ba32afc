"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS] line when its criterion holds (run with
``pytest -s tests/test_acceptance.py`` to see them). Tolerances are stated
inline; exact means exact.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from conftest import fused_instance, gen_correlated_trial, gen_trend_channels, random_channels
from tierank.bench import bench_rerank, build_bench_channels, restricted_channels
from tierank.evaluation import GroundTruth, ns_score, precision_at
from tierank.fusion import TieredPairwise, fuse_graphs, greedy_select
from tierank.index import Metric, build_index, load_index, save_index
from tierank.oracles import oracle_greedy_select, oracle_pairwise
from tierank.pipeline import Channel, batch_rerank, rerank_query
from tierank.ranking import RankedList
from tierank.rerank import tier1_rerank, tiered_graph, tiered_rerank
from tierank.scenarios import gen_outlier_scenario, gen_two_manifold_scenario


def test_criterion_1_planted_overlap_arithmetic():
    """Exact rational overlap values on the generated outlier scenario."""
    scenario = gen_outlier_scenario(seed=0)
    index = build_index(scenario.features, k=scenario.k1, metric=Metric.L1)
    t1 = tiered_graph(index, scenario.query, k1=5, k2=5)[0]
    expected = {"O": (3, 7), "B": (3, 7), "C": (2, 8), "D": (3, 7)}
    for name, (num, den) in expected.items():
        jv = t1.overlap[scenario.ids[name]]
        assert (jv.numerator, jv.denominator) == (num, den)
        assert jv.value == Fraction(num, den)
    print("[PASS] criterion 1: outlier-scenario overlap values 3/7, 3/7, 2/8, 3/7 exact")


def test_criterion_2_outlier_demotion_vs_single_tier():
    """Tiered rerank strictly demotes the outlier; tier-1 alone ties it with B."""
    scenario = gen_outlier_scenario(seed=0)
    index = build_index(scenario.features, k=scenario.k1, metric=Metric.L1)

    tiered = tiered_rerank(index, scenario.query, k1=scenario.k1, k2=scenario.k2)
    pos = {item: p for p, item in enumerate(tiered.ids())}
    o = scenario.ids["O"]
    for name in ("B", "C", "D"):
        assert pos[o] > pos[scenario.ids[name]]

    t1 = tiered_graph(index, scenario.query, k1=5, k2=5)[0]
    assert t1.overlap[o].value == t1.overlap[scenario.ids["B"]].value
    single = tier1_rerank(index, scenario.query, k1=5, k2=5)
    spos = {item: p for p, item in enumerate(single.ids())}
    assert spos[o] < spos[scenario.ids["C"]]
    print("[PASS] criterion 2: outlier demoted below B, C, D; single-tier ties it with B above C")


def test_criterion_3_two_cluster_resolution():
    """Single channel ranks B above D; fused selection puts C and D above B."""
    scenario = gen_two_manifold_scenario(seed=0)
    idx1 = build_index(scenario.channels[0], k=scenario.k1)
    single = tiered_rerank(idx1, scenario.query)
    spos = {item: p for p, item in enumerate(single.ids())}
    b, c, d = (scenario.ids[n] for n in ("B", "C", "D"))
    assert spos[b] < spos[d]

    fused_order = scenario.manifest["fused_order"]
    assert fused_order.index(c) < fused_order.index(b)
    assert fused_order.index(d) < fused_order.index(b)
    print("[PASS] criterion 3: boundary item outranked honest clustermate on one channel; fusion fixes it")


def test_criterion_4_selection_matches_oracle():
    """Greedy selection equals exhaustive re-enumeration on 200+ random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(1, 4))
        k = int(rng.choice([3, 5, 8]))
        channels, fused, pairwise = fused_instance(rng, n, m, k)
        got = greedy_select(fused, pairwise, k=k)
        want = oracle_greedy_select(fused, partial(oracle_pairwise, channels), k=k)
        assert got.items == want.items, f"trial {trial}: {got.items} != {want.items}"
        assert got.scores == pytest.approx(want.scores)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 4: {checked} instances, exact sequence equality ({elapsed:.1f}s)")


def test_criterion_5_scale_invariance():
    """Positive rescaling of all weights never changes the selected sequence."""
    rng = np.random.default_rng(77)
    from tierank.rerank import tiered_graph

    for trial in range(100):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(1, 4))
        channels, fused, pairwise = fused_instance(rng, n, m, 5)
        factor = float(2.0 ** rng.integers(-12, 20))  # spans (0, 1e6)
        graphs = [tiered_graph(ch.index, fused.query)[1] for ch in channels]
        fused_scaled = fuse_graphs(graphs, scales=[factor] * len(graphs))
        base = greedy_select(fused, pairwise, k=6)
        pairwise_scaled = TieredPairwise(
            [(ch.index, ch.k1, ch.k2) for ch in channels],
            sorted(fused_scaled.nodes),
            scales=[factor] * m,
        )
        scaled = greedy_select(fused_scaled, pairwise_scaled, k=6)
        assert base.items == scaled.items, f"trial {trial}, factor {factor}"
    print("[PASS] criterion 5: 100 instances invariant under weight rescaling, exact")


def test_criterion_5_on_the_rankings_users_get():
    """Every channel's alpha times 2^j: the same items, every score times exactly 2^j."""
    rng = np.random.default_rng(78)
    for trial in range(12):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(2, 4))
        channels = [replace(ch, alpha=float(rng.choice([1.0, 0.3, 1.7]))) for ch in random_channels(rng, n, m, 5)]
        queries = rng.choice(n, size=3).tolist()
        base = [rerank_query(channels, q) for q in queries]
        for j in range(-12, 20):
            factor = 2.0**j
            scaled = [replace(ch, alpha=ch.alpha * factor) for ch in channels]
            want = [tuple((item, score * factor) for item, score in r.entries) for r in base]
            assert [rerank_query(scaled, q).entries for q in queries] == want, f"trial {trial}, 2^{j}"
            assert [r.entries for r in batch_rerank(scaled, queries)] == want, f"trial {trial}, 2^{j}"
    print("[PASS] criterion 5: 12 multi-channel instances, rankings scale exactly for alpha times 2^-12..2^19")


def test_criterion_6_expectation_of_tier3_weight():
    """Normalized tier-3 weight of in-class candidates tracks membership probability."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    k, p = 10, 0.6
    w_means, p_fracs = [], []
    for _ in range(1000):
        t = gen_correlated_trial(rng, k=k, p=p)
        t3 = tiered_graph(t.index, t.query)[1]
        members_in = [m for m in t.members if m in t.in_class]
        p_fracs.append((1 + len(members_in)) / k)
        if members_in:
            w_means.append(float(np.mean([t3.edges[m] / k for m in members_in])))
    w = np.asarray(w_means)
    pe = np.asarray(p_fracs)
    se = np.sqrt(w.var(ddof=1) / len(w) + pe.var(ddof=1) / len(pe))
    diff = abs(float(w.mean()) - float(pe.mean()))
    elapsed = time.perf_counter() - start
    assert diff <= 3 * se, f"diff {diff:.5f} > 3SE {3 * se:.5f}"
    assert elapsed < 120.0
    print(
        f"[PASS] criterion 6: |{w.mean():.4f} - {pe.mean():.4f}| = {diff:.4f} "
        f"<= 3SE = {3 * se:.4f} over 1000 trials ({elapsed:.1f}s)"
    )


def test_criterion_7_precision_grows_with_channels():
    """Mean precision@10 non-decreasing in channel count; m=4 beats m=1 by > 2 SE."""
    start = time.perf_counter()
    k = 12
    per_m = {1: [], 2: [], 4: []}
    for trial in range(100):
        rng = np.random.default_rng(60_000 + trial)
        mats, truth = gen_trend_channels(rng, n_classes=8, class_size=10, n_channels=4, noise=1.0)
        channels = [
            Channel(name=fm.channel_name, index=build_index(fm, k=k), k1=k, k2=k) for fm in mats
        ]
        queries = [int(q) for q in rng.choice(80, size=4, replace=False)]
        for m in (1, 2, 4):
            rankings = [rerank_query(channels[:m], q, k_final=10) for q in queries]
            per_m[m].append(precision_at(rankings, truth, 10).value)
    means = {m: float(np.mean(per_m[m])) for m in (1, 2, 4)}
    assert means[1] <= means[2] <= means[4], f"not non-decreasing: {means}"
    diff = np.asarray(per_m[4]) - np.asarray(per_m[1])
    se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    elapsed = time.perf_counter() - start
    assert float(diff.mean()) > 2 * se
    assert elapsed < 300.0
    print(
        f"[PASS] criterion 7: precision@10 means {means[1]:.1f} <= {means[2]:.1f} <= {means[4]:.1f}; "
        f"gain {diff.mean():.1f} > 2SE = {2 * se:.1f} over 100 trials ({elapsed:.1f}s)"
    )


def test_criterion_8_ns_precision_identity():
    """ns = 4 x precision@4 / 100 on every 4-per-class truth, exact in rationals."""
    rng = np.random.default_rng(31337)
    labels = {i: i // 4 for i in range(48)}
    truth = GroundTruth(labels=labels)
    for _ in range(50):
        rankings = []
        for _ in range(int(rng.integers(1, 12))):
            q = int(rng.integers(0, 48))
            rest = [i for i in range(48) if i != q]
            rng.shuffle(rest)
            items = [q] + rest[: int(rng.integers(3, 15))]
            rankings.append(RankedList(query=q, entries=tuple((i, 0.0) for i in items), tier="3"))
        ns = ns_score(rankings, truth)
        p4 = precision_at(rankings, truth, 4)
        assert ns.hits == p4.hits and ns.n_queries == p4.n_queries
        lhs = Fraction(ns.hits, ns.n_queries)
        rhs = 4 * Fraction(100 * p4.hits, 4 * p4.n_queries) / 100
        assert lhs == rhs
        assert ns.value == pytest.approx(4 * p4.value / 100, abs=1e-12)
    print("[PASS] criterion 8: ns == 4 x precision@4 / 100, exact rational identity")


def test_criterion_9_online_cost_is_collection_size_free():
    """Per-query time moves < 20% from n=10k to n=20k; absolute cost <= 10 ms."""
    rows = []
    channels_10k = build_bench_channels(n=10_000, m=3, k=50, dim=4, seed=11)
    queries_10k = list(range(0, 10_000, 47))[:200]
    for k, m, label in ((6, 3, "small-k"), (20, 3, "mid-k"), (25, 3, "large-k"), (50, 2, "widest")):
        result = bench_rerank(
            restricted_channels(channels_10k, k=k, m=m), queries_10k, repetitions=1,
            k_final=k, label=label,
        )
        rows.append(result)
        assert result.median_ms <= 10.0, f"{label}: {result.median_ms:.2f} ms"

    channels_20k = build_bench_channels(n=20_000, m=3, k=25, dim=4, seed=12)
    queries_20k = list(range(0, 20_000, 97))[:200]
    sizes = {
        "n10k": (restricted_channels(channels_10k, k=25, m=3), queries_10k),
        "n20k": (restricted_channels(channels_20k, k=25, m=3), queries_20k),
    }
    for chans, queries in sizes.values():  # warm-up
        for q in queries:
            rerank_query(chans, q, k_final=25)
    times: dict[str, list[float]] = {"n10k": [], "n20k": []}
    # one query of each size in turn, swapping which size goes first, so
    # that a slow spell on a busy machine lands on both sizes rather than on
    # one; 600 samples per size
    for step in range(600):
        for label in ("n10k", "n20k") if step % 2 == 0 else ("n20k", "n10k"):
            chans, queries = sizes[label]
            start = time.perf_counter()
            rerank_query(chans, queries[step % len(queries)], k_final=25)
            times[label].append((time.perf_counter() - start) * 1e3)
    base_ms = statistics.median(times["n10k"])
    doubled_ms = statistics.median(times["n20k"])
    rel = abs(doubled_ms - base_ms) / base_ms
    assert rel < 0.20, f"n scaling {rel * 100:.1f}%"
    table = "; ".join(f"{r.label} k={r.k} m={r.m}: {r.median_ms:.2f}ms" for r in rows)
    print(
        f"[PASS] criterion 9: {table}; n 10k->20k at k=25,m=3: "
        f"{base_ms:.2f}ms -> {doubled_ms:.2f}ms ({rel * 100:.1f}% < 20%)"
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    """Reruns and index save/load produce byte-identical rankings."""
    rng = np.random.default_rng(99)
    from conftest import random_features

    fm = random_features(rng, 1000, dim=4)
    index = build_index(fm, k=10)
    queries = [0, 17, 256, 999, 512]

    def render(idx) -> bytes:
        lines = []
        for q in queries:
            lines.extend(tiered_rerank(idx, q).tsv_lines())
        return ("\n".join(lines) + "\n").encode()

    first = render(index)
    second = render(index)
    assert first == second

    path = tmp_path / "round.index"
    save_index(index, path)
    loaded = load_index(path)
    third = render(loaded)
    assert first == third

    save_index(loaded, tmp_path / "round2.index")
    assert (tmp_path / "round.index").read_bytes() == (tmp_path / "round2.index").read_bytes()
    print("[PASS] criterion 10: repeated runs and save/load round-trips byte-identical")
