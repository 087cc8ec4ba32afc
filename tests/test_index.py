"""Feature loading, distance metrics, and exact KNN index construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_features
from tierank.errors import (
    DimensionError,
    FileAccessError,
    FormatError,
    UnknownItemError,
    ZeroVectorError,
)
from tierank.index import (
    FeatureMatrix,
    Metric,
    build_index,
    distance,
    load_features,
    load_index,
    query_knn,
    save_index,
    write_features_binary,
    write_features_csv,
)
from tierank.oracles import brute_force_knn, brute_force_neighborhood
from tierank.rerank import tiered_rerank


# --- distance -------------------------------------------------------------


def test_l1_distance_hand_value():
    assert distance([0.0, 0.0], [1.0, 1.0], Metric.L1) == 2.0


def test_l2_distance_identity_is_zero():
    v = [0.3, -1.7, 2.5]
    assert distance(v, v, Metric.L2) == 0.0


def test_cosine_distance_orthogonal():
    assert distance([1.0, 0.0], [0.0, 1.0], Metric.COSINE) == pytest.approx(1.0, abs=1e-15)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        distance([1.0], [1.0, 2.0], Metric.L1)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        distance([0.0, 0.0], [1.0, 0.0], Metric.COSINE)


# --- feature files ----------------------------------------------------------


def test_load_csv_basic(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    fm = load_features(path, "csv")
    assert fm.dim == 2 and fm.n == 2
    assert fm.ids == (0, 1)
    assert np.array_equal(fm.vectors, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_header_detected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,x,y\n0,1.0,2.0\n")
    fm = load_features(path, "csv")
    assert fm.n == 1


def test_load_csv_dim_mismatch(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0,5.0\n")
    with pytest.raises(FormatError):
        load_features(path, "csv")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        load_features(path, "csv")


def test_load_csv_duplicate_id(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0\n0,2.0\n")
    with pytest.raises(FormatError):
        load_features(path, "csv")


def test_load_csv_rejects_nan_and_inf(tmp_path):
    for bad in ("nan", "inf"):
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"0,1.0\n1,{bad}\n")
        with pytest.raises(FormatError):
            load_features(path, "csv")


def test_load_missing_file():
    with pytest.raises(FileAccessError):
        load_features("/nonexistent/features.csv", "csv")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    fm = random_features(rng, 17, dim=3)
    path = tmp_path / "f.csv"
    write_features_csv(fm, path)
    back = load_features(path, "csv", channel_name=fm.channel_name)
    assert back.ids == fm.ids
    assert np.array_equal(back.vectors, fm.vectors)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    fm = random_features(rng, 9, dim=5)
    path = tmp_path / "f.bin"
    write_features_binary(fm, path)
    back = load_features(path, "binary", channel_name=fm.channel_name)
    assert back.ids == fm.ids
    # stored as 32-bit floats
    assert np.array_equal(back.vectors, fm.vectors.astype(np.float32).astype(np.float64))


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_features(path, "binary")


def test_binary_truncated(tmp_path):
    rng = np.random.default_rng(2)
    fm = random_features(rng, 4, dim=3)
    path = tmp_path / "f.bin"
    write_features_binary(fm, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        load_features(path, "binary")


# --- build_index ------------------------------------------------------------


def _line_features(values):
    vectors = np.asarray(values, dtype=np.float64)[:, None]
    return FeatureMatrix(channel_name="line", ids=tuple(range(len(values))), vectors=vectors)


def test_build_index_hand_case():
    fm = _line_features([0.0, 1.0, 10.0])
    index = build_index(fm, k=2, metric=Metric.L1)
    assert index.neighbors(0) == [(0, 0.0), (1, 1.0)]


def test_build_index_k_saturates_at_n():
    fm = _line_features([0.0, 1.0, 10.0])
    index = build_index(fm, k=10, metric=Metric.L1)
    for item in (0, 1, 2):
        assert len(index.neighbors(item)) == 3


def test_build_index_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    fm = random_features(rng, 20, dim=4)
    index = build_index(fm, k=5, metric=Metric.L1)
    for item in fm.ids:
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, 5, Metric.L1)


@pytest.mark.parametrize("metric", [Metric.L1, Metric.L2, Metric.COSINE])
def test_build_index_oracle_all_metrics(metric):
    rng = np.random.default_rng(4)
    vectors = rng.normal(0.0, 1.0, size=(40, 3)) + 0.5  # keep away from zero for cosine
    fm = FeatureMatrix(channel_name="m", ids=tuple(range(40)), vectors=vectors)
    index = build_index(fm, k=6, metric=metric)
    for item in list(fm.ids)[::7]:
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, 6, metric)


def test_build_index_oracle_mid_size():
    rng = np.random.default_rng(5)
    fm = random_features(rng, 150, dim=3)
    index = build_index(fm, k=8)
    for item in list(fm.ids)[::13]:
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, 8)


def test_self_first_even_with_duplicate_points():
    # items 3 and 7 share coordinates; each must still lead its own list
    vectors = np.zeros((8, 2))
    vectors[3] = [1.0, 1.0]
    vectors[7] = [1.0, 1.0]
    fm = FeatureMatrix(channel_name="dup", ids=tuple(range(8)), vectors=vectors)
    index = build_index(fm, k=3)
    for item in fm.ids:
        ids = index.neighbor_ids(item)
        assert ids[0] == item
        assert index.neighbors(item)[0][1] == 0.0


def test_prefix_monotonicity():
    rng = np.random.default_rng(6)
    fm = random_features(rng, 30, dim=2)
    small = build_index(fm, k=4)
    large = build_index(fm, k=5)
    for item in fm.ids:
        assert large.neighbor_ids(item)[:4].tolist() == small.neighbor_ids(item).tolist()


def test_build_determinism():
    rng = np.random.default_rng(7)
    fm = random_features(rng, 25, dim=3)
    a = build_index(fm, k=6)
    b = build_index(fm, k=6)
    for item in fm.ids:
        assert a.neighbors(item) == b.neighbors(item)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        min_size=1,
        max_size=24,
    ),
    st.integers(1, 8),
)
def test_index_invariants_property(points, k):
    vectors = np.asarray(points, dtype=np.float64)
    fm = FeatureMatrix(channel_name="h", ids=tuple(range(len(points))), vectors=vectors)
    index = build_index(fm, k=k)
    for item in fm.ids:
        pairs = index.neighbors(item)
        assert len(pairs) == min(k, fm.n)
        assert pairs[0] == (item, 0.0)
        rest = pairs[1:]
        assert rest == sorted(rest, key=lambda p: (p[1], p[0]))


# --- query_knn --------------------------------------------------------------


def test_query_knn_exact_match_first():
    rng = np.random.default_rng(8)
    fm = random_features(rng, 12, dim=3)
    hit = query_knn(fm, fm.vectors[4], k=3)
    assert hit.entries[0] == (4, 0.0)


def test_query_knn_k1_global_nearest():
    fm = _line_features([0.0, 5.0, 6.0])
    res = query_knn(fm, [5.4], k=1)
    assert res.ids() == (1,)


def test_query_knn_matches_bruteforce():
    rng = np.random.default_rng(9)
    fm = random_features(rng, 30, dim=4)
    q = rng.normal(0.0, 1.0, size=4)
    got = query_knn(fm, q, k=7)
    want = brute_force_knn(fm, q, 7)
    assert list(got.entries) == want


def test_query_knn_dimension_error():
    rng = np.random.default_rng(10)
    fm = random_features(rng, 5, dim=3)
    with pytest.raises(DimensionError):
        query_knn(fm, [1.0, 2.0], k=2)


# --- persistence ------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    fm = random_features(rng, 18, dim=4)
    index = build_index(fm, k=5, metric=Metric.L2)
    path = tmp_path / "ch.index"
    save_index(index, path)
    back = load_index(path)
    assert back.channel_name == index.channel_name
    assert back.k == index.k and back.metric == index.metric
    for item in fm.ids:
        assert back.neighbors(item) == index.neighbors(item)


def test_load_index_wrong_schema(tmp_path):
    path = tmp_path / "bad.index"
    path.write_text('{"schema": "something-else", "version": 1}\n')
    with pytest.raises(FormatError):
        load_index(path)


def test_load_index_negative_id(tmp_path):
    # -1 pads short neighbor rows when they are stacked, so no id may be negative
    path = tmp_path / "bad.index"
    path.write_text(
        '{"schema": "tierank.index", "version": 1, "channel": "x", "k": 2, "metric": "l1", "n": 2}\n'
        '{"id": 0, "neighbors": [[0, 0.0], [-1, 1.0]]}\n'
        '{"id": -1, "neighbors": [[-1, 0.0], [0, 1.0]]}\n'
    )
    with pytest.raises(FormatError):
        load_index(path)


def test_load_index_wrong_version(tmp_path):
    path = tmp_path / "bad.index"
    path.write_text(
        '{"schema": "tierank.index", "version": 99, "channel": "x", "k": 2, "metric": "l1", "n": 0}\n'
    )
    with pytest.raises(FormatError):
        load_index(path)


def test_round_trip_preserves_rerank_output(tmp_path):
    rng = np.random.default_rng(12)
    fm = random_features(rng, 1000, dim=4)
    index = build_index(fm, k=10)
    path = tmp_path / "big.index"
    save_index(index, path)
    back = load_index(path)
    for query in (0, 137, 999):
        assert tiered_rerank(index, query).entries == tiered_rerank(back, query).entries


def test_unknown_item_lookup():
    rng = np.random.default_rng(13)
    fm = random_features(rng, 6, dim=2)
    index = build_index(fm, k=2)
    with pytest.raises(UnknownItemError):
        index.neighbors(1234)
