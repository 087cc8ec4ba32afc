"""Feature loading, distance metrics, and exact KNN index construction."""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_features
from tierank.errors import (
    DimensionError,
    FileAccessError,
    FormatError,
    TierankError,
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
    assert fm.ids.tolist() == [0, 1]
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
    assert np.array_equal(back.ids, fm.ids)
    assert np.array_equal(back.vectors, fm.vectors)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    fm = random_features(rng, 9, dim=5)
    path = tmp_path / "f.bin"
    write_features_binary(fm, path)
    back = load_features(path, "binary", channel_name=fm.channel_name)
    assert np.array_equal(back.ids, fm.ids)
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


@st.composite
def _grid_instances(draw):
    """Integer-grid points (many ties and duplicates) under unsorted, sparse ids."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(list(Metric)))
    low = 1 if metric == Metric.COSINE else 0  # cosine rejects zero vectors
    coords = draw(st.lists(st.lists(st.integers(low, 3), min_size=dim, max_size=dim), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    fm = FeatureMatrix(channel_name="grid", ids=ids, vectors=np.asarray(coords, dtype=np.float64))
    return fm, draw(st.integers(1, 30)), metric


@settings(max_examples=60, deadline=None)
@given(_grid_instances())
def test_build_index_matches_oracle_property(instance):
    fm, k, metric = instance
    index = build_index(fm, k=k, metric=metric)
    assert list(index.items()) == sorted(fm.ids.tolist())
    for item in fm.ids:
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, k, metric)


@settings(max_examples=30, deadline=None)
@given(_grid_instances())
def test_save_load_save_is_byte_identical(instance):
    fm, k, metric = instance
    index = build_index(fm, k=k, metric=metric)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.index", Path(tmp) / "b.index"
        save_index(index, first)
        back = load_index(first)
        save_index(back, second)
        assert first.read_bytes() == second.read_bytes()
    assert back.k == k and back.metric == metric
    for item in fm.ids:
        assert back.neighbors(item) == index.neighbors(item)


_SMALL_INDEX = build_index(_line_features([0.0, 1.0, 3.0, 3.0, 7.0]), k=3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_index_raises_only_tierank_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.index"
        save_index(_SMALL_INDEX, path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(
                st.integers(0, 7), label="bit"
            )
        path.write_bytes(bytes(raw))
        try:
            load_index(path)
        except TierankError:
            pass


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


def _index_bytes(ids, rows, dists, version=2, magic=b"TKINDEX\x00", name=b"x"):
    """An index file v2 written field by field: magic, header, padded name, arrays."""
    rows = np.asarray(rows, dtype="<i8")
    n, width = rows.shape
    header = struct.pack("<Q8sQQQQ", version, b"l1", width, n, width, len(name))
    arrays = np.asarray(ids, dtype="<i8").tobytes() + rows.tobytes()
    return magic + header + name + bytes(-len(name) % 8) + arrays + np.asarray(dists, dtype="<f8").tobytes()


# item 0 at 0.0, item 1 at 1.0 and item 2 at 3.0 on a line, k = 2
_LINE_IDS = [0, 1, 2]
_LINE_ROWS = [[0, 1], [1, 0], [2, 1]]
_LINE_DISTS = [[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]]


def _write_index(tmp_path, data):
    path = tmp_path / "bad.index"
    path.write_bytes(data)
    return path


def test_index_file_layout(tmp_path):
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=2)
    path = tmp_path / "line.index"
    save_index(index, path)
    assert path.read_bytes() == _index_bytes(_LINE_IDS, _LINE_ROWS, _LINE_DISTS, name=b"line")
    back = load_index(path)
    assert [back.neighbors(i) for i in _LINE_IDS] == [index.neighbors(i) for i in _LINE_IDS]


def test_load_index_wrong_schema(tmp_path):
    data = _index_bytes(_LINE_IDS, _LINE_ROWS, _LINE_DISTS, magic=b"SOMETHIN")
    with pytest.raises(FormatError):
        load_index(_write_index(tmp_path, data))


def test_load_index_negative_id(tmp_path):
    # -1 pads short neighbor rows when they are stacked, so no id may be negative
    data = _index_bytes([-1, 0], [[-1, 0], [0, -1]], [[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(FormatError, match="negative"):
        load_index(_write_index(tmp_path, data))


def test_load_index_wrong_version(tmp_path):
    data = _index_bytes(_LINE_IDS, _LINE_ROWS, _LINE_DISTS, version=99)
    with pytest.raises(FormatError, match="version"):
        load_index(_write_index(tmp_path, data))


def test_load_index_v1_json_asks_for_reindex(tmp_path):
    path = tmp_path / "old.index"
    path.write_text(
        '{"channel": "x", "k": 2, "metric": "l1", "n": 1, "schema": "tierank.index", "version": 1}\n'
        '{"id": 0, "neighbors": [[0, 0.0]]}\n'
    )
    with pytest.raises(FormatError, match="tierank index"):
        load_index(path)


def test_load_index_size_mismatch(tmp_path):
    data = _index_bytes(_LINE_IDS, _LINE_ROWS, _LINE_DISTS)
    for bad in (data[:-8], data + bytes(8)):
        with pytest.raises(FormatError, match="size"):
            load_index(_write_index(tmp_path, bad))


def test_load_index_unsorted_or_duplicate_ids(tmp_path):
    unsorted = _index_bytes([1, 0], [[1, 0], [0, 1]], [[0.0, 1.0], [0.0, 1.0]])
    duplicate = _index_bytes([0, 0], [[0, 1], [0, 1]], [[0.0, 1.0], [0.0, 1.0]])
    for data in (unsorted, duplicate):
        with pytest.raises(FormatError, match="sorted and unique"):
            load_index(_write_index(tmp_path, data))


def test_load_index_row_not_led_by_owner(tmp_path):
    wrong_owner = _index_bytes(_LINE_IDS, [[0, 1], [0, 1], [2, 1]], _LINE_DISTS)
    nonzero_self = _index_bytes(_LINE_IDS, _LINE_ROWS, [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0]])
    for data in (wrong_owner, nonzero_self):
        with pytest.raises(FormatError, match="owner"):
            load_index(_write_index(tmp_path, data))


def test_load_index_row_out_of_order(tmp_path):
    rows = [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
    by_distance = _index_bytes(_LINE_IDS, rows, [[0.0, 3.0, 1.0], [0.0, 1.0, 2.0], [0.0, 2.0, 3.0]])
    by_id = _index_bytes(_LINE_IDS, [[0, 2, 1], [1, 0, 2], [2, 1, 0]], [[0.0, 1.0, 1.0]] * 3)
    not_finite = _index_bytes(_LINE_IDS, _LINE_ROWS, [[0.0, np.nan], [0.0, 1.0], [0.0, 2.0]])
    for data in (by_distance, by_id, not_finite):
        with pytest.raises(FormatError, match="order"):
            load_index(_write_index(tmp_path, data))


def test_load_index_neighbor_not_indexed(tmp_path):
    data = _index_bytes(_LINE_IDS, [[0, 1], [1, 0], [2, 7]], _LINE_DISTS)
    with pytest.raises(FormatError, match="not indexed"):
        load_index(_write_index(tmp_path, data))


def test_load_index_neighbor_named_twice(tmp_path):
    rows = [[0, 1, 1], [1, 0, 2], [2, 1, 0]]
    data = _index_bytes(_LINE_IDS, rows, [[0.0, 1.0, 3.0], [0.0, 1.0, 2.0], [0.0, 2.0, 3.0]])
    with pytest.raises(FormatError, match="twice"):
        load_index(_write_index(tmp_path, data))


def test_round_trip_preserves_rerank_output(tmp_path):
    rng = np.random.default_rng(12)
    fm = random_features(rng, 1000, dim=4)
    index = build_index(fm, k=10)
    path = tmp_path / "big.index"
    save_index(index, path)
    back = load_index(path)
    for query in (0, 137, 999):
        assert tiered_rerank(index, query).entries == tiered_rerank(back, query).entries


def test_with_virtual_is_a_one_row_overlay():
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=5)  # n < k: stored rows hold 3 ids
    overlay = index.with_virtual(9, np.asarray([9, 1, 0, 2]), np.asarray([0.0, 0.5, 0.5, 1.5]))
    assert overlay.neighbor_table is index.neighbor_table and 9 not in index
    assert overlay.n == 4 and 9 in overlay and list(overlay.items()) == [0, 1, 2, 9]
    assert overlay.neighbor_ids(9, 2).tolist() == [9, 1]
    assert overlay.rows([2, 9, 0]).tolist() == [[2, 1, 0, -1], [9, 1, 0, 2], [0, 1, 2, -1]]
    assert overlay.rows([9, 2], k=2).tolist() == [[9, 1], [2, 1]]
    with pytest.raises(UnknownItemError):
        overlay.rows([0, 7])
    for bad in (1, -1):
        with pytest.raises(FormatError):
            index.with_virtual(bad, np.asarray([bad]), np.asarray([0.0]))


@pytest.mark.parametrize(
    "ids, dists",
    [
        ([9, 1], [0.0]),  # ids and distances differ in length
        ([], []),  # no owner
        ([7, 1], [0.0, 1.0]),  # not led by its owner
        ([9, 1], [0.5, 1.0]),  # owner not at distance 0
        ([9, 1], [0.0, np.inf]),  # non-finite distance
        ([9, 1, 1], [0.0, 1.0, 1.0]),  # an id named twice
        ([9, 9], [0.0, 0.0]),  # the owner named twice
        ([9, 777], [0.0, 1.0]),  # neither stored nor virtual
        ([9, 8], [0.0, 1.0]),  # a virtual id not yet attached
    ],
)
def test_with_virtual_rejects_a_malformed_row(ids, dists):
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=5)
    with pytest.raises(FormatError):
        index.with_virtual(9, np.asarray(ids, dtype=np.int64), np.asarray(dists))
    # a row may name a virtual item attached before it
    overlay = index.with_virtual(8, [8, 2], [0.0, 1.0]).with_virtual(9, [9, 8, 0], [0.0, 1.0, 2.0])
    assert overlay.rows([9, 8]).tolist() == [[9, 8, 0], [8, 2, -1]]


def test_unknown_item_lookup():
    rng = np.random.default_rng(13)
    fm = random_features(rng, 6, dim=2)
    index = build_index(fm, k=2)
    with pytest.raises(UnknownItemError):
        index.neighbors(1234)
