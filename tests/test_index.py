"""Feature loading, distance metrics, and exact KNN index construction."""

from __future__ import annotations

import hashlib
import struct
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channels, random_features
from tierank import index as index_module
from tierank.errors import (
    DimensionError,
    FileAccessError,
    FormatError,
    TierankError,
    UnknownItemError,
    ZeroVectorError,
    parse_number,
)
from tierank.index import (
    FeatureMatrix,
    Metric,
    NeighborhoodIndex,
    build_index,
    distance,
    knn_candidates,
    load_features,
    load_index,
    load_parsed_features,
    load_tier3,
    save_index,
    save_parsed_features,
    save_tier3,
    write_features_binary,
    write_features_csv,
)
from tierank.oracles import brute_force_knn, brute_force_neighborhood, oracle_tier3
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


def test_a_cosine_query_checks_the_channel_for_zero_vectors_once(monkeypatch):
    rng = np.random.default_rng(77)
    fm = random_features(rng, 50, dim=3)
    checked = []
    real = index_module._has_zero_row
    monkeypatch.setattr(index_module, "_has_zero_row", lambda block: checked.append(len(block)) or real(block))
    for q in rng.normal(size=(4, 3)):
        knn_candidates(fm, q, 5, Metric.COSINE)
    assert checked == [50, 1, 1, 1, 1]  # the channel once, the query on every call
    with pytest.raises(ZeroVectorError, match="zero vector in query"):
        knn_candidates(fm, [0.0, 0.0, 0.0], 5, Metric.COSINE)


def test_a_zero_vector_in_the_channel_refuses_every_cosine_use():
    fm = FeatureMatrix(channel_name="z", ids=range(3), vectors=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    for _ in range(2):
        with pytest.raises(ZeroVectorError, match="cosine distance undefined for zero vector in channel 'z'"):
            knn_candidates(fm, [1.0, 1.0], 2, Metric.COSINE)
    with pytest.raises(ZeroVectorError, match="in channel 'z'"):
        build_index(fm, k=2, metric=Metric.COSINE)
    assert knn_candidates(fm, [1.0, 1.0], 2, Metric.L1)[0].tolist() == [0, 2]


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


@pytest.mark.parametrize("first", ["x7,1.0", "7,x", "7,1.0,", "id,1.0"])
def test_load_csv_malformed_first_row_is_an_error(tmp_path, first):
    # a first line with any numeric field is data, not a header: it used to
    # be dropped, loading the file one item short
    path = tmp_path / "f.csv"
    path.write_text(f"{first}\n0,2.0\n1,3.0\n")
    with pytest.raises(FormatError, match=r"f\.csv:1: "):
        load_features(path, "csv")


def test_load_csv_header_after_blank_lines(tmp_path):
    # the header is the first non-blank line; errors name lines as the file numbers them
    path = tmp_path / "f.csv"
    path.write_text("\nid, x\n0,1.0\n\n1,3.0\n")
    assert load_features(path, "csv").ids.tolist() == [0, 1]
    path.write_text("\nid, x\n0,1.0\n\n1,y\n")
    with pytest.raises(FormatError, match=r"f\.csv:5: malformed row"):
        load_features(path, "csv")


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


@pytest.mark.parametrize("dim", [0, 2**29, 2**31, 2**32 - 1])
def test_binary_dimension_out_of_range(tmp_path, dim):
    # from 2**29 up, one record would take 2**31 bytes or more, which numpy
    # cannot describe
    path = tmp_path / "f.bin"
    path.write_bytes(b"TKF1" + struct.pack("<I", dim) + bytes(24))
    with pytest.raises(FormatError, match="dimension"):
        load_features(path, "binary")


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("ids, value, match", [
    ([0, 0], 1.0, "duplicate"),
    ([0, -1], 1.0, "non-negative"),
    ([0, 1], np.inf, "NaN or Inf"),
])
def test_feature_checks_name_the_file(tmp_path, fmt, ids, value, match):
    # FeatureMatrix makes the checks and load_features names the file
    path = tmp_path / f"f.{fmt}"
    if fmt == "csv":
        path.write_text("".join(f"{item},{value}\n" for item in ids))
    else:
        record = np.dtype([("id", "<i8"), ("vec", "<f4", (1,))])
        body = np.array([(item, [value]) for item in ids], dtype=record)
        path.write_bytes(b"TKF1" + struct.pack("<I", 1) + body.tobytes())
    with pytest.raises(FormatError, match=match) as exc:
        load_features(path, fmt)
    assert str(exc.value).startswith(f"{path}: ")


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


def _grid_channel(rng, n, metric):
    """Integer-grid points (ties at every distance, duplicate vectors) under sparse, unsorted ids."""
    low = 1 if metric == Metric.COSINE else 0  # cosine rejects zero vectors
    vectors = rng.integers(low, 4, size=(n, 3)).astype(np.float64)
    vectors[n // 2 :: 5] = vectors[1]
    ids = rng.choice(10**6, size=n, replace=False)
    return FeatureMatrix(channel_name="grid", ids=ids, vectors=vectors)


def _same_tables(a, b):
    fields = ("item_ids", "neighbor_table", "distance_table")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


# one worker builds in 128-row blocks, two in 64-row ones, three in 42-row
# ones and eight (the most, whatever the core count) in 16-row ones. The sizes
# give one block, ragged and full, several blocks with a ragged last one, a
# last block of one row for one, two and eight workers (129), and one size in
# the thousands; k > n where the tables stay small.
@pytest.mark.parametrize("n, k", [(63, 70), (64, 100), (129, 12), (3 * 64 + 5, 9), (3 * 64 + 5, 200), (2500, 20)])
@pytest.mark.parametrize("metric", list(Metric))
def test_build_across_blocks_and_workers(monkeypatch, n, k, metric):
    rng = np.random.default_rng(n + k)
    fm = _grid_channel(rng, n, metric)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 1)
    index = build_index(fm, k=k, metric=metric)
    for cores in (2, 3, 64):
        monkeypatch.setattr(index_module, "_usable_cores", lambda: cores)
        assert _same_tables(build_index(fm, k=k, metric=metric), index)
    # and the largest id, whose row, in id order, is the last block's
    for item in [*rng.choice(fm.ids, size=6, replace=False), fm.ids.max()]:
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, k, metric)


# 16-row blocks: one ragged block, one full one, a full and a ragged one, seven
@pytest.mark.parametrize("n", [7, 16, 17, 100])
def test_overlap_table_does_not_depend_on_the_worker_count(monkeypatch, n):
    fm = random_features(np.random.default_rng(n), n)
    spread = index_module._spread
    workers = []

    def counting_spread(starts, count, make, work):
        workers.append(count)
        return spread(starts, count, make, work)

    monkeypatch.setattr(index_module, "_spread", counting_spread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the four workers (more than the cores) interleave finely
    try:
        for k1, k2 in ((8, 8), (3, 8), (8, 3)):
            tables = []
            for cores in (1, 4):
                monkeypatch.setattr(index_module, "_usable_cores", lambda: cores)
                index = build_index(fm, k=8)
                workers.clear()
                tables.append(index.overlap_table(k1, k2))
                assert workers == [cores]
            assert tables[0].dtype == tables[1].dtype and np.array_equal(tables[0], tables[1])
            assert tables[0].shape == (n, min(k1, n))
    finally:
        sys.setswitchinterval(interval)


# 16-row blocks, the last one of one row
@pytest.mark.parametrize("n", [17, 33])
def test_a_tier3_table_whose_last_block_is_one_row_equals_its_rows_counted_alone(n):
    index = build_index(random_features(np.random.default_rng(n), n), k=8)
    for k1, k2 in ((8, 8), (3, 8), (8, 3)):
        table = index.overlap_table(k1, k2)
        for u in range(n):
            alone = index.overlap_counts(index.neighbor_table[u : u + 1, :k1], k2)[1][0]
            assert table[u].tolist() == alone.tolist()
            assert table[u].tolist() == list(oracle_tier3(index, int(index.item_ids[u]), k1, k2).values())


def test_a_one_row_count_equals_its_row_of_a_block():
    # n < k: a stored row is one entry narrower than the query's, so the k2
    # rows of the block carry -1 pads, and slot n's row is the query row
    rng = np.random.default_rng(85)
    [ch] = random_channels(rng, 5, 1, 8)
    index, row = ch.index, ch.query_rows(rng.normal(size=(1, 4)), [100])[0]
    near = index.position_rows(np.array([5, 0, 3, 5, 4]), 8, row)
    assert (near == -1).any()
    for k2 in (2, 6, 8):
        marks = np.zeros(near.shape[0] * index.slots, dtype=bool)
        rows, counts = index.overlap_counts(near, k2, marks, row)
        for b in range(near.shape[0]):
            one_rows, one = index.overlap_counts(near[b : b + 1], k2, marks, row)
            assert one_rows[0].tolist() == rows[b].tolist() and one[0].tolist() == counts[b].tolist()
            assert one.tolist() == index.overlap_counts(near[b : b + 1], k2, query_row=row)[1].tolist()
            members = set(near[b].tolist()) - {-1}  # a pad is no member, and its count is not read
            for c in np.flatnonzero(near[b] >= 0):
                assert one[0, c] == len(members & set(rows[b, c].tolist()))
        assert not marks.any()  # a shared scratch is left all False


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_does_not_grow_with_the_core_count(monkeypatch):
    # the blocks shrink as the workers grow, so the distance rows held at
    # once stay _BUILD_BUFFER_ROWS: at n = 3,000 that is ~6.5 MB in buffers,
    # where 64 workers of the one-worker block size would hold ~3.3 GB
    fm = random_features(np.random.default_rng(73), 3000, dim=4)
    peaks = {}
    for cores in (1, 64):
        monkeypatch.setattr(index_module, "_usable_cores", lambda: cores)
        peaks[cores] = _traced_peak(lambda: build_index(fm, k=10))
    assert peaks[64] <= 1.1 * peaks[1]


def test_ties_at_the_kth_distance_allocate_nothing_of_size_n(monkeypatch):
    # an integer grid ties at the k-th distance in nearly every row; those rows
    # are chosen again one at a time in the selector's own buffers
    n = 3000
    grid = _grid_channel(np.random.default_rng(74), n, Metric.L1)
    distinct = random_features(np.random.default_rng(74), n, dim=3)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 2)
    assert _traced_peak(lambda: build_index(grid, k=50)) <= 1.1 * _traced_peak(lambda: build_index(distinct, k=50))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nearest_matches_a_full_sort(data):
    # few distinct distances, so ties cross the k-th distance in most rows
    rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, n))
    dist = np.asarray(data.draw(st.lists(st.integers(-1, 3), min_size=rows * n, max_size=rows * n)), dtype=float)
    dist = dist.reshape(rows, n)
    # the largest id a FeatureMatrix allows is the selector's sentinel too
    id_values = st.integers(0, 10**6) | st.just(np.iinfo(np.int64).max)
    ids = np.asarray(data.draw(st.lists(id_values, min_size=n, max_size=n, unique=True)), dtype=np.int64)
    cols, near = index_module._Selector(rows, n).nearest(dist, ids, k)
    assert cols.tolist() == [np.lexsort((ids, row))[:k].tolist() for row in dist]
    assert np.array_equal(near, np.take_along_axis(dist, cols, axis=1))


def test_build_holds_nine_bytes_per_buffered_distance(monkeypatch):
    # a float64 distance and a bool mark for each entry of the 128 buffered
    # rows, beside the tables; a selection that copied the rows would hold 17
    n, k = 4000, 10
    fm = random_features(np.random.default_rng(76), n, dim=4)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 1)
    peak = _traced_peak(lambda: build_index(fm, k=k))
    per_entry = (peak - 2 * n * k * 8) / (index_module._BUILD_BUFFER_ROWS * n)
    assert 9.0 <= per_entry <= 10.0


def test_an_all_identical_channel_allocates_nothing_of_size_n(monkeypatch):
    # every distance ties, so every row's bound marks all n entries and each
    # row is chosen on its own in the one spare row the build's workers share
    n = 3000
    same = FeatureMatrix(channel_name="same", ids=range(n), vectors=np.ones((n, 3)))
    distinct = random_features(np.random.default_rng(75), n, dim=3)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 2)
    index = build_index(same, k=50)
    assert index.neighbors(7) == brute_force_neighborhood(same, 7, 50, Metric.L1)
    assert _traced_peak(lambda: build_index(same, k=50)) <= 1.1 * _traced_peak(lambda: build_index(distinct, k=50))


_LAYOUTS = ("random", "ascending", "descending", "run of k", "tail", "all equal", "few values")


@st.composite
def _selection_cases(draw, layouts=st.sampled_from(_LAYOUTS)):
    """(dist, ids, k) whose rows defeat the chunk bound in every way the kernel meets.

    Sorted rows put the chunk minima in order; a run of k small entries puts
    the k nearest in one chunk (in as few as the chunk width allows), and
    the tail ones in the columns past the last whole chunk; equal and
    few-valued rows tie across the bound. Each row draws its own layout from
    ``layouts``, so a block mixes rows over and under the cap; a block of
    one row takes the kernel's one-row form.
    """
    n = draw(st.integers(1, 2000))
    k = draw(st.sampled_from([1, n, max(1, n // 2), n // 2 + 1]) | st.integers(1, min(n, 60)))
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = np.empty((rows, n))
    for row in dist:
        layout = draw(layouts)
        row[:] = rng.random(n) + 1.0
        if layout in ("ascending", "descending"):
            row.sort()
            if layout == "descending":
                row[:] = row[::-1]
        elif layout in ("run of k", "tail"):
            start = n - k if layout == "tail" else int(rng.integers(0, n - k + 1))
            row[start : start + k] = rng.random(k)
        elif layout == "all equal":
            row.fill(2.0)
        elif layout == "few values":
            row[:] = rng.integers(0, 3, size=n)
        if draw(st.booleans()):  # the build sorts a row's owner first at -1
            row[rng.integers(0, n)] = -1.0
    ids = rng.choice(10**9, size=n, replace=False).astype(np.int64)
    if draw(st.booleans()):  # the largest id a FeatureMatrix allows
        ids[rng.integers(0, n)] = np.iinfo(np.int64).max
    return dist, ids, k


@settings(max_examples=200, deadline=None)
@given(_selection_cases())
def test_nearest_matches_a_full_sort_on_every_layout(case):
    dist, ids, k = case
    cols, near = index_module._Selector(*dist.shape).nearest(dist, ids, k)
    assert cols.tolist() == [np.lexsort((ids, row))[:k].tolist() for row in dist]
    assert np.array_equal(near, np.take_along_axis(dist, cols, axis=1))


@pytest.mark.parametrize("layout", _LAYOUTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_one_row_selection_matches_a_full_sort_on_every_layout(layout, data):
    # one row of each layout, the all-equal one over the cap whenever n > 4k
    dist, ids, k = data.draw(_selection_cases(layouts=st.just(layout)))
    dist = dist[:1]
    cols, near = index_module._Selector(*dist.shape).nearest(dist, ids, k)
    assert cols.tolist() == [np.lexsort((ids, dist[0]))[:k].tolist()]
    assert near.tolist() == [dist[0, cols[0]].tolist()]


def test_a_query_selector_makes_its_spare_row_on_first_need():
    # a row under the cap never touches the spare; an all-equal row, over
    # the cap, is chosen on its own in a spare the selector makes then
    n, k = 1000, 5
    ids = np.random.default_rng(77).permutation(n)
    for dist, made in ((np.random.default_rng(77).random((1, n)), False), (np.full((1, n), 2.0), True)):
        selector = index_module._Selector(1, n)
        cols, _ = selector.nearest(dist, ids, k)
        assert cols.tolist() == [np.lexsort((ids, dist[0]))[:k].tolist()]
        assert (selector.spare is not None) == made


def test_a_one_vector_scan_makes_no_spare_row():
    # the (1, n) distances and their marks, 9 bytes an item; a uint64 spare
    # row made up front would add 8 more
    n = 20_000
    fm = random_features(np.random.default_rng(78), n, dim=4)
    query = np.random.default_rng(79).normal(size=(1, 4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index_module.knn_columns(fm, query, 50)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / n < 12


# n = 16,385 is one past a multiple of both block sizes, 128 rows for one
# worker and 64 for two, so the last block is one row; n bytes is also above
# the 8 KiB buffer np.lexsort takes whatever its input's size
@pytest.mark.parametrize("cores", [1, 2])
def test_a_builds_one_row_last_block_allocates_nothing_of_size_n(monkeypatch, cores):
    n, k = 16_385, 5
    fm = random_features(np.random.default_rng(80), n, dim=3)
    nearest, lock, grown = index_module._Selector.nearest, threading.Lock(), []

    def traced(selector, dist, ids, k):
        with lock:  # one call at a time, so the peak is this call's
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = nearest(selector, dist, ids, k)
            if dist.shape[0] == 1:
                grown.append(tracemalloc.get_traced_memory()[1] - before)
            return out

    monkeypatch.setattr(index_module, "_usable_cores", lambda: cores)
    monkeypatch.setattr(index_module._Selector, "nearest", traced)
    tracemalloc.start()
    try:
        index = build_index(fm, k=k)
    finally:
        tracemalloc.stop()
    assert len(grown) == 1 and grown[0] < n
    last = int(index.item_ids[-1])  # the owner of the one-row block, which takes the rows in id order
    for item in (0, n // 2, last):
        assert index.neighbors(item) == brute_force_neighborhood(fm, item, k, Metric.L1)


@pytest.mark.parametrize("cpu_max, cores", [
    ("150000 100000\n", 2), ("100000 100000\n", 1), ("50000 100000\n", 1), ("1600000 100000\n", 8),
    ("max 100000\n", 8), ("", 8), ("150000\n", 8), ("150000 0\n", 8),
])
def test_usable_cores_follow_the_cgroup_cpu_quota(monkeypatch, cpu_max, cores):
    read = []
    monkeypatch.setattr(index_module.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(index_module, "read_text", lambda path: read.append(path) or cpu_max)
    assert index_module._usable_cores() == cores
    assert read == ["/sys/fs/cgroup/cpu.max"]


@pytest.mark.parametrize("error", [FileAccessError, FormatError])
def test_an_unreadable_cpu_max_is_no_quota(monkeypatch, error):
    def unreadable(path):
        raise error(f"cannot read {path}")

    monkeypatch.setattr(index_module.os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    monkeypatch.setattr(index_module, "read_text", unreadable)
    assert index_module._usable_cores() == 3


def test_concurrent_builds_on_one_matrix_agree(monkeypatch):
    fm = _grid_channel(np.random.default_rng(71), 3 * 64 + 5, Metric.L2)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 3)
    want = build_index(fm, k=9, metric=Metric.L2)
    got = [None] * 4

    def build(slot):
        got[slot] = build_index(fm, k=9, metric=Metric.L2)

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(index is not None and _same_tables(index, want) for index in got)


def test_worker_exception_propagates_and_every_worker_ends(monkeypatch):
    class Boom(Exception):
        pass

    real_cdist = index_module.cdist

    def cdist(xa, xb, metric, **kwargs):
        if xa.shape[0] == 29:  # three workers: 42-row blocks, and only the ragged last one fails
            raise Boom("ragged block")
        return real_cdist(xa, xb, metric, **kwargs)

    fm = _grid_channel(np.random.default_rng(72), 3 * 64 + 5, Metric.L1)
    monkeypatch.setattr(index_module, "cdist", cdist)
    monkeypatch.setattr(index_module, "_usable_cores", lambda: 3)
    threads = threading.active_count()
    with pytest.raises(Boom, match="ragged block"):
        build_index(fm, k=9)
    assert threading.active_count() == threads


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


# --- knn_candidates ---------------------------------------------------------


def test_knn_candidates_exact_match_first():
    rng = np.random.default_rng(8)
    fm = random_features(rng, 12, dim=3)
    ids, dists = knn_candidates(fm, fm.vectors[4], k=3)
    assert (ids[0], dists[0]) == (4, 0.0)


def test_knn_candidates_k1_global_nearest():
    fm = _line_features([0.0, 5.0, 6.0])
    ids, _ = knn_candidates(fm, [5.4], k=1)
    assert tuple(ids.tolist()) == (1,)


def test_knn_candidates_matches_bruteforce():
    rng = np.random.default_rng(9)
    fm = random_features(rng, 30, dim=4)
    q = rng.normal(0.0, 1.0, size=4)
    ids, dists = knn_candidates(fm, q, k=7)
    want = brute_force_knn(fm, q, 7)
    assert list(zip(ids.tolist(), dists.tolist())) == want


def test_knn_candidates_dimension_error():
    rng = np.random.default_rng(10)
    fm = random_features(rng, 5, dim=3)
    with pytest.raises(DimensionError):
        knn_candidates(fm, [1.0, 2.0], k=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_vector_is_a_format_error(bad):
    fm = random_features(np.random.default_rng(12), 8, dim=3)
    with pytest.raises(FormatError, match="query vector contains NaN or Inf"):
        knn_candidates(fm, [bad, 0.0, 0.0], k=3)


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
    # item ids are non-negative, as every feature matrix requires
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


def test_ids_at_refuses_a_pad_and_a_position_past_the_rows():
    # on 40 stored items a -1 pad, position 99 and slot 40 name no item; slot 40
    # names the virtual one on an overlay, and 41 still none
    rng = np.random.default_rng(13)
    index = build_index(random_features(rng, 40, dim=4), k=5)
    assert index.ids_at(np.asarray([0, 39, 7])).tolist() == [0, 39, 7]
    for bad, first in (([-1, 99], -1), ([99, -1], 99), ([40], 40), ([3, 41], 41)):
        with pytest.raises(UnknownItemError, match=f"row position {first} names no item of channel 'ch0'"):
            index.ids_at(np.asarray(bad))
    overlay = index.with_virtual(50, [50, 3], [0.0, 1.0])
    assert overlay.ids_at(np.asarray([40, 3, 40])).tolist() == [50, 3, 50]
    for bad in ([41], [-1, 40]):
        with pytest.raises(UnknownItemError, match="names no item"):
            overlay.ids_at(np.asarray(bad))
    assert index.ids_at(np.empty(0, dtype=np.int64)).tolist() == []


def test_with_virtual_is_a_one_row_overlay():
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=5)  # n < k: stored rows hold 3 ids
    overlay = index.with_virtual(9, np.asarray([9, 1, 0, 2]), np.asarray([0.0, 0.5, 0.5, 1.5]))
    assert overlay.neighbor_table is index.neighbor_table and 9 not in index
    assert overlay.n == 4 and 9 in overlay and list(overlay.items()) == [0, 1, 2, 9]
    assert overlay.neighbor_ids(9, 2).tolist() == [9, 1]
    assert overlay.neighbor_ids(9).tolist() == [9, 1, 0, 2] and overlay.neighbor_ids(2).tolist() == [2, 1, 0]
    # item 9 takes position 3, one past the stored rows, and its row is the
    # one entry wider than theirs: they are padded with -1
    assert overlay.positions([2, 9, 0]).tolist() == [2, 3, 0]
    assert overlay.ids_at(np.asarray([3, 0, 3])).tolist() == [9, 0, 9]
    rows = overlay.position_rows(overlay.positions([2, 9, 0]))
    assert rows.tolist() == [[2, 1, 0, -1], [3, 1, 0, 2], [0, 1, 2, -1]]
    assert overlay.position_rows(overlay.positions([9, 2]), k=2).tolist() == [[3, 1], [2, 1]]
    with pytest.raises(UnknownItemError):
        overlay.positions([0, 7])
    for bad in (1, -1):
        with pytest.raises(FormatError):
            index.with_virtual(bad, np.asarray([bad]), np.asarray([0.0]))
    # a virtual row shorter than the stored ones is padded instead
    short = index.with_virtual(5, [5, 2], [0.0, 0.5])
    assert short.position_rows(np.asarray([3, 1])).tolist() == [[3, 2, -1], [1, 0, 2]]


def _counted(index, positions, k1, k2):
    """|N_k2(j) ∩ N_k1(u)| for every entry j of every row u, 0 for a -1 pad, by sets."""
    return [
        [0 if j < 0 else len((set(index.position_rows(np.asarray([j]), k2)[0].tolist()) & set(row)) - {-1})
         for j in row]
        for row in index.position_rows(positions, k1).tolist()
    ]


def test_center_counts_come_in_the_shape_of_position_rows():
    # stored rows read the overlap table; the virtual row, one entry wider
    # than the stored rows (n < k) or padded when cut short, is counted
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=5)
    overlay = index.with_virtual(9, np.asarray([9, 1, 0, 2]), np.asarray([0.0, 0.5, 0.5, 1.5]))
    short = index.with_virtual(5, [5, 2], [0.0, 0.5])
    assert overlay.center_counts(np.asarray([2, 3, 0]), 5, 5).tolist() == [[3, 3, 3, 0], [4, 3, 3, 3], [3, 3, 3, 0]]
    assert short.center_counts(np.asarray([3, 1]), 5, 5).tolist() == [[2, 1, 0], [3, 3, 3]]
    for idx, positions in ((index, [2, 0, 1]), (overlay, [2, 3, 0, 3]), (short, [3, 1])):
        positions = np.asarray(positions)
        for k1, k2 in ((5, 5), (4, 2), (2, 4), (1, 1)):
            got = idx.center_counts(positions, k1, k2)
            assert got.shape == idx.position_rows(positions, k1).shape
            assert got.tolist() == _counted(idx, positions, k1, k2)
            stored = positions < 3
            assert np.array_equal(got[stored][:, : min(k1, 3)], index.overlap_table(k1, k2)[positions[stored]])


def test_an_overlay_cannot_be_saved(tmp_path):
    overlay = build_index(_line_features([0.0, 1.0, 3.0]), k=5).with_virtual(9, [9, 1], [0.0, 0.5])
    with pytest.raises(FormatError, match="an index with a virtual row cannot be saved"):
        save_index(overlay, tmp_path / "overlay.index")
    assert not (tmp_path / "overlay.index").exists()


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
        ([9, 777], [0.0, 1.0]),  # an id with no stored row
        ([9, 8], [0.0, 1.0]),  # a virtual id, which has no stored row either
    ],
)
def test_with_virtual_rejects_a_malformed_row(ids, dists):
    index = build_index(_line_features([0.0, 1.0, 3.0]), k=5)
    with pytest.raises(FormatError):
        index.with_virtual(9, np.asarray(ids, dtype=np.int64), np.asarray(dists))
    # an index holds one virtual row, so no row can name another virtual item
    overlay = index.with_virtual(8, [8, 2], [0.0, 1.0])
    with pytest.raises(FormatError, match="already holds"):
        overlay.with_virtual(9, [9, 8, 0], [0.0, 1.0, 2.0])


def test_unknown_item_lookup():
    rng = np.random.default_rng(13)
    fm = random_features(rng, 6, dim=2)
    index = build_index(fm, k=2)
    with pytest.raises(UnknownItemError):
        index.neighbors(1234)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_positions_find_every_row_whichever_the_id_spread(data):
    # dense ids go through a lookup table, sparse ones through binary
    # search: both must give every stored id its row and refuse the rest
    top = data.draw(st.sampled_from([40, 10**12]), label="top")
    ids = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=30, unique=True), label="ids")
    index = build_index(FeatureMatrix(channel_name="p", ids=ids, vectors=np.zeros((len(ids), 1))), k=2)
    row = {item: pos for pos, item in enumerate(sorted(ids))}
    stored = data.draw(st.lists(st.sampled_from(ids), max_size=200), label="stored")
    assert index.positions(stored).tolist() == [row[item] for item in stored]
    assert index.ids_at(index.positions(stored)).tolist() == stored
    absent = data.draw(st.integers(-5, top + 5).filter(lambda item: item not in row), label="absent")
    with pytest.raises(UnknownItemError):
        index.positions(stored + [absent])
    # a virtual id, above the stored ones or between them, takes position n
    vid = data.draw(st.integers(0, top + 5).filter(lambda item: item not in row and item != absent), label="virtual")
    overlay = index.with_virtual(vid, [vid], [0.0])
    mixed = data.draw(st.permutations(stored + [vid]), label="mixed")
    want = [len(ids) if item == vid else row[item] for item in mixed]
    assert overlay.positions(mixed).tolist() == want
    assert overlay.ids_at(np.asarray(want, dtype=np.int64)).tolist() == mixed
    with pytest.raises(UnknownItemError):
        overlay.positions(mixed + [absent])


@pytest.mark.parametrize("bad", [2, -1])
def test_hand_built_index_rejects_an_item_with_no_row(bad):
    # the table holds row positions: one past the last row, or below the
    # first, names an item that has no row of its own
    table = np.asarray([[0, 1], [1, bad]])
    with pytest.raises(FormatError, match="no row of its own"):
        NeighborhoodIndex("bad", 2, Metric.L1, np.asarray([0, 1]), table, np.zeros((2, 2)))


# --- the feature CSV's one-pass parse -------------------------------------------


def test_the_one_pass_parse_reads_numbers_as_int_and_float_do(tmp_path):
    rng = np.random.default_rng(21)
    values = rng.choice([-1.0, 1.0], size=10_000) * 10.0 ** rng.uniform(-300, 300, size=10_000)
    texts = [repr(float(v)) for v in values]
    # ids near 2**63, and above 2**53, where a float64 would round them
    ids = [2**63 - 1, 2**63 - 2, 2**63 - 1025, 2**53 + 1, 2**53 + 3, *range(995)]
    path = tmp_path / "f.csv"
    path.write_text("".join(f"{item}," + ",".join(texts[10 * r : 10 * r + 10]) + "\n" for r, item in enumerate(ids)))
    features = load_features(path)
    assert features.ids.tolist() == ids
    want = np.array([float(t) for t in texts]).reshape(1000, 10)
    assert features.vectors.tobytes() == want.tobytes()
    assert features.vectors.flags.c_contiguous


@pytest.mark.parametrize("text, message", [
    ("0,1.0,2.0\n1,3.0\n", "f.csv:2: expected 2 features, got 1"),
    ("0,1.0\n1,3.0,4.0\n", "f.csv:2: expected 1 features, got 2"),
    ("0,1.0\n\n1,\n", "f.csv:3: malformed row"),
    ("0,1.0,2.0\n1,2.0,\n", "f.csv:2: malformed row"),
    ("1,2#x\n", "f.csv:1: malformed row"),
    ("0,1.0\n7\n", "f.csv:2: need an id and at least one feature"),
    ("id,x,y\n", "f.csv: no feature rows"),
    ("0,1.0\n9223372036854775808,2.0\n", "f.csv: item ids must be 64-bit integers"),
    ("0,1.0\n-9223372036854775809,2.0\n", "f.csv: item ids must be 64-bit integers"),
    # the first fault in the file is named, whatever its kind
    ("0,1.0\n1,2.0,3.0\n2,x\n", "f.csv:2: expected 1 features, got 2"),
    ("0,1.0\n1,x,3.0\n2,2.0\n", "f.csv:2: malformed row"),
    # int() and float() would take these: 10, 1 and 3
    ("0,1_0\n", "f.csv:1: malformed row"),
    ("\uff11,2.0\n", "f.csv:1: malformed row"),
    ("0,\u0663\n", "f.csv:1: malformed row"),
    # numpy's int parser would read these ids as 2360 and 472
    ("\u0968,2.0\n", "f.csv:1: malformed row"),
    ("0,1.0\n1\u01fe,2.0\n", "f.csv:2: malformed row"),
])
def test_a_feature_csv_error_names_its_first_bad_line(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_features(path)
    assert str(exc.value) == f"{tmp_path}/{message}"


_NUMBER_TEXT = st.text(
    st.sampled_from([*"0123456789+-.eEinfatyINFATY_ \t\x1f\xa0\u2028x#", "\uff11", "\u0663"]), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(text=_NUMBER_TEXT)
def test_parse_number_reads_what_the_one_pass_parse_reads(text):
    # the grammar the CLI reads ids and numbers by is the one np.loadtxt
    # reads a feature CSV by: both take a token or both refuse it, and agree
    for kind, dtype in ((int, "<i8"), (float, "<f8")):
        record = np.dtype([("token", dtype), ("next", "<i8")])  # a row is never blank
        try:
            row = np.loadtxt([f"{text},0"], dtype=record, delimiter=",", comments=None, ndmin=1)
            want = row["token"][0].item()
        except ValueError:
            want = None
        try:
            got = parse_number(text, kind)
        except ValueError:
            got = None
        if want is not None and got is not None and kind is int and not -(2**63) <= got < 2**63:
            continue  # in the grammar, but no int64 holds it
        assert (got is None) == (want is None), (kind, text)
        if got is not None:
            assert type(got) is kind and np.array_equal(np.float64(got), np.float64(want), equal_nan=True)


# --- the tier-3 table file ------------------------------------------------------


def _tier3_bytes(index, k1, k2, body, version=1):
    """A tier-3 table file written field by field: magic, version, k1, k2, the two digests, the counts."""
    positions = hashlib.sha256(np.ascontiguousarray(index.neighbor_table, dtype="<i8")).digest()
    header = struct.pack("<QQQ", version, k1, k2) + positions + hashlib.sha256(body).digest()
    return b"TKTIER3\x00" + header + body


@pytest.mark.parametrize("n, k, k1, k2", [
    (60, 9, 9, 6), (60, 9, 6, 9), (60, 9, 3, 3), (5, 9, 9, 6), (300, 260, 260, 257),
])
def test_a_table_read_from_its_file_equals_the_built_one(tmp_path, monkeypatch, n, k, k1, k2):
    # a count above 255 takes two bytes, little-endian on disk
    index = build_index(random_features(np.random.default_rng(n), n, dim=3), k=k)
    save_index(index, tmp_path / "ch.index")
    save_tier3(index, k1, k2, tmp_path / "ch.tier3")
    built = index._build_overlap_table(k1, k2)
    body = built.astype(built.dtype.newbyteorder("<")).tobytes()
    assert (tmp_path / "ch.tier3").read_bytes() == _tier3_bytes(index, k1, k2, body)
    back = load_index(tmp_path / "ch.index")
    load_tier3(back, k1, k2, tmp_path / "ch.tier3")

    def no_build(*args):
        raise AssertionError("the table was built, not read")

    monkeypatch.setattr(NeighborhoodIndex, "_build_overlap_table", no_build)
    table = back.overlap_table(k1, k2)
    assert not table.flags.writeable
    assert table.dtype == built.dtype and table.shape == built.shape and np.array_equal(table, built)


def test_a_missing_or_stale_table_file_is_left_alone(tmp_path):
    rng = np.random.default_rng(5)
    index = build_index(random_features(rng, 40, dim=3), k=8)
    other = build_index(random_features(rng, 40, dim=3), k=8)
    save_index(index, tmp_path / "ch.index")
    save_tier3(index, 8, 5, tmp_path / "ch.tier3")
    good = (tmp_path / "ch.tier3").read_bytes()
    stale = {
        "another index": _tier3_bytes(other, 8, 5, good[96:]),
        "another version": _tier3_bytes(index, 8, 5, good[96:], version=2),
    }
    cases = [("missing", 8, 5, None), ("another k1", 7, 5, good), ("another k2", 8, 4, good)]
    cases += [(name, 8, 5, data) for name, data in stale.items()]
    for name, k1, k2, data in cases:
        path = tmp_path / f"{name}.tier3"
        if data is not None:
            path.write_bytes(data)
        back = load_index(tmp_path / "ch.index")
        load_tier3(back, k1, k2, path)
        assert back._tables == {}, name
    back = load_index(tmp_path / "ch.index")
    load_tier3(back, 8, 5, tmp_path / "ch.tier3")
    assert list(back._tables) == [(8, 5)]


def _recount(data, body):
    """``data`` with its counts replaced by ``body`` and their digest made to match."""
    return data[:64] + hashlib.sha256(body).digest() + body


@pytest.mark.parametrize("case, message", [
    ("empty", "not a tierank tier-3 table file"),
    ("cut in the header", "not a tierank tier-3 table file"),
    ("another magic", "not a tierank tier-3 table file"),
    ("cut in the counts", "does not match its header"),
    ("one byte more", "does not match its header"),
    ("a flipped count", "the counts do not match their digest"),
    ("a flipped count digest", "the counts do not match their digest"),
    ("a count above min(k1, k2)", "a count exceeds min(k1, k2) = 5"),
])
def test_a_malformed_table_file_is_a_format_error(tmp_path, case, message):
    index = build_index(random_features(np.random.default_rng(3), 40, dim=3), k=8)
    path = tmp_path / "ch.tier3"
    save_tier3(index, 8, 5, path)
    good = path.read_bytes()
    above = bytearray(good[96:])
    above[17] = 6
    path.write_bytes({
        "empty": b"",
        "cut in the header": good[:95],
        "another magic": b"TKTIER4\x00" + good[8:],
        "cut in the counts": good[:-1],
        "one byte more": good + b"\x00",
        "a flipped count": good[:-7] + bytes([good[-7] ^ 1]) + good[-6:],
        "a flipped count digest": good[:70] + bytes([good[70] ^ 0x80]) + good[71:],
        "a count above min(k1, k2)": _recount(good, bytes(above)),
    }[case])
    back = build_index(random_features(np.random.default_rng(3), 40, dim=3), k=8)
    with pytest.raises(FormatError) as exc:
        load_tier3(back, 8, 5, path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
    assert back._tables == {}


# --- the parsed features file ---------------------------------------------------


def _exotic_csv(path):
    """A feature CSV with a header, signed zeros, the smallest subnormal, the largest double and the largest id."""
    rng = np.random.default_rng(8)
    rows = [[9223372036854775807, -0.0, 5e-324, 1.7976931348623157e308], [0, 0.0, -5e-324, -1.7976931348623157e308]]
    rows += [[i, *rng.normal(size=3).tolist()] for i in range(1, 40)]
    path.write_text("id,x,y,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return hashlib.sha256(path.read_bytes()).digest()


def test_parsed_features_read_back_bit_for_bit(tmp_path):
    digest = _exotic_csv(tmp_path / "ch.csv")
    parsed = load_features(tmp_path / "ch.csv", channel_name="ch")
    save_parsed_features(parsed, digest, tmp_path / "ch.features")
    body = parsed.ids.astype("<i8").tobytes() + parsed.vectors.astype("<f8").tobytes()
    header = struct.pack("<QQQ", 1, 41, 3) + digest + hashlib.sha256(body).digest()
    assert (tmp_path / "ch.features").read_bytes() == b"TKFEAT\x00\x00" + header + body
    back = load_parsed_features(tmp_path / "ch.features", digest, "ch")
    assert back.channel_name == "ch" and back.ids.dtype == parsed.ids.dtype == np.int64
    assert back.vectors.dtype == parsed.vectors.dtype and back.vectors.shape == (41, 3)
    assert back.ids.tobytes() == parsed.ids.tobytes() and back.vectors.tobytes() == parsed.vectors.tobytes()
    assert back.ids[0] == 2**63 - 1 and np.signbit(back.vectors[0, 0]) and back.vectors[0, 1] == 5e-324
    assert not back.ids.flags.writeable and not back.vectors.flags.writeable


def test_a_missing_or_stale_parsed_features_file_is_none(tmp_path):
    digest = _exotic_csv(tmp_path / "ch.csv")
    save_parsed_features(load_features(tmp_path / "ch.csv"), digest, tmp_path / "ch.features")
    good = (tmp_path / "ch.features").read_bytes()
    (tmp_path / "v2.features").write_bytes(good[:8] + struct.pack("<Q", 2) + good[16:])
    assert load_parsed_features(tmp_path / "ch.features", digest, "ch") is not None
    assert load_parsed_features(tmp_path / "missing.features", digest, "ch") is None
    assert load_parsed_features(tmp_path / "ch.features", hashlib.sha256(b"edited").digest(), "ch") is None
    assert load_parsed_features(tmp_path / "v2.features", digest, "ch") is None


@pytest.mark.parametrize("case, message", [
    ("empty", "not a tierank parsed features file"),
    ("cut in the header", "not a tierank parsed features file"),
    ("another magic", "not a tierank parsed features file"),
    ("cut in the body", "does not match its header"),
    ("one byte more", "does not match its header"),
    ("another n", "does not match its header"),
    ("a flipped body byte", "the features do not match their digest"),
    ("a flipped body digest", "the features do not match their digest"),
    ("a duplicate id", "duplicate item ids in feature matrix"),
    ("a NaN", "feature matrix contains NaN or Inf"),
])
def test_a_malformed_parsed_features_file_is_a_format_error(tmp_path, case, message):
    # the last two pass the file's own checks and fail FeatureMatrix's
    digest = _exotic_csv(tmp_path / "ch.csv")
    path = tmp_path / "ch.features"
    save_parsed_features(load_features(tmp_path / "ch.csv"), digest, path)
    good = path.read_bytes()
    dup, nan = bytearray(good[96:]), bytearray(good[96:])
    dup[8:16] = dup[16:24]
    nan[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes({
        "empty": b"",
        "cut in the header": good[:95],
        "another magic": b"TKFEAT\x00\x01" + good[8:],
        "cut in the body": good[:-1],
        "one byte more": good + b"\x00",
        "another n": good[:16] + struct.pack("<Q", 40) + good[24:],
        "a flipped body byte": good[:-9] + bytes([good[-9] ^ 1]) + good[-8:],
        "a flipped body digest": good[:70] + bytes([good[70] ^ 0x80]) + good[71:],
        "a duplicate id": good[:64] + hashlib.sha256(bytes(dup)).digest() + bytes(dup),
        "a NaN": good[:64] + hashlib.sha256(bytes(nan)).digest() + bytes(nan),
    }[case])
    with pytest.raises(FormatError) as exc:
        load_parsed_features(path, digest, "ch")
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
