"""Feature ingestion, distance metrics, and exact self-inclusive KNN indexes.

Every indexed item carries its own id as the first entry of its neighbor
list (distance 0), so a neighborhood of size k means "the item plus its
k-1 nearest others". Ordering is by (distance, id) with the owner promoted
to the front, which makes index construction fully deterministic.

An index is three dense arrays: the sorted item ids, an (n, min(k, n))
neighbor table and the matching distance table, one row per item. In
memory the neighbor table holds row positions into the sorted ids, so the
query kernels count neighborhood overlaps as marks over positions instead
of set operations on ids; on disk it holds ids. An index is built a block
of rows at a time, the blocks spread over one worker thread per usable core
(there is no option for it, and the result does not depend on it). Each
block's k nearest per row come from one selection kernel, which bounds the
k-th distance by chunk minima and sorts only the entries under the bound;
out-of-sample queries use the same kernel. An index is saved as a fixed
header followed by the raw little-endian arrays (index file v2), which load
back without parsing, are validated as a whole, and have their ids turned
into positions in place. A tier-3 overlap table, the one count of the
stored rows, built in the calling thread, is saved beside its index (tier-3
table file v1), keyed by a digest of the neighbor table it was counted
from, and read back in place of a build while that digest holds.
A feature CSV is read by :func:`errors.read_table`; what it parsed to is
saved the same way (parsed features file v1), keyed by a digest of the
CSV's bytes, and read back in place of the parse.
"""

from __future__ import annotations

import copy
import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DimensionError,
    FormatError,
    TierankError,
    UnknownItemError,
    ZeroVectorError,
    read_bytes,
    read_table,
    read_text,
    write_bytes,
    write_text,
)

_INDEX_MAGIC = b"TKINDEX\x00"
_INDEX_VERSION = 2
# follows the magic; the channel name comes next, zero-padded so that the
# item ids, the neighbor table and the distance table all start on 8-byte
# boundaries
_INDEX_HEADER = np.dtype(
    [("version", "<u8"), ("metric", "S8"), ("k", "<u8"), ("n", "<u8"), ("width", "<u8"), ("name_bytes", "<u8")]
)
_BINARY_MAGIC = b"TKF1"
# a keyed file is an 8-byte magic, three little-endian uint64 words (a version first), the
# SHA-256 of what its body was derived from, the SHA-256 of the body, and the body
_KEYED_HEADER_BYTES = 8 + 3 * 8 + 2 * 32
_TIER3_MAGIC = b"TKTIER3\x00"  # words: version 1, k1, k2; keyed by the neighbor table
_TIER3_VERSION = 1
_PARSED_MAGIC = b"TKFEAT\x00\x00"  # words: version 1, n, d; keyed by the CSV's bytes
_PARSED_VERSION = 1
_BUILD_BUFFER_ROWS = 128  # distance rows a build holds at once, over all its workers
_BUILD_MIN_BLOCK_ROWS = 16
# a table build (an overlap table, a fused one) takes as many rows at once as keep its largest int64
# temporary under glibc's default mmap threshold, 128 KiB: larger temporaries raise it, and the heap
# then keeps them resident (0.6 MiB after a build in blocks of 16 rows at n = 5,000 and k = 50)
_TABLE_BLOCK_BYTES = 120_000
# entries a row's bound may mark, in units of k, once a block's bounds mark
# more than that a row on average; a row over it is chosen on its own
_SELECT_CAP = 4
_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # cgroup v2: "<quota> <period>", or "max <period>" for none


class Metric(str, Enum):
    """Distance function used for neighborhood construction."""

    L1 = "l1"
    L2 = "l2"
    COSINE = "cosine"

    @property
    def cdist_name(self) -> str:
        return {"l1": "cityblock", "l2": "euclidean", "cosine": "cosine"}[self.value]


@dataclass(frozen=True)
class FeatureMatrix:
    """One feature channel: n items, each a finite real vector of fixed dim.

    ``ids`` may be given as any integer sequence; it is stored as a
    read-only int64 array in the vectors' row order. Whether the channel
    holds a zero vector, which the cosine metric refuses, is found once, on
    first use.
    """

    channel_name: str
    ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        try:
            ids = np.array(self.ids, dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise FormatError("item ids must be 64-bit integers") from exc
        if self.vectors.ndim != 2:
            raise FormatError("feature vectors must form a 2-D array")
        if ids.ndim != 1 or ids.shape[0] != self.vectors.shape[0]:
            raise FormatError("id count does not match vector count")
        if ids.shape[0] == 0:
            raise FormatError("feature matrix has zero items")
        if len(set(ids.tolist())) != ids.shape[0]:
            raise FormatError("duplicate item ids in feature matrix")
        if (ids < 0).any():
            raise FormatError("item ids must be non-negative")
        if not np.isfinite(self.vectors).all():
            raise FormatError("feature matrix contains NaN or Inf")
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def has_zero_vector(self) -> bool:
        return _has_zero_row(self.vectors)

    def check_nonzero(self) -> None:
        """Raise ZeroVectorError if the channel holds a zero vector."""
        if self.has_zero_vector:
            _check_nonzero(self.vectors, f"channel {self.channel_name!r}")

    def row(self, item: int) -> np.ndarray:
        pos = np.flatnonzero(self.ids == item)
        if pos.shape[0] == 0:
            raise UnknownItemError(f"item {item} not in channel {self.channel_name!r}")
        return self.vectors[pos[0]]


def load_features(path: str | Path, fmt: str = "csv", channel_name: str | None = None) -> FeatureMatrix:
    """Load a feature matrix from a CSV or binary file."""
    name = channel_name if channel_name is not None else Path(path).stem
    if fmt == "csv":
        ids, vectors = _load_csv(path)
    elif fmt == "binary":
        ids, vectors = _load_binary(path)
    else:
        raise FormatError(f"unknown feature format {fmt!r}")
    try:
        return FeatureMatrix(channel_name=name, ids=ids, vectors=vectors)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _load_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """A feature CSV's ids, which :class:`FeatureMatrix` holds to int64, and its rows, as wide as the first."""
    (ids, vectors), _ = read_table(
        path, "if+", "malformed row", "need an id and at least one feature", "expected {} features, got {}",
        header=True,
    )
    if not len(ids):
        raise FormatError(f"{path}: no feature rows")
    return ids, np.ascontiguousarray(vectors, dtype=np.float64)


def _load_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = read_bytes(path)
    if len(raw) < 8 or raw[:4].tobytes() != _BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic bytes for binary feature file")
    dim = int(np.frombuffer(raw, dtype="<u4", count=1, offset=4)[0])
    # numpy cannot describe a record of 2**31 bytes or more
    if dim == 0 or 8 + 4 * dim >= 2**31:
        raise FormatError(f"{path}: feature dimension {dim} out of range")
    body = raw[8:]
    record = np.dtype([("id", "<i8"), ("vec", "<f4", (dim,))])
    if len(body) == 0 or len(body) % record.itemsize != 0:
        raise FormatError(f"{path}: truncated binary feature file")
    parsed = np.frombuffer(body, dtype=record)
    return parsed["id"], parsed["vec"].astype(np.float64)


def write_features_csv(features: FeatureMatrix, path: str | Path) -> None:
    rows = zip(features.ids, features.vectors)
    write_text(path, (str(item) + "," + ",".join(repr(float(v)) for v in vec) + "\n" for item, vec in rows))


def write_features_binary(features: FeatureMatrix, path: str | Path) -> None:
    record = np.dtype([("id", "<i8"), ("vec", "<f4", (features.dim,))])
    out = np.empty(features.n, dtype=record)
    out["id"] = features.ids
    out["vec"] = features.vectors.astype(np.float32)
    write_bytes(path, [_BINARY_MAGIC, np.asarray([features.dim], dtype="<u4").tobytes(), out.tobytes()])


def distance(a: Iterable[float], b: Iterable[float], metric: Metric = Metric.L1) -> float:
    """Distance between two equal-dimension finite vectors."""
    va = np.atleast_2d(np.asarray(a, dtype=np.float64))
    vb = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if va.shape != vb.shape or va.shape[0] != 1:
        raise DimensionError(f"dimension mismatch: {va.shape[1]} vs {vb.shape[1]}")
    if metric == Metric.COSINE:
        _check_nonzero(va, "first argument")
        _check_nonzero(vb, "second argument")
    return float(cdist(va, vb, metric.cdist_name)[0, 0])


def _has_zero_row(block: np.ndarray) -> bool:
    return bool(np.any(np.linalg.norm(block, axis=1) == 0.0))


def _check_nonzero(block: np.ndarray, what: str) -> None:
    if _has_zero_row(block):
        raise ZeroVectorError(f"cosine distance undefined for zero vector in {what}")


class _Selector:
    """Chooses the k nearest entries per row of distances, in buffers made once.

    For up to ``rows`` rows of ``n`` entries it holds a bool mark per entry.
    A row whose bound marks too many entries is chosen on its own in
    ``spare``, one uint64 row of scratch and the lock that guards it. The
    selectors of one build share one: only degenerate input reaches it, so
    on other input no worker waits for it. A selector given none makes one
    on first need, so a query scan under the cap makes none. Beyond them a
    call takes O(rows·k) memory, so a worker thread handed a selector
    allocates nothing of size n.
    """

    def __init__(self, rows: int, n: int, spare: tuple[np.ndarray, threading.Lock] | None = None) -> None:
        self.marks = np.empty((rows, n), dtype=bool)
        self.spare = spare

    def nearest(self, dist: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``dist``, the (columns, distances) of the k nearest entries, by (distance, id).

        Column j belongs to item ``ids[j]`` (non-negative); ties at the k-th
        distance go to the smallest ids. Each row is cut into c >= k chunks
        of w = max(1, n // 2k) columns, and tau, the k-th smallest chunk
        minimum, bounds the k-th distance: the k chunks whose minima are at
        most tau hold k entries at most tau. The entries at most tau, about
        1.4·k a row on unordered distances, are marked, gathered and put in
        (row, distance, id) order by one sort on id and one ``np.lexsort``
        on (row, distance); the first k of each row are the answer. One row
        needs no row keys: one ``np.lexsort`` on (distance, id).
        When a block marks more than ``_SELECT_CAP``·k entries a row on
        average, every row over that is chosen on its own
        (:meth:`_choose_alone`), which keeps the gathered entries O(rows·k).
        ``dist`` is C-contiguous, as ``cdist`` writes it, so that its chunks
        and gathers copy nothing of size n.
        """
        rows, n = dist.shape
        marks = self.marks[:rows]
        width = max(1, n // (2 * k))
        chunks = n // width
        minima = np.minimum.reduce(dist[:, : chunks * width].reshape(rows, chunks, width), axis=2)
        minima.partition(k - 1, axis=1)
        np.less_equal(dist, minima[:, k - 1 : k], out=marks)
        del minima  # before the gather, the call's other peak
        cap = _SELECT_CAP * k
        if np.count_nonzero(marks) > cap * rows:
            for full in np.flatnonzero(np.count_nonzero(marks, axis=1) > cap):
                self._choose_alone(dist[full], ids, k, marks[full])
        flat = marks.ravel().nonzero()[0]  # the marked entries in row order
        if rows == 1:
            near = dist.take(flat)
            at = np.lexsort((ids.take(flat), near))[None, :k]
            return flat[at], near[at]
        first = np.searchsorted(flat, np.arange(rows) * n)  # where each row begins among them
        # by id, then stably by (row, distance): each row's entries end in
        # (distance, id) order. The first sort need not be stable, since an
        # id appears once a row; the row key fits the smallest unsigned
        # type, which numpy sorts by radix.
        flat = flat[np.argsort(ids.take(flat % n))]
        near = dist.take(flat)
        at = np.lexsort((near, (flat // n).astype(np.min_scalar_type(rows))))[first[:, None] + np.arange(k)]
        return flat[at] % n, near[at]

    def _choose_alone(self, dist: np.ndarray, ids: np.ndarray, k: int, marks: np.ndarray) -> None:
        """Marks exactly the k nearest entries of one row, in the spare uint64 row.

        The scratch, viewed as float64, finds the k-th distance by
        partitioning a copy in place. It then ranks every entry below that
        distance first (0), the tied ones by id (id + 1, which a uint64
        holds for every int64 id) and the rest last, and is partitioned
        again for the k-th rank: the entries below, and the tied ones whose
        id is below that rank, are the k nearest.
        """
        if self.spare is None:
            self.spare = _spare_row(dist.shape[0])
        scratch, lock = self.spare
        ids = ids.view(np.uint64)
        with lock:
            values = scratch.view(np.float64)
            np.copyto(values, dist)
            values.partition(k - 1)
            kth = values[k - 1]
            scratch.fill(np.iinfo(np.uint64).max)
            np.equal(dist, kth, out=marks)
            np.add(ids, 1, out=scratch, where=marks)
            np.less(dist, kth, out=marks)  # the entries below, which stay marked
            np.copyto(scratch, 0, where=marks)
            scratch.partition(k - 1)
            rank = scratch[k - 1]
            tied = scratch.view(bool)[: dist.shape[0]]
            np.equal(dist, kth, out=tied)
            np.less(ids, rank, out=marks, where=tied)


def _spare_row(n: int) -> tuple[np.ndarray, threading.Lock]:
    return np.empty(n, dtype=np.uint64), threading.Lock()


def knn_columns(
    features: FeatureMatrix,
    query_vectors: np.ndarray,
    k: int,
    metric: Metric = Metric.L1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (feature-row columns, distances) of a (B, d) block of query vectors, a row each.

    One (B, n) block of distances through the selection kernel the build
    uses (one row takes its one-row form), so no column comes twice in a
    row, and a row is the one its vector gets alone. The vectors come
    checked, a (B, d) matrix with no NaN or Inf, by the callers where they
    enter (:meth:`~tierank.pipeline.Channel.query_rows`, :func:`knn_candidates`).
    Under the cosine metric the queries are checked for a zero vector on
    every call and the channel once (:attr:`FeatureMatrix.has_zero_vector`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric == Metric.COSINE:
        features.check_nonzero()
        _check_nonzero(query_vectors, "query")
    dists = cdist(query_vectors, features.vectors, metric.cdist_name)
    return _Selector(*dists.shape).nearest(dists, features.ids, min(k, features.n))


def knn_candidates(
    features: FeatureMatrix,
    query_vector: Iterable[float],
    k: int,
    metric: Metric = Metric.L1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (ids, distances) for an arbitrary query vector, checked here: :func:`knn_columns` by id."""
    q = np.asarray(query_vector, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != features.dim:
        raise DimensionError(f"query has dim {q.shape}, collection has dim {features.dim}")
    if not np.isfinite(q).all():
        raise FormatError("query vector contains NaN or Inf")
    cols, dists = knn_columns(features, q[None, :], k, metric)
    return features.ids[cols[0]], dists[0]


def _row_positions(item_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of every id in the sorted ``item_ids``, or -1 for an id with no row.

    When the stored ids span fewer values than there are lookups, one
    lookup table over the span answers them all (as when a whole neighbor
    table is loaded); otherwise each id takes a binary search, so that a
    handful of lookups never pays for a table of size n.
    """
    lo, hi = int(item_ids[0]), int(item_ids[-1])
    if hi - lo < ids.size:
        # one slot per id of the span, plus a first and a last slot that
        # answer every id below and above it
        table = np.full(hi - lo + 3, -1, dtype=np.int64)
        table[item_ids - (lo - 1)] = np.arange(item_ids.shape[0])
        return table.take(ids - (lo - 1), mode="clip")
    pos = np.searchsorted(item_ids, ids)
    pos[item_ids.take(pos, mode="clip") != ids] = -1
    return pos


@dataclass(frozen=True, eq=False)
class NeighborhoodIndex:
    """Per-item, self-inclusive nearest-neighbor lists for one channel.

    ``item_ids`` is sorted, and an item's row position is its place in it.
    Row r of ``neighbor_table`` lists item ``item_ids[r]`` and its nearest
    items, min(k, n) in all, sorted by (distance, id) with the item itself
    first, each given by its row position; ``distance_table`` holds the
    matching distances. An entry that is no row position (an id with no row
    of its own, when the tables are built by hand) is a FormatError.
    Position n, one past the stored rows, is an out-of-sample query's slot.
    The ranking kernels (:meth:`position_rows`, :meth:`overlap_counts`,
    :meth:`center_counts`) read its row from their ``query_row`` argument,
    which :meth:`query_rows` makes; the index is neither copied nor changed.
    ``virtual`` is None, or an overlay's one extra row as (id, row
    positions, distances) (see :meth:`with_virtual`), which the kernels
    read in place of a missing ``query_row`` and every id accessor names.
    The kernels read positions (:meth:`positions`,
    :meth:`neighbor_positions`, :meth:`position_rows`); every other accessor
    takes and returns ids. Every row must be led by its owner; one that is
    not is a FormatError.

    The index is immutable after construction; all read accessors are safe
    to call concurrently. The derived state is two caches that every
    overlay shares: the tier-3 overlap tables (:meth:`overlap_table`), one
    per (k1, k2), read from the file ``tierank index`` wrote (:func:`save_tier3`,
    :func:`load_tier3`) or else built on first use; and ``_fused``, the fused
    tables of the channel sets this index leads by name (``fusion.fused_table``),
    which fuse those. Building is idempotent: two threads that both miss a
    cache build equal tables and keep one.
    """

    channel_name: str
    k: int
    metric: Metric
    item_ids: np.ndarray
    neighbor_table: np.ndarray
    distance_table: np.ndarray
    virtual: tuple[int, np.ndarray, np.ndarray] | None = None
    _tables: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _fused: dict[tuple, Any] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.item_ids, self.neighbor_table, self.distance_table):
            array.setflags(write=False)
        table = self.neighbor_table
        if table.size and (table.min() < 0 or table.max() >= self.item_ids.shape[0]):
            raise FormatError(f"channel {self.channel_name!r}: a row names an item with no row of its own")
        if table.size and (table[:, 0] != np.arange(table.shape[0])).any():
            raise FormatError(f"channel {self.channel_name!r}: a row is not led by its owner")

    @property
    def n(self) -> int:
        return self.item_ids.shape[0] + (self.virtual is not None)

    @property
    def slots(self) -> int:
        """The mark or scratch slots a kernel takes per row: a stored row's each, slot n's and a -1 pad's."""
        return self.item_ids.shape[0] + 2

    def _slot_row(self, query_row: np.ndarray | None) -> np.ndarray | None:
        """Slot n's row: ``query_row``, else an overlay's virtual row, else None."""
        if query_row is None and self.virtual is not None:
            return self.virtual[1]
        return query_row

    def __contains__(self, item: int) -> bool:
        return self._position(item) >= 0

    def items(self) -> Iterator[int]:
        return iter(self.item_ids.tolist() + ([] if self.virtual is None else [self.virtual[0]]))

    def _position(self, item: int) -> int:
        """Row position of a stored or virtual item, or -1, also for None, a sequence or an object that is no number."""
        stored = self.item_ids.shape[0]
        try:
            pos = int(self.item_ids.searchsorted(item))
        except TypeError:  # no order against the ids, or no scalar position
            return -1
        if pos < stored and self.item_ids[pos] == item:
            return pos
        if self.virtual is not None and item == self.virtual[0]:
            return stored
        return -1

    def positions(self, items: Sequence[int] | np.ndarray) -> np.ndarray:
        """The row position of every item, stored or virtual.

        An item is one only if it equals a stored or the virtual id, as in
        :meth:`_position` (3.0 is item 3; 3.5 and '3' are none), which looks
        up any item that is not in a 1-D signed integer array.
        """
        try:
            ids = np.asarray(items)
        except ValueError:  # ragged, as [4, [1]] with a sequence id: each item is looked up alone
            ids = None
        if ids is not None and ids.dtype.kind == "i" and ids.ndim == 1:
            pos = _row_positions(self.item_ids, ids)
            if self.virtual is not None:
                pos[ids == self.virtual[0]] = self.item_ids.shape[0]
        else:
            pos = np.array([self._position(item) for item in items], dtype=np.int64)
        if pos.min(initial=0) < 0:
            raise UnknownItemError(f"item {items[pos.argmin()]} not in index for channel {self.channel_name!r}")
        return pos

    def ids_at(self, positions: np.ndarray) -> np.ndarray:
        """The item id at every row position: a stored row's, or slot n's on an overlay; a -1 pad names none."""
        if positions.size and (positions.min() < 0 or positions.max() >= self.n):
            bad = positions[(positions < 0) | (positions >= self.n)][0]
            raise UnknownItemError(f"row position {bad} names no item of channel {self.channel_name!r}")
        ids = self.item_ids.take(positions, mode="clip")
        if self.virtual is not None:
            ids[positions == self.item_ids.shape[0]] = self.virtual[0]
        return ids

    def _entry(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor positions, distances) of an item's row."""
        pos = self._position(item)
        if pos < 0:
            raise UnknownItemError(f"item {item} not in index for channel {self.channel_name!r}")
        if pos < self.item_ids.shape[0]:
            return self.neighbor_table[pos], self.distance_table[pos]
        return self.virtual[1], self.virtual[2]

    def neighbor_positions(self, item: int, k: int | None = None) -> np.ndarray:
        """The first k entries of an item's row, as row positions."""
        return self._entry(item)[0][:k]

    def neighbor_ids(self, item: int, k: int | None = None) -> np.ndarray:
        return self.ids_at(self.neighbor_positions(item, k))

    def neighbors(self, item: int, k: int | None = None) -> list[tuple[int, float]]:
        row, dists = self._entry(item)
        return [(int(i), float(d)) for i, d in zip(self.ids_at(row[:k]), dists[:k])]

    def position_rows(
        self, positions: np.ndarray, k: int | None = None, query_row: np.ndarray | None = None
    ) -> np.ndarray:
        """The first k neighbor positions of every row in ``positions``, as one int64 matrix.

        Row j belongs to ``positions[j]``; slot n's row is ``query_row`` (see
        :meth:`_slot_row`), or for a (B, w) ``query_row`` of B out-of-sample
        queries, its i-th row at the i-th slot n in ``positions``. A row
        shorter than the matrix (when n < k, or for slot n's) is right-padded
        with -1, which is no position; only slot n's row can be wider than
        the stored ones, by one entry when n < k.
        """
        out = self.neighbor_table.take(positions, axis=0, mode="clip")[:, :k]
        row = self._slot_row(query_row)
        if row is None:
            return out
        row = row[..., :k]
        width = row.shape[-1]
        if width > out.shape[1]:
            pad = np.full((out.shape[0], width - out.shape[1]), -1, dtype=np.int64)
            out = np.concatenate((out, pad), axis=1)
        hit = positions == self.item_ids.shape[0]
        out[hit, :width] = row
        if width < out.shape[1]:
            out[hit, width:] = -1
        return out

    def overlap_counts(
        self, near: np.ndarray, k2: int, marks: np.ndarray | None = None, query_row: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The tier-3 counting kernel, over a block of B neighbor rows: (rows, counts).

        ``near`` is a (B, width) block of row positions, each row an owner's
        k1 neighbors (as :meth:`position_rows` gives them). ``rows`` holds
        the k2 rows of its entries, shape (B, width, k2 width), and
        ``counts[b, c]`` is |N_k2(j) ∩ near[b]| for j = ``near[b, c]``: how
        many of j's k2 neighbors lie in row b. A -1 pad's count is
        meaningless. Slot n's row, when ``near`` names it, is ``query_row``
        (its i-th row at the i-th slot n of ``near``, in row-major order).
        Membership is a mark per (row, position) in ``marks``, a flat boolean
        scratch of at least B·:attr:`slots` entries, all False; the kernel
        leaves it so, which lets one buffer serve every block of a table
        build. Without one, a scratch is allocated. One row marks its
        positions as they are, with no per-row slot offsets.
        """
        rows = self.position_rows(near.ravel(), k2, query_row)
        rows = rows.reshape(*near.shape, rows.shape[1])
        stride = self.slots
        shared = marks is not None
        marks = marks[: near.shape[0] * stride] if shared else np.zeros(near.shape[0] * stride, dtype=bool)
        # row b's slots start at b·stride, so a -1 pad lands on the slot
        # before, the pad slot of row b - 1 (of the last row for b = 0),
        # which stays False
        marked, counted = near, rows
        if near.shape[0] > 1:
            start = np.arange(0, marks.size, stride)[:, None]
            marked, counted = start + near, start[:, :, None] + rows
        marks[marked] = True
        marks[stride - 1 :: stride] = False
        # a count never exceeds either row's length, so the sum's dtype holds it
        dtype = np.min_scalar_type(min(near.shape[1], rows.shape[2]))
        counts = marks[counted].sum(axis=2, dtype=dtype)
        if shared:
            marks[marked] = False
        return rows, counts

    def overlap_table(self, k1: int, k2: int) -> np.ndarray:
        """The tier-3 counts of every stored row at (k1, k2), built once and cached.

        Entry (u, c), of shape (stored n, min(k1, width)), is
        :meth:`overlap_counts`' count for stored row u's c-th neighbor. A
        stored row never names a virtual item, so an overlay's table is its
        stored index's, and the two share the cache. The table is built in
        the calling thread, a block of rows at a time in one mark scratch,
        in the smallest unsigned dtype that holds min(k1, k2), unless
        :func:`load_tier3` put the table that :func:`save_tier3` wrote in
        the cache first.
        """
        table = self._tables.get((k1, k2))
        if table is None:
            table = self._tables.setdefault((k1, k2), self._build_overlap_table(k1, k2))
        return table

    def stored_counts(self, positions: np.ndarray, k1: int, k2: int) -> np.ndarray:
        """The rows ``positions`` of :meth:`overlap_table`, which holds stored rows only; a -1 position's are 0."""
        counts = self.overlap_table(k1, k2).take(positions, axis=0, mode="clip")
        counts[positions < 0] = 0
        return counts

    def center_counts(
        self, positions: np.ndarray, k1: int, k2: int, query_row: np.ndarray | None = None
    ) -> np.ndarray:
        """The tier-3 counts of the rows in ``positions``, shaped as :meth:`position_rows` gives them.

        A stored row's, and a -1 pad's, are :meth:`stored_counts`; slot n's
        row (``query_row``, see :meth:`_slot_row`; of a (B, w) one, the i-th
        row at the i-th slot n) is counted by :meth:`overlap_counts`, and
        can be one entry wider than a stored row.
        """
        counts = self.stored_counts(positions, k1, k2)
        row = self._slot_row(query_row)
        if row is None:
            return counts
        near = np.atleast_2d(row)[:, :k1]  # one entry wider than a stored row when n < k
        wide = np.zeros((positions.shape[0], max(counts.shape[1], near.shape[1])), dtype=counts.dtype)
        wide[:, : counts.shape[1]] = counts
        hit = positions == self.item_ids.shape[0]
        wide[hit] = 0
        wide[hit, : near.shape[1]] = self.overlap_counts(near, k2, query_row=row)[1]
        return wide

    def _build_overlap_table(self, k1: int, k2: int) -> np.ndarray:
        stored, width = self.neighbor_table.shape
        table = np.empty((stored, min(k1, width)), dtype=np.min_scalar_type(min(k1, k2)))
        step = max(1, _TABLE_BLOCK_BYTES // (8 * table.shape[1] * width))  # the int64 rows a block's entries gather
        marks = np.zeros(step * self.slots, dtype=bool)  # one flat mark scratch, all False
        for start in range(0, stored, step):
            block = slice(start, start + step)
            table[block] = self.overlap_counts(self.neighbor_table[block, :k1], k2, marks)[1]
        table.setflags(write=False)
        return table

    def _check_query_id(self, item: int) -> None:
        """Refuse ``item`` as slot n's id: on an overlay, and when it is a string, stored, negative or 2**63 or more."""
        if self.virtual is not None:
            raise FormatError(f"virtual id {item}: the index already holds virtual row {self.virtual[0]}")
        if isinstance(item, (str, bytes)):
            raise FormatError(f"virtual id {item!r} is not a number")
        if self._position(item) >= 0:
            raise FormatError(f"virtual id {item} collides with an indexed item")
        if item < 0:
            raise FormatError(f"virtual id {item} is negative")
        if item >= 2**63:
            raise FormatError(f"virtual id {item} does not fit in an int64")

    def query_rows(
        self, items: Sequence[int], positions: np.ndarray, dists: np.ndarray, ids: Callable[[int], np.ndarray]
    ) -> np.ndarray:
        """Slot n's rows for the out-of-sample queries ``items``, as a (B, w) matrix: n, then ``positions``.

        Row b of ``positions`` holds the row positions of query b's nearest
        items, at row b of ``dists``, as the kNN kernel gives them (in
        (distance, id) order and none twice), -1 for an id with no row;
        ``ids(b)`` gives row b's ids, and is called only to name such an
        id. The ranking kernels take the rows as their ``query_row``. Each
        is refused as :meth:`with_virtual` refuses a row: on an overlay, for
        an item that is stored, negative or no int64 (2**63 or more, NaN or
        a fraction), for a non-finite distance, and for an id with no row.
        The id checks come first and run row by row: each item in turn is
        refused on an overlay, then if stored, negative or 2**63 or more, so
        the first row with any of these faults is named. Each later check
        runs over every row and names the first row it refuses: a NaN or a
        fraction, then a non-finite distance, then an id with no row.
        """
        for item in items:
            self._check_query_id(item)
        given = np.asarray(items)
        if given.dtype.kind != "i":  # a fraction, or a NaN, does not survive an int64 cast
            with np.errstate(invalid="ignore"):
                led = given.astype(np.int64) == given
            if not led.all():
                raise FormatError(f"virtual row {items[led.argmin()]} is not led by its owner at distance 0")
        if not np.isfinite(dists).all():
            b = np.isfinite(dists).all(axis=1).argmin()
            raise FormatError(f"virtual row {items[b]} has a non-finite distance")
        if positions.min(initial=0) < 0:
            b = (positions < 0).any(axis=1).argmax()
            raise FormatError(f"virtual row {items[b]} names item {ids(b)[positions[b] < 0][0]}, which is not stored")
        rows = np.empty((given.shape[0], positions.shape[1] + 1), dtype=np.int64)
        rows[:, 0] = self.item_ids.shape[0]
        rows[:, 1:] = positions
        return rows

    def with_virtual(self, item: int, ids: np.ndarray, dists: np.ndarray) -> "NeighborhoodIndex":
        """This index plus the one synthetic row of an out-of-sample query ``item``, as an overlay.

        The stored index is not modified, and nothing of size n is copied.
        The row, given in ids, must meet the identity every stored row
        meets: led by ``item`` at distance 0, finite distances, and every
        later id stored and named once (:meth:`query_rows` checks the rest).
        ``item`` takes row position n, one past the stored rows. An index
        holds one virtual row at most, so overlaying an overlay is a
        FormatError. No ranking builds an overlay: it is an inspection view
        of :meth:`query_rows`.
        """
        self._check_query_id(item)
        ids = np.array(ids, dtype=np.int64)
        dists = np.array(dists, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != dists.shape:
            raise FormatError(f"virtual row {item}: ids and distances differ in length")
        if ids.shape[0] == 0 or ids[0] != item or dists[0] != 0.0:
            raise FormatError(f"virtual row {item} is not led by its owner at distance 0")
        stored = _row_positions(self.item_ids, ids[1:])
        row = self.query_rows([item], stored[None], dists[None, 1:], lambda b: ids[1:])[0]
        if np.unique(stored).shape[0] < stored.shape[0]:
            raise FormatError(f"virtual row {item} names an id twice")
        row.setflags(write=False)
        dists.setflags(write=False)
        # a shallow copy shares the tables, which were checked when they were made
        overlay = copy.copy(self)
        object.__setattr__(overlay, "virtual", (item, row, dists))
        return overlay


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, capped by its cgroup's CPU quota."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    try:  # ceil(quota / period) cores
        quota, period = read_text(_CPU_MAX).split()
        return min(cores, max(1, -(-int(quota) // int(period))))
    except (TierankError, ValueError, ZeroDivisionError):  # no file, a quota of "max" or a malformed one
        return cores


def build_index(features: FeatureMatrix, k: int, metric: Metric = Metric.L1) -> NeighborhoodIndex:
    """Build the exact self-inclusive KNN index for one channel.

    Rows are computed in blocks of owners, each one distance matrix against
    the whole channel. The blocks are spread over one worker thread per
    usable core, at most ``_BUILD_BUFFER_ROWS // _BUILD_MIN_BLOCK_ROWS`` and
    at most one per block: worker w takes every w-th block, reuses one
    distance buffer and one selector (the selectors share one spare row),
    and writes its own rows of the tables. A block has
    ``_BUILD_BUFFER_ROWS // workers`` rows, so the buffers, a float64
    distance and a bool mark per entry, take about
    ``_BUILD_BUFFER_ROWS * n * 9`` bytes whatever the core count.
    ``cdist`` and the selection release the interpreter lock, so the
    workers run in parallel. The build has no option, and the tables do not
    depend on the worker count. An exception in a worker is raised here
    unchanged, once every worker has stopped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric == Metric.COSINE:
        features.check_nonzero()

    order = np.argsort(features.ids)
    position = np.empty(features.n, dtype=np.int64)  # row position of every feature row
    position[order] = np.arange(features.n)
    k_eff = min(k, features.n)
    table = np.empty((features.n, k_eff), dtype=np.int64)
    dists = np.empty((features.n, k_eff), dtype=np.float64)
    workers = min(_usable_cores(), _BUILD_BUFFER_ROWS // _BUILD_MIN_BLOCK_ROWS)
    block_rows = _BUILD_BUFFER_ROWS // workers
    shape = (min(block_rows, features.n), features.n)
    spare = _spare_row(features.n)  # the workers allocate nothing of size n
    starts = range(0, features.n, block_rows)
    workers = min(workers, len(starts))
    # every worker's buffers are made here, in the calling thread: glibc keeps what a thread frees in that
    # thread's own malloc arena, where the caller's later allocations cannot reuse it, so buffers a worker
    # made would add to peak memory
    buffers = [(np.empty(shape), _Selector(*shape, spare)) for _ in range(workers)]

    def run(worker: int) -> None:
        buffer, selector = buffers[worker]
        for start in starts[worker::workers]:
            owners = order[start : start + block_rows]
            rows = owners.shape[0]
            block = buffer[:rows]
            cdist(features.vectors[owners], features.vectors, metric.cdist_name, out=block)
            # the owner sorts first, ahead of any zero-distance duplicate (a
            # cosine self-distance can come out a rounding error above zero)
            block[np.arange(rows), owners] = -1.0
            cols, near = selector.nearest(block, features.ids, k_eff)
            done = slice(start, start + rows)
            table[done] = position[cols]
            dists[done] = near

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # the calling thread is worker 0; one worker starts none
        rest = pool.map(run, range(1, workers))
        run(0)
        list(rest)
    dists[:, 0] = 0.0
    return NeighborhoodIndex(features.channel_name, k, metric, features.ids[order], table, dists)


def save_index(index: NeighborhoodIndex, path: str | Path) -> None:
    """Persist an index as index file v2: a fixed header, then the raw tables, neighbors as ids."""
    if index.virtual is not None:
        raise FormatError("an index with a virtual row cannot be saved")
    name = index.channel_name.encode("utf-8")
    header = np.array(
        [(_INDEX_VERSION, index.metric.value, index.k, index.n, index.neighbor_table.shape[1], len(name))],
        dtype=_INDEX_HEADER,
    )
    parts = [_INDEX_MAGIC, header.tobytes(), name, bytes(-len(name) % 8)]
    neighbor_ids = index.item_ids.take(index.neighbor_table)
    parts += [index.item_ids.astype("<i8").tobytes(), neighbor_ids.astype("<i8", copy=False).tobytes()]
    parts.append(index.distance_table.astype("<f8").tobytes())
    write_bytes(path, parts)


def load_index(path: str | Path) -> NeighborhoodIndex:
    """Load an index saved by :func:`save_index`; round-trip is exact.

    The whole file is checked before use: its size against its header, the
    item ids (sorted, unique, non-negative) and every row (led by its owner
    at distance 0, then in (distance, id) order, naming indexed items only
    and none twice). The neighbor ids then become row positions in place, in
    the buffer the file was read into.
    """
    raw = read_bytes(path)
    start = len(_INDEX_MAGIC) + _INDEX_HEADER.itemsize
    head = raw[:start].tobytes()
    if head.startswith(b"{"):
        raise FormatError(f"{path}: index file v1 (JSON) is no longer supported; re-run `tierank index`")
    if not head.startswith(_INDEX_MAGIC) or len(head) < start:
        raise FormatError(f"{path}: not a tierank index file")
    header = np.frombuffer(head, dtype=_INDEX_HEADER, count=1, offset=len(_INDEX_MAGIC))[0]
    if header["version"] != _INDEX_VERSION:
        raise FormatError(f"{path}: unsupported index version {int(header['version'])}")
    k, n, width, name_bytes = (int(header[f]) for f in ("k", "n", "width", "name_bytes"))
    ids_at = start + name_bytes + (-name_bytes % 8)
    if len(raw) != ids_at + 8 * n + 16 * n * width:
        raise FormatError(f"{path}: file size {len(raw)} does not match its header")
    try:
        metric = Metric(header["metric"].decode("ascii"))
        channel = raw[start : start + name_bytes].tobytes().decode("utf-8")
    except ValueError as exc:
        raise FormatError(f"{path}: malformed index header") from exc
    if n < 1 or k < 1 or width != min(k, n):
        raise FormatError(f"{path}: malformed index header")

    ids = np.frombuffer(raw, dtype="<i8", count=n, offset=ids_at)
    table = np.frombuffer(raw, dtype="<i8", count=n * width, offset=ids_at + 8 * n).reshape(n, width)
    dists = np.frombuffer(raw, dtype="<f8", count=n * width, offset=ids_at + 8 * n * (1 + width))
    dists = dists.reshape(n, width)
    if (ids < 0).any():
        raise FormatError(f"{path}: negative item id")
    if not (ids[1:] > ids[:-1]).all():
        raise FormatError(f"{path}: item ids are not sorted and unique")
    if not ((table[:, 0] == ids).all() and (dists[:, 0] == 0.0).all()):
        raise FormatError(f"{path}: a row is not led by its owner at distance 0")
    d, t = dists[:, 1:], table[:, 1:]
    ordered = (d[:, :-1] < d[:, 1:]) | ((d[:, :-1] == d[:, 1:]) & (t[:, :-1] < t[:, 1:]))
    if not (np.isfinite(d).all() and ordered.all()):
        raise FormatError(f"{path}: a row is not in (distance, id) order")
    positions = _row_positions(ids, table)
    if (positions < 0).any():
        raise FormatError(f"{path}: a row names an item that is not indexed")
    ranked = np.sort(positions, axis=1)
    if (ranked[:, 1:] == ranked[:, :-1]).any():
        raise FormatError(f"{path}: a row names an item twice")
    table[...] = positions
    return NeighborhoodIndex(channel, k, metric, ids, table, dists)


def _save_keyed(path: str | Path, magic: bytes, words: Sequence[int], key: bytes, body: bytes) -> None:
    write_bytes(path, [magic, np.array(words, dtype="<u8").tobytes(), key, hashlib.sha256(body).digest(), body])


def _load_keyed(
    path: str | Path, magic: bytes, what: tuple[str, str], words: list[int], key: Callable[[], bytes],
    size: Callable[[list], int],
) -> tuple[list[int], np.ndarray] | None:
    """The header words and body of a keyed file; None if it is missing, or stale by its leading words or ``key()``.

    A file too short for its header or without ``magic``, or a current one whose body is not
    ``size(words)`` bytes or fails its digest, is a FormatError naming ``what``: the file's kind and its body's.
    """
    raw = read_bytes(path, missing_ok=True)
    if raw is None:
        return None
    if len(raw) < _KEYED_HEADER_BYTES or raw[: len(magic)].tobytes() != magic:
        raise FormatError(f"{path}: not a tierank {what[0]} file")
    header = np.frombuffer(raw, dtype="<u8", count=3, offset=len(magic)).tolist()
    digests = raw[_KEYED_HEADER_BYTES - 64 : _KEYED_HEADER_BYTES].tobytes()
    if header[: len(words)] != words or digests[:32] != key():
        return None
    body = raw[_KEYED_HEADER_BYTES:]
    if body.size != size(header):
        raise FormatError(f"{path}: file size {len(raw)} does not match its header")
    if hashlib.sha256(body).digest() != digests[32:]:
        raise FormatError(f"{path}: the {what[1]} do not match their digest")
    return header, body


def save_parsed_features(features: FeatureMatrix, source_digest: bytes, path: str | Path) -> None:
    """Write a feature file's parse, keyed by its bytes' SHA-256: ids as int64, then vectors as float64."""
    body = features.ids.astype("<i8").tobytes() + features.vectors.astype("<f8").tobytes()
    _save_keyed(path, _PARSED_MAGIC, [_PARSED_VERSION, features.n, features.dim], source_digest, body)


def load_parsed_features(path: str | Path, source_digest: bytes, channel_name: str) -> FeatureMatrix | None:
    """The features :func:`save_parsed_features` wrote, bit for bit; None if missing or stale.

    Another version or ``source_digest`` is stale: the feature file changed
    and is to be parsed again. A malformed file is a FormatError, and the
    features pass every :class:`FeatureMatrix` check.
    """
    found = _load_keyed(path, _PARSED_MAGIC, ("parsed features", "features"), [_PARSED_VERSION],
                        lambda: source_digest, lambda words: 8 * words[1] * (1 + words[2]))
    if found is None:
        return None
    (_, n, dim), body = found
    try:
        return FeatureMatrix(channel_name, body[: 8 * n].view("<i8"), body[8 * n :].view("<f8").reshape(n, dim))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _neighbor_digest(index: NeighborhoodIndex) -> bytes:
    """SHA-256 of the neighbor table as little-endian int64 row positions, all a tier-3 table is counted from."""
    return hashlib.sha256(np.ascontiguousarray(index.neighbor_table, dtype="<i8")).digest()


def save_tier3(index: NeighborhoodIndex, k1: int, k2: int, path: str | Path) -> None:
    """Write the index's tier-3 table at (k1, k2), counted now unless cached, for :func:`load_tier3`.

    Its body is the raw counts, row-major, in the table's dtype, little-endian.
    """
    table = index.overlap_table(k1, k2)
    body = table.astype(table.dtype.newbyteorder("<"), copy=False).tobytes()
    _save_keyed(path, _TIER3_MAGIC, [_TIER3_VERSION, k1, k2], _neighbor_digest(index), body)


def load_tier3(index: NeighborhoodIndex, k1: int, k2: int, path: str | Path) -> None:
    """Cache the index's tier-3 table at (k1, k2) from the file :func:`save_tier3` wrote, if it is current.

    A missing or stale file (another version, (k1, k2) or neighbor table) is
    left alone: the table is then built on first use. A malformed file, or a
    count over min(k1, k2), is a FormatError. The table read is read-only.
    """
    stored, width = index.neighbor_table.shape
    shape = (stored, min(k1, width))
    dtype = np.dtype(np.min_scalar_type(min(k1, k2))).newbyteorder("<")
    found = _load_keyed(path, _TIER3_MAGIC, ("tier-3 table", "counts"), [_TIER3_VERSION, k1, k2],
                        lambda: _neighbor_digest(index), lambda _: shape[0] * shape[1] * dtype.itemsize)
    if found is None:
        return
    table = found[1].view(dtype).reshape(shape)
    if table.max(initial=0) > min(k1, k2):
        raise FormatError(f"{path}: a count exceeds min(k1, k2) = {min(k1, k2)}")
    table.setflags(write=False)
    index._tables.setdefault((k1, k2), table)
