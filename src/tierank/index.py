"""Feature ingestion, distance metrics, and exact self-inclusive KNN indexes.

Every indexed item carries its own id as the first entry of its neighbor
list (distance 0), so a neighborhood of size k means "the item plus its
k-1 nearest others". Ordering is by (distance, id) with the owner promoted
to the front, which makes index construction fully deterministic.

An index is three dense arrays: the sorted item ids, an (n, min(k, n))
neighbor-id table and the matching distance table, one row per item. It is
built a block of rows at a time and saved as a fixed header followed by the
raw little-endian arrays (index file v2), which load back without parsing
and are validated as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DimensionError,
    FileAccessError,
    FormatError,
    UnknownItemError,
    ZeroVectorError,
)
from .ranking import RankedList

_INDEX_MAGIC = b"TKINDEX\x00"
_INDEX_VERSION = 2
# follows the magic; the channel name comes next, zero-padded so that the
# item ids, the neighbor table and the distance table all start on 8-byte
# boundaries
_INDEX_HEADER = np.dtype(
    [("version", "<u8"), ("metric", "S8"), ("k", "<u8"), ("n", "<u8"), ("width", "<u8"), ("name_bytes", "<u8")]
)
_BINARY_MAGIC = b"TKF1"
_BUILD_BLOCK_ROWS = 128


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
    read-only int64 array in the vectors' row order.
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

    def row(self, item: int) -> np.ndarray:
        pos = np.flatnonzero(self.ids == item)
        if pos.shape[0] == 0:
            raise UnknownItemError(f"item {item} not in channel {self.channel_name!r}")
        return self.vectors[pos[0]]


def load_features(path: str | Path, fmt: str = "csv", channel_name: str | None = None) -> FeatureMatrix:
    """Load a feature matrix from a CSV or binary file."""
    name = channel_name if channel_name is not None else Path(path).stem
    if fmt == "csv":
        return _load_csv(path, name)
    if fmt == "binary":
        return _load_binary(path, name)
    raise FormatError(f"unknown feature format {fmt!r}")


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc}") from exc


def _load_csv(path: str | Path, channel_name: str) -> FeatureMatrix:
    text = _read_bytes(path).decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines:
        first = lines[0].split(",")[0].strip()
        try:
            float(first)
        except ValueError:
            lines = lines[1:]  # header row, detected by non-numeric first token
    if not lines:
        raise FormatError(f"{path}: no feature rows")

    ids: list[int] = []
    rows: list[list[float]] = []
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 2:
            raise FormatError(f"{path}:{lineno}: need an id and at least one feature")
        try:
            item = int(fields[0])
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed row") from exc
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise FormatError(f"{path}:{lineno}: expected {dim} features, got {len(values)}")
        ids.append(item)
        rows.append(values)

    vectors = np.asarray(rows, dtype=np.float64)
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate item ids")
    if not np.isfinite(vectors).all():
        raise FormatError(f"{path}: non-finite feature value")
    if any(i < 0 for i in ids):
        raise FormatError(f"{path}: negative item id")
    return FeatureMatrix(channel_name=channel_name, ids=ids, vectors=vectors)


def _load_binary(path: str | Path, channel_name: str) -> FeatureMatrix:
    raw = _read_bytes(path)
    if len(raw) < 8 or raw[:4] != _BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic bytes for binary feature file")
    dim = int(np.frombuffer(raw, dtype="<u4", count=1, offset=4)[0])
    if dim == 0:
        raise FormatError(f"{path}: zero feature dimension")
    body = raw[8:]
    record = np.dtype([("id", "<i8"), ("vec", "<f4", (dim,))])
    if len(body) == 0 or len(body) % record.itemsize != 0:
        raise FormatError(f"{path}: truncated binary feature file")
    parsed = np.frombuffer(body, dtype=record)
    ids = parsed["id"]
    vectors = parsed["vec"].astype(np.float64)
    if (ids < 0).any():
        raise FormatError(f"{path}: negative item id")
    if np.unique(ids).shape[0] != ids.shape[0]:
        raise FormatError(f"{path}: duplicate item ids")
    if not np.isfinite(vectors).all():
        raise FormatError(f"{path}: non-finite feature value")
    return FeatureMatrix(channel_name=channel_name, ids=ids, vectors=vectors)


def write_features_csv(features: FeatureMatrix, path: str | Path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for item, vec in zip(features.ids, features.vectors):
                fh.write(str(item) + "," + ",".join(repr(float(v)) for v in vec) + "\n")
    except OSError as exc:
        raise FileAccessError(f"cannot write {path}: {exc}") from exc


def write_features_binary(features: FeatureMatrix, path: str | Path) -> None:
    record = np.dtype([("id", "<i8"), ("vec", "<f4", (features.dim,))])
    out = np.empty(features.n, dtype=record)
    out["id"] = features.ids
    out["vec"] = features.vectors.astype(np.float32)
    try:
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(np.asarray([features.dim], dtype="<u4").tobytes())
            fh.write(out.tobytes())
    except OSError as exc:
        raise FileAccessError(f"cannot write {path}: {exc}") from exc


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


def _check_nonzero(block: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(block, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError(f"cosine distance undefined for zero vector in {what}")


def _nearest(dist: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``dist``, the columns of the k nearest entries, by (distance, id).

    Column j belongs to item ``ids[j]``; ties at the k-th distance go to the
    smallest ids.
    """
    part = np.argpartition(dist, min(k, dist.shape[1] - 1), axis=1)
    cols = part[:, :k]
    kth = np.take_along_axis(dist, cols, axis=1).max(axis=1, keepdims=True)
    # rows where an entry left out ties with the k-th nearest: choose again,
    # taking every entry below the tie and the smallest tied ids
    over = np.flatnonzero((np.take_along_axis(dist, part[:, k : k + 1], axis=1) == kth).any(axis=1))
    below = dist[over] < kth[over]
    tied = dist[over] == kth[over]
    need = k - np.count_nonzero(below, axis=1)
    tied_ids = np.sort(np.where(tied, ids, np.iinfo(np.int64).max), axis=1)
    cutoff = np.take_along_axis(tied_ids, need[:, None] - 1, axis=1)
    cols[over] = np.nonzero(below | (tied & (ids <= cutoff)))[1].reshape(over.shape[0], k)
    order = np.lexsort((ids[cols], np.take_along_axis(dist, cols, axis=1)), axis=1)
    return np.take_along_axis(cols, order, axis=1)


def knn_candidates(
    features: FeatureMatrix,
    query_vector: Iterable[float],
    k: int,
    metric: Metric = Metric.L1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (ids, distances) for an arbitrary query vector."""
    q = np.asarray(query_vector, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != features.dim:
        raise DimensionError(f"query has dim {q.shape}, collection has dim {features.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric == Metric.COSINE:
        _check_nonzero(features.vectors, f"channel {features.channel_name!r}")
        _check_nonzero(q[None, :], "query")
    dists = cdist(q[None, :], features.vectors, metric.cdist_name)
    pos = _nearest(dists, features.ids, min(k, features.n))[0]
    return features.ids[pos], dists[0, pos]


def query_knn(
    features: FeatureMatrix,
    query_vector: Iterable[float],
    k: int,
    metric: Metric = Metric.L1,
) -> RankedList:
    """Rank the k nearest stored items to an out-of-sample query vector."""
    sel_ids, sel_dists = knn_candidates(features, query_vector, k, metric)
    entries = tuple((int(i), float(d)) for i, d in zip(sel_ids, sel_dists))
    return RankedList(query=-1, entries=entries, tier="knn", channel=features.channel_name)




@dataclass(frozen=True, eq=False)
class NeighborhoodIndex:
    """Per-item, self-inclusive nearest-neighbor lists for one channel.

    Row r of ``neighbor_table`` lists item ``item_ids[r]`` and its nearest
    items, min(k, n) in all, sorted by (distance, id) with the item itself
    first; ``distance_table`` holds the matching distances. ``item_ids`` is
    sorted, so an id finds its row by binary search. ``virtual`` holds
    extra rows for out-of-sample queries (see :meth:`with_virtual`), kept
    apart so that the shared tables are never copied. The index is
    immutable after construction; all read accessors are safe to call
    concurrently.
    """

    channel_name: str
    k: int
    metric: Metric
    item_ids: np.ndarray
    neighbor_table: np.ndarray
    distance_table: np.ndarray
    virtual: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for array in (self.item_ids, self.neighbor_table, self.distance_table):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return self.item_ids.shape[0] + len(self.virtual)

    def __contains__(self, item: int) -> bool:
        return self._position(item) >= 0 or item in self.virtual

    def items(self) -> Iterator[int]:
        return iter(self.item_ids.tolist() + list(self.virtual))

    def _position(self, item: int) -> int:
        """Table row of a stored item, or -1."""
        pos = int(np.searchsorted(self.item_ids, item))
        if pos < self.item_ids.shape[0] and self.item_ids[pos] == item:
            return pos
        return -1

    def _entry(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        pos = self._position(item)
        if pos >= 0:
            return self.neighbor_table[pos], self.distance_table[pos]
        try:
            return self.virtual[item]
        except KeyError:
            raise UnknownItemError(f"item {item} not in index for channel {self.channel_name!r}") from None

    def neighbor_ids(self, item: int, k: int | None = None) -> np.ndarray:
        ids, _ = self._entry(item)
        return ids if k is None else ids[:k]

    def neighbors(self, item: int, k: int | None = None) -> list[tuple[int, float]]:
        ids, dists = self._entry(item)
        if k is not None:
            ids, dists = ids[:k], dists[:k]
        return [(int(i), float(d)) for i, d in zip(ids, dists)]

    def rows(self, items: Sequence[int] | np.ndarray, k: int | None = None) -> np.ndarray:
        """The first k neighbor ids of every item, as one int64 matrix.

        Row j belongs to ``items[j]``. A row shorter than the matrix (when
        n < k, or for a virtual row) is right-padded with -1; ids are
        non-negative, so the pad never matches an item.
        """
        items = np.asarray(items, dtype=np.int64)
        stored_width = self.neighbor_table.shape[1]
        width = max([stored_width] + [ids.shape[0] for ids, _ in self.virtual.values()])
        width = width if k is None else min(k, width)
        pos = np.minimum(np.searchsorted(self.item_ids, items), self.item_ids.shape[0] - 1)
        out = np.full((items.shape[0], width), -1, dtype=np.int64)
        out[:, : min(width, stored_width)] = self.neighbor_table[pos, :width]
        for j in np.flatnonzero(self.item_ids[pos] != items).tolist():
            row = self.neighbor_ids(int(items[j]), width)
            out[j] = -1
            out[j, : row.shape[0]] = row
        return out

    def with_virtual(self, item: int, ids: np.ndarray, dists: np.ndarray) -> "NeighborhoodIndex":
        """This index plus a synthetic row for ``item``, sharing the stored tables.

        Used to treat an out-of-sample query as a temporary member of its
        own candidate set; the stored index is not modified, and nothing of
        size n is copied. The row must meet the identity every stored row
        meets: led by ``item`` at distance 0, finite distances, no id named
        twice, and every later id stored or already virtual.
        """
        if item in self:
            raise FormatError(f"virtual id {item} collides with an indexed item")
        if item < 0:
            raise FormatError(f"virtual id {item} is negative")
        ids = np.array(ids, dtype=np.int64)
        dists = np.array(dists, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != dists.shape:
            raise FormatError(f"virtual row {item}: ids and distances differ in length")
        if ids.shape[0] == 0 or ids[0] != item or dists[0] != 0.0:
            raise FormatError(f"virtual row {item} is not led by its owner at distance 0")
        if not np.isfinite(dists).all():
            raise FormatError(f"virtual row {item} has a non-finite distance")
        if len(set(ids.tolist())) != ids.shape[0]:
            raise FormatError(f"virtual row {item} names an id twice")
        later = ids[1:]
        pos = np.minimum(np.searchsorted(self.item_ids, later), self.item_ids.shape[0] - 1)
        for other in later[self.item_ids[pos] != later].tolist():
            if other not in self.virtual:
                raise FormatError(f"virtual row {item} names {other}, which is neither stored nor virtual")
        ids.setflags(write=False)
        dists.setflags(write=False)
        return replace(self, virtual={**self.virtual, item: (ids, dists)})


def build_index(features: FeatureMatrix, k: int, metric: Metric = Metric.L1) -> NeighborhoodIndex:
    """Build the exact self-inclusive KNN index for one channel."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric == Metric.COSINE:
        _check_nonzero(features.vectors, f"channel {features.channel_name!r}")

    order = np.argsort(features.ids)
    k_eff = min(k, features.n)
    table = np.empty((features.n, k_eff), dtype=np.int64)
    dists = np.empty((features.n, k_eff), dtype=np.float64)
    for start in range(0, features.n, _BUILD_BLOCK_ROWS):
        owners = order[start : start + _BUILD_BLOCK_ROWS]
        block = cdist(features.vectors[owners], features.vectors, metric.cdist_name)
        # the owner sorts first, ahead of any zero-distance duplicate (a
        # cosine self-distance can come out a rounding error above zero)
        block[np.arange(owners.shape[0]), owners] = -1.0
        cols = _nearest(block, features.ids, k_eff)
        done = slice(start, start + owners.shape[0])
        table[done] = features.ids[cols]
        dists[done] = np.take_along_axis(block, cols, axis=1)
    dists[:, 0] = 0.0
    return NeighborhoodIndex(features.channel_name, k, metric, features.ids[order], table, dists)


def save_index(index: NeighborhoodIndex, path: str | Path) -> None:
    """Persist an index as index file v2: a fixed header, then the raw tables."""
    if index.virtual:
        raise FormatError("an index with virtual rows cannot be saved")
    name = index.channel_name.encode("utf-8")
    header = np.array(
        [(_INDEX_VERSION, index.metric.value, index.k, index.n, index.neighbor_table.shape[1], len(name))],
        dtype=_INDEX_HEADER,
    )
    parts = [_INDEX_MAGIC, header.tobytes(), name, bytes(-len(name) % 8)]
    parts += [index.item_ids.astype("<i8").tobytes(), index.neighbor_table.astype("<i8").tobytes()]
    parts.append(index.distance_table.astype("<f8").tobytes())
    try:
        with open(path, "wb") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise FileAccessError(f"cannot write index to {path}: {exc}") from exc


def load_index(path: str | Path) -> NeighborhoodIndex:
    """Load an index saved by :func:`save_index`; round-trip is exact.

    The whole file is checked before use: its size against its header, the
    item ids (sorted, unique, non-negative) and every row (led by its owner
    at distance 0, then in (distance, id) order, naming indexed items only
    and none twice).
    """
    raw = _read_bytes(path)
    if raw.startswith(b"{"):
        raise FormatError(f"{path}: index file v1 (JSON) is no longer supported; re-run `tierank index`")
    start = len(_INDEX_MAGIC) + _INDEX_HEADER.itemsize
    if not raw.startswith(_INDEX_MAGIC) or len(raw) < start:
        raise FormatError(f"{path}: not a tierank index file")
    header = np.frombuffer(raw, dtype=_INDEX_HEADER, count=1, offset=len(_INDEX_MAGIC))[0]
    if header["version"] != _INDEX_VERSION:
        raise FormatError(f"{path}: unsupported index version {int(header['version'])}")
    k, n, width, name_bytes = (int(header[f]) for f in ("k", "n", "width", "name_bytes"))
    ids_at = start + name_bytes + (-name_bytes % 8)
    if len(raw) != ids_at + 8 * n + 16 * n * width:
        raise FormatError(f"{path}: file size {len(raw)} does not match its header")
    try:
        metric = Metric(header["metric"].decode("ascii"))
        channel = raw[start : start + name_bytes].decode("utf-8")
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
    if not np.isin(table, ids).all():
        raise FormatError(f"{path}: a row names an item that is not indexed")
    ranked = np.sort(table, axis=1)
    if (ranked[:, 1:] == ranked[:, :-1]).any():
        raise FormatError(f"{path}: a row names an item twice")
    return NeighborhoodIndex(channel, k, metric, ids, table, dists)
