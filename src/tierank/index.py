"""Feature ingestion, distance metrics, and exact self-inclusive KNN indexes.

Every indexed item carries its own id as the first entry of its neighbor
list (distance 0), so a neighborhood of size k means "the item plus its
k-1 nearest others". Ordering is by (distance, id) with the owner promoted
to the front, which makes index construction fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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

_INDEX_SCHEMA = "tierank.index"
_INDEX_VERSION = 1
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
    """One feature channel: n items, each a finite real vector of fixed dim."""

    channel_name: str
    ids: tuple[int, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise FormatError("feature vectors must form a 2-D array")
        if len(self.ids) != self.vectors.shape[0]:
            raise FormatError("id count does not match vector count")
        if len(self.ids) == 0:
            raise FormatError("feature matrix has zero items")
        if len(set(self.ids)) != len(self.ids):
            raise FormatError("duplicate item ids in feature matrix")
        if any(i < 0 for i in self.ids):
            raise FormatError("item ids must be non-negative")
        if not np.isfinite(self.vectors).all():
            raise FormatError("feature matrix contains NaN or Inf")
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row(self, item: int) -> np.ndarray:
        try:
            pos = self.ids.index(item)
        except ValueError:
            raise UnknownItemError(f"item {item} not in channel {self.channel_name!r}")
        return self.vectors[pos]


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
    return FeatureMatrix(channel_name=channel_name, ids=tuple(ids), vectors=vectors)


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
    ids = [int(i) for i in parsed["id"]]
    vectors = parsed["vec"].astype(np.float64)
    if any(i < 0 for i in ids):
        raise FormatError(f"{path}: negative item id")
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate item ids")
    if not np.isfinite(vectors).all():
        raise FormatError(f"{path}: non-finite feature value")
    return FeatureMatrix(channel_name=channel_name, ids=tuple(ids), vectors=vectors)


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
    out["id"] = np.asarray(features.ids, dtype=np.int64)
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


def pad_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Stack neighbor-id rows into one int64 matrix, right-padded with -1.

    Rows are shorter than k when n < k or for a virtual entry. Ids are
    non-negative, so the pad never matches an item.
    """
    lengths = np.array([row.shape[0] for row in rows], dtype=np.intp)
    out = np.full((len(rows), lengths.max(initial=0)), -1, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    return out


def _check_nonzero(block: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(block, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError(f"cosine distance undefined for zero vector in {what}")


def _top_k_positions(dist_row: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest entries, ties broken by ascending id."""
    n = dist_row.shape[0]
    k = min(k, n)
    if k == n:
        chosen = np.arange(n)
    else:
        part = np.argpartition(dist_row, k - 1)[:k]
        boundary = dist_row[part].max()
        strictly = np.flatnonzero(dist_row < boundary)
        at_boundary = np.flatnonzero(dist_row == boundary)
        need = k - strictly.shape[0]
        # boundary ties resolved toward smaller ids
        tie_order = at_boundary[np.argsort(ids[at_boundary], kind="stable")]
        chosen = np.concatenate([strictly, tie_order[:need]])
    order = np.lexsort((ids[chosen], dist_row[chosen]))
    return chosen[order]


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
    ids = np.asarray(features.ids, dtype=np.int64)
    dists = cdist(q[None, :], features.vectors, metric.cdist_name)[0]
    pos = _top_k_positions(dists, ids, k)
    return ids[pos], dists[pos]


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


@dataclass
class NeighborhoodIndex:
    """Per-item, self-inclusive nearest-neighbor lists for one channel.

    The index is immutable after construction; all read accessors are safe
    to call concurrently. Entries map item id to parallel (ids, distances)
    arrays of length min(k, n), sorted by (distance, id) with self first.
    """

    channel_name: str
    k: int
    metric: Metric
    entries: dict[int, tuple[np.ndarray, np.ndarray]]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __contains__(self, item: int) -> bool:
        return item in self.entries

    def items(self) -> Iterator[int]:
        return iter(self.entries)

    def _entry(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.entries[item]
        except KeyError:
            raise UnknownItemError(f"item {item} not in index for channel {self.channel_name!r}")

    def neighbor_ids(self, item: int, k: int | None = None) -> np.ndarray:
        ids, _ = self._entry(item)
        return ids if k is None else ids[:k]

    def neighbors(self, item: int, k: int | None = None) -> list[tuple[int, float]]:
        ids, dists = self._entry(item)
        if k is not None:
            ids, dists = ids[:k], dists[:k]
        return [(int(i), float(d)) for i, d in zip(ids, dists)]

    def with_virtual(self, item: int, ids: np.ndarray, dists: np.ndarray) -> "NeighborhoodIndex":
        """A copy of the index extended with a synthetic entry.

        Used to treat an out-of-sample query as a temporary member of its
        own candidate set; the stored index is not modified.
        """
        if item in self.entries:
            raise FormatError(f"virtual id {item} collides with an indexed item")
        new_entries = dict(self.entries)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        dists = np.ascontiguousarray(dists, dtype=np.float64)
        ids.setflags(write=False)
        dists.setflags(write=False)
        new_entries[item] = (ids, dists)
        return NeighborhoodIndex(self.channel_name, self.k, self.metric, new_entries)


def build_index(features: FeatureMatrix, k: int, metric: Metric = Metric.L1) -> NeighborhoodIndex:
    """Build the exact self-inclusive KNN index for one channel."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric == Metric.COSINE:
        _check_nonzero(features.vectors, f"channel {features.channel_name!r}")

    ids = np.asarray(features.ids, dtype=np.int64)
    vectors = features.vectors
    n = features.n
    k_eff = min(k, n)
    entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for start in range(0, n, _BUILD_BLOCK_ROWS):
        stop = min(start + _BUILD_BLOCK_ROWS, n)
        block = cdist(vectors[start:stop], vectors, metric.cdist_name)
        for offset in range(stop - start):
            row = block[offset]
            owner = int(ids[start + offset])
            pos = _top_k_positions(row, ids, k_eff)
            sel_ids = ids[pos]
            sel_dists = row[pos]
            # owner always present and first; zero-distance ties cannot evict it
            where = np.flatnonzero(sel_ids == owner)
            if where.shape[0] == 0:
                sel_ids[-1] = owner
                sel_dists[-1] = 0.0
                where = np.asarray([k_eff - 1])
            at = int(where[0])
            out_ids = np.concatenate(([owner], np.delete(sel_ids, at)))
            out_dists = np.concatenate(([0.0], np.delete(sel_dists, at)))
            out_ids = np.ascontiguousarray(out_ids, dtype=np.int64)
            out_dists = np.ascontiguousarray(out_dists, dtype=np.float64)
            out_ids.setflags(write=False)
            out_dists.setflags(write=False)
            entries[owner] = (out_ids, out_dists)

    ordered = {i: entries[i] for i in sorted(entries)}
    return NeighborhoodIndex(channel_name=features.channel_name, k=k, metric=metric, entries=ordered)


def save_index(index: NeighborhoodIndex, path: str | Path) -> None:
    """Persist an index as a self-describing, line-oriented JSON file."""
    header = {
        "schema": _INDEX_SCHEMA,
        "version": _INDEX_VERSION,
        "channel": index.channel_name,
        "k": index.k,
        "metric": index.metric.value,
        "n": index.n,
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for item in sorted(index.entries):
                ids, dists = index.entries[item]
                record = {
                    "id": item,
                    "neighbors": [[int(i), float(d)] for i, d in zip(ids, dists)],
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise FileAccessError(f"cannot write index to {path}: {exc}") from exc


def load_index(path: str | Path) -> NeighborhoodIndex:
    """Load an index saved by :func:`save_index`; round-trip is exact."""
    text = _read_bytes(path).decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty index file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad index header") from exc
    if not isinstance(header, dict) or header.get("schema") != _INDEX_SCHEMA:
        raise FormatError(f"{path}: not a tierank index file")
    if header.get("version") != _INDEX_VERSION:
        raise FormatError(f"{path}: unsupported index version {header.get('version')!r}")
    try:
        metric = Metric(header["metric"])
        k = int(header["k"])
        channel = str(header["channel"])
        n = int(header["n"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed index header") from exc

    entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            item = int(record["id"])
            pairs = record["neighbors"]
            ids = np.asarray([int(p[0]) for p in pairs], dtype=np.int64)
            dists = np.asarray([float(p[1]) for p in pairs], dtype=np.float64)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed index record") from exc
        if item < 0 or (ids < 0).any():
            raise FormatError(f"{path}:{lineno}: negative item id")
        ids.setflags(write=False)
        dists.setflags(write=False)
        entries[item] = (ids, dists)
    if len(entries) != n:
        raise FormatError(f"{path}: header promises {n} items, found {len(entries)}")
    return NeighborhoodIndex(channel_name=channel, k=k, metric=metric, entries=entries)
