"""Retrieval metrics over labeled collections.

All metrics count the query itself as a return by default (it sits at
rank 1 of its own list); pass exclude_query=True to drop it before the
cutoff is applied. Shorter-than-r lists simply contribute misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ClassSizeError, FormatError, UnknownItemError, read_table, write_text
from .ranking import RankedList


@dataclass(frozen=True)
class GroundTruth:
    """Item-to-class labels plus derived class sizes."""

    labels: dict[int, int]
    class_sizes: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        sizes: dict[int, int] = {}
        for cls in self.labels.values():
            sizes[cls] = sizes.get(cls, 0) + 1
        object.__setattr__(self, "class_sizes", sizes)

    def label_of(self, item: int) -> int:
        try:
            return self.labels[item]
        except KeyError:
            raise UnknownItemError(f"item {item} has no ground-truth label")


@dataclass(frozen=True)
class MetricReport:
    """One metric value over a batch of rankings.

    ``hits`` keeps the raw integer count of relevant returns so that exact
    cross-metric identities can be checked without float rounding.
    """

    metric_name: str
    value: float
    r: int
    n_queries: int
    hits: int


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read `<id>,<class_id>` CSV labels, a table :func:`errors.read_table` reads; an id may be labeled once."""
    (items, classes), linenos = read_table(
        path, "ii", "non-integer id or class", "expected `<id>,<class_id>`", header=True
    )
    labels: dict[int, int] = {}
    for lineno, item, cls in zip(linenos, items.tolist(), classes.tolist()):
        if item in labels:
            raise FormatError(f"{path}:{lineno}: duplicate item id {item}")
        labels[item] = cls
    if not labels:
        raise FormatError(f"{path}: no labels")
    return GroundTruth(labels=labels)


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    write_text(path, (f"{item},{truth.labels[item]}\n" for item in sorted(truth.labels)))


def _top_hits(
    ranking: RankedList,
    truth: GroundTruth,
    r: int,
    exclude_query: bool,
) -> int:
    """Count same-class items among the first r returns of one ranking."""
    query_class = truth.label_of(ranking.query)
    returned = ranking.ids()
    if exclude_query:
        returned = tuple(item for item in returned if item != ranking.query)
    hits = 0
    for item in returned[:r]:
        if truth.label_of(item) == query_class:
            hits += 1
    return hits


def ns_score(
    rankings: Sequence[RankedList],
    truth: GroundTruth,
    exclude_query: bool = False,
) -> MetricReport:
    """Mean count of same-class items in the top 4, for 4-per-class truth.

    Requires every class to have exactly 4 members; the achievable range
    is [0, 4] and the query counts toward its own score.
    """
    bad = {cls: size for cls, size in truth.class_sizes.items() if size != 4}
    if bad:
        raise ClassSizeError(f"ns_score needs 4 items per class, got {bad}")
    if not rankings:
        raise FormatError("no rankings to score")
    hits = sum(_top_hits(rk, truth, 4, exclude_query) for rk in rankings)
    value = hits / len(rankings)
    return MetricReport("ns", value, r=4, n_queries=len(rankings), hits=hits)


def precision_at(
    rankings: Sequence[RankedList],
    truth: GroundTruth,
    r: int,
    exclude_query: bool = False,
) -> MetricReport:
    """Mean percentage of same-class items among the first r returns."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if not rankings:
        raise FormatError("no rankings to score")
    hits = sum(_top_hits(rk, truth, r, exclude_query) for rk in rankings)
    value = 100.0 * hits / (r * len(rankings))
    return MetricReport("precision", value, r=r, n_queries=len(rankings), hits=hits)


def recall_at(
    rankings: Sequence[RankedList],
    truth: GroundTruth,
    r: int,
    exclude_query: bool = False,
) -> MetricReport:
    """Mean percentage of the query's class recovered in the first r returns."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if not rankings:
        raise FormatError("no rankings to score")
    total = 0.0
    hits = 0
    for rk in rankings:
        got = _top_hits(rk, truth, r, exclude_query)
        hits += got
        size = truth.class_sizes[truth.label_of(rk.query)]
        total += 100.0 * got / size
    value = total / len(rankings)
    return MetricReport("recall", value, r=r, n_queries=len(rankings), hits=hits)
