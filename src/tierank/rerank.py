"""Single-channel re-ranking over tiered query-centric neighborhood graphs.

Tier 1 carries Jaccard overlap weights between the query's candidate set
and each candidate's own neighborhood, tier 2 binarizes tier 1, and tier 3
counts, for each candidate, how many of its neighbors are tier-2-connected
to the query. Every neighbor row starts with its owner, so tier 2 keeps
every candidate and tier 3 is tier 1's overlap count: the index's counting
kernel, run on the query's row, gives each candidate's overlap with the
query's set (and, for tier 1, their union size), and the rankings sort
those arrays. :func:`tiered_graph`'s tier-1 and tier-3 :class:`QueryGraph`
views, which no ranking builds, are no public names of the package. Sorting
by tier 3 demotes candidates whose own neighborhoods point away from the
query's, which makes the scheme robust to outliers sitting next to the
query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .index import NeighborhoodIndex
from .ranking import RankedList


@dataclass(frozen=True)
class JaccardValue:
    """Exact set-overlap ratio, kept as the raw |intersection| / |union| counts."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0 or self.numerator < 0 or self.numerator > self.denominator:
            raise ValueError(f"invalid Jaccard counts {self.numerator}/{self.denominator}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True)
class QueryGraph:
    """Weighted edges from one query to its candidate set, at one tier.

    ``order`` preserves the candidates' original distance ranking, which
    later stages use for tie-breaking. A tier-1 graph additionally carries
    the exact Jaccard value per edge.
    """

    query: int
    tier: int
    edges: dict[int, float]
    order: tuple[int, ...]
    k1: int
    k2: int
    channel: str = ""
    overlap: dict[int, JaccardValue] | None = None


def resolve_k(index: NeighborhoodIndex, alpha: float, k1: int | None, k2: int | None) -> tuple[int, int]:
    """Check alpha and k1/k2 against the index; an unset k is the index's k."""
    if not 0 < alpha < float("inf"):  # NaN fails both
        raise ValueError("alpha must be positive" + ("" if alpha <= 0 else f" and finite, got {alpha!r}"))
    k1 = index.k if k1 is None else k1
    k2 = index.k if k2 is None else k2
    if not (isinstance(k1, (int, np.integer)) and isinstance(k2, (int, np.integer))) or bool in (type(k1), type(k2)):
        raise ValueError(f"k1 and k2 must be integers, got {k1!r} and {k2!r}")
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be >= 1")
    if k1 > index.k or k2 > index.k:
        raise ValueError(f"k1/k2 cannot exceed the index k={index.k}")
    return k1, k2


def _overlaps(
    index: NeighborhoodIndex, query: int, k1: int, k2: int, query_row: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """(candidates, overlaps, their k2 rows) of one query, one entry per candidate.

    The candidates are the query's k1 row in distance order: its row of
    the table, or ``query_row`` for an out-of-sample query, whose slot n
    it names ``query``. Candidate x's overlap is |N_k2(x) ∩ N_k1(q)|. The
    overlaps are the index's counting kernel run on the query's one row, so
    a single-channel query never builds an overlap table. Every row is led
    by its owner (the index checks it), which makes tier 3 this overlap.
    """
    nearest = index.neighbor_positions(query, k1) if query_row is None else query_row[:k1]
    rows, counts = index.overlap_counts(nearest[None, :], k2, query_row=query_row)
    ids = index.ids_at(nearest) if query_row is None else index.item_ids.take(nearest, mode="clip")
    if query_row is not None:  # slot n, which leads the row, names the query and no row of the index
        ids[0] = query
    return ids, counts[0].astype(np.int64), rows[0]


def _jaccard(overlaps: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unions, Jaccard) of the candidates :func:`_overlaps` gives: |N_k2(x) ∪ N_k1(q)| and overlap / union."""
    unions = np.count_nonzero(rows >= 0, axis=1) + rows.shape[0] - overlaps
    # Sorting on these floats gives the exact Fraction order. A union never
    # exceeds d = k1 + k2, so two different values a/b and c/e (b, e <= d)
    # differ by at least 1/(b·e) >= 1/d², while a correctly rounded quotient
    # in [0, 1] is off by at most 2**-54; distinct values therefore keep
    # their order whenever d² < 2**53, which holds for any k below 4·10**7.
    # Equal fractions are the same real number and round to the same float.
    return unions, overlaps / unions


def tiered_graph(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> tuple[QueryGraph, QueryGraph]:
    """(tier-1 graph, tier-3 graph) for one query on one channel, for inspection.

    Tier 1 weighs each candidate by alpha times its exact Jaccard, kept in
    ``overlap``; tier 3 by its overlap count, tier 1's numerator.
    """
    k1, k2 = resolve_k(index, alpha, k1, k2)
    nearest, overlaps, rows = _overlaps(index, query, k1, k2)
    unions, jac = _jaccard(overlaps, rows)
    order = tuple(nearest.tolist())
    counts = overlaps.tolist()
    tier1 = QueryGraph(
        query=query, tier=1, edges=dict(zip(order, (alpha * jac).tolist())), order=order,
        k1=k1, k2=k2, channel=index.channel_name,
        overlap={item: JaccardValue(num, den) for item, num, den in zip(order, counts, unions.tolist())},
    )
    return tier1, replace(tier1, tier=3, edges=dict(zip(order, map(float, counts))), overlap=None)


def tier1_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> RankedList:
    """Candidates by descending tier-1 weight, ties in distance order (single-tier re-ranking)."""
    nearest, overlaps, rows = _overlaps(index, query, *resolve_k(index, alpha, k1, k2))
    _, jac = _jaccard(overlaps, rows)
    order = np.argsort(-jac, kind="stable")
    entries = tuple(zip(nearest[order].tolist(), (alpha * jac[order]).tolist()))
    return RankedList(query=int(nearest[0]), entries=entries, tier="1", channel=index.channel_name)


def tiered_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
    query_row: np.ndarray | None = None,
) -> RankedList:
    """Full three-tier re-ranking of the query's candidate set.

    Candidates sort by descending tier-3 weight; ties fall back to the
    original distance rank. The query itself, named by its stored id, is
    always first, and the output is a permutation of the candidate set.
    With ``query_row`` (a row of :meth:`NeighborhoodIndex.query_rows`),
    ``query`` is an out-of-sample query with that row at slot n.
    """
    nearest, overlaps, _ = _overlaps(index, query, *resolve_k(index, alpha, k1, k2), query_row)
    # lexsort is stable and its last key decides first: the query, then
    # tier 3, then the distance rank (row position). Tier-1 Jaccard
    # c/(len + k1 - c) needs no key of its own: every candidate but the
    # query has a stored row, so all share one length, and the Jaccard then
    # rises with the count c, ordering them as tier 3 does.
    order = np.lexsort((-overlaps, nearest != query))
    entries = tuple(zip(nearest[order].tolist(), overlaps[order].astype(np.float64).tolist()))
    return RankedList(query=int(nearest[0]), entries=entries, tier="3", channel=index.channel_name)
