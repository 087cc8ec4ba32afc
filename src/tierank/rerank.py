"""Single-channel re-ranking over tiered query-centric neighborhood graphs.

Tier 1 carries Jaccard overlap weights between the query's candidate set
and each candidate's own neighborhood, tier 2 binarizes tier 1, and tier 3
counts, for each candidate, how many of its neighbors are tier-2-connected
to the query. Every neighbor row starts with its owner, so tier 3 is tier
1's overlap count: one array kernel gives each candidate's overlap with the
query's set and their union size, the rankings sort those arrays, and the
:class:`QueryGraph` views of ``tier*_weights`` and :func:`tiered_graph` are
built from them for inspection only. Sorting by tier 3 demotes candidates
whose own neighborhoods point away from the query's, which makes the scheme
robust to outliers sitting next to the query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EmptySetError, FormatError
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


def jaccard(a: Iterable[int], b: Iterable[int]) -> JaccardValue:
    """|a ∩ b| / |a ∪ b| for two non-empty id sets."""
    sa = frozenset(a)
    sb = frozenset(b)
    if not sa or not sb:
        raise EmptySetError("jaccard requires two non-empty sets")
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return JaccardValue(numerator=inter, denominator=union)


@dataclass(frozen=True)
class QueryGraph:
    """Weighted edges from one query to its candidate set, at one tier.

    ``order`` preserves the candidates' original distance ranking, which
    later stages use for tie-breaking. Tier-1 and tier-2 graphs additionally
    carry the exact Jaccard value per edge.
    """

    query: int
    tier: int
    edges: dict[int, float]
    order: tuple[int, ...]
    k1: int
    k2: int
    channel: str = ""
    alpha: float = 1.0
    overlap: dict[int, JaccardValue] | None = None


def resolve_k(index: NeighborhoodIndex, alpha: float, k1: int | None, k2: int | None) -> tuple[int, int]:
    """Check alpha and k1/k2 against the index; an unset k is the index's k."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k1 = index.k if k1 is None else k1
    k2 = index.k if k2 is None else k2
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be >= 1")
    if k1 > index.k or k2 > index.k:
        raise ValueError(f"k1/k2 cannot exceed the index k={index.k}")
    return k1, k2


def _overlaps(index: NeighborhoodIndex, query: int, k1: int, k2: int) -> tuple[np.ndarray, ...]:
    """(candidates, overlaps, unions, Jaccard) of one query, one entry per candidate.

    The candidates are the query's k1 row in distance order; candidate x's
    overlap is |N_k2(x) ∩ N_k1(q)| and its union |N_k2(x) ∪ N_k1(q)|.
    """
    nearest = index.neighbor_ids(query, k1)
    rows = index.rows(nearest, k2)
    overlaps = np.isin(rows, nearest).sum(axis=1)
    unions = np.count_nonzero(rows >= 0, axis=1) + nearest.shape[0] - overlaps
    # Sorting on these floats gives the exact Fraction order. A union never
    # exceeds d = k1 + k2, so two different values a/b and c/e (b, e <= d)
    # differ by at least 1/(b·e) >= 1/d², while a correctly rounded quotient
    # in [0, 1] is off by at most 2**-54; distinct values therefore keep
    # their order whenever d² < 2**53, which holds for any k below 4·10**7.
    # Equal fractions are the same real number and round to the same float.
    return nearest, overlaps, unions, overlaps / unions


def tier1_weights(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> QueryGraph:
    """Jaccard-weighted edges from the query to every candidate, scaled by alpha."""
    k1, k2 = resolve_k(index, alpha, k1, k2)
    nearest, overlaps, unions, jac = _overlaps(index, query, k1, k2)
    candidates = tuple(nearest.tolist())
    overlap = {
        item: JaccardValue(numerator=num, denominator=den)
        for item, num, den in zip(candidates, overlaps.tolist(), unions.tolist())
    }
    edges = dict(zip(candidates, (alpha * jac).tolist()))
    return QueryGraph(
        query=query, tier=1, edges=edges, order=candidates, k1=k1, k2=k2,
        channel=index.channel_name, alpha=alpha, overlap=overlap,
    )


def tier2_weights(tier1: QueryGraph) -> QueryGraph:
    """Binarize tier 1: weight 1 iff the candidate overlaps the query's set at all.

    Tier 1's exact overlaps pass through unchanged, for tier 3 to count from.
    """
    if tier1.tier != 1 or tier1.overlap is None:
        raise FormatError("tier2_weights expects a tier-1 graph")
    edges = {item: 1.0 if tier1.overlap[item].numerator > 0 else 0.0 for item in tier1.order}
    return replace(tier1, tier=2, edges=edges)


def tier3_weights(index: NeighborhoodIndex, query: int, tier2: QueryGraph) -> QueryGraph:
    """Integer edge weights counting tier-2 support inside each candidate's neighborhood.

    Candidate x scores how many of its k2 neighbors are tier-2-connected to
    the query. Every row starts with its owner, so every candidate overlaps
    the query's set and tier 2 keeps them all; the count is then
    |N_k2(x) ∩ N_k1(q)|, tier 1's numerator, and ``index`` is not read
    again.
    """
    if tier2.tier != 2 or tier2.overlap is None:
        raise FormatError("tier3_weights expects a tier-2 graph carrying tier 1's overlaps")
    if tier2.query != query:
        raise FormatError("tier-2 graph belongs to a different query")
    if any(w != 1.0 for w in tier2.edges.values()):
        raise FormatError("tier-2 weights must all be 1: a row led by its owner gates no candidate out")
    edges = {item: float(tier2.overlap[item].numerator) for item in tier2.order}
    return replace(tier2, tier=3, edges=edges, overlap=None)


def tiered_graph(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> tuple[QueryGraph, QueryGraph]:
    """Convenience: (tier-1 graph, tier-3 graph) for one query on one channel."""
    t1 = tier1_weights(index, query, alpha=alpha, k1=k1, k2=k2)
    return t1, tier3_weights(index, query, tier2_weights(t1))


def tier1_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> RankedList:
    """Candidates by descending tier-1 weight, ties in distance order (single-tier re-ranking)."""
    nearest, _, _, jac = _overlaps(index, query, *resolve_k(index, alpha, k1, k2))
    order = np.argsort(-jac, kind="stable")
    entries = tuple(zip(nearest[order].tolist(), (alpha * jac[order]).tolist()))
    return RankedList(query=query, entries=entries, tier="1", channel=index.channel_name)


def tiered_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> RankedList:
    """Full three-tier re-ranking of the query's candidate set.

    Candidates sort by descending tier-3 weight; ties fall back to
    descending exact tier-1 Jaccard, then the original distance rank. The
    query itself is always first, and the output is a permutation of the
    candidate set.
    """
    nearest, overlaps, _, jac = _overlaps(index, query, *resolve_k(index, alpha, k1, k2))
    if not overlaps.all():
        raise FormatError("a candidate row shares nothing with the query's: it is not led by its owner")
    # lexsort is stable and its last key decides first: the query, then
    # tier 3, then tier-1 Jaccard, then the distance rank (row position)
    order = np.lexsort((-jac, -overlaps, nearest != query))
    if nearest[order[0]] != query:
        raise FormatError(f"query {query} is not in its own neighbor row")
    entries = tuple(zip(nearest[order].tolist(), overlaps[order].astype(np.float64).tolist()))
    return RankedList(query=query, entries=entries, tier="3", channel=index.channel_name)
