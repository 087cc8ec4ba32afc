"""Single-channel re-ranking over tiered query-centric neighborhood graphs.

Tier 1 carries Jaccard overlap weights between the query's candidate set
and each candidate's own neighborhood, tier 2 binarizes tier 1, and tier 3
counts, for each candidate, how many of its neighbors are tier-2-connected
to the query. Because every neighbor row starts with its owner, tier 3 is
read off tier 1's overlap counts without touching the index again. Sorting
by the tier-3 counts demotes candidates whose own neighborhoods point away
from the query's, which is what makes the scheme robust to outliers sitting
next to the query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EmptySetError, FormatError
from .index import NeighborhoodIndex
from .ranking import RankedList

TIER3_QUERY_ANCHORED = "query-anchored"
TIER3_LITERAL = "literal"


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


def _resolve_k(index: NeighborhoodIndex, k1: int | None, k2: int | None) -> tuple[int, int]:
    k1 = index.k if k1 is None else k1
    k2 = index.k if k2 is None else k2
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be >= 1")
    if k1 > index.k or k2 > index.k:
        raise ValueError(f"k1/k2 cannot exceed the index k={index.k}")
    return k1, k2


def tier1_weights(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> QueryGraph:
    """Jaccard-weighted edges from the query to every candidate, scaled by alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k1, k2 = _resolve_k(index, k1, k2)
    nearest = index.neighbor_ids(query, k1)
    candidates = tuple(nearest.tolist())
    rows = index.rows(nearest, k2)
    counts = np.isin(rows, nearest).sum(axis=1).tolist()
    lengths = np.count_nonzero(rows >= 0, axis=1).tolist()
    edges: dict[int, float] = {}
    overlap: dict[int, JaccardValue] = {}
    for item, length, inter in zip(candidates, lengths, counts):
        union = length + len(candidates) - inter
        jv = JaccardValue(numerator=inter, denominator=union)
        overlap[item] = jv
        edges[item] = alpha * (jv.numerator / jv.denominator)
    return QueryGraph(
        query=query,
        tier=1,
        edges=edges,
        order=candidates,
        k1=k1,
        k2=k2,
        channel=index.channel_name,
        alpha=alpha,
        overlap=overlap,
    )


def tier2_weights(tier1: QueryGraph) -> QueryGraph:
    """Binarize tier 1: weight 1 iff the candidate overlaps the query's set at all.

    Tier 1's exact overlaps pass through unchanged, for tier 3 to count from.
    """
    if tier1.tier != 1 or tier1.overlap is None:
        raise FormatError("tier2_weights expects a tier-1 graph")
    edges = {item: 1.0 if tier1.overlap[item].numerator > 0 else 0.0 for item in tier1.order}
    return replace(tier1, tier=2, edges=edges)


def tier3_weights(
    index: NeighborhoodIndex,
    query: int,
    tier2: QueryGraph,
    mode: str = TIER3_QUERY_ANCHORED,
) -> QueryGraph:
    """Integer edge weights counting tier-2 support inside each candidate's neighborhood.

    The default mode scores candidate x by how many of x's k2 neighbors are
    tier-2-connected to the query. Every row starts with its owner, so every
    candidate overlaps the query's set and tier 2 keeps them all; the count
    is then |N_k2(x) ∩ N_k1(q)|, tier 1's numerator. The "literal" mode
    instead re-anchors tier 2 at x itself, which is independent of the query
    and is kept only as a documented comparison switch: x's own candidates
    all pass x's gate, so it counts |N_k2(x) ∩ N_k1(x)|. Both sets are
    prefixes of x's row, so that is min(k1, |N_k2(x)|), and tier 1's union
    gives |N_k2(x)| = denominator - |N_k1(q)| + numerator. Neither mode
    reads ``index`` again.
    """
    if tier2.tier != 2 or tier2.overlap is None:
        raise FormatError("tier3_weights expects a tier-2 graph carrying tier 1's overlaps")
    if tier2.query != query:
        raise FormatError("tier-2 graph belongs to a different query")
    if any(w != 1.0 for w in tier2.edges.values()):
        raise FormatError("tier-2 weights must all be 1: a row led by its owner gates no candidate out")
    if mode not in (TIER3_QUERY_ANCHORED, TIER3_LITERAL):
        raise ValueError(f"unknown tier-3 mode {mode!r}")
    edges: dict[int, float] = {}
    for item in tier2.order:
        jv = tier2.overlap[item]
        row_length = jv.denominator - len(tier2.order) + jv.numerator  # |N_k2(x)|
        edges[item] = float(jv.numerator if mode == TIER3_QUERY_ANCHORED else min(tier2.k1, row_length))
    return replace(tier2, tier=3, edges=edges, overlap=None)


def tiered_graph(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
    mode: str = TIER3_QUERY_ANCHORED,
) -> tuple[QueryGraph, QueryGraph]:
    """Convenience: (tier-1 graph, tier-3 graph) for one query on one channel."""
    t1 = tier1_weights(index, query, alpha=alpha, k1=k1, k2=k2)
    t2 = tier2_weights(t1)
    t3 = tier3_weights(index, query, t2, mode=mode)
    return t1, t3


def _jaccard_keys(t1: QueryGraph) -> list[float]:
    """Each candidate's exact tier-1 Jaccard as a float, in ``t1.order``.

    Sorting on these floats gives the exact Fraction order without building
    a Fraction per candidate. A union never exceeds d = k1 + k2, so two
    different values a/b and c/e (b, e <= d) differ by at least
    1/(b·e) >= 1/d², while a correctly rounded quotient in [0, 1] is off by
    at most 2**-54; distinct values therefore keep their order whenever
    d² < 2**53, which holds for any k below 4·10**7. Equal fractions are the
    same real number and round to the same float.
    """
    assert t1.overlap is not None
    return [float(t1.overlap[item]) for item in t1.order]


def tier1_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
) -> RankedList:
    """Candidates sorted by descending tier-1 weight (single-tier re-ranking)."""
    t1 = tier1_weights(index, query, alpha=alpha, k1=k1, k2=k2)
    jac = _jaccard_keys(t1)
    order = sorted(range(len(t1.order)), key=lambda pos: (-jac[pos], pos))
    entries = tuple((t1.order[pos], t1.edges[t1.order[pos]]) for pos in order)
    return RankedList(query=query, entries=entries, tier="1", channel=index.channel_name)


def tiered_rerank(
    index: NeighborhoodIndex,
    query: int,
    alpha: float = 1.0,
    k1: int | None = None,
    k2: int | None = None,
    mode: str = TIER3_QUERY_ANCHORED,
) -> RankedList:
    """Full three-tier re-ranking of the query's candidate set.

    Candidates sort by descending tier-3 weight; ties fall back to
    descending exact tier-1 Jaccard, then the original distance rank, then
    ascending id. The query itself is always first, and the output is a
    permutation of the candidate set.
    """
    t1, t3 = tiered_graph(index, query, alpha=alpha, k1=k1, k2=k2, mode=mode)
    jac = _jaccard_keys(t1)
    # a candidate's distance rank is its position in t3.order; positions are
    # distinct, so the id, the last tie-break, never has to decide
    rest = [pos for pos, item in enumerate(t3.order) if item != query]
    rest.sort(key=lambda pos: (-t3.edges[t3.order[pos]], -jac[pos], pos))
    ordered = [query] + [t3.order[pos] for pos in rest]
    entries = tuple((item, t3.edges[item]) for item in ordered)
    return RankedList(query=query, entries=entries, tier="3", channel=index.channel_name)
