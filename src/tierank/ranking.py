"""Ranked result lists and their TSV serialization.

The TSV schema is one row per returned item:
``query_id<TAB>rank<TAB>item_id<TAB>score<TAB>tier``
with rank 1-based and scores rendered with full float precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FormatError, read_table, write_text


@dataclass(frozen=True)
class RankedList:
    """An ordered list of (item id, score) pairs produced for one query."""

    query: int
    entries: tuple[tuple[int, float], ...]
    tier: str
    channel: str = ""

    def ids(self) -> tuple[int, ...]:
        return tuple(item for item, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def tsv_text(self) -> str:
        """Every TSV row of the list, each ended by a newline, as one string."""
        head, tail = f"{self.query}\t", f"\t{self.tier}\n"
        return "".join([f"{head}{rank}\t{item}\t{score!r}{tail}" for rank, (item, score) in enumerate(self.entries, 1)])

    def tsv_lines(self) -> list[str]:
        return self.tsv_text().split("\n")[:-1]


@dataclass(frozen=True)
class FinalRanking:
    """Greedy fused-selection output; the query is always the first item."""

    query: int
    items: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.items or self.items[0] != self.query:
            raise ValueError("final ranking must start with the query")
        if len(set(self.items)) != len(self.items):
            raise ValueError("final ranking contains duplicates")

    def to_ranked_list(self, tier: str = "mfr", channel: str = "fused") -> RankedList:
        entries = tuple(zip(self.items, self.scores))
        return RankedList(query=self.query, entries=entries, tier=tier, channel=channel)


def write_rankings_tsv(rankings: Iterable[RankedList], path: str | Path) -> None:
    write_text(path, (ranking.tsv_text() for ranking in rankings))


def read_rankings_tsv(path: str | Path) -> list[RankedList]:
    """Read rankings back, grouped by query in file order, from the table :func:`errors.read_table` reads.

    A ranking starts at every row of another query or of rank 1, takes its
    tier from that row, and its ranks count up from 1.
    """
    (query, rank, item, score, tier), linenos = read_table(
        path, "iiifs", "malformed ranking row", "expected 5 tab-separated fields", sep="\t"
    )
    first = np.ones(rank.shape[0], dtype=bool)  # the rows that start a ranking
    first[1:] = (query[1:] != query[:-1]) | (rank[1:] == 1)
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, rank.shape[0]))
    bad = np.flatnonzero(rank != np.arange(rank.shape[0]) - np.repeat(starts, sizes) + 1)
    if bad.size:
        raise FormatError(f"{path}:{linenos[bad[0]]}: rank column out of order")
    items, scores = item.tolist(), score.tolist()
    bounds = zip(starts.tolist(), [*starts[1:].tolist(), len(items)])
    return [
        RankedList(query=q, entries=tuple(zip(items[start:stop], scores[start:stop])), tier=t)
        for q, (start, stop), t in zip(query[starts].tolist(), bounds, tier[starts].tolist())
    ]
