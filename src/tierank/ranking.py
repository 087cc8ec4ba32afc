"""Ranked result lists and their TSV serialization.

The TSV schema is one row per returned item:
``query_id<TAB>rank<TAB>item_id<TAB>score<TAB>tier``
with rank 1-based and scores rendered with full float precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import FormatError, parse_number, read_text, write_text


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

    def tsv_lines(self) -> Iterator[str]:
        for rank, (item, score) in enumerate(self.entries, start=1):
            yield f"{self.query}\t{rank}\t{item}\t{score!r}\t{self.tier}"


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
    write_text(path, (line + "\n" for ranking in rankings for line in ranking.tsv_lines()))


def read_rankings_tsv(path: str | Path) -> list[RankedList]:
    """Read rankings back, grouped by query in file order; numbers in :func:`errors.parse_number`'s grammar."""
    lines = read_text(path).splitlines()
    rankings: list[RankedList] = []
    current_query: int | None = None
    current_tier = ""
    entries: list[tuple[int, float]] = []

    def flush() -> None:
        if current_query is not None:
            rankings.append(
                RankedList(query=current_query, entries=tuple(entries), tier=current_tier)
            )

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields")
        try:
            query, rank, item = (parse_number(text, int) for text in parts[:3])
            score = parse_number(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed ranking row") from exc
        tier = parts[4]
        if query != current_query or rank == 1:
            flush()
            current_query = query
            current_tier = tier
            entries = []
        if rank != len(entries) + 1:
            raise FormatError(f"{path}:{lineno}: rank column out of order")
        entries.append((item, score))
    flush()
    return rankings
