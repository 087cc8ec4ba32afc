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


# a row's five fields; the tier is kept one character wide, as a ranking's tier is read from its first line
_TSV_ROW = np.dtype([("query", "<i8"), ("rank", "<i8"), ("item", "<i8"), ("score", "<f8"), ("tier", "U1")])


def read_rankings_tsv(path: str | Path) -> list[RankedList]:
    """Read rankings back, grouped by query in file order; numbers in :func:`errors.parse_number`'s grammar.

    An ASCII file is parsed in one ``np.loadtxt`` pass (:func:`_one_pass`).
    A file the pass refuses, or one with a non-ASCII character (numpy reads
    some as digits), is read again line by line (:func:`_read_rows`), which
    names the first bad line and reads an id no int64 holds.
    """
    parsed = _one_pass(path)
    if parsed is None:
        return _read_rows(path)
    rows, starts, tiers = parsed
    items, scores = rows["item"].tolist(), rows["score"].tolist()
    bounds = zip(starts.tolist(), [*starts[1:].tolist(), len(items)])
    return [
        RankedList(query=q, entries=tuple(zip(items[start:stop], scores[start:stop])), tier=tier)
        for q, (start, stop), tier in zip(rows["query"][starts].tolist(), bounds, tiers)
    ]


def _one_pass(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """An ASCII rankings TSV's rows, where each ranking starts, and its tier; None if the line loop is to read it.

    A ranking starts at every row of another query or of rank 1, and its
    ranks count up from 1; a file whose rows do not is left to the loop,
    which names the first that does not.
    """
    text = read_text(path)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not text.isascii():
        return None
    try:
        rows = np.loadtxt(lines, dtype=_TSV_ROW, delimiter="\t", comments=None, ndmin=1)
    except ValueError:
        return None
    query, rank = rows["query"], rows["rank"]
    starts = np.flatnonzero(np.concatenate(([True], (query[1:] != query[:-1]) | (rank[1:] == 1))))
    sizes = np.diff(np.append(starts, rank.shape[0]))
    if (rank != np.arange(rank.shape[0]) - np.repeat(starts, sizes) + 1).any():
        return None
    return rows, starts, [lines[start].rsplit("\t", 1)[1] for start in starts.tolist()]


def _read_rows(path: str | Path) -> list[RankedList]:
    """:func:`read_rankings_tsv`, one line at a time."""
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
