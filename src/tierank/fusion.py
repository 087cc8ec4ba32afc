"""Multi-channel graph fusion and greedy maximum-correlation list selection.

Fusion takes one tier-3 graph per feature channel and merges them by node
union, edge union, and edge-weight summation. The final list is then grown
greedily: at every step the candidate with the largest summed affinity to
all already-selected items is appended. The affinities between a query's
candidates form one C×C matrix W, built by treating each candidate as a
temporary ranking center, and :func:`greedy_loop` reads one of its rows per
step. A single query reads W off the channels' :class:`FusedTable`, every
stored row's fused neighbor row and counts, fused once per channel set from
the channels' overlap tables (:func:`fused_table`, :func:`table_matrix`); a
block of queries builds it with :func:`add_counts`, and so does
:class:`TieredPairwise`, as a block of one. The pipeline builds W in
tie-break order with tie-break weights from its query row. No ranking
uses :class:`FusedGraph`, :func:`fuse_graphs`, :class:`TieredPairwise` or
:func:`greedy_select`, which are no public names of the package: the
benchmark harness and the tests of the layer itself read them, and the
rankings are checked against :func:`tierank.oracles.oracle_rerank`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyChannelListError, FormatError, QueryMismatchError, UnknownItemError
from .index import NeighborhoodIndex, _block_rows, _row_positions
from .ranking import FinalRanking
from .rerank import QueryGraph

_NO_RANK = 1 << 40


@dataclass(frozen=True)
class FusedGraph:
    """Union of per-channel query graphs with summed edge weights."""

    query: int
    channels: tuple[str, ...]
    nodes: frozenset[int]
    edges: dict[int, float]
    distance_rank: dict[int, int]

    def rank_of(self, item: int) -> int:
        return self.distance_rank.get(item, _NO_RANK)


def fuse_graphs(
    graphs: Sequence[QueryGraph],
    scales: Sequence[float] | None = None,
) -> FusedGraph:
    """Merge per-channel tier-3 graphs: node union, edge union, weight sum.

    Optional per-channel scales multiply each channel's weights before the
    sum; the default is 1.0 everywhere. Edge sums are accumulated in
    channel-name order so that permuting the input never changes a weight.
    """
    if len(graphs) == 0:
        raise EmptyChannelListError("fusion requires at least one channel graph")
    query = graphs[0].query
    for g in graphs:
        if g.query != query:
            raise QueryMismatchError(f"graph for query {g.query} fused with query {query}")
        if g.tier != 3:
            raise FormatError("fusion expects tier-3 graphs")
    names = [g.channel for g in graphs]
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate channel names in fusion: {names}")
    if scales is None:
        scales = [1.0] * len(graphs)
    if len(scales) != len(graphs):
        raise FormatError("one scale per channel graph required")

    scale_by_name = {g.channel: s for g, s in zip(graphs, scales)}
    by_name = {g.channel: g for g in graphs}

    nodes: set[int] = set()
    for g in graphs:
        nodes.update(g.order)

    edges: dict[int, float] = {}
    rank: dict[int, int] = {}
    for name in sorted(by_name):
        g = by_name[name]
        s = scale_by_name[name]
        for pos, item in enumerate(g.order):
            edges[item] = edges.get(item, 0.0) + s * g.edges[item]
            if pos < rank.get(item, _NO_RANK):
                rank[item] = pos

    return FusedGraph(
        query=query,
        channels=tuple(names),
        nodes=frozenset(nodes),
        edges=edges,
        distance_rank=rank,
    )


def add_counts(
    matrix: np.ndarray, index: NeighborhoodIndex, pos: np.ndarray, k1: int, counts: np.ndarray, scale: float,
    starts: np.ndarray, slots: np.ndarray, col: np.ndarray, scratch: np.ndarray, query_row: np.ndarray | None = None,
) -> None:
    """Add one channel's scaled tier-3 counts into ``matrix``, a stack of per-query W blocks, at the hits only.

    Candidate j (row position ``pos[j]``) centers the row of flat cell
    ``starts[j, 0]``, has column ``col[j]`` and its row's ``counts[j]``
    (``center_counts``). Its query's scratch slots, a slot per row position
    and a pad slot, start at ``slots[j, 0]`` and hold "no column", the
    dtype's max, except while a call writes, gathers and resets its
    candidates' columns. A candidate at slot n, an out-of-sample query, centers
    ``query_row``. A row names each position once, so the hits are distinct
    cells, and one buffered add a channel sums W in channel order.
    """
    cells = index.position_rows(pos, k1, query_row)
    cells += slots
    mine, none = pos + slots[:, 0], np.iinfo(scratch.dtype).max
    scratch[mine] = col
    got = scratch.take(cells, mode="wrap")  # row 0's pads, at -1, read the last slot, a pad slot
    scratch[mine] = none
    hits = np.flatnonzero(got != none)
    cells = starts.take(hits // got.shape[1])  # the hits' cells of W; rebinding frees the rows' first
    cells += got.take(hits)
    matrix.reshape(-1)[cells] += counts.take(hits) * scale


def fuse_rows(rows: Sequence[np.ndarray], counts: Sequence[np.ndarray], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Channels' (B, w_c) rows of row positions, each naming a position once, fused: (positions, planes).

    Row b of ``positions`` is the union of the rows b, ascending and padded
    with ``pad`` to Σw_c; ``planes[c]`` holds channel c's ``counts`` at its
    entries and 0 at the others. It fuses the :class:`FusedTable`'s blocks
    of stored rows; a single query at slot n takes its own union instead.
    """
    block = np.concatenate(rows, axis=1)
    order = block.argsort(axis=1, kind="stable")
    ranked = np.take_along_axis(block, order, axis=1)
    first = np.ones(block.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    slot, lane = first.cumsum(axis=1) - 1, np.arange(block.shape[0])[:, None]  # each sorted entry's fused column
    positions = np.full(block.shape, pad, dtype=block.dtype)
    positions[lane, slot] = ranked
    planes = np.zeros((len(rows), *block.shape), dtype=np.result_type(*counts))
    channel = np.repeat(np.arange(len(rows)), [r.shape[1] for r in rows])
    planes[channel[order], lane, slot] = np.take_along_axis(np.concatenate(counts, axis=1), order, axis=1)
    return positions, planes


class FusedTable:
    """The fused neighbor table of channels ``parts``, (index, k1, k2) in name order.

    Common position p is item ``ids[p]`` of the channels' id union, N = len(ids)
    is an out-of-sample query's slot and N + 1 the pad. Row p of ``positions``
    fuses the channels' k1 rows of item p (:func:`fuse_rows`), with their
    counts in ``planes``: each channel's rows of its overlap table
    (:meth:`NeighborhoodIndex.stored_counts`, 0 for an item it does not
    store), so no stored row is counted here; ``maps[c]`` takes channel c's
    positions, slot n included, to common ones. Positions are the smallest unsigned dtype that
    holds N + 1. It is built in the calling thread, a block of rows at a time,
    and is read-only after, so queries read it concurrently with no lock.
    """

    def __init__(self, parts: Sequence[tuple[NeighborhoodIndex, int, int]]) -> None:
        self.ids = functools.reduce(np.union1d, [index.item_ids for index, _, _ in parts])
        n = self.ids.shape[0]
        self.pad, self.shared = n + 1, all(index.item_ids.shape[0] == n for index, _, _ in parts)
        dtype = np.min_scalar_type(n + 1)
        self.maps = [np.append(_row_positions(self.ids, index.item_ids), n).astype(dtype) for index, _, _ in parts]
        width = sum(min(k1, index.neighbor_table.shape[1]) for index, k1, _ in parts)
        self.positions = np.empty((n, width), dtype=dtype)
        top = max(min(k1, k2) for _, k1, k2 in parts)  # no count exceeds min(k1, k2)
        self.planes = np.empty((len(parts), n, width), dtype=np.min_scalar_type(top))
        self.pinned = [(index.neighbor_table, index.item_ids) for index, _, _ in parts]  # alive while their ids key it
        held = [_row_positions(index.item_ids, self.ids) for index, _, _ in parts]  # -1 where a channel lacks the id
        step = _block_rows(width)  # fuse_rows' int64 temporaries of a block
        for start in range(0, n, step):
            block, rows, counts = slice(start, start + step), [], []
            for (index, k1, k2), to, at in zip(parts, self.maps, held):
                near = index.neighbor_table.take(at[block], axis=0, mode="clip")[:, :k1]
                rows.append(np.where(at[block, None] < 0, self.pad, to.take(near)))
                counts.append(index.stored_counts(at[block], k1, k2))
            self.positions[block], self.planes[:, block] = fuse_rows(rows, counts, self.pad)
        self.positions.setflags(write=False)
        self.planes.setflags(write=False)


def fused_table(parts: Sequence[tuple[NeighborhoodIndex, int, int]], build: bool = True) -> FusedTable | None:
    """The :class:`FusedTable` of ``parts``, cached on the first index and built on a miss if ``build``.

    The key is every channel's name, neighbor table, ids and (k1, k2), so
    an alpha and an overlay (which shares its index's arrays and caches) do
    not change it. Two threads that both miss build equal tables and keep one.
    """
    cache = parts[0][0]._fused
    key = tuple((index.channel_name, id(index.neighbor_table), id(index.item_ids), k1, k2) for index, k1, k2 in parts)
    table = cache.get(key)
    if table is None and build:
        table = cache.setdefault(key, FusedTable(parts))
    return table


def scaled_sum(planes: np.ndarray, scales: Sequence[float]) -> np.ndarray:
    """Σ scale·plane in order; an absent count adds +0.0, so this is bit for bit the present counts' sum."""
    total = np.multiply(planes[0], scales[0], dtype=np.float64)
    for plane, scale in zip(planes[1:], scales[1:]):
        total += np.multiply(plane, scale, dtype=np.float64)
    return total


def table_matrix(table: FusedTable, cand: np.ndarray, col: np.ndarray, scales: Sequence[float],
                 query_row: np.ndarray | None = None) -> np.ndarray:
    """One query's W off ``table``: candidate j, common position ``cand[j]`` (ascending), is row and column ``col[j]``.

    One gather of the stored candidates' rows through a scratch of the call's own, a slot a common position
    (each candidate's column + 1, else 0), finds the hits, and one write puts their summed counts; a row
    names each position once. A query at slot N, last, has its weights ``query_row`` as its row.
    """
    c = cand.shape[0]
    held = cand[: c - (query_row is not None)]
    rows = table.positions.take(held, axis=0)
    scratch = np.zeros(table.pad + 1, dtype=np.min_scalar_type(c))
    scratch[cand] = col + 1
    cells = scratch.take(rows)
    hits = (cells != 0).ravel().nonzero()[0]
    planes = table.planes.take(held, axis=1).reshape(len(scales), -1).take(hits, axis=1)
    matrix = np.zeros((c, c))
    matrix.reshape(-1)[col.take(hits // rows.shape[1]) * c + cells.ravel().take(hits) - 1] = scaled_sum(planes, scales)
    if query_row is not None:
        matrix[col[-1], col] = query_row
    return matrix


class TieredPairwise:
    """Fused tier-3 affinities between every pair of a query's candidates.

    Row u treats u as a temporary ranking center and reads each candidate
    i's weight off u's tiered graph: per channel, the count of i's k2
    neighbors inside u's k1 neighborhood, provided i is one of u's k1
    candidates at all; a missing edge contributes 0, mirroring fusion's
    absent-channel rule. The query's row therefore equals the fused
    graph's edge weights bit for bit when channels come in name order.

    ``matrix`` is laid out by :func:`add_counts` as a block of one, rows
    and columns in candidate_ids order, the channels summed in the caller's
    order from the counts the index gives (an out-of-sample query's are
    counted).
    """

    def __init__(
        self,
        channels: Sequence[tuple[NeighborhoodIndex, int, int]],
        candidates: Sequence[int] | np.ndarray,
        scales: Sequence[float] | None = None,
    ) -> None:
        channels = list(channels)
        scales = [1.0] * len(channels) if scales is None else scales
        if len(scales) != len(channels):
            raise FormatError("one scale per channel required")
        given = np.asarray(candidates)
        with np.errstate(invalid="ignore"):  # a NaN or an id no int64 holds casts to garbage
            cand = given.astype(np.int64) if given.dtype.kind in "iuf" else given
        if cand.dtype != np.int64 or (cand != given).any():  # 3.0 is item 3; 3.5 and '7' are none
            raise FormatError("candidate ids must be 64-bit integers")
        cand = np.unique(cand)
        self.candidate_ids: tuple[int, ...] = tuple(cand.tolist())
        c = cand.shape[0]
        col, dtype = np.arange(c), np.min_scalar_type(c)  # the dtype's max, "no column", is above every column
        starts, slots = (col * c)[:, None], np.zeros((c, 1), dtype=np.int64)  # a block of one: its slots start at 0
        scratch = np.full(max((idx.slots for idx, _, _ in channels), default=0), np.iinfo(dtype).max, dtype=dtype)
        self.matrix = np.zeros((c, c))
        for (idx, k1, k2), scale in zip(channels, scales):
            pos = idx.positions(cand)
            add_counts(self.matrix, idx, pos, k1, idx.center_counts(pos, k1, k2), float(scale), starts, slots, col,
                       scratch)
        self.matrix.setflags(write=False)


def greedy_select(fused: FusedGraph, pairwise: TieredPairwise, k: int) -> FinalRanking:
    """Grow the final list by repeatedly taking the max-summed-affinity candidate.

    Starting from the query alone, each step appends the candidate i
    maximizing the sum of its affinities to every selected item; ties break
    toward the higher fused weight to the query, then the lower original
    distance rank, then the smaller id. Stops after k additions or when the
    pool is exhausted. ``pairwise`` is anything with ``candidate_ids`` and
    the C×C ``matrix`` of affinities in that order, such as
    :class:`TieredPairwise`; its candidates must be the fused graph's nodes.
    The loop runs on a float64 copy, so an integer matrix works too.
    """
    cand = pairwise.candidate_ids
    if fused.nodes != frozenset(cand):
        diff = sorted(fused.nodes.symmetric_difference(cand))
        raise UnknownItemError(f"fused nodes and pairwise candidates differ on {diff}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.asarray(cand, dtype=np.int64)
    weights = np.array([fused.edges.get(item, 0.0) for item in cand], dtype=np.float64)
    ranks = np.array([fused.rank_of(item) for item in cand], dtype=np.int64)
    order = np.lexsort((ids, ranks, -weights))
    items = ids[order]
    try:
        pos = items.tolist().index(fused.query)
    except ValueError:
        raise UnknownItemError(f"center {fused.query} is not a candidate") from None
    return greedy_loop(np.asarray(pairwise.matrix, dtype=np.float64)[np.ix_(order, order)], items, pos, k)


def greedy_loop(matrix: np.ndarray, items: np.ndarray, pos: int, k: int) -> FinalRanking:
    """The greedy selection loop on W, a C×C float64 matrix whose row and column j are ``items[j]``'s.

    W comes in tie-break order (higher fused weight, lower distance rank,
    smaller id), so argmax, which returns the first maximum, picks the
    winner of a tie. It writes -inf on W's diagonal first, in the caller's
    W: from the query's row ``pos``, each step adds a row to the running
    sums, which masks the row's pick for good, every weight being finite.
    The loop keeps the picks' positions and scores as Python numbers, and
    the positions become ids, ``items`` being an int64 array, in one
    ``take`` at the end. The ranking names the query ``items[pos]``.
    """
    matrix.flat[:: len(items) + 1] = -np.inf  # W's diagonal
    acc = np.zeros(len(items))
    argmax = acc.argmax
    picks, scores = [pos], [0.0]
    for _ in range(min(k, len(items) - 1)):
        acc += matrix[pos]
        pos = int(argmax())
        picks.append(pos)
        scores.append(acc.item(pos))
    selected = items.take(picks).tolist()
    return FinalRanking(query=selected[0], items=tuple(selected), scores=tuple(scores))
