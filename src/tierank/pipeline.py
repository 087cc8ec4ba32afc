"""End-to-end per-query re-ranking across one or more feature channels.

Single-channel runs emit the tiered re-ranked candidate list directly.
Multi-channel runs take the union of the query's per-channel candidates,
build their fused affinity matrix once, and grow the final list greedily;
the fused tier-3 weights that break ties are the matrix's query row, so no
per-channel tiered graph is built. A single query fuses the channels'
neighborhood graphs once per channel set: it ranks off their fused
neighbor table (:func:`~tierank.fusion.fused_table`), which the first
single query that passes its checks builds. An out-of-sample query ranks
as a stored one does, from its own row of row positions per channel: the
slot one past the stored rows, then its nearest stored items by the kNN
kernel (:meth:`Channel.query_rows`). The ranking kernels read that row
where a stored query's comes from the neighbor table, so no index is
rebuilt, copied or changed; on two or more channels a single such query
takes one union of its own rows where a stored one reads its row of the
fused table. A batch of ids or of vectors runs through one driver
(:func:`_batch`) in blocks, a batch of one included, and builds no fused
table. A block of vectors first gets its rows from one blocked kNN
scan per channel, and each of its queries reads its own row at its own
slot n. On two or more channels a block then runs one union
(:func:`_candidates`), one affinity-matrix build and one greedy selection
in lockstep, with the single query's rankings. A batch that meets a fault
raises the first failing query's error, or else the fault itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, EmptyChannelListError, FormatError, UnknownItemError
from .fusion import add_counts, fused_table, greedy_loop, scaled_sum, table_matrix
from .index import FeatureMatrix, NeighborhoodIndex, _row_positions, knn_columns
from .ranking import FinalRanking, RankedList
from .rerank import resolve_k, tiered_rerank

_BLOCK_BUDGET, _BLOCK_CAP = 9 * 2**19, 32  # the bytes and queries of a fused batch's block, at most


@dataclass(frozen=True)
class Channel:
    """One feature channel ready for re-ranking; its name is its index's channel name.

    Made or replaced, it checks k1, k2 and alpha once (:func:`~tierank.rerank.resolve_k`); an unset k is the index's.
    """

    name: str
    index: NeighborhoodIndex
    k1: int
    k2: int
    alpha: float = 1.0
    features: FeatureMatrix | None = None

    def __post_init__(self) -> None:
        if self.name != self.index.channel_name:
            raise FormatError(f"channel {self.name!r} holds the index of channel {self.index.channel_name!r}")
        k1, k2 = resolve_k(self.index, self.alpha, self.k1, self.k2)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    @cached_property
    def _feature_rows(self) -> np.ndarray:
        """The index row position of every feature row, -1 for an id the index does not hold."""
        return _row_positions(self.index.item_ids, self.features.ids)

    def query_rows(self, vectors: np.ndarray, vids: Sequence[int]) -> np.ndarray:
        """The rows of the out-of-sample queries ``vids`` at the (B, d) ``vectors``: each its slot, then its nearest.

        Every query's nearest k - 1 feature rows come from one call of the
        kNN kernel (:func:`~tierank.index.knn_columns`) and become row
        positions by one ``take`` through :attr:`_feature_rows`;
        :meth:`NeighborhoodIndex.query_rows` checks ``vids`` and the rows. A
        channel with no features, vectors that are no (B, d) matrix or of
        another dimension, and a NaN or Inf are refused first, the last also
        when k = 1 and no scan runs: these are the vectors' only checks, as
        the kernel takes them checked.
        """
        if self.features is None:
            raise FormatError(f"channel {self.name!r} has no feature matrix for vector queries")
        if vectors.ndim != 2:
            raise DimensionError(f"a query vector must be 1-D, got {vectors.ndim - 1}-D")
        if vectors.shape[1] != self.features.dim:
            raise DimensionError(f"query dim {vectors.shape[1]} != channel {self.name!r} dim {self.features.dim}")
        if not np.isfinite(vectors).all():
            raise FormatError("query vector contains NaN or Inf")
        want = min(self.index.k - 1, self.features.n)
        if want > 0:
            cols, dists = knn_columns(self.features, vectors, want, self.index.metric)
        else:
            cols, dists = np.empty((len(vids), 0), dtype=np.int64), np.empty((len(vids), 0))
        ids = self.features.ids
        return self.index.query_rows(vids, self._feature_rows.take(cols), dists, lambda b: ids.take(cols[b]))


def virtual_query_id(channels: Sequence[Channel]) -> int:
    """An id guaranteed not to collide with any stored item."""
    return max((int(ch.index.item_ids[-1]) for ch in channels), default=-1) + 1


def rerank_query(
    channels: Sequence[Channel],
    query: int,
    k_final: int | None = None,
) -> RankedList:
    """Re-rank one query, fusing channels when more than one is configured; :func:`_batch`'s per-query path."""
    return _rerank(channels, query, k_final, None)


def _rerank(
    channels: Sequence[Channel], query: int, k_final: int | None, vector: np.ndarray | None, rank: bool = True
) -> RankedList | None:
    """:func:`rerank_query`; with the (1, d) ``vector``, of the out-of-sample query ``query`` at that vector.

    Two or more channels rank off their fused table (:func:`~tierank.fusion.fused_table`),
    built once the first query passes its checks: a stored query's candidates
    and counts are its row of it. A query at slot n takes one union of its
    own rows, slot N last, and each channel in name order adds alpha·count
    at its entries into weights that start at 0.0: bit for bit the table's
    :func:`~tierank.fusion.scaled_sum`, which adds only +0.0 besides.
    With ``rank`` False it only runs the checks (on one channel, the ranking), and builds nothing.
    """
    if len(channels) == 0:
        raise EmptyChannelListError("at least one channel required")
    rows = None if vector is None else [ch.query_rows(vector, [query]) for ch in channels]
    if len(channels) == 1:
        ch, row = channels[0], None if rows is None else rows[0][0]
        return tiered_rerank(ch.index, query, alpha=ch.alpha, k1=ch.k1, k2=ch.k2, query_row=row)
    near = []  # per channel: the query's k1 row, in its row positions, and slot n's whole row or None
    for ch, row in zip(channels, rows or [None] * len(channels)):
        stored = ch.index.item_ids.shape[0]
        at = stored if row is not None else ch.index._position(query)
        if at < 0:
            raise UnknownItemError(f"item {query} not in index for channel {ch.index.channel_name!r}")
        row = ch.index._slot_row(row) if at == stored else None
        near.append((ch.index.neighbor_table[at, : ch.k1] if row is None else np.reshape(row, -1)[: ch.k1], row))
    names = [ch.name for ch in channels]
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate channel names in fusion: {names}")
    by_name = sorted(zip(channels, near), key=lambda t: t[0].name)
    parts = [(ch.index, ch.k1, ch.k2) for ch, _ in by_name]
    table = fused_table(parts, build=False)
    if table is None or not table.shared:  # before a build: a candidate that a channel lacks is its lookup error
        named = [ch.index.item_ids.take(r[r < ch.index.item_ids.shape[0]]) for ch, (r, _) in by_name]
        for ch, _ in by_name:
            ch.index.positions(np.unique(np.concatenate(named)))
    k_final = _k_final(channels, k_final)
    if not rank:
        return None
    table = table or fused_table(parts)
    mine = [to.take(r) for to, (_, (r, _)) in zip(table.maps, by_name)]  # the rows in common positions
    scales, slot = [float(ch.alpha) for ch, _ in by_name], any(row is not None for _, (_, row) in by_name)
    if slot:  # the union of the query's own rows, slot N last; each channel adds its counts below
        cand = np.unique(np.concatenate(mine))
        weights = np.zeros(cand.shape[0])
    else:  # a stored query's row of the table, up to its pad
        cand, planes = table.positions[mine[0][0]], table.planes[:, mine[0][0]]
        c = int(cand.searchsorted(table.pad))
        cand, weights = cand[:c], scaled_sum(planes[:, :c], scales)
    least = np.full(cand.shape[0], cand.shape[0])
    for (ch, (r, row)), m, scale in zip(by_name, mine, scales):  # a distance rank: the lowest place in the rows
        at = cand.searchsorted(m)
        if slot:  # in name order, as scaled_sum adds
            weights[at] += np.multiply(ch.index.overlap_counts(r[None], ch.k2, query_row=row)[1][0], scale)
        least[at] = np.minimum(least[at], np.arange(m.shape[0]))
    # W in tie-break order (higher weight, lower distance rank, then smaller id, as candidates come by id)
    order = np.lexsort((least, -weights))
    col = np.argsort(order)  # every candidate's row and column of W
    own = int(col[cand.searchsorted(mine[0][0])])
    items = table.ids.take(cand[order], mode="clip")
    items[own] = query  # slot N, past the ids, is the query's
    final = greedy_loop(table_matrix(table, cand, col, scales, weights if slot else None), items, own, k_final)
    return final.to_ranked_list(tier="mfr")


def _k_final(channels: Sequence[Channel], k_final: int | None) -> int:
    """The final list's length: ``k_final``, by default the largest k1; refused unless an integer of at least 1."""
    k_final = max(ch.k1 for ch in channels) if k_final is None else k_final
    if isinstance(k_final, bool) or not isinstance(k_final, (int, np.integer)):  # as resolve_k refuses k1
        raise ValueError(f"k_final must be an integer, got {k_final!r}")
    if k_final < 1:
        raise ValueError("k must be >= 1")
    return k_final


def rerank_vector_query(
    channels: Sequence[Channel],
    vector: Iterable[float],
    k_final: int | None = None,
    vid: int | None = None,
) -> RankedList:
    """Re-rank an out-of-sample query given as a raw vector, named ``vid``.

    Every channel, in input order, gives the query's row
    (:meth:`Channel.query_rows`), and the ranking runs as
    :func:`rerank_query`'s on those rows (:func:`_rerank`, the per-query
    path of the batch driver :func:`_batch`), so it equals the ranking of
    an index holding the query as an item. ``vid`` defaults to one past
    the largest stored id (:func:`virtual_query_id`).
    """
    vid = virtual_query_id(channels) if vid is None else vid
    return _rerank(channels, vid, k_final, np.asarray(vector, dtype=np.float64)[None])


def batch_rerank(
    channels: Sequence[Channel],
    queries: Sequence[int],
    k_final: int | None = None,
) -> list[RankedList]:
    """Re-rank many query ids; results come back in input order.

    Equals ``[rerank_query(channels, q, k_final) for q in queries]`` bit for
    bit, and raises its first error; the batch runs in blocks (:func:`_batch`).
    """
    return _batch(channels, list(queries), k_final, None)


def batch_rerank_vectors(
    channels: Sequence[Channel],
    vectors: Sequence[Iterable[float]] | np.ndarray,
    k_final: int | None = None,
    vid: int | None = None,
) -> list[RankedList]:
    """Re-rank out-of-sample queries given as raw vectors, named ``vid``, ``vid`` + 1, ...; in input order.

    Equals ``[rerank_vector_query(channels, v, k_final, vid + j) for j, v in
    enumerate(vectors)]`` bit for bit (a string or bytes ``vid`` names every
    query), and raises its first error; the batch runs in blocks (:func:`_batch`).
    """
    vid = virtual_query_id(channels) if vid is None else vid
    vectors = list(vectors)
    named = isinstance(vid, (str, bytes))  # no number: the first query, by that name, raises its error
    return _batch(channels, [vid if named else vid + j for j in range(len(vectors))], k_final, vectors)


def _batch(
    channels: Sequence[Channel], queries: list[int], k_final: int | None, vectors: list | None
) -> list[RankedList]:
    """The queries ``queries``, out of sample at ``vectors`` when given, ranked in blocks.

    A batch is cut into near-equal blocks of at most :func:`_block_queries`,
    as many as fit 4.5 MiB of working memory by its estimate (32 at most).
    A block of vectors first gets its rows from one blocked kNN scan per
    channel (:meth:`Channel.query_rows`). On one channel each query then
    ranks through :func:`~tierank.rerank.tiered_rerank`; on two or more
    the block runs through one kernel (:func:`_rerank_block`) in a scratch
    the blocks share, a batch of one and a rule of one query a block too,
    so that no batch builds a fused table. On any fault, every query's
    checks run in input order (:func:`_rerank`, checks only, each vector
    converted as :func:`rerank_vector_query` converts it) and raise the
    first failing query's error; if none fails, the fault is raised again.
    """
    if not queries:
        return []
    out: list[RankedList] = []
    try:  # no channels fail the block rule, and the first query's checks name the fault
        scan = 0 if vectors is None else max((ch.features.n for ch in channels if ch.features is not None), default=0)
        per = _block_queries([ch.k1 for ch in channels], max(ch.index.n for ch in channels), scan)
        for at, scratch in _blocks(channels, len(queries), per):
            block = queries[at]
            stacked = None if vectors is None else np.asarray(vectors[at], dtype=np.float64)
            rows = None if stacked is None else [ch.query_rows(stacked, block) for ch in channels]
            if len(channels) > 1:
                out += _rerank_block(channels, block, k_final, scratch, rows)
            else:
                ch, qrows = channels[0], [None] * len(block) if rows is None else rows[0]
                out += [tiered_rerank(ch.index, q, ch.alpha, ch.k1, ch.k2, row) for q, row in zip(block, qrows)]
    except Exception:
        for j, q in enumerate(queries):
            vector = None if vectors is None else np.asarray(vectors[j], dtype=np.float64)[None]
            _rerank(channels, q, k_final, vector, rank=False)
        raise
    return out


def _blocks(channels: Sequence[Channel], count: int, per: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``count`` queries cut into near-equal slices of at most ``per``, each with the scratch they share.

    The scratch holds B·(n + 2) slots for the largest block, each the smallest unsigned
    integer that holds Σk1, above every column, and all at its max, "no column".
    """
    blocks = -(-count // per)
    bounds = [count * b // blocks for b in range(blocks + 1)]
    slots = max(ch.index.slots for ch in channels)
    dtype = np.min_scalar_type(sum(ch.k1 for ch in channels))
    scratch = np.full(-(-count // blocks) * slots, np.iinfo(dtype).max, dtype=dtype)
    for start, stop in zip(bounds, bounds[1:]):
        yield slice(start, stop), scratch


def _block_queries(k1s: Sequence[int], n: int, scan: int = 0) -> int:
    """Queries per block on channels of these k1 and at most n items: as many as fit the budget.

    A query has C ≤ S = Σk1 candidates, so it holds under (S + 1)² float64
    cells of W; per channel, C·max(k1) int64 cells, a byte gather and mask,
    and its hits' cells and values; a dozen int64 arrays of C; and n + 1
    slots. A vector query also holds, in the kNN scan of a channel of
    ``scan`` feature rows, a float64 distance and a byte mark per row.
    """
    s, k = sum(k1s), max(k1s)
    slot = np.min_scalar_type(s).itemsize  # a slot holds a column, S at most
    per_query = 8 * (s + 1) ** 2 + 18 * s * k + 8 * s * (len(k1s) + 10) + slot * (n + 1) + 9 * scan
    return max(1, min(_BLOCK_CAP, _BLOCK_BUDGET // per_query))


def _candidates(
    channels: Sequence[Channel], queries: list[int], query_rows: Sequence[np.ndarray] | None = None
) -> tuple:
    """The front end of fused ranking, for B queries: their candidates and all that ranks them.

    Channels give their k1 rows in input order, then duplicate names are
    refused; the first fault raises. With ``query_rows``, the queries are
    out of sample: their rows on every channel, in input order, are given
    as one (B, w) matrix a channel (:meth:`Channel.query_rows`), each row
    led by its query's slot.
    Returns, for every query's candidates side by side, by id:
    their ids, queries, distance ranks and fused weights (W's query row,
    the query's own counts summed in channel-name order); every query's own
    candidate; and per channel, in name order, (channel, the candidates'
    row positions, their counts, the given query row or None).
    """
    query_rows = [None] * len(channels) if query_rows is None else query_rows
    qrows, padded = [], False
    for ch, row in zip(channels, query_rows):
        padded |= ch.index._slot_row(row) is not None  # only slot n's row brings -1 pads
        at = ch.index.positions(queries) if row is None else row[:, 0]  # a row is led by its owner
        qrows.append(ch.index.position_rows(at, ch.k1, row))  # slot n's row and a stored one -1-pad to one width
    names = [ch.name for ch in channels]
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate channel names in fusion: {names}")
    by_name, qrows, query_rows = zip(*sorted(zip(channels, qrows, query_rows), key=lambda t: t[0].name))
    rows = np.concatenate(qrows, axis=1)
    ranks = np.concatenate([np.arange(r.shape[1]) for r in qrows])
    ids = np.concatenate([ch.index.item_ids.take(r, mode="clip") for ch, r in zip(by_name, qrows)], axis=1)
    if query_rows[0] is not None:  # the slot n that leads each row names the query
        ids[:, ranks == 0] = np.reshape(queries, (-1, 1))
    elif any(ch.index.n > ch.index.item_ids.shape[0] for ch in by_name):  # so does an overlay's slot n
        ids[:, ranks == 0] = by_name[0].index.ids_at(qrows[0][:, :1])
    if padded and rows.min() < 0:  # a -1 pad, in a row narrower than another channel's, stands for the query
        ids = np.where(rows < 0, ids[:, :1], ids)
    # each query's entries by id (``flat`` indexes the raveled rows): an
    # id's first entry, never a pad, is its candidate
    order = ids.argsort(axis=1, kind="stable")
    flat = (order + np.arange(0, ids.size, ids.shape[1])[:, None]).ravel()
    ranked = ids.take(flat).reshape(ids.shape)
    first = np.ones(ids.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    starts = first.ravel().nonzero()[0]
    cand = ranked.ravel()[starts]
    owner = np.repeat(np.arange(len(queries)), first.sum(axis=1))
    rank = np.minimum.reduceat(ranks[order].ravel(), starts)
    entry = np.empty(ids.size, dtype=np.int64)  # the candidate behind every entry
    entry[flat] = first.cumsum() - 1
    # a candidate's position in the row that named it, searched for where a channel's ids differ
    known = rows.take(flat[starts])
    own = entry[:: ids.shape[1]]
    lookups = []
    for ch, r, row in zip(by_name, qrows, query_rows):
        pos = np.minimum(known, ch.index.item_ids.shape[0] - 1)
        miss = ch.index.item_ids.take(pos) != cand
        if row is not None:  # the query's candidate is its slot, on every channel
            miss[own] = False
            pos[own] = r[:, 0]
        if miss.any():
            pos[miss] = ch.index.positions(cand[miss])
        lookups.append((ch, pos, ch.index.center_counts(pos, ch.k1, ch.k2, row), row))
    scaled = [np.multiply(counts[own], float(ch.alpha), dtype=np.float64) for ch, _, counts, _ in lookups]
    weights = np.bincount(entry, np.concatenate(scaled, axis=1).ravel(), minlength=cand.shape[0])
    return cand, owner, rank, weights, own, lookups


def _rerank_block(
    channels: Sequence[Channel], queries: list[int], k_final: int | None, scratch: np.ndarray,
    query_rows: Sequence[np.ndarray] | None = None,
) -> list[RankedList]:
    """:func:`rerank_query` for a block of B queries on two or more channels.

    With ``query_rows`` the queries are out of sample, with these rows
    (see :func:`_candidates`), as :func:`_rerank` ranks them.

    Steps, each over the whole block:

    1. the single query's front end (:func:`_candidates`); one stable
       ``argsort`` of an integer (query, weight rank, distance rank) key
       then puts each query's candidates, which come by id, in tie-break
       order (higher weight, lower distance rank, smaller id);
    2. every query's W, rows and columns in tie-break order, as one stack
       of B padded (Cmax, Cmax) blocks, its hits only: one call of
       :func:`~tierank.fusion.add_counts` a channel, in name order, query
       b's slots of ``scratch`` starting at b·(n + 2);
    3. the loop of :func:`~tierank.fusion.greedy_loop` for every query at
       once: -inf first on W's diagonal, each candidate's own cell, so a
       pick's row masks the pick; per step a row gather and a row-wise
       ``argmax``. Padding starts at -inf, argmax returns the first
       maximum, and query b stops after min(k_final, C_b - 1) picks, so
       every pick and score is the per-query one.

    ``k_final`` is checked as :func:`_rerank` checks it; the caller,
    :func:`_batch`, turns any fault into the per-query error.
    """
    k_final = _k_final(channels, k_final)
    cand, owner, rank, weights, own, lookups = _candidates(channels, queries, query_rows)
    b, total = len(queries), cand.shape[0]
    sizes = np.bincount(owner, minlength=b)
    levels, heavier = np.unique(-weights, return_inverse=True)
    order = np.argsort((owner * levels.shape[0] + heavier) * (int(rank.max()) + 1) + rank, kind="stable")
    col = np.empty(total, dtype=np.int64)  # every candidate's place in its query's order
    col[order] = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    width = int(sizes.max())  # a column per candidate
    lane = owner * width + col  # a candidate's row of the stack, and its entry of acc
    starts = (lane * width)[:, None]
    matrix = np.zeros((b * width, width))
    for ch, pos, counts, row in lookups:
        slots = (owner * ch.index.slots)[:, None]  # query b's slots of the scratch start at b·(n + 2)
        add_counts(matrix, ch.index, pos, ch.k1, counts, float(ch.alpha), starts, slots, col, scratch, row)

    matrix.reshape(-1)[starts[:, 0] + col] = -np.inf  # W's diagonal: a pick's row masks the pick
    steps = [min(k_final, size - 1) for size in sizes.tolist()]
    acc = np.where(np.arange(width) < sizes[:, None], 0.0, -np.inf)
    flat = acc.ravel()
    lanes = np.arange(0, b * width, width)
    at = lane[own]  # every query's own lane
    picks = np.empty((max(steps), b), dtype=np.int64)
    scores = np.empty((max(steps), b))
    for step in range(max(steps)):
        acc += matrix.take(at, axis=0)
        at = lanes + acc.argmax(axis=1)
        picks[step] = at
        scores[step] = flat[at]
    ids = np.zeros(b * width, dtype=np.int64)
    ids[lane] = cand
    items, scores = ids[picks].T.tolist(), scores.T.tolist()
    return [
        FinalRanking(query=q, items=(q, *items[j][:s]), scores=(0.0, *scores[j][:s])).to_ranked_list(tier="mfr")
        for j, (q, s) in enumerate(zip(cand[own].tolist(), steps))
    ]
