"""End-to-end per-query re-ranking across one or more feature channels.

Single-channel runs emit the tiered re-ranked candidate list directly.
Multi-channel runs take the union of the query's per-channel candidates,
build their fused affinity matrix once, and grow the final list greedily;
the fused tier-3 weights that break ties are the matrix's query row, so no
per-channel tiered graph is built. Out-of-sample queries are supported by
injecting the query as a virtual member of its own candidate set, so no
index is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, EmptyChannelListError, FormatError
from .fusion import TieredPairwise, select_arrays
from .index import FeatureMatrix, NeighborhoodIndex, knn_candidates
from .ranking import RankedList
from .rerank import resolve_k, tiered_rerank


@dataclass(frozen=True)
class Channel:
    """One feature channel ready for re-ranking; its name is its index's channel name."""

    name: str
    index: NeighborhoodIndex
    k1: int
    k2: int
    alpha: float = 1.0
    features: FeatureMatrix | None = None

    def __post_init__(self) -> None:
        if self.name != self.index.channel_name:
            raise FormatError(f"channel {self.name!r} holds the index of channel {self.index.channel_name!r}")


def virtual_query_id(channels: Sequence[Channel]) -> int:
    """An id guaranteed not to collide with any stored item."""
    top = -1
    for ch in channels:
        top = max(top, int(ch.index.item_ids[-1]))
    return top + 1


def attach_virtual_query(channels: Sequence[Channel], vector: Iterable[float], vid: int) -> list[Channel]:
    """Insert an out-of-sample query vector as a virtual item on every channel.

    The virtual entry's neighbor list is the query itself at distance 0
    followed by its nearest stored items, mirroring a stored entry.
    """
    vec = np.asarray(vector, dtype=np.float64)
    out = []
    for ch in channels:
        if ch.features is None:
            raise FormatError(f"channel {ch.name!r} has no feature matrix for vector queries")
        if vec.shape[0] != ch.features.dim:
            raise DimensionError(
                f"query dim {vec.shape[0]} != channel {ch.name!r} dim {ch.features.dim}"
            )
        want = min(ch.index.k - 1, ch.features.n)
        if want > 0:
            ids, dists = knn_candidates(ch.features, vec, want, ch.index.metric)
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        v_ids = np.concatenate(([vid], ids)).astype(np.int64)
        v_dists = np.concatenate(([0.0], dists))
        out.append(replace(ch, index=ch.index.with_virtual(vid, v_ids, v_dists)))
    return out


def fused_query_arrays(
    channels: Sequence[Channel], query: int
) -> tuple[TieredPairwise, np.ndarray, np.ndarray]:
    """(pairwise matrix, fused weights, distance ranks) of a multi-channel query.

    The candidates are the union of every channel's k1 row of the query.
    Weights and ranks follow ``pairwise.candidate_ids`` and equal the edges
    and ``distance_rank`` of :func:`~tierank.fusion.fuse_graphs` over the
    channels' tier-3 graphs: a candidate's rank is its lowest position over
    the channels' rows, and its weight is the pairwise matrix's query row,
    summed in channel-name order, as fusion's is.
    """
    rows = []
    for ch in channels:
        resolve_k(ch.index, ch.alpha, ch.k1, ch.k2)
        rows.append(ch.index.neighbor_ids(query, ch.k1))
    names = [ch.name for ch in channels]
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate channel names in fusion: {names}")
    by_name, nearest = zip(*sorted(zip(channels, rows), key=lambda pair: pair[0].name))
    pairwise = TieredPairwise(
        [(ch.index, ch.k1, ch.k2) for ch in by_name],
        candidates=np.concatenate(nearest),
        scales=[ch.alpha for ch in by_name],
    )
    cand = np.asarray(pairwise.candidate_ids, dtype=np.int64)
    ranks = np.full(cand.shape[0], np.iinfo(np.int64).max)
    for row in nearest:
        pos = np.searchsorted(cand, row)
        ranks[pos] = np.minimum(ranks[pos], np.arange(row.shape[0]))
    return pairwise, pairwise.batch(query), ranks


def rerank_query(
    channels: Sequence[Channel],
    query: int,
    k_final: int | None = None,
) -> RankedList:
    """Re-rank one query; fuses channels when more than one is configured."""
    if len(channels) == 0:
        raise EmptyChannelListError("at least one channel required")
    if len(channels) == 1:
        ch = channels[0]
        return tiered_rerank(ch.index, query, alpha=ch.alpha, k1=ch.k1, k2=ch.k2)
    pairwise, weights, ranks = fused_query_arrays(channels, query)
    if k_final is None:
        k_final = max(ch.k1 for ch in channels)
    final = select_arrays(query, weights, ranks, pairwise, k_final)
    return final.to_ranked_list(tier="mfr")


def rerank_vector_query(
    channels: Sequence[Channel],
    vector: Iterable[float],
    k_final: int | None = None,
    vid: int | None = None,
) -> RankedList:
    """Re-rank an out-of-sample query given as a raw vector."""
    if vid is None:
        vid = virtual_query_id(channels)
    extended = attach_virtual_query(channels, vector, vid)
    return rerank_query(extended, vid, k_final=k_final)


def batch_rerank(
    channels: Sequence[Channel],
    queries: Sequence[int],
    k_final: int | None = None,
) -> list[RankedList]:
    """Re-rank many queries; results come back in input order."""
    return [rerank_query(channels, q, k_final=k_final) for q in queries]
