"""Tiered neighborhood-graph re-ranking for nearest-neighbor retrieval."""

from .errors import (
    ClassSizeError,
    DimensionError,
    EmptyChannelListError,
    FileAccessError,
    FormatError,
    QueryMismatchError,
    ScenarioError,
    SizeError,
    TierankError,
    UnknownItemError,
    ZeroVectorError,
)
from .evaluation import GroundTruth, MetricReport, ns_score, precision_at, recall_at
from .index import (
    FeatureMatrix,
    Metric,
    NeighborhoodIndex,
    build_index,
    distance,
    load_features,
    load_index,
    save_index,
)
from .pipeline import Channel, batch_rerank, batch_rerank_vectors, rerank_query, rerank_vector_query
from .ranking import FinalRanking, RankedList, read_rankings_tsv, write_rankings_tsv
from .rerank import tier1_rerank, tiered_rerank

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ClassSizeError",
    "DimensionError",
    "EmptyChannelListError",
    "FeatureMatrix",
    "FileAccessError",
    "FinalRanking",
    "FormatError",
    "GroundTruth",
    "Metric",
    "MetricReport",
    "NeighborhoodIndex",
    "QueryMismatchError",
    "RankedList",
    "ScenarioError",
    "SizeError",
    "TierankError",
    "UnknownItemError",
    "ZeroVectorError",
    "batch_rerank",
    "batch_rerank_vectors",
    "build_index",
    "distance",
    "load_features",
    "load_index",
    "ns_score",
    "precision_at",
    "read_rankings_tsv",
    "recall_at",
    "rerank_query",
    "rerank_vector_query",
    "save_index",
    "tier1_rerank",
    "tiered_rerank",
    "write_rankings_tsv",
]
