"""The package's public names: all resolve, and removed ones stay gone."""

from __future__ import annotations

import importlib

import tierank

# (module, name) pairs removed with the literal tier-3 mode, the product
# selection variant and its normalised-weight helpers, then with the
# per-tier graph builders that tiered_graph replaced, then with the single
# fused query's own front end and selection entry point
REMOVED = [
    ("tierank.errors", "DegenerateError"),
    ("tierank.errors", "EmptySetError"),
    ("tierank.rerank", "jaccard"),
    ("tierank.rerank", "tier1_weights"),
    ("tierank.rerank", "tier2_weights"),
    ("tierank.rerank", "tier3_weights"),
    ("tierank.pipeline", "fused_graph_for_query"),
    ("tierank.fusion", "CorrelationEstimate"),
    ("tierank.fusion", "correlation_estimate"),
    ("tierank.fusion", "greedy_select_product"),
    ("tierank.rerank", "TIER3_LITERAL"),
    ("tierank.rerank", "TIER3_QUERY_ANCHORED"),
    ("tierank.pipeline", "VARIANT_SUM"),
    ("tierank.pipeline", "VARIANT_PRODUCT"),
    ("tierank.pipeline", "fused_query_arrays"),
    ("tierank.fusion", "select_arrays"),
]


# the package's public names: the pipeline, its inputs and outputs, the
# single-channel tiers and the errors
PUBLIC = [
    "Channel", "ClassSizeError", "DimensionError", "EmptyChannelListError", "FeatureMatrix", "FileAccessError",
    "FinalRanking", "FormatError", "GroundTruth", "Metric", "MetricReport", "NeighborhoodIndex",
    "QueryMismatchError", "RankedList", "ScenarioError", "SizeError", "TierankError", "UnknownItemError",
    "ZeroVectorError", "batch_rerank", "batch_rerank_vectors", "build_index", "distance", "load_features",
    "load_index", "ns_score", "precision_at", "read_rankings_tsv", "recall_at", "rerank_query",
    "rerank_vector_query", "save_index", "tier1_rerank", "tiered_rerank", "write_rankings_tsv",
]

# the graph-object inspection layer, which no ranking runs: out of the
# package's names, still in its modules until it is deleted
INSPECTION_LAYER = [
    ("tierank.fusion", "FusedGraph"),
    ("tierank.fusion", "TieredPairwise"),
    ("tierank.fusion", "fuse_graphs"),
    ("tierank.fusion", "greedy_select"),
    ("tierank.rerank", "JaccardValue"),
    ("tierank.rerank", "QueryGraph"),
    ("tierank.rerank", "tiered_graph"),
]


def test_every_public_name_resolves():
    assert tierank.__all__ == PUBLIC
    for name in tierank.__all__:
        getattr(tierank, name)  # raises AttributeError on a dangling entry


def test_the_inspection_layer_is_no_public_name():
    for module, name in INSPECTION_LAYER:
        assert name not in tierank.__all__ and not hasattr(tierank, name), name
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_removed_names_are_gone():
    for module, name in REMOVED:
        assert name not in tierank.__all__
        assert not hasattr(tierank, name)
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
    fusion, rerank = importlib.import_module("tierank.fusion"), importlib.import_module("tierank.rerank")
    assert not hasattr(fusion.FusedGraph, "weight_ceiling")
    # members of the inspection layer that nothing read
    assert not hasattr(fusion.FusedGraph, "m") and not hasattr(fusion.TieredPairwise, "batch")
    assert "alpha" not in rerank.QueryGraph.__dataclass_fields__
    fields = importlib.import_module("tierank.config").PipelineConfig.__dataclass_fields__
    assert "tier3_mode" not in fields and "variant" not in fields
    # an export that no ranking used, gone from the package and then from its module
    assert "query_knn" not in tierank.__all__ and not hasattr(tierank, "query_knn")
    assert not hasattr(importlib.import_module("tierank.index"), "query_knn")


def test_vector_batches_are_exported():
    # the blocked form of rerank_vector_query; a query's row comes only in blocks, of one or more
    assert "batch_rerank_vectors" in tierank.__all__
    assert tierank.batch_rerank_vectors is importlib.import_module("tierank.pipeline").batch_rerank_vectors
    assert hasattr(tierank.Channel, "query_rows") and not hasattr(tierank.Channel, "query_row")
    assert hasattr(tierank.NeighborhoodIndex, "query_rows") and not hasattr(tierank.NeighborhoodIndex, "query_row")
