"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class TierankError(Exception):
    """Base class for all package errors."""


class FileAccessError(TierankError):
    """A file could not be read or written."""


class FormatError(TierankError):
    """Input data violates the expected schema or encoding."""


class DimensionError(TierankError):
    """Vectors of mismatched dimension were combined."""


class ZeroVectorError(TierankError):
    """A zero vector was used with the cosine metric."""


class UnknownItemError(TierankError):
    """An item id is not present in the index or collection."""


class QueryMismatchError(TierankError):
    """Graphs for different queries were fused together."""


class EmptyChannelListError(TierankError):
    """Fusion was requested with zero channels."""


class ClassSizeError(TierankError):
    """A metric requiring fixed class sizes saw a violating class."""


class SizeError(TierankError):
    """An exhaustive oracle was asked to handle too large an instance."""


class ScenarioError(TierankError):
    """A synthetic scenario failed to realize its planted relations."""
