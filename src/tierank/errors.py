"""Exception hierarchy shared by the whole package."""

from __future__ import annotations

from pathlib import Path


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


def read_bytes(path: str | Path) -> bytes:
    """A file's contents; a file that cannot be read is a FileAccessError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc}") from exc


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, newlines read as text mode reads them.

    Every text input goes through here, so that a file that cannot be read
    is a FileAccessError and one that is not UTF-8 a FormatError.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
