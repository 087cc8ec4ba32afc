"""Exception hierarchy shared by the whole package, and the input readers that raise it."""

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


def csv_lines(path: str | Path) -> list[tuple[int, str]]:
    """The non-blank lines of a CSV text input, with their line numbers, less a header.

    The first non-blank line is a header only when none of its fields is a
    number. A first line with a numeric field is data, so a malformed first
    row is an error like any later one instead of being dropped.
    """
    lines = [(lineno, line) for lineno, line in enumerate(read_text(path).splitlines(), start=1) if line.strip()]
    if lines and not any(_is_number(text) for text in lines[0][1].split(",")):
        return lines[1:]
    return lines


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
