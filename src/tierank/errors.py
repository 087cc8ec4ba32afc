"""Exception hierarchy shared by the whole package, and the file boundary that raises it.

Every file read or written and every directory made goes through here, so a
path that cannot be used is a FileAccessError, never a traceback.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np


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


def read_bytes(path: str | Path) -> np.ndarray:
    """A binary file's contents as a writable uint8 array, which a reader may reuse in place."""
    try:
        return np.fromfile(path, dtype=np.uint8)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise FileAccessError(f"cannot read {path}: {exc}") from exc


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, newlines read as text mode reads them; other bytes are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except (OSError, ValueError) as exc:
        raise FileAccessError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to a file as UTF-8, one at a time, so that no whole-file string is built."""
    _write(path, chunks, "w", "utf-8")


def write_bytes(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write byte chunks to a file, one at a time."""
    _write(path, chunks, "wb", None)


def _write(path: str | Path, chunks: Iterable, mode: str, encoding: str | None) -> None:
    try:
        with open(path, mode, encoding=encoding) as fh:
            fh.writelines(chunks)
    except OSError as exc:  # a missing directory is not made
        raise FileAccessError(f"cannot write {path}: {exc}") from exc


def make_dir(path: str | Path) -> Path:
    """An output directory, made with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileAccessError(f"cannot make directory {path}: {exc}") from exc
    return Path(path)


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
