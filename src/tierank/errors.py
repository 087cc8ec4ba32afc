"""Exception hierarchy shared by the whole package, the file boundary that raises it, and the number grammar.

Every file read, written or removed and every directory made goes through
here, so a path that cannot be used is a FileAccessError, never a traceback.
Every id and number a text input holds is read by one ASCII grammar
(:func:`parse_number`).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Container, Iterable

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


def read_bytes(path: str | Path, missing_ok: bool = False) -> np.ndarray | None:
    """A binary file's contents as a writable uint8 array, which a reader may reuse in place.

    With ``missing_ok``, a file that does not exist is None.
    """
    try:
        return np.fromfile(path, dtype=np.uint8)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if missing_ok and isinstance(exc, FileNotFoundError):
            return None
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


def remove_files(directory: str | Path, pattern: re.Pattern, keep: Container[str] = ()) -> None:
    """Delete every file in ``directory`` whose name ``pattern`` fully matches, but those named in ``keep``."""
    try:
        for path in Path(directory).iterdir():
            if path.name not in keep and pattern.fullmatch(path.name) and path.is_file():
                path.unlink()
    except OSError as exc:
        raise FileAccessError(f"cannot remove files in {directory}: {exc}") from exc


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
    # float() also takes underscores and non-ASCII digits: a first row of
    # them is data, which parse_number then refuses, rather than a header
    try:
        float(text)
    except ValueError:
        return False
    return True


# ids are an optional sign and ASCII digits; reals are decimal or exponent
# syntax, or inf, infinity or nan in any case, which the readers refuse later
# with their own messages. int() and float() alone would also take PEP 515
# underscores (1_0 is 10) and any Unicode decimal digit (U+FF11 is 1).
_INTEGER = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)", re.ASCII | re.IGNORECASE
)


def parse_number(text: str, kind: type = float) -> int | float:
    """``text`` as an int or a float (``kind``) in the one ASCII grammar of every text input.

    Surrounding whitespace is ignored; anything else outside the grammar is a ValueError. It is
    the grammar ``np.loadtxt`` reads a feature CSV by, but for some non-ASCII characters in an id.
    """
    token = text.strip()
    if not (_INTEGER if kind is int else _REAL).fullmatch(token):
        raise ValueError(f"not an ASCII {kind.__name__}: {text!r}")
    return kind(token)
