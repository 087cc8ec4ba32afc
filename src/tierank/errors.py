"""Exception hierarchy shared by the whole package, the file boundary that raises it, and the text-table reader.

Every file read or written and every directory made goes through
here, so a path that cannot be used is a FileAccessError, never a traceback.
Every text table is read by :func:`read_table`: one ``np.loadtxt`` pass,
and, where the pass refuses, one scan in the ASCII grammar that every id and
number of a text input is read by (:func:`parse_number`).
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
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


def read_bytes(path: str | Path, offset: int = 0, count: int = -1) -> np.ndarray:
    """``count`` bytes of a binary file from ``offset`` on (-1: to its end), or fewer where it ends first.

    They come as a writable uint8 array, which a reader may reuse in place; a size read from a file allocates
    no more than the file holds.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            left = size - fh.seek(min(offset, size))
            return np.fromfile(fh, dtype=np.uint8, count=left if count < 0 else min(count, left))
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


def read_table(
    path: str | Path, kinds: str, bad: str, count: str | None = None, width: str | None = None, *,
    sep: str | None = ",", header: bool = False,
) -> tuple[list, np.ndarray]:
    """The columns of a text table's non-blank lines, and the lines' numbers.

    ``kinds`` has a letter a field: ``i`` an id, ``f`` a real, ``s`` text; a
    last ``+`` repeats the letter before it once or more, as one column of
    rows. ``sep`` None splits at commas and whitespace. ``header`` drops a
    first line none of whose fields ``float()`` reads (``1_0`` is data).

    ASCII lines are parsed in one ``np.loadtxt`` pass. Else, or if the pass
    refuses, one scan in :func:`parse_number`'s grammar raises
    ``FormatError("path:lineno: message")`` at the first line with a field
    count outside ``kinds`` (``count``, else ``bad``), a bad token (``bad``)
    or, given ``width``, another length than the first line's (``width``
    formatted with both). With none, the columns hold the scan's Python
    values, so an id no int64 holds reads: object arrays, and rows as lists.
    """
    text = read_text(path)
    lines = text.splitlines()
    linenos = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), dtype=bool, count=len(lines))) + 1
    if linenos.shape[0] < len(lines) or sep is None:  # a line of commas is no blank line
        lines = [lines[n - 1] if sep else lines[n - 1].replace(",", " ") for n in linenos.tolist()]
    if header and lines:
        for field in lines[0].split(sep):
            with suppress(ValueError):
                float(field)
                break
        else:
            lines, linenos = lines[1:], linenos[1:]
    rows = kinds.endswith("+")
    kinds = kinds.rstrip("+")
    fixed = len(kinds) - rows  # the fields before a column of rows
    first = len(lines[0].split(sep)) if lines else 0
    if first >= len(kinds) and (text.isascii() or all(map(str.isascii, lines))):
        fields = [(f"f{j}", _DTYPES[kind]) for j, kind in enumerate(kinds[:fixed])]
        fields += [("rows", _DTYPES[kinds[-1]], (first - fixed,))] if rows else []
        with suppress(ValueError):  # a refusal leaves the table to the scan
            parsed = np.loadtxt(lines, dtype=fields, delimiter=sep, comments=None, ndmin=1)
            if parsed.shape[0] == len(lines):  # numpy skips a line of only commas
                return [parsed[name] for name in parsed.dtype.names], linenos
    values = []
    for lineno, line in zip(linenos, lines):
        texts = line.split(sep)
        if len(texts) < len(kinds) or len(texts) > len(kinds) and not rows:
            raise FormatError(f"{path}:{lineno}: {count or bad}")
        try:
            values.append([_PARSERS[kinds[min(j, len(kinds) - 1)]](text) for j, text in enumerate(texts)])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: {bad}") from None
        if width and len(texts) != first:
            raise FormatError(f"{path}:{lineno}: {width.format(first - fixed, len(texts) - fixed)}")
    columns = [np.array([row[j] for row in values], dtype=object) for j in range(fixed)]
    return columns + ([[row[fixed:] for row in values]] if rows else []), linenos


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
    the grammar :func:`read_table`'s ``np.loadtxt`` pass reads by, but for some non-ASCII characters.
    """
    token = text.strip()
    if not (_INTEGER if kind is int else _REAL).fullmatch(token):
        raise ValueError(f"not an ASCII {kind.__name__}: {text!r}")
    return kind(token)


_DTYPES = {"i": "<i8", "f": "<f8", "s": "O"}
_PARSERS = {"i": lambda text: parse_number(text, int), "f": parse_number, "s": str}
