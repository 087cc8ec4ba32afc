"""Pipeline configuration: one INI-style text file of key=value sections.

Each ``[channel:<name>]`` section declares one feature channel; a shared
``[rerank]`` section holds the re-ranking knobs and ``[run]`` the seed.
Channel sections keep their file order, but fusion and the pairwise
matrix sum channels in name order, so reordering sections changes no ranking.

Example::

    [channel:color]
    features = color.csv
    format = csv
    metric = l1
    k1 = 5
    k2 = 5
    alpha = 1.0

    [rerank]
    k_final = 10

    [run]
    seed = 0

Numbers are read in :func:`errors.parse_number`'s grammar, so ``k1 = 1_0``
is a :class:`FormatError` rather than 10. Any other section or key is a
:class:`FormatError` naming it, so a misspelt
key cannot silently leave its default in place. A channel name names its
index file, so one that is not a plain file name (``.``, ``..``, or one
that holds ``/``, ``\\`` or NUL) is a :class:`FormatError` too. Older
``tierank synth`` configs carry ``tier3_mode = query-anchored`` and
``variant = sum`` under ``[rerank]``. Both keys are retired: those values
are accepted and change nothing, and any other value is a
:class:`FormatError`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, parse_number, read_text, write_text
from .index import Metric

# item-count heuristic used when a channel does not pin k explicitly
SMALL_COLLECTION_K = 5
LARGE_COLLECTION_K = 50
LARGE_COLLECTION_THRESHOLD = 20_000

# removed [rerank] keys and the one value each may still hold
RETIRED_RERANK_KEYS = {"tier3_mode": "query-anchored", "variant": "sum"}

# the keys of each section; "channel" stands for every [channel:<name>]
_KNOWN_KEYS = {
    "channel": {"features", "format", "metric", "k1", "k2", "alpha"},
    "rerank": {"k_final", *RETIRED_RERANK_KEYS},
    "run": {"seed"},
}


@dataclass(frozen=True)
class ChannelConfig:
    name: str
    feature_path: str
    fmt: str = "csv"
    metric: Metric = Metric.L1
    k1: int | None = None
    k2: int | None = None
    alpha: float = 1.0

    def ks(self, n_items: int) -> tuple[int, int]:
        """(k1, k2) over n_items items; index and rerank both read an unset k by this one rule."""
        unset = SMALL_COLLECTION_K if n_items < LARGE_COLLECTION_THRESHOLD else LARGE_COLLECTION_K
        return (self.k1 if self.k1 is not None else unset, self.k2 if self.k2 is not None else unset)


@dataclass(frozen=True)
class PipelineConfig:
    channels: tuple[ChannelConfig, ...]
    k_final: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.channels:
            raise FormatError("config declares no channels")
        names = [ch.name for ch in self.channels]
        if len(set(names)) != len(names):
            raise FormatError(f"duplicate channel names: {names}")
        if self.k_final is not None and self.k_final < 1:
            raise FormatError(f"k_final must be >= 1, got {self.k_final}")
        for ch in self.channels:
            for k in (ch.k1, ch.k2):
                if k is not None and k < 1:
                    raise FormatError(f"channel {ch.name!r}: k must be >= 1")
            if not 0 < ch.alpha < float("inf"):  # NaN fails both
                raise FormatError(f"channel {ch.name!r}: alpha must be positive and finite, got {ch.alpha!r}")


def load_config(path: str | Path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    text = read_text(path)
    try:
        parser.read_string(text, source=str(path))
        for section in parser.sections():
            parser.items(section)  # a value's '%' interpolation fails only when it is read
    except configparser.Error as exc:
        raise FormatError(f"bad config {path}: {exc}") from exc

    base = Path(path).parent
    channels = []
    for section in parser.sections():
        sec = parser[section]
        known = _KNOWN_KEYS.get("channel" if section.startswith("channel:") else section)
        if known is None:
            raise FormatError(f"{path}: unknown section [{section}]; use [channel:<name>], [rerank] or [run]")
        unknown = sorted(set(sec) - known)
        if unknown:
            raise FormatError(f"{path}: [{section}] has unknown key(s) {', '.join(unknown)}")
        if not section.startswith("channel:"):
            continue
        name = section.split(":", 1)[1].strip()
        if not name:
            raise FormatError(f"{path}: empty channel name in [{section}]")
        # the name is the stem of the channel's index file under --out-dir / --index-dir
        if name in (".", "..") or any(c in name for c in "/\\\0"):
            raise FormatError(f"{path}: channel name {name!r} in [{section}] is not a file name")
        if "features" not in sec:
            raise FormatError(f"{path}: [{section}] is missing `features`")
        feature_path = sec["features"]
        if not Path(feature_path).is_absolute():
            feature_path = str(base / feature_path)
        try:
            metric = Metric(sec.get("metric", "l1").lower())
        except ValueError:
            raise FormatError(f"{path}: [{section}] has unknown metric {sec.get('metric')!r}")
        try:
            channels.append(
                ChannelConfig(
                    name=name,
                    feature_path=feature_path,
                    fmt=sec.get("format", "csv"),
                    metric=metric,
                    k1=_number(sec, "k1", int),
                    k2=_number(sec, "k2", int),
                    alpha=_number(sec, "alpha", float, 1.0),
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}: [{section}]: {exc}") from exc

    rerank_sec = parser["rerank"] if parser.has_section("rerank") else {}
    run_sec = parser["run"] if parser.has_section("run") else {}
    for key, kept in RETIRED_RERANK_KEYS.items():
        if key in rerank_sec and rerank_sec[key] != kept:
            raise FormatError(
                f"{path}: [rerank] {key} = {rerank_sec[key]!r}: this option was removed; "
                f"delete the line (only {kept!r} is still accepted)"
            )
    try:
        k_final = _number(rerank_sec, "k_final", int)
        seed = _number(run_sec, "seed", int, 0)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc

    return PipelineConfig(channels=tuple(channels), k_final=k_final, seed=seed)


def _number(section, key: str, kind: type, default: int | float | None = None) -> int | float | None:
    """A key's value in :func:`errors.parse_number`'s grammar, or ``default`` when the key is absent."""
    return parse_number(section[key], kind) if key in section else default


def write_config(config: PipelineConfig, path: str | Path) -> None:
    lines = []
    for ch in config.channels:
        lines.append(f"[channel:{ch.name}]")
        lines.append(f"features = {ch.feature_path}")
        lines.append(f"format = {ch.fmt}")
        lines.append(f"metric = {ch.metric.value}")
        if ch.k1 is not None:
            lines.append(f"k1 = {ch.k1}")
        if ch.k2 is not None:
            lines.append(f"k2 = {ch.k2}")
        lines.append(f"alpha = {ch.alpha!r}")
        lines.append("")
    lines.append("[rerank]")
    if config.k_final is not None:
        lines.append(f"k_final = {config.k_final}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"seed = {config.seed}")
    write_text(path, (line + "\n" for line in lines))
