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
    tier3_mode = query-anchored
    k_final = 10
    variant = sum

    [run]
    seed = 0
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import FileAccessError, FormatError
from .index import Metric
from .pipeline import VARIANT_PRODUCT, VARIANT_SUM
from .rerank import TIER3_LITERAL, TIER3_QUERY_ANCHORED

# item-count heuristic used when a channel does not pin k explicitly
SMALL_COLLECTION_K = 5
LARGE_COLLECTION_K = 50
LARGE_COLLECTION_THRESHOLD = 20_000


@dataclass(frozen=True)
class ChannelConfig:
    name: str
    feature_path: str
    fmt: str = "csv"
    metric: Metric = Metric.L1
    k1: int | None = None
    k2: int | None = None
    alpha: float = 1.0


@dataclass(frozen=True)
class PipelineConfig:
    channels: tuple[ChannelConfig, ...]
    tier3_mode: str = TIER3_QUERY_ANCHORED
    k_final: int | None = None
    variant: str = VARIANT_SUM
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.channels:
            raise FormatError("config declares no channels")
        names = [ch.name for ch in self.channels]
        if len(set(names)) != len(names):
            raise FormatError(f"duplicate channel names: {names}")
        if self.tier3_mode not in (TIER3_QUERY_ANCHORED, TIER3_LITERAL):
            raise FormatError(f"unknown tier3_mode {self.tier3_mode!r}")
        if self.variant not in (VARIANT_SUM, VARIANT_PRODUCT):
            raise FormatError(f"unknown selection variant {self.variant!r}")
        for ch in self.channels:
            for k in (ch.k1, ch.k2):
                if k is not None and k < 1:
                    raise FormatError(f"channel {ch.name!r}: k must be >= 1")
            if ch.alpha <= 0:
                raise FormatError(f"channel {ch.name!r}: alpha must be positive")


def default_k(n_items: int) -> int:
    """Collection-size heuristic for unset k."""
    return SMALL_COLLECTION_K if n_items < LARGE_COLLECTION_THRESHOLD else LARGE_COLLECTION_K


def load_config(path: str | Path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise FileAccessError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise FormatError(f"bad config {path}: {exc}") from exc

    base = Path(path).parent
    channels = []
    for section in parser.sections():
        if not section.startswith("channel:"):
            continue
        name = section.split(":", 1)[1].strip()
        if not name:
            raise FormatError(f"{path}: empty channel name in [{section}]")
        sec = parser[section]
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
                    k1=sec.getint("k1") if "k1" in sec else None,
                    k2=sec.getint("k2") if "k2" in sec else None,
                    alpha=sec.getfloat("alpha", 1.0),
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}: [{section}]: {exc}") from exc

    rerank_sec = parser["rerank"] if parser.has_section("rerank") else {}
    run_sec = parser["run"] if parser.has_section("run") else {}
    try:
        k_final = int(rerank_sec["k_final"]) if "k_final" in rerank_sec else None
        seed = int(run_sec.get("seed", 0))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc

    return PipelineConfig(
        channels=tuple(channels),
        tier3_mode=rerank_sec.get("tier3_mode", TIER3_QUERY_ANCHORED),
        k_final=k_final,
        variant=rerank_sec.get("variant", VARIANT_SUM),
        seed=seed,
    )


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
    lines.append(f"tier3_mode = {config.tier3_mode}")
    if config.k_final is not None:
        lines.append(f"k_final = {config.k_final}")
    lines.append(f"variant = {config.variant}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"seed = {config.seed}")
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise FileAccessError(f"cannot write config {path}: {exc}") from exc
