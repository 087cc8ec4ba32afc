"""Command-line front end: index, rerank/fuse, eval, synth, bench.

Exit codes: 0 on success, 2 on usage errors, 3 on data errors. Data errors
print one machine-parsable line to stderr: ``error\t<Class>\t<message>``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .config import ChannelConfig, PipelineConfig, load_config, write_config
from .errors import (
    DimensionError, FileAccessError, FormatError, TierankError, make_dir, parse_number, read_table, write_text,
)
from .evaluation import load_ground_truth, ns_score, precision_at, recall_at, write_ground_truth
from .index import (
    FeatureMatrix, Metric, build_index, load_features, load_index, load_index_features, save_index, source_key,
    _usable_cores, write_features_csv,
)
from .pipeline import Channel, batch_rerank, batch_rerank_vectors
from .ranking import RankedList, read_rankings_tsv, write_rankings_tsv
from .scenarios import gen_outlier_scenario, gen_two_manifold_scenario


def _load_channel_features(cfg: ChannelConfig, index_file: Path | None = None) -> tuple[FeatureMatrix, bytes | None]:
    """A channel's features, fresh from ``index_file`` or parsed; with none, a CSV's key too, taken before the parse."""
    csv = cfg.fmt == "csv"
    try:
        key = source_key(cfg.feature_path) if csv and index_file is None else None
        features = load_index_features(index_file, cfg.feature_path, cfg.name) if csv and index_file else None
        return features or load_features(cfg.feature_path, fmt=cfg.fmt, channel_name=cfg.name), key
    except FileAccessError as exc:
        raise FileAccessError(f"channel {cfg.name!r}: {exc}") from exc


def cmd_index(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = make_dir(args.out_dir)
    fused = len(config.channels) > 1  # one channel ranks by its own counts and reads no table
    for cfg in config.channels:
        features, key = _load_channel_features(cfg)
        k1, k2 = cfg.ks(features.n)
        index = build_index(features, k=max(k1, k2), metric=cfg.metric)
        save_index(index, out_dir / f"{cfg.name}.index", tier3=(k1, k2) if fused else None,
                   parsed=(features, key) if key else None)
        print(f"indexed channel {cfg.name}: n={index.n} k={index.k} metric={cfg.metric.value}")
    return 0


def _assemble_channels(config: PipelineConfig, index_dir: Path, need_features: bool) -> list[Channel]:
    channels = []
    for cfg in config.channels:
        path = index_dir / f"{cfg.name}.index"
        index = load_index(path)
        features = _load_channel_features(cfg, path)[0] if need_features else None
        k1, k2 = cfg.ks(index.n)
        if k1 > index.k or k2 > index.k:
            raise FormatError(f"channel {cfg.name!r}: k1/k2 exceed the stored index k={index.k}; re-run index")
        channels.append(Channel(name=cfg.name, index=index, k1=k1, k2=k2, alpha=cfg.alpha, features=features))
    return channels


def _parse_query_ids(args: argparse.Namespace) -> list[int]:
    ids: list[int] = []
    if args.query_ids:
        try:
            ids.extend(parse_number(tok, int) for tok in args.query_ids.split(",") if tok.strip())
        except ValueError:
            raise FormatError(f"bad --query-ids value {args.query_ids!r}")
    if args.queries_file:  # one id a line
        ids += read_table(args.queries_file, "i", "bad query id")[0][0].tolist()
    return ids


def _parse_query_vectors(path: str, channels: list[Channel]) -> np.ndarray | list[list[float]]:
    """The file's vectors, values split at commas or whitespace: every line read, then checked.

    A NaN or Inf is refused. Then a line whose length is not every
    channel's dim is a DimensionError naming the line and the first such
    channel, so that vectors of different lengths never meet in one matrix.
    """
    (vectors,), linenos = read_table(path, "f+", "bad vector line", sep=None)
    if not len(vectors):
        raise FormatError(f"{path}: no query vectors")
    for lineno, vector in zip(linenos, vectors):
        if not np.isfinite(vector).all():
            raise FormatError(f"{path}:{lineno}: query vector contains NaN or Inf")
    for lineno, vector in zip(linenos, vectors):
        for ch in channels:
            if len(vector) != ch.features.dim:
                raise DimensionError(
                    f"{path}:{lineno}: query dim {len(vector)} != channel {ch.name!r} dim {ch.features.dim}"
                )
    return vectors


def cmd_rerank(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.k_final is not None and args.k_final < 1:
        raise FormatError(f"k_final must be >= 1, got --k-final {args.k_final}")
    k_final = args.k_final if args.k_final is not None else config.k_final
    index_dir = Path(args.index_dir)
    need_features = bool(args.query_vectors)
    channels = _assemble_channels(config, index_dir, need_features)

    rankings: list[RankedList] = []
    query_ids = _parse_query_ids(args)
    if query_ids:
        rankings.extend(batch_rerank(channels, query_ids, k_final=k_final))
    if args.query_vectors:  # named one past the largest stored id, and up
        rankings.extend(batch_rerank_vectors(channels, _parse_query_vectors(args.query_vectors, channels), k_final))
    if not rankings:
        raise FormatError("no queries given; use --query-ids, --queries-file or --query-vectors")

    if args.out:
        write_rankings_tsv(rankings, args.out)
    else:
        for ranking in rankings:
            sys.stdout.write(ranking.tsv_text())
    return 0


def _parse_counts(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers >= 1, as --r, --n and --k take it."""
    try:
        values = [parse_number(tok, int) for tok in text.split(",")]
    except ValueError:
        raise FormatError(f"bad {flag} value {text!r}: want comma-separated integers") from None
    if min(values) < 1:
        raise FormatError(f"bad {flag} value {text!r}: every value must be >= 1")
    return values


_METRIC_BUILDERS = {
    "ns": lambda rankings, truth, r, excl: ns_score(rankings, truth, exclude_query=excl),
    "precision": lambda rankings, truth, r, excl: precision_at(rankings, truth, r, exclude_query=excl),
    "recall": lambda rankings, truth, r, excl: recall_at(rankings, truth, r, exclude_query=excl),
}


def cmd_eval(args: argparse.Namespace) -> int:
    rankings = read_rankings_tsv(args.rankings)
    truth = load_ground_truth(args.truth)
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    cutoffs = _parse_counts(args.r, "--r") if args.r else [4]
    unknown = [m for m in names if m not in _METRIC_BUILDERS]
    if unknown:
        raise FormatError(f"unknown metrics {unknown}; choose from {sorted(_METRIC_BUILDERS)}")

    reports = []
    for name in names:
        if name == "ns":
            reports.append(_METRIC_BUILDERS[name](rankings, truth, 4, args.exclude_query))
        else:
            for r in cutoffs:
                reports.append(_METRIC_BUILDERS[name](rankings, truth, r, args.exclude_query))

    if args.format == "tsv":
        print("metric\tr\tvalue\tn_queries")
        for rep in reports:
            print(f"{rep.metric_name}\t{rep.r}\t{rep.value!r}\t{rep.n_queries}")
    else:
        width = max(len(rep.metric_name) for rep in reports)
        for rep in reports:
            print(f"{rep.metric_name:<{width}}  @{rep.r:<4d} {rep.value:10.4f}   ({rep.n_queries} queries)")
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise FormatError(f"bad --seed value {seed}: must be >= 0")


def cmd_synth(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    out_dir = make_dir(args.out_dir)
    if args.scenario == "outlier":
        scenario = gen_outlier_scenario(seed=args.seed)
        channel_files = {"plane": scenario.features}
    elif args.scenario == "two-manifold":
        scenario = gen_two_manifold_scenario(seed=args.seed)
        channel_files = {fm.channel_name: fm for fm in scenario.channels}
    else:
        raise FormatError(f"unknown scenario {args.scenario!r}")

    channel_configs = []
    for name, features in channel_files.items():
        write_features_csv(features, out_dir / f"{name}.csv")
        # paths stay relative to the config so the directory is relocatable
        channel_configs.append(
            ChannelConfig(
                name=name, feature_path=f"{name}.csv", fmt="csv", metric=Metric.L1,
                k1=scenario.k1, k2=scenario.k2,
            )
        )
    write_ground_truth(scenario.truth, out_dir / "truth.csv")
    write_text(out_dir / "manifest.json", [json.dumps(scenario.manifest, indent=2, sort_keys=True) + "\n"])
    config = PipelineConfig(channels=tuple(channel_configs), seed=args.seed)
    write_config(config, out_dir / "pipeline.cfg")
    print(f"wrote {args.scenario} scenario to {out_dir} (query={scenario.query})")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    m = args.m
    if args.config:
        config = load_config(args.config)
        m = m if m is not None else len(config.channels)
    if m is None:
        m = 3
    n_values = _parse_counts(args.n, "--n")
    k_values = _parse_counts(args.k, "--k")
    if min(args.queries, args.reps) < 1 or args.queries * args.reps < 100:
        raise FormatError(f"need >= 100 timed samples, got --queries {args.queries} x --reps {args.reps}")
    if args.queries > min(n_values):
        raise FormatError(f"--queries {args.queries} exceeds the collection size --n {min(n_values)}")
    if args.dim < 1:
        raise FormatError(f"bad --dim value {args.dim}: must be >= 1")
    _check_seed(args.seed)
    import scipy  # the bench builds indexes, which import it anyway

    print(f"machine: usable_cores={_usable_cores()} python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__}", file=sys.stderr)  # stdout holds the table alone
    print("label\tn\tm\tk\tmean_ms\tmedian_ms\tsamples\tp90_ms\tp99_ms\twarmup_ms")
    rng = np.random.default_rng(args.seed)
    for n in n_values:
        k_cap = max(k_values)
        channels = bench_mod.build_bench_channels(n=n, m=m, k=k_cap, dim=args.dim, seed=args.seed)
        queries = [int(q) for q in rng.choice(n, size=args.queries, replace=False)]
        for k in k_values:
            restricted = bench_mod.restricted_channels(channels, k=k, m=m)
            result = bench_mod.bench_rerank(
                restricted, queries, repetitions=args.reps, k_final=k,
                label=f"n{n}-k{k}-m{m}",
            )
            print(result.row())
    return 0


def integer(text: str) -> int:
    """An integer flag's value, in the number grammar of every input; argparse refuses a ValueError (exit 2)."""
    return parse_number(text, int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierank",
        description="Tiered neighborhood-graph re-ranking with multi-channel fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist per-channel KNN indexes", description=(
        "Build and persist each channel's KNN index as one file, <name>.index, which holds, on two or more "
        "channels, its tier-3 overlap table, and for a CSV channel, the features it parsed to, which rerank reads "
        "instead of the CSV while the CSV's SHA-256 is the one they were parsed from."))
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--out-dir", required=True)
    p_index.set_defaults(func=cmd_index)

    def add_rerank(name: str, help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--index-dir", required=True)
        p.add_argument("--query-ids", help="comma-separated item ids")
        p.add_argument("--queries-file", help="file with one query id per line")
        p.add_argument("--query-vectors", help="file with one raw feature vector per line")
        p.add_argument("--out", help="output TSV path (default: stdout)")
        p.add_argument("--k-final", type=integer, default=None)
        p.set_defaults(func=cmd_rerank)

    add_rerank("rerank", "re-rank queries over the configured channels")
    add_rerank("fuse", "alias of rerank for multi-channel configs")

    p_eval = sub.add_parser("eval", help="score rankings against ground truth")
    p_eval.add_argument("--rankings", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--metrics", default="precision")
    p_eval.add_argument("--r", default="4")
    p_eval.add_argument("--exclude-query", action="store_true")
    p_eval.add_argument("--format", choices=["table", "tsv"], default="table")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="write a synthetic scenario to disk")
    p_synth.add_argument("--scenario", choices=["outlier", "two-manifold"], required=True)
    p_synth.add_argument("--seed", type=integer, default=0)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("bench", help="time the per-query rerank path")
    p_bench.add_argument("--config", help="optional; channel count defaults to the config's")
    p_bench.add_argument("--n", default="2000")
    p_bench.add_argument("--k", default="25")
    p_bench.add_argument("--m", type=integer, default=None)
    p_bench.add_argument("--dim", type=integer, default=4)
    p_bench.add_argument("--queries", type=integer, default=100)
    p_bench.add_argument("--reps", type=integer, default=1)
    p_bench.add_argument("--seed", type=integer, default=0)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TierankError as exc:
        message = " ".join(str(exc).splitlines())  # one line, whatever the message quotes
        print(f"error\t{type(exc).__name__}\t{message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
