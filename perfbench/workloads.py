"""The benchmark's workloads, driven through tierank's public API from outside.

Each workload makes seeded inputs, sets up every channel several times
(setup_s is the median), warms up, then runs a closed loop with one client
for the requested seconds and at least one full pass over its queries.
Timings are scaled by a reference task timed alongside them (speed.py).
Every output is checked; a mismatch or an exception is a failed operation.

A traced run replaces the timed loop by one pass in which each query is run
twice, once through the library's own entry point and once composed from
the same public calls that entry point makes, each wrapped in a span. The
two rankings must be byte-identical, so the breakdown cannot silently go
stale when the pipeline changes shape.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import resource
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from tierank import cli
from tierank.evaluation import GroundTruth, precision_at
from tierank.fusion import TieredPairwise, fuse_graphs, greedy_select
from tierank.index import build_index, knn_candidates, load_features, load_index, save_index
from tierank.oracles import brute_force_knn, brute_force_neighborhood, oracle_greedy_select
from tierank.pipeline import Channel, batch_rerank, rerank_query, rerank_vector_query
from tierank.rerank import tiered_graph, tiered_rerank

from . import gen, reference
from .speed import Speed
from .tracing import NO_PARENT, Tracer, Untraced, median, tail

# The oracle enumerates selections exhaustively and is capped at 50 fused
# nodes, so it checks sampled queries at this k, where m * k <= 50.
ORACLE_K = 10
WARM_UP = 20  # untimed queries before the timed loop
SETUP_PROBES = 5  # reference tasks before each set-up and after the last
COMMANDS = 5  # timed rerank commands in cli-mixed, after its closed loop
COMMAND_PROBES = 3  # reference tasks before and after each timed rerank command


@dataclass(frozen=True)
class Spec:
    n: int  # stored items; ids are 0..n-1
    d: int
    m: int  # channels
    k: int  # k1 = k2 = k_final = index k
    noise: float
    n_ids: int  # stored-id queries
    n_vectors: int  # out-of-sample vector queries
    setups: int  # set-ups per run; setup_s is their median
    per_class: int = 40
    chunk: int = 25  # queries per step of the timed loop (and per batch_rerank call)
    index_rows: int = 1  # index rows per channel checked by brute force
    references: int = 4  # queries checked by the plain-loop reference and the oracle


# Sizes keep one run of each workload near 30 s on a 2-core machine, so that
# repeated runs of all three fit in an hour.
SPECS = {
    "fused-ids": Spec(n=10_000, d=4, m=3, k=25, noise=0.3, n_ids=400, n_vectors=0, setups=3),
    "vector-oos": Spec(n=10_000, d=32, m=1, k=50, noise=1.0, n_ids=0, n_vectors=1000, setups=3,
                       index_rows=2),
    "cli-mixed": Spec(n=5_000, d=16, m=2, k=50, noise=0.9, n_ids=200, n_vectors=40, setups=3,
                      references=2),
}

# span name -> unit of its per-call timing metric
TIMED_SPANS = {
    "index.load_features": "s",
    "index.build": "s",
    "index.save": "s",
    "index.load": "s",
    "index.knn_candidates": "ms",
    "index.overlay": "ms",
    "rerank.tiered_graph": "ms",
    "rerank.tiered_rerank": "ms",
    "fusion.fuse_graphs": "ms",
    "fusion.pairwise_init": "ms",
    "fusion.greedy_select": "ms",
    "ranking.to_ranked_list": "ms",
    "pipeline.self": "ms",
    "ranking.write_tsv": "s",
    "ranking.read_tsv": "s",
    "cli.index": "s",
    "cli.rerank": "s",
    "cli.eval": "s",
}
QUERY_SPAN = "pipeline.query"
# spans whose self time makes up a traced query, reported as shares of it
QUERY_LAYERS = [
    "index.knn_candidates", "index.overlay", "rerank.tiered_graph", "rerank.tiered_rerank",
    "fusion.fuse_graphs", "fusion.pairwise_init", "fusion.greedy_select",
    "ranking.to_ranked_list", "pipeline.self",
]
# library functions the CLI calls, wrapped in spans during a traced CLI run
CLI_SPANS = {
    "load_features": "index.load_features",
    "build_index": "index.build",
    "save_index": "index.save",
    "load_index": "index.load",
    "write_rankings_tsv": "ranking.write_tsv",
    "read_rankings_tsv": "ranking.read_tsv",
}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    names = []
    for span, unit in TIMED_SPANS.items():
        names += [(f"{span}_{unit}.p50", unit), (f"{span}_{unit}.p99", unit),
                  (f"{span}_{unit}.calls", "count")]
    names += [(f"share.{layer}_pct", "%") for layer in QUERY_LAYERS]
    names += [("index.file_bytes", "bytes"), ("workload.union_nodes.mean", "count"),
              ("workload.union_nodes.max", "count"), ("workload.multi_channel_pct", "%"),
              ("trace.overhead_pct", "%")]
    return names


@dataclass
class Run:
    """State and results of one benchmark run of one workload."""

    name: str
    spec: Spec
    seed: int
    seconds: float
    work: Path
    traced: bool
    tracer: Any = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    rankings: list = field(default_factory=list)  # first-pass rankings, aligned with the ops

    def __post_init__(self) -> None:
        self.tracer = Tracer() if self.traced else Untraced()
        self.rng = np.random.default_rng(self.seed)

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {detail}")

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, detail or "mismatch")

    def attempt(self, what: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """One operation; an exception is recorded as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(what, traceback.format_exc())
            return None

    def timing(self, name: str, values: list[float], unit: str, scale: float) -> None:
        label, value = tail(values)
        self.metrics[f"{name}_{unit}.p50"] = (median(values) * scale, unit)
        self.metrics[f"{name}_{unit}.p99"] = (value * scale, unit)
        self.metrics[f"{name}_{unit}.calls"] = (float(len(values)), "count")
        if values:
            self.notes.append(f"{name}: {len(values)} calls, {label} is the tail percentile")


def render(rankings: list) -> str:
    """The rankings exactly as the CLI writes them to TSV."""
    return "".join(line + "\n" for r in rankings for line in r.tsv_lines())


# --- inputs -----------------------------------------------------------------


def write_binary(path: Path, vectors: np.ndarray) -> None:
    """Feature binary format: b"TKF1", dim as <u4, then per item <i8 id and dim <f4."""
    record = np.dtype([("id", "<i8"), ("vec", "<f4", (vectors.shape[1],))])
    out = np.empty(vectors.shape[0], dtype=record)
    out["id"] = np.arange(vectors.shape[0])
    out["vec"] = vectors
    path.write_bytes(b"TKF1" + np.asarray([vectors.shape[1]], dtype="<u4").tobytes()
                     + out.tobytes())


def write_csv(path: Path, vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(vectors.tolist()):
            fh.write(f"{i}," + ",".join(map(repr, row)) + "\n")


def make_inputs(run: Run):
    """(collection, ops, truth). An op is (query id, None) or (virtual id, vector)."""
    s = run.spec
    coll = gen.make_collection(run.rng, s.n, s.d, s.m, s.per_class, s.noise)
    ids, vectors, vlabels = gen.draw_queries(run.rng, coll, s.n_ids, s.n_vectors)
    # virtual ids follow the largest stored id, as the CLI numbers them
    ops = [(q, None) for q in ids] + [(s.n + j, v) for j, v in enumerate(vectors)]
    labels = {i: int(c) for i, c in enumerate(coll.labels)}
    labels.update({s.n + j: int(c) for j, c in enumerate(vlabels)})
    return coll, ops, GroundTruth(labels=labels)


# --- queries ----------------------------------------------------------------


def untraced_query(channels: list[Channel], k: int, op) -> Any:
    query, vector = op
    if vector is None:
        return rerank_query(channels, query, k_final=k)
    return rerank_vector_query(channels, vector, k_final=k, vid=query)


def traced_query(tr: Tracer, channels: list[Channel], k: int, op) -> Any:
    """The calls rerank_query / rerank_vector_query make, one span each."""
    query, vector = op
    if vector is not None:
        extended = []
        for ch in channels:
            want = min(ch.index.k - 1, ch.features.n)
            ids, dists = tr.call("index.knn_candidates", knn_candidates,
                                 ch.features, vector, want, ch.index.metric)
            index = tr.call("index.overlay", ch.index.with_virtual, query,
                            np.concatenate(([query], ids)).astype(np.int64),
                            np.concatenate(([0.0], dists)))
            extended.append(replace(ch, index=index))
        channels = extended
    if len(channels) == 1:
        ch = channels[0]
        return tr.call("rerank.tiered_rerank", tiered_rerank,
                       ch.index, query, alpha=ch.alpha, k1=ch.k1, k2=ch.k2)
    graphs = [tr.call("rerank.tiered_graph", tiered_graph,
                      ch.index, query, alpha=ch.alpha, k1=ch.k1, k2=ch.k2)[1]
              for ch in channels]
    fused = tr.call("fusion.fuse_graphs", fuse_graphs, graphs, scales=[ch.alpha for ch in channels])
    by_name = sorted(channels, key=lambda ch: ch.name)
    pairwise = tr.call("fusion.pairwise_init", TieredPairwise,
                       [(ch.index, ch.k1, ch.k2) for ch in by_name],
                       candidates=sorted(fused.nodes), scales=[ch.alpha for ch in by_name])
    final = tr.call("fusion.greedy_select", greedy_select, fused, pairwise, k)
    return tr.call("ranking.to_ranked_list", final.to_ranked_list, tier="mfr")


def closed_loop(run: Run, ops: list, single: Callable, batch: Callable | None,
                seconds: float) -> tuple[list, int, float]:
    """One client, one query at a time, in chunks, for ``seconds`` and at least one full pass.

    Returns the first pass's rankings, which are checked and scored (later
    passes must repeat them), and the queries and reference seconds behind
    throughput: through ``batch`` when given (each chunk is then run again
    as one batch, checked byte-identical to the singles). The reference
    task runs before each chunk and after the last; each chunk's times are
    scaled by the task times around it.
    """
    speed = Speed()
    first: list = [None] * len(ops)
    chunks: list[tuple[list[float], float]] = []  # (latencies, seconds behind throughput)
    done, pos, passes = 0, 0, 0
    start = perf_counter()
    while perf_counter() - start < seconds or passes == 0:
        speed.probe()
        chunk = range(pos, min(pos + run.spec.chunk, len(ops)))
        got, latencies, busy = [], [], 0.0
        began = perf_counter()
        for j in chunk:
            t0 = perf_counter()
            try:
                ranking = single(ops[j])
            except Exception:
                run.fail(f"query {ops[j][0]}", traceback.format_exc())
                ranking = None
            else:
                latencies.append(perf_counter() - t0)
            got.append(ranking)
        run.attempted += len(chunk)
        if batch is None:
            done, busy = done + len(chunk), perf_counter() - began
        else:
            t0 = perf_counter()
            out = run.attempt("batch_rerank", batch, [ops[j] for j in chunk])
            if out is not None:
                done, busy = done + len(chunk), perf_counter() - t0
                run.check("batch_rerank equals rerank_query",
                          None not in got and render(out) == render(got))
        chunks.append((latencies, busy))
        for j, ranking in zip(chunk, got):
            if passes == 0:
                first[j] = ranking
            elif ranking is not None and first[j] is not None:
                run.check(f"query {ops[j][0]} repeats its ranking", ranking == first[j])
        pos = chunk.stop
        if pos == len(ops):
            pos, passes = 0, passes + 1
    speed.probe()
    scales = speed.scales()
    raw = [t for latencies, _ in chunks for t in latencies]
    scaled = [t * sc for (latencies, _), sc in zip(chunks, scales) for t in latencies]
    label, value = tail(scaled)
    run.metrics["query_p50_ms"] = (median(scaled) * 1e3, "ms")
    run.metrics["query_p99_ms"] = (value * 1e3, "ms")
    run.notes.append(f"closed loop: {passes} full passes plus {pos} of {len(ops)} queries in "
                     f"{len(chunks)} chunks, scaled by x {median(scales):.4f} (median); "
                     + speed.note())
    run.notes.append(f"query_p50_ms, query_p99_ms: {len(scaled)} samples; query_p99_ms is "
                     f"{label}; raw {median(raw) * 1e3:.4f} and {tail(raw)[1] * 1e3:.4f} ms")
    return first, done, sum(busy * sc for (_, busy), sc in zip(chunks, scales))


def traced_pass(run: Run, channels: list[Channel], ops: list) -> list:
    """Each op untraced and traced, alternating which goes first; returns traced rankings."""
    tr, k = run.tracer, run.spec.k
    plain_s, traced = [], []
    for j, op in enumerate(ops):
        tr.query = op[0]
        order = (False, True) if j % 2 == 0 else (True, False)
        results = {}
        for spanned in order:
            if spanned:
                results[True] = run.attempt(f"traced query {op[0]}", tr.call,
                                            QUERY_SPAN, traced_query, tr, channels, k, op)
            else:
                t0 = perf_counter()
                results[False] = run.attempt(f"query {op[0]}", untraced_query, channels, k, op)
                plain_s.append(perf_counter() - t0)
        run.check(f"traced query {op[0]} equals untraced",
                  None not in results.values() and render([results[True]]) == render([results[False]]))
        traced.append(results[True])
    tr.query = None
    spans = tr.by_name()
    with_spans = median(spans.get(QUERY_SPAN, ([], []))[0])
    without = median(plain_s)
    run.metrics["trace.overhead_pct"] = (100.0 * (with_spans - without) / without, "%")
    run.notes.append(f"untraced query p50 {without * 1e3:.4f} ms, traced {with_spans * 1e3:.4f} ms "
                     f"over {len(plain_s)} queries each")
    return traced


# --- checks -----------------------------------------------------------------


def check_index_rows(run: Run, channels: list[Channel]) -> None:
    """Sampled index rows against oracles.brute_force_neighborhood."""
    for ch in channels:
        for item in run.rng.choice(ch.features.n, size=run.spec.index_rows, replace=False):
            item = int(item)
            ok = run.attempt(f"channel {ch.name} index row {item}", lambda: ch.index.neighbors(item)
                             == brute_force_neighborhood(ch.features, item, ch.index.k, ch.index.metric))
            run.check(f"channel {ch.name} index row {item} matches brute force", ok is True)


def check_rankings(run: Run, channels: list[Channel], ops: list, rankings: list) -> None:
    """Sampled queries against brute-force kNN, the plain-loop reference and the oracle."""
    picks = run.rng.choice(len(ops), size=min(run.spec.references, len(ops)), replace=False)
    for j in picks:
        (query, vector), got = ops[int(j)], rankings[int(j)]
        if got is not None:
            run.attempt(f"checks of query {query}", check_query, run, channels, query, vector, got)


def check_query(run: Run, channels: list[Channel], query: int, vector, got) -> None:
    k = run.spec.k
    if vector is not None:
        # the reference gets the virtual row from brute force, not from the library
        overlaid = []
        for ch in channels:
            want = brute_force_knn(ch.features, vector, ch.index.k - 1, ch.index.metric)
            ids, dists = knn_candidates(ch.features, vector, ch.index.k - 1, ch.index.metric)
            run.check(f"channel {ch.name} vector {query} candidates match brute force",
                      [(int(i), float(d)) for i, d in zip(ids, dists)] == want)
            overlay = ch.index.with_virtual(query, np.asarray([query] + [i for i, _ in want]),
                                            np.asarray([0.0] + [d for _, d in want]))
            overlaid.append(replace(ch, index=overlay))
        channels = overlaid
    by_name = [(ch.index, ch.k1, ch.k2, ch.alpha) for ch in sorted(channels, key=lambda c: c.name)]
    if len(channels) == 1:
        want = reference.single_channel(channels[0].index, query, k, k)
    else:
        want = reference.fused(by_name, query, k)
    run.check(f"query {query} matches the plain-loop reference", list(got.entries) == want)
    if len(channels) > 1:
        small = [replace(ch, k1=ORACLE_K, k2=ORACLE_K) for ch in channels]
        got_small = rerank_query(small, query, k_final=ORACLE_K)
        graphs = [tiered_graph(ch.index, query, alpha=ch.alpha, k1=ORACLE_K, k2=ORACLE_K)[1]
                  for ch in small]
        fused = fuse_graphs(graphs, scales=[ch.alpha for ch in small])
        small_ref = [(idx, ORACLE_K, ORACLE_K, a) for idx, _, _, a in by_name]
        want_small = oracle_greedy_select(
            fused, functools.partial(reference.pairwise, small_ref), ORACLE_K)
        run.check(f"query {query} at k={ORACLE_K} matches oracle_greedy_select",
                  list(got_small.entries) == list(zip(want_small.items, want_small.scores)))


def record_properties(run: Run, channels: list[Channel], ops: list) -> None:
    """Fused union size and cross-channel candidate share over the first 200 queries."""
    lists = []
    for query, vector in ops[:200]:
        if vector is None:
            lists.append([ch.index.neighbor_ids(query, ch.k1) for ch in channels])
        else:
            lists.append([np.concatenate(([query], knn_candidates(
                ch.features, vector, ch.k1 - 1, ch.index.metric)[0])) for ch in channels])
    props = gen.candidate_overlap(lists)
    run.metrics["workload.union_nodes.mean"] = (props["union_mean"], "count")
    run.metrics["workload.union_nodes.max"] = (props["union_max"], "count")
    run.metrics["workload.multi_channel_pct"] = (props["multi_channel_pct"], "%")
    run.notes.append(
        f"inputs over {len(lists)} queries: fused union mean {props['union_mean']:.2f} max "
        f"{props['union_max']:.0f} nodes; {props['multi_channel_pct']:.2f}% of union members "
        f"are candidates on more than one channel")


# --- set-up -----------------------------------------------------------------


def binary_setup(run: Run, files: list[tuple[str, Path]]) -> list[Channel]:
    """load_features, build_index, save_index and load_index for every channel."""
    tr, k = run.tracer, run.spec.k
    channels = []
    for name, path in files:
        features = tr.call("index.load_features", load_features, path, "binary", name)
        built = tr.call("index.build", build_index, features, k)
        tr.call("index.save", save_index, built, path.with_suffix(".index"))
        index = tr.call("index.load", load_index, path.with_suffix(".index"))
        channels.append(Channel(name=name, index=index, k1=k, k2=k, features=features))
    return channels


def run_cli(run: Run, span: str, argv: list[str]) -> str:
    """tierank.cli.main in this process; returns its stdout, fails on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.attempt(span, run.tracer.call, span, cli.main, argv)
    run.check(f"{span} exits 0", code == 0, f"exit {code}: {err.getvalue()}")
    return out.getvalue()


@contextlib.contextmanager
def cli_spans(run: Run):
    """Wrap the library functions the CLI calls in spans, for a traced run."""
    if not run.traced:
        yield
        return
    saved = {attr: getattr(cli, attr) for attr in CLI_SPANS}
    try:
        for attr, span in CLI_SPANS.items():
            setattr(cli, attr, functools.partial(run.tracer.call, span, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def set_up(run: Run, setup_once: Callable[[], Any]) -> Any:
    """Call ``setup_once`` run.spec.setups times; setup_s is the median, scaled by the reference task.

    The previous set-up's result is dropped before the next one starts, so
    peak_rss_mb holds one set of indexes. Returns the last result, or None
    if a set-up failed.
    """
    speed, times, state = Speed(), [], None
    for _ in range(run.spec.setups):
        state = None
        gc.collect()
        speed.probe(SETUP_PROBES)
        t0 = perf_counter()
        state = run.attempt("set-up", run.tracer.call, "setup", setup_once)
        times.append(perf_counter() - t0)
        if state is None:
            return None
    speed.probe(SETUP_PROBES)
    run.metrics["setup_s"] = (median(times) * speed.scale(), "s")
    run.notes.append(f"setup_s: median of {len(times)} set-ups, raw "
                     + ", ".join(f"{t:.3f}" for t in times) + f" s, x {speed.scale():.4f}; "
                     + speed.note())
    return state


def run_queries(run: Run, channels: list[Channel], ops: list, seconds: float,
                batch: Callable | None = None) -> tuple[int, float]:
    """Warm up, then the timed closed loop, or in a traced run one traced pass.

    Sets run.rankings to the first pass's rankings; returns the queries and
    reference seconds behind throughput (0, 0.0 when traced).
    """
    for op in ops[:WARM_UP]:
        untraced_query(channels, run.spec.k, op)
    if run.traced:
        run.rankings = traced_pass(run, channels, ops)
        return 0, 0.0
    run.rankings, done, busy = closed_loop(
        run, ops, functools.partial(untraced_query, channels, run.spec.k), batch, seconds)
    return done, busy


# --- workloads --------------------------------------------------------------


def run_library(run: Run) -> None:
    """fused-ids and vector-oos: binary features, library calls only."""
    s = run.spec
    coll, ops, truth = make_inputs(run)
    files = []
    for c, vectors in enumerate(coll.vectors):
        path = run.work / f"c{c}.tkf"
        write_binary(path, vectors)
        files.append((f"c{c}", path))
    channels = set_up(run, functools.partial(binary_setup, run, files))
    if channels is None:
        return
    run.metrics["index.file_bytes"] = (
        float(sum(p.with_suffix(".index").stat().st_size for _, p in files)), "bytes")
    check_index_rows(run, channels)
    record_properties(run, channels, ops)

    def batch(chunk: list) -> list:
        return batch_rerank(channels, [q for q, _ in chunk])

    done, busy = run_queries(run, channels, ops, run.seconds, batch if s.n_vectors == 0 else None)
    if not run.traced:
        run.metrics["throughput_qps"] = (done / busy, "queries/s")
        run.notes.append(f"throughput_qps: {done} queries in {busy:.3f} reference seconds"
                         + (" of batch_rerank calls" if s.n_vectors == 0 else ""))
    check_rankings(run, channels, ops, run.rankings)
    report_precision(run, run.rankings, truth)


def run_cli_mixed(run: Run) -> None:
    """The user's command sequence: index, rerank (ids and vectors), eval.

    The in-process closed loop runs for --seconds (query_p50_ms,
    query_p99_ms), then the rerank command runs COMMANDS times
    (throughput_qps is their median); a traced run runs the command once.
    """
    s = run.spec
    coll, ops, truth = make_inputs(run)
    w = run.work
    names = [f"c{c}" for c in range(s.m)]
    cfg = []
    for name, vectors in zip(names, coll.vectors):
        write_csv(w / f"{name}.csv", vectors)
        cfg += [f"[channel:{name}]", f"features = {name}.csv", "format = csv", "metric = l1",
                f"k1 = {s.k}", f"k2 = {s.k}", "alpha = 1.0", ""]
    (w / "pipeline.cfg").write_text("\n".join(cfg + ["[rerank]", f"k_final = {s.k}", ""]))
    (w / "queries.txt").write_text("".join(f"{q}\n" for q, v in ops if v is None))
    (w / "vectors.txt").write_text(
        "".join(" ".join(map(repr, v.tolist())) + "\n" for _, v in ops if v is not None))
    (w / "truth.csv").write_text("".join(f"{i},{c}\n" for i, c in sorted(truth.labels.items())))
    config, index_dir, out = str(w / "pipeline.cfg"), w / "idx", w / "ranked.tsv"
    features = [load_features(w / f"{n}.csv", "csv", n) for n in names]

    def setup_once() -> list[Channel]:
        with cli_spans(run):
            run_cli(run, "cli.index", ["index", "--config", config, "--out-dir", str(index_dir)])
        return [Channel(name=n, index=run.tracer.call("index.load", load_index,
                                                      index_dir / f"{n}.index"),
                        k1=s.k, k2=s.k, features=f) for n, f in zip(names, features)]

    channels = set_up(run, setup_once)
    if channels is None:
        return
    run.metrics["index.file_bytes"] = (
        float(sum((index_dir / f"{n}.index").stat().st_size for n in names)), "bytes")
    check_index_rows(run, channels)
    record_properties(run, channels, ops)
    # ids and vectors interleaved, as independent users would send them
    mixed = [ops[j] for j in interleave(s.n_ids, s.n_vectors)]
    run_queries(run, channels, mixed, run.seconds)

    tsvs, qps, speed = [], [], Speed()
    speed.probe(COMMAND_PROBES)
    for _ in range(1 if run.traced else COMMANDS):
        t0 = perf_counter()
        with cli_spans(run):
            run_cli(run, "cli.rerank", [
                "rerank", "--config", config, "--index-dir", str(index_dir),
                "--queries-file", str(w / "queries.txt"),
                "--query-vectors", str(w / "vectors.txt"), "--out", str(out)])
        took = perf_counter() - t0
        speed.probe(COMMAND_PROBES)
        qps.append(len(ops) / (took * speed.scales(reach=0)[-1]))
        tsvs.append(out.read_text() if out.exists() else "")
    run.check("rerank command repeats its output", all(t == tsvs[0] for t in tsvs))
    if not run.traced:
        run.metrics["throughput_qps"] = (median(qps), "queries/s")
        run.notes.append(f"throughput_qps: median of {len(qps)} rerank commands of {len(ops)} "
                         "queries each, at " + ", ".join(f"{q:.2f}" for q in qps)
                         + f" queries/s; {speed.note()}")
    with cli_spans(run):
        evaluated = run_cli(run, "cli.eval", [
            "eval", "--rankings", str(out), "--truth", str(w / "truth.csv"),
            "--metrics", "precision", "--r", "10", "--format", "tsv"])
    # back to the CLI's order: every id query, then every vector query
    by_query = {r.query: r for r in run.rankings if r is not None}
    in_order = [by_query.get(q) for q, _ in ops]
    run.check("rerank command output equals per-query rankings",
              None not in in_order and tsvs[0] == render(in_order))
    check_rankings(run, channels, mixed, run.rankings)
    value = report_precision(run, in_order, truth) if None not in in_order else None
    lines = evaluated.splitlines()
    cli_value = lines[1].split("\t")[2] if len(lines) > 1 else ""
    run.check("tierank eval precision equals precision_at", cli_value == repr(value),
              f"{cli_value} vs {value!r}")


def interleave(n_ids: int, n_vectors: int) -> list[int]:
    """Op positions with vector queries spread evenly among the id queries."""
    order, step = [], max(1, n_ids // max(1, n_vectors))
    for v in range(n_vectors):
        order += list(range(v * step, min((v + 1) * step, n_ids))) + [n_ids + v]
    return order + list(range(n_vectors * step, n_ids))


# --- reporting --------------------------------------------------------------


def report_precision(run: Run, rankings: list, truth: GroundTruth) -> float | None:
    done = [r for r in rankings if r is not None]
    if not done:
        return None
    value = precision_at(done, truth, 10).value
    if run.traced:
        run.notes.append(f"precision_at_10: {value!r} % over {len(done)} queries")
    else:
        run.metrics["precision_at_10"] = (value, "%")
        run.notes.append(f"precision_at_10: over {len(done)} queries")
    return value


def report_layers(run: Run) -> None:
    spans = run.tracer.by_name()
    for span, unit in TIMED_SPANS.items():
        scale = 1e3 if unit == "ms" else 1.0
        if span == "pipeline.self":
            values = spans.get(QUERY_SPAN, ([], []))[1]
        else:
            values = spans.get(span, ([], []))[0]
        run.timing(span, values, unit, scale)
    total = sum(spans.get(QUERY_SPAN, ([], []))[0]) or 1.0
    shares = {}
    for layer in QUERY_LAYERS:
        selfs = spans.get(QUERY_SPAN if layer == "pipeline.self" else layer, ([], []))[1]
        shares[layer] = 100.0 * sum(selfs) / total
        run.metrics[f"share.{layer}_pct"] = (shares[layer], "%")
    top = max(shares, key=shares.get)
    run.notes.append(f"largest share of traced query time: {top} {shares[top]:.1f}%; "
                     f"index.knn_candidates + index.overlay: "
                     f"{shares['index.knn_candidates'] + shares['index.overlay']:.1f}%")
    inside: dict[str, list[float]] = {}
    records = run.tracer.spans
    for name, start, end, parent, _ in records:
        if parent != NO_PARENT and records[parent][0] == "cli.rerank":
            inside.setdefault(name, []).append(end - start)
    if inside:
        run.notes.append("inside cli.rerank: " + ", ".join(
            f"{name} {len(v)} calls {sum(v):.4f} s" for name, v in sorted(inside.items())))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END = [
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("throughput_qps", "queries/s"),
    ("precision_at_10", "%"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
]

RUNNERS = {"fused-ids": run_library, "vector-oos": run_library, "cli-mixed": run_cli_mixed}
