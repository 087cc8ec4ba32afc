"""End-to-end pipeline runs through the command-line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tierank
import tierank.cli
from conftest import random_features
from tierank.cli import main
from tierank.config import load_config
from tierank.errors import TierankError
from tierank.index import Metric, load_features, load_index, write_features_binary, write_features_csv
from tierank.ranking import read_rankings_tsv, write_rankings_tsv
from tierank.rerank import tiered_rerank


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def outlier_dirs(tmp_path):
    out = tmp_path / "scen"
    idx = tmp_path / "idx"
    assert main(["synth", "--scenario", "outlier", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    return out, idx


def test_synth_outputs_complete(outlier_dirs):
    out, idx = outlier_dirs
    assert (out / "plane.csv").exists()
    assert (out / "truth.csv").exists()
    assert (out / "pipeline.cfg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "outlier"
    load_index(idx / "plane.index")


def test_index_rerun_is_byte_identical(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    before = _sha(idx / "plane.index")
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    assert _sha(idx / "plane.index") == before


def test_rerank_pipeline_demotes_planted_outlier(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    manifest = json.loads((out / "manifest.json").read_text())
    outlier = manifest["point_ids"]["O"]
    rank_path = tmp_path / "ranked.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--out", str(rank_path),
    ]) == 0
    ranking = read_rankings_tsv(rank_path)[0]
    assert outlier not in ranking.ids()[:3]


def test_rerank_rerun_is_byte_identical(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    for path in (a, b):
        assert main([
            "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
            "--query-ids", "0,1,2", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rerank_batch_order(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    path = tmp_path / "batch.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0,5,2,9,1", "--out", str(path),
    ]) == 0
    queries = [r.query for r in read_rankings_tsv(path)]
    assert queries == [0, 5, 2, 9, 1]


def test_channel_section_order_leaves_rankings_unchanged(tmp_path):
    # fusion and the pairwise matrix both sum channels in name order; with
    # three channels at these alphas a different addition order changes
    # the float sums, so the file order of the sections must not reach them
    rng = np.random.default_rng(21)
    sections = []
    for name, alpha in (("zeta", 0.3), ("alpha", 1.7), ("mid", 2.5)):
        write_features_csv(random_features(rng, 80, dim=3, channel=name), tmp_path / f"{name}.csv")
        sections.append(f"[channel:{name}]\nfeatures = {name}.csv\nk1 = 12\nk2 = 7\nalpha = {alpha}\n")
    vectors = tmp_path / "queries.vec"
    vectors.write_text("\n".join(" ".join(map(str, v)) for v in rng.normal(size=(5, 3))) + "\n")
    outputs = {}
    for label, order in (("given", sections), ("reversed", sections[::-1])):
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text("\n".join(order))
        assert main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / label)]) == 0
        path = tmp_path / f"{label}.tsv"
        for queries in (["--query-ids", ",".join(map(str, range(0, 80, 3)))], ["--query-vectors", str(vectors)]):
            assert main([
                "rerank", "--config", str(cfg), "--index-dir", str(tmp_path / label),
                *queries, "--out", str(path),
            ]) == 0
            outputs.setdefault(label, []).append(path.read_bytes())
    assert outputs["given"] == outputs["reversed"]


def test_rerank_vector_query_out_of_sample(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    first_row = (out / "plane.csv").read_text().splitlines()[0].split(",")
    item, vector = int(first_row[0]), first_row[1:]
    vec_file = tmp_path / "queries.vec"
    vec_file.write_text(" ".join(vector) + "\n")
    path = tmp_path / "vec.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-vectors", str(vec_file), "--out", str(path),
    ]) == 0
    ranking = read_rankings_tsv(path)[0]
    assert ranking.query not in {int(r.split(",")[0]) for r in (out / "plane.csv").read_text().splitlines()}
    # querying with a stored item's exact vector puts that item right after
    # the virtual query
    assert ranking.ids()[0] == ranking.query
    assert ranking.ids()[1] == item


def test_eval_end_to_end(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    rank_path = tmp_path / "ranked.tsv"
    queries = ",".join(str(i) for i in range(12))
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", queries, "--out", str(rank_path),
    ]) == 0
    code = main([
        "eval", "--rankings", str(rank_path), "--truth", str(out / "truth.csv"),
        "--metrics", "precision,recall", "--r", "3", "--format", "tsv",
    ])
    assert code == 0


def test_eval_prints_a_table_by_default(outlier_dirs, tmp_path, capsys):
    # one line per metric and cutoff, holding the values the tsv format prints
    out, idx = outlier_dirs
    rank_path = tmp_path / "ranked.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", ",".join(str(i) for i in range(12)), "--out", str(rank_path),
    ]) == 0
    argv = ["eval", "--rankings", str(rank_path), "--truth", str(out / "truth.csv"), "--metrics", "precision,recall"]
    capsys.readouterr()
    assert main([*argv, "--r", "3,5", "--format", "tsv"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert main([*argv, "--r", "3,5"]) == 0
    width = max(len(name) for name, *_ in rows)
    assert capsys.readouterr().out.splitlines() == [
        f"{name:<{width}}  @{r:<4} {float(value):10.4f}   ({count} queries)" for name, r, value, count in rows
    ]
    assert len(rows) == 4 and all(count == "12" for *_, count in rows)


def test_eval_ns_wrong_class_sizes_is_data_error(outlier_dirs, tmp_path, capsys):
    out, idx = outlier_dirs
    rank_path = tmp_path / "ranked.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--out", str(rank_path),
    ]) == 0
    code = main([
        "eval", "--rankings", str(rank_path), "--truth", str(out / "truth.csv"),
        "--metrics", "ns",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "ClassSizeError" in captured.err


@pytest.mark.parametrize("cutoffs", ["x", "0", "-1", "4,"])
def test_eval_rejects_bad_cutoffs(outlier_dirs, tmp_path, capsys, cutoffs):
    out, idx = outlier_dirs
    rank_path = tmp_path / "ranked.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--out", str(rank_path),
    ]) == 0
    capsys.readouterr()
    code = main(["eval", "--rankings", str(rank_path), "--truth", str(out / "truth.csv"), "--r", cutoffs])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tFormatError\t") and "--r" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("case, message", [
    ("unknown metric", "unknown metrics ['foo']"),
    ("repeated truth id", ":13: duplicate item id 0"),
    ("skipped rank", ":2: rank column out of order"),
])
def test_malformed_eval_input_is_a_data_error(outlier_dirs, tmp_path, capsys, case, message):
    out, idx = outlier_dirs
    truth, ranked = out / "truth.csv", tmp_path / "ranked.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--out", str(ranked),
    ]) == 0
    if case == "repeated truth id":
        truth.write_text(truth.read_text() + "0,1\n")
    if case == "skipped rank":  # ranks 1, 3, 4, ...
        lines = ranked.read_text().splitlines(keepends=True)
        ranked.write_text(lines[0] + "".join(lines[2:]))
    capsys.readouterr()
    metrics = "foo" if case == "unknown metric" else "precision"
    assert main(["eval", "--rankings", str(ranked), "--truth", str(truth), "--metrics", metrics]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error\tFormatError\t") and message in err and len(err.splitlines()) == 1


def test_missing_feature_file_reports_channel(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[channel:ghost]\nfeatures = missing.csv\n")
    code = main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")])
    captured = capsys.readouterr()
    assert code == 3
    assert "ghost" in captured.err


@pytest.mark.parametrize("target", ["features", "truth"])
def test_malformed_first_row_is_a_data_error(outlier_dirs, tmp_path, capsys, target):
    # a malformed first row of a feature or truth CSV exits 3 instead of
    # being dropped as a header
    out, idx = outlier_dirs
    cfg, truth, ranked = out / "pipeline.cfg", out / "truth.csv", tmp_path / "ranked.tsv"
    assert main(["rerank", "--config", str(cfg), "--index-dir", str(idx), "--query-ids", "0",
                 "--out", str(ranked)]) == 0
    path, argv = {
        "features": (out / "plane.csv", ["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")]),
        "truth": (truth, ["eval", "--rankings", str(ranked), "--truth", str(truth)]),
    }[target]
    path.write_text("x" + path.read_text())
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error\tFormatError\t") and ":1: " in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("target", ["features", "config", "rankings", "truth", "queries", "vectors"])
def test_non_utf8_text_input_is_a_data_error(outlier_dirs, tmp_path, capsys, target):
    # one byte that is no UTF-8 in any of the six text inputs exits 3
    out, idx = outlier_dirs
    cfg, truth, ranked = out / "pipeline.cfg", out / "truth.csv", tmp_path / "ranked.tsv"
    queries, vectors = tmp_path / "queries.txt", tmp_path / "vectors.txt"
    rerank = ["rerank", "--config", str(cfg), "--index-dir", str(idx)]
    assert main([*rerank, "--query-ids", "0", "--out", str(ranked)]) == 0
    queries.write_text("0\n")
    vectors.write_text("0.0 0.0\n")
    index = ["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")]
    evaluate = ["eval", "--rankings", str(ranked), "--truth", str(truth)]
    path, argv = {
        "features": (out / "plane.csv", index),
        "config": (cfg, index),
        "rankings": (ranked, evaluate),
        "truth": (truth, evaluate),
        "queries": (queries, [*rerank, "--queries-file", str(queries)]),
        "vectors": (vectors, [*rerank, "--query-vectors", str(vectors)]),
    }[target]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error\tFormatError\t") and "UTF-8" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_query_vector_line_is_a_data_error(outlier_dirs, tmp_path, capsys, bad):
    out, idx = outlier_dirs
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"0.0 0.0\n\n{bad} 0.0\n")
    capsys.readouterr()
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx), "--query-vectors", str(vectors),
    ]) == 3
    err = capsys.readouterr().err
    assert err == f"error\tFormatError\t{vectors}:3: query vector contains NaN or Inf\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rerank"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["rerank", "fuse"])
@pytest.mark.parametrize("flag", [
    ["--tier3-mode", "literal"], ["--tier3-mode", "query-anchored"],
    ["--mfr-variant", "product"], ["--mfr-variant", "sum"],
])
def test_removed_rerank_flags_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--config", str(tmp_path / "pipeline.cfg"), "--index-dir", str(tmp_path),
            "--query-ids", "0", *flag,
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["tier3_mode = literal", "variant = product", "variant = Sum"])
def test_removed_rerank_config_values_are_data_errors(outlier_dirs, capsys, line):
    out, idx = outlier_dirs
    cfg = out / "pipeline.cfg"
    cfg.write_text(cfg.read_text().replace("[rerank]\n", f"[rerank]\n{line}\n"))
    capsys.readouterr()
    for argv in (["index", "--out-dir", str(idx)], ["rerank", "--index-dir", str(idx), "--query-ids", "0"]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error\tFormatError\t")
        assert line.split(" = ")[0] in err and "removed" in err


@pytest.mark.parametrize("line", ["features = % plane.csv", "alpha = %(missing)s"])
def test_a_bad_percent_in_a_config_value_is_a_data_error(outlier_dirs, capsys, line):
    # configparser interpolates '%' only when a value is read, which used to
    # end in a traceback
    out, idx = outlier_dirs
    cfg = out / "pipeline.cfg"
    cfg.write_text(cfg.read_text().replace("[channel:plane]\n", f"[channel:plane]\n{line}\n", 1).replace(
        "features = plane.csv\n", "" if line.startswith("features") else "features = plane.csv\n"))
    capsys.readouterr()
    assert main(["rerank", "--config", str(cfg), "--index-dir", str(idx), "--query-ids", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error\tFormatError\tbad config ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("section, line, named", [
    ("[channel:plane]", "metrc = cosine", "metrc"),
    ("[rerank]", "kfinal = 3", "kfinal"),
    ("[run]", "sed = 1", "sed"),
    ("[rerank]", "[rerank2]\nk_final = 3", "[rerank2]"),
])
def test_unknown_config_keys_are_data_errors(outlier_dirs, capsys, section, line, named):
    # a misspelt key used to load silently: `metrc = cosine` built an L1 index
    out, idx = outlier_dirs
    cfg = out / "pipeline.cfg"
    text = cfg.read_text()
    assert section in text
    cfg.write_text(text.replace(f"{section}\n", f"{section}\n{line}\n"))
    capsys.readouterr()
    for argv in (["index", "--out-dir", str(idx)], ["rerank", "--index-dir", str(idx), "--query-ids", "0"]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error\tFormatError\t")
        assert named in err and (named.startswith("[") or section in err)


@pytest.mark.parametrize("old, new, message", [
    ("[channel:plane]", "[channel: ]", "empty channel name in [channel: ]"),
    ("features = plane.csv\n", "", "[channel:plane] is missing `features`"),
    ("metric = l1", "metric = l3", "[channel:plane] has unknown metric 'l3'"),
])
def test_a_malformed_channel_section_is_a_data_error(outlier_dirs, capsys, old, new, message):
    out, idx = outlier_dirs
    cfg = out / "pipeline.cfg"
    text = cfg.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    for argv in (["index", "--out-dir", str(idx)], ["rerank", "--index-dir", str(idx), "--query-ids", "0"]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error\tFormatError\t") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("scenario", ["two-manifold", "outlier"])
def test_older_synth_config_keys_still_load(tmp_path, scenario):
    # earlier `synth` runs wrote the two retired keys with their one kept value
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", scenario, "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    text = (out / "pipeline.cfg").read_text()
    assert "tier3_mode" not in text and "variant" not in text
    older = out / "older.cfg"
    older.write_text(text.replace("[rerank]\n", "[rerank]\ntier3_mode = query-anchored\nvariant = sum\n"))
    tsv = {}
    for cfg in (out / "pipeline.cfg", older):
        tsv[cfg] = tmp_path / f"{cfg.stem}.tsv"
        assert main([
            "rerank", "--config", str(cfg), "--index-dir", str(idx),
            "--query-ids", "0,1,2,3", "--out", str(tsv[cfg]),
        ]) == 0
    assert tsv[older].read_bytes() == tsv[out / "pipeline.cfg"].read_bytes()


def test_readme_config_example_loads_and_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration file\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(block)
    config = load_config(cfg)
    assert [(ch.name, ch.fmt, ch.metric, ch.k1, ch.k2, ch.alpha) for ch in config.channels] == [
        ("color", "csv", Metric.L1, 5, 5, 1.0)
    ]
    assert (config.k_final, config.seed) == (10, 0)
    rng = np.random.default_rng(5)
    for ch in config.channels:
        write_features_csv(random_features(rng, 30, dim=3, channel=ch.name), ch.feature_path)
    assert main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")]) == 0
    assert main([
        "rerank", "--config", str(cfg), "--index-dir", str(tmp_path / "idx"),
        "--query-ids", "0", "--out", str(tmp_path / "ranked.tsv"),
    ]) == 0


def test_fuse_alias_two_channels(tmp_path):
    out = tmp_path / "scen"
    idx = tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    path = tmp_path / "fused.tsv"
    assert main([
        "fuse", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--k-final", "4", "--out", str(path),
    ]) == 0
    ranking = read_rankings_tsv(path)[0]
    manifest = json.loads((out / "manifest.json").read_text())
    b, c, d = (manifest["point_ids"][n] for n in ("B", "C", "D"))
    ids = ranking.ids()
    assert ids.index(c) < ids.index(b) and ids.index(d) < ids.index(b)
    assert ranking.tier == "mfr"


def test_rerank_bad_query_ids_exits_3(outlier_dirs, capsys):
    out, idx = outlier_dirs
    capsys.readouterr()
    code = main(["rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx), "--query-ids", "1,x"])
    assert code == 3
    assert capsys.readouterr().err == "error\tFormatError\tbad --query-ids value '1,x'\n"


def test_rerank_with_a_k_above_the_stored_index_exits_3(tmp_path, capsys):
    # the index was built at k = 4; a config raised to k1 = 6 afterwards
    # asks for more neighbors than are stored
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    cfg = out / "pipeline.cfg"
    cfg.write_text(cfg.read_text().replace("k1 = 4\n", "k1 = 6\n", 1))
    capsys.readouterr()
    assert main(["rerank", "--config", str(cfg), "--index-dir", str(idx), "--query-ids", "0"]) == 3
    assert capsys.readouterr().err == (
        "error\tFormatError\tchannel 'boundary': k1/k2 exceed the stored index k=4; re-run index\n"
    )


@pytest.mark.parametrize("k_final", ["0", "-1"])
def test_rerank_rejects_k_final_flag_below_one(tmp_path, capsys, k_final):
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    capsys.readouterr()
    code = main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--k-final", k_final,
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tFormatError\t") and "k_final" in err


def test_rerank_unknown_id_mid_queries_file_exits_3(tmp_path, capsys):
    # fused ids go through batch_rerank in blocks; an unknown id in the
    # second block still ends the run with the per-query path's error line
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"{q}\n" for q in [*range(9), 12345, *range(9)]))
    capsys.readouterr()
    code = main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--queries-file", str(queries), "--out", str(tmp_path / "ranked.tsv"),
    ])
    assert code == 3
    assert capsys.readouterr().err == "error\tUnknownItemError\titem 12345 not in index for channel 'boundary'\n"


def test_rerank_id_beyond_int64_in_queries_file_exits_3(tmp_path, capsys):
    # in a fused batch or alone, an id no int64 holds is an unknown item
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    huge = "99999999999999999999999"
    for lines in (["1", huge], [huge]):
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(f"{line}\n" for line in lines))
        capsys.readouterr()
        code = main([
            "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
            "--queries-file", str(queries), "--out", str(tmp_path / "ranked.tsv"),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error\tUnknownItemError\titem {huge} not in index for channel 'boundary'\n"


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0.0", "NaN", "infinity"])
@pytest.mark.parametrize("scenario", ["two-manifold", "outlier"])
def test_rerank_rejects_an_alpha_that_is_not_positive_and_finite(tmp_path, capsys, scenario, alpha):
    out = tmp_path / "scen"
    assert main(["synth", "--scenario", scenario, "--out-dir", str(out)]) == 0
    cfg = out / "pipeline.cfg"
    assert main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")]) == 0
    cfg.write_text(cfg.read_text().replace("alpha = 1.0", f"alpha = {alpha}", 1))
    capsys.readouterr()
    code = main(["rerank", "--config", str(cfg), "--index-dir", str(tmp_path / "idx"), "--query-ids", "0,1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    name = re.search(r"\[channel:(.*)\]", cfg.read_text()).group(1)
    assert captured.err == (
        f"error\tFormatError\tchannel {name!r}: alpha must be positive and finite, got {float(alpha)!r}\n"
    )


@pytest.mark.parametrize("scenario", ["two-manifold", "outlier"])
def test_rerank_rejects_k_final_key_below_one(tmp_path, capsys, scenario):
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", scenario, "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    cfg = out / "pipeline.cfg"
    text = cfg.read_text()
    assert "k_final" not in text
    cfg.write_text(text.replace("[rerank]\n", "[rerank]\nk_final = 0\n"))
    capsys.readouterr()
    code = main(["rerank", "--config", str(cfg), "--index-dir", str(idx), "--query-ids", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tFormatError\t") and "k_final" in err


def test_bench_smoke(capsys):
    code = main([
        "bench", "--n", "300", "--k", "5", "--m", "2", "--queries", "100",
        "--reps", "1", "--dim", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    assert lines[0].startswith("label\t")
    assert len(lines) == 2
    assert lines[0].split("\t")[4:] == ["mean_ms", "median_ms", "samples", "p90_ms", "p99_ms", "warmup_ms"]
    assert len(lines[1].split("\t")) == 10 and float(lines[1].split("\t")[-1]) > 0
    # the machine goes to stderr, so stdout holds the table alone
    assert re.fullmatch(r"machine: usable_cores=\d+ python=\S+ numpy=\S+ scipy=\S+\n", captured.err)


@pytest.mark.parametrize("argv", [
    ["--n", "abc"],
    ["--k", "abc"],
    ["--n", "0"],
    ["--n", "50", "--queries", "10"],
    ["--n", "50", "--queries", "100"],
    ["--seed", "-1"],
    ["--dim", "-1"],
    ["--dim", "0"],
])
def test_bench_rejects_malformed_options(capsys, argv):
    code = main(["bench", "--m", "1", *argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tFormatError\t") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", "back\\slash", ".", "..", "nul\x00byte"])
def test_a_channel_name_that_is_no_file_name_is_a_data_error(tmp_path, capsys, name):
    # the name is the stem of the index file: `../escaped` would write
    # escaped.index beside --out-dir instead of inside it
    features = tmp_path / "plane.csv"
    write_features_csv(random_features(np.random.default_rng(0), 12, dim=2), features)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"[channel:{name}]\nfeatures = {features}\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "work" / "idx")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error\tFormatError\t") and "is not a file name" in err and len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_synth_rejects_a_negative_seed_before_writing(capsys, tmp_path):
    out = tmp_path / "scen"
    code = main(["synth", "--scenario", "outlier", "--seed", "-1", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tFormatError\t") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(("line", "k1", "k2"), [("k1 = 10", 10, 5), ("k2 = 10", 5, 10)])
def test_an_unset_k_is_the_collection_size_default(tmp_path, line, k1, k2):
    # index and rerank read an unset k alike: 5 below 20k items, whatever the
    # other k or the stored index's k (rerank used to read the index's k)
    fm = random_features(np.random.default_rng(14), 300, dim=3, channel="solo")
    write_features_csv(fm, tmp_path / "solo.csv")
    cfg, idx, out = tmp_path / "solo.cfg", tmp_path / "idx", tmp_path / "ranked.tsv"
    cfg.write_text(f"[channel:solo]\nfeatures = solo.csv\n{line}\n")
    assert main(["index", "--config", str(cfg), "--out-dir", str(idx)]) == 0
    index = load_index(idx / "solo.index")
    assert index.k == 10
    queries = list(range(0, 300, 10))
    assert main(["rerank", "--config", str(cfg), "--index-dir", str(idx),
                 "--query-ids", ",".join(map(str, queries)), "--out", str(out)]) == 0
    want = [row for q in queries for row in tiered_rerank(index, q, k1=k1, k2=k2).tsv_lines()]
    assert out.read_text().splitlines() == want


def test_python_dash_m_runs_the_cli():
    src = Path(tierank.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "tierank", "--help"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: tierank") and "rerank" in done.stdout


@pytest.fixture(scope="module")
def corruptible_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("corrupt")
    out, idx = base / "scen", base / "idx"
    assert main(["synth", "--scenario", "outlier", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    return out, idx, (idx / "plane.index").read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rerank_on_corrupted_index_exits_3(corruptible_dirs, data):
    out, idx, good = corruptible_dirs
    raw = bytearray(good)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(
            st.integers(0, 7), label="bit"
        )
    (idx / "plane.index").write_bytes(bytes(raw))
    try:
        load_index(idx / "plane.index")
        rejected = False
    except TierankError:
        rejected = True
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
            "--query-ids", "0",
        ])
    if rejected:
        assert code == 3 and err.getvalue().startswith("error\t")
    else:
        # a flip that leaves a valid index (say, in a distance's low bits)
        # may still rank, or name an unknown query id
        assert code in (0, 3)



# --- vector queries in blocks ------------------------------------------------------


@pytest.mark.parametrize("names", ["a", "ab"])
def test_rerank_query_vectors_output_is_the_loops_byte_for_byte(tmp_path, names):
    # 70 vectors, so several blocks: repeats, stored rows and fresh points,
    # after the ids; the TSV file and stdout are the per-query loop's bytes
    rng = np.random.default_rng(31)
    stored = {}
    for name in names:
        stored[name] = random_features(rng, 60, dim=3, channel=name)
        write_features_csv(stored[name], tmp_path / f"{name}.csv")
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"[channel:{n}]\nfeatures = {n}.csv\nk1 = 9\nk2 = 6\n" for n in names))
    pool = np.vstack((stored["a"].vectors[:4], rng.normal(size=(6, 3))))
    vectors = pool[rng.integers(0, len(pool), size=70)]
    (tmp_path / "q.vec").write_text("".join(" ".join(map(repr, v)) + "\n" for v in vectors.tolist()))
    _index(cfg, tmp_path / "idx")
    rerank = ["rerank", "--config", str(cfg), "--query-ids", "0,7,7,59", "--query-vectors", str(tmp_path / "q.vec")]
    assert main([*rerank, "--index-dir", str(tmp_path / "idx"), "--out", str(tmp_path / "got.tsv")]) == 0
    channels = tierank.cli._assemble_channels(load_config(cfg), tmp_path / "idx", True)
    want = tierank.batch_rerank(channels, [0, 7, 7, 59])
    want += [tierank.rerank_vector_query(channels, v, vid=60 + j) for j, v in enumerate(vectors)]
    write_rankings_tsv(want, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
    code, printed, err = _ranked(rerank, tmp_path / "idx")
    assert code == 0 and err == "" and printed == (tmp_path / "want.tsv").read_text()


@pytest.mark.parametrize(("text", "line", "dim"), [
    ("0.1 0.2 0.3\n0.1 0.2\n0.1 0.2 0.3 0.4\n", 2, 2),  # ragged
    ("\n0.1 0.2 0.3 0.4\n0.1 0.2 0.3 0.4\n", 2, 4),  # every line of another dim
    ("0.1 0.2 0.3\n0.1,0.2,0.3,0.4\n", 2, 4),
])
def test_query_vectors_of_another_length_name_their_line(tmp_path, capsys, text, line, dim):
    # vectors of different lengths never meet in one matrix: the first line
    # whose length is not the channels' dim is a DimensionError (exit 3)
    rng = np.random.default_rng(32)
    for name in "ab":
        write_features_csv(random_features(rng, 30, dim=3, channel=name), tmp_path / f"{name}.csv")
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"[channel:{n}]\nfeatures = {n}.csv\nk1 = 5\n" for n in "ab"))
    _index(cfg, tmp_path / "idx")
    vectors = tmp_path / "q.vec"
    vectors.write_text(text)
    capsys.readouterr()
    argv = ["rerank", "--config", str(cfg), "--index-dir", str(tmp_path / "idx"), "--query-vectors", str(vectors)]
    assert main([*argv, "--out", str(tmp_path / "out.tsv")]) == 3
    assert capsys.readouterr().err == f"error\tDimensionError\t{vectors}:{line}: query dim {dim} != channel 'a' dim 3\n"
    assert not (tmp_path / "out.tsv").exists()


# --- the tier-3 table files `tierank index` writes ------------------------------


def _fused_inputs(base):
    """Two random channels of 60 items at k1 = 9, k2 = 6, and the argv of a rerank of 30 ids and 5 vectors."""
    rng = np.random.default_rng(13)
    for name in ("a", "b"):
        write_features_csv(random_features(rng, 60, dim=3, channel=name), base / f"{name}.csv")
    (base / "fused.cfg").write_text("".join(f"[channel:{n}]\nfeatures = {n}.csv\nk1 = 9\nk2 = 6\n" for n in "ab"))
    (base / "queries.vec").write_text("\n".join(" ".join(map(repr, v)) for v in rng.normal(size=(5, 3)).tolist()))
    return ["rerank", "--config", str(base / "fused.cfg"), "--query-ids", ",".join(map(str, range(0, 60, 2))),
            "--query-vectors", str(base / "queries.vec")]


def _index(cfg, idx):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--config", str(cfg), "--out-dir", str(idx)]) == 0


def _ranked(rerank, idx):
    """(exit code, stdout, stderr) of the rerank on the index directory ``idx``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*rerank, "--index-dir", str(idx)])
    return code, out.getvalue(), err.getvalue()


def test_index_writes_one_table_file_per_fused_channel_byte_identically(outlier_dirs, tmp_path):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "fused"
    _index(tmp_path / "fused.cfg", idx)
    names = ["a.9-6.tier3", "a.features", "a.index", "b.9-6.tier3", "b.features", "b.index"]
    assert sorted(p.name for p in idx.iterdir()) == names
    first = {name: (idx / name).read_bytes() for name in names}
    _index(tmp_path / "fused.cfg", idx)
    assert {name: (idx / name).read_bytes() for name in names} == first
    assert _ranked(rerank, idx)[0] == 0
    # a single channel ranks by its own counts: it neither writes nor needs a table
    assert sorted(p.name for p in outlier_dirs[1].iterdir()) == ["plane.features", "plane.index"]


def test_rerank_output_is_the_same_with_the_table_file_present_missing_or_stale(tmp_path):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    tables = {name: (idx / f"{name}.9-6.tier3").read_bytes() for name in "ab"}
    code, present, err = _ranked(rerank, idx)
    assert code == 0 and err == "" and present
    for name in "ab":
        (idx / f"{name}.9-6.tier3").unlink()
    assert _ranked(rerank, idx) == (0, present, "")

    # stale: the index rebuilt at another k, its old tables left beside it
    wide = tmp_path / "wide"
    (tmp_path / "wide.cfg").write_text((tmp_path / "fused.cfg").read_text().replace("k1 = 9", "k1 = 12"))
    _index(tmp_path / "wide.cfg", wide)
    missing = _ranked(rerank, wide)
    for name, data in tables.items():
        (wide / f"{name}.9-6.tier3").write_bytes(data)
    assert _ranked(rerank, wide) == missing

    # stale: the features edited and re-indexed at the same k, the old
    # tables put back; their header matches in all but the index digest
    csv = tmp_path / "a.csv"
    rows = csv.read_text().splitlines()
    csv.write_text("\n".join(rows[:1] + [row.split(",")[0] + ",0.0,0.0,0.0" for row in rows[1:12]] + rows[12:]))
    _index(tmp_path / "fused.cfg", idx)
    fresh = (idx / "a.9-6.tier3").read_bytes()
    assert fresh[:32] == tables["a"][:32] and fresh[96:] != tables["a"][96:]
    code, edited, _ = _ranked(rerank, idx)
    assert code == 0 and edited != present
    (idx / "a.9-6.tier3").write_bytes(tables["a"])
    assert _ranked(rerank, idx) == (0, edited, "")


def test_index_removes_the_tables_of_another_k(tmp_path):
    # indexing at k1 = 9 and then at k1 = 12 into one directory leaves one
    # table per channel, the current one; a single-channel config then
    # removes its channel's table, and no other channel's file is touched
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    (idx / "a.b.9-6.tier3").write_bytes(b"another channel's")  # channel "a.b", not "a"
    (tmp_path / "wide.cfg").write_text((tmp_path / "fused.cfg").read_text().replace("k1 = 9", "k1 = 12"))
    _index(tmp_path / "wide.cfg", idx)
    assert sorted(p.name for p in idx.iterdir()) == ["a.12-6.tier3", "a.b.9-6.tier3", "a.features", "a.index",
                                                     "b.12-6.tier3", "b.features", "b.index"]
    code, ranked, _ = _ranked([*rerank[:2], str(tmp_path / "wide.cfg"), *rerank[3:]], idx)
    assert code == 0 and ranked
    (tmp_path / "single.cfg").write_text("[channel:a]\nfeatures = a.csv\nk1 = 12\nk2 = 6\n")
    _index(tmp_path / "single.cfg", idx)
    assert sorted(p.name for p in idx.iterdir()) == ["a.b.9-6.tier3", "a.features", "a.index", "b.12-6.tier3",
                                                     "b.features", "b.index"]


@pytest.mark.parametrize("case", ["truncated", "a flipped count", "a count above min(k1, k2)"])
def test_rerank_on_a_malformed_table_file_exits_3(tmp_path, case):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    path = idx / "b.9-6.tier3"
    good = path.read_bytes()
    body = bytearray(good[96:])
    body[5] ^= 1
    if case == "a count above min(k1, k2)":
        body[5] = 7
    path.write_bytes({
        "truncated": good[:-3],
        "a flipped count": good[:96] + bytes(body),
        "a count above min(k1, k2)": good[:64] + hashlib.sha256(bytes(body)).digest() + bytes(body),
    }[case])
    code, out, err = _ranked(rerank, idx)
    assert code == 3 and out == ""
    assert err.startswith(f"error\tFormatError\t{path}: ") and len(err.splitlines()) == 1


@pytest.fixture(scope="module")
def fused_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("tier3")
    rerank = _fused_inputs(base)
    _index(base / "fused.cfg", base / "idx")
    return base / "idx", rerank, (base / "idx" / "a.9-6.tier3").read_bytes(), _ranked(rerank, base / "idx")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rerank_on_a_corrupted_table_file_ranks_the_same_or_exits_3(fused_dirs, data):
    # a flip in the header's version, k1, k2 or index digest makes the file
    # stale; any other flip or cut is refused
    idx, rerank, good, want = fused_dirs
    raw = bytearray(good)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    (idx / "a.9-6.tier3").write_bytes(bytes(raw))
    try:
        code, out, err = _ranked(rerank, idx)
    finally:
        (idx / "a.9-6.tier3").write_bytes(good)
    if code == 0:
        assert (code, out, err) == want
    else:
        assert code == 3 and out == "" and err.startswith("error\tFormatError\t") and len(err.splitlines()) == 1


# --- the parsed features files `tierank index` writes ----------------------------


@pytest.fixture()
def parses(monkeypatch):
    """The feature files the CLI parses, by path, in call order."""
    calls = []

    def spy(path, *args, **kwargs):
        calls.append(Path(path).name)
        return load_features(path, *args, **kwargs)

    monkeypatch.setattr(tierank.cli, "load_features", spy)
    return calls


def test_rerank_reads_the_parsed_features_bit_for_bit(tmp_path, parses):
    # the largest double, the smallest subnormal, -0.0 and the largest id
    rows = [[9223372036854775807, 1.7976931348623157e308, 0.0], [0, -0.0, 5e-324]]
    rows += [[i, *v] for i, v in enumerate(np.random.default_rng(2).normal(size=(20, 2)).tolist(), start=1)]
    (tmp_path / "a.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    (tmp_path / "a.cfg").write_text("[channel:a]\nfeatures = a.csv\nk1 = 5\nk2 = 4\n")
    _index(tmp_path / "a.cfg", tmp_path / "idx")
    assert parses == ["a.csv"]
    [channel] = tierank.cli._assemble_channels(load_config(tmp_path / "a.cfg"), tmp_path / "idx", True)
    assert parses == ["a.csv"]  # read from a.features, not parsed again
    parsed = load_features(tmp_path / "a.csv", channel_name="a")
    assert channel.features.ids.tobytes() == parsed.ids.tobytes()
    assert channel.features.vectors.dtype == parsed.vectors.dtype
    assert channel.features.vectors.tobytes() == parsed.vectors.tobytes()


def test_rerank_output_is_the_same_with_the_features_file_present_missing_or_stale(tmp_path, parses):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    parses.clear()
    code, present, err = _ranked(rerank, idx)
    assert code == 0 and err == "" and present and parses == []
    good = (idx / "a.features").read_bytes()
    (idx / "a.features").unlink()
    assert _ranked(rerank, idx) == (0, present, "") and parses == ["a.csv"]
    (idx / "a.features").write_bytes(good[:8] + struct.pack("<Q", 2) + good[16:])  # another version
    assert _ranked(rerank, idx) == (0, present, "") and parses == ["a.csv"] * 2

    # stale: the CSV edited to the same length, ids 10 and 20 swapped, and
    # not re-indexed; the file's features would now be wrong
    (idx / "a.features").write_bytes(good)
    csv = tmp_path / "a.csv"
    text = csv.read_text()
    edited = re.sub(r"^(10|20),", lambda m: {"10": "20,", "20": "10,"}[m.group(1)], text, flags=re.M)
    assert len(edited) == len(text) and edited != text
    csv.write_text(edited)
    parses.clear()
    stale = _ranked(rerank, idx)
    (idx / "a.features").unlink()
    assert _ranked(rerank, idx) == stale and parses == ["a.csv"] * 2
    assert stale[0] == 0 and stale[1] != present


@pytest.mark.parametrize("case", ["another magic", "truncated", "a flipped body byte"])
def test_rerank_on_a_malformed_features_file_exits_3(tmp_path, case):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    path = idx / "b.features"
    good = path.read_bytes()
    path.write_bytes({
        "another magic": b"TKFEAT\x00\x01" + good[8:],
        "truncated": good[:-3],
        "a flipped body byte": good[:200] + bytes([good[200] ^ 4]) + good[201:],
    }[case])
    code, out, err = _ranked(rerank, idx)
    assert code == 3 and out == ""
    assert err.startswith(f"error\tFormatError\t{path}: ") and len(err.splitlines()) == 1


def test_a_missing_or_malformed_csv_keeps_its_error_beside_its_features_file(tmp_path, capsys):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    csv = tmp_path / "a.csv"
    text = csv.read_text()
    csv.write_text(text.replace("\n", "\n1,2,x\n", 1))
    code, _, err = _ranked(rerank, idx)
    assert (code, err) == (3, f"error\tFormatError\t{csv}:2: malformed row\n")
    csv.unlink()
    code, _, err = _ranked(rerank, idx)
    with pytest.raises(OSError) as exc:
        csv.read_text()
    assert (code, err) == (3, f"error\tFileAccessError\tchannel 'a': cannot read {csv}: {exc.value}\n")


def test_index_removes_the_features_file_of_a_binary_channel(tmp_path):
    rerank = _fused_inputs(tmp_path)
    idx = tmp_path / "idx"
    _index(tmp_path / "fused.cfg", idx)
    code, want, _ = _ranked(rerank, idx)
    write_features_binary(load_features(tmp_path / "a.csv", channel_name="a"), tmp_path / "a.bin")
    cfg = (tmp_path / "fused.cfg").read_text().replace("features = a.csv", "features = a.bin\nformat = binary")
    (tmp_path / "fused.cfg").write_text(cfg)
    _index(tmp_path / "fused.cfg", idx)
    assert sorted(p.name for p in idx.iterdir()) == ["a.9-6.tier3", "a.index", "b.9-6.tier3", "b.features",
                                                     "b.index"]
    assert code == 0 and _ranked(rerank, idx)[0] == 0


@pytest.fixture(scope="module")
def parsed_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("parsed")
    rerank = _fused_inputs(base)
    _index(base / "fused.cfg", base / "idx")
    return base / "idx", rerank, (base / "idx" / "a.features").read_bytes(), _ranked(rerank, base / "idx")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rerank_on_a_corrupted_features_file_ranks_the_same_or_exits_3(parsed_dirs, data):
    # a flip in the header's version or CSV digest makes the file stale, and
    # the CSV is parsed; any other flip or cut is refused
    idx, rerank, good, want = parsed_dirs
    raw = bytearray(good)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    (idx / "a.features").write_bytes(bytes(raw))
    try:
        code, out, err = _ranked(rerank, idx)
    finally:
        (idx / "a.features").write_bytes(good)
    if code == 0:
        assert (code, out, err) == want
    else:
        assert code == 3 and out == "" and err.startswith("error\tFormatError\t") and len(err.splitlines()) == 1
