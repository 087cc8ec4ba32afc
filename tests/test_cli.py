"""End-to-end pipeline runs through the command-line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_features
from tierank.cli import main
from tierank.config import load_config
from tierank.errors import DegenerateError, TierankError
from tierank.index import load_index, write_features_csv
from tierank.pipeline import Channel, rerank_query
from tierank.ranking import read_rankings_tsv


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


def test_rerank_literal_mode_scores_are_constant(outlier_dirs, tmp_path):
    out, idx = outlier_dirs
    path = tmp_path / "lit.tsv"
    assert main([
        "rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--tier3-mode", "literal", "--out", str(path),
    ]) == 0
    ranking = read_rankings_tsv(path)[0]
    scores = {score for _, score in ranking.entries}
    assert len(scores) == 1  # query-independent: every candidate scores the same


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
        for variant, extra in (("sum", []), ("product", ["--k-final", "2"])):
            path = tmp_path / f"{label}-{variant}.tsv"
            for queries in (["--query-ids", ",".join(map(str, range(0, 80, 3)))], ["--query-vectors", str(vectors)]):
                assert main([
                    "rerank", "--config", str(cfg), "--index-dir", str(tmp_path / label),
                    *queries, "--mfr-variant", variant, *extra, "--out", str(path),
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


def test_missing_feature_file_reports_channel(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[channel:ghost]\nfeatures = missing.csv\n")
    code = main(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")])
    captured = capsys.readouterr()
    assert code == 3
    assert "ghost" in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rerank"])  # missing required arguments
    assert exc.value.code == 2


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


def test_product_variant_degenerates_at_full_length(tmp_path, capsys):
    out, idx = tmp_path / "scen", tmp_path / "idx"
    assert main(["synth", "--scenario", "two-manifold", "--seed", "0", "--out-dir", str(out)]) == 0
    assert main(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)]) == 0
    config = load_config(out / "pipeline.cfg")
    channels = [
        Channel(name=c.name, index=load_index(idx / f"{c.name}.index"), k1=c.k1, k2=c.k2)
        for c in config.channels
    ]
    k = channels[0].k1
    with pytest.raises(DegenerateError):
        rerank_query(channels, 0, k_final=k, variant="product")
    capsys.readouterr()
    code = main([
        "fuse", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx),
        "--query-ids", "0", "--k-final", str(k), "--mfr-variant", "product",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error\tDegenerateError\tall candidate products are zero")
