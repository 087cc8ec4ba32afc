"""Golden outputs: `tierank index` then `tierank rerank` against committed files.

The feature files come from integer arithmetic alone (no random stream), so
the inputs are the same on every machine and numpy version. The grids are
small and tie-heavy, so the tie-break rules decide many positions. One config
has a single channel with k2 < k1; the other has three channels with alphas
0.3, 1.7 and 2.5 whose sections are not in name order, run at the default
k_final and at --k-final 2. Queries are stored ids from --queries-file plus
out-of-sample vectors from --query-vectors.

The index files `tierank index` writes are checked against the SHA-256
digests in ``golden/index.sha256``, so the on-disk format stays byte for
byte what it was whatever the in-memory representation of an index. They
pin index file v4: every channel's file holds its features section, and the
three-channel config's files their tier-3 sections too.

An intended change of rankings or index files regenerates the golden files
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from tierank.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "index.sha256"

_N = 48
# (name, metric, k1, k2, alpha, salt), in the file order of their sections
_SINGLE = [("solo", "l2", 9, 4, 1.0, 0)]
_MULTI = [
    ("zeta", "l1", 7, 5, 0.3, 1),
    ("alpha", "cosine", 6, 6, 1.7, 2),
    ("mid", "l2", 5, 7, 2.5, 3),
]
_QUERY_IDS = [1, 4, 22, 37, 64, 91, 100, 118, 139, 142]
_QUERY_VECTORS = ["2 3 1", "1 1 1", "4 2 5"]
_RUNS = {
    "single.tsv": ("single.cfg", []),
    "multi.tsv": ("multi.cfg", []),
    "multi_k2.tsv": ("multi.cfg", ["--k-final", "2"]),
}


def _feature_csv(salt: int) -> str:
    # ids 1, 4, 7, ...; the vectors are distinct points of a small grid that
    # starts at 1, so no vector is zero (cosine) and many distances tie
    lines = []
    for i in range(_N):
        coords = [1 + (i * 5 + salt) % 7, 1 + ((i + 2 * salt) // 3) % 6, 1 + (i * i + salt) % 4]
        lines.append(",".join(str(v) for v in [3 * i + 1, *coords]))
    return "\n".join(lines) + "\n"


def _config(channels) -> str:
    sections = []
    for name, metric, k1, k2, alpha, _ in channels:
        sections.append(
            f"[channel:{name}]\nfeatures = {name}.csv\nmetric = {metric}\n"
            f"k1 = {k1}\nk2 = {k2}\nalpha = {alpha}\n"
        )
    return "\n".join(sections)


def golden_outputs(work: Path) -> dict[str, bytes]:
    """Write the inputs under ``work``, run the CLI, return each TSV's bytes.

    The index files the runs read are left under ``work / "idx"``.
    """
    for channels, cfg in ((_SINGLE, "single.cfg"), (_MULTI, "multi.cfg")):
        for name, *_, salt in channels:
            (work / f"{name}.csv").write_text(_feature_csv(salt))
        (work / cfg).write_text(_config(channels))
        assert main(["index", "--config", str(work / cfg), "--out-dir", str(work / "idx")]) == 0
    (work / "queries.txt").write_text("\n".join(map(str, _QUERY_IDS)) + "\n")
    (work / "queries.vec").write_text("\n".join(_QUERY_VECTORS) + "\n")
    outputs = {}
    for out, (cfg, extra) in _RUNS.items():
        assert main([
            "rerank", "--config", str(work / cfg), "--index-dir", str(work / "idx"),
            "--queries-file", str(work / "queries.txt"),
            "--query-vectors", str(work / "queries.vec"),
            *extra, "--out", str(work / out),
        ]) == 0
        outputs[out] = (work / out).read_bytes()
    return outputs


def index_digests(work: Path) -> str:
    """``sha256sum``-style lines for every index file under ``work / "idx"``."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted((work / "idx").glob("*.index"))
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def outputs(work):
    return golden_outputs(work)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_cli_rankings_match_golden_files(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


def test_index_files_match_golden_digests(outputs, work):
    assert index_digests(work) == DIGESTS.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for name, data in golden_outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
        DIGESTS.write_text(index_digests(Path(tmp)))
        print(f"wrote {DIGESTS}", file=sys.stderr)
