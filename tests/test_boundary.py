"""The file boundary: every read, write and directory the package makes goes through errors.py.

A file that cannot be read or written is a FileAccessError, and malformed
bytes in any input are a TierankError: the loaders raise nothing else, and
the command line exits 3 with one ``error\t`` line instead of a traceback.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierank.cli import main
from tierank.config import ChannelConfig, PipelineConfig, load_config, write_config
from tierank.errors import FileAccessError, TierankError, read_bytes
from tierank.evaluation import GroundTruth, load_ground_truth, write_ground_truth
from tierank.index import (
    FeatureMatrix,
    build_index,
    load_features,
    save_index,
    write_features_binary,
    write_features_csv,
)
from tierank.ranking import RankedList, read_rankings_tsv, write_rankings_tsv

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tierank"
# opening a file, reading or writing one whole, or making a directory; a
# call through the errors module itself is the boundary, not a way round it
_FILE_ACCESS = re.compile(
    r"open\(|fromfile\(|tofile\(|makedirs\(|(?<!errors)\.(read_text|write_text|read_bytes|write_bytes|mkdir)\("
)


@pytest.mark.parametrize("line", [
    'with open(path, "w") as fh:', "np.fromfile(path)", "table.tofile(path)", "os.makedirs(path)",
    "Path(p).read_text()", "p.write_text(s)", "p.read_bytes()", "p.write_bytes(b)", "out.mkdir()",
])
def test_the_boundary_lint_sees_each_kind_of_access(line):
    assert _FILE_ACCESS.search(line)


def test_only_errors_py_touches_files():
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if _FILE_ACCESS.search(line)
    ]
    assert offenders == []


def test_only_the_index_reads_its_overlap_tables():
    # a center's tier-3 counts come through NeighborhoodIndex.center_counts,
    # which alone reads the tables and the overlay's virtual row: fusion's
    # two W builders name neither
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "index.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "overlap_table(" in line or (path.name == "fusion.py" and "virtual" in line)
    ]
    assert offenders == []


# the inspection layer: graph objects that no ranking builds
_GRAPH_OBJECTS = {"QueryGraph", "JaccardValue", "tiered_graph", "FusedGraph", "fuse_graphs", "TieredPairwise",
                  "greedy_select"}


def _uses(source):
    """(modules, names) that ``source`` imports or reads as an attribute; ``from . import x`` imports module x."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            modules.add(module)
            for alias in node.names:
                names.add(alias.name)
                if not module:
                    modules.add(alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return modules, names


@pytest.mark.parametrize(("source", "module", "name"), [
    ("from .fusion import TieredPairwise", "fusion", "TieredPairwise"),
    ("from tierank.rerank import tiered_graph as tg", "rerank", "tiered_graph"),
    ("from . import fusion\nfusion.fuse_graphs([])", "fusion", "fuse_graphs"),
    ("import tierank.rerank\ntierank.rerank.QueryGraph", "rerank", "QueryGraph"),
])
def test_the_layer_lint_sees_each_kind_of_use(source, module, name):
    modules, names = _uses(source)
    assert module in modules and name in names


def test_only_the_layer_uses_the_graph_objects():
    # rankings, scenarios and oracles run on arrays and plain sets: outside
    # fusion.py and rerank.py, which define the inspection layer, no module
    # names it, the package's exports included
    offenders = {
        path.name: sorted(names & _GRAPH_OBJECTS)
        for path in sorted(SRC.glob("*.py")) if path.name not in {"fusion.py", "rerank.py"}
        for names in [_uses(path.read_text(encoding="utf-8"))[1]] if names & _GRAPH_OBJECTS
    }
    assert offenders == {}


def test_the_pipeline_leaves_the_virtual_row_to_the_index():
    assert "virtual" not in _uses((SRC / "pipeline.py").read_text(encoding="utf-8"))[1]


# The tests that may name the inspection layer or the overlay, by file and
# function, helpers included: each is about the layer or the overlay
# itself, and goes with it. Every other test checks rankings against
# oracles.oracle_rerank and reads tier-1 overlaps off the rankings' arrays.
_LAYER_TESTS = {
    "test_api.py": {"test_removed_names_are_gone"},
    "test_eval.py": {"test_two_manifold_fusion_linearity"},
    "test_fusion.py": {
        "_tier3", "_fused_graph", "test_fuse_single_channel_identity", "test_fuse_disjoint_channels",
        "test_fuse_weights_match_per_channel_sums", "test_fuse_channel_permutation_invariant", "test_fuse_errors",
        "test_fuse_scales_apply_per_channel", "test_pairwise_matches_tiered_route",
        "test_pairwise_from_query_reproduces_fused_edges", "test_pairwise_batch_equals_scalar",
        "test_pairwise_symmetric_for_mutual_neighbors", "test_pairwise_refuses_a_candidate_that_is_no_integer",
        "test_pairwise_on_a_hand_cut_virtual_row", "test_pairwise_matches_oracle_property",
        "test_fused_weights_and_ranks_match_fused_graph_property", "test_one_querys_w_is_a_plain_dict_of_sums",
        "test_greedy_pool_of_one", "test_greedy_rejects_candidates_other_than_the_fused_nodes",
        "test_greedy_select_takes_an_integer_matrix_and_writes_none",
        "test_single_channel_first_pick_consistent_with_tiered_list",
    },
    "test_rerank.py": {"test_jaccard_keeps_raw_counts"},
}
_OVERLAY_TESTS = {
    "conftest.py": {"overlay_query"},
    "test_fusion.py": {
        "_pairwise_instances", "test_batch_rerank_matches_rerank_query_property",
        "test_one_querys_front_end_is_its_slice_of_a_blocks_property",
        "test_one_querys_front_end_is_its_slice_of_a_block_on_the_edges",
        "test_batch_rerank_on_overlays_matches_rerank_query", "test_overlays_share_the_table",
        "test_the_fused_table_fuses_the_channels_overlap_tables", "test_a_vector_query_ranks_as_its_overlay_does",
        "test_a_vector_query_ranks_as_its_overlay_does_property", "test_a_vector_query_keeps_every_error",
    },
    "test_index.py": {
        "test_ids_at_refuses_a_pad_and_a_position_past_the_rows", "test_with_virtual_is_a_one_row_overlay",
        "test_center_counts_come_in_the_shape_of_position_rows", "test_an_overlay_cannot_be_saved",
        "test_with_virtual_rejects_a_malformed_row", "test_positions_find_every_row_whichever_the_id_spread",
    },
    "test_rerank.py": {
        "_tier3_instances", "test_tier3_matches_set_oracle_property",
        "test_a_vector_query_ranks_as_its_overlay_does_on_one_channel",
    },
}


def _layer_users(sources):
    """{file: functions} of every top-level function or class of ``sources`` (file name -> source) that names
    a graph object or ``with_virtual``, itself or through a function of ``sources`` that does."""
    reads = {}
    for name, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads[name, node.name] = _uses(ast.unparse(node))[1] | {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    banned, users = _GRAPH_OBJECTS | {"with_virtual"}, {}
    while found := {key for key, names in reads.items() if names & banned and key[1] not in users.get(key[0], ())}:
        for name, function in found:
            users.setdefault(name, set()).add(function)
            banned.add(function)
    return users


def _test_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))}


def test_only_the_listed_tests_name_the_inspection_layer():
    # item by item, the list empties as the layer and the overlay go
    allowed = {name: _LAYER_TESTS.get(name, set()) | _OVERLAY_TESTS.get(name, set())
               for name in {*_LAYER_TESTS, *_OVERLAY_TESTS}}
    assert _layer_users(_test_sources()) == allowed


def test_the_test_layer_lint_sees_a_test_outside_the_list():
    # a direct use, and one through a helper that is itself on the list
    sources = _test_sources()
    sources["test_eval.py"] += "\n\ndef test_late(channels):\n    return tiered_graph(channels[0].index, 0)\n"
    sources["test_cli.py"] += (
        "\n\nfrom conftest import overlay_query\n\n\ndef test_later(channels):\n"
        "    return overlay_query(channels, [0.0], 99)\n"
    )
    users = _layer_users(sources)
    assert "test_late" in users["test_eval.py"] and users["test_cli.py"] == {"test_later"}


# what the oracles may not run: the index's kernels and the kNN scan, which the rankings share
_KERNELS = {"overlap_counts", "center_counts", "stored_counts", "overlap_table", "position_rows", "query_rows",
            "with_virtual", "knn_columns", "knn_candidates"}


def _oracle_offenses(source):
    """(the checked modules, the kernels) that ``source`` imports or reads."""
    modules, names = _uses(source)
    return modules & {"fusion", "rerank"}, names & _KERNELS


def test_the_oracles_import_nothing_they_check():
    # plain loops over neighbor_ids and the one-pair distance, no shared fast path
    assert _oracle_offenses((SRC / "oracles.py").read_text(encoding="utf-8")) == (set(), set())


@pytest.mark.parametrize(("extra", "offenses"), [
    ("def f(index, rows):\n    return index.overlap_counts(rows, 3)\n", (set(), {"overlap_counts"})),
    ("from .index import knn_columns\n", (set(), {"knn_columns"})),
    ("from .rerank import tiered_rerank\n", ({"rerank"}, set())),
], ids=["a kernel call", "a kNN import", "a checked module"])
def test_the_oracle_lint_sees_a_kernel_call(extra, offenses):
    assert _oracle_offenses((SRC / "oracles.py").read_text(encoding="utf-8") + "\n\n" + extra) == offenses


_README = TESTS.parent / "README.md"
# a backticked file name reads as module.suffix: index.py, pipeline.cfg
_FILE_SUFFIXES = {"py", "cfg"}


def _readme_names(text):
    """Every backticked ``module.name`` of ``text`` whose module is one of the package's, but file names."""
    modules = {path.stem for path in SRC.glob("*.py")}
    return [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", text)
            if module in modules and name not in _FILE_SUFFIXES]


def _missing_names(text):
    return sorted({f"{module}.{name}" for module, name in _readme_names(text)
                   if not hasattr(importlib.import_module(f"tierank.{module}"), name)})


def test_every_module_name_readme_names_exists():
    text = _README.read_text(encoding="utf-8")
    assert _readme_names(text) and _missing_names(text) == []


def test_the_readme_lint_sees_a_missing_name():
    text = _README.read_text(encoding="utf-8") + "\nSee `fusion.fuse_graph`, `index.py` and `pipeline.cfg`.\n"
    assert _missing_names(text) == ["fusion.fuse_graph"]


def test_the_index_imports_nothing_from_the_package_but_errors():
    # the layer under every ranking: the rankings, fusion and the pipeline read the index, and it reads none of them
    modules = _uses((SRC / "index.py").read_text(encoding="utf-8"))[0]
    assert modules & {path.stem for path in SRC.glob("*.py")} == {"errors"}


def _add_at_users(source):
    """The innermost functions of ``source`` (or ``<module>``) that read ``add.at``, numpy's unbuffered add."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "at" and (
                getattr(child.value, "attr", None) == "add" or getattr(child.value, "id", None) == "add"
            ):
                found.add(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(("source", "users"), [
    ("def f(m, c, v):\n    np.add.at(m, c, v)\n", {"f"}),
    ("import numpy\ndef f(m):\n    def g(c):\n        numpy.add.at(m, c, 1)\n    return g\n", {"g"}),
    ("from numpy import add\nscatter = add.at\n", {"<module>"}),
    ("def f(m, c, v):\n    m[c] += v\n", set()),
])
def test_the_add_at_lint_sees_each_kind_of_use(source, users):
    assert _add_at_users(source) == users


def test_no_w_build_uses_add_at():
    # every W adds only its hits, which are distinct cells, with one
    # buffered add: a block's, TieredPairwise's (a block of one) and the
    # fused table's
    users = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in _add_at_users(path.read_text(encoding="utf-8"))}
    assert users == set()


def _names_read_in(source, function):
    """The names and attributes that any function called ``function`` in ``source`` reads, nested ones included."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for tree in ast.walk(ast.parse(source))
        if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)) and tree.name == function
        for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))
    }


def _callers(source, name):
    """The qualified names of the innermost classes and functions of ``source`` (or ``<module>``) that call ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if name in {getattr(func, "id", None), getattr(func, "attr", None)}:
                found.add(scope or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize(("source", "callers"), [
    ("class T:\n    def __init__(self, p, c):\n        self.m = query_matrix(p, c)\n", {"T.__init__"}),
    ("def f(p, c):\n    return fusion.query_matrix(p, c)\n", {"f"}),
    ("def f(p, c):\n    def g():\n        return query_matrix(p, c)\n    return g\n", {"f.g"}),
    ("w = query_matrix(parts, col)\n", {"<module>"}),
    ("def query_matrix(p, c):\n    return p\n", set()),
])
def test_the_caller_lint_sees_each_kind_of_call(source, callers):
    assert _callers(source, "query_matrix") == callers


def test_a_single_query_ranks_off_the_fused_table():
    # _rerank, the one-query path, reads neither a block's front end nor
    # add_counts, the W builder of a block and of TieredPairwise, the
    # inspection view, which lays out its W as a block of one
    pipeline = (SRC / "pipeline.py").read_text(encoding="utf-8")
    assert {"_candidates", "add_counts"}.isdisjoint(_names_read_in(pipeline, "_rerank"))
    assert _callers_in_package("add_counts") == {("fusion.py", "TieredPairwise.__init__"),
                                                 ("pipeline.py", "_rerank_block")}


def _callers_in_package(name):
    """(file, qualified caller) of every call of ``name`` in the package."""
    return {(path.name, caller) for path in sorted(SRC.glob("*.py"))
            for caller in _callers(path.read_text(encoding="utf-8"), name)}


def test_a_stored_row_is_counted_in_one_place():
    # the overlap table is the one count of the stored rows, and the fused
    # table fuses it; the other callers count a query's own row (one
    # channel's tiers, slot n's row in a block and in a single fused query)
    callers = _callers_in_package("overlap_counts")
    assert ("fusion.py", "FusedTable.__init__") not in callers
    assert callers == {("rerank.py", "_overlaps"), ("index.py", "NeighborhoodIndex.center_counts"),
                       ("index.py", "NeighborhoodIndex._build_overlap_table"), ("pipeline.py", "_rerank")}


def _row_fuser_users(sources):
    """(file, caller) of every call of ``fuse_rows`` in ``sources``, a file name -> source map.

    Every file but fusion.py that imports or reads the name adds (file, "import").
    """
    found = {(name, caller) for name, source in sources.items() for caller in _callers(source, "fuse_rows")}
    return found | {(name, "import") for name, source in sources.items()
                    if name != "fusion.py" and "fuse_rows" in _uses(source)[1]}


def _package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_the_row_fuser_lint_sees_a_second_caller():
    # a second fuser of one row in fusion.py, and the pipeline importing the table's
    sources = _package_sources()
    sources["fusion.py"] += "\n\ndef fused_row(rows, counts, pad):\n    return fuse_rows(rows, counts, pad)\n"
    sources["pipeline.py"] += "\n\nfrom .fusion import fuse_rows\n"
    assert _row_fuser_users(sources) == {("fusion.py", "FusedTable.__init__"), ("fusion.py", "fused_row"),
                                         ("pipeline.py", "import")}


def test_a_query_at_slot_n_fuses_its_rows_without_the_tables_row_fuser():
    # the fused table fuses every stored row with fuse_rows; a query at slot n
    # takes one union of its own rows in _rerank, and the pipeline imports none
    assert _row_fuser_users(_package_sources()) == {("fusion.py", "FusedTable.__init__")}


def _scipy_imports(source):
    """The innermost function of ``source`` (or ``<module>``) of every import of scipy or of a module of it."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend(owner for alias in child.names if alias.name.partition(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").partition(".")[0] == "scipy":
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(("source", "sites"), [
    ("import scipy\n", ["<module>"]),
    ("from scipy.spatial.distance import cdist\n", ["<module>"]),
    ("def f():\n    import numpy, scipy.spatial as sp\n    return sp\n", ["f"]),
    ("def f():\n    def g():\n        from scipy import spatial\n    from scipy.spatial import distance\n",
     ["g", "f"]),
    ("import scipyx\nfrom numpy import scipy\n", []),
])
def test_the_scipy_lint_sees_each_kind_of_import(source, sites):
    assert _scipy_imports(source) == sites


def test_scipy_is_imported_where_a_distance_is_computed():
    # a fresh process imports scipy on its first distance: the index imports
    # cdist at one site, which its three distances share, and tierank bench
    # reads scipy's version where it prints it
    found = {name: _scipy_imports(source) for name, source in _package_sources().items()}
    assert {name: sites for name, sites in found.items() if sites} == {"cli.py": ["cmd_bench"], "index.py": ["_cdist"]}


def _functions_naming(source, name):
    """The functions of ``source`` that read ``name``, as a name or an attribute, nested ones included."""
    functions = {tree.name for tree in ast.walk(ast.parse(source))
                 if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {function for function in functions if name in _names_read_in(source, function)}


# the per-channel files and their readers and writers before one index file held them
_RETIRED_FILE_NAMES = [
    "save_tier3", "load_tier3", "save_parsed_features", "load_parsed_features", "_save_keyed", "_load_keyed",
    "_neighbor_digest", "_TIER3_MAGIC", "_TIER3_VERSION", "_PARSED_MAGIC", "_PARSED_VERSION",
    "_KEYED_HEADER_BYTES", "_tier3_path", "remove_files", "missing_ok",
]


def test_one_file_per_channel_leaves_no_name_of_the_older_files():
    offenders = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        for name in _RETIRED_FILE_NAMES if re.search(rf"\b{name}\b", line)
    ]
    assert offenders == []


def test_one_function_reads_an_index_files_header():
    # _index_layout checks the header and the file's size; the two readers take the layout from it
    index = (SRC / "index.py").read_text(encoding="utf-8")
    assert _functions_naming(index, "_INDEX_HEADER") == {"save_index", "_index_layout"}
    assert _functions_naming(index, "_INDEX_MAGIC") == {"save_index", "_index_layout"}
    assert _callers(index, "_index_layout") == {"load_index", "load_index_features"}


def _id_passes(source, function):
    """The parts of an id -> position pass that the functions ``function`` of ``source`` name, in walk order.

    A pass is ``_row_positions``, called or not, or a ``take`` from ``item_ids``.
    """
    found = []
    for tree in ast.walk(ast.parse(source)):
        if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)) and tree.name == function:
            for node in ast.walk(tree):
                if "_row_positions" in {getattr(node, "id", None), getattr(node, "attr", None)}:
                    found.append("_row_positions")
                func = node.func if isinstance(node, ast.Call) else None
                owner = getattr(func, "value", None)
                if getattr(func, "attr", None) == "take" and "item_ids" in {getattr(owner, "id", None),
                                                                             getattr(owner, "attr", None)}:
                    found.append("item_ids.take(")
    return found


@pytest.mark.parametrize(("line", "passes"), [
    ("positions = _row_positions(ids, table)", ["_row_positions"]),
    ("positions = index_module._row_positions(ids, table)", ["_row_positions"]),
    ("lookup = _row_positions", ["_row_positions"]),
    ("ids = index.item_ids.take(table)", ["item_ids.take("]),
    ("ids = item_ids.take(table, mode='clip')", ["item_ids.take("]),
    ("rows = index.neighbor_table.take(ids, axis=0)", []),
])
def test_the_id_pass_lint_sees_each_kind_of_use(line, passes):
    assert _id_passes(f"def f(index, item_ids, ids, table):\n    {line}\n", "f") == passes


def test_an_index_file_holds_the_neighbor_table_as_the_index_does():
    # in row positions: neither the save nor the load turns them into ids or back
    index = (SRC / "index.py").read_text(encoding="utf-8")
    assert (_id_passes(index, "save_index"), _id_passes(index, "load_index")) == ([], [])


def test_the_cli_saves_and_loads_indexes_by_their_module_names():
    # a traced run wraps the save_index and load_index attributes of tierank.cli, so the CLI calls those
    # bare names, which it looks up in its own module on every call
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    calls = [node.func for node in ast.walk(ast.parse(cli)) if isinstance(node, ast.Call)
             and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {"load_index", "save_index"}]
    assert len(calls) == 2 and all(isinstance(func, ast.Name) for func in calls)
    assert (_callers(cli, "save_index"), _callers(cli, "load_index")) == ({"cmd_index"}, {"_assemble_channels"})


def test_only_the_index_build_starts_threads():
    assert _callers_in_package("ThreadPoolExecutor") == {("index.py", "build_index")}
    assert _callers_in_package("Thread") == set()


def test_a_channel_is_checked_once_where_it_is_made():
    # k1, k2 and alpha: in the pipeline, Channel.__post_init__ alone calls resolve_k
    callers = _callers((SRC / "pipeline.py").read_text(encoding="utf-8"), "resolve_k")
    assert callers == {"Channel.__post_init__"}


def _handlers(source):
    """(innermost function, the handler's last statement ends in a bare raise) of every except handler."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                last = child.body[-1]
                found.append((owner, isinstance(last, ast.Raise) and last.exc is None))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(("source", "handlers"), [
    ("def f():\n    try:\n        g()\n    except Exception:\n        h()\n        raise\n", [("f", True)]),
    ("def f():\n    try:\n        g()\n    except ValueError:\n        return None\n", [("f", False)]),
    ("def f():\n    try:\n        g()\n    except ValueError as e:\n        raise e\n", [("f", False)]),
    ("try:\n    g()\nexcept (TypeError, ValueError):\n    raise\nexcept KeyError:\n    pass\n",
     [("<module>", True), ("<module>", False)]),
])
def test_the_handler_lint_sees_each_kind_of_handler(source, handlers):
    assert _handlers(source) == handlers


def test_the_pipeline_has_one_error_path_that_raises_again():
    # the batch driver, on any fault, re-runs every query's checks and
    # raises the fault itself again when none fails: no handler falls back
    # to another ranking
    assert _handlers((SRC / "pipeline.py").read_text(encoding="utf-8")) == [("_batch", True)]


@pytest.mark.parametrize(("source", "reads"), [
    ("def knn_columns(q):\n    if not np.isfinite(q).all():\n        raise ValueError\n", True),
    ("def knn_columns(q):\n    return numpy.all(numpy.isfinite(q))\n", True),
    ("from numpy import isfinite\ndef knn_columns(q):\n    return isfinite(q).all()\n", True),
    ("def knn_columns(q):\n    check = np.isfinite\n    return check(q)\n", True),
    ("def knn_columns(q):\n    def rows():\n        return np.isfinite(q).all(axis=1)\n    return rows\n", True),
    ("def knn_candidates(q):\n    return np.isfinite(q).all()\ndef knn_columns(q):\n    return q\n", False),
])
def test_the_finiteness_lint_sees_each_kind_of_use(source, reads):
    assert ("isfinite" in _names_read_in(source, "knn_columns")) == reads


def test_a_query_vector_is_checked_for_nan_and_inf_where_it_enters():
    # once a query: Channel.query_rows and knn_candidates refuse a NaN or
    # Inf, and the kernel both call, knn_columns, takes the vectors checked
    sources = {name: (SRC / name).read_text(encoding="utf-8") for name in ("index.py", "pipeline.py")}
    assert "isfinite" not in _names_read_in(sources["index.py"], "knn_columns")
    assert "isfinite" in _names_read_in(sources["index.py"], "knn_candidates")
    assert "isfinite" in _names_read_in(sources["pipeline.py"], "query_rows")


def _number_readers_of_lines(source):
    """The functions in ``source`` that call parse_number and also read a text file or split one into lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = {getattr(call.func, "attr", getattr(call.func, "id", None))
                     for call in ast.walk(node) if isinstance(call, ast.Call)}
            if "parse_number" in calls and calls & {"read_text", "splitlines", "readlines", "open"}:
                found.append(node.name)
    return found


@pytest.mark.parametrize("source", [
    "def f(path):\n    for line in read_text(path).splitlines():\n        parse_number(line, int)\n",
    "def f(path):\n    text = errors.read_text(path)\n    return [errors.parse_number(t) for t in text.split()]\n",
    "def f(lines):\n    def g():\n        return [parse_number(line) for line in lines.splitlines()]\n",
])
def test_the_table_lint_sees_a_reader_of_its_own(source):
    assert "f" in _number_readers_of_lines(source)


def test_every_text_table_is_read_by_errors_read_table():
    # one np.loadtxt pass and one scan, in errors.py: every other module reads
    # a table through read_table and parses numbers only of flags and config values
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert {name: source.count("loadtxt(") for name, source in sources.items() if "loadtxt(" in source} == {
        "errors.py": 1}
    assert {name: _number_readers_of_lines(source) for name, source in sources.items()
            if name != "errors.py" and _number_readers_of_lines(source)} == {}


# --- every writer: an OSError is a FileAccessError ---------------------------

def _writers():
    features = FeatureMatrix("plane", range(6), np.arange(12, dtype=np.float64).reshape(6, 2))
    ranking = RankedList(query=0, entries=((0, 3.0), (1, 2.0)), tier="3")
    config = PipelineConfig(channels=(ChannelConfig(name="plane", feature_path="plane.csv"),))
    return {
        "write_features_csv": lambda path: write_features_csv(features, path),
        "write_features_binary": lambda path: write_features_binary(features, path),
        "save_index": lambda path: save_index(build_index(features, k=3), path),
        "write_rankings_tsv": lambda path: write_rankings_tsv([ranking], path),
        "write_ground_truth": lambda path: write_ground_truth(GroundTruth({0: 1, 1: 1}), path),
        "write_config": lambda path: write_config(config, path),
    }


@pytest.mark.parametrize("writer", sorted(_writers()))
@pytest.mark.parametrize("target", ["missing directory", "directory", "under a file"])
def test_a_writer_that_cannot_write_raises_file_access_error(tmp_path, writer, target):
    (tmp_path / "file").write_text("")
    path = {
        "missing directory": tmp_path / "missing" / "out",
        "directory": tmp_path,
        "under a file": tmp_path / "file" / "out",
    }[target]
    with pytest.raises(FileAccessError, match=re.escape(f"cannot write {path}")) as info:
        _writers()[writer](path)
    assert isinstance(info.value.__cause__, OSError)
    assert not (tmp_path / "missing").exists()  # no writer makes a directory


def test_read_bytes_is_a_writable_uint8_array(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"\x00\x01\xff")
    raw = read_bytes(path)
    assert raw.dtype == np.uint8 and raw.flags.writeable and raw.tobytes() == b"\x00\x01\xff"
    for bad in (tmp_path, tmp_path / "missing", f"{path}\x00"):
        with pytest.raises(FileAccessError, match="cannot read"):
            read_bytes(bad)


# --- the command line: no traceback from a path it cannot use -----------------

def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("boundary")
    out, idx = base / "scen", base / "idx"
    assert _run(["synth", "--scenario", "outlier", "--seed", "0", "--out-dir", str(out)])[0] == 0
    assert _run(["index", "--config", str(out / "pipeline.cfg"), "--out-dir", str(idx)])[0] == 0
    ranked = base / "ranked.tsv"
    rerank = ["rerank", "--config", str(out / "pipeline.cfg"), "--index-dir", str(idx)]
    assert _run([*rerank, "--query-ids", "0,3,5", "--out", str(ranked)])[0] == 0
    features = load_features(out / "plane.csv")
    write_features_binary(features, base / "plane.bin")
    (base / "binary.cfg").write_text("[channel:plane]\nfeatures = plane.bin\nformat = binary\nk1 = 5\nk2 = 3\n")
    (base / "queries.txt").write_text("0\n3\n\n5\n")
    (base / "vectors.txt").write_text("0.5 0.25\n1.0,2.0\n")
    return base, out, idx, rerank


def _one_error_line(err, cls=None):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error\t{cls or ''}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["index", "synth"])
def test_out_dir_under_a_regular_file_is_a_data_error(scenario, tmp_path, command):
    _, out, _, _ = scenario
    (tmp_path / "F").write_text("")
    target = str(tmp_path / "F" / "sub")
    argv = {
        "index": ["index", "--config", str(out / "pipeline.cfg"), "--out-dir", target],
        "synth": ["synth", "--scenario", "outlier", "--out-dir", target],
    }[command]
    code, _, err = _run(argv)
    assert code == 3
    _one_error_line(err, "FileAccessError\tcannot make directory ")


def test_synth_manifest_that_is_a_directory_is_a_data_error(tmp_path):
    (tmp_path / "manifest.json").mkdir()
    code, _, err = _run(["synth", "--scenario", "outlier", "--out-dir", str(tmp_path)])
    assert code == 3
    _one_error_line(err, f"FileAccessError\tcannot write {tmp_path / 'manifest.json'}")


def test_rerank_out_into_a_missing_directory_is_a_data_error(scenario, tmp_path):
    _, _, _, rerank = scenario
    code, _, err = _run([*rerank, "--query-ids", "0", "--out", str(tmp_path / "missing" / "x.tsv")])
    assert code == 3
    _one_error_line(err, "FileAccessError\tcannot write ")
    assert not (tmp_path / "missing").exists()


def test_a_nul_in_a_feature_path_is_a_data_error(tmp_path):
    cfg = tmp_path / "nul.cfg"
    cfg.write_text("[channel:plane]\nfeatures = pla\x00ne.csv\n")
    code, _, err = _run(["index", "--config", str(cfg), "--out-dir", str(tmp_path / "idx")])
    assert code == 3
    _one_error_line(err, "FileAccessError\tchannel 'plane': cannot read ")


# --- fuzzing every input -------------------------------------------------------

# fragments that sit near the edges of what each reader accepts
_TOKENS = [
    b"\n", b"\r\n", b"\r", b",", b"\t", b" ", b"0", b"7", b"-1", b"1e308", b"1e400", b"nan", b"-inf",
    b"9" * 20, b"1_0", b"0x1", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8", b"=", b"[", b"]",
    b"[channel:plane]", b"[rerank]", b"k1 = 0", b"k2 = 99", b"alpha = -1", b"format = binary",
    b"metric = cosine", b"k_final = 0", b"TKF1", b"\x00\x00\x00\x80", b"\xff" * 8, b"\x00\x00\xc0\x7f",
]


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """The valid bytes with up to four short spans replaced, cut or inserted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        end = draw(st.integers(at, min(len(data), at + 12)))
        data[at:end] = draw(st.sampled_from(_TOKENS) | st.binary(max_size=8))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


def _inputs(valid: bytes):
    return st.one_of(st.binary(max_size=48), _mutated(valid))


# (input, the file the fuzzed bytes replace, its loader, the command that reads it)
_CASES = {
    "feature csv": ("scen/plane.csv", lambda p: load_features(p, "csv"),
                    lambda b: ["index", "--config", str(b / "scen" / "pipeline.cfg"), "--out-dir", str(b / "fz")]),
    "feature binary": ("plane.bin", lambda p: load_features(p, "binary"),
                       lambda b: ["index", "--config", str(b / "binary.cfg"), "--out-dir", str(b / "fz")]),
    "config": ("scen/pipeline.cfg", load_config,
               lambda b: ["rerank", "--config", str(b / "scen" / "pipeline.cfg"), "--index-dir", str(b / "idx"),
                          "--query-ids", "0"]),
    "rankings": ("ranked.tsv", read_rankings_tsv,
                 lambda b: ["eval", "--rankings", str(b / "ranked.tsv"), "--truth", str(b / "scen" / "truth.csv"),
                            "--metrics", "ns,precision,recall", "--r", "1,4"]),
    "truth": ("scen/truth.csv", load_ground_truth,
              lambda b: ["eval", "--rankings", str(b / "ranked.tsv"), "--truth", str(b / "scen" / "truth.csv"),
                         "--metrics", "ns,precision,recall", "--r", "1,4"]),
    "queries file": ("queries.txt", None,
                     lambda b: ["rerank", "--config", str(b / "scen" / "pipeline.cfg"), "--index-dir",
                                str(b / "idx"), "--queries-file", str(b / "queries.txt")]),
    "query vectors": ("vectors.txt", None,
                      lambda b: ["rerank", "--config", str(b / "scen" / "pipeline.cfg"), "--index-dir",
                                 str(b / "idx"), "--query-vectors", str(b / "vectors.txt")]),
}


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_input_is_a_data_error_or_runs(scenario, case, data):
    # the loader raises only TierankError, and main exits 0 or 3 with one
    # error line, never a traceback
    base = scenario[0]
    name, load, argv = _CASES[case]
    path = base / name
    valid = path.read_bytes()
    try:
        path.write_bytes(data.draw(_inputs(valid), label="bytes"))
        try:
            if load is not None:
                load(path)
            loaded = True
        except TierankError:
            loaded = False
        code, _, err = _run(argv(base))
    finally:
        path.write_bytes(valid)
    if code == 0:
        assert loaded and err == ""
    else:
        assert code == 3
        _one_error_line(err)


# --- one ASCII number grammar --------------------------------------------------

# the same digit in other scripts, each of which int() and float() read as
# that digit: full-width, Arabic-Indic, Devanagari, Thai, mathematical bold
_OTHER_DIGITS = [0xFF10, 0x0660, 0x0966, 0x0E50, 0x1D7CE]


def _number_inputs(base):
    """Every input that holds numbers: its text, its path (None for a flag) and the argv that reads it."""
    scen = base / "scen"
    rerank = ["rerank", "--config", str(scen / "pipeline.cfg"), "--index-dir", str(base / "idx")]
    return {
        "feature csv": ((scen / "plane.csv").read_text(), scen / "plane.csv",
                        ["index", "--config", str(scen / "pipeline.cfg"), "--out-dir", str(base / "fz")]),
        "truth csv": ((scen / "truth.csv").read_text(), scen / "truth.csv",
                      ["eval", "--rankings", str(base / "ranked.tsv"), "--truth", str(scen / "truth.csv")]),
        "queries file": ("10\n3\n\n11\n", base / "queries.txt", [*rerank, "--queries-file", str(base / "queries.txt")]),
        "query vectors": ("0.5 0.25\n1.0,20.0\n", base / "vectors.txt",
                          [*rerank, "--query-vectors", str(base / "vectors.txt")]),
        "query ids": ("0,10,3,11", None, [*rerank, "--query-ids"]),
        "rankings tsv": ("0\t1\t0\t12.0\tmfr\n0\t2\t10\t3.25\tmfr\n\n3\t1\t3\t0.0\tmfr\n", base / "ranked.tsv",
                         ["eval", "--rankings", str(base / "ranked.tsv"), "--truth", str(scen / "truth.csv")]),
        "config": ("[channel:plane]\nfeatures = plane.csv\nk1 = 5\nk2 = 3\nalpha = 1.25\n\n[rerank]\nk_final = 10\n"
                   "\n[run]\nseed = 0\n", scen / "pipeline.cfg", [*rerank, "--query-ids", "0"]),
    }


@pytest.mark.parametrize(
    "name", ["feature csv", "truth csv", "queries file", "query vectors", "query ids", "rankings tsv", "config"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_underscores_and_other_digits_in_a_number_are_a_data_error(scenario, name, data):
    # int() and float() would read 1_0 as 10 and a full-width 1 as 1, and
    # rank or score another item without a word
    text, path, argv = _number_inputs(scenario[0])[name]
    runs = list(re.finditer(r"[0-9]+", text))
    underscore = data.draw(st.booleans(), label="underscore")
    if underscore:
        runs = [m for m in runs if len(m.group()) > 1]
    run = data.draw(st.sampled_from(runs), label="digits")
    at = data.draw(st.integers(run.start() + underscore, run.end() - 1), label="at")
    if underscore:
        bad = text[:at] + "_" + text[at:]
    else:
        bad = text[:at] + chr(data.draw(st.sampled_from(_OTHER_DIGITS)) + int(text[at])) + text[at + 1 :]
    lineno = text[:at].count("\n") + 1
    if path is None:
        code, _, err = _run([*argv, bad])
        expected = f"error\tFormatError\tbad --query-ids value {bad!r}"
    else:
        valid = path.read_bytes()
        try:
            path.write_text(bad, encoding="utf-8")
            code, _, err = _run(argv)
        finally:
            path.write_bytes(valid)
        # a config value is named by its section, not its line
        expected = f"error\tFormatError\t{path}:" + (" " if name == "config" else f"{lineno}: ")
    assert code == 3, name
    _one_error_line(err)
    assert err.startswith(expected), err


@pytest.mark.parametrize("argv", [
    ["eval", "--rankings", "{base}/ranked.tsv", "--truth", "{base}/scen/truth.csv", "--r", "{bad}"],
    ["bench", "--n", "{bad}", "--queries", "100"],
    ["bench", "--k", "{bad}"],
])
@pytest.mark.parametrize("bad", ["1_0", "1,1_0", "\uff11", "1,\u0663"])
def test_underscores_and_other_digits_in_a_count_flag_are_a_data_error(scenario, argv, bad):
    code, out, err = _run([arg.format(base=scenario[0], bad=bad) for arg in argv])
    flag = next(arg for arg in argv if arg.startswith("--") and "{bad}" in argv[argv.index(arg) + 1])
    assert code == 3 and out == ""
    _one_error_line(err, f"FormatError\tbad {flag} value {bad!r}: want comma-separated integers")


@pytest.mark.parametrize("argv", [
    ["rerank", "--config", "{base}/scen/pipeline.cfg", "--index-dir", "{base}/idx", "--query-ids", "0",
     "--k-final", "{bad}"],
    ["synth", "--scenario", "outlier", "--out-dir", "{base}/never", "--seed", "{bad}"],
    *(["bench", flag, "{bad}"] for flag in ("--m", "--dim", "--queries", "--reps", "--seed")),
])
@pytest.mark.parametrize("bad", ["1_0", "\uff11", "1\u0663"])
def test_underscores_and_other_digits_in_an_integer_flag_are_a_usage_error(scenario, argv, bad):
    # int() would read these as 10, 1 and 13
    with pytest.raises(SystemExit) as exc:
        _run([arg.format(base=scenario[0], bad=bad) for arg in argv])
    assert exc.value.code == 2
    assert not (scenario[0] / "never").exists()
