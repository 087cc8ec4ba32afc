"""Smoke test of the benchmark's traced query path against the library's.

``perfbench/workloads.py`` calls library functions by name; running its
traced query here makes a renamed or removed name fail in the tests rather
than in a benchmark run. With three channels the traced ``TieredPairwise``
reads the overlap tables, and with n below k a vector query's virtual row
is one entry wider than the stored rows, in tier 1 and in the fused matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

import tierank.cli
from conftest import random_channels
from perfbench.tracing import Tracer
from perfbench.workloads import CLI_SPANS, traced_query
from tierank.pipeline import rerank_query, rerank_vector_query, virtual_query_id


def _check_traced(rng, channels, query):
    tracer = Tracer()
    assert traced_query(tracer, channels, 4, (query, None)) == rerank_query(channels, query, k_final=4)
    vid, vector = virtual_query_id(channels), rng.normal(size=4)
    want = rerank_vector_query(channels, vector, k_final=4, vid=vid)
    assert traced_query(tracer, channels, 4, (vid, vector)) == want
    assert tracer.spans


@pytest.mark.parametrize("m", [1, 2, 3])
def test_traced_query_equals_the_library(m):
    rng = np.random.default_rng(20 + m)
    _check_traced(rng, random_channels(rng, 30, m, 5), 7)


@pytest.mark.parametrize("m", [1, 3])
def test_traced_query_equals_the_library_below_k(m):
    rng = np.random.default_rng(40 + m)
    _check_traced(rng, random_channels(rng, 4, m, 5), 2)


def test_the_cli_has_every_function_a_traced_run_wraps():
    # a traced cli-mixed run swaps these module attributes of tierank.cli for
    # spans, so the commands must call them through the module
    missing = [name for name in CLI_SPANS if not callable(getattr(tierank.cli, name, None))]
    assert missing == []
