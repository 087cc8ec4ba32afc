"""Smoke test of the benchmark's traced query path against the library's.

``perfbench/workloads.py`` calls library functions by name; running its
traced query here makes a renamed or removed name fail in the tests rather
than in a benchmark run.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_channels
from perfbench.tracing import Tracer
from perfbench.workloads import traced_query
from tierank.pipeline import rerank_query, rerank_vector_query, virtual_query_id


@pytest.mark.parametrize("m", [1, 2])
def test_traced_query_equals_the_library(m):
    rng = np.random.default_rng(20 + m)
    channels = random_channels(rng, 30, m, 5)
    tracer = Tracer()
    assert traced_query(tracer, channels, 4, (7, None)) == rerank_query(channels, 7, k_final=4)
    vid, vector = virtual_query_id(channels), rng.normal(size=4)
    want = rerank_vector_query(channels, vector, k_final=4, vid=vid)
    assert traced_query(tracer, channels, 4, (vid, vector)) == want
    assert tracer.spans
