"""Every test starts from cold process-wide caches: parse's trees and the
engine's table of kernels.  A kept kernel skips its compile and its
diagnosis, so a test that patches a layer the table calls on a miss
(engine.compile_family, engine.diagnose, the probes, engine.tree_limit,
expr._shape) sees that layer run only where the table starts empty."""

import pytest

from frullani import engine, expr


@pytest.fixture(autouse=True)
def cold_caches():
    expr.parse.cache_clear()
    engine._kernels.clear()
