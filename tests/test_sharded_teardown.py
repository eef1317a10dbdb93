"""Failure injection: a fit that raises mid-query closes its engine.

The subtle leak this pins: the exception traceback holds the
clusterer's frame — and with it the ShardedIndex the fit's engine seam
built — so without an explicit ``close()`` in a ``finally`` the
executor's thread pool survives until a gc cycle collects the
traceback. The injected failure is a shard-op exception on each
in-process executor, the closest analogue of a query blowing up inside
a worker. Worker death and rebalancing are covered by the remote pool's
fault-injection suite (``tests/test_remote_pool.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.index.sharded as sharded_mod
from repro.clustering import DBSCAN
from repro.engine_config import ExecutionConfig
from repro.exceptions import NotFittedError
from repro.index import ShardedIndex
from repro.index.sharded import ShardingConfig
from repro.testing import make_blobs_on_sphere

EPS = 0.5


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(30, 3, 8, spread=0.3, seed=5)
    return X


@pytest.fixture
def close_spy(monkeypatch):
    """Record every ShardedIndex whose close() runs during the test."""
    closed: list = []
    original_close = ShardedIndex.close

    def spying_close(self):
        closed.append(self)
        original_close(self)

    monkeypatch.setattr(ShardedIndex, "close", spying_close)
    return closed


def _explode(index, Q, eps):
    raise RuntimeError("injected shard-op failure")


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestCloseOnMidQueryFailure:
    def test_failed_fit_closes_its_engine(
        self, executor, data, close_spy, monkeypatch
    ):
        monkeypatch.setitem(sharded_mod._SHARD_OPS, "range", _explode)
        execution = ExecutionConfig(
            sharding=ShardingConfig(n_shards=2, executor=executor, n_workers=2)
        )
        with pytest.raises(RuntimeError, match="injected shard-op failure"):
            DBSCAN(eps=EPS, tau=3, execution=execution).fit(data)
        # The traceback above still pins the clusterer frame (and the
        # engine in it), so only a deterministic close() in the fit's
        # finally can have released the executor — assert it did.
        assert close_spy, "the fit never built a sharded engine"
        assert all(index._executor_obj is None for index in close_spy)

    def test_direct_index_close_after_query_failure(
        self, executor, data, monkeypatch
    ):
        monkeypatch.setitem(sharded_mod._SHARD_OPS, "count", _explode)
        index = ShardedIndex(n_shards=2, executor=executor, n_workers=2).build(data)
        with pytest.raises(RuntimeError, match="injected"):
            index.batch_range_count(data, EPS)
        # A shard-op exception must not wedge or leak the executor.
        index.close()
        with pytest.raises(NotFittedError):
            index.batch_range_count(data, EPS)
