"""Failure injection: a fit that raises mid-query closes its engine.

The subtle leak this pins: the exception traceback holds the
clusterer's frame — and with it the ShardedIndex the fit's engine seam
built — so without an explicit ``close()`` in a ``finally`` the remote
executor's fan-out threads and worker connections survive until a gc
cycle collects the traceback. The injected failure is a shard-op
exception: on the serial executor the op itself raises; on the remote
one the parent's worker client raises on a query call (the workers are
forked, so patching the shard ops would not reach them). Worker death
and rebalancing are covered by the remote pool's fault-injection suite
(``tests/test_remote_pool.py``).
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
from repro.remote.pool import WorkerPool, _WorkerClient
from repro.testing import make_blobs_on_sphere

EPS = 0.5


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(30, 3, 8, spread=0.3, seed=5)
    return X


@pytest.fixture(scope="module")
def pool():
    with WorkerPool.spawn_local(2) as pool:
        yield pool


@pytest.fixture
def executor(request, pool):
    """The executor under test: ``serial``, or the module pool's spec."""
    return pool.executor_spec() if request.param == "remote" else request.param


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


def _explode(*args, **kwargs):
    raise RuntimeError("injected shard-op failure")


def inject_failure(monkeypatch, executor, op: str) -> None:
    """Make every ``op`` shard call of ``executor`` raise."""
    if executor == "serial":
        monkeypatch.setitem(sharded_mod._SHARD_OPS, op, _explode)
        return
    original_call = _WorkerClient.call

    def failing_call(self, header, arrays=None):
        if header.get("op") == "query" and header.get("qop") == op:
            _explode()
        return original_call(self, header, arrays)

    monkeypatch.setattr(_WorkerClient, "call", failing_call)


@pytest.mark.parametrize("executor", ["serial", "remote"], indirect=True)
class TestCloseOnMidQueryFailure:
    def test_failed_fit_closes_its_engine(
        self, executor, data, close_spy, monkeypatch
    ):
        inject_failure(monkeypatch, executor, "range")
        execution = ExecutionConfig(
            sharding=ShardingConfig(n_shards=2, executor=executor)
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
        inject_failure(monkeypatch, executor, "count")
        index = ShardedIndex(n_shards=2, executor=executor).build(data)
        with pytest.raises(RuntimeError, match="injected"):
            index.batch_range_count(data, EPS)
        # A shard-op exception must not wedge or leak the executor.
        index.close()
        with pytest.raises(NotFittedError):
            index.batch_range_count(data, EPS)


def test_pool_answers_the_fit_after_a_failed_one(data, pool, monkeypatch):
    execution = ExecutionConfig(
        sharding=ShardingConfig(n_shards=2, executor=pool.executor_spec())
    )
    with monkeypatch.context() as patch:
        inject_failure(patch, "remote", "range")
        with pytest.raises(RuntimeError, match="injected"):
            DBSCAN(eps=EPS, tau=3, execution=execution).fit(data)
    expected = DBSCAN(eps=EPS, tau=3).fit(data)
    result = DBSCAN(eps=EPS, tau=3, execution=execution).fit(data)
    assert np.array_equal(result.labels, expected.labels)
    assert np.array_equal(result.core_mask, expected.core_mask)
