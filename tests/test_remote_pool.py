"""The remote worker pool: protocol, differential, warm reuse, faults.

Contracts under test:

* **Wire protocol** — framed header+arrays round-trip exactly; a clean
  EOF at a frame boundary reads as None; garbage raises the typed
  :class:`~repro.exceptions.RemoteProtocolError`.
* **Invisible distribution** — a fit with a ``remote`` executor spec
  against a localhost 2-worker pool is bit-identical to the serial
  path: ShardedIndex queries for every exact inner backend, and DBSCAN
  / LAF-DBSCAN labels end to end.
* **Warm reuse** — a second fit against the same pool attaches to the
  workers' cached shard indexes and reports
  ``shard_inner_builds == 0`` in ``ClusteringResult.stats``; a
  persisted sharded artifact reattaches the same way by path.
* **Robustness** (fork-gated, like the process-executor teardown
  suite) — a worker killed mid-fit gets its shards rebalanced to the
  survivors with bit-identical labels and ``shard_rebalances >= 1``;
  exhausted per-call timeouts raise the typed
  :class:`~repro.exceptions.RetryExhaustedError` without poisoning the
  pool for the next fit.

Everything is deterministic: fixed seeds, flag-file choreography for
the fault injection, no reliance on test order (the module-scoped pool
is warm state, but every assertion establishes its own baseline).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

import repro.index.sharded as sharded_mod
from repro.clustering import DBSCAN
from repro.core import LAFDBSCAN
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.estimators import ExactCardinalityEstimator
from repro.exceptions import (
    RemoteExecutorError,
    RemoteProtocolError,
    RetryExhaustedError,
    WorkerUnavailableError,
)
from repro.index.sharded import ExecutorSpec, ShardedIndex, ShardingConfig
from repro.remote.pool import WorkerPool
from repro.remote.protocol import recv_msg, send_msg
from repro.testing import make_blobs_on_sphere

EPS = 0.55
TAU = 4

#: The backend matrix of the sharded differential suite, less its
#: Euclidean configuration: the clusterers here run cosine DBSCAN.
BACKENDS = [
    ("brute_force", {}),
    ("brute_force", {"block_size": 7}),
    ("grid", {"eps": EPS, "rho": 1.0}),
    ("grid", {"eps": EPS, "rho": 0.5}),
]
backend_ids = [
    "brute_force",
    "brute_force_small_blocks",
    "grid",
    "grid_approx",
]


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 3, 10, spread=0.2, seed=7)
    return X


@pytest.fixture(scope="module")
def pool():
    with WorkerPool.spawn_local(2) as pool:
        yield pool


def remote_execution(pool, n_shards=3, index=None, **options) -> ExecutionConfig:
    return ExecutionConfig(
        index=index,
        sharding=ShardingConfig(
            n_shards=n_shards, executor=pool.executor_spec(**options)
        ),
    )


def serial_execution(n_shards=3, index=None) -> ExecutionConfig:
    return ExecutionConfig(
        index=index, sharding=ShardingConfig(n_shards=n_shards, executor="serial")
    )


class TestProtocol:
    def test_header_and_arrays_round_trip(self):
        a, b = socket.socketpair()
        try:
            arrays = {
                "indptr": np.arange(5, dtype=np.int64),
                "flat": np.array([[1.5, -2.5]], dtype=np.float64),
            }
            send_msg(a, {"op": "query", "arg": 0.5}, arrays)
            header, got = recv_msg(b)
            assert header == {"op": "query", "arg": 0.5}
            assert set(got) == {"indptr", "flat"}
            for name in got:
                assert got[name].dtype == arrays[name].dtype
                assert np.array_equal(got[name], arrays[name])
        finally:
            a.close()
            b.close()

    def test_clean_eof_reads_as_none(self):
        a, b = socket.socketpair()
        try:
            a.close()
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_is_worker_unavailable(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"op": "ping"})
            # Feed a truncated second frame: magic only, then hang up.
            a.sendall(b"RPP1\x00\x00")
            a.close()
            assert recv_msg(b) is not None  # the complete first frame
            with pytest.raises(WorkerUnavailableError):
                recv_msg(b)
        finally:
            b.close()

    def test_worker_rejects_knn_query_op(self, pool, data):
        # Shard queries are range and count only; a KNN request gets the
        # typed error reply and the connection keeps serving.
        host, _, port = pool.addresses[0].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            header = {"op": "query", "qop": "knn", "arg": 3, "shard": {}}
            send_msg(sock, header, {"Q": data[:2]})
            reply, _ = recv_msg(sock)
            assert reply["error"] == {
                "type": "RemoteProtocolError",
                "message": "unknown shard query op 'knn'",
            }
            send_msg(sock, {"op": "ping"})
            assert recv_msg(sock)[0]["ok"]

    def test_bad_magic_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP/1.1 200 OK\r\n")
            with pytest.raises(RemoteProtocolError, match="magic"):
                recv_msg(b)
        finally:
            a.close()
            b.close()


@pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
class TestShardedQueriesMatchSerial:
    def _pair(self, name, kwargs, data, pool):
        remote = ShardedIndex(
            inner=name, inner_kwargs=kwargs, n_shards=3, executor=pool.executor_spec()
        ).build(data)
        serial = ShardedIndex(
            inner=name, inner_kwargs=kwargs, n_shards=3, executor="serial"
        ).build(data)
        return remote, serial

    def test_batch_range_query(self, name, kwargs, data, pool):
        remote, serial = self._pair(name, kwargs, data, pool)
        with remote, serial:
            got = remote.batch_range_query(data, EPS)
            expected = serial.batch_range_query(data, EPS)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_batch_range_count(self, name, kwargs, data, pool):
        remote, serial = self._pair(name, kwargs, data, pool)
        with remote, serial:
            assert np.array_equal(
                remote.batch_range_count(data, EPS),
                serial.batch_range_count(data, EPS),
            )

    def test_scalar_queries(self, name, kwargs, data, pool):
        # range_query / range_count travel as one-row batches.
        remote, serial = self._pair(name, kwargs, data, pool)
        with remote, serial:
            for i in (0, 17, 41):
                assert np.array_equal(
                    remote.range_query(data[i], EPS), serial.range_query(data[i], EPS)
                )
                assert remote.range_count(data[i], EPS) == serial.range_count(
                    data[i], EPS
                )


@pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
class TestClusterersMatchSerial:
    def test_dbscan_labels_bit_identical(self, name, kwargs, data, pool):
        spec = IndexSpec(name, kwargs)
        baseline = DBSCAN(eps=EPS, tau=TAU, execution=serial_execution(index=spec))
        remote = DBSCAN(
            eps=EPS, tau=TAU, execution=remote_execution(pool, index=spec)
        )
        expected = baseline.fit(data)
        got = remote.fit(data)
        assert np.array_equal(expected.labels, got.labels)
        assert np.array_equal(expected.core_mask, got.core_mask)

    def test_laf_dbscan_labels_bit_identical(self, name, kwargs, data, pool):
        spec = IndexSpec(name, kwargs)
        estimator = ExactCardinalityEstimator()
        baseline = LAFDBSCAN(
            eps=EPS,
            tau=TAU,
            estimator=estimator,
            seed=0,
            execution=serial_execution(index=spec),
        ).fit(data)
        got = LAFDBSCAN(
            eps=EPS,
            tau=TAU,
            estimator=estimator,
            seed=0,
            execution=remote_execution(pool, index=spec),
        ).fit(data)
        assert np.array_equal(baseline.labels, got.labels)


class TestWarmReuse:
    def test_second_fit_pays_zero_inner_builds(self, data, pool):
        execution = remote_execution(pool)
        first = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        second = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        assert np.array_equal(first.labels, second.labels)
        assert second.stats["shard_inner_builds"] == 0
        assert second.stats["shard_rebalances"] == 0

    def test_new_eps_reuses_eps_independent_indexes(self, data, pool):
        # Range queries parameterize eps per call: a warm brute-force
        # shard serves any eps without rebuilding.
        spec = IndexSpec("brute_force", {"block_size": 64})
        execution = remote_execution(pool, index=spec)
        DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        other_eps = DBSCAN(eps=EPS - 0.1, tau=TAU, execution=execution).fit(data)
        assert other_eps.stats["shard_inner_builds"] == 0

    def test_persisted_artifact_reattaches_warm(self, data, pool, tmp_path):
        from repro.persistence import load_index, save_index

        built = ShardedIndex(n_shards=3, executor="serial").build(data)
        with built:
            save_index(built, tmp_path / "sharded")
            expected = built.batch_range_query(data[:8], EPS)

        loaded = load_index(tmp_path / "sharded", executor=pool.executor_spec())
        with loaded:
            got = loaded.batch_range_query(data[:8], EPS)
            first_builds = loaded.stats()["shard_inner_builds"]
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

        again = load_index(tmp_path / "sharded", executor=pool.executor_spec())
        with again:
            again.batch_range_query(data[:8], EPS)
            assert again.stats()["shard_inner_builds"] == 0
        assert first_builds == 3


class TestPoolLifecycle:
    def test_ping_reports_one_pid_per_worker(self, pool):
        pids = pool.ping()
        assert len(pids) == 2
        assert pids == pool.worker_pids

    def test_executor_spec_carries_the_addresses(self, pool):
        spec = pool.executor_spec(retries=1)
        assert spec == ExecutorSpec(
            "remote", {"addresses": pool.addresses, "retries": 1}
        )

    def test_unreachable_worker_raises_typed_error(self, data):
        # A port nothing listens on: connection refused, no survivors.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        execution = ExecutionConfig(
            sharding=ShardingConfig(
                n_shards=2,
                executor=ExecutorSpec(
                    "remote", {"addresses": [f"127.0.0.1:{port}"]}
                ),
            )
        )
        with pytest.raises(RemoteExecutorError):
            DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)


# ----------------------------------------------------------------------
# Fault injection (fork-gated: monkeypatched shard ops must reach the
# worker processes by inheritance, and worker pids must be killable).
# ----------------------------------------------------------------------

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method (monkeypatch inheritance)",
)


def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("fault-injection choreography timed out")
        time.sleep(0.01)


@fork_only
class TestFaultInjection:
    def test_worker_killed_mid_fit_rebalances_bit_identically(
        self, data, monkeypatch, tmp_path
    ):
        target_file = tmp_path / "target_pid"
        ready_file = tmp_path / "entered"
        original = sharded_mod._SHARD_OPS["range"]

        def doomed_range(index, Q, eps):
            # Only the targeted worker stalls (announcing itself first);
            # its sibling keeps serving so the rebalance has a survivor.
            if target_file.exists() and int(target_file.read_text()) == os.getpid():
                ready_file.touch()
                time.sleep(60.0)
            return original(index, Q, eps)

        monkeypatch.setitem(sharded_mod._SHARD_OPS, "range", doomed_range)
        with WorkerPool.spawn_local(2) as pool:
            baseline = DBSCAN(eps=EPS, tau=TAU, execution=serial_execution()).fit(
                data
            )
            victim = pool.worker_pids[0]
            target_file.write_text(str(victim))

            def assassinate():
                _wait_for(ready_file.exists)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=assassinate)
            killer.start()
            try:
                result = DBSCAN(
                    eps=EPS, tau=TAU, execution=remote_execution(pool)
                ).fit(data)
            finally:
                killer.join(timeout=30)
                target_file.unlink()
            assert np.array_equal(baseline.labels, result.labels)
            assert result.stats["shard_rebalances"] >= 1

    def test_timeout_exhausts_retries_without_poisoning_the_pool(
        self, data, monkeypatch, tmp_path
    ):
        stall_file = tmp_path / "stall"
        original = sharded_mod._SHARD_OPS["range"]

        def stalling_range(index, Q, eps):
            if stall_file.exists():
                time.sleep(2.0)
            return original(index, Q, eps)

        monkeypatch.setitem(sharded_mod._SHARD_OPS, "range", stalling_range)
        with WorkerPool.spawn_local(2) as pool:
            execution = remote_execution(pool, timeout_s=0.3, retries=1)
            stall_file.touch()
            with pytest.raises(RetryExhaustedError, match="timed"):
                DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
            stall_file.unlink()
            # One timed-out block does not poison the pool: the same
            # spec (same workers) serves the next fit normally.
            baseline = DBSCAN(eps=EPS, tau=TAU, execution=serial_execution()).fit(
                data
            )
            result = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
            assert np.array_equal(baseline.labels, result.labels)
            assert len(pool.ping()) == 2

    def test_every_worker_dead_raises_typed_error(self, data):
        pool = WorkerPool.spawn_local(2)
        try:
            execution = remote_execution(pool)
            DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
            for proc, pid in zip(pool._processes, pool.worker_pids):
                os.kill(pid, signal.SIGKILL)
                proc.join(timeout=30)
            with pytest.raises(WorkerUnavailableError):
                DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        finally:
            pool.shutdown()
