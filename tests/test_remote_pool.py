"""The remote worker pool: protocol, differential, warm reuse, faults.

Contracts under test:

* **Wire protocol** — framed header+arrays round-trip exactly; a clean
  EOF at a frame boundary reads as None; garbage raises the typed
  :class:`~repro.exceptions.RemoteProtocolError`.
* **Invisible distribution** — a fit sharded on a localhost 2-worker
  pool is bit-identical to the unsharded path (one in-process
  brute-force index): ShardedIndex queries in both metrics, and the
  labels of every engine-routed clusterer end to end.
* **Warm reuse** — a second fit against the same pool attaches to the
  workers' cached shard indexes and reports
  ``shard_inner_builds == 0`` in ``ClusteringResult.stats``.
* **Robustness** (fork-gated) — a worker killed mid-fit gets its
  shards rebalanced to the survivors with bit-identical labels and
  ``shard_rebalances >= 1``; exhausted per-call timeouts raise the typed
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
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.index.sharded as sharded_mod
import repro.remote.pool as pool_mod
from repro.clustering import DBSCAN, BlockDBSCAN, DBSCANPlusPlus, RhoApproxDBSCAN
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.engine_config import ExecutionConfig
from repro.estimators import ExactCardinalityEstimator
from repro.exceptions import (
    InvalidParameterError,
    RemoteExecutorError,
    RemoteProtocolError,
    RetryExhaustedError,
    WorkerUnavailableError,
)
from repro.index import BruteForceIndex
from repro.index.base import pair_counts
from repro.index.sharded import ExecutorSpec, ShardedIndex, ShardingConfig
from repro.remote import worker as _worker
from repro.remote.pool import WorkerPool, _WorkerClient
from repro.remote.protocol import recv_msg, send_msg
from repro.remote.worker import ShardHolder, dataset_fingerprint
from repro.testing import make_blobs_on_sphere

EPS = 0.55
TAU = 4


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 3, 10, spread=0.2, seed=7)
    return X


@pytest.fixture(scope="module")
def pool():
    with WorkerPool.spawn_local(2) as pool:
        yield pool


#: The engine-routed clusterers besides DBSCAN and LAF-DBSCAN, as
#: factories taking an execution config.
OTHER_CLUSTERERS = {
    "block_dbscan": lambda execution: BlockDBSCAN(
        eps=EPS, tau=TAU, execution=execution
    ),
    "dbscanpp": lambda execution: DBSCANPlusPlus(
        eps=EPS, tau=TAU, p=0.5, seed=0, execution=execution
    ),
    "laf_dbscanpp": lambda execution: LAFDBSCANPlusPlus(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        seed=0,
        execution=execution,
    ),
    "rho_approx": lambda execution: RhoApproxDBSCAN(
        eps=0.05, tau=10, rho=0.01, execution=execution
    ),
}


def remote_execution(pool, n_shards=3, **options) -> ExecutionConfig:
    return ExecutionConfig(
        sharding=ShardingConfig(
            n_shards=n_shards, executor=pool.executor_spec(**options)
        ),
    )


def whole_dataset_shard(X: np.ndarray) -> tuple[str, dict]:
    """The fingerprint of ``X`` and a query spec of one shard over all of it."""
    fingerprint = dataset_fingerprint(X)
    shard = {
        "dataset": fingerprint,
        "metric": "cosine",
        "shard_id": 0,
        "lo": 0,
        "hi": len(X),
    }
    return fingerprint, shard


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

    def test_worker_rejects_unknown_request_op(self, pool):
        # An unknown request gets the typed error reply and the
        # connection keeps serving.
        host, _, port = pool.addresses[0].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            send_msg(sock, {"op": "knn"})
            reply, _ = recv_msg(sock)
            assert reply["error"] == {
                "type": "RemoteProtocolError",
                "message": "unknown pool request op 'knn'",
            }
            send_msg(sock, {"op": "ping"})
            assert recv_msg(sock)[0]["ok"]

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((2, 2), dtype=np.int64),
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([0, -1], dtype=np.int64),
            np.array([0, 10**6], dtype=np.int64),
        ],
        ids=["2d", "float", "bool", "negative", "past_the_end"],
    )
    def test_worker_rejects_bad_query_rows(self, pool, data, rows):
        # Row ids index the worker's held dataset; a bad array is the
        # typed, non-retryable protocol error, not an IndexError.
        fingerprint, shard = whole_dataset_shard(data)
        host, _, port = pool.addresses[0].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            put = {"op": "put_dataset", "fingerprint": fingerprint}
            send_msg(sock, put, {"X": data})
            assert recv_msg(sock)[0]["ok"]
            header = {"op": "query", "arg": EPS, "shard": shard}
            send_msg(sock, header, {"rows": rows})
            reply, _ = recv_msg(sock)
            assert reply["error"]["type"] == "RemoteProtocolError"
            assert "query rows" in reply["error"]["message"]
            send_msg(sock, header, {"rows": np.arange(3, dtype=np.int64)})
            reply, arrays = recv_msg(sock)
            assert "error" not in reply
            assert len(arrays["indptr"]) == 4

    def test_bad_query_rows_surface_without_retry(self, pool, data):
        client = _WorkerClient(pool.addresses[0], 10.0, 10.0)
        fingerprint, shard = whole_dataset_shard(data)
        try:
            client.call({"op": "put_dataset", "fingerprint": fingerprint}, {"X": data})
            header = {"op": "query", "arg": EPS, "shard": shard}
            with pytest.raises(RemoteExecutorError, match="RemoteProtocolError"):
                client.call(header, {"rows": np.array([-1], dtype=np.int64)})
        finally:
            client.close()

    def test_bad_magic_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP/1.1 200 OK\r\n")
            with pytest.raises(RemoteProtocolError, match="magic"):
                recv_msg(b)
        finally:
            a.close()
            b.close()


class TestShardHolder:
    def test_attach_builds_once_over_a_view_of_the_held_dataset(self, data):
        holder = ShardHolder()
        fingerprint, shard = whole_dataset_shard(data)
        holder.put_dataset(fingerprint, data)
        shard.update(shard_id=1, lo=10, hi=20)
        index, built = holder.attach(shard)
        assert built
        assert holder.attach(shard) == (index, False)
        # The shard's float64 rows are a view of the held dataset; a
        # cosine shard's own memory is its float32 copy.
        assert np.shares_memory(index.points, data)
        assert np.array_equal(index.points, data[10:20])


@pytest.mark.parametrize(
    "metric,query_block",
    [("cosine", 2048), ("cosine", 5), ("euclidean", 2048)],
    ids=["cosine", "cosine_small_query_block", "euclidean"],
)
class TestShardedQueriesMatchOneIndex:
    def _pair(self, metric, query_block, data, pool):
        remote = ShardedIndex(
            metric=metric,
            n_shards=3,
            executor=pool.executor_spec(),
            query_block=query_block,
        ).build(data)
        return remote, BruteForceIndex(metric=metric).build(data)

    def test_batch_range_query(self, metric, query_block, data, pool):
        remote, single = self._pair(metric, query_block, data, pool)
        with remote:
            got = remote.batch_range_query(data, EPS)
        expected = single.batch_range_query(data, EPS)
        assert len(got) == len(expected)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_join_counts(self, metric, query_block, data, pool):
        # A sampling host's core test on remote shards: the join ships
        # neighbour ids, and pair_counts of them are the rows' counts.
        remote, single = self._pair(metric, query_block, data, pool)
        rows = np.arange(1, len(data), 2)
        with remote:
            pairs = remote.range_pairs(EPS, rows=rows)
        counts = pair_counts(pairs, len(data))[rows]
        assert np.array_equal(counts, single.batch_range_count(data[rows], EPS))


class TestClusterersMatchUnsharded:
    def test_dbscan_labels_bit_identical(self, data, pool):
        baseline = DBSCAN(eps=EPS, tau=TAU)
        remote = DBSCAN(eps=EPS, tau=TAU, execution=remote_execution(pool))
        expected = baseline.fit(data)
        got = remote.fit(data)
        assert np.array_equal(expected.labels, got.labels)
        assert np.array_equal(expected.core_mask, got.core_mask)

    def test_laf_dbscan_labels_bit_identical(self, data, pool):
        estimator = ExactCardinalityEstimator()
        baseline = LAFDBSCAN(
            eps=EPS,
            tau=TAU,
            estimator=estimator,
            seed=0,
        ).fit(data)
        got = LAFDBSCAN(
            eps=EPS,
            tau=TAU,
            estimator=estimator,
            seed=0,
            execution=remote_execution(pool),
        ).fit(data)
        assert np.array_equal(baseline.labels, got.labels)

    @pytest.mark.parametrize("name", sorted(OTHER_CLUSTERERS))
    def test_other_engine_routed_clusterers_bit_identical(self, name, data, pool):
        make = OTHER_CLUSTERERS[name]
        expected = make(None).fit(data)
        got = make(remote_execution(pool)).fit(data)
        assert np.array_equal(expected.labels, got.labels)
        assert np.array_equal(expected.core_mask, got.core_mask)


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
        execution = remote_execution(pool, n_shards=2)
        DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        other_eps = DBSCAN(eps=EPS - 0.1, tau=TAU, execution=execution).fit(data)
        assert other_eps.stats["shard_inner_builds"] == 0


class TestWireBytes:
    """Fits name their queries by row id; predict ships the new vectors."""

    @pytest.fixture
    def sent_arrays(self, monkeypatch):
        sent: list[dict] = []
        original = pool_mod.send_msg

        def spy(sock, header, arrays=None):
            sent.append(dict(arrays or {}))
            return original(sock, header, arrays)

        monkeypatch.setattr(pool_mod, "send_msg", spy)
        return sent

    def test_warm_fit_sends_row_ids_not_vectors(self, pool, sent_arrays):
        X, _ = make_blobs_on_sphere(50, 4, 256, spread=0.03, seed=3)
        n_shards = 3
        execution = remote_execution(pool, n_shards=n_shards)
        cold = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X)
        sent_arrays.clear()
        warm = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X)
        assert np.array_equal(cold.labels, warm.labels)
        assert warm.stats["shard_inner_builds"] == 0
        # The self-join names no row: its requests carry no array at all.
        assert sent_arrays and not any(sent_arrays)
        # A subset join (DBSCAN++'s sample) sends only its row ids.
        sent_arrays.clear()
        sampled = OTHER_CLUSTERERS["dbscanpp"](execution).fit(X)
        assert sampled.stats["shard_inner_builds"] == 0
        assert all(set(arrays) <= {"rows"} for arrays in sent_arrays)
        payload = sum(a.nbytes for arrays in sent_arrays for a in arrays.values())
        assert 0 < payload < 0.01 * n_shards * X.size * 8

    def test_remote_predict_still_sends_vectors(self, pool, data, sent_arrays):
        fitter = DBSCAN(eps=EPS, tau=TAU, execution=remote_execution(pool))
        expected = DBSCAN(eps=EPS, tau=TAU).fit_model(data).predict(data[:7])
        with fitter.fit_model(data) as model:
            sent_arrays.clear()
            labels = model.predict(data[:7])
        queries = [arrays["Q"] for arrays in sent_arrays if "Q" in arrays]
        assert queries and all(np.array_equal(Q, data[:7]) for Q in queries)
        assert not any("rows" in arrays for arrays in sent_arrays)
        assert np.array_equal(labels, expected)


class TestPoolLifecycle:
    def test_spawn_rejects_fractional_worker_count_before_forking(self):
        # Checked in the parent: a count the child rejects would leave the
        # spawner waiting out its whole start timeout for a worker that
        # never reports in.
        start = time.monotonic()
        with pytest.raises(InvalidParameterError, match="n_workers"):
            WorkerPool.spawn_local(2.5, start_timeout_s=30.0)
        assert time.monotonic() - start < 5.0

    def test_worker_module_runs_without_runtime_warning(self):
        # ``python -m`` warns when the package import already loaded the
        # module it is about to run.
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.remote.worker",
                "--help",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr

    def test_ping_reports_one_pid_per_worker(self, pool):
        pids = pool.ping()
        assert len(pids) == 2
        assert pids == pool.worker_pids

    def test_every_worker_runs_one_blas_thread(self, pool):
        if not _worker._blas_thread_controls():
            pytest.skip("no OpenBLAS thread control in this process")
        replies = []
        for address in pool.addresses:
            client = _WorkerClient(address, 10.0, 10.0)
            try:
                replies.append(client.call({"op": "ping"})[0])
            finally:
                client.close()
        assert [reply["blas_threads"] for reply in replies] == [1, 1]

    def test_executor_spec_carries_the_addresses(self, pool):
        spec = pool.executor_spec(retries=1)
        assert spec == ExecutorSpec(pool.addresses, retries=1)

    def test_unreachable_worker_raises_typed_error(self, data):
        # A port nothing listens on: connection refused, no survivors.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        execution = ExecutionConfig(
            sharding=ShardingConfig(
                n_shards=2,
                executor=ExecutorSpec([f"127.0.0.1:{port}"]),
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
        original = sharded_mod._op_pairs

        def doomed_join(*args):
            # Only the targeted worker stalls (announcing itself first);
            # its sibling keeps serving so the rebalance has a survivor.
            if target_file.exists() and int(target_file.read_text()) == os.getpid():
                ready_file.touch()
                time.sleep(60.0)
            return original(*args)

        monkeypatch.setattr(sharded_mod, "_op_pairs", doomed_join)
        with WorkerPool.spawn_local(2) as pool:
            baseline = DBSCAN(eps=EPS, tau=TAU).fit(data)
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
        original = sharded_mod._op_pairs

        def stalling_join(*args):
            if stall_file.exists():
                time.sleep(2.0)
            return original(*args)

        monkeypatch.setattr(sharded_mod, "_op_pairs", stalling_join)
        with WorkerPool.spawn_local(2) as pool:
            execution = remote_execution(pool, timeout_s=0.3, retries=1)
            stall_file.touch()
            with pytest.raises(RetryExhaustedError, match="timed"):
                DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
            stall_file.unlink()
            # One timed-out block does not poison the pool: the same
            # spec (same workers) serves the next fit normally.
            baseline = DBSCAN(eps=EPS, tau=TAU).fit(data)
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
