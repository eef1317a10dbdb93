"""Thread-safety regression: concurrent fits with different configs.

The redesign's core promise: execution policy lives in the
``ExecutionConfig`` each clusterer holds, never in module state, so two
threads fitting concurrently with *different* sharding settings cannot
corrupt each other. Before the redesign a process-wide mutable global
(`_ACTIVE_SHARDING`) made exactly that interleaving unsafe.

These tests are deliberately self-contained (no shared fixtures, no
ambient state) so they stay valid under ``pytest -p no:randomly`` and
``pytest -n auto`` alike: each spawns the worker pool its sharded fits
share, so its shard caches start cold.
"""

from __future__ import annotations

import copy
import sys
import threading
import types

import numpy as np

import repro.estimators.base as estimators_base
from repro import ExecutionConfig, ShardingConfig
from repro.clustering import DBSCAN, DBSCANPlusPlus
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere

EPS = 0.5
TAU = 4
N_FITS_PER_THREAD = 3


def _data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(30, 3, 16, spread=0.25, seed=7)
    return X


def _sharded(pool: WorkerPool, n_shards: int) -> ExecutionConfig:
    return ExecutionConfig(
        sharding=ShardingConfig(n_shards=n_shards, executor=pool.executor_spec())
    )


def _run_threads(targets: dict) -> None:
    """Start one thread per ``name -> fn``, join them, raise what they raised."""
    errors: list[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(fn,), name=name)
        for name, fn in targets.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a fit thread hung"
    assert not errors, errors


class TestConcurrentFits:
    def test_different_sharding_configs_do_not_interfere(self):
        """1-shard and 4-shard fits interleave; each keeps its own config.

        Both threads run several fits back to back (maximizing overlap
        via a start barrier) and each result must match its own
        single-threaded reference labels *and* report its own
        ``shard_live_shards`` — a fit observing the other thread's shard
        count is exactly the corruption the old global allowed. Both
        share one pool, whose warm cache spares every fit after a
        config's first its builds.
        """
        X = _data()
        reference = DBSCAN(eps=EPS, tau=TAU).fit(X)
        results: dict[int, list] = {1: [], 4: []}
        barrier = threading.Barrier(len(results))

        def run(execution: ExecutionConfig, out: list) -> None:
            barrier.wait(timeout=30)
            for _ in range(N_FITS_PER_THREAD):
                out.append(DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X))

        with WorkerPool.spawn_local(2) as pool:
            _run_threads(
                {
                    f"shards-{n}": lambda n=n: run(_sharded(pool, n), results[n])
                    for n in results
                }
            )
        for n_shards, fits in results.items():
            assert len(fits) == N_FITS_PER_THREAD
            for result in fits:
                assert np.array_equal(result.labels, reference.labels)
                # Each fit reports *its own* execution, not the other
                # thread's: live shards == its config's shard count.
                assert result.stats["shard_live_shards"] == n_shards
            builds = [result.stats["shard_inner_builds"] for result in fits]
            assert builds == [n_shards] + [0] * (N_FITS_PER_THREAD - 1)

    def test_sharded_and_unsharded_fits_interleave(self):
        """An unsharded fit next to a sharded one never picks up shards."""
        X = _data()
        reference = DBSCAN(eps=EPS, tau=TAU).fit(X)
        barrier = threading.Barrier(2)
        outputs: dict[str, list] = {"sharded": [], "plain": []}

        def run(execution: ExecutionConfig | None, out: list) -> None:
            barrier.wait(timeout=30)
            for _ in range(N_FITS_PER_THREAD):
                out.append(DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X))

        with WorkerPool.spawn_local(2) as pool:
            _run_threads(
                {
                    "sharded": lambda: run(_sharded(pool, 3), outputs["sharded"]),
                    "plain": lambda: run(None, outputs["plain"]),
                }
            )
        for result in outputs["sharded"]:
            assert np.array_equal(result.labels, reference.labels)
            assert result.stats["shard_live_shards"] == 3
        for result in outputs["plain"]:
            assert np.array_equal(result.labels, reference.labels)
            assert "shard_live_shards" not in result.stats


    def test_concurrent_fits_sharing_one_pool_stay_exact(self):
        """More fitting threads than workers (and cores), one pool, one
        config: every fit is exact, and across all of them each shard
        is built exactly once (the workers' cache settles concurrent
        first sights of a shard on one build)."""
        n_threads, n_shards = 4, 3
        X = _data()
        reference = DBSCAN(eps=EPS, tau=TAU).fit(X)
        results: list = []
        barrier = threading.Barrier(n_threads)

        def run(execution: ExecutionConfig) -> None:
            barrier.wait(timeout=30)
            for _ in range(N_FITS_PER_THREAD):
                results.append(DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X))

        with WorkerPool.spawn_local(2) as pool:
            execution = _sharded(pool, n_shards)
            _run_threads({f"fit-{i}": lambda: run(execution) for i in range(n_threads)})
        assert len(results) == n_threads * N_FITS_PER_THREAD
        for result in results:
            assert np.array_equal(result.labels, reference.labels)
            assert np.array_equal(result.core_mask, reference.core_mask)
            assert result.stats["shard_rebalances"] == 0
        assert sum(r.stats["shard_inner_builds"] for r in results) == n_shards

    def test_shared_sampling_instances_repeat_a_fresh_fit(self):
        """Threads share one DBSCAN++ and one LAF-DBSCAN++ instance (and
        its estimator). Each fit draws its sample from a generator it
        makes from the instance's seed, so every fit equals a fresh
        instance's, however the threads interleave."""
        X = _data()
        estimator = SamplingCardinalityEstimator(sample_size=30, seed=0).fit(X)

        def dbscanpp():
            return DBSCANPlusPlus(eps=EPS, tau=TAU, p=0.3, seed=4)

        def laf_dbscanpp():
            return LAFDBSCANPlusPlus(
                eps=EPS, tau=TAU, estimator=estimator, p=0.3, alpha=1.5, seed=4
            )

        builders = {"dbscan++": dbscanpp, "laf-dbscan++": laf_dbscanpp}
        shared = {name: build() for name, build in builders.items()}
        outputs: dict[str, list] = {name: [] for name in builders}
        threads_per_instance = 2
        barrier = threading.Barrier(len(builders) * threads_per_instance)

        def run(name: str) -> None:
            barrier.wait(timeout=30)
            for _ in range(N_FITS_PER_THREAD):
                outputs[name].append(shared[name].fit(X))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-fit
        try:
            _run_threads(
                {
                    f"{name}-{i}": lambda name=name: run(name)
                    for name in builders
                    for i in range(threads_per_instance)
                }
            )
        finally:
            sys.setswitchinterval(interval)
        for name, build in builders.items():
            reference = build().fit(X)
            assert len(outputs[name]) == threads_per_instance * N_FITS_PER_THREAD
            for result in outputs[name]:
                assert np.array_equal(result.labels, reference.labels), name
                assert np.array_equal(result.core_mask, reference.core_mask), name

    def test_shared_estimator_binds_a_copy_under_a_forced_interleave(
        self, monkeypatch
    ):
        """Two threads share one LAF-DBSCAN and its estimator, each fitting
        its own dataset. A barrier holds each ``bind`` between copying the
        estimator and binding the copy, so both threads are inside ``bind``
        together. Each fit equals a fresh single-threaded fit, and the
        shared estimator is unchanged: ``bind`` writes only onto its copy."""
        datasets = {
            "a": _data(),
            "b": make_blobs_on_sphere(20, 4, 16, spread=0.3, seed=3)[0],
        }
        estimator = ExactCardinalityEstimator()
        shared = LAFDBSCAN(eps=EPS, tau=TAU, estimator=estimator, alpha=1.3)
        before = dict(vars(estimator))
        barrier = threading.Barrier(len(datasets))

        def copy_then_wait(obj):
            duplicate = copy.copy(obj)
            barrier.wait(timeout=30)
            return duplicate

        monkeypatch.setattr(
            estimators_base, "copy", types.SimpleNamespace(copy=copy_then_wait)
        )
        outputs: dict[str, list] = {name: [] for name in datasets}

        def run(name: str) -> None:
            for _ in range(N_FITS_PER_THREAD):
                outputs[name].append(shared.fit(datasets[name]))

        _run_threads({name: lambda name=name: run(name) for name in datasets})
        monkeypatch.undo()
        assert vars(estimator).keys() == before.keys()
        assert all(vars(estimator)[key] is value for key, value in before.items())
        for name, X in datasets.items():
            fresh = LAFDBSCAN(
                eps=EPS, tau=TAU, estimator=ExactCardinalityEstimator(), alpha=1.3
            ).fit(X)
            assert len(outputs[name]) == N_FITS_PER_THREAD
            for result in outputs[name]:
                assert np.array_equal(result.labels, fresh.labels), name
                assert np.array_equal(result.core_mask, fresh.core_mask), name
                assert result.stats == fresh.stats, name
