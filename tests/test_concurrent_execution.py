"""Thread-safety regression: concurrent fits with different configs.

The redesign's core promise: execution policy lives in the
``ExecutionConfig`` each clusterer holds, never in module state, so two
threads fitting concurrently with *different* sharding settings cannot
corrupt each other. Before the redesign a process-wide mutable global
(`_ACTIVE_SHARDING`) made exactly that interleaving unsafe.

These tests are deliberately self-contained (no shared fixtures, no
ambient state) so they stay valid under ``pytest -p no:randomly`` and
``pytest -n auto`` alike.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import ExecutionConfig, ShardingConfig
from repro.clustering import DBSCAN
from repro.testing import make_blobs_on_sphere

EPS = 0.5
TAU = 4
N_FITS_PER_THREAD = 3


def _data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(30, 3, 16, spread=0.25, seed=7)
    return X


class TestConcurrentFits:
    def test_different_sharding_configs_do_not_interfere(self):
        """1-shard and 4-shard fits interleave; each keeps its own config.

        Both threads run several fits back to back (maximizing overlap
        via a start barrier) and each result must match its own
        single-threaded reference labels *and* report its own
        ``shard_live_shards`` — a fit observing the other thread's shard
        count is exactly the corruption the old global allowed.
        """
        X = _data()
        reference = DBSCAN(eps=EPS, tau=TAU).fit(X)
        configs = {
            1: ExecutionConfig(sharding=ShardingConfig(n_shards=1)),
            4: ExecutionConfig(sharding=ShardingConfig(n_shards=4)),
        }
        barrier = threading.Barrier(len(configs))
        results: dict[int, list] = {n: [] for n in configs}
        errors: list[BaseException] = []

        def run(n_shards: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(N_FITS_PER_THREAD):
                    clusterer = DBSCAN(eps=EPS, tau=TAU, execution=configs[n_shards])
                    results[n_shards].append(clusterer.fit(X))
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(n,), name=f"shards-{n}")
            for n in configs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for n_shards, fits in results.items():
            assert len(fits) == N_FITS_PER_THREAD
            for result in fits:
                assert np.array_equal(result.labels, reference.labels)
                # Each fit reports *its own* execution, not the other
                # thread's: live shards == its config's shard count.
                assert result.stats["shard_live_shards"] == n_shards
                assert result.stats["shard_inner_builds"] == n_shards

    def test_sharded_and_unsharded_fits_interleave(self):
        """An unsharded fit next to a sharded one never picks up shards."""
        X = _data()
        reference = DBSCAN(eps=EPS, tau=TAU).fit(X)
        barrier = threading.Barrier(2)
        outputs: dict[str, list] = {"sharded": [], "plain": []}
        errors: list[BaseException] = []

        def run(kind: str) -> None:
            try:
                execution = (
                    ExecutionConfig(sharding=ShardingConfig(n_shards=3))
                    if kind == "sharded"
                    else None
                )
                barrier.wait(timeout=30)
                for _ in range(N_FITS_PER_THREAD):
                    outputs[kind].append(
                        DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(X)
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(kind,)) for kind in ("sharded", "plain")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for result in outputs["sharded"]:
            assert np.array_equal(result.labels, reference.labels)
            assert result.stats["shard_live_shards"] == 3
        for result in outputs["plain"]:
            assert np.array_equal(result.labels, reference.labels)
            assert "shard_live_shards" not in result.stats

