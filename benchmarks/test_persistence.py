"""Benchmark: loading a saved model vs fitting it again.

The persistence layer's headline claim is that ``load_model()`` is a
manifest-validation plus ``mmap`` reattach — no distance computations,
no clustering — so it must beat refitting the model by a wide margin.
The tracked metric is ``load_vs_fit_speedup``: the seconds of
``DBSCAN.fit_model`` over the seconds of ``load_model`` on the same
data, same machine, same run, recorded to
``benchmarks/out/persistence_n{N}.json`` for the CI regression gate.

Checksum verification reads every artifact byte, so ``verify=True``
load time scales with artifact size where the mmap reattach itself is
O(metadata); both are recorded (``load_s`` is the verified load — the
default and what users get — ``load_noverify_s`` is informational).

A correctness spot-check runs before anything is timed: the loaded
model must predict exactly what the fitted one predicts.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import out_path

from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.persistence import load_model
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_PERSIST_BENCH_N", "4096"))
DIM = 64
EPS = 0.25
TAU = 5
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _load_closed(path, **kwargs) -> None:
    load_model(path, **kwargs).close()


def test_load_vs_fit(tmp_path):
    X, _ = make_blobs_on_sphere(N // 8, 8, DIM, spread=0.7, seed=0)
    X = np.vstack([X] * (N // X.shape[0] + 1))[:N]
    queries = np.vstack(
        [X[:64], normalize_rows(np.random.default_rng(1).normal(size=(64, DIM)))]
    )

    clusterer = DBSCAN(eps=EPS, tau=TAU)
    path = tmp_path / "model"
    with clusterer.fit_model(X) as fitted:
        fitted.save(path)
        expected = fitted.predict(queries)
    with load_model(path) as loaded:
        assert np.array_equal(loaded.predict(queries), expected)

    t_fit = _best_of(lambda: clusterer.fit_model(X).close())
    t_load = _best_of(lambda: _load_closed(path))
    t_load_noverify = _best_of(lambda: _load_closed(path, verify=False))
    model_row = {
        "method": "load_vs_fit",
        "algo": "dbscan",
        "n": N,
        "dim": DIM,
        "eps": EPS,
        "tau": TAU,
        "fit_s": t_fit,
        "load_s": t_load,
        "load_noverify_s": t_load_noverify,
        "load_vs_fit_speedup": t_fit / t_load,
    }

    print()
    print(
        f"dbscan model: fit {t_fit:.4f}s, load {t_load:.4f}s "
        f"(noverify {t_load_noverify:.4f}s) -> "
        f"{model_row['load_vs_fit_speedup']:.1f}x"
    )
    write_benchmark_rows(out_path(f"persistence_n{N}.json"), [model_row])

    # Acceptance criterion: a verified load is >= 3x faster than a refit.
    assert model_row["load_vs_fit_speedup"] >= 3.0, (
        f"verified model load only {model_row['load_vs_fit_speedup']:.1f}x "
        "faster than refitting"
    )
