"""Benchmark: loading a saved model vs fitting it again.

The persistence layer's headline claim is that ``load_model()`` is a
manifest-validation plus ``mmap`` reattach — no distance computations,
no clustering — so it must beat refitting the model by a wide margin.
The tracked metric is ``load_vs_gram_speedup``: the seconds of a fixed
numpy Gram product ``X @ X.T`` of the benchmark's data over the seconds
of ``load_model``, same machine, same run, recorded to
``benchmarks/out/persistence_n{N}.json`` for the CI regression gate.
No change to this package moves the numerator, so the ratio moves with
the load alone. ``fit_s`` (a ``DBSCAN.fit_model``) is recorded for
information: a faster fit must not read as a slower load.

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
    t_gram = _best_of(lambda: X @ X.T)
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
        "gram_s": t_gram,
        "load_s": t_load,
        "load_noverify_s": t_load_noverify,
        "load_vs_gram_speedup": t_gram / t_load,
    }

    print()
    print(
        f"dbscan model: fit {t_fit:.4f}s, gram {t_gram:.4f}s, load "
        f"{t_load:.4f}s (noverify {t_load_noverify:.4f}s) -> "
        f"{t_fit / t_load:.1f}x a fit, "
        f"{model_row['load_vs_gram_speedup']:.1f}x the gram"
    )
    write_benchmark_rows(out_path(f"persistence_n{N}.json"), [model_row])

    # Acceptance criterion: a verified load is >= 3x faster than a refit.
    assert t_fit / t_load >= 3.0, (
        f"verified model load only {t_fit / t_load:.1f}x faster than refitting"
    )
