"""Shared fixtures for the paper-reproduction benchmarks.

Scales are chosen so the whole suite runs in minutes on one machine
while preserving the paper's relative dataset sizes. Override via
environment variables:

* ``REPRO_BENCH_SCALE``  — fraction of the paper's dataset sizes
  (default 0.03; the paper itself is scale 1.0);
* ``REPRO_BENCH_HEADLINE_SCALE`` — larger scale used for the
  DBSCAN-vs-LAF headline timing (default 0.12);
* ``REPRO_BENCH_EPOCHS`` — RMI training epochs (default 40).

Every benchmark writes its measured rows as JSON under
``benchmarks/out/``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.workloads import Workload, prepare_workload

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))
HEADLINE_SCALE = float(os.environ.get("REPRO_BENCH_HEADLINE_SCALE", "0.12"))
ESTIMATOR_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "40"))
SEED = 0

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def out_path(name: str) -> str:
    """Destination for one benchmark's JSON results."""
    return os.path.join(OUT_DIR, name)


def bench_workload(name: str, scale: float = BENCH_SCALE) -> Workload:
    """Memoized dataset + split + trained estimator at benchmark scale."""
    return prepare_workload(
        name,
        scale=scale,
        seed=SEED,
        epochs=ESTIMATOR_EPOCHS,
        n_train_queries=500,
        hidden_layers=(64, 64, 32),
    )


@pytest.fixture(scope="session")
def ms_workloads() -> dict[str, Workload]:
    """The MS scalability trio (Tables 2/4/5, Figure 4)."""
    return {name: bench_workload(name) for name in ("MS-50k", "MS-100k", "MS-150k")}


@pytest.fixture(scope="session")
def largest_workloads() -> dict[str, Workload]:
    """The three largest datasets (Table 3, Figure 1)."""
    return {
        name: bench_workload(name) for name in ("NYT-150k", "Glove-150k", "MS-150k")
    }
