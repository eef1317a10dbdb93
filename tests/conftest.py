"""Shared fixtures for the unit test suite.

The reference implementations and data generators live in
:mod:`repro.testing` (a stable module path both test trees and
downstream users can import); tests import helpers from there directly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.laf
from repro.core import post_process
from repro.distances import normalize_rows
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere

# tools/ holds dev-only packages (reprolint) that are not part of the
# installed distribution; make them importable for the suite regardless
# of how PYTHONPATH was set up.
_TOOLS_DIR = str(Path(__file__).resolve().parent.parent / "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

# pytester drives the sanitizer-plugin tests via real sub-runs.
pytest_plugins = ["pytester"]

# ---------------------------------------------------------------------------
# Data fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def unit_vectors_small() -> np.ndarray:
    """60 random unit vectors in 16-d (generic geometry fixture)."""
    rng = np.random.default_rng(7)
    return normalize_rows(rng.normal(size=(60, 16)))


@pytest.fixture(scope="session")
def blob_data() -> tuple[np.ndarray, np.ndarray]:
    """3 tight blobs of 40 points each in 32-d, with labels."""
    return make_blobs_on_sphere(40, 3, 32, spread=0.12, seed=3)


@pytest.fixture(scope="session")
def clusterable_data() -> np.ndarray:
    """Blobs plus uniform noise: realistic DBSCAN input (150 points)."""
    rng = np.random.default_rng(11)
    X, _ = make_blobs_on_sphere(40, 3, 32, spread=0.12, seed=3)
    noise = normalize_rows(rng.normal(size=(30, 32)))
    return np.vstack([X, noise])


# ---------------------------------------------------------------------------
# Execution fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def worker_pool():
    """A two-worker local pool that sharded tests run their shards on.

    Shared by the whole session, so its shard caches are warm from
    earlier tests: a test that counts ``shard_inner_builds`` spawns its
    own pool. Request it as a test parameter (not lazily) so it is up
    before the sanitizer's per-test resource snapshot.
    """
    with WorkerPool.spawn_local(2) as pool:
        yield pool


@pytest.fixture(scope="session")
def one_worker_pool():
    """A one-worker local pool: every shard is pinned to the same worker.

    Its calls run one after another on one connection, where the
    two-worker pool splits them. Shared and warm like ``worker_pool``.
    """
    with WorkerPool.spawn_local(1) as pool:
        yield pool


# ---------------------------------------------------------------------------
# LAF fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def fit_with_E():
    """``fit_with_E(clusterer, X) -> (result, E)``: a LAF fit and the map
    ``E`` it handed to Algorithm 3, read by wrapping
    ``repro.core.laf.post_process``, the name ``LAF.finalize`` calls.
    Post-processing must be on."""

    def fit(clusterer, X):
        seen = []

        def capture(labels, E, tau):
            seen.append(E)
            return post_process(labels, E, tau)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.core.laf, "post_process", capture)
            result = clusterer.fit(X)
        (E,) = seen
        return result, E

    return fit
