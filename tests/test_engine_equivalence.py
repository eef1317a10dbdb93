"""Differential harness: batched vs per-point query paths, per clusterer.

Every clusterer takes an ``ExecutionConfig`` — ``batch_queries=True``
(the default) routes neighborhood computation through the batched
engine, False keeps the scalar reference loop. The two paths must
produce identical clusterings (the engine only changes *how* queries
are computed, never *which* queries run or what the algorithm
observes), and the exact methods must also reproduce the independent
``reference_dbscan`` implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    DBSCAN,
    BlockDBSCAN,
    DBSCANPlusPlus,
    RhoApproxDBSCAN,
)
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.estimators import ExactCardinalityEstimator

from repro.testing import canonical, make_blobs_on_sphere, reference_dbscan

EPS = 0.5
TAU = 5


def _exec(b: bool, index: IndexSpec | None = None) -> ExecutionConfig:
    return ExecutionConfig(batch_queries=b, index=index)


# Every clusterer under test, as a factory taking batch_queries. Seeded
# components are constructed fresh per call so both paths see identical
# randomness.
CLUSTERERS = {
    "dbscan": lambda b: DBSCAN(eps=EPS, tau=TAU, execution=_exec(b)),
    "dbscan_small_block_index": lambda b: DBSCAN(
        eps=EPS,
        tau=TAU,
        execution=_exec(b, IndexSpec("brute_force", {"block_size": 7})),
    ),
    "dbscan_grid_index": lambda b: DBSCAN(
        eps=EPS,
        tau=TAU,
        execution=_exec(b, IndexSpec("grid", {"eps": EPS, "rho": 1.0})),
    ),
    "dbscanpp_uniform": lambda b: DBSCANPlusPlus(
        eps=EPS, tau=TAU, p=0.5, init="uniform", seed=0, execution=_exec(b)
    ),
    "dbscanpp_kcenter": lambda b: DBSCANPlusPlus(
        eps=EPS, tau=TAU, p=0.5, init="k-center", seed=0, execution=_exec(b)
    ),
    "block_dbscan": lambda b: BlockDBSCAN(eps=EPS, tau=TAU, execution=_exec(b)),
    "rho_approx": lambda b: RhoApproxDBSCAN(
        eps=EPS, tau=TAU, rho=1.0, execution=_exec(b)
    ),
    "laf_dbscan_oracle": lambda b: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=1.0,
        seed=0,
        execution=_exec(b),
    ),
    # alpha > 1 forces false negatives out of the oracle, exercising the
    # partial-neighbor map and the post-processing merge path.
    "laf_dbscan_false_negatives": lambda b: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=1.4,
        seed=0,
        execution=_exec(b),
    ),
    # alpha < 1 lowers the gate instead, producing false positives
    # (predicted core, found non-core after the executed query).
    "laf_dbscan_false_positives": lambda b: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=0.6,
        seed=0,
        execution=_exec(b),
    ),
    "laf_dbscanpp": lambda b: LAFDBSCANPlusPlus(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        alpha=1.0,
        seed=0,
        execution=_exec(b),
    ),
    "laf_dbscanpp_false_negatives": lambda b: LAFDBSCANPlusPlus(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        alpha=1.4,
        seed=0,
        execution=_exec(b),
    ),
}

#: Methods whose batched path must also reproduce reference_dbscan exactly.
EXACT_METHODS = (
    "dbscan",
    "dbscan_small_block_index",
    "dbscan_grid_index",
    "laf_dbscan_oracle",
)


@pytest.fixture(scope="module")
def blob_plus_noise() -> np.ndarray:
    rng = np.random.default_rng(11)
    X, _ = make_blobs_on_sphere(40, 3, 32, spread=0.12, seed=3)
    noise = normalize_rows(rng.normal(size=(30, 32)))
    return np.vstack([X, noise])


@pytest.mark.parametrize("name", list(CLUSTERERS))
class TestBatchedEqualsPerPoint:
    def test_identical_labels_on_blobs(self, name, blob_data):
        X, _ = blob_data
        batched = CLUSTERERS[name](True).fit(X)
        scalar = CLUSTERERS[name](False).fit(X)
        assert np.array_equal(canonical(batched.labels), canonical(scalar.labels))

    def test_identical_labels_on_blobs_plus_noise(self, name, blob_plus_noise):
        batched = CLUSTERERS[name](True).fit(blob_plus_noise)
        scalar = CLUSTERERS[name](False).fit(blob_plus_noise)
        assert np.array_equal(canonical(batched.labels), canonical(scalar.labels))

    def test_identical_core_masks(self, name, blob_plus_noise):
        batched = CLUSTERERS[name](True).fit(blob_plus_noise)
        scalar = CLUSTERERS[name](False).fit(blob_plus_noise)
        assert np.array_equal(batched.core_mask, scalar.core_mask)

    def test_same_executed_query_count(self, name, blob_plus_noise):
        """Batching must not change *which* queries execute."""
        batched = CLUSTERERS[name](True).fit(blob_plus_noise).stats
        scalar = CLUSTERERS[name](False).fit(blob_plus_noise).stats
        for key in ("range_queries", "count_queries", "skipped_queries"):
            if key in scalar:
                assert batched[key] == scalar[key], key


@pytest.mark.parametrize("name", EXACT_METHODS)
def test_exact_methods_match_reference(name, blob_plus_noise):
    result = CLUSTERERS[name](True).fit(blob_plus_noise)
    expected = reference_dbscan(blob_plus_noise, EPS, TAU)
    assert np.array_equal(canonical(result.labels), canonical(expected))


class TestPropertyEquivalence:
    """Randomized differential sweep over the exact expansion path, which
    has the subtlest batched rewrite (frontier prefetch ordering)."""

    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_dbscan_paths_agree_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(50, 8)))
        batched = DBSCAN(eps=0.6, tau=4).fit(X)
        scalar = DBSCAN(
            eps=0.6, tau=4, execution=ExecutionConfig(batch_queries=False)
        ).fit(X)
        assert np.array_equal(batched.labels, scalar.labels)
        assert np.array_equal(
            canonical(batched.labels), canonical(reference_dbscan(X, 0.6, 4))
        )

    @given(st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_laf_paths_agree_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(50, 8)))
        kwargs = dict(eps=0.6, tau=4, alpha=1.3, seed=0)
        batched = LAFDBSCAN(estimator=ExactCardinalityEstimator(), **kwargs).fit(X)
        scalar = LAFDBSCAN(
            estimator=ExactCardinalityEstimator(),
            execution=ExecutionConfig(batch_queries=False),
            **kwargs,
        ).fit(X)
        assert np.array_equal(batched.labels, scalar.labels)
        assert batched.stats["range_queries"] == scalar.stats["range_queries"]
        assert batched.stats["fn_detected"] == scalar.stats["fn_detected"]
        assert batched.stats["merges"] == scalar.stats["merges"]


class TestEngineEffectiveness:
    def test_dbscan_batched_path_uses_few_blocks(self, blob_plus_noise):
        n = blob_plus_noise.shape[0]
        result = DBSCAN(eps=EPS, tau=TAU).fit(blob_plus_noise)
        assert result.stats["range_queries"] == n
        assert result.stats["engine_computed"] == n
        # The whole fit should need on the order of n / block_size batched
        # calls, not one call per point.
        assert result.stats["engine_batches"] < n / 4

    def test_laf_engine_never_computes_skipped_points(self, blob_plus_noise):
        result = LAFDBSCAN(
            eps=EPS,
            tau=TAU,
            estimator=ExactCardinalityEstimator(),
            alpha=1.0,
        ).fit(blob_plus_noise)
        # The engine computed exactly the executed queries: the gate's
        # skipped points never reached the index.
        assert result.stats["engine_computed"] == result.stats["range_queries"]
        assert result.stats["skipped_queries"] > 0
