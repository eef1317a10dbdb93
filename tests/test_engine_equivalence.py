"""Differential harness: the batched engine vs the per-point reference.

Every clusterer routes its range queries through the batched engine;
:func:`repro.testing.use_per_point_engine` swaps in the per-point
reference (one scalar ``BruteForceIndex`` query per queried row). The
two must produce identical clusterings (batching only changes *how*
queries are computed, never *which* queries run or what the algorithm
observes), and the exact methods
must also reproduce the independent ``reference_dbscan``
implementation.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.dbscanpp
import repro.core.laf_dbscanpp
from repro.clustering import (
    DBSCAN,
    BlockDBSCAN,
    DBSCANPlusPlus,
    RhoApproxDBSCAN,
)
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.distances import iter_distance_blocks, normalize_rows
from repro.engine_config import ExecutionConfig
from repro.estimators import ExactCardinalityEstimator
from repro.index import BruteForceIndex

from repro.testing import (
    canonical,
    make_blobs_on_sphere,
    reference_dbscan,
    use_per_point_engine,
)

EPS = 0.5
TAU = 5


def _make(name: str, batched: bool):
    """A fresh clusterer ``name`` on the batched engine, or on the
    per-point reference."""
    clusterer = CLUSTERERS[name]()
    return clusterer if batched else use_per_point_engine(clusterer)


# Every clusterer under test, as a factory. Seeded components are
# constructed fresh per call so both paths see identical randomness.
CLUSTERERS = {
    "dbscan": lambda: DBSCAN(eps=EPS, tau=TAU),
    "dbscan_small_query_block": lambda: DBSCAN(
        eps=EPS, tau=TAU, execution=ExecutionConfig(query_block=7)
    ),
    "dbscanpp_uniform": lambda: DBSCANPlusPlus(
        eps=EPS, tau=TAU, p=0.5, init="uniform", seed=0
    ),
    "dbscanpp_kcenter": lambda: DBSCANPlusPlus(
        eps=EPS, tau=TAU, p=0.5, init="k-center", seed=0
    ),
    "block_dbscan": lambda: BlockDBSCAN(eps=EPS, tau=TAU),
    "rho_approx": lambda: RhoApproxDBSCAN(eps=EPS, tau=TAU, rho=1.0),
    # A small rho at a wider eps leaves non-core points whose border
    # queries reach cores of two clusters.
    "rho_approx_borders": lambda: RhoApproxDBSCAN(eps=0.8, tau=8, rho=0.01),
    "laf_dbscan_oracle": lambda: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=1.0,
        seed=0,
    ),
    # alpha > 1 forces false negatives out of the oracle, exercising the
    # partial-neighbor map and the post-processing merge path.
    "laf_dbscan_false_negatives": lambda: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=1.4,
        seed=0,
    ),
    # alpha < 1 lowers the gate instead, producing false positives
    # (predicted core, found non-core after the executed query).
    "laf_dbscan_false_positives": lambda: LAFDBSCAN(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        alpha=0.6,
        seed=0,
    ),
    "laf_dbscanpp": lambda: LAFDBSCANPlusPlus(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        alpha=1.0,
        seed=0,
    ),
    "laf_dbscanpp_false_negatives": lambda: LAFDBSCANPlusPlus(
        eps=EPS,
        tau=TAU,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        alpha=1.4,
        seed=0,
    ),
}

#: Methods whose batched path must also reproduce reference_dbscan exactly.
EXACT_METHODS = (
    "dbscan",
    "dbscan_small_query_block",
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
        batched = _make(name, True).fit(X)
        scalar = _make(name, False).fit(X)
        assert np.array_equal(canonical(batched.labels), canonical(scalar.labels))

    def test_identical_labels_on_blobs_plus_noise(self, name, blob_plus_noise):
        batched = _make(name, True).fit(blob_plus_noise)
        scalar = _make(name, False).fit(blob_plus_noise)
        assert np.array_equal(canonical(batched.labels), canonical(scalar.labels))

    def test_identical_core_masks(self, name, blob_plus_noise):
        batched = _make(name, True).fit(blob_plus_noise)
        scalar = _make(name, False).fit(blob_plus_noise)
        assert np.array_equal(batched.core_mask, scalar.core_mask)

    def test_same_executed_query_count(self, name, blob_plus_noise):
        """Batching must not change *which* queries execute."""
        batched = _make(name, True).fit(blob_plus_noise).stats
        scalar = _make(name, False).fit(blob_plus_noise).stats
        for key in ("range_queries", "count_queries", "skipped_queries"):
            if key in scalar:
                assert batched[key] == scalar[key], key


@pytest.mark.parametrize("name", EXACT_METHODS)
def test_exact_methods_match_reference(name, blob_plus_noise):
    result = _make(name, True).fit(blob_plus_noise)
    expected = reference_dbscan(blob_plus_noise, EPS, TAU)
    assert np.array_equal(canonical(result.labels), canonical(expected))


class TestPropertyEquivalence:
    """Randomized differential sweep over the exact paths: DBSCAN's
    self-join and LAF-DBSCAN's one batched call read in frontier order."""

    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_dbscan_paths_agree_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(50, 8)))
        batched = DBSCAN(eps=0.6, tau=4).fit(X)
        scalar = use_per_point_engine(DBSCAN(eps=0.6, tau=4)).fit(X)
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
        scalar = use_per_point_engine(
            LAFDBSCAN(estimator=ExactCardinalityEstimator(), **kwargs)
        ).fit(X)
        assert np.array_equal(batched.labels, scalar.labels)
        assert batched.stats["range_queries"] == scalar.stats["range_queries"]
        assert batched.stats["fn_detected"] == scalar.stats["fn_detected"]
        assert batched.stats["merges"] == scalar.stats["merges"]


@pytest.fixture
def index_rows(monkeypatch):
    """Rows of every BruteForceIndex row-id call (and scalar query) of a fit.

    Maps a method name to one entry per call: the number of rows it
    computed (1 for a scalar ``range_query`` / ``range_count``; for
    ``range_pairs`` its ``rows``, every indexed point for the self-join).
    """
    calls = defaultdict(list)

    def spy_on(name):
        original = getattr(BruteForceIndex, name)

        def spy(self, arg, eps):
            calls[name].append(len(arg) if name.endswith("_rows") else 1)
            return original(self, arg, eps)

        return spy

    for name in ("batch_range_query_rows", "range_query", "range_count"):
        monkeypatch.setattr(BruteForceIndex, name, spy_on(name))

    original_pairs = BruteForceIndex.range_pairs

    def spy_pairs(self, eps, rows=None):
        calls["range_pairs"].append(self.n_points if rows is None else len(rows))
        return original_pairs(self, eps, rows)

    monkeypatch.setattr(BruteForceIndex, "range_pairs", spy_pairs)
    return calls


class TestIndexAccounting:
    """The index computes exactly the rows the algorithm queries."""

    def test_rows_computed_equal_range_queries(self, index_rows, blob_plus_noise):
        stats = _make("rho_approx_borders", True).fit(blob_plus_noise).stats
        assert stats["range_queries"] > 0
        assert sum(index_rows["batch_range_query_rows"]) == stats["range_queries"]

    @pytest.mark.parametrize(
        "name", ["laf_dbscan_false_negatives", "laf_dbscanpp_false_negatives"]
    )
    def test_laf_plan_is_one_join_over_its_rows(
        self, name, index_rows, blob_plus_noise
    ):
        """LAF's range queries are one ``range_pairs`` call over exactly the
        planned rows; the gate's skipped points never reach the index."""
        stats = _make(name, True).fit(blob_plus_noise).stats
        assert stats["range_queries"] > 0
        assert stats["skipped_queries"] > 0
        # LAF-DBSCAN++ reads its core graph off the same join.
        assert index_rows["range_pairs"] == [stats["range_queries"]]
        # A plan of one kernel block is the base derivation: one row-id
        # query of the plan, inside the join.
        assert stats["range_queries"] <= BruteForceIndex().block_size
        assert index_rows["batch_range_query_rows"] == [stats["range_queries"]]
        assert set(index_rows) == {"range_pairs", "batch_range_query_rows"}

    @pytest.mark.parametrize("name", ["dbscanpp_uniform", "dbscanpp_kcenter"])
    def test_dbscanpp_counts_from_one_join_over_its_sample(
        self, name, index_rows, blob_plus_noise
    ):
        """DBSCAN++'s core test and core graph are one ``range_pairs`` join
        over exactly its sample, and nothing else reaches the index."""
        stats = _make(name, True).fit(blob_plus_noise).stats
        assert stats["range_queries"] == stats["sample_size"] > 0
        assert stats["core_graph_pairs"] > 0
        assert index_rows["range_pairs"] == [stats["sample_size"]]
        # A sample of one kernel block is the base derivation: one row-id
        # query of the sample, inside the join.
        assert stats["sample_size"] <= BruteForceIndex().block_size
        assert index_rows["batch_range_query_rows"] == [stats["sample_size"]]
        assert set(index_rows) == {"range_pairs", "batch_range_query_rows"}

    @pytest.mark.parametrize(
        "name", ["dbscanpp_uniform", "dbscanpp_kcenter", "laf_dbscanpp"]
    )
    @pytest.mark.parametrize("within_eps", [True, False])
    def test_assign_reads_the_join_within_eps(
        self, name, within_eps, monkeypatch, blob_plus_noise
    ):
        """Within eps, the nearest-core assign reads its candidates off the
        sample join and computes no distance block; absorbing every point
        takes the float64 blocks against every core."""
        module = (
            repro.core.laf_dbscanpp
            if name.startswith("laf")
            else repro.clustering.dbscanpp
        )
        blocks = []

        def spy(*args, **kwargs):
            if within_eps:
                raise AssertionError("iter_distance_blocks called")
            blocks.append(args)
            return iter_distance_blocks(*args, **kwargs)

        monkeypatch.setattr(module, "iter_distance_blocks", spy)
        clusterer = _make(name, True)
        clusterer.assign_within_eps = within_eps
        result = clusterer.fit(blob_plus_noise)
        assert result.stats["n_core"] > 0
        assert len(blocks) == (0 if within_eps else 1)

    def test_dbscan_self_join_covers_every_row(self, index_rows, blob_plus_noise):
        """DBSCAN's n range queries are one self-join over every row,
        and nothing else reaches the index."""
        stats = _make("dbscan", True).fit(blob_plus_noise).stats
        assert stats["range_queries"] == blob_plus_noise.shape[0]
        assert index_rows["range_pairs"] == [stats["range_queries"]]
        assert set(index_rows) == {"range_pairs"}

    @pytest.mark.parametrize("name", ["dbscan", "laf_dbscan_false_negatives"])
    def test_one_call_per_fit(self, name, index_rows, blob_plus_noise):
        _make(name, True).fit(blob_plus_noise)
        assert len(index_rows["range_pairs"]) == 1

    def test_reference_queries_per_point(self, index_rows, blob_plus_noise):
        """The per-point side really is the scalar reference: one scalar
        query per row, no batched row call."""
        stats = _make("dbscan", False).fit(blob_plus_noise).stats
        assert index_rows["range_query"] == [1] * stats["range_queries"]
        assert "batch_range_query_rows" not in index_rows
        assert "range_pairs" not in index_rows

    def test_reference_dbscanpp_queries_per_point(self, index_rows, blob_plus_noise):
        """The per-point DBSCAN++ counts its sample from one scalar range
        query per sampled row."""
        stats = _make("dbscanpp_uniform", False).fit(blob_plus_noise).stats
        assert index_rows["range_query"] == [1] * stats["sample_size"]
        assert "batch_range_query_rows" not in index_rows
        assert "range_count" not in index_rows
