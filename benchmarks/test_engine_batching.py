"""Micro-benchmark: batched vs per-point brute-force neighborhood computation.

Measures the engine's headline claim — that computing every point's
eps-neighborhood through blocked ``batch_range_query`` matrix products
beats the per-point ``range_query`` Python loop — and writes the speedup
rows to ``benchmarks/out/engine_batching.json``. Also times DBSCAN end
to end on the batched engine against the same fit on the per-point
reference engine of :mod:`repro.testing`, since the neighborhood loop
is DBSCAN's dominant cost. A second row, ``engine_kernel_n8000.json``, times the
cosine range-query kernel (float32 GEMM plus float64 band recheck)
against the float64 block it replaced, at the paper's d=768. A third,
``engine_components_n4000.json``, times the DBSCAN++ core graph
(upper-triangle kernel blocks plus csgraph components) against the
per-node float64 BFS it replaced. A fourth, ``engine_self_join_n8000.json``,
times DBSCAN's fit (one upper-triangle self-join plus set-at-a-time
labels) against the full-row ``batch_range_query_rows`` call over every
point that the fit used to make before its frontier loop. A fifth,
``engine_plan_join_n8000.json``, times LAF's plan query: the join
``range_pairs(eps, rows=plan)`` over a fixed two-thirds of the rows
against the full-row ``batch_range_query_rows(plan)`` it replaced.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import out_path, usable_cpus

from repro.clustering import DBSCAN
from repro.clustering.components import connected_components_within
from repro.distances import normalize_rows
from repro.experiments.reporting import save_json
from repro.index import BruteForceIndex
from repro.testing import make_blobs_on_sphere, use_per_point_engine

EPS = 0.5
TAU = 5
REPEATS = 3


def _dataset(n: int, dim: int = 256, seed: int = 0) -> np.ndarray:
    """Blobs + noise at the paper's high-dimensional scale (d >= 200)."""
    X, _ = make_blobs_on_sphere(n // 4, 3, dim, spread=0.15, seed=seed)
    rng = np.random.default_rng(seed + 1)
    noise = normalize_rows(rng.normal(size=(n - X.shape[0], dim)))
    return np.vstack([X, noise])


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _neighborhoods_scalar(index: BruteForceIndex, X: np.ndarray) -> None:
    for i in range(X.shape[0]):
        index.range_query(X[i], EPS)


def _neighborhoods_batched(index: BruteForceIndex, X: np.ndarray) -> None:
    index.batch_range_query(X, EPS)


@pytest.mark.parametrize("n", [2000, 8000])
def test_engine_batching_speedup(n):
    X = _dataset(n)
    index = BruteForceIndex().build(X)

    t_scalar = _best_of(lambda: _neighborhoods_scalar(index, X))
    t_batched = _best_of(lambda: _neighborhoods_batched(index, X))
    query_speedup = t_scalar / t_batched

    t_fit_scalar = _best_of(
        lambda: use_per_point_engine(DBSCAN(eps=EPS, tau=TAU)).fit(X)
    )
    t_fit_batched = _best_of(lambda: DBSCAN(eps=EPS, tau=TAU).fit(X))
    fit_speedup = t_fit_scalar / t_fit_batched

    rows = [
        {
            "n": n,
            "dim": int(X.shape[1]),
            "eps": EPS,
            "scalar_query_s": t_scalar,
            "batched_query_s": t_batched,
            "query_speedup": query_speedup,
            "scalar_fit_s": t_fit_scalar,
            "batched_fit_s": t_fit_batched,
            "fit_speedup": fit_speedup,
        }
    ]
    print()
    print(
        f"n={n}: neighborhoods {t_scalar:.3f}s -> {t_batched:.3f}s "
        f"({query_speedup:.1f}x); DBSCAN fit {t_fit_scalar:.3f}s -> "
        f"{t_fit_batched:.3f}s ({fit_speedup:.1f}x)"
    )
    save_json(out_path(f"engine_batching_n{n}.json"), {"rows": rows})

    # Acceptance criterion: >= 3x at n = 8000 (be lenient at the small
    # size, where fixed overheads dominate).
    if n >= 8000:
        assert query_speedup >= 3.0, f"batched speedup only {query_speedup:.2f}x"


def _float64_block_neighborhoods(X: np.ndarray, eps: float) -> list[np.ndarray]:
    """The float64 block the cosine kernel replaced: distances, compare, extract."""
    rows: list[np.ndarray] = []
    for start in range(0, X.shape[0], 1024):
        block = np.maximum(0.0, 1.0 - X[start : start + 1024] @ X.T)
        rows.extend(np.flatnonzero(row < eps) for row in block)
    return rows


def test_engine_kernel_speedup():
    n = 8000
    X = _dataset(n, dim=768)
    index = BruteForceIndex().build(X)

    expected = _float64_block_neighborhoods(X, EPS)
    got = index.batch_range_query(X, EPS)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert len(got) == len(expected)

    t_float64 = _best_of(lambda: _float64_block_neighborhoods(X, EPS))
    t_kernel = _best_of(lambda: index.batch_range_query(X, EPS))
    kernel_speedup = t_float64 / t_kernel
    rows = [
        {
            "n": n,
            "dim": int(X.shape[1]),
            "eps": EPS,
            "pairs": int(sum(r.size for r in expected)),
            "float64_query_s": t_float64,
            "kernel_query_s": t_kernel,
            "kernel_speedup": kernel_speedup,
        }
    ]
    print()
    print(
        f"n={n} d=768: neighborhoods float64 {t_float64:.3f}s -> kernel "
        f"{t_kernel:.3f}s ({kernel_speedup:.2f}x)"
    )
    save_json(out_path(f"engine_kernel_n{n}.json"), {"rows": rows})


def _components_bfs(X: np.ndarray, eps: float) -> np.ndarray:
    """The core-graph labelling the kernel replaced: one float64 matvec per node."""
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    component = -1
    for start in range(X.shape[0]):
        if labels[start] != -1:
            continue
        component += 1
        labels[start] = component
        frontier = [start]
        while frontier:
            node = frontier.pop()
            neighbors = np.flatnonzero((1.0 - X @ X[node] < eps) & (labels == -1))
            labels[neighbors] = component
            frontier.extend(neighbors.tolist())
    return labels


def test_components_speedup():
    n = 4000
    X = _dataset(n, dim=768)

    def graph():
        # The self-join over every node, then the labeller over its pairs.
        join = BruteForceIndex().build(X).range_pairs(EPS)
        return connected_components_within(join, np.arange(n))

    expected = _components_bfs(X, EPS)
    got, pairs = graph()
    assert np.array_equal(got, expected)

    t_bfs = _best_of(lambda: _components_bfs(X, EPS))
    t_graph = _best_of(graph)
    components_speedup = t_bfs / t_graph
    rows = [
        {
            "n": n,
            "dim": int(X.shape[1]),
            "eps": EPS,
            "pairs": pairs,
            "components": int(expected.max()) + 1,
            "bfs_s": t_bfs,
            "graph_s": t_graph,
            "components_speedup": components_speedup,
        }
    ]
    print()
    print(
        f"n={n} d=768: core-graph components BFS {t_bfs:.3f}s -> kernel + "
        f"csgraph {t_graph:.3f}s ({components_speedup:.2f}x)"
    )
    save_json(out_path(f"engine_components_n{n}.json"), {"rows": rows})


def test_self_join_speedup():
    n = 8000
    X = _dataset(n, dim=768)
    index = BruteForceIndex().build(X)
    rows = np.arange(n)

    fit = DBSCAN(eps=EPS, tau=TAU).fit(X)
    neighborhoods = index.batch_range_query_rows(rows, EPS)
    counts = np.array([row.size for row in neighborhoods])
    assert np.array_equal(fit.core_mask, counts >= TAU)
    assert fit.stats["neighbor_pairs"] == (counts.sum() - n) // 2
    del neighborhoods

    t_rows = _best_of(lambda: index.batch_range_query_rows(rows, EPS))
    t_fit = _best_of(lambda: DBSCAN(eps=EPS, tau=TAU).fit(X))
    self_join_speedup = t_rows / t_fit
    rows_out = [
        {
            "n": n,
            "dim": int(X.shape[1]),
            "eps": EPS,
            "pairs": fit.stats["neighbor_pairs"],
            "full_rows_query_s": t_rows,
            "fit_s": t_fit,
            "self_join_speedup": self_join_speedup,
            # The GEMMs run on every CPU BLAS may use.
            "usable_cpus": usable_cpus(),
        }
    ]
    print()
    print(
        f"n={n} d=768: full-row neighbourhoods {t_rows:.3f}s, DBSCAN fit on "
        f"the self-join {t_fit:.3f}s ({self_join_speedup:.2f}x)"
    )
    save_json(out_path(f"engine_self_join_n{n}.json"), {"rows": rows_out})


def _plan_pair_keys(n, plan, neighborhoods) -> np.ndarray:
    """The sorted keys ``i * n + j`` of the pairs ``range_pairs(eps,
    rows=plan)`` owes, from the full-row neighbourhoods of ``plan``."""
    i = np.repeat(plan, [row.size for row in neighborhoods])
    j = np.concatenate(neighborhoods)
    in_plan = np.zeros(n, dtype=bool)
    in_plan[plan] = True
    keep = ~in_plan[j] | (j >= i)
    return np.sort(i[keep] * n + j[keep])


def test_plan_join_speedup():
    n = 8000
    X = _dataset(n, dim=768)
    index = BruteForceIndex().build(X)
    # A fixed two-thirds of the rows, as a LAF plan of predicted cores.
    plan = np.sort(np.random.default_rng(0).choice(n, size=2 * n // 3, replace=False))

    pair_rows, cols = index.range_pairs(EPS, rows=plan)
    got = np.sort(pair_rows.astype(np.int64) * n + cols)
    expected = _plan_pair_keys(n, plan, index.batch_range_query_rows(plan, EPS))
    assert np.array_equal(got, expected)
    del pair_rows, cols, got, expected

    t_rows = _best_of(lambda: index.batch_range_query_rows(plan, EPS))
    t_join = _best_of(lambda: index.range_pairs(EPS, rows=plan))
    plan_join_speedup = t_rows / t_join
    rows_out = [
        {
            "n": n,
            "dim": int(X.shape[1]),
            "eps": EPS,
            "plan_rows": int(plan.size),
            "full_rows_query_s": t_rows,
            "plan_join_s": t_join,
            "plan_join_speedup": plan_join_speedup,
            # The GEMMs run on every CPU BLAS may use.
            "usable_cpus": usable_cpus(),
        }
    ]
    print()
    print(
        f"n={n} d=768, {plan.size} plan rows: full-row neighbourhoods "
        f"{t_rows:.3f}s, plan join {t_join:.3f}s ({plan_join_speedup:.2f}x)"
    )
    save_json(out_path(f"engine_plan_join_n{n}.json"), {"rows": rows_out})
