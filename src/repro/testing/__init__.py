"""Shared test/benchmark helpers: fixture data and reference algorithms.

Lives inside the package (rather than in a ``conftest.py``) so both test
trees — ``tests/`` and ``benchmarks/`` — and downstream users writing
their own differential tests can import the same helpers without relying
on pytest's conftest module injection, which breaks when two conftests
with the same bare module name are collected in one run.

``reference_dbscan`` is deliberately implemented independently of the
library code paths (full distance matrix + BFS) so algorithmic tests
compare two distinct implementations rather than a module with itself.

:class:`PerPointEngine` is the per-point reference for the batched
kernels: :func:`use_per_point_engine` makes a clusterer answer every
range query of its fit with one scalar float64 ``BruteForceIndex`` call
per row. (When a query runs does not matter: a neighbourhood depends
only on the data, the point and eps.) The differential tests diff
every clusterer against it, and the engine micro-benchmark times it as
the per-point baseline.

The runtime resource sanitizer lives in the ``repro.testing.sanitizer``
submodule (a pytest plugin — load it with ``-p repro.testing.sanitizer``;
it is intentionally not imported here so importing the helpers never
requires pytest).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.distances import normalize_rows
from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex

__all__ = [
    "PerPointEngine",
    "canonical",
    "make_blobs_on_sphere",
    "reference_dbscan",
    "use_per_point_engine",
    "write_benchmark_rows",
]


class PerPointEngine(BruteForceIndex):
    """A brute-force index whose row-id queries are one scalar call per row.

    ``batch_range_query_rows`` runs one float64
    :meth:`~repro.index.brute_force.BruteForceIndex.range_query` per
    row: the form every fit calls, answered with nothing batched.
    ``range_pairs`` is the base class's derivation from those rows.
    """

    def batch_range_query_rows(self, ids, eps: float) -> list[np.ndarray]:
        return [self.range_query(self.points[i], eps) for i in np.asarray(ids)]

    def range_pairs(self, eps: float, rows=None) -> tuple[np.ndarray, np.ndarray]:
        return NeighborIndex.range_pairs(self, eps, rows)


def use_per_point_engine(clusterer):
    """Run ``clusterer``'s fits on :class:`PerPointEngine`; returns it.

    Replaces the instance's ``_engine`` (the one engine seam every fit
    goes through), so only this object changes; its execution config's
    block size and sharding no longer apply.
    """

    @contextlib.contextmanager
    def per_point_engine(X):
        yield PerPointEngine(metric=clusterer.metric).build(X)

    clusterer._engine = per_point_engine
    return clusterer


def write_benchmark_rows(path: str, rows: list[dict]) -> str:
    """Write one benchmark's measured rows as ``{"rows": [...]}`` JSON.

    The single writer shared by every micro-benchmark that feeds the CI
    regression gate (``benchmarks/check_regression.py`` expects exactly
    this shape); delegates to the atomic
    :func:`repro.experiments.reporting.save_json` so an interrupted run
    never leaves a torn file. Returns ``path`` for convenience.
    """
    # Imported lazily: repro.testing stays importable without dragging in
    # the experiments package.
    from repro.experiments.reporting import save_json

    save_json(path, {"rows": list(rows)})
    return path


def reference_dbscan(X: np.ndarray, eps: float, tau: int) -> np.ndarray:
    """Naive DBSCAN: O(n^2) matrix + breadth-first cluster expansion."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    dists = 1.0 - X @ X.T
    neighbor_sets = [np.flatnonzero(dists[i] < eps) for i in range(n)]
    core = np.array([len(nbrs) >= tau for nbrs in neighbor_sets])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = -1
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        cluster += 1
        frontier = [start]
        labels[start] = cluster
        while frontier:
            p = frontier.pop()
            if not core[p]:
                continue
            for q in neighbor_sets[p]:
                if labels[q] == -1:
                    labels[q] = cluster
                    frontier.append(q)
    return labels


def canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters in first-appearance order (noise preserved)."""
    labels = np.asarray(labels)
    out = np.full_like(labels, -1)
    mapping: dict[int, int] = {}
    for i, label in enumerate(labels):
        if label == -1:
            continue
        if label not in mapping:
            mapping[label] = len(mapping)
        out[i] = mapping[label]
    return out


def make_blobs_on_sphere(
    n_per_cluster: int,
    n_clusters: int,
    dim: int,
    spread: float = 0.15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated spherical blobs: easy ground truth for clustering."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_clusters, dim)))
    parts, labels = [], []
    for c, center in enumerate(centers):
        pts = center[None, :] + spread * rng.normal(
            size=(n_per_cluster, dim)
        ) / np.sqrt(dim)
        parts.append(normalize_rows(pts))
        labels.append(np.full(n_per_cluster, c))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = rng.permutation(X.shape[0])
    return X[order], y[order]
