"""Tests for the map E and Algorithm 2 (UpdatePartialNeighbors).

:func:`repro.core.laf.partial_neighbors` reads ``E`` off a fit's
``range_pairs`` join: a pair (queried ``p``, stop ``s``) puts ``p`` in
``E(s)`` when ``p``'s query ran no earlier than ``s``'s registration.
"""

import numpy as np

from repro.core.laf import partial_neighbors
from repro.distances import normalize_rows
from repro.index import BruteForceIndex


def pairs(*edges):
    """``range_pairs``-shaped int32 (rows, cols) from (p, s) tuples."""
    rows, cols = zip(*edges) if edges else ((), ())
    return np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32)


def stamps(n, stop_at=None, query_at=None):
    """Per-row stamps: ``n`` for rows never registered, -1 for rows
    never queried."""
    stop = np.full(n, n, dtype=np.int64)
    query = np.full(n, -1, dtype=np.int64)
    for row, at in (stop_at or {}).items():
        stop[row] = at
    for row, at in (query_at or {}).items():
        query[row] = at
    return stop, query


def as_lists(E):
    return {s: members.tolist() for s, members in E.items()}


class TestRegistration:
    def test_registration_order_preserved(self):
        stop_at, query_at = stamps(10, {7: 0, 2: 0, 9: 0}, {0: 0})
        E = partial_neighbors(pairs((0, 9), (0, 2)), [7, 2, 9], stop_at, query_at)
        assert list(E) == [7, 2, 9]
        assert as_lists(E) == {7: [], 2: [0], 9: [0]}

    def test_only_stop_points_recorded(self):
        """Algorithm 2: neighbors that are not stop points are ignored."""
        stop_at, query_at = stamps(10, {4: 0}, {1: 0, 2: 1, 3: 2})
        edges = pairs((1, 1), (1, 2), (1, 3), (1, 4), (2, 3))
        E = partial_neighbors(edges, [4], stop_at, query_at)
        assert as_lists(E) == {4: [1]}

    def test_diagonal_pair_does_not_count(self):
        """The join pairs each planned row with itself; a stop point is
        never planned, so that pair never reaches ``E``."""
        stop_at, query_at = stamps(4, {3: 0}, {0: 0})
        E = partial_neighbors(pairs((0, 0), (0, 3)), [3], stop_at, query_at)
        assert as_lists(E) == {3: [0]}

    def test_query_before_registration_does_not_count(self):
        """A query counts only toward the stop points registered so far."""
        # Queries 0 (row 0) and 1 (row 1) ran before stop 5 was
        # registered; query 2 (row 3) ran after it.
        stop_at, query_at = stamps(10, {5: 2, 6: 0}, {0: 0, 1: 1, 3: 2})
        edges = pairs((0, 5), (1, 5), (3, 5), (0, 6), (3, 6))
        E = partial_neighbors(edges, [6, 5], stop_at, query_at)
        assert as_lists(E) == {6: [0, 3], 5: [3]}

    def test_query_right_after_registration_counts(self):
        stop_at, query_at = stamps(4, {2: 1}, {0: 0, 1: 1})
        E = partial_neighbors(pairs((0, 2), (1, 2)), [2], stop_at, query_at)
        assert as_lists(E) == {2: [1]}


class TestMembers:
    def test_members_ascending_and_unique(self):
        rng = np.random.default_rng(0)
        queried = rng.permutation(np.arange(20, 60))
        stop_at, query_at = stamps(60, dict.fromkeys(range(5), 0))
        query_at[queried] = np.arange(queried.size)
        edges = [(int(p), s) for p in queried for s in range(5) if (p + s) % 3]
        E = partial_neighbors(pairs(*edges), list(range(5)), stop_at, query_at)
        for s, members in E.items():
            assert members.dtype == np.int64
            assert np.all(np.diff(members) > 0)
            assert members.tolist() == sorted(p for p, t in edges if t == s)

    def test_accumulates_across_queries(self):
        stop_at, query_at = stamps(10, {5: 0}, {2: 0, 0: 1, 1: 2})
        E = partial_neighbors(pairs((0, 5), (1, 5), (2, 5)), [5], stop_at, query_at)
        assert as_lists(E) == {5: [0, 1, 2]}

    def test_subset_of_true_neighbourhood(self):
        """E(P) holds only points whose query found P, so by symmetry it
        is a subset of P's true neighbourhood."""
        X = normalize_rows(np.random.default_rng(0).normal(size=(40, 8)))
        index = BruteForceIndex().build(X)
        eps = 0.6
        stops = list(range(0, 40, 3))
        plan = np.setdiff1d(np.arange(40), stops)
        stop_at, query_at = stamps(40)
        # Stops registered one by one between the queries, in reverse.
        stop_at[stops[::-1]] = np.linspace(0, plan.size, len(stops)).astype(int)
        query_at[plan] = np.arange(plan.size)
        E = partial_neighbors(
            index.range_pairs(eps, rows=plan), stops[::-1], stop_at, query_at
        )
        assert list(E) == stops[::-1]
        assert any(members.size for members in E.values())
        for s, members in E.items():
            true_neighbors = index.range_query(X[s], eps)
            assert set(members.tolist()) <= set(true_neighbors.tolist())
            found = [p for p in true_neighbors if p != s and query_at[p] >= stop_at[s]]
            assert members.tolist() == found


class TestEmpty:
    def test_no_stop_points(self):
        stop_at, query_at = stamps(5, query_at={0: 0, 1: 1})
        assert partial_neighbors(pairs((0, 1), (0, 2)), [], stop_at, query_at) == {}

    def test_empty_plan(self):
        stop_at, query_at = stamps(5, {1: 0, 3: 0})
        E = partial_neighbors(pairs(), [1, 3], stop_at, query_at)
        assert as_lists(E) == {1: [], 3: []}
