"""The LAF plugin bundle: estimator gate + partial neighbors + repair.

``LAF`` is what the paper calls "a generic learned accelerator
framework": everything a DBSCAN-like host algorithm needs to skip range
queries safely. A host algorithm uses it in three touch points, mirroring
the red lines of Algorithm 1:

1. ``begin_run(...)`` — the ``CardEst(P) >= alpha * tau`` gate placed
   before every range query, computed for every point up front;
2. two stamps per row for Algorithm 2: ``stop_at[P]``, the number of
   queries run when the gate registered ``P`` as a stop point, and
   ``query_at[P]``, the index of ``P``'s executed query.
   :func:`partial_neighbors` turns them and the fit's pairs into ``E``;
3. ``finalize(labels, tau, E)`` at the end (Algorithm 3 post-processing).

The same :class:`LAF` instance therefore accelerates original DBSCAN
(:class:`~repro.core.laf_dbscan.LAFDBSCAN`), DBSCAN++
(:class:`~repro.core.laf_dbscanpp.LAFDBSCANPlusPlus`) or any custom
variant — see ``examples/custom_estimator_plugin.py``. It keeps no
state of a fit: the map ``E`` and the fit's counters are the host's
local values.
"""

from __future__ import annotations

import numpy as np

from repro.core.postprocessing import PostProcessOutcome, post_process
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError

__all__ = ["LAF", "partial_neighbors", "plan_neighborhoods"]

Pairs = tuple[np.ndarray, np.ndarray]


def plan_neighborhoods(
    pairs: Pairs, plan: np.ndarray, n_points: int
) -> list[np.ndarray]:
    """The neighbourhood of every row of ``plan`` (strictly ascending row
    ids), each in ascending id: the arrays
    ``index.batch_range_query_rows(plan, eps)`` returns.

    ``pairs`` is ``index.range_pairs(eps, rows=plan)`` over ``n_points``
    indexed rows, which computes a pair of two planned rows once, at its
    lower row; the symmetry Algorithm 2 relies on (``P`` finds ``P_n``,
    so ``P_n`` finds ``P``) puts it in both neighbourhoods. One sort of
    the int64 keys ``owner << 32 | member`` orders them all, and each
    neighbourhood is a view of the sorted members.
    """
    rows, cols = pairs
    planned = np.zeros(n_points, dtype=bool)
    planned[plan] = True
    mirror = planned[cols] & (cols != rows)
    owners = np.concatenate([rows, cols[mirror]]).astype(np.int64)
    keys = owners << 32 | np.concatenate([cols, rows[mirror]])
    keys.sort()
    members = keys & 0xFFFFFFFF
    ends = np.searchsorted(keys, (np.asarray(plan, dtype=np.int64) + 1) << 32)
    starts = [0, *ends[:-1].tolist()]
    return [members[a:b] for a, b in zip(starts, ends.tolist())]


def partial_neighbors(
    pairs: Pairs, stops: list[int], stop_at: np.ndarray, query_at: np.ndarray
) -> dict[int, np.ndarray]:
    """Algorithm 2 (``UpdatePartialNeighbors``): the map ``E`` from each
    predicted stop point to the queried points whose range query found it.

    ``pairs`` is the fit's ``range_pairs(eps, rows=plan)`` join. Stop
    points are never planned, so it lists each (queried ``p``, stop
    ``s``) pair once, ``p`` first. ``stops`` holds the stop points in
    registration order. ``stop_at[s]`` is the number of queries run
    before ``s`` was registered (for any other row, a value no query
    index reaches, such as ``n``), and ``query_at[p]`` is the index of
    ``p``'s query. The query from ``p`` puts ``p`` in ``E(s)`` when
    ``query_at[p] >= stop_at[s]``: a query counts toward the stop points
    registered so far only.

    By symmetry each ``E(s)`` is a subset of ``s``'s true neighbourhood,
    so ``|E(s)| >= tau`` proves ``s`` is core (Algorithm 3). The map keeps
    registration order, and each member array is ascending.
    """
    rows, cols = pairs
    found = query_at[rows] >= stop_at[cols]
    keys = cols[found].astype(np.int64) << 32 | rows[found]
    keys.sort()
    members = keys & 0xFFFFFFFF
    owners = np.asarray(stops, dtype=np.int64)
    starts = np.searchsorted(keys, owners << 32).tolist()
    ends = np.searchsorted(keys, (owners + 1) << 32).tolist()
    return {s: members[a:b] for s, a, b in zip(stops, starts, ends)}


class LAF:
    """The Learned Accelerator Framework plugin a host runs its fits with.

    Parameters
    ----------
    estimator:
        A fitted cardinality estimator (see :mod:`repro.estimators`).
    alpha:
        Error factor multiplying ``tau`` in the gate. Larger alpha
        raises the bar for "core", increasing false negatives (faster,
        lower quality); smaller alpha increases false positives (slower,
        higher quality). This is the speed-quality knob of Figure 2/3.
    enable_post_processing:
        Disable only for ablation; the paper always post-processes.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        alpha: float = 1.0,
        enable_post_processing: bool = True,
    ) -> None:
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive; got {alpha}")
        self.estimator = estimator
        self.alpha = float(alpha)
        self.enable_post_processing = bool(enable_post_processing)

    def begin_run(self, X: np.ndarray, eps: float, tau: int) -> np.ndarray:
        """Bind the target set and precompute the gate for every point.

        Per Algorithm 1 each point consults ``CardEst`` at most once, so
        the per-point predictions are batched here — numerically
        identical to calling the estimator point by point, but it keeps
        the estimator's matrix work vectorized. ``bind`` returns a bound
        copy, so the shared estimator is unchanged. Returns the predicted
        core mask ``CardEst(P) >= alpha * tau``.
        """
        X = np.asarray(X, dtype=np.float64)
        return self.estimator.bind(X).estimate_many(X, eps) >= self.alpha * tau

    def finalize(
        self, labels: np.ndarray, tau: int, E: dict[int, np.ndarray]
    ) -> PostProcessOutcome:
        """Algorithm 3 over the fit's map ``E`` (see
        :func:`partial_neighbors`), or a pass-through when
        post-processing is off."""
        if not self.enable_post_processing:
            return PostProcessOutcome(
                labels=np.asarray(labels, dtype=np.int64),
                n_false_negatives=sum(len(m) >= tau for m in E.values()),
                n_merges=0,
            )
        return post_process(labels, E, tau)
