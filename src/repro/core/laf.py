"""The LAF plugin bundle: estimator gate + partial neighbors + repair.

``LAF`` is what the paper calls "a generic learned accelerator
framework": everything a DBSCAN-like host algorithm needs to skip range
queries safely. A host algorithm uses it in three touch points, mirroring
the red lines of Algorithm 1:

1. ``predict_is_core(...)`` / ``predicted_core_mask(...)`` — the
   ``CardEst(P) >= alpha * tau`` gate placed before every range query;
2. ``partial_neighbors.update(P, N)`` after every executed range query
   (Algorithm 2), and ``partial_neighbors.register_stop_point(P)``
   whenever the gate predicts a stop point;
3. ``finalize(labels)`` at the end (Algorithm 3 post-processing).

The same :class:`LAF` instance therefore accelerates original DBSCAN
(:class:`~repro.core.laf_dbscan.LAFDBSCAN`), DBSCAN++
(:class:`~repro.core.laf_dbscanpp.LAFDBSCANPlusPlus`) or any custom
variant — see ``examples/custom_estimator_plugin.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.partial_neighbors import PartialNeighborMap
from repro.core.postprocessing import PostProcessOutcome, post_process
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.index.base import NeighborIndex
from repro.rng import ensure_rng

__all__ = ["LAF", "plan_neighborhoods"]


def plan_neighborhoods(
    index: NeighborIndex, plan: np.ndarray, eps: float
) -> list[np.ndarray]:
    """The neighbourhood of every row of ``plan`` (strictly ascending row
    ids), each in ascending id: the arrays
    ``index.batch_range_query_rows(plan, eps)`` returns.

    They come from one ``index.range_pairs(eps, rows=plan)`` call, which
    computes a pair of two planned rows once, at its lower row; the
    symmetry Algorithm 2 relies on (``P`` finds ``P_n``, so ``P_n``
    finds ``P``) puts it in both neighbourhoods. One sort of the int64
    keys ``owner << 32 | member`` orders them all, and each
    neighbourhood is a view of the sorted members.
    """
    rows, cols = index.range_pairs(eps, rows=plan)
    planned = np.zeros(index.n_points, dtype=bool)
    planned[plan] = True
    mirror = planned[cols] & (cols != rows)
    owners = np.concatenate([rows, cols[mirror]]).astype(np.int64)
    keys = owners << 32 | np.concatenate([cols, rows[mirror]])
    keys.sort()
    members = keys & 0xFFFFFFFF
    ends = np.searchsorted(keys, (np.asarray(plan, dtype=np.int64) + 1) << 32)
    starts = [0, *ends[:-1].tolist()]
    return [members[a:b] for a, b in zip(starts, ends.tolist())]


class LAF:
    """Learned Accelerator Framework state for one clustering run.

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
    seed:
        Seed for the post-processing destination choice.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        alpha: float = 1.0,
        enable_post_processing: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive; got {alpha}")
        self.estimator = estimator
        self.alpha = float(alpha)
        self.enable_post_processing = bool(enable_post_processing)
        self._rng = ensure_rng(seed)
        self.partial_neighbors: PartialNeighborMap | None = None
        self.n_cardest_calls = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_run(self, X: np.ndarray, eps: float, tau: int) -> np.ndarray:
        """Bind the target set and precompute the gate for every point.

        Per Algorithm 1 each point consults ``CardEst`` at most once, so
        the per-point predictions are batched here — numerically
        identical to calling the estimator point by point, but it keeps
        the estimator's matrix work vectorized. Returns the predicted
        core mask ``CardEst(P) >= alpha * tau``.
        """
        X = np.asarray(X, dtype=np.float64)
        self.estimator.bind(X)
        self.partial_neighbors = PartialNeighborMap(X.shape[0])
        predictions = self.estimator.estimate_many(X, eps)
        self.n_cardest_calls = int(X.shape[0])
        return predictions >= self.alpha * tau

    def finalize(self, labels: np.ndarray, tau: int) -> PostProcessOutcome:
        """Algorithm 3 (or a pass-through when post-processing is off)."""
        if self.partial_neighbors is None:
            raise InvalidParameterError("finalize() called before begin_run()")
        if not self.enable_post_processing:
            return PostProcessOutcome(
                labels=np.asarray(labels, dtype=np.int64),
                n_false_negatives=len(
                    self.partial_neighbors.false_negative_candidates(tau)
                ),
                n_merges=0,
            )
        return post_process(labels, self.partial_neighbors, tau, seed=self._rng)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Plugin counters merged into the host's ClusteringResult."""
        return {
            "cardest_calls": self.n_cardest_calls,
            "predicted_stop_points": 0
            if self.partial_neighbors is None
            else len(self.partial_neighbors),
            "alpha": self.alpha,
        }
