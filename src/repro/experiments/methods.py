"""Method registry: build any of the paper's seven methods by name.

Centralizes the hyperparameter defaults of Section 3.1 ("Parameters"):

* DBSCAN++ sample fraction ``p = delta + R_c`` with ``delta`` in
  [0.1, 0.3] and ``R_c`` the estimator's predicted core ratio;
* LAF-DBSCAN's ``alpha`` from Table 1 (dataset-dependent);
* LAF-DBSCAN++'s ``alpha`` fixed at 1.0 and ``p`` identical to DBSCAN++;
* KNN-BLOCK: branching 10, leaves-checked ratio 0.6;
* BLOCK-DBSCAN: RNT 10;
* rho-approximate: rho = 1.0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import make_clusterer
from repro.clustering import Clusterer
from repro.core import predicted_core_ratio
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError

__all__ = [
    "MethodContext",
    "build_method",
    "method_names",
    "APPROXIMATE_METHODS",
    "ALL_METHODS",
]

#: The approximate methods of Tables 3/5 (DBSCAN itself is ground truth).
APPROXIMATE_METHODS: tuple[str, ...] = (
    "KNN-BLOCK",
    "BLOCK-DBSCAN",
    "DBSCAN++",
    "LAF-DBSCAN",
    "LAF-DBSCAN++",
)

ALL_METHODS: tuple[str, ...] = ("DBSCAN", *APPROXIMATE_METHODS, "RHO-APPROX")


@dataclasses.dataclass
class MethodContext:
    """Everything needed to instantiate any method on one dataset.

    Attributes
    ----------
    eps, tau:
        The experiment's density parameters.
    alpha:
        LAF-DBSCAN error factor (Table 1 value for the dataset).
    estimator:
        Fitted cardinality estimator shared by the LAF methods and the
        ``p = delta + R_c`` rule. May be None for non-LAF methods.
    delta:
        Offset of the sample-fraction rule (paper: 0.1-0.3).
    p_override:
        Fix the DBSCAN++ sample fraction explicitly instead of deriving
        it (used by the trade-off sweeps).
    execution:
        Optional :class:`~repro.engine_config.ExecutionConfig` threaded
        into every method built from this context — the single switch
        that shards / rewires a whole experiment run without touching
        any global state.
    """

    eps: float
    tau: int
    alpha: float = 1.0
    estimator: CardinalityEstimator | None = None
    delta: float = 0.2
    p_override: float | None = None
    branching: int = 10
    checks_ratio: float = 0.6
    rnt: int = 10
    rho: float = 1.0
    seed: int = 0
    execution: ExecutionConfig | None = None
    _p_cache: float | None = dataclasses.field(default=None, repr=False)

    def sample_fraction(self, X: np.ndarray) -> float:
        """DBSCAN++ sample fraction: ``p_override`` or ``delta + R_c``.

        The derived value is cached so DBSCAN++ and LAF-DBSCAN++ use the
        identical ``p``, as the paper prescribes.
        """
        if self.p_override is not None:
            return float(np.clip(self.p_override, 0.01, 1.0))
        if self._p_cache is None:
            if self.estimator is None:
                raise InvalidParameterError(
                    "deriving p = delta + R_c requires an estimator; "
                    "set p_override otherwise"
                )
            r_c = predicted_core_ratio(
                self.estimator, X, self.eps, self.tau, self.alpha
            )
            self._p_cache = float(np.clip(self.delta + r_c, 0.01, 1.0))
        return self._p_cache

    def _require_estimator(self, name: str) -> CardinalityEstimator:
        if self.estimator is None:
            raise InvalidParameterError(f"{name} requires a fitted estimator")
        return self.estimator


def method_names() -> tuple[str, ...]:
    """All buildable method names."""
    return ALL_METHODS


#: Paper method name -> (repro.api registry name, context-params fn).
_METHODS = {
    "DBSCAN": ("dbscan", lambda ctx, X: {}),
    "DBSCAN++": (
        "dbscan++",
        lambda ctx, X: {"p": ctx.sample_fraction(X), "seed": ctx.seed},
    ),
    "LAF-DBSCAN": (
        "laf-dbscan",
        lambda ctx, X: {
            "estimator": ctx._require_estimator("LAF-DBSCAN"),
            "alpha": ctx.alpha,
        },
    ),
    "LAF-DBSCAN++": (
        "laf-dbscan++",
        lambda ctx, X: {
            "estimator": ctx._require_estimator("LAF-DBSCAN++"),
            "p": ctx.sample_fraction(X),
            "alpha": 1.0,  # fixed in the paper
            "seed": ctx.seed,
        },
    ),
    "KNN-BLOCK": (
        "knn-block",
        lambda ctx, X: {
            "branching": ctx.branching,
            "checks_ratio": ctx.checks_ratio,
            "seed": ctx.seed,
        },
    ),
    "BLOCK-DBSCAN": (
        "block-dbscan",
        lambda ctx, X: {"rnt": ctx.rnt},
    ),
    "RHO-APPROX": ("rho-approx", lambda ctx, X: {"rho": ctx.rho}),
}


def build_method(name: str, ctx: MethodContext, X: np.ndarray) -> Clusterer:
    """Instantiate the named method with the context's parameters.

    Resolves through the :func:`repro.api.make_clusterer` registry,
    threading ``ctx.execution`` into the clusterer. ``X`` is needed only
    to derive the DBSCAN++ sample fraction; the returned clusterer is
    not yet fitted.
    """
    entry = _METHODS.get(name)
    if entry is None:
        raise InvalidParameterError(
            f"unknown method {name!r}; available: {', '.join(ALL_METHODS)}"
        )
    registry_name, params = entry
    return make_clusterer(
        registry_name,
        eps=ctx.eps,
        tau=ctx.tau,
        execution=ctx.execution,
        **params(ctx, X),
    )
