"""LAF — the paper's contribution.

The Learned Accelerator Framework plugs into DBSCAN-like algorithms:

* :class:`LAF` bundles the plugin: the cardinality estimator and the
  error factor ``alpha`` gating range queries at ``alpha * tau``;
* :func:`~repro.core.laf.partial_neighbors` implements Algorithm 2
  (``UpdatePartialNeighbors``): it reads the partial-neighbor map ``E``
  off the fit's range join, where a query counts toward the stop points
  registered before it;
* :func:`post_process` implements Algorithm 3 (``PostProcessing``) —
  false-negative detection and cluster merging;
* :class:`LAFDBSCAN` is Algorithm 1 (LAF-enhanced DBSCAN);
* :class:`LAFDBSCANPlusPlus` applies the same plugin to DBSCAN++,
  demonstrating LAF's genericity over sampling-based variants;
* :func:`select_alpha` / :func:`predicted_core_ratio` support the
  paper's parameter rules (grid-searched alpha; DBSCAN++ sample fraction
  ``p = delta + R_c``).
"""

from repro.core.alpha import predicted_core_ratio, select_alpha
from repro.core.laf import LAF
from repro.core.laf_dbscan import LAFDBSCAN
from repro.core.laf_dbscanpp import LAFDBSCANPlusPlus
from repro.core.postprocessing import PostProcessOutcome, post_process

__all__ = [
    "LAF",
    "LAFDBSCAN",
    "LAFDBSCANPlusPlus",
    "PostProcessOutcome",
    "post_process",
    "predicted_core_ratio",
    "select_alpha",
]
