"""Distance kernels for angular-distance clustering.

The paper works with *cosine distance* ``d_cos(u, v) = 1 - <u, v>`` on
unit-normalized vectors (range ``[0, 2]``) and converts it to Euclidean
distance with Equation 1, ``d_euc = sqrt(2 * d_cos)``, for baselines that
only support Euclidean metrics. This package provides those kernels, the
conversion, batched/blockwise matrix forms and input validation.
"""

from repro.distances.conversion import (
    cosine_from_euclidean,
    euclidean_from_cosine,
)
from repro.distances.functional import (
    angular_distance,
    cosine_distance,
    cosine_distance_to_many,
    cosine_similarity,
    euclidean_distance,
    euclidean_distance_to_many,
    normalize_rows,
    squared_euclidean_distance_to_many,
)
from repro.distances.metric import (
    COSINE,
    EUCLIDEAN,
    Metric,
    get_metric,
    suggest_radii,
)
from repro.distances.matrix import (
    cosine_distance_matrix,
    euclidean_distance_matrix,
    iter_distance_blocks,
    nearest_in_blocks,
    pairwise_cosine_within,
    squared_euclidean_distance_matrix,
)
from repro.distances.validation import (
    check_finite_2d,
    check_unit_norm,
    is_unit_normalized,
)

__all__ = [
    "COSINE",
    "EUCLIDEAN",
    "Metric",
    "angular_distance",
    "check_finite_2d",
    "check_unit_norm",
    "cosine_distance",
    "cosine_distance_matrix",
    "cosine_distance_to_many",
    "cosine_from_euclidean",
    "cosine_similarity",
    "euclidean_distance",
    "euclidean_distance_matrix",
    "euclidean_distance_to_many",
    "euclidean_from_cosine",
    "get_metric",
    "is_unit_normalized",
    "iter_distance_blocks",
    "nearest_in_blocks",
    "normalize_rows",
    "pairwise_cosine_within",
    "squared_euclidean_distance_matrix",
    "squared_euclidean_distance_to_many",
    "suggest_radii",
]
