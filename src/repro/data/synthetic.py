"""Synthetic generators with the paper datasets' geometry.

Each generator returns ``(X, labels)`` where ``X`` is unit-normalized and
``labels`` are the *generative* component ids (noise = -1). The
generative labels are not the clustering ground truth — the paper (and
this reproduction) uses original DBSCAN's output as ground truth — but
they are useful for tests and sanity checks.

Geometry targets. Real neural embeddings are anisotropic: all pairwise
similarities are positive because vectors share a strong common
direction, and cluster structure is hierarchical (topics containing
subtopics). The generators therefore compose each point from

* a **global component** shared by the whole corpus (sets the floor of
  pairwise similarity — this is why, in the paper's Table 2, everything
  collapses into a single cluster once ``eps`` reaches 0.7);
* a **cluster component** (micro-cluster center, itself nested inside a
  macro topic for the MS family — making cluster counts fall as ``eps``
  grows and neighboring subtopics merge);
* **isotropic noise** whose per-cluster scale straddles the paper's
  decision thresholds (0.5-0.7), so loose clusters dissolve into noise
  at small ``eps`` and get absorbed at larger ``eps``;
* a **halo**: a fraction of each cluster's points with boosted noise,
  providing the gradual noise-ratio decay Table 2 shows.
"""

from __future__ import annotations

import numpy as np

from repro.data.projection import gaussian_random_projection
from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError
from repro.rng import ensure_rng

__all__ = ["uniform_sphere", "make_ms_like", "make_glove_like", "make_nyt_like"]

#: Noise points carry this generative label.
NOISE_LABEL = -1


def uniform_sphere(
    n: int, dim: int, seed: int | np.random.Generator | None = None
) -> np.ndarray:
    """``n`` points uniformly distributed on the unit sphere in ``dim``-d."""
    if n < 0 or dim < 2:
        raise InvalidParameterError(f"need n >= 0 and dim >= 2; got n={n}, dim={dim}")
    rng = ensure_rng(seed)
    raw = rng.normal(size=(n, dim))
    return normalize_rows(raw, copy=False)


def _skewed_cluster_sizes(
    n: int, n_clusters: int, rng: np.random.Generator, zipf_s: float
) -> np.ndarray:
    """Split ``n`` points into ``n_clusters`` Zipf-skewed positive sizes."""
    ranks = np.arange(1, n_clusters + 1, dtype=np.float64)
    weights = ranks**-zipf_s
    weights /= weights.sum()
    sizes = np.maximum(1, np.floor(weights * n).astype(np.int64))
    # Fix rounding drift while keeping every cluster non-empty.
    while sizes.sum() > n:
        sizes[int(np.argmax(sizes))] -= 1
    while sizes.sum() < n:
        sizes[int(rng.integers(n_clusters))] += 1
    return sizes


def _compose_mixture(
    rng: np.random.Generator,
    n: int,
    n_noise: int,
    global_dir: np.ndarray,
    centers: np.ndarray,
    zipf_s: float,
    spread_range: tuple[float, float],
    background_spread: float,
    global_weight: float,
    cluster_weight: float,
    halo_fraction: float,
    halo_boost: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rows: one cluster per centre, then ``n_noise`` background rows.

    The ``n - n_noise`` clustered rows split into Zipf-skewed sizes, and
    each cluster draws a noise scale log-uniformly from
    ``spread_range``. Cluster ``c``'s rows are
    ``global_weight * global_dir + cluster_weight * centers[c] + noise``,
    normalized, where the noise is uniform on the sphere times the
    cluster's scale (times ``halo_boost`` on a ``halo_fraction``
    subset). Background rows are ``global_weight * global_dir`` plus
    ``background_spread`` times uniform noise. Each slice of the one
    output matrix is written in place: the scaled noise first, then the
    (commutative) vector sum and the row normalization, so no per-part
    copy is stacked. Rows and labels come back in one random order.
    """
    sizes = _skewed_cluster_sizes(n - n_noise, len(centers), rng, zipf_s)
    low, high = spread_range
    spreads = np.exp(rng.uniform(np.log(low), np.log(high), size=len(centers)))
    dim = global_dir.size
    X = np.empty((n, dim))
    y = np.full(n, NOISE_LABEL, dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    for cluster_id, (center, spread) in enumerate(zip(centers, spreads)):
        lo, hi = bounds[cluster_id], bounds[cluster_id + 1]
        rows = X[lo:hi]
        scales = np.full(hi - lo, float(spread))
        halo = rng.uniform(size=hi - lo) < halo_fraction
        scales[halo] *= halo_boost
        np.multiply(uniform_sphere(hi - lo, dim, rng), scales[:, None], out=rows)
        rows += global_weight * global_dir + cluster_weight * center
        # Assigning the in-place result back to its own slice is free.
        X[lo:hi] = normalize_rows(rows, copy=False)
        y[lo:hi] = cluster_id
    if n_noise:
        rows = X[n - n_noise :]
        np.multiply(uniform_sphere(n_noise, dim, rng), background_spread, out=rows)
        rows += global_weight * global_dir
        X[n - n_noise :] = normalize_rows(rows, copy=False)
    order = rng.permutation(n)
    return X[order], y[order]


def make_ms_like(
    n: int,
    dim: int = 768,
    n_macro: int = 6,
    micro_per_macro: int = 8,
    global_weight: float = 0.45,
    cluster_weight: float = 0.65,
    macro_spread: float = 1.6,
    spread_range: tuple[float, float] = (0.38, 0.85),
    halo_fraction: float = 0.22,
    halo_boost: float = 2.2,
    noise_fraction: float = 0.12,
    zipf_s: float = 1.1,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Passage-embedding surrogate: hierarchical anisotropic mixture.

    Macro "topics" are random directions; each holds ``micro_per_macro``
    micro-clusters whose centers sit ``macro_spread`` away from the
    macro direction. Per-micro noise scales are drawn log-uniformly from
    ``spread_range`` so intra-cluster cosine distances straddle the
    paper's thresholds. "Noise" points carry the global direction only.

    The resulting (eps, tau) behaviour mirrors the paper's Table 2:
    rising ``eps`` first absorbs halo/loose points (noise ratio falls),
    then merges micro-clusters within a macro topic (cluster count
    falls), and finally collapses macros into one giant cluster.

    Returns
    -------
    ``(X, labels)`` — unit rows, generative micro-cluster ids (noise -1).
    """
    if not 0.0 <= noise_fraction < 1.0:
        raise InvalidParameterError(
            f"noise_fraction must lie in [0, 1); got {noise_fraction}"
        )
    rng = ensure_rng(seed)
    n_noise = int(round(n * noise_fraction))
    global_dir = uniform_sphere(1, dim, rng)[0]
    macro_dirs = uniform_sphere(n_macro, dim, rng)
    micro_centers = np.vstack(
        [
            normalize_rows(
                macro[None, :]
                + macro_spread * uniform_sphere(micro_per_macro, dim, rng),
                copy=False,
            )
            for macro in macro_dirs
        ]
    )
    return _compose_mixture(
        rng,
        n,
        n_noise,
        global_dir,
        micro_centers,
        zipf_s,
        spread_range,
        1.15,
        global_weight,
        cluster_weight,
        halo_fraction,
        halo_boost,
    )


def make_glove_like(
    n: int,
    dim: int = 200,
    n_clusters: int = 25,
    global_weight: float = 0.35,
    cluster_weight: float = 0.8,
    spread_range: tuple[float, float] = (0.4, 0.95),
    halo_fraction: float = 0.15,
    halo_boost: float = 2.0,
    noise_fraction: float = 0.1,
    zipf_s: float = 1.25,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Word-embedding surrogate: flat anisotropic mixture, Zipf sizes.

    Like :func:`make_ms_like` but with a single level of clusters, a
    weaker global component and heavier size skew (word frequencies are
    heavy-tailed). Matches the paper's observation that Glove clusters
    are easier to keep separate than MS MARCO's.
    """
    if not 0.0 <= noise_fraction < 1.0:
        raise InvalidParameterError(
            f"noise_fraction must lie in [0, 1); got {noise_fraction}"
        )
    rng = ensure_rng(seed)
    n_noise = int(round(n * noise_fraction))
    global_dir = uniform_sphere(1, dim, rng)[0]
    centers = uniform_sphere(n_clusters, dim, rng)
    return _compose_mixture(
        rng,
        n,
        n_noise,
        global_dir,
        centers,
        zipf_s,
        spread_range,
        1.2,
        global_weight,
        cluster_weight,
        halo_fraction,
        halo_boost,
    )


def make_nyt_like(
    n: int,
    out_dim: int = 256,
    vocab_size: int = 2000,
    n_topics: int = 12,
    doc_length_mean: float = 300.0,
    topic_concentration: float = 0.05,
    doc_topic_concentration: float = 0.08,
    background_mix: float = 0.3,
    noise_fraction: float = 0.05,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bag-of-words surrogate: LDA-style counts, random projection, normalize.

    Documents draw a sparse topic mixture (Dirichlet with small
    ``doc_topic_concentration``, so most documents are dominated by one
    topic), mix in a corpus-wide background word distribution
    (``background_mix`` — stopword mass shared by all articles), sample
    multinomial word counts, then follow the paper's NYTimes pipeline:
    Gaussian random projection to ``out_dim`` dimensions and L2
    normalization. "Noise" documents draw from the background only. The
    generative label is the dominant topic.
    """
    if not 0.0 <= noise_fraction < 1.0:
        raise InvalidParameterError(
            f"noise_fraction must lie in [0, 1); got {noise_fraction}"
        )
    if not 0.0 <= background_mix < 1.0:
        raise InvalidParameterError(
            f"background_mix must lie in [0, 1); got {background_mix}"
        )
    rng = ensure_rng(seed)
    topic_word = rng.dirichlet(np.full(vocab_size, topic_concentration), size=n_topics)
    background = rng.dirichlet(np.full(vocab_size, 1.0))
    n_noise = int(round(n * noise_fraction))
    n_docs = n - n_noise
    counts = np.zeros((n, vocab_size))
    labels = np.empty(n, dtype=np.int64)
    lengths = np.maximum(20, rng.poisson(doc_length_mean, size=n))
    for i in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, doc_topic_concentration))
        word_dist = (1.0 - background_mix) * (theta @ topic_word) + (
            background_mix * background
        )
        counts[i] = rng.multinomial(int(lengths[i]), word_dist)
        labels[i] = int(np.argmax(theta))
    for i in range(n_docs, n):
        counts[i] = rng.multinomial(int(lengths[i]), background)
        labels[i] = NOISE_LABEL
    projected = gaussian_random_projection(counts, out_dim, rng)
    X = normalize_rows(projected, copy=False)
    order = rng.permutation(n)
    return X[order], y_ordered(labels, order)


def y_ordered(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Apply a permutation to labels (tiny helper kept for readability)."""
    return labels[order]
