"""Synthetic dataset suite substituting for the paper's corpora.

The paper evaluates on NYTimes bag-of-words (projected to 256-d), GloVe
tweet embeddings (200-d) and MS MARCO passage embeddings (768-d). Those
corpora are not available offline, so this package generates structured
surrogates with the same geometry (unit-normalized vectors with angular
cluster structure, matching dimensions) at a configurable scale:

* :func:`make_nyt_like` — topic-model bag-of-words counts, Gaussian
  random projection to 256-d (the ann-benchmarks pipeline the paper
  itself applies to NYTimes), then normalization;
* :func:`make_glove_like` — anisotropic Gaussian mixture with
  Zipf-skewed cluster sizes on the 200-d sphere;
* :func:`make_ms_like` — hierarchical von Mises-Fisher mixture (macro
  topics containing micro clusters) on the 768-d sphere.

:func:`load_dataset` exposes them under the paper's dataset names with
the paper's relative sizes.
"""

from repro.data.datasets import (
    DATASET_SPECS,
    Dataset,
    DatasetSpec,
    dataset_names,
    load_dataset,
)
from repro.data.projection import gaussian_random_projection
from repro.data.splits import train_test_split
from repro.data.synthetic import (
    make_glove_like,
    make_ms_like,
    make_nyt_like,
    uniform_sphere,
)

__all__ = [
    "DATASET_SPECS",
    "Dataset",
    "DatasetSpec",
    "dataset_names",
    "gaussian_random_projection",
    "load_dataset",
    "make_glove_like",
    "make_ms_like",
    "make_nyt_like",
    "train_test_split",
    "uniform_sphere",
]
