"""Dataset registry mirroring the paper's Table 1.

The registry keeps the paper's names, dimensions, relative sizes and the
per-dataset error factors ``alpha`` used by LAF-DBSCAN, while the point
counts scale by a single ``scale`` factor so the whole evaluation runs on
one machine. The points themselves are synthetic surrogates generated
in-process (see :mod:`repro.data`), not the paper's embeddings.

>>> ds = load_dataset("MS-50k", scale=0.01, seed=0)
>>> ds.X.shape[1]
768
>>> train, test = ds.split()
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping
from types import MappingProxyType

import numpy as np

from repro.data.splits import train_test_split
from repro.data.synthetic import make_glove_like, make_ms_like, make_nyt_like
from repro.exceptions import InvalidParameterError
from repro.rng import ensure_rng

__all__ = ["DatasetSpec", "Dataset", "DATASET_SPECS", "dataset_names", "load_dataset"]

#: Smallest dataset the registry will generate regardless of scale.
_MIN_POINTS = 120


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Static description of one evaluation dataset (paper Table 1)."""

    name: str
    n_full: int
    dim: int
    alpha: float
    vector_type: str
    generator: Callable[..., tuple[np.ndarray, np.ndarray]]

    def n_at_scale(self, scale: float) -> int:
        if scale <= 0:
            raise InvalidParameterError(f"scale must be positive; got {scale}")
        return max(_MIN_POINTS, int(round(self.n_full * scale)))


@dataclasses.dataclass(frozen=True)
class Dataset:
    """A generated dataset plus its registry spec.

    Attributes
    ----------
    X:
        Unit-normalized vectors, shape ``(n, spec.dim)``.
    generative_labels:
        The generator's component ids (noise -1). Not the clustering
        ground truth — the paper uses original DBSCAN output for that.
    """

    name: str
    X: np.ndarray
    generative_labels: np.ndarray
    spec: DatasetSpec
    seed: int | None

    @property
    def n_points(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])

    def split(
        self, train_fraction: float = 0.8, seed: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Paper-style 8:2 split into (train, test) matrices."""
        split_seed = self.seed if seed is None else seed
        return train_test_split(self.X, train_fraction, split_seed)


def _spec(name, n_full, dim, alpha, vector_type, generator) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        n_full=n_full,
        dim=dim,
        alpha=alpha,
        vector_type=vector_type,
        generator=generator,
    )


#: Table 1 of the paper: name -> (size, dim, alpha, vector type).
#: Read-only: the paper's dataset matrix is fixed, not patchable state.
DATASET_SPECS: Mapping[str, DatasetSpec] = MappingProxyType(
    {
        "NYT-150k": _spec(
            "NYT-150k", 150_000, 256, 1.15, "Bag-of-words", make_nyt_like
        ),
        "Glove-150k": _spec(
            "Glove-150k", 150_000, 200, 2.0, "Word embedding", make_glove_like
        ),
        "MS-150k": _spec(
            "MS-150k", 152_185, 768, 7.7, "Passage embedding", make_ms_like
        ),
        "MS-100k": _spec(
            "MS-100k", 107_400, 768, 2.0, "Passage embedding", make_ms_like
        ),
        "MS-50k": _spec("MS-50k", 53_700, 768, 1.5, "Passage embedding", make_ms_like),
    }
)


def dataset_names() -> list[str]:
    """All registry names, in Table 1 order."""
    return list(DATASET_SPECS)


def load_dataset(
    name: str,
    scale: float = 0.01,
    seed: int | None = 0,
    **generator_overrides,
) -> Dataset:
    """Generate the named dataset at ``scale`` times its paper size.

    Parameters
    ----------
    name:
        One of :func:`dataset_names` (paper Table 1 names).
    scale:
        Fraction of the paper's point count to generate (default 1%).
    seed:
        Generator seed; also the default split seed.
    generator_overrides:
        Extra keyword arguments forwarded to the underlying generator
        (e.g. ``noise_fraction``).

    Notes
    -----
    The three MS datasets intentionally share one distribution family and
    differ only in size (and seed), mirroring how the paper samples
    nested subsets of MS MARCO for the scalability study.
    """
    if name not in DATASET_SPECS:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_SPECS)}"
        )
    spec = DATASET_SPECS[name]
    n = spec.n_at_scale(scale)
    rng = ensure_rng(seed)
    kwargs = {"dim": spec.dim} if "dim" not in generator_overrides else {}
    if spec.generator is make_nyt_like:
        kwargs = {"out_dim": spec.dim}
    kwargs.update(generator_overrides)
    X, labels = spec.generator(n, seed=rng, **kwargs)
    return Dataset(name=name, X=X, generative_labels=labels, spec=spec, seed=seed)
