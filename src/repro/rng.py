"""Seeded random-number helpers.

All stochastic components in this library (samplers, estimator training,
sampling-based clusterers) accept a ``seed`` argument and route it
through :func:`ensure_rng`, which gives three call styles:

* ``ensure_rng(None)`` — a fresh, OS-seeded generator;
* ``ensure_rng(42)`` or ``ensure_rng(seed_sequence)`` — a deterministic
  generator;
* ``ensure_rng(existing_generator)`` — passed through unchanged, so a
  caller can thread one generator through a whole pipeline.

A class that draws keeps its ``seed`` and calls ``ensure_rng(self.seed)``
in each ``fit``/``build``, so with an int seed a refit repeats the first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Seed", "ensure_rng"]

Seed = int | np.random.SeedSequence | np.random.Generator | None


def ensure_rng(seed: Seed) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic, an ``int`` or a ``SeedSequence``
        for a deterministic stream, or an existing ``Generator`` to pass
        through.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
