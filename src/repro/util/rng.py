"""Deterministic random-number helpers.

Simulations and randomised baselines accept either an integer seed or a
ready :class:`numpy.random.Generator`; this module normalises both to a
``Generator`` so every stochastic component is reproducible by default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["as_generator", "DEFAULT_SEED"]

DEFAULT_SEED = 20010310  # SPAA 2001 — the paper's venue year/monthish tag.


def as_generator(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` to a :class:`numpy.random.Generator`.

    ``None`` maps to the library-wide default seed (fully deterministic),
    an ``int`` seeds a fresh PCG64, and a ``Generator`` passes through.
    """
    import numpy as np

    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
