"""Tolerance configuration shared across the library.

All numerical slack lives here so that every comparison in the library is
traceable to one knob.  Every tolerance is relative to the size of what it
compares, so scaling a problem scales its tolerances with it, and each sits
comfortably above double-precision round-off at desk dimensions: structural
and eigenvalue checks grow linearly with dimension and with the matrix
norm.  ``report`` is the slack of every theorem verdict; it is applied to
numbers already divided by the problem's scale (see ``analysis._verdict``).
Every field must be finite and nonnegative; zero asks for exact comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    herm_scale: float = 1e-10   # hermiticity check: herm_scale * dim (times max |entry|)
    proj_scale: float = 1e-10   # proj_scale * dim: the commutator [A, P] (times ||A||)
    eig_scale: float = 1e-10    # eigenvalue placement: eig_scale * dim * max |eigenvalue|
    offdiag: float = 1e-10      # off-diagonality, relative to the perturbation norm
    report: float = 1e-9        # verdict slack, relative to the problem's scale

    def __post_init__(self):
        # a NaN or negative slack would turn every comparison into a false finding
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"tolerance {f.name} must be finite and nonnegative, got {value!r}"
                )

    def herm(self, dim: int) -> float:
        return self.herm_scale * dim

    def proj(self, dim: int) -> float:
        return self.proj_scale * dim

    def eig(self, eigenvalues) -> float | np.ndarray:
        """Placement tolerance for a spectrum; a stack of spectra gets one per row (last axis)."""
        values = np.asarray(eigenvalues)
        tol = self.eig_scale * values.shape[-1] * np.abs(values).max(axis=-1)
        return float(tol) if values.ndim == 1 else tol

    def scaled(self, factor: float) -> "Tolerances":
        """All tolerances multiplied by ``factor`` (CLI ``--tol-scale``)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"tolerance scale factor must be finite and positive, got {factor!r}")
        return replace(self, **{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULT_TOL = Tolerances()
