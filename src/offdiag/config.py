"""Tolerance configuration shared across the library.

All numerical slack lives here so that every comparison in the library is
traceable to one knob.  Scales follow the rule "comfortably above
double-precision round-off at desk dimensions": structural checks grow
linearly with dimension, eigenvalue checks additionally with the matrix
norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    herm_scale: float = 1e-10   # hermiticity check: herm_scale * dim
    proj_scale: float = 1e-10   # proj_scale * dim: off-diagonality when V = 0, the commutator
                                # [A, P] and graph_operator's premise ||P - Q|| < 1
    eig_scale: float = 1e-10    # eigenvalue placement: eig_scale * dim * (1 + max |eigenvalue|)
    offdiag: float = 1e-10      # off-diagonality, relative to the perturbation norm
    report: float = 1e-9        # additive slack when comparing measured vs claimed bounds

    def herm(self, dim: int) -> float:
        return self.herm_scale * dim

    def proj(self, dim: int) -> float:
        return self.proj_scale * dim

    def eig(self, eigenvalues) -> float | np.ndarray:
        """Placement tolerance for a spectrum; a stack of spectra gets one per row (last axis)."""
        values = np.asarray(eigenvalues)
        tol = self.eig_scale * values.shape[-1] * (1.0 + np.abs(values).max(axis=-1))
        return float(tol) if values.ndim == 1 else tol

    def scaled(self, factor: float) -> "Tolerances":
        """All tolerances multiplied by ``factor`` (CLI ``--tol-scale``)."""
        if factor <= 0:
            raise ValueError("tolerance scale factor must be positive")
        return replace(
            self,
            herm_scale=self.herm_scale * factor,
            proj_scale=self.proj_scale * factor,
            eig_scale=self.eig_scale * factor,
            offdiag=self.offdiag * factor,
            report=self.report * factor,
        )


DEFAULT_TOL = Tolerances()
