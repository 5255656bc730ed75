"""Dense Hermitian primitives: validation, eigendecomposition, norms, projections.

Everything downstream consumes these.  The eigensolver is LAPACK's
Hermitian driver via ``numpy.linalg.eigh``; the spectral norm goes through
the SVD, a different routine, so norm-vs-eigenvalue cross checks exercise
two independent code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .intervals import SpectralSet, locate_points


class ValidationError(ValueError):
    """Input fails a structural invariant (hermiticity, shape, finiteness)."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


class BoundaryAmbiguityError(ValueError):
    """An eigenvalue sits too close to the boundary of the selection set."""

    def __init__(self, eigenvalue: float, distance: float):
        self.eigenvalue = eigenvalue
        self.distance = distance
        super().__init__(
            f"eigenvalue {eigenvalue!r} is within {distance:.3e} of the set boundary; "
            "membership is ambiguous"
        )


def validate_hermitian(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return ``matrix`` as a square complex array, or raise ValidationError.

    The error message names the first offending entry pair (i, j) vs (j, i).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite")
    dev = np.abs(m - m.conj().T)
    worst = float(dev.max())
    if worst > tol.herm(m.shape[0]):
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: entry ({i},{j})={m[i, j]} vs "
            f"conjugate of ({j},{i})={m[j, i]} (deviation {worst:.3e})"
        )
    return m


def spectral_norm(matrix) -> float:
    """Largest singular value; for Hermitian input this is max |eigenvalue|."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite")
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending, eigenvector columns orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def hermitian_eigendecompose(matrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    m = validate_hermitian(matrix, tol)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=u)


@dataclass(frozen=True, eq=False)
class OrthogonalProjection:
    matrix: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "OrthogonalProjection":
        """Projection onto the span of orthonormal columns."""
        c = np.asarray(columns, dtype=complex)
        return cls(matrix=c @ c.conj().T, rank=c.shape[1])

    @classmethod
    def zero(cls, dim: int) -> "OrthogonalProjection":
        return cls(matrix=np.zeros((dim, dim), dtype=complex), rank=0)

    @classmethod
    def identity(cls, dim: int) -> "OrthogonalProjection":
        return cls(matrix=np.eye(dim, dtype=complex), rank=dim)

    def complement(self) -> "OrthogonalProjection":
        return OrthogonalProjection(
            matrix=np.eye(self.dim, dtype=complex) - self.matrix, rank=self.dim - self.rank
        )

    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the range."""
        w, u = np.linalg.eigh(self.matrix)
        return u[:, w > 0.5]

    def complement_basis(self) -> np.ndarray:
        w, u = np.linalg.eigh(self.matrix)
        return u[:, w <= 0.5]


def validate_projection(matrix, tol: Tolerances = DEFAULT_TOL) -> OrthogonalProjection:
    """Check idempotency, self-adjointness and integer trace; return the projection."""
    m = np.asarray(matrix, dtype=complex)
    dim = m.shape[0]
    bound = tol.proj(dim)
    if spectral_norm(m - m.conj().T) > bound:
        raise ValidationError("projection is not self-adjoint")
    if spectral_norm(m @ m - m) > bound:
        raise ValidationError("projection is not idempotent")
    trace = m.trace().real
    rank = int(round(trace))
    if abs(trace - rank) > bound * dim:
        raise ValidationError(f"projection trace {trace} is not close to an integer")
    return OrthogonalProjection(matrix=m, rank=rank)


def select_eigenvalues(
    eigenvalues: np.ndarray, region: SpectralSet, tol: float
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Tolerance-aware selection of eigenvalues lying in ``region``.

    Returns ``(mask, ambiguous, flags)``.  For closed regions a value
    within ``tol`` of the region counts as inside (boundary attainment is
    how the sharp examples behave); for open regions a value within
    ``tol`` of an endpoint is excluded but marked ambiguous.  Flags record
    every such boundary event instead of silently deciding.
    """
    values = np.asarray(eigenvalues, dtype=float)
    mask, ambiguous, near = locate_points(values, *region.bounds, region.is_open, tol)
    flags: list[str] = []
    # an inside value near the boundary occurs only for closed regions
    flagged = np.flatnonzero(ambiguous | (mask & near))
    if flagged.size:
        where = repr(region)
        for i in flagged:
            x = float(values[i])
            if ambiguous[i]:
                flags.append(
                    f"eigenvalue {x:.12g} is AMBIGUOUS on the open boundary of {where}; excluded"
                )
            else:
                flags.append(
                    f"eigenvalue {x:.12g} attains the closed boundary of {where}; counted inside"
                )
    return mask, ambiguous, flags


def projection_from_eigenvectors(
    decomposition: EigenDecomposition, mask: np.ndarray
) -> OrthogonalProjection:
    cols = decomposition.eigenvectors[:, np.asarray(mask, dtype=bool)]
    if cols.shape[1] == 0:
        return OrthogonalProjection.zero(decomposition.dim)
    return OrthogonalProjection.from_columns(cols)


def spectral_projection(
    matrix, region: SpectralSet, tol: Tolerances = DEFAULT_TOL
) -> OrthogonalProjection:
    """Projection onto the eigenvectors of ``matrix`` with eigenvalues in ``region``.

    Strict: raises BoundaryAmbiguityError if any eigenvalue is too close to
    an open-set endpoint to classify.
    """
    decomp = hermitian_eigendecompose(matrix, tol)
    norm = float(np.abs(decomp.eigenvalues).max()) if decomp.dim else 0.0
    eig_tol = tol.eig(decomp.dim, norm)
    mask, ambiguous, _ = select_eigenvalues(decomp.eigenvalues, region, eig_tol)
    if ambiguous.any():
        i = int(np.argmax(ambiguous))
        x = float(decomp.eigenvalues[i])
        raise BoundaryAmbiguityError(x, region.boundary_distance(x))
    return projection_from_eigenvectors(decomp, mask)
