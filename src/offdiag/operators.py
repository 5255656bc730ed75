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


def hermitian_eigendecompose(matrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    m = validate_hermitian(matrix, tol)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=u)


class OrthogonalProjection:
    """Orthogonal projection of rank ``rank``, held as its matrix, its bases, or both.

    The bases are orthonormal columns spanning the range and the range's
    complement.  A projection built from an eigendecomposition keeps the
    eigenvector columns it selects and forms its matrix only when asked; one
    built from a bare matrix finds its bases with one ``eigh``, on first use.
    """

    __slots__ = ("rank", "_matrix", "_range", "_complement")

    def __init__(self, matrix=None, rank: int | None = None, *, bases=None):
        range_cols, complement_cols = bases if bases is not None else (None, None)
        if matrix is None and range_cols is None:
            raise ValueError("a projection needs its matrix or its range basis")
        if rank is None:
            rank = range_cols.shape[1]
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "_matrix", None if matrix is None else np.asarray(matrix))
        object.__setattr__(self, "_range", range_cols)
        object.__setattr__(self, "_complement", complement_cols)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalProjection is immutable")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            c = self._range
            object.__setattr__(self, "_matrix", c @ c.conj().T)
        return self._matrix

    @property
    def dim(self) -> int:
        return (self._range if self._matrix is None else self._matrix).shape[0]

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "OrthogonalProjection":
        """Projection onto the span of orthonormal columns."""
        return cls(bases=(np.asarray(columns, dtype=complex), None))

    def complement(self) -> "OrthogonalProjection":
        """I - P; its bases are this projection's, swapped."""
        matrix = None if self._matrix is None else np.eye(self.dim, dtype=complex) - self._matrix
        bases = self._bases() if matrix is None else (self._range, self._complement)
        return OrthogonalProjection(matrix, self.dim - self.rank, bases=bases[::-1])

    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        if self._range is None or self._complement is None:
            w, u = np.linalg.eigh(self.matrix)
            inside = w > 0.5
            if self._range is None:
                object.__setattr__(self, "_range", u[:, inside])
            if self._complement is None:
                object.__setattr__(self, "_complement", u[:, ~inside])
        return self._range, self._complement

    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the range."""
        return self._bases()[0]

    def complement_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the orthogonal complement of the range."""
        return self._bases()[1]


def compressed_norm(left: np.ndarray, right: np.ndarray, middle=None) -> float:
    """``||left* M right||`` (``M`` = identity when ``middle`` is None) through the SVD.

    With orthonormal columns this is the norm of ``M`` compressed between
    two subspaces: ``||P M Q||`` for the projections P, Q onto their spans,
    computed on a small block instead of n x n products.
    """
    lhs = left.conj().T
    if middle is not None:
        lhs = lhs @ middle
    return spectral_norm(lhs @ right)


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
    """Projection onto the selected eigenvectors; it keeps both column sets as its bases."""
    mask = np.asarray(mask, dtype=bool)
    u = decomposition.eigenvectors
    return OrthogonalProjection(bases=(u[:, mask], u[:, ~mask]))
