"""Dense Hermitian primitives: validation, eigendecomposition, norms, projections.

Everything downstream consumes these.  The eigensolver is LAPACK's
Hermitian driver via ``numpy.linalg.eigh`` (a diagonal matrix needs no
solver); the spectral norm goes through the SVD, a different routine, so
norm-vs-eigenvalue cross checks exercise two independent code paths.
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

    The largest deviation ``|m - m*|`` may be ``herm_scale * dim`` times the
    largest entry, so the check does not depend on the matrix's scale.  The
    error message names the first offending entry pair (i, j) vs (j, i).
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
    # an exactly Hermitian matrix, as generated problems are, needs no scale
    if worst > 0 and worst > tol.herm(m.shape[0]) * float(np.abs(m).max()):
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


def hermitian_eigendecompose(matrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    return _eigh(validate_hermitian(matrix, tol))


def _eigh(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of an already validated Hermitian matrix.

    A diagonal matrix needs no LAPACK call: its eigenvalues are the real
    parts of the diagonal, sorted stably, with the matching identity
    columns.  That is what ``eigh`` returns bit for bit, except that it may
    order tied eigenvalues differently.
    """
    if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
        diagonal = np.diagonal(m).real
        order = np.argsort(diagonal, kind="stable")
        u = np.zeros(m.shape, dtype=m.dtype)
        u[order, np.arange(len(order))] = 1.0
        return EigenDecomposition(eigenvalues=diagonal[order], eigenvectors=u)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=u)


@dataclass(frozen=True, eq=False)
class OrthogonalProjection:
    """Orthogonal projection held as orthonormal bases of its range and of the range's complement.

    Both bases have orthonormal columns; the constructor checks only that
    their shapes split one space.  ``projection_from_eigenvectors`` builds
    one from the eigenvector columns it selects and those it leaves.
    """

    range_basis: np.ndarray
    complement_basis: np.ndarray

    def __post_init__(self):
        rows, cols = self.range_basis.shape
        if self.complement_basis.shape != (rows, rows - cols):
            raise ValueError(
                f"bases of shapes {self.range_basis.shape} and {self.complement_basis.shape} "
                "do not split one space"
            )

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    @property
    def dim(self) -> int:
        return self.range_basis.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """``U U*`` for the range basis U."""
        u = self.range_basis
        return u @ u.conj().T

    def complement(self) -> "OrthogonalProjection":
        """I - P; its bases are this projection's, swapped."""
        return OrthogonalProjection(self.complement_basis, self.range_basis)


def compressed_norm(left: np.ndarray, right: np.ndarray, middle=None) -> float:
    """``||left* M right||`` (``M`` = identity when ``middle`` is None) through the SVD.

    With orthonormal columns this is the norm of ``M`` compressed between
    two subspaces: ``||P M Q||`` for the projections P, Q onto their spans,
    computed on a small block instead of n x n products.
    """
    return spectral_norm(_compress(left, right, middle))


def compressed_norm_exceeds(left: np.ndarray, right: np.ndarray, middle, bound: float) -> bool:
    """``compressed_norm(left, right, middle) > bound``, with the SVD only when it can matter.

    ``||X|| <= ||X||_F``, so a block whose Frobenius norm is below ``bound``
    cannot exceed it.  The screen keeps a margin of ``size * eps`` relative,
    which covers the round-off of both computed norms, so every decision is
    the one the SVD comparison would make; blocks nearer the bound, or above
    it, get that comparison.
    """
    block = _compress(left, right, middle)
    if np.linalg.norm(block) <= bound * (1.0 - block.size * np.finfo(float).eps):
        return False
    return spectral_norm(block) > bound


def _compress(left: np.ndarray, right: np.ndarray, middle) -> np.ndarray:
    lhs = left.conj().T
    if middle is not None:
        lhs = lhs @ middle
    return lhs @ right


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
    return OrthogonalProjection(u[:, mask], u[:, ~mask])
