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
from .intervals import SpectralSet, _format, _normalize, locate_points


class ValidationError(ValueError):
    """Input fails a structural invariant (hermiticity, shape, finiteness)."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


def validate_hermitian(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return ``matrix`` as a square complex array, or raise ValidationError.

    The largest deviation ``|m - m*|`` may be ``herm_scale * dim`` times the
    largest entry, so the check does not depend on the matrix's scale.  A
    stack equal to its conjugate transpose entry for entry returns before
    that deviation is formed.  The error message names the first offending
    entry pair (i, j) vs (j, i) of the first offending matrix of a stack (T, n, n).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    stack = _finite(m).reshape(-1, *m.shape[-2:])
    adjoint = stack.conj().swapaxes(1, 2)
    # an exactly Hermitian stack, as generated problems are, needs no deviation pass
    if (stack == adjoint).all():
        return m
    dev = np.abs(stack - adjoint)
    worst = dev.max(axis=(1, 2))
    bad = np.flatnonzero(worst > tol.herm(m.shape[-1]) * np.abs(stack).max(axis=(1, 2)))
    if bad.size:
        k = bad[0]
        i, j = np.unravel_index(int(dev[k].argmax()), dev.shape[1:])
        raise ValidationError(
            f"matrix is not Hermitian: entry ({i},{j})={stack[k, i, j]} vs "
            f"conjugate of ({j},{i})={stack[k, j, i]} (deviation {worst[k]:.3e})"
        )
    return m


_EXACT = Tolerances(herm_scale=0.0)  # ``validate_hermitian`` reads only ``herm`` of a tolerance


def _validated(matrix, tol: Tolerances) -> tuple[np.ndarray, bool]:
    """``validate_hermitian(matrix, tol)``, and whether the exact check, made first, passed."""
    try:
        return validate_hermitian(matrix, _EXACT), True
    except ValidationError:
        return validate_hermitian(matrix, tol), False


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def spectral_norm(matrix) -> float | np.ndarray:
    """Largest singular value, one per matrix of a stack; for Hermitian input max |eigenvalue|."""
    m = _finite(np.asarray(matrix, dtype=complex))
    norms = np.linalg.svd(m, compute_uv=False)[..., 0] if m.size else np.zeros(m.shape[:-2])
    return float(norms) if m.ndim == 2 else norms


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending, eigenvector columns orthonormal.

    If every matrix was diagonal, column j is the identity column ``order[..., j]``; else no order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    order: np.ndarray | None = None

    def __getitem__(self, row) -> "EigenDecomposition":
        """The decomposition of a stack's row, or of the rows that the index ``row`` picks."""
        order = None if self.order is None else self.order[row]
        return EigenDecomposition(self.eigenvalues[row], self.eigenvectors[row], order)


def hermitian_eigendecompose(matrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    return _eigh(validate_hermitian(matrix, tol))


def _eigh(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a validated Hermitian matrix, or of each of a stack (T, n, n).

    A diagonal matrix needs no LAPACK call: its eigenvalues are the real
    parts of the diagonal, sorted stably, with the matching identity
    columns.  That is what ``eigh`` returns bit for bit, except that it may
    order tied eigenvalues differently.  The others go through one stacked
    ``eigh``.  A stack of diagonal matrices keeps the sort as its ``order``.
    """
    stack = m.reshape(-1, *m.shape[-2:])
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    plain = np.count_nonzero(stack, axis=(1, 2)) == np.count_nonzero(diagonal, axis=1)
    try:
        # a stack with no diagonal matrix is LAPACK's output itself, without copies
        lapack = None if plain.all() else np.linalg.eigh(stack[~plain] if plain.any() else stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    if plain.any():
        w, u = np.empty(diagonal.shape), np.zeros(stack.shape, dtype=m.dtype)
        order = np.argsort(diagonal[plain].real, axis=1, kind="stable")
        w[plain] = np.take_along_axis(diagonal[plain].real, order, axis=1)
        u[np.flatnonzero(plain)[:, None], order, np.arange(order.shape[1])] = 1.0
        if lapack is not None:
            w[~plain], u[~plain] = lapack
    else:
        w, u = lapack
    return EigenDecomposition(eigenvalues=w.reshape(m.shape[:-1]), eigenvectors=u.reshape(m.shape),
                              order=None if lapack is not None else order.reshape(m.shape[:-1]))


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


def compressed_norm(left: np.ndarray, right: np.ndarray, middle=None) -> float | np.ndarray:
    """``||left* M right||`` (``M`` = identity when ``middle`` is None) through the SVD.

    With orthonormal columns this is the norm of ``M`` compressed between
    two subspaces: ``||P M Q||`` for the projections P, Q onto their spans,
    computed on a small block instead of n x n products.  Stacks give one norm per block.
    """
    return spectral_norm(_compress(left, right, middle))


def norm_exceeds(block: np.ndarray, bound) -> np.ndarray:
    """``spectral_norm(block) > bound`` per block of a stack, with the SVD only if it matters.

    ``||X|| <= ||X||_F``, so a block whose Frobenius norm is below ``bound``
    cannot exceed it.  The screen keeps a margin of ``size * eps`` relative,
    which covers the round-off of both computed norms, so every decision is
    the one the SVD comparison would make; blocks nearer the bound, or above
    it, get that comparison.
    """
    size = block.shape[-2] * block.shape[-1]
    bound = np.broadcast_to(bound, block.shape[:-2])
    screen = bound * (1.0 - size * np.finfo(float).eps)
    exceeds = np.asarray(np.linalg.norm(block, axis=(-2, -1)) > screen)
    if exceeds.any():
        exceeds[exceeds] = spectral_norm(block[exceeds]) > bound[exceeds]
    return exceeds


def _compress(left: np.ndarray, right: np.ndarray, middle) -> np.ndarray:
    lhs = left.conj().swapaxes(-1, -2)
    if middle is not None:
        lhs = lhs @ middle
    return lhs @ right


def _mask_groups(left_mask, right_mask, rows=None):
    """``(group, left, right)`` over the mask rows (V, n) of ``rows`` (default all), by widths.

    Every mask row of a group picks as many indices as the others on each
    side; ``left`` and ``right`` (G, k) hold them.  Picks are never
    zero-padded, as an SVD of a padded block can move its last bits.
    """
    n = left_mask.shape[-1]
    rows = np.arange(len(left_mask)) if rows is None else rows
    widths = left_mask[rows].sum(axis=-1) * (n + 1) + right_mask[rows].sum(axis=-1)
    for width in sorted(set(widths.tolist())):
        group = rows[widths == width]
        yield group, *(np.nonzero(mask[group])[1].reshape(len(group), count)
                       for mask, count in zip((left_mask, right_mask), divmod(width, n + 1)))


def _blocks(eigen: EigenDecomposition, group, left, right, middle=None, other=None) -> np.ndarray:
    """``U[:, left[g]]* M W[:, right[g]]`` stacked over the mask rows v = group[g] of a group.

    Row v takes matrix i = v mod T of U, ``eigen``'s eigenvectors (T, n, n), of M,
    ``middle`` or the identity, and of W, ``other``'s eigenvectors or U.  With
    ``eigen.order`` the block is rows ``order[i][left[g]]`` of M W, gathered without
    a product; it may differ from the product's only in the sign of exact zeros.
    """
    u, i = eigen.eigenvectors, (group % len(eigen.eigenvectors))[:, None]
    w = u if other is None else other.eigenvectors
    if eigen.order is not None:
        source, cols = (middle, eigen.order[i, right]) if other is None else (w, right)
        return source[i[:, :, None], eigen.order[i, left][:, :, None], cols[:, None, :]]
    # a group of every matrix takes M itself, so a large problem is not copied
    middle = middle if middle is None or len(group) == len(middle) else middle[i[:, 0]]
    every = np.arange(u.shape[-1])[:, None]
    return _compress(u[i[:, :, None], every, left[:, None, :]],
                     w[i[:, :, None], every, right[:, None, :]], middle)


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
    lo, hi = region.bounds
    values = np.asarray(eigenvalues, dtype=float)[None]
    mask, ambiguous, flags = _select(values, lo[None], hi[None], region.is_open, tol)
    return mask[0], ambiguous[0], flags[0]


def _select(values, lo, hi, is_open: bool, tol) -> tuple[np.ndarray, np.ndarray, list]:
    """``select_eigenvalues`` on each row of values (T, n), endpoints (T, m) and tol (T,).

    The flags come as one list per row; each names the set of its row's endpoints.
    """
    mask, ambiguous, near = locate_points(values, lo, hi, is_open, tol)
    flags = [[] for _ in values]
    # an inside value near the boundary occurs only for closed regions
    for row, i in zip(*np.nonzero(ambiguous | (mask & near))):
        x = float(values[row, i])
        where = _format(*_normalize(lo[row], hi[row]), is_open)
        flags[row].append(
            f"eigenvalue {x:.12g} is AMBIGUOUS on the open boundary of {where}; excluded"
            if ambiguous[row, i]
            else f"eigenvalue {x:.12g} attains the closed boundary of {where}; counted inside"
        )
    return mask, ambiguous, flags


def projection_from_eigenvectors(
    decomposition: EigenDecomposition, mask: np.ndarray
) -> OrthogonalProjection:
    """Projection onto the selected eigenvectors; it keeps both column sets as its bases."""
    mask = np.asarray(mask, dtype=bool)
    u = decomposition.eigenvectors
    return OrthogonalProjection(u[:, mask], u[:, ~mask])
