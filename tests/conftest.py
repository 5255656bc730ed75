import numpy as np
import pytest

from offdiag import OrthogonalProjection, PerturbationProblem, SpectralSet
from offdiag.operators import _eigh, _select, validate_hermitian


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def eigendecompose(matrix):
    """``matrix``'s eigendecomposition after the Hermitian check that the build makes of A."""
    return _eigh(validate_hermitian(matrix))


def random_projection(rng, dim, rank):
    """Projection onto the span of ``rank`` eigenvectors of a random Hermitian."""
    dec = eigendecompose(random_hermitian(rng, dim))
    order = rng.permutation(dim)
    u = dec.eigenvectors
    return OrthogonalProjection(u[:, order[:rank]], u[:, order[rank:]])


def select(values, region, tol):
    """``(mask, ambiguous, flags)`` of ``values`` in ``region``: one row of ``operators._select``."""
    lo, hi = region.bounds
    rows = np.asarray(values, dtype=float)[None], lo[None], hi[None]
    mask, ambiguous, flags = _select(*rows, region.is_open, tol)
    return mask[0], ambiguous[0], flags[0]


def dense(p):
    """``U U*`` for the range basis U of the projection ``p``: its n x n matrix."""
    u = p.range_basis
    return u @ u.conj().T


def complement(p):
    """I - P: the projection ``p`` with its two bases swapped."""
    return OrthogonalProjection(p.complement_basis, p.range_basis)


def random_unitary(rng, dim, spread=1.0):
    """The random unitary exp(iH), H Hermitian with entries ~ ``spread``."""
    g = spread * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = 0.5 * (g + g.conj().T)
    w, u = np.linalg.eigh(h)
    return (u * np.exp(1j * w)) @ u.conj().T


def rotated(rng, m, spread=1.0):
    """``U m U*`` for the random unitary U of ``random_unitary``."""
    unitary = random_unitary(rng, m.shape[0], spread)
    return unitary @ m @ unitary.conj().T


def mapped_problem(problem, s, t=0.0, unitary=None):
    """``s U (A, V) U* + (t I, 0)`` with sigma and Sigma mapped by ``x -> s x + t``."""
    u = np.eye(problem.dim) if unitary is None else unitary
    a = s * (u @ problem.a @ u.conj().T) + t * np.eye(problem.dim)
    v = s * (u @ problem.v @ u.conj().T)
    sigma, Sigma = (
        SpectralSet([(s * lo + t, s * hi + t) for lo, hi in x.intervals], x.is_open)
        for x in (problem.sigma, problem.Sigma)
    )
    return PerturbationProblem.build(a, v, sigma, Sigma)


def random_close_projection(rng, p, spread=0.3):
    """``U P U*`` for the random unitary U of ``random_unitary``: ``p``'s bases rotated by U.

    The result has the rank of ``p`` and moves away from it as ``spread`` grows.
    """
    unitary = random_unitary(rng, p.dim, spread)
    return OrthogonalProjection(unitary @ p.range_basis, unitary @ p.complement_basis)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
