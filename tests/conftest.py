import numpy as np
import pytest

from offdiag import OrthogonalProjection, PerturbationProblem, SpectralSet, hermitian_eigendecompose


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_projection(rng, dim, rank):
    """Projection onto the span of ``rank`` eigenvectors of a random Hermitian."""
    dec = hermitian_eigendecompose(random_hermitian(rng, dim))
    order = rng.permutation(dim)
    u = dec.eigenvectors
    return OrthogonalProjection(u[:, order[:rank]], u[:, order[rank:]])


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
