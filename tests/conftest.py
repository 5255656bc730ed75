import numpy as np
import pytest

from offdiag import PerturbationProblem, SpectralSet, spectral_norm
from offdiag.operators import _eigh, _select, validate_hermitian


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def eigendecompose(matrix):
    """``matrix``'s eigendecomposition after the Hermitian check that the build makes of A."""
    return _eigh(validate_hermitian(matrix))


def random_projection(rng, dim, rank):
    """Bases ``(U_P, U_P-perp)`` of the span of ``rank`` eigenvectors of a random Hermitian and
    of its complement: a projection P as the pair of bases that split its space."""
    dec = eigendecompose(random_hermitian(rng, dim))
    order = rng.permutation(dim)
    u = dec.eigenvectors
    return u[:, order[:rank]], u[:, order[rank:]]


def select(values, region, tol):
    """``(mask, ambiguous, flags)`` of ``values`` in ``region``: one row of ``operators._select``."""
    lo, hi = region.bounds
    rows = np.asarray(values, dtype=float)[None], lo[None], hi[None]
    mask, ambiguous, flags = _select(*rows, region.is_open, tol)
    return mask[0], ambiguous[0], flags[0]


def dense(p):
    """``U U*`` for the range basis U of the bases pair ``p``: its projection's n x n matrix."""
    u = p[0]
    return u @ u.conj().T


def complement(p):
    """I - P: the bases pair ``p`` swapped."""
    return p[1], p[0]


def sigma_bases(problem):
    """The bases pair of E_A(sigma): A's eigenvector columns in ``sigma_mask`` and the rest."""
    u, mask = problem.a_eigen.eigenvectors, problem.sigma_mask
    return u[:, mask], u[:, ~mask]


def difference(p, q):
    """``(||P - Q||, ||P Q_perp||, ||P_perp Q||)`` of two bases pairs, from the principal-angle
    blocks ``U_P* U_Q_perp`` and ``U_P_perp* U_Q``, whose larger norm is ``||P - Q||``."""
    pq_perp = spectral_norm(p[0].conj().T @ q[1])
    pperp_q = spectral_norm(p[1].conj().T @ q[0])
    return max(pq_perp, pperp_q), pq_perp, pperp_q


def graph(p, q):
    """X: Ran P -> Ran P-perp with Ran Q = {u + X u}, for bases pairs with ``||P - Q|| < 1``:
    ``X = W U^{-1}`` for U = U_P* U_Q above W = U_P-perp* U_Q."""
    u = p[0].conj().T @ q[0]
    w = p[1].conj().T @ q[0]
    return np.linalg.solve(u.T, w.T).T


def graph_bases(p, x):
    """The bases pair of the graph {u + X u} over ``p``, from a complete QR of its columns."""
    columns = p[0] + p[1] @ x
    z, _ = np.linalg.qr(columns, mode="complete")
    return z[:, : columns.shape[1]], z[:, columns.shape[1] :]


def random_unitary(rng, dim, spread=1.0):
    """The random unitary exp(iH), H Hermitian with entries ~ ``spread``."""
    g = spread * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = 0.5 * (g + g.conj().T)
    w, u = np.linalg.eigh(h)
    return (u * np.exp(1j * w)) @ u.conj().T


def haar_unitary(rng, dim):
    """A Haar-distributed unitary: Q of a complex Gaussian's QR, its columns' phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
    """``U P U*`` for the random unitary U of ``random_unitary``: the bases pair ``p`` rotated by U.

    The result has the rank of ``p`` and moves away from it as ``spread`` grows.
    """
    unitary = random_unitary(rng, p[0].shape[0], spread)
    return unitary @ p[0], unitary @ p[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
