import numpy as np
import pytest

from offdiag import OrthogonalProjection, hermitian_eigendecompose


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_projection(rng, dim, rank):
    """Projection onto the span of ``rank`` eigenvectors of a random Hermitian."""
    dec = hermitian_eigendecompose(random_hermitian(rng, dim))
    cols = rng.permutation(dim)[:rank]
    return OrthogonalProjection.from_columns(dec.eigenvectors[:, cols])


def rotated(rng, m, spread=1.0):
    """``U m U*`` for the random unitary U = exp(iH), H Hermitian with entries ~ ``spread``."""
    dim = m.shape[0]
    g = spread * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = 0.5 * (g + g.conj().T)
    w, u = np.linalg.eigh(h)
    unitary = (u * np.exp(1j * w)) @ u.conj().T
    return unitary @ m @ unitary.conj().T


def random_close_projection(rng, p, spread=0.3):
    """A projection of the same rank, rotated away from ``p`` a little; built from its matrix."""
    return OrthogonalProjection(matrix=rotated(rng, p.matrix, spread), rank=p.rank)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
