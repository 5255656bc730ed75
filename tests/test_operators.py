import math

import numpy as np
import pytest

from offdiag import (
    DEFAULT_TOL,
    OrthogonalProjection,
    SpectralSet,
    ValidationError,
    builtin_example,
    hermitian_eigendecompose,
    spectral_norm,
)
from offdiag.operators import (
    projection_from_eigenvectors,
    select_eigenvalues,
    validate_hermitian,
)

from conftest import random_hermitian

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def projection_onto(matrix, region):
    """E_M(region) through the library's one path: decompose, select, project."""
    dec = hermitian_eigendecompose(matrix)
    tol = DEFAULT_TOL.eig(dec.dim, float(np.abs(dec.eigenvalues).max()))
    mask = select_eigenvalues(dec.eigenvalues, region, tol)[0]
    return projection_from_eigenvectors(dec, mask)


class TestValidateHermitian:
    def test_accepts_real_symmetric(self):
        m = validate_hermitian([[1.0, 2.0], [2.0, 3.0]])
        assert m.dtype == complex

    def test_rejects_nonhermitian_with_located_entry(self):
        with pytest.raises(ValidationError, match=r"\(0,1\)"):
            validate_hermitian([[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            validate_hermitian(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="finite"):
            validate_hermitian([[np.inf, 0.0], [0.0, 1.0]])


class TestEigendecompose:
    def test_identity(self):
        dec = hermitian_eigendecompose(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1, 1])

    def test_case1_spectrum(self):
        # the 4x4 Jacobi-type sharpness matrix: eigenvalues -2, 0 (double), 2
        b = builtin_example("CASE1").b
        dec = hermitian_eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)

    def test_case2_spectrum(self):
        b = builtin_example("CASE2").b
        dec = hermitian_eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 1.0, 1.0], atol=1e-10)

    def test_case2_spectrum_against_charpoly_oracle(self):
        # independent route: roots of the characteristic polynomial
        b = builtin_example("CASE2").b
        coeffs = np.poly(np.asarray(b))
        roots = np.sort(np.roots(coeffs).real)
        dec = hermitian_eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, roots, atol=1e-8)

    def test_contract_on_random_corpus(self, rng):
        # residual and orthonormality on 200 seeded matrices, dims 2..32
        for k in range(200):
            dim = int(rng.integers(2, 33))
            m = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10)))
            dec = hermitian_eigendecompose(m)
            norm = spectral_norm(m)
            u = dec.eigenvectors
            residual = (u * dec.eigenvalues) @ u.conj().T - m
            assert spectral_norm(residual) <= 1e-10 * dim * (1 + norm)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert spectral_norm(gram - np.eye(dim)) <= 1e-10 * dim
            assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_case1_perturbation(self):
        assert abs(spectral_norm(builtin_example("CASE1").v) - SQRT3 / 2) < 1e-12

    def test_case2_perturbation(self):
        assert abs(spectral_norm(builtin_example("CASE2").v) - SQRT2) < 1e-12

    def test_equals_max_abs_eigenvalue_for_hermitian(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 33))
            m = random_hermitian(rng, dim)
            dec = hermitian_eigendecompose(m)
            expected = float(np.abs(dec.eigenvalues).max())
            assert abs(spectral_norm(m) - expected) <= 1e-10 * dim * (1 + expected)


class TestSpectralProjection:
    def test_diagonal_by_inspection(self):
        a = np.diag([-1.5, -0.5, 0.5, 1.5])
        p = projection_onto(a, SpectralSet.from_points([-1.5, 0.5]))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)
        assert p.rank == 2

    def test_case2_rank_one_projection(self):
        # hand-derived: eigenvector of eigenvalue -2 is (-sqrt2, 1, 0)/sqrt3
        b = builtin_example("CASE2").b
        p = projection_onto(b, SpectralSet.from_points([-2.0]))
        expected = np.array(
            [
                [2 / 3, -SQRT2 / 3, 0.0],
                [-SQRT2 / 3, 1 / 3, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        assert p.rank == 1
        np.testing.assert_allclose(p.matrix, expected, atol=1e-12)

    def test_full_spectrum_gives_identity(self, rng):
        m = random_hermitian(rng, 5)
        dec = hermitian_eigendecompose(m)
        full = SpectralSet([(dec.eigenvalues.min(), dec.eigenvalues.max())])
        p = projection_onto(m, full)
        np.testing.assert_allclose(p.matrix, np.eye(5), atol=1e-12)
        assert p.rank == 5

    def test_partition_of_unity_and_commutation(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            m = random_hermitian(rng, dim)
            dec = hermitian_eigendecompose(m)
            cut = float(np.median(dec.eigenvalues)) + 1e-3
            low = SpectralSet([(-np.inf, cut)])
            high = SpectralSet([(cut, np.inf)])
            if min(abs(dec.eigenvalues - cut)) < 1e-6:
                continue
            p1 = projection_onto(m, low)
            p2 = projection_onto(m, high)
            assert spectral_norm(p1.matrix + p2.matrix - np.eye(dim)) <= 1e-10 * dim
            norm = spectral_norm(m)
            assert (
                spectral_norm(p1.matrix @ m - m @ p1.matrix)
                <= 1e-10 * dim * max(norm, 1.0)
            )
            for p in (p1, p2):
                assert spectral_norm(p.matrix @ p.matrix - p.matrix) <= 1e-10 * dim


class TestSelectEigenvalues:
    def test_closed_boundary_flags_in_eigenvalue_order(self):
        region = SpectralSet([(-1.0, 0.0), (2.0, 3.0)])
        values = np.array([-1.0, -0.5, 0.0, 1.0, 3.0 + 1e-12])
        mask, ambiguous, flags = select_eigenvalues(values, region, 1e-10)
        assert mask.tolist() == [True, True, True, False, True]
        assert not ambiguous.any()
        assert flags == [
            f"eigenvalue {x:.12g} attains the closed boundary of [-1, 0] U [2, 3]; counted inside"
            for x in (-1.0, 0.0, 3.0 + 1e-12)
        ]

    def test_open_boundary_flags_are_ambiguous_and_excluded(self):
        region = SpectralSet.from_points([-1.5, 0.5]).open_neighborhood(0.5)
        values = np.array([-2.0, -1.2, 0.0, 0.7, 1.5])
        mask, ambiguous, flags = select_eigenvalues(values, region, 1e-10)
        assert mask.tolist() == [False, True, False, True, False]
        assert ambiguous.tolist() == [True, False, True, False, False]
        assert flags == [
            "eigenvalue -2 is AMBIGUOUS on the open boundary of (-2, -1) U (0, 1); excluded",
            "eigenvalue 0 is AMBIGUOUS on the open boundary of (-2, -1) U (0, 1); excluded",
        ]

    def test_empty_region_selects_nothing(self):
        mask, ambiguous, flags = select_eigenvalues(np.array([0.0, 1.0]), SpectralSet.empty(), 1.0)
        assert not mask.any() and not ambiguous.any() and flags == []


class TestValidateProjection:
    def test_accepts_projection(self):
        p = OrthogonalProjection(np.diag([1.0, 0.0, 1.0]), rank=2)
        assert p.rank == 2
        basis = p.range_basis()
        assert basis.shape == (3, 2) and p.complement_basis().shape == (3, 1)
        np.testing.assert_allclose(basis @ basis.conj().T, p.matrix, atol=1e-12)

    def test_complement(self):
        p = OrthogonalProjection(np.diag([1.0, 0.0]), rank=1)
        np.testing.assert_allclose(p.complement().matrix, np.diag([0.0, 1.0]))
        assert p.complement().rank == 1
