import math

import numpy as np
import pytest

from offdiag import (
    DEFAULT_TOL,
    Case,
    OrthogonalProjection,
    SpectralSet,
    ValidationError,
    builtin_example,
    random_problem,
    random_problem_spec,
    spectral_norm,
)
from offdiag.operators import (
    norm_exceeds,
    projection_from_eigenvectors,
    validate_hermitian,
)

from conftest import dense, eigendecompose, random_hermitian, select
from test_intervals import open_neighborhood

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def projection_onto(matrix, region):
    """E_M(region) through the library's one path: decompose, select, project."""
    dec = eigendecompose(matrix)
    tol = DEFAULT_TOL.eig(dec.eigenvalues)
    mask = select(dec.eigenvalues, region, tol)[0]
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

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValidationError, match="^matrix dimension must be at least 1$"):
            validate_hermitian(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0.0, np.nan)])
    def test_rejects_nonfinite(self, entry):
        with pytest.raises(ValidationError, match="finite"):
            validate_hermitian([[entry, 0.0], [0.0, 1.0]])

    def test_signed_zero_asymmetry_is_exact(self):
        m = np.array([[1.0, -0.0, 0.0], [0.0, 2.0, complex(0.0, -0.0)], [-0.0, 0.0, 3.0]])
        assert not same_bits(m, m.conj().T) and np.array_equal(m, m.conj().T)
        assert same_bits(validate_hermitian(m), m.astype(complex))

    def test_one_ulp_asymmetry_passes_the_deviation_check(self):
        m = np.array([[[1.0, 0.3], [0.3, 2.0]], [[1.0, 0.3], [np.nextafter(0.3, 1.0), 2.0]]])
        assert not np.array_equal(m, m.conj().swapaxes(1, 2))
        assert same_bits(validate_hermitian(m), m.astype(complex))

    def test_a_symmetric_matrix_with_imaginary_parts_is_not_hermitian(self):
        with pytest.raises(ValidationError, match=r"entry \(0,1\)=1j vs conjugate of \(1,0\)=1j"):
            validate_hermitian([[1.0, 1j], [1j, 2.0]])

    def test_larger_asymmetry_names_the_first_offending_pair(self):
        m = np.zeros((3, 3, 3), dtype=complex) + np.eye(3)
        m[1, 1, 2], m[1, 2, 1] = 0.5, 0.25
        m[2, 0, 1], m[2, 1, 0] = 1.0, 0.0
        with pytest.raises(ValidationError) as err:
            validate_hermitian(m)
        assert str(err.value) == (
            "matrix is not Hermitian: entry (1,2)=(0.5+0j) vs conjugate of (2,1)=(0.25+0j) "
            "(deviation 2.500e-01)"
        )


class TestEigendecompose:
    def test_identity(self):
        dec = eigendecompose(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1, 1])

    def test_case1_spectrum(self):
        # the 4x4 Jacobi-type sharpness matrix: eigenvalues -2, 0 (double), 2
        b = builtin_example("CASE1").b
        dec = eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)

    def test_case2_spectrum(self):
        b = builtin_example("CASE2").b
        dec = eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 1.0, 1.0], atol=1e-10)

    def test_case2_spectrum_against_charpoly_oracle(self):
        # independent route: roots of the characteristic polynomial
        b = builtin_example("CASE2").b
        coeffs = np.poly(np.asarray(b))
        roots = np.sort(np.roots(coeffs).real)
        dec = eigendecompose(b)
        np.testing.assert_allclose(dec.eigenvalues, roots, atol=1e-8)

    def test_contract_on_random_corpus(self, rng):
        # residual and orthonormality on 200 seeded matrices, dims 2..32
        for k in range(200):
            dim = int(rng.integers(2, 33))
            m = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10)))
            dec = eigendecompose(m)
            norm = spectral_norm(m)
            u = dec.eigenvectors
            residual = (u * dec.eigenvalues) @ u.conj().T - m
            assert spectral_norm(residual) <= 1e-10 * dim * (1 + norm)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert spectral_norm(gram - np.eye(dim)) <= 1e-10 * dim
            assert np.all(np.diff(dec.eigenvalues) >= 0)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.uint8), np.ascontiguousarray(y).view(np.uint8)
    )


def lapack_calls(monkeypatch):
    """A list that gains one entry per ``np.linalg.eigh`` call from here on."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    return calls


class TestDiagonalShortcut:
    """A diagonal matrix is decomposed without LAPACK, into what ``eigh`` returns."""

    PROBLEMS = {
        "CASE1": lambda: builtin_example("CASE1"),
        "CASE2": lambda: builtin_example("CASE2"),
        **{
            f"{case.name}-8+8": (
                lambda case=case: random_problem(random_problem_spec(case, 8, 8, 0.45, seed=11))
            )
            for case in Case
        },
        "analyze-128+128": lambda: random_problem(
            random_problem_spec(Case.CASE_II, 128, 128, 1.2, seed=0)
        ),
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_bit_equal_to_eigh_on_generated_problems(self, name, monkeypatch):
        p = self.PROBLEMS[name]()
        w, u = np.linalg.eigh(p.a)
        wb, ub = np.linalg.eigh(p.a + p.v)
        calls = lapack_calls(monkeypatch)
        dec = eigendecompose(p.a)
        assert not calls
        assert same_bits(dec.eigenvalues, w) and same_bits(dec.eigenvectors, u)
        built = type(p).build(p.a, p.v, p.sigma, p.Sigma)
        assert len(calls) == 1  # B only
        assert same_bits(built.a_eigen.eigenvalues, w) and same_bits(built.a_eigen.eigenvectors, u)
        assert same_bits(built.b_eigen.eigenvalues, wb)
        assert same_bits(built.b_eigen.eigenvectors, ub)

    @pytest.mark.parametrize("entry", [1e-300, 1e-300j], ids=["real", "imaginary"])
    def test_one_tiny_off_diagonal_entry_goes_to_lapack(self, entry, monkeypatch):
        m = np.diag([3.0, 1.0, 2.0]).astype(complex)
        m[0, 2], m[2, 0] = entry, np.conj(entry)
        calls = lapack_calls(monkeypatch)
        eigendecompose(m)
        assert len(calls) == 1

    def test_ties_give_an_exact_orthonormal_decomposition(self, monkeypatch):
        d = np.array([2.0, 1.0, 2.0, 1.0, 0.5, 2.0])
        m = np.diag(d).astype(complex)
        calls = lapack_calls(monkeypatch)
        dec = eigendecompose(m)
        assert not calls
        u = dec.eigenvectors
        assert np.array_equal(dec.eigenvalues, np.sort(d))
        assert np.array_equal(u.conj().T @ u, np.eye(6))
        assert np.array_equal(m @ u, u * dec.eigenvalues)

    def test_tiny_imaginary_diagonal_parts_are_dropped_as_lapack_does(self, monkeypatch):
        m = np.diag([1e-6 + 1e-11j, -2.0 - 3e-18j, 0.5 + 0j])
        w, u = np.linalg.eigh(m)
        calls = lapack_calls(monkeypatch)
        dec = eigendecompose(m)  # the Hermitian tolerance admits these parts
        assert not calls
        assert np.array_equal(dec.eigenvalues, [-2.0, 1e-6, 0.5])
        assert same_bits(dec.eigenvalues, w) and same_bits(dec.eigenvectors, u)


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
            spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_case1_perturbation(self):
        assert abs(spectral_norm(builtin_example("CASE1").v) - SQRT3 / 2) < 1e-12

    def test_case2_perturbation(self):
        assert abs(spectral_norm(builtin_example("CASE2").v) - SQRT2) < 1e-12

    def test_equals_max_abs_eigenvalue_for_hermitian(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 33))
            m = random_hermitian(rng, dim)
            dec = eigendecompose(m)
            expected = float(np.abs(dec.eigenvalues).max())
            assert abs(spectral_norm(m) - expected) <= 1e-10 * dim * (1 + expected)


class TestSpectralProjection:
    def test_diagonal_by_inspection(self):
        a = np.diag([-1.5, -0.5, 0.5, 1.5])
        p = projection_onto(a, SpectralSet.from_points([-1.5, 0.5]))
        np.testing.assert_allclose(dense(p), np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)
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
        np.testing.assert_allclose(dense(p), expected, atol=1e-12)

    def test_full_spectrum_gives_identity(self, rng):
        m = random_hermitian(rng, 5)
        dec = eigendecompose(m)
        full = SpectralSet([(dec.eigenvalues.min(), dec.eigenvalues.max())])
        p = projection_onto(m, full)
        np.testing.assert_allclose(dense(p), np.eye(5), atol=1e-12)
        assert p.rank == 5

    def test_partition_of_unity_and_commutation(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            m = random_hermitian(rng, dim)
            dec = eigendecompose(m)
            cut = float(np.median(dec.eigenvalues)) + 1e-3
            low = SpectralSet([(-np.inf, cut)])
            high = SpectralSet([(cut, np.inf)])
            if min(abs(dec.eigenvalues - cut)) < 1e-6:
                continue
            p1 = projection_onto(m, low)
            p2 = projection_onto(m, high)
            assert spectral_norm(dense(p1) + dense(p2) - np.eye(dim)) <= 1e-10 * dim
            norm = spectral_norm(m)
            assert (
                spectral_norm(dense(p1) @ m - m @ dense(p1))
                <= 1e-10 * dim * max(norm, 1.0)
            )
            for p in (p1, p2):
                assert spectral_norm(dense(p) @ dense(p) - dense(p)) <= 1e-10 * dim


class TestSelect:
    def test_closed_boundary_flags_in_eigenvalue_order(self):
        region = SpectralSet([(-1.0, 0.0), (2.0, 3.0)])
        values = np.array([-1.0, -0.5, 0.0, 1.0, 3.0 + 1e-12])
        mask, ambiguous, flags = select(values, region, 1e-10)
        assert mask.tolist() == [True, True, True, False, True]
        assert not ambiguous.any()
        assert flags == [
            f"eigenvalue {x:.12g} attains the closed boundary of [-1, 0] U [2, 3]; counted inside"
            for x in (-1.0, 0.0, 3.0 + 1e-12)
        ]

    def test_open_boundary_flags_are_ambiguous_and_excluded(self):
        region = open_neighborhood(SpectralSet.from_points([-1.5, 0.5]), 0.5)
        values = np.array([-2.0, -1.2, 0.0, 0.7, 1.5])
        mask, ambiguous, flags = select(values, region, 1e-10)
        assert mask.tolist() == [False, True, False, True, False]
        assert ambiguous.tolist() == [True, False, True, False, False]
        assert flags == [
            "eigenvalue -2 is AMBIGUOUS on the open boundary of (-2, -1) U (0, 1); excluded",
            "eigenvalue 0 is AMBIGUOUS on the open boundary of (-2, -1) U (0, 1); excluded",
        ]

    def test_empty_region_selects_nothing(self):
        mask, ambiguous, flags = select(np.array([0.0, 1.0]), SpectralSet([]), 1.0)
        assert not mask.any() and not ambiguous.any() and flags == []


class TestValidateProjection:
    def test_accepts_projection(self):
        e = np.eye(3, dtype=complex)
        p = OrthogonalProjection(e[:, [0, 2]], e[:, [1]])
        assert (p.rank, p.dim) == (2, 3)
        np.testing.assert_allclose(dense(p), np.diag([1.0, 0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "range_shape, complement_shape", [((3, 3), (3, 1)), ((3, 1), (3, 1)), ((3, 1), (2, 2))]
    )
    def test_rejects_bases_that_do_not_split_one_space(self, range_shape, complement_shape):
        with pytest.raises(ValueError, match="do not split one space"):
            OrthogonalProjection(np.zeros(range_shape), np.zeros(complement_shape))


class TestNormExceeds:
    """The Frobenius screen against the SVD comparison it stands in for."""

    @staticmethod
    def blocks_at(rng, target, dim=6):
        """Bases and middles whose compressed block has spectral norm ``target``: rank 1 and full."""
        left = np.linalg.qr(random_hermitian(rng, dim))[0][:, : dim // 2]
        right = np.linalg.qr(random_hermitian(rng, dim))[0][:, dim // 2 :]
        x = rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2)
        y = rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2)
        rank_one = np.outer(x, y.conj())
        full = random_hermitian(rng, dim // 2) + np.eye(dim // 2)
        for block in (rank_one, full):
            block = block * (target / spectral_norm(block))
            # left* (left block right*) right == block
            yield left, right, left @ block @ right.conj().T

    # build's bounds: off-diagonality at ||V|| = 1.2 and at V = 0, the commutator at ||A|| = 3.5
    @pytest.mark.parametrize(
        "bound", [DEFAULT_TOL.offdiag * 1.2, DEFAULT_TOL.proj(6), DEFAULT_TOL.proj(6) * 3.5, 1.0]
    )
    @pytest.mark.parametrize("factor", [0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 1e3])
    def test_same_decision_as_the_svd_just_above_and_below_the_bound(self, rng, bound, factor):
        for left, right, middle in self.blocks_at(rng, factor * bound):
            want = spectral_norm(left.conj().T @ middle @ right) > bound
            assert norm_exceeds(left.conj().T @ middle @ right, bound) == want
            assert want == (factor > 1)

    def test_svd_runs_only_when_the_frobenius_norm_reaches_the_bound(self, rng, monkeypatch):
        (left, right, middle), _ = list(self.blocks_at(rng, 1.0))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        block = left.conj().T @ middle @ right
        assert not norm_exceeds(block, 2.0) and not calls
        assert norm_exceeds(block, 0.5) and len(calls) == 1
