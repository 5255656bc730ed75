import gc
import math
import weakref

import numpy as np
import pytest

from offdiag import (
    THEOREM_IDS,
    Case,
    OrthogonalProjection,
    PerturbationProblem,
    SpectralSet,
    ValidationError,
    builtin_example,
    delta_v,
    delta_v_directional,
    gap_persistence,
    qnr_sample,
    random_problem,
    random_problem_spec,
    run_theorem,
    shift_bounds,
    spectrum_enclosure,
    two_by_two_extremes,
)
from offdiag import analysis, harness, operators, subspaces
from offdiag.config import DEFAULT_TOL, Tolerances
from offdiag.operators import _select, projection_from_eigenvectors

from conftest import mapped_problem, random_hermitian, random_unitary, select

SQRT2 = math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0


class TestDeltaV:
    def test_anchor_half(self):
        assert abs(delta_v(SQRT3_2, 1.0) - 0.5) < 1e-12

    def test_anchor_one(self):
        assert abs(delta_v(SQRT2, 1.0) - 1.0) < 1e-12

    def test_half_angle_identity(self):
        # tan(pi/8) = sqrt(2) - 1
        assert abs(delta_v(1.0, 2.0) - (SQRT2 - 1.0)) < 1e-12

    def test_matches_trigonometric_form(self, rng):
        for _ in range(500):
            v = float(rng.uniform(0.01, 10))
            d = float(rng.uniform(0.01, 10))
            trig = v * math.tan(0.5 * math.atan(2.0 * v / d))
            assert abs(delta_v(v, d) - trig) < 1e-12 * (1 + trig)

    def test_zero_perturbation(self):
        assert delta_v(0.0, 1.0) == 0.0

    def test_monotone_in_norm_and_below_it(self):
        xs = np.linspace(0.01, 3.0, 300)
        d = 1.0
        vals = [delta_v(x * d, d) / d for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(delta_v(x, d) < x for x in xs)

    def test_scale_invariance(self, rng):
        # delta_v(x d, d) / d depends only on x
        for _ in range(100):
            x = float(rng.uniform(0.01, 3))
            d1, d2 = rng.uniform(0.1, 10, 2)
            assert abs(delta_v(x * d1, d1) / d1 - delta_v(x * d2, d2) / d2) < 1e-12

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            delta_v(1.0, 0.0)
        with pytest.raises(ValueError):
            delta_v(1.0, -1.0)

    @pytest.mark.parametrize("norm_v, d, message", [
        (math.nan, 1.0, "perturbation norm must be finite and nonnegative, got nan"),
        (math.inf, 1.0, "perturbation norm must be finite and nonnegative, got inf"),
        (1.0, math.nan, "gap d must be positive and finite, got nan"),
        (1.0, math.inf, "gap d must be positive and finite, got inf"),
    ])
    def test_nan_and_infinite_arguments_rejected(self, norm_v, d, message):
        with pytest.raises(ValueError) as excinfo:
            delta_v(norm_v, d)
        assert str(excinfo.value) == message


class TestDeltaVDirectional:
    def test_coincident_infima_convention(self):
        # arctan(+inf) = pi/2 branch: delta equals the perturbation norm
        dl, _ = delta_v_directional(0.0, 1.0, 0.0, 2.0, 1.0)
        assert dl == 1.0

    def test_zero_perturbation(self):
        assert delta_v_directional(0.0, 1.0, 0.5, 2.0, 0.0) == (0.0, 0.0)

    def test_nan_norm_rejected(self):
        message = "perturbation norm must be finite and nonnegative, got nan"
        with pytest.raises(ValueError, match=message):
            delta_v_directional(0.0, 1.0, 2.0, 3.0, math.nan)

    def test_infinite_norm_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            delta_v_directional(0, 1, 2, 3, math.inf)
        assert str(excinfo.value) == "perturbation norm must be finite and nonnegative, got inf"

    def test_unit_gap_matches_delta_v(self):
        dl, _ = delta_v_directional(0.0, 0.0, 1.0, 1.0, SQRT3_2)
        assert abs(dl - 0.5) < 1e-12

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1, 2, 3, 1.0), "a0_inf must be finite, got nan"),
        ((0, 1, 2, math.inf, 1.0), "a1_sup must be finite, got inf"),
        ((0.0, -math.inf, 2.0, 3.0, 1.0), "a0_sup must be finite, got -inf"),
        ((0.0, 1.0, math.nan, 3.0, 1.0), "a1_inf must be finite, got nan"),
    ])
    def test_nonfinite_endpoint_rejected(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            delta_v_directional(*args)
        assert str(excinfo.value) == message


class TestTwoByTwoExtremes:
    def test_pauli_type(self):
        assert two_by_two_extremes(0.0, 0.0, 1.0) == (-1.0, 1.0)

    def test_derived_block_of_case1(self):
        lam, mu = two_by_two_extremes(-1.5, -0.5, SQRT3_2)
        assert abs(lam + 2.0) < 1e-12
        assert abs(mu) < 1e-12

    def test_diagonal(self):
        assert two_by_two_extremes(5.0, 7.0, 0.0) == (5.0, 7.0)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1.0, 0.5), "a0 must be finite, got nan"),
        ((0.0, -math.inf, 0.5), "a1 must be finite, got -inf"),
        ((math.inf, math.inf, 0.5), "a0 must be finite, got inf"),
        ((0.0, 1.0, complex(math.nan, 0.0)), "v must be finite, got nan"),
        ((1e308, -1e308, 0.5), "the shift overflows: {'a0': 1e+308, 'a1': -1e+308, 'v': 0.5}"),
    ])
    def test_nonfinite_argument_rejected(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            two_by_two_extremes(*args)
        assert str(excinfo.value) == message

    @staticmethod
    def guard_rows():
        """120,000 seeded rows: magnitudes 1e-8 to 1e3, v = 0, a0 == a1 and signed zeros."""
        rng = np.random.default_rng(2026)
        n = 120_000

        def draw():
            return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 3, n)

        a0, a1, v = draw(), draw(), draw() + 1j * draw()
        v[:10_000] = 0.0
        a1[10_000:20_000] = a0[10_000:20_000]
        zeros = [(0.0, -0.0, complex(0.0, 0.0)), (-0.0, 0.0, complex(-0.0, -0.0)),
                 (-0.0, -0.0, complex(0.0, -0.0)), (0.0, 0.0, complex(-0.0, 0.0))]
        for k, (x0, x1, xv) in enumerate(zeros * 250):
            a0[20_000 + k], a1[20_000 + k], v[20_000 + k] = x0, x1, xv
        return a0, a1, v

    def test_arrays_equal_the_per_row_float_formula_bit_for_bit(self):
        a0, a1, v = self.guard_rows()
        want_lam, want_mu = [], []
        for x0, x1, xv in zip(a0.tolist(), a1.tolist(), v.tolist()):
            gap = abs(x1 - x0)
            s = 0.5 * (math.hypot(gap, 2.0 * abs(xv)) - gap)
            want_lam.append(min(x0, x1) - s)
            want_mu.append(max(x0, x1) + s)
        lam, mu = two_by_two_extremes(a0, a1, v)
        assert lam.tobytes() == np.array(want_lam).tobytes()
        assert mu.tobytes() == np.array(want_mu).tobytes()
        # the guard has rows where numpy's hypot or complex abs would round otherwise
        norm_v = np.array(list(map(abs, v.tolist())))
        gap = np.abs(a1 - a0)
        assert np.any(np.abs(v) != norm_v)
        assert np.any(np.hypot(gap, 2.0 * norm_v) != list(map(math.hypot, gap, 2.0 * norm_v)))

    def test_scalars_give_floats_and_arrays_give_arrays(self):
        assert all(type(x) is float for x in two_by_two_extremes(1.0, 2.0, 0.5j))
        lam, mu = two_by_two_extremes(np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.5j, 1]))
        assert lam.shape == mu.shape == (2,)
        assert (lam[1], mu[1]) == two_by_two_extremes(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("row, column, value, message", [
        (0, "a0", math.nan, "a0 must be finite, got nan"),
        (7, "a1", -math.inf, "a1 must be finite, got -inf"),
        (119_999, "v", complex(math.inf, 0.0), "v must be finite, got inf"),
        (20_001, "v", complex(0.0, math.nan), "v must be finite, got nan"),
        (15_000, "a0", math.inf, "a0 must be finite, got inf"),
    ])
    def test_a_nonfinite_row_raises_the_scalar_message(self, row, column, value, message):
        columns = dict(zip(("a0", "a1", "v"), self.guard_rows()))
        columns[column][row] = value
        columns["a1"][row + 1:] = math.nan  # only the first bad row is named
        with pytest.raises(ValueError) as excinfo:
            two_by_two_extremes(**columns)
        assert str(excinfo.value) == message

    def test_against_eigensolver(self, rng):
        for _ in range(10_000):
            a0, a1 = rng.uniform(-5, 5, 2)
            v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lam, mu = two_by_two_extremes(a0, a1, v)
            m = np.array([[a0, v], [np.conj(v), a1]])
            w = np.linalg.eigvalsh(m)
            assert abs(lam - w[0]) < 1e-12 * (1 + abs(w[0]))
            assert abs(mu - w[1]) < 1e-12 * (1 + abs(w[1]))


class TestProblemValidation:
    def test_rejects_diagonal_block_coupling(self):
        a = np.diag([-1.5, -0.5, 0.5, 1.5])
        v = np.zeros((4, 4))
        v[0, 2] = v[2, 0] = 0.3  # couples two sigma eigenvectors
        with pytest.raises(ValidationError, match="off-diagonal"):
            PerturbationProblem.build(
                a, v, SpectralSet.from_points([-1.5, 0.5]), SpectralSet.from_points([-0.5, 1.5])
            )

    def test_rejects_spectrum_outside_components(self):
        a = np.diag([0.0, 5.0])
        with pytest.raises(ValidationError, match="outside"):
            PerturbationProblem.build(
                a, np.zeros((2, 2)), SpectralSet.from_points([0.0]), SpectralSet.from_points([1.0])
            )

    def test_rejects_touching_components(self):
        a = np.diag([0.0, 1.0])
        with pytest.raises(ValidationError, match="separated"):
            PerturbationProblem.build(
                a,
                np.zeros((2, 2)),
                SpectralSet([(0.0, 0.5)]),
                SpectralSet([(0.5, 1.0)]),
            )

    @staticmethod
    def validated(monkeypatch) -> list:
        """The matrix of every ``validate_hermitian`` call that ``_build`` makes from now on."""
        calls = []
        validate = analysis.validate_hermitian

        def counted(matrix, tol):
            calls.append(np.array(matrix, dtype=complex).tobytes())
            return validate(matrix, tol)

        monkeypatch.setattr(analysis, "validate_hermitian", counted)
        return calls

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "tolerated"])
    def test_build_validates_a_and_v_once_each_and_never_their_sum(self, monkeypatch, exact):
        calls = self.validated(monkeypatch)
        if exact:
            problem = builtin_example("CASE1")
        else:  # A and V Hermitian within tolerance only
            a = np.array([[-1.0, 0.99e-10j], [0.99e-10j, 1.0]])
            v = np.array([[0.0, 0.3 + 0.29e-10j], [0.3 + 0.29e-10j, 0.0]])
            problem = PerturbationProblem.build(a, v, SpectralSet.from_points([-1.0]),
                                                SpectralSet.from_points([1.0]))
        # B = A + V deviates from B* by at most A's and V's deviations together
        assert calls == [problem.a.tobytes(), problem.v.tobytes()]
        assert problem.b.tobytes() not in calls

    def test_overflowing_sum_of_exact_inputs_is_rejected(self):
        # A's eigenvalues 1.0e308 and 1.2e308, V off-diagonal to them, both turned by 22.5 degrees
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        r = np.array([[c, -s], [s, c]])
        a, v = np.diag([1.2e308, 1.0e308]), np.array([[0.0, 1.1e308], [1.1e308, 0.0]])
        # turned, then made exactly symmetric
        a, v = (np.triu(r @ m @ r.T) + np.triu(r @ m @ r.T, 1).T for m in (a, v))
        with np.errstate(over="ignore"):
            assert np.isinf(a + v).any()
            with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
                PerturbationProblem.build(a, v, SpectralSet([(1.15e308, 1.25e308)]),
                                          SpectralSet([(0.95e308, 1.05e308)]))

    @pytest.mark.parametrize("coupling, points, message", [
        (1e308, (-1.0, 1.0), "gap d and ||V|| must be finite, got 2.0, inf"),
        (0.0, (-1e308, 1e308), "gap d and ||V|| must be finite, got inf, 0.0"),
    ], ids=["norm", "distance"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_or_distance_of_finite_input_is_rejected(self, coupling, points,
                                                                      message):
        # ||V|| = 2e308 of 2 x 2 blocks of 1e308; d = 2e308 of points at -1e308 and 1e308;
        # neither overflow warns
        a = np.diag(np.repeat(points, 2))
        v = np.zeros((4, 4))
        v[:2, 2:] = v[2:, :2] = coupling
        with pytest.raises(ValidationError) as excinfo:
            PerturbationProblem.build(a, v, *map(SpectralSet.from_points, ([x] for x in points)))
        assert str(excinfo.value) == message

    @staticmethod
    def rotated_problem_arrays(rng, diagonal_part=0.0):
        """A, V of a 3+3 problem in a random basis; V has a sigma-block part of norm
        ``diagonal_part * ||V||``."""
        a = np.diag([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]).astype(complex)
        v = np.zeros((6, 6), dtype=complex)
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v[:3, 3:] = w
        v[3:, :3] = w.conj().T
        e = random_hermitian(rng, 3)
        v[:3, :3] = diagonal_part * np.linalg.norm(w, 2) * e / np.linalg.norm(e, 2)
        u = random_unitary(rng, 6)
        return u @ a @ u.conj().T, u @ v @ u.conj().T

    def test_valid_build_takes_one_svd(self, rng, monkeypatch):
        a, v = self.rotated_problem_arrays(rng)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *x, **k: calls.append(1) or svd(*x, **k))
        p = PerturbationProblem.build(
            a, v, SpectralSet([(-2.0, -1.0)]), SpectralSet([(1.0, 2.0)])
        )
        assert len(calls) == 1  # ||V|| alone
        assert abs(p.norm_v - svd(v, compute_uv=False)[0]) <= 1e-12

    @pytest.mark.parametrize("factor", [0.5, 1 - 1e-3, 1 + 1e-3, 2.0])
    def test_off_diagonality_decided_at_the_bound(self, rng, factor):
        # ||P V P|| = factor * offdiag * ||V||, up to round-off of about eps * ||V||, which is
        # 1e-6 of the bound
        a, v = self.rotated_problem_arrays(rng, factor * DEFAULT_TOL.offdiag)
        sets = SpectralSet([(-2.0, -1.0)]), SpectralSet([(1.0, 2.0)])
        if factor > 1:
            with pytest.raises(ValidationError, match="off-diagonal"):
                PerturbationProblem.build(a, v, *sets)
        else:
            PerturbationProblem.build(a, v, *sets)

    @staticmethod
    def recorded(monkeypatch, name) -> list:
        """The positional arguments of every call that ``_build`` makes of ``analysis.name``."""
        calls, function = [], getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *x: calls.append(x) or function(*x))
        return calls

    def test_exact_zero_rows_skip_a_test_that_a_coupled_row_still_fails(self, monkeypatch):
        # three rows of one diagonal A: the middle row's sigma-block of V is 1e-6 ||V||, far
        # above offdiag * ||V||, and the other two rows have exactly zero diagonal blocks
        a = np.diag([0.0, 0.5, 2.0, 3.0]).astype(complex)
        v = np.zeros((3, 4, 4), dtype=complex)
        v[:, :2, 2:] = [[0.3, 0.1j], [-0.2, 0.4 - 0.1j]]
        v[:, 2:, :2] = v[:, :2, 2:].conj().swapaxes(1, 2)
        v[1, 0, 1] = v[1, 1, 0] = 1e-6
        ends = [(np.stack([s.lo] * 3), np.stack([s.hi] * 3))
                for s in (SpectralSet.from_points([0.0, 0.5]), SpectralSet.from_points([2.0, 3.0]))]
        tested = self.recorded(monkeypatch, "norm_exceeds")
        blocks = self.recorded(monkeypatch, "_blocks")
        with pytest.raises(ValidationError, match="^V is not off-diagonal"):
            PerturbationProblem._build(np.stack([a] * 3), v, *ends, False, DEFAULT_TOL)
        # only the coupled row's sigma-block reaches the test, and every block formed is V's
        assert [block.shape for block, _ in tested] == [(1, 2, 2)]
        assert blocks and all(args[4] is v for args in blocks)

    def test_a_diagonal_build_forms_no_block_of_a(self, monkeypatch):
        blocks = self.recorded(monkeypatch, "_blocks")
        tested = self.recorded(monkeypatch, "norm_exceeds")
        for case in Case:
            specs = [random_problem_spec(case, 3, 4, 0.8, seed) for seed in range(3)]
            blocks.clear()
            stack = harness._random_problems(specs, DEFAULT_TOL)[0]._stack
            assert stack.a_eigen.order is not None
            # V's two diagonal blocks, exactly zero on every row, and its coupling block
            assert len(blocks) == 3 and all(args[4] is stack.v for args in blocks)
        assert not tested

    def test_a_rotated_build_forms_and_tests_both_commutator_blocks(self, rng, monkeypatch):
        a, v = self.rotated_problem_arrays(rng)
        blocks = self.recorded(monkeypatch, "_blocks")
        PerturbationProblem.build(a, v, SpectralSet([(-2.0, -1.0)]), SpectralSet([(1.0, 2.0)]))
        assert [np.array_equal(args[4], a[None]) for args in blocks] == [False] * 2 + [True] * 2

    def test_distance_is_recomputed(self):
        # d comes from the sets, not from any caller-supplied value
        p = builtin_example("CASE1")
        assert p.d == p.sigma.distance(p.Sigma) == 1.0

    @pytest.mark.parametrize("case", list(Case))
    def test_sigma_mask_is_the_selection_of_a_eigenvalues(self, case):
        p = random_problem(random_problem_spec(case, 3, 4, 0.5, seed=11))
        tol = p.tol.eig(p.a_eigen.eigenvalues)
        mask, _, _ = select(p.a_eigen.eigenvalues, p.sigma, tol)
        assert np.array_equal(p.sigma_mask, mask)
        assert p.sigma_mask.sum() == p.projection.rank == 3


QNR_FIELDS = ("a0", "a1", "v", "lam", "mu")


class TestQnrSampling:
    def test_containment_in_spectral_interval(self, rng):
        p = builtin_example("CASE1", scale=0.7)
        inf_b = p.b_eigen.eigenvalues.min()
        sup_b = p.b_eigen.eigenvalues.max()
        s = qnr_sample(p.b, p.projection, 500, seed=3)
        assert all(getattr(s, name).shape == (500,) for name in QNR_FIELDS)
        assert np.all(inf_b - 1e-9 <= s.lam) and np.all(s.lam <= s.mu)
        assert np.all(s.mu <= sup_b + 1e-9)
        assert np.all(s.lam <= np.minimum(s.a0, s.a1) + 1e-12)
        assert np.all(s.mu >= np.maximum(s.a0, s.a1) - 1e-12)

    def test_block_diagonal_samples_hit_diagonal_values(self, rng):
        p = builtin_example("CASE1", scale=0.0)
        s = qnr_sample(p.b, p.projection, 200, seed=5)
        assert np.all(np.abs(s.v) < 1e-12)
        assert np.all(np.abs(s.lam - np.minimum(s.a0, s.a1)) < 1e-12)
        assert np.all(np.abs(s.mu - np.maximum(s.a0, s.a1)) < 1e-12)

    def test_case1_min_sample_approaches_inf_b(self):
        p = builtin_example("CASE1")
        samples = qnr_sample(p.b, p.projection, 10_000, seed=0)
        assert samples.lam.min() == pytest.approx(-2.0, abs=0.05)

    def test_deterministic_and_nested(self):
        p = builtin_example("CASE2")
        long = qnr_sample(p.b, p.projection, 300, seed=11)
        short = qnr_sample(p.b, p.projection, 100, seed=11)
        for name in QNR_FIELDS:
            assert np.array_equal(getattr(long, name)[:100], getattr(short, name))
        assert long.lam.min() <= short.lam.min()

    def test_matches_per_sample_compression(self):
        # rebuild f and g from the seeded stream one sample at a time
        p = random_problem(random_problem_spec(Case.CASE_II, 3, 4, 0.8, seed=2))
        basis_p = p.projection.range_basis
        basis_q = p.projection.complement_basis
        kp, kq = basis_p.shape[1], basis_q.shape[1]
        rng = np.random.default_rng(4)
        s = qnr_sample(p.b, p.projection, 50, seed=4)
        for i in range(50):
            zf = rng.standard_normal(kp) + 1j * rng.standard_normal(kp)
            zg = rng.standard_normal(kq) + 1j * rng.standard_normal(kq)
            f = basis_p @ (zf / np.linalg.norm(zf))
            g = basis_q @ (zg / np.linalg.norm(zg))
            assert abs(s.a0[i] - (f.conj() @ p.b @ f).real) < 1e-12
            assert abs(s.a1[i] - (g.conj() @ p.b @ g).real) < 1e-12
            assert abs(s.v[i] - f.conj() @ p.b @ g) < 1e-12

    def test_single_sample_is_the_first_of_many(self):
        p = builtin_example("CASE1", scale=0.6)
        one = qnr_sample(p.b, p.projection, 1, seed=7)
        many = qnr_sample(p.b, p.projection, 64, seed=7)
        for name in QNR_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(many, name)[:1])

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_every_column_is_a_prefix_across_block_boundaries(self, n):
        assert analysis.QNR_CHUNK == 256
        p = random_problem(random_problem_spec(Case.CASE_I, 3, 4, 0.6, seed=8))
        part = qnr_sample(p.b, p.projection, n, seed=12)
        whole = qnr_sample(p.b, p.projection, 1000, seed=12)
        for name in QNR_FIELDS:
            assert getattr(part, name).tobytes() == getattr(whole, name)[:n].tobytes()

    def test_a_null_row_is_redrawn_from_the_stream(self, monkeypatch):
        p = random_problem(random_problem_spec(Case.CASE_II, 3, 4, 0.8, seed=2))
        kp = p.projection.rank
        default_rng = np.random.default_rng

        class NullRow:
            """The seeded stream, except that the first block's row 3 draws f = 0."""

            def __init__(self, seed):
                self.rng, self.first = default_rng(seed), True

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                if self.first:
                    out[3, : 2 * kp], self.first = 0.0, False
                return out

        monkeypatch.setattr(np.random, "default_rng", NullRow)
        got = qnr_sample(p.b, p.projection, 10, seed=4)
        monkeypatch.undo()
        want = qnr_sample(p.b, p.projection, 10, seed=4)
        stream = np.random.default_rng(4)
        stream.standard_normal((10, 2 * p.dim))
        z = stream.standard_normal(kp) + 1j * stream.standard_normal(kp)
        f = p.projection.range_basis @ (z / np.linalg.norm(z))
        others = np.arange(10) != 3
        for name in QNR_FIELDS:
            assert np.array_equal(getattr(got, name)[others], getattr(want, name)[others])
        assert got.a1[3] == want.a1[3]
        assert abs(got.a0[3] - (f.conj() @ p.b @ f).real) < 1e-12
        assert np.isfinite(got.lam[3]) and got.lam[3] <= got.mu[3]

    def test_degenerate_projection_rejected(self):
        p = builtin_example("CASE1")
        for mask in (np.zeros(4, dtype=bool), np.ones(4, dtype=bool)):
            projection = projection_from_eigenvectors(p.a_eigen, mask)
            with pytest.raises(ValueError, match="rank"):
                qnr_sample(p.b, projection, 10, seed=0)

    def test_full_rank_projection_raises_at_once(self):
        # a complement of width 0 leaves no unit vector g to draw
        p = OrthogonalProjection(np.eye(3, dtype=complex), np.zeros((3, 0), dtype=complex))
        assert p.rank == 3
        with pytest.raises(ValueError, match="rank"):
            qnr_sample(np.eye(3), p, 3)


class TestShiftBounds:
    def test_unperturbed(self):
        r = shift_bounds(builtin_example("CASE1", scale=0.0))
        assert r.holds
        assert r.witnesses["inf_b"] == r.witnesses["inf_a"]
        assert r.witnesses["sup_b"] == r.witnesses["sup_a"]

    def test_case1_attains_lower_bound(self):
        # inf A - delta_left = -2 = inf B exactly: the bound is sharp
        r = shift_bounds(builtin_example("CASE1"))
        assert r.holds
        assert abs(r.witnesses["delta_left"] - 0.5) < 1e-12
        assert abs(r.witnesses["inf_b"] + 2.0) < 1e-10
        assert abs((r.witnesses["inf_a"] - r.witnesses["delta_left"]) - r.witnesses["inf_b"]) < 1e-10

    def test_random_corpus(self, rng):
        for k in range(500):
            case = [Case.CASE_I, Case.CASE_II, Case.SUBORDINATED][k % 3]
            n0 = int(rng.integers(2, 9))
            n1 = int(rng.integers(2, 9))
            ratio = float(rng.uniform(0.0, 3.0))
            spec = random_problem_spec(case, n0, n1, ratio, seed=int(rng.integers(2**32)))
            r = shift_bounds(random_problem(spec))
            assert r.holds, (spec, r)

    def test_a_gap_past_the_float_range_raises_the_overflow(self):
        # |inf Sigma - inf sigma| = 3.45e308 overflows, though d and ||V|| are finite
        a = np.diag([-1.7e308, 1.7e308, 1.75e308])
        p = PerturbationProblem.build(a, np.zeros((3, 3)), SpectralSet([-1.7e308, 1.7e308]),
                                      SpectralSet([1.75e308]))
        with pytest.raises(ValueError, match="^the shift overflows: {'a0_inf': -1.7e"):
            shift_bounds(p)


class TestSpectrumEnclosure:
    def test_case1_boundary_attained(self):
        r = spectrum_enclosure(builtin_example("CASE1"))
        assert r.holds
        assert abs(r.claimed_bound - 0.5) < 1e-12
        assert abs(r.measured_value - 0.5) < 1e-10
        assert any("attains" in f for f in r.flags)

    def test_unperturbed_trivial(self):
        r = spectrum_enclosure(builtin_example("CASE2", scale=0.0))
        assert r.holds
        assert r.measured_value == 0.0

    def test_case2_enclosure(self):
        r = spectrum_enclosure(builtin_example("CASE2"))
        assert r.holds
        assert abs(r.claimed_bound - 1.0) < 1e-12


class TestGapPersistence:
    def test_case1_scaled_inside_premise(self):
        r = gap_persistence(builtin_example("CASE1", scale=0.99))
        assert r.premise_satisfied
        assert r.holds
        assert r.witnesses["inside_closed_count"] == 2.0
        assert r.witnesses["rank_sigma"] == 2.0
        assert r.witnesses["intersection_equality"] == 1.0

    def test_case1_critical_premise_fails_neighborhood_empty(self):
        r = gap_persistence(builtin_example("CASE1"))
        assert not r.premise_satisfied
        assert r.holds  # vacuous
        assert r.witnesses["inside_open_count"] == 0.0

    def test_case2_critical_premise_fails_neighborhood_empty(self):
        r = gap_persistence(builtin_example("CASE2"))
        assert r.theorem == "SHIFT_III"
        assert not r.premise_satisfied
        assert r.witnesses["inside_open_count"] == 0.0

    def test_case2_scaled_full_variant(self):
        r = gap_persistence(builtin_example("CASE2", scale=0.9))
        assert r.premise_satisfied
        assert r.holds
        assert r.witnesses["inside_closed_count"] == 1.0

    def test_half_variant_on_case2_problem(self):
        # the d/2 statement holds in any case when the norm premise is met
        r = gap_persistence(builtin_example("CASE2", scale=0.5), variant="half")
        assert r.theorem == "SHIFT_II"
        assert r.premise_satisfied
        assert r.holds

    def test_full_variant_requires_hull_separation(self):
        r = gap_persistence(builtin_example("CASE1", scale=0.5), variant="full")
        assert not r.premise_satisfied
        assert any("hull" in f for f in r.flags)

    @pytest.mark.parametrize("sigma, Sigma, name", [([0.0], [-1.0, 1.0], "sigma"),
                                                    ([-1.0, 1.0], [0.0], "Sigma")])
    def test_a_count_finding_names_the_separated_component(self, sigma, Sigma, name):
        # the CASE2 example at scale 0.5, as given and with the roles swapped; a placement
        # tolerance of 0.2 per eigenvalue counts B's eigenvalue 1 inside [-0.37, 0.37]
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = math.sqrt(0.5)
        p = PerturbationProblem.build(np.diag([-1.0, 0.0, 1.0]), v, SpectralSet(sigma),
                                      SpectralSet(Sigma), Tolerances(eig_scale=0.2))
        r = gap_persistence(p, variant="full")
        assert r.premise_satisfied
        assert [f for f in r.flags if f.startswith("finding")] == [
            f"finding: 2 eigenvalues of B persist near {name} but rank E_A({name}) = 1"]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant must be 'half' or 'full', got 'x'"):
            gap_persistence(builtin_example("CASE1", scale=0.5), variant="x")


def scaled_case1(factor, unitary=None):
    """CASE1 with V at 0.99 of critical, the whole problem multiplied by ``factor``."""
    return mapped_problem(builtin_example("CASE1", scale=0.99), factor, unitary=unitary)


class TestScaleRelativeTolerances:
    def test_wholly_non_hermitian_tiny_perturbation_rejected(self):
        p = builtin_example("CASE1")
        v = np.zeros((4, 4))
        v[0, 1] = 1e-11
        with pytest.raises(ValidationError, match="not Hermitian"):
            PerturbationProblem.build(p.a, v, p.sigma, p.Sigma)

    def test_rotated_problem_at_large_scale_accepted(self):
        u = random_unitary(np.random.default_rng(1), 4)
        p = scaled_case1(1e12, u)
        assert p.scale == pytest.approx(1.5e12)
        assert gap_persistence(p).premise_satisfied

    def test_problem_at_tiny_scale_builds(self):
        p = scaled_case1(1e-12)
        assert p.projection.rank == 2
        assert p.sigma_mask.tolist() == builtin_example("CASE1", scale=0.99).sigma_mask.tolist()

    @pytest.mark.parametrize("factor", [1e-8, 1e-12, 1e8])
    def test_gap_persistence_verdict_does_not_depend_on_scale(self, factor):
        want = gap_persistence(builtin_example("CASE1", scale=0.99))
        got = gap_persistence(scaled_case1(factor))
        assert (got.premise_satisfied, got.holds, len(got.flags)) == (True, True, len(want.flags))
        assert got.measured_value / factor == pytest.approx(want.measured_value, abs=1e-9)


# factories, so each problem is built while the selections are recorded
FLAG_PROBLEMS = {
    **{
        f"{name} x {scale}": lambda name=name, scale=scale: builtin_example(name, scale=scale)
        for name in ("CASE1", "CASE2")
        for scale in (1.0, 0.99)
    },
    **{
        f"{family} seed {seed}": lambda family=family, ratio=ratio, seed=seed: random_problem(
            random_problem_spec(family, 4, 5, ratio, seed=seed)
        )
        for family, ratio in (("CASE_I", 0.45), ("CASE_II", 1.2), ("SUBORDINATED", 4.0))
        for seed in range(3)
    },
}


class TestFormattedFlags:
    @pytest.mark.parametrize("name", sorted(FLAG_PROBLEMS))
    def test_every_formatted_flag_reaches_a_report(self, name, monkeypatch):
        """A selection formats its boundary events only when a report keeps them."""
        formatted = []

        def recorded(*args):
            result = _select(*args)
            for row_flags in result[2]:
                formatted.extend(row_flags)
            return result

        # every selection is a stacked _select
        for module in (operators, analysis, subspaces):
            monkeypatch.setattr(module, "_select", recorded)
        problem = FLAG_PROBLEMS[name]()
        reported = set()
        for theorem in THEOREM_IDS:
            reported.update(run_theorem(problem, theorem).flags)
        assert set(formatted) <= reported


class TestStackLifetime:
    @pytest.mark.parametrize("family", ["CASE_I", "CASE_II", "SUBORDINATED"])
    def test_problems_and_stack_freed_without_the_cyclic_collector(self, family):
        """Dropping a stack's problems frees them and their stack by reference counting alone."""
        specs = [random_problem_spec(family, 3, 4, 0.8, seed=seed) for seed in range(4)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            problems = harness._random_problems(specs, DEFAULT_TOL)
            for problem in problems:
                for theorem in THEOREM_IDS:
                    run_theorem(problem, theorem)
            refs = [weakref.ref(p) for p in problems] + [weakref.ref(problems[0]._stack)]
            del problem, problems
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()
