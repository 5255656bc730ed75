import json
import math

import numpy as np
import pytest

from offdiag import (
    C_PI,
    GraphRepresentationError,
    OrthogonalProjection,
    SpectralSet,
    bound_case1,
    bound_case2,
    bound_subordinated,
    builtin_example,
    delta_v,
    graph_operator,
    maximal_gap_interval,
    projection_difference_norm,
    random_problem,
    random_problem_spec,
    spectral_norm,
    tan_theta_bound,
    verify_pair_inequality,
)
from offdiag import Case, PerturbationProblem, analysis, harness, subspaces
from offdiag.cli import main
from offdiag.config import DEFAULT_TOL
from offdiag.intervals import neighborhood_bounds
from offdiag.io import load_problem, problem_payload, save_problem
from offdiag.operators import projection_from_eigenvectors

from conftest import (complement, dense, haar_unitary, mapped_problem, random_close_projection,
                      random_hermitian, random_projection, random_unitary, select)
from test_intervals import distance_to_points

SQRT2 = math.sqrt(2.0)


def rotated_projection(theta):
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    return OrthogonalProjection(r[:, :1], r[:, 1:])


class TestProjectionDifferenceNorm:
    def test_identical(self):
        p = rotated_projection(0.3)
        d = projection_difference_norm(p, p)
        assert d == (0.0, 0.0, 0.0) or max(d) < 1e-15

    def test_rotation_gives_sine(self):
        p = rotated_projection(0.0)
        q = rotated_projection(math.pi / 6)
        d = projection_difference_norm(p, q)
        assert abs(d.norm - 0.5) < 1e-12

    def test_complement_pair(self):
        p = rotated_projection(0.2)
        d = projection_difference_norm(p, complement(p))
        assert abs(d.norm - 1.0) < 1e-12

    def test_max_identity_on_corpus(self, rng):
        # ||P - Q|| = max{||P Q_perp||, ||P_perp Q||} on 1000 seeded pairs
        for _ in range(1000):
            dim = int(rng.integers(2, 13))
            p = random_projection(rng, dim, int(rng.integers(1, dim)))
            q = random_projection(rng, dim, int(rng.integers(1, dim)))
            d = projection_difference_norm(p, q)
            assert abs(d.norm - max(d.norm_pq_perp, d.norm_pperp_q)) < 1e-10


class TestGraphOperator:
    def test_zero_angle(self):
        p = rotated_projection(0.5)
        g = graph_operator(p, p)
        assert g.norm < 1e-12

    def test_rotation_gives_tangent(self):
        theta = 0.4
        p = rotated_projection(0.0)
        q = rotated_projection(theta)
        g = graph_operator(p, q)
        assert abs(g.norm - math.tan(theta)) < 1e-12
        assert abs(projection_difference_norm(p, q).norm - math.sin(theta)) < 1e-12

    def test_roundtrip_and_sine_identity(self, rng):
        done = 0
        while done < 500:
            dim = int(rng.integers(2, 17))
            p = random_projection(rng, dim, int(rng.integers(1, dim)))
            q = random_close_projection(rng, p, spread=float(rng.uniform(0.05, 0.5)))
            norm = projection_difference_norm(p, q).norm
            if norm >= 0.999:
                continue
            g = graph_operator(p, q)
            rebuilt = g.rebuild_projection()
            assert spectral_norm(dense(rebuilt) - dense(q)) < 1e-8
            assert abs(norm - g.norm / math.sqrt(1.0 + g.norm**2)) < 1e-8
            done += 1

    def test_rebuilt_bases_are_orthonormal_and_complementary(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            p = random_projection(rng, dim, int(rng.integers(1, dim)))
            q = random_close_projection(rng, p, spread=0.1)
            rebuilt = graph_operator(p, q).rebuild_projection()
            z = np.hstack([rebuilt.range_basis, rebuilt.complement_basis])
            assert rebuilt.rank == q.rank and rebuilt.dim == dim
            assert spectral_norm(z.conj().T @ z - np.eye(dim)) <= 1e-12

    def test_complement_pair_rejected(self):
        p = rotated_projection(0.0)
        with pytest.raises(GraphRepresentationError):
            graph_operator(p, complement(p))

    @pytest.mark.parametrize("dim", [3, 40])
    @pytest.mark.parametrize("gap, built", [(2e-9, True), (5e-10, False)])
    def test_premise_is_the_verdict_rule(self, dim, gap, built):
        # Ran Q turns Ran P = span(e0) towards e1 until ||P - Q|| = 1 - gap; the graph exists
        # exactly when 1 - ||P - Q|| exceeds tol.report = 1e-9, whatever the dimension
        s = 1.0 - gap
        e = np.eye(dim, dtype=complex)
        turned = math.sqrt(1.0 - s * s) * e[:, :1] + s * e[:, 1:2]
        back = -s * e[:, :1] + math.sqrt(1.0 - s * s) * e[:, 1:2]
        p = OrthogonalProjection(e[:, :1], e[:, 1:])
        q = OrthogonalProjection(turned, np.hstack([back, e[:, 2:]]))
        diff = projection_difference_norm(p, q).norm
        assert abs(diff - s) <= 4 * np.finfo(float).eps
        if built:
            g = graph_operator(p, q)
            assert g.norm == pytest.approx(s / math.sqrt(1.0 - s * s), rel=1e-6)
        else:
            with pytest.raises(GraphRepresentationError, match="not below 1"):
                graph_operator(p, q)

    def test_rank_mismatch_rejected(self):
        e = np.eye(3, dtype=complex)
        p = OrthogonalProjection(e[:, :1], e[:, 1:])
        q = OrthogonalProjection(e[:, :2], e[:, 2:])
        with pytest.raises(ValueError, match="rank"):
            graph_operator(p, q)

    def test_dimension_mismatch_rejected(self):
        p, q = (OrthogonalProjection(e[:, :1], e[:, 1:]) for e in (np.eye(2), np.eye(3)))
        for function in (projection_difference_norm, graph_operator):
            with pytest.raises(ValueError) as excinfo:
                function(p, q)
            assert str(excinfo.value) == "projections live in different dimensions: 2 vs 3"


class TestCPi:
    def test_six_decimals(self):
        assert f"{C_PI:.6f}" == "0.503289" or abs(C_PI - 0.503288) < 1e-6

    def test_is_root_of_premise_function(self):
        # (pi/2) x + x tan(arctan(2x)/2) - 1 vanishes at C_PI
        g = lambda x: (math.pi / 2) * x + x * math.tan(0.5 * math.atan(2 * x)) - 1.0
        assert abs(g(C_PI)) < 1e-12

    def test_bisection_oracle(self):
        g = lambda x: (math.pi / 2) * x + x * math.tan(0.5 * math.atan(2 * x)) - 1.0
        lo, hi = 0.1, 1.0
        assert g(lo) < 0 < g(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert hi - lo < 1e-13
        assert abs(0.5 * (lo + hi) - C_PI) < 1e-12


class TestBoundCase1:
    def test_unperturbed(self):
        r = bound_case1(builtin_example("CASE1", scale=0.0))
        assert r.premise_satisfied and r.holds
        assert r.measured_value < 1e-12
        assert r.claimed_bound == 0.0

    def test_scaled_example(self):
        # ||V|| = 0.45 < c_pi, d = 1
        scale = 0.45 / (math.sqrt(3) / 2)
        p = builtin_example("CASE1", scale=scale)
        r = bound_case1(p)
        assert r.premise_satisfied
        expected = (math.pi / 2) * 0.45 / (1.0 - delta_v(0.45, 1.0))
        assert abs(r.claimed_bound - expected) < 1e-12
        assert r.holds
        assert r.measured_value <= r.claimed_bound
        assert r.claimed_bound < 1.0

    def test_overcritical_premise_fails(self):
        r = bound_case1(builtin_example("CASE1"))
        assert not r.premise_satisfied
        assert r.measured_value == pytest.approx(1.0, abs=1e-10)


class TestBoundCase2:
    def test_scaled_example_with_corners(self):
        r = bound_case2(builtin_example("CASE2", scale=0.9))
        assert r.premise_satisfied and r.holds
        assert r.claimed_bound < 1.0
        assert r.witnesses["corner_left"] < SQRT2 / 2
        assert r.witnesses["corner_right"] < SQRT2 / 2
        assert r.witnesses["norm_pperp_q"] <= r.witnesses["corner_aggregate"] + 1e-9

    def test_unperturbed(self):
        r = bound_case2(builtin_example("CASE2", scale=0.0))
        assert r.measured_value < 1e-12

    def test_claimed_bound_near_limit(self):
        # ||V|| = 1.4, d = 1: the bound approaches but stays below 1
        scale = 1.4 / SQRT2
        r = bound_case2(builtin_example("CASE2", scale=scale))
        assert r.premise_satisfied
        expected = math.sin(math.atan(1.4 / (1.0 - delta_v(1.4, 1.0))))
        assert abs(r.claimed_bound - expected) < 1e-12
        assert r.claimed_bound < 1.0
        assert r.holds

    def test_wrong_case_is_an_unmet_premise(self):
        r = bound_case2(builtin_example("CASE1", scale=0.5))
        assert (r.premise_satisfied, r.holds, r.witnesses) == (False, True, {})
        assert math.isnan(r.measured_value) and r.claimed_bound == math.inf
        assert r.premise_margin == -math.inf
        assert r.flags == ("wrong case: hull separation required: neither component's convex "
                           "hull is disjoint from the other (hulls interleave)",)

    def test_subordinated_problem_degenerates_one_corner(self):
        # Sigma entirely above sigma: the left corner is a pair of zero
        # projections with difference norm exactly 0
        a = np.diag([0.0, 2.0, 3.0])
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = 0.8
        p = PerturbationProblem.build(
            a, v, SpectralSet.from_points([0.0]), SpectralSet.from_points([2.0, 3.0])
        )
        assert p.case is Case.SUBORDINATED
        r = bound_case2(p)
        assert r.premise_satisfied and r.holds
        assert r.witnesses["corner_left"] == 0.0
        assert r.witnesses["corner_right"] > 0.0

    def test_swapped_roles(self):
        # Sigma's hull separated from sigma: roles swap, bound still checked
        a = np.diag([-1.0, 1.0, 0.0])
        v = np.zeros((3, 3))
        v[0, 2] = v[2, 0] = 0.4
        p = PerturbationProblem.build(
            a, v, SpectralSet.from_points([-1.0, 1.0]), SpectralSet.from_points([0.0])
        )
        assert p.case is Case.CASE_II
        r = bound_case2(p)
        assert r.premise_satisfied and r.holds
        assert any("swapped" in f for f in r.flags)


class TestBoundSubordinated:
    def make_problem(self, coupling):
        a = np.diag([0.0, 1.0])
        v = np.array([[0.0, coupling], [np.conj(coupling), 0.0]])
        return PerturbationProblem.build(
            a, v, SpectralSet.from_points([0.0]), SpectralSet.from_points([1.0])
        )

    def test_unperturbed(self):
        r = bound_subordinated(self.make_problem(0.0))
        assert r.holds and r.measured_value < 1e-12

    def test_exact_angle_anchor(self):
        # at ||V|| = sqrt(3)/2 d the bound is sin(pi/6) = 1/2
        r = bound_subordinated(self.make_problem(math.sqrt(3) / 2))
        assert abs(r.claimed_bound - 0.5) < 1e-12
        assert r.holds

    def test_huge_perturbation_keeps_gap(self):
        p = self.make_problem(10.0)
        r = bound_subordinated(p)
        assert r.holds
        assert r.witnesses["eigenvalues_in_gap"] == 0.0
        assert r.claimed_bound < SQRT2 / 2
        assert r.measured_value <= r.claimed_bound + 1e-9
        # spec(B) = 1/2 +- sqrt(100.25): both eigenvalues clear the (0, 1) gap
        expected = [0.5 - math.sqrt(100.25), 0.5 + math.sqrt(100.25)]
        np.testing.assert_allclose(p.b_eigen.eigenvalues, expected, atol=1e-10)
        assert (r.witnesses["gap_lo"], r.witnesses["gap_hi"]) == (0.0, 1.0)

    def test_mirrored_orientation(self):
        a = np.diag([1.0, 0.0])
        v = np.array([[0.0, 2.0], [2.0, 0.0]])
        p = PerturbationProblem.build(
            a, v, SpectralSet.from_points([1.0]), SpectralSet.from_points([0.0])
        )
        r = bound_subordinated(p)
        assert r.holds

    def test_wrong_case_is_an_unmet_premise(self):
        r = bound_subordinated(builtin_example("CASE2"))
        assert (r.premise_satisfied, r.holds, r.witnesses) == (False, True, {})
        assert math.isnan(r.measured_value) and r.claimed_bound == math.inf
        assert r.flags == ("wrong case: subordinated components required, problem is CASE_II",)


class TestTanTheta:
    def test_unperturbed_full_interval(self):
        p = builtin_example("CASE2", scale=0.0)
        r = tan_theta_bound(p, (-1.0, 1.0))
        assert r.premise_satisfied and r.holds
        assert r.measured_value < 1e-12

    def test_scaled_example(self):
        p = builtin_example("CASE2", scale=0.9)
        r = tan_theta_bound(p, (-1.0, 1.0))
        assert r.premise_satisfied and r.holds
        assert r.witnesses["x_norm"] <= r.witnesses["tan_theta_bound"] + 1e-9
        # consistency of the two formulations
        t = r.witnesses["x_norm"]
        assert abs(r.measured_value - t / math.sqrt(1 + t * t)) < 1e-8

    def test_difference_blocks_computed_once(self, monkeypatch):
        blocks = []
        form = subspaces._blocks

        def counted(*args, **kwargs):
            stack = form(*args, **kwargs)
            blocks.extend(block.tobytes() for block in stack)
            return stack

        monkeypatch.setattr(subspaces, "_blocks", counted)
        p = builtin_example("CASE2", scale=0.9)
        reports = [tan_theta_bound(p, (-1.0, 1.0)) for _ in range(2)]
        assert reports[0] == reports[1] and reports[0].premise_satisfied
        # P and Q have equal rank, so ||P_perp Q|| = ||P Q_perp||: that one block, formed once
        # and then read from the memo; and on each call the graph operator's blocks U = U_P* U_Q
        # above W = U_P-perp* U_Q, as one gather
        mask_p = subspaces._sides(p._stack).mask[p._row]
        region = SpectralSet([(-1.0, 1.0)], is_open=True)
        mask_q = select(p.b_eigen.eigenvalues, region, p.tol.eig(p.b_eigen.eigenvalues))[0]
        # A is diagonal, so each block is the rows of U_B that A's eigenvectors pick
        u_b, rows = p.b_eigen.eigenvectors, p.a_eigen.order
        assert mask_p.sum() == mask_q.sum()
        u_w = np.vstack([u_b[rows[mask_p]][:, mask_q], u_b[rows[~mask_p]][:, mask_q]])
        assert blocks == [u_b[rows[mask_p]][:, ~mask_q].tobytes(), *[u_w.tobytes()] * 2]

    def test_maximal_interval_helper(self):
        p = builtin_example("CASE2", scale=0.9)
        assert maximal_gap_interval(p) == (-1.0, 1.0)

    def test_wrong_case_is_an_unmet_premise_and_has_no_gap_interval(self):
        p = builtin_example("CASE1", scale=0.5)
        why = ("hull separation required: neither component's convex hull is disjoint from "
               "the other (hulls interleave)")
        for r in (tan_theta_bound(p), tan_theta_bound(p, (-1.0, 1.0))):
            assert (r.theorem, r.premise_satisfied, r.holds) == ("TAN_THETA", False, True)
            assert r.flags == (f"wrong case: {why}",)
        with pytest.raises(ValueError) as raised:
            maximal_gap_interval(p)
        assert str(raised.value) == why

    def test_stack_interval_equals_the_given_maximal_interval_bit_for_bit(self):
        # a stack of every case, with a row whose roles swap; each side runs on a fresh stack,
        # so neither reads the block norms the other computed
        specs = [random_problem_spec(case, 3, 4, ratio, seed=seed) for seed in range(3)
                 for case, ratio in ((Case.CASE_I, 0.45), (Case.CASE_II, 1.2),
                                     (Case.SUBORDINATED, 4.0))]
        specs.append(harness.ProblemSpec((-2.0, 2.0, 3.0), (0.0, 0.5, 0.7, 1.0), 0.6, seed=1))
        stacked = harness._random_problems(specs, DEFAULT_TOL)
        given = harness._random_problems(specs, DEFAULT_TOL)
        assert {p.case for p in stacked} == set(Case)
        separated = 0
        for p, q in zip(stacked, given):
            r = tan_theta_bound(p)
            if p.case is Case.CASE_I:
                assert r.flags[0].startswith("wrong case: ")
                continue
            separated += 1
            mine = tan_theta_bound(q, maximal_gap_interval(q))
            assert json.dumps(r.as_dict()) == json.dumps(mine.as_dict())
        assert separated == 7

    def test_interval_hitting_sigma_rejected(self):
        p = builtin_example("CASE2", scale=0.9)
        with pytest.raises(ValueError, match="intersects"):
            tan_theta_bound(p, (-1.5, 1.5))

    def test_empty_interval_rejected(self):
        p = builtin_example("CASE2", scale=0.9)
        with pytest.raises(ValueError, match=r"^empty interval \(1.0, 1.0\)$"):
            tan_theta_bound(p, (1.0, 1.0))

    def test_overcritical_apriori_fails(self):
        p = builtin_example("CASE2")  # neighborhood empty, ||P - Q|| = 1
        r = tan_theta_bound(p, (-1.0, 1.0))
        assert not r.premise_satisfied
        assert r.holds

    def test_random_case_ii_corpus(self, rng):
        checked = 0
        for k in range(200):
            spec = random_problem_spec(
                Case.CASE_II, int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                float(rng.uniform(0.0, 1.4)), seed=int(rng.integers(2**32)),
            )
            p = random_problem(spec)
            r = tan_theta_bound(p, maximal_gap_interval(p))
            if r.premise_satisfied:
                assert r.holds, (spec, r)
                checked += 1
        assert checked > 150

    def test_every_public_problem_is_the_only_row_of_its_stack(self, tmp_path):
        # so a caller's interval, repeated on every row of the stack, runs on that row alone
        spec = random_problem_spec(Case.CASE_II, 2, 3, 0.6, seed=4)
        built = builtin_example("CASE2", scale=0.9)
        save_problem(built, tmp_path / "p.json")
        problems = [
            PerturbationProblem.build(built.a, built.v, built.sigma, built.Sigma), built,
            random_problem(spec), load_problem(tmp_path / "p.json"),
            harness.search_worst_case(2, 2, trials=2, refine_sweeps=1).best_problem,
        ]
        assert [(len(q._stack.d), q._row) for q in problems] == [(1, 0)] * len(problems)

    def test_a_given_interval_on_a_batch_row_reports_as_alone(self):
        specs = [random_problem_spec(Case.CASE_II, 3, 4, 0.6, seed=seed) for seed in range(6)]
        p = harness._random_problems(specs, DEFAULT_TOL)[3]
        (g_lo, g_hi), sigma = maximal_gap_interval(p), p.sigma
        interval = (0.5 * (g_lo + sigma.lo[0]), 0.5 * (g_hi + sigma.hi[-1]))
        report = tan_theta_bound(p, interval)
        alone = PerturbationProblem.build(p.a, p.v, sigma, p.Sigma)
        want = tan_theta_bound(alone, interval)
        assert json.dumps(report.as_dict()) == json.dumps(want.as_dict())
        assert report.premise_satisfied

    def test_a_given_interval_avoids_sigma_when_the_roles_swap(self):
        # only Sigma's hull is separated, so the interval is about Sigma and must avoid sigma
        v = np.zeros((4, 4))
        v[0, 1] = v[1, 0] = v[2, 3] = v[3, 2] = 0.3
        p = PerturbationProblem.build(np.diag([-2.0, 0.0, 0.5, 2.0]), v,
                                      SpectralSet.from_points([-2.0, 2.0]),
                                      SpectralSet.from_points([0.0, 0.5]))
        assert p.classification.detail == "hull(Sigma) disjoint from sigma"
        with pytest.raises(ValueError) as raised:
            tan_theta_bound(p, (-3.0, 1.0))
        assert str(raised.value) == ("interval (-3.0, 1.0) intersects the other component "
                                     "at [-2.0, -2.0]")
        report = tan_theta_bound(p, (-1.0, 1.0))
        assert report.premise_satisfied and report.holds
        assert "roles swapped: the separated hull is Sigma's" in report.flags

def sharp_tan_theta_problem(w: float) -> PerturbationProblem:
    """A = diag(0, -1, 1), sigma = {0}, Sigma = {-1, 1}, V = w (e0 e1* + e0 e2* + h.c.).

    B keeps the eigenvalue 0 with eigenvector (1, w, -w) / sqrt(1 + 2 w^2), so
    tan theta = sqrt(2) w = ||V|| and dist(sigma-tilde, Sigma) = 1: the tan-Theta
    bound is attained for every w.
    """
    v = np.zeros((3, 3))
    v[0, 1:] = v[1:, 0] = w
    return PerturbationProblem.build(np.diag([0.0, -1.0, 1.0]), v, SpectralSet.from_points([0.0]),
                                     SpectralSet.from_points([-1.0, 1.0]))


def near_critical_tan_theta_problem(dim: int = 20) -> PerturbationProblem:
    """A = diag(0, -1, 1, 3, 4, ..., dim - 1) with sigma = {0}, V coupling index 0 to 1 and 2.

    The weight puts 1 - ||E_A(sigma) - E_B(-1, 1)|| at about 1.5e-9: inside
    TAN_THETA's premise, whose slack is tol.report = 1e-9, but below a
    dimension-scaled slack such as 1e-10 n, which would reject it at n = 20.
    """
    points = [0.0, -1.0, 1.0] + [float(k) for k in range(3, dim)]
    v = np.zeros((dim, dim))
    v[0, 1:3] = v[1:3, 0] = math.sqrt(1.0 / (4 * 1.5e-9))
    return PerturbationProblem.build(np.diag(points), v, SpectralSet.from_points([0.0]),
                                     SpectralSet.from_points(points[1:]))


class TestTanThetaPremise:
    def test_near_critical_premise_holds_and_graph_operator_agrees(self):
        p = near_critical_tan_theta_problem()
        r = tan_theta_bound(p, maximal_gap_interval(p))
        assert 1e-9 < r.premise_margin < 2e-9
        assert r.premise_satisfied and r.holds
        assert r.witnesses["x_norm"] > 1e4

    @pytest.mark.parametrize("argv", [["analyze", "--theorem", "TAN_THETA"],
                                      ["verify", "--theorem", "TAN_THETA,CASE2"]])
    def test_near_critical_file_exits_0(self, argv, tmp_path, capsys):
        path = tmp_path / "near.json"
        save_problem(near_critical_tan_theta_problem(), path)
        assert main([argv[0], str(path), *argv[1:]]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert [line.split()[:2] for line in out.out.splitlines() if line.startswith("TAN_THETA")] \
            == [["TAN_THETA", "yes"]]


EPS = np.finfo(float).eps
SHARP_WEIGHTS = [0.1, 0.7, 3.0, 100.0]
# verify --random case2 --dims 2,2 --ratio 2 --seed 0 gives its 42nd problem this seed: E_B on the
# gap interval has rank 1 against rank E_A(sigma) = 2, yet the computed ||P - Q|| is 1 - 2.2e-16
UNEQUAL_RANKS_SEED = 2968721141169319798


class TestTanThetaRanks:
    """Unequal ranks give ||P - Q|| = 1 exactly, so the premise fails at every resolution."""

    def test_the_random_run_exits_0(self, capsys):
        argv = ["verify", "--random", "case2", "--dims", "2,2", "--ratio", "2", "--trials", "100",
                "--seed", "0", "--theorem", "TAN_THETA", "--tol-scale", "1e-7"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == "" and "0 violations" in out.out

    def test_a_file_at_report_0_exits_0_with_the_premise_unmet(self, tmp_path, capsys):
        problem = random_problem(random_problem_spec(Case.CASE_II, 2, 2, 2.0, UNEQUAL_RANKS_SEED))
        path, out = tmp_path / "p.json", tmp_path / "r.json"
        path.write_text(json.dumps({**problem_payload(problem), "tolerances": {"report": 0}}))
        assert main(["analyze", str(path), "--theorem", "TAN_THETA", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        (report,) = json.loads(out.read_text())["reports"]
        assert 0 < report["premise_margin"] < 1e-15
        assert (report["premise_satisfied"], report["holds"]) == (False, True)
        assert report["flags"] == ["a-priori premise not satisfied: rank E_B(interval) = 1 "
                                   "differs from rank E_A(sigma) = 2"]
        assert "x_norm" not in report["witnesses"]
        # at the default resolution the margin itself fails, with the norm premise's text
        default = tan_theta_bound(problem)
        assert default.flags == ("a-priori premise not satisfied: ||E_A(sigma) - E_B(interval)|| "
                                 "is not below 1",)


def graph_norm(problem: PerturbationProblem, interval) -> float:
    """``graph_operator(P, Q).norm`` of TAN_THETA's pair on ``problem`` and the open ``interval``:
    P on A's eigenvectors of the separated side, Q on B's in the interval."""
    mask_p = subspaces._sides(problem._stack).mask[problem._row]
    values = problem.b_eigen.eigenvalues
    mask_q = select(values, SpectralSet([interval], is_open=True), problem.tol.eig(values))[0]
    p, q = (projection_from_eigenvectors(e, m)
            for e, m in ((problem.a_eigen, mask_p), (problem.b_eigen, mask_q)))
    return graph_operator(p, q, problem.tol).norm


class TestStackedGraphOperator:
    """TAN_THETA's ``x_norm``, from blocks gathered from the stack, against ``graph_operator``.

    On a diagonal A both form U_P* U_Q and U_P-perp* U_Q exactly, so they agree bit for bit.
    On a turned A the gathers read U_A* U_B, which rounds unlike the products of the bases;
    the tolerance, fixed before the first run, is ``8 n eps (1 + x) sqrt(1 + x^2)``: X = W U^{-1}
    with ``||U^{-1}|| = sqrt(1 + x^2)``, for blocks moved by n eps each.
    """

    @staticmethod
    def turned_slack(problem, x):
        return 8 * problem.dim * EPS * (1.0 + x) * math.sqrt(1.0 + x * x)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (8, 8), (32, 32)])
    @pytest.mark.parametrize("case", [Case.CASE_II, Case.SUBORDINATED])
    def test_every_premise_row_of_a_generated_stack_bit_for_bit(self, case, dims):
        specs = [random_problem_spec(case, *dims, ratio, seed) for seed in range(4)
                 for ratio in (0.3, 0.9, 1.2, 2.0, 4.0)]
        checked = 0
        for problem in harness._random_problems(specs, DEFAULT_TOL):
            report = tan_theta_bound(problem)
            if not report.premise_satisfied:
                assert "x_norm" not in report.witnesses
                continue
            checked += 1
            assert report.witnesses["x_norm"] == graph_norm(problem, maximal_gap_interval(problem))
        assert checked >= 8

    def test_the_built_ins_at_scale_0_9(self):
        case2 = builtin_example("CASE2", scale=0.9)
        report = tan_theta_bound(case2)
        assert report.premise_satisfied
        assert report.witnesses["x_norm"] == graph_norm(case2, (-1.0, 1.0))
        # the interleaved example has no separated hull: no premise row
        assert "x_norm" not in tan_theta_bound(builtin_example("CASE1", scale=0.9)).witnesses

    def test_a_given_interval(self):
        specs = [random_problem_spec(Case.CASE_II, 3, 4, 0.6, seed=seed) for seed in range(6)]
        for problem in harness._random_problems(specs, DEFAULT_TOL):
            (g_lo, g_hi), sigma = maximal_gap_interval(problem), problem.sigma
            interval = (0.5 * (g_lo + sigma.lo[0]), 0.5 * (g_hi + sigma.hi[-1]))
            report = tan_theta_bound(problem, interval)
            assert report.premise_satisfied
            assert report.witnesses["x_norm"] == graph_norm(problem, interval)

    def test_a_mixed_stack_and_turned_rows(self):
        # TestMixedStack's stack: odd rows turned by a Haar unitary, so the whole stack is turned
        # into A's eigenbasis, its diagonal rows by their permutations, which is exact
        rows, turned = [], []
        for seed, ratio in enumerate((0.3, 0.7, 1.2, 1.6, 3.0, 0.9, 0.5, 1.1)):
            problem = random_problem(random_problem_spec("CASE_II", 3, 4, ratio, seed))
            a, v = problem.a, problem.v
            if seed % 2:
                u = haar_unitary(np.random.default_rng(seed), problem.dim)
                a, v = (u @ m @ u.conj().T for m in (a, v))
            rows.append((a, v, problem.sigma, problem.Sigma))
            turned.append(seed % 2 == 1)
        a, v, sigmas, Sigmas = zip(*rows)
        ends = [(np.stack([s.lo for s in sets]), np.stack([s.hi for s in sets]))
                for sets in (sigmas, Sigmas)]
        stack = PerturbationProblem._build(np.stack(a), np.stack(v), *ends, False, DEFAULT_TOL)
        assert stack[0].a_eigen.order is None
        checked = 0
        for problem, is_turned in zip(stack, turned):
            report = tan_theta_bound(problem)
            if not report.premise_satisfied:
                continue
            checked += 1
            x, want = report.witnesses["x_norm"], graph_norm(problem, maximal_gap_interval(problem))
            if is_turned:
                assert abs(x - want) <= self.turned_slack(problem, x)
            else:
                assert x == want
        assert checked >= 4

    @pytest.mark.parametrize("dims", [(3, 4), (8, 8), (16, 16)])
    def test_haar_turned_problems_alone(self, dims):
        checked = 0
        for seed in range(10):
            problem = random_problem(random_problem_spec(Case.CASE_II, *dims, 1.2, seed))
            u = haar_unitary(np.random.default_rng(seed), problem.dim)
            turned = PerturbationProblem.build(*(u @ m @ u.conj().T for m in (problem.a, problem.v)),
                                               problem.sigma, problem.Sigma)
            report = tan_theta_bound(turned)
            if report.premise_satisfied:
                checked += 1
                x = report.witnesses["x_norm"]
                want = graph_norm(turned, maximal_gap_interval(turned))
                assert abs(x - want) <= self.turned_slack(turned, x)
        assert checked >= 5


class TestTanThetaSharp:
    """The sharp family attains both forms of the bound.

    Tolerances fixed before the first run: both numbers are functions of one
    angle theta.  On the problem itself each pair agrees within 8 eps
    max(1, claim).  Under a map the computed angle may move by a few eps, so
    the sine pair keeps 8 eps max(1, claim) and the tan pair, whose
    derivative in theta is 1 + tan^2, gets 8 eps (1 + claim^2).
    """

    @staticmethod
    def assert_attained(report, tan_slack):
        w = report.witnesses
        assert report.premise_satisfied and report.holds
        assert w["dist_sigma_tilde"] == pytest.approx(w["d"], rel=8 * EPS)
        claimed, tan_claim = report.claimed_bound, w["tan_theta_bound"]
        assert abs(report.measured_value - claimed) <= 8 * EPS * max(1.0, claimed)
        assert abs(w["x_norm"] - tan_claim) <= tan_slack(tan_claim)

    @pytest.mark.parametrize("w", SHARP_WEIGHTS)
    def test_bound_attained(self, w):
        p = sharp_tan_theta_problem(w)
        r = tan_theta_bound(p, maximal_gap_interval(p))
        assert r.witnesses["tan_theta_bound"] == pytest.approx(math.sqrt(2.0) * w, rel=8 * EPS)
        self.assert_attained(r, lambda t: 8 * EPS * max(1.0, t))

    @pytest.mark.parametrize("w", SHARP_WEIGHTS)
    @pytest.mark.parametrize("s, t, rotation", [(1e3, 0.0, None), (1e-3, 0.0, None),
                                                (1.0, 1.5, None), (1.0, 0.0, 0), (7.0, -10.5, 1)])
    def test_bound_attained_under_scaling_shift_and_rotation(self, w, s, t, rotation):
        unitary = None if rotation is None else random_unitary(np.random.default_rng(rotation), 3)
        p = mapped_problem(sharp_tan_theta_problem(w), s, t, unitary)
        r = tan_theta_bound(p, maximal_gap_interval(p))
        self.assert_attained(r, lambda tan: 8 * EPS * (1.0 + tan * tan))


class TestPairInequality:
    def test_equal_operators_give_zero(self):
        a = np.diag([0.0, 1.0, 2.0])
        r = verify_pair_inequality(
            a, a, SpectralSet.from_points([0.0]), SpectralSet.from_points([2.0])
        )
        assert r.measured_value < 1e-12
        assert r.holds

    def test_two_by_two_epsilon_family(self):
        a = np.diag([0.0, 1.0])
        sigma = SpectralSet.from_points([0.0])
        delta = SpectralSet.from_points([1.0])
        for eps in (0.01, 0.1, 1.0):
            b = a + np.array([[0.0, eps], [eps, 0.0]])
            r = verify_pair_inequality(a, b, sigma, delta)
            assert r.holds, eps
            assert r.witnesses["hull_separated"] == 1.0

    def test_random_pairs(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 17))
            a = random_hermitian(rng, dim)
            b = a + random_hermitian(rng, dim, scale=float(rng.uniform(0.01, 2)))
            ea = np.linalg.eigvalsh(a)
            eb = np.linalg.eigvalsh(b)
            cut_a = int(rng.integers(1, dim))
            sigma = SpectralSet.from_points(ea[:cut_a])
            rest = list(eb[distance_to_points(sigma, eb) > 0.05])
            if not rest:
                continue
            delta = SpectralSet.from_points(rest)
            r = verify_pair_inequality(a, b, sigma, delta)
            assert r.holds, r
            assert r.measured_value <= r.witnesses["pi_half_bound"] + 1e-9

    def test_shape_mismatch_rejected(self):
        sigma, delta = SpectralSet.from_points([1.0]), SpectralSet.from_points([3.0])
        with pytest.raises(ValueError) as excinfo:
            verify_pair_inequality(np.eye(2), np.eye(3), sigma, delta)
        assert str(excinfo.value) == "A and B have different shapes: (2, 2) vs (3, 3)"

    def test_zero_distance_rejected(self):
        a = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="positive distance"):
            verify_pair_inequality(
                a, a, SpectralSet.from_points([0.0]), SpectralSet.from_points([0.0])
            )


CASE1_BATTERY = ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "MAIN", "MCE")
CASE2_BATTERY = ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "CASE2", "TAN_THETA", "MCE")


def stack_maker(case, dims, ratio, swapped=()):
    """A maker of fresh stacks of the same four generated problems of ``case``, built by one
    ``_build`` call, with sigma and Sigma exchanged on the rows in ``swapped``; a set narrower
    than the widest of its rows repeats its last point."""
    problems = [random_problem(random_problem_spec(case, *dims, ratio, seed)) for seed in range(4)]
    sets = [(p.Sigma, p.sigma) if i in swapped else (p.sigma, p.Sigma)
            for i, p in enumerate(problems)]

    def ends(k):
        width = max(len(pair[k].lo) for pair in sets)
        return tuple(np.stack([np.pad(x, (0, width - len(x)), mode="edge")
                               for x in (pair[k].lo if side == 0 else pair[k].hi for pair in sets)])
                     for side in (0, 1))

    a, v = np.stack([p.a for p in problems]), np.stack([p.v for p in problems])
    return lambda: PerturbationProblem._build(a, v, ends(0), ends(1), False, DEFAULT_TOL)


SHARING_STACKS = {
    "case1-8+8": (("CASE_I", (8, 8), 0.45), CASE1_BATTERY),
    "case1-3+4": (("CASE_I", (3, 4), 0.45), CASE1_BATTERY),
    "case2-8+8": (("CASE_II", (8, 8), 1.2), CASE2_BATTERY),
    "case2-3+4": (("CASE_II", (3, 4), 1.2), CASE2_BATTERY),
    # intervals._CLASSES[3], as a CASE_II file with sigma and Sigma exchanged: the roles swap,
    # and _sides pads the narrower set
    "swapped-3+4": (("CASE_II", (3, 4), 1.2, range(4)), CASE2_BATTERY),
    "half-swapped-3+4": (("CASE_II", (3, 4), 1.2, (1, 3)), CASE2_BATTERY),
}


def report_fields(report) -> str:
    """Every field of ``report``, each float by its repr, so that equal means bit for bit."""
    return json.dumps(report.as_dict())


class TestRegionSharing:
    """The checks on one stack share each region's selection of B's eigenvalues."""

    @pytest.mark.parametrize("name", sorted(SHARING_STACKS))
    def test_each_region_is_selected_once_per_stack(self, name, monkeypatch):
        source, battery = SHARING_STACKS[name]
        calls, select_rows = [], subspaces._select

        def region(values, lo, hi, is_open):
            """A selection's values and each row's distinct intervals: a repeated interval,
            as a padded set has, does not make another region."""
            rows = tuple(np.unique(np.stack([x, y]), axis=1).tobytes() for x, y in zip(lo, hi))
            return values.tobytes(), rows, is_open

        def recorded(values, lo, hi, is_open, tol):
            calls.append(region(values, lo, hi, is_open))
            return select_rows(values, lo, hi, is_open, tol)

        for module in (analysis, subspaces):
            monkeypatch.setattr(module, "_select", recorded)
        problems = stack_maker(*source)()
        for problem in problems:
            for theorem in battery:
                harness.run_theorem(problem, theorem)
        assert calls and len(calls) == len(set(calls))
        # SHIFT_II and MAIN share O_{d/2}(sigma); SHIFT_III and CASE2 share O_d of the side whose
        # hull is separated, Sigma on the rows where the roles swap, and select no other O_d
        stack = problems[0]._stack
        if battery is CASE1_BATTERY:
            side, radius = stack.sigma_ends, stack.d / 2.0
        else:
            side, radius = analysis._sides(stack).near, stack.d
        shared, of_sigma = (region(stack.b_eigen.eigenvalues, *neighborhood_bounds(lo, radius, hi),
                                   True) for lo, hi in (side, stack.sigma_ends))
        assert calls.count(shared) == 1
        assert calls.count(of_sigma) == (of_sigma == shared)

    @pytest.mark.parametrize("name", sorted(SHARING_STACKS))
    def test_reports_equal_those_of_each_check_alone(self, name):
        source, battery = SHARING_STACKS[name]
        make = stack_maker(*source)
        alone = {t: [report_fields(harness.run_theorem(p, t)) for p in make()] for t in battery}
        for order in (battery, battery[::-1]):
            problems = make()
            got = {t: [] for t in battery}
            for problem in problems:
                for theorem in order:
                    got[theorem].append(report_fields(harness.run_theorem(problem, theorem)))
            assert got == alone

    def test_sides_are_the_stacks_own_sets_unless_a_row_swaps(self):
        for swapped in ((), (2,)):
            stack = stack_maker("CASE_II", (3, 4), 1.2, swapped)()[0]._stack
            sides = subspaces._sides(stack)
            own = sides.near is stack.sigma_ends and sides.far is stack.Sigma_ends
            assert own == (not swapped)

    def test_a_given_maximal_interval_reuses_the_default_selection(self, monkeypatch):
        calls, select_rows = [], analysis._select

        def recorded(values, lo, hi, is_open, tol):
            calls.append((lo.tobytes(), hi.tobytes(), is_open))
            return select_rows(values, lo, hi, is_open, tol)

        for module in (analysis, subspaces):
            monkeypatch.setattr(module, "_select", recorded)
        p = random_problem(random_problem_spec("CASE_II", 3, 4, 1.2, 0))
        assert len(p._stack.d) == 1
        default = tan_theta_bound(p)
        interval = maximal_gap_interval(p)
        given = tan_theta_bound(p, interval)
        assert report_fields(given) == report_fields(default)
        assert calls.count((np.array(interval[:1]).tobytes(), np.array(interval[1:]).tobytes(),
                            True)) == 1

    def test_signed_zeros_and_openness_are_separate_entries(self):
        stack = builtin_example("CASE2", scale=0.9)._stack
        entries = len(stack.memo)
        regions = [(np.array([[lo]]), np.array([[0.5]])) for lo in (-0.0, 0.0)]
        for _ in range(2):
            for ends in regions:
                for is_open in (False, True):
                    analysis._region(stack, ends, is_open=is_open)
            # two signs of zero, each open and closed; asking again adds none
            assert len(stack.memo) == entries + 4
