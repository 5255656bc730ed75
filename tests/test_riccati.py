"""The Riccati identity of a graph subspace as an oracle for B's eigenvectors and selection.

In A's eigenbasis an off-diagonal V makes B = A + V the block matrix
``[[A0, W], [W*, A1]]``, A0 and A1 A's eigenvalues on P and on P-perp.  When
the spectral subspace Q = E_B(interval) of TAN_THETA has rank P and
``||P - Q|| < 1``, Q is the graph ``{y + X y}`` of an X from Ran P to Ran
P-perp, and ``B [I; X] = [I; X] (A0 + W X)`` splits into

    A1 X - X A0 - X W X + W* = 0   and   spec(A0 + W X) = spec(B) in the interval.

(Albeverio, Makarov & Motovilov, Canad. J. Math. 55 (2003).)  Both hold for
any such problem, diagonal or turned, at any n, so they check B's
eigenvectors, TAN_THETA's selection and the block layout together.  X is
formed from the columns ``Y = U_A* U_B[:, mask_q]`` as ``Y[P-perp] Y[P]^-1``.
"""

import numpy as np
import pytest

from offdiag import (
    Case,
    PerturbationProblem,
    builtin_example,
    random_problem,
    random_problem_spec,
    subspaces,
    tan_theta_bound,
)
from offdiag.operators import _select

EPS = np.finfo(float).eps
# in units of eps * scale * (1 + ||X||)^2, fixed before the first run over the families below
RESIDUAL_BOUND = 64.0
SPECTRUM_BOUND = 256.0


def haar_unitary(rng, dim):
    """A Haar-distributed unitary: Q of a complex Gaussian's QR, its columns' phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def selection(problem):
    """TAN_THETA's mask_q: B's eigenvalues in the open maximal gap interval, as it selects them."""
    stack = problem._stack
    lo, hi = (x[:, None] for x in subspaces._sides(stack).gap)
    return _select(stack.b_eigen.eigenvalues, lo, hi, True, stack.eig_tol)[0][problem._row]


def riccati_errors(problem):
    """``(residual, spectrum error)`` in units of eps * scale * (1 + ||X||)^2, or None where
    TAN_THETA's premise fails or its selection's rank is not P's."""
    report = tan_theta_bound(problem)
    if not report.premise_satisfied or report.witnesses["rank_q"] != report.witnesses["rank_p"]:
        return None
    mask_q, p = selection(problem), subspaces._sides(problem._stack).mask[problem._row]
    assert mask_q.sum() == report.witnesses["rank_q"]
    u_a, u_b = problem.a_eigen.eigenvectors, problem.b_eigen.eigenvectors
    y = u_a.conj().T @ u_b[:, mask_q]
    x = np.linalg.solve(y[p].T, y[~p].T).T  # Y[P-perp] Y[P]^-1
    values = problem.a_eigen.eigenvalues
    a0, a1 = np.diag(values[p]), np.diag(values[~p])
    w = (u_a.conj().T @ problem.v @ u_a)[np.ix_(p, ~p)]
    residual = np.linalg.norm(a1 @ x - x @ a0 - x @ w @ x + w.conj().T, 2)
    spectrum = np.sort_complex(np.linalg.eigvals(a0 + w @ x))
    selected = np.sort(problem.b_eigen.eigenvalues[mask_q])
    unit = EPS * problem.scale * (1.0 + np.linalg.norm(x, 2)) ** 2
    return residual / unit, np.abs(spectrum - selected).max() / unit


def family(case, n0, n1, turned):
    """Generated problems of ``case`` at n0 + n1, ratios 0.45 and 1.2, Haar-turned if ``turned``."""
    seeds = range(3) if n0 + n1 < 128 else range(1)
    for ratio in (0.45, 1.2):
        for seed in seeds:
            problem = random_problem(random_problem_spec(case, n0, n1, ratio, seed))
            if turned:
                u = haar_unitary(np.random.default_rng(seed), n0 + n1)
                a, v = (u @ m @ u.conj().T for m in (problem.a, problem.v))
                problem = PerturbationProblem.build(a, v, problem.sigma, problem.Sigma)
            yield problem


@pytest.mark.parametrize("turned", [False, True], ids=["diagonal", "haar"])
@pytest.mark.parametrize("n0, n1", [(2, 2), (3, 5), (8, 8), (64, 64), (128, 128)])
@pytest.mark.parametrize("case", [Case.CASE_II, Case.SUBORDINATED])
def test_generated_graph_subspaces_solve_the_riccati_equation(case, n0, n1, turned):
    errors = [riccati_errors(problem) for problem in family(case, n0, n1, turned)]
    assert all(e is not None for e in errors)  # the premise holds on every problem here
    assert max(residual for residual, _ in errors) <= RESIDUAL_BOUND
    assert max(spectrum for _, spectrum in errors) <= SPECTRUM_BOUND


def test_builtin_case2_below_its_threshold_solves_the_riccati_equation():
    residual, spectrum = riccati_errors(builtin_example("CASE2", scale=0.99))
    assert residual <= RESIDUAL_BOUND and spectrum <= SPECTRUM_BOUND


@pytest.mark.parametrize("angle, refused", [(0.0, 1), (0.1, 0)], ids=["exchanged", "mixed"])
def test_the_oracle_refuses_wrong_eigenvectors(angle, refused):
    """Exchanging a selected and an unselected eigenvector keeps Q invariant but selects the
    wrong eigenvalue, which the spectrum refuses; mixing them breaks invariance, which the
    residual refuses."""
    problem = random_problem(random_problem_spec(Case.CASE_II, 3, 5, 0.45, 0))
    assert max(riccati_errors(problem)) <= RESIDUAL_BOUND
    mask_q, u_b = selection(problem), problem.b_eigen.eigenvectors
    i, j = np.flatnonzero(mask_q)[0], np.flatnonzero(~mask_q)[0]
    c, s = np.cos(angle), np.sin(angle)
    u_b[:, [i, j]] = u_b[:, [j, i]] if angle == 0 else u_b[:, [i, j]] @ np.array([[c, -s], [s, c]])
    assert riccati_errors(problem)[refused] > 1e6
