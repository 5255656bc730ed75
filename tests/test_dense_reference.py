"""A dense reference for the measured values, from the theorems' statements alone.

Each reference value takes a dense ``eigh`` of A and of B = A + V and
selects eigenvalues by a plain loop.  A spectral value (the SHIFT ids) is
then a max or min over those eigenvalues; a subspace value forms the n x n
projectors and takes ``np.linalg.norm(P - Q, 2)``.  It reads none of the library's masks, memos,
stacks or sides; the separated side and the gap interval are found from
their definitions.  Both tolerances are fixed here, before any run:

- a problem is skipped only when an eigenvalue of B lies within the
  placement tolerance ``1e-10 n max|eigenvalue|`` of a boundary of a set
  it is selected in, where the library's tolerance-aware selection may
  decide otherwise;
- a measured value must equal its reference within ``64 eps max(1, value)``,
  and a premise decision must equal the reference's wherever the
  reference's margin exceeds ``1e-6`` of its unit;
- TAN_THETA's ``x_norm`` must equal ||X|| within
  ``64 n eps max(1, x) (1 + x^2)``: the reference inverts P Q P on Ran P,
  whose least eigenvalue is cos^2 of the largest angle, 1 / (1 + x^2).

The shift is ``delta(v, g) = v tan(arctan(2 v / g) / 2)``, its trigonometric
form, with arctan(+inf) = pi/2 at g = 0.  The graph operator X of a pair
with ``||P - Q|| < 1`` maps u in Ran P to the P-perp part of the vector of
Ran Q whose P part is u: ``X = (I - P) Q (P Q P)^+``.

A's eigenvalues lie in sigma union Sigma, whose distance d is positive, so
E_A(sigma) takes the eigenvalues nearer to sigma than to Sigma.
"""

import math

import numpy as np
import pytest

from offdiag import PerturbationProblem, random_problem, random_problem_spec, run_theorem

from conftest import haar_unitary

EPS = np.finfo(float).eps
PLACEMENT = 1e-10  # times n max|eigenvalue|: the selection's tolerance (config.Tolerances.eig)
MARGIN = 1e-6  # a premise margin clear of its threshold, relative to its unit
FAMILY_RATIOS = {
    # ||V|| / d on both sides of c_pi (MAIN) and of sqrt(2) (CASE2)
    "CASE_I": (0.2, 0.45, 0.7, 1.3, 1.6),
    "CASE_II": (0.3, 0.7, 1.2, 1.6, 3.0),
    "SUBORDINATED": (0.3, 1.2, 1.6, 4.0),
}


class Near(Exception):
    """An eigenvalue within the placement tolerance of a boundary: the problem is skipped."""


def root(f, lo, hi):
    """The root of the increasing ``f`` in [lo, hi], by bisection to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)


# the unique positive root of (pi/2) x + x tan(arctan(2x)/2) - 1
C_PI = root(lambda x: (math.pi / 2) * x + x * math.tan(math.atan(2 * x) / 2) - 1, 0.0, 1.0)


def distance(x, intervals):
    return min(max(lo - x, x - hi, 0.0) for lo, hi in intervals)


def set_distance(first, second):
    return min(max(lo2 - hi1, lo1 - hi2, 0.0) for lo1, hi1 in first for lo2, hi2 in second)


def projector(matrix, inside):
    """The projector onto ``matrix``'s eigenvectors whose eigenvalue x has ``inside(x, tol)``."""
    w, u = np.linalg.eigh(matrix)
    tol = PLACEMENT * len(w) * np.abs(w).max()
    picked = u[:, [j for j, x in enumerate(w.tolist()) if inside(x, tol)]]
    return picked @ picked.conj().T


def clear(x, boundary, tol):
    if abs(x - boundary) <= tol:
        raise Near(x, boundary)


def shift(v, g):
    return v * math.tan((math.atan(2 * v / g) if g else math.pi / 2) / 2)


def graph_norm(p, q):
    """||X|| for X = (I - P) Q (P Q P)^+, the inverse taken on the rank P top eigenvectors."""
    w, u = np.linalg.eigh(p @ q @ p)
    rank = round(np.trace(p).real)
    top = u[:, len(w) - rank :]
    x = (np.eye(len(p)) - p) @ q @ (top / w[len(w) - rank :]) @ top.conj().T
    return float(np.linalg.norm(x, 2))


def in_neighborhood(intervals, radius, closed=False):
    """The open (or ``closed``) ``radius``-neighborhood of the union of ``intervals``."""

    def inside(x, tol):
        clear(distance(x, intervals), radius, tol)
        return distance(x, intervals) <= radius if closed else distance(x, intervals) < radius

    return inside


def in_closed(intervals):
    def inside(x, tol):
        for end in (e for interval in intervals for e in interval if math.isfinite(e)):
            clear(x, end, tol)
        return any(lo <= x <= hi for lo, hi in intervals)

    return inside


def in_open(lo, hi):
    return lambda x, tol: in_closed([(lo, hi)])(x, tol) and lo < x < hi


def hull_separated(near, far):
    """Whether the convex hull of ``near`` meets no interval of ``far``."""
    lo, hi = min(x for x, _ in near), max(x for _, x in near)
    return all(f_hi < lo or f_lo > hi for f_lo, f_hi in far)


def references(problem):
    """Each theorem id's reference ``(measured value, premise met or None)``: NaN outside its
    case, and a premise decision only where the reference's margin is clear.  The key
    ``TAN_THETA.x_norm`` holds that witness, where the reference's premise holds."""
    a, v = problem.a, problem.v
    b = a + v
    sigma, Sigma = problem.sigma.intervals, problem.Sigma.intervals
    d = set_distance(sigma, Sigma)
    norm_v = float(np.linalg.norm(v, 2))
    delta = shift(norm_v, d)
    wa, wb = (np.linalg.eigh(m)[0].tolist() for m in (a, b))

    def e_a(near, far):
        return projector(a, lambda x, tol: distance(x, near) < distance(x, far))

    def norm(p, q):
        return float(np.linalg.norm(p - q, 2))

    def premise(margin, unit):
        return None if abs(margin) <= MARGIN * unit else margin > 0

    def persisting(near):
        """The largest distance to ``near`` of B's eigenvalues in its closed delta-neighborhood."""
        tol = PLACEMENT * len(wb) * max(map(abs, wb))
        inside = [distance(x, near) for x in wb if in_neighborhood(near, delta, True)(x, tol)]
        return max(inside, default=0.0)

    # A0 and A1: A on Ran E_A(sigma) and on Ran E_A(Sigma)
    a0 = [x for x in wa if distance(x, sigma) < distance(x, Sigma)]
    a1 = [x for x in wa if distance(x, sigma) > distance(x, Sigma)]
    left, right = shift(norm_v, abs(min(a1) - min(a0))), shift(norm_v, abs(max(a1) - max(a0)))
    out = {
        "SHIFT_BOUNDS": (max(min(wa) - left - min(wb), min(wb) - min(wa), max(wa) - max(wb),
                             max(wb) - (max(wa) + right)), True),
        "SHIFT_I": (max(min(distance(x, sigma), distance(x, Sigma)) for x in wb), True),
        "SHIFT_II": (persisting(sigma), premise(math.sqrt(3) / 2 * d - norm_v, d)),
    }
    p = e_a(sigma, Sigma)
    out["MAIN"] = (norm(p, projector(b, in_neighborhood(sigma, d / 2))),
                   premise(C_PI * d - norm_v, d))
    sides = [(x, y) for x, y in ((sigma, Sigma), (Sigma, sigma)) if hull_separated(x, y)]
    if sides:
        near, far = sides[0]
        p_near = e_a(near, far)
        out["SHIFT_III"] = (persisting(near), premise(math.sqrt(2) * d - norm_v, d))
        out["CASE2"] = (norm(p_near, projector(b, in_neighborhood(near, d))),
                        premise(math.sqrt(2) * d - norm_v, d))
        below = [hi for _, hi in far if hi < min(x for x, _ in near)]
        above = [lo for lo, _ in far if lo > max(x for _, x in near)]
        q = projector(b, in_open(max(below, default=-math.inf), min(above, default=math.inf)))
        measured = norm(p_near, q)
        out["TAN_THETA"] = (measured, premise(1.0 - measured, 1.0))
        if out["TAN_THETA"][1]:
            out["TAN_THETA.x_norm"] = (graph_norm(p_near, q), True)
    else:
        out["SHIFT_III"] = (persisting(sigma), False)
        out["CASE2"] = out["TAN_THETA"] = (math.nan, False)
    sup_sig, inf_Sig = max(hi for _, hi in sigma), min(lo for lo, _ in Sigma)
    inf_sig, sup_Sig = min(lo for lo, _ in sigma), max(hi for _, hi in Sigma)
    if sup_sig < inf_Sig or sup_Sig < inf_sig:
        half = [(-math.inf, sup_sig)] if sup_sig < inf_Sig else [(inf_sig, math.inf)]
        out["SUBORDINATED"] = (norm(p, projector(b, in_closed(half))), True)
    else:
        out["SUBORDINATED"] = (math.nan, False)
    e_b = projector(b, in_closed(Sigma))
    out["MCE"] = (d * float(np.linalg.norm(p @ e_b, 2)), True)
    return out


def problems(family, dims, ratio, seed):
    """The generated problem, the same with sigma and Sigma exchanged, and both turned by a
    seeded Haar unitary."""
    problem = random_problem(random_problem_spec(family, *dims, ratio, seed))
    u = haar_unitary(np.random.default_rng(seed), problem.dim)
    turned = [u @ m @ u.conj().T for m in (problem.a, problem.v)]
    return [PerturbationProblem.build(*matrices, *sets)
            for matrices in ((problem.a, problem.v), turned)
            for sets in ((problem.sigma, problem.Sigma), (problem.Sigma, problem.sigma))]


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (8, 8)])
@pytest.mark.parametrize("family", sorted(FAMILY_RATIOS))
def test_measured_values_and_premises_match_the_dense_reference(family, dims):
    checked, skipped, wrong = 0, 0, []
    for ratio in FAMILY_RATIOS[family]:
        for seed in range(2):
            for problem in problems(family, dims, ratio, seed):
                try:
                    want = references(problem)
                except Near:
                    skipped += 1
                    continue
                checked += 1
                for key, (value, met) in want.items():
                    theorem, _, witness = key.partition(".")
                    report = run_theorem(problem, theorem)
                    if witness:
                        got = report.witnesses.get(witness, math.nan)
                        slack = 64 * problem.dim * EPS * max(1.0, value) * (1.0 + value**2)
                    else:
                        got, slack = report.measured_value, 64 * EPS * max(1.0, abs(value))
                    same = (math.isnan(got) and math.isnan(value)) or abs(got - value) <= slack
                    if not same or met not in (None, report.premise_satisfied):
                        wrong.append((ratio, seed, key, got, value, met,
                                      report.premise_satisfied))
    assert not wrong
    assert skipped <= checked // 10
