"""A dense reference for the measured values, from the theorems' statements alone.

Each reference value takes a dense ``eigh`` of A and of B = A + V and
selects eigenvalues by a plain loop.  A spectral value (the SHIFT ids) is
then a max or min over those eigenvalues; a subspace value forms the n x n
projectors and takes ``np.linalg.norm(P - Q, 2)``.  It reads none of the library's masks, memos,
stacks or sides; the separated side and the gap interval are found from
their definitions.  Both tolerances are fixed here, before any run:

- a reference value is skipped only when an eigenvalue of B lies within
  the placement tolerance ``1e-10 n max|eigenvalue|`` of a boundary of a
  set that the value selects it in, but not on it, where the library's
  tolerance-aware selection may decide otherwise; the problem's other
  values are checked;
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

The worst-case search's objective is checked on packed trials the same way:
``||E_A(sigma) - E_B(open neighborhood of sigma)||`` from n x n projectors,
with B formed in the search's order of operations, so that both share its
bits.  It must match within the same ``64 eps max(1, value)``, and be
exactly 1 where the two projections differ in rank.
"""

import math

import numpy as np
import pytest

from offdiag import (PerturbationProblem, builtin_example, harness, random_problem,
                     random_problem_spec, run_theorem)
from offdiag.config import DEFAULT_TOL

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
BUILTIN_SCALES = (0.5, 0.9, 0.99, 1.0)  # V's scale on the built-in examples


class Near(Exception):
    """An eigenvalue within the placement tolerance of a boundary: the value is skipped."""


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
    """Raise ``Near`` for an ``x`` within ``tol`` of ``boundary`` but off it.  On the boundary
    both selections decide as the set's own inequality: the library's rule counts a value
    within its tolerance inside a closed set and outside an open one."""
    if 0 < abs(x - boundary) <= tol:
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


def unless_near(reference):
    """``reference()``, or None where a selection it makes raises ``Near``."""
    try:
        return reference()
    except Near:
        return None


def references(problem):
    """Each theorem id's reference ``(measured value, premise met or None)``: NaN outside its
    case, and a premise decision only where the reference's margin is clear.  The key
    ``TAN_THETA.x_norm`` holds that witness, where the reference's premise holds.  A value
    whose selection meets ``Near`` is None."""
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
        "SHIFT_II": unless_near(lambda: (persisting(sigma),
                                         premise(math.sqrt(3) / 2 * d - norm_v, d))),
    }
    p = e_a(sigma, Sigma)
    out["MAIN"] = unless_near(lambda: (norm(p, projector(b, in_neighborhood(sigma, d / 2))),
                                       premise(C_PI * d - norm_v, d)))
    sides = [(x, y) for x, y in ((sigma, Sigma), (Sigma, sigma)) if hull_separated(x, y)]
    if sides:
        near, far = sides[0]
        p_near = e_a(near, far)
        out["SHIFT_III"] = unless_near(lambda: (persisting(near),
                                                premise(math.sqrt(2) * d - norm_v, d)))
        out["CASE2"] = unless_near(lambda: (norm(p_near, projector(b, in_neighborhood(near, d))),
                                            premise(math.sqrt(2) * d - norm_v, d)))
        below = [hi for _, hi in far if hi < min(x for x, _ in near)]
        above = [lo for lo, _ in far if lo > max(x for _, x in near)]
        q = unless_near(lambda: projector(b, in_open(max(below, default=-math.inf),
                                                     min(above, default=math.inf))))
        out["TAN_THETA"] = None
        if q is not None:
            measured = norm(p_near, q)
            out["TAN_THETA"] = (measured, premise(1.0 - measured, 1.0))
            if out["TAN_THETA"][1]:
                out["TAN_THETA.x_norm"] = (graph_norm(p_near, q), True)
    else:
        out["SHIFT_III"] = unless_near(lambda: (persisting(sigma), False))
        out["CASE2"] = out["TAN_THETA"] = (math.nan, False)
    sup_sig, inf_Sig = max(hi for _, hi in sigma), min(lo for lo, _ in Sigma)
    inf_sig, sup_Sig = min(lo for lo, _ in sigma), max(hi for _, hi in Sigma)
    if sup_sig < inf_Sig or sup_Sig < inf_sig:
        half = [(-math.inf, sup_sig)] if sup_sig < inf_Sig else [(inf_sig, math.inf)]
        out["SUBORDINATED"] = unless_near(lambda: (norm(p, projector(b, in_closed(half))), True))
    else:
        out["SUBORDINATED"] = (math.nan, False)
    out["MCE"] = unless_near(lambda: (d * float(np.linalg.norm(p @ projector(b, in_closed(Sigma)),
                                                                 2)), True))
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


def compare(problem):
    """``(checked keys, skipped count, disagreements)`` of ``problem`` against its references."""
    checked, skipped, wrong = [], 0, []
    for key, want in references(problem).items():
        if want is None:
            skipped += 1
            continue
        checked.append(key)
        value, met = want
        theorem, _, witness = key.partition(".")
        report = run_theorem(problem, theorem)
        if witness:
            got = report.witnesses.get(witness, math.nan)
            slack = 64 * problem.dim * EPS * max(1.0, value) * (1.0 + value**2)
        else:
            got, slack = report.measured_value, 64 * EPS * max(1.0, abs(value))
        same = (math.isnan(got) and math.isnan(value)) or abs(got - value) <= slack
        if not same or met not in (None, report.premise_satisfied):
            wrong.append((key, got, value, met, report.premise_satisfied))
    return checked, skipped, wrong


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (8, 8)])
@pytest.mark.parametrize("family", sorted(FAMILY_RATIOS))
def test_measured_values_and_premises_match_the_dense_reference(family, dims):
    checked, skipped, wrong = 0, 0, []
    for ratio in FAMILY_RATIOS[family]:
        for seed in range(2):
            for problem in problems(family, dims, ratio, seed):
                keys, near, disagreements = compare(problem)
                checked, skipped = checked + len(keys), skipped + near
                wrong += [(ratio, seed, *x) for x in disagreements]
    assert not wrong
    assert skipped <= checked // 10


@pytest.mark.parametrize("which, required", [("CASE1", {"MAIN"}),
                                             ("CASE2", {"CASE2", "TAN_THETA", "TAN_THETA.x_norm"})])
def test_the_built_ins_match_the_dense_reference(which, required):
    # the sharp built-ins keep eigenvalues of B on boundaries, which skip only the values that
    # select near them; at scale 1, B's attained eigenvalue rounds off the boundary it attains
    for scale in BUILTIN_SCALES:
        checked, _, wrong = compare(builtin_example(which, scale=scale))
        assert not wrong, scale
        assert scale == 1.0 or required <= set(checked), scale


def search_reference(sig, Sig, w, s, c, half):
    """``(||E_A(sigma) - E_B(open neighborhood)||, rank Q == rank P)`` of one search trial:
    A = diag(sig, Sig), and B = A + V with V's coupling block W scaled to ||V|| = s c d."""
    n0, points, others = len(sig), [(x, x) for x in sig], [(y, y) for y in Sig]
    d = min(abs(x - y) for x in sig for y in Sig)
    a = np.diag(np.concatenate([sig, Sig])).astype(complex)
    block = w * (s * c * d / np.linalg.svd(w, compute_uv=False)[0])
    b = a.copy()
    b[:n0, n0:], b[n0:, :n0] = block, block.conj().T
    p = projector(a, lambda x, tol: distance(x, points) < distance(x, others))
    q = projector(b, in_neighborhood(points, d / 2 if half else d))
    return float(np.linalg.norm(p - q, 2)), round(np.trace(q).real) == n0


@pytest.mark.parametrize("half", [True, False], ids=["half_d", "full_d"])
@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_search_objective_matches_the_dense_reference(dims, half):
    rng, rows = np.random.default_rng([*dims, half]), 64
    counts, wrong = {"equal": 0, "unequal": 0, "skipped": 0}, []
    for c in (0.4, 0.75, 1.2, 2.0):
        sig, Sig = rng.uniform(-2.0, 2.0, (rows, dims[0])), rng.uniform(-2.0, 2.0, (rows, dims[1]))
        w = rng.standard_normal((rows, *dims)) + 1j * rng.standard_normal((rows, *dims))
        s = rng.uniform(0.01, 1.0, rows)
        got = harness._score(harness._pack(sig, Sig, w, s), dims, c, half, DEFAULT_TOL).tolist()
        for t in range(rows):
            if min(abs(x - y) for x in sig[t] for y in Sig[t]) < 1e-3:
                assert got[t] == -math.inf  # a degenerate layout: the search's floor
                continue
            try:
                value, equal = search_reference(sig[t], Sig[t], w[t], s[t], c, half)
            except Near:
                counts["skipped"] += 1
                continue
            counts["equal" if equal else "unequal"] += 1
            slack = 64 * EPS * max(1.0, value)
            if abs(got[t] - value) > slack or not (equal or got[t] == 1.0):
                wrong.append((c, t, got[t], value, equal))
    assert not wrong
    assert counts["equal"] >= 8 and counts["unequal"] >= 8
    assert counts["skipped"] <= (counts["equal"] + counts["unequal"]) // 10
