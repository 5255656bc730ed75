"""Spectral-subspace variation: projection differences, operator angles, bounds.

For orthogonal projections P, Q the difference norm satisfies
``||P - Q|| = max{||P Q_perp||, ||P_perp Q||}``, and when ``||P - Q|| < 1``
the range of Q is the graph of an operator X: Ran P -> Ran P-perp with
``||P - Q|| = ||X|| / sqrt(1 + ||X||^2)`` (so ||X|| = ||tan Theta|| for the
operator angle Theta).  The theorem checks in this module combine those
identities with the spectral-shift results to bound
``||E_A(sigma) - E_B(neighborhood of sigma)||``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .analysis import (
    AnalysisReport,
    CaseError,
    PerturbationProblem,
    SQRT2,
    delta_v,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import Case, SpectralSet
from .operators import (
    EigenDecomposition,
    OrthogonalProjection,
    compressed_norm,
    hermitian_eigendecompose,
    projection_from_eigenvectors,
    select_eigenvalues,
    spectral_norm,
    validate_hermitian,
)

#: Critical norm ratio for the pi/2-bound: the unique positive root of
#: (pi/2) x + x tan(arctan(2x)/2) - 1.
C_PI = (3.0 * math.pi - math.sqrt(math.pi**2 + 32.0)) / (math.pi**2 - 4.0)


class GraphRepresentationError(ValueError):
    """Ran Q is not a graph over Ran P (requires ||P - Q|| < 1)."""


class ProjectionDifference(NamedTuple):
    norm: float
    norm_pq_perp: float
    norm_pperp_q: float


def projection_difference_norm(
    p: OrthogonalProjection, q: OrthogonalProjection
) -> ProjectionDifference:
    """||P - Q|| together with the two cross-product norms whose max it equals.

    The cross products are principal-angle blocks of the bases:
    ||P Q_perp|| = ||U_P* U_Q_perp|| and ||P_perp Q|| = ||U_P_perp* U_Q||, of
    sizes rank P x (n - rank Q) and (n - rank P) x rank Q.
    """
    if p.dim != q.dim:
        raise ValueError(f"projections live in different dimensions: {p.dim} vs {q.dim}")
    pq_perp = compressed_norm(p.range_basis, q.complement_basis)
    pperp_q = compressed_norm(p.complement_basis, q.range_basis)
    return ProjectionDifference(
        norm=max(pq_perp, pperp_q), norm_pq_perp=pq_perp, norm_pperp_q=pperp_q
    )


class GraphOperator(NamedTuple):
    """Matrix of X: Ran P -> Ran P-perp with Ran Q = {u + X u}, plus the bases used."""

    x: np.ndarray
    basis_range: np.ndarray       # orthonormal columns spanning Ran P
    basis_complement: np.ndarray  # orthonormal columns spanning Ran P-perp

    @property
    def norm(self) -> float:
        return spectral_norm(self.x)

    def rebuild_projection(self) -> OrthogonalProjection:
        """Projection onto the graph subspace {u + X u}."""
        graph_cols = self.basis_range + self.basis_complement @ self.x
        z, _ = np.linalg.qr(graph_cols, mode="complete")
        rank = graph_cols.shape[1]
        return OrthogonalProjection(z[:, :rank], z[:, rank:])


def graph_operator(
    p: OrthogonalProjection,
    q: OrthogonalProjection,
    tol: Tolerances = DEFAULT_TOL,
    *,
    diff: float | None = None,
) -> GraphOperator:
    """Represent Ran Q as a graph over Ran P.

    Writes an orthonormal column basis of Ran Q in the block coordinates of
    P; with top block U (onto Ran P) and bottom block W the graph operator
    is X = W U^{-1}.  U is invertible exactly when ||P - Q|| < 1.  A caller
    that has already computed ``||P - Q||`` passes it as ``diff``, and the
    premise check uses it instead of computing it again.
    """
    if p.dim != q.dim:
        raise ValueError(f"projections live in different dimensions: {p.dim} vs {q.dim}")
    if p.rank != q.rank:
        raise ValueError(f"rank mismatch: rank P = {p.rank}, rank Q = {q.rank}")
    if diff is None:
        diff = projection_difference_norm(p, q).norm
    if diff >= 1.0 - tol.proj(p.dim):
        raise GraphRepresentationError(
            f"||P - Q|| = {diff:.12g} is not below 1; Ran Q is not a graph over Ran P"
        )
    basis_p = p.range_basis
    basis_perp = p.complement_basis
    basis_q = q.range_basis
    u = basis_p.conj().T @ basis_q
    w = basis_perp.conj().T @ basis_q
    x = np.linalg.solve(u.T, w.T).T
    return GraphOperator(x=x, basis_range=basis_p, basis_complement=basis_perp)


# ---------------------------------------------------------------------------
# helpers shared by the theorem checks
# ---------------------------------------------------------------------------


def _b_projection(
    problem: PerturbationProblem, region: SpectralSet
) -> tuple[OrthogonalProjection, list[str]]:
    """E_B(region) with tolerance-aware selection; boundary events are flagged."""
    tol = problem.eig_tol()
    mask, _, flags = select_eigenvalues(problem.b_eigen.eigenvalues, region, tol)
    return projection_from_eigenvectors(problem.b_eigen, mask), flags


def _sigma_side(problem: PerturbationProblem) -> tuple[SpectralSet, SpectralSet, OrthogonalProjection, bool]:
    """(sigma, Sigma, P) with roles swapped if only Sigma's hull is separated."""
    if not problem.sigma.convex_hull().intersects(problem.Sigma):
        return problem.sigma, problem.Sigma, problem.projection, False
    if not problem.Sigma.convex_hull().intersects(problem.sigma):
        return problem.Sigma, problem.sigma, problem.projection.complement(), True
    raise CaseError(
        "hull separation required: neither component's convex hull is "
        f"disjoint from the other ({problem.classification.detail})"
    )


def maximal_gap_interval(problem: PerturbationProblem) -> tuple[float, float]:
    """Largest open interval containing the hull of sigma and avoiding Sigma.

    Defined for hull-separated problems (the roles swap automatically when
    Sigma's hull is the separated one).
    """
    sigma, Sigma, _, _ = _sigma_side(problem)
    lo = -math.inf
    hi = math.inf
    for s_lo, s_hi in Sigma.intervals:
        if s_hi < sigma.inf:
            lo = max(lo, s_hi)
        if s_lo > sigma.sup:
            hi = min(hi, s_lo)
    return lo, hi


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------


def bound_case1(problem: PerturbationProblem) -> AnalysisReport:
    """pi/2-bound on the projection difference for the open d/2-neighborhood.

    Under ||V|| < c_pi d the difference ||E_A(sigma) - E_B(O_{d/2}(sigma))||
    is at most (pi/2) ||V|| / (d - delta_V), which is then below 1.
    """
    d = problem.d
    margin = C_PI * d - problem.norm_v
    premise = margin > problem.tol.report
    delta = delta_v(problem.norm_v, d)
    claimed = (math.pi / 2.0) * problem.norm_v / (d - delta) if delta < d else math.inf

    q, flags = _b_projection(problem, problem.sigma.open_neighborhood(d / 2.0))
    diff = projection_difference_norm(problem.projection, q)
    flags = list(flags)
    if not premise:
        flags.append(
            f"premise not satisfied: ||V|| = {problem.norm_v:.12g} is not below "
            f"c_pi * d = {C_PI * d:.12g}"
        )
    holds = True
    if premise:
        holds = diff.norm <= claimed + problem.tol.report and claimed < 1.0
    return AnalysisReport(
        theorem="MAIN",
        premise_satisfied=premise,
        premise_margin=margin,
        claimed_bound=claimed,
        measured_value=diff.norm,
        holds=holds,
        witnesses={
            "norm_v": problem.norm_v,
            "d": d,
            "delta_v": delta,
            "c_pi": C_PI,
            "norm_pq_perp": diff.norm_pq_perp,
            "norm_pperp_q": diff.norm_pperp_q,
            "rank_p": float(problem.projection.rank),
            "rank_q": float(q.rank),
        },
        flags=tuple(flags),
    )


def bound_case2(problem: PerturbationProblem) -> AnalysisReport:
    """sin-arctan bound for the open d-neighborhood under hull separation.

    Under K(sigma) disjoint from Sigma and ||V|| < sqrt(2) d,
    ||E_A(sigma) - E_B(O_d(sigma))|| <= sin(arctan(||V|| / (d - delta_V))) < 1.
    Witnesses include the corner-projection differences of the flanking
    spectral half-lines, each strictly below sqrt(2)/2, and the aggregation
    ||P_perp Q|| <= sqrt(sum of squared corner norms).
    """
    if problem.case not in (Case.CASE_II, Case.SUBORDINATED):
        raise CaseError(f"hull separation required, problem is {problem.case.value}")
    sigma, Sigma, p, swapped = _sigma_side(problem)
    d = problem.d
    margin = SQRT2 * d - problem.norm_v
    premise = margin > problem.tol.report
    delta = delta_v(problem.norm_v, d)
    claimed = math.sin(math.atan(problem.norm_v / (d - delta))) if delta < d else math.inf

    q, flags = _b_projection(problem, sigma.open_neighborhood(d))
    flags = list(flags)
    if swapped:
        flags.append("roles swapped: the separated hull is Sigma's")
    diff = projection_difference_norm(p, q)

    # corner projections for the spectrum beyond the flanks of sigma
    left = SpectralSet([(-math.inf, sigma.inf - d)])
    right = SpectralSet([(sigma.sup + d, math.inf)])
    eig_tol_a = problem.eig_tol(problem.a_eigen)
    corners = {}
    corner_ok = True
    pperp_bound = 0.0
    for name, region in (("left", left), ("right", right)):
        mask_a, _, fa = select_eigenvalues(problem.a_eigen.eigenvalues, region, eig_tol_a)
        mask_b, _, fb = select_eigenvalues(problem.b_eigen.eigenvalues, region, problem.eig_tol())
        pk = projection_from_eigenvectors(problem.a_eigen, mask_a)
        qk = projection_from_eigenvectors(problem.b_eigen, mask_b)
        corner = projection_difference_norm(pk, qk).norm
        corners[f"corner_{name}"] = corner
        pperp_bound += corner**2
        if premise and corner >= SQRT2 / 2.0 - problem.tol.report:
            corner_ok = False
        flags.extend(fa)
        flags.extend(fb)
    pperp_bound = math.sqrt(pperp_bound)
    aggregation_ok = diff.norm_pperp_q <= pperp_bound + problem.tol.report

    if not premise:
        flags.append(
            f"premise not satisfied: ||V|| = {problem.norm_v:.12g} is not below "
            f"sqrt(2) * d = {SQRT2 * d:.12g}"
        )
    holds = True
    if premise:
        holds = (
            diff.norm <= claimed + problem.tol.report
            and claimed < 1.0
            and corner_ok
            and aggregation_ok
        )
    return AnalysisReport(
        theorem="CASE2",
        premise_satisfied=premise,
        premise_margin=margin,
        claimed_bound=claimed,
        measured_value=diff.norm,
        holds=holds,
        witnesses={
            "norm_v": problem.norm_v,
            "d": d,
            "delta_v": delta,
            "norm_pq_perp": diff.norm_pq_perp,
            "norm_pperp_q": diff.norm_pperp_q,
            "corner_aggregate": pperp_bound,
            **corners,
        },
        flags=tuple(flags),
    )


def bound_subordinated(problem: PerturbationProblem) -> AnalysisReport:
    """Subordinated components: the gap survives and the half-line projections stay close.

    No norm condition is needed.  spec(B) avoids the open gap between the
    components, and ||E_A(sigma) - E_B(half line up to sigma)|| is at most
    sin(arctan(2||V||/d)/2), always strictly below sqrt(2)/2.
    """
    if problem.case is not Case.SUBORDINATED:
        raise CaseError(f"subordinated components required, problem is {problem.case.value}")
    sigma, Sigma = problem.sigma, problem.Sigma
    if sigma.sup < Sigma.inf:
        half_line = SpectralSet([(-math.inf, sigma.sup)])
        gap = (sigma.sup, Sigma.inf)
    else:
        half_line = SpectralSet([(sigma.inf, math.inf)])
        gap = (Sigma.sup, sigma.inf)

    q, flags = _b_projection(problem, half_line)
    flags = list(flags)
    diff = projection_difference_norm(problem.projection, q)
    claimed = math.sin(0.5 * math.atan(2.0 * problem.norm_v / problem.d))

    gap_set = SpectralSet([gap], is_open=True)
    mask_gap, _, gap_flags = select_eigenvalues(
        problem.b_eigen.eigenvalues, gap_set, problem.eig_tol()
    )
    flags.extend(gap_flags)
    intruders = int(mask_gap.sum())
    holds = (
        intruders == 0
        and diff.norm <= claimed + problem.tol.report
        and claimed < SQRT2 / 2.0
    )
    return AnalysisReport(
        theorem="SUBORDINATED",
        premise_satisfied=True,
        premise_margin=math.inf,
        claimed_bound=claimed,
        measured_value=diff.norm,
        holds=holds,
        witnesses={
            "norm_v": problem.norm_v,
            "d": problem.d,
            "gap_lo": gap[0],
            "gap_hi": gap[1],
            "eigenvalues_in_gap": float(intruders),
            "rank_q": float(q.rank),
        },
        flags=tuple(flags),
    )


def tan_theta_bound(
    problem: PerturbationProblem, interval: tuple[float, float]
) -> AnalysisReport:
    """A-posteriori tan-Theta bound on an open interval avoiding Sigma.

    With sigma-tilde = spec(B) inside the interval, and provided
    ||E_A(sigma) - E_B(interval)|| < 1 (the a-priori premise), the
    difference is at most sin(arctan(||V|| / dist(sigma-tilde, Sigma))),
    equivalently ||X|| <= ||V|| / dist(sigma-tilde, Sigma) for the graph
    operator X of the pair.
    """
    if problem.case not in (Case.CASE_II, Case.SUBORDINATED):
        raise CaseError(f"hull separation required, problem is {problem.case.value}")
    sigma, Sigma, p, swapped = _sigma_side(problem)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    for s_lo, s_hi in Sigma.intervals:
        if s_lo < hi and s_hi > lo:
            raise ValueError(
                f"interval ({lo}, {hi}) intersects the other component at [{s_lo}, {s_hi}]"
            )

    region = SpectralSet([(lo, hi)], is_open=True)
    tol = problem.eig_tol()
    mask, _, flags = select_eigenvalues(problem.b_eigen.eigenvalues, region, tol)
    flags = list(flags)
    if swapped:
        flags.append("roles swapped: the separated hull is Sigma's")
    q = projection_from_eigenvectors(problem.b_eigen, mask)
    diff = projection_difference_norm(p, q)

    witnesses = {
        "norm_v": problem.norm_v,
        "d": problem.d,
        "rank_p": float(p.rank),
        "rank_q": float(q.rank),
    }
    premise = bool(mask.any()) and diff.norm < 1.0 - problem.tol.report
    if not premise:
        flags.append(
            "a-priori premise not satisfied: ||E_A(sigma) - E_B(interval)|| is not below 1"
        )
        return AnalysisReport(
            theorem="TAN_THETA",
            premise_satisfied=False,
            premise_margin=1.0 - diff.norm,
            claimed_bound=math.inf,
            measured_value=diff.norm,
            holds=True,
            witnesses=witnesses,
            flags=tuple(flags),
        )

    sigma_tilde = SpectralSet.from_points(problem.b_eigen.eigenvalues[mask])
    dist_ts = sigma_tilde.distance(Sigma)
    claimed = math.sin(math.atan(problem.norm_v / dist_ts)) if dist_ts > 0 else 1.0
    graph = graph_operator(p, q, problem.tol, diff=diff.norm)
    tan_claim = problem.norm_v / dist_ts if dist_ts > 0 else math.inf
    x_norm = graph.norm
    holds = (
        diff.norm <= claimed + problem.tol.report
        and x_norm <= tan_claim + problem.tol.report * (1.0 + tan_claim)
    )
    witnesses.update(
        {
            "dist_sigma_tilde": dist_ts,
            "x_norm": x_norm,
            "tan_theta_bound": tan_claim,
        }
    )
    return AnalysisReport(
        theorem="TAN_THETA",
        premise_satisfied=True,
        premise_margin=1.0 - diff.norm,
        claimed_bound=claimed,
        measured_value=diff.norm,
        holds=holds,
        witnesses=witnesses,
        flags=tuple(flags),
    )


def verify_pair_inequality(
    a, b, sigma: SpectralSet, delta_set: SpectralSet, tol: Tolerances = DEFAULT_TOL
) -> AnalysisReport:
    """dist(sigma, Delta) ||E_A(sigma) E_B(Delta)|| <= (pi/2) ||A - B||.

    Holds for arbitrary Hermitian pairs (no off-diagonality needed).  When
    the convex hull of either set is disjoint from the other, the constant
    improves to 1; both regimes are checked.
    """
    a = validate_hermitian(a, tol)
    b = validate_hermitian(b, tol)
    if a.shape != b.shape:
        raise ValueError(f"A and B have different shapes: {a.shape} vs {b.shape}")
    return _pair_inequality(
        a,
        b,
        hermitian_eigendecompose(a, tol),
        hermitian_eigendecompose(b, tol),
        sigma,
        delta_set,
        tol,
    )


def bound_pair_inequality(problem: PerturbationProblem) -> AnalysisReport:
    """``verify_pair_inequality`` for (A, A + V, sigma, Sigma) on the problem's decompositions."""
    return _pair_inequality(
        problem.a,
        problem.b,
        problem.a_eigen,
        problem.b_eigen,
        problem.sigma,
        problem.Sigma,
        problem.tol,
    )


def _pair_inequality(
    a: np.ndarray,
    b: np.ndarray,
    dec_a: EigenDecomposition,
    dec_b: EigenDecomposition,
    sigma: SpectralSet,
    delta_set: SpectralSet,
    tol: Tolerances,
) -> AnalysisReport:
    dist = sigma.distance(delta_set)
    if dist <= 0:
        raise ValueError("sigma and Delta must be at positive distance")

    tol_a = tol.eig(dec_a.eigenvalues)
    tol_b = tol.eig(dec_b.eigenvalues)
    mask_a, _, _ = select_eigenvalues(dec_a.eigenvalues, sigma, tol_a)
    mask_b, _, _ = select_eigenvalues(dec_b.eigenvalues, delta_set, tol_b)
    ea = projection_from_eigenvectors(dec_a, mask_a)
    eb = projection_from_eigenvectors(dec_b, mask_b)

    # ||E_A E_B|| = ||U_A* U_B|| on the selected eigenvector columns
    lhs = dist * compressed_norm(ea.range_basis, eb.range_basis)
    diff_norm = spectral_norm(a - b)
    hull_separated = (
        not sigma.convex_hull().intersects(delta_set)
        or not delta_set.convex_hull().intersects(sigma)
    )
    claimed = diff_norm if hull_separated else (math.pi / 2.0) * diff_norm
    slack = tol.report * (1.0 + diff_norm)
    holds = lhs <= claimed + slack
    return AnalysisReport(
        theorem="MCE",
        premise_satisfied=True,
        premise_margin=dist,
        claimed_bound=claimed,
        measured_value=lhs,
        holds=holds,
        witnesses={
            "dist": dist,
            "norm_a_minus_b": diff_norm,
            "pi_half_bound": (math.pi / 2.0) * diff_norm,
            "hull_separated": float(hull_separated),
            "rank_ea": float(ea.rank),
            "rank_eb": float(eb.rank),
        },
        flags=("convex hulls separated: constant-1 bound applies",) if hull_separated else (),
    )
