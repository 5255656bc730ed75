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
    _verdict,
    delta_v,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import Case, SpectralSet, locate_points
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


def _b_selection(problem: PerturbationProblem, region: SpectralSet) -> tuple[np.ndarray, list[str]]:
    """Mask of B's eigenvalues in ``region``, tolerance-aware; boundary events are flagged."""
    mask, _, flags = select_eigenvalues(problem.b_eigen.eigenvalues, region, problem.eig_tol())
    return mask, flags


def _block_norm(
    memo: dict, dec_a: EigenDecomposition, dec_b: EigenDecomposition, mask_a: np.ndarray,
    mask_b: np.ndarray,
) -> float:
    """``||U_A[:, mask_a]* U_B[:, mask_b]||`` on the two eigenvector bases, once per ``memo``."""
    key = (mask_a.tobytes(), mask_b.tobytes())
    if key not in memo:
        memo[key] = compressed_norm(dec_a.eigenvectors[:, mask_a], dec_b.eigenvectors[:, mask_b])
    return memo[key]


def _difference(
    problem: PerturbationProblem, mask_p: np.ndarray, mask_q: np.ndarray
) -> ProjectionDifference:
    """``||E_A(mask_p) - E_B(mask_q)||``: the larger of two principal-angle blocks.

    The blocks are (mask_p, ~mask_q), for ``||P Q_perp||``, and (~mask_p,
    mask_q), for ``||P_perp Q||``.  Both are entries of the problem's memo,
    so every check on the problem computes each block once, on the same
    columns whichever check asks first.
    """
    memo, dec_a, dec_b = problem._block_norms, problem.a_eigen, problem.b_eigen
    pq_perp = _block_norm(memo, dec_a, dec_b, mask_p, ~mask_q)
    pperp_q = _block_norm(memo, dec_a, dec_b, ~mask_p, mask_q)
    return ProjectionDifference(max(pq_perp, pperp_q), pq_perp, pperp_q)


def _sigma_side(problem: PerturbationProblem) -> tuple[SpectralSet, SpectralSet, np.ndarray, bool]:
    """(sigma, Sigma, P's mask on A's eigenvalues, swapped).

    The roles swap when only Sigma's hull is separated.  CASE_I is the case
    in which neither hull is separated from the other set.
    """
    if problem.case is Case.CASE_I:
        raise CaseError(
            "hull separation required: neither component's convex hull is "
            f"disjoint from the other ({problem.classification.detail})"
        )
    if not problem.sigma.convex_hull().intersects(problem.Sigma):
        return problem.sigma, problem.Sigma, problem.sigma_mask, False
    return problem.Sigma, problem.sigma, ~problem.sigma_mask, True


def maximal_gap_interval(problem: PerturbationProblem) -> tuple[float, float]:
    """Largest open interval containing the hull of sigma and avoiding Sigma.

    Defined for hull-separated problems (the roles swap automatically when
    Sigma's hull is the separated one).
    """
    sigma, Sigma, *_ = _sigma_side(problem)
    inf, sup = sigma.inf, sigma.sup
    lo = -math.inf
    hi = math.inf
    for s_lo, s_hi in Sigma.intervals:
        if s_hi < inf:
            lo = max(lo, s_hi)
        if s_lo > sup:
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
    delta = delta_v(problem.norm_v, d)
    claimed = (math.pi / 2.0) * problem.norm_v / (d - delta) if delta < d else math.inf

    mask_q, flags = _b_selection(problem, problem.sigma.open_neighborhood(d / 2.0))
    diff = _difference(problem, problem.sigma_mask, mask_q)
    return _verdict(
        "MAIN", problem.scale, problem.tol, measured=diff.norm, claimed=claimed,
        margin=C_PI * d - problem.norm_v,
        premise=f"premise not satisfied: ||V|| = {problem.norm_v:.12g} is not below "
        f"c_pi * d = {C_PI * d:.12g}",
        exact=claimed < 1.0,
        witnesses={
            "norm_v": problem.norm_v,
            "d": d,
            "delta_v": delta,
            "c_pi": C_PI,
            "norm_pq_perp": diff.norm_pq_perp,
            "norm_pperp_q": diff.norm_pperp_q,
            "rank_p": float(np.count_nonzero(problem.sigma_mask)),
            "rank_q": float(np.count_nonzero(mask_q)),
        },
        flags=flags,
    )


def bound_case2(problem: PerturbationProblem) -> AnalysisReport:
    """sin-arctan bound for the open d-neighborhood under hull separation.

    Under K(sigma) disjoint from Sigma and ||V|| < sqrt(2) d,
    ||E_A(sigma) - E_B(O_d(sigma))|| <= sin(arctan(||V|| / (d - delta_V))) < 1.
    Witnesses include the corner-projection differences of the flanking
    spectral half-lines, each strictly below sqrt(2)/2, and the aggregation
    ||P_perp Q|| <= sqrt(sum of squared corner norms).
    """
    sigma, Sigma, mask_p, swapped = _sigma_side(problem)
    d = problem.d
    delta = delta_v(problem.norm_v, d)
    claimed = math.sin(math.atan(problem.norm_v / (d - delta))) if delta < d else math.inf

    mask_q, flags = _b_selection(problem, sigma.open_neighborhood(d))
    if swapped:
        flags.append("roles swapped: the separated hull is Sigma's")
    diff = _difference(problem, mask_p, mask_q)

    # corner projections for the spectrum beyond the flanks of sigma
    left = SpectralSet([(-math.inf, sigma.inf - d)])
    right = SpectralSet([(sigma.sup + d, math.inf)])
    eig_tol_a = problem.eig_tol(problem.a_eigen)
    corners = {}
    pperp_bound = 0.0
    for name, region in (("left", left), ("right", right)):
        mask_a, _, fa = select_eigenvalues(problem.a_eigen.eigenvalues, region, eig_tol_a)
        mask_b, fb = _b_selection(problem, region)
        corner = _difference(problem, mask_a, mask_b).norm
        corners[f"corner_{name}"] = corner
        pperp_bound += corner**2
        flags.extend(fa)
        flags.extend(fb)
    pperp_bound = math.sqrt(pperp_bound)
    return _verdict(
        "CASE2", problem.scale, problem.tol, measured=diff.norm, claimed=claimed,
        margin=SQRT2 * d - problem.norm_v,
        premise=f"premise not satisfied: ||V|| = {problem.norm_v:.12g} is not below "
        f"sqrt(2) * d = {SQRT2 * d:.12g}",
        exact=claimed < 1.0,
        bounds=[(c, SQRT2 / 2.0) for c in corners.values()]
        + [(diff.norm_pperp_q, pperp_bound)],
        witnesses={
            "norm_v": problem.norm_v,
            "d": d,
            "delta_v": delta,
            "norm_pq_perp": diff.norm_pq_perp,
            "norm_pperp_q": diff.norm_pperp_q,
            "corner_aggregate": pperp_bound,
            **corners,
        },
        flags=flags,
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

    mask_q, flags = _b_selection(problem, half_line)
    diff = _difference(problem, problem.sigma_mask, mask_q)
    claimed = math.sin(0.5 * math.atan(2.0 * problem.norm_v / problem.d))

    mask_gap, gap_flags = _b_selection(problem, SpectralSet([gap], is_open=True))
    intruders = int(mask_gap.sum())
    return _verdict(
        "SUBORDINATED", problem.scale, problem.tol, measured=diff.norm, claimed=claimed,
        exact=intruders == 0 and claimed < SQRT2 / 2.0,
        witnesses={
            "norm_v": problem.norm_v,
            "d": problem.d,
            "gap_lo": gap[0],
            "gap_hi": gap[1],
            "eigenvalues_in_gap": float(intruders),
            "rank_q": float(np.count_nonzero(mask_q)),
        },
        flags=flags + gap_flags,
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
    sigma, Sigma, mask_p, swapped = _sigma_side(problem)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    for s_lo, s_hi in Sigma.intervals:
        if s_lo < hi and s_hi > lo:
            raise ValueError(
                f"interval ({lo}, {hi}) intersects the other component at [{s_lo}, {s_hi}]"
            )

    mask, flags = _b_selection(problem, SpectralSet([(lo, hi)], is_open=True))
    if swapped:
        flags.append("roles swapped: the separated hull is Sigma's")
    diff = _difference(problem, mask_p, mask)

    witnesses = {
        "norm_v": problem.norm_v,
        "d": problem.d,
        "rank_p": float(np.count_nonzero(mask_p)),
        "rank_q": float(np.count_nonzero(mask)),
    }

    def report(claimed: float, bounds=()) -> AnalysisReport:
        # an empty selection gives ||P - Q|| = ||P|| = 1, so the margin premise covers it
        return _verdict(
            "TAN_THETA", problem.scale, problem.tol, measured=diff.norm, claimed=claimed,
            margin=1.0 - diff.norm, margin_dimensional=False, bounds=bounds,
            premise="a-priori premise not satisfied: ||E_A(sigma) - E_B(interval)|| is not below 1",
            witnesses=witnesses, flags=flags,
        )

    # the graph operator, and so the claims, exist only under the a-priori premise
    apriori = report(math.inf)
    if not apriori.premise_satisfied:
        return apriori

    sigma_tilde = SpectralSet.from_points(problem.b_eigen.eigenvalues[mask])
    dist_ts = sigma_tilde.distance(Sigma)
    claimed = math.sin(math.atan(problem.norm_v / dist_ts)) if dist_ts > 0 else 1.0
    p = projection_from_eigenvectors(problem.a_eigen, mask_p)
    q = projection_from_eigenvectors(problem.b_eigen, mask)
    graph = graph_operator(p, q, problem.tol, diff=diff.norm)
    tan_claim = problem.norm_v / dist_ts if dist_ts > 0 else math.inf
    x_norm = graph.norm
    witnesses.update(dist_sigma_tilde=dist_ts, x_norm=x_norm, tan_theta_bound=tan_claim)
    return report(claimed, bounds=[(x_norm, tan_claim)])


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
    dec_a = hermitian_eigendecompose(a, tol)
    dec_b = hermitian_eigendecompose(b, tol)
    return _pair_inequality(a, b, dec_a, dec_b, sigma, delta_set, tol, {})


def bound_pair_inequality(problem: PerturbationProblem) -> AnalysisReport:
    """``verify_pair_inequality`` for (A, A + V, sigma, Sigma) on the problem's decompositions.

    ``||E_A E_B||`` is a block of the problem's memo.  ``||A - B||`` is the
    SVD of the computed A - B, not the problem's ``||V||``: the two differ
    in the last bits on some problems.  Delta = Sigma is a finite set of A's
    eigenvalues, which B's eigenvalues miss on a generically perturbed
    problem; E_B(Sigma) is then empty (``rank_eb`` is 0) and the check
    holds vacuously.
    """
    return _pair_inequality(
        problem.a,
        problem.b,
        problem.a_eigen,
        problem.b_eigen,
        problem.sigma,
        problem.Sigma,
        problem.tol,
        problem._block_norms,
    )


def _pair_inequality(
    a: np.ndarray,
    b: np.ndarray,
    dec_a: EigenDecomposition,
    dec_b: EigenDecomposition,
    sigma: SpectralSet,
    delta_set: SpectralSet,
    tol: Tolerances,
    memo: dict,
) -> AnalysisReport:
    """MCE's verdict; ``||E_A E_B||`` is a block of the two bases, read from or put in ``memo``."""
    dist = sigma.distance(delta_set)
    if dist <= 0:
        raise ValueError("sigma and Delta must be at positive distance")

    tol_a = tol.eig(dec_a.eigenvalues)
    tol_b = tol.eig(dec_b.eigenvalues)
    # the selections' boundary events reach no report, so they are not formatted as flags
    mask_a = locate_points(dec_a.eigenvalues, *sigma.bounds, sigma.is_open, tol_a)[0]
    mask_b = locate_points(dec_b.eigenvalues, *delta_set.bounds, delta_set.is_open, tol_b)[0]

    # ||E_A E_B|| = ||U_A* U_B|| on the selected eigenvector columns
    lhs = dist * _block_norm(memo, dec_a, dec_b, mask_a, mask_b)
    diff_norm = spectral_norm(a - b)
    hull_separated = (
        not sigma.convex_hull().intersects(delta_set)
        or not delta_set.convex_hull().intersects(sigma)
    )
    claimed = diff_norm if hull_separated else (math.pi / 2.0) * diff_norm
    scale = max(float(np.abs(dec_a.eigenvalues).max()), diff_norm, dist)
    return _verdict(
        "MCE", scale, tol, measured=lhs, claimed=claimed, dimensional=True, margin=dist,
        witnesses={
            "dist": dist,
            "norm_a_minus_b": diff_norm,
            "pi_half_bound": (math.pi / 2.0) * diff_norm,
            "hull_separated": float(hull_separated),
            "rank_ea": float(np.count_nonzero(mask_a)),
            "rank_eb": float(np.count_nonzero(mask_b)),
        },
        flags=["convex hulls separated: constant-1 bound applies"] if hull_separated else [],
    )
