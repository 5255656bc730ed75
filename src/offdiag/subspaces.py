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
    _memo,
    _near,
    _Stack,
    _verdict,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import (_CLASSES, _HULL_SEPARATED, Case, SpectralSet, _classify, locate_points,
                        points_distance)
from .operators import (
    EigenDecomposition,
    OrthogonalProjection,
    _blocks,
    _eigh,
    _mask_groups,
    _select,
    compressed_norm,
    projection_from_eigenvectors,
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
    return ProjectionDifference(max(pq_perp, pperp_q), pq_perp, pperp_q)


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
    is X = W U^{-1}.  U is invertible exactly when ||P - Q|| < 1, and X is
    formed when ``1 - ||P - Q|| > tol.report``, TAN_THETA's premise by the
    verdict rule (``analysis._verdict``); otherwise this raises
    ``GraphRepresentationError``.  A caller that has already computed
    ``||P - Q||`` passes it as ``diff``, and it is not computed again.
    """
    if p.dim != q.dim:
        raise ValueError(f"projections live in different dimensions: {p.dim} vs {q.dim}")
    if p.rank != q.rank:
        raise ValueError(f"rank mismatch: rank P = {p.rank}, rank Q = {q.rank}")
    if diff is None:
        diff = projection_difference_norm(p, q).norm
    if not 1.0 - diff > tol.report:
        raise GraphRepresentationError(f"||P - Q|| = {diff:.12g} is not below 1 by more than "
                                       f"{tol.report:g}; Ran Q is not a graph over Ran P")
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


def _block_norms(memos: list, a: EigenDecomposition, b: EigenDecomposition,
                 mask_a: np.ndarray, mask_b: np.ndarray) -> list[float]:
    """``||U_A[:, mask_a]* U_B[:, mask_b]||`` per mask row v, of bases v mod T, once per memo.

    With ``a.order`` (A diagonal) a block is ``U_B[order[mask_a]][:, mask_b]``, not a product.
    """
    keys = [(x.tobytes(), y.tobytes()) for x, y in zip(mask_a, mask_b)]
    todo = np.array(list({(id(memo), key): i for i, (memo, key) in enumerate(zip(memos, keys))
                          if key not in memo}.values()), int)
    for rows, left, right in _mask_groups(mask_a, mask_b, todo) if todo.size else ():
        norms = spectral_norm(_blocks(a, rows, left, right, other=b))
        for i, norm in zip(rows.tolist(), norms.tolist()):
            memos[i][keys[i]] = norm
    return [memo[key] for memo, key in zip(memos, keys)]


def _difference(stack: _Stack, mask_p, mask_q, rows=slice(None)) -> list[ProjectionDifference]:
    """``||E_A(mask_p) - E_B(mask_q)||`` per mask row: the larger of two principal-angle blocks.

    Mask row v belongs to row v mod R of the R stack rows in the slice ``rows``
    (default all).  The blocks are (mask_p, ~mask_q), for ``||P Q_perp||``, and
    (~mask_p, mask_q), for ``||P_perp Q||``; where the masks have equal rank both
    norms are the sine of the largest principal angle, and the first block stands
    for both.  Blocks are entries of their row's memo, so every check on a row
    computes each block once, whichever asks first; blocks of one shape share an SVD.
    """
    count, memos = len(mask_p), stack.block_norms[rows]
    a, b = stack.a_eigen[rows], stack.b_eigen[rows]
    equal = (mask_p.sum(axis=-1) == mask_q.sum(axis=-1))[:, None]
    left, right = (np.concatenate([m, np.where(equal, m, ~m)]) for m in (mask_p, ~mask_q))
    norms = _block_norms(memos * (2 * count // len(memos)), a, b, left, right)
    return [ProjectionDifference(max(x, y), x, y) for x, y in zip(norms[:count], norms[count:])]


class _Sides(NamedTuple):
    """A stack's rows with sigma renamed to the set whose convex hull is separated."""

    near: tuple  # stacked (lo, hi) of that set ...
    far: tuple  # ... and of the other set
    mask: np.ndarray  # P's mask on A's eigenvalues
    flags: list  # per row: the flag of a swap, if the roles swap
    gap: tuple  # (lo, hi) of the largest open interval about near's hull that avoids far


def _sides(problem: PerturbationProblem) -> _Sides:
    """The ``_Sides`` of ``problem``'s stack, once per stack, for a hull-separated problem.

    The roles swap when only Sigma's hull is separated.  The stack's other
    rows are computed too, but only a hull-separated row reaches a report.
    """
    if problem.case not in _HULL_SEPARATED:
        raise CaseError(
            "hull separation required: neither component's convex hull is "
            f"disjoint from the other ({problem.classification.detail})"
        )
    stack = problem._stack
    if "sides" not in stack.memo:
        # the roles swap on the rows of intervals._CLASSES[3]: only Sigma's hull is separated
        pick = (stack.kind == 3)[:, None]
        width = max(x.shape[-1] for x, _ in (stack.sigma_ends, stack.Sigma_ends))
        # both sets at one width, the narrower repeating its last interval, so that rows can swap
        (sig_lo, sig_hi), (Sig_lo, Sig_hi) = (
            ends if ends[0].shape[-1] == width
            else [np.pad(x, ((0, 0), (0, width - x.shape[-1])), mode="edge") for x in ends]
            for ends in (stack.sigma_ends, stack.Sigma_ends)
        )
        near = np.where(pick, Sig_lo, sig_lo), np.where(pick, Sig_hi, sig_hi)
        far = np.where(pick, sig_lo, Sig_lo), np.where(pick, sig_hi, Sig_hi)
        flags = [["roles swapped: the separated hull is Sigma's"] if x else [] for x in pick[:, 0]]
        gap = (np.where(far[1] < near[0][:, :1], far[1], -np.inf).max(axis=-1),
               np.where(far[0] > near[1][:, -1:], far[0], np.inf).min(axis=-1))
        stack.memo["sides"] = _Sides(near, far, stack.sigma_mask ^ pick, flags, gap)
    return stack.memo["sides"]


def maximal_gap_interval(problem: PerturbationProblem) -> tuple[float, float]:
    """Largest open interval containing the hull of sigma and avoiding Sigma.

    Defined for hull-separated problems (the roles swap automatically when
    Sigma's hull is the separated one).
    """
    lo, hi = _sides(problem).gap
    return float(lo[problem._row]), float(hi[problem._row])


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------


def bound_case1(problem: PerturbationProblem) -> AnalysisReport:
    """pi/2-bound on the projection difference for the open d/2-neighborhood.

    Under ||V|| < c_pi d the difference ||E_A(sigma) - E_B(O_{d/2}(sigma))||
    is at most (pi/2) ||V|| / (d - delta_V), which is then below 1.
    """
    return _memo(problem, "MAIN", _case1)


def _case1(stack: _Stack) -> list[AnalysisReport]:
    mask_q, _, flags = _near(
        stack.sigma_ends, stack.d / 2.0, True, stack.b_eigen.eigenvalues, stack.eig_tol
    )
    reports = []
    for (d, norm_v, delta, scale), diff, mask_p, rank_q, row_flags in zip(
        stack.numbers(), _difference(stack, stack.sigma_mask, mask_q), stack.sigma_mask,
        mask_q.sum(axis=-1).tolist(), flags,
    ):
        claimed = (math.pi / 2.0) * norm_v / (d - delta) if delta < d else math.inf
        reports.append(_verdict(
            "MAIN", scale, stack.tol, measured=diff.norm, claimed=claimed,
            margin=C_PI * d - norm_v,
            premise=f"premise not satisfied: ||V|| = {norm_v:.12g} is not below "
            f"c_pi * d = {C_PI * d:.12g}",
            exact=claimed < 1.0,
            witnesses={
                "norm_v": norm_v,
                "d": d,
                "delta_v": delta,
                "c_pi": C_PI,
                "norm_pq_perp": diff.norm_pq_perp,
                "norm_pperp_q": diff.norm_pperp_q,
                "rank_p": float(np.count_nonzero(mask_p)),
                "rank_q": float(rank_q),
            },
            flags=row_flags,
        ))
    return reports


def bound_case2(problem: PerturbationProblem) -> AnalysisReport:
    """sin-arctan bound for the open d-neighborhood under hull separation.

    Under K(sigma) disjoint from Sigma and ||V|| < sqrt(2) d,
    ||E_A(sigma) - E_B(O_d(sigma))|| <= sin(arctan(||V|| / (d - delta_V))) < 1.
    Witnesses include the corner-projection differences of the flanking
    spectral half-lines, each strictly below sqrt(2)/2, and the aggregation
    ||P_perp Q|| <= sqrt(sum of squared corner norms).
    """
    sides = _sides(problem)
    return _memo(problem, "CASE2", lambda stack: _case2(stack, sides))


def _case2(stack: _Stack, sides: _Sides) -> list[AnalysisReport]:
    # sigma is the separated side: Sigma when the roles swap
    radius, (lo, hi) = stack.d, sides.near
    wa, wb = stack.a_eigen.eigenvalues, stack.b_eigen.eigenvalues
    mask_q, _, flags = _near(sides.near, radius, True, wb, stack.eig_tol)
    flags = [near_flags + swap for near_flags, swap in zip(flags, sides.flags)]
    masks_p, masks_q = [sides.mask], [mask_q]

    # corner projections for the spectrum beyond the flanks of sigma
    inf = np.full_like(radius, math.inf)
    for c_lo, c_hi in ((-inf, lo[:, 0] - radius), (hi[:, -1] + radius, inf)):
        corner = c_lo[:, None], c_hi[:, None]
        mask_a, _, flags_a = _select(wa, *corner, False, stack.tol.eig(wa))
        mask_b, _, flags_b = _select(wb, *corner, False, stack.eig_tol)
        masks_p.append(mask_a)
        masks_q.append(mask_b)
        for row_flags, fa, fb in zip(flags, flags_a, flags_b):
            row_flags.extend(fa + fb)
    diffs = _difference(stack, np.concatenate(masks_p), np.concatenate(masks_q))
    count = len(radius)
    reports = []
    for i, (d, norm_v, delta, scale) in enumerate(stack.numbers()):
        left, right = diffs[count + i], diffs[2 * count + i]
        diff, corners = diffs[i], {"corner_left": left.norm, "corner_right": right.norm}
        pperp_bound = math.sqrt(left.norm**2 + right.norm**2)
        claimed = math.sin(math.atan(norm_v / (d - delta))) if delta < d else math.inf
        reports.append(_verdict(
            "CASE2", scale, stack.tol, measured=diff.norm, claimed=claimed,
            margin=SQRT2 * d - norm_v,
            premise=f"premise not satisfied: ||V|| = {norm_v:.12g} is not below "
            f"sqrt(2) * d = {SQRT2 * d:.12g}",
            exact=claimed < 1.0,
            bounds=[(c, SQRT2 / 2.0) for c in corners.values()]
            + [(diff.norm_pperp_q, pperp_bound)],
            witnesses={
                "norm_v": norm_v,
                "d": d,
                "delta_v": delta,
                "norm_pq_perp": diff.norm_pq_perp,
                "norm_pperp_q": diff.norm_pperp_q,
                "corner_aggregate": pperp_bound,
                **corners,
            },
            flags=flags[i],
        ))
    return reports


def bound_subordinated(problem: PerturbationProblem) -> AnalysisReport:
    """Subordinated components: the gap survives and the half-line projections stay close.

    No norm condition is needed.  spec(B) avoids the open gap between the
    components, and ||E_A(sigma) - E_B(half line up to sigma)|| is at most
    sin(arctan(2||V||/d)/2), always strictly below sqrt(2)/2.
    """
    if problem.case is not Case.SUBORDINATED:
        raise CaseError(f"subordinated components required, problem is {problem.case.value}")
    return _memo(problem, "SUBORDINATED", _subordinated)


def _subordinated(stack: _Stack) -> list[AnalysisReport]:
    (sig_lo, sig_hi), (Sig_lo, Sig_hi) = stack.sigma_ends, stack.Sigma_ends
    inf_sig, sup_sig, inf_Sig, sup_Sig = sig_lo[:, 0], sig_hi[:, -1], Sig_lo[:, 0], Sig_hi[:, -1]
    below = sup_sig < inf_Sig
    half_line = np.where(below, -np.inf, inf_sig), np.where(below, sup_sig, np.inf)
    gap = np.where(below, sup_sig, sup_Sig), np.where(below, inf_Sig, inf_sig)
    (mask_q, _, flags), (mask_gap, _, gap_flags) = (
        _select(stack.b_eigen.eigenvalues, lo[:, None], hi[:, None], is_open, stack.eig_tol)
        for (lo, hi), is_open in ((half_line, False), (gap, True))
    )
    reports = []
    for i, ((d, norm_v, _, scale), diff, gap_lo, gap_hi) in enumerate(zip(
        stack.numbers(), _difference(stack, stack.sigma_mask, mask_q), *(x.tolist() for x in gap)
    )):
        claimed = math.sin(0.5 * math.atan(2.0 * norm_v / d))
        intruders = int(mask_gap[i].sum())
        reports.append(_verdict(
            "SUBORDINATED", scale, stack.tol, measured=diff.norm, claimed=claimed,
            exact=intruders == 0 and claimed < SQRT2 / 2.0,
            witnesses={
                "norm_v": norm_v,
                "d": d,
                "gap_lo": gap_lo,
                "gap_hi": gap_hi,
                "eigenvalues_in_gap": float(intruders),
                "rank_q": float(np.count_nonzero(mask_q[i])),
            },
            flags=flags[i] + gap_flags[i],
        ))
    return reports


def tan_theta_bound(
    problem: PerturbationProblem, interval: tuple[float, float]
) -> AnalysisReport:
    """A-posteriori tan-Theta bound on an open interval avoiding Sigma.

    With sigma-tilde = spec(B) inside the interval, and provided
    ||E_A(sigma) - E_B(interval)|| < 1 (the a-priori premise), the
    difference is at most sin(arctan(||V|| / dist(sigma-tilde, Sigma))),
    equivalently ||X|| <= ||V|| / dist(sigma-tilde, Sigma) for the graph
    operator X of the pair.  On the ``maximal_gap_interval`` (the interval
    the theorem table asks for) the selection and its norms are computed
    for the problem's whole stack at once; any other interval is computed
    for this row alone.
    """
    sides, row = _sides(problem), problem._row
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    for s_lo, s_hi in zip(sides.far[0][row].tolist(), sides.far[1][row].tolist()):
        if s_lo < hi and s_hi > lo:
            raise ValueError(
                f"interval ({lo}, {hi}) intersects the other component at [{s_lo}, {s_hi}]"
            )
    if (lo, hi) == maximal_gap_interval(problem):
        return _memo(problem, "TAN_THETA", lambda stack: _tan_theta(stack, sides, *sides.gap))
    one = slice(row, row + 1)
    return _tan_theta(problem._stack, sides, np.array([lo]), np.array([hi]), one)[0]


def _tan_theta(stack: _Stack, sides: _Sides, lo: np.ndarray, hi: np.ndarray,
               rows=slice(None)) -> list[AnalysisReport]:
    """TAN_THETA's reports of the stack rows in the slice ``rows`` (default all), row v on the
    open interval (lo[v], hi[v]); a row's graph operator is formed only under its premise."""
    values = stack.b_eigen.eigenvalues[rows]
    mask_q, _, flags = _select(values, lo[:, None], hi[:, None], True, stack.eig_tol[rows])
    far = points_distance(values, sides.far[0][rows], sides.far[1][rows])
    dists = np.where(mask_q, far, np.inf).min(axis=-1).tolist()
    reports = []
    for i, (d, norm_v, _, scale), diff, mask, row_flags, swap, dist in zip(
        range(len(stack.d))[rows], stack.numbers()[rows],
        _difference(stack, sides.mask[rows], mask_q, rows), mask_q, flags, sides.flags[rows], dists,
    ):
        witnesses = {
            "norm_v": norm_v,
            "d": d,
            "rank_p": float(np.count_nonzero(sides.mask[i])),
            "rank_q": float(np.count_nonzero(mask)),
        }
        # an empty selection gives ||P - Q|| = ||P|| = 1, so the margin premise covers it
        verdict = dict(
            measured=diff.norm, margin=1.0 - diff.norm, margin_dimensional=False,
            premise="a-priori premise not satisfied: ||E_A(sigma) - E_B(interval)|| is not below 1",
            witnesses=witnesses, flags=row_flags + swap,
        )
        report = _verdict("TAN_THETA", scale, stack.tol, claimed=math.inf, **verdict)
        # the graph operator, and so the claims, exist only under the a-priori premise
        if report.premise_satisfied:
            p = projection_from_eigenvectors(stack.a_eigen[i], sides.mask[i])
            q = projection_from_eigenvectors(stack.b_eigen[i], mask)
            x_norm = graph_operator(p, q, stack.tol, diff=diff.norm).norm
            tan_claim = norm_v / dist if dist > 0 else math.inf
            witnesses.update(dist_sigma_tilde=dist, x_norm=x_norm, tan_theta_bound=tan_claim)
            claimed = math.sin(math.atan(tan_claim)) if dist > 0 else 1.0
            report = _verdict("TAN_THETA", scale, stack.tol, claimed=claimed,
                              bounds=[(x_norm, tan_claim)], **verdict)
        reports.append(report)
    return reports


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
    dist = sigma.distance(delta_set)
    if not dist > 0:
        raise ValueError("sigma and Delta must be at positive distance")
    dec_a = _eigh(a[None])
    values = dec_a.eigenvalues
    mask_a = locate_points(values, *sigma.bounds, sigma.is_open, tol.eig(values))[0]
    kind = int(_classify(sigma.bounds, delta_set.bounds))
    return _pair_inequality(dec_a, _eigh(b[None]), mask_a, (*delta_set.bounds, delta_set.is_open),
                            [(dist, kind, spectral_norm(a - b), {})], tol)[0]


def bound_pair_inequality(problem: PerturbationProblem) -> AnalysisReport:
    """``verify_pair_inequality`` for (A, A + V, sigma, Sigma) on the problem's decompositions.

    ``||E_A E_B||`` is a block of the problem's memo, and ``||A - B||`` is the
    problem's ``||V||``, the one every other check reads, so MCE forms
    neither B nor A - B.  The SVD of the computed A - B may differ from it in
    the last bits, where A + V rounds: by at most 1.7 eps times the
    problem's scale on 1440 generated and rotated problems.  Delta = Sigma
    is a finite set of A's eigenvalues, which B's eigenvalues miss on a
    generically perturbed problem; E_B(Sigma) is then empty (``rank_eb``
    is 0) and the check holds vacuously.  dist(sigma, Sigma) is the
    problem's d, the problem's classification decides whether a convex hull
    is separated, and E_A(sigma) is the problem's ``sigma_mask``.
    """

    def reports(stack: _Stack) -> list[AnalysisReport]:
        pairs = zip(stack.d.tolist(), stack.kind.tolist(), stack.norm_v.tolist(), stack.block_norms)
        return _pair_inequality(stack.a_eigen, stack.b_eigen, stack.sigma_mask,
                                (*stack.Sigma_ends, stack.is_open), list(pairs), stack.tol)

    return _memo(problem, "MCE", reports)


def _pair_inequality(dec_a, dec_b, mask_a, deltas, pairs: list, tol) -> list[AnalysisReport]:
    """MCE's reports on the decompositions of stacks A, B (T, n, n), E_A(sigma)'s mask and
    Delta's stacked bounds, with (dist(sigma, Delta), the ``_classify`` index of (sigma, Delta),
    ||A - B||, block-norm memo) per row."""
    dists, kinds, diff_norms, memos = zip(*pairs)
    values = dec_b.eigenvalues
    # the selection's boundary events reach no report, so they are not formatted as flags
    mask_b = locate_points(values, *deltas, tol.eig(values))[0]
    # ||E_A E_B|| = ||U_A* U_B|| on the selected eigenvector columns
    norms = _block_norms(list(memos), dec_a, dec_b, mask_a, mask_b)
    norm_a = np.abs(dec_a.eigenvalues).max(axis=-1).tolist()
    reports = []
    for i, (dist, kind, diff_norm) in enumerate(zip(dists, kinds, diff_norms)):
        hull_separated = _CLASSES[kind].case in _HULL_SEPARATED
        claimed = diff_norm if hull_separated else (math.pi / 2.0) * diff_norm
        scale = max(norm_a[i], diff_norm, dist)
        reports.append(_verdict(
            "MCE", scale, tol, measured=dist * norms[i], claimed=claimed, dimensional=True,
            margin=dist,
            witnesses={
                "dist": dist,
                "norm_a_minus_b": diff_norm,
                "pi_half_bound": (math.pi / 2.0) * diff_norm,
                "hull_separated": float(hull_separated),
                "rank_ea": float(np.count_nonzero(mask_a[i])),
                "rank_eb": float(np.count_nonzero(mask_b[i])),
            },
            flags=["convex hulls separated: constant-1 bound applies"] if hull_separated else [],
        ))
    return reports
