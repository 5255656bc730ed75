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

import functools
import math
from typing import NamedTuple

import numpy as np

from .analysis import (
    _HULL_KINDS,
    SQRT2,
    AnalysisReport,
    PerturbationProblem,
    _distance,
    _entrywise,
    _joined,
    _max,
    _memo,
    _premise_met,
    _region,
    _sides,
    _Stack,
    _verdict,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import _HULL_SEPARATED, Case, SpectralSet, _classify, locate_points
from .operators import (
    _basis,
    _blocks,
    _eigh,
    _mask_groups,
    _select,
    spectral_norm,
    validate_hermitian,
)

#: Critical norm ratio for the pi/2-bound: the unique positive root of
#: (pi/2) x + x tan(arctan(2x)/2) - 1.
C_PI = (3.0 * math.pi - math.sqrt(math.pi**2 + 32.0)) / (math.pi**2 - 4.0)


class ProjectionDifference(NamedTuple):
    """||P - Q|| and its two cross-product norms, as columns with a row per mask pair."""

    norm: np.ndarray
    norm_pq_perp: np.ndarray
    norm_pperp_q: np.ndarray


# ---------------------------------------------------------------------------
# helpers shared by the theorem checks
# ---------------------------------------------------------------------------


def _block_norms(memo: dict, order: np.ndarray, b_vectors: np.ndarray,
                 mask_a: np.ndarray, mask_b: np.ndarray) -> list[float]:
    """``||U_A[:, mask_a]* U_B[:, mask_b]||`` per mask row v, of the bases of row v mod T.

    ``memo`` keeps a block's norm under v mod T and the bytes of its row of both
    masks, so a block is computed once per memo.  A block is gathered from B's
    eigenvectors in ``_basis``'s basis: ``b_vectors[order[mask_a]][:, mask_b]``.
    """
    count, width = len(order), 2 * mask_a.shape[-1]
    pairs = np.concatenate((mask_a, mask_b), axis=-1).tobytes()
    keys = [(v % count, pairs[k : k + width]) for v, k in enumerate(range(0, len(pairs), width))]
    todo = {key: v for v, key in enumerate(keys) if key not in memo}
    groups = _mask_groups(mask_a, mask_b, np.array(list(todo.values()))) if todo else ()
    for rows, left, right in groups:
        norms = spectral_norm(_blocks(order, rows, left, right, b_vectors, vectors=True))
        for v, norm in zip(rows.tolist(), norms.tolist()):
            memo[keys[v]] = norm
    return [memo[key] for key in keys]


def _difference(stack: _Stack, mask_p, mask_q) -> ProjectionDifference:
    """``||E_A(mask_p) - E_B(mask_q)||`` per mask row: the larger of two principal-angle blocks.

    Mask row v belongs to stack row v mod T.  The blocks are (mask_p, ~mask_q),
    for ``||P Q_perp||``, and (~mask_p, mask_q), for ``||P_perp Q||``; where the
    masks have equal rank both norms are the sine of the largest principal angle,
    and the first block stands for both.  Blocks are entries of the stack's memo,
    so every check on a row computes each block once, whichever asks first;
    blocks of one shape share an SVD.
    """
    count = len(mask_p)
    equal = (mask_p.sum(axis=-1) == mask_q.sum(axis=-1))[:, None]
    left, right = (np.concatenate([m, np.where(equal, m, ~m)]) for m in (mask_p, ~mask_q))
    norms = np.array(_block_norms(stack.memo, stack.order, stack.b_vectors, left, right))
    pq_perp, pperp_q = norms[:count], norms[count:]
    return ProjectionDifference(_max(pq_perp, pperp_q), pq_perp, pperp_q)


def _wrong_case(problem: PerturbationProblem, theorem: str, why: str) -> AnalysisReport:
    """``theorem``'s report on a problem outside its case, a premise unmet for ``why``."""
    return _verdict(theorem, np.array([problem.scale]), problem.tol, measured=math.nan,
                    claimed=math.inf, margin=-math.inf, unmet=[[f"wrong case: {why}"]],
                    witnesses={})[0]


def _no_hull(problem: PerturbationProblem) -> str:
    """Why ``problem`` is outside the hull-separated case; empty when it is inside."""
    if problem.case in _HULL_SEPARATED:
        return ""
    return ("hull separation required: neither component's convex hull is "
            f"disjoint from the other ({problem.classification.detail})")


def maximal_gap_interval(problem: PerturbationProblem) -> tuple[float, float]:
    """Largest open interval containing the hull of sigma and avoiding Sigma.

    Defined for hull-separated problems (the roles swap automatically when
    Sigma's hull is the separated one); any other problem raises ``ValueError``.
    """
    if why := _no_hull(problem):
        raise ValueError(why)
    lo, hi = _sides(problem._stack).gap
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
    d, norm_v, delta = stack.d, stack.norm_v, stack.delta
    mask_q, _, flags = _region(stack, stack.sigma_ends, stack.d / 2.0, True)
    diff = _difference(stack, stack.sigma_mask, mask_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        claimed = np.where(delta < d, (math.pi / 2.0) * norm_v / (d - delta), math.inf)
    return _verdict(
        "MAIN", stack.scale, stack.tol, measured=diff.norm, claimed=claimed,
        margin=C_PI * d - norm_v,
        premise=list(map("premise not satisfied: ||V|| = {:.12g} is not below "
                         "c_pi * d = {:.12g}".format, norm_v.tolist(), (C_PI * d).tolist())),
        witnesses={"norm_v": norm_v, "d": d, "delta_v": delta, "c_pi": np.full(len(d), C_PI),
                   "norm_pq_perp": diff.norm_pq_perp, "norm_pperp_q": diff.norm_pperp_q,
                   "rank_p": stack.sigma_mask.sum(axis=-1), "rank_q": mask_q.sum(axis=-1)},
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
    if why := _no_hull(problem):
        return _wrong_case(problem, "CASE2", why)
    return _memo(problem, "CASE2", _case2)


def _case2(stack: _Stack) -> list[AnalysisReport]:
    # sigma is the separated side: Sigma when the roles swap
    sides = _sides(stack)
    d, norm_v, delta, (lo, hi) = stack.d, stack.norm_v, stack.delta, sides.near
    wa, wb = stack.a_eigen.eigenvalues, stack.b_eigen.eigenvalues
    mask_q, _, flags = _region(stack, sides.near, d, True)

    # corner projections for the spectrum beyond the flanks of sigma: A's eigenvalues and then
    # B's in (-inf, inf sigma - d] and in [sup sigma + d, inf), as one stacked selection
    count, inf = len(d), np.full_like(d, math.inf)
    below, above = lo[:, 0] - d, hi[:, -1] + d
    tol_a = stack.tol.eig(wa)
    corners, _, corner_flags = _select(
        np.concatenate([wa, wa, wb, wb]), np.concatenate([-inf, above, -inf, above])[:, None],
        np.concatenate([below, inf, below, inf])[:, None], False,
        np.concatenate([tol_a, tol_a, stack.eig_tol, stack.eig_tol]),
    )
    a_left, a_right, b_left, b_right = (corner_flags[k * count : (k + 1) * count]
                                        for k in range(4))
    flags = [flags, sides.flags, a_left, b_left, a_right, b_right]
    diffs = _difference(stack, np.concatenate([sides.mask, corners[: 2 * count]]),
                        np.concatenate([mask_q, corners[2 * count :]]))
    norm, left, right = diffs.norm.reshape(3, count)
    pperp_q = diffs.norm_pperp_q[:count]
    # CPython's x**2 is libm's pow, which differs from numpy's x * x in the last bit on some entries
    square = functools.partial(pow, exp=2)
    pperp_bound = np.sqrt(_entrywise(square, left) + _entrywise(square, right))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = norm_v / (d - delta)
    claimed = np.where(delta < d, _entrywise(math.sin, _entrywise(math.atan, ratio)), math.inf)
    return _verdict(
        "CASE2", stack.scale, stack.tol, measured=norm, claimed=claimed,
        margin=SQRT2 * d - norm_v,
        premise=list(map("premise not satisfied: ||V|| = {:.12g} is not below "
                         "sqrt(2) * d = {:.12g}".format, norm_v.tolist(), (SQRT2 * d).tolist())),
        bounds=[(left, SQRT2 / 2.0), (right, SQRT2 / 2.0), (pperp_q, pperp_bound)],
        witnesses={"norm_v": norm_v, "d": d, "delta_v": delta,
                   "norm_pq_perp": diffs.norm_pq_perp[:count], "norm_pperp_q": pperp_q,
                   "corner_aggregate": pperp_bound, "corner_left": left, "corner_right": right},
        flags=_joined(*flags),
    )


def bound_subordinated(problem: PerturbationProblem) -> AnalysisReport:
    """Subordinated components: the gap survives and the half-line projections stay close.

    No norm condition is needed.  spec(B) avoids the open gap between the
    components, and ||E_A(sigma) - E_B(half line up to sigma)|| is at most
    sin(arctan(2||V||/d)/2), always strictly below sqrt(2)/2.
    """
    if problem.case is not Case.SUBORDINATED:
        return _wrong_case(problem, "SUBORDINATED",
                           f"subordinated components required, problem is {problem.case.value}")
    return _memo(problem, "SUBORDINATED", _subordinated)


def _subordinated(stack: _Stack) -> list[AnalysisReport]:
    (sig_lo, sig_hi), (Sig_lo, Sig_hi) = stack.sigma_ends, stack.Sigma_ends
    inf_sig, sup_sig, inf_Sig, sup_Sig = sig_lo[:, 0], sig_hi[:, -1], Sig_lo[:, 0], Sig_hi[:, -1]
    # sup sigma < inf Sigma: rule 0 of intervals._classify, the first of the two subordinations
    below = stack.kind == 0
    half_line = np.where(below, -np.inf, inf_sig), np.where(below, sup_sig, np.inf)
    gap = np.where(below, sup_sig, sup_Sig), np.where(below, inf_Sig, inf_sig)
    (mask_q, _, flags), (mask_gap, _, gap_flags) = (
        _region(stack, (lo[:, None], hi[:, None]), is_open=is_open)
        for (lo, hi), is_open in ((half_line, False), (gap, True))
    )
    d, norm_v = stack.d, stack.norm_v
    claimed = _entrywise(math.sin, 0.5 * _entrywise(math.atan, 2.0 * norm_v / d))
    intruders = mask_gap.sum(axis=-1)
    return _verdict(
        "SUBORDINATED", stack.scale, stack.tol,
        measured=_difference(stack, stack.sigma_mask, mask_q).norm, claimed=claimed,
        exact=intruders == 0,
        witnesses={"norm_v": norm_v, "d": d, "gap_lo": gap[0], "gap_hi": gap[1],
                   "eigenvalues_in_gap": intruders, "rank_q": mask_q.sum(axis=-1)},
        flags=_joined(flags, gap_flags),
    )


def tan_theta_bound(
    problem: PerturbationProblem, interval: tuple[float, float] | None = None
) -> AnalysisReport:
    """A-posteriori tan-Theta bound on an open interval avoiding Sigma.

    With sigma-tilde = spec(B) inside the interval, and provided
    ||E_A(sigma) - E_B(interval)|| < 1 (the a-priori premise), the
    difference is at most sin(arctan(||V|| / dist(sigma-tilde, Sigma))),
    equivalently ||X|| <= ||V|| / dist(sigma-tilde, Sigma) for the graph
    operator X of the pair.  Without ``interval`` (as the theorem table
    asks) the interval is the ``maximal_gap_interval``.  A given interval
    must avoid the other component: Sigma, or sigma when the roles swap
    because only Sigma's hull is separated.  Either way the stack's rows
    are computed at once, a given interval on every row.
    """
    if why := _no_hull(problem):
        return _wrong_case(problem, "TAN_THETA", why)
    if interval is None:
        return _memo(problem, "TAN_THETA", lambda stack: _tan_theta(stack, *_sides(stack).gap))
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    far, row = _sides(problem._stack).far, problem._row
    for s_lo, s_hi in zip(far[0][row].tolist(), far[1][row].tolist()):
        if s_lo < hi and s_hi > lo:
            raise ValueError(
                f"interval ({lo}, {hi}) intersects the other component at [{s_lo}, {s_hi}]"
            )
    with np.errstate(over="ignore"):  # as in analysis._memo
        return _tan_theta(problem._stack, *np.full((2, len(far[0])), [[lo], [hi]]))[row]


def _tan_theta(stack: _Stack, lo: np.ndarray, hi: np.ndarray) -> list[AnalysisReport]:
    """TAN_THETA's reports of the stack's rows, row v on the open interval (lo[v], hi[v]);
    a row's graph operator, and so its claims, exist only under its a-priori premise."""
    sides, norm_v = _sides(stack), stack.norm_v
    mask_q, _, flags = _region(stack, (lo[:, None], hi[:, None]), is_open=True)
    dist = np.where(mask_q, _distance(stack, sides.far), np.inf).min(axis=-1)
    diff = _difference(stack, sides.mask, mask_q)
    rank_p, rank_q = sides.mask.sum(axis=-1), mask_q.sum(axis=-1)
    margin = 1.0 - diff.norm
    # unequal ranks give ||P - Q|| = 1 exactly, but its computed value may round below 1
    below = _premise_met(margin, 1.0, stack.tol)
    met, unequal = below & (rank_p == rank_q), below & (rank_p != rank_q)
    x_norm = np.full(len(dist), math.nan)
    for rows, _, cols in _mask_groups(sides.mask, mask_q, np.flatnonzero(met)):
        # U = U_P* U_Q above W = U_P-perp* U_Q, gathered with P's rows first; X = W U^{-1}
        first = np.argsort(~sides.mask[rows], axis=-1, kind="stable")
        u_w = _blocks(stack.order, rows, first, cols, stack.b_vectors, vectors=True)
        u, w = u_w[:, : cols.shape[-1]], u_w[:, cols.shape[-1] :]
        x = np.linalg.solve(u.swapaxes(-1, -2), w.swapaxes(-1, -2)).swapaxes(-1, -2)
        x_norm[rows] = spectral_norm(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_claim = np.where(dist > 0, norm_v / dist, math.inf)
    claimed = np.where(dist > 0, _entrywise(math.sin, _entrywise(math.atan, tan_claim)), 1.0)
    # the a-posteriori witnesses, like the graph operator, exist only under the premise
    posterior = {name: np.where(met, x, None) for name, x in (
        ("dist_sigma_tilde", dist), ("x_norm", x_norm), ("tan_theta_bound", tan_claim))}
    return _verdict(
        "TAN_THETA", stack.scale, stack.tol, measured=diff.norm,
        claimed=np.where(met, claimed, math.inf), margin=margin, margin_dimensional=False,
        premise=["a-priori premise not satisfied: ||E_A(sigma) - E_B(interval)|| is not below 1"]
        * len(dist),
        unmet=[[f"a-priori premise not satisfied: rank E_B(interval) = {q} differs from "
                 f"rank E_A(sigma) = {p}"] if x else []
               for x, p, q in zip(unequal.tolist(), rank_p.tolist(), rank_q.tolist())],
        bounds=[(x_norm, tan_claim)],
        witnesses={"norm_v": norm_v, "d": stack.d, "rank_p": rank_p, "rank_q": rank_q,
                   **posterior},
        flags=_joined(flags, sides.flags),
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
    dist = sigma.distance(delta_set)
    if not dist > 0:
        raise ValueError("sigma and Delta must be at positive distance")
    dec_a, dec_b = _eigh(a[None]), _eigh(b[None])
    values = dec_a.eigenvalues
    mask_a = locate_points(values, *sigma.bounds, sigma.is_open, tol.eig(values))[0]
    kind = _classify(sigma.bounds, delta_set.bounds)[None]
    order, turn = _basis(dec_a)
    b_vectors = dec_b.eigenvectors if turn is None else turn @ dec_b.eigenvectors
    return _pair_inequality(values, dec_b.eigenvalues, order, b_vectors, mask_a,
                            (*delta_set.bounds, delta_set.is_open), np.array([dist]), kind,
                            np.array([spectral_norm(a - b)]), {}, tol)[0]


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
        return _pair_inequality(stack.a_eigen.eigenvalues, stack.b_eigen.eigenvalues,
                                stack.order, stack.b_vectors, stack.sigma_mask,
                                (*stack.Sigma_ends, stack.is_open), stack.d, stack.kind,
                                stack.norm_v, stack.memo, stack.tol)

    return _memo(problem, "MCE", reports)


def _pair_inequality(values_a, values_b, order, b_vectors, mask_a, deltas, dist, kind,
                     diff_norm, memo, tol) -> list[AnalysisReport]:
    """MCE's reports on the eigenvalues of stacks A, B (T, n, n), ``_basis``'s order and B's
    eigenvectors there, E_A(sigma)'s mask and Delta's stacked bounds, with the columns
    dist(sigma, Delta), the ``_classify`` index of (sigma, Delta) and ||A - B||, and the memo."""
    # the selection's boundary events reach no report, so they are not formatted as flags
    mask_b = locate_points(values_b, *deltas, tol.eig(values_b))[0]
    # ||E_A E_B|| = ||U_A* U_B|| on the selected eigenvector columns
    norms = np.array(_block_norms(memo, order, b_vectors, mask_a, mask_b))
    hull_separated = _HULL_KINDS[kind]
    pi_half = (math.pi / 2.0) * diff_norm
    return _verdict(
        "MCE", _max(np.abs(values_a).max(axis=-1), diff_norm, dist), tol,
        measured=dist * norms, claimed=np.where(hull_separated, diff_norm, pi_half),
        dimensional=True, margin=dist,
        witnesses={"dist": dist, "norm_a_minus_b": diff_norm, "pi_half_bound": pi_half,
                   "hull_separated": hull_separated, "rank_ea": mask_a.sum(axis=-1),
                   "rank_eb": mask_b.sum(axis=-1)},
        flags=[["convex hulls separated: constant-1 bound applies"] if h else []
               for h in hull_separated.tolist()],
    )
