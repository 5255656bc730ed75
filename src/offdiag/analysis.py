"""Spectral-shift machinery for off-diagonal Hermitian perturbations.

The central quantity is the half-angle shift

    delta(v, g) = v * tan(arctan(2 v / g) / 2) = (sqrt(g^2 + 4 v^2) - g) / 2.

The algebraic right-hand side is how we compute it: it is exact at the
g = 0 convention branch (arctan(+inf) = pi/2, so delta = v) and avoids
tan/arctan round-off when v/g is large.  Equivalence with the
trigonometric form is itself a tested invariant.

Given a validated problem (A Hermitian with spectrum split into separated
components sigma and Sigma, V off-diagonal w.r.t. that split, B = A + V),
the checks here cover: two-sided bounds on inf B and sup B, enclosure of
spec(B) in the delta_V-neighborhood of spec(A), and persistence of the
spectral gap inside the d/2- (or d-) neighborhood of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .intervals import Case, Classification, SpectralSet, classify_case
from .operators import (
    EigenDecomposition,
    OrthogonalProjection,
    ValidationError,
    _eigh,
    compressed_norm_exceeds,
    hermitian_eigendecompose,
    projection_from_eigenvectors,
    select_eigenvalues,
    spectral_norm,
    validate_hermitian,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
SQRT2 = math.sqrt(2.0)

class CaseError(ValueError):
    """A theorem check was requested for a problem of the wrong case."""


def _half_angle_shift(norm_v: float, gap: float) -> float:
    # (sqrt(gap^2 + 4 v^2) - gap) / 2; hypot keeps it accurate for all ratios
    return 0.5 * (math.hypot(gap, 2.0 * norm_v) - gap)


def delta_v(norm_v: float, d: float) -> float:
    """Maximal spectral shift ||V|| tan(arctan(2||V||/d)/2) for gap d > 0.

    Strictly increasing in ``norm_v`` and always strictly below it.
    """
    if d <= 0:
        raise ValueError(f"gap d must be positive, got {d}")
    if norm_v < 0:
        raise ValueError(f"perturbation norm must be nonnegative, got {norm_v}")
    return _half_angle_shift(norm_v, d)


def delta_v_directional(
    a0_inf: float, a0_sup: float, a1_inf: float, a1_sup: float, norm_v: float
) -> tuple[float, float]:
    """Directional shifts (delta_left, delta_right) for the two-block split.

    The left shift uses |inf A1 - inf A0|, the right one |sup A1 - sup A0|.
    Coincident infima (or suprema) fall under the arctan(+inf) = pi/2
    convention and give exactly ``norm_v``; the closed form realizes that
    branch without a cutoff.
    """
    if norm_v < 0:
        raise ValueError(f"perturbation norm must be nonnegative, got {norm_v}")
    dl = _half_angle_shift(norm_v, abs(a1_inf - a0_inf))
    dr = _half_angle_shift(norm_v, abs(a1_sup - a0_sup))
    return dl, dr


def two_by_two_extremes(a0: float, a1: float, v: complex) -> tuple[float, float]:
    """Eigenvalues (lambda, mu) of [[a0, v], [conj(v), a1]], lambda <= mu.

    lambda = min{a0, a1} - s and mu = max{a0, a1} + s with the half-angle
    shift s = |v| tan(arctan(2|v| / |a1 - a0|) / 2); this is algebraically
    the exact eigenvalue pair.
    """
    s = _half_angle_shift(abs(v), abs(a1 - a0))
    return min(a0, a1) - s, max(a0, a1) + s


# ---------------------------------------------------------------------------
# problem bundle and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PerturbationProblem:
    """Validated bundle (A, V, sigma, Sigma) with cached decompositions."""

    a: np.ndarray
    v: np.ndarray
    sigma: SpectralSet
    Sigma: SpectralSet
    d: float
    projection: OrthogonalProjection  # spectral projection of A onto sigma
    sigma_mask: np.ndarray  # which of A's eigenvalues (ascending) lie in sigma
    classification: Classification
    tol: Tolerances
    a_eigen: EigenDecomposition
    b_eigen: EigenDecomposition
    norm_v: float
    scale: float  # max(max |eigenvalue of A|, ||V||, d): the unit of every verdict's slack

    @property
    def b(self) -> np.ndarray:
        return self.a + self.v

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def case(self) -> Case:
        return self.classification.case

    def eig_tol(self, decomposition: EigenDecomposition | None = None) -> float:
        dec = self.b_eigen if decomposition is None else decomposition
        return self.tol.eig(dec.eigenvalues)

    @classmethod
    def build(
        cls, a, v, sigma: SpectralSet, Sigma: SpectralSet, tol: Tolerances = DEFAULT_TOL
    ) -> "PerturbationProblem":
        a = validate_hermitian(a, tol)
        v = validate_hermitian(v, tol)
        if a.shape != v.shape:
            raise ValidationError(f"A and V have different shapes: {a.shape} vs {v.shape}")
        dim = a.shape[0]
        if dim < 2:
            raise ValidationError("a perturbation problem needs dimension at least 2")

        d = sigma.distance(Sigma)
        if d <= 0:
            raise ValidationError("sigma and Sigma must be separated (distance > 0)")
        classification = classify_case(sigma, Sigma)

        a_eigen = _eigh(a)
        norm_a = float(np.abs(a_eigen.eigenvalues).max())
        eig_tol = tol.eig(a_eigen.eigenvalues)
        spec_a = sigma.union(Sigma)
        outside = np.flatnonzero(spec_a.distance_to_points(a_eigen.eigenvalues) > eig_tol)
        if outside.size:
            x = float(a_eigen.eigenvalues[outside[0]])
            raise ValidationError(f"eigenvalue {x!r} of A lies outside sigma union Sigma")
        mask_sigma, _, _ = select_eigenvalues(a_eigen.eigenvalues, sigma, eig_tol)
        mask_Sigma, _, _ = select_eigenvalues(a_eigen.eigenvalues, Sigma, eig_tol)
        if np.any(mask_sigma & mask_Sigma):
            raise ValidationError("an eigenvalue of A is claimed by both components")
        if not mask_sigma.any() or not mask_Sigma.any():
            raise ValidationError("both components must contain spectrum of A")

        projection = projection_from_eigenvectors(a_eigen, mask_sigma)
        # ||P V P||, ||P-perp V P-perp|| and ||[A, P]|| = max(||P-perp A P||, ||P A P-perp||)
        # on the blocks of the eigenvector bases
        u, u_perp = projection.range_basis, projection.complement_basis

        # with V = 0 the blocks are exactly zero and never exceed a zero bound
        norm_v = spectral_norm(v)
        off_bound = tol.offdiag * norm_v
        if compressed_norm_exceeds(u, u, v, off_bound) or compressed_norm_exceeds(
            u_perp, u_perp, v, off_bound
        ):
            raise ValidationError(
                "V is not off-diagonal with respect to the sigma/Sigma splitting"
            )
        commutator_bound = tol.proj(dim) * norm_a
        if compressed_norm_exceeds(u_perp, u, a, commutator_bound) or compressed_norm_exceeds(
            u, u_perp, a, commutator_bound
        ):
            raise ValidationError("spectral projection does not commute with A")

        b_eigen = hermitian_eigendecompose(a + v, tol)
        return cls(
            a=a,
            v=v,
            sigma=sigma,
            Sigma=Sigma,
            d=d,
            projection=projection,
            sigma_mask=mask_sigma,
            classification=classification,
            tol=tol,
            a_eigen=a_eigen,
            b_eigen=b_eigen,
            norm_v=norm_v,
            scale=max(norm_a, norm_v, d),
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Claimed bound vs measured quantity for one theorem check.

    ``holds`` is vacuously true when the premise is not satisfied; the
    flags then say so.  Witnesses are named scalars backing the verdict.
    """

    theorem: str
    premise_satisfied: bool
    premise_margin: float
    claimed_bound: float
    measured_value: float
    holds: bool
    witnesses: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "premise_satisfied": self.premise_satisfied,
            "premise_margin": self.premise_margin,
            "claimed_bound": self.claimed_bound,
            "measured_value": self.measured_value,
            "holds": self.holds,
            "witnesses": dict(self.witnesses),
            "flags": list(self.flags),
        }


def _verdict(
    theorem: str, scale: float, tol: Tolerances, *, measured: float, claimed: float,
    witnesses: dict[str, float], dimensional: bool = False, margin: float = math.inf,
    margin_dimensional: bool = True, premise: str = "", unmet: Sequence[str] = (),
    exact: bool = True, bounds: Sequence[tuple[float, float]] = (),
    flags: Sequence[str] = (), findings: Sequence[str] = (), premise_first: bool = False,
) -> AnalysisReport:
    """The one verdict rule: a check's raw numbers in, its report out.

    The theorems are homogeneous, so no verdict may change when a problem is
    scaled, shifted or rotated.  Dimensional numbers (measured and claimed
    when ``dimensional``, the margin when ``margin_dimensional``) are first
    divided by the problem's ``scale``.  Then, with ``slack = tol.report``,
    the premise holds when nothing is ``unmet`` and, if the theorem has a
    norm premise (a ``premise`` flag text), ``margin > slack``; a bound
    ``x <= c`` holds when ``x <= c + slack * max(1, |c|)``.  The theorem
    holds when its premise fails, or when measured <= claimed, every
    scale-free pair of ``bounds`` and the side conditions ``exact`` hold.

    Unmet premises are flagged after the check's ``flags`` (before them with
    ``premise_first``); ``findings`` are flagged only under the premise.
    """
    slack = tol.report
    unit = scale if dimensional else 1.0

    def fits(x: float, c: float) -> bool:
        return x <= c + slack * max(1.0, abs(c))

    failed = list(unmet)
    if premise and not margin / (scale if margin_dimensional else 1.0) > slack:
        failed.append(premise)
    satisfied = not failed
    holds = not satisfied or bool(
        exact and fits(measured / unit, claimed / unit) and all(fits(x, c) for x, c in bounds)
    )
    flags = [*failed, *flags] if premise_first else [*flags, *failed]
    if satisfied:
        flags.extend(findings)
    return AnalysisReport(
        theorem=theorem,
        premise_satisfied=satisfied,
        premise_margin=margin,
        claimed_bound=claimed,
        measured_value=measured,
        holds=holds,
        witnesses=witnesses,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# quadratic numerical range sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QnrSample:
    """One compressed 2x2 sample of the quadratic numerical range."""

    a0: float
    a1: float
    v: complex
    lam: float
    mu: float


# Samples are drawn and compressed this many at a time, so memory stays bounded for any n.
QNR_CHUNK = 256


def _unit_rows(rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """Rows of ``z`` scaled to unit norm; a (practically impossible) null row is redrawn."""
    norms = np.linalg.norm(z, axis=1)
    for i in np.flatnonzero(norms <= 1e-12):
        while norms[i] <= 1e-12:
            z[i] = rng.standard_normal(z.shape[1]) + 1j * rng.standard_normal(z.shape[1])
            norms[i] = np.linalg.norm(z[i])
    return z / norms[:, None]


def _forms(x: np.ndarray, block: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i^* block y_i for every row i, one stacked product per row, so no row depends on the others."""
    return (x.conj()[:, None, :] @ block @ y[:, :, None])[:, 0, 0]


def qnr_sample(
    b, projection: OrthogonalProjection, n: int, seed: int = 0
) -> list[QnrSample]:
    """Seeded samples of the quadratic numerical range of ``b``.

    Draws f uniformly on the unit sphere of Ran P and g on the unit sphere
    of Ran P-perp, compresses ``b`` to the 2x2 matrix
    [[(f,Bf), (f,Bg)], [(g,Bf), (g,Bg)]] and records its eigenvalue pair.
    The union over all such pairs contains spec(B), and its extremes equal
    inf B and sup B.

    The draws form a standard-normal (n, 2(k_p + k_q)) array, drawn in
    blocks of ``QNR_CHUNK`` rows, whose row i holds sample i's coordinates
    (Re f, Im f, Re g, Im g) in a basis of each range: the order in which
    sample-by-sample drawing takes them, so sample i is the same whatever
    ``n`` is.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    b = np.asarray(b, dtype=complex)
    dim = b.shape[0]
    if not 0 < projection.rank < dim:
        raise ValueError(
            f"projection rank must be strictly between 0 and {dim}, got {projection.rank}"
        )
    basis_p = projection.range_basis
    basis_q = projection.complement_basis
    kp, kq = basis_p.shape[1], basis_q.shape[1]
    # with f = basis_p u and g = basis_q h, (f, B g) = u^* (basis_p^* B basis_q) h
    b_pp = basis_p.conj().T @ b @ basis_p
    b_qq = basis_q.conj().T @ b @ basis_q
    b_pq = basis_p.conj().T @ b @ basis_q
    rng = np.random.default_rng(seed)
    samples = []
    for first in range(0, n, QNR_CHUNK):
        draws = rng.standard_normal((min(QNR_CHUNK, n - first), 2 * (kp + kq)))
        u = _unit_rows(rng, draws[:, :kp] + 1j * draws[:, kp : 2 * kp])
        h = _unit_rows(rng, draws[:, 2 * kp : 2 * kp + kq] + 1j * draws[:, 2 * kp + kq :])
        a0 = _forms(u, b_pp, u).real
        a1 = _forms(h, b_qq, h).real
        v = _forms(u, b_pq, h)
        for x0, x1, xv in zip(a0.tolist(), a1.tolist(), v.tolist()):
            lam, mu = two_by_two_extremes(x0, x1, xv)
            samples.append(QnrSample(a0=x0, a1=x1, v=xv, lam=lam, mu=mu))
    return samples


# ---------------------------------------------------------------------------
# theorem checks on the spectrum
# ---------------------------------------------------------------------------


def _restriction_extremes(problem: PerturbationProblem) -> tuple[float, float, float, float]:
    """(inf A0, sup A0, inf A1, sup A1) for the parts of A on Ran P / Ran P-perp."""
    eigs = problem.a_eigen.eigenvalues
    a0 = eigs[problem.sigma_mask]
    a1 = eigs[~problem.sigma_mask]
    return float(a0.min()), float(a0.max()), float(a1.min()), float(a1.max())


def shift_bounds(problem: PerturbationProblem) -> AnalysisReport:
    """Two-sided bounds on inf B and sup B via the directional shifts.

    Checks inf A - delta_left <= inf B <= inf A and
    sup A <= sup B <= sup A + delta_right.  Violations are reported, not
    raised; measured_value is the worst signed violation (<= 0 means all
    four inequalities hold).
    """
    a0_inf, a0_sup, a1_inf, a1_sup = _restriction_extremes(problem)
    dl, dr = delta_v_directional(a0_inf, a0_sup, a1_inf, a1_sup, problem.norm_v)
    inf_a = float(problem.a_eigen.eigenvalues.min())
    sup_a = float(problem.a_eigen.eigenvalues.max())
    inf_b = float(problem.b_eigen.eigenvalues.min())
    sup_b = float(problem.b_eigen.eigenvalues.max())

    violation = max(
        (inf_a - dl) - inf_b,
        inf_b - inf_a,
        sup_a - sup_b,
        sup_b - (sup_a + dr),
    )
    return _verdict(
        "SHIFT_BOUNDS", problem.scale, problem.tol, measured=violation, claimed=0.0,
        dimensional=True,
        witnesses={
            "inf_a": inf_a,
            "sup_a": sup_a,
            "inf_b": inf_b,
            "sup_b": sup_b,
            "delta_left": dl,
            "delta_right": dr,
            "norm_v": problem.norm_v,
        },
    )


def spectrum_enclosure(problem: PerturbationProblem) -> AnalysisReport:
    """Every eigenvalue of B lies in the closed delta_V-neighborhood of spec(A).

    Unconditional.  measured_value is the largest excursion of a
    B-eigenvalue from sigma union Sigma; the claimed bound is delta_V.
    """
    delta = delta_v(problem.norm_v, problem.d)
    spec_a = problem.sigma.union(problem.Sigma)
    eigs = problem.b_eigen.eigenvalues
    excursions = spec_a.distance_to_points(eigs)
    measured = float(excursions.max())
    tol = problem.eig_tol()
    attained = eigs[(np.abs(excursions - delta) <= tol) & (delta > tol)]
    flags = [
        f"eigenvalue {float(x):.12g} attains the enclosure boundary exactly" for x in attained
    ]
    return _verdict(
        "SHIFT_I", problem.scale, problem.tol, measured=measured, claimed=delta, dimensional=True,
        witnesses={"norm_v": problem.norm_v, "d": problem.d, "delta_v": delta},
        flags=flags,
    )


def gap_persistence(problem: PerturbationProblem, variant: str | None = None) -> AnalysisReport:
    """The spectrum of B near sigma stays separated from the rest.

    variant "half" checks the open d/2-neighborhood under ||V|| < sqrt(3)/2 d
    (any case); variant "full" checks the open d-neighborhood under
    ||V|| < sqrt(2) d and hull separation.  Default picks "full" when the
    hull of sigma is separated from Sigma, else "half".

    Asserts that spec(B) inside the open neighborhood equals spec(B) in the
    closed delta_V-neighborhood of sigma and is nonempty.  The eigenvalue
    count inside (vs rank of the sigma-projection of A) is recorded as a
    witness; a mismatch is flagged as a finding, not a failure.
    """
    case = problem.case
    hull_separated = case in (Case.CASE_II, Case.SUBORDINATED)
    if variant is None:
        variant = "full" if hull_separated else "half"
    if variant not in ("half", "full"):
        raise ValueError(f"variant must be 'half' or 'full', got {variant!r}")

    if variant == "full":
        theorem = "SHIFT_III"
        radius = problem.d
        cap = SQRT2 * problem.d
    else:
        theorem = "SHIFT_II"
        radius = problem.d / 2.0
        cap = SQRT3_2 * problem.d

    unmet = []
    if variant == "full" and not hull_separated:
        unmet.append("premise not satisfied: hull of sigma is not separated from Sigma")

    delta = delta_v(problem.norm_v, problem.d)
    open_hood = problem.sigma.open_neighborhood(radius)
    closed_hood = problem.sigma.closed_neighborhood(delta)
    eigs = problem.b_eigen.eigenvalues
    tol = problem.eig_tol()
    mask_open, ambiguous, flags_open = select_eigenvalues(eigs, open_hood, tol)
    mask_closed, _, flags_closed = select_eigenvalues(eigs, closed_hood, tol)

    # the intersection equality is only decidable away from ambiguous points
    decided = ~ambiguous
    equality_ok = bool(np.array_equal(mask_open[decided], mask_closed[decided]))
    count_inside = int(mask_closed.sum())
    nonempty = count_inside >= 1
    rank_sigma = problem.projection.rank
    findings = []
    if count_inside != rank_sigma:
        findings.append(
            f"finding: {count_inside} eigenvalues of B persist near sigma but "
            f"rank E_A(sigma) = {rank_sigma}"
        )

    inside_dist = problem.sigma.distance_to_points(eigs[mask_closed])
    measured = float(inside_dist.max()) if inside_dist.size else 0.0
    return _verdict(
        theorem, problem.scale, problem.tol, measured=measured, claimed=delta, dimensional=True,
        margin=cap - problem.norm_v,
        premise=f"premise not satisfied: ||V|| = {problem.norm_v:.12g} is not below {cap:.12g}",
        unmet=unmet, exact=equality_ok and nonempty, premise_first=True,
        witnesses={
            "norm_v": problem.norm_v,
            "d": problem.d,
            "delta_v": delta,
            "radius": radius,
            "inside_open_count": float(int(mask_open.sum())),
            "inside_closed_count": float(count_inside),
            "rank_sigma": float(rank_sigma),
            "intersection_equality": float(equality_ok),
        },
        flags=flags_open + flags_closed,
        findings=findings,
    )
