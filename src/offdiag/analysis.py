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
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .intervals import (
    _CLASSES,
    _HULL_SEPARATED,
    SpectralSet,
    _classify,
    _distances,
    locate_points,
    neighborhood_bounds,
    points_distance,
)
from .operators import (
    EigenDecomposition,
    OrthogonalProjection,
    ValidationError,
    _blocks,
    _eigh,
    _finite,
    _mask_groups,
    _select,
    _validated,
    hermitian_eigendecompose,
    norm_exceeds,
    projection_from_eigenvectors,
    spectral_norm,
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
    if not 0 < d < math.inf:
        raise ValueError(f"gap d must be positive and finite, got {d}")
    if not norm_v >= 0:
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
    if not norm_v >= 0:
        raise ValueError(f"perturbation norm must be nonnegative, got {norm_v}")
    gap_inf, gap_sup = abs(a1_inf - a0_inf), abs(a1_sup - a0_sup)
    if not (gap_inf < math.inf and gap_sup < math.inf):  # a NaN fails this too
        _require_finite(a0_inf=a0_inf, a0_sup=a0_sup, a1_inf=a1_inf, a1_sup=a1_sup)
    return _half_angle_shift(norm_v, gap_inf), _half_angle_shift(norm_v, gap_sup)


def two_by_two_extremes(a0: float, a1: float, v: complex) -> tuple[float, float]:
    """Eigenvalues (lambda, mu) of [[a0, v], [conj(v), a1]], lambda <= mu.

    lambda = min{a0, a1} - s and mu = max{a0, a1} + s with the half-angle
    shift s = |v| tan(arctan(2|v| / |a1 - a0|) / 2); this is algebraically
    the exact eigenvalue pair.
    """
    s = _half_angle_shift(abs(v), abs(a1 - a0))
    if not s < math.inf:  # a NaN fails it too; one comparison, as qnr_sample calls this per sample
        _require_finite(a0=a0, a1=a1, v=abs(v))
    return min(a0, a1) - s, max(a0, a1) + s


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite, or else the overflow."""
    bad = [f"{k} must be finite, got {x}" for k, x in values.items() if not math.isfinite(x)]
    raise ValueError(bad[0] if bad else f"the shift overflows: {values}")


# ---------------------------------------------------------------------------
# problem bundle and reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Stack:
    """The problems of one ``_build`` call: their arrays and numbers by row.

    ``_build`` derives every field once, the checks read them, and a problem
    is a view of one row, whatever its case: each row reads its case from its
    classification ``kind``.  The stack refers to none of its problems, so they
    and it are freed by reference counting as soon as the problems are dropped.
    """

    a: np.ndarray  # (T, n, n)
    v: np.ndarray
    a_eigen: EigenDecomposition  # eigenvalues (T, n), eigenvectors (T, n, n)
    b_eigen: EigenDecomposition
    sigma_mask: np.ndarray  # (T, n)
    kind: np.ndarray  # (T,): each row's index into intervals._CLASSES
    sigma_ends: tuple  # stacked (lo, hi) of sigma (T, m0) and of Sigma (T, m1): d's endpoints
    Sigma_ends: tuple
    is_open: bool
    d: np.ndarray  # (T,)
    norm_v: np.ndarray
    delta: np.ndarray  # delta_v(norm_v, d)
    scale: np.ndarray  # the unit of each row's verdict slack
    tol: Tolerances
    eig_tol: np.ndarray  # placement tolerance of B's eigenvalues
    # ||U_A[:, mask_a]* U_B[:, mask_b]|| per row, keyed by (mask_a.tobytes(), mask_b.tobytes());
    # the subspace checks fill it, so every check on a row computes each block once
    block_norms: list
    memo: dict = field(default_factory=dict)  # what the checks computed for the stack, by key

    def numbers(self) -> list[tuple[float, float, float, float]]:
        """``(d, ||V||, delta_V, scale)`` of each row, as floats."""
        return list(zip(*(x.tolist() for x in (self.d, self.norm_v, self.delta, self.scale))))


def _memo(problem: "PerturbationProblem", key, compute):
    """``problem``'s entry of ``compute(stack)``, computed for its whole stack once per ``key``."""
    memo = problem._stack.memo
    if key not in memo:
        memo[key] = compute(problem._stack)
    return memo[key][problem._row]


def _near(ends: tuple, radius: np.ndarray, is_open: bool, values: np.ndarray, tol) -> tuple:
    """``_select`` of each row of ``values`` in the open or closed neighborhood of its ``ends``."""
    return _select(values, *neighborhood_bounds(ends[0], radius, ends[1]), is_open, tol)


def _row_of(read) -> property:
    """The property that reads a problem's row of its stack: ``read(stack, row)``."""
    return property(lambda self: read(self._stack, self._row))


@dataclass(frozen=True, eq=False)
class PerturbationProblem:
    """Validated bundle (A, V, sigma, Sigma) with cached decompositions: a view of a stack's row."""

    _stack: _Stack = field(repr=False)  # the problems built with this one ...
    _row: int  # ... of which this is row _row

    a = _row_of(lambda s, i: s.a[i])
    v = _row_of(lambda s, i: s.v[i])
    sigma = _row_of(lambda s, i: SpectralSet(zip(*(x[i] for x in s.sigma_ends)), s.is_open))
    Sigma = _row_of(lambda s, i: SpectralSet(zip(*(x[i] for x in s.Sigma_ends)), s.is_open))
    d = _row_of(lambda s, i: float(s.d[i]))
    sigma_mask = _row_of(lambda s, i: s.sigma_mask[i])  # A's eigenvalues (ascending) in sigma
    classification = _row_of(lambda s, i: _CLASSES[s.kind[i]])
    tol = _row_of(lambda s, i: s.tol)
    a_eigen = _row_of(lambda s, i: s.a_eigen[i])
    b_eigen = _row_of(lambda s, i: s.b_eigen[i])
    norm_v = _row_of(lambda s, i: float(s.norm_v[i]))
    # max(max |eigenvalue of A|, ||V||, d): the unit of every verdict's slack
    scale = _row_of(lambda s, i: float(s.scale[i]))

    b = _row_of(lambda s, i: s.a[i] + s.v[i])
    dim = _row_of(lambda s, i: s.a.shape[-1])
    case = _row_of(lambda s, i: _CLASSES[s.kind[i]].case)

    @property
    def projection(self) -> OrthogonalProjection:
        """E_A(sigma): A's eigenvector columns that ``sigma_mask`` picks, and the rest."""
        return projection_from_eigenvectors(self.a_eigen, self.sigma_mask)

    def eig_tol(self, decomposition: EigenDecomposition | None = None) -> float:
        dec = self.b_eigen if decomposition is None else decomposition
        return self.tol.eig(dec.eigenvalues)

    @classmethod
    def build(
        cls, a, v, sigma: SpectralSet, Sigma: SpectralSet, tol: Tolerances = DEFAULT_TOL
    ) -> "PerturbationProblem":
        if sigma.is_open != Sigma.is_open:
            raise ValidationError("sigma and Sigma must be both open or both closed")
        for s in (sigma, Sigma):
            s._require_nonempty()
        ends = [(s.lo[None], s.hi[None]) for s in (sigma, Sigma)]
        return cls._build(np.asarray(a)[None], np.asarray(v)[None], *ends, sigma.is_open, tol)[0]

    @classmethod
    def _build(cls, a, v, sigma_ends, Sigma_ends, is_open: bool, tol: Tolerances
               ) -> list["PerturbationProblem"]:
        """The problems of stacks A, V (T, n, n) and of sigma and Sigma, in order.

        Each set is its stacked normalized endpoints ``(lo, hi)`` (T, m), in which
        a row may repeat its last interval.  Every step runs once on the whole
        stack, and the rows, of any cases, form one ``_Stack``.
        """
        (a, exact_a), (v, exact_v) = _validated(a, tol), _validated(v, tol)
        if a.shape != v.shape:
            raise ValidationError(f"A and V have different shapes: {a.shape[1:]} vs {v.shape[1:]}")
        dim = a.shape[-1]
        if dim < 2:
            raise ValidationError("a perturbation problem needs dimension at least 2")

        ends = (sigma_ends, Sigma_ends)
        d = _distances(*sigma_ends, *Sigma_ends)
        if not d.min() > 0:  # a NaN distance, of two sets at one infinite end, is none
            raise ValidationError("sigma and Sigma must be separated (distance > 0)")
        kind = _classify(sigma_ends, Sigma_ends)

        a_eigen = _eigh(a)
        values = a_eigen.eigenvalues
        norm_a = np.abs(values).max(axis=-1)
        eig_tol = tol.eig(values)
        closed = [locate_points(values, *part, False, eig_tol)[0] for part in ends]
        outside = ~(closed[0] | closed[1])
        if outside.any():
            x = float(values[outside][0])
            raise ValidationError(f"eigenvalue {x!r} of A lies outside sigma union Sigma")
        # A's eigenvalues sit on sigma and Sigma; no report keeps these boundary events
        mask_sigma, mask_Sigma = (
            locate_points(values, *part, True, eig_tol)[0] if is_open else inside
            for part, inside in zip(ends, closed)
        )
        if np.any(mask_sigma & mask_Sigma):
            raise ValidationError("an eigenvalue of A is claimed by both components")
        if not (mask_sigma.any(axis=-1) & mask_Sigma.any(axis=-1)).all():
            raise ValidationError("both components must contain spectrum of A")

        # ||P V P||, ||P-perp V P-perp|| and ||[A, P]|| = max(||P-perp A P||, ||P A P-perp||)
        # on the blocks of the eigenvector bases, which a diagonal A's permutation bases gather;
        # with V = 0 the blocks are exactly zero and never exceed a zero bound
        norm_v = spectral_norm(v)
        off_bound = tol.offdiag * norm_v
        commutator_bound = tol.proj(dim) * norm_a
        for rows, i_in, i_out in _mask_groups(mask_sigma, ~mask_sigma):
            off = off_bound[rows]
            if any(norm_exceeds(_blocks(a_eigen, rows, x, x, v), off).any() for x in (i_in, i_out)):
                raise ValidationError(
                    "V is not off-diagonal with respect to the sigma/Sigma splitting"
                )
            if any(norm_exceeds(_blocks(a_eigen, rows, x, y, a), commutator_bound[rows]).any()
                   for x, y in ((i_out, i_in), (i_in, i_out))):
                raise ValidationError("spectral projection does not commute with A")

        # A + V of exactly Hermitian A and V is exactly Hermitian; only an overflow can spoil it
        b = a + v
        b_eigen = _eigh(_finite(b)) if exact_a and exact_v else hermitian_eigendecompose(b, tol)
        scale = np.maximum(np.maximum(norm_a, norm_v), d)
        delta = np.array([delta_v(x, y) for x, y in zip(norm_v.tolist(), d.tolist())])
        stack = _Stack(
            a=a, v=v, a_eigen=a_eigen, b_eigen=b_eigen, sigma_mask=mask_sigma, kind=kind,
            sigma_ends=sigma_ends, Sigma_ends=Sigma_ends, is_open=is_open, d=d, norm_v=norm_v,
            delta=delta, scale=scale, tol=tol, eig_tol=tol.eig(b_eigen.eigenvalues),
            block_norms=[{} for _ in a],
        )
        return [cls(stack, row) for row in range(len(a))]


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
        return {**asdict(self), "flags": list(self.flags)}


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


def shift_bounds(problem: PerturbationProblem) -> AnalysisReport:
    """Two-sided bounds on inf B and sup B via the directional shifts.

    Checks inf A - delta_left <= inf B <= inf A and
    sup A <= sup B <= sup A + delta_right.  Violations are reported, not
    raised; measured_value is the worst signed violation (<= 0 means all
    four inequalities hold).
    """
    return _memo(problem, "SHIFT_BOUNDS", _shift_bounds)


def _shift_bounds(stack: _Stack) -> list[AnalysisReport]:
    wa, wb = stack.a_eigen.eigenvalues, stack.b_eigen.eigenvalues
    # inf and sup of A on Ran P and on Ran P-perp, then of A and of B
    ends = []
    for part in (stack.sigma_mask, ~stack.sigma_mask):
        ends += [np.where(part, wa, np.inf).min(axis=-1), np.where(part, wa, -np.inf).max(axis=-1)]
    ends += [wa.min(axis=-1), wa.max(axis=-1), wb.min(axis=-1), wb.max(axis=-1)]
    reports = []
    for (_, norm_v, _, scale), (a0_inf, a0_sup, a1_inf, a1_sup, inf_a, sup_a, inf_b, sup_b) in zip(
        stack.numbers(), np.stack(ends, axis=-1).tolist()
    ):
        dl, dr = delta_v_directional(a0_inf, a0_sup, a1_inf, a1_sup, norm_v)
        violation = max(
            (inf_a - dl) - inf_b,
            inf_b - inf_a,
            sup_a - sup_b,
            sup_b - (sup_a + dr),
        )
        reports.append(_verdict(
            "SHIFT_BOUNDS", scale, stack.tol, measured=violation, claimed=0.0, dimensional=True,
            witnesses={
                "inf_a": inf_a,
                "sup_a": sup_a,
                "inf_b": inf_b,
                "sup_b": sup_b,
                "delta_left": dl,
                "delta_right": dr,
                "norm_v": norm_v,
            },
        ))
    return reports


def spectrum_enclosure(problem: PerturbationProblem) -> AnalysisReport:
    """Every eigenvalue of B lies in the closed delta_V-neighborhood of spec(A).

    Unconditional.  measured_value is the largest excursion of a
    B-eigenvalue from sigma union Sigma; the claimed bound is delta_V.
    """
    return _memo(problem, "SHIFT_I", _enclosure)


def _enclosure(stack: _Stack) -> list[AnalysisReport]:
    eigs = stack.b_eigen.eigenvalues
    excursions = np.minimum(*(
        points_distance(eigs, *ends) for ends in (stack.sigma_ends, stack.Sigma_ends)
    ))
    shift, tol = stack.delta[:, None], stack.eig_tol[:, None]
    attained = (np.abs(excursions - shift) <= tol) & (shift > tol)
    return [
        _verdict(
            "SHIFT_I", scale, stack.tol, measured=measured, claimed=delta, dimensional=True,
            witnesses={"norm_v": norm_v, "d": d, "delta_v": delta},
            flags=[
                f"eigenvalue {float(x):.12g} attains the enclosure boundary exactly" for x in e[hit]
            ],
        )
        for (d, norm_v, delta, scale), measured, e, hit in zip(
            stack.numbers(), excursions.max(axis=-1).tolist(), eigs, attained
        )
    ]


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
    if variant is None:
        variant = "full" if problem.case in _HULL_SEPARATED else "half"
    if variant not in ("half", "full"):
        raise ValueError(f"variant must be 'half' or 'full', got {variant!r}")
    return _memo(problem, variant, lambda stack: _persistence(stack, variant == "full"))


def _persistence(stack: _Stack, full: bool) -> list[AnalysisReport]:
    eigs, tol = stack.b_eigen.eigenvalues, stack.eig_tol
    radius = stack.d if full else stack.d / 2.0
    mask_open, ambiguous, flags_open = _near(stack.sigma_ends, radius, True, eigs, tol)
    mask_closed, _, flags_closed = _near(stack.sigma_ends, stack.delta, False, eigs, tol)
    # the intersection equality is only decidable away from ambiguous points
    equality = ((mask_open == mask_closed) | ambiguous).all(axis=-1).tolist()
    inside = np.where(mask_closed, points_distance(eigs, *stack.sigma_ends), -np.inf)
    measured = np.where(mask_closed.any(axis=-1), inside.max(axis=-1), 0.0).tolist()
    separated = [not full or _CLASSES[k].case in _HULL_SEPARATED for k in stack.kind.tolist()]
    reports = []
    for i, (d, norm_v, delta, scale) in enumerate(stack.numbers()):
        theorem, cap = ("SHIFT_III", SQRT2 * d) if full else ("SHIFT_II", SQRT3_2 * d)
        count_inside = int(mask_closed[i].sum())
        rank_sigma = int(np.count_nonzero(stack.sigma_mask[i]))
        findings = []
        if count_inside != rank_sigma:
            findings.append(
                f"finding: {count_inside} eigenvalues of B persist near sigma but "
                f"rank E_A(sigma) = {rank_sigma}"
            )
        reports.append(_verdict(
            theorem, scale, stack.tol, measured=measured[i], claimed=delta, dimensional=True,
            margin=cap - norm_v,
            premise=f"premise not satisfied: ||V|| = {norm_v:.12g} is not below {cap:.12g}",
            unmet=[] if separated[i] else [
                "premise not satisfied: hull of sigma is not separated from Sigma"],
            exact=equality[i] and count_inside >= 1, premise_first=True,
            witnesses={
                "norm_v": norm_v,
                "d": d,
                "delta_v": delta,
                "radius": float(radius[i]),
                "inside_open_count": float(int(mask_open[i].sum())),
                "inside_closed_count": float(count_inside),
                "rank_sigma": float(rank_sigma),
                "intersection_equality": float(equality[i]),
            },
            flags=flags_open[i] + flags_closed[i],
            findings=findings,
        ))
    return reports
