"""Built-in sharpness examples, seeded problem generation, search, theorem table, batch runs.

The two built-in problems are the classic sharpness configurations: a 4x4
Jacobi-type matrix whose perturbation at exactly sqrt(3)/2 times the gap
empties the open half-gap neighborhood of sigma, and a 3x3 matrix whose
perturbation at exactly sqrt(2) times the gap empties the open full-gap
neighborhood.  The worst-case search probes the unknown optimal constant
between c_pi and sqrt(3)/2; its results are evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    AnalysisReport,
    CaseError,
    PerturbationProblem,
    SQRT2,
    SQRT3_2,
    _verdict,
    gap_persistence,
    shift_bounds,
    spectrum_enclosure,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import Case, SpectralSet, classify_case, locate_points, neighborhood_bounds
from .operators import spectral_norm
from .subspaces import (
    bound_case1,
    bound_case2,
    bound_pair_inequality,
    bound_subordinated,
    maximal_gap_interval,
    tan_theta_bound,
)

CASE1 = "CASE1"
CASE2 = "CASE2"


def builtin_example(which: str, scale: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> PerturbationProblem:
    """The built-in sharpness problems, optionally with V scaled by ``scale``.

    CASE1: A = diag(-3/2, -1/2, 1/2, 3/2), sigma = {-3/2, 1/2}, coupling
    sqrt(3)/2 between the interleaved components (||V|| = sqrt(3)/2, d = 1).
    CASE2: A = diag(-1, 0, 1), sigma = {0}, coupling sqrt(2) between the
    first two coordinates (||V|| = sqrt(2), d = 1).
    """
    key = which.upper()
    if key == CASE1:
        a = np.diag([-1.5, -0.5, 0.5, 1.5]).astype(complex)
        v = np.zeros((4, 4), dtype=complex)
        c = math.sqrt(3.0) / 2.0
        v[0, 1] = v[1, 0] = c
        v[2, 3] = v[3, 2] = c
        sigma = SpectralSet.from_points([-1.5, 0.5])
        Sigma = SpectralSet.from_points([-0.5, 1.5])
    elif key == CASE2:
        a = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        v = np.zeros((3, 3), dtype=complex)
        v[0, 1] = v[1, 0] = math.sqrt(2.0)
        sigma = SpectralSet.from_points([0.0])
        Sigma = SpectralSet.from_points([-1.0, 1.0])
    else:
        raise ValueError(f"unknown example {which!r}; expected CASE1 or CASE2")
    return PerturbationProblem.build(a, scale * v, sigma, Sigma, tol)


@dataclass(frozen=True)
class ProblemSpec:
    """Diagonal layout plus target perturbation strength for one random problem."""

    sigma_values: tuple[float, ...]
    Sigma_values: tuple[float, ...]
    target_norm_ratio: float
    seed: int

    @property
    def dim_sigma(self) -> int:
        return len(self.sigma_values)

    @property
    def dim_Sigma(self) -> int:
        return len(self.Sigma_values)

    def validate(self) -> float:
        """Return the cross-component gap d; raise if the layout is invalid."""
        if not self.sigma_values or not self.Sigma_values:
            raise ValueError("both components need at least one value")
        if not math.isfinite(self.target_norm_ratio) or self.target_norm_ratio < 0:
            raise ValueError("target_norm_ratio must be finite and nonnegative")
        d = min(
            abs(s - t) for s in self.sigma_values for t in self.Sigma_values
        )
        if d <= 0:
            raise ValueError("sigma and Sigma values must be separated")
        return d


def random_problem(spec: ProblemSpec, tol: Tolerances = DEFAULT_TOL) -> PerturbationProblem:
    """Deterministic problem from a spec: diagonal A, Gaussian off-diagonal V.

    V has independent standard complex Gaussian entries in the coupling
    block (diagonal blocks exactly zero) and is rescaled so that
    ||V|| = target_norm_ratio * d to machine precision.
    """
    d = spec.validate()
    n0, n1 = spec.dim_sigma, spec.dim_Sigma
    dim = n0 + n1
    a = np.diag(np.array(spec.sigma_values + spec.Sigma_values, dtype=float)).astype(complex)
    v = np.zeros((dim, dim), dtype=complex)
    if spec.target_norm_ratio > 0:
        rng = np.random.default_rng(spec.seed)
        w = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
        target = spec.target_norm_ratio * d
        w *= target / spectral_norm(w)
        v[:n0, n0:] = w
        v[n0:, :n0] = w.conj().T
    sigma = SpectralSet.from_points(spec.sigma_values)
    Sigma = SpectralSet.from_points(spec.Sigma_values)
    return PerturbationProblem.build(a, v, sigma, Sigma, tol)


def random_problem_spec(
    case: Case | str,
    dim_sigma: int,
    dim_Sigma: int,
    ratio: float,
    seed: int,
    min_gap: float = 0.2,
) -> ProblemSpec:
    """Seeded eigenvalue layout of the requested case.

    Values sit on a grid of sites separated by random gaps of at least
    ``min_gap``, so the cross-component distance never degenerates.
    CASE_I alternates the components along the grid (needs two values on
    each side), CASE_II nests the sigma block between two Sigma flanks,
    SUBORDINATED puts the sigma block wholly below Sigma.
    """
    case = Case(case) if not isinstance(case, Case) else case
    rng = np.random.default_rng(seed)
    total = dim_sigma + dim_Sigma
    gaps = rng.uniform(min_gap, 1.0, total - 1)
    sites = np.concatenate([[0.0], np.cumsum(gaps)]) + rng.uniform(-2.0, -1.0)

    labels = np.zeros(total, dtype=bool)  # True marks sigma
    if case is Case.SUBORDINATED:
        if rng.integers(0, 2):
            labels[:dim_sigma] = True
        else:
            labels[dim_Sigma:] = True
    elif case is Case.CASE_II:
        if dim_Sigma < 2:
            raise ValueError("a CASE_II layout needs at least two Sigma values")
        n_left = int(rng.integers(1, dim_Sigma))
        labels[n_left : n_left + dim_sigma] = True
    else:
        if dim_sigma < 2 or dim_Sigma < 2:
            raise ValueError("a CASE_I layout needs at least two values per component")
        remaining = {True: dim_sigma, False: dim_Sigma}
        turn = bool(rng.integers(0, 2))
        for i in range(total):
            if remaining[turn] == 0:
                turn = not turn
            labels[i] = turn
            remaining[turn] -= 1
            if remaining[not turn] > 0:
                turn = not turn

    spec = ProblemSpec(
        sigma_values=tuple(float(x) for x in sites[labels]),
        Sigma_values=tuple(float(x) for x in sites[~labels]),
        target_norm_ratio=ratio,
        seed=int(rng.integers(0, 2**63 - 1)),
    )
    spec.validate()
    got = _classify_values(spec)
    if got is not case:
        raise RuntimeError(f"layout construction produced {got.value}, wanted {case.value}")
    return spec


def _classify_values(spec: ProblemSpec) -> Case:
    sigma = SpectralSet.from_points(spec.sigma_values)
    Sigma = SpectralSet.from_points(spec.Sigma_values)
    return classify_case(sigma, Sigma).case


# ---------------------------------------------------------------------------
# worst-case search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_problem: PerturbationProblem | None
    trials: int
    c: float
    neighborhood: str
    evaluations: int


# Trials are scored in chunks of at most this many, so memory stays bounded for any trial count.
SEARCH_CHUNK = 256


def _score(
    sig: np.ndarray, Sig: np.ndarray, w: np.ndarray, s: np.ndarray, c: float, half: bool,
    tol: Tolerances,
) -> np.ndarray:
    """||E_A(sigma) - E_B(open neighborhood)|| for a stack of parameterized problems.

    Row t of ``sig`` (T, n0), ``Sig`` (T, n1), ``w`` (T, n0, n1) and ``s``
    (T,) is one problem; all of them go through one stacked SVD for ||w||,
    one stacked ``eigh``, one selection and one stacked SVD for the norm.
    A row whose layout degenerates (gap below the floor) scores -inf.  An
    empty neighborhood gives the zero projection and the value ||P|| = 1:
    that is the sharpness mechanism, scored rather than erred.
    """
    n0, n1 = sig.shape[1], Sig.shape[1]
    dim = n0 + n1
    d = np.abs(sig[:, :, None] - Sig[:, None, :]).min(axis=(1, 2))
    w_norm = np.linalg.svd(w, compute_uv=False)[:, 0]
    live = (d >= 1e-3) & (w_norm >= 1e-14)
    factor = np.divide(s * c * d, w_norm, out=np.zeros_like(d), where=live)
    block = w * factor[:, None, None]
    b = np.zeros((len(d), dim, dim), dtype=complex)
    b.reshape(len(d), -1)[:, :: dim + 1] = np.concatenate([sig, Sig], axis=1)
    b[:, :n0, n0:] = block
    b[:, n0:, :n0] = block.conj().swapaxes(1, 2)
    eigs, vecs = np.linalg.eigh(b)
    lo, hi = neighborhood_bounds(sig, d / 2.0 if half else d)
    mask, _, _ = locate_points(eigs, lo, hi, True, tol.eig(eigs))
    q = (vecs * mask[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    p = np.zeros((dim, dim), dtype=complex)
    p[np.arange(n0), np.arange(n0)] = 1.0
    value = np.linalg.svd(p - q, compute_uv=False)[:, 0]
    return np.where(d < 1e-3, -math.inf, np.where(w_norm < 1e-14, 0.0, value))


def _example_start(dim_sigma: int, dim_Sigma: int, c: float, half: bool):
    """Sharpness-example-shaped start when the dimensions accommodate it."""
    if half and (dim_sigma, dim_Sigma) == (2, 2):
        sig = np.array([-1.5, 0.5])
        Sig = np.array([-0.5, 1.5])
        w = np.diag([SQRT3_2, SQRT3_2]).astype(complex)
        s = min(1.0, SQRT3_2 / c)
        return sig, Sig, w, s
    if not half and (dim_sigma, dim_Sigma) == (1, 2):
        sig = np.array([0.0])
        Sig = np.array([-1.0, 1.0])
        w = np.array([[SQRT2, 0.0]], dtype=complex)
        s = min(1.0, SQRT2 / c)
        return sig, Sig, w, s
    return None


def _starts(chunk: range, dim_sigma: int, dim_Sigma: int, c: float, half: bool, seed: int,
            include_example_start: bool) -> list[np.ndarray]:
    """Stacked start parameters [sig, Sig, w, s], one row per trial index in ``chunk``."""
    sig = np.empty((len(chunk), dim_sigma))
    Sig = np.empty((len(chunk), dim_Sigma))
    w = np.empty((len(chunk), dim_sigma, dim_Sigma), dtype=complex)
    s = np.ones(len(chunk))
    for row, trial in enumerate(chunk):
        start = _example_start(dim_sigma, dim_Sigma, c, half) if (
            trial == 0 and include_example_start
        ) else None
        if start is None:
            rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
            sig[row] = rng.uniform(-2.0, 2.0, dim_sigma)
            Sig[row] = rng.uniform(-2.0, 2.0, dim_Sigma)
            w[row] = rng.standard_normal((dim_sigma, dim_Sigma)) + 1j * rng.standard_normal(
                (dim_sigma, dim_Sigma)
            )
        else:
            sig[row], Sig[row], w[row], s[row] = start
    return [sig, Sig, w, s]


def _coordinates(dim_sigma: int, dim_Sigma: int) -> list[tuple[int, tuple, complex]]:
    """Refinement coordinates in sweep order as (parameter, index, unit step)."""
    return (
        [(0, (i,), 1.0) for i in range(dim_sigma)]
        + [(1, (i,), 1.0) for i in range(dim_Sigma)]
        + [(2, (i, j), unit) for i in range(dim_sigma) for j in range(dim_Sigma)
           for unit in (1.0, 1j)]
        + [(3, (), 1.0)]
    )


def _refine(params: list[np.ndarray], coords, sweeps: int, c: float, half: bool,
            tol: Tolerances) -> np.ndarray:
    """Greedy coordinate refinement of every trial in ``params``, in lockstep; returns the values.

    ``params`` is updated in place.  Each step moves one coordinate of every
    trial by its own step and keeps the move where it improves that trial;
    a trial's step halves after a sweep without improvement.
    """
    value = _score(*params, c, half, tol)
    step = np.full(len(value), 0.25)
    for _ in range(sweeps):
        improved = np.zeros(len(value), dtype=bool)
        for part, index, unit in coords:
            for sign in (1.0, -1.0):
                if part == 3:
                    moved = np.clip(params[3] + sign * step, 0.01, 1.0)
                else:
                    moved = params[part].copy()
                    moved[(slice(None), *index)] += unit * sign * step
                cand = _score(*params[:part], moved, *params[part + 1 :], c, half, tol)
                take = cand > value + 1e-15
                keep = take.reshape((-1,) + (1,) * (moved.ndim - 1))
                params[part] = np.where(keep, moved, params[part])
                value = np.where(take, cand, value)
                improved |= take
        step = np.where(improved, step, step * 0.5)
    return value


def search_worst_case(
    dim_sigma: int = 2,
    dim_Sigma: int = 2,
    c: float = SQRT3_2,
    trials: int = 100,
    seed: int = 0,
    neighborhood: str = "half_d",
    refine_sweeps: int = 2,
    include_example_start: bool = True,
    tol: Tolerances = DEFAULT_TOL,
) -> SearchResult:
    """Multi-start search maximizing the projection difference under ||V|| <= c d.

    Each trial draws a random layout and coupling block (seed derived from
    (seed, trial index), so runs are order-deterministic), then refines by
    greedy coordinate perturbation with shrinking steps: coordinates in
    order, each improvement accepted as soon as it is seen.  Trial 0 starts
    from the matching built-in sharpness example when the dimensions allow.

    Trials are independent and all make the same number of evaluations, so
    they advance in lockstep, in chunks of ``SEARCH_CHUNK``: each step
    scores one candidate per trial with stacked LAPACK calls.  Ties between
    trials go to the lowest trial index.
    """
    if c <= 0:
        raise ValueError("norm-ratio cap c must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if neighborhood not in ("half_d", "full_d"):
        raise ValueError(f"neighborhood must be 'half_d' or 'full_d', got {neighborhood!r}")
    half = neighborhood == "half_d"
    coords = _coordinates(dim_sigma, dim_Sigma)

    best_value = -math.inf
    best_params = None
    for first in range(0, trials, SEARCH_CHUNK):
        chunk = range(first, min(first + SEARCH_CHUNK, trials))
        params = _starts(chunk, dim_sigma, dim_Sigma, c, half, seed, include_example_start)
        value = _refine(params, coords, refine_sweeps, c, half, tol)
        row = int(np.argmax(value))
        if value[row] > best_value:
            best_value = float(value[row])
            best_params = [p[row] for p in params]

    best_problem = None
    if best_params is not None:
        best_problem = _rebuild(*best_params, c, tol)
    return SearchResult(
        best_value=best_value,
        best_problem=best_problem,
        trials=trials,
        c=c,
        neighborhood=neighborhood,
        evaluations=trials * (1 + 2 * refine_sweeps * len(coords)),
    )


def _rebuild(sig, Sig, w, s, c: float, tol: Tolerances) -> PerturbationProblem:
    """The searched problem with each component sorted and the coupling block permuted to match."""
    d = min(abs(x - y) for x in sig for y in Sig)
    ratio = s * c if spectral_norm(w) > 1e-14 else 0.0
    sigma_values = sorted(float(x) for x in sig)
    Sigma_values = sorted(float(x) for x in Sig)
    n0 = len(sig)
    dim = n0 + len(Sig)
    a = np.diag(np.array(sigma_values + Sigma_values)).astype(complex)
    v = np.zeros((dim, dim), dtype=complex)
    if ratio > 0:
        block = w[np.ix_(np.argsort(sig), np.argsort(Sig))]
        block = block * (ratio * d / spectral_norm(block))
        v[:n0, n0:] = block
        v[n0:, :n0] = block.conj().T
    return PerturbationProblem.build(
        a, v, SpectralSet.from_points(sigma_values), SpectralSet.from_points(Sigma_values), tol
    )


# ---------------------------------------------------------------------------
# theorem table and batch verification
# ---------------------------------------------------------------------------


# The theorem table: id -> (check, cases whose default battery runs it), in id order.
# Each check looks its function up in this module when it runs, not when the table is
# built, because the benchmark's tracer (perfbench/spans.py) times the checks by
# rebinding module attributes; a stored function object would escape it.
_EVERY_CASE = frozenset(Case)
_HULL_SEPARATED = frozenset({Case.CASE_II, Case.SUBORDINATED})
THEOREMS = {
    "SHIFT_BOUNDS": (lambda p: shift_bounds(p), _EVERY_CASE),
    "SHIFT_I": (lambda p: spectrum_enclosure(p), _EVERY_CASE),
    "SHIFT_II": (lambda p: gap_persistence(p, variant="half"), frozenset({Case.CASE_I})),
    "SHIFT_III": (lambda p: gap_persistence(p, variant="full"), _HULL_SEPARATED),
    "MAIN": (lambda p: bound_case1(p), frozenset({Case.CASE_I})),
    "CASE2": (lambda p: bound_case2(p), frozenset({Case.CASE_II})),
    "SUBORDINATED": (lambda p: bound_subordinated(p), frozenset({Case.SUBORDINATED})),
    "TAN_THETA": (lambda p: tan_theta_bound(p, maximal_gap_interval(p)), frozenset()),
    "MCE": (lambda p: bound_pair_inequality(p), frozenset()),
}
THEOREM_IDS = tuple(THEOREMS)


def default_battery(case: Case) -> list[str]:
    """The theorem ids run on a problem of ``case`` when none are requested, in id order."""
    return [t for t, (_, cases) in THEOREMS.items() if case in cases]


def run_theorem(problem: PerturbationProblem, theorem: str) -> AnalysisReport:
    """Run the check of a theorem id on ``problem``."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    check, _ = THEOREMS[theorem]
    return check(problem)


def batch_verify(
    specs: list[ProblemSpec], theorems: list[str], tol: Tolerances = DEFAULT_TOL
) -> list[AnalysisReport]:
    """Run the selected checks on every generated problem, in stable order.

    A wrong-case request (e.g. the subordinated bound on an interleaved
    problem) becomes a premise-unsatisfied report rather than an error, so
    one stray problem does not abort a batch.
    """
    reports = []
    for spec in specs:
        problem = random_problem(spec, tol)
        for theorem in theorems:
            try:
                reports.append(run_theorem(problem, theorem))
            except CaseError as exc:
                reports.append(_verdict(
                    theorem, problem.scale, tol, measured=math.nan, claimed=math.inf,
                    margin=-math.inf, unmet=[f"wrong case: {exc}"], witnesses={},
                ))
    return reports


@dataclass(frozen=True)
class BatchSummary:
    total: int
    premise_satisfied: int
    violations: int
    worst_margin: float  # smallest claimed - measured among premise-satisfied checks


def summarize(reports: list[AnalysisReport]) -> BatchSummary:
    sat = [r for r in reports if r.premise_satisfied]
    violations = sum(1 for r in sat if not r.holds)
    worst = math.inf
    for r in sat:
        if math.isfinite(r.claimed_bound) and math.isfinite(r.measured_value):
            worst = min(worst, r.claimed_bound - r.measured_value)
    return BatchSummary(
        total=len(reports),
        premise_satisfied=len(sat),
        violations=violations,
        worst_margin=worst,
    )
