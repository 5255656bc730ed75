"""Built-in sharpness examples, seeded problem generation, search, theorem table, batch runs.

The two built-in problems are the classic sharpness configurations: a 4x4
Jacobi-type matrix whose perturbation at exactly sqrt(3)/2 times the gap
empties the open half-gap neighborhood of sigma, and a 3x3 matrix whose
perturbation at exactly sqrt(2) times the gap empties the open full-gap
neighborhood.  The worst-case search probes the unknown optimal constant
between c_pi and sqrt(3)/2; its results are evidence, not proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    AnalysisReport,
    PerturbationProblem,
    SQRT2,
    SQRT3_2,
    gap_persistence,
    shift_bounds,
    spectrum_enclosure,
)
from .config import DEFAULT_TOL, Tolerances
from .intervals import (
    _HULL_SEPARATED,
    Case,
    SpectralSet,
    _distances,
    locate_points,
    neighborhood_bounds,
)
from .subspaces import (
    bound_case1,
    bound_case2,
    bound_pair_inequality,
    bound_subordinated,
    tan_theta_bound,
)

CASE1 = "CASE1"
CASE2 = "CASE2"


def builtin_example(which: str, scale: float = 1.0) -> PerturbationProblem:
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
        v[0, 1] = v[1, 0] = v[2, 3] = v[3, 2] = SQRT3_2
        sigma = SpectralSet.from_points([-1.5, 0.5])
        Sigma = SpectralSet.from_points([-0.5, 1.5])
    elif key == CASE2:
        a = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        v = np.zeros((3, 3), dtype=complex)
        v[0, 1] = v[1, 0] = SQRT2
        sigma = SpectralSet.from_points([0.0])
        Sigma = SpectralSet.from_points([-1.0, 1.0])
    else:
        raise ValueError(f"unknown example {which!r}; expected CASE1 or CASE2")
    return PerturbationProblem.build(a, scale * v, sigma, Sigma)


_LAYOUT_MIN_GAP = 0.2  # least distance between neighbouring sites of a random_problem_spec layout
_MIN_COUPLING = 1e-14  # a coupling block W with ||W|| below this is no coupling: V = 0


def _scaled_coupling(sig: np.ndarray, Sig: np.ndarray, w: np.ndarray, ratio, d=None,
                     w_norm=None) -> np.ndarray:
    """V of each row: V = [[0, f W], [f W*, 0]] with f making ||V|| = ratio * d.

    ``sig`` (T, n0), ``Sig`` (T, n1), ``w`` (T, n0, n1) and ``ratio`` (T,)
    hold one layout per row; a caller that already has the rows' ``d`` and
    ``w_norm`` passes them.  A row with ||W|| below ``_MIN_COUPLING`` is
    uncoupled: f = 0.  A row with f = 0 gets V = 0 in +0.0 zeros, without the
    -0.0 imaginary parts that conjugating a zero block leaves, so such a
    problem saves V as its diagonal alone.
    """
    if d is None:
        d, w_norm = _distances(sig, sig, Sig, Sig), np.linalg.svd(w, compute_uv=False)[:, 0]
    rows, n0, n1 = w.shape
    factor = np.divide(ratio * d, w_norm, out=np.zeros_like(d), where=w_norm >= _MIN_COUPLING)
    v = np.zeros((rows, n0 + n1, n0 + n1), dtype=complex)
    block = w * factor[:, None, None]
    v[:, :n0, n0:] = block
    v[:, n0:, :n0] = block.conj().swapaxes(1, 2)
    v[factor == 0] = 0.0
    return v


def _diagonal_problems(sig, Sig, w, ratio, tol: Tolerances) -> list[PerturbationProblem]:
    """A = diag(sig, Sig) and V of ``_scaled_coupling`` for each row, as one stack."""
    v = _scaled_coupling(sig, Sig, w, ratio)
    values = np.concatenate([sig, Sig], axis=-1)
    dim = values.shape[-1]
    a = np.zeros((len(values), dim, dim), dtype=complex)
    a.reshape(len(values), -1)[:, :: dim + 1] = values
    # each point set is its sorted points, as degenerate intervals [x, x]
    sig, Sig = np.sort(sig, axis=-1, kind="stable"), np.sort(Sig, axis=-1, kind="stable")
    return PerturbationProblem._build(a, v, (sig, sig), (Sig, Sig), False, tol)


@dataclass(frozen=True)
class ProblemSpec:
    """Diagonal layout plus target perturbation strength for one random problem."""

    sigma_values: tuple[float, ...]
    Sigma_values: tuple[float, ...]
    target_norm_ratio: float
    seed: int

    def __post_init__(self) -> None:  # a spec is validated once, when it is made
        self.validate()

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
        sig, Sig = np.array(self.sigma_values), np.array(self.Sigma_values)
        d = float(_distances(sig, sig, Sig, Sig))  # NaN for values at one infinite end
        if not d > 0:
            raise ValueError("sigma and Sigma values must be separated")
        return d


def _generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, made without its argument dispatch."""
    return np.random.Generator(np.random.PCG64(seed))


def random_problem(spec: ProblemSpec) -> PerturbationProblem:
    """Deterministic problem from a spec: diagonal A, Gaussian off-diagonal V.

    V has independent standard complex Gaussian entries in the coupling
    block (diagonal blocks exactly zero) and is rescaled so that
    ||V|| = target_norm_ratio * d to machine precision.
    """
    return _random_problems([spec], DEFAULT_TOL)[0]


def _random_problems(specs: list[ProblemSpec], tol: Tolerances) -> list[PerturbationProblem]:
    """``random_problem`` of each of the ``specs``, all of one shape, as one stack."""
    # W's real and imaginary parts, drawn in that order by one call per spec
    parts = np.array([_generator(s.seed).standard_normal((2, s.dim_sigma, s.dim_Sigma))
                      for s in specs])
    sig, Sig = np.array([s.sigma_values for s in specs]), np.array([s.Sigma_values for s in specs])
    ratio = np.array([s.target_norm_ratio for s in specs])
    return _diagonal_problems(sig, Sig, parts[:, 0] + 1j * parts[:, 1], ratio, tol)


def random_problem_spec(
    case: Case | str,
    dim_sigma: int,
    dim_Sigma: int,
    ratio: float,
    seed: int,
) -> ProblemSpec:
    """Seeded eigenvalue layout of the requested case.

    Values sit on a grid of sites separated by random gaps of at least
    ``_LAYOUT_MIN_GAP``, so the cross-component distance never degenerates.
    CASE_I alternates the components along the grid (needs two values on
    each side), CASE_II nests the sigma block between two Sigma flanks,
    SUBORDINATED puts the sigma block wholly below Sigma.
    """
    case = Case(case) if not isinstance(case, Case) else case
    rng = _generator(seed)
    total = dim_sigma + dim_Sigma
    gaps = rng.uniform(_LAYOUT_MIN_GAP, 1.0, total - 1)
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
        # alternate from the drawn side while both sides have values, then fill the larger
        first, paired = bool(rng.integers(0, 2)), 2 * min(dim_sigma, dim_Sigma)
        labels[:paired:2], labels[1:paired:2] = first, not first
        labels[paired:] = dim_sigma > dim_Sigma

    return ProblemSpec(
        sigma_values=tuple(sites[labels].tolist()),
        Sigma_values=tuple(sites[~labels].tolist()),
        target_norm_ratio=ratio,
        seed=int(rng.integers(0, 2**63 - 1)),
    )


def random_problem_specs(case: Case | str, dim_sigma: int, dim_Sigma: int, ratio: float,
                         trials: int, seed: int) -> list[ProblemSpec]:
    """The ``trials`` specs of ``verify --random``, each seeded by one generator of ``seed``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = _generator(seed)
    return [random_problem_spec(case, dim_sigma, dim_Sigma, ratio, int(rng.integers(0, 2**63 - 1)))
            for _ in range(trials)]


# ---------------------------------------------------------------------------
# worst-case search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    trials: int
    c: float
    neighborhood: str
    evaluations: int  # candidate moves, 1 + 2 sweeps P per trial: not the rows scored
    _best: tuple | None = field(default=None, repr=False, compare=False)  # _rebuild's arguments

    @functools.cached_property
    def best_problem(self) -> PerturbationProblem | None:
        """The best trial's problem, built on first read; None when every trial degenerated."""
        return None if self._best is None else _rebuild(*self._best)


# Trials are scored in chunks of at most this many, so memory stays bounded for any trial count.
SEARCH_CHUNK = 256


def _pack(sig, Sig, w, s) -> np.ndarray:
    """One real parameter vector per trial: [sig (n0), Sig (n1), W as (re, im) pairs, s].

    ``sig``, ``Sig``, ``w`` and ``s`` share any leading shape; W is laid out
    row-major, so a trial has P = n0 + n1 + 2 n0 n1 + 1 entries.  This and
    ``_unpack`` are the only code that knows the layout.
    """
    re_im = w.reshape(*w.shape[:-2], -1).view(float)
    return np.concatenate([sig, Sig, re_im, np.asarray(s, dtype=float)[..., None]], axis=-1)


def _unpack(x: np.ndarray, dims: tuple[int, int]):
    """(sig, Sig, w, s) of the trials in ``x`` (..., P), as views: the inverse of ``_pack``."""
    n0, n1 = dims
    end = n0 + n1 + 2 * n0 * n1
    w = x[..., n0 + n1 : end].view(complex).reshape(*x.shape[:-1], n0, n1)
    return x[..., :n0], x[..., n0 : n0 + n1], w, x[..., end]


# The parts of ``_columns`` that moving one coordinate changes, as bit flags: the gap d with
# sigma's neighbourhood, which sig and Sig move, and ||W||, which W moves; s moves neither.
_GAP, _COUPLING = 1, 2


def _parts(dims: tuple[int, int]) -> np.ndarray:
    """The part of ``_columns`` that each coordinate of a trial moves, in ``_pack``'s layout."""
    n0, n1 = dims
    return _pack(np.full(n0, _GAP), np.full(n1, _GAP), np.full((n0, n1), _COUPLING * (1 + 1j)),
                 0).astype(int)


def _columns(x: np.ndarray, dims: tuple[int, int], half: bool, parts: int = _GAP | _COUPLING,
             out: np.ndarray | None = None) -> np.ndarray:
    """What ``_score`` derives from each trial of ``x`` (T, P) before its ``eigh``: (T, 2 + 2 n0).

    The columns are [d, ||W||, lo (n0), hi (n0)], with lo and hi the ends of
    sigma's neighbourhood of radius d / 2 (``half``) or d.  Only the ``parts``
    are computed, into ``out`` when it is given; the rest of ``out`` is kept.
    """
    sig, Sig, w, _ = _unpack(x, dims)
    n0 = dims[0]
    if out is None:
        out = np.empty((len(x), 2 + 2 * n0))
    if parts & _GAP:
        d = _distances(sig, sig, Sig, Sig)
        out[:, 0] = d
        out[:, 2 : 2 + n0], out[:, 2 + n0 :] = neighborhood_bounds(sig, d / 2.0 if half else d)
    if parts & _COUPLING:
        out[:, 1] = np.linalg.svd(w, compute_uv=False)[:, 0]
    return out


def _score(x: np.ndarray, dims: tuple[int, int], c: float, half: bool, tol: Tolerances,
           columns: np.ndarray | None = None) -> np.ndarray:
    """||E_A(sigma) - E_B(open neighborhood)|| for a stack ``x`` (T, P) of packed trials.

    Each row is one problem; all of them go through one stacked ``eigh``, one
    selection and one stacked SVD for the norm, after the ``_columns`` of
    ``x``, which a caller that carries them passes.  A row whose selection Q
    has the rank n0 of P = E_A(sigma), the first n0 coordinates, scores
    ||P Q_perp||: the top singular value of the n0 x n1 block of B's
    eigenvectors, rows :n0 and the columns outside the mask, the block
    ``subspaces._difference`` takes first at equal ranks.  Any other rank
    scores ||P - Q|| = 1 exactly: an empty neighborhood is the sharpness
    mechanism, scored rather than erred.  A row whose layout degenerates
    (gap below the floor) scores -inf.
    """
    sig, Sig, w, s = _unpack(x, dims)
    n0, n1 = dims
    if columns is None:
        columns = _columns(x, dims, half)
    d, w_norm = columns[:, 0], columns[:, 1]
    b = _scaled_coupling(sig, Sig, w, s * c, d, w_norm)
    b.reshape(len(d), -1)[:, :: n0 + n1 + 1] = np.concatenate([sig, Sig], axis=1)
    eigs, vecs = np.linalg.eigh(b)
    lo, hi = columns[:, 2 : 2 + n0], columns[:, 2 + n0 :]
    mask, _, _ = locate_points(eigs, lo, hi, True, tol.eig(eigs))
    value, equal = np.ones(len(d)), mask.sum(axis=1) == n0
    # the equal rows' eigenvectors outside the mask, in order, each cut to its first n0 entries
    outside = vecs.swapaxes(1, 2)[~mask & equal[:, None], :n0]
    value[equal] = np.linalg.svd(outside.reshape(-1, n1, n0).swapaxes(1, 2),
                                 compute_uv=False)[:, 0]
    return np.where(d < 1e-3, -math.inf, np.where(w_norm >= _MIN_COUPLING, value, 0.0))


def _example_start(dims: tuple[int, int], c: float, half: bool) -> np.ndarray | None:
    """Sharpness-example-shaped start when the dimensions accommodate it."""
    if half and dims == (2, 2):
        w = np.diag([SQRT3_2, SQRT3_2]).astype(complex)
        return _pack(np.array([-1.5, 0.5]), np.array([-0.5, 1.5]), w, min(1.0, SQRT3_2 / c))
    if not half and dims == (1, 2):
        w = np.array([[SQRT2, 0.0]], dtype=complex)
        return _pack(np.array([0.0]), np.array([-1.0, 1.0]), w, min(1.0, SQRT2 / c))
    return None


def _starts(chunk: range, dims: tuple[int, int], c: float, half: bool, seed: int) -> np.ndarray:
    """Packed start trials, one row per trial index in ``chunk``.

    Trial 0 starts from ``_example_start`` when the dimensions allow it.
    """
    rows = []
    for trial in chunk:
        start = _example_start(dims, c, half) if trial == 0 else None
        if start is None:
            rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
            sig = rng.uniform(-2.0, 2.0, dims[0])
            Sig = rng.uniform(-2.0, 2.0, dims[1])
            w = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            start = _pack(sig, Sig, w, 1.0)
        rows.append(start)
    return np.stack(rows)


def _moved(xk: np.ndarray, delta: np.ndarray, clip: bool) -> np.ndarray:
    """Coordinate values ``xk`` moved by ``delta``; s (``clip``) stays in [0.01, 1]."""
    moved = xk + delta
    return np.clip(moved, 0.01, 1.0) if clip else moved


def _refine(x: np.ndarray, dims: tuple[int, int], sweeps: int, c: float, half: bool,
            tol: Tolerances) -> np.ndarray:
    """Greedy coordinate refinement of every trial in ``x`` (T, P), in lockstep; returns the values.

    ``x`` is updated in place.  Each step moves one coordinate of every
    trial by + and then - its own step and keeps a move where it improves
    that trial; a trial's step halves after a sweep without improvement.
    The last coordinate, s, stays in [0.01, 1].  Each step is one stacked
    call: both moves from the same x, and the - move redone from the + move
    where it lands off the old x's bits, taken where the + move is kept.  No
    row's score depends on another's: the trajectory is one move at a time.

    Each trial carries its ``_columns``; a step's rows recompute only the
    part that its coordinate moves, and the kept row of each trial, with its
    columns, is gathered from the step's rows.
    """
    columns = _columns(x, dims, half)
    value = _score(x, dims, c, half, tol, columns)
    n, trials = len(x), np.arange(len(x))
    step = np.full(n, 0.25)
    parts, last = _parts(dims), x.shape[1] - 1
    for _ in range(sweeps):
        improved = np.zeros(n, dtype=bool)
        for k in range(x.shape[1]):
            plus, minus = _moved(x[:, k], step, k == last), _moved(x[:, k], -step, k == last)
            back = _moved(plus, -step, k == last)
            again = np.flatnonzero(back.view(np.uint64) != x[:, k].view(np.uint64))
            # rows: each trial's x, then its + move, its - move and its redone - move, scored
            source = np.concatenate([trials, trials, trials, again])
            rows, carried = x[source], columns[source]
            rows[n:, k] = np.concatenate([plus, minus, back[again]])
            _columns(rows[n:], dims, half, parts[k], carried[n:])
            values = np.concatenate([value, _score(rows[n:], dims, c, half, tol, carried[n:])])
            pick = np.where(values[n : 2 * n] > value + 1e-15, trials + n, trials)
            # the - move from x, or from the kept + move: redone, or x where it lands back on x
            redone = trials.copy()
            redone[again] = np.arange(3 * n, len(rows))
            minus_row = np.where(pick == trials, trials + 2 * n, redone)
            pick = np.where(values[minus_row] > values[pick] + 1e-15, minus_row, pick)
            x[:], columns, value = rows[pick], carried[pick], values[pick]
            improved |= pick != trials
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
    scores the moves of every trial in one stacked call.  Ties between
    trials go to the lowest trial index.
    """
    for name, dim in (("dim_sigma", dim_sigma), ("dim_Sigma", dim_Sigma)):
        if dim < 1:
            raise ValueError(f"{name} must be at least 1, got {dim}")
    if not 0 < c < math.inf:
        raise ValueError(f"norm-ratio cap c must be positive and finite, got {c}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if refine_sweeps < 0:
        raise ValueError(f"refine_sweeps must be nonnegative, got {refine_sweeps}")
    if neighborhood not in ("half_d", "full_d"):
        raise ValueError(f"neighborhood must be 'half_d' or 'full_d', got {neighborhood!r}")
    half = neighborhood == "half_d"
    dims = (dim_sigma, dim_Sigma)

    best_value = -math.inf
    best_x = None
    for first in range(0, trials, SEARCH_CHUNK):
        x = _starts(range(first, min(first + SEARCH_CHUNK, trials)), dims, c, half, seed)
        value = _refine(x, dims, refine_sweeps, c, half, tol)
        row = int(np.argmax(value))
        if value[row] > best_value:
            best_value = float(value[row])
            best_x = x[row]

    return SearchResult(
        best_value=best_value,
        trials=trials,
        c=c,
        neighborhood=neighborhood,
        evaluations=trials * (1 + 2 * refine_sweeps * x.shape[1]),
        _best=None if best_x is None else (best_x, dims, c, tol),
    )


def _rebuild(x: np.ndarray, dims: tuple[int, int], c: float,
             tol: Tolerances) -> PerturbationProblem:
    """The searched problem with each component sorted and the coupling block permuted to match."""
    sig, Sig, w, s = _unpack(x, dims)
    rows, cols = np.argsort(sig), np.argsort(Sig)
    sorted_w = w[np.ix_(rows, cols)]
    return _diagonal_problems(sig[rows][None], Sig[cols][None], sorted_w[None], s * c, tol)[0]


# ---------------------------------------------------------------------------
# theorem table and batch verification
# ---------------------------------------------------------------------------


# The theorem table: id -> (check, cases whose default battery runs it), in id order.
# Each check looks its function up in this module when it runs, not when the table is
# built, because the benchmark's tracer (perfbench/spans.py) times the checks by
# rebinding module attributes; a stored function object would escape it.
_EVERY_CASE = frozenset(Case)
THEOREMS = {
    "SHIFT_BOUNDS": (lambda p: shift_bounds(p), _EVERY_CASE),
    "SHIFT_I": (lambda p: spectrum_enclosure(p), _EVERY_CASE),
    "SHIFT_II": (lambda p: gap_persistence(p, variant="half"), frozenset({Case.CASE_I})),
    "SHIFT_III": (lambda p: gap_persistence(p, variant="full"), _HULL_SEPARATED),
    "MAIN": (lambda p: bound_case1(p), frozenset({Case.CASE_I})),
    "CASE2": (lambda p: bound_case2(p), frozenset({Case.CASE_II})),
    "SUBORDINATED": (lambda p: bound_subordinated(p), frozenset({Case.SUBORDINATED})),
    "TAN_THETA": (lambda p: tan_theta_bound(p), frozenset()),
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
    problem) gives the check's premise-unsatisfied report, as on a lone
    problem.  The problems of one shape are generated, built and checked as
    one stack; each report is the one the problem would get alone.
    """
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        shapes.setdefault((spec.dim_sigma, spec.dim_Sigma), []).append(i)
    problems = [None] * len(specs)
    for rows in shapes.values():
        for i, problem in zip(rows, _random_problems([specs[i] for i in rows], tol)):
            problems[i] = problem
    return [run_theorem(problem, theorem) for problem in problems for theorem in theorems]


@dataclass(frozen=True)
class BatchSummary:
    total: int
    premise_satisfied: int
    violations: int
    worst_margin: float  # smallest claimed - measured among premise-satisfied checks


def summarize(reports: list[AnalysisReport]) -> BatchSummary:
    sat = [r for r in reports if r.premise_satisfied]
    margins = [r.claimed_bound - r.measured_value for r in sat
               if math.isfinite(r.claimed_bound) and math.isfinite(r.measured_value)]
    return BatchSummary(total=len(reports), premise_satisfied=len(sat),
                        violations=sum(not r.holds for r in sat),
                        worst_margin=min(margins, default=math.inf))
