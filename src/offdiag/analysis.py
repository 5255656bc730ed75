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

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

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
    norm_exceeds,
    projection_from_eigenvectors,
    spectral_norm,
    validate_hermitian,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
SQRT2 = math.sqrt(2.0)
# per index into intervals._CLASSES: whether a component's convex hull is separated
_HULL_KINDS = np.array([c.case in _HULL_SEPARATED for c in _CLASSES])


def _half_angle_shift(norm_v: float, gap: float) -> float:
    # (sqrt(gap^2 + 4 v^2) - gap) / 2; hypot keeps it accurate for all ratios
    return 0.5 * (math.hypot(gap, 2.0 * norm_v) - gap)


def delta_v(norm_v: float, d: float) -> float:
    """Maximal spectral shift ||V|| tan(arctan(2||V||/d)/2) for gap d > 0.

    Strictly increasing in ``norm_v`` and always strictly below it.
    """
    if not 0 < d < math.inf:
        raise ValueError(f"gap d must be positive and finite, got {d}")
    if not 0 <= norm_v < math.inf:
        raise ValueError(f"perturbation norm must be finite and nonnegative, got {norm_v}")
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
    if not 0 <= norm_v < math.inf:
        raise ValueError(f"perturbation norm must be finite and nonnegative, got {norm_v}")
    gap_inf, gap_sup = abs(a1_inf - a0_inf), abs(a1_sup - a0_sup)
    if not (gap_inf < math.inf and gap_sup < math.inf):  # a NaN fails this too
        _require_finite(a0_inf=a0_inf, a0_sup=a0_sup, a1_inf=a1_inf, a1_sup=a1_sup)
    return _half_angle_shift(norm_v, gap_inf), _half_angle_shift(norm_v, gap_sup)


def two_by_two_extremes(a0, a1, v):
    """Eigenvalues (lambda, mu) of [[a0, v], [conj(v), a1]], lambda <= mu, entry by entry.

    lambda = min{a0, a1} - s and mu = max{a0, a1} + s with the half-angle
    shift s = |v| tan(arctan(2|v| / |a1 - a0|) / 2); this is algebraically
    the exact eigenvalue pair.  Arrays of one length give arrays, scalars
    floats; |v| and s use CPython's ``abs`` and ``math.hypot`` per entry,
    as numpy's round otherwise in the last bit on some entries.
    """
    scalar = np.ndim(a0) == 0
    a0, a1, v = np.atleast_1d(np.asarray(a0, float), np.asarray(a1, float), np.asarray(v, complex))
    norm_v = list(map(abs, v.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in float arithmetic
        s = np.fromiter(map(_half_angle_shift, norm_v, np.abs(a1 - a0).tolist()), float, v.size)
        lam, mu = np.where(a1 < a0, a1, a0) - s, np.where(a1 > a0, a1, a0) + s
    if not (s < math.inf).all():  # a NaN fails it too
        i = np.argmin(s < math.inf)
        _require_finite(a0=a0[i].item(), a1=a1[i].item(), v=norm_v[i])
    return (lam.item(), mu.item()) if scalar else (lam, mu)


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
    # what the checks computed for the stack, each entry keyed by what it holds: a report list
    # by theorem id, B's selections and distances by their sets' bytes (_region, _distance),
    # and a block norm by its row and masks (subspaces._block_norms), so each is computed once
    memo: dict = field(default_factory=dict)


def _memo(problem: "PerturbationProblem", key, compute):
    """``problem``'s entry of ``compute(stack)``, computed for its whole stack once per ``key``."""
    memo = problem._stack.memo
    if key not in memo:
        memo[key] = compute(problem._stack)
    return memo[key][problem._row]


def _region(stack: _Stack, ends: tuple, radius: np.ndarray | None = None,
            is_open: bool = False):
    """``_select`` of B's eigenvalues in the set of the stacked endpoints ``ends``, or near it.

    With a ``radius`` column the region is the open or closed neighborhood
    of that radius (``neighborhood_bounds``), else the open or closed set.
    The stack's memo keeps each ``(mask, ambiguous, flags)`` under the bytes
    of the ends and the radius and the openness, so the checks on one region
    share one selection: SHIFT_II and MAIN the open d/2-neighborhood of sigma,
    SHIFT_III and CASE2 the open d-neighborhood of the separated side
    (``_sides``), TAN_THETA's calls on one interval theirs.
    """
    key = (ends[0].tobytes(), ends[1].tobytes(), radius if radius is None else radius.tobytes(),
           is_open)
    if key not in stack.memo:
        bounds = ends if radius is None else neighborhood_bounds(ends[0], radius, ends[1])
        stack.memo[key] = _select(stack.b_eigen.eigenvalues, *bounds, is_open, stack.eig_tol)
    return stack.memo[key]


class _Sides(NamedTuple):
    """A stack's rows with sigma renamed to the set whose convex hull is separated."""

    near: tuple  # stacked (lo, hi) of that set ...
    far: tuple  # ... and of the other set
    mask: np.ndarray  # P's mask on A's eigenvalues
    flags: list  # per row: the flag of a swap, if the roles swap
    gap: tuple  # (lo, hi) of the largest open interval about near's hull that avoids far


def _sides(stack: _Stack) -> _Sides:
    """The ``_Sides`` of ``stack``, once per stack: the one rule of which component is separated.

    The roles swap when only Sigma's hull is separated.  Every row is
    computed, but only a hull-separated row reaches a report.  When no row
    swaps, the sides are sigma and Sigma themselves, so the checks share
    their distances with those on sigma and Sigma.
    """
    if "sides" not in stack.memo:
        # the roles swap on the rows of intervals._CLASSES[3]: only Sigma's hull is separated
        pick = (stack.kind == 3)[:, None]
        if not pick.any():
            near, far = stack.sigma_ends, stack.Sigma_ends
        else:
            width = max(x.shape[-1] for x, _ in (stack.sigma_ends, stack.Sigma_ends))
            # both sets at one width, the narrower repeating its last interval, so rows can swap
            (sig_lo, sig_hi), (Sig_lo, Sig_hi) = (
                [np.pad(x, ((0, 0), (0, width - x.shape[-1])), mode="edge") for x in ends]
                for ends in (stack.sigma_ends, stack.Sigma_ends)
            )
            near = np.where(pick, Sig_lo, sig_lo), np.where(pick, Sig_hi, sig_hi)
            far = np.where(pick, sig_lo, Sig_lo), np.where(pick, sig_hi, Sig_hi)
        flags = [["roles swapped: the separated hull is Sigma's"] if x else [] for x in pick[:, 0]]
        gap = (np.where(far[1] < near[0][:, :1], far[1], -np.inf).max(axis=-1),
               np.where(far[0] > near[1][:, -1:], far[0], np.inf).min(axis=-1))
        stack.memo["sides"] = _Sides(near, far, stack.sigma_mask ^ pick, flags, gap)
    return stack.memo["sides"]


def _distance(stack: _Stack, ends: tuple) -> np.ndarray:
    """``points_distance`` of B's eigenvalues to the set of ``ends``, kept under their bytes:
    SHIFT_I, SHIFT_II/III and TAN_THETA share the distances to sigma and to Sigma."""
    key = (ends[0].tobytes(), ends[1].tobytes())
    if key not in stack.memo:
        stack.memo[key] = points_distance(stack.b_eigen.eigenvalues, *ends)
    return stack.memo[key]


def _structure(a, v, a_eigen: EigenDecomposition, mask_sigma, norm_a, tol: Tolerances):
    """``||V||`` of each row, once V is off-diagonal and P = E_A(sigma) commutes with A.

    ``||P V P||``, ``||P-perp V P-perp||`` and ``||[A, P]|| = max(||P-perp A P||,
    ||P A P-perp||)`` are norms of blocks in the eigenvector bases, which a diagonal
    A's permutation bases gather.  Exact zeros decide two of the tests without a
    norm, as ``norm_exceeds`` of a zero block is False for every bound >= 0: a
    diagonal A (``a_eigen.order``) has zero off-diagonal blocks, so the commutator
    test is skipped, and a row whose two diagonal blocks of V are exactly zero has
    V = [[0, W], [W*, 0]] in that basis, so its off-diagonality test is skipped
    and ||V|| = ||W||, a k x (n - k) SVD.  Every other row takes the n x n SVD of V.
    """
    norm_v = np.empty(len(a))
    commutator_bound = tol.proj(a.shape[-1]) * norm_a
    for rows, i_in, i_out in _mask_groups(mask_sigma, ~mask_sigma):
        diagonal = [_blocks(a_eigen, rows, x, x, v) for x in (i_in, i_out)]
        coupled = diagonal[0].any(axis=(1, 2)) | diagonal[1].any(axis=(1, 2))
        if not coupled.all():
            picks = rows[~coupled], i_in[~coupled], i_out[~coupled]
            norm_v[picks[0]] = spectral_norm(_blocks(a_eigen, *picks, v))
        if coupled.any():
            norm_v[rows[coupled]] = spectral_norm(v[rows[coupled]])
            off = tol.offdiag * norm_v[rows[coupled]]
            if any(norm_exceeds(block[coupled], off).any() for block in diagonal):
                raise ValidationError(
                    "V is not off-diagonal with respect to the sigma/Sigma splitting"
                )
        if a_eigen.order is None and any(
            norm_exceeds(_blocks(a_eigen, rows, x, y, a), commutator_bound[rows]).any()
            for x, y in ((i_out, i_in), (i_in, i_out))
        ):
            raise ValidationError("spectral projection does not commute with A")
    return norm_v


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
        a, v = validate_hermitian(a, tol), validate_hermitian(v, tol)
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
        # endpoints and sums near the end of the float range overflow to inf without a warning:
        # an overflowing distance is a point outside, and d, ||V|| and A + V are checked below
        with np.errstate(over="ignore"):
            (mask_sigma, _, near_sigma), (mask_Sigma, _, near_Sigma) = (
                locate_points(values, *part, False, eig_tol) for part in ends
            )
            outside = ~(mask_sigma | mask_Sigma)
            if outside.any():
                x = float(values[outside][0])
                raise ValidationError(f"eigenvalue {x!r} of A lies outside sigma union Sigma")
            # an open set holds what its closure holds, except within eig_tol of an endpoint,
            # where an eigenvalue of A would be silently dropped from both sets
            on_end = near_sigma | near_Sigma
            if is_open and on_end.any():
                x = float(values[on_end][0])
                raise ValidationError(
                    f"eigenvalue {x!r} of A is AMBIGUOUS: within the placement tolerance of an "
                    "open endpoint of sigma or Sigma"
                )
            if np.any(mask_sigma & mask_Sigma):
                raise ValidationError("an eigenvalue of A is claimed by both components")
            if not (mask_sigma.any(axis=-1) & mask_Sigma.any(axis=-1)).all():
                raise ValidationError("both components must contain spectrum of A")
            norm_v = _structure(a, v, a_eigen, mask_sigma, norm_a, tol)
            # B = A + V deviates from B* by at most A's and V's deviations together, and eigh
            # reads one triangle, so only an overflow of the sum needs a check
            b_eigen = _eigh(_finite(a + v))
        # finite input near the end of the float range may still overflow d or ||V||
        if not (d.max() < math.inf and norm_v.max() < math.inf):
            raise ValidationError(f"gap d and ||V|| must be finite, got {d.max()}, {norm_v.max()}")
        scale = np.maximum(np.maximum(norm_a, norm_v), d)
        delta = _entrywise(_half_angle_shift, norm_v, d)
        stack = _Stack(
            a=a, v=v, a_eigen=a_eigen, b_eigen=b_eigen, sigma_mask=mask_sigma, kind=kind,
            sigma_ends=sigma_ends, Sigma_ends=Sigma_ends, is_open=is_open, d=d, norm_v=norm_v,
            delta=delta, scale=scale, tol=tol, eig_tol=tol.eig(b_eigen.eigenvalues),
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


def _premise_met(margin, unit, tol: Tolerances):
    """The decision of a norm premise, ``margin / unit > tol.report``, on floats or entrywise."""
    return margin / unit > tol.report


def _verdict(
    theorem: str, scale: np.ndarray, tol: Tolerances, *, measured, claimed,
    witnesses: dict, dimensional: bool = False, margin=math.inf,
    margin_dimensional: bool = True, premise: Sequence[str] = (), unmet: Sequence = (),
    exact=True, bounds: Sequence[tuple] = (), flags: Sequence = (), findings: Sequence = (),
    premise_first: bool = False,
) -> list[AnalysisReport]:
    """The one verdict rule: a check's columns in, the report of each of its rows out.

    ``scale`` has one entry per row, and so has every column: ``measured``,
    ``claimed``, ``margin`` and ``exact`` (a scalar stands for every row),
    the ``witnesses`` (name to column, in report order; a None entry of an
    object column leaves its name out of that row), each side of the
    ``bounds`` pairs, and the per-row lists ``premise`` (texts), ``unmet``,
    ``flags`` and ``findings`` (empty for no row).

    The theorems are homogeneous, so no verdict may change when a problem is
    scaled, shifted or rotated.  Dimensional numbers (measured and claimed
    when ``dimensional``, the margin when ``margin_dimensional``) are first
    divided by the row's ``scale``.  Then, with ``slack = tol.report``, a
    row's premise holds when nothing is ``unmet`` and, if the theorem has a
    norm premise (``premise`` texts), ``margin > slack`` (``_premise_met``);
    a bound ``x <= c`` holds when ``x <= c + slack * max(1, |c|)``.  The
    theorem holds when its premise fails, or when measured <= claimed, every
    scale-free pair of ``bounds`` and the side conditions ``exact`` hold.
    ``exact`` holds conditions on the operator, never a re-test of the
    claim's own value, which the premise decides.
    The arithmetic is float64's, so each row's verdict is that of the same
    rule on its floats.

    Unmet premises are flagged after the check's ``flags`` (before them with
    ``premise_first``); ``findings`` are flagged only under the premise.
    """
    count, slack = len(scale), tol.report

    def fits(x, c):
        return x <= c + slack * np.maximum(1.0, np.abs(c))

    def per_row(x: np.ndarray) -> list:  # a column's entries, a scalar standing for every row
        return x.tolist() if x.ndim else [x.item()] * count

    margin, claimed, measured = (np.asarray(x, float) for x in (margin, claimed, measured))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        met = (_premise_met(margin, scale if margin_dimensional else 1.0, tol) if premise
               else np.bool_(True))
        # x / 1.0 is x, so a scale-free pair is compared as it is
        fit = fits(measured / scale, claimed / scale) if dimensional else fits(measured, claimed)
        fit = fit & exact
        for x, c in bounds:
            fit = fit & fits(x, c)
    names = list(witnesses)
    values = zip(*(x.tolist() if x.dtype == object else np.asarray(x, float).tolist()
                   for x in witnesses.values())) if names else [()] * count
    rows = zip(per_row(met), per_row(fit), *map(per_row, (margin, claimed, measured)), values,
               premise or [""] * count, unmet or [()] * count, flags or [()] * count,
               findings or [()] * count)
    reports = []
    for ok, fit_i, margin_i, claimed_i, measured_i, row, text, unmet_i, flags_i, found_i in rows:
        failed = [*unmet_i] if ok else [*unmet_i, text]
        shown = [*failed, *flags_i] if premise_first else [*flags_i, *failed]
        reports.append(AnalysisReport(
            theorem=theorem, premise_satisfied=not failed, premise_margin=margin_i,
            claimed_bound=claimed_i, measured_value=measured_i, holds=bool(failed) or fit_i,
            witnesses={k: x for k, x in zip(names, row) if x is not None},
            flags=tuple(shown if failed else [*shown, *found_i]),
        ))
    return reports


def _max(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """``max`` entry by entry: the first of the greatest, as Python's ``max`` keeps it."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _entrywise(function, *columns: np.ndarray) -> np.ndarray:
    """``function`` of each row's floats, called entry by entry, so it rounds as on floats."""
    return np.fromiter(map(function, *(x.tolist() for x in columns)), float, len(columns[0]))


def _joined(*columns: list) -> list[list]:
    """Each row's lists of ``columns``, concatenated in order."""
    return list(map(list, map(itertools.chain, *columns)))


# ---------------------------------------------------------------------------
# quadratic numerical range sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QnrSample:
    """Compressed 2x2 samples of the quadratic numerical range as columns; row i is sample i."""

    a0: np.ndarray
    a1: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    mu: np.ndarray


# Rows are drawn, compressed and written in blocks this long, so memory past the columns is bounded.
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
) -> QnrSample:
    """``n`` seeded samples of the quadratic numerical range of ``b``, as columns.

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
    columns = []
    for first in range(0, n, QNR_CHUNK):
        draws = rng.standard_normal((min(QNR_CHUNK, n - first), 2 * (kp + kq)))
        u = _unit_rows(rng, draws[:, :kp] + 1j * draws[:, kp : 2 * kp])
        h = _unit_rows(rng, draws[:, 2 * kp : 2 * kp + kq] + 1j * draws[:, 2 * kp + kq :])
        columns.append((_forms(u, b_pp, u).real, _forms(h, b_qq, h).real, _forms(u, b_pq, h)))
    a0, a1, v = map(np.concatenate, zip(*columns))
    return QnrSample(a0, a1, v, *two_by_two_extremes(a0, a1, v))


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
    a0_inf, a0_sup, a1_inf, a1_sup = (
        end for part in (stack.sigma_mask, ~stack.sigma_mask)
        for end in (np.where(part, wa, np.inf).min(axis=-1),
                    np.where(part, wa, -np.inf).max(axis=-1))
    )
    inf_a, sup_a, inf_b, sup_b = wa.min(axis=-1), wa.max(axis=-1), wb.min(axis=-1), wb.max(axis=-1)
    ends = (a0_inf, a0_sup, a1_inf, a1_sup, stack.norm_v)
    dl, dr = np.array(list(map(delta_v_directional, *(x.tolist() for x in ends)))).T
    violation = _max((inf_a - dl) - inf_b, inf_b - inf_a, sup_a - sup_b, sup_b - (sup_a + dr))
    return _verdict(
        "SHIFT_BOUNDS", stack.scale, stack.tol, measured=violation, claimed=0.0, dimensional=True,
        witnesses={"inf_a": inf_a, "sup_a": sup_a, "inf_b": inf_b, "sup_b": sup_b,
                   "delta_left": dl, "delta_right": dr, "norm_v": stack.norm_v},
    )


def spectrum_enclosure(problem: PerturbationProblem) -> AnalysisReport:
    """Every eigenvalue of B lies in the closed delta_V-neighborhood of spec(A).

    Unconditional.  measured_value is the largest excursion of a
    B-eigenvalue from sigma union Sigma; the claimed bound is delta_V.
    """
    return _memo(problem, "SHIFT_I", _enclosure)


def _enclosure(stack: _Stack) -> list[AnalysisReport]:
    eigs = stack.b_eigen.eigenvalues
    excursions = np.minimum(_distance(stack, stack.sigma_ends),
                            _distance(stack, stack.Sigma_ends))
    shift, tol = stack.delta[:, None], stack.eig_tol[:, None]
    flags = [[] for _ in eigs]
    for row, i in zip(*np.nonzero((np.abs(excursions - shift) <= tol) & (shift > tol))):
        flags[row].append(
            f"eigenvalue {float(eigs[row, i]):.12g} attains the enclosure boundary exactly")
    return _verdict(
        "SHIFT_I", stack.scale, stack.tol, measured=excursions.max(axis=-1), claimed=stack.delta,
        dimensional=True, witnesses={"norm_v": stack.norm_v, "d": stack.d, "delta_v": stack.delta},
        flags=flags,
    )


def gap_persistence(problem: PerturbationProblem, variant: str | None = None) -> AnalysisReport:
    """The spectrum of B near sigma stays separated from the rest.

    variant "half" checks the open d/2-neighborhood under ||V|| < sqrt(3)/2 d (any case);
    variant "full" checks the open d-neighborhood of the component whose hull is separated,
    sigma or (a swap it flags) Sigma, under ||V|| < sqrt(2) d.  Default picks "full" when a
    component's hull is separated from the other, else "half".

    Asserts that spec(B) inside the open neighborhood equals spec(B) in the
    closed delta_V-neighborhood of that component and is nonempty.  The eigenvalue
    count inside (vs rank of the sigma-projection of A) is recorded as a
    witness; a mismatch is flagged as a finding, not a failure.
    """
    if variant is None:
        variant = "full" if problem.case in _HULL_SEPARATED else "half"
    if variant not in ("half", "full"):
        raise ValueError(f"variant must be 'half' or 'full', got {variant!r}")
    theorem = "SHIFT_III" if variant == "full" else "SHIFT_II"
    return _memo(problem, theorem, lambda stack: _persistence(stack, theorem))


def _persistence(stack: _Stack, theorem: str) -> list[AnalysisReport]:
    d, norm_v, full = stack.d, stack.norm_v, theorem == "SHIFT_III"
    # SHIFT_III checks the side whose hull is separated, Sigma where the roles swap; SHIFT_II sigma
    ends, mask_a, swapped = ((sides := _sides(stack)).near, sides.mask, sides.flags) if full else (
        stack.sigma_ends, stack.sigma_mask, [[] for _ in d])
    radius = d if full else d / 2.0
    mask_open, ambiguous, flags_open = _region(stack, ends, radius, True)
    mask_closed, _, flags_closed = _region(stack, ends, stack.delta)
    # the intersection equality is only decidable away from ambiguous points
    equality = ((mask_open == mask_closed) | ambiguous).all(axis=-1)
    inside = np.where(mask_closed, _distance(stack, ends), -np.inf)
    count_inside, rank_sigma = mask_closed.sum(axis=-1), mask_a.sum(axis=-1)
    findings = [[] for _ in d]
    for i in np.flatnonzero(count_inside != rank_sigma).tolist():
        name = "Sigma" if swapped[i] else "sigma"
        findings[i].append(f"finding: {count_inside[i]} eigenvalues of B persist near {name} but "
                           f"rank E_A({name}) = {rank_sigma[i]}")
    cap = SQRT2 * d if full else SQRT3_2 * d
    separated = _HULL_KINDS[stack.kind] | (not full)
    return _verdict(
        theorem, stack.scale, stack.tol, dimensional=True, claimed=stack.delta,
        measured=np.where(mask_closed.any(axis=-1), inside.max(axis=-1), 0.0),
        margin=cap - norm_v,
        premise=list(map("premise not satisfied: ||V|| = {:.12g} is not below {:.12g}".format,
                         norm_v.tolist(), cap.tolist())),
        unmet=[[] if s else ["premise not satisfied: hull of sigma is not separated from Sigma"]
               for s in separated.tolist()],
        exact=equality & (count_inside >= 1), premise_first=True,
        witnesses={"norm_v": norm_v, "d": d, "delta_v": stack.delta, "radius": radius,
                   "inside_open_count": mask_open.sum(axis=-1), "inside_closed_count": count_inside,
                   "rank_sigma": rank_sigma, "intersection_equality": equality},
        flags=_joined(flags_open, flags_closed, swapped),
        findings=findings,
    )
