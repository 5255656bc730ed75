"""Finite unions of real intervals and the two-set case classification.

A set is stored as its closure: float arrays ``lo`` and ``hi`` of sorted,
pairwise-disjoint closed intervals (points are degenerate intervals,
semi-infinite intervals use ``inf`` endpoints), made by one array routine,
``_normalize``.  An ``is_open`` flag changes endpoint membership only; all
set algebra is computed on the closures.

Membership tests are tolerance-aware and tri-state: a point within ``tol``
of an endpoint of an open set is AMBIGUOUS rather than silently decided,
because the sharp examples in this problem family attain boundaries
exactly.  The rule lives in one array-valued routine, ``locate_points``,
which also takes stacked unions (one per leading index) so that batched
callers classify many spectra against many sets in one call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class Case(enum.Enum):
    """Mutual disposition of two separated spectral components."""

    SUBORDINATED = "SUBORDINATED"
    CASE_II = "CASE_II"
    CASE_I = "CASE_I"


@dataclass(frozen=True)
class Classification:
    case: Case
    detail: str


def _numeric(obj) -> np.ndarray | None:
    """``numpy.array(obj)`` if a bool, int or float array, which converts to float as a problem
    file's numbers do; anything else (strings, None, ragged rows, integers beyond int64) is None."""
    try:
        arr = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    return arr if arr.dtype.kind in "bif" else None


def _endpoints(intervals) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of a set's entries as float arrays: numbers (points) or ``[lo, hi]`` pairs.

    An entry is a number as a problem file's matrix entry is (``_numeric``),
    so a string is rejected rather than read as its characters.  Only a list
    that mixes numbers with pairs is read entry by entry.
    """
    items = list(intervals)
    ends = _numeric(items)
    if ends is None:  # numbers mixed with pairs: a number is its degenerate pair
        ends = _numeric([(x, x) if np.ndim(x) == 0 else x for x in items])
    if ends is None or ends.shape[1:] not in ((), (2,)):
        raise ValueError("each entry must be a number or a [lo, hi] pair of numbers")
    lo, hi = ends.T.astype(float) if ends.ndim == 2 else (ends.astype(float),) * 2
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("interval endpoints must not be NaN")
    if (lo > hi).any():
        k = int(np.argmax(lo > hi))
        raise ValueError(f"interval has lo > hi: [{lo[k]}, {hi[k]}]")
    return lo, hi


def _merge(lo: np.ndarray, run: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Components of sorted intervals from their starts ``lo`` (..., m) and running top ``run``.

    An interval starts a component when it begins beyond the top of every interval before
    it; each interval then takes the lo of its component's first interval and the top at its
    last.  Returns those per-interval ``(lo, hi)`` and where components end.
    """
    start = np.ones(lo.shape, dtype=bool)
    start[..., 1:] = lo[..., 1:] > run[..., :-1]
    end = np.ones(lo.shape, dtype=bool)
    end[..., :-1] = start[..., 1:]
    lo = np.maximum.accumulate(np.where(start, lo, -np.inf), axis=-1)
    hi = np.minimum.accumulate(np.where(end, run, np.inf)[..., ::-1], axis=-1)[..., ::-1]
    return lo, hi, end


def _normalize(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted, disjoint components of the intervals ``[lo, hi]`` (1-D arrays).

    The intervals are sorted stably by ``(lo, hi)`` and overlapping or touching ones merged,
    bit for bit as a loop with Python's ``max`` merges the sorted pairs: a component ends at
    the hi of the first interval to reach its top, where ``np.maximum`` may take a later -0.0.
    """
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    rises = np.ones(len(hi), dtype=bool)
    rises[1:] = hi[1:] > np.maximum.accumulate(hi)[:-1]
    lo, hi, end = _merge(lo, np.maximum.accumulate(np.where(rises, hi, -np.inf)))
    return lo[end], hi[end]


def _format(lo, hi, is_open: bool) -> str:
    """The text of the set of the normalized intervals ``[lo, hi]``: a point as ``{x}``."""
    left, right = ("(", ")") if is_open else ("[", "]")
    parts = [f"{{{a:g}}}" if a == b else f"{left}{a:g}, {b:g}{right}"
             for a, b in zip(lo.tolist(), hi.tolist())]
    return " U ".join(parts) or "SpectralSet(empty)"


class SpectralSet:
    """Union of closed real intervals, optionally flagged open.

    The set is its normalized endpoints: float arrays ``lo`` and ``hi`` of
    the sorted, disjoint components (``_normalize``), read-only.
    """

    __slots__ = ("lo", "hi", "is_open")

    def __init__(self, intervals: Iterable, is_open: bool = False):
        lo, hi = _normalize(*_endpoints(intervals))
        lo.flags.writeable = hi.flags.writeable = False
        for name, value in (("lo", lo), ("hi", hi), ("is_open", bool(is_open))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralSet is immutable")

    @classmethod
    def from_points(cls, values: Sequence[float], is_open: bool = False) -> "SpectralSet":
        return cls(list(values), is_open=is_open)

    # -- basic queries ---------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    @property
    def is_empty(self) -> bool:
        return not len(self.lo)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The interval endpoints as two float arrays ``(lo, hi)``."""
        return self.lo, self.hi

    def _require_nonempty(self):
        if self.is_empty:
            raise ValueError("operation requires a nonempty set")

    # -- set arithmetic --------------------------------------------------

    def distance(self, other: "SpectralSet") -> float:
        """inf over pairs of pointwise distances between the closures."""
        self._require_nonempty()
        other._require_nonempty()
        return float(_distances(*self.bounds, *other.bounds))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralSet):
            return NotImplemented
        return self.intervals == other.intervals and self.is_open == other.is_open

    def __hash__(self) -> int:
        return hash((self.intervals, self.is_open))

    def __repr__(self) -> str:
        return _format(self.lo, self.hi, self.is_open)


def locate_points(x, lo, hi, is_open: bool, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tolerance-aware tri-state membership of many points in unions of intervals.

    ``x`` has shape (..., n); ``lo`` and ``hi`` have shape (..., m) and hold
    the endpoints of normalized (sorted, disjoint) intervals, one union per
    leading index; ``tol`` is a scalar or has the leading shape.  Returns
    boolean arrays ``(inside, ambiguous, near)`` shaped like ``x``: a point
    in neither of the first two is outside, and ``near`` marks points within
    ``tol`` of a finite endpoint.

    Closed sets never return AMBIGUOUS: a point within ``tol`` of the set
    counts as inside.  Open sets return AMBIGUOUS within ``tol`` of an
    endpoint.
    """
    x = np.asarray(x, dtype=float)[..., :, None]
    lo = np.asarray(lo, dtype=float)[..., None, :]
    hi = np.asarray(hi, dtype=float)[..., None, :]
    tol = np.asarray(tol, dtype=float)[..., None]
    if lo.shape[-1] == 0:
        outside = np.zeros(x.shape[:-1], dtype=bool)
        return outside, outside.copy(), outside.copy()
    below, above = lo - x, x - hi
    # infinite endpoints are at infinite distance from every finite point
    near = np.minimum(np.abs(below), np.abs(above)).min(axis=-1) <= tol
    if is_open:
        inside = ~near & ((below < 0) & (above < 0)).any(axis=-1)
        return inside, near.copy(), near
    inside = np.maximum(np.maximum(below, above), 0.0).min(axis=-1) <= tol
    return inside, np.zeros_like(inside), near


def points_distance(x, lo, hi) -> np.ndarray:
    """Distances from the points ``x`` (..., n) to the closures of the unions ``lo``, ``hi``."""
    x = np.asarray(x, dtype=float)[..., :, None]
    return np.maximum(np.maximum(lo[..., None, :] - x, x - hi[..., None, :]), 0.0).min(axis=-1)


def _distances(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Distances between the closures of unions, one per leading index: endpoints (..., m)."""
    with np.errstate(invalid="ignore"):  # unions that reach one infinite end are NaN apart
        gaps = np.maximum(lo2[..., None, :] - hi1[..., :, None],
                          lo1[..., :, None] - hi2[..., None, :])
    return np.maximum(gaps, 0.0).min(axis=(-2, -1))


def neighborhood_bounds(points, radius, hi=None) -> tuple[np.ndarray, np.ndarray]:
    """Stacked endpoints of the ``radius``-neighborhoods of point sets, or of interval unions.

    ``points`` has shape (..., m) and ``radius`` a scalar or the leading
    shape; with ``hi`` the sets are the disjoint intervals ``[points, hi]``.
    Returns ``(lo, hi)`` of shape (..., m): the intervals sorted, and
    overlapping or touching ones merged by ``_merge``, as ``SpectralSet``
    merges them.  Merged intervals keep the fixed shape by repeating the
    component they form, which leaves membership and boundary distances
    unchanged.
    """
    points = np.sort(np.asarray(points, dtype=float), axis=-1)
    radius = np.asarray(radius, dtype=float)[..., None]
    lo, hi = points - radius, (points if hi is None else np.sort(hi, axis=-1)) + radius
    lo, hi, _ = _merge(lo, np.maximum.accumulate(hi, axis=-1))
    return lo, hi


# the rules of the case classification in priority order, as _classify numbers them
_CLASSES = (
    Classification(Case.SUBORDINATED, "sup(sigma) < inf(Sigma)"),
    Classification(Case.SUBORDINATED, "sup(Sigma) < inf(sigma)"),
    Classification(Case.CASE_II, "hull(sigma) disjoint from Sigma"),
    Classification(Case.CASE_II, "hull(Sigma) disjoint from sigma"),
    Classification(Case.CASE_I, "hulls interleave"),
)
# the cases in which one set's convex hull misses the other set: the premise of the
# sin-arctan, tan Theta, full-gap and constant-1 results, which a problem's case decides
_HULL_SEPARATED = frozenset({Case.SUBORDINATED, Case.CASE_II})


def _classify(sigma_ends: tuple, Sigma_ends: tuple) -> np.ndarray:
    """The index into ``_CLASSES`` of the first rule that each pair of separated unions meets.

    ``sigma_ends`` and ``Sigma_ends`` are the ``(lo, hi)`` of normalized
    unions (..., m), one pair per leading index; the two widths may differ.
    """
    (lo1, hi1), (lo2, hi2) = sigma_ends, Sigma_ends
    inf1, sup1, inf2, sup2 = lo1[..., :1], hi1[..., -1:], lo2[..., :1], hi2[..., -1:]
    rules = [
        sup1 < inf2,
        sup2 < inf1,
        ~((lo2 <= sup1) & (inf1 <= hi2)).any(axis=-1, keepdims=True),  # hull(sigma) misses Sigma
        ~((lo1 <= sup2) & (inf2 <= hi1)).any(axis=-1, keepdims=True),
        np.ones_like(inf1, dtype=bool),
    ]
    return np.argmax(np.concatenate(rules, axis=-1), axis=-1)


def classify_case(sigma: SpectralSet, Sigma: SpectralSet) -> Classification:
    """Classify the mutual disposition of two disjoint spectral components.

    Priority is SUBORDINATED over CASE_II over CASE_I: subordination gives
    the strongest conclusions, and it implies the hull-separation
    predicate of CASE_II.
    """
    if not sigma.distance(Sigma) > 0.0:
        raise ValueError("components must be separated: distance(sigma, Sigma) = 0")
    return _CLASSES[_classify(sigma.bounds, Sigma.bounds)]
