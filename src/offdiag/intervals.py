"""Finite unions of real intervals and the two-set case classification.

Sets are stored as closures: a sorted tuple of pairwise-disjoint closed
intervals ``[lo, hi]`` (points are degenerate intervals, semi-infinite
intervals use ``math.inf`` endpoints).  An ``is_open`` flag changes
endpoint membership only; all set algebra is computed on the closures.

Membership tests are tolerance-aware and tri-state: a point within ``tol``
of an endpoint of an open set is AMBIGUOUS rather than silently decided,
because the sharp examples in this problem family attain boundaries
exactly.  The rule lives in one array-valued routine, ``locate_points``,
which also takes stacked unions (one per leading index) so that batched
callers classify many spectra against many sets in one call.
"""

from __future__ import annotations

import enum
import math
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


def _as_interval(item) -> tuple[float, float]:
    if isinstance(item, (int, float)):
        x = float(item)
        lo, hi = x, x
    else:
        if len(item) != 2:
            raise ValueError(f"interval must be a number or a [lo, hi] pair, got {item!r}")
        lo, hi = float(item[0]), float(item[1])
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"interval has lo > hi: [{lo}, {hi}]")
    return lo, hi


class SpectralSet:
    """Union of closed real intervals, optionally flagged open.

    Construction normalizes: intervals are sorted and overlapping or
    touching intervals are merged.
    """

    __slots__ = ("intervals", "is_open")

    def __init__(self, intervals: Iterable, is_open: bool = False):
        items = sorted(_as_interval(it) for it in intervals)
        merged: list[tuple[float, float]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "is_open", bool(is_open))

    def __setattr__(self, name, value):
        raise AttributeError("SpectralSet is immutable")

    @classmethod
    def from_points(cls, values: Sequence[float], is_open: bool = False) -> "SpectralSet":
        return cls([(float(v), float(v)) for v in values], is_open=is_open)

    @classmethod
    def empty(cls) -> "SpectralSet":
        return cls([])

    # -- basic queries ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def inf(self) -> float:
        self._require_nonempty()
        return self.intervals[0][0]

    @property
    def sup(self) -> float:
        self._require_nonempty()
        # merged intervals are sorted and disjoint, so the last one ends highest
        return self.intervals[-1][1]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The interval endpoints as two float arrays ``(lo, hi)``."""
        ends = np.array(self.intervals, dtype=float).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    def _require_nonempty(self):
        if self.is_empty:
            raise ValueError("operation requires a nonempty set")

    def contains(self, x: float) -> bool:
        """Exact membership, honoring the open flag."""
        for lo, hi in self.intervals:
            if self.is_open:
                if lo < x < hi:
                    return True
            else:
                if lo <= x <= hi:
                    return True
        return False

    def distance_to_points(self, x) -> np.ndarray:
        """Distances from each of the points ``x`` to the closure, as a float array."""
        self._require_nonempty()
        return points_distance(x, *self.bounds)

    # -- set arithmetic --------------------------------------------------

    def distance(self, other: "SpectralSet") -> float:
        """inf over pairs of pointwise distances between the closures."""
        self._require_nonempty()
        other._require_nonempty()
        return float(_distances(*self.bounds, *other.bounds))

    def intersects(self, other: "SpectralSet") -> bool:
        """Whether the closures intersect: ``distance == 0``, read off the endpoints."""
        return any(
            lo1 <= hi2 and lo2 <= hi1 for lo1, hi1 in self.intervals for lo2, hi2 in other.intervals
        )

    def closed_neighborhood(self, delta: float) -> "SpectralSet":
        if delta < 0:
            raise ValueError("neighborhood radius must be nonnegative")
        self._require_nonempty()
        return SpectralSet([(lo - delta, hi + delta) for lo, hi in self.intervals])

    def open_neighborhood(self, delta: float) -> "SpectralSet":
        if delta <= 0:
            raise ValueError("open neighborhood radius must be positive")
        self._require_nonempty()
        return SpectralSet(
            [(lo - delta, hi + delta) for lo, hi in self.intervals], is_open=True
        )

    def convex_hull(self) -> "SpectralSet":
        self._require_nonempty()
        return SpectralSet([(self.inf, self.sup)], is_open=self.is_open)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralSet):
            return NotImplemented
        return self.intervals == other.intervals and self.is_open == other.is_open

    def __hash__(self) -> int:
        return hash((self.intervals, self.is_open))

    def __repr__(self) -> str:
        left, right = ("(", ")") if self.is_open else ("[", "]")
        if self.is_empty:
            return "SpectralSet(empty)"
        parts = []
        for lo, hi in self.intervals:
            parts.append(f"{{{lo:g}}}" if lo == hi else f"{left}{lo:g}, {hi:g}{right}")
        return " U ".join(parts)


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
    gaps = np.maximum(lo2[..., None, :] - hi1[..., :, None], lo1[..., :, None] - hi2[..., None, :])
    return np.maximum(gaps, 0.0).min(axis=(-2, -1))


def stacked_bounds(sets: Sequence[SpectralSet]) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(lo, hi, is_open)`` of nonempty sets of one open flag, one row of endpoints per set.

    A set of fewer intervals than the others repeats its last one, which
    leaves membership and boundary distances unchanged.
    """
    for s in sets:
        s._require_nonempty()
    flags = {s.is_open for s in sets}
    if len(flags) != 1:
        raise ValueError("cannot stack sets with different open/closed flags")
    width = max(len(s.intervals) for s in sets)
    ends = np.array([s.intervals + s.intervals[-1:] * (width - len(s.intervals)) for s in sets])
    return ends[..., 0], ends[..., 1], flags.pop()


def neighborhood_bounds(points, radius, hi=None) -> tuple[np.ndarray, np.ndarray]:
    """Stacked endpoints of the ``radius``-neighborhoods of point sets, or of interval unions.

    ``points`` has shape (..., m) and ``radius`` a scalar or the leading
    shape; with ``hi`` the sets are the disjoint intervals ``[points, hi]``.
    Returns ``(lo, hi)`` of shape (..., m), normalized as
    ``SpectralSet`` normalizes: intervals sorted, and overlapping or
    touching intervals merged.  Merged intervals keep the fixed shape by
    repeating the component they form, which leaves membership and
    boundary distances unchanged.
    """
    points = np.sort(np.asarray(points, dtype=float), axis=-1)
    radius = np.asarray(radius, dtype=float)[..., None]
    lo, hi = points - radius, (points if hi is None else np.sort(hi, axis=-1)) + radius
    # an interval starts a component when it begins beyond every hi before it; each interval
    # then takes the lo of its component's first interval and the running hi at its last
    run = np.maximum.accumulate(hi, axis=-1)
    start = np.ones(lo.shape, dtype=bool)
    start[..., 1:] = lo[..., 1:] > run[..., :-1]
    end = np.ones(lo.shape, dtype=bool)
    end[..., :-1] = start[..., 1:]
    lo = np.maximum.accumulate(np.where(start, lo, -np.inf), axis=-1)
    hi = np.minimum.accumulate(np.where(end, run, np.inf)[..., ::-1], axis=-1)[..., ::-1]
    return lo, hi


def classify_case(sigma: SpectralSet, Sigma: SpectralSet) -> Classification:
    """Classify the mutual disposition of two disjoint spectral components.

    Priority is SUBORDINATED over CASE_II over CASE_I: subordination gives
    the strongest conclusions, and it implies the hull-separation
    predicate of CASE_II.
    """
    d = sigma.distance(Sigma)
    if d <= 0.0:
        raise ValueError("components must be separated: distance(sigma, Sigma) = 0")
    if sigma.sup < Sigma.inf:
        return Classification(Case.SUBORDINATED, "sup(sigma) < inf(Sigma)")
    if Sigma.sup < sigma.inf:
        return Classification(Case.SUBORDINATED, "sup(Sigma) < inf(sigma)")
    if not sigma.convex_hull().intersects(Sigma):
        return Classification(Case.CASE_II, "hull(sigma) disjoint from Sigma")
    if not Sigma.convex_hull().intersects(sigma):
        return Classification(Case.CASE_II, "hull(Sigma) disjoint from sigma")
    return Classification(Case.CASE_I, "hulls interleave")
