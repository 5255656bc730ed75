import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import (
    Case,
    PerturbationProblem,
    ProblemSpec,
    SpectralSet,
    ValidationError,
    classify_case,
    verify_pair_inequality,
)
from offdiag.intervals import (
    _CLASSES,
    _classify,
    locate_points,
    neighborhood_bounds,
    points_distance,
)


def points(*vals):
    return SpectralSet.from_points(vals)


# -- oracles: the loops that SpectralSet once ran, and the methods only tests use ----------------


def oracle_intervals(raw) -> tuple:
    """Sort the entries of ``raw`` (numbers or (lo, hi) pairs), then merge them in a loop."""
    items = sorted((float(x), float(x)) if isinstance(x, (int, float)) else (float(x[0]), float(x[1]))
                   for x in raw)
    merged = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def oracle_repr(intervals: tuple, is_open: bool) -> str:
    left, right = ("(", ")") if is_open else ("[", "]")
    if not intervals:
        return "SpectralSet(empty)"
    parts = []
    for lo, hi in intervals:
        parts.append(f"{{{lo:g}}}" if lo == hi else f"{left}{lo:g}, {hi:g}{right}")
    return " U ".join(parts)


def oracle_classify(s: tuple, t: tuple) -> tuple[Case, str]:
    """The scalar case rules on the normalized intervals of two separated sets."""

    def hull_meets(hull, other):
        return any(hull[0][0] <= hi and lo <= hull[-1][1] for lo, hi in other)

    if s[-1][1] < t[0][0]:
        return Case.SUBORDINATED, "sup(sigma) < inf(Sigma)"
    if t[-1][1] < s[0][0]:
        return Case.SUBORDINATED, "sup(Sigma) < inf(sigma)"
    if not hull_meets(s, t):
        return Case.CASE_II, "hull(sigma) disjoint from Sigma"
    if not hull_meets(t, s):
        return Case.CASE_II, "hull(Sigma) disjoint from sigma"
    return Case.CASE_I, "hulls interleave"


def contains(s: SpectralSet, x: float) -> bool:
    """Exact membership, honoring the open flag."""
    if s.is_open:
        return any(lo < x < hi for lo, hi in s.intervals)
    return any(lo <= x <= hi for lo, hi in s.intervals)


def distance_to_points(s: SpectralSet, x) -> np.ndarray:
    """Distances from each of the points ``x`` to the closure of ``s``, as a float array."""
    s._require_nonempty()
    return points_distance(x, *s.bounds)


def closed_neighborhood(s: SpectralSet, delta: float) -> SpectralSet:
    if delta < 0:
        raise ValueError("neighborhood radius must be nonnegative")
    s._require_nonempty()
    return SpectralSet([(lo - delta, hi + delta) for lo, hi in s.intervals])


def open_neighborhood(s: SpectralSet, delta: float) -> SpectralSet:
    if delta <= 0:
        raise ValueError("open neighborhood radius must be positive")
    s._require_nonempty()
    return SpectralSet([(lo - delta, hi + delta) for lo, hi in s.intervals], is_open=True)


# endpoints that make duplicate, nested, touching and overlapping intervals, infinite ends and
# zeros of both signs common
ENDPOINT = st.sampled_from(
    [-math.inf, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf]
) | st.floats(-3.0, 3.0)
ENTRY = ENDPOINT | st.tuples(ENDPOINT, ENDPOINT).map(lambda pair: tuple(sorted(pair)))
RAW_SETS = st.lists(ENTRY, max_size=8)


class TestNormalizationOracle:
    @settings(max_examples=400, deadline=None)
    @given(raw=RAW_SETS, is_open=st.booleans())
    def test_intervals_and_repr_equal_the_merge_loop(self, raw, is_open):
        s = SpectralSet(raw, is_open=is_open)
        want = oracle_intervals(raw)
        # repr of a float tuple keeps every bit of a non-NaN float, the sign of a zero included
        assert repr(s.intervals) == repr(want)
        assert repr(s) == oracle_repr(want, is_open)
        assert s.lo.tolist() == [lo for lo, _ in want] and s.hi.tolist() == [hi for _, hi in want]

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(RAW_SETS, RAW_SETS), min_size=1, max_size=6))
    def test_array_classification_equals_the_scalar_rules(self, pairs):
        sets = [(SpectralSet(r), SpectralSet(q)) for r, q in pairs]
        with np.errstate(invalid="ignore"):  # a point at inf is at distance nan from inf
            sets = [(s, t) for s, t in sets if not (s.is_empty or t.is_empty) and s.distance(t) > 0]
        for s, t in sets:
            c = classify_case(s, t)
            assert (c.case, c.detail) == oracle_classify(s.intervals, t.intervals)
        if not sets:
            return
        # one stacked call, each side at one width by repeating its last interval
        stacked = []
        for side in (0, 1):
            width = max(len(pair[side].lo) for pair in sets)
            stacked.append(tuple(
                np.array([np.pad(x, (0, width - len(x)), mode="edge") for x in ends])
                for ends in zip(*(pair[side].bounds for pair in sets))
            ))
        got = [_CLASSES[k] for k in _classify(*stacked).tolist()]
        assert [(c.case, c.detail) for c in got] == [
            oracle_classify(s.intervals, t.intervals) for s, t in sets
        ]

    def test_signed_zeros_keep_the_first_of_equal_ends(self):
        # np.maximum(-0.0, 0.0) is 0.0, where the merge loop's max keeps -0.0
        assert repr(SpectralSet([-0.0, 0.0]).intervals) == "((-0.0, -0.0),)"
        assert repr(SpectralSet([0.0, -0.0]).intervals) == "((0.0, 0.0),)"
        assert repr(SpectralSet([(-1.0, -0.0), (-0.5, 0.0)]).intervals) == "((-1.0, -0.0),)"


def boundary_distance(s, x):
    """Distance from ``x`` to the nearest finite endpoint of ``s`` (inf if none)."""
    ends = [e for iv in s.intervals for e in iv if math.isfinite(e)]
    return min((abs(x - e) for e in ends), default=math.inf)


class TestNormalization:
    def test_overlapping_merge(self):
        s = SpectralSet([(0, 2), (1, 3), (5, 6)])
        assert s.intervals == ((0.0, 3.0), (5.0, 6.0))

    def test_touching_merge(self):
        s = SpectralSet([(0, 1), (1, 2)])
        assert s.intervals == ((0.0, 2.0),)

    def test_sorting(self):
        s = SpectralSet([(5, 6), (0, 1)])
        assert s.intervals == ((0.0, 1.0), (5.0, 6.0))

    def test_points_are_degenerate_intervals(self):
        assert points(1.0, -1.0).intervals == ((-1.0, -1.0), (1.0, 1.0))

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            SpectralSet([(2, 1)])

    @pytest.mark.parametrize("raw", [["12"], [[0, "1"]], [(0.0, 1.0), "12"], [None], [[0, 1, 2]]],
                             ids=["string", "string-end", "mixed-string", "none", "triple"])
    def test_an_entry_is_a_number_or_a_pair_of_numbers(self, raw):
        # a string is not read as its characters: "12" is not the interval [1, 2]
        with pytest.raises(ValueError, match="must be a number or a \\[lo, hi\\] pair of numbers"):
            SpectralSet(raw)

    def test_numbers_mixed_with_pairs(self):
        s = SpectralSet([0.5, (2.0, 3.0), 1, [2.5, 4.0]])
        assert s.intervals == ((0.5, 0.5), (1.0, 1.0), (2.0, 4.0))

    def test_empty(self):
        s = SpectralSet([])
        assert s.is_empty
        with pytest.raises(ValueError, match="requires a nonempty set"):
            s.distance(SpectralSet([0.0]))

    def test_inf_and_sup_are_the_extreme_raw_ends(self, rng):
        # integer ends make touching intervals common; wide ones nest others
        for _ in range(200):
            raw = []
            for _ in range(int(rng.integers(1, 7))):
                lo, hi = sorted(float(e) for e in rng.integers(-6, 7, 2))
                kind = rng.integers(6)
                if kind == 0:
                    lo = -math.inf
                elif kind == 1:
                    hi = math.inf
                elif kind == 2 and raw:
                    lo, hi = raw[-1][0] - 1.0, raw[-1][1] + 1.0  # nests the previous one
                elif kind == 3 and raw:
                    lo, hi = raw[-1][1], raw[-1][1] + 2.0  # touches the previous one
                raw.append((lo, hi))
            s = SpectralSet(raw)
            assert s.lo[0] == min(lo for lo, _ in raw)
            assert s.hi[-1] == max(hi for _, hi in raw)


class TestValueSemantics:
    def test_attributes_cannot_be_assigned(self):
        s = SpectralSet([(0, 1)])
        with pytest.raises(AttributeError, match="SpectralSet is immutable"):
            s.is_open = True
        assert not s.is_open

    def test_a_set_equals_only_a_set(self):
        s = SpectralSet([(0, 1)])
        assert s.__eq__(3) is NotImplemented
        assert s != 3 and s != ((0.0, 1.0),)
        assert s != SpectralSet([(0, 1)], is_open=True)

    def test_equal_sets_hash_alike(self):
        merged, given = SpectralSet([(0, 1), (1, 2)]), SpectralSet([(0, 2)])
        assert merged == given and hash(merged) == hash(given)
        assert len({merged, given, SpectralSet([(0, 2)], is_open=True)}) == 2


class TestDistance:
    def test_example_interleaved_points(self):
        # sigma, Sigma of the 4x4 sharpness example: gap exactly 1
        assert points(-1.5, 0.5).distance(points(-0.5, 1.5)) == 1.0

    def test_self_distance_zero(self):
        s = SpectralSet([(0, 1), (3, 4)])
        assert s.distance(s) == 0.0

    def test_two_intervals(self):
        assert SpectralSet([(0, 1)]).distance(SpectralSet([(3, 4)])) == 2.0

    def test_empty_operand_rejected(self):
        with pytest.raises(ValueError):
            SpectralSet([]).distance(points(0.0))

    def test_semi_infinite(self):
        left = SpectralSet([(-math.inf, -1.0)])
        right = SpectralSet([(2.0, math.inf)])
        assert left.distance(right) == 3.0
        assert left.distance(left) == 0.0

    def test_symmetry_random(self, rng):
        for _ in range(200):
            s = points(*rng.uniform(-5, 5, 4))
            t = points(*rng.uniform(-5, 5, 3))
            assert s.distance(t) == t.distance(s)

    def test_neighborhood_distance_inequality(self, rng):
        # dist(U_delta(S), T) >= dist(S, T) - delta
        for _ in range(200):
            s = points(*rng.uniform(-5, 5, 3))
            t = points(*rng.uniform(-5, 5, 3))
            delta = float(rng.uniform(0, 2))
            lhs = closed_neighborhood(s, delta).distance(t)
            assert lhs >= s.distance(t) - delta - 1e-12

    def test_array_forms_equal_the_interval_loops(self, rng):
        def random_set():
            raw = [tuple(sorted(rng.uniform(-5, 5, 2))) for _ in range(rng.integers(1, 4))]
            raw += [float(x) for x in rng.uniform(-5, 5, rng.integers(0, 3))]
            if rng.uniform() < 0.3:
                raw.append((-math.inf, float(rng.uniform(-8, -5))))
            if rng.uniform() < 0.3:
                raw.append((float(rng.uniform(5, 8)), math.inf))
            return SpectralSet(raw)

        for _ in range(100):
            s, t = random_set(), random_set()
            loop = min(
                max(lo2 - hi1, lo1 - hi2, 0.0)
                for lo1, hi1 in s.intervals
                for lo2, hi2 in t.intervals
            )
            assert s.distance(t) == loop
            ends = [e for iv in s.intervals for e in iv if math.isfinite(e)]
            xs = np.concatenate([rng.uniform(-10, 10, 30), ends])
            got = distance_to_points(s, xs)
            for x, g in zip(xs, got):
                assert g == min(max(lo - x, x - hi, 0.0) for lo, hi in s.intervals)


class TestNeighborhoods:
    def test_closed_merges_to_single_interval(self):
        s = closed_neighborhood(points(-1.5, -0.5, 0.5, 1.5), 0.5)
        assert s.intervals == ((-2.0, 2.0),)

    def test_closed_merge_against_membership_oracle(self, rng):
        # expanding each interval and testing membership pointwise must agree
        # with the normalized union
        for _ in range(50):
            raw = [tuple(sorted(rng.uniform(-5, 5, 2))) for _ in range(4)]
            delta = float(rng.uniform(0, 1.5))
            s = closed_neighborhood(SpectralSet(raw), delta)
            expanded = [(lo - delta, hi + delta) for lo, hi in raw]
            probes = list(rng.uniform(-8, 8, 200)) + [e for iv in expanded for e in iv]
            for x in probes:
                oracle = any(lo <= x <= hi for lo, hi in expanded)
                assert contains(s, x) == oracle

    def test_zero_radius_identity(self):
        s = SpectralSet([(0, 1), (3, 3)])
        assert closed_neighborhood(s, 0.0) == s

    def test_single_point(self):
        assert closed_neighborhood(points(0.0), 1.0).intervals == ((-1.0, 1.0),)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            closed_neighborhood(points(0.0), -0.1)

    def test_open_neighborhood_example_case1(self):
        # O_{1/2}({-3/2, 1/2}) = (-2,-1) u (0,1)
        s = open_neighborhood(points(-1.5, 0.5), 0.5)
        assert s.intervals == ((-2.0, -1.0), (0.0, 1.0))
        assert s.is_open

    def test_open_neighborhood_example_case2(self):
        s = open_neighborhood(points(0.0), 1.0)
        assert s.intervals == ((-1.0, 1.0),)
        assert s.is_open

    def test_open_endpoint_excluded(self):
        s = open_neighborhood(points(-1.5, 0.5), 0.5)
        assert not contains(s, -2.0)
        assert contains(s, -1.5)

    def test_neighborhood_bounds_normalize_like_spectral_sets(self, rng):
        rows = [rng.uniform(-2, 2, 4) for _ in range(40)] + [
            np.array([0.0, 1.0, 3.0, 2.0]),  # radius 0.5: touching neighborhoods merge
            np.array([1.0, 1.0, -1.0, 0.0]),
        ]
        points_ = np.array(rows)
        radius = np.concatenate([rng.uniform(0.05, 1.0, 40), [0.5, 0.25]])
        groups = [([SpectralSet.from_points(row) for row in points_], radius,
                   neighborhood_bounds(points_, radius))]
        # sets of 1 to 4 intervals stacked in one call, the shorter rows repeating their last one
        sets = [SpectralSet(np.sort(rng.uniform(-3, 3, 2 * k)).reshape(k, 2))
                for k in rng.integers(1, 5, 30)]
        sets += [SpectralSet([(0.0, 1.0), (1.5, 2.0)]), SpectralSet([(3.0, 3.0)])]
        radius = np.concatenate([rng.uniform(0.05, 1.0, 30), [0.25, 0.5]])
        lo, hi = (np.array([np.pad(x, (0, 4 - len(x)), mode="edge") for x in ends])
                  for ends in zip(*(s.bounds for s in sets)))
        groups.append((sets, radius, neighborhood_bounds(lo, radius, hi)))
        for sets, radius, (lo, hi) in groups:
            for s, r, l, h in zip(sets, radius, lo, hi):
                want = open_neighborhood(s, float(r))
                assert tuple(dict.fromkeys(zip(l.tolist(), h.tolist()))) == want.intervals
                # a selection's flag names the set that its endpoints make
                assert repr(SpectralSet(zip(l, h), is_open=True)) == repr(want)

    def test_open_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            open_neighborhood(points(0.0), 0.0)

    def test_neighborhoods_compose(self, rng):
        # equality up to round-off in the endpoint arithmetic
        for _ in range(100):
            s = points(*rng.uniform(-5, 5, 4))
            d1, d2 = rng.uniform(0, 1, 2)
            once = closed_neighborhood(s, d1 + d2)
            twice = closed_neighborhood(closed_neighborhood(s, d1), d2)
            xs = rng.uniform(-8, 8, 50)
            assert np.abs(distance_to_points(once, xs) - distance_to_points(twice, xs)).max() < 1e-12


class TestLocate:
    def test_closed_boundary_counts_inside(self):
        s = SpectralSet([(-2, 2)])
        inside, ambiguous, _ = locate_points([-2.0, -2.0 - 5e-11, -2.1], *s.bounds, False, 1e-10)
        assert inside.tolist() == [True, True, False]
        assert not ambiguous.any()

    def test_open_boundary_is_ambiguous(self):
        s = SpectralSet([(-2, -1), (0, 1)], is_open=True)
        inside, ambiguous, _ = locate_points([-2.0, 0.5, -0.5], *s.bounds, True, 1e-10)
        assert inside.tolist() == [False, True, False]
        assert ambiguous.tolist() == [True, False, False]

    def test_near_boundary(self):
        s = SpectralSet([(0, 1)])
        _, _, near = locate_points([1.0, 0.5], *s.bounds, False, 1e-10)
        assert near.tolist() == [True, False]

    def test_locate_points_matches_the_pointwise_rule(self, rng):
        tol = 1e-3
        for _ in range(60):
            raw = [tuple(sorted(rng.uniform(-5, 5, 2))) for _ in range(3)]
            if rng.uniform() < 0.3:
                raw.append((float(rng.uniform(-5, 5)), math.inf))
            for is_open in (False, True):
                s = SpectralSet(raw, is_open=is_open)
                ends = [e for iv in s.intervals for e in iv if math.isfinite(e)]
                xs = np.concatenate([rng.uniform(-8, 8, 40), ends, np.add(ends, 0.5 * tol)])
                inside, ambiguous, near = locate_points(xs, *s.bounds, is_open, tol)
                for x, i, a, n in zip(xs, inside, ambiguous, near):
                    assert n == (boundary_distance(s, x) <= tol)
                    if is_open:
                        assert a == n
                        assert i == (not n and contains(s, x))
                    else:
                        assert not a
                        assert i == (distance_to_points(s, [x])[0] <= tol)

    def test_locate_points_stacked_rows_match_single_calls(self, rng):
        lo = np.sort(rng.uniform(-3, 3, (5, 2)), axis=1)
        hi = lo + 0.4
        x = rng.uniform(-3, 3, (5, 6))
        x[:, 0] = lo[:, 0]
        tol = rng.uniform(0.0, 0.1, 5)
        for is_open in (False, True):
            stacked = locate_points(x, lo, hi, is_open, tol)
            for t in range(5):
                single = locate_points(x[t], lo[t], hi[t], is_open, tol[t])
                for got, want in zip(stacked, single):
                    assert np.array_equal(got[t], want)

    def test_empty_set_is_outside(self):
        inside, ambiguous, near = locate_points([0.0, 1.0], *SpectralSet([]).bounds, True, 1.0)
        assert not inside.any() and not ambiguous.any() and not near.any()


class TestClassify:
    def test_interleaved_is_case_i(self):
        c = classify_case(points(-1.5, 0.5), points(-0.5, 1.5))
        assert c.case is Case.CASE_I

    def test_nested_is_case_ii(self):
        c = classify_case(points(0.0), points(-1.0, 1.0))
        assert c.case is Case.CASE_II
        assert "sigma" in c.detail

    def test_case_ii_other_side_reported(self):
        c = classify_case(points(-1.0, 1.0), points(0.0))
        assert c.case is Case.CASE_II
        assert "Sigma" in c.detail

    def test_subordinated(self):
        c = classify_case(SpectralSet([(0, 1)]), SpectralSet([(2, 3)]))
        assert c.case is Case.SUBORDINATED

    def test_subordination_beats_case_ii(self):
        # hull separation also holds here; SUBORDINATED must win
        sigma, Sigma = points(0.0, 1.0), points(3.0)
        assert not any(sigma.lo[0] <= hi and lo <= sigma.hi[-1] for lo, hi in Sigma.intervals)
        assert classify_case(sigma, Sigma).case is Case.SUBORDINATED

    def test_symmetric_up_to_side(self, rng):
        for _ in range(100):
            s = points(*rng.uniform(-5, 5, 3))
            t = points(*rng.uniform(-5, 5, 3))
            if s.distance(t) == 0:
                continue
            assert classify_case(s, t).case is classify_case(t, s).case

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            classify_case(points(0.0), points(0.0))

    # sigma and Sigma that reach one infinite end, each with one eigenvalue of A = diag(0, x)
    AT_INFINITY = {
        "+inf": ([(0.0, math.inf)], [-5.0, math.inf], -5.0),
        "-inf": ([(-math.inf, 0.0)], [-math.inf, 5.0], 5.0),
    }

    @pytest.mark.parametrize("end", sorted(AT_INFINITY))
    def test_sets_meeting_at_an_infinite_end_are_not_separated(self, end):
        # inf - inf makes their distance NaN, and a NaN distance is no separation
        raw_sigma, raw_Sigma, x = self.AT_INFINITY[end]
        sigma, Sigma = SpectralSet(raw_sigma), SpectralSet(raw_Sigma)
        a = np.diag([0.0, x])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="must be separated"):
                classify_case(sigma, Sigma)
            with pytest.raises(ValidationError, match="must be separated"):
                PerturbationProblem.build(a, np.zeros((2, 2)), sigma, Sigma)
            with pytest.raises(ValueError, match="positive distance"):
                verify_pair_inequality(a, a, sigma, Sigma)
            with pytest.raises(ValueError, match="must be separated"):  # raised as it is made
                ProblemSpec((0.0, raw_Sigma[-1 if end == "+inf" else 0]), tuple(raw_Sigma),
                            0.5, seed=0)
        assert not caught
