import math

import numpy as np
import pytest

from offdiag import Case, SpectralSet, classify_case
from offdiag.intervals import locate_points, neighborhood_bounds


def points(*vals):
    return SpectralSet.from_points(vals)


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

    def test_empty(self):
        s = SpectralSet.empty()
        assert s.is_empty
        with pytest.raises(ValueError):
            _ = s.inf


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
            SpectralSet.empty().distance(points(0.0))

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
            lhs = s.closed_neighborhood(delta).distance(t)
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
            got = s.distance_to_points(xs)
            for x, g in zip(xs, got):
                assert g == min(max(lo - x, x - hi, 0.0) for lo, hi in s.intervals)
                assert s.distance_to_point(x) == g


class TestNeighborhoods:
    def test_closed_merges_to_single_interval(self):
        s = points(-1.5, -0.5, 0.5, 1.5).closed_neighborhood(0.5)
        assert s.intervals == ((-2.0, 2.0),)

    def test_closed_merge_against_membership_oracle(self, rng):
        # expanding each interval and testing membership pointwise must agree
        # with the normalized union
        for _ in range(50):
            raw = [tuple(sorted(rng.uniform(-5, 5, 2))) for _ in range(4)]
            delta = float(rng.uniform(0, 1.5))
            s = SpectralSet(raw).closed_neighborhood(delta)
            expanded = [(lo - delta, hi + delta) for lo, hi in raw]
            probes = list(rng.uniform(-8, 8, 200)) + [e for iv in expanded for e in iv]
            for x in probes:
                oracle = any(lo <= x <= hi for lo, hi in expanded)
                assert s.contains(x) == oracle

    def test_zero_radius_identity(self):
        s = SpectralSet([(0, 1), (3, 3)])
        assert s.closed_neighborhood(0.0) == s

    def test_single_point(self):
        assert points(0.0).closed_neighborhood(1.0).intervals == ((-1.0, 1.0),)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            points(0.0).closed_neighborhood(-0.1)

    def test_open_neighborhood_example_case1(self):
        # O_{1/2}({-3/2, 1/2}) = (-2,-1) u (0,1)
        s = points(-1.5, 0.5).open_neighborhood(0.5)
        assert s.intervals == ((-2.0, -1.0), (0.0, 1.0))
        assert s.is_open

    def test_open_neighborhood_example_case2(self):
        s = points(0.0).open_neighborhood(1.0)
        assert s.intervals == ((-1.0, 1.0),)
        assert s.is_open

    def test_open_endpoint_excluded(self):
        s = points(-1.5, 0.5).open_neighborhood(0.5)
        assert not s.contains(-2.0)
        assert s.contains(-1.5)

    def test_neighborhood_bounds_normalize_like_spectral_sets(self, rng):
        rows = [rng.uniform(-2, 2, 4) for _ in range(40)] + [
            np.array([0.0, 1.0, 3.0, 2.0]),  # radius 0.5: touching neighborhoods merge
            np.array([1.0, 1.0, -1.0, 0.0]),
        ]
        points_ = np.array(rows)
        radius = np.concatenate([rng.uniform(0.05, 1.0, 40), [0.5, 0.25]])
        lo, hi = neighborhood_bounds(points_, radius)
        for row, r, l, h in zip(points_, radius, lo, hi):
            want = SpectralSet.from_points(row).open_neighborhood(float(r)).intervals
            assert tuple(dict.fromkeys(zip(l.tolist(), h.tolist()))) == want

    def test_open_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            points(0.0).open_neighborhood(0.0)

    def test_neighborhoods_compose(self, rng):
        # equality up to round-off in the endpoint arithmetic
        for _ in range(100):
            s = points(*rng.uniform(-5, 5, 4))
            d1, d2 = rng.uniform(0, 1, 2)
            once = s.closed_neighborhood(d1 + d2)
            twice = s.closed_neighborhood(d1).closed_neighborhood(d2)
            for x in rng.uniform(-8, 8, 50):
                assert abs(once.distance_to_point(x) - twice.distance_to_point(x)) < 1e-12


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
                    assert n == (s.boundary_distance(x) <= tol)
                    if is_open:
                        assert a == n
                        assert i == (not n and s.contains(x))
                    else:
                        assert not a
                        assert i == (s.distance_to_point(x) <= tol)

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
        inside, ambiguous, near = locate_points([0.0, 1.0], *SpectralSet.empty().bounds, True, 1.0)
        assert not inside.any() and not ambiguous.any() and not near.any()


class TestConvexHull:
    def test_two_points(self):
        assert points(-1.5, 0.5).convex_hull().intervals == ((-1.5, 0.5),)

    def test_singleton(self):
        assert points(0.0).convex_hull().intervals == ((0.0, 0.0),)

    def test_span(self):
        s = SpectralSet([(0, 1), (5, 6)])
        assert s.convex_hull().intervals == ((0.0, 6.0),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpectralSet.empty().convex_hull()


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
        assert not sigma.convex_hull().intersects(Sigma)
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
