"""Acceptance suite: every stated inequality, at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure).  Tolerances are pinned here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from offdiag import (
    C_PI,
    Case,
    SpectralSet,
    bound_case1,
    bound_case2,
    bound_subordinated,
    builtin_example,
    delta_v,
    gap_persistence,
    graph_operator,
    projection_difference_norm,
    qnr_sample,
    random_problem,
    random_problem_spec,
    search_worst_case,
    spectral_norm,
    spectrum_enclosure,
    two_by_two_extremes,
    verify_pair_inequality,
)

from conftest import dense, random_close_projection, random_hermitian, random_projection, select
from test_intervals import distance_to_points, open_neighborhood

SQRT2 = math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0


def note(criterion, ok, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_example_case1_reproduction():
    p = builtin_example("CASE1")
    eigs = p.b_eigen.eigenvalues
    spectrum_ok = np.allclose(eigs, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)
    hood = open_neighborhood(p.sigma, 0.5)
    mask, ambiguous, flags = select(eigs, hood, p.tol.eig(eigs))
    empty_ok = int(mask.sum()) == 0
    ambiguity_exercised = bool(ambiguous.any()) and any("AMBIGUOUS" in f for f in flags)
    norms_ok = abs(p.norm_v - SQRT3_2) < 1e-12 and abs(p.d - 1.0) < 1e-12
    note(
        1,
        spectrum_ok and empty_ok and ambiguity_exercised and norms_ok,
        f"spec(B) = {np.round(eigs, 12)}, open d/2-neighborhood of sigma misses it, "
        f"||V|| = {p.norm_v!r}, d = {p.d!r}",
    )


def test_02_example_case2_reproduction():
    p = builtin_example("CASE2")
    eigs = p.b_eigen.eigenvalues
    spectrum_ok = np.allclose(eigs, [-2.0, 1.0, 1.0], atol=1e-10)
    hood = open_neighborhood(p.sigma, 1.0)
    mask, _, _ = select(eigs, hood, p.tol.eig(eigs))
    empty_ok = int(mask.sum()) == 0
    norm_ok = abs(p.norm_v - SQRT2) < 1e-12
    note(
        2,
        spectrum_ok and empty_ok and norm_ok,
        f"spec(B) = {np.round(eigs, 12)}, open d-neighborhood of sigma misses it, "
        f"||V|| = {p.norm_v!r}",
    )


def test_03_closed_form_anchors():
    anchors_ok = (
        abs(delta_v(SQRT3_2, 1.0) - 0.5) < 1e-12 and abs(delta_v(SQRT2, 1.0) - 1.0) < 1e-12
    )
    c_pi_ok = abs(C_PI - 0.503288) < 1e-6

    g = lambda x: (math.pi / 2) * x + x * math.tan(0.5 * math.atan(2 * x)) - 1.0
    lo, hi = 0.1, 1.0
    sign_change = g(lo) < 0 < g(hi)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    root_ok = sign_change and abs(root - C_PI) < 1e-12
    note(
        3,
        anchors_ok and c_pi_ok and root_ok,
        f"delta anchors exact, c_pi = {C_PI!r}, bisection root {root!r}",
    )


def _suite_specs(rng, count, cases, ratio_draw, min_block=2, max_block=16):
    specs = []
    for k in range(count):
        case = cases[k % len(cases)]
        n0 = int(rng.integers(min_block, max_block + 1))
        n1 = int(rng.integers(max(min_block, 2 if case is Case.CASE_II else min_block),
                              max_block + 1))
        specs.append(
            random_problem_spec(case, n0, n1, ratio_draw(), seed=int(rng.integers(2**32)))
        )
    return specs


def test_04_enclosure_suite():
    rng = np.random.default_rng(40)
    start = time.time()
    worst = 0.0
    cases = [Case.CASE_I, Case.CASE_II, Case.SUBORDINATED]
    for k in range(1000):
        case = cases[k % 3]
        n0 = int(rng.integers(2, 17))
        n1 = int(rng.integers(2, 17))
        ratio = float(rng.uniform(1e-6, 3.0))
        spec = random_problem_spec(case, n0, n1, ratio, seed=int(rng.integers(2**32)))
        r = spectrum_enclosure(random_problem(spec))
        worst = max(worst, r.measured_value - r.claimed_bound)
        assert r.measured_value <= r.claimed_bound + 1e-9, (spec, r)
    elapsed = time.time() - start
    note(
        4,
        worst <= 1e-9 and elapsed <= 60.0,
        f"1000 problems, worst excursion beyond delta_V = {worst:.3e}, {elapsed:.1f}s",
    )


def test_05_gap_persistence_suites():
    rng = np.random.default_rng(50)
    ok = True
    count_findings = 0  # count-vs-rank mismatches are recorded, not failed
    for k in range(500):
        case = [Case.CASE_I, Case.CASE_II, Case.SUBORDINATED][k % 3]
        spec = random_problem_spec(
            case, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
            float(rng.uniform(1e-3, SQRT3_2)), seed=int(rng.integers(2**32)),
        )
        r = gap_persistence(random_problem(spec), variant="half")
        if r.premise_satisfied:
            ok = ok and r.holds and r.witnesses["intersection_equality"] == 1.0
            ok = ok and r.witnesses["inside_closed_count"] >= 1
            count_findings += sum(1 for f in r.flags if f.startswith("finding"))
    for k in range(500):
        case = [Case.CASE_II, Case.SUBORDINATED][k % 2]
        spec = random_problem_spec(
            case, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
            float(rng.uniform(1e-3, SQRT2)), seed=int(rng.integers(2**32)),
        )
        r = gap_persistence(random_problem(spec), variant="full")
        if r.premise_satisfied:
            ok = ok and r.holds and r.witnesses["intersection_equality"] == 1.0
            ok = ok and r.witnesses["inside_closed_count"] >= 1
            count_findings += sum(1 for f in r.flags if f.startswith("finding"))

    # boundary attainment of the critical 4x4 example: flags, no failure
    r = gap_persistence(builtin_example("CASE1"), variant="half")
    boundary_ok = (
        not r.premise_satisfied
        and r.holds
        and any("AMBIGUOUS" in f for f in r.flags)
    )
    e = spectrum_enclosure(builtin_example("CASE1"))
    boundary_ok = boundary_ok and e.holds and any("attains" in f for f in e.flags)
    note(
        5,
        ok and boundary_ok,
        "500 half-gap + 500 full-gap problems: intersection equality and "
        f"nonemptiness hold ({count_findings} count-vs-rank findings); "
        "critical example handled via AMBIGUOUS flags",
    )


def test_06_pi_half_bound_suite():
    rng = np.random.default_rng(60)
    margins = []
    for _ in range(500):
        spec = random_problem_spec(
            Case.CASE_I, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
            0.45, seed=int(rng.integers(2**32)),
        )
        r = bound_case1(random_problem(spec))
        assert r.premise_satisfied, spec
        assert r.holds, (spec, r)
        assert r.claimed_bound < 1.0
        margins.append(r.claimed_bound - r.measured_value)
    note(
        6,
        len(margins) == 500 and min(margins) >= -1e-9,
        f"500 problems at ratio 0.45: zero failures, smallest margin {min(margins):.3e}",
    )


def test_07_case2_bound_suite():
    rng = np.random.default_rng(70)
    ok = True
    corners_ok = True
    for _ in range(500):
        spec = random_problem_spec(
            Case.CASE_II, int(rng.integers(1, 6)), int(rng.integers(2, 9)),
            float(rng.uniform(1e-3, 1.4)), seed=int(rng.integers(2**32)),
        )
        r = bound_case2(random_problem(spec))
        assert r.premise_satisfied, spec
        ok = ok and r.holds and r.claimed_bound < 1.0
        corners_ok = corners_ok and max(
            r.witnesses["corner_left"], r.witnesses["corner_right"]
        ) < SQRT2 / 2
    note(7, ok and corners_ok, "500 hull-separated problems at ratios up to 1.4: "
         "bound and corner norms hold")


def test_08_subordinated_suite():
    rng = np.random.default_rng(80)
    ok = True
    worst_measure = 0.0
    for _ in range(500):
        spec = random_problem_spec(
            Case.SUBORDINATED, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
            float(rng.uniform(1e-3, 10.0)), seed=int(rng.integers(2**32)),
        )
        r = bound_subordinated(random_problem(spec))
        ok = ok and r.holds and r.witnesses["eigenvalues_in_gap"] == 0.0
        worst_measure = max(worst_measure, r.measured_value)
    note(
        8,
        ok and worst_measure < SQRT2 / 2,
        f"500 subordinated problems at ratios up to 10: gap always empty, "
        f"largest measured difference {worst_measure:.6f} < sqrt(2)/2",
    )


def test_09_pair_inequality_suite():
    rng = np.random.default_rng(90)
    checked = 0
    hull_checked = 0
    while checked < 500:
        dim = int(rng.integers(2, 17))
        a = random_hermitian(rng, dim)
        b = a + random_hermitian(rng, dim, scale=float(rng.uniform(0.01, 2.0)))
        ea = np.linalg.eigvalsh(a)
        eb = np.linalg.eigvalsh(b)
        cut = int(rng.integers(1, dim))
        sigma = SpectralSet.from_points(ea[:cut])
        rest = list(eb[distance_to_points(sigma, eb) > 0.05])
        if not rest:
            continue
        delta = SpectralSet.from_points(rest)
        r = verify_pair_inequality(a, b, sigma, delta)
        assert r.holds, r
        assert r.measured_value <= r.witnesses["pi_half_bound"] + 1e-9
        if r.witnesses["hull_separated"]:
            hull_checked += 1
        checked += 1
    note(
        9,
        checked == 500 and hull_checked > 50,
        f"500 random pairs: pi/2-inequality always, constant-1 on "
        f"{hull_checked} hull-separated instances",
    )


def test_10_structural_identities():
    rng = np.random.default_rng(100)
    glaz_worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        p = random_projection(rng, dim, int(rng.integers(1, dim)))
        q = random_projection(rng, dim, int(rng.integers(1, dim)))
        d = projection_difference_norm(p, q)
        glaz_worst = max(glaz_worst, abs(d.norm - max(d.norm_pq_perp, d.norm_pperp_q)))
    glaz_ok = glaz_worst <= 1e-10

    graph_worst = 0.0
    done = 0
    while done < 500:
        dim = int(rng.integers(2, 17))
        p = random_projection(rng, dim, int(rng.integers(1, dim)))
        q = random_close_projection(rng, p, spread=float(rng.uniform(0.05, 0.5)))
        norm = projection_difference_norm(p, q).norm
        if norm >= 0.999:
            continue
        g = graph_operator(p, q)
        rebuild_err = spectral_norm(dense(g.rebuild_projection()) - dense(q))
        sine_err = abs(norm - g.norm / math.sqrt(1 + g.norm**2))
        graph_worst = max(graph_worst, rebuild_err, sine_err)
        done += 1
    graph_ok = graph_worst <= 1e-8

    two_worst = 0.0
    for _ in range(10_000):
        a0, a1 = rng.uniform(-5, 5, 2)
        v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lam, mu = two_by_two_extremes(a0, a1, v)
        w = np.linalg.eigvalsh(np.array([[a0, v], [np.conj(v), a1]]))
        two_worst = max(two_worst, abs(lam - w[0]), abs(mu - w[1]))
    two_ok = two_worst <= 1e-12 * 6  # values up to ~6 in magnitude

    note(
        10,
        glaz_ok and graph_ok and two_ok,
        f"max-identity dev {glaz_worst:.2e} (<=1e-10), graph roundtrip/sine dev "
        f"{graph_worst:.2e} (<=1e-8), 2x2 vs eigensolver dev {two_worst:.2e}",
    )


def test_11_qnr_containment():
    rng = np.random.default_rng(110)
    ok = True
    for k in range(50):
        case = [Case.CASE_I, Case.CASE_II, Case.SUBORDINATED][k % 3]
        spec = random_problem_spec(
            case, int(rng.integers(2, 5)), int(rng.integers(2, 5)),
            float(rng.uniform(0.0, 2.0)), seed=int(rng.integers(2**32)),
        )
        p = random_problem(spec)
        inf_b = p.b_eigen.eigenvalues.min()
        sup_b = p.b_eigen.eigenvalues.max()
        s = qnr_sample(p.b, p.projection, 1000, seed=k)
        if not (np.all(inf_b - 1e-9 <= s.lam) and np.all(s.lam <= s.mu)
                and np.all(s.mu <= sup_b + 1e-9)):
            ok = False
    p = builtin_example("CASE1")
    samples = qnr_sample(p.b, p.projection, 10_000, seed=0)
    min_lam = samples.lam.min()
    soft_ok = abs(min_lam - (-2.0)) <= 0.05
    note(
        11,
        ok and soft_ok,
        f"50 x 1000 samples contained; sharp example min lambda = {min_lam:.4f} "
        "(within 0.05 of -2)",
    )


def test_12_sharpness_search():
    critical = search_worst_case(c=SQRT3_2, trials=3, seed=0)
    sharp_ok = abs(critical.best_value - 1.0) <= 1e-10
    subcritical = search_worst_case(c=0.4, trials=1000, seed=1)
    contractive_ok = subcritical.best_value < 1.0
    note(
        12,
        sharp_ok and contractive_ok,
        f"critical cap reproduces best value {critical.best_value!r}; "
        f"cap 0.4 stays at {subcritical.best_value:.6f} < 1 over 1000 trials",
    )
