"""Premise-satisfied rows at each norm threshold, and at extreme norm ratios, hold.

A verdict reads the premise, measured <= claimed, the bound pairs and side
conditions about the operator; it never re-tests the value of the claim
itself.  Where the claim is the premise in other words (MAIN's reaches 1
exactly at c_pi, CASE2's sin-arctan claim is below 1 exactly when
||V|| < sqrt(2) d), a re-test of the rounded claim can fail on a row whose
premise holds: CASE2's claim rounds to 1.0 for 1 - ||V|| / (sqrt(2) d)
between about 1.5e-9 and 1e-8.  So the sweep puts generated problems at
relative offsets of 1e-3 to 1e-14 on both sides of each threshold, and runs
the ratio-free checks from ||V|| = d to 1e8 d.  Each theorem, case and
dims is one ``batch_verify`` stack, and no row whose premise holds may be
reported violated.  CASE_II problems also run with sigma and Sigma exchanged
("swapped"), so that only Sigma's hull is separated and the hull-separated
checks swap roles; SHIFT_III and CASE2 then also run at ratios from 0.02 up
to their threshold.
"""

import dataclasses
import math

import numpy as np
import pytest

from offdiag import C_PI, Case, batch_verify, random_problem, random_problem_spec
from offdiag.cli import main
from offdiag.io import save_problem

SQRT2 = math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
OFFSETS = [sign * 10.0**-k for k in range(3, 15) for sign in (1.0, -1.0)]
RATIOS = np.geomspace(1.0, 1e8, 9).tolist()
DIMS = [(2, 2), (3, 5), (8, 8)]
SEEDS = range(4)

# (theorem, case, threshold, swap)
THRESHOLDS = [
    ("MAIN", Case.CASE_I, C_PI, False),
    ("SHIFT_II", Case.CASE_I, SQRT3_2, False),
    ("SHIFT_III", Case.CASE_II, SQRT2, False),
    ("CASE2", Case.CASE_II, SQRT2, False),
    ("CASE2", Case.SUBORDINATED, SQRT2, False),
    ("SHIFT_III", Case.CASE_II, SQRT2, True),
    ("CASE2", Case.CASE_II, SQRT2, True),
]
# (theorem, case, swap, ratios): B's placement tolerance reaches the gap d from ||V|| / d of about
# 3e9 at dims 3+5, where SUBORDINATED flags AMBIGUOUS eigenvalues and still reports a violation;
# the sweep stops at 1e8.  With the roles swapped, SHIFT_III and CASE2 also run from 0.02 up to
# their threshold: SHIFT_III once checked sigma there, whose hull is not the separated one, and
# 47 of its 300 rows below 1.4 were premise-satisfied violations
BELOW_SQRT2 = np.linspace(0.02, 1.4, 25).tolist()
EXTREMES = [
    *(("SHIFT_BOUNDS", case, False, RATIOS) for case in Case),
    *(("SHIFT_I", case, False, RATIOS) for case in Case),
    ("TAN_THETA", Case.CASE_II, False, RATIOS),
    ("TAN_THETA", Case.SUBORDINATED, False, RATIOS),
    ("SUBORDINATED", Case.SUBORDINATED, False, RATIOS),
    *((theorem, Case.CASE_II, True, RATIOS)
      for theorem in ("SHIFT_BOUNDS", "SHIFT_I", "TAN_THETA")),
    *((theorem, Case.CASE_II, True, BELOW_SQRT2 + RATIOS) for theorem in ("SHIFT_III", "CASE2")),
]
ROLES_SWAPPED = "roles swapped: the separated hull is Sigma's"


def case_id(theorem, case, swap):
    return f"{theorem}-{case.value}" + ("-swapped" if swap else "")


def swept(theorem, case, ratios, swap=False):
    """``(dims, ratio, seed, report)`` of ``theorem`` on each generated problem, a stack per dims;
    with ``swap``, each problem's layout has sigma and Sigma exchanged."""
    rows = []
    for dims in DIMS:
        keys = [(ratio, seed) for ratio in ratios for seed in SEEDS]
        specs = [random_problem_spec(case, *dims, ratio, seed) for ratio, seed in keys]
        if swap:
            specs = [dataclasses.replace(s, sigma_values=s.Sigma_values,
                                         Sigma_values=s.sigma_values) for s in specs]
        rows += [(dims, *key, report) for key, report in zip(keys, batch_verify(specs, [theorem]))]
    return rows


def violations(rows):
    return [(dims, ratio, seed, report.measured_value, report.claimed_bound)
            for dims, ratio, seed, report in rows if report.premise_satisfied and not report.holds]


@pytest.mark.parametrize("theorem, case, threshold, swap", THRESHOLDS,
                         ids=[case_id(t, c, swap) for t, c, _, swap in THRESHOLDS])
def test_no_premise_satisfied_violation_at_the_threshold(theorem, case, threshold, swap):
    rows = swept(theorem, case, [threshold * (1.0 + offset) for offset in OFFSETS], swap)
    assert len(rows) == len(DIMS) * len(OFFSETS) * len(SEEDS)
    assert all((ROLES_SWAPPED in report.flags) == swap for *_, report in rows)
    assert violations(rows) == []
    # the premise holds a relative 1e-3 below the threshold and never above it
    assert all(report.premise_satisfied for _, ratio, _, report in rows
               if ratio < threshold * (1.0 - 5e-4))
    assert not any(report.premise_satisfied for _, ratio, _, report in rows if ratio > threshold)


def test_the_case2_sweep_reaches_the_band_where_its_claim_rounds_to_one():
    rows = swept("CASE2", Case.CASE_II, [SQRT2 * (1.0 - 1e-8)])
    met = [report for *_, report in rows if report.premise_satisfied]
    assert len(met) > len(rows) / 2
    assert [(report.claimed_bound, report.holds) for report in met] == [(1.0, True)] * len(met)


def test_the_command_line_exits_0_in_the_case2_band(tmp_path, capsys):
    ratio = "1.4142135482309595"  # sqrt(2) (1 - 1e-8)
    assert main(["verify", "--random", "case2", "--dims", "2,2", "--ratio", ratio, "--trials",
                 "40", "--seed", "0"]) == 0
    assert "160 with premise satisfied, 0 violations" in capsys.readouterr().out
    path = tmp_path / "band.json"
    save_problem(random_problem(random_problem_spec(Case.CASE_II, 2, 2, float(ratio), 0)), path)
    assert main(["analyze", str(path), "--theorem", "CASE2"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("CASE2 "))
    _, premise, claimed, _, holds, *_ = row.split()
    assert (premise, claimed, holds) == ("yes", "1", "ok")


@pytest.mark.parametrize("theorem, case, swap, ratios", EXTREMES,
                         ids=[case_id(*x[:3]) for x in EXTREMES])
def test_no_premise_satisfied_violation_up_to_ratio_1e8(theorem, case, swap, ratios):
    rows = swept(theorem, case, ratios, swap)
    assert violations(rows) == []
    assert any(report.premise_satisfied for *_, report in rows)
