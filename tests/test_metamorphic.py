"""Verdicts are invariant under the maps that leave the theorems invariant.

The statements are homogeneous: a unitary conjugation of (A, V), and the map
``s (A, V, sigma, Sigma) + t I`` for s > 0 (t shifts A and the sets only),
carry a problem to one with the same premises and conclusions.  So every
theorem that applies must keep its premise verdict, its verdict and its
number of flags, and its measured value must move by round-off only, after
dividing by s when the value carries the problem's unit.  Some theorems are
also symmetric in the two components, so they must not notice sigma and
Sigma trading places, and those that need a separated convex hull check the
component whose hull it is, so they notice the trade only by a flag.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offdiag import (
    THEOREM_IDS,
    Case,
    PerturbationProblem,
    builtin_example,
    random_problem,
    random_problem_spec,
    run_theorem,
)
from offdiag.intervals import _CLASSES

from conftest import mapped_problem, random_unitary

# theorems whose measured value is a length; the others measure projection norms
DIMENSIONAL = {"SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "SHIFT_III", "MCE"}
CLOSE = 1e-9

# norm ratios ||V|| / d away from every theorem's threshold
FAMILIES = {
    Case.CASE_I: (0.3, 0.7),
    Case.CASE_II: (0.5, 1.2, 2.0),
    Case.SUBORDINATED: (0.5, 4.0),
}
EXAMPLES = [("CASE1", 1.0), ("CASE1", 0.99), ("CASE2", 1.0), ("CASE2", 0.99)]


@st.composite
def problems(draw):
    """A built-in example at scale 1 or 0.99, or a seeded problem of one family."""
    if draw(st.booleans()):
        return builtin_example(*draw(st.sampled_from(EXAMPLES)))
    case = draw(st.sampled_from(list(FAMILIES)))
    spec = random_problem_spec(
        case,
        draw(st.integers(2, 3)),
        draw(st.integers(2, 4)),
        draw(st.sampled_from(FAMILIES[case])),
        seed=draw(st.integers(0, 2**16)),
    )
    return random_problem(spec)


def applicable_reports(problem, theorems=THEOREM_IDS):
    reports = {theorem: run_theorem(problem, theorem) for theorem in theorems}
    return {theorem: r for theorem, r in reports.items()
            if not any(f.startswith("wrong case:") for f in r.flags)}


def assert_same_reports(got, want, s=1.0):
    assert got.keys() == want.keys()
    for theorem, w in want.items():
        g = got[theorem]
        assert (g.premise_satisfied, g.holds, len(g.flags)) == (
            w.premise_satisfied,
            w.holds,
            len(w.flags),
        ), (theorem, g.flags, w.flags)
        unit = s if theorem in DIMENSIONAL else 1.0
        assert g.measured_value / unit == pytest.approx(w.measured_value, abs=CLOSE), theorem


def assert_same_verdicts(problem, s, t, unitary):
    want = applicable_reports(problem)
    assert_same_reports(applicable_reports(mapped_problem(problem, s, t, unitary)), want, s)


# CASE1 with V at 0.99 of critical: at 1e-8 SHIFT_II's premise margin fell below an
# absolute slack; at 1e-12 an absolute eigenvalue tolerance wider than the gap made
# build reject it; rotated at 1e12, round-off failed an absolute Hermitian check.
# Critical CASE1 attains the SHIFT bounds, so rotated at 1e12 their round-off must stay
# inside a slack relative to the scale.
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    problem=problems(),
    exponent=st.floats(-12.0, 12.0),
    shift=st.floats(-3.0, 3.0),
    rotation=st.none() | st.integers(0, 2**16),
)
@example(problem=builtin_example("CASE1", 0.99), exponent=-8.0, shift=0.0, rotation=None)
@example(problem=builtin_example("CASE1", 0.99), exponent=-12.0, shift=0.0, rotation=None)
@example(problem=builtin_example("CASE1", 0.99), exponent=12.0, shift=0.0, rotation=1)
@example(problem=builtin_example("CASE1"), exponent=12.0, shift=0.0, rotation=0)
def test_verdicts_survive_scaling_shift_and_rotation(problem, exponent, shift, rotation):
    s = 10.0**exponent
    u = None
    if rotation is not None:
        u = random_unitary(np.random.default_rng(rotation), problem.dim)
    assert_same_verdicts(problem, s, shift * s, u)


SWAP_SYMMETRIC = ("SHIFT_BOUNDS", "SHIFT_I", "SUBORDINATED")


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(problem=problems())
def test_symmetric_verdicts_survive_swapping_sigma_and_Sigma(problem):
    """SHIFT_BOUNDS, SHIFT_I and SUBORDINATED read sigma and Sigma symmetrically.

    The other six are left out.  SHIFT_III, CASE2 and TAN_THETA add a
    "roles swapped" flag on one of the two problems, so their flag counts
    differ by one; the next test covers them.  SHIFT_II and MAIN look at B's
    spectrum in neighbourhoods of sigma, which the swap moves to Sigma.
    """
    swapped = PerturbationProblem.build(problem.a, problem.v, problem.Sigma, problem.sigma)
    assert_same_reports(
        applicable_reports(swapped, SWAP_SYMMETRIC), applicable_reports(problem, SWAP_SYMMETRIC)
    )


HULL_SEPARATED = ("SHIFT_III", "CASE2", "TAN_THETA")
SWAPPED = "roles swapped: the separated hull is Sigma's"


@st.composite
def case2_problems(draw):
    """The built-in CASE2 example at a drawn scale, or a seeded CASE_II problem."""
    if draw(st.booleans()):
        return builtin_example("CASE2", draw(st.sampled_from((0.5, 0.99, 1.0, 1.2))))
    spec = random_problem_spec(
        Case.CASE_II,
        draw(st.integers(1, 3)),
        draw(st.integers(2, 5)),
        draw(st.floats(0.05, 2.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    return random_problem(spec)


# the CASE2 example at 0.5 with sigma and Sigma exchanged reported SHIFT_III VIOLATED, as
# SHIFT_III then checked sigma, whose hull is not the separated one
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(problem=case2_problems())
@example(problem=builtin_example("CASE2", 0.5))
def test_hull_separated_verdicts_survive_swapping_sigma_and_Sigma(problem):
    """SHIFT_III, CASE2 and TAN_THETA check the component whose convex hull is separated.

    On a CASE_II problem that is sigma (``intervals._CLASSES[2]``); with
    sigma and Sigma exchanged it is Sigma (``_CLASSES[3]``), and the roles
    swap.  So each keeps its premise, verdict and measured value bit for bit
    and gains exactly one flag, that the roles swapped.
    """
    swapped = PerturbationProblem.build(problem.a, problem.v, problem.Sigma, problem.sigma)
    assert (problem.classification, swapped.classification) == (_CLASSES[2], _CLASSES[3])
    want, got = (applicable_reports(p, HULL_SEPARATED) for p in (problem, swapped))
    assert list(got) == list(want) == list(HULL_SEPARATED)
    for theorem, w in want.items():
        g = got[theorem]
        assert (g.premise_satisfied, g.holds, g.measured_value.hex()) == (
            w.premise_satisfied, w.holds, w.measured_value.hex()), (theorem, g.flags, w.flags)
        assert SWAPPED not in w.flags and g.flags.count(SWAPPED) == 1, theorem
        assert [f for f in g.flags if f != SWAPPED] == list(w.flags), theorem
