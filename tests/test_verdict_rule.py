"""The array verdict rule against a scalar reference, row by row.

``analysis._verdict`` takes a check's columns and makes every row's report.
``scalar_verdict`` below is the rule as it was written for one row of
floats; each row's report from the columns must equal the scalar rule's on
that row: premise verdict, holds, margin, claimed and measured values (bit
for bit), witnesses and flags.  The rows cover signed zeros, infinities and
NaN, margins exactly at the slack, negative and zero claims, dimensional
and scale-free numbers, ``premise_first`` and findings.
"""

import itertools
import math
import pathlib
from typing import Sequence

import numpy as np
import pytest

from offdiag import analysis
from offdiag.analysis import AnalysisReport, _premise_met, _verdict
from offdiag.config import DEFAULT_TOL, Tolerances


def scalar_verdict(
    theorem: str, scale: float, tol: Tolerances, *, measured: float, claimed: float,
    witnesses: dict[str, float], dimensional: bool = False, margin: float = math.inf,
    margin_dimensional: bool = True, premise: str = "", unmet: Sequence[str] = (),
    exact: bool = True, bounds: Sequence[tuple[float, float]] = (),
    flags: Sequence[str] = (), findings: Sequence[str] = (), premise_first: bool = False,
) -> AnalysisReport:
    """The verdict rule on one row of floats, as the checks once called it row by row."""
    slack = tol.report
    unit = scale if dimensional else 1.0

    def fits(x: float, c: float) -> bool:
        return x <= c + slack * max(1.0, abs(c))

    failed = list(unmet)
    if premise and not margin / (scale if margin_dimensional else 1.0) > slack:
        failed.append(premise)
    satisfied = not failed
    holds = not satisfied or bool(
        exact and fits(measured / unit, claimed / unit) and all(fits(x, c) for x, c in bounds)
    )
    flags = [*failed, *flags] if premise_first else [*flags, *failed]
    if satisfied:
        flags.extend(findings)
    return AnalysisReport(
        theorem=theorem,
        premise_satisfied=satisfied,
        premise_margin=margin,
        claimed_bound=claimed,
        measured_value=measured,
        holds=holds,
        witnesses=witnesses,
        flags=tuple(flags),
    )


SLACK = DEFAULT_TOL.report
MEASURED = [0.0, -0.0, 0.5, 1.0, -1.0, 1.0 + SLACK, 1.0 + 2 * SLACK, 2.0, math.inf, -math.inf,
            math.nan]
CLAIMED = [0.0, -0.0, 1.0, -2.0, 1e-300, math.inf, -math.inf, math.nan]
# at the slack in both units: scale 2 makes 2 * SLACK a dimensional margin of exactly SLACK
MARGINS = [SLACK, 2 * SLACK, 0.5 * SLACK, np.nextafter(SLACK, 1.0), np.nextafter(SLACK, 0.0),
           0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]
SCALES = [1.0, 2.0, 0.5]
ROWS = list(itertools.product(MEASURED, CLAIMED, MARGINS, SCALES))


def bits(x: float) -> str:
    return repr(x)


def assert_same(got: AnalysisReport, want: AnalysisReport) -> None:
    assert (got.theorem, got.premise_satisfied, got.holds) == (
        want.theorem, want.premise_satisfied, want.holds)
    for name in ("premise_margin", "claimed_bound", "measured_value"):
        assert type(getattr(got, name)) is float
        assert bits(getattr(got, name)) == bits(getattr(want, name))
    assert got.flags == want.flags
    assert list(got.witnesses) == list(want.witnesses)
    assert [bits(x) for x in got.witnesses.values()] == [bits(x) for x in want.witnesses.values()]
    assert all(type(x) is float for x in got.witnesses.values())


@pytest.mark.parametrize("dimensional", [False, True], ids=["scale-free", "dimensional"])
@pytest.mark.parametrize("margin_dimensional", [False, True], ids=["margin-1", "margin-scale"])
@pytest.mark.parametrize("premise_first", [False, True], ids=["flags-first", "premise-first"])
@pytest.mark.parametrize("with_premise", [False, True], ids=["no-premise", "premise"])
@pytest.mark.parametrize("with_bounds", [False, True], ids=["no-bounds", "bounds"])
def test_every_row_is_the_scalar_rule(dimensional, margin_dimensional, premise_first,
                                      with_premise, with_bounds):
    measured, claimed, margin, scale = (np.array(x) for x in zip(*ROWS))
    count = len(ROWS)
    index = np.arange(count)
    exact = index % 5 != 0
    # the bound pairs run through the same values as the main pair, in other orders
    bound_x = np.array(MEASURED * (count // len(MEASURED) + 1))[:count][::-1]
    bound_c = np.array(CLAIMED * (count // len(CLAIMED) + 1))[:count]
    unmet = [[f"unmet {i}"] if i % 7 == 0 else [] for i in range(count)]
    flags = [[f"flag {i}", "second"] if i % 3 == 0 else [] for i in range(count)]
    findings = [[f"finding {i}"] if i % 2 == 0 else [] for i in range(count)]
    premise = [f"premise {i}" for i in range(count)]
    counts = index % 4
    kwargs = dict(dimensional=dimensional, margin_dimensional=margin_dimensional,
                  premise_first=premise_first)

    got = _verdict(
        "T", scale, DEFAULT_TOL, measured=measured, claimed=claimed, margin=margin,
        witnesses={"m": measured, "count": counts, "c": claimed}, exact=exact,
        bounds=[(bound_x, bound_c), (measured, 1.0)] if with_bounds else (),
        premise=premise if with_premise else (), unmet=unmet, flags=flags, findings=findings,
        **kwargs,
    )
    assert len(got) == count
    for i, report in enumerate(got):
        want = scalar_verdict(
            "T", float(scale[i]), DEFAULT_TOL, measured=float(measured[i]),
            claimed=float(claimed[i]), margin=float(margin[i]),
            witnesses={"m": float(measured[i]), "count": float(counts[i]),
                       "c": float(claimed[i])},
            exact=bool(exact[i]),
            bounds=[(float(bound_x[i]), float(bound_c[i])), (float(measured[i]), 1.0)]
            if with_bounds else (),
            premise=premise[i] if with_premise else "", unmet=unmet[i], flags=flags[i],
            findings=findings[i], **kwargs,
        )
        assert_same(report, want)


def test_margin_at_the_slack_is_no_premise():
    # margin / unit > slack is strict: exactly at the slack fails, one ulp above passes
    scale = np.array([1.0, 2.0, 1.0, 2.0])
    margin = np.array([SLACK, 2 * SLACK, np.nextafter(SLACK, 1.0), np.nextafter(2 * SLACK, 1.0)])
    reports = _verdict("T", scale, DEFAULT_TOL, measured=0.0, claimed=0.0, margin=margin,
                       premise=["p"] * 4, witnesses={})
    assert [r.premise_satisfied for r in reports] == [False, False, True, True]
    assert _premise_met(margin, scale, DEFAULT_TOL).tolist() == [False, False, True, True]


def test_scalars_stand_for_every_row_and_no_witness_columns_give_empty_witnesses():
    reports = _verdict("T", np.array([1.0, 4.0]), DEFAULT_TOL, measured=math.nan,
                       claimed=math.inf, margin=-math.inf, unmet=[["u"], []], witnesses={})
    assert [(r.premise_satisfied, r.holds, r.witnesses, r.flags) for r in reports] == [
        (False, True, {}, ("u",)), (True, False, {}, ())]
    assert all(bits(r.premise_margin) == "-inf" and bits(r.measured_value) == "nan"
               for r in reports)


def test_a_none_witness_entry_leaves_its_name_out_of_that_row():
    column = np.array([1.5, None], dtype=object)
    reports = _verdict("T", np.ones(2), DEFAULT_TOL, measured=0.0, claimed=1.0,
                       witnesses={"a": np.array([3, 4]), "b": column, "c": np.zeros(2)})
    assert [r.witnesses for r in reports] == [{"a": 3.0, "b": 1.5, "c": 0.0},
                                              {"a": 4.0, "c": 0.0}]


def test_reports_are_made_only_by_the_rule():
    # the checks hand their columns to _verdict, the one place that makes an AnalysisReport
    package = pathlib.Path(analysis.__file__).parent
    made = {p.name: p.read_text(encoding="utf-8").count("AnalysisReport(")
            for p in package.glob("*.py")}
    assert {name: n for name, n in made.items() if n} == {"analysis.py": 1}
