"""Full ``analyze`` reports against ones recorded before the block-norm rewrite.

``data/golden_reports.json`` holds, for both built-in examples and one
seeded 16+16 CASE_II problem, the ids of every theorem that applies, the
exit code and the whole JSON report of ``offdiag analyze`` with those ids.
Verdicts, claimed bounds and flag strings must match exactly; measured
values, premise margins and witnesses may move by round-off only.
"""

import json
import math
from pathlib import Path

import pytest

from offdiag import THEOREM_IDS, Case, builtin_example, random_problem, random_problem_spec
from offdiag.cli import main
from offdiag.io import save_problem

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())
CLOSE = 1e-12

PROBLEMS = {
    "case1": lambda: builtin_example("CASE1"),
    "case2": lambda: builtin_example("CASE2"),
    "case_ii_16": lambda: random_problem(random_problem_spec(Case.CASE_II, 16, 16, 0.45, seed=3)),
}


def assert_close(got, want, what):
    if math.isfinite(want):
        assert abs(got - want) <= CLOSE, what
    else:
        assert got == want, what


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_report_matches_golden(name, tmp_path, capsys):
    golden = GOLDEN[name]
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    save_problem(PROBLEMS[name](), path)
    argv = ["analyze", str(path), "--out", str(out)]
    for t in golden["theorems"]:
        argv += ["--theorem", t]
    assert main(argv) == golden["exit_code"]
    got, want = json.loads(out.read_text()), golden["report"]

    assert {k: v for k, v in got.items() if k != "reports"} == {
        k: v for k, v in want.items() if k != "reports"
    }
    assert [r["theorem"] for r in got["reports"]] == [r["theorem"] for r in want["reports"]]
    for g, w in zip(got["reports"], want["reports"]):
        what = f"{name} {w['theorem']}"
        for key in ("claimed_bound", "premise_satisfied", "holds", "flags"):
            assert g[key] == w[key], f"{what} {key}"
        assert_close(g["measured_value"], w["measured_value"], f"{what} measured_value")
        assert_close(g["premise_margin"], w["premise_margin"], f"{what} premise_margin")
        assert g["witnesses"].keys() == w["witnesses"].keys()
        for key, value in w["witnesses"].items():
            assert_close(g["witnesses"][key], value, f"{what} witness {key}")


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_other_theorems_report_their_case_unmet(name, tmp_path, capsys):
    # a theorem asked outside its case is a check whose case premise is unmet: exit 0
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    save_problem(PROBLEMS[name](), path)
    others = [t for t in THEOREM_IDS if t not in GOLDEN[name]["theorems"]]
    argv = ["analyze", str(path), "--out", str(out)]
    for t in others:
        argv += ["--theorem", t]
    assert main(argv) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [r["theorem"] for r in reports] == others
    for r in reports:
        assert (r["premise_satisfied"], r["holds"], r["witnesses"]) == (False, True, {})
        assert math.isnan(r["measured_value"]) and r["claimed_bound"] == math.inf
        assert r["premise_margin"] == -math.inf
        assert len(r["flags"]) == 1 and r["flags"][0].startswith("wrong case: ")
