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
def test_other_theorems_exit_2(name, tmp_path, capsys):
    path = tmp_path / "problem.json"
    save_problem(PROBLEMS[name](), path)
    for t in THEOREM_IDS:
        if t not in GOLDEN[name]["theorems"]:
            assert main(["analyze", str(path), "--theorem", t]) == 2
