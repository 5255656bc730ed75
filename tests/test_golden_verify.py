"""``batch_verify`` reports against ones recorded before problems were checked as stacks.

``data/golden_verify.json`` maps each case below to
``[r.as_dict() for r in batch_verify(specs, theorems)]``.  The reports must
match bit for bit: both sides are compared as JSON text, whose float repr
round-trips (and which, unlike ``==`` on floats, equates a NaN with a NaN).
Re-record the file only for a deliberate change of the reports:

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import json
from pathlib import Path

import pytest

from offdiag import THEOREM_IDS, Case, ProblemSpec, batch_verify
from offdiag.harness import random_problem_specs

DATA = Path(__file__).parent / "data" / "golden_verify.json"

# The verify-small workload's families, ratios and batteries at 8+8, plus two small cases
# on every theorem id: an uncoupled 3+3 CASE_I (ratio 0) and a lopsided 2+5 SUBORDINATED.
WORKLOAD = (
    (Case.CASE_I, 0.45, ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "MAIN", "MCE")),
    (Case.CASE_II, 1.2, ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "CASE2", "TAN_THETA", "MCE")),
    (Case.SUBORDINATED, 4.0, ("SHIFT_BOUNDS", "SHIFT_I", "SUBORDINATED", "CASE2", "MCE")),
)
CASES = {
    **{
        f"{case.value} 8+8 seed {seed}": (case, (8, 8), ratio, seed, theorems)
        for case, ratio, theorems in WORKLOAD
        for seed in range(3)
    },
    **{
        f"CASE_I 3+3 ratio 0 seed {seed}": (Case.CASE_I, (3, 3), 0.0, seed, THEOREM_IDS)
        for seed in range(3)
    },
    **{
        f"SUBORDINATED 2+5 seed {seed}": (Case.SUBORDINATED, (2, 5), 4.0, seed, THEOREM_IDS)
        for seed in range(3)
    },
}
TRIALS = 4


def specs(case, dims, ratio, seed):
    """The specs that ``offdiag verify --random`` draws for these options."""
    return random_problem_specs(case, *dims, ratio, TRIALS, seed)


def reports(name):
    case, dims, ratio, seed, theorems = CASES[name]
    return [r.as_dict() for r in batch_verify(specs(case, dims, ratio, seed), list(theorems))]


def text(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name):
    want = json.loads(DATA.read_text())[name]
    got = reports(name)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert text(g) == text(w), f"{name} report {i} ({w['theorem']})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_are_independent(name):
    case, dims, ratio, seed, theorems = CASES[name]
    drawn = specs(case, dims, ratio, seed)
    alone = [r for s in drawn for r in batch_verify([s], list(theorems))]
    assert text([r.as_dict() for r in batch_verify(drawn, list(theorems))]) == text(
        [r.as_dict() for r in alone]
    )


def test_mixed_batch_rows_are_independent():
    # cases and shapes interleaved, and two sigma layouts of one shape with 2 and 3 points
    drawn = [s for name in sorted(CASES)[::4] for s in specs(*CASES[name][:4])[:2]]
    drawn += [ProblemSpec((-1.0, -1.0, 0.5), (2.0, 3.0, 4.0), 0.5, seed=7),
              ProblemSpec((-1.0, -0.5, 0.5), (2.0, 3.0, 4.0), 0.5, seed=8)]
    alone = [r.as_dict() for s in drawn for r in batch_verify([s], list(THEOREM_IDS))]
    assert text([r.as_dict() for r in batch_verify(drawn, list(THEOREM_IDS))]) == text(alone)


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: reports(name) for name in sorted(CASES)}, indent=1) + "\n")
