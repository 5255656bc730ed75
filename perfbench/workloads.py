"""The four benchmark workloads, each a closed loop of ``offdiag.cli.main`` calls.

A workload is built from the benchmark seed alone: it generates its input
files with the library, derives the argv of every iteration from
``(seed, iteration)``, and checks each call's output.  A check returns
``None`` when the output is correct and a one-line reason otherwise.

Each workload also fixes its *unit* (what one iteration's cost is divided
by), its reference eigh size (the ``n`` of the ``np.linalg.eigh`` that its
cost is expressed in) and how many reference eighs are timed after each
iteration, about a tenth of the iteration's time or less.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from offdiag import Case, random_problem, random_problem_spec
from offdiag.io import save_problem


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its argv, its output check and the files it writes."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    outputs: tuple[str, ...] = field(default=())


def _iteration_seeds(seed: int, iteration: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, iteration]).generate_state(count)]


def _exit_zero(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


# Families and batteries as in demos/theorem_tour.py; together they run every theorem id.
VERIFY_FAMILIES = (
    ("case1", 0.45, ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "MAIN", "MCE")),
    ("case2", 1.2, ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "CASE2", "TAN_THETA", "MCE")),
    ("subordinated", 4.0, ("SHIFT_BOUNDS", "SHIFT_I", "SUBORDINATED", "CASE2", "MCE")),
)
_VERIFY_SUMMARY = re.compile(r"(\d+) checks, (\d+) with premise satisfied, (\d+) violations")


class VerifySmall:
    """Many tiny problems: Python overhead of build, selection and the checks dominates."""

    name = "verify-small"
    unit = "problem"
    ref_n = 16
    eigh_samples = 48
    trials = 4
    traced_iterations = 20

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.seed = seed
        self.units = self.trials * len(VERIFY_FAMILIES)

    def calls(self, iteration: int) -> list[Call]:
        seeds = _iteration_seeds(self.seed, iteration, len(VERIFY_FAMILIES))
        out = []
        for (family, ratio, theorems), s in zip(VERIFY_FAMILIES, seeds):
            argv = [
                "verify", "--random", family, "--theorem", ",".join(theorems),
                "--trials", str(self.trials), "--ratio", str(ratio), "--dims", "8,8",
                "--seed", str(s),
            ]
            out.append(Call(argv, self._checker(self.trials * len(theorems))))
        return out

    @staticmethod
    def _checker(expected_checks: int):
        def check(rc: int, stdout: str) -> str | None:
            m = _VERIFY_SUMMARY.search(stdout)
            if m is None:
                return _exit_zero(rc) or "no summary line"
            total, violations = int(m.group(1)), int(m.group(3))
            if total != expected_checks:
                return f"{total} checks, expected {expected_checks}"
            if violations:
                return f"{violations} violations"
            return _exit_zero(rc)

        return check


ANALYZE_THEOREMS = ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "CASE2", "TAN_THETA", "MCE")
ANALYZE_DIMS = (128, 128)
ANALYZE_RATIO = 1.2


def analyze_problem(problem_seed: int):
    """The CASE_II problem that the analyze-large pool entry ``problem_seed`` names."""
    spec = random_problem_spec(Case.CASE_II, *ANALYZE_DIMS, ANALYZE_RATIO, seed=problem_seed)
    return random_problem(spec)


def analyze_argv(path: str, out: str) -> list[str]:
    argv = ["analyze", path, "--out", out]
    for t in ANALYZE_THEOREMS:
        argv += ["--theorem", t]
    return argv


def verdicts(report_payload: dict) -> list[dict]:
    """The fields of an analyze report that the reference pins down."""
    return [
        {
            "theorem": r["theorem"],
            "premise_satisfied": r["premise_satisfied"],
            "holds": r["holds"],
            "flags": len(r["flags"]),
            "claimed_bound": r["claimed_bound"],
            "measured_value": r["measured_value"],
        }
        for r in report_payload["reports"]
    ]


def _same_verdict(got: dict, want: dict) -> bool:
    for key in ("claimed_bound", "measured_value"):
        if not math.isclose(got[key], want[key], rel_tol=1e-9, abs_tol=1e-12):
            return False
    return all(got[k] == want[k] for k in ("theorem", "premise_satisfied", "holds", "flags"))


class AnalyzeLarge:
    """One 128+128 CASE_II file: flop-bound n x n decompositions plus the heavy JSON read."""

    name = "analyze-large"
    unit = "call"
    ref_n = 256
    eigh_samples = 4
    traced_iterations = 3

    def __init__(self, seed: int, workdir: str, reference: dict):
        pool = reference["analyze"]
        self.problem_seed = int(np.random.default_rng(seed).integers(len(pool)))
        self.expected = pool[str(self.problem_seed)]
        self.path = os.path.join(workdir, "analyze_problem.json")
        self.out = os.path.join(workdir, "analyze_report.json")
        save_problem(analyze_problem(self.problem_seed), self.path)
        self.units = 1

    def calls(self, iteration: int) -> list[Call]:
        return [Call(analyze_argv(self.path, self.out), self.check, (self.out,))]

    def check(self, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out, encoding="utf-8") as fh:
            got = verdicts(json.load(fh))
        if not all(v["holds"] for v in got):
            return "a report does not hold"
        if len(got) != len(self.expected) or not all(
            _same_verdict(g, w) for g, w in zip(got, self.expected)
        ):
            return f"verdicts differ from the reference for problem seed {self.problem_seed}"
        return None


SEARCH_C = "0.75"
SEARCH_TRIALS = 8
_SEARCH_LINE = re.compile(r"best value (\S+) over (\d+) trials \((\d+) evaluations\)")


def search_argv(search_seed: int) -> list[str]:
    return [
        "search", "--c", SEARCH_C, "--dims", "2,2", "--neighborhood", "half",
        "--trials", str(SEARCH_TRIALS), "--seed", str(search_seed),
    ]


class Search:
    """The worst-case search's objective loop on 4 x 4 matrices; no theorem check, no io."""

    name = "search"
    unit = "trial"
    ref_n = 4
    eigh_samples = 48
    traced_iterations = 15

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.expected = reference["search"]
        # A fresh program seed each iteration, drawn from the recorded pool in seed order.
        self.order = np.random.default_rng(seed).permutation(len(self.expected))
        self.units = SEARCH_TRIALS

    def calls(self, iteration: int) -> list[Call]:
        s = int(self.order[iteration % len(self.order)])
        return [Call(search_argv(s), self._checker(s))]

    def _checker(self, search_seed: int):
        best_want, evals_want = self.expected[search_seed]

        def check(rc: int, stdout: str) -> str | None:
            m = _SEARCH_LINE.search(stdout)
            if m is None:
                return _exit_zero(rc) or "no result line"
            best, evals = float(m.group(1)), int(m.group(3))
            # the CLI prints 12 significant digits; allow that rounding on top of 1e-12
            printed = 0.5 * 10.0 ** (math.floor(math.log10(abs(best_want))) - 11) if best_want else 0.0
            if abs(best - best_want) > 1e-12 + printed:
                return f"search seed {search_seed}: best value {best!r}, reference {best_want!r}"
            if evals != evals_want:
                return f"search seed {search_seed}: {evals} evaluations, reference {evals_want}"
            return _exit_zero(rc)

        return check


class Qnr:
    """Quadratic-numerical-range sampling and the CSV write path."""

    name = "qnr"
    unit = "sample"
    ref_n = 64
    eigh_samples = 16
    samples = 1000
    traced_iterations = 10

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.seed = seed
        problem = random_problem(random_problem_spec(Case.CASE_I, 32, 32, 0.45, seed=seed))
        self.path = os.path.join(workdir, "qnr_problem.json")
        self.out = os.path.join(workdir, "qnr.csv")
        save_problem(problem, self.path)
        eigs = np.linalg.eigvalsh(problem.a + problem.v)
        self.tol = 1e-9 * (1.0 + float(np.abs(eigs).max()))
        self.inf_b, self.sup_b = float(eigs[0]), float(eigs[-1])
        self.units = self.samples

    def calls(self, iteration: int) -> list[Call]:
        (s,) = _iteration_seeds(self.seed, iteration, 1)
        argv = ["qnr", self.path, "--samples", str(self.samples), "--seed", str(s), "--out", self.out]
        return [Call(argv, self.check, (self.out,))]

    def check(self, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.samples:
            return f"{len(rows)} samples written, expected {self.samples}"
        scale = self.tol * (1.0 + max(abs(self.inf_b), abs(self.sup_b)))
        for i, r in enumerate(rows):
            a0, a1, v, lam, mu = (float(r[k]) for k in ("a0", "a1", "abs_v", "lambda", "mu"))
            # (lambda, mu) must be the eigenvalue pair of [[a0, v], [conj(v), a1]]
            if lam > mu or abs(lam + mu - a0 - a1) > self.tol or abs(lam * mu - (a0 * a1 - v * v)) > scale:
                return f"row {i}: ({lam!r}, {mu!r}) is not the eigenvalue pair of its 2x2 block"
        lo = min(float(r["lambda"]) for r in rows)
        hi = max(float(r["mu"]) for r in rows)
        if lo < self.inf_b - self.tol or hi > self.sup_b + self.tol:
            return f"sampled range [{lo!r}, {hi!r}] leaves [inf B, sup B] = [{self.inf_b!r}, {self.sup_b!r}]"
        return None


WORKLOADS = {w.name: w for w in (VerifySmall, AnalyzeLarge, Search, Qnr)}
