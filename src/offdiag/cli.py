"""File-driven command line front end.

Exit codes: 0 = ran (including checks whose premise was not met),
1 = a premise-satisfied mathematical bound was violated (a finding),
2 = input or usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import qnr_sample
from .config import DEFAULT_TOL
from .harness import (
    THEOREM_IDS,
    batch_verify,
    builtin_example,
    default_battery,
    random_problem_spec,
    run_theorem,
    search_worst_case,
    summarize,
)
from .intervals import Case
from .io import (
    analysis_payload,
    format_report_table,
    load_problem,
    problem_payload,
    qnr_svg,
    write_json,
    write_qnr_csv,
)

_RANDOM_FAMILIES = {
    "case1": Case.CASE_I,
    "case2": Case.CASE_II,
    "subordinated": Case.SUBORDINATED,
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _dims(text: str) -> tuple[int, int]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 2 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"expected two positive integers, got {text!r}")
    return dims


def exit_code_for(reports) -> int:
    """1 when any premise-satisfied check fails, else 0."""
    return 1 if any(r.premise_satisfied and not r.holds for r in reports) else 0


def cmd_analyze(args) -> int:
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    problem = load_problem(args.path, tol)
    reports = [run_theorem(problem, t) for t in args.theorem or default_battery(problem.case)]

    print(f"dim = {problem.dim}   case = {problem.case.value} ({problem.classification.detail})")
    print(f"d = {problem.d:.6g}   ||V|| = {problem.norm_v:.6g}")
    print()
    print(format_report_table(reports))
    for r in reports:
        for flag in r.flags:
            print(f"  {r.theorem}: {flag}")
    if args.out:
        write_json(analysis_payload(problem, reports), args.out)
        print(f"\nreport written to {args.out}")
    return exit_code_for(reports)


def cmd_examples(args) -> int:
    problem = builtin_example(args.which, scale=args.scale)
    out = args.out or f"{args.which.lower()}.json"
    report_out = args.report_out or f"{args.which.lower()}.report.json"
    write_json(problem_payload(problem), out)
    reports = [run_theorem(problem, t) for t in default_battery(problem.case)]
    write_json(analysis_payload(problem, reports), report_out)
    print(f"problem written to {out}, expected report to {report_out}")
    return 0


def cmd_qnr(args) -> int:
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    problem = load_problem(args.path, tol)
    samples = qnr_sample(problem.b, problem.projection, args.samples, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_qnr_csv(samples, fh)
    else:
        write_qnr_csv(samples, sys.stdout)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(qnr_svg(samples, [float(x) for x in problem.b_eigen.eigenvalues]))
    inf_b = float(problem.b_eigen.eigenvalues.min())
    sup_b = float(problem.b_eigen.eigenvalues.max())
    lo = min(s.lam for s in samples)
    hi = max(s.mu for s in samples)
    print(
        f"{len(samples)} samples; min lambda = {lo:.6g} (inf B = {inf_b:.6g}), "
        f"max mu = {hi:.6g} (sup B = {sup_b:.6g})",
        file=sys.stderr,
    )
    return 0


def cmd_search(args) -> int:
    result = search_worst_case(
        dim_sigma=args.dims[0],
        dim_Sigma=args.dims[1],
        c=args.c,
        trials=args.trials,
        seed=args.seed,
        neighborhood="half_d" if args.neighborhood == "half" else "full_d",
    )
    payload = {
        "best_value": result.best_value,
        "trials": result.trials,
        "c": result.c,
        "neighborhood": result.neighborhood,
        "evaluations": result.evaluations,
        "best_problem": problem_payload(result.best_problem) if result.best_problem else None,
    }
    if args.out:
        write_json(payload, args.out)
    print(
        f"best value {result.best_value:.12g} over {result.trials} trials "
        f"({result.evaluations} evaluations), cap c = {result.c:.6g}"
    )
    return 0


def cmd_verify(args) -> int:
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    theorems = []
    for item in args.theorem or []:
        theorems.extend(t.strip().upper() for t in item.split(",") if t.strip())
    for t in theorems:
        if t not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {t!r}; expected one of {THEOREM_IDS}")
    if args.path:
        problem = load_problem(args.path, tol)
        reports = [run_theorem(problem, t) for t in theorems or default_battery(problem.case)]
    elif args.random:
        case = _RANDOM_FAMILIES[args.random]
        rng = np.random.default_rng(args.seed)
        specs = [
            random_problem_spec(
                case, *args.dims, args.ratio, int(rng.integers(0, 2**63 - 1))
            )
            for _ in range(args.trials)
        ]
        if not theorems:
            raise ValueError("--random needs at least one --theorem")
        reports = batch_verify(specs, theorems, tol)
    else:
        raise ValueError("provide a problem file or --random FAMILY")
    print(format_report_table(reports))
    s = summarize(reports)
    print(
        f"\n{s.total} checks, {s.premise_satisfied} with premise satisfied, "
        f"{s.violations} violations, worst margin {s.worst_margin:.6g}"
    )
    return exit_code_for(reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offdiag",
        description="Verify spectral-shift and spectral-subspace bounds for "
        "off-diagonal Hermitian perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the theorem battery on a problem file")
    p.add_argument("path")
    p.add_argument("--theorem", action="append", choices=THEOREM_IDS)
    p.add_argument("--out", help="write the machine-readable JSON report here")
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("examples", help="write a built-in sharpness example and its report")
    p.add_argument("which", choices=["case1", "case2", "CASE1", "CASE2"])
    p.add_argument("--scale", type=_finite_float, default=1.0, help="multiply V by this factor")
    p.add_argument("--out")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("qnr", help="sample the quadratic numerical range to CSV/SVG")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--svg", help="also write an SVG scatter here")
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_qnr)

    p = sub.add_parser("search", help="worst-case search for the projection difference")
    p.add_argument("--c", type=_finite_float, required=True, help="norm-ratio cap ||V|| <= c d")
    p.add_argument("--dims", type=_dims, default="2,2", help="dim_sigma,dim_Sigma")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neighborhood", choices=["half", "full"], default="half")
    p.add_argument("--out", help="write the JSON result here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="batch-verify theorems on a file or random problems")
    p.add_argument("path", nargs="?")
    p.add_argument("--random", choices=sorted(_RANDOM_FAMILIES))
    p.add_argument("--theorem", action="append", help="theorem id(s), comma separable")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ratio", type=_finite_float, default=0.45, help="target ||V||/d for --random")
    p.add_argument("--dims", type=_dims, default="3,3", help="dim_sigma,dim_Sigma for --random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    # ValueError covers ProblemFileError, ValidationError and a wrong-case CaseError;
    # OSError, a file that cannot be read or written
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
