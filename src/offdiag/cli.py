"""File-driven command line front end.

Exit codes: 0 = ran (including checks whose premise was not met),
1 = a premise-satisfied mathematical bound was violated (a finding),
2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .analysis import qnr_sample
from .config import DEFAULT_TOL
from .harness import (
    THEOREM_IDS,
    batch_verify,
    builtin_example,
    default_battery,
    random_problem_specs,
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
    save_problem,
    write_json,
    write_qnr_csv,
)

_RANDOM_FAMILIES = {
    "case1": Case.CASE_I,
    "case2": Case.CASE_II,
    "subordinated": Case.SUBORDINATED,
}
# verify's options for --random and their defaults; a run on a file takes none of them
_RANDOM_OPTIONS = {"trials": 100, "ratio": 0.45, "dims": (3, 3), "seed": 0}


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


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _dims(text: str) -> tuple[int, int]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 2 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"expected two positive integers, got {text!r}")
    return dims


def _theorems(values) -> list[str]:
    """The theorem ids of the ``--theorem`` values, in order: comma separable, in any case.

    A value that names no id, or an id not in ``THEOREM_IDS``, raises ``ValueError``.
    """
    theorems = []
    for value in values or []:
        ids = [t.strip().upper() for t in value.split(",") if t.strip()]
        if not ids:
            raise ValueError(f"--theorem {value!r} names no theorem id")
        theorems.extend(ids)
    for t in theorems:
        if t not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {t!r}; expected one of {THEOREM_IDS}")
    return theorems


def _claim_outputs(source, *paths) -> None:
    """Open each given output path for appending and close it again, before anything is written.

    An output that names the input ``source`` (None when the command reads no
    file), or two outputs that name one file, symbolic links resolved, raise
    ``ValueError`` first.  Appending creates a missing file and leaves an existing one as it is.
    When a path cannot be opened, the files this call created are removed
    and the error propagates, so a command that exits 2 on an unwritable
    path has written none of its outputs.
    """
    paths = [p for p in paths if p]
    real = [os.path.realpath(p) for p in paths]
    for k, path in enumerate(real):
        if source and path == os.path.realpath(source):
            raise ValueError(f"output {paths[k]} names the input {source}")
        if path in real[:k]:
            raise ValueError(f"outputs {paths[real.index(path)]} and {paths[k]} name the same file")
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def exit_code_for(reports) -> int:
    """1 when any premise-satisfied check fails, else 0."""
    return 1 if any(r.premise_satisfied and not r.holds for r in reports) else 0


def _print_reports(reports, flags: bool = True) -> None:
    """The report table, then (with ``flags``) each report's flags, one line each."""
    print(format_report_table(reports))
    for r in reports if flags else ():
        for flag in r.flags:
            print(f"  {r.theorem}: {flag}")


def cmd_analyze(args) -> int:
    theorems = _theorems(args.theorem)
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    problem = load_problem(args.path, tol)
    reports = [run_theorem(problem, t) for t in theorems or default_battery(problem.case)]
    _claim_outputs(args.path, args.out)

    print(f"dim = {problem.dim}   case = {problem.case.value} ({problem.classification.detail})")
    print(f"d = {problem.d:.6g}   ||V|| = {problem.norm_v:.6g}")
    print()
    _print_reports(reports)
    if args.out:
        write_json(analysis_payload(problem, reports), args.out)
        print(f"\nreport written to {args.out}")
    return exit_code_for(reports)


def cmd_examples(args) -> int:
    problem = builtin_example(args.which, scale=args.scale)
    out = args.out or f"{args.which.lower()}.json"
    report_out = args.report_out or f"{args.which.lower()}.report.json"
    reports = [run_theorem(problem, t) for t in default_battery(problem.case)]
    _claim_outputs(None, out, report_out)
    save_problem(problem, out)
    write_json(analysis_payload(problem, reports), report_out)
    print(f"problem written to {out}, expected report to {report_out}")
    return 0


def cmd_qnr(args) -> int:
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    problem = load_problem(args.path, tol)
    samples = qnr_sample(problem.b, problem.projection, args.samples, args.seed)
    _claim_outputs(args.path, args.out, args.svg)
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
    lo, hi = min(samples.lam.tolist()), max(samples.mu.tolist())
    print(
        f"{args.samples} samples; min lambda = {lo:.6g} (inf B = {inf_b:.6g}), "
        f"max mu = {hi:.6g} (sup B = {sup_b:.6g})",
        file=sys.stderr,
    )
    return 0


def cmd_search(args) -> int:
    _claim_outputs(None, args.out)
    result = search_worst_case(
        dim_sigma=args.dims[0],
        dim_Sigma=args.dims[1],
        c=args.c,
        trials=args.trials,
        seed=args.seed,
        neighborhood="half_d" if args.neighborhood == "half" else "full_d",
    )
    if args.out:
        write_json({
            "best_value": result.best_value,
            "dims": list(args.dims),
            "seed": args.seed,
            "trials": result.trials,
            "c": result.c,
            "neighborhood": args.neighborhood,  # as --neighborhood takes it
            "evaluations": result.evaluations,
            "best_problem": problem_payload(result.best_problem) if result.best_problem else None,
        }, args.out)
    print(
        f"best value {result.best_value:.12g} over {result.trials} trials "
        f"({result.evaluations} evaluations), cap c = {result.c:.6g}"
    )
    return 0


def cmd_verify(args) -> int:
    if bool(args.path) == bool(args.random):
        raise ValueError("provide either a problem file or --random FAMILY")
    given = {name: value for name in _RANDOM_OPTIONS if (value := getattr(args, name)) is not None}
    if args.path and given:
        raise ValueError(f"only --random takes {', '.join('--' + name for name in given)}")
    tol = DEFAULT_TOL.scaled(args.tol_scale)
    theorems = _theorems(args.theorem)
    if args.path:
        problem = load_problem(args.path, tol)
        reports = [run_theorem(problem, t) for t in theorems or default_battery(problem.case)]
    else:
        opts = {**_RANDOM_OPTIONS, **given}
        case = _RANDOM_FAMILIES[args.random]
        specs = random_problem_specs(case, *opts["dims"], opts["ratio"], opts["trials"],
                                     opts["seed"])
        reports = batch_verify(specs, theorems or default_battery(case), tol)
    _print_reports(reports, flags=bool(args.path))  # a batch prints only the flag counts
    s = summarize(reports)
    print(
        f"\n{s.total} checks, {s.premise_satisfied} with premise satisfied, "
        f"{s.violations} violations, worst margin {s.worst_margin:.6g}"
    )
    return exit_code_for(reports)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` dispatches on ``command``."""
    parser = argparse.ArgumentParser(
        prog="offdiag",
        description="Verify spectral-shift and spectral-subspace bounds for "
        "off-diagonal Hermitian perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the theorem battery on a problem file")
    p.add_argument("path")
    p.add_argument("--theorem", action="append", help="theorem id(s), comma separable")
    p.add_argument("--out", help="write the machine-readable JSON report here")
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)

    p = sub.add_parser("examples", help="write a built-in sharpness example and its report")
    p.add_argument("which", choices=["case1", "case2", "CASE1", "CASE2"])
    p.add_argument("--scale", type=_finite_float, default=1.0, help="multiply V by this factor")
    p.add_argument("--out")
    p.add_argument("--report-out")

    p = sub.add_parser("qnr", help="sample the quadratic numerical range to CSV/SVG")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--svg", help="also write an SVG scatter here")
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)

    p = sub.add_parser("search", help="worst-case search for the projection difference")
    p.add_argument("--c", type=_finite_float, required=True, help="norm-ratio cap ||V|| <= c d")
    p.add_argument("--dims", type=_dims, default="2,2", help="dim_sigma,dim_Sigma")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--neighborhood", choices=["half", "full"], default="half")
    p.add_argument("--out", help="write the JSON result here")

    p = sub.add_parser("verify", help="batch-verify theorems on a file or random problems")
    p.add_argument("path", nargs="?")
    p.add_argument("--random", choices=sorted(_RANDOM_FAMILIES))
    p.add_argument("--theorem", action="append", help="theorem id(s), comma separable")
    p.add_argument("--trials", type=int, help="problems to draw for --random (default 100)")
    p.add_argument("--ratio", type=_finite_float, help="target ||V||/d for --random (default 0.45)")
    p.add_argument("--dims", type=_dims, help="dim_sigma,dim_Sigma for --random (default 3,3)")
    p.add_argument("--seed", type=_seed, help="layout seed for --random (default 0)")
    p.add_argument("--tol-scale", type=_positive_float, default=1.0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that rebinding a ``cmd_*`` function takes effect
    command = globals()[f"cmd_{args.command}"]
    # exit 1 means a violated bound, so every failure of a command exits 2: a ValueError
    # (ProblemFileError, ValidationError), an OSError on a file, or a RecursionError from
    # JSON nested too deeply
    try:
        return command(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
