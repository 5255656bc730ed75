"""Byte identity of the command line between a base revision and the working tree.

Run from the root of a checkout:

    python3 tools/byte_identity.py --base REV

The base revision is exported as ``tools/bench_pairs.py`` exports it.  Each
tree then runs one fixed sweep through ``offdiag.cli.main``, in an
interpreter of its own whose path starts with that tree's ``src``, in an
empty temporary directory: it first writes the input problems with its own
library, then runs the argv in order.  ``sweep`` gives the argv:

- ``examples case1|case2`` at scales 0, 0.99 and 1;
- ``analyze --out`` on those six problems with the default battery, with
  each theorem id alone and with all ids together, and ``verify FILE``;
- the 16 ``analyze-large`` pool problems with that workload's argv;
- ``verify --random`` for each ``verify-small`` family at its ratio and
  trial count, with its battery and with every theorem id, at dims 3,4 and
  8,8, seeds 0-2;
- the ``search`` workload's argv with ``--out``, seeds 0-2;
- ``qnr --out --svg`` on the ``qnr`` workload's seed-0 problem, seeds 0-2,
  and ``qnr`` of it to stdout, seed 0;
- ``qnr --out`` on the six ``examples`` problems (V = 0 at scale 0) with
  ``--samples`` 1 and 257, each with and without ``--svg``;
- ``analyze --out`` with all theorem ids on the six ``examples`` problems,
  and ``verify --random`` with every theorem id for each family at dims
  3,4 and seed 0, each at ``--tol-scale`` ``TOL_SCALE``: large enough that
  some verdicts and flags differ from the same argv at scale 1;
- ``analyze --out`` with each theorem id alone and all ids together, and
  ``verify FILE``, on four problems: a generated CASE_II problem saved with
  sigma and Sigma exchanged, so that the hull-separated checks swap roles,
  and three that exact Hermitian diagonal input never makes.  They are a
  1+1 problem whose A and V are Hermitian only within tolerance
  (``TOLERATED``), a generated CASE_II 3+4 problem turned by a seeded Haar
  unitary, which ``save_problem`` writes as nests and whose stack the build
  turns into A's eigenbasis, and a turned 1+1 problem at scale 1e200
  (``turned_problem``), whose Frobenius norms overflow;
- the same on generated CASE_I 4+4 and SUBORDINATED 3+4 problems turned
  by seeded Haar unitaries, so that every difference on a non-diagonal A
  is listed;
- ``analyze --out --theorem CASE2`` on a generated CASE_II 2+2 problem at
  ``||V|| = sqrt(2) d (1 - 1e-8)``, ``CASE2_BAND``, where CASE2's claim
  rounds to 1.0, and ``verify --random case2`` at that ratio.
- ``analyze --out`` and ``verify FILE`` on ``FAR_ENDS``, a 1+1 problem
  whose d overflows to inf, so that both exit 2 with the overflow error.
- ``analyze --out`` with the default battery and ``verify FILE`` on
  ``CASE2_SWAPPED``, the CASE2 example at scale 0.5 with sigma and Sigma
  exchanged, where SHIFT_III, like CASE2, checks Sigma, the component whose
  hull is separated.
- ``search --out --trials 5``, seeds 0-2, at the ``SEARCHES`` dims, caps
  and neighbourhoods: the full neighbourhood, wider blocks, and c = 2.0,
  where degenerate candidates score -inf.
- ``analyze --out`` and ``verify FILE`` on ``WIDE_SPREAD``, whose spread
  max - min of A's eigenvalues overflows, and ``analyze --out`` with every
  theorem id on ``FAR_RADIUS``, where sigma's and Sigma's ends +- d overflow.
- ``analyze --out`` and ``verify FILE`` on ``B_OVERFLOW``, whose entries,
  d, ||V|| and spread are finite, but whose B has an eigenvalue past the
  float range.
- ``verify --random case2`` with TAN_THETA at dims 2,2, ratio 2 and
  ``--tol-scale`` 1e-7, whose 42nd row selects fewer eigenvalues of B than
  E_A(sigma) has, though the computed ``||P - Q||`` rounds below 1; and
  ``analyze --out`` with every theorem id on ``report0.json``, a generated
  CASE_II 2+2 problem (``REPORT0_SEED``, that row's seed) whose
  file sets ``"tolerances": {"report": 0}``, where TAN_THETA's ranks differ
  the same way.

For each argv a tree records the exit code, stdout, stderr and the sha256
of every file that the argv names after ``--out``, ``--report-out`` or
``--svg``.  The input problems are recorded the same way, under the argv
``inputs``.  The script prints every argv whose record differs and what
differs, then a count, and exits 1 when any argv differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
OUTPUT_FLAGS = ("--out", "--report-out", "--svg")
TOL_SCALE = "1e8"
CASE2_BAND = 1.4142135482309595  # sqrt(2) (1 - 1e-8)
SIDES = ("base", "change")
# the seed that verify --random case2 --dims 2,2 --ratio 2 --seed 0 gives its 42nd problem
REPORT0_SEED = 2968721141169319798
# A's eigenvalues at the two ends of the float range, one per set: d = 2e308 overflows
FAR_ENDS = {"A": [[-1e308, 0.0], [0.0, 1e308]], "V": [[0.0, 0.0], [0.0, 0.0]],
            "sigma": [-1e308], "Sigma": [1e308]}
# d and ||V|| finite, but inf Sigma - inf sigma = 3.45e308 overflows
WIDE_SPREAD = {"A": {"diag": [-1.7e308, 1.7e308, 1.75e308]}, "V": {"diag": [0.0, 0.0, 0.0]},
               "sigma": [-1.7e308, 1.7e308], "Sigma": [1.75e308]}
# a valid problem whose neighbourhoods of radius d = 1e308 reach past the float range
FAR_RADIUS = {"A": [[0.0, 0.0], [0.0, 1e308]], "V": [[0.0, 0.0], [0.0, 0.0]],
              "sigma": [[-1.7e308, 0.0]], "Sigma": [1e308]}
# A, V, d, ||V|| and the spread finite, but B's top eigenvalue about 2.2e308 overflows
B_OVERFLOW = {"A": [[1.2e308, 0.0], [0.0, 1.0e308]], "V": [[0.0, 1.1e308], [1.1e308, 0.0]],
              "sigma": [[1.15e308, 1.25e308]], "Sigma": [[0.95e308, 1.05e308]]}
# (--dims, --c, --neighborhood) of the searches beyond the search workload's
SEARCHES = [("1,2", "1.2", "full"), ("2,3", "0.6", "half"), ("3,3", "0.6", "half"),
            ("2,2", "2.0", "half")]
# the CASE2 example at scale 0.5 with sigma and Sigma exchanged: only Sigma's hull is separated
CASE2_SWAPPED = {"A": {"diag": [-1.0, 0.0, 1.0]},
                 "V": [[0.0, 0.7071067811865476, 0.0], [0.7071067811865476, 0.0, 0.0],
                       [0.0, 0.0, 0.0]],
                 "sigma": [-1.0, 1.0], "Sigma": [0.0]}
# A and V each Hermitian within tolerance only, so B's entry (0,1) misses its mirror's conjugate
# by 2.56e-10, more than B's own tolerance of 2e-10 * max|B|
TOLERATED = {
    "A": {"re": [[-1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.99e-10], [0.99e-10, 0.0]]},
    "V": {"re": [[0.0, 0.3], [0.3, 0.0]], "im": [[0.0, 0.29e-10], [0.29e-10, 0.0]]},
    "sigma": [-1.0], "Sigma": [1.0],
}


def written(argv: list[str]) -> list[str]:
    """The files ``argv`` writes: the values of its output flags, in order."""
    return [value for flag, value in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS]


def turned_problem(scale: float) -> dict:
    """The problem file of A = diag(-scale, scale) and V coupling them by 0.3 scale, each turned
    by 0.3 rad and made exactly symmetric from its upper triangle; sigma = {-scale}."""
    import numpy as np

    c, s = math.cos(0.3), math.sin(0.3)
    r = np.array([[c, -s], [s, c]])
    a, v = np.diag([-scale, scale]), np.array([[0.0, 0.3 * scale], [0.3 * scale, 0.0]])
    a, v = (np.triu(r @ m @ r.T) + np.triu(r @ m @ r.T, 1).T for m in (a, v))
    return {"A": a.tolist(), "V": v.tolist(), "sigma": [-scale], "Sigma": [scale]}


def haar_unitary(dim: int, seed: int):
    """A Haar-distributed unitary: Q of a complex Gaussian's QR, its columns' phases fixed by R."""
    import numpy as np

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def generated(case: str, n0: int, n1: int, ratio: float, seed: int, turn: str | None):
    """The problem of a generated input: ``random_problem_spec``'s, with sigma and Sigma
    exchanged when ``turn`` is ``"swap"``, or A and V turned to U A U*, U V U* by
    ``haar_unitary(n, seed)`` when it is ``"haar"``."""
    from offdiag import Case, PerturbationProblem, random_problem, random_problem_spec

    problem = random_problem(random_problem_spec(Case(case), n0, n1, ratio, seed))
    a, v, sigma, Sigma = problem.a, problem.v, problem.sigma, problem.Sigma
    if turn == "swap":
        sigma, Sigma = Sigma, sigma
    elif turn == "haar":
        u = haar_unitary(n0 + n1, seed)
        a, v = (u @ m @ u.conj().T for m in (a, v))
    return PerturbationProblem.build(a, v, sigma, Sigma, problem.tol) if turn else problem


def sweep() -> tuple[list[list], list[list[str]]]:
    """``(inputs, argvs)``: the problems each tree writes first, then the argv it runs.

    An input is ``[path, payload]``, a problem file's JSON, or ``[path, case,
    dim_sigma, dim_Sigma, ratio, seed, turn]``, the problem of ``generated``
    with those arguments, which may end with the file's ``tolerances`` object.
    """
    sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]
    from offdiag import THEOREM_IDS
    from perfbench import workloads

    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        pool = sorted(json.load(fh)["analyze"], key=int)
    inputs = [[f"pool_{seed}.json", "CASE_II", *workloads.ANALYZE_DIMS, workloads.ANALYZE_RATIO,
               int(seed), None] for seed in pool]
    inputs.append(["swapped.json", "CASE_II", 3, 4, 1.2, 0, "swap"])
    inputs.append(["qnr_problem.json", "CASE_I", 32, 32, 0.45, 0, None])
    inputs.append(["case2_band.json", "CASE_II", 2, 2, CASE2_BAND, 0, None])
    inputs.append(["tolerated.json", TOLERATED])
    inputs.append(["haar.json", "CASE_II", 3, 4, 1.2, 0, "haar"])
    inputs.append(["scale_1e200.json", turned_problem(1e200)])
    inputs.append(["far_ends.json", FAR_ENDS])
    inputs.append(["case2_swapped.json", CASE2_SWAPPED])
    inputs.append(["wide_spread.json", WIDE_SPREAD])
    inputs.append(["far_radius.json", FAR_RADIUS])
    inputs.append(["haar_case1.json", "CASE_I", 4, 4, 0.45, 0, "haar"])
    inputs.append(["haar_subordinated.json", "SUBORDINATED", 3, 4, 4.0, 0, "haar"])
    inputs.append(["b_overflow.json", B_OVERFLOW])
    inputs.append(["report0.json", "CASE_II", 2, 2, 2.0, REPORT0_SEED, None, {"report": 0}])

    argvs, examples = [], []
    for which in ("case1", "case2"):
        for scale in ("0", "0.99", "1"):
            name = f"{which}_{scale}"
            examples.append(name)
            argvs.append(["examples", which, "--scale", scale, "--out", f"{name}.json",
                          "--report-out", f"{name}.report.json"])
    for name in examples:
        batteries = [[], *([t] for t in THEOREM_IDS), list(THEOREM_IDS)]
        for k, battery in enumerate(batteries):
            argv = ["analyze", f"{name}.json", "--out", f"{name}.analyze_{k}.json"]
            for t in battery:
                argv += ["--theorem", t]
            argvs.append(argv)
        argvs.append(["verify", f"{name}.json"])
    for path, *_ in inputs[:len(pool)]:
        argvs.append(workloads.analyze_argv(path, path.replace(".json", ".report.json")))
    for family, ratio, battery in workloads.VERIFY_FAMILIES:
        for theorems in (battery, THEOREM_IDS):
            for dims in ("3,4", "8,8"):
                for seed in range(3):
                    argvs.append(["verify", "--random", family, "--theorem", ",".join(theorems),
                                  "--trials", str(workloads.VerifySmall.trials), "--ratio",
                                  str(ratio), "--dims", dims, "--seed", str(seed)])
    for seed in range(3):
        argvs.append([*workloads.search_argv(seed), "--out", f"search_{seed}.json"])
    for seed in range(3):
        argvs.append(["qnr", "qnr_problem.json", "--samples", str(workloads.Qnr.samples),
                      "--seed", str(seed), "--out", f"qnr_{seed}.csv", "--svg", f"qnr_{seed}.svg"])
    argvs.append(["qnr", "qnr_problem.json", "--samples", str(workloads.Qnr.samples), "--seed", "0"])
    for name in examples:
        for samples in ("1", "257"):
            argv = ["qnr", f"{name}.json", "--samples", samples, "--out", f"{name}.qnr_{samples}.csv"]
            argvs += [argv, [*argv, "--svg", f"{name}.qnr_{samples}.svg"]]
    every_id = [arg for t in THEOREM_IDS for arg in ("--theorem", t)]
    for name in examples:
        argvs.append(["analyze", f"{name}.json", "--out", f"{name}.tol.json", *every_id,
                      "--tol-scale", TOL_SCALE])
    for family, ratio, _ in workloads.VERIFY_FAMILIES:
        argvs.append(["verify", "--random", family, "--theorem", ",".join(THEOREM_IDS), "--trials",
                      str(workloads.VerifySmall.trials), "--ratio", str(ratio), "--dims", "3,4",
                      "--seed", "0", "--tol-scale", TOL_SCALE])
    for name in ("swapped", "tolerated", "haar", "scale_1e200", "haar_case1", "haar_subordinated"):
        for k, battery in enumerate([*([t] for t in THEOREM_IDS), list(THEOREM_IDS)]):
            argvs.append(["analyze", f"{name}.json", "--out", f"{name}.analyze_{k}.json",
                          *(arg for t in battery for arg in ("--theorem", t))])
        argvs.append(["verify", f"{name}.json"])
    argvs.append(["analyze", "case2_band.json", "--out", "case2_band.analyze.json",
                  "--theorem", "CASE2"])
    argvs.append(["verify", "--random", "case2", "--dims", "2,2", "--ratio", repr(CASE2_BAND),
                  "--trials", "40", "--seed", "0"])
    argvs += [["analyze", "far_ends.json", "--out", "far_ends.analyze.json"],
              ["verify", "far_ends.json"]]
    argvs += [["analyze", "case2_swapped.json", "--out", "case2_swapped.analyze.json"],
              ["verify", "case2_swapped.json"]]
    for k, (dims, c, neighborhood) in enumerate(SEARCHES):
        for seed in range(3):
            argvs.append(["search", "--c", c, "--dims", dims, "--neighborhood", neighborhood,
                          "--trials", "5", "--seed", str(seed), "--out", f"search_{k}_{seed}.json"])
    argvs += [["analyze", "wide_spread.json", "--out", "wide_spread.analyze.json"],
              ["verify", "wide_spread.json"],
              ["analyze", "far_radius.json", "--out", "far_radius.analyze.json", *every_id],
              ["analyze", "b_overflow.json", "--out", "b_overflow.analyze.json"],
              ["verify", "b_overflow.json"],
              ["verify", "--random", "case2", "--dims", "2,2", "--ratio", "2", "--trials", "100",
               "--seed", "0", "--theorem", "TAN_THETA", "--tol-scale", "1e-7"],
              ["analyze", "report0.json", "--out", "report0.analyze.json", *every_id]]
    return inputs, argvs


def sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def child() -> None:
    """Run the job on stdin in this interpreter and directory; write ``records.json`` here.

    The job is ``{"src": ..., "inputs": ..., "argvs": ...}``; ``offdiag`` must
    come from ``src``.
    """
    job = json.load(sys.stdin)
    import offdiag
    from offdiag.cli import main
    from offdiag.io import problem_payload, save_problem

    if os.path.dirname(os.path.dirname(os.path.realpath(offdiag.__file__))) != job["src"]:
        raise SystemExit(f"offdiag imported from {offdiag.__file__}, not from {job['src']}")
    paths = []
    for path, *source in job["inputs"]:
        if len(source) == 1:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(source[0], fh)
        elif len(source) == 6:
            save_problem(generated(*source), path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**problem_payload(generated(*source[:6])), "tolerances": source[6]}, fh)
        paths.append(path)
    records = [{"argv": ["inputs"], "exit": 0, "stdout": "", "stderr": "",
                "files": {p: sha256(p) for p in paths}}]
    for argv in job["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        records.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "files": {p: sha256(p) for p in written(argv)}})
    with open("records.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def run_tree(root: str, inputs: list, argvs: list) -> list[dict]:
    """The records of the sweep in checkout ``root``, from a fresh interpreter."""
    src = os.path.join(root, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, TOOLS])}
    job = json.dumps({"src": os.path.realpath(src), "inputs": inputs, "argvs": argvs})
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as work:
        subprocess.run([sys.executable, "-c", "import byte_identity; byte_identity.child()"],
                       input=job, text=True, cwd=work, env=env, check=True)
        with open(os.path.join(work, "records.json"), encoding="utf-8") as fh:
            return json.load(fh)


def differences(base: list[dict], change: list[dict]) -> list[tuple[list[str], list[str]]]:
    """``(argv, what differs)`` of every argv whose records differ, in sweep order.

    What differs is ``exit A -> B``, ``stdout``, ``stderr`` or ``file NAME``; an
    argv that one side has no record of is ``missing on base`` or ``missing on change``.
    """
    found = []
    records = {side: {json.dumps(r["argv"]): r for r in side_records}
               for side, side_records in zip(SIDES, (base, change))}
    order = list(records["base"]) + [k for k in records["change"] if k not in records["base"]]
    for key in order:
        b, c = records["base"].get(key), records["change"].get(key)
        if b is None or c is None:
            found.append((json.loads(key), [f"missing on {'base' if b is None else 'change'}"]))
            continue
        what = [] if b["exit"] == c["exit"] else [f"exit {b['exit']} -> {c['exit']}"]
        what += [stream for stream in ("stdout", "stderr") if b[stream] != c[stream]]
        what += [f"file {name}" for name in dict.fromkeys([*b["files"], *c["files"]])
                 if b["files"].get(name) != c["files"].get(name)]
        if what:
            found.append((json.loads(key), what))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision, exported with git archive")
    args = parser.parse_args(argv)

    sys.path.insert(0, TOOLS)
    from bench_pairs import export, git

    base_rev = git("rev-parse", args.base)
    inputs, argvs = sweep()
    with tempfile.TemporaryDirectory(prefix="byte-identity-base-") as base_root:
        export(base_rev, base_root)
        base = run_tree(base_root, inputs, argvs)
    change = run_tree(ROOT, inputs, argvs)
    found = differences(base, change)
    for argv, what in found:
        print(f"{' '.join(argv)}: {', '.join(what)}")
    files = sum(len(r["files"]) for r in change)
    print(f"{len(found)} of {len(change)} argv differ between {base_rev[:12]} and the working tree "
          f"({files} written files compared)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
