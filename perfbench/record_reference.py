"""Record the reference outputs that the benchmark's correctness checks compare against.

Run from the repository root with ``python3 perfbench/record_reference.py``.
It writes ``perfbench/reference.json``: for every program seed in the
search pool, the ``best_value`` and ``evaluations`` of the search
workload's call, and for every problem seed in the analyze pool, the
verdict fields of the analyze-large report.  The benchmark draws its
per-run inputs from these pools by its ``--seed``, so the file must be
recorded again only when the workloads' inputs change, never to absorb a
change in the program's results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import run  # noqa: F401  (puts the repository's src first on sys.path, pins BLAS threads)
from offdiag.cli import main
from offdiag.io import save_problem
from workloads import analyze_argv, analyze_problem, search_argv, verdicts

SEARCH_POOL = 1024
ANALYZE_POOL = 16


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")


def record() -> dict:
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        out = os.path.join(tmp, "out.json")
        search = []
        for s in range(SEARCH_POOL):
            _cli(search_argv(s) + ["--out", out])
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            search.append([result["best_value"], result["evaluations"]])
        analyze = {}
        for s in range(ANALYZE_POOL):
            path = os.path.join(tmp, "problem.json")
            save_problem(analyze_problem(s), path)
            _cli(analyze_argv(path, out))
            with open(out, encoding="utf-8") as fh:
                analyze[str(s)] = verdicts(json.load(fh))
            print(f"analyze problem seed {s} recorded", file=sys.stderr)
    return {"search": search, "analyze": analyze}


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record(), fh)
        fh.write("\n")
    print(f"wrote {path}")
