"""offdiag benchmark: four CLI workloads costed in eigh-equivalents.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload is a closed loop with one caller: ``offdiag.cli.main(argv)``
is called in-process, and the next call starts when the previous one
returns.  Between iterations the benchmark times ``np.linalg.eigh`` of a
fixed Hermitian of the workload's reference size, and divides each
iteration's time per unit by the median of those timings around it.  On a
small shared machine raw wall time moves between processes by up to tens of
percent; the ratio moves less.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced phase (see ``spans.py``).  Every call's output is
checked; a failed check makes the run exit 1.  Without the offdiag source
under ``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

# One BLAS thread: on a shared 2-core machine a second thread adds contention, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if SRC not in sys.path:
    sys.path.insert(0, SRC)

END_TO_END = [
    ("cost_eq_p50", "eigh-eq/unit"),
    ("cost_eq_p90", "eigh-eq/unit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
REFERENCE_MATRIX_SEED = 20030617
WINDOW = 5          # iterations on each side whose eigh timings calibrate an iteration
# Fresh-interpreter set-ups per run, setup_s being their median: at least 3, and
# more, up to 7, while they have taken less than SETUP_BUDGET_S.
SETUP_PROBES = (3, 7)
SETUP_BUDGET_S = 8.0
PROBE_TIMEOUT_S = 150


def _source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "offdiag", "__init__.py"))


class EighReference:
    """Timer for ``np.linalg.eigh`` of one fixed seeded Hermitian matrix."""

    def __init__(self, np, n: int, repeats: int):
        rng = np.random.default_rng(REFERENCE_MATRIX_SEED)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.matrix = 0.5 * (z + z.conj().T)
        self.eigh = np.linalg.eigh  # bound now, so a traced run times the untraced routine
        self.repeats = repeats

    def sample(self) -> list[float]:
        out = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.eigh(self.matrix)
            out.append(time.perf_counter() - t0)
        return out


class Phase:
    """Per-iteration wall times and interleaved eigh timings of one measured phase."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs: list[list[float]] = []
        self.attempted = 0
        self.failed = 0

    def costs(self, units: int) -> list[float]:
        """Per-iteration cost per unit in eigh-equivalents, each calibrated by its neighbours."""
        out = []
        for i, wall in enumerate(self.walls):
            lo, hi = max(0, i - WINDOW), min(len(self.walls), i + WINDOW + 1)
            ref = statistics.median(t for r in self.refs[lo:hi] for t in r)
            out.append(wall / units / ref)
        return out

    def eigh_ref_s(self) -> float:
        return statistics.median(t for r in self.refs for t in r)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile, at most p90, with at least ten values beyond it.

    Returns ``(value, percentile)``; below eleven values it is the minimum.
    """
    xs = sorted(values)
    n = len(xs)
    idx = max(0, min(math.ceil(0.9 * n) - 1, n - 11))
    return xs[idx], (idx + 1) / n


def _invoke(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)  # looked up per call, so a traced phase calls the wrapped main
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_iteration(workload, cli, iteration: int, phase: Phase, tracer=None) -> float:
    """Run one iteration's calls and check each; return the summed call time."""
    wall = 0.0
    for call in workload.calls(iteration):
        phase.attempted += 1
        if tracer is not None:
            tracer.begin_iteration(iteration)
        t0 = time.perf_counter()
        try:
            rc, out = _invoke(cli, call.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            wall += time.perf_counter() - t0
            phase.failed += 1
            print(f"iteration {iteration}: {' '.join(call.argv)} raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        wall += time.perf_counter() - t0
        problem = call.check(rc, out)
        if problem is not None:
            phase.failed += 1
            print(f"iteration {iteration}: {' '.join(call.argv)}: {problem}", file=sys.stderr)
        if tracer is not None:
            tracer.count_bytes_written(call.outputs)
    return wall


def measure(workload, cli, ref: EighReference, seconds=None, iterations=None, tracer=None) -> Phase:
    """Closed loop over iterations 1, 2, ... for ``seconds`` (at least one) or for ``iterations``."""
    phase = Phase()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 1
    while (len(phase.walls) < iterations) if deadline is None else (
        not phase.walls or time.perf_counter() < deadline
    ):
        phase.walls.append(run_iteration(workload, cli, i, phase, tracer))
        phase.refs.append(ref.sample())
        i += 1
    return phase


def probe_setup(args) -> tuple[list[float], int]:
    """Time fresh-interpreter set-ups; return the times and the failures."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    least, most = SETUP_PROBES
    times, failed = [], 0
    while len(times) < least or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failed += 1
            print(f"set-up probe exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
    return times, failed


def _load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    import numpy as np

    import offdiag
    import offdiag.cli as cli
    from workloads import WORKLOADS

    if not os.path.abspath(offdiag.__file__).startswith(SRC + os.sep):
        print(f"error: offdiag was imported from {offdiag.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            workload = cls(args.seed, workdir, _load_reference())
            warm = Phase()
            run_iteration(workload, cli, 0, warm)
            return 1 if warm.failed else 0

        setup_times, probe_failures = ([], 0) if args.trace else probe_setup(args)
        workload = cls(args.seed, workdir, _load_reference())
        ref = EighReference(np, workload.ref_n, workload.eigh_samples)
        warm = Phase()
        run_iteration(workload, cli, 0, warm)
        phases = [warm]

        if not args.trace:
            timed = measure(workload, cli, ref, seconds=args.seconds)
            phases.append(timed)
            costs = timed.costs(workload.units)
            p90, q = tail_percentile(costs)
            metrics = {
                "cost_eq_p50": statistics.median(costs),
                "cost_eq_p90": p90,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            notes = [f"{len(costs)} iterations of {workload.units} {workload.unit}(s); "
                     f"cost_eq_p90 is p{100 * q:.0f}; eigh n={workload.ref_n} "
                     f"{timed.eigh_ref_s() * 1e6:.1f} us; set-ups "
                     + " ".join(f"{t:.3f}" for t in setup_times) + " s"]
        else:
            untraced = measure(workload, cli, ref, seconds=args.seconds / 2)
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(workload, cli, ref, iterations=workload.traced_iterations,
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            phases += [untraced, traced]
            eigh_ref_us = untraced.eigh_ref_s() * 1e6
            layer = tracer.layer_metrics(workload.traced_iterations, eigh_ref_us)
            layer["bench.eigh_ref_us"] = eigh_ref_us
            layer["bench.wall_s_p50"] = statistics.median(untraced.walls)
            layer["bench.trace_overhead_ratio"] = statistics.median(
                traced.costs(workload.units)
            ) / statistics.median(untraced.costs(workload.units))
            metrics = {name: layer[name] for name, _, _ in spans.PER_LAYER}
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            spans_path = os.path.join(STATE_DIR, f"spans-{workload.name}.csv")
            tracer.write(spans_path)
            notes = [f"{len(untraced.walls)} untraced and {len(traced.walls)} traced iterations; "
                     f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases) + len(setup_times)
    failed = sum(p.failed for p in phases) + probe_failures
    for note in notes:
        print(f"# {args.workload}: {note}")
    print(f"# {args.workload}: error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{args.workload:<14} {name:<45} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="verify-small, analyze-large, "
                        "search, qnr, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _source_present():
        print(f"error: no offdiag source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
