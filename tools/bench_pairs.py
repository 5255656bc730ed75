"""Paired benchmark runs of a base revision against the working tree, written to BENCH_<tag>.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --base REV --tag NAME --run analyze-large:5 --run qnr:2

The base revision is exported with ``git archive`` into a temporary
directory.  For each ``--run WORKLOAD:PAIRS`` the script runs

    python3 perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0

once on the base and once on the working tree per pair, both sides with the
same seed S (``--seed``, ``--seed`` + 1, ...), and alternates which side runs
first.  Runs are sequential, so the two sides never compete for the machine.
The output file holds every run's end-to-end metrics, and per metric the
medians and quartiles of both sides and the number of pairs the working
tree won; both revisions and a line describing the machine go with them.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The files of ``rev`` under ``dest``, as ``git archive`` writes them."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def machine() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return (f"{platform.system()} {platform.machine()}, {cpu or 'unknown cpu'}, "
            f"{os.cpu_count()} logical cpus, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its exit code and the last line of its output."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"exit_code": proc.returncode, "correct": False, "failed": None, "metrics": {}}
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric, both sides' median and quartiles and the pairs the change won."""
    out = {}
    for name, better in metrics.items():
        values = {side: [p[side]["metrics"].get(name) for p in pairs] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        wins = sum((c < b) if better == "lower" else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        base, change = quartiles(values["base"]), quartiles(values["change"])
        out[name] = {
            "better": better,
            "base": base,
            "change": change,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (change["median"] / base["median"] - 1.0),
        }
    return out


def parse_run(text: str) -> tuple[str, int]:
    """``WORKLOAD:PAIRS`` (``WORKLOAD`` alone is one pair) as ``(workload, pairs)``."""
    workload, _, pairs = text.partition(":")
    try:
        count = int(pairs or 1)
    except ValueError:
        count = 0
    if not workload or count < 1:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:PAIRS with a workload name and at least one pair, got {text!r}"
        )
    return workload, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision, exported with git archive")
    parser.add_argument("--tag", required=True, help="the output file is BENCH_<tag>.json")
    parser.add_argument("--run", action="append", type=parse_run, required=True,
                        metavar="WORKLOAD:PAIRS", help="a workload and its number of pairs")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per run")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    report = {
        "tag": args.tag,
        "base": git("rev-parse", args.base),
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "machine": machine(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        export(args.base, base_root)
        roots = {"base": base_root, "change": ROOT}
        for workload, count in args.run:
            pairs = []
            for k in range(count):
                seed = args.seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, seed, args.seconds)
                    p50 = pair[side]["metrics"].get("cost_eq_p50")
                    print(f"{workload} seed {seed} {side}: cost_eq_p50 {p50}", flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"written to {path}")
    ok = all(p[side]["correct"] for w in report["workloads"].values() for p in w["pairs"]
             for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
