"""Checks of the benchmark itself: exact counts repeat, and the metric set is as declared.

Run from the repository root with ``python3 -m pytest perfbench/test_counts.py``.
Each workload runs twice, briefly, with tracing on and the same seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-small", "analyze-large", "search", "qnr")

# Counts that depend only on the inputs, so they must repeat exactly for one seed.
EXACT = (
    ".calls", ".items", ".work_n3", ".work_mnk", ".flags_made", ".flags_kept_ratio",
    "harness.search.evaluations", "io.bytes_read", "io.bytes_written",
)

# Per-layer metrics each workload is meant to move; they must be measured there.
MEASURED_ON = {
    "verify-small": [
        "analysis.build.calls", "operators.select.flags_made", "intervals.locate.calls",
        "harness.random_problem.ms", "harness.batch_verify.ms",
        *[f"analysis.theorem.{t}.ms" for t in ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "SHIFT_III")],
        *[f"subspaces.theorem.{t}.ms" for t in ("MAIN", "CASE2", "SUBORDINATED", "TAN_THETA", "MCE")],
    ],
    "analyze-large": [
        "operators.eigh.work_n3", "operators.svd.work_mnk", "operators.projection.calls",
        "operators.validate_hermitian.calls", "subspaces.graph_operator.ms", "analysis.build.eq",
        "io.load_problem.ms", "io.parse_matrix.ms", "io.bytes_read", "io.analysis_payload.ms",
    ],
    "search": ["harness.search.evaluations", "harness.search.us_per_eval", "harness.search.self_ms"],
    "qnr": ["analysis.qnr_sample.ms", "analysis.qnr_sample.us_per_sample",
            "io.write_qnr_csv.ms", "io.bytes_written"],
}


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    values = {k: v["value"] for k, v in first["metrics"].items()}
    exact = {k: v for k, v in values.items() if k.endswith(EXACT)}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    for name in MEASURED_ON[workload]:
        assert values[name] > 0, name


def test_untraced_run_reports_the_end_to_end_metrics():
    result = _run("search", 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
