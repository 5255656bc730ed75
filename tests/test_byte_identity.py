"""tools/byte_identity.py: the files an argv writes and the comparison of two sweeps."""

import contextlib
import importlib.util
import io
import json
import math
import pathlib

import numpy as np

from offdiag import (
    THEOREM_IDS,
    Case,
    PerturbationProblem,
    builtin_example,
    random_problem,
    random_problem_spec,
)
from offdiag.cli import main
from offdiag.io import load_problem, matrix_payload, parse_matrix

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"
spec = importlib.util.spec_from_file_location("byte_identity", PATH)
byte_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_identity)


def record(argv, exit=0, stdout="ok\n", stderr="", files=None):
    return {"argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr, "files": files or {}}


def test_written_names_each_output_flag_value_in_order():
    argv = ["examples", "case1", "--out", "p.json", "--report-out", "r.json", "--scale", "1"]
    assert byte_identity.written(argv) == ["p.json", "r.json"]
    assert byte_identity.written(["qnr", "p.json", "--svg", "q.svg", "--out", "q.csv"]) == [
        "q.svg", "q.csv"]
    assert byte_identity.written(["verify", "p.json"]) == []


def test_identical_sweeps_have_no_difference():
    sweep = [record(["inputs"], files={"p.json": "aa"}), record(["verify", "p.json"]),
             record(["analyze", "p.json", "--out", "r.json"], files={"r.json": "bb"})]
    assert byte_identity.differences(sweep, [dict(r) for r in sweep]) == []


def test_each_part_of_a_record_is_compared():
    base = [
        record(["a"]),
        record(["b"], exit=2, stdout="", stderr="error: x\n"),
        record(["c"], stdout="1\n"),
        record(["d"], stderr="warn\n"),
        record(["e"], files={"r.json": "bb", "s.svg": "cc"}),
        record(["f"], files={"r.json": None}),
    ]
    change = [
        record(["a"]),
        record(["b"], exit=0, stdout="row\n", stderr=""),
        record(["c"], stdout="2\n"),
        record(["d"], stderr=""),
        record(["e"], files={"r.json": "bb", "s.svg": "dd"}),
        record(["f"], files={"r.json": "ee"}),
    ]
    assert byte_identity.differences(base, change) == [
        (["b"], ["exit 2 -> 0", "stdout", "stderr"]),
        (["c"], ["stdout"]),
        (["d"], ["stderr"]),
        (["e"], ["file s.svg"]),
        (["f"], ["file r.json"]),
    ]


def test_an_argv_one_side_lacks_is_a_difference():
    base = [record(["a"]), record(["b"])]
    change = [record(["a"]), record(["c"])]
    assert byte_identity.differences(base, change) == [
        (["b"], ["missing on change"]), (["c"], ["missing on base"])]


def test_a_file_written_on_one_side_only_is_a_difference():
    base = [record(["a", "--out", "r.json"])]
    change = [record(["a", "--out", "r.json"], files={"r.json": "ff"})]
    assert byte_identity.differences(base, change) == [(["a", "--out", "r.json"], ["file r.json"])]


def test_sweep_runs_qnr_to_stdout_and_on_every_example_with_and_without_svg():
    _, argvs = byte_identity.sweep()
    qnr = [argv for argv in argvs if argv[0] == "qnr"]
    assert sum("--out" not in argv for argv in qnr) == 1
    examples = [argv for argv in qnr if argv[1] != "qnr_problem.json"]
    assert len(examples) == 6 * 2 * 2
    assert {(argv[3], "--svg" in argv) for argv in examples} == {
        (n, svg) for n in ("1", "257") for svg in (False, True)}


def without(argv, *flags):
    """``argv`` without each of ``flags`` and its value."""
    out, args = [], iter(argv)
    for arg in args:
        if arg in flags:
            next(args)
        else:
            out.append(arg)
    return out


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_sweep_runs_tol_scaled_argvs_whose_verdicts_differ_at_scale_1(tmp_path, monkeypatch):
    _, argvs = byte_identity.sweep()
    scaled = [argv for argv in argvs if "--tol-scale" in argv]
    assert sorted({argv[0] for argv in scaled}) == ["analyze", "verify"]
    analyze = [argv for argv in scaled if argv[0] == "analyze"]
    verify = [argv for argv in scaled if argv[0] == "verify"]
    assert sorted(argv[1] for argv in analyze) == sorted(
        argv[argv.index("--out") + 1] for argv in argvs if argv[0] == "examples")
    assert sorted(argv[2] for argv in verify) == ["case1", "case2", "subordinated"]
    # each has its scale-1 twin in the sweep, and some verdict or flag differs between them
    plain = [without(argv, "--out") for argv in argvs if "--tol-scale" not in argv]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        if argv[0] == "examples":
            stdout_of(argv)
    for kind in (analyze, verify):
        changed = []
        for argv in kind:
            twin = without(argv, "--out", "--tol-scale")
            assert twin in plain
            changed.append(stdout_of(twin) != stdout_of(without(argv, "--out")))
        assert any(changed)


def test_sweep_runs_a_roles_swapped_problem_through_every_theorem_id():
    inputs, argvs = byte_identity.sweep()
    swapped = [record for record in inputs if record[-1] == "swap"]
    assert len(swapped) == 1 and swapped[0][1] == "CASE_II"
    path, case, n0, n1, ratio, seed, _ = swapped[0]
    on_it = [argv for argv in argvs if argv[:2] == ["analyze", path]]
    assert {argv[i + 1] for argv in on_it for i, arg in enumerate(argv) if arg == "--theorem"} == \
        set(THEOREM_IDS)
    # the problem the sweep writes: only its Sigma's hull is separated, so the roles swap
    problem = random_problem(random_problem_spec(Case(case), n0, n1, ratio, seed))
    problem = PerturbationProblem.build(problem.a, problem.v, problem.Sigma, problem.sigma)
    assert problem.classification.detail.startswith("hull(Sigma)")


def test_sweep_runs_the_case2_band_through_analyze_and_verify():
    inputs, argvs = byte_identity.sweep()
    assert ["case2_band.json", "CASE_II", 2, 2, 1.4142135482309595, 0, None] in inputs
    assert ["analyze", "case2_band.json", "--out", "case2_band.analyze.json",
            "--theorem", "CASE2"] in argvs
    assert ["verify", "--random", "case2", "--dims", "2,2", "--ratio", "1.4142135482309595",
            "--trials", "40", "--seed", "0"] in argvs


def test_sweep_runs_tolerated_turned_and_huge_inputs_through_every_id_and_verify():
    inputs, argvs = byte_identity.sweep()
    by_path = {record[0]: record[1:] for record in inputs}
    assert by_path["tolerated.json"] == [byte_identity.TOLERATED]
    assert by_path["haar.json"] == ["CASE_II", 3, 4, 1.2, 0, "haar"]
    assert by_path["scale_1e200.json"] == [byte_identity.turned_problem(1e200)]
    batteries = [[t] for t in THEOREM_IDS] + [list(THEOREM_IDS)]
    for path in ("tolerated.json", "haar.json", "scale_1e200.json"):
        on_it = [argv for argv in argvs if argv[1] == path]
        assert ["verify", path] in on_it
        assert sorted(argv[5::2] for argv in on_it if argv[0] == "analyze") == sorted(batteries)
    # each input is Hermitian within tolerance only, or overflows a Frobenius norm
    a = parse_matrix(byte_identity.TOLERATED["A"], "A")
    assert not np.array_equal(a, a.conj().T)
    big = np.array(byte_identity.turned_problem(1e200)["V"])
    with np.errstate(over="ignore"):
        assert np.linalg.norm(big) == math.inf
    # the Haar-turned problem is written as nests, and its blocks are products
    problem = byte_identity.generated(*by_path["haar.json"])
    assert problem.a_eigen.order is None
    assert set(matrix_payload(problem.a)) == set(matrix_payload(problem.v)) == {"re", "im"}


def test_sweep_runs_the_far_ends_problem_through_analyze_and_verify(tmp_path, capsys):
    inputs, argvs = byte_identity.sweep()
    assert ["far_ends.json", byte_identity.FAR_ENDS] in inputs
    assert ["analyze", "far_ends.json", "--out", "far_ends.analyze.json"] in argvs
    assert ["verify", "far_ends.json"] in argvs
    # d overflows, so both argv exit 2 with that one error line
    path = tmp_path / "far_ends.json"
    path.write_text(json.dumps(byte_identity.FAR_ENDS))
    for command in ("analyze", "verify"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: gap d and ||V|| must be finite, got inf, 0.0\n")


def test_sweep_runs_the_role_swapped_case2_example_through_analyze_and_verify(tmp_path):
    inputs, argvs = byte_identity.sweep()
    assert ["case2_swapped.json", byte_identity.CASE2_SWAPPED] in inputs
    assert ["analyze", "case2_swapped.json", "--out", "case2_swapped.analyze.json"] in argvs
    assert ["verify", "case2_swapped.json"] in argvs
    # it is the CASE2 example at scale 0.5 with sigma and Sigma exchanged
    path = tmp_path / "case2_swapped.json"
    path.write_text(json.dumps(byte_identity.CASE2_SWAPPED))
    problem, example = load_problem(path), builtin_example("CASE2", 0.5)
    assert np.array_equal(problem.a, example.a) and np.array_equal(problem.v, example.v)
    assert (problem.sigma, problem.Sigma) == (example.Sigma, example.sigma)
