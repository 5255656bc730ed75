"""tools/byte_identity.py: the files an argv writes and the comparison of two sweeps."""

import importlib.util
import pathlib

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
