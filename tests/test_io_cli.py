import json
import math

import numpy as np
import pytest

from offdiag import (
    Case,
    PerturbationProblem,
    builtin_example,
    qnr_sample,
    random_problem,
    random_problem_spec,
)
from offdiag import io
from offdiag.cli import exit_code_for, main
from offdiag.io import (
    ProblemFileError,
    analysis_payload,
    load_problem,
    matrix_payload,
    parse_matrix,
    parse_problem,
    qnr_svg,
    save_problem,
    write_qnr_csv,
)


@pytest.fixture
def case1_file(tmp_path):
    path = tmp_path / "case1.json"
    save_problem(builtin_example("CASE1"), path)
    return path


class TestProblemFiles:
    def test_roundtrip_bit_equal(self, tmp_path):
        p = builtin_example("CASE1", scale=0.7)
        path = tmp_path / "p.json"
        save_problem(p, path)
        q = load_problem(path)
        assert np.array_equal(p.a, q.a)
        assert np.array_equal(p.v, q.v)
        assert p.sigma == q.sigma
        assert p.Sigma == q.Sigma

    def test_complex_entries_roundtrip(self, tmp_path):
        from offdiag import PerturbationProblem, SpectralSet

        a = np.diag([0.0, 2.0]).astype(complex)
        v = np.array([[0.0, 0.3 + 0.4j], [0.3 - 0.4j, 0.0]])
        p = PerturbationProblem.build(
            a, v, SpectralSet.from_points([0.0]), SpectralSet.from_points([2.0])
        )
        path = tmp_path / "c.json"
        save_problem(p, path)
        q = load_problem(path)
        assert np.array_equal(p.v, q.v)

    def test_plain_real_entries_accepted(self):
        payload = {
            "A": [[0.0, 0.0], [0.0, 2.0]],
            "V": [[0, 0.5], [0.5, 0]],
            "sigma": [0.0],
            "Sigma": [[2.0, 2.0]],
        }
        p = parse_problem(payload)
        assert p.d == 2.0

    def test_missing_key(self):
        with pytest.raises(ProblemFileError, match="missing"):
            parse_problem({"A": [[0]]})

    def test_ragged_row_located(self):
        with pytest.raises(ProblemFileError, match="row 1"):
            parse_matrix([[0.0, 1.0], [0.0]], "A")

    def test_bad_entry_located(self):
        with pytest.raises(ProblemFileError, match=r"\(1,0\)"):
            parse_matrix([[0.0, 1.0], ["x", 0.0]], "A")

    def test_hermiticity_diagnostic_names_entry_pair(self):
        payload = {
            "A": [[0.0, 1.0], [0.5, 2.0]],
            "V": [[0, 0], [0, 0]],
            "sigma": [0.0],
            "Sigma": [2.0],
        }
        from offdiag import ValidationError

        with pytest.raises(ValidationError, match=r"\(0,1\).*\(1,0\)"):
            parse_problem(payload)

    def test_tolerance_overrides(self):
        payload = {
            "A": [[0.0, 0.0], [0.0, 2.0]],
            "V": [[0, 0.5], [0.5, 0]],
            "sigma": [0.0],
            "Sigma": [2.0],
            "tolerances": {"scale": 10.0, "report": 1e-7},
        }
        p = parse_problem(payload)
        assert p.tol.report == 1e-7
        assert p.tol.herm_scale == pytest.approx(1e-9)

    def test_unknown_tolerance_field_rejected(self):
        payload = {
            "A": [[0.0, 0.0], [0.0, 2.0]],
            "V": [[0, 0], [0, 0]],
            "sigma": [0.0],
            "Sigma": [2.0],
            "tolerances": {"bogus": 1.0},
        }
        with pytest.raises(ProblemFileError, match="bogus"):
            parse_problem(payload)


BIG = 2**63


class TestParseMatrixFastPath:
    """The one-array conversion against the entry-by-entry loop it short-cuts."""

    @staticmethod
    def loop(obj, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(io, "_parse_numeric", lambda obj, dim: None)
            return parse_matrix(obj, "A")

    @pytest.mark.parametrize(
        "obj",
        [
            [[0.5, -1.25], [3.0, 1e300]],
            [[[0.5, 1.0], [-1.0, 2.5]], [[3.0, -0.0], [1e-300, -7.0]]],
            [[1, -2], [3, 2**53 + 1]],
            [[[1, 2], [3, 4]], [[5, 6], [7, 2**62 + 1]]],
            [[True, False], [False, True]],
            [[[True, False], [0.5, True]], [[1, 2.5], [False, -3]]],
            [[2**53 + 1, 0.5], [BIG - 1, -(BIG)]],
            [[float("nan"), -0.0], [0.0, float("inf")]],
            [[5e-324, -2.5e-320], [[2.2e-308, -5e-324], 1.0]],
            [[BIG, BIG + 1], [2**64 + 3, -(BIG) - 5]],
            [[2**70, 1.5], [[0.0, 2**65], -1]],
            [[BIG + 1024, -1], [BIG + 3072, 2**64 - 1]],
            [[BIG + 1025, 0.5], [2**53 + 1, 2**62 + 513]],
            [[[1.0, 2.0], 3.0], [4, [5, -0.0]]],
        ],
        ids=[
            "real", "pairs", "ints", "int-pairs", "bools", "bool-pairs", "int-and-float",
            "nan-inf-negzero", "subnormal-mixed", "beyond-int64", "beyond-uint64",
            "uint64-ties-with-negative", "uint64-with-float", "mixed-rows",
        ],
    )
    def test_bit_equal_to_loop(self, obj, monkeypatch):
        got = parse_matrix(obj, "A")
        want = self.loop(obj, monkeypatch)
        assert got.dtype == want.dtype == complex
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "obj",
        [
            [[0.5, -1.25], [3.0, 1e300]],
            [[[0.5, 1.0], [-1.0, 2.5]], [[3.0, -0.0], [1e-300, -7.0]]],
            [[1, -2], [3, 2**53 + 1]],
            [[True, False], [False, True]],
            [[BIG + 1024, -1], [BIG + 3072, 2**64 - 1]],
        ],
    )
    def test_well_formed_input_takes_one_array(self, obj):
        assert io._parse_numeric(obj, len(obj)) is not None

    @pytest.mark.parametrize(
        "obj, where",
        [
            ([[0.0, 1.0], [0.0]], "row 1"),
            ([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]], "row 0"),
            ([[0.0, 1.0], ["x", 0.0]], r"\(1,0\)"),
            ([[0.0, "1.5"], [0.0, 0.0]], r"\(0,1\)"),
            ([[0.0, 1.0], [0.0, None]], r"\(1,1\)"),
            ([[[1, 2, 3], [0, 0]], [[0, 0], [0, 0]]], r"\(0,0\)"),
            ([[[0, 0], [0, 0]], [[0, 0], [1, 2, 3]]], r"\(1,1\)"),
            ([[[0, "1"], [0, 0]], [[0, 0], [0, 0]]], r"\(0,0\)"),
            ([[0.0, [1.0]], [0.0, 0.0]], r"\(0,1\)"),
            ([[0.0, {"re": 1}], [0.0, 0.0]], r"\(0,1\)"),
        ],
    )
    def test_bad_input_gives_the_loops_located_error(self, obj, where, monkeypatch):
        with pytest.raises(ProblemFileError, match=where) as fast:
            parse_matrix(obj, "A")
        with pytest.raises(ProblemFileError) as slow:
            self.loop(obj, monkeypatch)
        assert str(fast.value) == str(slow.value)


class TestMatrixPayload:
    def test_byte_identical_to_entrywise_floats(self, tmp_path):
        p = random_problem(random_problem_spec(Case.CASE_II, 32, 32, 0.45, seed=5))
        # negation turns the exact zeros of V into -0.0, conjugation those of A's imaginary part
        q = PerturbationProblem.build(p.a.conj(), -p.v, p.sigma, p.Sigma)
        assert np.signbit(q.v.real).any() and np.signbit(q.a.imag).any()
        for m in (q.a, q.v):
            entrywise = [[[float(z.real), float(z.imag)] for z in row] for row in m]
            assert json.dumps(matrix_payload(m)) == json.dumps(entrywise)
        path = tmp_path / "p.json"
        save_problem(q, path)
        want = {
            "A": [[[float(z.real), float(z.imag)] for z in row] for row in q.a],
            "V": [[[float(z.real), float(z.imag)] for z in row] for row in q.v],
            "sigma": [[lo, hi] for lo, hi in q.sigma.intervals],
            "Sigma": [[lo, hi] for lo, hi in q.Sigma.intervals],
        }
        assert path.read_text() == json.dumps(want, indent=2) + "\n"
        back = load_problem(path)
        assert np.array_equal(back.v.view(np.uint64), q.v.view(np.uint64))


class TestQnrOutput:
    def test_csv_rows_and_header(self, tmp_path):
        p = builtin_example("CASE1")
        samples = qnr_sample(p.b, p.projection, 25, seed=4)
        path = tmp_path / "q.csv"
        with open(path, "w") as fh:
            write_qnr_csv(samples, fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a0,a1,abs_v,lambda,mu"
        assert len(lines) == 26
        row = [float(x) for x in lines[1].split(",")]
        assert row[3] == samples[0].lam

    def test_svg_is_selfcontained(self):
        p = builtin_example("CASE1")
        samples = qnr_sample(p.b, p.projection, 10, seed=4)
        svg = qnr_svg(samples, [-2.0, 0.0, 2.0])
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 20
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


class TestExitCodes:
    def test_exit_code_for_reports(self):
        from offdiag import AnalysisReport

        ok = AnalysisReport("MAIN", True, 0.1, 1.0, 0.5, True)
        vacuous = AnalysisReport("MAIN", False, -0.1, 1.0, 2.0, True)
        bad = AnalysisReport("MAIN", True, 0.1, 1.0, 2.0, False)
        assert exit_code_for([ok, vacuous]) == 0
        assert exit_code_for([ok, bad]) == 1


class TestCli:
    def test_analyze_case1(self, case1_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", str(case1_file), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["d"] == 1.0
        assert payload["case"] == "CASE_I"
        assert abs(payload["delta_v"] - 0.5) < 1e-12
        ids = [r["theorem"] for r in payload["reports"]]
        assert "SHIFT_I" in ids and "MAIN" in ids
        captured = capsys.readouterr()
        assert "CASE_I" in captured.out

    def test_analyze_specific_theorem(self, case1_file, capsys):
        code = main(["analyze", str(case1_file), "--theorem", "MCE"])
        assert code == 0
        assert "MCE" in capsys.readouterr().out

    def test_analyze_malformed_hermiticity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "A": [[0.0, 1.0], [0.5, 2.0]],
                    "V": [[0, 0], [0, 0]],
                    "sigma": [0.0],
                    "Sigma": [2.0],
                }
            )
        )
        code = main(["analyze", str(path)])
        assert code == 2
        assert "(0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["SUBORDINATED", "CASE2", "TAN_THETA"])
    def test_analyze_wrong_case_theorem_exits_2(self, case1_file, theorem, capsys):
        assert main(["analyze", str(case1_file), "--theorem", theorem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "required" in err

    def test_analyze_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/nonexistent/problem.json"]) == 2

    def test_examples_command(self, tmp_path, capsys):
        out = tmp_path / "case2.json"
        report = tmp_path / "case2.report.json"
        code = main(
            ["examples", "case2", "--scale", "0.9", "--out", str(out), "--report-out", str(report)]
        )
        assert code == 0
        problem = load_problem(out)
        assert abs(problem.norm_v - 0.9 * math.sqrt(2)) < 1e-12
        payload = json.loads(report.read_text())
        assert payload["case"] == "CASE_II"

    def test_qnr_command(self, case1_file, tmp_path, capsys):
        csv_path = tmp_path / "qnr.csv"
        svg_path = tmp_path / "qnr.svg"
        code = main(
            [
                "qnr", str(case1_file),
                "--samples", "50", "--seed", "9",
                "--out", str(csv_path), "--svg", str(svg_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 51
        assert svg_path.read_text().startswith("<svg")
        # seed stability
        code = main(["qnr", str(case1_file), "--samples", "50", "--seed", "9",
                     "--out", str(tmp_path / "qnr2.csv")])
        assert code == 0
        assert (tmp_path / "qnr2.csv").read_text() == csv_path.read_text()

    def test_search_command(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        code = main(
            ["search", "--c", "0.866025403784", "--trials", "2", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["best_value"] - 1.0) < 1e-10

    def test_verify_random(self, capsys):
        code = main(
            ["verify", "--random", "case1", "--theorem", "MAIN,SHIFT_I",
             "--trials", "5", "--ratio", "0.45", "--dims", "2,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations" in out

    def test_verify_file(self, case1_file, capsys):
        assert main(["verify", str(case1_file)]) == 0

    def test_verify_unknown_theorem_exits_2(self, capsys):
        assert main(["verify", "--random", "case1", "--theorem", "NOPE"]) == 2

    def test_verify_without_input_exits_2(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--random", "case2", "--theorem", "CASE2", "--dims", "3"],
            ["verify", "--random", "case2", "--theorem", "CASE2", "--dims", "3,x"],
            ["verify", "--random", "case2", "--theorem", "CASE2", "--dims", "0,3"],
            ["search", "--c", "0.5", "--dims", "2,2,2"],
            ["search", "--c", "nan"],
            ["search", "--c", "inf"],
            ["verify", "--random", "case1", "--theorem", "MAIN", "--ratio", "nan"],
            ["verify", "--random", "case1", "--theorem", "MAIN", "--ratio", "-inf"],
            ["examples", "case1", "--scale", "inf"],
            ["verify", "--random", "case1", "--theorem", "MAIN", "--tol-scale", "nan"],
            ["verify", "--random", "case1", "--theorem", "MAIN", "--tol-scale", "0"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_analyze_nonpositive_tol_scale_exits_2(self, case1_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(case1_file), "--tol-scale", "-1"])
        assert exc.value.code == 2

    def test_search_nonpositive_cap_exits_2(self, capsys):
        assert main(["search", "--c", "-0.5", "--trials", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{problem}", "--out", "{missing}/report.json"],
            ["examples", "case1", "--out", "{missing}/case1.json"],
            ["search", "--c", "0.5", "--trials", "1", "--out", "{missing}/search.json"],
            ["qnr", "{problem}", "--samples", "5", "--out", "{missing}/qnr.csv"],
            ["qnr", "{problem}", "--samples", "5", "--out", "{csv}", "--svg", "{missing}/qnr.svg"],
        ],
    )
    def test_unwritable_output_path_exits_2(self, argv, case1_file, tmp_path, capsys):
        paths = {"problem": case1_file, "missing": tmp_path / "missing", "csv": tmp_path / "q.csv"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err


class TestAnalysisPayload:
    def test_float_fidelity(self):
        p = builtin_example("CASE1", scale=0.7)
        from offdiag import run_theorem

        payload = analysis_payload(p, [run_theorem(p, "SHIFT_I")])
        text = json.dumps(payload)
        recovered = json.loads(text)
        assert recovered["norm_v"] == p.norm_v  # repr round-trip is lossless
