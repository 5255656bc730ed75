import base64
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import offdiag
from offdiag import (
    Case,
    PerturbationProblem,
    SpectralSet,
    builtin_example,
    qnr_sample,
    random_problem,
    random_problem_spec,
)
from offdiag import THEOREM_IDS, bound_case2, bound_subordinated, cli, harness, io, run_theorem
from offdiag import tan_theta_bound
from offdiag.config import DEFAULT_TOL, Tolerances
from offdiag.cli import exit_code_for, main
from offdiag.harness import default_battery
from offdiag.io import (
    ProblemFileError,
    analysis_payload,
    load_problem,
    matrix_payload,
    parse_matrix,
    parse_problem,
    parse_spectral_set,
    parse_tolerances,
    qnr_svg,
    save_problem,
    write_json,
    write_qnr_csv,
)

from conftest import sigma_bases


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

    def test_open_sets_survive_save_problem(self, tmp_path):
        sigma, Sigma = SpectralSet([(-1.0, 1.0)], is_open=True), SpectralSet([(4.0, 6.0)], True)
        p = PerturbationProblem.build(np.diag([0.0, 5.0]), [[0, 0.3], [0.3, 0]], sigma, Sigma)
        path = tmp_path / "open.json"
        save_problem(p, path)
        assert json.loads(path.read_text())["sigma"] == {"intervals": [[-1.0, 1.0]], "open": True}
        q = load_problem(path)
        assert q.sigma == sigma and q.Sigma == Sigma
        assert q.sigma.is_open and q.Sigma.is_open

    @pytest.mark.parametrize("obj, named", [
        ({"intervals": [[-1.0, 1.0]], "open": "false"}, "with open = 'false'"),
        ({"interval": [[-1.0, 1.0]]}, "got keys ['interval']"),
        ({"intervals": [[-1.0, 1.0]], "open": False, "closed": True}, "'closed', 'intervals'"),
    ], ids=["open-not-a-boolean", "no-intervals-key", "other-key"])
    def test_set_object_checked(self, obj, named):
        with pytest.raises(ProblemFileError) as excinfo:
            parse_spectral_set(obj, "sigma")
        message = str(excinfo.value)
        assert message.startswith("set sigma: expected the key 'intervals'") and named in message

    def test_set_object_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "A": [[0.0, 0.0], [0.0, 5.0]], "V": [[0, 0.3], [0.3, 0]],
            "sigma": {"intervals": [[-1.0, 1.0]], "open": "false"}, "Sigma": [[5.0, 5.0]],
        }))
        assert main(["analyze", str(path)]) == 2
        assert "error: set sigma: expected the key 'intervals'" in capsys.readouterr().err

    @pytest.mark.parametrize("open_sigma", [True, False])
    def test_mixed_open_and_closed_sets_exit_2(self, open_sigma, tmp_path, capsys):
        path = tmp_path / "p.json"
        sigma = {"intervals": [[-1.0, 1.0]], "open": open_sigma}
        Sigma = {"intervals": [[4.0, 6.0]], "open": not open_sigma}
        path.write_text(json.dumps({
            "A": [[0.0, 0.0], [0.0, 5.0]], "V": [[0, 0.3], [0.3, 0]],
            "sigma": sigma, "Sigma": Sigma,
        }))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: sigma and Sigma must be both open or both closed\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("A, sigma, Sigma", [
        ([[0, 0], [0, -5]], [[0, math.inf]], [-5.0, math.inf]),
        ([[0, 0], [0, 5]], [[-math.inf, 0]], [-math.inf, 5.0]),
    ], ids=["+inf", "-inf"])
    def test_sets_meeting_at_an_infinite_end_exit_2(self, command, A, sigma, Sigma, tmp_path,
                                                    capsys):
        # their distance is inf - inf = NaN, which is no separation, not a "violated" bound
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": A, "V": [[0, 0], [0, 0]], "sigma": sigma, "Sigma": Sigma}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path)]) == 2
        assert not caught
        assert capsys.readouterr() == ("", "error: sigma and Sigma must be separated (distance > 0)\n")

    @pytest.mark.parametrize("sigma", [["12"], [[0, "1"]]], ids=["string", "string-end"])
    def test_string_set_entries_exit_2(self, sigma, tmp_path, capsys):
        # a string is not a sequence of numbers: ["12"] is not the interval [1, 2]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "A": [[1.0, 0.0], [0.0, 5.0]], "V": [[0, 0.3], [0.3, 0]], "sigma": sigma, "Sigma": [5.0],
        }))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: set sigma: each entry must be a number or a [lo, hi] pair of numbers\n"
        )

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


def _rotated_diagonal(values, angle=0.3):
    """diag(values) of a 2x2 turned by ``angle``: a Hermitian A that is not diagonal."""
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s], [s, c]])
    return (r @ np.diag(values) @ r.T).tolist()


class TestInputErrors:
    """Each input error a problem file or an option reaches exits 2 with its one ``error:`` line."""

    @pytest.mark.parametrize("payload, message", [
        ({"A": [[0, 0], [0, 1]], "V": [[0] * 3] * 3, "sigma": [0], "Sigma": [1]},
         "A and V have different shapes: (2, 2) vs (3, 3)"),
        ({"A": [[0]], "V": [[0]], "sigma": [0], "Sigma": [1]},
         "a perturbation problem needs dimension at least 2"),
        ({"A": {"diag": [0, 1]}, "V": [[0, 0], [0, 0]], "sigma": [[5, 6]], "Sigma": [[0, 1]]},
         "both components must contain spectrum of A"),
        ({"A": {"diag": [0, 1e-6]}, "V": [[0, 0], [0, 0]], "sigma": [0], "Sigma": [1e-6],
          "tolerances": {"eig_scale": 1}},
         "an eigenvalue of A is claimed by both components"),
        ({"A": _rotated_diagonal([0.0, 1.0]), "V": [[0, 0], [0, 0]], "sigma": [0], "Sigma": [1],
          "tolerances": {"proj_scale": 0}},
         "spectral projection does not commute with A"),
        ({"A": [[0, 0], [0, 1]], "V": [[0, 0], [0, 0]], "sigma": [math.nan], "Sigma": [1]},
         "set sigma: interval endpoints must not be NaN"),
        ({"A": [[[1, 2, 3], [0, 0, 0]], [[0, 0, 0], [1, 2, 3]]], "V": [[0, 0], [0, 0]],
          "sigma": [1], "Sigma": [0]},
         "matrix A: invalid entry at (0,0): [1, 2, 3] (expected a number or [re, im])"),
        ({"A": [[0, 0], [0, 1]], "V": [[0, 0], [0, 0]], "sigma": 3, "Sigma": [1]},
         "set sigma must be a list of numbers or [lo, hi] pairs"),
        ({"A": [[0, 0], [0, 1]], "V": [[0, 0], [0, 0]], "sigma": [0], "Sigma": [1],
          "tolerances": 3},
         "tolerances must be an object"),
        ([[0, 0], [0, 1]], "problem file must be a JSON object"),
    ], ids=["shapes", "dimension-1", "empty-component", "claimed-by-both", "not-commuting",
            "nan-endpoint", "triples", "number-set", "number-tolerances", "list-file"])
    def test_analyze_problem_file(self, payload, message, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @staticmethod
    def open_sets_problem(a_diag, coupling):
        """SUBORDINATED open sets (0, 1) and (3, 4); V couples A's 2nd and 4th eigenvalues."""
        v = np.zeros((4, 4))
        v[1, 3] = v[3, 1] = coupling
        return {"A": {"diag": a_diag}, "V": v.tolist(),
                "sigma": {"intervals": [[0, 1]], "open": True},
                "Sigma": {"intervals": [[3, 4]], "open": True}}

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("coupling", [0.0, 0.3])
    @pytest.mark.parametrize("a_diag, named", [
        ([0.0, 0.5, 3.0, 3.5], 0.0),
        ([1e-12, 0.5, 3 + 1e-6, 3.5], 1e-12),
        ([1e-6, 0.5, 3 + 1e-12, 3.5], 3 + 1e-12),
    ], ids=["on", "inside-sigma-by-1e-12", "inside-Sigma-by-1e-12"])
    def test_eigenvalue_of_a_on_an_open_endpoint_exits_2(self, command, coupling, a_diag, named,
                                                          tmp_path, capsys):
        # placement tolerance 1e-10 * 4 * 3.5; such an eigenvalue was dropped from both sets
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self.open_sets_problem(a_diag, coupling)))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: eigenvalue {named!r} of A is AMBIGUOUS: "
                                       "within the placement tolerance of an open endpoint "
                                       "of sigma or Sigma\n")

    @pytest.mark.parametrize("coupling", [0.0, 0.3])
    def test_eigenvalue_of_a_inside_an_open_set_beyond_the_tolerance_runs(self, coupling,
                                                                         tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self.open_sets_problem([1e-6, 0.5, 3 + 1e-6, 3.5], coupling)))
        assert main(["analyze", str(path)]) == 0
        assert "VIOLATED" not in capsys.readouterr().out

    def test_qnr_needs_a_sample(self, case1_file, capsys):
        assert main(["qnr", str(case1_file), "--samples", "0"]) == 2
        assert capsys.readouterr() == ("", "error: need at least one sample\n")

    @pytest.mark.parametrize("family, dims, message", [
        ("case2", "3,1", "a CASE_II layout needs at least two Sigma values"),
        ("case1", "1,3", "a CASE_I layout needs at least two values per component"),
    ])
    def test_verify_random_layout_too_small(self, family, dims, message, capsys):
        assert main(["verify", "--random", family, "--dims", dims]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _turned_symmetric(m, angle=0.3):
    """``m`` turned by ``angle`` radians and made exactly symmetric from its upper triangle."""
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s], [s, c]])
    t = r @ np.asarray(m, dtype=float) @ r.T
    return np.triu(t) + np.triu(t, 1).T


def _turned_problem(scale):
    """SUBORDINATED 1+1: A = diag(-scale, scale), V couples them by 0.3 scale; both turned."""
    a, v = np.diag([-scale, scale]), np.array([[0.0, 0.3 * scale], [0.3 * scale, 0.0]])
    return {"A": _turned_symmetric(a).tolist(), "V": _turned_symmetric(v).tolist(),
            "sigma": [-scale], "Sigma": [scale]}


class TestValidationScope:
    """The build validates A and V and checks B = A + V only for an overflow; numpy stays quiet."""

    # each Hermitian within tolerance only; B's (0,1) misses its mirror's conjugate by 2.56e-10
    TOLERATED = {
        "A": {"re": [[-1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.99e-10], [0.99e-10, 0.0]]},
        "V": {"re": [[0.0, 0.3], [0.3, 0.0]], "im": [[0.0, 0.29e-10], [0.29e-10, 0.0]]},
        "sigma": [-1.0], "Sigma": [1.0],
    }

    @pytest.fixture
    def analyze(self, tmp_path, capsys):
        """``(exit, stderr, reports by theorem, warnings)`` of ``analyze --out`` on a payload."""
        def run(payload, name, *options):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
            path.write_text(json.dumps(payload))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["analyze", str(path), "--out", str(out), *options])
            reports = json.loads(out.read_text())["reports"] if out.exists() else []
            return code, capsys.readouterr().err, {r["theorem"]: r for r in reports}, caught
        return run

    def test_inputs_hermitian_within_tolerance_are_analyzed(self, analyze):
        code, err, reports, caught = analyze(self.TOLERATED, "tolerated")
        assert (code, err, caught) == (0, "", [])
        report = reports["SUBORDINATED"]  # a tight 2 x 2 fiber: the bound is attained
        assert report["premise_satisfied"] and report["holds"]
        assert round(report["measured_value"], 6) == round(report["claimed_bound"], 6) == 0.145213

    def test_a_problem_at_scale_1e200_runs_quietly_with_its_twins_verdicts(self, analyze):
        every_id = [arg for t in THEOREM_IDS for arg in ("--theorem", t)]
        runs = [analyze(_turned_problem(scale), name, *every_id)
                for scale, name in ((1e200, "large"), (1.0, "unit"))]
        for code, err, _, caught in runs:
            assert (code, err, caught) == (0, "", [])
        large, unit = ({t: (r["premise_satisfied"], r["holds"], len(r["flags"]))
                        for t, r in reports.items()} for _, _, reports, _ in runs)
        assert large == unit and len(large) == len(THEOREM_IDS)

    def test_an_overflowing_sum_prints_only_its_error(self, analyze):
        # A's eigenvalues 1.0e308 and 1.2e308, V off-diagonal to them, both turned by 22.5 degrees
        a, v = np.diag([1.2e308, 1.0e308]), np.array([[0.0, 1.1e308], [1.1e308, 0.0]])
        payload = {"A": _turned_symmetric(a, math.pi / 8).tolist(),
                   "V": _turned_symmetric(v, math.pi / 8).tolist(),
                   "sigma": [[1.15e308, 1.25e308]], "Sigma": [[0.95e308, 1.05e308]]}
        code, err, _, caught = analyze(payload, "overflow")
        assert (code, err, caught) == (2, "error: matrix entries must be finite\n", [])

    def test_far_endpoints_print_only_the_overflow_error(self, analyze):
        # d = 2e308 overflows to inf, as do the distances of A's eigenvalues to the far set
        payload = {"A": [[-1e308, 0.0], [0.0, 1e308]], "V": [[0.0, 0.0], [0.0, 0.0]],
                   "sigma": [-1e308], "Sigma": [1e308]}
        code, err, _, caught = analyze(payload, "far")
        assert (code, err, caught) == (
            2, "error: gap d and ||V|| must be finite, got inf, 0.0\n", [])

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_an_overflowing_spread_exits_2_with_its_error(self, command, tmp_path, capsys):
        # d and ||V|| are finite, but inf Sigma - inf sigma = 3.45e308 is not
        path = tmp_path / "spread.json"
        path.write_text(json.dumps({"A": np.diag([-1.7e308, 1.7e308, 1.75e308]).tolist(),
                                    "V": np.zeros((3, 3)).tolist(), "sigma": [-1.7e308, 1.7e308],
                                    "Sigma": [1.75e308]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path)]) == 2
        assert not caught
        assert capsys.readouterr() == (
            "", "error: the spread of A's eigenvalues must be finite, got inf\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_an_overflowing_eigenvalue_of_b_exits_2_with_its_error(self, command, tmp_path,
                                                                    capsys):
        # the entries, d, ||V|| and the spread are finite, but B's top eigenvalue, about
        # 2.2e308, is not
        path = tmp_path / "b_overflow.json"
        path.write_text(json.dumps({"A": [[1.2e308, 0.0], [0.0, 1.0e308]],
                                    "V": [[0.0, 1.1e308], [1.1e308, 0.0]],
                                    "sigma": [[1.15e308, 1.25e308]],
                                    "Sigma": [[0.95e308, 1.05e308]]}))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: the eigenvalues of B = A + V must be finite\n")

    def test_a_radius_past_the_float_range_prints_no_warning(self, analyze):
        payload = {"A": [[0.0, 0.0], [0.0, 1e308]], "V": [[0.0, 0.0], [0.0, 0.0]],
                   "sigma": [[-1.7e308, 0.0]], "Sigma": [1e308]}
        code, err, reports, caught = analyze(payload, "far_radius", "--theorem",
                                             "SHIFT_I,SHIFT_II,CASE2")
        assert (code, err, caught) == (0, "", [])
        assert all(r["premise_satisfied"] and r["holds"] for r in reports.values())
        assert list(reports) == ["SHIFT_I", "SHIFT_II", "CASE2"]


class TestToleranceValues:
    """A tolerance is finite and nonnegative; anything else is an input error (exit 2)."""

    @pytest.fixture
    def case2_payload(self, tmp_path):
        # CASE2 x 0.5 violates no bound, so a finding could only come from the tolerances
        path = tmp_path / "case2.json"
        save_problem(builtin_example("CASE2", scale=0.5), path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "tolerances, named",
        [
            ({"report": math.nan}, "report"),
            ({"report": -1.0}, "report"),
            ({"scale": math.nan}, "scale factor"),
            ({"herm_scale": -1.0}, "herm_scale"),
            ({"eig_scale": math.inf, "offdiag": -math.inf}, "eig_scale"),
        ],
    )
    def test_analyze_exits_2_and_names_the_value(
        self, case2_payload, tmp_path, capsys, tolerances, named
    ):
        path = tmp_path / "bad_tolerances.json"
        path.write_text(json.dumps({**case2_payload, "tolerances": tolerances}))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and "VIOLATED" not in captured.out

    @pytest.mark.parametrize("field", ["report", "scale"])
    @pytest.mark.parametrize("value", ["1e-9", "2", None, [1.0], {"value": 1.0}])
    def test_a_value_that_is_no_number_exits_2_and_names_the_field(
        self, case2_payload, tmp_path, capsys, field, value
    ):
        # a string is no number here, as in sets and matrices, even when float() would read it
        path = tmp_path / "string_tolerance.json"
        path.write_text(json.dumps({**case2_payload, "tolerances": {field: value}}))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tolerances: {field} must be a number, got {value!r}" in captured.err

    def test_zero_is_allowed(self, case2_payload):
        p = parse_problem({**case2_payload, "tolerances": {"report": 0.0, "herm_scale": 0}})
        assert p.tol.report == 0.0 and p.tol.herm_scale == 0.0

    @pytest.mark.parametrize(
        "field", ["herm_scale", "proj_scale", "eig_scale", "offdiag", "report"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300])
    def test_tolerances_rejects_a_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
    def test_every_field_is_scaled_and_read(self, field):
        assert getattr(DEFAULT_TOL.scaled(4.0), field) == 4.0 * getattr(DEFAULT_TOL, field)
        assert getattr(parse_tolerances({field: 0.25}), field) == 0.25

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -2.0])
    def test_scaled_rejects_a_bad_factor(self, factor):
        with pytest.raises(ValueError, match="scale factor"):
            DEFAULT_TOL.scaled(factor)


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
            ([[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 2, 3]]], r"\(0,0\)"),
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


def entrywise_parts(m):
    """The two-nest layout, built entry by entry."""
    return {
        "re": [[float(z.real) for z in row] for row in m],
        "im": [[float(z.imag) for z in row] for row in m],
    }


class TestMatrixPayload:
    def test_byte_identical_to_entrywise_floats(self, tmp_path):
        p = random_problem(random_problem_spec(Case.CASE_II, 32, 32, 0.45, seed=5))
        # negation turns the exact zeros of V into -0.0, conjugation those of A's imaginary part
        q = PerturbationProblem.build(p.a.conj(), -p.v, p.sigma, p.Sigma)
        assert np.signbit(q.v.real).any() and np.signbit(q.a.imag).any()
        for m in (q.a, q.v):
            assert json.dumps(matrix_payload(m)) == json.dumps(entrywise_parts(m))
        path = tmp_path / "p.json"
        save_problem(q, path)
        want = {
            "A": entrywise_parts(q.a),
            "V": entrywise_parts(q.v),
            "sigma": [[lo, hi] for lo, hi in q.sigma.intervals],
            "Sigma": [[lo, hi] for lo, hi in q.Sigma.intervals],
        }
        assert path.read_text() == json.dumps(want) + "\n"
        back = load_problem(path)
        assert np.array_equal(back.v.view(np.uint64), q.v.view(np.uint64))


    def test_plain_numbers_only_when_every_imaginary_part_is_positive_zero(self):
        real = np.array([[1.5, -0.0], [-0.0, 2.0]])
        assert matrix_payload(real) == [[1.5, -0.0], [-0.0, 2.0]]
        assert matrix_payload(real.astype(complex)) == [[1.5, -0.0], [-0.0, 2.0]]
        # an imaginary -0.0 gives the two real nests, so its sign survives
        for m in (real.astype(complex).conj(), real + np.array([[0, 1e-300j], [-1e-300j, 0]])):
            payload = matrix_payload(m)
            assert list(payload) == ["re", "im"]
            assert all(isinstance(e, float) for nest in payload.values() for e in sum(nest, []))
        # exactly Hermitian: the diagonal and upper triangle, whose base64 doubles keep the -0.0
        m = np.array([[1.0, complex(0.0, -0.0)], [0.0, 2.0]])
        assert json.dumps(matrix_payload(m)) == json.dumps(
            {"diag": [1.0, 2.0], "upper": {"re": "AAAAAAAAAAA=", "im": "AAAAAAAAAIA="}}
        )
        assert base64.b64decode("AAAAAAAAAIA=") == struct.pack("<d", -0.0)
        # not Hermitian: the two real nests
        m = np.array([[1.0, complex(0.0, -0.0)], [0.5, 2.0]])
        assert json.dumps(matrix_payload(m)) == json.dumps(
            {"re": [[1.0, 0.0], [0.5, 2.0]], "im": [[0.0, -0.0], [0.0, 0.0]]}
        )

    def test_plain_and_pair_layouts_load_bit_for_bit(self):
        for m in (np.array([[1.5, -0.0], [-0.0, 2.0]], dtype=complex),
                  np.array([[1.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 2.0]])):
            back = parse_matrix(json.loads(json.dumps(matrix_payload(m))), "A")
            assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

    def test_pre_compact_indented_pairs_file_still_loads(self, tmp_path):
        p = random_problem(random_problem_spec(Case.CASE_II, 4, 5, 0.45, seed=5))
        # -0.0 in both parts: negated V has -0.0 real parts, its real copy +0.0 imaginary ones
        q = PerturbationProblem.build(p.a.real.astype(complex), -p.v, p.sigma, p.Sigma)
        assert np.signbit(q.v.real).any() and not q.a.imag.any()
        old = {  # the layout save_problem wrote before: [re, im] pairs, indent 2
            "A": [[[float(z.real), float(z.imag)] for z in row] for row in q.a],
            "V": [[[float(z.real), float(z.imag)] for z in row] for row in q.v],
            "sigma": [[lo, hi] for lo, hi in q.sigma.intervals],
            "Sigma": [[lo, hi] for lo, hi in q.Sigma.intervals],
        }
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old, indent=2) + "\n")
        save_problem(q, new_path)
        assert new_path.stat().st_size < old_path.stat().st_size / 2
        from_old, from_new = load_problem(old_path), load_problem(new_path)
        for m in ("a", "v"):
            want = getattr(q, m).view(np.uint64)
            assert np.array_equal(getattr(from_old, m).view(np.uint64), want)
            assert np.array_equal(getattr(from_new, m).view(np.uint64), want)


ZEROS = [[0.0, 0.0], [0.0, 0.0]]


class TestTwoNestLayout:
    """Complex matrices as ``{"re": nest, "im": nest}``, and the layouts read before it."""

    @staticmethod
    def signed_problem(dim_sigma, dim_Sigma):
        """A random CASE_II problem with -0.0 in V's real parts and in A's imaginary parts."""
        p = random_problem(random_problem_spec(Case.CASE_II, dim_sigma, dim_Sigma, 0.45, seed=5))
        q = PerturbationProblem.build(p.a.conj(), -p.v, p.sigma, p.Sigma)
        assert np.signbit(q.v.real).any() and np.signbit(q.a.imag).any()
        return q

    def test_signed_zeros_and_subnormals_round_trip_bit_for_bit(self):
        m = np.array(
            [[complex(-0.0, 1.0), complex(2.0, -0.0), complex(5e-324, -2.5e-320)],
             [complex(-0.0, -0.0), complex(-5e-324, 5e-324), complex(2.2e-308, -0.0)],
             [complex(1e-310, -1e-310), complex(0.0, 0.0), complex(-1.5, 1e300)]]
        )
        text = json.dumps(matrix_payload(m))
        assert text.startswith('{"re": ')
        back = parse_matrix(json.loads(text), "V")
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

    def test_large_problem_round_trips_bit_for_bit(self, tmp_path):
        q = self.signed_problem(128, 128)
        path = tmp_path / "p.json"
        save_problem(q, path)
        payload = json.loads(path.read_text())
        assert set(payload["A"]) == set(payload["V"]) == {"re", "im"}
        back = load_problem(path)
        for m in ("a", "v"):
            want = getattr(q, m).view(np.uint64)
            assert np.array_equal(getattr(back, m).view(np.uint64), want)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"re": ZEROS, "im": [[0.0] * 3] * 3}, r"V\.re is 2x2 but V\.im is 3x3"),
            ({"re": ZEROS}, r"parts V\.re and V\.im, got keys \['re'\]"),
            ({"im": ZEROS}, r"parts V\.re and V\.im, got keys \['im'\]"),
            ({"re": ZEROS, "im": ZEROS, "scale": 1.0},
             r"parts V\.re and V\.im, got keys \['im', 're', 'scale'\]"),
            ({"re": [[0.0, [1.0, 2.0]], [1.0, 0.0]], "im": ZEROS},
             r"matrix V\.re: invalid entry at \(0,1\): \[1\.0, 2\.0\] \(expected a number\)"),
            ({"re": ZEROS, "im": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
             r"matrix V\.im: invalid entry at \(0,0\): \[0\.0, 0\.0\]"),
            ({"re": ZEROS, "im": [[0.0, "1"], [0.0, 0.0]]},
             r"matrix V\.im: invalid entry at \(0,1\): '1'"),
            ({"re": [[0.0, None], [0.0, 0.0]], "im": ZEROS},
             r"matrix V\.re: invalid entry at \(0,1\): None"),
            ({"re": ZEROS, "im": [[0.0, 0.0], [0.0]]}, r"matrix V\.im: row 1 has 1 entries"),
            ({"re": "x", "im": ZEROS}, r"matrix V\.re must be a nonempty list of rows"),
        ],
        ids=[
            "shape-mismatch", "missing-im", "missing-re", "extra-key", "pair-in-re",
            "pairs-in-im", "string-in-im", "none-in-re", "ragged-im", "not-a-nest",
        ],
    )
    def test_malformed_parts_name_the_part_and_entry(self, obj, message):
        with pytest.raises(ProblemFileError, match=message):
            parse_matrix(obj, "V")

    def test_compact_pair_layout_file_still_loads_to_the_same_bits(self, tmp_path):
        # the indented pair layout is test_pre_compact_indented_pairs_file_still_loads
        q = self.signed_problem(4, 5)
        pairs = {
            "A": [[[float(z.real), float(z.imag)] for z in row] for row in q.a],
            "V": [[[float(z.real), float(z.imag)] for z in row] for row in q.v],
            "sigma": [[lo, hi] for lo, hi in q.sigma.intervals],
            "Sigma": [[lo, hi] for lo, hi in q.Sigma.intervals],
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs) + "\n")
        back = load_problem(path)
        for m in ("a", "v"):
            want = getattr(q, m).view(np.uint64)
            assert np.array_equal(getattr(back, m).view(np.uint64), want)

    def test_saved_matrices_never_take_the_entry_loop(self, tmp_path, monkeypatch):
        problems = [
            builtin_example("CASE1"),
            builtin_example("CASE2", scale=0.5),
            random_problem(random_problem_spec(Case.CASE_I, 3, 3, 0.45, seed=2)),
            self.signed_problem(4, 5),
        ]

        def no_loop(*args):
            raise AssertionError(f"entry loop reached at {args[1:]}")

        monkeypatch.setattr(io, "_parse_entry", no_loop)
        for k, p in enumerate(problems):
            path = tmp_path / f"p{k}.json"
            save_problem(p, path)
            back = load_problem(path)
            for m in ("a", "v"):
                want = getattr(p, m).view(np.uint64)
                assert np.array_equal(getattr(back, m).view(np.uint64), want)
        assert not problems[0].v.imag.any() and problems[3].v.imag.any()


class TestQnrOutput:
    def test_csv_rows_and_header(self, tmp_path):
        p = builtin_example("CASE1")
        samples = qnr_sample(p.b, sigma_bases(p), 25, seed=4)
        path = tmp_path / "q.csv"
        with open(path, "w") as fh:
            write_qnr_csv(samples, fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a0,a1,abs_v,lambda,mu"
        assert len(lines) == 26
        row = [float(x) for x in lines[1].split(",")]
        assert row == [samples.a0[0], samples.a1[0], abs(samples.v[0]), samples.lam[0],
                       samples.mu[0]]

    def test_svg_is_selfcontained(self):
        p = builtin_example("CASE1")
        samples = qnr_sample(p.b, sigma_bases(p), 10, seed=4)
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

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_the_role_swapped_case2_example_exits_0(self, command, tmp_path, capsys):
        # the CASE2 example at scale 0.5 with sigma and Sigma exchanged: only Sigma's hull is
        # separated, and SHIFT_III checks Sigma's d-neighbourhood, as CASE2 does; checking
        # sigma's, it reported a violation and the command exited 1
        path = tmp_path / "case2_swapped.json"
        path.write_text(json.dumps({
            "A": {"diag": [-1.0, 0.0, 1.0]},
            "V": [[0.0, 0.7071067811865476, 0.0], [0.7071067811865476, 0.0, 0.0],
                  [0.0, 0.0, 0.0]],
            "sigma": [-1.0, 1.0], "Sigma": [0.0],
        }))
        assert main([command, str(path)]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1:5] for line in out.splitlines()
                if line.split()[:1] in (["SHIFT_III"], ["CASE2"])}
        assert rows["SHIFT_III"][0] == rows["CASE2"][0] == "yes"
        assert rows["SHIFT_III"][3] == rows["CASE2"][3] == "ok"
        assert "SHIFT_III: roles swapped: the separated hull is Sigma's" in out


# whether numpy saw a negative seed once depended on --trials: one search trial draws nothing
NEGATIVE_SEEDS = [
    ["search", "--c", "0.5", "--seed", "-1", "--trials", "1"],
    ["search", "--c", "0.5", "--seed", "-1", "--trials", "2"],
    ["verify", "--random", "case1", "--seed", "-1"],
    ["qnr", "F", "--seed", "-1"],
]


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

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("forms", [
        (["tan_theta"], ["TAN_THETA"]),
        (["CASE2,MCE"], ["CASE2", "MCE"]),
        ([" case2 , mce ,"], ["CASE2", "MCE"]),
        (["Shift_I", "case2,"], ["SHIFT_I", "CASE2"]),
    ], ids=["lowercase", "comma", "spaces", "mixed"])
    def test_theorem_grammar_is_one_for_both_commands(self, command, forms, tmp_path, capsys):
        path = tmp_path / "case2.json"
        save_problem(builtin_example("CASE2", scale=0.9), path)
        outputs = []
        for values in forms:
            argv = [command, str(path)]
            for value in values:
                argv += ["--theorem", value]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

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
    def test_analyze_wrong_case_theorem_prints_its_unmet_case(self, case1_file, theorem, capsys):
        assert main(["analyze", str(case1_file), "--theorem", theorem]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"\n{theorem:<13} no " in captured.out
        assert f"\n  {theorem}: wrong case: " in captured.out and "required" in captured.out

    def test_analyze_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/nonexistent/problem.json"]) == 2

    def test_analyze_failed_eigendecomposition_exits_2(self, case1_file, monkeypatch, capsys):
        # LAPACK's failure to converge is a ConvergenceError, which must not exit 1
        def eigh(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert main(["analyze", str(case1_file)]) == 2
        assert capsys.readouterr() == (
            "", "error: eigendecomposition failed: Eigenvalues did not converge\n")

    @pytest.mark.parametrize("argv, code", [
        (["examples", "case1"], 0), (["analyze", "/nonexistent/problem.json"], 2)])
    def test_module_entry_point_exits_with_mains_code(self, argv, code, tmp_path):
        src = os.path.dirname(os.path.dirname(offdiag.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "offdiag.cli", *argv], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == code
        assert run.stderr.startswith("error: ") == (code == 2)

    def test_analyze_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # json.load raises RecursionError, which must not exit 1 like a violated bound
        path = tmp_path / "deep.json"
        path.write_text('{"A": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: maximum recursion depth")

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
        # the JSON alone is enough to run the search again
        again = tmp_path / "again.json"
        dims = ",".join(str(n) for n in payload["dims"])
        code = main(
            ["search", "--c", repr(payload["c"]), "--dims", dims, "--trials",
             str(payload["trials"]), "--seed", str(payload["seed"]),
             "--neighborhood", payload["neighborhood"], "--out", str(again)]
        )
        assert code == 0
        assert json.loads(again.read_text())["best_value"] == payload["best_value"]

    def test_verify_random(self, capsys):
        code = main(
            ["verify", "--random", "case1", "--theorem", "MAIN,SHIFT_I",
             "--trials", "5", "--ratio", "0.45", "--dims", "2,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations" in out

    @pytest.mark.parametrize("family", ["case1", "case2", "subordinated"])
    def test_verify_random_without_theorem_runs_the_default_battery(self, family, capsys):
        code = main(["verify", "--random", family, "--trials", "2", "--dims", "2,3"])
        assert code == 0
        out = capsys.readouterr().out
        battery = default_battery(cli._RANDOM_FAMILIES[family])
        assert f"\n{2 * len(battery)} checks," in out
        rows = [line.split()[0] for line in out.splitlines()[2 : 2 + 2 * len(battery)]]
        assert rows == battery * 2

    def test_verify_rejects_a_theorem_before_drawing_layouts(self, monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(harness, "random_problem_spec", lambda *a, **k: draws.append(a))
        assert main(["verify", "--random", "case1", "--theorem", "MAIN,NOPE", "--trials", "3"]) == 2
        assert draws == []

    def test_verify_random_exits_2_on_the_first_invalid_spec(self, monkeypatch, capsys):
        # a spec is validated when it is made, so the first invalid draw ends the run
        good = random_problem_spec(Case.CASE_I, 2, 2, 0.45, seed=1)
        makes = iter([lambda: good, lambda: dataclasses.replace(good, target_norm_ratio=-1.0),
                      lambda: dataclasses.replace(good, Sigma_values=good.sigma_values)])
        monkeypatch.setattr(harness, "random_problem_spec", lambda *a, **k: next(makes)())
        assert main(["verify", "--random", "case1", "--trials", "3"]) == 2
        assert "error: target_norm_ratio must be finite and nonnegative" in capsys.readouterr().err

    def test_verify_random_takes_one_eigh(self, monkeypatch, capsys):
        # B's stack is one LAPACK call, and a diagonal A needs none
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        assert main(["verify", "--random", "case2", "--trials", "4", "--dims", "8,8"]) == 0
        assert len(calls) == 1

    def test_successive_calls_share_no_state(self, case1_file, monkeypatch, capsys):
        defaults = dict(cli._RANDOM_OPTIONS)
        argv = ["verify", "--random", "case1", "--theorem", "MAIN", "--trials", "2", "--dims", "2,2"]
        assert main(argv) == 0
        capsys.readouterr()
        # neither the first call's --theorem nor its --random options carry over
        assert main(["verify", str(case1_file), "--theorem", "SHIFT_I"]) == 0
        out = capsys.readouterr().out
        assert "\n1 checks," in out and "MAIN" not in out
        assert cli._RANDOM_OPTIONS == defaults
        ran = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args.path) or 0)
        assert main(["verify", str(case1_file)]) == 0
        assert ran == [str(case1_file)]

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_verify_random_needs_a_trial(self, trials, monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(harness, "random_problem_spec", lambda *a, **k: draws.append(a))
        assert main(["verify", "--random", "case1", "--trials", trials]) == 2
        assert draws == []
        assert "need at least one trial" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--trials", "0"]])
    def test_verify_file_and_random_together_exit_2(self, case1_file, extra, capsys):
        assert main(["verify", str(case1_file), "--random", "case2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: provide either a problem file or --random FAMILY" in captured.err

    def test_verify_file(self, case1_file, capsys):
        assert main(["verify", str(case1_file)]) == 0

    @pytest.mark.parametrize(
        "option, value", [("--trials", "0"), ("--ratio", "3"), ("--dims", "9,9"), ("--seed", "1")]
    )
    def test_verify_file_rejects_random_only_options(self, case1_file, option, value, capsys):
        assert main(["verify", str(case1_file), option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and option in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--random", "case1", "--theorem", "NOPE"], "unknown theorem id 'NOPE'"),
        (["verify", "--random", "case1", "--theorem", ","], "--theorem ',' names no theorem id"),
        (["verify", "--random", "case1", "--theorem", " "], "--theorem ' ' names no theorem id"),
        (["verify", "--random", "case1", "--theorem", "MAIN", "--theorem", ""],
         "--theorem '' names no theorem id"),
        (["verify", "{missing}", "--theorem", "main,nope"], "unknown theorem id 'NOPE'"),
        (["analyze", "{missing}", "--theorem", "NOPE"], "unknown theorem id 'NOPE'"),
        (["analyze", "{missing}", "--theorem", "mce, nope"], "unknown theorem id 'NOPE'"),
        (["analyze", "{missing}", "--theorem", ","], "--theorem ',' names no theorem id"),
    ], ids=["verify-unknown", "verify-comma", "verify-space", "verify-empty", "verify-file",
            "analyze-unknown", "analyze-comma-unknown", "analyze-comma"])
    def test_bad_theorem_exits_2_before_any_input_is_read(self, argv, message, tmp_path,
                                                          monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(harness, "random_problem_spec", lambda *a, **k: draws.append(a))
        argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and draws == []
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

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
            *NEGATIVE_SEEDS,
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", NEGATIVE_SEEDS)
    def test_negative_seed_names_the_option(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "argument --seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err

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


    def test_examples_writes_nothing_when_the_report_path_fails(self, tmp_path, capsys):
        out = tmp_path / "case1.json"
        argv = ["examples", "case1", "--out", str(out),
                "--report-out", str(tmp_path / "missing" / "x.json")]
        assert main(argv) == 2
        assert not out.exists()
        out.write_text("kept\n")
        assert main(argv) == 2
        assert out.read_text() == "kept\n"
        assert capsys.readouterr().out == ""

    def test_qnr_writes_no_csv_when_the_svg_path_fails(self, case1_file, tmp_path, capsys):
        csv_path = tmp_path / "q.csv"
        argv = ["qnr", str(case1_file), "--samples", "5", "--out", str(csv_path),
                "--svg", str(tmp_path / "missing" / "q.svg")]
        assert main(argv) == 2
        assert not csv_path.exists()

    def test_analyze_prints_no_table_when_the_report_path_fails(self, case1_file, tmp_path, capsys):
        argv = ["analyze", str(case1_file), "--out", str(tmp_path / "missing" / "r.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("out, why", [("{dir}", "Is a directory"),
                                          ("{dir}/missing/s.json", "No such file or directory")])
    def test_search_runs_no_search_when_the_out_path_fails(self, out, why, tmp_path, monkeypatch,
                                                          capsys):
        searched = []
        monkeypatch.setattr(cli, "search_worst_case", lambda *a, **k: searched.append(1))
        argv = ["search", "--c", "0.5", "--dims", "2,2", "--trials", "2",
                "--out", out.format(dir=tmp_path)]
        assert main(argv) == 2
        assert searched == []
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and why in captured.err

    @pytest.mark.parametrize("command, work", [("analyze", "run_theorem"), ("qnr", "qnr_sample")])
    def test_analyze_and_qnr_do_no_work_when_the_out_path_fails(self, command, work, case1_file,
                                                                tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output was claimed")

        monkeypatch.setattr(cli, work, fail)
        assert main([command, str(case1_file), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Is a directory" in captured.err

    @pytest.mark.parametrize("argv", [
        ["qnr", "{problem}", "--samples", "0", "--out", "{new}", "--svg", "{dir}/new.svg"],
        ["search", "--c", "0.5", "--trials", "0", "--out", "{new}"],
        ["analyze", "{problem}", "--out", "{new}"],
    ], ids=["qnr-no-sample", "search-no-trial", "analyze-failed-check"])
    def test_an_error_after_the_claim_leaves_no_output(self, argv, case1_file, tmp_path,
                                                       monkeypatch, capsys):
        def fail(*args):
            raise ValueError("the check failed")

        monkeypatch.setattr(cli, "run_theorem", fail)
        new = tmp_path / "new.out"
        paths = {"problem": case1_file, "new": new, "dir": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not new.exists() and not (tmp_path / "new.svg").exists()
        new.write_text("kept\n")  # a file that was there is left as it was
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert new.read_text() == "kept\n"

    @pytest.mark.parametrize("second", ["{out}", "{dir}/./x.json", "{link}"])
    def test_examples_rejects_one_file_for_both_outputs(self, second, tmp_path, capsys):
        out, link = tmp_path / "x.json", tmp_path / "link.json"
        link.symlink_to(out)
        second = second.format(out=out, dir=tmp_path, link=link)
        assert main(["examples", "case1", "--out", str(out), "--report-out", second]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "name the same file" in captured.err
        assert not out.exists()
        out.write_text("kept\n")
        assert main(["examples", "case1", "--out", str(out), "--report-out", second]) == 2
        assert out.read_text() == "kept\n"

    def test_qnr_rejects_one_file_for_both_outputs(self, case1_file, tmp_path, capsys):
        out = tmp_path / "y"
        argv = ["qnr", str(case1_file), "--samples", "5", "--out", str(out), "--svg", str(out)]
        assert main(argv) == 2
        assert "name the same file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "{input}", "--out", "{output}"],
        ["qnr", "{input}", "--samples", "5", "--out", "{output}"],
        ["qnr", "{input}", "--samples", "5", "--svg", "{output}"],
    ], ids=["analyze-out", "qnr-out", "qnr-svg"])
    @pytest.mark.parametrize("through_link", [False, True])
    def test_an_output_may_not_name_the_input(self, argv, through_link, case1_file, tmp_path,
                                              capsys):
        before = case1_file.read_bytes()
        output = case1_file
        if through_link:
            output = tmp_path / "link.json"
            output.symlink_to(case1_file)
        argv = [x.format(input=case1_file, output=output) for x in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: output {output} names the input {case1_file}" in captured.err
        assert case1_file.read_bytes() == before
        assert main(["analyze", str(case1_file)]) == 0

    def test_search_builds_the_problem_payload_only_for_out(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return matrix_payload(m)

        monkeypatch.setattr(io, "matrix_payload", counted)
        argv = ["search", "--c", "0.75", "--trials", "2", "--seed", "1"]
        assert main(argv) == 0
        assert calls == []
        out = tmp_path / "s.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert calls == [(4, 4), (4, 4)]
        payload = json.loads(out.read_text())
        assert list(payload) == ["best_value", "dims", "seed", "trials", "c", "neighborhood",
                                 "evaluations", "best_problem"]
        assert list(payload["best_problem"]) == ["A", "V", "sigma", "Sigma"]


class TestWrongCase:
    """A theorem asked outside its case is a check whose case premise is unmet, on every path."""

    @staticmethod
    def rows(out: str) -> list[tuple[str, str]]:
        """(theorem id, premise column) of each row of the report table, in order."""
        return [tuple(line.split()[:2]) for line in out.splitlines()
                if line.split()[:1] and line.split()[0] in THEOREM_IDS]

    @pytest.mark.parametrize("command", ["analyze", "analyze --out", "verify"])
    @pytest.mark.parametrize("theorems", [["SHIFT_III,SUBORDINATED"], list(THEOREM_IDS)])
    def test_battery_with_a_wrong_case_id_prints_every_row_and_exits_0(
        self, case1_file, command, theorems, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        argv = [command.split()[0], str(case1_file)]
        if "--out" in command:
            argv += ["--out", str(out)]
        for value in theorems:
            argv += ["--theorem", value]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        want = cli._theorems(theorems)
        wrong = [t for t in want if t in ("CASE2", "SUBORDINATED", "TAN_THETA")]
        rows = self.rows(captured.out)
        assert [t for t, _ in rows] == want
        assert [t for t, premise in rows if t in wrong and premise == "no"] == wrong
        assert [line.split(":")[0].strip() for line in captured.out.splitlines()
                if ": wrong case: " in line] == wrong
        problem = load_problem(case1_file)  # every flag, SHIFT_I's boundary flags too
        flags = [f"  {t}: {flag}" for t in want for flag in run_theorem(problem, t).flags]
        assert [line for line in captured.out.splitlines() if line.startswith("  ")] == flags
        if "--out" in command:
            assert [r["theorem"] for r in json.loads(out.read_text())["reports"]] == want

    @pytest.mark.parametrize("case, theorem", [
        (Case.CASE_I, "CASE2"), (Case.CASE_I, "TAN_THETA"), (Case.CASE_I, "SUBORDINATED"),
        (Case.CASE_II, "SUBORDINATED"),
    ])
    def test_wrong_case_report_is_one_on_every_path(self, case, theorem, tmp_path, monkeypatch,
                                                   capsys):
        family = {Case.CASE_I: "case1", Case.CASE_II: "case2"}[case]
        (spec,) = harness.random_problem_specs(case, 3, 4, 0.45, 1, 5)
        check = {"CASE2": bound_case2, "TAN_THETA": tan_theta_bound,
                 "SUBORDINATED": bound_subordinated}[theorem]
        texts = [json.dumps(r.as_dict(), sort_keys=True) for r in (
            run_theorem(random_problem(spec), theorem), check(random_problem(spec)))]

        path, out = tmp_path / "problem.json", tmp_path / "report.json"
        save_problem(random_problem(spec), path)
        assert main(["analyze", str(path), "--theorem", theorem, "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["reports"]
        texts.append(json.dumps(report, sort_keys=True))

        batches, verify = [], cli.batch_verify
        monkeypatch.setattr(cli, "batch_verify",
                            lambda *args: batches.append(verify(*args)) or batches[0])
        assert main(["verify", "--random", family, "--theorem", theorem, "--trials", "1",
                     "--dims", "3,4", "--ratio", "0.45", "--seed", "5"]) == 0
        ((report,),) = batches
        texts.append(json.dumps(report.as_dict(), sort_keys=True))

        assert len(set(texts)) == 1
        assert json.loads(texts[0])["flags"][0].startswith("wrong case: ")


class TestAnalysisPayload:
    def test_float_fidelity(self):
        p = builtin_example("CASE1", scale=0.7)
        from offdiag import run_theorem

        payload = analysis_payload(p, [run_theorem(p, "SHIFT_I")])
        text = json.dumps(payload)
        recovered = json.loads(text)
        assert recovered["norm_v"] == p.norm_v  # repr round-trip is lossless

    def test_write_json_is_json_dump_with_indent_2_and_a_newline(self, tmp_path):
        p = builtin_example("CASE2", scale=0.9)
        from offdiag import run_theorem

        payload = analysis_payload(p, [run_theorem(p, t) for t in ("SHIFT_I", "CASE2", "MCE")])
        payload["extra"] = [math.nan, math.inf, -math.inf, -0.0, 1e-300, "\u00e9", {}, []]
        write_json(payload, tmp_path / "report.json")
        want = tmp_path / "dumped.json"
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        assert (tmp_path / "report.json").read_bytes() == want.read_bytes()
