"""The Hermitian matrix layout ``{"diag": list, "upper": U}`` of problem files.

``matrix_payload`` writes it exactly when the diagonal and strict upper
triangle rebuild the matrix bit for bit (lower triangle ``conj(U) + 0.0``,
imaginary diagonal +0.0), with U as base64 little-endian doubles; every
other matrix keeps a nest layout.  These tests check that rule against an
entry-by-entry oracle, that every file reads back to the same bits, that
generated problems take the compact layout, that the text lists of earlier
files still load, and that malformed compact input exits 2 with a location.
"""

import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offdiag import Case, builtin_example, random_problem, random_problem_spec
from offdiag.cli import main
from offdiag.harness import search_worst_case
from offdiag.io import (
    ProblemFileError,
    load_problem,
    matrix_payload,
    parse_matrix,
    problem_payload,
    save_problem,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
           -1e300, 1.0, -2.5]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def doubles(text: str) -> np.ndarray:
    """The little-endian doubles of a base64 triangle, as a reader of the file decodes them."""
    return np.frombuffer(base64.b64decode(text), "<f8")


def rebuilds_exactly(m: np.ndarray) -> bool:
    """The compact layout's rule, entry by entry: +0.0 imaginary diagonal, lower = conj(upper) + 0.0."""
    n = len(m)
    for i in range(n):
        if bits(float(m[i, i].imag)) != bits(0.0):
            return False
        for j in range(i + 1, n):
            upper, lower = complex(m[i, j]), complex(m[j, i])
            if bits(lower.real) != bits(upper.real + 0.0) or bits(lower.imag) != bits(-upper.imag + 0.0):
                return False
    return True


def round_trip(m: np.ndarray):
    payload = json.loads(json.dumps(matrix_payload(m)))
    back = parse_matrix(payload, "V")
    assert back.dtype == complex and back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), np.asarray(m, dtype=complex).view(np.uint64))
    return payload


@st.composite
def matrices(draw):
    """A matrix of one kind: Hermitian, with zero blocks, signed or extreme, diagonal, near-Hermitian."""
    kind = draw(st.sampled_from(["hermitian", "zero-blocks", "extreme", "diagonal", "near"]))
    n = draw(st.integers(1, 6))
    entries = st.lists(FLOATS if kind == "extreme" else st.floats(-10.0, 10.0),
                       min_size=n * n, max_size=n * n)
    re = np.array(draw(entries)).reshape(n, n)
    im = np.array(draw(entries)).reshape(n, n) if draw(st.booleans()) else np.zeros((n, n))
    g = re + 0j
    g.imag = im
    if kind == "diagonal":
        m = np.zeros((n, n), dtype=complex)
        m.reshape(-1)[:: n + 1] = g.real.diagonal()
        if draw(st.booleans()):  # -0.0 off the diagonal
            m[~np.eye(n, dtype=bool)] = complex(-0.0, draw(st.sampled_from([0.0, -0.0])))
        return m
    # Hermitian by construction: real diagonal, lower triangle the conjugated upper one
    m = np.triu(g, 1)
    m += m.conj().T
    m.reshape(-1)[:: n + 1] = g.real.diagonal()
    if kind == "zero-blocks":
        k = draw(st.integers(0, n))
        zero = complex(*draw(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])))
        m[:k, :k] = zero
        m[k:, k:] = zero
    elif kind == "near" and n > 1:
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        m[j, i] = np.nextafter(m[j, i].real, np.inf) + 1j * m[j, i].imag
    elif kind == "extreme" and draw(st.booleans()):
        m = g  # entry by entry, Hermitian only by chance
    return m


class TestWriterRule:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=matrices())
    def test_round_trips_and_is_compact_exactly_when_it_rebuilds(self, m):
        payload = round_trip(m)
        compact = isinstance(payload, dict) and "diag" in payload
        assert compact == rebuilds_exactly(m)
        if not compact:
            return
        n = len(m)
        upper = m[np.triu_indices(n, 1)]
        assert set(payload) <= {"diag", "upper"} and len(payload["diag"]) == n
        if not upper.view(np.uint64).any():
            assert "upper" not in payload
        elif not upper.imag.view(np.uint64).any():
            assert isinstance(payload["upper"], str)
            assert np.array_equal(doubles(payload["upper"]).view(np.uint64),
                                  upper.real.view(np.uint64))
        else:
            assert set(payload["upper"]) == {"re", "im"}
            re, im = (doubles(payload["upper"][part]) for part in ("re", "im"))
            assert len(re) == len(im) == n * (n - 1) // 2
            assert np.array_equal(re.view(np.uint64), upper.real.view(np.uint64))
            assert np.array_equal(im.view(np.uint64), upper.imag.view(np.uint64))

    @pytest.mark.parametrize(
        "m, layout",
        [
            (np.diag([1.0, -0.0, 3.0]), {"diag": [1.0, -0.0, 3.0]}),
            (np.array([[2.0, 1 + 1j], [1 - 1j, -2.0]]),
             {"diag": [2.0, -2.0], "upper": {"re": "AAAAAAAA8D8=", "im": "AAAAAAAA8D8="}}),
            (np.array([[2.0, 1.5], [1.5, -2.0]]), {"diag": [2.0, -2.0], "upper": "AAAAAAAA+D8="}),
            (np.array([[2.0, -0.0], [0.0, -2.0]]), {"diag": [2.0, -2.0], "upper": "AAAAAAAAAIA="}),
            (np.array([[2.0, 0.0], [-0.0, -2.0]]), [[2.0, 0.0], [-0.0, -2.0]]),
            (np.array([[1j, 0.0], [0.0, 1.0]]), {"re": [[0.0, 0.0], [0.0, 1.0]],
                                                 "im": [[1.0, 0.0], [0.0, 0.0]]}),
            (np.array([[7.0]]), {"diag": [7.0]}),
        ],
        ids=["diagonal", "complex", "real", "negzero-upper", "negzero-lower", "imag-diagonal",
             "one-by-one"],
    )
    def test_pinned_layouts(self, m, layout):
        assert json.dumps(round_trip(m)) == json.dumps(layout)


FAMILY_RATIOS = {Case.CASE_I: 0.45, Case.CASE_II: 1.2, Case.SUBORDINATED: 4.0}


def generated_problems():
    for case, ratio in FAMILY_RATIOS.items():
        for dims in ((2, 2), (8, 8), (128, 128)):
            spec = random_problem_spec(case, *dims, ratio, seed=7)
            yield f"{case.name}-{dims[0]}+{dims[1]}", lambda spec=spec: random_problem(spec), True
    for which in ("CASE1", "CASE2"):
        for scale in (1.0, 0.5, 0.0):
            # V = 0 at scale 0: every strict-upper entry is +0.0, so V is its diagonal alone
            yield (f"{which}-{scale}", lambda w=which, s=scale: builtin_example(w, scale=s),
                   scale != 0.0)
    yield ("search-best", lambda: search_worst_case(2, 2, c=0.75, trials=4, seed=3).best_problem,
           True)


class TestGeneratedProblems:
    @pytest.mark.parametrize("make, coupled", [g[1:] for g in generated_problems()],
                             ids=[g[0] for g in generated_problems()])
    def test_written_as_diagonal_and_upper_triangle(self, make, coupled, tmp_path):
        p = make()
        payload = problem_payload(p)
        assert list(payload["A"]) == ["diag"]
        assert list(payload["V"]) == (["diag", "upper"] if coupled else ["diag"])
        path = tmp_path / "p.json"
        save_problem(p, path)
        back = parse_matrix(json.loads(path.read_text())["V"], "V")
        assert np.array_equal(back.view(np.uint64), p.v.view(np.uint64))


ZERO3 = [0.0, 0.0, 0.0]


class TestMalformed:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"diag": []}, r"matrix V\.diag must be a nonempty list of numbers"),
            ({"diag": 1.0}, r"matrix V\.diag must be a nonempty list of numbers"),
            ({"diag": ZERO3, "upper": [1.0, 2.0]}, r"matrix V\.upper has 2 entries, expected 3"),
            ({"diag": ZERO3, "upper": [1.0, 2.0, 3.0, 4.0]},
             r"matrix V\.upper has 4 entries, expected 3"),
            ({"diag": [0.0, "1", 0.0]}, r"matrix V\.diag: invalid entry at \(1,1\): '1'"),
            ({"diag": [0.0, 0.0, None]}, r"matrix V\.diag: invalid entry at \(2,2\): None"),
            ({"diag": [[0.0, 1.0], [1.0, 0.0]]},
             r"matrix V\.diag: invalid entry at \(0,0\): \[0\.0, 1\.0\]"),
            ({"diag": ZERO3, "upper": [1.0, "x", 2.0]},
             r"matrix V\.upper: invalid entry at \(0,2\): 'x'"),
            ({"diag": ZERO3, "upper": [1.0, 2.0, None]},
             r"matrix V\.upper: invalid entry at \(1,2\): None"),
            ({"diag": ZERO3, "upper": {"re": [1.0, 2.0, 3.0], "im": [0.0, None, 0.0]}},
             r"matrix V\.upper\.im: invalid entry at \(0,2\): None"),
            ({"diag": ZERO3, "upper": {"re": [1.0, 2.0, 3.0], "im": [0.0, 0.0]}},
             r"matrix V\.upper\.im has 2 entries, expected 3"),
            ({"diag": ZERO3, "upper": {"re": [1.0, 2.0], "im": ZERO3}},
             r"matrix V\.upper\.re has 2 entries, expected 3"),
            ({"diag": ZERO3, "upper": {"re": ZERO3}}, r"matrix V\.upper must be a list of numbers"),
            ({"diag": ZERO3, "upper": None}, r"matrix V\.upper must be a list of numbers"),
            ({"diag": ZERO3, "upper": ZERO3, "scale": 1.0},
             r"V\.diag and an optional V\.upper, .* got keys \['diag', 'scale', 'upper'\]"),
            ({"upper": ZERO3}, r"V\.diag and an optional V\.upper, .* got keys \['upper'\]"),
        ],
        ids=[
            "empty-diag", "number-diag", "upper-short", "upper-long", "string-in-diag",
            "null-in-diag", "nest-as-diag", "string-in-upper", "null-in-upper", "null-in-upper-im",
            "im-short", "re-short", "upper-re-only", "null-upper", "extra-key", "upper-without-diag",
        ],
    )
    def test_names_the_part_and_entry(self, obj, message):
        with pytest.raises(ProblemFileError, match=message):
            parse_matrix(obj, "V")

    def test_checked_path_converts_like_float(self):
        big = 2**64 + 3  # beyond int64: numpy makes an object array, so the checked path reads it
        m = parse_matrix({"diag": [big, True, 2], "upper": [big, 0, 1]}, "A")
        want = np.array([[float(big), float(big), 0.0], [float(big), 1.0, 1.0], [0.0, 1.0, 2.0]])
        assert np.array_equal(m.view(np.uint64), want.astype(complex).view(np.uint64))

    def test_analyze_exits_2_naming_the_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"A": {"diag": [-1.0, 0.0, 1.0]}, "V": {"diag": ZERO3, "upper": [1.0, None, 0.0]},
             "sigma": [0.0], "Sigma": [-1.0, 1.0]}
        ))
        assert main(["analyze", str(path)]) == 2
        assert "matrix V.upper: invalid entry at (0,2): None" in capsys.readouterr().err


def b64(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def analyze_exit(tmp_path, capsys, v) -> tuple[int, str]:
    """Exit code and stderr of ``analyze`` on a 1+2 problem file whose V is ``v``."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"A": {"diag": [-1.0, 0.0, 1.0]}, "V": v, "sigma": [0.0],
                                "Sigma": [-1.0, 1.0]}))
    code = main(["analyze", str(path)])
    return code, capsys.readouterr().err


THREE = b64([1.0, 2.0, 3.0])  # the 3 doubles of a 3x3 triangle
BAD_BASE64 = {
    # a lenient decoder would drop the "*" or the newline and read the 3 doubles
    "non-alphabet": THREE[:4] + "*" + THREE[4:],
    "newline": THREE[:16] + "\n" + THREE[16:],
    "bad-padding": THREE[:-2] + "=",
    "excess-padding": THREE + "=",  # b64decode(validate=True) reads the 3 doubles
    "not-whole-doubles": base64.b64encode(bytes(20)).decode("ascii"),
    "two-doubles": b64([1.0, 2.0]),
    "four-doubles": b64([1.0, 2.0, 3.0, 4.0]),
}


class TestBase64Triangle:
    @pytest.mark.parametrize("part", ["upper", "upper.re", "upper.im"])
    @pytest.mark.parametrize("kind", list(BAD_BASE64))
    def test_malformed_string_exits_2_naming_the_part_and_count(self, part, kind, tmp_path,
                                                                capsys):
        upper = {"upper": BAD_BASE64[kind], "upper.re": {"re": BAD_BASE64[kind], "im": THREE},
                 "upper.im": {"re": THREE, "im": BAD_BASE64[kind]}}[part]
        code, err = analyze_exit(tmp_path, capsys, {"diag": ZERO3, "upper": upper})
        assert code == 2 and err.startswith("error: matrix ")
        assert err.split()[2].rstrip(":") == f"V.{part}" and "expected 3 doubles" in err

    @pytest.mark.parametrize("part", ["upper", "upper.re", "upper.im"])
    def test_non_canonical_final_character_exits_2(self, part, tmp_path, capsys):
        # one double takes 11 characters and "=": the 11th carries 2 unused low bits, which
        # b64decode(validate=True) ignores, so "...4D9=" decodes to the 0.5 of canonical "...4D8="
        canonical, loose = b64([0.5]), "AAAAAAAA4D9="
        assert canonical == "AAAAAAAA4D8="
        assert base64.b64decode(loose, validate=True) == base64.b64decode(canonical)
        assert parse_matrix({"diag": [0.0, 0.0], "upper": canonical}, "V")[0, 1] == 0.5
        zero = b64([0.0])
        upper = {"upper": loose, "upper.re": {"re": loose, "im": zero},
                 "upper.im": {"re": zero, "im": loose}}[part]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": {"diag": [0.0, 1.0]}, "V": {"diag": [0.0, 0.0],
                                    "upper": upper}, "sigma": [0.0], "Sigma": [1.0]}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: matrix V.{part} has 8 bytes in 12 characters, "
                                           "expected 1 doubles in canonical base64\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["upper", "upper.im"])
    def test_nonfinite_double_exits_2(self, part, value, tmp_path, capsys):
        bad = b64([0.0, value, 0.0])
        upper = bad if part == "upper" else {"re": THREE, "im": bad}
        code, err = analyze_exit(tmp_path, capsys, {"diag": ZERO3, "upper": upper})
        assert (code, err) == (2, "error: matrix entries must be finite\n")

    @pytest.mark.parametrize(
        "v, message",
        [
            ({"diag": b64(ZERO3)}, "matrix V.diag must be a nonempty list of numbers"),
            ({"diag": ZERO3, "upper": [THREE, 0.0, 0.0]},
             f"matrix V.upper: invalid entry at (0,1): {THREE!r} (expected a number)"),
            ([[0.0, THREE, 0.0], ZERO3, ZERO3],
             f"matrix V: invalid entry at (0,1): {THREE!r} (expected a number or [re, im])"),
            (THREE, "matrix V must be a nonempty list of rows"),
            ({"re": THREE, "im": [ZERO3] * 3}, "matrix V.re must be a nonempty list of rows"),
        ],
        ids=["diag", "in-upper-list", "in-nest", "as-nest", "as-re-nest"],
    )
    def test_string_outside_the_triangle_rejected_as_before(self, v, message, tmp_path, capsys):
        assert analyze_exit(tmp_path, capsys, v) == (2, f"error: {message}\n")

    def test_every_bit_pattern_round_trips(self):
        rng = np.random.default_rng(11)
        n = 9
        pattern = rng.integers(0, 2**64, size=(2, n * (n - 1) // 2), dtype=np.uint64)
        pattern[:, :len(SPECIAL)] = np.array(SPECIAL).view(np.uint64)
        payload = {"diag": [0.0] * n, "upper": {"re": b64(pattern[0].view(float)),
                                                "im": b64(pattern[1].view(float))}}
        back = parse_matrix(json.loads(json.dumps(payload)), "V")
        rows, cols = np.triu_indices(n, 1)
        got = np.stack([back[rows, cols].real, back[rows, cols].imag])
        assert np.array_equal(got.view(np.uint64), pattern)  # NaN payloads too: no decimal step
        assert json.dumps(matrix_payload(back)) == json.dumps(payload)

    @pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
    def test_text_list_file_of_earlier_versions_loads_bit_for_bit(self, complex_v, tmp_path):
        p = random_problem(random_problem_spec(Case.CASE_II, 4, 5, 1.2, seed=2))
        v = p.v.copy() if complex_v else p.v.real.astype(complex)
        rows, cols = np.triu_indices(len(v), 1)
        assert not v[rows[:2], cols[:2]].any()  # V is zero at (0,1) and (0,2)
        if complex_v:  # an imaginary -0.0 and a subnormal, kept only by a bit-exact reader
            v[rows[:2], cols[:2]] = [complex(0.0, -0.0), 5e-324j]
            v[cols, rows] = np.conj(v[rows, cols]) + 0.0
        upper = v[rows, cols]
        old_upper = ({"re": upper.real.tolist(), "im": upper.imag.tolist()} if complex_v
                     else upper.real.tolist())
        old = {"A": {"diag": p.a.real.diagonal().tolist()},
               "V": {"diag": v.real.diagonal().tolist(), "upper": old_upper},
               "sigma": [[lo, hi] for lo, hi in p.sigma.intervals],
               "Sigma": [[lo, hi] for lo, hi in p.Sigma.intervals]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old) + "\n")
        back = load_problem(path)
        assert np.array_equal(back.v.view(np.uint64), v.view(np.uint64))
        assert np.array_equal(back.a.view(np.uint64), p.a.view(np.uint64))
        new = problem_payload(back)["V"]["upper"]
        assert isinstance(new, dict) == complex_v
