"""The Hermitian matrix layout ``{"diag": list, "upper": U}`` of problem files.

``matrix_payload`` writes it exactly when the diagonal and strict upper
triangle rebuild the matrix bit for bit (lower triangle ``conj(U) + 0.0``,
imaginary diagonal +0.0); every other matrix keeps a nest layout.  These
tests check that rule against an entry-by-entry oracle, that every file
reads back to the same bits, that generated problems take the compact
layout, and that malformed compact input exits 2 with a location.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offdiag import Case, builtin_example, random_problem, random_problem_spec
from offdiag.cli import main
from offdiag.harness import search_worst_case
from offdiag.io import ProblemFileError, matrix_payload, parse_matrix, problem_payload, save_problem

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
           -1e300, 1.0, -2.5]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


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
            assert len(payload["upper"]) == n * (n - 1) // 2
        else:
            assert set(payload["upper"]) == {"re", "im"}
            assert len(payload["upper"]["re"]) == len(payload["upper"]["im"]) == n * (n - 1) // 2

    @pytest.mark.parametrize(
        "m, layout",
        [
            (np.diag([1.0, -0.0, 3.0]), {"diag": [1.0, -0.0, 3.0]}),
            (np.array([[2.0, 1 + 1j], [1 - 1j, -2.0]]),
             {"diag": [2.0, -2.0], "upper": {"re": [1.0], "im": [1.0]}}),
            (np.array([[2.0, 1.5], [1.5, -2.0]]), {"diag": [2.0, -2.0], "upper": [1.5]}),
            (np.array([[2.0, -0.0], [0.0, -2.0]]), {"diag": [2.0, -2.0], "upper": [-0.0]}),
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
