"""Fuzzed argv for every subcommand, run in-process through ``main``.

The exit-code contract: 0 = ran, 1 = a premise-satisfied bound was
violated, 2 = input or usage error, which argparse signals by raising
``SystemExit(2)``.  Every drawn argv must end in one of those; any other
exception escaping ``main`` fails the test.  Flags and values are drawn
from valid and invalid choices, with sizes kept small (``--trials`` <= 4,
``--samples`` <= 50, dims <= 3) and problem files of dimension 4 at most.
Invalid problem files include malformed matrices in the nest and the
diagonal-and-upper-triangle layouts, and well-formed problems with bad
``tolerances``; any argv naming one of the latter must exit 2.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import THEOREM_IDS, builtin_example
from offdiag.cli import main
from offdiag.io import save_problem


def choice(valid, invalid=()):
    """One of ``valid``, or one draw in eight one of ``invalid``."""
    if not invalid:
        return st.sampled_from(valid)
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(invalid if i == 0 else valid))


TOL_SCALE = choice(["1", "1e-6", "1e6"], ["0", "-1", "nan", "x"])
SEED = choice(["0", "7", "123"], ["-1", "x"])
TRIALS = choice(["1", "2", "4"], ["0", "-2", "x"])
DIMS = choice(["2,2", "2,3", "3,3", "1,1", "1,3", "3,1"], ["0,2", "2", "x"])
THEOREM = choice(list(THEOREM_IDS), ["mce", "NOPE"])
# CASE2 x 0.5 violates no bound, so only the tolerance value can make these fail
BAD_TOLERANCES = {"tol_nan.json": math.nan, "tol_negative.json": -1.0}
# the diagonal-and-upper-triangle layout, one upper entry short and with a null on the diagonal
BAD_COMPACT = {
    "upper_short.json": '{"A": {"diag": [-1, 0, 1]}, "V": {"diag": [0, 0, 0], "upper": [1, 0]}, '
    '"sigma": [0], "Sigma": [-1, 1]}',
    "diag_null.json": '{"A": {"diag": [-1, null, 1]}, "V": {"diag": [0, 0, 0]}, '
    '"sigma": [0], "Sigma": [-1, 1]}',
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_problem(builtin_example("CASE1"), root / "case1.json")
    save_problem(builtin_example("CASE2", scale=0.5), root / "case2.json")
    (root / "ragged.json").write_text('{"A": [[1, 2], [3]], "V": [[0]], "sigma": [0], "Sigma": [1]}')
    (root / "truncated.json").write_text('{"A": [[1')
    for name, text in BAD_COMPACT.items():
        (root / name).write_text(text)
    for name, report in BAD_TOLERANCES.items():
        payload = json.loads((root / "case2.json").read_text())
        payload["tolerances"] = {"report": report}
        (root / name).write_text(json.dumps(payload))
    problem = choice(
        ["case1.json", "case2.json"],
        ["ragged.json", "truncated.json", *BAD_COMPACT, "absent.json", ".", *BAD_TOLERANCES],
    )
    output = choice(["out.a", "out.b"], ["missing/out", "."])
    return {
        "problem": problem.map(lambda name: str(root / name)),
        "bad_tolerances": st.sampled_from(sorted(BAD_TOLERANCES)).map(
            lambda name: str(root / name)
        ),
        "bad_compact": st.sampled_from(sorted(BAD_COMPACT)).map(lambda name: str(root / name)),
        "output": output.map(lambda name: str(root / name)),
    }


@st.composite
def flags(draw, spec):
    """A drawn subset of ``spec``'s flags in a drawn order, each with a value from its strategy."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(spec)), unique=True)):
        argv += [flag, draw(spec[flag])]
    return argv


@st.composite
def argvs(draw, paths):
    problem, output = paths["problem"], paths["output"]
    command = draw(st.sampled_from(["analyze", "examples", "qnr", "search", "verify"]))
    if command == "analyze":
        argv = [command, draw(problem)] + draw(
            flags({"--theorem": THEOREM, "--out": output, "--tol-scale": TOL_SCALE})
        )
    elif command == "examples":
        # both outputs always given, so nothing lands in the working directory
        argv = [command, draw(choice(["case1", "CASE2"], ["case3"]))]
        argv += ["--out", draw(output), "--report-out", draw(output)]
        argv += draw(flags({"--scale": choice(["1", "0.5", "0", "-1"], ["1e300", "nan", "x"])}))
    elif command == "qnr":
        argv = [command, draw(problem)] + draw(
            flags(
                {
                    "--samples": choice(["1", "20", "50"], ["0", "-3", "x"]),
                    "--seed": SEED,
                    "--out": output,
                    "--svg": output,
                    "--tol-scale": TOL_SCALE,
                }
            )
        )
    elif command == "search":
        argv = [command, "--c", draw(choice(["0.5", "0.75", "0.866"], ["0", "-0.5", "nan", "x"]))]
        argv += draw(
            flags(
                {
                    "--dims": DIMS,
                    "--trials": TRIALS,
                    "--seed": SEED,
                    "--neighborhood": choice(["half", "full"], ["both"]),
                    "--out": output,
                }
            )
        )
    else:
        source = draw(st.sampled_from([[], ["--random"]]))
        if source:
            source.append(draw(choice(["case1", "case2", "subordinated"], ["case9"])))
        else:
            source.append(draw(problem))
        argv = [command] + source + draw(
            flags(
                {
                    "--theorem": choice(
                        list(THEOREM_IDS) + ["CASE2,TAN_THETA", "mce, main"], ["NOPE", ","]
                    ),
                    "--trials": TRIALS,
                    "--ratio": choice(["0.45", "1.2", "4", "0"], ["-1", "nan", "x"]),
                    "--dims": DIMS,
                    "--seed": SEED,
                    "--tol-scale": TOL_SCALE,
                }
            )
        )
    if draw(st.integers(0, 15)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(paths, data):
    argv = data.draw(argvs(paths), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
            assert code == 2, sink.getvalue()
    assert code in (0, 1, 2), sink.getvalue()
    # only a theorem check can find a violated bound
    assert code != 1 or argv[0] in ("analyze", "verify"), sink.getvalue()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_argv_naming_a_bad_tolerances_file_exits_2(paths, data):
    argv = data.draw(argvs({**paths, "problem": paths["bad_tolerances"]}), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    if any(arg.endswith(tuple(BAD_TOLERANCES)) for arg in argv):
        assert code == 2, (argv, sink.getvalue())
    else:
        assert code in (0, 1, 2), sink.getvalue()


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_argv_naming_a_malformed_compact_file_exits_2(paths, data):
    argv = data.draw(argvs({**paths, "problem": paths["bad_compact"]}), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    if any(arg.endswith(tuple(BAD_COMPACT)) for arg in argv):
        assert code == 2, (argv, sink.getvalue())
    else:
        assert code in (0, 1, 2), sink.getvalue()
