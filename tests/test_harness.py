import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import offdiag
from offdiag import analysis, cli, harness
from offdiag import (
    THEOREM_IDS,
    Case,
    ProblemSpec,
    Tolerances,
    batch_verify,
    builtin_example,
    random_problem,
    random_problem_spec,
    search_worst_case,
    summarize,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
# ``_bits`` of search_worst_case(2, 2, c=0.75, trials=8, seed=0).best_problem, as the search
# built it before it was built on first read
SEARCH_BEST_BITS = ("80461f7fc8c2184e4ac71ce269e076cc02705b0cd1e79be045f6b32e41695998",
                    "7c5f6cc6d80c36fb13ef60b8276bad9958a817d94bb7a5c04a868765e224dc10")
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "reference.json")


def _bits(p):
    """SHA-256 of the bits of a problem's A and of its V."""
    return hashlib.sha256(p.a.tobytes()).hexdigest(), hashlib.sha256(p.v.tobytes()).hexdigest()


def _bits_on_one_blas_thread(make: str):
    """``_bits`` of the problem that the expression ``make`` builds.

    The problem is built in a child process on one BLAS thread.
    """
    src = os.path.dirname(os.path.dirname(offdiag.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import hashlib\n"
        "from offdiag import Case, random_problem, random_problem_spec\n"
        f"p = {make}\n"
        "print(*(hashlib.sha256(m.tobytes()).hexdigest() for m in (p.a, p.v)))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return tuple(run.stdout.split())


class TestBuiltinExamples:
    def test_case1_validates(self):
        p = builtin_example("CASE1")
        assert p.case is Case.CASE_I
        assert p.d == 1.0
        assert abs(p.norm_v - SQRT3_2) < 1e-12
        assert p.projection.rank == 2

    def test_case2_validates(self):
        p = builtin_example("CASE2")
        assert p.case is Case.CASE_II
        assert p.d == 1.0
        assert abs(p.norm_v - math.sqrt(2.0)) < 1e-12
        assert p.projection.rank == 1

    def test_scale(self):
        p = builtin_example("CASE1", scale=0.5)
        assert abs(p.norm_v - 0.5 * SQRT3_2) < 1e-12

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            builtin_example("CASE3")


class TestRandomProblem:
    def test_zero_ratio_gives_unperturbed(self):
        spec = ProblemSpec((0.0, 0.5), (2.0,), 0.0, seed=1)
        p = random_problem(spec)
        assert np.all(p.v == 0)

    def test_deterministic_in_seed(self):
        spec = ProblemSpec((-1.0, 0.0), (1.0, 2.0), 0.8, seed=42)
        p1 = random_problem(spec)
        p2 = random_problem(spec)
        assert np.array_equal(p1.v, p2.v)
        assert np.array_equal(p1.a, p2.a)

    def test_diagonal_blocks_exactly_zero(self):
        spec = ProblemSpec((-1.0, 0.0), (1.0, 2.0), 0.8, seed=7)
        p = random_problem(spec)
        n0 = spec.dim_sigma
        assert np.all(p.v[:n0, :n0] == 0)
        assert np.all(p.v[n0:, n0:] == 0)

    def test_norm_hits_target(self):
        from offdiag import spectral_norm

        spec = ProblemSpec((-1.0, 0.0), (1.0, 2.0), 1.3, seed=9)
        p = random_problem(spec)
        target = 1.3 * spec.validate()
        assert abs(spectral_norm(p.v) - target) <= 1e-12 * target

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="separated"):
            random_problem(ProblemSpec((0.0,), (0.0,), 0.5, seed=0))

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError, match="^both components need at least one value$"):
            random_problem(ProblemSpec((), (1.0,), 0.5, seed=0))

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -0.5])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            random_problem(ProblemSpec((0.0,), (1.0,), ratio, seed=0))

    # SHA-256 of the bits of A and V, recorded from the generator before the coupling
    # layout was shared with the search; the benchmark's input files and reference
    # verdicts are made from these problems.  ||W|| of analyze_large's 128 x 128 block
    # differs in its last bit between one and two OpenBLAS threads, so that case is
    # built on one BLAS thread, as the benchmark builds it
    @pytest.mark.parametrize("make, a_sha, v_sha", [
        (lambda: _bits(random_problem(random_problem_spec(Case.CASE_I, 3, 4, 0.45, seed=1))),
         "29bef2ab81041ef78387f2989bf8d573e7b7e577998a0470c91c0ec4ad50a8c1",
         "fca963c7c2b0ec0ba7391f3a1c497ae44ac6c55bf05463faee96773cabfc4d57"),
        (lambda: _bits(random_problem(random_problem_spec(Case.CASE_II, 3, 4, 0.8, seed=2))),
         "6125feceea405f786bcf25a731ba7ab791d17e316f9ace5d4f4606489ab371bc",
         "a1693967e1220b921b93611cc60de4c88dad2cc492227774621fda511c77a40e"),
        (lambda: _bits(random_problem(random_problem_spec(Case.SUBORDINATED, 2, 3, 4.0, seed=3))),
         "db7b7a6a39f1f445631d30fb3e8552bbaabaa7c2f68e79b1cf20e5a9285257a1",
         "f55685a7fbfbb07bc646fea65fa865a8e5c9f808383fd6e44f85688a4adc6e8c"),
        (lambda: _bits(random_problem(random_problem_spec(Case.CASE_II, 4, 5, 0.0, seed=4))),
         "d989a4135b0482d4f701ff28c92a00ab7d3128bcc9644d2570bf5d5e349e6497",
         "94637c6efefbdcc3d3bb74d61732b22250552654c8c11f0fa9c3b3ed11d38373"),
        (lambda: _bits_on_one_blas_thread(
            "random_problem(random_problem_spec(Case.CASE_II, 128, 128, 1.2, seed=0))"),
         "147d4113212f57a8cf7d03a37e9021ef39fd6212444f04f987b959143b3e2f45",
         "f4e3c0664c6c490ca5e31275fe5169bb1b3b7487907221eea157823f60de8ed5"),
        (lambda: _bits(search_worst_case(2, 2, c=0.75, trials=8, seed=0).best_problem),
         *SEARCH_BEST_BITS),
    ], ids=["case_i", "case_ii", "subordinated", "ratio_0", "analyze_large", "search_best"])
    def test_generated_bits_pinned(self, make, a_sha, v_sha):
        a_got, v_got = make()
        assert a_got == a_sha
        assert v_got == v_sha

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 8), (8, 8)])
    @pytest.mark.parametrize("case", [Case.CASE_I, Case.CASE_II, Case.SUBORDINATED])
    def test_layout_generator_produces_requested_case(self, case, dims):
        """Each layout is of its case by construction, so generation does not check it."""
        specs = [random_problem_spec(case, *dims, 0.5, seed=1000 + k) for k in range(200)]
        for spec, p in zip(specs, harness._random_problems(specs, offdiag.DEFAULT_TOL)):
            assert p.case is case, (case, spec)

    def test_batch_verify_builds_no_set_and_classifies_once_per_build(self, monkeypatch):
        specs = [random_problem_spec(case, 3, 4, 0.8, seed=k)
                 for case in (Case.CASE_I, Case.CASE_II, Case.SUBORDINATED) for k in range(4)]
        counts = {"sets": 0, "classify": 0, "build": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return call

        init, build = offdiag.SpectralSet.__init__, offdiag.PerturbationProblem._build.__func__
        monkeypatch.setattr(offdiag.SpectralSet, "__init__", counted("sets", init))
        monkeypatch.setattr(analysis, "_classify", counted("classify", analysis._classify))
        monkeypatch.setattr(offdiag.PerturbationProblem, "_build",
                            classmethod(counted("build", build)))
        batch_verify(specs, list(THEOREM_IDS))
        # 24 generated sets, each read from the stack's endpoints and not built as an object
        assert counts["sets"] <= 2 * len(specs)
        assert counts["build"] >= 1 and counts["classify"] == counts["build"]


def stepwise_refine(x, sweeps, score):
    """``harness._refine`` scoring one move of every trial at a time: the reference it must match."""
    value = score(x)
    step = np.full(len(value), 0.25)
    last = x.shape[1] - 1
    for _ in range(sweeps):
        improved = np.zeros(len(value), dtype=bool)
        for k in range(x.shape[1]):
            for sign in (1.0, -1.0):
                moved = x.copy()
                moved[:, k] += sign * step
                if k == last:
                    moved[:, k] = np.clip(moved[:, k], 0.01, 1.0)
                cand = score(moved)
                take = cand > value + 1e-15
                np.copyto(x, moved, where=take[:, None])
                value = np.where(take, cand, value)
                improved |= take
        step = np.where(improved, step, step * 0.5)
    return value


class TestSearch:
    def test_bookkeeping_single_trial(self):
        r = search_worst_case(c=0.3, trials=1, seed=0, refine_sweeps=1)
        assert r.trials == 1
        assert r.best_problem is not None

    def test_sharpness_reproduced_at_critical_cap(self):
        # the example-seeded start empties the neighborhood: value exactly 1
        r = search_worst_case(c=SQRT3_2, trials=3, seed=0)
        assert abs(r.best_value - 1.0) < 1e-10

    def test_sharpness_full_neighborhood(self):
        r = search_worst_case(
            dim_sigma=1, dim_Sigma=2, c=math.sqrt(2.0), trials=3, seed=0,
            neighborhood="full_d",
        )
        assert abs(r.best_value - 1.0) < 1e-10

    def test_slightly_overcritical_cap_also_saturates(self):
        # the example-shaped start runs at the critical ratio, not at the cap
        r = search_worst_case(c=0.87, trials=3, seed=0)
        assert abs(r.best_value - 1.0) < 1e-10

    def test_subcritical_cap_stays_contractive(self):
        r = search_worst_case(c=0.4, trials=60, seed=3)
        assert r.best_value < 1.0

    def test_never_exceeds_one(self, rng):
        for seed in range(3):
            r = search_worst_case(c=2.0, trials=10, seed=seed, refine_sweeps=1)
            assert r.best_value <= 1.0 + 1e-10

    def test_deterministic(self):
        r1 = search_worst_case(c=0.7, trials=8, seed=5, refine_sweeps=1)
        r2 = search_worst_case(c=0.7, trials=8, seed=5, refine_sweeps=1)
        assert r1.best_value == r2.best_value
        assert r1.evaluations == r2.evaluations

    @pytest.mark.parametrize(
        "kwargs, best_value, evaluations",
        [
            (dict(c=0.7, trials=6, seed=2), 0.6615068115637764, 318),
            (dict(c=0.4, trials=6, seed=3), 0.42960501295201453, 318),
            (dict(dim_sigma=1, dim_Sigma=2, c=1.2, trials=5, seed=4, neighborhood="full_d"),
             0.7628404144680964, 165),
            (dict(dim_sigma=2, dim_Sigma=3, c=0.6, trials=4, seed=5), 0.5173347361605622, 292),
            (dict(dim_sigma=3, dim_Sigma=3, c=0.6, trials=3, seed=6), 0.4539230608543978, 303),
            # both runs score degenerate candidates (gap below the floor) on the way
            (dict(c=2.0, trials=10, seed=2, refine_sweeps=1), 1.0, 270),
            (dict(c=2.0, trials=10, seed=4, refine_sweeps=1), 1.0, 270),
        ],
    )
    def test_trajectory_pinned(self, kwargs, best_value, evaluations):
        # values recorded from ``stepwise_refine`` with ``harness._score``, one candidate
        # at a time; the lockstep search must follow the same greedy trajectory to the last bit
        r = search_worst_case(**kwargs)
        assert r.best_value == best_value
        assert r.evaluations == evaluations

    @pytest.fixture
    def builds(self, monkeypatch):
        """One entry per ``PerturbationProblem._build`` call made while the test runs."""
        builds, build = [], offdiag.PerturbationProblem._build.__func__
        monkeypatch.setattr(offdiag.PerturbationProblem, "_build",
                            classmethod(lambda *args: builds.append(1) or build(*args)))
        return builds

    def test_best_problem_is_built_on_first_read_and_kept(self, builds):
        r = search_worst_case(2, 2, c=0.75, trials=8, seed=0)
        assert builds == []
        first = r.best_problem
        assert builds == [1] and r.best_problem is first
        assert _bits(first) == SEARCH_BEST_BITS

    def test_search_without_out_builds_no_problem(self, builds, tmp_path, capsys):
        argv = ["search", "--c", "0.75", "--dims", "2,2", "--trials", "8", "--seed", "0"]
        assert cli.main(argv) == 0
        assert builds == []
        assert cli.main(argv + ["--out", str(tmp_path / "s.json")]) == 0
        assert builds == [1]

    def test_benchmark_search_reference_replays(self):
        # the first seeds of the benchmark's recorded search pool, run as its argv runs them
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh)["search"][:32]
        for seed, (best_value, evaluations) in enumerate(recorded):
            r = search_worst_case(2, 2, 0.75, 8, seed)
            assert abs(r.best_value - best_value) <= 1e-12, seed
            assert r.evaluations == evaluations, seed

    @pytest.mark.parametrize("kwargs", [
        dict(c=2.0, trials=8, seed=2, refine_sweeps=1),
        dict(c=0.7, trials=7, seed=5),
    ])
    def test_chunk_size_does_not_matter(self, monkeypatch, kwargs):
        whole = search_worst_case(**kwargs)
        monkeypatch.setattr(harness, "SEARCH_CHUNK", 3)
        chunked = search_worst_case(**kwargs)
        assert chunked.best_value == whole.best_value
        assert chunked.evaluations == whole.evaluations
        assert np.array_equal(chunked.best_problem.a, whole.best_problem.a)
        assert np.array_equal(chunked.best_problem.v, whole.best_problem.v)

    def test_tolerance_is_used(self):
        # eig_scale 0.06 puts every eigenvalue in the neighborhood within tol of
        # its boundary: all are AMBIGUOUS and excluded, so the start scores 1
        r = search_worst_case(c=0.4, trials=1, seed=0, tol=Tolerances(eig_scale=0.06))
        assert r.best_value == 1.0
        assert search_worst_case(c=0.4, trials=1, seed=0).best_value < 0.5

    def test_score_rows_are_independent(self):
        rng = np.random.default_rng(8)
        sig = rng.uniform(-2, 2, (4, 2))
        Sig = rng.uniform(-2, 2, (4, 2))
        w = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        s = np.array([1.0, 0.5, 1.0, 1.0])
        Sig[1, 0] = sig[1, 1] + 1e-4  # gap below the floor
        w[2] = 0.0  # no coupling
        x = harness._pack(sig, Sig, w, s)
        values = harness._score(x, (2, 2), 0.7, True, Tolerances())
        assert values[1] == -math.inf
        assert values[2] == 0.0
        for t in (0, 3):
            alone = harness._score(x[t:t + 1], (2, 2), 0.7, True, Tolerances())
            assert alone[0] == values[t]
            assert 0.0 < values[t] <= 1.0 + 1e-12

    @pytest.mark.parametrize("objective", [
        lambda x: np.sin(3.0 * x).sum(axis=1) - (x * x).sum(axis=1),
        # s = 0.9 steps + to the clip at 1.0, and only the - step redone from there finds 0.75
        lambda x: np.select([x[:, -1] == 0.75, x[:, -1] == 1.0], [2.0, 1.0], 0.0),
        # the first coordinate 0.1 steps + to 0.35, and the - step redone from there lands on
        # 0.35 - 0.25 = 0.09999999999999998, not on 0.1: that move is scored, and it is best
        lambda x: np.select([x[:, 0] == 0.35 - 0.25, x[:, 0] == 0.35], [2.0, 1.0], 0.0),
    ], ids=["smooth", "clipped", "off-the-old-bits"])
    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_paired_steps_match_one_step_at_a_time(self, monkeypatch, objective, sweeps):
        start = np.array([[0.1, -0.3, 0.9], [1.7, 0.35, 0.9], [-0.6, 2.2, 0.05]])
        want_x = start.copy()
        want = stepwise_refine(want_x, sweeps, objective)
        rows = []
        monkeypatch.setattr(harness, "_score", lambda x, *args: rows.append(len(x)) or objective(x))
        got_x = start.copy()
        got = harness._refine(got_x, (1, 1), sweeps, 0.5, True, Tolerances())
        assert got.tobytes() == want.tobytes()
        assert got_x.tobytes() == want_x.tobytes()
        # a redone - move that lands off the old x's bits is an extra row of its step's call
        assert max(rows) > 2 * len(start)

    @pytest.mark.parametrize("kwargs", [
        dict(dims=(2, 2), c=0.75, half=True, sweeps=2),
        dict(dims=(1, 2), c=1.2, half=False, sweeps=2),
        dict(dims=(2, 2), c=2.0, half=True, sweeps=1),
    ])
    def test_one_score_call_per_step(self, monkeypatch, kwargs):
        # 1 + sweeps * P calls, each of at most 3 T rows: both moves and the redone - moves
        dims, sweeps, trials = kwargs["dims"], kwargs["sweeps"], 8
        x = harness._starts(range(trials), dims, kwargs["c"], kwargs["half"], 0)
        rows, score = [], harness._score
        monkeypatch.setattr(harness, "_score",
                            lambda x, *args: rows.append(len(x)) or score(x, *args))
        harness._refine(x, dims, sweeps, kwargs["c"], kwargs["half"], Tolerances())
        assert len(rows) == 1 + sweeps * x.shape[1]
        assert rows[0] == trials and 2 * trials <= min(rows[1:]) and max(rows) <= 3 * trials

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            search_worst_case(c=0.0, trials=1)
        with pytest.raises(ValueError):
            search_worst_case(c=0.5, trials=0)
        with pytest.raises(ValueError):
            search_worst_case(c=0.5, trials=1, neighborhood="both")
        with pytest.raises(ValueError, match="dim_sigma must be at least 1"):
            search_worst_case(dim_sigma=0, c=0.5, trials=1)
        with pytest.raises(ValueError, match="dim_Sigma must be at least 1"):
            search_worst_case(dim_Sigma=-1, c=0.5, trials=1)

    def test_rejects_negative_refine_sweeps_and_allows_none(self):
        # -1 sweeps once ran no refinement and counted -50 evaluations
        with pytest.raises(ValueError, match="^refine_sweeps must be nonnegative, got -1$"):
            search_worst_case(2, 2, 0.5, trials=2, refine_sweeps=-1)
        assert search_worst_case(2, 2, 0.5, trials=2, refine_sweeps=0).evaluations == 2

    @pytest.mark.parametrize("trials", [1, 2])
    def test_rejects_a_negative_seed_whatever_the_trials(self, trials):
        # trial 0 starts from the built-in example and draws nothing, so one trial once passed
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            search_worst_case(c=0.5, trials=trials, seed=-1)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_rejects_a_nan_or_infinite_cap(self, c):
        with pytest.raises(ValueError) as excinfo:
            search_worst_case(c=c, trials=1)
        assert str(excinfo.value) == f"norm-ratio cap c must be positive and finite, got {c}"


class TestBatchVerify:
    def test_empty(self):
        assert batch_verify([], ["MAIN"]) == []

    def test_main_suite_all_pass(self, rng):
        specs = [
            random_problem_spec(Case.CASE_I, 2, 2, 0.45, seed=int(rng.integers(2**32)))
            for _ in range(100)
        ]
        reports = batch_verify(specs, ["MAIN"])
        assert len(reports) == 100
        assert all(r.premise_satisfied for r in reports)
        assert all(r.holds for r in reports)

    def test_enclosure_is_unconditional(self, rng):
        specs = [
            random_problem_spec(Case.CASE_I, 2, 2, 1.0, seed=int(rng.integers(2**32)))
            for _ in range(100)
        ]
        reports = batch_verify(specs, ["SHIFT_I"])
        assert all(r.premise_satisfied and r.holds for r in reports)

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_first_invalid_spec_raises_as_one_problem_at_a_time_would(self, order):
        # a spec is validated when it is made, so a batch's first invalid spec raises its error
        good = random_problem_spec(Case.CASE_I, 2, 2, 0.45, seed=1)
        bad = {
            1: (lambda: ProblemSpec(good.sigma_values, good.Sigma_values, -1.0, seed=2),
                "target_norm_ratio must be finite and nonnegative"),
            2: (lambda: ProblemSpec((0.0, 1.0), (1.0, 2.0), 0.5, seed=3),  # overlapping values
                "sigma and Sigma values must be separated"),
        }
        with pytest.raises(ValueError) as raised:
            batch_verify([good, *(bad[k][0]() for k in order)], ["SHIFT_I"])
        assert str(raised.value) == bad[order[0]][1]

    def test_wrong_case_becomes_premise_failure(self):
        specs = [random_problem_spec(Case.CASE_I, 2, 2, 0.3, seed=11)]
        reports = batch_verify(specs, ["SUBORDINATED"])
        assert len(reports) == 1
        assert not reports[0].premise_satisfied
        assert any("wrong case" in f for f in reports[0].flags)

    def test_summary(self, rng):
        specs = [
            random_problem_spec(Case.SUBORDINATED, 2, 2, 2.0, seed=int(rng.integers(2**32)))
            for _ in range(20)
        ]
        reports = batch_verify(specs, ["SUBORDINATED", "SHIFT_I"])
        s = summarize(reports)
        assert s.total == 40
        assert s.violations == 0
        assert s.worst_margin >= 0.0


class TestOneStack:
    @pytest.mark.filterwarnings("error")
    def test_rows_of_every_case_share_one_stack_and_report_as_alone(self):
        specs = [random_problem_spec(case, 2, 2, ratio, seed=k)
                 for k in range(2)
                 for case, ratio in ((Case.CASE_I, 0.45), (Case.CASE_II, 1.2),
                                     (Case.SUBORDINATED, 4.0))]
        # a CASE_II row in which only Sigma's hull is separated, so sigma and Sigma swap roles
        specs.append(ProblemSpec((-2.0, 2.0), (0.0, 0.5), 0.6, seed=1))
        problems = harness._random_problems(specs, offdiag.DEFAULT_TOL)
        assert {p.case for p in problems} == set(Case)
        assert problems[-1].classification.detail == "hull(Sigma) disjoint from sigma"
        assert all(p._stack is problems[0]._stack for p in problems)

        def outcome(problem, theorem):
            return repr(harness.run_theorem(problem, theorem))

        for theorem in THEOREM_IDS:
            alone = [outcome(random_problem(spec), theorem) for spec in specs]
            assert [outcome(p, theorem) for p in problems] == alone, theorem
        assert "roles swapped" in outcome(problems[-1], "CASE2")
        assert "wrong case: hull separation required" in outcome(problems[0], "CASE2")


class TestTheoremTable:
    # the theorems whose checks report a problem of the wrong case as an unmet premise
    WRONG_CASES = {
        "CASE2": {Case.CASE_I},
        "SUBORDINATED": {Case.CASE_I, Case.CASE_II},
        "TAN_THETA": {Case.CASE_I},
    }

    @pytest.mark.parametrize("case", list(Case))
    def test_every_id_runs_its_own_check(self, case):
        problem = random_problem(random_problem_spec(case, 3, 3, 0.4, seed=5))
        for t in harness.THEOREM_IDS:
            report = harness.run_theorem(problem, t)
            assert report.theorem == t
            wrong = [f for f in report.flags if f.startswith("wrong case: ")]
            if case in self.WRONG_CASES.get(t, ()):
                assert len(wrong) == 1 and not report.premise_satisfied and report.holds
            else:
                assert wrong == []

    def test_ids_keep_their_order(self):
        assert THEOREM_IDS == (
            "SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "SHIFT_III", "MAIN",
            "CASE2", "SUBORDINATED", "TAN_THETA", "MCE",
        )

    def test_default_batteries(self):
        assert harness.default_battery(Case.CASE_I) == [
            "SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "MAIN",
        ]
        assert harness.default_battery(Case.CASE_II) == [
            "SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "CASE2",
        ]
        assert harness.default_battery(Case.SUBORDINATED) == [
            "SHIFT_BOUNDS", "SHIFT_I", "SHIFT_III", "SUBORDINATED",
        ]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem id 'NOPE'"):
            harness.run_theorem(builtin_example("CASE1"), "NOPE")
