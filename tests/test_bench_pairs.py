"""tools/bench_pairs.py: the ``--run`` parser and the per-metric summary; no benchmark runs."""

import argparse
import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, want", [
    ("verify-small:5", ("verify-small", 5)),
    ("qnr", ("qnr", 1)),
    ("analyze-large:1", ("analyze-large", 1)),
])
def test_parse_run(text, want):
    assert bench_pairs.parse_run(text) == want


@pytest.mark.parametrize("text", ["qnr:0", "qnr:-2", ":3", "", "qnr:x", "qnr:1.5"])
def test_parse_run_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_run(text)


def test_bad_run_exits_2_before_any_export(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export", lambda *a: pytest.fail("exported"))
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--base", "HEAD", "--tag", "t", "--run", "verify-small:0"])
    assert excinfo.value.code == 2
    assert "at least one pair" in capsys.readouterr().err


def pairs(base: list[float], change: list[float]) -> list[dict]:
    return [{"base": {"metrics": {"m": b}}, "change": {"metrics": {"m": c}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_summarize_counts_wins_by_direction_and_ties_for_neither(better, wins):
    out = bench_pairs.summarize(pairs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 5.0]), {"m": better})
    assert out["m"]["change_wins"] == wins
    assert out["m"]["pairs"] == 4 and out["m"]["better"] == better


def test_summarize_quartiles_of_one_and_of_ten_values():
    one = bench_pairs.summarize(pairs([2.0], [1.0]), {"m": "lower"})["m"]
    assert one["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["median_change_pct"] == -50.0
    ten = bench_pairs.summarize(pairs([float(x) for x in range(1, 11)], [1.0] * 10),
                                {"m": "lower"})["m"]
    assert ten["base"] == {"median": 5.5, "q1": 3.25, "q3": 7.75}
    assert ten["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert ten["change_wins"] == 9


def test_summarize_skips_a_metric_missing_from_a_run():
    runs = pairs([1.0, 2.0], [1.0, 2.0])
    del runs[1]["change"]["metrics"]["m"]
    assert bench_pairs.summarize(runs, {"m": "lower"}) == {}
