"""The demos that read reports run to the end, and none shows a violated bound.

``qnr_scatter.py`` writes into ``demos/`` and ``constant_gap_search.py`` is
slow, so both stay out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["sharpness_examples.py", "theorem_tour.py"])
def test_demo_runs_without_violations(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "VIOLATED" not in out
