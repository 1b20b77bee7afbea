"""The narrative demos run to completion (each asserts its own claims)."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "bounds_tour.py",
        "coefficient_identity.py",
        "proof_replay_walkthrough.py",
        "tightness_scan.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
