"""The serving examples run end to end and report what the server did."""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_serve_demo_reports_the_mshr_attach(capsys):
    out = run_example("serve_demo.py", capsys)
    # Section 1: five queries, one of them a duplicate root, which
    # attaches to the pending miss instead of paying for a column.
    section = out.split("-- 1. submit/drain --")[1].split("-- 2.")[0]
    match = re.search(r"5 queries, 1 batch of width \{4\} "
                      r"\((\d+) duplicate attached to the MSHR\)", section)
    assert match is not None, section
    assert int(match.group(1)) == 1
    assert "served answers bit-identical to direct engine calls: True" in out


def test_capacity_planning_runs(capsys):
    out = run_example("capacity_planning.py", capsys)
    assert "cheapest configuration" in out
    assert "weighted wins" in out
