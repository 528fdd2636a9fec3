"""The transport and validate CLIs, byte for byte against files kept in
tests/data.

The transport files were captured from the implementation that built
every plan entry and weight as a Fraction on construction; plans and
measures now build them on first read, and the outputs must not move.
Their input is one 4-point space with a coupling, a second plan
composable with it, and the two measures (which are also the first
plan's declared marginals).  The classify files read an invertible
plan on the same space that leaves one point without mass, so both
maps are None there.  The validate files pin the report on a
fixed 8-point rational space, the double groupoid's norm included.  The
analytic report files pin the axioms, irq, limits and planted suites at
their defaults, residuals printed to 3 significant digits; the planted
suite is red by design, so it exits 1.  The planted suite's JSON golden
pins every witness of that red suite; its floats, bare or inside a
witness, are compared at 3 significant digits.  The eval file pins the
JSON of a term whose value is an arrow of Heisenberg points."""

import json
import re
from pathlib import Path

import pytest

from ngd import cli

DATA = Path(__file__).parent / "data"
PLANS = str(DATA / "transport_plans.json")
INVERTIBLE = str(DATA / "transport_invertible.json")
SPACE8 = str(DATA / "space8.json")

CASES = [
    *((["transport", PLANS, "--action", action], f"transport_{action}.txt", 0)
      for action in ("compose", "inverse", "kantorovich")),
    *((["transport", PLANS, "--action", action, "--json"],
       f"transport_{action}.json", 0)
      for action in ("compose", "inverse", "kantorovich")),
    (["transport", INVERTIBLE, "--action", "classify"],
     "transport_classify.txt", 0),
    (["transport", INVERTIBLE, "--action", "classify", "--json"],
     "transport_classify.json", 0),
    *((["report", "--suite", suite], f"report_{suite}.txt", code)
      for suite, code in (("transport", 0), ("axioms", 0), ("irq", 0),
                          ("limits", 0), ("planted", 1))),
    (["report", "--suite", "planted", "--json"], "report_planted.json", 1),
    (["validate", SPACE8], "validate_space8.txt", 0),
    (["validate", SPACE8, "--json"], "validate_space8.json", 0),
    (["eval", "dilat(1/2, ((1, 1, 1), (0, 0, 0)), ((3, 3, 3), (0, 0, 0)))",
      "--model", "heisenberg", "--json"], "eval_dilat_arrows.json", 0),
]
ROUNDED = {"report_planted.json"}
FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _rounded(text):
    """The JSON value of text, each float in it at 3 significant digits."""
    return json.loads(FLOAT.sub(lambda m: f"{float(m[0]):.3g}", text))


@pytest.mark.parametrize("argv, golden, code", CASES,
                         ids=[g for _, g, _ in CASES])
def test_cli_output_matches_the_golden_file(argv, golden, code, capsys):
    assert cli.main(argv) == code
    out, expected = capsys.readouterr().out, (DATA / golden).read_text()
    if golden in ROUNDED:
        out, expected = _rounded(out), _rounded(expected)
    assert out == expected
