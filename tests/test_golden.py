"""Byte-stability of the CLI on fixed requests.

Each request in `golden/requests.json` is a benchmark-pool surface under one
non-identity integer change of coordinates.  Its exit code and stdout were
recorded before the singular-point search and localization moved to integer
arithmetic; any change to the order of the singular points, and so to the
vertex numbering, fails here.
"""

import json
from pathlib import Path

import pytest

from sislip.cli import main

GOLDEN = Path(__file__).parent / "golden"
REQUESTS = json.loads((GOLDEN / "requests.json").read_text())


@pytest.mark.parametrize("req", REQUESTS, ids=[r["name"] for r in REQUESTS])
def test_cli_output_matches_golden(capsys, req):
    code = main(list(req["argv"]))
    out = capsys.readouterr().out
    assert code == req["exit"]
    assert out == (GOLDEN / f"{req['name']}.out").read_text()
