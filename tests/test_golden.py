"""Byte-stability of the CLI on fixed requests.

Each request in `golden/requests.json` is a benchmark-pool surface under one
non-identity integer change of coordinates; the test pins its exit code and
stdout.  Three more pin generic-polar output: `polar` on sextic c=1 and
`compare --polar` of the sextic pair, under the monomial changes the
benchmark draws for the form x + y + z, and `polar` on the two tangent
cubics, unchanged.  They were recorded before the pullback numerator was
kept factored as f~^m * M.  The first twelve were recorded before the
singular-point search and localization moved to integer arithmetic, so that
a reordering of singular points would show.  Eight (cuspidal_cubic, conic_tangent_line, e6_quartic,
lines_5, lines_8, sextic_c1, conjugate_line_pairs, two_tangent_cubics) were
re-recorded when JSON and DOT began to number vertices by the canonical
labelling of `sislip.report`, which no longer breaks ties by input vertex id;
each new graph is isomorphic to the one it replaced and the provenance is
unchanged.  Vertex numbering no longer depends on the order in which points
are found, so a failure here is a changed answer or a changed canonical form.
Re-record an output only when its bytes change on purpose, and check the new
graph against the old one with `report.isomorphic`.
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
