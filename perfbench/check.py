"""Response checks for the sislip benchmark.

Every response is checked outside the timed interval:

- an `inner-rates` graph must have the sorted (self_int, rate) profile of
  its unchanged base presentation (recorded in expected.json) and a
  negative definite intersection matrix, checked in exact arithmetic;
- values pinned by the paper must hold (cuspidal cubic node rate 4/3, the
  two-tangent-cubics figure, the sextic pair's inner graph and polar data);
- a comparison of a surface with a linear change of itself must answer
  inner-equivalent.

Run this file to rewrite expected.json from the unchanged base
presentations: `python3 perfbench/check.py`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import gen

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# sorted (self_int, rate) profiles pinned by the paper; "-" marks no rate
PINNED_PROFILES = {
    # the published inner-rate graph of the two tangent cubics
    "two_tangent_cubics": sorted(
        [(-23, "1/1")] * 2 + [(-1, "3/2")] * 5 + [(-5, "5/4")]
        + [(-1, "6/5")] * 2 + [(-2, "-")] * 2
    ),
    # both members of the sextic pair: L-curves -21, two nodes of rate 7/6
    "sextic_c1": sorted(
        [(-21, "1/1")] * 2 + [(-1, "7/6")] * 2 + [(-3, "-")]
        + [(-2, "-")] * 3
    ),
}
PINNED_PROFILES["sextic_c2"] = PINNED_PROFILES["sextic_c1"]
# the cuspidal cubic's node has inner rate 4/3
PINNED_ENTRIES = {"cuspidal_cubic": (-1, "4/3")}
# c = 1 versus c = 2 in the sextic family
PINNED_POLAR = {
    "inner_equivalent": True,
    "branch_counts": [8, 9],
    "extra_blowups": [1, 0],
    "verdict": "inner-equivalent, polar data differ",
}


class CheckFailed(Exception):
    """A response that is not the right answer."""


def profile(doc):
    """Sorted (self_int, rate) pairs of a graph document."""
    return sorted((v["self_int"], v.get("rate", "-")) for v in doc["vertices"])


def negative_definite(doc):
    """Exact LDL^T test of the intersection matrix of a graph document."""
    ids = sorted(v["id"] for v in doc["vertices"])
    pos = {vid: i for i, vid in enumerate(ids)}
    a = [[Fraction(0)] * len(ids) for _ in ids]
    for v in doc["vertices"]:
        a[pos[v["id"]]][pos[v["id"]]] = Fraction(v["self_int"])
    for x, y in doc["edges"]:
        a[pos[x]][pos[y]] += 1
        a[pos[y]][pos[x]] += 1
    n = len(a)
    for k in range(n):
        if a[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def load_expected():
    with open(EXPECTED_PATH) as fh:
        body = json.load(fh)
    return {name: [tuple(p) for p in prof]
            for name, prof in body["profiles"].items()}


def _check_graph(base, doc, expected):
    prof = profile(doc)
    if prof != expected[base]:
        raise CheckFailed(f"{base}: profile {prof} != {expected[base]}")
    if base in PINNED_PROFILES and prof != PINNED_PROFILES[base]:
        raise CheckFailed(f"{base}: profile differs from the paper's")
    if base in PINNED_ENTRIES and PINNED_ENTRIES[base] not in prof:
        raise CheckFailed(f"{base}: missing {PINNED_ENTRIES[base]}")
    if not negative_definite(doc):
        raise CheckFailed(f"{base}: intersection matrix not negative definite")


def check(req, code, out, err, expected):
    """Raise CheckFailed unless (code, out, err) is the right answer."""
    if code != 0:
        raise CheckFailed(f"{req.base}: exit code {code}: {err.strip()}")
    doc = json.loads(out)
    if req.kind == "inner":
        _check_graph(req.base, doc, expected)
    elif req.kind == "compare_inner":
        if doc["inner_equivalent"] is not True or \
                doc["verdict"] != "inner-equivalent":
            raise CheckFailed(f"{req.base}: not equivalent to itself: {doc}")
    elif req.kind == "compare_polar":
        got = {k: doc[k] for k in PINNED_POLAR}
        if got != PINNED_POLAR:
            raise CheckFailed(f"sextic pair: {got} != {PINNED_POLAR}")
    elif req.kind == "polar":
        if not isinstance(doc["provenance"].get("branch_count"), int) or \
                not negative_definite(doc):
            raise CheckFailed(f"{req.base}: malformed polar graph")
    else:
        raise CheckFailed(f"unknown request kind {req.kind!r}")


def reference_profiles():
    """Profiles of every unchanged base presentation, from the program."""
    import io
    from contextlib import redirect_stdout

    from sislip.cli import main

    out = {}
    for name in {**gen.RATIONAL_POOL, **gen.ALGEBRAIC_POOL}:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["inner-rates", gen.pool_text(name)])
        if code != 0:
            raise CheckFailed(f"{name}: base presentation rejected")
        out[name] = profile(json.loads(buf.getvalue()))
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    profiles = reference_profiles()
    for name, prof in PINNED_PROFILES.items():
        if profiles[name] != prof:
            sys.exit(f"{name}: program disagrees with the paper: {profiles[name]}")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"schema": 1, "profiles": profiles}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH.name}: {len(profiles)} profiles")
