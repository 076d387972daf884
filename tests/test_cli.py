"""CLI behaviour: exit codes, output formats, determinism."""

import json

import pytest

from sislip.cli import main

CUBIC = "y^3 + x*z^2 - x^4"
PAIR_A = "(y^3 - z^2*x)*(y^3 + z^2*x) + (x + y + z)^7"
PAIR_B = "(y^3 - z^2*x)*(y^3 + 2*z^2*x) + (x + y + z)^7"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_usage_error_bad_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sis-graph", CUBIC, "--format", "png"])
    assert exc.value.code == 2


def test_usage_error_format_on_compare_and_check(capsys):
    # --format is a flag of the graph commands only
    with pytest.raises(SystemExit) as exc:
        main(["compare", CUBIC, CUBIC, "--format", "dot"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", CUBIC, "--format", "json"])
    assert exc.value.code == 2


def test_usage_error_rates_without_inner(capsys):
    code, out, err = run(capsys, "sis-graph", CUBIC, "--mode", "min",
                         "--rates")
    assert code == 2
    assert "--mode inner" in err


def test_math_error_exit_one(capsys):
    # not superisolated: tangent-cone singularity meets the next form
    code, out, err = run(capsys, "check", "y^3 + x*z^2 - y^4")
    assert code == 1
    assert err.startswith("error: NotSuperisolated")


def test_math_error_nonreduced_germ(capsys):
    code, out, err = run(capsys, "resolve-germ", "w^2")
    assert code == 1
    assert "NonReduced" in err


# ---------------------------------------------------------------------------
# subcommands

def test_check_ok(capsys):
    code, out, err = run(capsys, "check", CUBIC)
    assert code == 0
    assert out == "ok: superisolated, degree 3, 1 singular point class(es) " \
        "on the tangent cone\n"


def test_resolve_germ_json(capsys):
    code, out, _ = run(capsys, "resolve-germ", "v^3 + w^2")
    assert code == 0
    body = json.loads(out)
    assert sorted(v["self_int"] for v in body["vertices"]) == [-3, -2, -1]
    assert len(body["arrows"]) == 1


def test_sis_graph_min(capsys):
    code, out, _ = run(capsys, "sis-graph", CUBIC, "--mode", "min")
    assert code == 0
    body = json.loads(out)
    assert sorted(v["self_int"] for v in body["vertices"]) == [-9, -3, -2, -1]
    assert body["provenance"]["mode"] == "min"


def test_sis_graph_inner_rates(capsys):
    code, out, _ = run(capsys, "sis-graph", CUBIC, "--mode", "inner",
                       "--rates")
    assert code == 0
    body = json.loads(out)
    rates = sorted(v["rate"] for v in body["vertices"] if "rate" in v)
    assert rates == ["1/1", "4/3"]


def test_inner_rates_matches_sis_graph(capsys):
    _c, out1, _ = run(capsys, "inner-rates", CUBIC)
    _c, out2, _ = run(capsys, "sis-graph", CUBIC, "--mode", "inner",
                      "--rates")
    assert json.loads(out1)["vertices"] == json.loads(out2)["vertices"]


def test_dot_format(capsys):
    code, out, _ = run(capsys, "sis-graph", CUBIC, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph G {")
    assert out.count("fillcolor=black") == 1


def test_dot_arrows_numbered_in_canonical_order(capsys):
    # swapping v and w renumbers the resolution's curves, not the picture
    _c, out1, _ = run(capsys, "resolve-germ", "(w^2-v^5)*(w^3-v^2)*(w-v)",
                      "--format", "dot")
    _c, out2, _ = run(capsys, "resolve-germ", "(v^2-w^5)*(v^3-w^2)*(v-w)",
                      "--format", "dot")
    assert out1 == out2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "sis-graph", CUBIC, "--out", str(target))
    assert code == 0 and out == ""
    body = json.loads(target.read_text())
    assert len(body["vertices"]) == 4


def test_polar_command(capsys):
    code, out, _ = run(capsys, "polar", PAIR_B, "--samples", "3")
    assert code == 0
    body = json.loads(out)
    prov = body["provenance"]
    assert prov["branch_count"] == 9
    assert prov["extra_blowups"] == 0
    assert prov["multiplicities"] == [5, 5, 11, 22, 23, 33, 35, 69]
    assert len(prov["coefficients"]) == 3


def test_compare_inner_only(capsys):
    code, out, _ = run(capsys, "compare", PAIR_A, PAIR_B)
    assert code == 0
    body = json.loads(out)
    assert body == {"inner_equivalent": True, "verdict": "inner-equivalent"}


def test_compare_different(capsys):
    code, out, _ = run(capsys, "compare", CUBIC, PAIR_A)
    assert code == 0
    body = json.loads(out)
    assert body["inner_equivalent"] is False
    assert body["verdict"] == "inner geometries differ"


def test_compare_polar(capsys):
    code, out, _ = run(capsys, "compare", PAIR_A, PAIR_B, "--polar",
                       "--samples", "3")
    assert code == 0
    body = json.loads(out)
    assert body["inner_equivalent"] is True
    assert body["branch_counts"] == [8, 9]
    assert body["extra_blowups"] == [1, 0]
    assert body["verdict"] == "inner-equivalent, polar data differ"


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("argv", [
    ("sis-graph", CUBIC, "--mode", "inner", "--rates", "--seed", "7"),
    ("inner-rates", CUBIC, "--seed", "7", "--format", "dot"),
    ("polar", PAIR_B, "--samples", "3", "--seed", "7"),
    ("compare", PAIR_A, PAIR_B, "--seed", "7"),
])
def test_byte_identical_per_seed(capsys, argv):
    _c, out1, _ = run(capsys, *argv)
    _c, out2, _ = run(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# --out

def test_check_out_writes_file(capsys, tmp_path):
    path = tmp_path / "check.txt"
    code, out, _ = run(capsys, "check", CUBIC, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("ok: superisolated, degree 3")
