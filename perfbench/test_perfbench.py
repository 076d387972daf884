"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from sislip import cli, sis  # noqa: E402
from sislip.poly import parse_poly  # noqa: E402

POOL = {**gen.RATIONAL_POOL, **gen.ALGEBRAIC_POOL}


@pytest.fixture(scope="module")
def expected():
    return check.load_expected()


def _answer(req):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(req.argv))
    return code, buf.getvalue(), ""


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", gen.WORKLOADS + ("hard",))
def test_generator_deterministic_per_seed(workload):
    def first_cycles(seed):
        stream = gen.cycles(workload, seed)
        return [next(stream) for _ in range(2)]

    assert first_cycles(7) == first_cycles(7)
    assert first_cycles(7) != first_cycles(8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_cycle_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted((r.kind, r.base) for r in next(gen.cycles(workload, seed)))

    assert mix(1) == mix(2)


def test_poly_text_round_trip_and_change():
    rng = random.Random(0)
    for text in POOL.values():
        p = gen.parse(text)
        assert gen.parse(p.to_text()) == p
        assert gen.parse(gen.substitute(text, gen.IDENTITY)) == p
        m = gen.random_change(rng)
        assert gen.det3(m) != 0
        q = gen.parse(gen.substitute(text, m))
        assert {sum(e) for e in q.terms} == {sum(e) for e in p.terms}


def test_monomial_change_is_permutation_times_diagonal():
    rng = random.Random(1)
    for _ in range(20):
        m = gen.monomial_change(rng)
        assert sorted(sum(x != 0 for x in row) for row in m) == [1, 1, 1]
        assert gen.det3(m) != 0


@pytest.mark.parametrize("name", sorted(POOL))
def test_every_pool_member_validates(name):
    s = sis.from_polynomial(parse_poly(POOL[name], vars=gen.VARS))
    classes = sis.singular_points(s)
    conjugate = any(pt.class_size > 1 for pt in classes)
    assert conjugate == (name in gen.ALGEBRAIC_POOL)


def test_sextic_family_members_validate():
    for lin in gen.SEXTIC_FORMS:
        for c in (1, 2):
            text = gen.SEXTIC_FAMILY.format(c=c, lin=lin)
            sis.from_polynomial(parse_poly(text, vars=gen.VARS))


def test_expected_profiles_match_base_presentations(expected):
    assert check.reference_profiles() == expected


# ---------------------------------------------------------------------------
# checker


def test_checker_accepts_changed_surface(expected):
    rng = random.Random(3)
    req = gen.inner_request("cuspidal_cubic", gen.random_change(rng))
    check.check(req, *_answer(req), expected)


@pytest.mark.parametrize("corrupt", ["self_int", "rate", "edge", "code"])
def test_checker_rejects_corrupted_response(expected, corrupt):
    req = gen.inner_request("cuspidal_cubic", gen.IDENTITY)
    code, out, err = _answer(req)
    doc = json.loads(out)
    if corrupt == "self_int":
        doc["vertices"][0]["self_int"] -= 1
    elif corrupt == "rate":
        node = next(v for v in doc["vertices"] if v.get("rate") == "4/3")
        node["rate"] = "5/4"
    elif corrupt == "edge":
        doc["edges"].append(list(doc["edges"][0]))
    else:
        code = 1
    with pytest.raises(check.CheckFailed):
        check.check(req, code, json.dumps(doc), err, expected)


def test_checker_rejects_wrong_polar_verdict(expected):
    req = gen.compare_polar_request(gen.SEXTIC_FORMS[0], gen.IDENTITY,
                                    gen.IDENTITY)
    body = dict(check.PINNED_POLAR, branch_counts=[8, 8])
    with pytest.raises(check.CheckFailed):
        check.check(req, 0, json.dumps(body), "", expected)


def test_negative_definite():
    doc = {"vertices": [{"id": 1, "self_int": -2}, {"id": 2, "self_int": -2}],
           "edges": [[1, 2]]}
    assert check.negative_definite(doc)
    doc["edges"].append([1, 2])
    assert not check.negative_definite(doc)


# ---------------------------------------------------------------------------
# deadline


def test_deadline_fires_on_slow_call(monkeypatch, expected):
    def slow(argv):
        while True:
            time.sleep(0.01)

    monkeypatch.setattr(cli, "main", slow)
    req = gen.warmup_request("inner_rational")
    t0 = time.perf_counter()
    o = run.send(req, 0.2, expected)
    assert o.status == "timeout"
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("exc", [AssertionError("boom"), SystemExit(2)])
def test_crash_counts_as_wrong(monkeypatch, expected, exc):
    def broken(argv):
        raise exc

    monkeypatch.setattr(cli, "main", broken)
    o = run.send(gen.warmup_request("inner_rational"), 5, expected)
    assert o.status == "wrong"


def test_probes_spread_over_the_run(monkeypatch, expected):
    # ten requests of 1 s a cycle: a 20 s run is two cycles, and probe k of
    # four runs once the timed total passes 5 k + 2.5 s
    sent = []

    def fake_send(req, deadline, expected):
        sent.append(req)
        return run.Outcome(req, 1.0, "ok")

    def stream():
        while True:
            yield [None] * 10

    monkeypatch.setattr(run, "send", fake_send)
    outcomes, results, rss_first = run.run_cycles(
        stream(), 20, 5, expected, [lambda: len(sent)] * 4)
    assert len(outcomes) == 20
    assert results == [3, 8, 13, 18]
    assert rss_first > 0


# ---------------------------------------------------------------------------
# tracing


def test_spans_cover_layers_and_restore(expected):
    originals = (cli.main, sis.singular_points)
    tracer = spans.Tracer()
    with tracer.patched():
        assert cli.main is not originals[0]
        o = run.send(gen.warmup_request("inner_rational"), 30, expected)
    assert (cli.main, sis.singular_points) == originals
    assert o.status == "ok"
    out = tracer.summary()
    assert out["cli.main.calls"][0] == 1
    assert out["sis.singular_points.calls"][0] >= 1
    assert out["sis.point_classes"][0] == 1
    assert out["report.to_json.calls"][0] == 1
    layer_total = sum(out[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert layer_total == pytest.approx(out["cli.main.s"][0], rel=1e-6)


def test_profile_groups():
    assert spans.profile_group("/x/src/sislip/scalar.py") == "scalar"
    assert spans.profile_group("/usr/lib/python3.11/fractions.py") == \
        "fractions"
    assert spans.profile_group("/site-packages/sympy/core/add.py") == "sympy"
    assert spans.profile_group("/x/src/sislip/poly.py") is None


# ---------------------------------------------------------------------------
# the command


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inner_rational",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
