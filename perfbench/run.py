#!/usr/bin/env python3
"""The sislip request benchmark.

One client in one thread sends in-process requests through
`sislip.cli.main(argv)`, output captured in memory, in a closed loop: the
next request goes out only after the previous one returns.  Requests come
in cycles that hold every pool member of the workload under each of its
changes (see gen.py); a run measures the number of whole cycles that
brings its timed total closest to --seconds.  Each response is checked
outside the timed interval (see check.py).

    python3 perfbench/run.py --workload inner_rational --seed 1 \
        --seconds 24 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 replays the requests
of an untraced pass with span wrappers installed (see spans.py), replays
them once more untraced as the overhead baseline, then replays a third of
the first cycle under cProfile, and reports per-layer metrics.
--workload all runs every workload, the `hard` probe included.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if any response was
wrong, 2 if the source tree is missing or a probe fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# latency_tail_s is this percentile: the highest with at least ten of a
# typical run's requests beyond it (run sizes are in README.md)
TAIL_PERCENTILE = {"inner_rational": 75, "inner_algebraic": 70,
                   "compare_pairs": 61, "hard": 50}
# a request still running after this many seconds fails
DEADLINE_S = {"inner_rational": 60, "inner_algebraic": 60,
              "compare_pairs": 60, "hard": 10}
SETUP_SAMPLES = 4
COLD_START_SAMPLES = 7
COLD_START_INPUT = gen.RATIONAL_POOL["cuspidal_cubic"]
COLD_START_OUTPUT = ("ok: superisolated, degree 3, "
                     "1 singular point class(es) on the tangent cone")
# share of --seconds in a traced run for the first untraced pass; the
# traced replay and the untraced replay take about as long again each
UNTRACED_SHARE = 0.3
# share of the first cycle (in seeded order) replayed under cProfile,
# which runs it about three times slower
PROFILED_SHARE = 1 / 3
PROBE_TIMEOUT_S = 120


class DeadlineExceeded(BaseException):
    """Raised in the request by SIGALRM; a BaseException so that no
    `except Exception` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Outcome:
    __slots__ = ("req", "latency", "status", "detail")

    def __init__(self, req, latency, status, detail=""):
        self.req, self.latency = req, latency
        self.status, self.detail = status, detail   # ok, wrong, timeout


def send(req, deadline, expected, profiler=None):
    """One timed request; the check runs after the clock stops.

    A profiler given is enabled for the request only, not for its check.
    """
    from sislip import cli

    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    # a full collection of the garbage earlier requests left would land in a
    # random request and move a 0.1 s latency by 15 %; collect it untimed
    gc.collect()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(req.argv))
    except DeadlineExceeded:
        pass
    except SystemExit as exc:  # argparse exits on a usage error
        crash = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a wrong answer, not a stop
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if profiler is not None:
            profiler.disable()
    latency = time.perf_counter() - t0
    if crash is not None:
        return Outcome(req, latency, "wrong", f"{req.base}: raised {crash}")
    if code is None:
        return Outcome(req, latency, "timeout",
                       f"{req.kind} {req.base}: past {deadline}s")
    try:
        check.check(req, code, out.getvalue(), err.getvalue(), expected)
    except (check.CheckFailed, ValueError, KeyError, TypeError) as exc:
        return Outcome(req, latency, "wrong", str(exc))
    return Outcome(req, latency, "ok")


def run_cycles(stream, seconds, deadline, expected, probes=()):
    """Whole cycles from `stream`, as many as bring the timed total closest
    to `seconds` judging by the first (at least one).

    Each of `probes` (callables) runs once, untimed, between requests, the
    k-th of n when the timed total passes (k + 1/2) / n of `seconds`; any
    left over run at the end.  So the probes sample the same stretch of
    the machine's drifting speed as the requests.  Returns the outcomes,
    the probes' results and the peak RSS in MB at the end of the first
    cycle.
    """
    outcomes, timed, done, target = [], 0.0, 0, None
    results, rss_first = [], None
    while target is None or done < target:
        for req in next(stream):
            o = send(req, deadline, expected)
            outcomes.append(o)
            timed += o.latency
            while (len(results) < len(probes) and timed >= seconds
                   * (len(results) + 0.5) / len(probes)):
                results.append(probes[len(results)]())
        done += 1
        if target is None:
            target = max(1, round(seconds / timed))
            rss_first = peak_rss_mb()
    results += [probe() for probe in probes[len(results):]]
    return outcomes, results, rss_first


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, weights from the Beta(p(n+1),
    (1-p)(n+1)) distribution.  A workload mixes requests whose costs differ
    by 50 times, so near a percentile neighbouring order statistics can be
    far apart, and a single one (nearest rank) jumps by 20 % between runs
    of the same inputs as timing noise reorders them.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n                 # midpoint rule for the Beta density
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_start_s():
    """Wall time of one fresh-interpreter `sislip check` call."""
    argv = [sys.executable, "-m", "sislip.cli", "check", COLD_START_INPUT]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0 or done.stdout.strip() != COLD_START_OUTPUT:
        raise RuntimeError(f"cold start check failed: {done.stdout!r} "
                           f"{done.stderr!r}")
    return elapsed


def setup(workload, seed, expected):
    """Import the program, generate the first cycle, send one warm-up.

    Returns (cycle stream, first cycle, seconds).  The import is only paid
    by the first set-up in a process.
    """
    t0 = time.perf_counter()
    import sislip.cli  # noqa: F401

    stream = gen.cycles(workload, seed)
    first = next(stream)
    o = send(gen.warmup_request(workload), DEADLINE_S[workload], expected)
    if o.status != "ok":
        raise RuntimeError(f"warm-up request failed: {o.detail}")
    return stream, first, time.perf_counter() - t0


def setup_probe_s(workload, seed):
    """setup() timed in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _chain(first, stream):
    yield first
    yield from stream


def _counts(outcomes):
    wrong = [o for o in outcomes if o.status == "wrong"]
    failed = sum(o.status != "ok" for o in outcomes)
    for o in outcomes:
        if o.status != "ok":
            print(f"# {o.status}: {o.detail}", file=sys.stderr)
    return len(outcomes), failed, not wrong


def measure(workload, seed, seconds, expected, prepared):
    """End-to-end metrics of one untraced run."""
    stream, first, own_setup = prepared
    # both kinds of probe spread evenly over the run, interleaved
    n_setup = SETUP_SAMPLES - 1
    kinds = sorted([((i + 0.5) / COLD_START_SAMPLES, "cold")
                    for i in range(COLD_START_SAMPLES)]
                   + [((i + 0.5) / n_setup, "setup") for i in range(n_setup)])
    probes = [cold_start_s if kind == "cold"
              else (lambda: setup_probe_s(workload, seed))
              for _, kind in kinds]
    outcomes, samples, rss_first = run_cycles(
        _chain(first, stream), seconds, DEADLINE_S[workload], expected,
        probes)
    cold = [v for (_, kind), v in zip(kinds, samples) if kind == "cold"]
    setups = [own_setup] + [v for (_, kind), v in zip(kinds, samples)
                            if kind == "setup"]
    lat = [o.latency for o in outcomes]
    attempted, failed, correct = _counts(outcomes)
    timed = sum(lat)
    metrics = {
        "throughput_rps": (sum(o.status == "ok" for o in outcomes) / timed,
                           "1/s"),
        "latency_p50_s": (percentile(lat, 50), "s"),
        "latency_tail_s": (percentile(lat, TAIL_PERCENTILE[workload]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_first, "MB"),
        "cold_start_s": (statistics.median(cold), "s"),
    }
    print(f"# {workload}: {attempted} requests, "
          f"tail = p{TAIL_PERCENTILE[workload]}, "
          f"error_rate = {failed / attempted:.4f} "
          f"({failed} of {attempted} failed), timed {timed:.2f} s")
    return metrics, attempted, failed, correct


def measure_traced(workload, seed, seconds, expected, prepared):
    """Per-layer metrics: untraced pass, traced replay, profiled cycle."""
    stream, first, _ = prepared
    deadline = DEADLINE_S[workload]
    plain, _, _ = run_cycles(_chain(first, stream), seconds * UNTRACED_SHARE,
                             deadline, expected)
    tracer = spans.Tracer()
    traced = []
    with tracer.patched():
        for i, o in enumerate(plain):
            tracer.request = i
            traced.append(send(o.req, deadline, expected))
    # the overhead baseline is a second untraced replay, so that both sides
    # see the same warm dependency caches (sympy keeps a global one)
    replay = [send(o.req, deadline, expected) for o in plain]
    profiler = cProfile.Profile()
    profiled = [send(req, deadline, expected, profiler)
                for req in first[:math.ceil(len(first) * PROFILED_SHARE)]]
    groups = spans.profile_groups(profiler)

    metrics = tracer.summary()
    for g in spans.PROFILE_GROUPS:
        metrics[f"prof.{g}.self_s"] = (groups[g], "s")
    t_plain = sum(o.latency for o in replay)
    t_traced = sum(o.latency for o in traced)
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1, "ratio")
    metrics["trace.requests"] = (len(traced), "count")
    tracer.write(str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"))

    layer_self = {layer: metrics[f"{layer}.self_s"][0]
                  for layer in spans.LAYERS}
    total = sum(layer_self.values()) or 1.0
    top = max(layer_self, key=layer_self.get)
    shares = ", ".join(f"{layer} {v / total:.0%}" for layer, v in
                       sorted(layer_self.items(), key=lambda t: -t[1]))
    prof_total = sum(groups.values())
    print(f"# {workload}: largest self-time share: {top} "
          f"({layer_self[top] / total:.0%}); spans: {shares}")
    print(f"# {workload}: profiled third of a cycle: "
          + ", ".join(f"{g} {groups[g]:.3f} s" for g in spans.PROFILE_GROUPS)
          + f" (these three: {prof_total:.3f} s)")
    attempted, failed, correct = _counts(plain + traced + replay + profiled)
    return metrics, attempted, failed, correct


def _report(metrics, attempted, failed, correct, prefix=""):
    for name, (value, unit) in metrics.items():
        print(f"{prefix}{name} = {value:.6g} {unit}")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {prefix + name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=gen.WORKLOADS + ("hard", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "sislip" / "cli.py").is_file():
        print(f"error: no sislip source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = check.load_expected()

    if args.setup_probe:
        print(setup(args.workload, args.seed, expected)[2])
        return 0

    workloads = gen.WORKLOADS + ("hard",) if args.workload == "all" \
        else (args.workload,)
    run = measure_traced if args.trace else measure
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            measured = run(w, args.seed, args.seconds, expected,
                           setup(w, args.seed, expected))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 2
        part = _report(*measured, prefix=f"{w}." if len(workloads) > 1 else "")
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(part["metrics"])
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
