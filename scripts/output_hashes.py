#!/usr/bin/env python3
"""Print one hash of (exit code, stdout, stderr) per CLI request.

The requests are the first cycle of each perfbench workload for every
--seed (built by `perfbench/gen.py`, which this script only reads), every
golden request of `tests/golden/requests.json`, and every literal argv
that `tests/test_cli.py` passes to the CLI.  Each request runs in process
through `sislip.cli.main`.  Two trees answer alike when their outputs
diff empty:

    python scripts/output_hashes.py > new.txt
    (cd ../parent && python scripts/output_hashes.py) > old.txt
    diff old.txt new.txt

The script imports `sislip` from the `src/` next to it, so the same
script can be copied into another checkout and run there.
"""

import argparse
import ast
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

from sislip import cli  # noqa: E402

WORKLOADS = ("inner_rational", "inner_algebraic", "compare_pairs", "hard")


def perfbench_requests(seeds):
    for workload in WORKLOADS:
        for seed in seeds:
            cycle = next(gen.cycles(workload, seed))
            for k, req in enumerate(cycle):
                yield f"{workload}:{seed}:{k}:{req.base}", req.argv


def golden_requests():
    reqs = json.loads((ROOT / "tests/golden/requests.json").read_text())
    for req in reqs:
        yield f"golden:{req['name']}", req["argv"]


def cli_test_requests():
    """The argv of each `run(capsys, ...)` and `main([...])` call in
    tests/test_cli.py whose arguments are string literals or module-level
    string constants; calls with computed arguments are skipped."""
    tree = ast.parse((ROOT / "tests/test_cli.py").read_text())
    consts = {t.id: node.value.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant)
              for t in node.targets if isinstance(t, ast.Name)}

    def literal(arg):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name) and isinstance(consts.get(arg.id), str):
            return consts[arg.id]
        return None

    k = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "run":
            args = node.args[1:]
        elif node.func.id == "main" and node.args and \
                isinstance(node.args[0], ast.List):
            args = node.args[0].elts
        else:
            continue
        argv = [literal(a) for a in args]
        if None not in argv:
            yield f"cli_test:{node.lineno}:{k}", argv
            k += 1


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=[3, 5])
    args = ap.parse_args(argv)
    for label, req in [*perfbench_requests(args.seeds), *golden_requests(),
                       *cli_test_requests()]:
        digest = hashlib.sha256(outcome(req).encode()).hexdigest()[:16]
        print(f"{digest} {label}", flush=True)


if __name__ == "__main__":
    main()
