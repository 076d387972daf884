"""Command-line interface.

Subcommands: resolve-germ, sis-graph, inner-rates, polar, compare, check.
All configuration is by flags (no environment variables) so runs with the
same --seed are byte-identical.  Exit codes: 0 success, 1 mathematical
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import polar as polar_mod
from . import report, sis
from .errors import SislipError
from .poly import parse_poly
from .resolve import GERM_VARS, resolve_germ
from .sis import AMBIENT_VARS, DecoratedGraph, DVertex


def _parse_surface(text):
    return sis.from_polynomial(parse_poly(text, vars=AMBIENT_VARS))


def _germ_graph(expr):
    h = parse_poly(expr, vars=GERM_VARS)
    res = resolve_germ(h)
    local = res.dual_graph()
    vertices = {
        vid: DVertex(vid, False, self_int=local.vertices[vid],
                     local_id=local.rep_of[vid],
                     mult={"h": res.track(h)[local.rep_of[vid]]})
        for vid in local.vertices
    }
    edges = [tuple(sorted(e)) for e in local.edges]
    arrows = [(a.vertex, None) for a in local.arrows]
    return DecoratedGraph("germ", vertices, edges, arrows)


def _write(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, args):
    _write(report.to_dot(doc) if args.format == "dot" else report.to_json(doc),
           args)


def _provenance(args, **extra):
    prov = {"input": getattr(args, "expr", None), "seed": args.seed}
    prov.update(extra)
    return {k: v for k, v in prov.items() if v is not None}


def cmd_resolve_germ(args):
    graph = _germ_graph(args.expr)
    _emit(report.GraphDocument(graph, _provenance(args, kind="germ")), args)
    return 0


def cmd_sis_graph(args):
    if args.rates and args.mode != "inner":
        print("error: --rates requires --mode inner", file=sys.stderr)
        return 2
    s = _parse_surface(args.expr)
    graph = sis.build_gamma(s, args.mode)
    if args.rates:
        sis.inner_rates(graph, s)
    _emit(report.GraphDocument(
        graph, _provenance(args, mode=args.mode)), args)
    return 0


def cmd_polar(args):
    s = _parse_surface(args.expr)
    sample = polar_mod.generic_polar(s, k=args.samples, seed=args.seed)
    prov = _provenance(
        args, mode="inner", samples=args.samples,
        coefficients=[str(Fraction(c)) for c in sample.coefficients],
        branch_count=polar_mod.polar_branch_count(sample),
        extra_blowups=sample.extra_blowups,
        multiplicities=sorted(sample.mults.values()),
    )
    _emit(report.GraphDocument(sample.graph, prov), args)
    return 0


def cmd_compare(args):
    s1 = _parse_surface(args.expr)
    s2 = _parse_surface(args.expr2)
    if args.polar:
        rep = polar_mod.outer_evidence_report(
            s1, s2, k=args.samples, seed=args.seed)
        body = {
            "inner_equivalent": rep.inner_equivalent,
            "branch_counts": list(rep.branch_counts),
            "multiplicity_vectors": [list(v) for v in rep.mult_vectors],
            "extra_blowups": list(rep.extra_blowups),
            "verdict": rep.verdict,
            "caveat": rep.caveat,
        }
    else:
        graphs = []
        for s in (s1, s2):
            g = sis.build_gamma(s, "inner")
            sis.inner_rates(g, s)
            graphs.append(g)
        eq = report.isomorphic(graphs[0], graphs[1]) is not None
        body = {
            "inner_equivalent": eq,
            "verdict": "inner-equivalent" if eq else "inner geometries differ",
        }
    _write(json.dumps(body, indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_check(args):
    s = _parse_surface(args.expr)
    n = len(sis.singular_points(s))
    _write(f"ok: superisolated, degree {s.d}, "
           f"{n} singular point class(es) on the tangent cone\n", args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sislip",
        description="Exact resolution graphs and Lipschitz inner-geometry "
                    "invariants of superisolated surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, expr2=False, graph=True):
        # only the graph commands have a DOT form
        p.add_argument("expr", help="polynomial expression")
        if expr2:
            p.add_argument("expr2", help="second polynomial expression")
        if graph:
            p.add_argument("--format", choices=("dot", "json"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=polar_mod.DEFAULT_SAMPLES)
        p.add_argument("--out", default=None)

    p = sub.add_parser("resolve-germ", help="resolve a plane-curve germ in v, w")
    common(p)
    p.set_defaults(func=cmd_resolve_germ)

    p = sub.add_parser("sis-graph", help="decorated dual graph of an SIS")
    common(p)
    p.add_argument("--mode", choices=("min", "inner"), default="inner")
    p.add_argument("--rates", action="store_true")
    p.set_defaults(func=cmd_sis_graph)

    p = sub.add_parser("inner-rates", help="inner graph with rates")
    common(p)
    p.set_defaults(func=cmd_sis_graph, mode="inner", rates=True)

    p = sub.add_parser("polar", help="certified generic polar data")
    common(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("compare", help="compare two SIS presentations")
    common(p, expr2=True, graph=False)
    p.add_argument("--polar", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="validate an SIS presentation")
    common(p, graph=False)
    p.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first request of a process and then reused:
    parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SislipError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
