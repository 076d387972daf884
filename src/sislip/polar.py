"""Generic polar curves on a superisolated surface germ.

The polar curve of F = f - g with respect to a linear projection with
coefficients (a, b, c) is cut out on the surface by a*F_x + b*F_y + c*F_z.
For generic coefficients its multiplicities along the exceptional curves,
the extra blow-ups needed to resolve its base points on the exceptional
divisor, and the number of its branches are bilipschitz-meaningful data for
the *outer* metric.  Genericity is certified probabilistically: k seeded
samples, per-vertex minimum, and at least k-1 samples must attain the
minimum simultaneously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenericityAlarm
from .poly import MPoly, exact_div, squarefree_part
from .resolve import resolve_germ
from .scalar import is_zero
from .sis import (
    AMBIENT_VARS,
    DecoratedGraph,
    _pullback_numerator,
    build_gamma,
    components,
    dehomogenize,
    inner_rates,
    multiplicity_table,
    point_resolution,
    singular_points,
)

POLAR_TAG = "polar"
DEFAULT_SAMPLES = 5
COEFF_BOX = 9999          # coefficients are sampled uniformly from 1..COEFF_BOX
MAX_EXTRA_BLOWUPS = 8     # cap on base-point resolution work per singular point


def surface_partials(s):
    """The three partial derivatives of the defining polynomial F = f - g."""
    F = s.f - s.g
    return tuple(F.derivative(v) for v in AMBIENT_VARS)


def partials_table(s, graph=None):
    """multiplicity_table applied to F_x, F_y, F_z; returns three maps.

    When a decorated graph is supplied the values are also stored on its
    vertices under the names "Fx", "Fy", "Fz".
    """
    if graph is None:
        graph = build_gamma(s, "inner")
    out = []
    for p, name in zip(surface_partials(s), ("Fx", "Fy", "Fz")):
        out.append(multiplicity_table(s, p, graph, name=name))
    return tuple(out)


def _local_polar_germ(s, pt, G):
    """The reduced local polar germ at pt, or None where the polar misses it.

    The pullback numerator is f~^m * M in pt's chart.  The cone is reduced,
    so each component divides f~ once, and stripping every component that
    is non-constant in the chart from M leaves the strict transform of the
    polar.  The strip and the radical run over QQ, once, before the move to
    the point: a component not through the point is a unit of the local
    ring, and a gcd does not change under a field extension.  So the germ
    is reduced, and coprime to every local factor, since each component is
    irreducible over QQ and divides it no more.
    """
    _m, M = _pullback_numerator(s, G, pt.chart)
    for _name, comp in components(s):
        h = dehomogenize(comp, pt.chart)
        if h.total_degree() > 0:
            while (q := exact_div(M, h)) is not None:
                M = q
    if not is_zero(pt.value(M)):
        return None
    return pt.localize(squarefree_part(M))


@dataclass
class PolarSample:
    coefficients: tuple         # the representative certified triple (a, b, c)
    G: MPoly                    # a F_x + b F_y + c F_z for that triple
    mults: dict                 # base inner-graph vertex id -> multiplicity
    base_graph: DecoratedGraph
    graph: DecoratedGraph       # extended graph with polar arrows
    extra_blowups: int          # vertices beyond the base inner graph
    l_arrow_counts: dict        # L-vertex id -> polar branches through it
    agreeing: int               # how many samples attained the minimum


def extended_polar_graph(s, G):
    """Resolve the polar's base points on the exceptional divisor.

    At every singular point the polar meets, the inner graph glues in the
    combined resolution of the local factors of C and the local polar germ
    (`build_gamma` with `resolutions`), so the extra blow-ups the polar
    forces show up as new vertices with updated self-intersections, and
    each strict-transform branch of the polar there as one arrow.  The
    multiplicities of G are stored under "polar".  Branches through the
    L-curves away from the singular points are counted by the
    principal-divisor identity.

    Returns (graph, extra_vertex_count, l_arrow_counts).
    """
    resolutions = {}
    extra = 0
    for ip, pt in enumerate(singular_points(s)):
        pol = _local_polar_germ(s, pt, G)
        if pol is None:
            continue
        res = resolutions[ip] = resolve_germ(
            None, pt.ctx, factors={**pt.local_factors, POLAR_TAG: pol})
        n_new = (len(res.dual_graph().vertices)
                 - len(point_resolution(s, ip).dual_graph().vertices))
        if n_new > MAX_EXTRA_BLOWUPS:
            raise GenericityAlarm(
                f"polar base points needed {n_new} extra blow-ups "
                f"(cap {MAX_EXTRA_BLOWUPS}) at singular point {ip}"
            )
        extra += n_new * pt.class_size
    graph = build_gamma(s, "inner", resolutions)
    multiplicity_table(s, G, graph, name="polar")
    l_counts = {}
    for v in graph.l_vertices():
        # (sum m_E(G) E + strict) . L = 0 pins the strict contact with L
        total = v.mult["polar"] * v.self_int
        for u in graph.neighbors(v.id):
            total += graph.vertices[u].mult["polar"]
        cnt = -total
        assert cnt >= 0, "polar strict transform has negative L-contact"
        l_counts[v.id] = cnt
        for _ in range(cnt):
            graph.arrows.append((v.id, None))
    return graph, extra, l_counts


def generic_polar(s, k=DEFAULT_SAMPLES, seed=0):
    """Sample k polar curves and certify the generic multiplicity data."""
    if k < 3:
        raise ValueError("need at least 3 samples for a certificate")
    base = build_gamma(s, "inner")
    px, py, pz = surface_partials(s)
    rng = random.Random(seed)
    triples, gs, tables = [], [], []
    while len(gs) < k:
        a, b, c = (Fraction(rng.randint(1, COEFF_BOX)) for _ in range(3))
        G = px * a + py * b + pz * c
        if not G:
            continue
        triples.append((a, b, c))
        gs.append(G)
        tables.append(multiplicity_table(s, G, base))
    mins = {vid: min(t[vid] for t in tables) for vid in base.vertices}
    good = [i for i, t in enumerate(tables) if t == mins]
    if len(good) < k - 1:
        raise GenericityAlarm(
            f"only {len(good)} of {k} polar samples attained the minimum "
            f"everywhere; re-run with a different seed or more samples"
        )
    idx = good[0]
    for vid, m in mins.items():
        base.vertices[vid].mult["polar"] = m
    graph, extra, l_counts = extended_polar_graph(s, gs[idx])
    return PolarSample(triples[idx], gs[idx], mins, base, graph, extra,
                       l_counts, len(good))


def polar_branch_count(sample):
    """Number of strict-transform branches of the certified generic polar."""
    return len(sample.graph.arrows)


@dataclass
class EvidenceReport:
    inner_equivalent: bool
    branch_counts: tuple
    mult_vectors: tuple         # sorted base-graph polar multiplicities
    extra_blowups: tuple
    extended_profiles: tuple    # sorted (self_int, polar mult) per surface
    verdict: str
    caveat: str = ("matching polar data does not establish outer bilipschitz "
                   "equivalence; only a difference is conclusive")


def outer_evidence_report(s1, s2, k=DEFAULT_SAMPLES, seed=0):
    """Compare two presentations: inner graphs, then generic-polar data."""
    from .report import isomorphic  # local import: report consumes this module

    graphs = []
    for s in (s1, s2):
        g = build_gamma(s, "inner")
        inner_rates(g, s)
        graphs.append(g)
    inner_eq = isomorphic(graphs[0], graphs[1]) is not None
    p1 = generic_polar(s1, k=k, seed=seed)
    p2 = generic_polar(s2, k=k, seed=seed)
    mv = tuple(tuple(sorted(p.mults.values())) for p in (p1, p2))
    bc = (polar_branch_count(p1), polar_branch_count(p2))
    eb = (p1.extra_blowups, p2.extra_blowups)
    prof = tuple(
        tuple(sorted(
            (v.self_int, v.mult["polar"]) for v in p.graph.vertices.values()
        ))
        for p in (p1, p2)
    )
    same = mv[0] == mv[1] and bc[0] == bc[1] and eb[0] == eb[1] and \
        prof[0] == prof[1]
    if not inner_eq:
        verdict = "inner geometries differ"
    elif not same:
        verdict = "inner-equivalent, polar data differ"
    else:
        verdict = "inner-equivalent, polar data agree"
    return EvidenceReport(inner_eq, bc, mv, eb, prof, verdict)
