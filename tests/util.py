"""Shared test helpers: oracles and exact linear algebra."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from sislip import sis
from sislip.errors import GenericityAlarm
from sislip.poly import (
    MPoly,
    _uni_gcd,
    _zz_ring,
    adjoin_root,
    exact_div,
    factor_coeff_list,
    from_zz,
    mgcd,
    repeated_part_coeffs,
    resultant,
    squarefree_part_coeffs,
    to_zz,
    univariate_coeffs,
)
from sislip.resolve import GERM_VARS
from sislip.scalar import QQ, as_scalar, is_zero

AV = ("x", "y", "z")


# ---------------------------------------------------------------------------
# intersection matrices and exact negative-definiteness

def intersection_matrix(vertices, edges):
    """Symmetric matrix from {id: self_int} and an iterable of id pairs."""
    ids = sorted(vertices)
    pos = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    M = [[Fraction(0)] * n for _ in range(n)]
    for vid in ids:
        M[pos[vid]][pos[vid]] = Fraction(vertices[vid])
    for e in edges:
        a, b = tuple(e)
        M[pos[a]][pos[b]] += 1
        M[pos[b]][pos[a]] += 1
    return M, ids


def is_negative_definite(M):
    """Exact LDL^T pivots; all must be negative."""
    n = len(M)
    A = [row[:] for row in M]
    for k in range(n):
        if A[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k, n):
                A[i][j] -= f * A[k][j]
    return True


def graph_matrix(graph):
    """Intersection matrix of a decorated graph (parallel edges summed)."""
    ids = sorted(graph.vertices)
    pos = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    M = [[Fraction(0)] * n for _ in range(n)]
    for vid in ids:
        M[pos[vid]][pos[vid]] = Fraction(graph.vertices[vid].self_int)
    for a, b in graph.edges:
        M[pos[a]][pos[b]] += 1
        M[pos[b]][pos[a]] += 1
    return M, ids


# ---------------------------------------------------------------------------
# independent integer oracle for the resolution of v^p + w^q, gcd(p, q) = 1
#
# Pure subtractive-Euclid bookkeeping: the strict transform of v^p + w^q
# stays binomial in every chart, so the whole resolution is determined by
# the exponent pair.  No polynomial arithmetic is involved.

def binomial_resolution_oracle(p, q):
    """(vertices {id: self_int}, edges set of frozensets, arrow ids, vals)."""
    curves, val, edges, arrows = {}, {}, set(), []
    state = {"next": 1}

    def blow(p, q, a, b):
        for bid in (a, b):
            if bid is not None:
                curves[bid] -= 1
        if a is not None and b is not None:
            edges.discard(frozenset((a, b)))
        nid = state["next"]
        state["next"] += 1
        curves[nid] = -1
        val[nid] = min(p, q) + (val[a] if a else 0) + (val[b] if b else 0)
        for bid in (a, b):
            if bid is not None:
                edges.add(frozenset((nid, bid)))
        if p == q:
            # strict transform 1 + w^q with q = 1: free simple root
            assert p == 1
            arrows.append(nid)
        elif p > q:
            # chart (v, vw): strict v^(p-q) + w^q at the w = 0 corner
            if q == 1 and b is None:
                arrows.append(nid)
            else:
                blow(p - q, q, nid, b)
        if p < q:
            # chart (vw, v): strict v^(q-p) + w^p at the old-axis corner
            if p == 1 and a is None:
                arrows.append(nid)
            else:
                blow(q - p, p, nid, a)
        return nid

    blow(p, q, None, None)
    return curves, edges, arrows, val


# ---------------------------------------------------------------------------
# random linear coordinate changes

def linear_change(F, rng, lo=-2, hi=2):
    """F composed with a random invertible integer change of (x, y, z)."""
    while True:
        M = [[rng.randint(lo, hi) for _ in range(3)] for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        if det != 0:
            break
    vs = [MPoly.var(QQ, AV, n) for n in AV]
    env = {
        AV[i]: sum((vs[j] * Fraction(M[i][j]) for j in range(3)),
                   MPoly.zero(QQ, AV))
        for i in range(3)
    }
    return F.evaluate(env)


# ---------------------------------------------------------------------------
# independent oracle for the singular points of a tangent cone
#
# The whole-curve search that sislip used before it searched component by
# component: the discriminant of the whole degree-d curve in the chart x = 1,
# then the line x = 0 in the chart y = 1, then the point [0:0:1].

def whole_curve_singular_points(f):
    """(chart, coords, ctx, size) per conjugacy class of Sing{f = 0}."""
    dehom = sis.dehomogenize
    partials = [f.derivative(v) for v in AV]
    out = [(0, (v0, w0), ctx, size)
           for ctx, v0, w0, size in _whole_curve_affine(dehom(f, 0))]
    shared = None
    for p in [f, *partials]:
        q = dehom(p, 1).set_var("v", 0)
        if q:
            cs = univariate_coeffs(q, "w")
            shared = cs if shared is None else _uni_gcd(shared, cs)
    if shared and len(shared) > 1:
        for qc, _e in factor_coeff_list(squarefree_part_coeffs(shared), QQ):
            ctx, z0 = adjoin_root(QQ, qc)
            out.append((1, (Fraction(0), z0), ctx, len(qc) - 1))
    if all(is_zero(dehom(p, 2).terms.get((0, 0), Fraction(0)))
           for p in [f, *partials]):
        out.append((2, (Fraction(0), Fraction(0)), QQ, 1))
    return out


def _whole_curve_affine(f0):
    if f0.total_degree() == 0:
        return []
    v = MPoly.var(QQ, GERM_VARS, "v")
    w = MPoly.var(QQ, GERM_VARS, "w")
    for lam in range(f0.total_degree() + 2):
        F = f0.evaluate({"v": v + lam * w, "w": w}) if lam else f0
        d = F.degree_in("w")
        if d == 0 or F.coeff_of("w", d).total_degree() > 0:
            continue
        R = resultant(F, F.derivative("w"), "w")
        if not R:
            continue
        conds = (F, F.derivative("v"), F.derivative("w"))
        rc = univariate_coeffs(R, "v") if R.total_degree() > 0 else []
        repeated = repeated_part_coeffs(rc)
        out = []
        if len(repeated) <= 1:
            return out
        for qc, _e in factor_coeff_list(repeated, QQ):
            ctx1, v0 = adjoin_root(QQ, qc)
            shared = None
            for p in conds:
                sp = p.lift(ctx1).set_var("v", v0)
                if sp:
                    cs = univariate_coeffs(sp, "w")
                    shared = cs if shared is None else _uni_gcd(shared, cs)
            if not shared or len(shared) <= 1:
                continue
            for wq, _e2 in factor_coeff_list(squarefree_part_coeffs(shared), ctx1):
                ctx2, w0 = adjoin_root(ctx1, wq)
                size = (len(qc) - 1) * (len(wq) - 1)
                out.append((ctx2, as_scalar(ctx2, v0) + lam * w0, w0, size))
        return out
    raise AssertionError("no shear made the whole-curve search regular")


# ---------------------------------------------------------------------------
# independent oracle for the local polar germ
#
# The per-point path sislip used before the germ was built over QQ: strip
# every localized component from M_loc over the point's field, then take the
# radical there.

def per_point_polar_germ(s, pt, G):
    """The reduced polar germ at pt over its field, or None if it misses pt."""
    _m, strict = sis.local_numerator(s, pt, G)
    for _name, comp in sis.components(s):
        loc = pt.localize(sis.dehomogenize(comp, pt.chart))
        if loc.total_degree() > 0:
            while (q := exact_div(strict, loc)) is not None:
                strict = q
    if strict.order_at_origin() == 0:
        return None
    g = strict
    for var in strict.vars:
        d = strict.derivative(var)
        if d:
            g = mgcd(g, d)
    return strict if g.total_degree() == 0 else exact_div(strict, g)


# ---------------------------------------------------------------------------
# sampled oracle for the valuations of a generic linear form
#
# The path sislip used before it took min(m_E(v), m_E(w)): track three
# seeded forms v + t*w and keep the minimum, which at least two of them
# must attain on every curve.

GENERIC_SAMPLES = 3


def sampled_linear_track(res, seed=0):
    """Certified valuations of a generic local linear form v + t*w."""
    rng = random.Random(seed)
    v = MPoly.var(res.base_ctx, GERM_VARS, "v")
    w = MPoly.var(res.base_ctx, GERM_VARS, "w")
    samples = [res.track(v + Fraction(rng.randint(1, 9999)) * w)
               for _ in range(GENERIC_SAMPLES)]
    out = {}
    for rid in res.curves:
        vals = [sm[rid] for sm in samples]
        best = min(vals)
        if vals.count(best) < GENERIC_SAMPLES - 1:
            raise GenericityAlarm(
                f"generic-linear-form samples disagree on curve {rid}: {vals}"
            )
        out[rid] = best
    return out


# ---------------------------------------------------------------------------
# sympy's bivariate factorization as the oracle of poly.factor_qq
#
# The path sislip used before it lifted factors from a univariate image:
# p = z^k * b, and b(x, y, 1) goes to sympy's factor_list in ZZ[x, y].

def sympy_factor_qq(p):
    """(unit, [(factor, exponent)]) of a ternary form, as `factor_qq`
    returns it, from sympy's bivariate factor_list."""
    d, a = to_zz(p)
    k = min(e[2] for e in a)
    flat = _zz_ring(p.vars[:2], None).from_dict(
        {(i, j): c for (i, j, _), c in a.items()})
    unit, flat_factors = flat.factor_list()
    factors = []
    for f, m in flat_factors:
        deg = max(i + j for i, j in f)
        factors.append((a.ring.from_dict(
            {(i, j, deg - i - j): c for (i, j), c in f.items()}), m))
    if k:
        factors.append((a.ring.gens[2], k))
    gens = ", ".join(p.vars)
    factors.sort(key=lambda t: f"Poly({t[0]}, {gens}, domain='QQ')")
    return Fraction(int(unit), d), [(from_zz(f, p.vars), m) for f, m in factors]


# ---------------------------------------------------------------------------
# the surfaces of the benchmark pool (perfbench/gen.py)

def benchmark_pool():
    """{name: surface text} of the benchmark's rational and algebraic pools."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules.setdefault(spec.name,
                                 importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    return {**gen.RATIONAL_POOL, **gen.ALGEBRAIC_POOL}
