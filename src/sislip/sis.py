"""The superisolated-singularity pipeline.

A presentation is a pair (f, g) of homogeneous forms of degrees d and d+1 in
(x, y, z); the surface germ is f - g = 0 at the origin.  One ambient blow-up
resolves everything away from the singular points of the projectivized
tangent cone C = {f = 0}; over each singular point the surface looks like a
plane-curve germ cylinder, so the whole decorated graph is assembled from
plane resolutions glued to one L-vertex per component of C.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import scalar as _sc
from .errors import (
    DegreeMismatch,
    GenericityAlarm,
    NotHomogeneous,
    NotSuperisolated,
    TangentConeNotReduced,
    ZeroOnComponent,
    ZeroPolynomial,
)
from .poly import (
    MPoly,
    _uni_gcd,
    factor_coeff_list,
    factor_qq,
    from_zz,
    mgcd,
    multiplicity_of_factor,
    repeated_part_coeffs,
    resultant,
    squarefree_part_coeffs,
    to_zz,
    univariate_coeffs,
)
from .resolve import (
    GERM_VARS,
    _distinct_tangent_lines,
    detect_nodes,
    resolve_germ,
)
from .scalar import QQ, extend_field, is_zero

AMBIENT_VARS = ("x", "y", "z")
GENERIC_SAMPLES = 3


# ---------------------------------------------------------------------------
# presentation and validation

@dataclass
class SISPresentation:
    f: MPoly  # degree d, the tangent cone
    g: MPoly  # degree d+1; the surface is f - g = 0
    d: int
    _components: list = field(default=None, repr=False)
    _points: list = field(default=None, repr=False)
    _resolutions: dict = field(default_factory=dict, repr=False)
    _pullbacks: dict = field(default_factory=dict, repr=False)


def validate(f_d, f_dplus1):
    """Check a candidate pair f_d + f_{d+1} and package it (g = -f_{d+1})."""
    for p in (f_d, f_dplus1):
        if p.vars != AMBIENT_VARS:
            raise NotHomogeneous(f"forms must live in {AMBIENT_VARS}")
        if not p or not p.is_homogeneous():
            raise NotHomogeneous("both forms must be homogeneous and nonzero")
    d = f_d.total_degree()
    if d < 2:
        raise DegreeMismatch("tangent cone must have degree >= 2")
    if f_dplus1.total_degree() != d + 1:
        raise DegreeMismatch(
            f"degrees must be consecutive, got {d} and {f_dplus1.total_degree()}"
        )
    s = SISPresentation(f_d, -f_dplus1, d)
    components(s)  # raises TangentConeNotReduced
    if mgcd(f_d, f_dplus1).total_degree() > 0:
        raise NotSuperisolated("the two forms share a component")
    for pt in singular_points(s):
        if is_zero(pt.unit.terms.get((0, 0), Fraction(0))):
            raise NotSuperisolated(
                "a singular point of the tangent cone lies on the degree-(d+1) curve"
            )
    return s


def from_polynomial(F):
    """Split F = f_d + f_{d+1} by homogeneous parts and validate."""
    parts = F.homogeneous_parts()
    if len(parts) != 2:
        raise DegreeMismatch("expected exactly two homogeneous parts")
    (d1, p1), (d2, p2) = sorted(parts.items())
    if d2 != d1 + 1:
        raise DegreeMismatch("homogeneous parts must have consecutive degrees")
    return validate(p1, p2)


def components(s):
    """Irreducible components of the tangent cone, as (name, factor) pairs.

    Raises TangentConeNotReduced if a component is repeated.
    """
    if s._components is None:
        unit, facs = factor_qq(s.f)
        out = []
        for i, (p, k) in enumerate(facs):
            if k > 1:
                raise TangentConeNotReduced("tangent cone is not reduced")
            if i == 0 and unit != 1:
                p = p * unit
            out.append((f"C{i + 1}", p))
        s._components = out
    return s._components


# ---------------------------------------------------------------------------
# singular points of the tangent cone

def dehomogenize(p, chart):
    """The form p(x, y, z) in the affine chart where coordinate `chart` is 1.

    An exponent remap: the other two coordinates, in order, become (v, w).
    p is homogeneous, so no two terms collide; were it not, colliding terms
    would be summed.
    """
    a, b = (i for i in range(3) if i != chart)
    terms = {}
    for e, c in p.terms.items():
        k = (e[a], e[b])
        terms[k] = terms.get(k, 0) + c
    terms = {k: c for k, c in terms.items() if not is_zero(c)}
    return MPoly(p.ctx, GERM_VARS, terms)


@dataclass
class SingPoint:
    ctx: object
    chart: int
    coords: tuple            # affine coordinates in the chart
    class_size: int
    # the local data is filled in by _make_point, all of it through localize
    h_local: MPoly = field(init=False)     # tangent cone germ, in (v, w)
    unit: MPoly = field(init=False)        # degree-(d+1) form (unit iff SIS)
    components: dict = field(init=False)   # name -> non-constant local germ
    local_factors: dict = field(init=False)  # the components of order >= 1
    is_odp: bool = field(init=False)
    branch_names: list = field(init=False)  # one component name per branch
    _numerators: dict = field(default_factory=dict, init=False, repr=False)

    def localize(self, p):
        """The chart polynomial p over the point's field, moved so that the
        point sits at the origin of (v, w)."""
        c1, c2 = self.coords
        return p.lift(self.ctx).shift("v", c1).shift("w", c2)


def singular_points(s):
    """One representative per conjugacy class of Sing(C), class size recorded."""
    if s._points is not None:
        return s._points
    pts = []
    f0 = dehomogenize(s.f, 0)
    # affine chart x = 1 covers every singular point off the line x = 0
    for ctx, v0, w0, size in _affine_singularities(f0):
        pts.append(_make_point(s, 0, (v0, w0), ctx, size))
    # the line x = 0, parametrized in chart y = 1, plus the point [0:0:1]
    restrictions = []
    for p in (s.f, s.f.derivative("x"), s.f.derivative("y"), s.f.derivative("z")):
        q = dehomogenize(p, 1).set_var("v", 0)
        if q:  # an identically-zero restriction imposes no condition
            restrictions.append(univariate_coeffs(q, "w"))
    shared = None
    for cs in restrictions:
        shared = cs if shared is None else _uni_gcd(shared, cs)
    if shared and len(shared) > 1:
        for qc, _e in factor_coeff_list(squarefree_part_coeffs(shared), QQ):
            if len(qc) == 2:
                ctx, z0 = QQ, -qc[0]
            else:
                ctx = extend_field(QQ, qc)
                z0 = ctx.gen()
            pts.append(_make_point(s, 1, (Fraction(0), z0), ctx, len(qc) - 1))
    if all(
        is_zero(dehomogenize(p, 2).terms.get((0, 0), Fraction(0)))
        for p in (s.f, s.f.derivative("x"), s.f.derivative("y"), s.f.derivative("z"))
    ):
        pts.append(_make_point(s, 2, (Fraction(0), Fraction(0)), QQ, 1))
    s._points = pts
    return pts


def _affine_singularities(f0):
    """Conjugacy classes of singular points of an affine plane curve."""
    if f0.total_degree() == 0:
        return
    v = MPoly.var(QQ, GERM_VARS, "v")
    w = MPoly.var(QQ, GERM_VARS, "w")
    for lam in range(f0.total_degree() + 2):
        F = f0.evaluate({"v": v + lam * w, "w": w}) if lam else f0
        d = F.degree_in("w")
        lead = F.coeff_of("w", d)
        if d == 0 or is_zero(lead.terms.get((0, 0), Fraction(0))) or \
                lead.total_degree() > 0:
            continue
        R = resultant(F, F.derivative("w"), "w")
        if not R:
            continue
        Fv = F.derivative("v")
        Fw = F.derivative("w")
        out = []
        # The lead of F in w is a constant, so ord_{v0} R is the sum of
        # I_p(F, F_w) >= m(m-1) >= 2 over the points p above v0: a singular
        # point lies only over a repeated factor of R, a root of gcd(R, R').
        rc = univariate_coeffs(R, "v") if R.total_degree() > 0 else []
        repeated = repeated_part_coeffs(rc)
        if len(repeated) > 1:
            for qc, _e in factor_coeff_list(repeated, QQ):
                if len(qc) == 2:
                    ctx1, v0 = QQ, -qc[0]
                else:
                    ctx1 = extend_field(QQ, qc)
                    v0 = ctx1.gen()
                shared = None
                for p in (F, Fv, Fw):
                    sp = p.lift(ctx1).set_var("v", v0)
                    if not sp:  # identically zero: no condition on w
                        continue
                    cs = univariate_coeffs(sp, "w")
                    shared = cs if shared is None else _uni_gcd(shared, cs)
                    if len(shared) <= 1:
                        break
                if not shared or len(shared) <= 1:
                    continue
                for wq, _e2 in factor_coeff_list(
                    squarefree_part_coeffs(shared), ctx1
                ):
                    if len(wq) == 2:
                        ctx2, w0 = ctx1, -wq[0]
                    else:
                        ctx2 = extend_field(ctx1, wq)
                        w0 = ctx2.gen()
                    size = (len(qc) - 1) * (len(wq) - 1)
                    out.append((ctx2, _sc.as_scalar(ctx2, v0) + lam * w0, w0, size))
        yield from out
        return
    raise GenericityAlarm("no shear made the singular-point search regular")


def _make_point(s, chart, coords, ctx, size):
    pt = SingPoint(ctx, chart, coords, size)
    pt.h_local = pt.localize(dehomogenize(s.f, chart))
    pt.unit = pt.localize(dehomogenize(s.g, chart))
    pt.components = {}
    for name, comp in components(s):
        loc = pt.localize(dehomogenize(comp, chart))
        if loc.total_degree() > 0:
            pt.components[name] = loc
    pt.local_factors = {name: loc for name, loc in pt.components.items()
                        if loc.order_at_origin() >= 1}
    pt.branch_names = [name for name, loc in pt.local_factors.items()
                       for _ in range(loc.order_at_origin())]
    h = pt.h_local
    pt.is_odp = h.order_at_origin() == 2 and _distinct_tangent_lines(h) == 2
    return pt


def point_resolution(s, index):
    """Cached minimal embedded resolution of the germ at singular point #index."""
    if index not in s._resolutions:
        pt = singular_points(s)[index]
        s._resolutions[index] = resolve_germ(pt.h_local, pt.ctx,
                                             factors=pt.local_factors)
    return s._resolutions[index]


# ---------------------------------------------------------------------------
# the decorated graph

@dataclass
class DVertex:
    id: int
    is_L: bool
    self_int: object = None
    rate: object = None
    component: str = None       # for L-vertices: which component of C
    mult: dict = field(default_factory=dict)
    point: int = None           # provenance of non-L vertices
    copy: int = None
    local_id: int = None        # representative curve id in the local resolution


@dataclass
class DecoratedGraph:
    mode: str
    vertices: dict              # id -> DVertex
    edges: list                 # (id, id) pairs; parallel edges allowed
    arrows: list = field(default_factory=list)  # (vertex id, mult label or None)

    def neighbors(self, vid):
        out = []
        for a, b in self.edges:
            if a == vid:
                out.append(b)
            if b == vid:
                out.append(a)
        return out

    def valency(self, vid):
        return len(self.neighbors(vid)) + sum(1 for a, _m in self.arrows if a == vid)

    def l_vertices(self):
        return [v for v in self.vertices.values() if v.is_L]


def build_gamma(s, mode="inner"):
    """Assemble the decorated dual graph of the resolved SIS surface.

    mode="min": ordinary double points of C stay as plain edges between the
    L-vertices of the two branches.  mode="inner": they are blown up once,
    producing the valency-2 vertices that carry inner rate 3/2.
    """
    if mode not in ("min", "inner"):
        raise ValueError(f"unknown mode {mode!r}")
    vertices = {}
    edges = []
    nid = 0
    l_id = {}
    for name, _comp in components(s):
        nid += 1
        vertices[nid] = DVertex(nid, True, component=name, rate=None)
        l_id[name] = nid
    for ip, pt in enumerate(singular_points(s)):
        if mode == "min" and pt.is_odp:
            n1, n2 = pt.branch_names
            for _copy in range(pt.class_size):
                edges.append((l_id[n1], l_id[n2]))
            continue
        res = point_resolution(s, ip)
        local = res.dual_graph()
        for copy in range(pt.class_size):
            gid = {}
            for lid in sorted(local.vertices):
                nid += 1
                gid[lid] = nid
                vertices[nid] = DVertex(
                    nid, False, self_int=local.vertices[lid],
                    point=ip, copy=copy, local_id=local.rep_of[lid],
                )
            for e in local.edges:
                a, b = sorted(e)
                edges.append((gid[a], gid[b]))
            for arrow in local.arrows:
                edges.append((gid[arrow.vertex], l_id[arrow.tag]))
    return DecoratedGraph(mode, vertices, edges)


def l_node_self_int(graph, s):
    """Fill in L-vertex self-intersections via the principal-divisor identity
    for a generic linear form (multiplicity 1 on every L-curve)."""
    mult_l1 = {}
    for v in graph.vertices.values():
        if v.is_L:
            mult_l1[v.id] = 1
        else:
            res = point_resolution(s, v.point)
            pt = singular_points(s)[v.point]
            mult_l1[v.id] = res.track(pt.h_local)[v.local_id]
    for v in graph.vertices.values():
        v.mult["l"] = mult_l1[v.id]
    degs = {name: comp.total_degree() for name, comp in components(s)}
    for v in graph.l_vertices():
        total = degs[v.component]  # strict transform of the linear form
        for u in graph.neighbors(v.id):
            total += mult_l1[u]
        v.self_int = -total
    return graph


# ---------------------------------------------------------------------------
# inner rates

def _generic_local_track(res, seed=0):
    """Certified valuations of a generic local linear form v + t*w."""
    rng = random.Random(seed)
    samples = []
    while len(samples) < GENERIC_SAMPLES:
        t = Fraction(rng.randint(1, 9999))
        v = MPoly.var(res.base_ctx, GERM_VARS, "v")
        w = MPoly.var(res.base_ctx, GERM_VARS, "w")
        samples.append(res.track(v + t * w))
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


def inner_rates(graph, s, seed=0):
    """Annotate nodes with inner rates m_E(l)/m_E(h) + 1; L-vertices get 1."""
    if graph.mode != "inner":
        raise ValueError("inner rates require a graph built with mode='inner'")
    for v in graph.l_vertices():
        v.rate = Fraction(1)
    for ip, pt in enumerate(singular_points(s)):
        res = point_resolution(s, ip)
        local = res.dual_graph()
        node_ids = detect_nodes(local, pt.h_local)
        node_reps = {local.rep_of[i] for i in node_ids}
        if not node_reps:
            continue
        m_l = _generic_local_track(res, seed=seed)
        m_h = res.track(pt.h_local)
        rates = {rid: Fraction(m_l[rid], m_h[rid]) + 1 for rid in node_reps}
        for v in graph.vertices.values():
            if not v.is_L and v.point == ip and v.local_id in rates:
                v.rate = rates[v.local_id]
    return graph


# ---------------------------------------------------------------------------
# multiplicities of ambient functions along the exceptional curves

def _pullback_numerator(s, G, chart):
    """(m, M) with g~^K * (G composed with the ambient blow-up) = f~^m * M,
    in chart coordinates.

    In the chart (x,y,z) = (t, tv, tw) (coordinates permuted per chart
    index), the exceptional coordinate satisfies t = f~/g~ on the surface, so
    G pulls back to N / g~^K with N = sum_k f~^k g~^(K-k) G_k~ over the
    homogeneous parts G_k of G.  Every k is at least m = ord G, so
    N = f~^m * M with M = sum_k f~^(k-m) g~^(K-k) G_k~; only M is built.
    An L-curve is cut out by a non-constant component h of f~, and the cone
    is reduced, so nu_h(f~) = 1 and nu_h(N) = m + nu_h(M).

    The sum runs in PolyRing(ZZ) over one common denominator: with
    df * f~, dg * g~ and d_k * G_k~ integral, term k is divided by
    df^(k-m) * dg^(K-k) * d_k, and M is the integral sum over their lcm.
    """
    key = (G, chart)
    if key in s._pullbacks:
        return s._pullbacks[key]
    df, ft = to_zz(dehomogenize(s.f, chart))
    dg, gt = to_zz(dehomogenize(s.g, chart))
    parts = G.homogeneous_parts()
    K, m = max(parts), min(parts)
    summands = []  # (denominator, integral numerator) of term k
    for k, part in parts.items():
        dk, gk = to_zz(dehomogenize(part, chart))
        summands.append((df ** (k - m) * dg ** (K - k) * dk,
                         ft ** (k - m) * gt ** (K - k) * gk))
    den = math.lcm(*(d for d, _ in summands))
    total = sum((den // d * a for d, a in summands), ft.ring.zero)
    M = from_zz(total, GERM_VARS, scale=Fraction(1, den))
    if not M:
        raise ZeroOnComponent("function vanishes identically on the surface")
    s._pullbacks[key] = m, M
    return m, M


def local_numerator(s, pt, G):
    """(m, M_loc): the factored pullback numerator of G moved to the
    singular point pt, once per (G, point).

    pt.h_local is f~ moved to the point, so the numerator there is
    h_local^m * M_loc.  A valuation is additive: along every exceptional
    curve E, nu_E of the numerator is m * nu_E(h_local) + nu_E(M_loc).
    """
    if G not in pt._numerators:
        m, M = _pullback_numerator(s, G, pt.chart)
        pt._numerators[G] = m, pt.localize(M)
    return pt._numerators[G]


def multiplicity_table(s, G, graph, name=None):
    """Valuation of the ambient polynomial G along every vertex's curve,
    read off the factored pullback numerator f~^m * M without forming it."""
    if not G:
        raise ZeroPolynomial("multiplicity of the zero polynomial")
    out = {}
    for v in graph.vertices.values():
        if v.is_L:
            comp = dict(components(s))[v.component]
            chart = next(
                c for c in (0, 1, 2)
                if dehomogenize(comp, c).total_degree() > 0
            )
            m, M = _pullback_numerator(s, G, chart)
            out[v.id] = m + multiplicity_of_factor(M, dehomogenize(comp, chart))
        else:
            pt = singular_points(s)[v.point]
            res = point_resolution(s, v.point)
            m, Mloc = local_numerator(s, pt, G)
            out[v.id] = (m * res.track(pt.h_local)[v.local_id]
                         + res.track(Mloc)[v.local_id])
    if name is not None:
        for vid, m in out.items():
            graph.vertices[vid].mult[name] = m
    return out
