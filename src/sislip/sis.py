"""The superisolated-singularity pipeline.

A presentation is a pair (f, g) of homogeneous forms of degrees d and d+1 in
(x, y, z); the surface germ is f - g = 0 at the origin.  One ambient blow-up
resolves everything away from the singular points of the projectivized
tangent cone C = {f = 0}; over each singular point the surface looks like a
plane-curve germ cylinder, so the whole decorated graph is assembled from
plane resolutions glued to one L-vertex per component of C.

The singular points come from the components C_1, ..., C_r of C, which
validation factors first: C is reduced, so Sing(C) is the union of the
Sing(C_i) and of the pairwise intersections C_i n C_j.  Each Galois orbit is
kept once, by the least pair (i, j), i <= j, of components through it.  A
point is represented in chart 0, coordinates (y/x, z/x), when x != 0; in
chart 1, coordinates (0, z/y), when x = 0 and y != 0; and in chart 2,
coordinates (0, 0), when it is [0:0:1].
"""

from __future__ import annotations

import math
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
    _zz_mul,
    adjoin_root,
    divides,
    factor_coeff_list,
    factor_qq,
    from_zz,
    multiplicity_of_factor,
    repeated_part_coeffs,
    resultant,
    to_zz,
    univariate_coeffs,
)
from .resolve import (
    GERM_VARS,
    _one_tangent_line,
    detect_nodes,
    resolve_germ,
)
from .scalar import QQ, is_zero

AMBIENT_VARS = ("x", "y", "z")


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
    # the components are the irreducible factors of f_d, so the forms share
    # one iff some component divides f_{d+1}
    if any(divides(c, f_dplus1) for _, c in components(s)):
        raise NotSuperisolated("the two forms share a component")
    for pt in singular_points(s):
        if is_zero(pt.value(dehomogenize(s.g, pt.chart))):
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
    # the germ is filled in by _make_point: only the components through the
    # point are localized, and h_local is f~ there up to a unit
    local_factors: dict = field(init=False)  # name -> local germ, order >= 1
    h_local: MPoly = field(init=False)     # product of the local factors
    is_odp: bool = field(init=False)
    branch_names: list = field(init=False)  # one component name per branch
    _numerators: dict = field(default_factory=dict, init=False, repr=False)

    def localize(self, p):
        """The chart polynomial p over the point's field, moved so that the
        point sits at the origin of (v, w)."""
        c1, c2 = self.coords
        return p.lift(self.ctx).shift("v", c1).shift("w", c2)

    def value(self, p):
        """The chart polynomial p evaluated at the point, over its field.

        Over QQ it runs in integers: with the coordinates a/D, b/D and the
        coefficients c/L of p, of total degree n, p(a/D, b/D) is
        sum(c * a^i * b^j * D^(n-i-j)) / (L * D^n).  Over a depth-1 field
        Q(a) it is Horner's rule in the integer kernel of `scalar`
        (`scalar.horner1`); over a deeper field, `MPoly.evaluate`.
        """
        if not p:
            return Fraction(0)
        if self.ctx.depth == 1 and p.ctx == QQ:
            L, terms = to_zz(p)
            return _sc.horner1(self.ctx, terms, L, self.coords)
        p = p.lift(self.ctx)
        if self.ctx.depth:
            return p.evaluate(dict(zip(GERM_VARS, self.coords)))
        c1, c2 = self.coords
        D = math.lcm(c1.denominator, c2.denominator)
        a, b = c1.numerator * (D // c1.denominator), c2.numerator * (D // c2.denominator)
        L = math.lcm(*(c.denominator for c in p.terms.values()))
        n = p.total_degree()
        total = sum(c.numerator * (L // c.denominator) * a ** i * b ** j * D ** (n - i - j)
                    for (i, j), c in p.terms.items())
        return Fraction(total, L * D ** n)


def singular_points(s):
    """One representative per Galois orbit of Sing(C), class size recorded.

    C = C_1 u ... u C_r is reduced, so Sing(C) is the union of the Sing(C_i)
    and of the pairwise intersections C_i n C_j.  Lines are smooth, and two
    lines meet at the cross product of their coefficient vectors; every
    other search is one `_common_zeros` call.  A conic irreducible over QQ
    is searched too: it may be two conjugate lines.

    An orbit is kept only by the least pair (i, j), i <= j, of components
    through it, where (i, i) means that C_i alone passes through it: the
    first one or two names of the point's local factors must be C_i, C_j.
    C_k has rational coefficients, so an orbit lies on C_k entirely or not
    at all, and one evaluation of C_k at the representative, over its
    field, decides which, before any component is localized there.

    Chart rule: chart 0, coordinates (y/x, z/x), if x != 0; chart 1,
    coordinates (0, z/y), if x = 0 and y != 0; chart 2, coordinates (0, 0),
    for [0:0:1].  Each representative lives over a field whose degree is its
    class size.
    """
    if s._points is not None:
        return s._points
    comps = components(s)
    pts = []
    for j, (nj, cj) in enumerate(comps):
        for i, (ni, ci) in enumerate(comps[:j + 1]):
            if i == j:
                found = _common_zeros(ci) if ci.total_degree() > 1 else []
            elif ci.total_degree() == cj.total_degree() == 1:
                found = [_line_meet(ci, cj)]
            else:
                found = _common_zeros(ci, cj)
            own = [ni] if i == j else [ni, nj]
            for found_pt in found:
                pt = _make_point(s, *found_pt, own=own)
                if pt is not None:
                    pts.append(pt)
    s._points = pts
    return pts


def _chart_point(x, y, z):
    """The rational point [x:y:z] as (chart, coords, QQ, 1), by the chart rule."""
    if x:
        return 0, (y / x, z / x), QQ, 1
    if y:
        return 1, (Fraction(0), z / y), QQ, 1
    return 2, (Fraction(0), Fraction(0)), QQ, 1


def _line_meet(a, b):
    """The point where two distinct lines over QQ meet: the cross product
    of their coefficient vectors."""
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    p, q = ([line.terms.get(e, Fraction(0)) for e in unit] for line in (a, b))
    return _chart_point(p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                        p[0] * q[1] - p[1] * q[0])


def _shared_roots(polys, ctx):
    """(field, root, degree over ctx) per irreducible factor over ctx of the
    gcd in w of the polynomials polys, constant in v; an identically-zero
    one imposes no condition."""
    shared = None
    for p in polys:
        if not p:
            continue
        cs = univariate_coeffs(p, "w")
        shared = cs if shared is None else _uni_gcd(shared, cs)
        if len(shared) <= 1:
            return
    if shared is None:
        return
    for m, _e in factor_coeff_list(shared, ctx):
        yield *adjoin_root(ctx, m), len(m) - 1


def _common_zeros(P, Q=None):
    """Galois orbits of Sing{P = 0}, or, given Q, of {P = 0} n {Q = 0}.

    P and Q are coprime forms over QQ.  Yields (chart, coords, ctx, size)
    by the chart rule of `singular_points`: the points off x = 0 come from
    `_affine_singularities` in chart 0; those on x = 0 from the conditions
    restricted to it, in chart 1; then [0:0:1].
    """
    conds = [P, Q] if Q is not None else \
        [P] + [P.derivative(v) for v in AMBIENT_VARS]
    for ctx, v0, w0, size in _affine_singularities(
            dehomogenize(P, 0), None if Q is None else dehomogenize(Q, 0)):
        yield 0, (v0, w0), ctx, size
    on_x0 = [dehomogenize(p, 1).set_var("v", 0) for p in conds]
    for ctx, z0, size in _shared_roots(on_x0, QQ):
        yield 1, (Fraction(0), z0), ctx, size
    if all(is_zero(dehomogenize(p, 2).terms.get((0, 0), Fraction(0)))
           for p in conds):
        yield _chart_point(Fraction(0), Fraction(0), Fraction(1))


def _w_regular(F):
    """True when F has positive degree in w and a constant lead there."""
    d = F.degree_in("w")
    return d > 0 and F.coeff_of("w", d).total_degree() == 0


def _affine_singularities(f0, g0=None):
    """Conjugacy classes (ctx, v0, w0, size) of the singular points of the
    affine curve f0 = 0, or, given a coprime g0, of its points on g0 = 0.

    A shear v -> v + lam*w makes the leads in w constant.  Then the roots of
    Res_w(f0, g0) are the v-coordinates of the points of f0 = g0 = 0, and
    the singular points of f0 = 0 lie over repeated roots of its
    discriminant: ord_{v0} Res_w(F, F_w) is the sum of I_p(F, F_w) over the
    points p above v0, which is m(m-1) >= 2 or more at a point of
    multiplicity m >= 2.  The gcd in w of the conditions, over the field of
    each root v0, gives the points above it.
    """
    curves = [f0] if g0 is None else [f0, g0]
    if any(c.total_degree() == 0 for c in curves):
        return
    v = MPoly.var(QQ, GERM_VARS, "v")
    w = MPoly.var(QQ, GERM_VARS, "w")
    for lam in range(sum(c.total_degree() for c in curves) + 2):
        sheared = [c.evaluate({"v": v + lam * w, "w": w}) if lam else c
                   for c in curves]
        if not all(_w_regular(c) for c in sheared):
            continue
        if g0 is None:
            F = sheared[0]
            conds = [F, F.derivative("v"), F.derivative("w")]
            R = resultant(F, conds[2], "w")
        else:
            conds = sheared
            R = resultant(*conds, "w")
        if not R:
            continue
        rc = univariate_coeffs(R, "v") if R.total_degree() > 0 else []
        roots = repeated_part_coeffs(rc) if g0 is None else rc
        if len(roots) <= 1:
            return
        for qc, _e in factor_coeff_list(roots, QQ):
            ctx1, v0 = adjoin_root(QQ, qc)
            above = [p.lift(ctx1).set_var("v", v0) for p in conds]
            for ctx2, w0, k in _shared_roots(above, ctx1):
                yield (ctx2, _sc.as_scalar(ctx2, v0) + lam * w0, w0,
                       (len(qc) - 1) * k)
        return
    raise GenericityAlarm("no shear made the singular-point search regular")


def _make_point(s, chart, coords, ctx, size, own=None):
    """The point with its germ of C; None when `own` is given and is not
    the list of the first one or two components through the point.

    Each component is evaluated at the point once (`SingPoint.value`);
    only those through it are localized, and only once the point is kept.
    The others are units of the local ring, so h_local, the product of the
    local factors, is f~ at the point times a unit: every order, valuation
    and tangent line is that of f~.  The point is an ODP when h_local has
    order 2 and its tangent cone is not one line (`resolve._one_tangent_line`,
    a test on the cone's coefficients with no gcd).
    """
    pt = SingPoint(ctx, chart, coords, size)
    through = {}
    for name, comp in components(s):
        h = dehomogenize(comp, chart)
        if is_zero(pt.value(h)):
            through[name] = h
    if own is not None and list(through)[:2] != own:
        return None
    pt.local_factors = {name: pt.localize(h) for name, h in through.items()}
    pt.branch_names = [name for name, loc in pt.local_factors.items()
                       for _ in range(loc.order_at_origin())]
    h = pt.h_local = math.prod(pt.local_factors.values())
    pt.is_odp = h.order_at_origin() == 2 and not _one_tangent_line(h)
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
    """A decorated dual graph.  `resolutions` maps each singular point whose
    local resolution was glued in to that `Resolution`; it is empty for a
    graph that was not assembled by `build_gamma`."""
    mode: str
    vertices: dict              # id -> DVertex
    edges: list                 # (id, id) pairs; parallel edges allowed
    arrows: list = field(default_factory=list)  # (vertex id, mult label or None)
    resolutions: dict = field(default_factory=dict, repr=False)

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


def build_gamma(s, mode="inner", resolutions=None):
    """Assemble the decorated dual graph of the resolved SIS surface.

    One L-vertex per component of C; at singular point ip, one copy per
    conjugate of `resolutions[ip]` when given, else of the germ's own
    minimal resolution.  An arrow tagged with a component becomes an edge
    to its L-vertex; any other arrow (the polar's) stays a graph arrow.
    The graph comes back with L self-intersections and "l" multiplicities
    filled in (`l_node_self_int`).

    mode="min": ordinary double points of C stay as plain edges between the
    L-vertices of the two branches.  mode="inner": they are blown up once,
    producing the valency-2 vertices that carry inner rate 3/2.
    """
    if mode not in ("min", "inner"):
        raise ValueError(f"unknown mode {mode!r}")
    resolutions = resolutions or {}
    vertices, edges, arrows, glued = {}, [], [], {}
    nid = 0
    l_id = {}
    for name, _comp in components(s):
        nid += 1
        vertices[nid] = DVertex(nid, True, component=name)
        l_id[name] = nid
    for ip, pt in enumerate(singular_points(s)):
        if mode == "min" and pt.is_odp:
            n1, n2 = pt.branch_names
            for _copy in range(pt.class_size):
                edges.append((l_id[n1], l_id[n2]))
            continue
        res = glued[ip] = resolutions.get(ip) or point_resolution(s, ip)
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
                if arrow.tag in l_id:
                    edges.append((gid[arrow.vertex], l_id[arrow.tag]))
                else:
                    arrows.append((gid[arrow.vertex], None))
    graph = DecoratedGraph(mode, vertices, edges, arrows, glued)
    return l_node_self_int(graph, s)


def l_node_self_int(graph, s):
    """Fill in L-vertex self-intersections via the principal-divisor identity
    for a generic linear form (multiplicity 1 on every L-curve)."""
    mult_l1 = {}
    for v in graph.vertices.values():
        if v.is_L:
            mult_l1[v.id] = 1
        else:
            pt = singular_points(s)[v.point]
            mult_l1[v.id] = graph.resolutions[v.point].track(
                pt.h_local)[v.local_id]
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

def _linear_form_track(res):
    """m_E(l) of a generic linear form l = v + t*w on every curve E: a
    valuation has nu(v + t*w) >= min(nu(v), nu(w)), with equality for all t
    but at most one, so m_E(l) = min(m_E(v), m_E(w)) exactly."""
    m_v, m_w = (res.track(MPoly.var(QQ, GERM_VARS, x)) for x in GERM_VARS)
    return {rid: min(m_v[rid], m_w[rid]) for rid in res.curves}


def inner_rates(graph, s):
    """Annotate nodes with inner rates m_E(l)/m_E(h) + 1; L-vertices get 1.

    The valuations are read off the resolutions `build_gamma` glued in.
    """
    if graph.mode != "inner":
        raise ValueError("inner rates require a graph built with mode='inner'")
    for v in graph.l_vertices():
        v.rate = Fraction(1)
    points = singular_points(s)
    for ip, res in graph.resolutions.items():
        h = points[ip].h_local
        local = res.dual_graph()
        node_reps = {local.rep_of[i] for i in detect_nodes(local, h)}
        if not node_reps:
            continue
        m_l, m_h = _linear_form_track(res), res.track(h)
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

    The sum runs in integer term dicts over one common denominator: with
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
    fpow, gpow = [{(0, 0): 1}], [{(0, 0): 1}]
    for _ in range(K - m):
        fpow.append(_zz_mul(fpow[-1], ft))
        gpow.append(_zz_mul(gpow[-1], gt))
    summands = []  # (denominator, integral numerator) of term k
    for k, part in parts.items():
        dk, gk = to_zz(dehomogenize(part, chart))
        summands.append((df ** (k - m) * dg ** (K - k) * dk,
                         _zz_mul(_zz_mul(fpow[k - m], gpow[K - k]), gk)))
    den = math.lcm(*(d for d, _ in summands))
    total = {}
    for d, a in summands:
        for e, c in a.items():
            total[e] = total.get(e, 0) + den // d * c
    M = from_zz({e: c for e, c in total.items() if c}, GERM_VARS,
                scale=Fraction(1, den))
    if not M:
        raise ZeroOnComponent("function vanishes identically on the surface")
    s._pullbacks[key] = m, M
    return m, M


def local_numerator(s, pt, G):
    """(m, M_loc): the factored pullback numerator of G moved to the
    singular point pt, once per (G, point).

    pt.h_local is f~ moved to the point, times a unit, so the numerator
    there is h_local^m * M_loc times a unit.  A valuation is additive and
    zero on a unit: along every exceptional curve E, nu_E of the numerator
    is m * nu_E(h_local) + nu_E(M_loc).
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
            res = graph.resolutions[v.point]
            m, Mloc = local_numerator(s, pt, G)
            out[v.id] = (m * res.track(pt.h_local)[v.local_id]
                         + res.track(Mloc)[v.local_id])
    if name is not None:
        for vid, m in out.items():
            graph.vertices[vid].mult[name] = m
    return out
