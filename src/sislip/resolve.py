"""Minimal embedded resolution of reduced plane-curve germs.

The engine blows up points by the two standard charts (v,w) -> (v, v*w) and
(v,w) -> (v*w, v), translating each center to the chart origin (extending the
field when the center is irrational) and recursing until the total transform
has normal crossings.  Galois-conjugate centers are resolved once on a
representative; the dual graph expands each curve into its conjugate copies.

Valuations m_E(g) of arbitrary germs are computed afterwards by replaying the
recorded chart maps (``track``/``mult_along``), so the structural pass depends
only on the curve itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import scalar as _sc
from .errors import (
    CenterNotOnDivisor,
    CommonComponent,
    CurveUnknown,
    FieldExtensionFailure,
    GenericityAlarm,
    NonReduced,
    TowerDepthExceeded,
    ZeroPolynomial,
)
from .poly import (
    MPoly,
    _uni_gcd,
    adjoin_root,
    factor_coeff_list,
    is_squarefree,
    mgcd,
    resultant,
    univariate_coeffs,
)
from .scalar import FieldCtx, is_zero, join

GERM_VARS = ("v", "w")
MAX_BLOWUP_DEPTH = 200


# ---------------------------------------------------------------------------
# chart substitutions, specialized to the fixed germ variables

def _subst_f(p):
    """(v,w) -> (v, v*w): exponent (i,j) -> (i+j, j)."""
    terms = {}
    for (i, j), c in p.terms.items():
        terms[(i + j, j)] = c
    return MPoly(p.ctx, p.vars, terms)


def _subst_i(p):
    """(v,w) -> (v*w, v): exponent (i,j) -> (i+j, i)."""
    terms = {}
    for (i, j), c in p.terms.items():
        terms[(i + j, i)] = c
    return MPoly(p.ctx, p.vars, terms)


def _strip_v(p):
    """(p / v^k, k) with k the exact power of v dividing p."""
    if not p:
        raise ZeroPolynomial("cannot strip exceptional factor from 0")
    k = min(e[0] for e in p.terms)
    if k == 0:
        return p, 0
    terms = {(i - k, j): c for (i, j), c in p.terms.items()}
    return MPoly(p.ctx, p.vars, terms), k


def _restrict_to_exc(p):
    """Coefficient list in w of p(0, w)."""
    coeffs = {}
    for (i, j), c in p.terms.items():
        if i == 0:
            coeffs[j] = c
    if not coeffs:
        return []
    out = [Fraction(0)] * (max(coeffs) + 1)
    for j, c in coeffs.items():
        out[j] = c
    return _sc._trim(out)


def _centres(charts, ctx):
    """[(q, mu, tag)]: the monic irreducible factors q over ctx of the
    restrictions to the new curve, each with its multiplicity mu there and
    the tag of the first branch it divides.

    Each tag's restriction is factored on its own, and equal factors are
    merged by adding their exponents: factorization is unique, so that is
    the factorization of the product of the restrictions.  A factor with
    mu = 1 divides exactly one of them, the one its tag names.
    """
    out = []
    for tag, p in charts.items():
        for qc, k in factor_coeff_list(_restrict_to_exc(p), ctx):
            same = next((c for c in out if c[0] == qc), None)
            if same is None:
                out.append([qc, k, tag])
            else:
                same[1] += k
    return out


# ---------------------------------------------------------------------------
# domain types

@dataclass
class GermCurve:
    """A reduced plane-curve germ h(v,w) = 0 at the origin."""

    ctx: FieldCtx
    h: MPoly

    def __post_init__(self):
        if self.h.vars != GERM_VARS:
            self.h = self.h.rename_vars(GERM_VARS) if len(self.h.vars) == 2 else self.h
        if self.h.vars != GERM_VARS:
            raise ValueError(f"germ must live in {GERM_VARS}")
        if not self.h or self.h.order_at_origin() < 1:
            raise CenterNotOnDivisor("germ does not pass through the origin")
        if not is_squarefree(self.h):
            raise NonReduced("germ is not reduced")


@dataclass
class ExcCurve:
    id: int
    self_int: int
    birth_step: int
    abs_degree: int  # absolute degree over Q of the field at birth
    ratio: int       # number of Galois-conjugate copies over the germ base


class PatchNode:
    """One blow-up event; children are the further centers on the new curve."""

    __slots__ = ("a_id", "b_id", "new_id", "children")

    def __init__(self, a_id, b_id, new_id):
        self.a_id = a_id
        self.b_id = b_id
        self.new_id = new_id
        self.children = []  # (chart 'F'|'I', c, ctx, PatchNode)


@dataclass
class Arrow:
    vertex: int | None  # None only for the smooth-germ convention
    tag: str


@dataclass
class DualGraph:
    vertices: dict          # expanded id -> self-intersection
    edges: set              # frozensets of expanded ids
    arrows: list            # Arrow
    rep_of: dict            # expanded id -> representative curve id

    def valency(self, vid):
        d = sum(1 for e in self.edges if vid in e)
        return d + sum(1 for a in self.arrows if a.vertex == vid)

    def neighbors(self, vid):
        out = []
        for e in self.edges:
            if vid in e:
                (u,) = set(e) - {vid}
                out.append(u)
        return out


class Resolution:
    """Minimal embedded resolution of a tagged product of germ factors.

    The factors must be reduced and pairwise coprime at the origin; this is
    a precondition, not checked up front.  Callers meet it by construction
    (``resolve_germ`` validates a bare germ first).  A germ that breaks it
    never resolves: when the engine gives up at its depth or tower cap, the
    product is tested and ``NonReduced`` is raised if it has a repeated
    factor, else the ``FieldExtensionFailure`` or ``TowerDepthExceeded``
    stands.  A repeated factor that is a unit at the origin, as in
    v*(w-1)^2, leaves the germ reduced there, and it resolves.
    """

    def __init__(self, factors, ctx):
        self.base_ctx = ctx
        self.factors = dict(factors)
        self.curves = {}       # rep id -> ExcCurve
        self.edges = set()     # frozensets of rep ids
        self.arrows = []       # (rep id, tag, conjugate-count)
        self._next = 1
        self._step = 0
        self._mult_cache = {}
        self._graph = None
        order = 0
        for tag, p in self.factors.items():
            if not p or p.order_at_origin() < 1:
                raise CenterNotOnDivisor(f"factor {tag!r} misses the origin")
            order += p.order_at_origin()
        self.root = None
        if order >= 2:
            try:
                self.root = self._blow(self.factors, ctx, None, None, 0)
            except (FieldExtensionFailure, TowerDepthExceeded) as exc:
                # a non-reduced germ keeps a point of multiplicity >= 2 on
                # every level, so it always ends here; tell it from a
                # reduced germ that is merely too deep
                if not is_squarefree(math.prod(self.factors.values())):
                    raise NonReduced("germ is not reduced") from exc
                raise
        else:
            # smooth germ: nothing to do; single free arrow by convention
            (tag,) = self.factors.keys()
            self.arrows.append((None, tag, 1))

    # -- structural pass ----------------------------------------------------

    def _blow(self, factors, ctx, a_id, b_id, depth):
        if depth > MAX_BLOWUP_DEPTH:
            raise FieldExtensionFailure("blow-up recursion exceeded depth cap")
        z_new = ctx.degree()
        for bid in (a_id, b_id):
            if bid is not None:
                self.curves[bid].self_int -= z_new // self.curves[bid].abs_degree
        if a_id is not None and b_id is not None:
            # the corner point separates its two curves
            self.edges.discard(frozenset((a_id, b_id)))
        new_id = self._next
        self._next += 1
        self._step += 1
        self.curves[new_id] = ExcCurve(
            new_id, -1, self._step, z_new, z_new // self.base_ctx.degree()
        )
        for bid in (a_id, b_id):
            if bid is not None:
                self.edges.add(frozenset((new_id, bid)))
        node = PatchNode(a_id, b_id, new_id)

        # chart (v,w) -> (v, v*w): all directions except the v-axis
        f_charts = {tag: _strip_v(_subst_f(p))[0] for tag, p in factors.items()}
        for qc, mu, tag in _centres(f_charts, ctx):
            at_origin = len(qc) == 2 and is_zero(qc[0])
            corner = at_origin and b_id is not None
            if mu == 1 and not corner:
                self.arrows.append((new_id, tag, len(qc) - 1))
                continue
            ctx2, c = adjoin_root(ctx, qc)
            child_factors = {
                tag: p.lift(ctx2).shift("w", c) for tag, p in f_charts.items()
            }
            child = self._blow(
                child_factors, ctx2, new_id, b_id if at_origin else None, depth + 1
            )
            node.children.append(("F", c, ctx2, child))

        # chart (v,w) -> (v*w, v): only the v-axis direction (origin of chart)
        i_charts = {tag: _strip_v(_subst_i(p))[0] for tag, p in factors.items()}
        mu0 = 0
        hit = None
        for tag, p in i_charts.items():
            cs = _restrict_to_exc(p)
            k = next((j for j, c in enumerate(cs) if not is_zero(c)), None)
            if k:
                mu0 += k
                hit = tag
        if mu0 == 1 and a_id is None:
            self.arrows.append((new_id, hit, 1))
        elif mu0 >= 1:
            child = self._blow(i_charts, ctx, new_id, a_id, depth + 1)
            node.children.append(("I", Fraction(0), ctx, child))
        return node

    # -- dual graph with conjugate copies expanded ---------------------------

    def dual_graph(self):
        if self._graph is not None:
            return self._graph
        eid = {}
        vertices = {}
        rep_of = {}
        n = 0
        for rid in sorted(self.curves):
            cv = self.curves[rid]
            for j in range(cv.ratio):
                n += 1
                eid[(rid, j)] = n
                vertices[n] = cv.self_int
                rep_of[n] = rid
        edges = set()
        for e in self.edges:
            a, b = sorted(e, key=lambda r: self.curves[r].ratio)
            ra, rb = self.curves[a].ratio, self.curves[b].ratio
            k = rb // ra
            for j in range(rb):
                edges.add(frozenset((eid[(b, j)], eid[(a, j // k)])))
        arrows = []
        for rid, tag, count in self.arrows:
            if rid is None:
                arrows.append(Arrow(None, tag))
                continue
            for j in range(self.curves[rid].ratio):
                for _ in range(count):
                    arrows.append(Arrow(eid[(rid, j)], tag))
        self._graph = DualGraph(vertices, edges, arrows, rep_of)
        return self._graph

    # -- valuation replay ----------------------------------------------------

    def track(self, g):
        """Valuation m_E(g) for every curve E; returns {rep id: int}."""
        if g in self._mult_cache:
            return self._mult_cache[g]
        out = {}
        if self.root is not None:
            if not g:
                raise ZeroPolynomial("valuation of the zero germ")
            self._walk(self.root, g.lift(join(g.ctx, self.base_ctx)),
                       None, None, out)
        self._mult_cache[g] = out
        return out

    def _walk(self, node, g_red, a_id, b_id, out):
        m = g_red.order_at_origin() if g_red else 0
        if a_id is not None:
            m += out[a_id]
        if b_id is not None:
            m += out[b_id]
        out[node.new_id] = m
        for chart, c, ctx2, child in node.children:
            if chart == "F":
                big, _ = _strip_v(_subst_f(g_red))
                if is_zero(c):
                    self._walk(child, big, node.new_id, b_id, out)
                else:
                    big = big.lift(ctx2).shift("w", c)
                    if b_id is not None:
                        # keep the (now unit) old-axis factor in the reduced germ
                        unit = MPoly.var(ctx2, GERM_VARS, "w") + MPoly.const(
                            ctx2, GERM_VARS, c
                        )
                        big = big * unit ** out[b_id]
                    self._walk(child, big, node.new_id, None, out)
            else:
                big, _ = _strip_v(_subst_i(g_red))
                self._walk(child, big, node.new_id, a_id, out)

    def mult_along(self, curve, g):
        """Valuation along one curve; accepts expanded or representative ids."""
        graph = self.dual_graph()
        rid = graph.rep_of.get(curve, curve)
        if rid not in self.curves:
            raise CurveUnknown(f"no exceptional curve {curve!r}")
        return self.track(g)[rid]


def resolve_germ(germ, ctx=None, factors=None):
    """Resolve a GermCurve (or raw MPoly); returns a Resolution.

    A bare germ (no ``factors``) is checked here, once, as a ``GermCurve``:
    ``CenterNotOnDivisor`` if it misses the origin, then ``NonReduced``.  A
    ``GermCurve`` was checked when it was built.  ``factors`` optionally
    names the components whose strict-transform branches should be tagged
    on the arrows; their product must equal the germ up to a unit, and they
    must be reduced and pairwise coprime (see ``Resolution``).  With
    ``factors`` and ``ctx`` given, the germ is not read and may be None.
    """
    if isinstance(germ, GermCurve) or ctx is None:
        ctx = germ.ctx
    if factors is None:
        if not isinstance(germ, GermCurve):
            germ = GermCurve(ctx, germ)
        factors = {"h": germ.h}
    return Resolution(factors, ctx)


# ---------------------------------------------------------------------------
# single blow-up (chart-level view, used for spot checks)

@dataclass
class BlowupCharts:
    mult: int
    chart_f: MPoly  # strict transform under (v,w) -> (v, v*w)
    chart_i: MPoly  # strict transform under (v,w) -> (v*w, v)


def blow_up(h, center=(0, 0)):
    """One blow-up of the germ h at a point, returning both charts."""
    cv, cw = center
    h = h.shift("v", cv).shift("w", cw)
    if not h or h.order_at_origin() < 1:
        raise CenterNotOnDivisor("center is not on the curve")
    sf, mf = _strip_v(_subst_f(h))
    si, mi = _strip_v(_subst_i(h))
    assert mf == mi == h.order_at_origin()
    return BlowupCharts(mf, sf, si)


# ---------------------------------------------------------------------------
# intersection multiplicity at the origin

_SHEAR_LIMIT = 24


def intersection_mult(h1, h2):
    """Intersection multiplicity of two coprime germs at the origin."""
    f = h1.h if isinstance(h1, GermCurve) else h1
    g = h2.h if isinstance(h2, GermCurve) else h2
    if not f or not g:
        raise ZeroPolynomial("intersection with the zero germ")
    if mgcd(f, g).total_degree() > 0:
        raise CommonComponent("germs share a component")
    if f.order_at_origin() == 0 or g.order_at_origin() == 0:
        return 0
    ctx = join(f.ctx, g.ctx)
    v = MPoly.var(ctx, f.vars, "v")
    w = MPoly.var(ctx, f.vars, "w")
    for lam in range(_SHEAR_LIMIT):
        env = {"v": v + lam * w, "w": w}
        fs = f.evaluate(env) if lam else f.lift(ctx)
        gs = g.evaluate(env) if lam else g.lift(ctx)
        if not _w_regular(fs) or not _w_regular(gs):
            continue
        f0 = univariate_coeffs(fs.set_var("v", 0), "w")
        g0 = univariate_coeffs(gs.set_var("v", 0), "w")
        shared = _uni_gcd(f0, g0)
        # all common zeros on the line v=0 must sit at the origin
        if any(not is_zero(c) for c in shared[:-1]):
            continue
        res = resultant(fs, gs, "w")
        if not res:
            raise CommonComponent("resultant vanished identically")
        return res.order_in("v")
    raise GenericityAlarm("no shear separated the germs")


def _w_regular(p):
    """deg_w p is attained on the pure w-axis monomial."""
    d = p.degree_in("w")
    lead = p.coeff_of("w", d)
    return not is_zero(lead.terms.get((0, 0), Fraction(0)))


# ---------------------------------------------------------------------------
# nodes of the dual graph

def detect_nodes(graph, germ):
    """Vertices of valency >= 3 (arrows included), plus the root vertex when
    the germ's tangent cone has at least two distinct lines."""
    if not graph.vertices:
        return set()
    nodes = {vid for vid in graph.vertices if graph.valency(vid) >= 3}
    h = germ.h if isinstance(germ, GermCurve) else germ
    if not _one_tangent_line(h):
        nodes.add(min(graph.vertices))
    return nodes


def _one_tangent_line(h):
    """Whether the tangent cone of h is a single line, with no gcd.

    The cone is sum c_j v^(m-j) w^j.  A single monomial v^a w^b is one line
    exactly when a or b is 0.  Any other single line is c_0 (v + r w)^m with
    r != 0, so every c_j is nonzero and r = c_1 / (m c_0): the cone is one
    line exactly when c_0 is nonzero and c_j (m c_0)^j = c_0 C(m, j) c_1^j
    for every j, which needs no inverse.  (These equations already fail
    when c_m = 0, since two monomials are present.)
    """
    tc = h.tangent_cone().terms
    if len(tc) == 1:
        ((a, b),) = tc
        return a == 0 or b == 0
    m = h.order_at_origin()
    c = [tc.get((m - j, j), 0) for j in range(m + 1)]
    if is_zero(c[0]):
        return False
    mc0, lhs, rhs = m * c[0], 1, 1  # lhs, rhs: (m c_0)^j and c_1^j
    for j in range(1, m + 1):
        lhs, rhs = lhs * mc0, rhs * c[1]
        if c[j] * lhs != c[0] * math.comb(m, j) * rhs:
            return False
    return True
