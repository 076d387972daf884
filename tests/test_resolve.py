"""Plane-curve germ resolution: fixed oracles and chart-level checks."""

from fractions import Fraction

import pytest
from util import binomial_resolution_oracle, intersection_matrix, \
    is_negative_definite

from sislip.errors import (
    CenterNotOnDivisor,
    CommonComponent,
    FieldExtensionFailure,
    NonReduced,
    TowerDepthExceeded,
)
from sislip.poly import parse_poly
from sislip.resolve import (
    GermCurve,
    blow_up,
    detect_nodes,
    intersection_mult,
    resolve_germ,
)
from sislip.scalar import QQ, as_scalar, extend_field

VW = ("v", "w")


def P(text):
    return parse_poly(text, vars=VW)


def graph_of(expr):
    res = resolve_germ(P(expr))
    return res, res.dual_graph()


# ---------------------------------------------------------------------------
# fixed resolutions

def test_node():
    res, g = graph_of("v*w")
    assert list(g.vertices.values()) == [-1]
    assert not g.edges
    assert len(g.arrows) == 2


def test_cusp_chain():
    res, g = graph_of("v^3 + w^2")
    assert sorted(g.vertices.values()) == [-3, -2, -1]
    m = res.track(P("v^3 + w^2"))
    assert m == {1: 2, 2: 3, 3: 6}
    # the curve with self-intersection -1 carries the arrow
    (arrow,) = g.arrows
    assert g.vertices[arrow.vertex] == -1
    assert g.edges == {frozenset((1, 3)), frozenset((2, 3))}


def test_cusp_mult_along():
    res, _g = graph_of("v^3 + w^2")
    minus_one = next(i for i, s in res.curves.items() if s.self_int == -1)
    assert res.mult_along(minus_one, P("v^3 + w^2")) == 6
    assert res.mult_along(minus_one, P("v")) == 2


def test_exp_2_5():
    res, g = graph_of("v^2 + w^5")
    assert sorted(g.vertices.values()) == [-3, -2, -2, -1]
    m = res.track(P("v^2 + w^5"))
    assert sorted(m.values()) == [2, 4, 5, 10]


def test_tacnode():
    # (w - v^2)(w + v^2): two smooth branches with contact 2
    res, g = graph_of("w^2 - v^4")
    assert sorted(g.vertices.values()) == [-2, -1]
    assert len(g.arrows) == 2
    assert all(g.vertices[a.vertex] == -1 for a in g.arrows)


def test_smooth_germ_convention():
    res, g = graph_of("w + v^2")
    assert not g.vertices and not g.edges
    assert len(g.arrows) == 1 and g.arrows[0].vertex is None


def test_conjugate_directions_expand():
    # w^2 - 2 v^2: two branches conjugate over Q(sqrt 2); one blow-up,
    # one representative arrow that expands to two
    res, g = graph_of("w^2 - 2*v^2")
    assert list(g.vertices.values()) == [-1]
    assert len(g.arrows) == 2


def test_conjugate_cusps_quartic():
    # (v^3 + w^2)(v^3 + 2 w^2): cusp pair, shared first curves
    res, g = graph_of("(v^3 + w^2)*(v^3 + 2*w^2)")
    assert sorted(g.vertices.values()) == [-3, -2, -1]
    assert len(g.arrows) == 2


def test_irrational_centres_blown_up_over_extension():
    # (w^2 - 2 v^2)^2 + v^5: two tacnode-like branches along w = +-sqrt(2) v;
    # their centres are blown up once more over Q(sqrt 2)
    res, g = graph_of("(w^2 - 2*v^2)^2 + v^5")
    assert sorted(g.vertices.values()) == [-5, -2, -2, -1, -1]
    assert len(g.edges) == 4
    assert len(g.arrows) == 2
    assert set(res.track(P("(w^2 - 2*v^2)^2 + v^5")).values()) == {4, 5, 10}
    fields = {ctx for _chart, _c, ctx, _child in res.root.children}
    assert [ctx.gen_names() for ctx in fields] == [("a1",)]


def test_irrational_centre_over_field_with_generator_named_a2():
    # the default generator name a2 is taken by the base field's own level
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)],
                       name="a2")
    h = parse_poly("(w^2 - 3*v^2)^2 + v^5", ctx=ctx, vars=VW)
    res = resolve_germ(h, ctx)
    assert sorted(res.dual_graph().vertices.values()) == [-5, -2, -2, -1, -1]
    fields = {ctx2 for _chart, _c, ctx2, _child in res.root.children}
    assert [ctx2.gen_names() for ctx2 in fields] == [("a2", "a2_")]


def test_irrational_centre_past_tower_cap():
    # over Q(sqrt 2)(sqrt 3) the centres w = +-sqrt(5) v need a third level
    r2 = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    ctx = extend_field(r2, [as_scalar(r2, -3), as_scalar(r2, 0),
                            as_scalar(r2, 1)])
    h = parse_poly("(w^2 - 5*v^2)^2 + v^5", ctx=ctx, vars=VW)
    with pytest.raises(TowerDepthExceeded):
        resolve_germ(h, ctx)
    # the square is caught up front, and by the engine when it gives up
    with pytest.raises(NonReduced):
        resolve_germ(h * h, ctx)
    with pytest.raises(NonReduced):
        resolve_germ(None, ctx, factors={"h": h * h})


def test_factor_tags():
    res = resolve_germ(P("(v^3 + w^2)*w"), factors={
        "cusp": P("v^3 + w^2"), "axis": P("w"),
    })
    tags = sorted(t for _v, t, _k in res.arrows)
    assert tags == ["axis", "cusp"]


@pytest.mark.parametrize("branches,self_ints,edges,arrows", [
    # both conics restrict to w^2 - 2 on the first curve: one centre over
    # Q(sqrt 2) with multiplicity 2, two conjugate curves, two arrows each
    (["w^2 - 2*v^2", "w^2 - 2*v^2 + v^3"], [-3, -1, -1], 2, {"b0": 2, "b1": 2}),
    # b0 and b1 restrict to w - 1, b2 to w + 1
    (["w - v", "w - v + v^2", "w + v"], [-2, -1], 1, {"b0": 1, "b1": 1, "b2": 1}),
])
def test_merged_branches(branches, self_ints, edges, arrows):
    # branches through one centre of a blow-up: their factors merge, and the
    # multiplicity there is the sum of their exponents
    factors = {f"b{i}": P(text) for i, text in enumerate(branches)}
    h = P("*".join(f"({text})" for text in branches))
    for res in (resolve_germ(h), resolve_germ(h, QQ, factors=factors)):
        g = res.dual_graph()
        assert sorted(g.vertices.values()) == self_ints
        assert len(g.edges) == edges
        assert len(g.arrows) == sum(arrows.values())
    tags = [a.tag for a in g.arrows]
    assert {t: tags.count(t) for t in tags} == arrows


def test_nonreduced_rejected():
    with pytest.raises(NonReduced):
        resolve_germ(P("w^2"))
    with pytest.raises(CenterNotOnDivisor):
        resolve_germ(P("w + 1"))
    # factor dicts are trusted up front; a repeated factor is diagnosed when
    # the engine gives up, so the error is still NonReduced
    with pytest.raises(NonReduced):
        resolve_germ(P("w^2"), factors={"a": P("w"), "b": P("w")})
    with pytest.raises(NonReduced):
        resolve_germ(P("w^2"), factors={"h": P("w^2")})
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    a = parse_poly("(w^2 - a1*v^3)^2", ctx=ctx, vars=VW)
    b = parse_poly("w + v", ctx=ctx, vars=VW)
    with pytest.raises(NonReduced):
        resolve_germ(a * b, ctx, factors={"a": a, "b": b})
    # a reduced germ past the depth cap is not misreported as non-reduced
    with pytest.raises(FieldExtensionFailure):
        resolve_germ(P("v^401 + w^2"))
    # a repeated factor that is a unit at the origin leaves the germ reduced
    # there: as a factor it resolves to one free arrow (the branch v = 0),
    # while the bare germ is checked whole, up front
    with pytest.raises(NonReduced):
        resolve_germ(P("v*(w-1)^2"))
    res = resolve_germ(P("v*(w-1)^2"), factors={"a": P("v*(w-1)^2")})
    g = res.dual_graph()
    assert not g.vertices
    assert [(arr.vertex, arr.tag) for arr in g.arrows] == [(None, "a")]


# ---------------------------------------------------------------------------
# binomial oracle spot checks (the big randomized sweep is in acceptance)

@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (5, 7), (11, 12)])
def test_binomial_matches_integer_oracle(p, q):
    res = resolve_germ(P(f"v^{p} + w^{q}"))
    g = res.dual_graph()
    curves, edges, arrows, val = binomial_resolution_oracle(p, q)
    assert dict(g.vertices) == curves
    assert g.edges == edges
    assert sorted(a.vertex for a in g.arrows) == sorted(arrows)
    assert res.track(P(f"v^{p} + w^{q}")) == val


@pytest.mark.parametrize("expr", ["v^3 + w^2", "v^2 + w^5", "w^2 - v^4",
                                  "(v^3 + w^2)*(v^3 + 2*w^2)", "v*w"])
def test_intersection_matrices_negative_definite(expr):
    _res, g = graph_of(expr)
    M, _ids = intersection_matrix(dict(g.vertices), g.edges)
    assert is_negative_definite(M)


# ---------------------------------------------------------------------------
# single blow-up charts

def test_blow_up_charts_of_cusp():
    charts = blow_up(P("v^3 + w^2"))
    assert charts.mult == 2
    assert charts.chart_f == P("v + w^2")      # (v, vw): v^3+v^2w^2 -> strip
    assert charts.chart_i == P("v*w^3 + 1")    # (vw, v)


def test_blow_up_off_origin_center():
    with pytest.raises(CenterNotOnDivisor):
        blow_up(P("v^3 + w^2"), center=(1, 1))
    charts = blow_up(P("(v-1)^3 + w^2"), center=(Fraction(1), Fraction(0)))
    assert charts.mult == 2


# ---------------------------------------------------------------------------
# intersection multiplicity

def test_intersection_mult_examples():
    assert intersection_mult(P("w"), P("v")) == 1
    assert intersection_mult(P("w"), P("v^3 + w^2")) == 3
    assert intersection_mult(P("v"), P("v^3 + w^2")) == 2
    assert intersection_mult(P("w - v^2"), P("w + v^2")) == 2


def test_intersection_mult_common_component():
    with pytest.raises(CommonComponent):
        intersection_mult(P("v*w"), P("w*(v + w)"))


def test_intersection_mult_symmetry():
    a, b = P("v^2 + w^3"), P("v^3 + w^2")
    assert intersection_mult(a, b) == intersection_mult(b, a)


# ---------------------------------------------------------------------------
# nodes

def test_detect_nodes_cusp():
    res, g = graph_of("v^3 + w^2")
    nodes = detect_nodes(g, P("v^3 + w^2"))
    assert {g.vertices[n] for n in nodes} == {-1}


def test_detect_nodes_two_tangent_lines():
    res, g = graph_of("v*w")
    assert detect_nodes(g, P("v*w")) == {1}


def test_germ_curve_validation():
    with pytest.raises(NonReduced):
        GermCurve(QQ, P("v^2*w"))
    with pytest.raises(CenterNotOnDivisor):
        GermCurve(QQ, P("v + 1"))
