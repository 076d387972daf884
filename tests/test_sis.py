"""Surface pipeline: validation, singular points, decorated graphs, rates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import (
    benchmark_pool,
    graph_matrix,
    is_negative_definite,
    sampled_linear_track,
    whole_curve_singular_points,
)

from sislip import polar, scalar, sis
from sislip.errors import (
    DegreeMismatch,
    NotHomogeneous,
    NotSuperisolated,
    TangentConeNotReduced,
    ZeroOnComponent,
)
from sislip.poly import (
    MPoly,
    exact_div,
    is_squarefree,
    mgcd,
    multiplicity_of_factor,
    parse_poly,
    resultant,
)
from sislip.resolve import GERM_VARS, detect_nodes
from sislip.scalar import QQ, extend_field, is_zero

AV = ("x", "y", "z")


def A(text):
    return parse_poly(text, vars=AV)


# ---------------------------------------------------------------------------
# validation

def test_validate_accepts_cuspidal_cubic(s_cubic):
    assert s_cubic.d == 3
    assert s_cubic.g == A("x^4")  # g = -f_{d+1} with f_4 = -x^4


def test_validate_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        sis.validate(A("x^2 + x"), A("x^3"))


def test_validate_rejects_bad_degrees():
    with pytest.raises(DegreeMismatch):
        sis.validate(A("x^2 + y*z"), A("x^5 + y^5"))
    with pytest.raises(DegreeMismatch):
        sis.from_polynomial(A("x^2 + y*z + x^5 + y^5"))


def test_validate_rejects_nonreduced_cone():
    for f_d, f_dplus1 in [
        ("x^2*y", "x^4 + y^4 + z^4"),
        # non-reduced and sharing a component with f_{d+1}: reducedness first
        ("(x + y)^2*z", "(x + y)*x^3"),
        # a constant content does not hide the repeated factor
        ("2*(x + y)^2*z", "x^4 + y^4 + z^4"),
    ]:
        with pytest.raises(TangentConeNotReduced):
            sis.validate(A(f_d), A(f_dplus1))


def test_validate_rejects_shared_component():
    with pytest.raises(NotSuperisolated):
        sis.validate(A("x*y^2 + x^3"), A("x*(x^3 + y^3 + z^3)"))


CONICS_4 = "(y*z - x^2)*(x*z - y^2 + 3*z^2)"


@pytest.mark.parametrize("text, point", [
    # the cusp of y^3 + x z^2 at [1:0:0], where y^4 vanishes
    ("y^3 + x*z^2 - y^4", None),
    # a Q(a) class of four points C1 n C2, each on the quintic or on none
    (f"{CONICS_4} + (y*z - x^2)*x^3 + (x*z - y^2 + 3*z^2)*y^3", None),
    (f"{CONICS_4} + (x + y + z)^5", (0, 4)),
    # three lines through [0:1:0], a point of chart 1
    ("x*z*(x - z) + x^4 + z^4", None),
    ("x*z*(x - z) + y^4", (1, 1)),
    # three lines through [0:0:1], chart 2
    ("x*y*(x - y) + x^4 + y^4", None),
    ("x*y*(x - y) + z^4", (2, 1)),
], ids=["cusp_rejected", "conjugate_class_rejected", "conjugate_class",
        "chart_1_rejected", "chart_1", "chart_2_rejected", "chart_2"])
def test_validate_rejects_sing_point_on_next_form(text, point):
    # validate() evaluates g~ at a representative of every point class;
    # `point` is (chart, class size) of a class the accepted twin keeps
    if point is None:
        with pytest.raises(NotSuperisolated,
                           match=r"lies on the degree-\(d\+1\) curve"):
            sis.from_polynomial(A(text))
        return
    pts = sis.singular_points(sis.from_polynomial(A(text)))
    assert point in [(pt.chart, pt.class_size) for pt in pts]


# ---------------------------------------------------------------------------
# charts

@st.composite
def forms(draw):
    """A homogeneous form in (x, y, z) of degree 0-4, rational coefficients."""
    d = draw(st.integers(0, 4))
    monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-5, 5),
                                     st.integers(1, 6)),
                           min_size=len(monos), max_size=len(monos)))
    return MPoly(QQ, AV, {e: c for e, c in zip(monos, coeffs) if c})


@settings(max_examples=100, deadline=None)
@given(p=forms(), q=forms(), chart=st.sampled_from((0, 1, 2)))
def test_dehomogenize_is_substitution(p, q, chart):
    # the substitution (x, y, z) -> (1, v, w), (v, 1, w), (v, w, 1) through
    # MPoly.evaluate, an independent oracle; p + q may be inhomogeneous,
    # and then its colliding terms are summed
    targets = [MPoly.var(QQ, GERM_VARS, "v"), MPoly.var(QQ, GERM_VARS, "w")]
    targets.insert(chart, MPoly.const(QQ, GERM_VARS, 1))
    for h in (p, p + q):
        assert sis.dehomogenize(h, chart) == h.evaluate(dict(zip(AV, targets)))


# ---------------------------------------------------------------------------
# singular points

def test_cubic_single_cusp_point(s_cubic):
    pts = sis.singular_points(s_cubic)
    assert len(pts) == 1
    (pt,) = pts
    assert pt.chart == 0 and pt.class_size == 1
    assert pt.h_local.order_at_origin() == 2
    assert not pt.is_odp  # a cusp, not a node
    # names are repeated by local order, not by branch count
    assert pt.branch_names == ["C1", "C1"]


def test_two_cubics_point_classes(s_two_cubics):
    pts = sis.singular_points(s_two_cubics)
    sizes = sorted(p.class_size for p in pts)
    assert sizes == [1, 1, 4]
    odps = [p for p in pts if p.is_odp]
    # the rational node and the size-4 conjugacy class are ordinary
    assert sorted(p.class_size for p in odps) == [1, 4]
    deep = next(p for p in pts if not p.is_odp)
    assert deep.chart == 2
    assert sorted(deep.branch_names) == ["C1", "C1", "C2", "C2"]


@pytest.mark.parametrize("surface", ["s_cubic", "s_two_cubics", "s_pair_a"])
def test_local_factors_reduced_and_coprime(surface, request):
    # the resolution engine trusts its factors to be reduced and pairwise
    # coprime; validate() proves it for the tangent cone over Q, and the
    # localization (field extension, translation) must preserve it
    s = request.getfixturevalue(surface)
    for ip, pt in enumerate(sis.singular_points(s)):
        locs = list(pt.local_factors.values())
        assert is_squarefree(math.prod(locs))
        for i, p in enumerate(locs):
            for q in locs[i + 1:]:
                assert mgcd(p, q).total_degree() == 0
        # h_local is f~ at the point up to a unit of the local ring, so
        # the resolution reads the same valuations off either
        f_loc = pt.localize(sis.dehomogenize(s.f, pt.chart))
        unit = exact_div(f_loc, pt.h_local)
        assert unit is not None and unit.order_at_origin() == 0
        res = sis.point_resolution(s, ip)
        assert res.track(f_loc) == res.track(pt.h_local)


def test_vertical_inflection_is_not_singular():
    # Res_w(w^3 - v, 3w^2) = 27v^2 has a double root at v = 0, but the
    # curve is smooth there: its tangent is vertical, with contact 3
    F = parse_poly("w^3 - v", vars=GERM_VARS)
    assert resultant(F, F.derivative("w"), "w").order_in("v") == 2
    assert list(sis._affine_singularities(F)) == []


def test_node_of_discriminant_order_two_is_kept():
    # a node is the least singular point: the discriminant vanishes to
    # order exactly m(m - 1) = 2 under it
    F = parse_poly("w^2 - v^2 - v^3", vars=GERM_VARS)
    assert resultant(F, F.derivative("w"), "w").order_in("v") == 2
    assert list(sis._affine_singularities(F)) == [(QQ, 0, 0, 1)]


def test_simple_discriminant_factors_build_no_field(monkeypatch):
    # vertical tangents at v = +-sqrt 2 are simple roots of the
    # discriminant; only the node's double root v = 0 is examined
    calls = []

    def counting(ctx, m, name=None):
        calls.append(m)
        return extend_field(ctx, m, name)

    monkeypatch.setattr(scalar, "extend_field", counting)
    F = parse_poly("w^2 - v^4 + 2*v^2", vars=GERM_VARS)
    assert list(sis._affine_singularities(F)) == [(QQ, 0, 0, 1)]
    assert calls == []


# surfaces of the benchmark pool; every one is superisolated
POOL_SURFACES = [
    "y^3 + x*z^2 - x^4",
    "(x*z - y^2)*y + (x + y + z)^4",
    "y^4 - x*z^3 + (x + y + z)^5",
    "x*y*z*(x + y + z) + (x + 2*y + 3*z)^5",
    "(x^2 - 2*y^2)*(y^2 - 3*z^2) + (x + y + z)^5",
    "(y*z - x^2)*(x*z - y^2 + 3*z^2) + (x + y + z)^5",
]


def _change(F, m):
    vs = [MPoly.var(QQ, AV, n) for n in AV]
    return F.evaluate({AV[i]: sum((vs[j] * m[i][j] for j in range(3)),
                                  MPoly.zero(QQ, AV)) for i in range(3)})


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


matrices = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    min_size=3, max_size=3).filter(_det3)


@settings(max_examples=20, deadline=None)
@given(text=st.sampled_from(POOL_SURFACES), m=matrices)
def test_singular_points_under_linear_change(text, m):
    base = sum(pt.class_size for pt in sis.singular_points(sis.from_polynomial(A(text))))
    s = sis.from_polynomial(_change(A(text), m))
    pts = sis.singular_points(s)
    assert sum(pt.class_size for pt in pts) == base
    for pt in pts:
        f = sis.dehomogenize(s.f, pt.chart).lift(pt.ctx)
        c1, c2 = pt.coords
        for p in (f, f.derivative("v"), f.derivative("w")):
            value = p.set_var("v", c1).set_var("w", c2)
            assert is_zero(value.terms.get((0, 0), Fraction(0)))


# the pool, plus surfaces whose singular points reach each branch of the
# component search, each with profile entries it must contain, and how often
ORACLE_SURFACES = POOL_SURFACES + [
    # three lines through [0:0:1], found once; the fourth, z, meets x on x = 0
    "x*y*(x - y)*z + (x + 2*y + 3*z)^5",
    # two conics meeting at a conjugate pair on x = 0
    "(y^2 - 2*z^2 + x*z)*(y^2 - 2*z^2 + x*y) + (x + y + z)^5",
    # each component's own cusp is also where the two meet: one class
    "(y^3 - z^2*x)*(y^3 + z^2*x) + (x + y + z)^7",
    # the deep point is singular on both cubics: one class
    "(z*x^2 + y^3)*(x^3 + z*y^2) + z^7",
]
EXPECTED_PROFILE = {
    ORACLE_SURFACES[-4]: {(2, 1, 3, ("C1", "C2", "C3")): 1,
                          (1, 1, 2, ("C2", "C4")): 1},
    ORACLE_SURFACES[-3]: {(1, 2, 2, ("C1", "C2")): 1},
    ORACLE_SURFACES[-2]: {(0, 1, 4, ("C1", "C1", "C2", "C2")): 1},
    ORACLE_SURFACES[-1]: {(2, 1, 4, ("C1", "C1", "C2", "C2")): 1},
}


def _point_profile(pts):
    return sorted((pt.chart, pt.class_size, pt.h_local.order_at_origin(),
                   tuple(sorted(pt.branch_names))) for pt in pts)


def _assert_matches_whole_curve_search(s):
    found = sis.singular_points(s)
    oracle = [sis._make_point(s, *p) for p in whole_curve_singular_points(s.f)]
    assert sum(pt.class_size for pt in found) == \
        sum(pt.class_size for pt in oracle)
    assert _point_profile(found) == _point_profile(oracle)
    return _point_profile(found)


@pytest.mark.parametrize("text", ORACLE_SURFACES)
def test_component_search_matches_whole_curve_search(text):
    profile = _assert_matches_whole_curve_search(sis.from_polynomial(A(text)))
    for entry, count in EXPECTED_PROFILE.get(text, {}).items():
        assert profile.count(entry) == count


@settings(max_examples=30, deadline=None)
@given(text=st.sampled_from(ORACLE_SURFACES), m=matrices)
def test_component_search_matches_whole_curve_search_under_change(text, m):
    _assert_matches_whole_curve_search(sis.from_polynomial(_change(A(text), m)))


def test_singular_points_localize_only_kept_points(monkeypatch):
    # three concurrent lines: each of the three pairs finds [0:0:1], and
    # only the least pair's point is localized, once per line through it
    calls = []
    localize = sis.SingPoint.localize
    monkeypatch.setattr(sis.SingPoint, "localize",
                        lambda pt, p: calls.append(p) or localize(pt, p))
    s = sis.from_polynomial(A("x*y*(x - y) + z^4"))
    pts = sis.singular_points(s)
    assert len(pts) == 1
    assert len(calls) == sum(len(pt.local_factors) for pt in pts) == 3


@pytest.fixture(scope="module")
def localize_points():
    """A rational point, the Q(a) point class of four conjugate points
    where two conics meet, and a point with one rational coordinate over a
    field whose minimal polynomial has non-integral coefficients."""
    rational = sis.SingPoint(QQ, 0, (Fraction(2, 3), Fraction(-5, 4)), 1)
    s = sis.from_polynomial(
        A("(y*z - x^2)*(x*z - y^2 + 3*z^2) + (x + y + z)^5"))
    (conjugate,) = sis.singular_points(s)
    assert conjugate.ctx.degree() == 4
    ctx = extend_field(QQ, [Fraction(41, 16), -6, 6, Fraction(-7, 2), 1])
    a = ctx.gen()
    mixed = sis.SingPoint(ctx, 0, (Fraction(1, 2) * a * a - 3, Fraction(-2, 7)), 4)
    return rational, conjugate, mixed


vw_polys = st.builds(
    lambda terms: MPoly(QQ, GERM_VARS, {e: c for e, c in terms.items() if c}),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
        max_size=6,
    ),
)


@settings(max_examples=30)
@given(p=vw_polys)
def test_localize_is_translation(localize_points, p):
    for pt in localize_points:
        v = MPoly.var(pt.ctx, GERM_VARS, "v")
        w = MPoly.var(pt.ctx, GERM_VARS, "w")
        c1, c2 = pt.coords
        loc = pt.localize(p)
        assert loc.ctx == pt.ctx
        assert loc == p.lift(pt.ctx).evaluate({"v": v + c1, "w": w + c2})


@settings(max_examples=30)
@given(p=vw_polys)
def test_value_is_evaluation(localize_points, p):
    # over QQ the value is summed in integers, over Q(a) by Horner's rule
    # in the integer kernel
    for pt in localize_points:
        assert pt.value(p) == p.lift(pt.ctx).evaluate(dict(zip(GERM_VARS, pt.coords)))


# ---------------------------------------------------------------------------
# decorated graphs

def expected_cubic_stats(graph):
    sel = sorted(v.self_int for v in graph.vertices.values())
    return sel


def test_cubic_min_graph(s_cubic):
    g = sis.build_gamma(s_cubic, "min")
    sis.l_node_self_int(g, s_cubic)
    assert len(g.vertices) == 4 and not g.arrows
    (l,) = g.l_vertices()
    assert l.self_int == -9
    chain = {v.self_int for v in g.vertices.values() if not v.is_L}
    assert chain == {-1, -2, -3}
    center = next(v for v in g.vertices.values() if v.self_int == -1)
    assert sorted(g.neighbors(center.id)) == sorted(
        v.id for v in g.vertices.values() if v.id != center.id
    )
    mults = sorted(v.mult["l"] for v in g.vertices.values())
    assert mults == [1, 2, 3, 6]


def test_cubic_inner_rate(s_cubic):
    g = sis.build_gamma(s_cubic, "inner")
    sis.l_node_self_int(g, s_cubic)
    sis.inner_rates(g, s_cubic)
    center = next(v for v in g.vertices.values() if v.self_int == -1)
    assert center.rate == Fraction(4, 3)
    (l,) = g.l_vertices()
    assert l.rate == 1
    # the -2 and -3 vertices are not nodes and stay undecorated
    others = [v for v in g.vertices.values()
              if not v.is_L and v.id != center.id]
    assert all(v.rate is None for v in others)


def test_cubic_rate_comes_from_2_over_6(s_cubic):
    res = sis.point_resolution(s_cubic, 0)
    pt = sis.singular_points(s_cubic)[0]
    local = res.dual_graph()
    (node,) = detect_nodes(local, pt.h_local)
    rid = local.rep_of[node]
    m_l = sis._linear_form_track(res)
    m_h = res.track(pt.h_local)
    assert (m_l[rid], m_h[rid]) == (2, 6)
    assert Fraction(m_l[rid], m_h[rid]) + 1 == Fraction(4, 3)


BENCHMARK_POOL = benchmark_pool()


@pytest.mark.parametrize("text", list(BENCHMARK_POOL.values()),
                         ids=list(BENCHMARK_POOL))
def test_linear_form_valuations_match_sampled_forms(text):
    # min(m_E(v), m_E(w)) is what three seeded forms v + t*w certified
    s = sis.from_polynomial(A(text))
    graph = sis.build_gamma(s, "inner")
    assert graph.resolutions
    for res in graph.resolutions.values():
        assert sis._linear_form_track(res) == sampled_linear_track(res)


def test_min_mode_keeps_nodes_as_edges(s_two_cubics):
    g = sis.build_gamma(s_two_cubics, "min")
    sis.l_node_self_int(g, s_two_cubics)
    l_ids = {v.id for v in g.l_vertices()}
    ll_edges = [e for e in g.edges if set(e) <= l_ids]
    assert len(ll_edges) == 5  # 1 rational node + a conjugacy class of 4


def test_two_cubics_inner_graph(s_two_cubics):
    g = sis.build_gamma(s_two_cubics, "inner")
    sis.l_node_self_int(g, s_two_cubics)
    sis.inner_rates(g, s_two_cubics)
    assert len(g.vertices) == 12
    stats = sorted(
        (v.self_int, None if v.rate is None else v.rate)
        for v in g.vertices.values()
    )
    assert stats == sorted([
        (-23, Fraction(1)), (-23, Fraction(1)),
        (-5, Fraction(5, 4)),
        (-1, Fraction(6, 5)), (-1, Fraction(6, 5)),
        (-1, Fraction(3, 2)), (-1, Fraction(3, 2)), (-1, Fraction(3, 2)),
        (-1, Fraction(3, 2)), (-1, Fraction(3, 2)),
        (-2, None), (-2, None),
    ])


def test_graphs_negative_definite(s_cubic, s_two_cubics, s_pair_a):
    graphs = [sis.build_gamma(s, mode) for s in (s_cubic, s_two_cubics)
              for mode in ("min", "inner")]
    # the polar graphs glue in the combined resolutions; on the first
    # sextic the polar forces one extra blow-up
    polars = [polar.generic_polar(s, k=5, seed=0)
              for s in (s_two_cubics, s_pair_a)]
    assert polars[1].extra_blowups == 1
    for g in graphs + [p.graph for p in polars]:
        M, _ids = graph_matrix(g)
        assert is_negative_definite(M)


def test_build_gamma_fills_l_self_intersections(s_cubic, s_two_cubics):
    # no l_node_self_int call: build_gamma ends with it
    expected = [(s_cubic, "min", [-9]), (s_cubic, "inner", [-9]),
                (s_two_cubics, "inner", [-23, -23])]
    for s, mode, selfs in expected:
        g = sis.build_gamma(s, mode)
        assert sorted(v.self_int for v in g.l_vertices()) == selfs
        assert all(v.mult["l"] == 1 for v in g.l_vertices())
        assert all("l" in v.mult for v in g.vertices.values())
    g = sis.build_gamma(s_two_cubics, "min")
    selfs = {v.id: v.self_int for v in g.l_vertices()}
    assert None not in selfs.values()
    sis.l_node_self_int(g, s_two_cubics)
    assert {v.id: v.self_int for v in g.l_vertices()} == selfs


def test_edge_multiplicity_is_one(s_two_cubics):
    g = sis.build_gamma(s_two_cubics, "inner")
    seen = {}
    for e in g.edges:
        key = tuple(sorted(e))
        seen[key] = seen.get(key, 0) + 1
    assert all(n == 1 for n in seen.values())


# ---------------------------------------------------------------------------
# multiplicity tables

def test_multiplicity_table_of_coordinate(s_cubic):
    g = sis.build_gamma(s_cubic, "min")
    sis.l_node_self_int(g, s_cubic)
    table = sis.multiplicity_table(s_cubic, A("x"), g, name="x")
    by_self = {
        (g.vertices[vid].is_L, g.vertices[vid].self_int): m
        for vid, m in table.items()
    }
    assert by_self == {(True, -9): 1, (False, -3): 2, (False, -2): 3,
                       (False, -1): 6}


def _full_numerator(s, G, chart):
    """N = sum_k f~^k g~^(K-k) G_k~ as an explicit MPoly sum."""
    ft = sis.dehomogenize(s.f, chart)
    gt = sis.dehomogenize(s.g, chart)
    K = G.total_degree()
    N = MPoly.zero(QQ, GERM_VARS)
    for k, part in G.homogeneous_parts().items():
        N = N + ft ** k * gt ** (K - k) * sis.dehomogenize(part, chart)
    return N


@pytest.mark.parametrize("G", [
    "3/4*x^2 - 1/2*y*z + 5/6*z^3",
    "2/3 + 1/5*x*y^2 - 7/4*z^4",
    "1/2*x",
])
def test_pullback_numerator_matches_mpoly_sum(G):
    # non-integer coefficients in f, g and G pin the common denominator
    s = sis.from_polynomial(A("1/2*y^3 + 3/4*x*z^2 - 2/3*x^4"))
    G = A(G)
    for chart in (0, 1, 2):
        m, M = sis._pullback_numerator(s, G, chart)
        assert m == G.order_at_origin()
        assert sis.dehomogenize(s.f, chart) ** m * M == _full_numerator(s, G, chart)


def _strip(p, factors):
    for c in factors:
        while (q := exact_div(p, c)) is not None:
            p = q
    return p


@pytest.mark.parametrize("surface", ["s_cubic", "s_pair_a", "s_two_cubics"])
def test_factored_numerator_matches_full(request, surface):
    # N = f~^m * M: the L-curve multiplicities, the valuations at every
    # singular point and the strict polar germ must come out as from N
    s = request.getfixturevalue(surface)
    F = s.f - s.g
    partials = [F.derivative(v) for v in AV]
    rng = random.Random(surface)
    gs = [A("x^2 - y*z + z^3"), A("2 + x*y - z^2")]  # ord 2; a constant term
    while len(gs) < 4:
        cs = [rng.randint(-3, 3) for _ in partials]
        if any(cs):
            gs.append(sum((p * c for p, c in zip(partials, cs)),
                          MPoly.zero(QQ, AV)))
    for G in gs:
        for chart in (0, 1, 2):
            m, M = sis._pullback_numerator(s, G, chart)
            N = _full_numerator(s, G, chart)
            for _name, comp in sis.components(s):
                h = sis.dehomogenize(comp, chart)
                if h.total_degree() > 0:
                    assert m + multiplicity_of_factor(M, h) == \
                        multiplicity_of_factor(N, h)
        for ip, pt in enumerate(sis.singular_points(s)):
            res = sis.point_resolution(s, ip)
            m, Mloc = sis.local_numerator(s, pt, G)
            Nloc = pt.localize(_full_numerator(s, G, pt.chart))
            lin, rest = res.track(pt.h_local), res.track(Mloc)
            assert {rid: m * lin[rid] + rest[rid] for rid in rest} == \
                res.track(Nloc)
            comps = [pt.localize(sis.dehomogenize(comp, pt.chart))
                     for _name, comp in sis.components(s)]
            comps = [c for c in comps if c.total_degree() > 0]
            ratio = exact_div(_strip(Nloc, comps), _strip(Mloc, comps))
            assert ratio is not None and ratio.total_degree() == 0


def test_multiplicity_table_rejects_surface_equation(s_cubic):
    F = s_cubic.f - s_cubic.g
    g = sis.build_gamma(s_cubic, "min")
    with pytest.raises(ZeroOnComponent):
        sis.multiplicity_table(s_cubic, F, g)
