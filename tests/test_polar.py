"""Generic polar curves: partials, certified samples, branch counts."""

import math
import random

import pytest
from util import linear_change, per_point_polar_germ

from sislip import polar, sis
from sislip.errors import GenericityAlarm
from sislip.poly import exact_div, is_squarefree, parse_poly

AV = ("x", "y", "z")


def A(text):
    return parse_poly(text, vars=AV)


def inner_graph(s):
    g = sis.build_gamma(s, "inner")
    sis.l_node_self_int(g, s)
    return g


def table_by_l(s, graph):
    """Partial-derivative triples keyed by the h-multiplicity profile."""
    polar.partials_table(s, graph)
    out = {}
    for v in graph.vertices.values():
        key = ("L", v.component) if v.is_L else ("E", v.self_int, v.mult["l"])
        out[key] = (v.mult["Fx"], v.mult["Fy"], v.mult["Fz"])
    return out


def test_partials_pair_a(s_pair_a):
    g = inner_graph(s_pair_a)
    t = table_by_l(s_pair_a, g)
    assert t[("L", "C1")] == (5, 5, 5)
    assert t[("L", "C2")] == (5, 5, 5)
    assert t[("E", -1, 12)] == (72, 70, 69)   # cusp-pair node
    assert t[("E", -2, 6)] == (36, 35, 36)    # its -2 neighbour
    assert t[("E", -3, 4)] == (24, 24, 23)
    assert t[("E", -1, 6)] == (33, 35, 36)    # tangential-contact node
    assert t[("E", -2, 4)] == (22, 24, 24)
    assert t[("E", -2, 2)] == (11, 12, 12)


def test_partials_pair_b(s_pair_b):
    g = inner_graph(s_pair_b)
    t = table_by_l(s_pair_b, g)
    assert t[("L", "C1")] == (5, 5, 5)
    assert t[("L", "C2")] == (5, 5, 5)
    assert t[("E", -1, 12)] == (72, 70, 69)
    assert t[("E", -2, 6)] == (36, 35, 35)    # differs from the first surface
    assert t[("E", -3, 4)] == (24, 24, 23)
    assert t[("E", -1, 6)] == (33, 35, 36)
    assert t[("E", -2, 4)] == (22, 24, 24)
    assert t[("E", -2, 2)] == (11, 12, 12)


def test_partials_tables_differ_exactly_at_one_vertex(s_pair_a, s_pair_b):
    ta = table_by_l(s_pair_a, inner_graph(s_pair_a))
    tb = table_by_l(s_pair_b, inner_graph(s_pair_b))
    diff = {k for k in ta if ta[k] != tb[k]}
    assert diff == {("E", -2, 6)}
    assert (ta[("E", -2, 6)][2], tb[("E", -2, 6)][2]) == (36, 35)


def test_generic_polar_pair_a(s_pair_a):
    p = polar.generic_polar(s_pair_a, k=5, seed=0)
    assert sorted(p.mults.values()) == [5, 5, 11, 22, 23, 33, 35, 69]
    assert p.extra_blowups == 1
    assert polar.polar_branch_count(p) == 8
    assert sorted(p.l_arrow_counts.values()) == [3, 3]
    # the L-vertices keep their ids and the certified minimum
    for v in p.graph.l_vertices():
        assert p.base_graph.vertices[v.id].component == v.component
        assert v.mult["polar"] == p.mults[v.id]
    # the extra vertex: a fresh -1 curve with polar multiplicity 105,
    # wedged between the old -1 (now -2, polar 69) and the old -2 (now -3,
    # polar 35), and carrying the polar arrow of that singular point
    new = next(v for v in p.graph.vertices.values()
               if v.mult.get("polar") == 105)
    assert new.self_int == -1
    nbrs = sorted(
        (p.graph.vertices[u].self_int, p.graph.vertices[u].mult["polar"])
        for u in p.graph.neighbors(new.id)
    )
    assert nbrs == [(-3, 35), (-2, 69)]
    arrow_vertices = sorted(
        p.graph.vertices[a].mult["polar"]
        for a, _m in p.graph.arrows if not p.graph.vertices[a].is_L
    )
    assert arrow_vertices == [33, 105]


def test_generic_polar_pair_b(s_pair_b):
    p = polar.generic_polar(s_pair_b, k=5, seed=0)
    assert sorted(p.mults.values()) == [5, 5, 11, 22, 23, 33, 35, 69]
    assert p.extra_blowups == 0
    assert polar.polar_branch_count(p) == 9
    assert sorted(p.l_arrow_counts.values()) == [3, 3]
    arrow_vertices = sorted(
        p.graph.vertices[a].mult["polar"]
        for a, _m in p.graph.arrows if not p.graph.vertices[a].is_L
    )
    assert arrow_vertices == [33, 35, 69]


def test_polar_germ_reduced_with_local_factors(s_pair_a):
    # the combined resolution of (tangent cone) * (polar) trusts its factors
    # to be reduced and coprime; the radical over QQ of M with every
    # component stripped provides it
    p = polar.generic_polar(s_pair_a, k=5, seed=0)
    met = 0
    for pt in sis.singular_points(s_pair_a):
        pol = polar._local_polar_germ(s_pair_a, pt, p.G)
        if pol is None:
            continue
        met += 1
        assert is_squarefree(math.prod([pol, *pt.local_factors.values()]))
    assert met


@pytest.mark.parametrize("surface", ["s_pair_a", "s_pair_b", "s_two_cubics"])
def test_polar_germ_matches_per_point_oracle(request, surface):
    # built over QQ and moved once, the germ is the one the per-point path
    # over the point's field gives, up to a nonzero constant
    s = request.getfixturevalue(surface)
    partials = polar.surface_partials(s)
    rng = random.Random(surface)
    gs = []
    for _sample in range(2):
        cs = [rng.randint(1, polar.COEFF_BOX) for _ in partials]
        gs.append(sum((p * c for p, c in zip(partials, cs[1:])),
                      partials[0] * cs[0]))
    # G through the first component, which the strip must remove, and G
    # with a constant term, which misses every singular point
    gs += [sis.components(s)[0][1] * gs[0], gs[0] + 1]
    for G in gs:
        for pt in sis.singular_points(s):
            pol = polar._local_polar_germ(s, pt, G)
            oracle = per_point_polar_germ(s, pt, G)
            assert (pol is None) == (oracle is None)
            if pol is not None:
                ratio = exact_div(pol, oracle)
                assert ratio is not None and ratio.total_degree() == 0


def test_numerator_localized_once_per_sample_and_point():
    # a fresh surface: the session fixtures keep the numerators of every
    # sample other tests drew
    s = sis.from_polynomial(A("(y^3 - z^2*x)*(y^3 + z^2*x) + (x + y + z)^7"))
    k = 5
    p = polar.generic_polar(s, k=k, seed=0)
    # generic_polar ran extended_polar_graph on one of its k samples
    counts = [len(pt._numerators) for pt in sis.singular_points(s)]
    assert counts == [k] * len(counts)
    assert all(p.G in pt._numerators for pt in sis.singular_points(s))
    polar.extended_polar_graph(s, p.G)
    assert [len(pt._numerators) for pt in sis.singular_points(s)] == counts


def test_sample_multiplicities_bounded_by_partials(s_pair_a):
    g = inner_graph(s_pair_a)
    tables = polar.partials_table(s_pair_a, g)
    p = polar.generic_polar(s_pair_a, k=5, seed=0)
    for vid, m in p.mults.items():
        assert m == min(t[vid] for t in tables)


def test_polar_data_stable_across_seeds(s_pair_a):
    base = polar.generic_polar(s_pair_a, k=3, seed=11)
    for seed in (23, 514):
        p = polar.generic_polar(s_pair_a, k=3, seed=seed)
        assert sorted(p.mults.values()) == sorted(base.mults.values())
        assert polar.polar_branch_count(p) == polar.polar_branch_count(base)
        assert p.extra_blowups == base.extra_blowups


def test_too_few_samples_rejected(s_cubic):
    with pytest.raises(ValueError):
        polar.generic_polar(s_cubic, k=2)


def test_smooth_conic_degree_two():
    # smooth tangent cone: no singular points; the polar of the resulting
    # ordinary double point has multiplicity d - 1 = 1 on the L-curve and
    # two branches
    s = sis.from_polynomial(A("x*z - y^2 + x^3 + y^3 + z^3"))
    g = inner_graph(s)
    assert len(g.vertices) == 1
    tables = polar.partials_table(s, g)
    (l,) = g.vertices
    assert [t[l] for t in tables] == [1, 1, 1]
    p = polar.generic_polar(s, k=3, seed=0)
    assert p.mults == {l: 1}
    assert polar.polar_branch_count(p) == 2


def test_outer_evidence_pair(s_pair_a, s_pair_b):
    rep = polar.outer_evidence_report(s_pair_a, s_pair_b, k=5, seed=0)
    assert rep.inner_equivalent
    assert rep.branch_counts == (8, 9)
    assert rep.extra_blowups == (1, 0)
    assert rep.mult_vectors[0] == rep.mult_vectors[1]
    assert rep.verdict == "inner-equivalent, polar data differ"


def test_outer_evidence_self(s_pair_a):
    rep = polar.outer_evidence_report(s_pair_a, s_pair_a, k=5, seed=0)
    assert rep.inner_equivalent
    assert rep.branch_counts[0] == rep.branch_counts[1]
    assert rep.mult_vectors[0] == rep.mult_vectors[1]
    assert rep.extended_profiles[0] == rep.extended_profiles[1]
    assert rep.verdict == "inner-equivalent, polar data agree"


def test_outer_evidence_invariant_under_linear_change(s_pair_a):
    rng = random.Random(5)
    F = s_pair_a.f - s_pair_a.g
    s2 = sis.from_polynomial(linear_change(F, rng))
    rep = polar.outer_evidence_report(s_pair_a, s2, k=3, seed=1)
    assert rep.inner_equivalent
    assert rep.branch_counts[0] == rep.branch_counts[1]
    assert rep.mult_vectors[0] == rep.mult_vectors[1]
    assert rep.extra_blowups[0] == rep.extra_blowups[1]
    assert rep.verdict == "inner-equivalent, polar data agree"
