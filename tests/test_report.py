"""Serialization, canonical order, and decorated-graph isomorphism."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sislip import report, sis
from sislip.errors import SchemaVersionMismatch
from sislip.sis import DecoratedGraph, DVertex


def cubic_doc(s_cubic, mode="min"):
    g = sis.build_gamma(s_cubic, mode)
    sis.l_node_self_int(g, s_cubic)
    if mode == "inner":
        sis.inner_rates(g, s_cubic)
    return report.GraphDocument(g, {"input": "cubic", "mode": mode})


# ---------------------------------------------------------------------------
# JSON

def test_json_schema_shape(s_cubic):
    doc = cubic_doc(s_cubic)
    body = json.loads(report.to_json(doc))
    assert body["schema"] == 1
    assert len(body["vertices"]) == 4
    assert all(set(v) <= {"id", "self_int", "is_L", "rate", "mult"}
               for v in body["vertices"])
    assert sorted(v["self_int"] for v in body["vertices"]) == [-9, -3, -2, -1]
    assert sum(v["is_L"] for v in body["vertices"]) == 1


def test_json_round_trip(s_cubic, s_two_cubics):
    docs = [cubic_doc(s_cubic, "min"), cubic_doc(s_cubic, "inner")]
    g = sis.build_gamma(s_two_cubics, "inner")
    sis.l_node_self_int(g, s_two_cubics)
    sis.inner_rates(g, s_two_cubics)
    docs.append(report.GraphDocument(g, {"input": "two-cubics",
                                         "mode": "inner"}))
    for doc in docs:
        text = report.to_json(doc)
        again = report.to_json(report.from_json(text))
        assert text == again


def test_json_rates_as_fraction_strings(s_cubic):
    doc = cubic_doc(s_cubic, "inner")
    body = json.loads(report.to_json(doc))
    rates = {v.get("rate") for v in body["vertices"]}
    assert "4/3" in rates and "1/1" in rates
    loaded = report.from_json(report.to_json(doc))
    assert any(v.rate == Fraction(4, 3)
               for v in loaded.graph.vertices.values())


def test_schema_mismatch():
    with pytest.raises(SchemaVersionMismatch):
        report.from_json('{"schema": 2, "vertices": [], "edges": [], '
                         '"arrows": [], "provenance": {}}')


def test_empty_graph_document():
    doc = report.GraphDocument(DecoratedGraph("germ", {}, [], []), {})
    text = report.to_json(doc)
    loaded = report.from_json(text)
    assert not loaded.graph.vertices
    assert report.to_json(loaded) == text
    assert report.to_dot(doc).startswith("digraph")


# ---------------------------------------------------------------------------
# DOT

def test_dot_output(s_cubic):
    doc = cubic_doc(s_cubic)
    dot = report.to_dot(doc)
    assert dot.count("fillcolor=black") == 1
    for label in ("-9", "-3", "-2", "-1"):
        assert f'"{label}' in dot
    assert dot.count(" -> ") == 3  # a tree on four vertices


# ---------------------------------------------------------------------------
# isomorphism

def make_graph(entries, edges, arrows=()):
    vertices = {}
    for vid, is_l, self_int, rate in entries:
        vertices[vid] = DVertex(vid, is_l, self_int=self_int, rate=rate)
    return DecoratedGraph("inner", vertices, list(edges), list(arrows))


def test_isomorphic_simple_relabel():
    g1 = make_graph([(1, True, -9, None), (2, False, -1, Fraction(4, 3)),
                     (3, False, -2, None)], [(1, 2), (2, 3)])
    g2 = make_graph([(7, False, -2, None), (9, True, -9, None),
                     (8, False, -1, Fraction(4, 3))], [(9, 8), (8, 7)])
    m = report.isomorphic(g1, g2)
    assert m == {1: 9, 2: 8, 3: 7}


def test_isomorphic_respects_rates():
    g1 = make_graph([(1, False, -1, Fraction(4, 3))], [])
    g2 = make_graph([(1, False, -1, Fraction(3, 2))], [])
    assert report.isomorphic(g1, g2) is None


def test_isomorphic_respects_arrows():
    g1 = make_graph([(1, False, -1, None)], [], [(1, None)])
    g2 = make_graph([(1, False, -1, None)], [])
    assert report.isomorphic(g1, g2) is None


def test_not_isomorphic_different_sizes(s_cubic, s_two_cubics):
    g1 = cubic_doc(s_cubic).graph
    g2 = sis.build_gamma(s_two_cubics, "inner")
    sis.l_node_self_int(g2, s_two_cubics)
    assert report.isomorphic(g1, g2) is None


def test_parallel_edges_matter():
    g1 = make_graph([(1, True, -2, None), (2, True, -2, None)],
                    [(1, 2), (1, 2)])
    g2 = make_graph([(1, True, -2, None), (2, True, -2, None)], [(1, 2)])
    assert report.isomorphic(g1, g2) is None


graphs = st.integers(0, 2 ** 31 - 1)


def random_graph(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 9)
    entries = []
    for vid in range(1, n + 1):
        entries.append((
            vid,
            rng.random() < 0.3,
            -rng.randint(1, 4),
            None if rng.random() < 0.5 else Fraction(rng.randint(2, 9),
                                                     rng.randint(1, 6)),
        ))
    edges = []
    for vid in range(2, n + 1):
        edges.append((rng.randint(1, vid - 1), vid))  # random tree
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randint(1, n), rng.randint(1, n)
        if a != b:
            edges.append((a, b))
    arrows = [(rng.randint(1, n), None) for _ in range(rng.randint(0, 2))]
    return make_graph(entries, edges, arrows)


def permuted(graph, seed):
    import random

    rng = random.Random(seed)
    ids = sorted(graph.vertices)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    vertices = {}
    for vid, v in graph.vertices.items():
        nid = perm[vid]
        vertices[nid] = DVertex(nid, v.is_L, self_int=v.self_int, rate=v.rate)
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    arrows = [(perm[a], m) for a, m in graph.arrows]
    return DecoratedGraph(graph.mode, vertices, edges, arrows), perm


def assert_isomorphism(g1, g2, m):
    """m is a bijection carrying decorations, edges and arrows of g1 to g2."""
    assert m is not None
    assert sorted(m) == sorted(g1.vertices)
    assert sorted(m.values()) == sorted(g2.vertices)
    for vid, wid in m.items():
        v, w = g1.vertices[vid], g2.vertices[wid]
        assert (v.is_L, v.self_int, v.rate) == (w.is_L, w.self_int, w.rate)
    assert sorted(sorted((m[a], m[b])) for a, b in g1.edges) == \
        sorted(sorted(e) for e in g2.edges)
    assert sorted((m.get(a, -1), repr(t)) for a, t in g1.arrows) == \
        sorted((-1 if a is None else a, repr(t)) for a, t in g2.arrows)


@settings(max_examples=100, deadline=None)
@given(seed=graphs, pseed=graphs)
def test_isomorphism_equivalence_relation(seed, pseed):
    g = random_graph(seed)
    # reflexive
    assert_isomorphism(g, g, report.isomorphic(g, g))
    g2, perm = permuted(g, pseed)
    m = report.isomorphic(g, g2)
    # the returned bijection preserves decorations, edges and arrows
    assert_isomorphism(g, g2, m)
    # symmetric: the reverse direction also succeeds
    m2 = report.isomorphic(g2, g)
    assert_isomorphism(g2, g, m2)
    # transitive: mapping g -> g2 -> g is an automorphism of g
    assert_isomorphism(g, g, {a: m2[m[a]] for a in m})


def plain_graph(n, edges):
    return make_graph([(v, False, -2, None) for v in range(n)], edges)


@pytest.mark.parametrize("g1, g2", [
    # 2-regular on six vertices: a hexagon against two triangles
    (plain_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
     plain_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])),
    # 3-regular on six vertices: the triangular prism against K3,3
    (plain_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                     (0, 3), (1, 4), (2, 5)]),
     plain_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])),
])
def test_refinement_blind_pairs_not_isomorphic(g1, g2):
    # colour refinement gives every vertex of both graphs one colour
    assert report.isomorphic(g1, g2) is None
    assert report.isomorphic(g2, g1) is None


def subdivided_complete_graph(n):
    """K_n with every edge subdivided once: the inner graph's shape for n
    lines in general position (L-vertices, and 3/2-vertices at the nodes)."""
    entries = [(v, True, -3, None) for v in range(1, n + 1)]
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            mid = len(entries) + 1
            entries.append((mid, False, -1, Fraction(3, 2)))
            edges += [(a, mid), (mid, b)]
    return make_graph(entries, edges)


def test_isomorphic_subdivided_k5():
    g = subdivided_complete_graph(5)
    assert len(g.vertices) == 15
    g2, _perm = permuted(g, 1)
    assert_isomorphism(g, g2, report.isomorphic(g, g2))


@pytest.mark.parametrize("pseed", range(5))
def test_output_bytes_independent_of_vertex_ids(pseed):
    g = subdivided_complete_graph(4)
    g2, _perm = permuted(g, pseed)
    doc, doc2 = report.GraphDocument(g), report.GraphDocument(g2)
    assert report.to_json(doc) == report.to_json(doc2)
    assert report.to_dot(doc) == report.to_dot(doc2)


def test_canonical_order_stable(s_cubic):
    doc = cubic_doc(s_cubic)
    assert report.to_json(doc) == report.to_json(doc)
    order1 = report.canonical_order(doc.graph)
    order2 = report.canonical_order(doc.graph)
    assert order1 == order2
