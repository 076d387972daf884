"""Serialization and comparison of decorated graphs.

DOT for eyeballing (L-vertices drawn black), JSON (schema 1) for golden
files, and exact decorated-graph isomorphism all rest on one canonical
labelling (colour refinement, then individualization-refinement pruned by
the automorphisms found).  JSON and DOT list the vertices in that order, so
their bytes do not depend on the input vertex ids, and two graphs are
isomorphic exactly when their canonical certificates are equal.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SchemaVersionMismatch
from .sis import DecoratedGraph, DVertex

SCHEMA_VERSION = 1


@dataclass
class GraphDocument:
    graph: DecoratedGraph
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


# ---------------------------------------------------------------------------
# canonical labelling

def _vertex_key(graph, vid):
    """What an isomorphism preserves at a vertex; `mult` is not part of it."""
    v = graph.vertices[vid]
    return (not v.is_L, v.self_int is None, v.self_int or 0,
            v.rate is None, Fraction(v.rate or 0),
            tuple(sorted(repr(m) for a, m in graph.arrows if a == vid)))


def _ranks(keys):
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _stabilize(colors, adj):
    """Colour refinement on integer ranks, to a stable colouring."""
    while True:
        nxt = _ranks([(c, tuple(sorted(colors[j] for j in adj[i])))
                      for i, c in enumerate(colors)])
        if max(nxt, default=0) == max(colors, default=0):
            return nxt
        colors = nxt


def _orbit(points, perms):
    orbit, todo = set(points), list(points)
    for u in todo:
        for p in perms:
            if p[u] not in orbit:
                orbit.add(p[u])
                todo.append(p[u])
    return orbit


def _canonical(graph):
    """Canonical vertex order and certificate by individualization-refinement.

    Individualize each vertex of the first non-singleton cell and refine,
    down to discrete colourings (leaves); keep the leaf with the least
    certificate: vertex keys in order, renumbered edges with multiplicity,
    and free arrows.  A leaf whose certificate equals the best one gives an
    automorphism mapping the best leaf's path onto this one, so the search
    returns to the last node the two paths share.  A child in the orbit of
    an explored sibling under the automorphisms fixing the current path is
    skipped (McKay & Piperno, "Practical graph isomorphism, II", J. Symb.
    Comp. 2014).
    """
    ids = list(graph.vertices)
    index = {vid: i for i, vid in enumerate(ids)}
    labels = [_vertex_key(graph, vid) for vid in ids]
    free = tuple(sorted(repr(m) for a, m in graph.arrows if a is None))
    pairs = [(index[a], index[b]) for a, b in graph.edges]
    adj = [[index[u] for u in graph.neighbors(vid)] for vid in ids]
    best, autos = [None, None, None], []

    def search(colors, path):
        """Explore below `path`; return the depth to resume the search at."""
        colors = _stabilize(colors, adj)
        if len(set(colors)) == len(colors):
            order = sorted(range(len(colors)), key=colors.__getitem__)
            cert = (tuple(labels[i] for i in order),
                    sorted(tuple(sorted((colors[a], colors[b])))
                           for a, b in pairs), free)
            if best[0] is None or cert < best[0]:
                best[:] = cert, order, path
            elif cert == best[0]:
                autos.append(dict(zip(best[1], order)))
                return next(k for k, (u, w) in enumerate(zip(path, best[2]))
                            if u != w)
            return len(path)
        target = min(c for c, k in Counter(colors).items() if k > 1)
        done = []
        for v in (i for i, c in enumerate(colors) if c == target):
            fixing = [p for p in autos if all(p[u] == u for u in path)]
            if v not in _orbit(done, fixing):
                split = _ranks([(c, i != v) for i, c in enumerate(colors)])
                depth = search(split, path + [v])
                if depth < len(path):
                    return depth
                done.append(v)
        return len(path)

    search(_ranks(labels), [])
    return [ids[i] for i in best[1]], best[0]


def canonical_order(graph):
    """Vertex ids in an order that does not depend on the input ids."""
    return _canonical(graph)[0]


def _records(graph):
    """Vertices (new id, DVertex), edges and arrows renumbered 1..n in
    canonical order and sorted; the one layout of JSON and DOT."""
    order = canonical_order(graph)
    new_id = {vid: i + 1 for i, vid in enumerate(order)}
    edges = sorted(sorted((new_id[a], new_id[b])) for a, b in graph.edges)
    arrows = sorted(((new_id.get(a), m) for a, m in graph.arrows),
                    key=lambda t: (t[0] is None, t[0] or 0, repr(t[1])))
    return [(new_id[vid], graph.vertices[vid]) for vid in order], edges, arrows


# ---------------------------------------------------------------------------
# JSON

def _rat_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _rat_parse(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def to_json(doc):
    vertices, edges, arrows = _records(doc.graph)
    vrecs = []
    for i, v in vertices:
        rec = {"id": i, "self_int": v.self_int, "is_L": v.is_L}
        if v.rate is not None:
            rec["rate"] = _rat_str(v.rate)
        if v.mult:
            rec["mult"] = {k: v.mult[k] for k in sorted(v.mult)}
        vrecs.append(rec)
    body = {
        "schema": doc.schema_version,
        "vertices": vrecs,
        "edges": edges,
        "arrows": [{"at": at} if m is None else {"at": at, "mult": m}
                   for at, m in arrows],
        "provenance": doc.provenance,
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def from_json(text):
    body = json.loads(text)
    if body.get("schema") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"expected schema {SCHEMA_VERSION}, got {body.get('schema')!r}"
        )
    vertices = {}
    for rec in body["vertices"]:
        v = DVertex(rec["id"], rec["is_L"], self_int=rec["self_int"])
        if "rate" in rec:
            v.rate = _rat_parse(rec["rate"])
        if "mult" in rec:
            v.mult = dict(rec["mult"])
        vertices[rec["id"]] = v
    edges = [tuple(e) for e in body["edges"]]
    arrows = [(rec["at"], rec.get("mult")) for rec in body["arrows"]]
    mode = body["provenance"].get("mode", "inner")
    graph = DecoratedGraph(mode, vertices, edges, arrows)
    return GraphDocument(graph, body["provenance"], body["schema"])


# ---------------------------------------------------------------------------
# DOT

def to_dot(doc):
    vertices, edges, arrows = _records(doc.graph)
    lines = ["digraph G {", "  edge [dir=none];",
             "  node [shape=circle fontsize=10];"]
    for i, v in vertices:
        parts = []
        if v.self_int is not None:
            parts.append(str(v.self_int))
        if v.rate is not None:
            parts.append(_rat_str(v.rate))
        if v.mult:
            parts.append(" ".join(f"{k}:{v.mult[k]}" for k in sorted(v.mult)))
        label = " / ".join(parts)
        style = " style=filled fillcolor=black fontcolor=white" if v.is_L else ""
        lines.append(f'  v{i} [label="{label}"{style}];')
    for a, b in edges:
        lines.append(f"  v{a} -> v{b};")
    for i, (a, m) in enumerate(arrows, 1):
        attrs = "dir=forward" if m is None else f'dir=forward label="{m}"'
        lines.append(f'  a{i} [shape=none label=""];')
        src = f"v{a}" if a is not None else f"r{i}"
        if a is None:
            lines.append(f"  r{i} [shape=point];")
        lines.append(f"  {src} -> a{i} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# isomorphism

def isomorphic(g1, g2):
    """A bijection preserving edges (with multiplicity), arrows, self_int,
    is_L and rate, or None: when the canonical certificates are equal, the
    one that matches the two canonical orders."""
    (o1, c1), (o2, c2) = _canonical(g1), _canonical(g2)
    return dict(zip(o1, o2)) if c1 == c2 else None
