"""Seeded request generator for the sislip benchmark.

Inputs are built from a fixed pool of base SIS presentations (below) by
an invertible small-integer linear change of (x, y, z).  Superisolatedness
and the decorated inner graph are invariant under such a change, so the
expected answer of every generated request is that of its base
presentation, and generation never has to run the program under test.

Polynomials are kept here as {(i, j, k): int} dicts over x, y, z, with a
tiny evaluator of their own, so that the text the program receives does
not depend on the program's own polynomial code.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

VARS = ("x", "y", "z")

# ---------------------------------------------------------------------------
# base pools

# every singular point of the tangent cone is rational
RATIONAL_POOL = {
    "cuspidal_cubic": "y^3 + x*z^2 - x^4",
    "nodal_cubic": "y^2*z - x^3 - x^2*z + x^4 + y^4 + z^4",
    "conic_line": "(x*z - y^2)*y + (x + y + z)^4",
    "conic_tangent_line": "(x*z - y^2)*x + (x + y + z)^4",
    "e6_quartic": "y^4 - x*z^3 + (x + y + z)^5",
    "quintic_2_5": "y^5 - x^2*z^3 + (x + y + z)^6",
    "septic_3_7": "y^7 - x^3*z^4 + (x + y + z)^8",
    "lines_3": "x*y*z + (x + y + z)^4",
    "lines_4": "x*y*z*(x + y + z) + (x + 2*y + 3*z)^5",
    "lines_5": "x*y*z*(x + y + z)*(x - y + 2*z) + (2*x + 3*y + 5*z)^6",
    "lines_6": "x*y*z*(x + y + z)*(x - y + 2*z)*(x + 3*y - z)"
               " + (2*x + 3*y + 7*z)^7",
    "lines_7": "x*y*z*(x + y + z)*(x - y + 2*z)*(x + 3*y - z)*(3*x - 2*y + z)"
               " + (7*x + 11*y + 13*z)^8",
    "lines_8": "x*y*z*(x + y + z)*(x - y + 2*z)*(x + 3*y - z)*(3*x - 2*y + z)"
               "*(2*x + y + 5*z) + (7*x + 11*y + 13*z)^9",
    "sextic_c1": "(y^3 - z^2*x)*(y^3 + z^2*x) + (x + y + z)^7",
    "sextic_c2": "(y^3 - z^2*x)*(y^3 + 2*z^2*x) + (x + y + z)^7",
}

# at least one class of Galois-conjugate singular points
ALGEBRAIC_POOL = {
    "conics_4_conjugate": "(y*z - x^2)*(x*z - y^2 + 3*z^2) + (x + y + z)^5",
    "conics_2_plus_2": "(y*z - x^2)*(y^2 - 4*y*z + 6*z^2 - x^2)"
                       " + (x + y + z)^5",
    "conics_biquadratic": "(x^2 + y^2 - 2*z^2)*(x^2 - 3*y^2 + z^2)"
                          " + (x + y + z)^5",
    "conjugate_line_pairs": "(x^2 - 2*y^2)*(y^2 - 3*z^2) + (x + y + z)^5",
    "two_tangent_cubics": "(z*x^2 + y^3)*(x^3 + z*y^2) + z^7",
}


# ---------------------------------------------------------------------------
# integer polynomials in x, y, z


class Poly:
    """A polynomial with integer coefficients, {(i, j, k): c}."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def _lift(other):
        return other if isinstance(other, Poly) else Poly({(0, 0, 0): other})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._lift(other).terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly({(0, 0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def to_text(self):
        parts = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), [-i for i in e])):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, e) if k
            )
            mag = abs(c)
            body = mono if mag == 1 and mono else \
                (f"{mag}*{mono}" if mono else str(mag))
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _var(i):
    return Poly({tuple(int(i == j) for j in range(3)): 1})


def parse(text, env=None):
    """Evaluate a pool expression in x, y, z (integers, + - * ^ and parens)."""
    if not re.fullmatch(r"[0-9xyz+\-*^() ]+", text):
        raise ValueError(f"unexpected character in {text!r}")
    if env is None:
        env = {v: _var(i) for i, v in enumerate(VARS)}
    return eval(text.replace("^", "**"), {"__builtins__": {}}, dict(env))


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def substitute(text, m):
    """The pool expression composed with (x, y, z) -> m (x, y, z)."""
    env = {VARS[i]: sum((_var(j) * m[i][j] for j in range(3)), Poly({}))
           for i in range(3)}
    return parse(text, env).to_text()


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_change(rng, lo=-2, hi=2):
    """An invertible 3x3 integer matrix with entries in [lo, hi]."""
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(3))
                  for _ in range(3))
        if det3(m):
            return m


def monomial_change(rng, scales=(1, 2, -1, -2)):
    """A coordinate permutation times a diagonal rescaling."""
    perm = list(range(3))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice(scales) if j == perm[i] else 0
                       for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# workloads

# The heavy member of the algebraic pool.  Its cost depends on the change
# by a factor of ten (2-19 s on the seed commit), and one request of it
# weighs as much as a dozen of the others, so every cycle sends it under
# this one full change, about 4.6 s on the seed commit and ten times the
# unchanged surface.  Random full changes of it go to the "hard" probe.
HEAVY_ALGEBRAIC = "two_tangent_cubics"
HEAVY_CHANGE = ((1, -1, 2), (-2, 2, 0), (2, -1, -2))

# members of the compare_pairs workload
SEXTIC_FAMILY = "(y^3 - z^2*x)*(y^3 + {c}*z^2*x) + ({lin})^7"
# degree-7 forms, neither vanishing at the singular points [1:0:0], [0:0:1]
SEXTIC_FORMS = ("x + y + z", "2*x + y - z")
INNER_COMPARE = ("lines_3", "lines_4", "conic_line", "conic_tangent_line",
                 "conics_4_conjugate", "conics_2_plus_2")
POLAR_SAMPLES = 5

WORKLOADS = ("inner_rational", "inner_algebraic", "compare_pairs")


@dataclass(frozen=True)
class Request:
    kind: str           # "inner", "compare_inner", "compare_polar", "polar"
    base: str           # pool name whose answer the response must match
    argv: tuple


def pool_text(name):
    return {**RATIONAL_POOL, **ALGEBRAIC_POOL}[name]


def inner_request(name, m):
    return Request("inner", name, ("inner-rates", substitute(pool_text(name), m)))


def compare_inner_request(name, m1, m2):
    text = pool_text(name)
    return Request("compare_inner", name,
                   ("compare", substitute(text, m1), substitute(text, m2)))


def compare_polar_request(lin, m1, m2):
    a = substitute(SEXTIC_FAMILY.format(c=1, lin=lin), m1)
    b = substitute(SEXTIC_FAMILY.format(c=2, lin=lin), m2)
    return Request("compare_polar", "sextic_pair",
                   ("compare", a, b, "--polar",
                    "--samples", str(POLAR_SAMPLES)))


def member_changes(name):
    """The identity and two changes drawn from [-2, 2], fixed per member.

    The cost of a request varies with the change by up to ten times, so
    changes drawn per seed made a run's throughput depend on the seed by
    20 %.  The changes are therefore drawn once, the same for every seed,
    and the seed multiplies each by a random diagonal sign matrix, which
    keeps the cost and changes the text.
    """
    rng = random.Random(f"changes:{name}")
    return (IDENTITY, random_change(rng), random_change(rng))


def flip_signs(m, rng):
    """m times a random diagonal matrix of signs."""
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return tuple(tuple(m[i][j] * signs[j] for j in range(3)) for i in range(3))


def make_cycle(workload, rng):
    """The requests of one cycle, in seeded order.

    A cycle holds every pool member under each of its changes, so every
    cycle has the same mix and a run of whole cycles does not depend on
    the seed for it.
    """
    if workload == "inner_rational":
        reqs = [inner_request(n, flip_signs(m, rng))
                for n in RATIONAL_POOL for m in member_changes(n)]
    elif workload == "inner_algebraic":
        reqs = [inner_request(n, flip_signs(m, rng))
                for n in ALGEBRAIC_POOL if n != HEAVY_ALGEBRAIC
                for m in member_changes(n)]
        reqs.append(inner_request(HEAVY_ALGEBRAIC,
                                  flip_signs(HEAVY_CHANGE, rng)))
    elif workload == "compare_pairs":
        reqs = []
        for lin in SEXTIC_FORMS:
            fixed = random.Random(f"monomial:{lin}")
            m1, m2 = monomial_change(fixed), monomial_change(fixed)
            reqs.append(compare_polar_request(lin, flip_signs(m1, rng),
                                              flip_signs(m2, rng)))
        for n in INNER_COMPARE:
            ident, m1, m2 = member_changes(n)
            reqs += [compare_inner_request(n, flip_signs(a, rng),
                                           flip_signs(b, rng))
                     for a, b in ((ident, m1), (ident, m2), (m1, m2),
                                  (m2, ident))]
    elif workload == "hard":
        reqs = [Request("polar", HEAVY_ALGEBRAIC,
                        ("polar", pool_text(HEAVY_ALGEBRAIC),
                         "--samples", str(POLAR_SAMPLES)))]
        for _ in range(2):
            reqs.append(compare_inner_request("lines_5", IDENTITY,
                                              random_change(rng)))
            reqs.append(inner_request(HEAVY_ALGEBRAIC, random_change(rng)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def warmup_request(workload):
    """A fixed cheap request that loads the code paths of the workload."""
    if workload == "compare_pairs":
        return compare_inner_request("lines_3", IDENTITY, IDENTITY)
    return inner_request("cuspidal_cubic", IDENTITY)


def cycles(workload, seed):
    """Endless seeded stream of cycles; the same seed gives the same cycles."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make_cycle(workload, rng)
