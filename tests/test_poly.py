"""Multivariate polynomials: parsing, arithmetic, gcd, resultants, factoring."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing
from hypothesis import given, settings
from hypothesis import strategies as st

from util import benchmark_pool, linear_change, sympy_factor_qq

from sislip import poly
from sislip import scalar as _sc
from sislip.errors import (
    CommonComponent,
    ContextMismatch,
    DegreeTooLarge,
    NotHomogeneous,
    ParseError,
    UnknownVariable,
)
from sislip.poly import (
    MPoly,
    _uni_gcd,
    exact_div,
    factor_coeff_list,
    factor_qq,
    factor_univariate,
    is_squarefree,
    mgcd,
    multiplicity_of_factor,
    parse_poly,
    poly_from_coeffs,
    repeated_part_coeffs,
    require_coprime,
    resultant,
    squarefree_part,
    squarefree_part_coeffs,
    univariate_coeffs,
)
from sislip.scalar import QQ, extend_field

VW = ("v", "w")
AV = ("x", "y", "z")


def P(text, vars=VW):
    return parse_poly(text, vars=vars)


# ---------------------------------------------------------------------------
# parsing

def test_parse_basic():
    p = P("v^3 + 2*v*w - 7/2")
    assert p.terms == {(3, 0): Fraction(1), (1, 1): Fraction(2),
                       (0, 0): Fraction(-7, 2)}


def test_parse_nested_powers():
    p = P("(v+w)^3 - v^3 - w^3")
    assert p.terms == {(2, 1): Fraction(3), (1, 2): Fraction(3)}


def test_parse_unary_minus_and_implicit_none():
    assert P("-v^2").terms == {(2, 0): Fraction(-1)}
    assert P("-(v-w)") == P("w-v")


def test_parse_sum_accumulates_like_binary_addition():
    # sympy's expansion is an independent oracle for the long sum
    x, y, z = sympy.symbols("x y z")
    expanded = str(sympy.expand((x + 2*y - 3*z)**7 + x**8)).replace("**", "^")
    assert expanded.count("+") + expanded.count("-") > 30
    assert P(expanded, vars=AV) == P("(x + 2*y - 3*z)^7 + x^8", vars=AV)
    assert P("x - x + y", vars=AV) == P("y", vars=AV)
    # a cancelled term that comes back is re-added, in order
    assert list(P("v - v + w + v").terms) == [(0, 1), (1, 0)]


# A factor is (text, MPoly): a rational constant, a variable power, a
# negated variable power (the minus binds tighter than ^) or a sum in
# parentheses.
_VAR_POWER = st.tuples(st.sampled_from(VW), st.integers(0, 3))
_FACTORS = st.one_of(
    st.builds(lambda n, d: (f"{n}/{d}" if d > 1 else f"{n}",
                            MPoly.const(QQ, VW, Fraction(n, d))),
              st.integers(0, 12), st.integers(1, 4)),
    st.builds(lambda vk: (f"{vk[0]}^{vk[1]}", MPoly.var(QQ, VW, vk[0]) ** vk[1]),
              _VAR_POWER),
    st.builds(lambda vk: (f"-{vk[0]}^{vk[1]}", (-MPoly.var(QQ, VW, vk[0])) ** vk[1]),
              _VAR_POWER),
    st.builds(lambda i, c, j: (f"(v^{i} - {c}*w^{j})",
                               MPoly.var(QQ, VW, "v") ** i - MPoly.var(QQ, VW, "w") ** j * c),
              st.integers(0, 2), st.integers(0, 3), st.integers(0, 2)),
)
_SIGNED_TERMS = st.lists(
    st.tuples(st.sampled_from("+-"), st.lists(_FACTORS, min_size=1, max_size=4)),
    min_size=1, max_size=6,
)


@settings(max_examples=200)
@given(terms=_SIGNED_TERMS)
def test_parse_matches_product_of_factors(terms):
    # the oracle multiplies the factors left to right and adds the signed
    # terms in order, so the term dicts must agree in order too
    text, oracle = "", MPoly.zero(QQ, VW)
    for sign, factors in terms:
        text += f" {sign} " + "*".join(t for t, _ in factors)
        prod = factors[0][1]
        for _, f in factors[1:]:
            prod = prod * f
        oracle = oracle + prod if sign == "+" else oracle - prod
    p = P(text)
    assert list(p.terms.items()) == list(oracle.terms.items())


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        P("v^3 + + w")
    assert exc.value.position is not None


def test_parse_unknown_variable():
    with pytest.raises((ParseError, UnknownVariable)):
        P("v + q")


# ---------------------------------------------------------------------------
# arithmetic and structure

def _polys(coeffs):
    return st.builds(
        lambda terms: MPoly(QQ, VW, {
            e: Fraction(c) for e, c in terms.items() if c
        }),
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            coeffs,
            max_size=6,
        ),
    )


small_polys = _polys(st.integers(-5, 5))
# denominators 1-6: exercises clearing denominators and rescaling back
rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
rational_polys = _polys(rationals)
polys = small_polys | rational_polys


@settings(max_examples=100)
@given(a=polys, b=polys, c=polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a * b == b * a


def test_homogeneous_parts_and_tangent_cone():
    p = P("v^2 + v*w + w^3 - v^4")
    parts = p.homogeneous_parts()
    assert sorted(parts) == [2, 3, 4]
    assert p.tangent_cone() == P("v^2 + v*w")
    assert p.order_at_origin() == 2


@settings(max_examples=100, deadline=None)
@given(p=polys, c=rationals, var=st.sampled_from(VW))
def test_shift_is_translation(p, c, var):
    q = P("v^2 + w").shift("v", Fraction(1))  # v -> v + 1
    assert q == P("v^2 + 2*v + 1 + w")
    # evaluate at var + c as an independent oracle, over QQ ...
    env = {u: MPoly.var(QQ, VW, u) for u in VW}
    env[var] = env[var] + c
    q = p.shift(var, c)
    assert q.ctx == QQ and q == p.evaluate(env)
    # ... and over Q(sqrt 2), with c involving the generator
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    r = ctx.gen()
    env = {u: MPoly.var(ctx, VW, u) for u in VW}
    env[var] = env[var] + (c + r)
    q = p.lift(ctx).shift(var, c + r)
    assert q.ctx == ctx and q == p.evaluate(env)
    pr = p.lift(ctx) * (1 - c * r)
    assert pr.shift(var, c * r) == pr.evaluate(
        {**env, var: MPoly.var(ctx, VW, var) + c * r})
    # results keep p's context; a scalar outside it is refused, not joined
    scaled = {u: MPoly.var(QQ, VW, u) for u in VW}
    scaled[var] = scaled[var] * c
    assert p.evaluate(scaled).ctx == QQ
    assert pr.shift(var, c).ctx == pr.evaluate(
        {**env, var: MPoly.var(ctx, VW, var) * (c * r)}).ctx == ctx
    with pytest.raises(ContextMismatch):
        p.shift(var, c + r)
    with pytest.raises(ContextMismatch):
        P("v + w").evaluate({"v": r, "w": r})


def test_exact_div_long_division_oracle():
    # (v^5 - w^5) / (v - w) = v^4 + v^3 w + v^2 w^2 + v w^3 + w^4
    q = exact_div(P("v^5 - w^5"), P("v - w"))
    assert q == P("v^4 + v^3*w + v^2*w^2 + v*w^3 + w^4")
    assert exact_div(P("v^5 - w^5 + 1"), P("v - w")) is None


@settings(max_examples=100, deadline=None)
@given(a=polys, b=polys, c=polys, k=st.integers(0, 3))
def test_exact_div_inverts_product(a, b, c, k):
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    r = ctx.gen()
    # over Q(sqrt 2): w + r*b is nonconstant, and a*(1 - r) has algebraic
    # coefficients whenever a is nonzero
    ar, br = a.lift(ctx) * (1 - r), b.lift(ctx) * r + MPoly.var(ctx, VW, "w")
    # (b + c) * (b - c) = b^2 - c^2 loses its cross terms, so dividing it
    # by b - c puts terms into the remainder that the dividend lacks
    cases = [(a, b), (a * (b + c), b - c), (ar, br), (ar * (br + c), br - c)]
    for u, d in cases:
        if not d:
            continue
        q = exact_div(u * d, d)
        assert q == u and q.ctx == u.ctx
        if d.total_degree() == 0:
            continue
        assert exact_div(u * d + 1, d) is None
        if u:
            assert multiplicity_of_factor(u * d ** k, d) >= k


def test_multiplicity_of_factor():
    p = P("(v+w)^3 * (v-w)") * P("v")
    assert multiplicity_of_factor(p, P("v+w")) == 3
    assert multiplicity_of_factor(p, P("v-w")) == 1
    assert multiplicity_of_factor(p, P("v+2*w")) == 0


# ---------------------------------------------------------------------------
# gcd: sympy as an independent oracle

def _to_sympy(p, syms):
    expr = 0
    for (i, j), c in p.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * \
            syms[0] ** i * syms[1] ** j
    return expr


@settings(max_examples=100, deadline=None)
@given(a=polys, b=polys, g=polys)
def test_mgcd_against_sympy(a, b, g):
    p, q = a * g, b * g
    if not p or not q:
        return
    ours = mgcd(p, q)
    syms = sympy.symbols("v w")
    theirs = sympy.gcd(sympy.Poly(_to_sympy(p, syms), *syms, domain="QQ"),
                       sympy.Poly(_to_sympy(q, syms), *syms, domain="QQ"))
    # compare up to a constant: same degree and exact divisibility both ways
    t = theirs.total_degree()
    assert ours.total_degree() == t
    assert exact_div(p, ours) is not None
    assert exact_div(q, ours) is not None


def test_squarefree_detection():
    assert is_squarefree(P("v*w*(v+w)"))
    assert not is_squarefree(P("v^2*w"))
    assert not is_squarefree(P("(v+w)^2*(v-w)"))
    # squarefree_part runs the same gcd chain and divides by its result
    for text, radical in [("v^2*w", "v*w"), ("(v+w)^2*(v-w)", "(v+w)*(v-w)"),
                          ("v*w*(v+w)", "v*w*(v+w)")]:
        q = exact_div(squarefree_part(P(text)), P(radical))
        assert q is not None and q.total_degree() == 0


@settings(max_examples=100, deadline=None)
@given(p=polys, c1=rationals, c2=rationals)
def test_scalar_evaluate_is_constant_term_after_shift(p, c1, c2):
    # over QQ, and over Q(sqrt 2) at a point involving the generator
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    r = ctx.gen()
    for q, a, b in ((p, c1, c2), (p.lift(ctx), c1 + r, c2 * r)):
        moved = q.shift("v", a).shift("w", b)
        value = q.evaluate({"v": a, "w": b})
        assert value == moved.terms.get((0, 0), 0)


@settings(max_examples=100, deadline=None)
@given(a1=st.lists(rationals, max_size=5), b1=st.lists(rationals, max_size=5),
       c=st.lists(rationals, max_size=4))
def test_uni_gcd_qq(a1, b1, c):
    a, b = _sc._pmul(c, a1), _sc._pmul(c, b1)
    g = _uni_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == 1
    for p in (a, b):
        assert _sc._pdivmod(p, g)[1] == []
    assert len(g) >= len(_sc._trim(c))


def test_uni_gcd_empty_inputs():
    b = [Fraction(3), Fraction(-1, 2), Fraction(2)]
    assert _uni_gcd([], b) == [Fraction(3, 2), Fraction(-1, 4), Fraction(1)]
    assert _uni_gcd(b, []) == _uni_gcd([], b)
    assert _uni_gcd([], []) == []


def test_squarefree_part_coeffs():
    # (t-1)^2 (t+2) -> radical (t-1)(t+2) = t^2 + t - 2
    cs = [Fraction(c) for c in (2, -3, 0, 1)]
    assert squarefree_part_coeffs(cs) == [Fraction(-2), Fraction(1),
                                          Fraction(1)]


def test_repeated_part_coeffs():
    # (t-1)^3 (t+2)^2 (t-5) -> (t-1)(t+2) = t^2 + t - 2; simple roots drop out
    t = sympy.Symbol("t")
    expr = sympy.expand((t - 1) ** 3 * (t + 2) ** 2 * (t - 5))
    cs = [Fraction(int(c)) for c in reversed(sympy.Poly(expr, t).all_coeffs())]
    assert repeated_part_coeffs(cs) == [Fraction(-2), Fraction(1), Fraction(1)]
    # squarefree input: a constant, so no factor is kept
    assert repeated_part_coeffs([Fraction(-2), Fraction(1), Fraction(1)]) == [Fraction(1)]
    assert repeated_part_coeffs([]) == []


# ---------------------------------------------------------------------------
# resultants: the Sylvester determinant as an independent oracle

def test_resultant_hand_sylvester():
    # Res_w(w^2 + v, w + 1) = hand Sylvester determinant = 1 + v
    r = resultant(P("w^2 + v"), P("w + 1"), "w")
    assert r == P("v + 1")
    # Res_w(a w + b, c w + d) = a d - b c with polynomial entries
    r2 = resultant(P("v*w + 1"), P("w + v"), "w")
    assert r2 == P("v^2 - 1")
    # det [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]] = -1;
    # sympy 1.14 returns 1 here
    assert resultant(P("w + 1"), P("w^3"), "w") == P("-1")
    assert resultant(P("w^3"), P("w + 1"), "w") == P("1")


def _sylvester_det(p, q, var, syms):
    """det of the Sylvester matrix of p, q in var, exactly over QQ[v]."""
    m, n = p.degree_in(var), q.degree_in(var)
    pc = [_to_sympy(p.coeff_of(var, k), syms) for k in range(m, -1, -1)]
    qc = [_to_sympy(q.coeff_of(var, k), syms) for k in range(n, -1, -1)]
    rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
    M = DomainMatrix.from_list_sympy(m + n, m + n, rows)
    return M.domain.to_sympy(M.det())


@settings(max_examples=100, deadline=None)
@given(a=polys, b=polys)
def test_resultant_against_sympy(a, b):
    if not a or not b or a.degree_in("w") == 0 or b.degree_in("w") == 0:
        return
    ours = resultant(a, b, "w")
    assert all(j == 0 for _i, j in ours.terms)
    syms = sympy.symbols("v w")
    assert sympy.expand(_to_sympy(ours, syms)
                        - _sylvester_det(a, b, "w", syms)) == 0
    mn = a.degree_in("w") * b.degree_in("w")
    assert resultant(b, a, "w") == ours * (-1) ** mn


def test_resultant_over_number_field_by_hand():
    # over Q(sqrt 2) the Sylvester determinant is eliminated by Bareiss;
    # Res_w(w - r, q) = q(r) for monic w - r
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    r = ctx.gen()
    v, w = (MPoly.var(ctx, VW, u) for u in VW)
    assert resultant(w - r, w ** 2 - v, "w") == P("2 - v").lift(ctx)
    assert resultant(w - r, w ** 2 + v * w, "w") == v * r + 2
    # degrees 1 and 3: swapping the operands flips the sign
    assert resultant(w - r, w ** 3 + v, "w") == v + 2 * r
    assert resultant(w ** 3 + v, w - r, "w") == -(v + 2 * r)
    # the third Bareiss pivot is 2 - r^2 = 0, so two rows are swapped
    assert resultant(w ** 2 + r * w + 1 + v, w ** 2 + 2 * r * w + 3 + v,
                     "w") == 2 * v + 2


@settings(max_examples=50, deadline=None)
@given(a=polys, b=polys)
def test_resultant_over_number_field_matches_qq(a, b):
    # QQ inputs lifted to Q(sqrt 2) take the Bareiss path, and must give
    # what the QQ path gives
    if not a or not b or a.degree_in("w") == 0 or b.degree_in("w") == 0:
        return
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    ours = resultant(a.lift(ctx), b.lift(ctx), "w")
    assert ours.ctx == ctx
    assert ours == resultant(a, b, "w").lift(ctx)


# ---------------------------------------------------------------------------
# factorization

def test_factor_univariate_rationals():
    p = P("v^5 - v", vars=("v",))
    facs = factor_univariate(p)
    degs = sorted(f.total_degree() for f, _k in facs)
    assert degs == [1, 1, 1, 2]  # v (v-1) (v+1) (v^2+1)
    prod = MPoly.const(QQ, ("v",), 1)
    for f, k in facs:
        prod = prod * f ** k
    assert prod == p  # p is monic


def test_factor_univariate_rational_coefficients():
    p = P("(2/3*v - 1/2)^2 * (5/4*v^2 + 1/6) * v", vars=("v",))
    facs = factor_univariate(p)
    assert sorted((f.total_degree(), k) for f, k in facs) == \
        [(1, 1), (1, 2), (2, 1)]
    prod = MPoly.const(QQ, ("v",), p.terms[(5,)])  # leading coefficient
    for f, k in facs:
        assert f.terms[(f.total_degree(),)] == 1
        prod = prod * f ** k
    assert prod == p


def test_factor_cyclotomic_irreducible():
    p = P("v^4 + v^3 + v^2 + v + 1", vars=("v",))
    facs = factor_univariate(p)
    assert len(facs) == 1 and facs[0][1] == 1
    assert facs[0][0] == p


def test_factor_over_extension_trager():
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    r = ctx.gen()
    p = parse_poly("v^2 - 2", ctx=ctx, vars=("v",))
    facs = factor_univariate(p)
    assert len(facs) == 2
    roots = set()
    for f, k in facs:
        assert k == 1 and f.total_degree() == 1
        roots.add(-f.terms.get((0,), Fraction(0)))
    assert roots == {r, -r}


def test_factor_with_multiplicity_over_extension():
    ctx = extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    p = parse_poly("(v^2 - 2)^2 * (v - 1)", ctx=ctx, vars=("v",))
    facs = factor_univariate(p)
    assert sorted(k for _f, k in facs) == [1, 2, 2]


def test_univariate_round_trip():
    cs = [Fraction(3), Fraction(0), Fraction(-1), Fraction(2)]
    p = poly_from_coeffs(cs, QQ, VW, "w")
    assert univariate_coeffs(p, "w") == cs


def test_require_coprime():
    require_coprime(P("v"), P("w"))
    with pytest.raises(CommonComponent):
        require_coprime(P("v*(v+w)"), P("w*(v+w)"))


# ---------------------------------------------------------------------------
# factoring ternary forms: sympy's trivariate factor_list as the oracle

def _factor_oracle(p):
    """(unit, [(factor, k)]) from sympy's factor_list in (x, y, z), in the
    order of the text of each factor's Poly."""
    syms = sympy.symbols(AV)
    expr = sympy.sympify(p.to_text().replace("^", "**"))
    unit, facs = sympy.factor_list(expr, *syms)
    facs.sort(key=lambda t: str(sympy.Poly(t[0], *syms, domain="QQ")))
    return Fraction(unit.p, unit.q), [
        (P(str(f).replace("**", "^"), vars=AV), k) for f, k in facs
    ]


def _check_factor_qq(p):
    unit, facs = factor_qq(p)
    prod = MPoly.const(QQ, AV, unit)
    for f, k in facs:
        prod = prod * f ** k
    assert prod == p
    assert (unit, facs) == _factor_oracle(p)


@pytest.mark.parametrize("text", [
    "(x - y)*(2*x + z)*z",                    # z | f
    "-(x - y)*(2*x + z)*z^2",                 # z^2 | f: exponent 2 comes back
    "(x^2 - 2*y^2)*(x + 3*y)^2",              # no z at all
    "z^5",                                    # a pure power of z
    "-3*z^3",
    "-x^3 + y^2*z",                           # negative leading coefficient
    "(y*z - x^2)*(x*z - y^2 + 3*z^2)",
    "1/2*(x*y - 1/3*z^2)*(y - z)^2*z",        # rational coefficients
    "(2/5*x + 7/3*y - z)*(x^2 + y^2 + z^2)",
    "(z*x^2 + y^3)*(x^3 + z*y^2)",
])
def test_factor_qq_ternary_forms_against_sympy(text):
    _check_factor_qq(P(text, vars=AV))


@pytest.mark.parametrize("text,vars", [
    ("x^2 + y", AV),              # not homogeneous
    ("x*y - z^2", ("x", "y", "z", "t")),  # four variables
    ("v*w", VW),                  # two variables
])
def test_factor_qq_rejects_non_ternary_forms(text, vars):
    with pytest.raises(NotHomogeneous):
        factor_qq(P(text, vars=vars))


def _linear_forms():
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.tuples(coeff, coeff, coeff).filter(any).map(
        lambda c: MPoly(QQ, AV, {e: a for e, a in zip(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)), c) if a}))


@settings(max_examples=30, deadline=None)
@given(lines=st.lists(_linear_forms(), min_size=1, max_size=4),
       k=st.integers(0, 2), quadric=st.booleans())
def test_factor_qq_products_of_forms_against_sympy(lines, k, quadric):
    p = MPoly.const(QQ, AV, 1)
    for line in lines:
        p = p * line
    if quadric:
        p = p * P("x^2 - y*z + 2*z^2", vars=AV)
    _check_factor_qq(p * MPoly.var(QQ, AV, "z") ** k)


# ---------------------------------------------------------------------------
# factoring ternary forms: sympy's bivariate factor_list as the oracle

POOL = benchmark_pool()


def _cone(text):
    F = P(text, vars=AV)
    parts = F.homogeneous_parts()
    return parts[min(parts)]


def _check_against_bivariate_oracle(p):
    got = factor_qq(p)
    assert got == sympy_factor_qq(p)
    return got


@pytest.mark.parametrize("name", sorted(POOL))
def test_factor_qq_pool_cones_against_oracle(name):
    # the tangent cone of each benchmark surface, and two drawn integer
    # changes of coordinates of it
    rng = random.Random(name)
    cone = _cone(POOL[name])
    for p in (cone, linear_change(cone, rng), linear_change(cone, rng)):
        _check_against_bivariate_oracle(p)


@pytest.mark.parametrize("text,pieces", [
    ("x^2 - 2*y^2 - z^2", 1),
    ("(x^2 - 2*y^2 - z^2)*(x - y)", 2),
    ("(x^2 - 2*y^2 - z^2)*(x - y)*(x + 2*y - 3*z)", 3),
    ("(x^4 - 2*y^4 - 4*z^4)*(x^2 - 3*y^2 - z^2)", 2),
])
def test_factor_qq_recombines_split_images(text, pieces):
    # the image at y0 = 0 is squarefree, so it is the one lifted, and it has
    # more factors than the form: the lifted factors must be recombined
    p = P(text, vars=AV)
    flat = PolyRing(("x",), ZZ).from_dict(
        {(i,): c.numerator for (i, j, _k), c in p.terms.items() if j == 0})
    assert flat.is_squarefree
    assert len(flat.factor_list()[1]) > pieces
    assert len(_check_against_bivariate_oracle(p)[1]) == pieces


@pytest.mark.parametrize("text", [
    "(x - y)^2*(x + y + z)",
    "z^2*(x^2 + y^2 - z^2)",
    "(x^2 - y*z)^3*(x + z)*z^2",
    "x^2*y^3*z",
    "(x^2 - 2*y^2 - z^2)^2*(x - y)",
])
def test_factor_qq_non_reduced_against_oracle(text):
    _check_against_bivariate_oracle(P(text, vars=AV))


@pytest.mark.parametrize("text", [
    "x*y*z*(x + y + z)",
    "(x*y - z^2)*(x*z - y^2)*(y*z - x^2)",
    "x*y*z*(x^2 - 2*y^2 - z^2)",
])
def test_factor_qq_needs_a_shear(text):
    # [1:0:0], [0:1:0] and [0:0:1] all lie on the curve, so no coordinate
    # permutation puts a point off it at [1:0:0]
    p = P(text, vars=AV)
    n = p.total_degree()
    assert not any(n in e for e in p.terms)
    _check_against_bivariate_oracle(p)


def test_factor_qq_recombination_cap(monkeypatch):
    # x^2 - 1 splits, x^2 - 2*y^2 - z^2 does not: the first single lifted
    # factor fails its trial division, and the second is past the cap
    monkeypatch.setattr(poly, "RECOMBINATION_CAP", 1)
    with pytest.raises(DegreeTooLarge):
        factor_qq(P("x^2 - 2*y^2 - z^2", vars=AV))


def test_factor_qq_forty_line_pencil():
    # sympy's factor_list takes seconds here, so the check is the product
    p = math.prod((P(f"x - {i}*y", vars=AV) for i in range(1, 41)),
                  start=MPoly.const(QQ, AV, 1))
    unit, facs = factor_qq(p)
    assert len(facs) == 40
    assert all(k == 1 and f.total_degree() == 1 for f, k in facs)
    assert math.prod((f for f, _ in facs), start=MPoly.const(QQ, AV, unit)) == p


def test_factor_coeff_list_linear_without_sympy(monkeypatch):
    def refuse(coeffs):
        raise AssertionError("a linear list reached the factorizer")
    monkeypatch.setattr(poly, "_factor_qq", refuse)
    assert factor_coeff_list([Fraction(3), Fraction(2)], QQ) == \
        [([Fraction(3, 2), Fraction(1)], 1)]
