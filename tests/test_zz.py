"""The integer kernels of sislip.poly, with sympy as the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ as SYMPY_ZZ
from sympy.polys.galoistools import gf_factor_sqf

from util import (
    sylvester_resultant,
    sympy_factor_list,
    sympy_gcd,
    sympy_sqf_list,
    sympy_text,
)

from sislip import poly
from sislip.poly import (
    MPoly,
    _uni_gcd,
    divides,
    exact_div,
    factor_coeff_list,
    parse_poly,
    resultant,
)
from sislip.scalar import QQ

AV = ("x", "y", "z")


def _prod(*lists):
    out = [1]
    for a in lists:
        out = poly._mul_mod(out, a, None)
    return out


def _power(a, k):
    return _prod(*([a] * k))


def _monic_qq(a):
    return [Fraction(c, a[-1]) for c in a]


# lists of ints, low to high, with a nonzero lead
int_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(
    lambda a: a[-1])


def _dicts(n, max_exp=3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n), st.integers(-6, 6),
        max_size=5).map(lambda d: {e: c for e, c in d.items() if c})


# ---------------------------------------------------------------------------
# univariate factorization

@settings(max_examples=150, deadline=None)
@given(factors=st.lists(st.tuples(int_lists, st.integers(1, 3)),
                        min_size=1, max_size=4),
       j=st.integers(0, 2), scale=st.sampled_from([1, -1, 6, -10 ** 30]))
def test_factor_list_against_sympy(factors, j, scale):
    a = [scale]
    for f, k in factors:
        a = _prod(a, _power(f, k))
    a = [0] * j + a
    assert poly._zz_factor_list(a) == sympy_factor_list(a)


SWINNERTON_DYER_2 = [1, 0, -10, 0, 1]                  # sqrt 2 + sqrt 3
SWINNERTON_DYER_3 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # + sqrt 5


@pytest.mark.parametrize("a", [
    # irreducible, but it splits modulo every prime: recombination
    SWINNERTON_DYER_2,
    SWINNERTON_DYER_3,
    _prod(SWINNERTON_DYER_2, _power([-2, 0, 1], 2), [0, 0, 0, 1]),
    # big coefficients
    _prod([3, 10 ** 20], _power([7, -10 ** 15, 1], 2), [-1, 0, 0, 10 ** 9]),
    # a negative lead, with x^j
    _prod([-1], [-2, 0, 0, 1], [1, 1], [0, 0, 1]),
    # products of conjugate quadratics splitting into linear factors
    _prod(*[[-k * k, 0, 1] for k in range(1, 7)]),
    [0, 0, 0, 0, 5],
    [-4, 2],
])
def test_factor_list_hard_cases(a):
    assert poly._zz_factor_list(a) == sympy_factor_list(a)


@settings(max_examples=50, deadline=None)
@given(factors=st.lists(int_lists, min_size=1, max_size=3),
       den=st.integers(1, 12))
def test_factor_coeff_list_in_sympy_order(factors, den):
    a = _prod(*factors)
    if len(a) < 2:
        return
    got = factor_coeff_list([Fraction(c, den) for c in a], QQ)
    assert got == [(_monic_qq(f), k) for f, k in sympy_factor_list(a)]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
@pytest.mark.parametrize("a", [
    SWINNERTON_DYER_3,
    _prod(*[[k, 1] for k in range(1, 9)]),
    [1, 1, 1, 1, 1, 1, 1],
])
def test_gf_factors_against_sympy(a, p):
    f = poly._monic_mod(a, p)
    if not poly._gf_squarefree(f, p):
        return
    _, theirs = gf_factor_sqf(f[::-1], p, SYMPY_ZZ)
    ours = poly._gf_factors(f, p)
    assert ours == sorted(ours, key=lambda u: (len(u), u[::-1]))
    assert sorted(ours) == sorted([int(c) for c in reversed(u)]
                                  for u in theirs)


# ---------------------------------------------------------------------------
# gcds

def _positive(a):
    return a if not a or a[max(a)] > 0 else {e: -c for e, c in a.items()}


@settings(max_examples=150, deadline=None)
@given(a=int_lists, b=int_lists, g=int_lists)
def test_zz_gcd_against_sympy(a, b, g):
    p, q = _prod(a, g), _prod(b, g)
    ours = poly._zz_gcd(p, q)
    assert ours[-1] > 0
    assert poly._as_dict(ours) == sympy_gcd(poly._as_dict(p),
                                            poly._as_dict(q), 1)


def test_uni_gcd_zero_and_constant_operands():
    b = [Fraction(4), Fraction(-2), Fraction(6)]
    assert _uni_gcd([], b) == [Fraction(2, 3), Fraction(-1, 3), Fraction(1)]
    assert _uni_gcd([], []) == []
    assert _uni_gcd([Fraction(5, 3)], b) == [Fraction(1)]
    assert _uni_gcd(b, [Fraction(-7)]) == [Fraction(1)]
    assert poly._zz_gcd([6], [4, 2]) == [2]
    assert poly._zz_gcd([-6], [-9]) == [3]
    assert poly._zz_mgcd({}, {(1, 0): -2}) == {(1, 0): -2}
    assert poly._zz_mgcd({(0, 0): 4}, {(1, 0): 6, (0, 0): 2}) == {(0, 0): 2}


@settings(max_examples=100, deadline=None)
@given(a=_dicts(2), b=_dicts(2), g=_dicts(2))
def test_zz_mgcd_bivariate_against_sympy(a, b, g):
    p, q = poly._zz_mul(a, g), poly._zz_mul(b, g)
    assert _positive(poly._zz_mgcd(p, q)) == sympy_gcd(p, q, 2)


@settings(max_examples=40, deadline=None)
@given(a=_dicts(3, 2), b=_dicts(3, 2), g=_dicts(3, 2))
def test_zz_mgcd_trivariate_against_sympy(a, b, g):
    p, q = poly._zz_mul(a, g), poly._zz_mul(b, g)
    assert _positive(poly._zz_mgcd(p, q)) == sympy_gcd(p, q, 3)


@settings(max_examples=60, deadline=None)
@given(a=_dicts(2), b=_dicts(2), g=_dicts(2), u=int_lists, v=int_lists)
def test_gcds_without_the_heuristic(a, b, g, u, v):
    # with no evaluation point allowed, the primitive PRS decides alone
    p, q = poly._zz_mul(a, g), poly._zz_mul(b, g)
    r, s = _prod(u, v), _prod(v, v, [1, 3])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_HEU_TRIES", 0)
        assert _positive(poly._zz_mgcd(p, q)) == sympy_gcd(p, q, 2)
        assert poly._as_dict(poly._zz_gcd(r, s)) == sympy_gcd(
            poly._as_dict(r), poly._as_dict(s), 1)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(_dicts(2, 2), st.integers(1, 3)),
                      min_size=1, max_size=3))
def test_sqf_first_against_sympy(parts):
    # every factor must involve the first variable: add x0^(1 + deg)
    F = {(0, 0): 1}
    for a, k in parts:
        top = 1 + max((e[0] + e[1] for e in a), default=0)
        a = dict(a)
        a[(top, 0)] = a.get((top, 0), 0) + 1
        for _ in range(k):
            F = poly._zz_mul(F, a)
    ours = sorted((sorted(_positive(a).items()), k)
                  for a, k in poly._sqf_first(F))
    theirs = sorted((sorted(a.items()), k) for a, k in sympy_sqf_list(F, 2))
    assert ours == theirs


def test_divides():
    P = lambda text: parse_poly(text, vars=AV)  # noqa: E731
    f = P("(x + y)*(2*x - 3*z)^2")
    for q, expected in [("x + y", True), ("4*x - 6*z", True),
                        ("1/3*x + 1/3*y", True), ("x - y", False),
                        ("(2*x - 3*z)^3", False), ("x^2 + y*z", False)]:
        assert divides(P(q), f) is expected
        assert (exact_div(f, P(q)) is not None) is expected


# ---------------------------------------------------------------------------
# resultants

@settings(max_examples=80, deadline=None)
@given(a=_dicts(2), b=_dicts(2))
def test_zz_resultant_bivariate_against_sylvester(a, b):
    m = max((e[1] for e in a), default=0)
    n = max((e[1] for e in b), default=0)
    if not m or not n:
        return
    for (p, dp), (q, dq) in (((a, m), (b, n)), ((b, n), (a, m))):
        assert poly._zz_resultant(p, q, 1, dp, dq) == \
            sylvester_resultant(p, q, 1, 2)


@settings(max_examples=30, deadline=None)
@given(a=_dicts(3, 2), b=_dicts(3, 2), i=st.integers(0, 2))
def test_zz_resultant_trivariate_against_sylvester(a, b, i):
    m = max((e[i] for e in a), default=0)
    n = max((e[i] for e in b), default=0)
    if not m or not n:
        return
    assert poly._zz_resultant(a, b, i, m, n) == sylvester_resultant(a, b, i, 3)


def test_resultant_univariate_and_swapped_degrees():
    t = ("t",)
    p = MPoly(QQ, t, {(3,): Fraction(2), (0,): Fraction(-1, 2)})
    q = MPoly(QQ, t, {(1,): Fraction(1, 3), (0,): Fraction(5)})
    # by hand: q has the root -15, so Res(q, p) = (1/3)^3 p(-15), and
    # Res(p, q) = (-1)^(3*1) Res(q, p)
    expected = Fraction(-1) * Fraction(1, 27) * (2 * (-15) ** 3 - Fraction(1, 2))
    assert resultant(p, q, "t") == MPoly.const(QQ, t, expected)
    assert resultant(q, p, "t") == MPoly.const(QQ, t, -expected)


# ---------------------------------------------------------------------------
# factor_qq's sort key

@settings(max_examples=150, deadline=None)
@given(a=_dicts(3))
def test_sympy_text_against_str(a):
    if a:
        assert poly._sympy_text(a, AV) == sympy_text(a, AV)


# ---------------------------------------------------------------------------
# MPoly.evaluate

def test_evaluate_many_terms_against_term_by_term():
    P = lambda text, vars=AV: parse_poly(text, vars=vars)  # noqa: E731
    p = P("(x - 2*y + 3*z + 1)^9")
    assert len(p.terms) == 220
    env = {"x": P("v + w", ("v", "w")), "y": P("v - 2", ("v", "w")),
           "z": Fraction(1, 3)}
    oracle = MPoly.zero(QQ, ("v", "w"))
    for e, c in p.terms.items():
        term = MPoly.const(QQ, ("v", "w"), c)
        for name, k in zip(AV, e):
            value = env[name]
            for _ in range(k):
                term = term * value
        oracle = oracle + term
    assert p.evaluate(env) == oracle
    scalars = {"x": Fraction(2), "y": Fraction(-1, 5), "z": Fraction(3, 7)}
    assert p.evaluate(scalars) == sum(
        c * scalars["x"] ** i * scalars["y"] ** j * scalars["z"] ** k
        for (i, j, k), c in p.terms.items())
