"""Exact scalar arithmetic: rationals and algebraic extensions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sislip.errors import (
    ContextMismatch,
    DivisionByZero,
    NotIrreducible,
    TowerDepthExceeded,
)
from sislip.scalar import (
    QQ,
    AlgNum,
    _padd,
    _pmod,
    _pmul,
    as_scalar,
    extend_field,
    is_zero,
    join,
    make_algnum,
    scalar_inv,
)

rats = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def sqrt2_ctx():
    return extend_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])


def test_base_context_is_rationals():
    assert QQ.degree() == 1
    assert QQ.depth == 0
    assert is_zero(as_scalar(QQ, Fraction(0)))
    assert not is_zero(as_scalar(QQ, Fraction(1, 7)))


def test_sqrt2_arithmetic():
    ctx = sqrt2_ctx()
    r = ctx.gen()
    assert r * r == Fraction(2)
    assert (1 + r) * (-1 + r) == Fraction(1)
    assert scalar_inv(r) * r == Fraction(1)
    # 1/(1+sqrt2) = sqrt2 - 1
    assert scalar_inv(1 + r) == r - 1


def test_cyclotomic_oracle():
    # x^4+x^3+x^2+x+1 = minimal polynomial of a primitive 5th root z;
    # hand oracle: z^5 = 1 and 1 + z + z^2 + z^3 + z^4 = 0
    ctx = extend_field(QQ, [Fraction(c) for c in (1, 1, 1, 1, 1)])
    z = ctx.gen()
    assert z ** 5 == Fraction(1)
    assert z + z ** 2 + z ** 3 + z ** 4 == Fraction(-1)
    assert scalar_inv(z) == z ** 4


def test_tower_of_two():
    ctx = sqrt2_ctx()
    r = ctx.gen()
    # adjoin sqrt(3) on top of Q(sqrt 2)
    ctx2 = extend_field(ctx, [as_scalar(ctx, -3), as_scalar(ctx, 0),
                              as_scalar(ctx, 1)])
    s = ctx2.gen()
    prod = (make_algnum(ctx2, [r]) * s)
    assert prod * prod == Fraction(6)


def test_tower_depth_cap():
    ctx = sqrt2_ctx()
    ctx2 = extend_field(ctx, [as_scalar(ctx, -3), as_scalar(ctx, 0),
                              as_scalar(ctx, 1)])
    with pytest.raises(TowerDepthExceeded):
        extend_field(ctx2, [as_scalar(ctx2, -5), as_scalar(ctx2, 0),
                            as_scalar(ctx2, 1)])


def test_reducible_minpoly_rejected():
    with pytest.raises(NotIrreducible):
        extend_field(QQ, [Fraction(-4), Fraction(0), Fraction(1)])  # t^2-4


def test_division_by_zero():
    ctx = sqrt2_ctx()
    with pytest.raises(DivisionByZero):
        scalar_inv(as_scalar(ctx, 0))
    with pytest.raises(DivisionByZero):
        ctx.gen() / Fraction(0)


def test_join_ctx():
    ctx = sqrt2_ctx()
    assert join(QQ, ctx) == ctx
    assert join(ctx, QQ) == ctx
    assert join(ctx, ctx) == ctx
    other = extend_field(QQ, [Fraction(-3), Fraction(0), Fraction(1)])
    with pytest.raises(ContextMismatch):
        join(ctx, other)


@settings(max_examples=100)
@given(a=rats, b=rats, c=rats)
def test_field_axioms_in_extension(a, b, c):
    ctx = sqrt2_ctx()
    r = ctx.gen()
    x = a + b * r
    y = c + a * r
    assert (x + y) - y == x
    assert x * y == y * x
    if not is_zero(y):
        assert x / y * y == x
    if not is_zero(x):
        assert x * scalar_inv(x) == Fraction(1)


# -- the integer kernel of depth-1 fields, against the coefficient-list path

KERNEL_FIELDS = {
    "sqrt2": (-2, 0, 1),
    "cyclotomic5": (1, 1, 1, 1, 1),
    # non-integral minimal polynomial t^4 - 7/2 t^3 + 6t^2 - 6t + 41/16
    "quartic": (Fraction(41, 16), -6, 6, Fraction(-7, 2), 1),
}


def kernel_field(name):
    return extend_field(QQ, [Fraction(c) for c in KERNEL_FIELDS[name]])


def coeff_list(v):
    """Coefficients over Q of a depth-1 scalar, as the oracle path takes them."""
    if isinstance(v, AlgNum):
        return list(v.coeffs)
    return [v] if v else []


def assert_canonical(v):
    if not isinstance(v, AlgNum):
        assert isinstance(v, Fraction)
        return
    assert v.depth == 1
    assert len(v.num) >= 2 and v.num[-1] != 0
    assert v.den > 0
    assert gcd(v.den, *v.num) == 1
    assert all(isinstance(c, int) for c in v.num)


elems = st.lists(rats, min_size=4, max_size=4)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(KERNEL_FIELDS)), xs=elems, ys=elems, r=rats)
def test_kernel_matches_coefficient_path(name, xs, ys, r):
    ctx = kernel_field(name)
    m = list(ctx.top_minpoly)
    n = len(m) - 1
    x, y = make_algnum(ctx, xs[:n]), make_algnum(ctx, ys[:n])
    a, b = coeff_list(x), coeff_list(y)
    for v in (x, y):
        assert_canonical(v)
    for got, want in (
        (x + y, _padd(a, b)),
        (x - y, _padd(a, [-c for c in b])),
        (x * y, _pmod(_pmul(a, b), m)),
        (x * r, _pmod(_pmul(a, [r] if r else []), m)),
        (r * x, _pmod(_pmul(a, [r] if r else []), m)),
        (x + r, _padd(a, [r])),
        (r - x, _padd([r], [-c for c in a])),
    ):
        assert_canonical(got)
        assert coeff_list(got) == want
    if x:
        inv = scalar_inv(x)
        assert_canonical(inv)
        assert _pmod(_pmul(coeff_list(inv), a), m) == [Fraction(1)]
    power = [Fraction(1)]
    for k in range(6):
        got = x ** k
        assert_canonical(got)
        assert coeff_list(got) == power
        power = _pmod(_pmul(power, a), m)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(KERNEL_FIELDS)), xs=elems, ys=elems)
def test_kernel_equality_and_hash(name, xs, ys):
    ctx = kernel_field(name)
    n = len(ctx.top_minpoly) - 1
    x, y = make_algnum(ctx, xs[:n]), make_algnum(ctx, ys[:n])
    # the same value through integer operations and from Fractions
    via_ops = (x * y + x) - y * x
    from_fracs = make_algnum(ctx, coeff_list(x))
    assert via_ops == from_fracs
    assert hash(via_ops) == hash(from_fracs)
    assert not (via_ops != from_fracs)
    # a value of an equal field built separately compares equal too
    twin = make_algnum(kernel_field(name), coeff_list(x))
    assert twin == x and hash(twin) == hash(x)


def test_kernel_collapses_to_fraction():
    ctx = kernel_field("quartic")
    a = ctx.gen()
    assert a - a == Fraction(0) and isinstance(a - a, Fraction)
    half = make_algnum(ctx, [Fraction(1, 2), Fraction(3, 4)]) - Fraction(3, 4) * a
    assert half == Fraction(1, 2) and isinstance(half, Fraction)
    assert a * 0 == Fraction(0) and isinstance(a * 0, Fraction)
    # a^4 over the table's denominator: -41/16 + 6a - 6a^2 + 7/2 a^3
    a4 = a ** 4
    assert_canonical(a4)
    assert (a4.num, a4.den) == ((-41, 96, -96, 56), 16)


def test_mixed_depth_product():
    ctx1 = sqrt2_ctx()
    r = ctx1.gen()
    ctx2 = extend_field(ctx1, [as_scalar(ctx1, -3), as_scalar(ctx1, 0),
                               as_scalar(ctx1, 1)])
    s = ctx2.gen()
    x = Fraction(1, 3) + r  # depth 1
    y = (2 + r) * s + Fraction(5, 7)  # depth 2
    assert isinstance(x, AlgNum) and x.depth == 1
    assert isinstance(y, AlgNum) and y.depth == 2
    for prod in (x * y, y * x):
        assert prod.ctx == ctx2 and prod.depth == 2
        assert list(prod.coeffs) == [x * Fraction(5, 7), x * (2 + r)]
    assert (x * s) * (x * s) == 3 * x * x
