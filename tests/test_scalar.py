"""Exact scalar arithmetic: rationals and algebraic extensions."""

from fractions import Fraction

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
    as_scalar,
    extend_field,
    is_zero,
    join,
    make_algnum,
    scalar_div,
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
        scalar_div(Fraction(1), Fraction(0))


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
        assert scalar_div(x, y) * y == x
    if not is_zero(x):
        assert x * scalar_inv(x) == Fraction(1)
