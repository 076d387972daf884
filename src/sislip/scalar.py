"""Exact field arithmetic over Q and over towers of simple algebraic extensions.

Scalars are either `fractions.Fraction` (elements of Q, valid in every
context) or `AlgNum` (elements of a proper extension).  A degree-0 algebraic
number is always collapsed to the scalar of the field below, so equality is a
plain value comparison and dict keys behave.

An element of a depth-1 field Q(a) is stored as integer numerators over one
positive integer denominator, and `+`, `-`, `*` and scaling by a rational are
integer operations: a product is an integer convolution followed by one
reduction through the field's table of a^n .. a^(2n-2).  Elements of deeper
levels keep coefficient lists over the field below, whose coefficients are
scalars of that field; inverses run the extended Euclid on coefficient lists.

Every proper extension comes from `extend_field`, which certifies it and
stops at `MAX_TOWER_DEPTH`; `poly.adjoin_root` calls it for every root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ContextMismatch, DivisionByZero, NotIrreducible, TowerDepthExceeded

__all__ = [
    "QQ",
    "MAX_TOWER_DEPTH",
    "FieldCtx",
    "AlgNum",
    "as_scalar",
    "is_zero",
    "scalar_inv",
    "extend_field",
]


MAX_TOWER_DEPTH = 2  # deepest tower `extend_field` builds


class FieldCtx:
    """A tower of simple extensions of Q.

    ``tower`` is a tuple of levels ``(generator_name, minpoly)`` where
    ``minpoly`` is a monic coefficient tuple (low to high) over the field
    below.  The empty tower is Q itself.
    """

    __slots__ = ("tower", "_powers")

    def __init__(self, tower=()):
        self.tower = tuple(tower)
        self._powers = None

    @property
    def depth(self):
        return len(self.tower)

    @property
    def sub(self):
        if not self.tower:
            raise ValueError("Q has no subfield")
        return FieldCtx(self.tower[:-1])

    @property
    def top_minpoly(self):
        return self.tower[-1][1]

    @property
    def top_name(self):
        return self.tower[-1][0]

    def degree(self):
        """Absolute degree over Q."""
        d = 1
        for _, mp in self.tower:
            d *= len(mp) - 1
        return d

    def gen(self):
        """The generator of the top level as a scalar of this context."""
        if not self.tower:
            raise ValueError("Q has no generator")
        return make_algnum(self, [Fraction(0), Fraction(1)])

    def power_table(self):
        """(n, D, rows) for a depth-1 field of degree n with generator a.

        a^(n+j) = sum_i rows[j][i] a^i / D for j = 0 .. n-2, with integer
        rows and one positive integer D.  Built on first use.
        """
        if self._powers is None:
            m = self.top_minpoly
            n = len(m) - 1
            row = [-c for c in m[:-1]]
            rows = [row]
            for _ in range(n - 2):
                row = [Fraction(0)] + row  # a * row, then a^n -> rows[0]
                top = row.pop()
                row = [r + top * c for r, c in zip(row, rows[0])]
                rows.append(row)
            big = lcm(*(c.denominator for r in rows for c in r))
            self._powers = (n, big, tuple(
                tuple(c.numerator * (big // c.denominator) for c in r) for r in rows
            ))
        return self._powers

    def gen_names(self):
        return tuple(name for name, _ in self.tower)

    def is_prefix_of(self, other):
        return self.tower == other.tower[: len(self.tower)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldCtx) and self.tower == other.tower
        )

    def __hash__(self):
        return hash(self.tower)

    def __repr__(self):
        if not self.tower:
            return "QQ"
        parts = ", ".join(name for name, _ in self.tower)
        return f"QQ({parts})"


QQ = FieldCtx(())


def join(c1, c2):
    """Deeper of two compatible contexts; error if neither extends the other."""
    if c1 == c2:
        return c1
    if c1.is_prefix_of(c2):
        return c2
    if c2.is_prefix_of(c1):
        return c1
    raise ContextMismatch(f"incompatible contexts {c1} and {c2}")


# ---------------------------------------------------------------------------
# generic univariate helpers over any scalar field (used for mod-minpoly
# arithmetic; coefficients are scalars of the field below)

def _trim(cs):
    n = len(cs)
    while n and is_zero(cs[n - 1]):
        n -= 1
    return list(cs[:n])


def _padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return _trim(out)


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _pdivmod(a, b):
    """Division with remainder over a field; b nonzero."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], a
    inv = scalar_inv(b[-1])
    q = [Fraction(0)] * (len(a) - db)
    r = list(a)
    for k in range(len(a) - db - 1, -1, -1):
        c = r[k + db] * inv
        if not is_zero(c):
            q[k] = c
            for i in range(db + 1):
                r[k + i] = r[k + i] - c * b[i]
    return _trim(q), _trim(r[:db])


def _pmod(a, m):
    return _pdivmod(a, m)[1]


def _ext_gcd(a, m):
    """(g, u) with u*a = g mod m, over a field."""
    r0, r1 = list(m), list(a)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, [ -c for c in _pmul(q, s1)])
    return r0, s0


# ---------------------------------------------------------------------------
# the integer kernel of a depth-1 field


def _alg1(ctx, num, den):
    """Canonical scalar sum(num[i] a^i) / den of the depth-1 field ctx; den > 0."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if n < 2:
        return Fraction(num[0], den) if n else Fraction(0)
    g = gcd(den, *num[:n])
    if g == 1:
        return AlgNum(ctx, 1, tuple(num[:n]), den)
    return AlgNum(ctx, 1, tuple(c // g for c in num[:n]), den // g)


def _add1(ctx, x, y):
    xn, yn, den = x.num, y.num, x.den
    if den != y.den:
        xn, yn, den = [c * y.den for c in xn], [c * den for c in yn], den * y.den
    if len(xn) < len(yn):
        xn, yn = yn, xn
    out = list(xn)
    for i, c in enumerate(yn):
        out[i] += c
    return _alg1(ctx, out, den)


def _mul1(ctx, x, y):
    xn, yn = x.num, y.num
    conv = [0] * (len(xn) + len(yn) - 1)
    for i, c in enumerate(xn):
        if c:
            for j, d in enumerate(yn, i):
                conv[j] += c * d
    den = x.den * y.den
    n, big, rows = ctx.power_table()
    if len(conv) > n:
        low = conv[:n]
        if big != 1:
            low = [c * big for c in low]
            den *= big
        for c, row in zip(conv[n:], rows):
            if c:
                for i, t in enumerate(row):
                    low[i] += c * t
        conv = low
    return _alg1(ctx, conv, den)


# ---------------------------------------------------------------------------


class AlgNum:
    """Element of a proper extension, reduced mod the top minimal polynomial.

    ``depth`` is the tower depth of ``ctx`` and selects the representation:

    - depth 1: integer numerators ``num`` over one integer denominator
      ``den``, the value being sum(num[i] a^i) / den.  Canonical form:
      ``den > 0``, ``gcd(den, *num) == 1`` and ``num[-1] != 0``.
    - deeper: a coefficient list over the field below, held in ``_coeffs``.

    Either way at least two coefficients remain after trimming: degree-0
    values collapse to the field below (see :func:`make_algnum`).  ``coeffs``
    is a read-only view of the coefficients over the field below (Fractions
    at depth 1).
    """

    __slots__ = ("ctx", "depth", "num", "den", "_coeffs", "_hash")

    def __init__(self, ctx, depth, num=None, den=None, coeffs=None):
        self.ctx = ctx
        self.depth = depth
        self.num = num
        self.den = den
        self._coeffs = coeffs
        self._hash = None

    @property
    def coeffs(self):
        if self.depth == 1:
            return tuple(Fraction(c, self.den) for c in self.num)
        return self._coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.gen_names(), self.coeffs))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, AlgNum):
            return False  # degree-0 values never live in AlgNum
        if self.depth == 1:
            return (other.depth == 1 and self.num == other.num
                    and self.den == other.den and self.ctx == other.ctx)
        return self.ctx == other.ctx and self._coeffs == other._coeffs

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return True

    # -- arithmetic ---------------------------------------------------------

    def _ctx_with(self, other):
        return self.ctx if other.ctx is self.ctx else join(self.ctx, other.ctx)

    def __add__(self, other):
        if isinstance(other, AlgNum):
            ctx = self._ctx_with(other)
            if self.depth == other.depth == 1:
                return _add1(ctx, self, other)
            a, b = _as_coeffs(self, ctx), _as_coeffs(other, ctx)
            return make_algnum(ctx, _padd(a, b))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return self
        if self.depth == 1:
            p, q = other.numerator, other.denominator
            out = [c * q for c in self.num]
            out[0] += p * self.den
            return _alg1(self.ctx, out, self.den * q)
        return make_algnum(self.ctx, _padd(self._coeffs, [Fraction(other)]))

    __radd__ = __add__

    def __neg__(self):
        if self.depth == 1:
            return AlgNum(self.ctx, 1, tuple(-c for c in self.num), self.den)
        return AlgNum(self.ctx, self.depth, coeffs=tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return self.__add__(-_as_frac_or_alg(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, AlgNum):
            ctx = self._ctx_with(other)
            if self.depth == other.depth == 1:
                return _mul1(ctx, self, other)
            a, b = _as_coeffs(self, ctx), _as_coeffs(other, ctx)
        elif isinstance(other, (int, Fraction)):
            if not other:
                return Fraction(0)
            if self.depth == 1:
                p, q = other.numerator, other.denominator
                return _alg1(self.ctx, [c * p for c in self.num], self.den * q)
            ctx, a, b = self.ctx, self._coeffs, [Fraction(other)]
        else:
            return NotImplemented
        return make_algnum(ctx, _pmod(_pmul(a, b), list(ctx.top_minpoly)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return self * scalar_inv(_as_frac_or_alg(other))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return _as_frac_or_alg(other) * scalar_inv(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Fraction(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        name = self.ctx.top_name
        terms = []
        for i, c in enumerate(self.coeffs):
            if is_zero(c):
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*{name}" if c != 1 else name)
            else:
                terms.append(f"{c}*{name}^{i}" if c != 1 else f"{name}^{i}")
        return " + ".join(terms) if terms else "0"


def _as_frac_or_alg(v):
    return Fraction(v) if isinstance(v, int) else v


def _as_coeffs(v, ctx):
    """Express scalar v (of a prefix of ctx) as coeff list over ctx.sub."""
    if isinstance(v, AlgNum) and v.ctx == ctx:
        return list(v.coeffs)
    # v lives strictly below: it is a valid scalar of ctx.sub as-is
    return [v] if not is_zero(v) else []


def make_algnum(ctx, coeffs):
    """Canonical scalar from a coefficient list over ctx.sub."""
    coeffs = _trim(coeffs)
    if not coeffs:
        return Fraction(0)
    if len(coeffs) == 1:
        return coeffs[0]
    if ctx.depth == 1:  # reduced rationals over their lcm have gcd 1
        den = lcm(*(c.denominator for c in coeffs))
        return AlgNum(ctx, 1, tuple(c.numerator * (den // c.denominator)
                                    for c in coeffs), den)
    return AlgNum(ctx, ctx.depth, coeffs=tuple(coeffs))


def as_scalar(ctx, value):
    """Coerce an int/Fraction/AlgNum into a scalar usable in ctx."""
    value = _as_frac_or_alg(value)
    if isinstance(value, AlgNum) and not value.ctx.is_prefix_of(ctx):
        raise ContextMismatch(f"{value!r} not in {ctx}")
    return value


def is_zero(s):
    if isinstance(s, AlgNum):
        return False  # normalized AlgNum is never zero
    return s == 0


def scalar_inv(s):
    if is_zero(s):
        raise DivisionByZero("division by zero scalar")
    if isinstance(s, Fraction):
        return 1 / s
    if isinstance(s, int):
        return Fraction(1, s)
    ctx = s.ctx
    m = list(ctx.top_minpoly)
    g, u = _ext_gcd(list(s.coeffs), m)
    if len(g) != 1:
        # minimal polynomial not irreducible: should not happen for certified ctx
        raise DivisionByZero(f"non-invertible element in {ctx}")
    ginv = scalar_inv(g[0])
    return make_algnum(ctx, [c * ginv for c in u])


def extend_field(ctx, m, name=None):
    """Extend ctx by a root of the monic irreducible polynomial m.

    ``m`` is a coefficient sequence (low to high, scalars of ctx) or a
    univariate MPoly over ctx.  Irreducibility is certified by attempting a
    full factorization; the embedding of ctx into the result is the identity
    on scalar values.  A tower deeper than `MAX_TOWER_DEPTH` raises
    TowerDepthExceeded.  The generator is ``name``, or else ``a<depth>``
    with ``_`` appended while taken.  Every proper extension is built here.
    """
    from . import poly  # deferred: poly depends on scalar

    if hasattr(m, "terms"):  # univariate MPoly
        m = poly.univariate_coeffs(m)
    m = _trim([as_scalar(ctx, c) for c in m])
    if len(m) < 2:
        raise NotIrreducible("minimal polynomial must have positive degree")
    if m[-1] != 1:
        raise NotIrreducible("minimal polynomial must be monic")
    if ctx.depth >= MAX_TOWER_DEPTH:
        raise TowerDepthExceeded(
            f"tower depth cap {MAX_TOWER_DEPTH} reached extending {ctx}"
        )
    factors = poly.factor_coeff_list(m, ctx)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotIrreducible(f"polynomial of degree {len(m)-1} factors over {ctx}")
    if name is None:
        name = f"a{ctx.depth + 1}"
        while name in ctx.gen_names():
            name += "_"
    if name in ctx.gen_names():
        raise ValueError(f"generator name {name!r} already used")
    return FieldCtx(ctx.tower + ((name, tuple(m)),))
