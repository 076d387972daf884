"""Exact field arithmetic over Q and over towers of simple algebraic extensions.

Scalars are either `fractions.Fraction` (elements of Q, valid in every
context) or `AlgNum` (elements of a proper extension).  A degree-0 algebraic
number is always collapsed to the scalar of the field below, so equality is a
plain value comparison and dict keys behave.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextMismatch, DivisionByZero, NotIrreducible, TowerDepthExceeded

__all__ = [
    "QQ",
    "FieldCtx",
    "AlgNum",
    "as_scalar",
    "is_zero",
    "scalar_inv",
    "extend_field",
]


class FieldCtx:
    """A tower of simple extensions of Q.

    ``tower`` is a tuple of levels ``(generator_name, minpoly)`` where
    ``minpoly`` is a monic coefficient tuple (low to high) over the field
    below.  The empty tower is Q itself.
    """

    __slots__ = ("tower", "max_depth")

    def __init__(self, tower=(), max_depth=2):
        self.tower = tuple(tower)
        self.max_depth = max_depth

    @property
    def depth(self):
        return len(self.tower)

    @property
    def sub(self):
        if not self.tower:
            raise ValueError("Q has no subfield")
        return FieldCtx(self.tower[:-1], self.max_depth)

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
        sub_zero = Fraction(0)
        sub_one = Fraction(1)
        return AlgNum(self, (sub_zero, sub_one))

    def gen_names(self):
        return tuple(name for name, _ in self.tower)

    def is_prefix_of(self, other):
        return self.tower == other.tower[: len(self.tower)]

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.tower == other.tower

    def __hash__(self):
        return hash(self.tower)

    def __repr__(self):
        if not self.tower:
            return "QQ"
        parts = ", ".join(name for name, _ in self.tower)
        return f"QQ({parts})"


QQ = FieldCtx(())


def ctx_of(s):
    if isinstance(s, AlgNum):
        return s.ctx
    return QQ


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
    db, lb = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return [], a
    q = [Fraction(0)] * (len(a) - db)
    r = list(a)
    for k in range(len(a) - db - 1, -1, -1):
        c = scalar_div(r[k + db], lb)
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


class AlgNum:
    """Element of a proper extension, reduced mod the top minimal polynomial.

    ``coeffs`` has length >= 2 after trimming (degree-0 values collapse to the
    field below via :func:`make_algnum`).
    """

    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        self._hash = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.gen_names(), self.coeffs))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, AlgNum):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        return False  # degree-0 values never live in AlgNum

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return True

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        """Return (a_coeffs, b_coeffs, ctx) both as coeff lists at one level."""
        if isinstance(other, int):
            other = Fraction(other)
        ctx = join(self.ctx, ctx_of(other))
        return _as_coeffs(self, ctx), _as_coeffs(other, ctx), ctx

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        a, b, ctx = self._coerce(other)
        return make_algnum(ctx, _padd(a, b))

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return self.__add__(-_as_frac_or_alg(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, AlgNum)):
            return NotImplemented
        a, b, ctx = self._coerce(other)
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
    return AlgNum(ctx, coeffs)


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


def scalar_div(a, b):
    if isinstance(a, AlgNum) or isinstance(b, AlgNum):
        return _as_frac_or_alg(a) * scalar_inv(b)
    if b == 0:
        raise DivisionByZero("division by zero scalar")
    return Fraction(a) / b


def extend_field(ctx, m, name=None):
    """Extend ctx by a root of the monic irreducible polynomial m.

    ``m`` is a coefficient sequence (low to high, scalars of ctx) or a
    univariate MPoly over ctx.  Irreducibility is certified by attempting a
    full factorization; the embedding of ctx into the result is the identity
    on scalar values.
    """
    from . import poly  # deferred: poly depends on scalar

    if hasattr(m, "terms"):  # univariate MPoly
        m = poly.univariate_coeffs(m)
    m = _trim([as_scalar(ctx, c) for c in m])
    if len(m) < 2:
        raise NotIrreducible("minimal polynomial must have positive degree")
    if m[-1] != 1:
        raise NotIrreducible("minimal polynomial must be monic")
    if ctx.depth >= ctx.max_depth:
        raise TowerDepthExceeded(
            f"tower depth cap {ctx.max_depth} reached extending {ctx}"
        )
    factors = poly.factor_coeff_list(m, ctx)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotIrreducible(f"polynomial of degree {len(m)-1} factors over {ctx}")
    if name is None:
        name = f"a{ctx.depth + 1}"
    if name in ctx.gen_names():
        raise ValueError(f"generator name {name!r} already used")
    return FieldCtx(ctx.tower + ((name, tuple(m)),), ctx.max_depth)
