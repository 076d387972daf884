"""Sparse multivariate polynomials over a FieldCtx.

Terms are stored as a dict mapping exponent tuples to nonzero scalars.  The
variable tuple is part of the value; mixed-variable arithmetic is an error.
Operands over two fields of one tower meet in the deeper one (`scalar.join`);
translating a polynomial by an irrational point needs a `lift` first.
Monomial order (graded lex) is fixed for printing and exact division only.

Work over QQ crosses into integers at one boundary, `to_zz` / `from_zz`:
an MPoly over QQ becomes a dict {exponent: int}, and a coefficient list a
list of ints, scaled by the lcm of its denominators.  The integer kernels
of this module run there, in plain Python integers:
- gcds: the heuristic gcd (Char, Geddes & Gonnet, J. Symb. Comp. 1989)
  with a proven evaluation point, then a primitive PRS if it keeps
  failing (`_zz_gcd`, `_zz_mgcd`);
- univariate factorization: modulo a small prime (distinct-degree, then
  Cantor-Zassenhaus), quadratic Hensel lifting and recombination by trial
  division (`_zz_factor_list`), with the factors in sympy's
  `factor_list` order, so that answers keep their order;
- resultants: the Sylvester determinant at integer points, interpolated
  (`_zz_resultant`);
- the products that build the cofactor M of a pullback numerator
  f~^m * M (`sis._pullback_numerator`).
`factor_qq` factors a ternary form from one univariate image: the factors
are lifted from it by Hensel lifting modulo a Mersenne prime and
recombined by trial division.  `MPoly.shift` over QQ is a Taylor pass in
Python integers over one common denominator, with one `Fraction` per
output term.  Everything over a number field runs on its scalars: the PRS
gcd, Euclid on coefficient lists, Trager's factorization and the Bareiss
resultant over Q(a).  Their scalar products and inverses run in the
integer kernel of `scalar`, which stores an element of Q(a) as integer
numerators over one denominator; the extended Euclid on `Fraction` lists
is left to the inverses of a depth-2 tower.  `divides` filters at a fixed
point of primes before it divides.  sympy serves as the test oracle only.

`resultant` returns the exact Sylvester determinant in both cases.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from fractions import Fraction

from . import scalar as _sc
from .errors import (
    CommonComponent,
    DegreeTooLarge,
    DivisionByZero,
    NotHomogeneous,
    ParseError,
    UnknownGenerator,
    UnknownVariable,
    ZeroPolynomial,
)
from .scalar import QQ, AlgNum, as_scalar, is_zero, join, scalar_inv

__all__ = [
    "MPoly",
    "parse_poly",
    "resultant",
    "mgcd",
    "exact_div",
    "divides",
    "factor_univariate",
    "factor_coeff_list",
    "adjoin_root",
    "univariate_coeffs",
    "poly_from_coeffs",
]


class MPoly:
    __slots__ = ("ctx", "vars", "terms", "_hash")

    def __init__(self, ctx, vars, terms):
        self.ctx = ctx
        self.vars = tuple(vars)
        self.terms = terms  # treated as immutable after construction
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx, vars):
        return cls(ctx, vars, {})

    @classmethod
    def const(cls, ctx, vars, c):
        c = as_scalar(ctx, c)
        if is_zero(c):
            return cls.zero(ctx, vars)
        return cls(ctx, vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, ctx, vars, name):
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(ctx, vars, {tuple(e): Fraction(1)})

    # -- basic protocol -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction, AlgNum)):
            return self == MPoly.const(self.ctx, self.vars, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))
        return self._hash

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch {self.vars} vs {other.vars}")

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            return MPoly.const(self.ctx, self.vars, other)
        return other

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return MPoly(join(self.ctx, other.ctx), self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ctx, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            if is_zero(other):
                return MPoly.zero(self.ctx, self.vars)
            return MPoly(self.ctx, self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if is_zero(s):
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MPoly(join(self.ctx, other.ctx), self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = MPoly.const(self.ctx, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            inv = _sc.scalar_inv(other)
            return self * inv
        return NotImplemented

    # -- structure ----------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            raise ZeroPolynomial("degree of zero polynomial")
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            raise ZeroPolynomial("degree of zero polynomial")
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def order_at_origin(self):
        if not self.terms:
            raise ZeroPolynomial("order of zero polynomial")
        return min(sum(e) for e in self.terms)

    def order_in(self, var):
        """Largest k with var^k dividing self."""
        if not self.terms:
            raise ZeroPolynomial("order of zero polynomial")
        i = self.vars.index(var)
        return min(e[i] for e in self.terms)

    def homogeneous_parts(self):
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: MPoly(self.ctx, self.vars, t) for d, t in sorted(parts.items())}

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def tangent_cone(self):
        if not self.terms:
            raise ZeroPolynomial("tangent cone of zero polynomial")
        d = self.order_at_origin()
        terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return MPoly(self.ctx, self.vars, terms)

    def derivative(self, var):
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return MPoly(self.ctx, self.vars, terms)

    def coeff_of(self, var, k):
        """Coefficient of var^k, as an MPoly in the same variables."""
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        return MPoly(self.ctx, self.vars, terms)

    def set_var(self, var, value):
        """Substitute a scalar for one variable."""
        value = as_scalar(self.ctx, value)
        i = self.vars.index(var)
        terms = {}
        ctx = self.ctx
        for e, c in self.terms.items():
            cc = c * value ** e[i] if e[i] else c
            e2 = list(e)
            e2[i] = 0
            e2 = tuple(e2)
            s = terms.get(e2, 0) + cc
            if is_zero(s):
                terms.pop(e2, None)
            else:
                terms[e2] = s
        if isinstance(value, AlgNum):
            ctx = value.ctx if ctx.is_prefix_of(value.ctx) else ctx
        return MPoly(ctx, self.vars, terms)

    def shift(self, var, c):
        """Substitute var -> var + c.

        One Taylor pass over the terms: co * var^k contributes
        co * C(k, j) * c^(k-j) at var^j.  Over QQ the pass runs in integers
        (`_shift_zz`); over a number field it runs on the scalars.
        """
        c = as_scalar(self.ctx, c)
        if is_zero(c) or not self.terms:
            return self
        i = self.vars.index(var)
        if self.ctx.depth == 0:
            return MPoly(QQ, self.vars, _shift_zz(self.terms, i, c))
        pows = [Fraction(1)]
        for _ in range(max(e[i] for e in self.terms)):
            pows.append(pows[-1] * c)
        # taylor[k][j] = C(k, j) * c^(k-j), for the degrees k that occur
        taylor = {k: [math.comb(k, j) * pows[k - j] for j in range(k + 1)]
                  for k in {e[i] for e in self.terms}}
        terms = {}
        for e, co in self.terms.items():
            for j, s in enumerate(taylor[e[i]]):
                e2 = e[:i] + (j,) + e[i + 1:]
                terms[e2] = terms.get(e2, 0) + co * s
        terms = {e: co for e, co in terms.items() if not is_zero(co)}
        return MPoly(self.ctx, self.vars, terms)

    def lift(self, ctx):
        """Reinterpret over a deeper context (coefficients unchanged)."""
        if ctx == self.ctx:
            return self
        if not self.ctx.is_prefix_of(ctx):
            raise _sc.ContextMismatch(f"cannot lift from {self.ctx} to {ctx}")
        return MPoly(ctx, self.vars, self.terms)

    def rename_vars(self, new_vars):
        if len(new_vars) != len(self.vars):
            raise ValueError("variable count mismatch")
        return MPoly(self.ctx, tuple(new_vars), self.terms)

    def evaluate(self, env):
        """Evaluate with variables bound to scalars or MPoly values.

        All MPoly values must share one variable tuple; the result is an
        MPoly in those variables, or a scalar if every binding is a scalar.
        """
        target = None
        for v in env.values():
            if isinstance(v, MPoly):
                target = (v.ctx, v.vars)
        pows = {}

        def power(name, k):
            key = (name, k)
            if key not in pows:
                base = env[name]
                if target is None:
                    base = as_scalar(self.ctx, base)
                elif isinstance(base, (int, Fraction, AlgNum)):
                    base = MPoly.const(*target, base)
                pows[key] = base ** k
            return pows[key]

        total = Fraction(0) if target is None else {}
        ctx = None if target is None else target[0]
        for e, c in self.terms.items():
            val = c if target is None else MPoly.const(*target, c)
            for i, name in enumerate(self.vars):
                if e[i]:
                    val = val * power(name, e[i])
            if target is None:
                total = val + total
            else:
                # summed in place: `val + total` would copy the sum per term
                ctx = join(ctx, val.ctx)
                _add_terms(total, val.terms)
        return total if target is None else MPoly(ctx, target[1], total)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return self.to_text()

    def to_text(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        parts = []
        for e, c in items:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            cs = _scalar_text(c)
            if mono:
                body = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                body = cs
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)


def _add_terms(terms, other, negate=False):
    """Add other (or -other) into the term dict terms in place, in other's
    order; a sum that cancels drops its exponent."""
    for e, c in other.items():
        s = terms.get(e, 0) + (-c if negate else c)
        if is_zero(s):
            terms.pop(e, None)
        else:
            terms[e] = s


def _shift_zz(terms, i, c):
    """The Taylor pass of `MPoly.shift` at exponent slot i, for rational
    coefficients and a rational c = n/d, in integers.

    With the coefficients a_e / D over their lcm D and K the top degree in
    slot i, a_e * x^k contributes a_e * C(k, j) * n^(k-j) * d^(K-k+j) at x^j;
    each output sum a becomes Fraction(a, D * d^K) once.
    """
    n, d = c.numerator, c.denominator
    den = math.lcm(*(co.denominator for co in terms.values()))
    top = max(e[i] for e in terms)
    # taylor[k][j] = C(k, j) * n^(k-j) * d^(K-k+j), for the degrees k that occur
    taylor = {k: [math.comb(k, j) * n ** (k - j) * d ** (top - k + j) for j in range(k + 1)]
              for k in {e[i] for e in terms}}
    acc = {}
    for e, co in terms.items():
        a = co.numerator * (den // co.denominator)
        for j, s in enumerate(taylor[e[i]]):
            e2 = e[:i] + (j,) + e[i + 1:]
            acc[e2] = acc.get(e2, 0) + a * s
    den *= d ** top
    return {e: Fraction(a, den) for e, a in acc.items() if a}


def _scalar_text(c):
    if isinstance(c, AlgNum):
        return f"({c!r})"
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    return str(c)


# ---------------------------------------------------------------------------
# parsing

_WHITESPACE = " \t\n\r"


class _Parser:
    def __init__(self, text, ctx, vars):
        self.text = text
        self.pos = 0
        self.ctx = ctx
        self.vars = tuple(vars)

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        e = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return e

    def expr(self):
        """A signed sum of terms, accumulated into one term dict."""
        c = self.peek()
        if c in ("+", "-"):
            self.pos += 1
        t = self.term()
        ctx = t.ctx
        terms = {}
        _add_terms(terms, t.terms, c == "-")
        while True:
            c = self.peek()
            if c not in ("+", "-"):
                return MPoly(ctx, self.vars, terms)
            self.pos += 1
            u = self.term()
            ctx = join(ctx, u.ctx)
            _add_terms(terms, u.terms, c == "-")

    def term(self):
        """A product of factors.  Numbers and variable powers fold into one
        coefficient and exponent list; parenthesized sums and generators
        multiply as polynomials, in order, and the monomial multiplies last."""
        coef, exps, poly = Fraction(1), [0] * len(self.vars), None
        while True:
            f = self.factor()
            if isinstance(f, MPoly):
                poly = f if poly is None else poly * f
            else:
                coef *= f[0]
                exps = [a + b for a, b in zip(exps, f[1])]
            if self.peek() != "*":
                break
            self.pos += 1
        if poly is not None and coef == 1 and not any(exps):
            return poly
        mono = MPoly(self.ctx, self.vars, {tuple(exps): coef} if coef else {})
        return mono if poly is None else mono * poly

    def factor(self):
        b = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.natural()
            if isinstance(b, MPoly):
                return b ** n
            return b[0] ** n, [a * n for a in b[1]]
        return b

    def natural(self):
        c = self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])

    def base(self):
        """A parenthesized sum or a generator as an MPoly; a number or a
        variable as a (coefficient, exponent list) pair."""
        c = self.peek()
        if c == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        if c == "-":
            self.pos += 1
            b = self.base()
            return -b if isinstance(b, MPoly) else (-b[0], b[1])
        if c.isdigit():
            n = self.natural()
            if self.peek() == "/":
                self.pos += 1
                d = self.natural()
                if d == 0:
                    self.error("zero denominator")
                return Fraction(n, d), [0] * len(self.vars)
            return Fraction(n), [0] * len(self.vars)
        if c.isalpha() or c == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name in self.vars:
                return Fraction(1), [int(v == name) for v in self.vars]
            if name in self.ctx.gen_names():
                gen = _generator_scalar(self.ctx, name)
                return MPoly.const(self.ctx, self.vars, gen)
            raise UnknownVariable(f"unknown variable {name!r}", start)
        self.error("expected a factor")


def _generator_scalar(ctx, name):
    # generator of the level named `name`, embedded into ctx
    for depth, (lname, _) in enumerate(ctx.tower, start=1):
        if lname == name:
            return _sc.FieldCtx(ctx.tower[:depth]).gen()
    raise UnknownGenerator(f"unknown generator {name!r}")


def parse_poly(text, ctx=QQ, vars=("x", "y", "z", "v", "w")):
    """Parse an expression in the documented grammar into an MPoly."""
    return _Parser(text, ctx, vars).parse()


# ---------------------------------------------------------------------------
# univariate views

def univariate_coeffs(p, var=None):
    """Coefficient list (low to high) of a univariate MPoly."""
    if var is None:
        used = [v for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
        if len(used) > 1:
            raise ValueError(f"polynomial is not univariate: uses {used}")
        var = used[0] if used else p.vars[0]
    i = p.vars.index(var)
    deg = max((e[i] for e in p.terms), default=0)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        if any(k for j, k in enumerate(e) if j != i and k):
            raise ValueError("polynomial is not univariate")
        coeffs[e[i]] = c
    return _sc._trim(coeffs)


def poly_from_coeffs(coeffs, ctx, vars, var):
    i = tuple(vars).index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        if is_zero(c):
            continue
        e = [0] * len(vars)
        e[i] = k
        terms[tuple(e)] = c
    return MPoly(ctx, tuple(vars), terms)


# ---------------------------------------------------------------------------
# the integer boundary

def to_zz(p):
    """(D, a) with a = D * p over ZZ, D the lcm of the denominators of p.

    For an MPoly p over QQ, a is a dict {exponent: int}; for a coefficient
    list p over QQ, a is a list of ints, low to high.
    """
    if isinstance(p, MPoly):
        den = math.lcm(*(c.denominator for c in p.terms.values()))
        return den, {e: c.numerator * (den // c.denominator)
                     for e, c in p.terms.items()}
    den = math.lcm(*(c.denominator for c in p))
    return den, [c.numerator * (den // c.denominator) for c in p]


def from_zz(a, vars, scale=Fraction(1)):
    """The MPoly scale * a over QQ, for an integer dict a in `vars`."""
    num, den = scale.numerator, scale.denominator
    return MPoly(QQ, vars, {e: Fraction(c * num, den) for e, c in a.items()})


def _monic_qq(a):
    """The monic coefficient list over QQ of a nonzero integer list."""
    return [Fraction(c, a[-1]) for c in a]


# ---------------------------------------------------------------------------
# integer kernels: univariate lists over ZZ, low to high
#
# The list helpers `_trim_mod`, `_mul_mod`, `_add_mod` and `_sub_mod` below
# run in plain integers with p None.

# evaluation points tried by a heuristic gcd before the PRS decides
_HEU_TRIES = 6


def _primitive(a):
    """A nonzero integer list over the gcd of its coefficients, with a
    positive lead."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _quo(a, b):
    """a / b when the nonzero integer list b divides a in ZZ[x]; else None."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            return None
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    return None if any(r[:db]) else q


def _deriv(a):
    return [k * c for k, c in enumerate(a)][1:]


def _horner(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _digits(g, xi):
    """The digits of the integer g in base xi, low to high, each in
    (-xi/2, xi/2]."""
    out = []
    while g:
        d = g % xi
        if 2 * d > xi:
            d -= xi
        out.append(d)
        g = (g - d) // xi
    return out


def _next_point(xi):
    # the growth of sympy's heuristic gcd, about xi^(5/4)
    return 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _zz_gcd(a, b):
    """gcd(a, b) in ZZ[x] of two nonzero integer lists, lead positive.

    The heuristic gcd on the primitive parts: h, the polynomial whose
    coefficients are the digits of gcd(a(xi), b(xi)) in base xi, made
    primitive, is their gcd as soon as it divides both, for any
    xi >= 2 min(|a|, |b|) + 2 in the max norm.  Proof: the gcd is pp(h) k
    for some k in ZZ[x], and k(xi) divides the content of h, at most xi/2
    in size; a nonconstant k divides a and b, so each of its roots is below
    1 + min(|a|, |b|) in size (Cauchy), and then |k(xi)| > xi/2.  After
    _HEU_TRIES points the primitive PRS (`_prs_gcd`) decides.
    """
    ca, cb = math.gcd(*a), math.gcd(*b)
    c = math.gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return [c]
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        h = _primitive(_digits(math.gcd(_horner(a, xi), _horner(b, xi)), xi))
        if _quo(a, h) is not None and _quo(b, h) is not None:
            break
        xi = _next_point(xi)
    else:
        h = _primitive(_as_list(_prs_gcd(_as_dict(a), _as_dict(b))))
    return [c * x for x in h]


def _zz_squarefree(a):
    return len(a) <= 2 or len(_zz_gcd(a, _deriv(a))) == 1


def _zz_factor_list(a):
    """[(factor, exponent)]: the irreducible factors of positive degree of a
    nonzero integer list, each primitive with a positive lead.

    They come in the order of sympy's factor_list: by degree, then
    exponent, then coefficients from the lead down.  x^j comes off first;
    the rest, made primitive, is factored through its squarefree part
    (`_zassenhaus`), and each exponent is counted by trial division.
    """
    j = next(k for k, c in enumerate(a) if c)
    f = _primitive(a[j:])
    out = [([0, 1], j)] if j else []
    if len(f) == 2:
        out.append((f, 1))
    elif len(f) > 2:
        for h in _zassenhaus(_quo(f, _zz_gcd(f, _deriv(f)))):
            k = 0
            while (q := _quo(f, h)) is not None:
                f, k = q, k + 1
            out.append((h, k))
    return sorted(out, key=lambda t: (len(t[0]), t[1], t[0][::-1]))


def _zassenhaus(f):
    """The irreducible factors in ZZ[x] of a squarefree primitive f of
    positive lead, each primitive with a positive lead.

    A quadratic splits by its discriminant.  Otherwise f is factored modulo
    an odd prime p that keeps it squarefree (`_gf_factors`); as in sympy,
    the first prime is kept unless it gives 15 factors or more, and then
    the fewest of up to five primes.  The factors are lifted to a power m
    of p above 2 |lc| B (`_hensel_lift`), where B = 2^n ||f||_2 bounds the
    coefficients of every factor of f (Mignotte), and recombined by trial
    division (`_recombine_zz`; von zur Gathen & Gerhard, Modern Computer
    Algebra, 15.6).
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [f]
        # 4a f = (2a x + b - s)(2a x + b + s)
        return [_primitive([b - s, 2 * a]), _primitive([b + s, 2 * a])]
    lc = f[-1]
    best, tried = None, 0
    for p in _odd_primes():
        if lc % p == 0:
            continue
        fp = _monic_mod(f, p)
        if not _gf_squarefree(fp, p):
            continue
        us = _gf_factors(fp, p)
        if len(us) == 1:
            return [f]
        if best is None or len(us) < len(best[1]):
            best = p, us
        tried += 1
        if len(us) < 15 or tried == 5:
            break
    p, us = best
    bound = 2 * lc * 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    return _recombine_zz(f, _hensel_lift(f, us, p, m), m)


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _recombine_zz(f, leaves, m):
    """The irreducible factors of f from its monic factors `leaves` modulo
    m > 2 |lc| B (see `_zassenhaus`).

    Each subset of the leaves, by increasing size, gives a candidate: lc
    times their product, in symmetric residues mod m, made primitive; a
    true factor g of f comes back as lc/lc(g) * g, inside the residues.  A
    candidate whose constant term does not divide lc * f(0) is dropped
    untried, the others are tried by exact division.  A factor found
    leaves with its subset; what is left once no subset of half the rest
    remains is irreducible.  Past `RECOMBINATION_CAP` subsets the search
    raises DegreeTooLarge.
    """
    found, size, tried = [], 1, 0
    while 2 * size <= len(leaves):
        lc = f[-1]
        for subset in itertools.combinations(range(len(leaves)), size):
            tried += 1
            if tried > RECOMBINATION_CAP:
                raise DegreeTooLarge(
                    f"factor recombination passed {RECOMBINATION_CAP} subsets")
            c0 = lc * math.prod(leaves[i][0] for i in subset) % m
            c0 = c0 - m if 2 * c0 > m else c0
            if not c0 or lc * f[0] % c0:
                continue
            g = [lc]
            for i in subset:
                g = _mul_mod(g, leaves[i], m)
            g = _primitive([c - m if 2 * c > m else c for c in g])
            q = _quo(f, g)
            if q is not None:
                found.append(g)
                f = q
                leaves = [u for i, u in enumerate(leaves) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


# arithmetic modulo a prime p on lists, low to high

def _gf_gcd(a, b, p):
    """The monic gcd modulo p; [] when both are zero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _gf_squarefree(f, p):
    d = _trim_mod(_deriv(f), p)
    return bool(d) and len(_gf_gcd(f, d, p)) == 1


def _powmod(a, e, f, p):
    """a^e modulo f and p, f monic."""
    out = [1]
    a = _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return out


def _gf_factors(f, p):
    """The monic irreducible factors modulo an odd prime p of a monic
    squarefree f, sorted by degree, then coefficients from the lead down.

    Distinct-degree factorization splits f into products of factors of one
    degree d, from gcd(x^(p^d) - x, f); each product is split by
    Cantor-Zassenhaus (`_gf_split`), with random elements drawn from a
    fixed seed, so the run is deterministic.
    """
    rng = random.Random(0)
    out = []
    x = h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gf_gcd(_sub_mod(h, x, p), f, p)
        if len(g) > 1:
            out += _gf_split(g, d, p, rng)
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return sorted(out, key=lambda u: (len(u), u[::-1]))


def _gf_split(g, d, p, rng):
    """The monic irreducible factors of g modulo p, all of degree d: for a
    random a, gcd(a^((p^d - 1)/2) - 1, g) splits g with probability about
    1/2 (Cantor & Zassenhaus, Math. Comp. 1981)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim_mod([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        u = _gf_gcd(_sub_mod(_powmod(a, e, g, p), [1], p), g, p)
        if 1 < len(u) < len(g):
            return (_gf_split(u, d, p, rng)
                    + _gf_split(_divmod_mod(g, u, p)[0], d, p, rng))


def _hensel_lift(f, us, p, m):
    """The monic factors modulo m = p^(2^k) of f, lifted in order from the
    monic pairwise coprime us with f = lc(f) * prod us modulo p.

    A balanced tree: at a node f = g * h with g = lc * (the first half) and
    h = (the rest), g and h are lifted together by quadratic steps
    (`_hensel_step`), then each is split further (ibid., 15.5).
    """
    if len(us) == 1:
        return [_monic_mod(f, m)]
    k = len(us) // 2
    g = _trim_mod([c * f[-1] for c in _prod_mod(us[:k], p)], p)
    h = _prod_mod(us[k:], p)
    s, t = _gcdex_mod(g, h, p)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
        q *= q
    return _hensel_lift(g, us[:k], p, m) + _hensel_lift(h, us[k:], p, m)


def _hensel_step(f, g, h, s, t, m):
    """(g, h, s, t) modulo m^2 from f = g h and s g + t h = 1 modulo m, h
    monic (ibid., Algorithm 15.10)."""
    M = m * m
    e = _sub_mod(f, _mul_mod(g, h, None), M)
    q, r = _divmod_mod(_mul_mod(s, e, M), h, M)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, None), _mul_mod(q, g, None),
                             None), M)
    h = _add_mod(h, r, M)
    b = _sub_mod(_add_mod(_mul_mod(s, g, None), _mul_mod(t, h, None), None),
                 [1], M)
    c, d = _divmod_mod(_mul_mod(s, b, M), h, M)
    s = _sub_mod(s, d, M)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, None), _mul_mod(c, g, None), None),
                 M)
    return g, h, s, t


# ---------------------------------------------------------------------------
# integer kernels: multivariate dicts {exponent: int}

def _as_dict(a):
    return {(k,): c for k, c in enumerate(a) if c}


def _as_list(a):
    out = [0] * (max(e[0] for e in a) + 1)
    for (k,), c in a.items():
        out[k] = c
    return out


def _zz_mul(a, b):
    """The product of two integer dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _zz_sub(a, b):
    out = dict(a)
    _add_terms(out, b, negate=True)
    return out


def _zz_quo(a, b):
    """a / b for integer dicts when b divides a over ZZ; else None."""
    def divide(c, lead):
        q, r = divmod(c, lead)
        return None if r else q
    return _divide_terms(a, b, divide)


def _deg_first(a):
    return max(e[0] for e in a)


def _zz_mgcd(a, b):
    """gcd(a, b) in ZZ[x1, ..., xn] of two integer dicts, up to sign; empty
    only when both are.

    One variable runs in `_zz_gcd`.  With more, the heuristic gcd recurses
    on the first variable: h, read off gcd(a(xi, ...), b(xi, ...)) by base-xi
    digits of its coefficients, made primitive, is the primitive gcd once
    it divides both, for xi >= 2 B + 2 with B bounding every coefficient of
    every factor of a or of b (`_factor_bound`).  Proof: as in `_zz_gcd`,
    the gcd is pp(h) k with k(xi) dividing the content of h, so k(xi) is an
    integer at most xi/2 in size; the coefficients of k are below xi/2 in
    size, and digit expansions in base xi with such digits are unique: k
    is a constant.  After _HEU_TRIES points the primitive PRS (`_prs_gcd`)
    decides.
    """
    if not a or not b:
        return a or b
    n = len(next(iter(a)))
    if n == 0:
        return {(): math.gcd(a[()], b[()])}
    if n == 1:
        return _as_dict(_zz_gcd(_as_list(a), _as_list(b)))
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    a = {e: x // ca for e, x in a.items()}
    b = {e: x // cb for e, x in b.items()}
    xi = 2 * min(_factor_bound(a), _factor_bound(b)) + 2
    for _ in range(_HEU_TRIES):
        g = _zz_mgcd(_eval_first(a, xi), _eval_first(b, xi))
        h = {}
        for e, v in g.items():
            for k, d in enumerate(_digits(v, xi)):
                if d:
                    h[(k,) + e] = d
        cont = math.gcd(*h.values())
        h = {e: x // cont for e, x in h.items()}
        if _zz_quo(a, h) is not None and _zz_quo(b, h) is not None:
            break
        xi = _next_point(xi)
    else:
        h = _prs_gcd(a, b)
    c = math.gcd(ca, cb)
    return {e: c * x for e, x in h.items()}


def _factor_bound(a):
    """A bound on the coefficients of every factor of the integer dict a:
    |g_e| <= prod_i C(deg_i g, e_i) M(g) <= 2^(sum_i deg_i a) ||a||_2, as the
    Mahler measure M is multiplicative, at least 1 on a nonzero integer
    cofactor, and at most the 2-norm (Landau)."""
    degs = sum(max(e[i] for e in a) for i in range(len(next(iter(a)))))
    return 2 ** degs * (math.isqrt(sum(c * c for c in a.values())) + 1)


def _eval_first(a, xi):
    """a with its first variable set to xi, a dict in the others; a
    coefficient that vanishes at xi is dropped."""
    out = {}
    for e, c in a.items():
        out[e[1:]] = out.get(e[1:], 0) + c * xi ** e[0]
    return {e: c for e, c in out.items() if c}


def _prs_gcd(a, b):
    """gcd(a, b), up to sign, of two nonzero integer dicts: the primitive
    PRS in the first variable, times the gcd of the contents there."""
    ca, a = _content_first(a)
    cb, b = _content_first(b)
    if _deg_first(a) < _deg_first(b):
        a, b = b, a
    while _deg_first(b) > 0:
        r = _prem_first(a, b)
        if not r:
            break
        a, b = b, _content_first(r)[1]
    else:
        # the primitive parts are coprime
        b = {(0,) * len(next(iter(a))): 1}
    return _zz_mul({(0,) + e: c for e, c in _zz_mgcd(ca, cb).items()}, b)


def _content_first(a):
    """(c, a / c): c the gcd of the coefficients of a in its first variable,
    a dict in the others."""
    coeffs = {}
    for e, v in a.items():
        coeffs.setdefault(e[0], {})[e[1:]] = v
    c = {}
    for x in coeffs.values():
        c = _zz_mgcd(c, x)
    return c, _zz_quo(a, {(0,) + e: v for e, v in c.items()})


def _prem_first(a, b):
    """A pseudo-remainder of a by b in the first variable: lc(b)^k a - q b
    of degree below that of b."""
    db = _deg_first(b)
    lb = {(0,) + e[1:]: v for e, v in b.items() if e[0] == db}
    while a and (da := _deg_first(a)) >= db:
        la = {(da - db,) + e[1:]: v for e, v in a.items() if e[0] == da}
        a = _zz_sub(_zz_mul(a, lb), _zz_mul(la, b))
    return a


def _sqf_first(F):
    """[(part, k)]: Yun's squarefree decomposition of a nonzero integer dict
    F each of whose factors involves its first variable: F is, up to a
    constant, the product of the part^k, primitive, pairwise coprime and
    squarefree."""
    cont = math.gcd(*F.values())
    c = {e: x // cont for e, x in F.items()}
    d = _diff_first(c)
    g = _zz_mgcd(c, d)
    c, d = _zz_quo(c, g), _zz_quo(d, g)
    d = _zz_sub(d, _diff_first(c))
    out, k = [], 1
    while _deg_first(c) > 0:
        a = _zz_mgcd(c, d)
        if _deg_first(a) > 0:
            out.append((a, k))
        c = _zz_quo(c, a)
        d = _zz_sub(_zz_quo(d, a), _diff_first(c))
        k += 1
    return out


def _diff_first(a):
    return {(e[0] - 1,) + e[1:]: e[0] * c for e, c in a.items() if e[0]}


def _zz_resultant(a, b, i, m, n):
    """Res in slot i of the integer dicts a and b, of degrees m, n >= 1
    there: the Sylvester determinant, a dict with exponent 0 in slot i.

    The other variables are packed into one, T, by the Kronecker
    substitution x_j -> T^(s_j), with strides s_j above the degree of the
    resultant in x_j, which is at most n deg_j a + m deg_j b and at most
    (total degree of a) * (total degree of b).  The determinant is taken in
    integers at T = 0, 1, ..., D, D its degree bound in T, and interpolated:
    Newton's forward differences over k! give its coefficients on the
    falling factorials T (T - 1) ... (T - k + 1), which are then expanded.
    """
    others = [j for j in range(len(next(iter(a)))) if j != i]
    total = max(map(sum, a)) * max(map(sum, b))
    strides, radix, D = [], 1, 0
    for j in others:
        deg = min(n * max(e[j] for e in a) + m * max(e[j] for e in b), total)
        strides.append(radix)
        D += deg * radix
        radix *= deg + 1

    def pack(p, k):
        # the coefficients of p in slot i, each a list over T
        rows = [[0] * (D + 1) for _ in range(k + 1)]
        for e, c in p.items():
            rows[e[i]][sum(e[j] * s for j, s in zip(others, strides))] += c
        return [_trim_mod(row, None) for row in rows]

    pa, pb = pack(a, m), pack(b, n)
    values = [_bareiss_det(_sylvester([_horner(r, t) for r in pa],
                                      [_horner(r, t) for r in pb], 0),
                           1, operator.floordiv) for t in range(D + 1)]
    newton = []
    for k in range(D + 1):
        newton.append(values[0] // math.factorial(k))
        values = [y - x for x, y in zip(values, values[1:])]
    res = []
    for k in range(D, -1, -1):
        res = _add_mod(_mul_mod(res, [-k, 1], None), [newton[k]], None)
    out = {}
    for k, c in enumerate(res):
        if c:
            e = [0] * (len(others) + 1)
            for j, s in reversed(list(zip(others, strides))):
                e[j], k = divmod(k, s)
            out[tuple(e)] = c
    return out


def _sylvester(pc, qc, zero):
    """The Sylvester matrix of two coefficient lists, low to high, of
    formal degrees len - 1: a row per shift of each, the lead first."""
    m, n = len(pc) - 1, len(qc) - 1
    rows = [[zero] * i + pc[::-1] + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + qc[::-1] + [zero] * (m - 1 - i) for i in range(m)]
    return rows


# ---------------------------------------------------------------------------
# exact division, gcd, resultant

def _heap_key(e):
    # graded lex, largest first under heapq's min-order
    return (-sum(e), tuple(-a for a in e))


def exact_div(p, q):
    """Quotient p/q when q divides p exactly; None otherwise."""
    if not q:
        raise DivisionByZero("exact division by zero polynomial")
    if not p:
        return p
    q_inv = scalar_inv(q.terms[min(q.terms, key=_heap_key)])
    quot = _divide_terms(p.terms, q.terms, lambda c, _lead: c * q_inv)
    return None if quot is None else MPoly(join(p.ctx, q.ctx), p.vars, quot)


def _divide_terms(p, q, divide):
    """The term dict p / q when the nonzero term dict q divides p; else None.

    divide(c, lead) is the coefficient c over q's lead coefficient, or None
    when it does not exist.  Division in graded lex order with a heap of
    remainder exponents.  Graded lex is a monomial order, so every term a
    step adds to the remainder is smaller than the lead it cancels: the
    heap's top is the remainder's lead once entries whose term has since
    cancelled are skipped.  Quotient terms come out from the largest down.
    """
    q_lead = min(q, key=_heap_key)
    lead = q[q_lead]
    q_tail = [(e, co) for e, co in q.items() if e != q_lead]
    rem = dict(p)
    heap = [(_heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        r_lead = heapq.heappop(heap)[1]
        lc = rem.pop(r_lead, None)
        if lc is None:
            continue  # stale: this term cancelled after it was pushed
        diff = tuple(a - b for a, b in zip(r_lead, q_lead))
        if any(d < 0 for d in diff):
            return None
        c = divide(lc, lead)
        if c is None:
            return None
        quot[diff] = c
        for e, co in q_tail:
            e2 = tuple(a + b for a, b in zip(diff, e))
            old = rem.get(e2)
            if old is None:
                rem[e2] = -c * co
                heapq.heappush(heap, (_heap_key(e2), e2))
            else:
                s = old - c * co
                if is_zero(s):
                    del rem[e2]
                else:
                    rem[e2] = s
    return quot


# the least prime above 3^(39 + 20 k), k = 0 .. 4: after their prime
# factors below 10^6 are removed, the difference and the sum of any two
# keep a cofactor above 2^60, so a small linear form such as x - y takes
# no smooth value at the point
_DIVIDES_POINT = tuple(3 ** (39 + 20 * k) + d
                       for k, d in enumerate((82, 64, 22, 154, 92)))


def divides(q, p):
    """Whether the nonzero q divides p, both over QQ.

    A necessary test comes first: q made primitive in ZZ[...] divides the
    integral D * p there (Gauss), so its value at an integer point divides
    that of D * p.  The point is `_DIVIDES_POINT`; only a pair that passes
    is tried by exact division.
    """
    a, b = to_zz(q)[1], to_zz(p)[1]
    if len(q.vars) <= len(_DIVIDES_POINT):
        at = [sum(c * math.prod(map(pow, _DIVIDES_POINT, e)) for e, c in t.items())
              for t in (a, b)]
        if at[0] and at[1] % (at[0] // math.gcd(*a.values())):
            return False
    return exact_div(p, q) is not None


def multiplicity_of_factor(p, phi):
    """Largest k with phi^k dividing p."""
    k = 0
    while True:
        q = exact_div(p, phi)
        if q is None:
            return k
        p = q
        k += 1


def _coeff_gcd_list(polys):
    g = None
    for p in polys:
        g = p if g is None else mgcd(g, p)
        if g and g.total_degree() == 0:
            break
    return g


def mgcd(p, q):
    """Monic-normalized gcd over the coefficient field: in integers over QQ
    (`_zz_mgcd`), else the primitive PRS."""
    if not p:
        return _monic(q)
    if not q:
        return _monic(p)
    if p.ctx == QQ and q.ctx == QQ and len(p.vars) > 1:
        return _monic(from_zz(_zz_mgcd(to_zz(p)[1], to_zz(q)[1]), p.vars))
    # pick the last variable actually used by either
    used = [
        i
        for i in range(len(p.vars))
        if any(e[i] for e in p.terms) or any(e[i] for e in q.terms)
    ]
    if not used:
        return MPoly.const(join(p.ctx, q.ctx), p.vars, 1)
    var = p.vars[used[-1]]
    if len(used) == 1:
        a = univariate_coeffs(p, var)
        b = univariate_coeffs(q, var)
        g = _uni_gcd(a, b)
        return poly_from_coeffs(g, join(p.ctx, q.ctx), p.vars, var)
    # multivariate: primitive PRS in `var`
    cp, pp = _content_primitive(p, var)
    cq, pq = _content_primitive(q, var)
    cont = mgcd(cp, cq)
    a, b = pp, pq
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while b and b.degree_in(var) > 0:
        r = _pseudo_rem(a, b, var)
        a, b = b, (_content_primitive(r, var)[1] if r else r)
    if b:
        # PRS dropped to degree 0 in var: the primitive parts are coprime
        return _monic(cont)
    return _monic(cont * a)


def _monic(p):
    if not p:
        return p
    lead = max(p.terms, key=lambda e: (sum(e), e))
    lc = p.terms[lead]
    if lc == 1:
        return p
    return p * _sc.scalar_inv(lc)


def _content_primitive(p, var):
    """(content, primitive part) of p viewed in K[other vars][var]."""
    i = p.vars.index(var)
    coeffs = {}
    for e, c in p.terms.items():
        e2 = list(e)
        k = e2[i]
        e2[i] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    polys = [MPoly(p.ctx, p.vars, t) for t in coeffs.values()]
    cont = _coeff_gcd_list(polys)
    prim = exact_div(p, cont)
    return cont, prim


def _pseudo_rem(a, b, var):
    db = b.degree_in(var)
    lb = b.coeff_of(var, db)
    r = a
    x = MPoly.var(a.ctx, a.vars, var)
    while r and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = r.coeff_of(var, dr)
        r = r * lb - b * lr * x ** (dr - db)
    return r


def _uni_gcd(a, b):
    """Monic gcd of two coefficient lists; [] when both are zero.

    Over QQ it runs in integers (`_zz_gcd`); over a number field it is
    Euclid on the coefficient lists, each step dividing by a lead whose
    inverse over Q(a) is one integer solve (`scalar.scalar_inv`).
    """
    a, b = _sc._trim(a), _sc._trim(b)
    if not any(isinstance(c, AlgNum) for c in a + b):
        if not a or not b:
            return _monic_qq(to_zz(a or b)[1]) if a or b else []
        return _monic_qq(_zz_gcd(to_zz(a)[1], to_zz(b)[1]))
    while b:
        _, r = _sc._pdivmod(a, b)
        a, b = b, r
    if a:
        inv = _sc.scalar_inv(a[-1])
        a = [c * inv for c in a]
    return a


def _gcd_with_derivative(a):
    """gcd(a, a') of a univariate coefficient list, monic; [] for a == []."""
    return _uni_gcd(a, [c * k for k, c in enumerate(a)][1:])


def squarefree_part_coeffs(a):
    """Radical of a univariate coefficient list over a field."""
    g = _gcd_with_derivative(a)
    if len(g) <= 1:
        return list(a)
    q, r = _sc._pdivmod(a, g)
    assert not r
    return q


def repeated_part_coeffs(a):
    """Radical of gcd(a, a'): each root of multiplicity >= 2 of a, once."""
    return squarefree_part_coeffs(_gcd_with_derivative(a))


def _gcd_with_partials(p):
    """gcd(p, every partial of p), monic; the chain stops at the first
    constant gcd, which it returns."""
    g = p
    for i, var in enumerate(p.vars):
        if any(e[i] for e in p.terms):
            g = mgcd(g, p.derivative(var))
            if g.total_degree() == 0:
                break
    return g


def is_squarefree(p):
    """Squarefree test for a nonzero MPoly over a field of characteristic 0.

    p has a repeated nonconstant factor iff gcd(p, all partials) is
    nonconstant.
    """
    if not p:
        raise ZeroPolynomial("squarefree test of zero polynomial")
    return _gcd_with_partials(p).total_degree() == 0


def squarefree_part(p):
    """The radical of a nonzero p in characteristic 0: p over gcd(p, all
    partials)."""
    g = _gcd_with_partials(p)
    if g.total_degree() == 0:
        return p
    q = exact_div(p, g)
    assert q is not None, "a gcd divides p"
    return q


def resultant(p, q, var):
    """Res_var(p, q): the determinant of the Sylvester matrix, exactly.

    Over QQ it runs in integers (`_zz_resultant`); over a number field it
    is fraction-free (Bareiss) elimination on the Sylvester matrix.
    """
    if not p or not q:
        raise ZeroPolynomial("resultant of zero polynomial")
    m, n = p.degree_in(var), q.degree_in(var)
    if m == 0 and n == 0:
        raise ValueError(f"neither operand involves {var}")
    ctx = join(p.ctx, q.ctx)
    vars = p.vars
    if m == 0:
        return p ** n
    if n == 0:
        return q ** m
    if ctx == QQ:
        da, a = to_zz(p)
        db, b = to_zz(q)
        # Res(a, b) = da^n * db^m * Res(p, q): p fills n rows, q fills m rows
        r = _zz_resultant(a, b, vars.index(var), m, n)
        return from_zz(r, vars, Fraction(1, da ** n * db ** m))
    rows = _sylvester([p.coeff_of(var, k) for k in range(m + 1)],
                      [q.coeff_of(var, k) for k in range(n + 1)],
                      MPoly.zero(ctx, vars))
    return _bareiss_det(rows, MPoly.const(ctx, vars, 1), _exact_quotient)


def _exact_quotient(a, b):
    q = exact_div(a, b)
    assert q is not None, "Bareiss exact division failed"
    return q


def _bareiss_det(rows, one, divide):
    """The determinant of a square matrix over an integral domain, by
    fraction-free elimination; divide(a, b) is the exact quotient a / b."""
    n = len(rows)
    sign = 1
    prev = one
    for k in range(n - 1):
        if not rows[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot_row is None:
                return rows[k][k]
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = divide(row[j] * pivot - lead * top[j], prev)
        prev = pivot
    det = rows[n - 1][n - 1]
    return det if sign > 0 else -det


# ---------------------------------------------------------------------------
# univariate factorization

FACTOR_DEGREE_CAP = 24


def factor_univariate(p, var=None):
    """Factor a univariate MPoly into monic irreducibles over its context.

    Returns a list of (factor, exponent); the product of factor^exponent
    times a unit equals p.
    """
    if not p:
        raise ZeroPolynomial("factorization of zero polynomial")
    if var is None:
        used = [v for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
        if len(used) > 1:
            raise ValueError("factor_univariate needs a univariate input")
        var = used[0] if used else p.vars[0]
    coeffs = univariate_coeffs(p, var)
    if len(coeffs) - 1 > FACTOR_DEGREE_CAP:
        raise DegreeTooLarge(
            f"degree {len(coeffs)-1} exceeds factorization cap {FACTOR_DEGREE_CAP}"
        )
    out = factor_coeff_list(coeffs, p.ctx)
    return [
        (poly_from_coeffs(f, p.ctx, p.vars, var), k) for f, k in out
    ]


def factor_coeff_list(coeffs, ctx):
    """Monic irreducible factorization of a univariate coeff list over ctx."""
    coeffs = _sc._trim(list(coeffs))
    if not coeffs:
        raise ZeroPolynomial("factorization of zero polynomial")
    if len(coeffs) == 1:
        return []
    inv = _sc.scalar_inv(coeffs[-1])
    coeffs = [c * inv for c in coeffs]
    if len(coeffs) == 2:
        return [(coeffs, 1)]
    if ctx.depth == 0:
        return _factor_qq(coeffs)
    # factor the radical with Trager, then read off exponents by division
    out = []
    for f in _trager(squarefree_part_coeffs(coeffs), ctx):
        e = 0
        b = coeffs
        while True:
            q, r = _sc._pdivmod(b, f)
            if r:
                break
            b = q
            e += 1
        out.append((f, e))
    return out


def adjoin_root(ctx, m):
    """(field, root) for a monic irreducible coefficient list m over ctx.

    A linear m keeps ctx and gives -m[0]; any other m extends ctx by
    `scalar.extend_field`, which certifies it, and gives the new generator.
    """
    if len(m) == 2:
        return ctx, -m[0]
    ext = _sc.extend_field(ctx, m)
    return ext, ext.gen()


def _factor_qq(coeffs):
    return [(_monic_qq(f), k) for f, k in _zz_factor_list(to_zz(coeffs)[1])]


def factor_qq(p):
    """Irreducible factorization over QQ of a nonzero ternary form.

    Returns (unit, [(factor, exponent), ...]) with unit * prod factor^k == p.
    Each factor is primitive over ZZ with positive lex-leading coefficient.
    Factors are ordered by the text sympy prints for ``Poly(factor, *vars,
    domain='QQ')`` (`_sympy_text`).  Raises NotHomogeneous unless p is a
    form in three variables, and DegreeTooLarge past `RECOMBINATION_CAP`
    or the largest lifting prime.

    A change of coordinates M (`_chart_change`) puts a point off the curve
    at [1:0:0], so that F = (p o M)(x, y, 1) has a constant lead in x and
    the factors of p o M are the homogenized factors of F.  F is factored
    from one univariate image (`_factor_xy`), each factor is homogenized and
    moved back by M^-1, then made primitive with a positive lex lead.
    """
    if not p:
        raise ZeroPolynomial("factorization of zero polynomial")
    if len(p.vars) != 3 or not p.is_homogeneous():
        raise NotHomogeneous("factor_qq factors forms in three variables")
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    f = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    n = p.total_degree()
    forward, back = _chart_change(f, n)
    flat = {(i, j): c for (i, j, _), c in forward(f).items()}
    factors = []
    for h, k in _factor_xy(flat, n) if n else []:
        m = max(i + j for i, j in h)
        form = back({(i, j, m - i - j): c for (i, j), c in h.items()})
        g = math.gcd(*form.values())
        g = g if form[max(form)] > 0 else -g
        factors.append((MPoly(QQ, p.vars, {e: Fraction(c // g) for e, c in form.items()}), k))
    unit = p.terms[max(p.terms)]
    for h, k in factors:
        unit /= h.terms[max(h.terms)] ** k
    gens = ", ".join(p.vars)
    factors.sort(key=lambda t: f"Poly({_sympy_text(to_zz(t[0])[1], p.vars)},"
                               f" {gens}, domain='QQ')")
    return unit, factors


def _sympy_text(a, vars):
    """The text sympy prints for the integer dict a in `vars`: terms in
    decreasing lex order, joined by " + " and " - ", with "**" powers and
    no unit coefficients."""
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mono = "*".join(v if k == 1 else f"{v}**{k}"
                        for v, k in zip(vars, e) if k)
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


# Mersenne primes 2^k - 1, proven prime: the lift runs modulo the first one
# above twice the coefficient bound, or a later one if the image's factors
# meet modulo it
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423, 9689, 9941, 11213, 19937)
# candidate subsets of lifted factors tried before recombination gives up
RECOMBINATION_CAP = 4096


def _chart_change(f, n):
    """(forward, back) for a change M with f(M e1) != 0, on integer forms
    {exponent: coefficient}: forward(g) = g o M, back(g) = g o M^-1.

    Tried in order: the identity, the swaps of x with y and with z (M e1 is
    a coordinate point), then the shears (x, y + a*x, z + b*x) with a, b in
    0..n by increasing a + b.  f(1, a, b) is a nonzero polynomial of degree
    at most n in (a, b), so it cannot vanish on that whole grid.
    """
    def swap(i):
        def move(g):
            return {e[i:i + 1] + e[1:i] + e[:1] + e[i + 1:]: c for e, c in g.items()}
        return move, move

    def shear(a, b):
        def move(g, a, b):
            # c x^i (y + a x)^j (z + b x)^k, expanded
            out = {}
            for (i, j, k), c in g.items():
                for j2 in range(j + 1):
                    cj = c * math.comb(j, j2) * a ** (j - j2)
                    for k2 in range(k + 1):
                        e = (i + j - j2 + k - k2, j2, k2)
                        out[e] = out.get(e, 0) + cj * math.comb(k, k2) * b ** (k - k2)
            return {e: c for e, c in out.items() if c}
        return (lambda g: move(g, a, b)), (lambda g: move(g, -a, -b))

    for i in range(3):
        if f.get(tuple(n if j == i else 0 for j in range(3))):
            return swap(i) if i else ((lambda g: g),) * 2
    for s in range(1, 2 * n + 1):
        for a in range(max(0, s - n), min(s, n) + 1):
            b = s - a
            if sum(c * a ** j * b ** k for (_, j, k), c in f.items()):
                return shear(a, b)
    raise AssertionError("a nonzero form vanishes on the whole grid")


def _factor_xy(F, n):
    """[(factor, exponent)] of F in ZZ[x, y], a dict {(i, j): c} of total
    degree n with a constant lead in x of degree n; each factor is a dict
    of the same kind, up to a constant.

    F is lifted from its first squarefree image F(x, y0) among the first
    n + 1 values of y0 (`_squarefree_image`); F is then squarefree too.
    With none there, F is split by its squarefree decomposition in x first
    (`_sqf_first`: a few bivariate gcds, cheaper than the n(n - 1) + 1
    images that would prove F not squarefree), and each part is lifted
    from its first squarefree image.
    """
    y0 = _squarefree_image(F, n, n + 1)
    if y0 is not None:
        return [(h, 1) for h in _lift_factors(F, n, y0)]
    out = []
    for g, k in _sqf_first(F):
        m = max(i for i, _ in g)
        y0 = _squarefree_image(g, m, m * (m - 1) + 1)
        assert y0 is not None, "a squarefree part has a squarefree image"
        out += [(h, k) for h in _lift_factors(g, m, y0)]
    return out


def _y_coeffs(F, n):
    """F as a list over x of coefficient lists in y, low to high."""
    rows = [[] for _ in range(n + 1)]
    for (i, j), c in F.items():
        row = rows[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return rows


def _image(rows, y0):
    return [sum(c * y0 ** j for j, c in enumerate(row)) for row in rows]


def _squarefree_image(F, n, tries):
    """The first y0 among `tries` values 0, 1, -1, 2, -2, ... with F(x, y0)
    squarefree, or None.

    For a squarefree F, n(n - 1) + 1 tries always find one: the
    discriminant of F in x is nonzero, of degree at most n(n - 1) in y (the
    resultant of forms of degrees n and n - 1).
    """
    rows = _y_coeffs(F, n)
    for k in range(tries):
        y0 = (k + 1) // 2 * (1 if k % 2 else -1)
        if _zz_squarefree(_image(rows, y0)):
            return y0
    return None


def _lift_factors(F, n, y0):
    """The irreducible factors of a squarefree F (see `_factor_xy`) whose
    image F(x, y0) is squarefree.

    The image is factored once in ZZ[x].  In t = y - y0, F is lifted
    linearly to precision deg_y F + 1 along a balanced factor tree
    (`_hensel_tree`), modulo a prime p above 2 * |lc| * B.  B bounds the
    coefficients of every factor g of Ft = F(x, y0 + t):
    |g_(i,k)| <= C(deg_x g, i) C(deg_t g, k) M(g) for the Mahler measure M,
    which is multiplicative and at least 1 on the integer cofactor Ft / g,
    so M(g) <= M(Ft) <= ||Ft||_2 (Landau), and B = 2^(deg_x Ft + deg_t Ft)
    * ||Ft||_2.  A candidate is lc / lc_x(g) * g, below |lc| B in size.
    The factors of F are then products of lifted factors (`_recombine`).
    """
    rows = _y_coeffs(F, n)
    image = _image(rows, y0)
    pieces = _zz_factor_list(image)
    if len(pieces) == 1:
        return [F]
    # Ft[k][i]: the coefficient of x^i t^k in F(x, y0 + t)
    shifted = [_taylor(row, y0) for row in rows]
    Ft = [[row[k] if k < len(row) else 0 for row in shifted]
          for k in range(max(map(len, shifted)))]
    lc = image[-1]
    norm2 = sum(c * c for col in Ft for c in col)
    bound = 2 * abs(lc) * 2 ** (n + len(Ft) - 1) * (math.isqrt(norm2) + 1)
    us = [u for u, _ in pieces]
    for e in _MERSENNE_EXPONENTS:
        mod = 2 ** e - 1
        if mod <= bound:
            continue
        inv = pow(lc, -1, mod)
        monic = [_trim_mod([c * inv for c in col], mod) for col in Ft]
        leaves = _hensel_tree(monic, [_monic_mod(u, mod) for u in us], mod, len(Ft))
        if leaves is not None:
            return _recombine(Ft, lc, leaves, [len(u) - 1 for u in us], mod, y0)
    raise DegreeTooLarge(f"no lifting prime above {bound.bit_length()} bits")


def _taylor(cs, c):
    """Coefficients of cs(y + c), low to high, for integers cs and c."""
    out = list(cs)
    for k in range(len(out) - 1):
        for j in range(len(out) - 2, k - 1, -1):
            out[j] += c * out[j + 1]
    return out


# univariate arithmetic modulo p on coefficient lists, low to high; with
# p None, _trim_mod, _add_mod, _sub_mod and _mul_mod run in plain integers

def _trim_mod(a, p):
    a = [c % p for c in a] if p is not None else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _mul_mod(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return _trim_mod(out, p)


def _add_mod(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return _trim_mod([c + b[i] if i < len(b) else c for i, c in enumerate(a)], p)


def _sub_mod(a, b, p):
    return _add_mod(a, [-c for c in b], p)


def _divmod_mod(a, b, p):
    """(q, r) with a = q*b + r, deg r < deg b, modulo p."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] * inv % p
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    return _trim_mod(q, p), _trim_mod(a[:db], p)


def _monic_mod(a, p):
    inv = pow(a[-1], -1, p)
    return _trim_mod([c * inv for c in a], p)


def _gcdex_mod(a, b, p):
    """(s, t) with s*a + t*b = 1 modulo p; None if a and b meet mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    if len(r0) != 1:
        return None
    inv = pow(r0[0], -1, p)
    return _trim_mod([c * inv for c in s0], p), _trim_mod([c * inv for c in t0], p)


def _hensel_tree(F, us, p, prec):
    """Lift F = prod us (mod t) to factors of F (mod t^prec, p).

    F is a list of prec coefficient lists in x, one per power of t, monic
    in x with F[0] = prod us; us are monic and pairwise coprime modulo p.  Returns one
    series per u, in order, or None if two products of them meet mod p.

    Linear lifting over a balanced tree (von zur Gathen & Gerhard, Modern
    Computer Algebra, 15.5): at a node F = G*H with s*G[0] + r*H[0] = 1,
    the coefficient e of t^k in F - G*H gives G[k] = r*e mod G[0] and
    H[k] = s*e mod H[0].
    """
    if len(us) == 1:
        return [F]
    half = len(us) // 2
    u = _prod_mod(us[:half], p)
    w = _prod_mod(us[half:], p)
    st = _gcdex_mod(u, w, p)
    if st is None:
        return None
    s, r = st
    G, H = [u], [w]
    for k in range(1, prec):
        e = F[k]
        for i in range(1, k):
            if G[i] and H[k - i]:
                e = _sub_mod(e, _mul_mod(G[i], H[k - i], p), p)
        G.append(_divmod_mod(_mul_mod(r, e, p), u, p)[1] if e else [])
        H.append(_divmod_mod(_mul_mod(s, e, p), w, p)[1] if e else [])
    left = _hensel_tree(G, us[:half], p, prec)
    right = _hensel_tree(H, us[half:], p, prec)
    return None if left is None or right is None else left + right


def _recombine(Ft, lc, leaves, degrees, p, y0):
    """The irreducible factors, as dicts {(i, j): c} in (x, y), of the F
    whose shift F(x, y0 + t) is Ft, from its lifted factors (`_hensel_tree`)
    of x-degrees `degrees`.

    Each subset of the lifted factors, by increasing size (ibid. 15.6),
    gives a candidate: lc times their product, mod t^prec, in symmetric
    residues mod p, made primitive.  A true factor of x-degree m has total
    degree m, so a candidate with a term x^i t^k, i + k > m, is dropped
    untried; the others are tried by exact division.  A factor found leaves
    with its subset; what is left once no subset of half the rest remains is
    irreducible.  Each lifted factor alone is a candidate first, so when the
    image splits as F does, the product of those candidates is F and no
    larger subset is tried.
    """
    prec = len(Ft)
    A = [_trim_mod([Ft[k][i] for k in range(prec)], None) for i in range(len(Ft[0]))]
    items = list(zip(degrees, leaves))
    found = []
    size, tried = 1, 0
    while 2 * size <= len(items):
        for subset in itertools.combinations(range(len(items)), size):
            tried += 1
            if tried > RECOMBINATION_CAP:
                raise DegreeTooLarge(
                    f"factor recombination passed {RECOMBINATION_CAP} subsets")
            series = items[subset[0]][1]
            for i in subset[1:]:
                series = _series_mul(series, items[i][1], p)
            B = _candidate(series, A[-1][0], sum(items[i][0] for i in subset), p)
            Q = None if B is None else _divide_xt(A, B)
            if Q is not None:
                found.append(B)
                A = Q
                items = [it for i, it in enumerate(items) if i not in subset]
                break
        else:
            size += 1
    if len(A) > 1:
        found.append(A)
    return [{(i, j): c for i, col in enumerate(B)
             for j, c in enumerate(_taylor(col, -y0)) if c} for B in found]


def _series_mul(a, b, p):
    """The product of two series over t of x-polynomials, mod t^len(a), p."""
    out = [[] for _ in a]
    for i, ai in enumerate(a):
        if ai:
            for j in range(len(a) - i):
                if b[j]:
                    out[i + j] = _add_mod(out[i + j], _mul_mod(ai, b[j], p), p)
    return out


def _candidate(series, lc, m, p):
    """lc * series in symmetric residues mod p, as a primitive list over x
    of coefficient lists in t; None if it has a term past total degree m."""
    B = [[] for _ in range(m + 1)]
    for k, col in enumerate(series):
        for i, c in enumerate(col):
            c = c * lc % p
            if c:
                if i + k > m:
                    return None
                row = B[i]
                row.extend([0] * (k + 1 - len(row)))
                row[k] = c - p if 2 * c > p else c
    g = math.gcd(*(c for row in B for c in row))
    return [[c // g for c in row] for row in B]


def _divide_xt(A, B):
    """A / B in ZZ[t][x], both lists over x of coefficient lists in t, when
    B divides A exactly; else None.  B's lead in x is an integer."""
    db = len(B) - 1
    if len(A) <= db:
        return None
    b = B[-1][0]
    R = list(A)
    Q = [None] * (len(A) - db)
    for k in range(len(A) - 1 - db, -1, -1):
        if any(c % b for c in R[k + db]):
            return None
        q = Q[k] = [c // b for c in R[k + db]]
        for i in range(db):
            R[k + i] = _sub_mod(R[k + i], _mul_mod(q, B[i], None), None)
    return None if any(R[:db]) else Q


def _prod_mod(polys, p):
    out = [1]
    for a in polys:
        out = _mul_mod(out, a, p)
    return out


def _trager(f, ctx):
    """Irreducible monic factors of a squarefree monic f over an extension."""
    if len(f) <= 1:
        return []
    if len(f) == 2:
        return [list(f)]
    sub = ctx.sub
    beta = ctx.gen()
    m = list(ctx.top_minpoly)
    for s in range(0, 40):
        norm = _norm_down(_shift_uni(f, -s * beta, ctx), m, sub, ctx)
        if len(_gcd_with_derivative(norm)) == 1:
            pieces = factor_coeff_list(norm, sub)
            out = []
            for h, _k in pieces:
                g = _uni_gcd(list(f), _shift_uni(h, s * beta, ctx))
                if len(g) > 1:
                    out.append(g)
            total = sum(len(g) - 1 for g in out)
            assert total == len(f) - 1, "Trager factor degrees do not add up"
            return out
    raise DegreeTooLarge("no squarefree norm found in Trager factorization")


def _shift_uni(f, c, ctx):
    """f(x + c) for a coefficient list f over ctx, by `MPoly.shift`."""
    p = poly_from_coeffs(f, ctx, ("_x",), "_x")
    return univariate_coeffs(p.shift("_x", c), "_x")


def _norm_down(f, m, sub, ctx):
    """Resultant_y(m(y), f_as_poly_in_x_and_y) over the subfield."""
    vars = ("_x", "_y")
    fy = MPoly.zero(sub, vars)
    for k, c in enumerate(f):
        cc = _coeffs_over_sub(c, ctx)
        for j, a in enumerate(cc):
            if is_zero(a):
                continue
            fy = fy + MPoly(sub, vars, {(k, j): a})
    my = poly_from_coeffs(m, sub, vars, "_y")
    res = resultant(my, fy, "_y")
    return univariate_coeffs(res, "_x")


def _coeffs_over_sub(c, ctx):
    if isinstance(c, AlgNum) and c.ctx == ctx:
        return list(c.coeffs)
    return [c]


def common_factor(p, q):
    """Nonconstant gcd if the inputs share a component, else None."""
    g = mgcd(p, q)
    if g and g.total_degree() > 0:
        return g
    return None


def require_coprime(p, q):
    if common_factor(p, q) is not None:
        raise CommonComponent("operands share a common factor")
