"""Sparse multivariate polynomials over a FieldCtx.

Terms are stored as a dict mapping exponent tuples to nonzero scalars.  The
variable tuple is part of the value; mixed-variable arithmetic is an error.
Operands over two fields of one tower meet in the deeper one (`scalar.join`);
translating a polynomial by an irrational point needs a `lift` first.
Monomial order (graded lex) is fixed for printing and exact division only.

sympy is reached through one boundary, `to_zz` / `from_zz`: an MPoly over
QQ becomes an element of sympy's sparse `PolyRing(ZZ)` built from its term
dict, scaled by the lcm of its denominators.  Resultants, multivariate and
univariate gcds, univariate factorizations and squarefree decompositions
with coefficients in QQ run there, and so do the products that build the
cofactor M of a pullback numerator f~^m * M (`sis._pullback_numerator`).
`factor_qq` factors a ternary form in-house: sympy factors one univariate
image, and the factors are lifted from it by Hensel lifting modulo a
Mersenne prime and recombined by trial division.  `MPoly.shift` over
QQ is a Taylor pass in Python integers over one common denominator, with
one `Fraction` per output term.  Everything over a number field stays in
this module: the PRS gcd, Euclid on coefficient lists, Trager's
factorization and the Bareiss resultant over Q(a).  Their scalar products
run in the integer kernel of `scalar`, which stores an element of Q(a) as
integer numerators over one denominator.

`resultant` returns the exact Sylvester determinant in both cases.  sympy
swaps the operands when the first has the smaller degree but omits the
sign (-1)^(mn), so the QQ path puts the larger degree first and applies the
sign itself.
"""

from __future__ import annotations

import heapq
import itertools
import math
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

        total = Fraction(0) if target is None else MPoly.zero(*target)
        for e, c in self.terms.items():
            val = c if target is None else MPoly.const(*target, c)
            for i, name in enumerate(self.vars):
                if e[i]:
                    val = val * power(name, e[i])
            total = val + total
        return total

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
# the integer boundary to sympy

_ZZ_RINGS = {}


def _zz_ring(vars, first):
    ring = _ZZ_RINGS.get((vars, first))
    if ring is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import PolyRing

        gens = vars if first is None else (first,) + tuple(v for v in vars if v != first)
        ring = _ZZ_RINGS[(vars, first)] = PolyRing(gens, ZZ)
    return ring


def to_zz(p, first=None):
    """(D, a) with a = D * p in sympy's PolyRing(ZZ) on p.vars.

    p has coefficients in QQ and D is the lcm of their denominators.  The
    generator `first`, if given, is moved to the front of the ring.
    """
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    i = None if first is None else p.vars.index(first)
    terms = {}
    for e, c in p.terms.items():
        if i is not None:
            e = (e[i],) + e[:i] + e[i + 1:]
        terms[e] = c.numerator * (den // c.denominator)
    return den, _zz_ring(p.vars, first).from_dict(terms)


def from_zz(a, vars, first=None, scale=Fraction(1)):
    """The MPoly scale * a over QQ, for `a` from a ring built by to_zz.

    `a` may also lack the front generator `first` (a resultant eliminates
    it); that variable then has exponent 0.
    """
    i = None if first is None else vars.index(first)
    num, den = scale.numerator, scale.denominator
    terms = {}
    for e, c in a.items():
        if i is not None:
            k, e = (e[0], e[1:]) if len(e) == len(vars) else (0, e)
            e = e[:i] + (k,) + e[i:]
        terms[e] = Fraction(int(c) * num, den)
    return MPoly(QQ, vars, terms)


# ---------------------------------------------------------------------------
# exact division, gcd, resultant

def _heap_key(e):
    # graded lex, largest first under heapq's min-order
    return (-sum(e), tuple(-a for a in e))


def exact_div(p, q):
    """Quotient p/q when q divides p exactly; None otherwise.

    Division in graded lex order with a heap of remainder exponents.  Graded
    lex is a monomial order, so every term a step adds to the remainder is
    smaller than the lead it cancels: the heap's top is the remainder's lead
    once entries whose term has since cancelled are skipped.  Quotient terms
    come out from the largest down.
    """
    if not q:
        raise DivisionByZero("exact division by zero polynomial")
    if not p:
        return p
    ctx = join(p.ctx, q.ctx)
    q_lead = min(q.terms, key=_heap_key)
    q_inv = scalar_inv(q.terms[q_lead])
    q_tail = [(e, co) for e, co in q.terms.items() if e != q_lead]
    rem = dict(p.terms)
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
        c = lc * q_inv
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
    return MPoly(ctx, p.vars, quot)


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


def _mgcd_qq(p, q):
    _, a = to_zz(p)
    _, b = to_zz(q)
    return _monic(from_zz(a.gcd(b), p.vars))


def mgcd(p, q):
    """Monic-normalized gcd over the coefficient field (primitive PRS)."""
    if not p:
        return _monic(q)
    if not q:
        return _monic(p)
    if p.ctx == QQ and q.ctx == QQ and len(p.vars) > 1:
        return _mgcd_qq(p, q)
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

    Over QQ it runs in sympy's PolyRing(ZZ); over a number field it is
    Euclid on the coefficient lists.
    """
    a, b = _sc._trim(a), _sc._trim(b)
    if not any(isinstance(c, AlgNum) for c in a + b):
        return _monic_coeffs(_uni_zz(a).gcd(_uni_zz(b)))
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

    Over QQ it runs in sympy's PolyRing(ZZ); over a number field it is
    fraction-free (Bareiss) elimination on the Sylvester matrix.
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
        return _resultant_qq(p, q, var, m, n)
    pc = [p.coeff_of(var, k) for k in range(m + 1)]
    qc = [q.coeff_of(var, k) for k in range(n + 1)]
    size = m + n
    rows = []
    for i in range(n):
        row = [MPoly.zero(ctx, vars) for _ in range(size)]
        for k in range(m + 1):
            row[i + (m - k)] = pc[k]
        rows.append(row)
    for i in range(m):
        row = [MPoly.zero(ctx, vars) for _ in range(size)]
        for k in range(n + 1):
            row[i + (n - k)] = qc[k]
        rows.append(row)
    return _bareiss_det(rows, ctx, vars)


def _resultant_qq(p, q, var, m, n):
    # sympy swaps operands with deg p < deg q without the sign (-1)^(mn), so
    # the larger degree goes first and the sign is applied here.
    sign = 1
    if m < n:
        p, q, m, n = q, p, n, m
        sign = (-1) ** (m * n)
    da, a = to_zz(p, var)
    db, b = to_zz(q, var)
    # Res(a, b) = da^n * db^m * Res(p, q): p fills n rows, q fills m rows
    r = a.resultant(b)
    if not isinstance(r, dict):  # one-variable ring: an integer
        r = {(): r} if r else {}
    return from_zz(r, p.vars, var, Fraction(sign, da ** n * db ** m))


def _bareiss_det(rows, ctx, vars):
    n = len(rows)
    sign = 1
    prev = MPoly.const(ctx, vars, 1)
    for k in range(n - 1):
        if not rows[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot_row is None:
                return MPoly.zero(ctx, vars)
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                q = exact_div(num, prev)
                assert q is not None, "Bareiss exact division failed"
                rows[i][j] = q
            rows[i][k] = MPoly.zero(ctx, vars)
        prev = rows[k][k]
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


def _uni_zz(coeffs):
    """A univariate coefficient list over QQ, cleared into PolyRing(ZZ)."""
    return to_zz(poly_from_coeffs(coeffs, QQ, ("t",), "t"))[1]


def _monic_coeffs(a):
    """The monic coefficient list of an element of _uni_zz's ring."""
    return univariate_coeffs(_monic(from_zz(a, ("t",))))


def _factor_qq(coeffs):
    _, factors = _uni_zz(coeffs).factor_list()
    return [(_monic_coeffs(f), k) for f, k in factors]


def factor_qq(p):
    """Irreducible factorization over QQ of a nonzero ternary form.

    Returns (unit, [(factor, exponent), ...]) with unit * prod factor^k == p.
    Each factor is primitive over ZZ with positive lex-leading coefficient.
    Factors are ordered by the text of sympy's ``Poly(factor, *vars,
    domain='QQ')``.  Raises NotHomogeneous unless p is a form in three
    variables, and DegreeTooLarge past `RECOMBINATION_CAP` or the largest
    lifting prime.

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
    factors.sort(key=lambda t: f"Poly({to_zz(t[0])[1]}, {gens}, domain='QQ')")
    return unit, factors


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
    With none there, F is split by its squarefree decomposition first (one
    bivariate gcd, cheaper than the n(n - 1) + 1 images that would prove F
    not squarefree), and each part is lifted from its first squarefree
    image.
    """
    y0 = _squarefree_image(F, n, n + 1)
    if y0 is not None:
        return [(h, 1) for h in _lift_factors(F, n, y0)]
    out = []
    for g, k in _zz_ring(("x", "y"), None).from_dict(F).sqf_list()[1]:
        g = {e: int(c) for e, c in g.items()}
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
        if _uni_zz(_image(rows, y0)).is_squarefree:
            return y0
    return None


def _lift_factors(F, n, y0):
    """The irreducible factors of a squarefree F (see `_factor_xy`) whose
    image F(x, y0) is squarefree.

    The image is factored once in ZZ[x].  In t = y - y0, F is lifted
    linearly to precision deg_y F + 1 along a balanced factor tree
    (`_hensel_tree`), modulo a prime p above 2 * |lc| * B.  B bounds the
    coefficients of every factor of Ft = F(x, y0 + t): Mignotte's bound
    2^D * ||Ft||_2 holds for the Kronecker substitution t -> x^(n + 1) of
    Ft, of degree D, and that substitution keeps the coefficients of a
    factor apart.  The factors of F are then products of lifted factors
    (`_recombine`).
    """
    rows = _y_coeffs(F, n)
    image = _image(rows, y0)
    _, pieces = _uni_zz(image).factor_list()
    if len(pieces) == 1:
        return [F]
    # Ft[k][i]: the coefficient of x^i t^k in F(x, y0 + t)
    shifted = [_taylor(row, y0) for row in rows]
    Ft = [[row[k] if k < len(row) else 0 for row in shifted]
          for k in range(max(map(len, shifted)))]
    lc = image[-1]
    norm2 = sum(c * c for col in Ft for c in col)
    degree = max(i + k * (n + 1) for k, col in enumerate(Ft) for i, c in enumerate(col) if c)
    bound = 2 * abs(lc) * (2 ** degree * (math.isqrt(norm2) + 1))
    us = [[int(c) for c in reversed(u.to_dense())] for u, _ in pieces]
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
