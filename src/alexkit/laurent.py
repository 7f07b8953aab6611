"""Exact Laurent-polynomial arithmetic over the integers.

Univariate polynomials live in Z[t, t^-1], multivariate ones in
Z[t1^{+-1}, ..., ts^{+-1}], and every coefficient is an `int`; the
constructors reject a non-integral one.  The units of these rings are
+-t^k (+-monomials), the only polynomials with an inverse.  Both rings
store a polynomial as {exponent: coefficient}, an int exponent in one
variable and a tuple of ints in several, with the zero polynomial the
empty map.  One private core holds what does not look inside an
exponent: the zero and unit tests, a unit's inverse, equality, hashing,
negation, one-pass addition and subtraction, and rendering.  Each ring
keeps its own product, where a product by a single term c*t^k shifts the
other operand, and its own exact division `//`.

Univariate division is pseudo-division (Knuth, TAOCP vol. 2, 4.6.1):
`pseudo_divmod` scales the dividend by the least positive integer that
keeps the quotient integral, an exact division by a single term is a
shift, and gcds follow the primitive remainder sequence (Brown, J. ACM 18,
1971).  Multivariate exact division is long division by lex-leading
terms (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 2.3)
on the operands shifted to minimum exponent 0 in every variable.
"""
from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from functools import partial
from math import gcd as _int_gcd
from numbers import Number, Real
from operator import add, neg, sub

from .errors import (DimensionMismatch, NotAUnit, UseMultivariableRoute,
                     ValidationError, ZeroPolynomial)

_new_object = object.__new__


def _int(c, what="coefficient"):
    """c as an int: an integral number such as 2.0 passes, another number
    or a string raises ValidationError, any other type TypeError."""
    if type(c) is int:
        return c
    try:
        if c == int(c):
            return int(c)
    except TypeError:
        if not isinstance(c, Number):
            raise
    except (ValueError, OverflowError):
        pass
    raise ValidationError("non-integral %s %r" % (what, c))


_exponent = partial(_int, what="exponent")


def _size(n, what, least=0):
    """n, read through `_int`, as a size: an int from `least` to
    sys.maxsize, the largest size Python can index, else ValidationError."""
    n = _int(n, what)
    if not least <= n <= sys.maxsize:
        raise ValidationError("%s %d is outside %d..%d"
                              % (what, n, least, sys.maxsize))
    return n


def _typed(name, cls, *values):
    """TypeError unless every value is a `cls`; `name` is the function
    that was called."""
    for p in values:
        if not isinstance(p, cls):
            raise TypeError("%s takes %s, not %s"
                            % (name, cls.__name__, type(p).__name__))


class _Value:
    """A value type: equal to a value of its exact class with an equal
    `_key()`, and hashed by that key."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _int_terms(coeffs, exponent):
    """The nonzero terms of a coefficient map, with int coefficients and
    each exponent passed through `exponent`."""
    data = {}
    for e, c in (coeffs or {}).items():
        c, e = _int(c), exponent(e)
        if c:
            data[e] = c
    return data


def _var_power(name, e):
    if e == 0:
        return ""
    if e == 1:
        return name
    return "%s^%d" % (name, e)


class _LaurentCore:
    """A polynomial in one variable named `_var`, or in `nvars` of them,
    stored as {exponent: nonzero int}: the operations that both Laurent
    rings share.  Two polynomials combine only within one class and one
    variable count."""

    __slots__ = ("coeffs",)
    nvars = 1
    _var = "t"
    _negate = staticmethod(neg)  # of an exponent

    def __init__(self, coeffs=None):
        self.coeffs = _int_terms(coeffs, _exponent)

    def _new(self, coeffs):
        """A polynomial of this one's ring holding the term map `coeffs`
        as it is."""
        out = _new_object(self.__class__)
        out.coeffs = coeffs
        return out

    def _scalar(self, c):
        """The integer c in this polynomial's ring."""
        return self._new({0: c} if c else {})

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_unit(self):
        """True iff p is +-t^k, a +-monomial: a unit of the Laurent ring."""
        return len(self.coeffs) == 1 and abs(*self.coeffs.values()) == 1

    def term_inverse(self):
        """The inverse of a unit +-t^k, which is +-t^-k."""
        if not self.is_unit():
            raise NotAUnit("%s is not a +-monomial" % self.render())
        return self._new({self._negate(e): c for e, c in self.coeffs.items()})

    def _int_divisor(self, q):
        """An int q as this ring's constant; another type is a TypeError."""
        if isinstance(q, int):
            return self._scalar(q)
        raise TypeError("unsupported operand type(s) for //: %r and %r"
                        % (type(self).__name__, type(q).__name__))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self._scalar(other).coeffs
        return NotImplemented

    def __hash__(self):
        """A constant hashes as the int it equals."""
        c = sum(self.coeffs.values())
        return hash(c) if self == c else hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return self._new({e: -c for e, c in self.coeffs.items()})

    def _combine(self, other, sign):
        """self + sign * other in one pass over other's terms."""
        if type(other) is not type(self):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatch("variable count mismatch")
        data = dict(self.coeffs)
        get = data.get
        for e, c in other.coeffs.items():
            s = get(e, 0) + sign * c
            if s:
                data[e] = s
            else:
                del data[e]
        return self._new(data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _varpart(self, e):
        return _var_power(self._var, e)

    def render(self):
        """Terms in increasing exponent order, e.g. `1 - 2 t + t^2`."""
        pieces = []
        for e, c in sorted(self.coeffs.items()):
            v = self._varpart(e)
            mag = abs(c)
            if not v:
                body = str(mag)
            elif mag == 1:
                body = v
            else:
                body = "%s %s" % (mag, v)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces) or "0"

    def __repr__(self):
        return "%s<%s>" % (type(self).__name__, self.render())


class LaurentPoly(_LaurentCore):
    """Laurent polynomial in t, stored as {exponent: int coefficient}."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls):
        return cls({1: 1})

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    @property
    def min_exp(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exp(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return max(self.coeffs)

    @property
    def spread(self):
        return self.max_exp - self.min_exp

    def __mul__(self, other):
        if isinstance(other, int):
            other = self._scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (k, c), = b.items()
            return self._new({e + k: x * c for e, x in a.items()})
        data = {}
        get = data.get
        terms = tuple(b.items())
        for e1, c1 in a.items():
            for e2, c2 in terms:
                e = e1 + e2
                s = get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                else:
                    del data[e]
        return self._new(data)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _int(n, "power")
        if n < 0:
            return self.term_inverse() ** -n
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __floordiv__(self, b):
        """Exact division: self / b, raising ValueError unless b divides
        self in Z[t,t^-1]; an int b is that constant."""
        if type(b) is not LaurentPoly:
            b = self._int_divisor(b)
        if len(b.coeffs) == 1:
            (k, c), = b.coeffs.items()
            if all(x % c == 0 for x in self.coeffs.values()):
                return self._new({e - k: x // c
                                  for e, x in self.coeffs.items()})
        s, q, r = pseudo_divmod(self, b)
        if s != 1 or r:
            raise ValueError("inexact Laurent division: %s by %s"
                             % (self.render(), b.render()))
        return q

    def shifted(self, k):
        """Multiply by t^k."""
        k = _int(k, "shift")
        return self._new({e + k: c for e, c in self.coeffs.items()})

    def derivative(self):
        return self._new({e - 1: c * e for e, c in self.coeffs.items()
                          if e != 0})

    def evaluate(self, x):
        """Evaluate at x != 0; exact at a `Rational` x, in complex floats at
        a complex, a float or another `Real` (a numpy float).
        As in `RationalPoint` and `ComplexPoint`, a point that is not a
        finite number raises ValidationError and t = 0 NotAUnit."""
        if isinstance(x, (complex, float)):
            x = complex(x)
            if not cmath.isfinite(x):
                raise ValidationError("t = %r is not a finite evaluation "
                                      "point" % x)
        else:
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ValidationError("t = %r is not a rational number"
                                      % (x,))
            except TypeError:  # a Real that Fraction refuses: numpy floats
                if not isinstance(x, Real):
                    raise
                return self.evaluate(float(x))
        if x == 0:
            raise NotAUnit("cannot evaluate a Laurent polynomial at t = 0")
        if type(x) is complex:
            try:
                return sum((float(c) * x ** e
                            for e, c in self.coeffs.items()), 0j)
            except (OverflowError, ZeroDivisionError):  # past the floats
                raise ValidationError("complex t=%s is out of floating-point "
                                      "range" % x)
        return sum((c * x ** e for e, c in self.coeffs.items()), Fraction(0))


def normalize_unit(p):
    """Multiply by +-t^k so the minimum exponent is 0 and the constant
    term is positive."""
    _typed("normalize_unit", LaurentPoly, p)
    if p.is_zero:
        raise ZeroPolynomial("normalize_unit of the zero polynomial")
    q = p.shifted(-p.min_exp)
    if q.coeffs[0] < 0:
        q = -q
    return q


def canonical_poly(p):
    """Canonical associate: normalize_unit plus division by the content,
    giving coprime coefficients.  Gcds and SNF invariant factors are taken
    over Q[t,t^-1], whose units c*t^k need the scalar pinned as well as
    the sign and shift."""
    _typed("canonical_poly", LaurentPoly, p)
    if p.is_zero:
        return LaurentPoly.zero()
    return p._new(_primitive_coeffs(normalize_unit(p).coeffs))


def _primitive_coeffs(coeffs):
    """The coefficient map divided by the gcd of its coefficients."""
    g = _int_gcd(*coeffs.values())
    return {e: c // g for e, c in coeffs.items()}


def pseudo_divmod(a, b):
    """(s, q, r) with s*a = q*b + r, spread(r) < spread(b) and s a
    positive int: long division of the operands shifted to ordinary
    polynomials, scaling the remainder and the quotient so far by the
    least positive integer that lets b's leading coefficient divide, so
    s = 1 whenever b divides a in Z[t,t^-1]."""
    _typed("pseudo_divmod", LaurentPoly, a, b)
    if b.is_zero:
        raise ZeroDivisionError("Laurent division by zero")
    if a.is_zero:
        return 1, LaurentPoly.zero(), LaurentPoly.zero()
    sa, sb = a.min_exp, b.min_exp
    rem = {e - sa: c for e, c in a.coeffs.items()}
    bshift = {e - sb: c for e, c in b.coeffs.items()}
    db = max(bshift)
    lead = bshift[db]
    s = 1
    q = {}
    while rem and max(rem) >= db:
        dr = max(rem)
        factor, m = divmod(rem[dr], lead)
        if m:
            scale = abs(lead) // _int_gcd(rem[dr], lead)
            s *= scale
            rem = {e: c * scale for e, c in rem.items()}
            q = {e: c * scale for e, c in q.items()}
            factor = rem[dr] // lead
        q[dr - db] = factor
        for e, c in bshift.items():
            ne = dr - db + e
            nc = rem.get(ne, 0) - factor * c
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    return (s, a._new({e + sa - sb: c for e, c in q.items()}),
            a._new({e + sa: c for e, c in rem.items()}))


def gcd_laurent(a, b):
    """Canonical gcd in Q[t,t^-1] by the primitive remainder sequence;
    gcd(0,0) = 0 by convention."""
    _typed("gcd_laurent", LaurentPoly, a, b)
    if a.is_zero and b.is_zero:
        return LaurentPoly.zero()
    while not b.is_zero:
        r = pseudo_divmod(a, b)[2]
        # dividing out the content keeps the remainders' integers from
        # growing without bound
        r.coeffs = _primitive_coeffs(r.coeffs)
        a, b = b, r
    return canonical_poly(a)


def distinct_root_count(p):
    """Number of distinct roots of p in C^* (degree of the square-free part)."""
    _typed("distinct_root_count", LaurentPoly, p)
    if p.is_zero:
        raise ZeroPolynomial("distinct_root_count of the zero polynomial")
    u = p.shifted(-p.min_exp)
    if u.max_exp == 0:
        return 0
    g = gcd_laurent(u, u.derivative())
    sf = u // g
    return sf.max_exp - sf.min_exp


class MultiLaurentPoly(_LaurentCore):
    """Laurent polynomial in t1..ts, stored as {exponent tuple: int
    coefficient}."""

    __slots__ = ("nvars",)

    def __init__(self, coeffs=None, nvars=1):
        nvars = _size(nvars, "variable count")

        def exponent(exps):
            exps = tuple(map(_exponent, exps))
            if len(exps) != nvars:
                raise ValidationError("exponent vector of wrong length")
            return exps
        self.coeffs = _int_terms(coeffs, exponent)
        self.nvars = nvars

    def _new(self, coeffs):
        out = _new_object(MultiLaurentPoly)
        out.coeffs = coeffs
        out.nvars = self.nvars
        return out

    def _scalar(self, c):
        return self._new({(0,) * self.nvars: c} if c else {})

    _negate = staticmethod(lambda exps: tuple(map(neg, exps)))

    @classmethod
    def zero(cls, nvars):
        return cls({}, nvars)

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def constant(cls, c, nvars):
        return cls({(0,) * _size(nvars, "variable count"): c}, nvars)

    @classmethod
    def variable(cls, i, nvars):
        """The variable t_i (1-based)."""
        nvars, i = _size(nvars, "variable count"), _int(i, "variable index")
        if not 1 <= i <= nvars:
            raise ValidationError("no variable t%d among %d" % (i, nvars))
        return cls({(0,) * (i - 1) + (1,) + (0,) * (nvars - i): 1}, nvars)

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(exps)
        return cls({exps: coeff}, len(exps))

    @classmethod
    def from_laurent(cls, p):
        return cls({(e,): c for e, c in p.coeffs.items()}, 1)

    def to_laurent(self):
        if self.nvars != 1:
            raise UseMultivariableRoute("not univariate")
        return LaurentPoly({e: c for (e,), c in self.coeffs.items()})

    def set_all_equal(self):
        """Substitute every variable by the single variable t."""
        data = {}
        for exps, c in self.coeffs.items():
            e = sum(exps)
            data[e] = data.get(e, 0) + c
        return LaurentPoly(data)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self._scalar(other)
        if not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable count mismatch")
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (k, c), = b.items()
            return self._new({tuple(map(add, e, k)): x * c
                              for e, x in a.items()})
        data = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                s = data.get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        return self._new(data)

    __rmul__ = __mul__

    def __floordiv__(self, d):
        """Exact division: self / d in the multivariate Laurent ring,
        raising ValueError unless d divides self; an int d is that constant.

        Both operands are shifted so that every variable's minimum exponent
        is 0.  The lowest power of each variable adds under multiplication,
        so an exact quotient of two such polynomials is again one, and long
        division by lex-leading terms finds it: each step divides the
        remainder's leading term by d's and subtracts that quotient term
        times d.  A coefficient that does not divide, or a quotient exponent
        below 0, shows that the division is inexact.  Every step removes the
        remainder's leading term and adds only smaller ones, and lex order
        well-orders N^n, so the loop ends.  The quotient is then shifted
        back."""
        if type(d) is not MultiLaurentPoly:
            d = self._int_divisor(d)
        if d.is_zero:
            raise ZeroDivisionError("multivariate division by zero")
        if self.nvars != d.nvars:
            raise DimensionMismatch("variable count mismatch")
        if self.is_zero:
            return self
        pmin, dmin = self.min_exps(), d.min_exps()
        rem = self.shifted(tuple(-e for e in pmin)).coeffs
        rest = d.shifted(tuple(-e for e in dmin)).coeffs
        lead = max(rest)
        lead_coeff = rest.pop(lead)
        quo = {}
        while rem:
            top = max(rem)
            c, r = divmod(rem.pop(top), lead_coeff)
            e = tuple(map(sub, top, lead))
            if r or min(e) < 0:
                raise ValueError("inexact multivariate division")
            quo[e] = c
            for f, x in rest.items():
                g = tuple(map(add, e, f))
                s = rem.get(g, 0) - c * x
                if s:
                    rem[g] = s
                else:
                    del rem[g]
        return self._new(quo).shifted(tuple(map(sub, pmin, dmin)))

    def min_exps(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return tuple(min(e[i] for e in self.coeffs)
                     for i in range(self.nvars))

    def shifted(self, shifts):
        shifts = tuple(map(_exponent, shifts))
        if len(shifts) != self.nvars:
            raise DimensionMismatch("shift vector of wrong length")
        return self._new({tuple(map(add, e, shifts)): c
                          for e, c in self.coeffs.items()})

    def _varpart(self, exps):
        return " ".join(_var_power("t%d" % (i + 1), e)
                        for i, e in enumerate(exps) if e != 0)


def mv_normalize(p):
    """Canonical associate up to the units of Q[t1^{+-1},..,ts^{+-1}]:
    every variable's minimum exponent 0, coprime coefficients,
    lexicographically leading coefficient positive."""
    _typed("mv_normalize", MultiLaurentPoly, p)
    if p.is_zero:
        return MultiLaurentPoly.zero(p.nvars)
    q = p.shifted(tuple(-m for m in p.min_exps()))
    coeffs = _primitive_coeffs(q.coeffs)
    if coeffs[max(coeffs)] < 0:
        coeffs = {e: -c for e, c in coeffs.items()}
    return p._new(coeffs)


def _mv_split_last(p):
    """View p as a polynomial in its last variable with coefficients in
    one fewer variable: {exponent: MultiLaurentPoly(nvars-1)}."""
    out = {}
    for exps, c in p.coeffs.items():
        head, last = exps[:-1], exps[-1]
        out.setdefault(last, {})[head] = c
    return {e: MultiLaurentPoly(d, p.nvars - 1) for e, d in out.items()}


def _mv_join_last(parts, nvars):
    data = {}
    for e, coeff in parts.items():
        for head, c in coeff.coeffs.items():
            data[head + (e,)] = c
    return MultiLaurentPoly(data, nvars)


def _mv_content(parts, nvars_inner):
    """Gcd of the coefficient polynomials of a split representation."""
    g = MultiLaurentPoly.zero(nvars_inner)
    for coeff in parts.values():
        g = _mv_gcd(g, coeff) if not g.is_zero else mv_normalize(coeff)
    return g


def _mv_scale_div(parts, content):
    """Divide polynomial parts by their normalized content."""
    return {e: c // content for e, c in parts.items()}


def _mv_pseudo_rem(a, b, nvars):
    """Pseudo-remainder of a by b as polynomials in the last variable."""
    da, db = max(a), max(b)
    lead_b = b[db]
    rem = dict(a)
    while rem:
        dr = max(rem)
        if dr < db:
            break
        lead_r = rem[dr]
        new = {}
        for e, c in rem.items():
            if e == dr:
                continue
            new[e] = c * lead_b
        for e, c in b.items():
            if e == db:
                continue
            ne = dr - db + e
            cur = new.get(ne, MultiLaurentPoly.zero(nvars - 1)) - lead_r * c
            if cur.is_zero:
                new.pop(ne, None)
            else:
                new[ne] = cur
        rem = new
    return rem


def _mv_gcd(a, b):
    """Gcd of two nonzero multivariate Laurent polynomials."""
    a = mv_normalize(a)
    b = mv_normalize(b)
    if a.nvars == 1:
        return MultiLaurentPoly.from_laurent(
            gcd_laurent(a.to_laurent(), b.to_laurent()))
    nvars = a.nvars
    pa = _mv_split_last(a)
    pb = _mv_split_last(b)
    ca = _mv_content(pa, nvars - 1)
    cb = _mv_content(pb, nvars - 1)
    content = _mv_gcd(ca, cb)
    pa = _mv_scale_div(pa, ca)
    pb = _mv_scale_div(pb, cb)
    # primitive pseudo-remainder sequence in the last variable
    while pb:
        r = _mv_pseudo_rem(pa, pb, nvars)
        pa, pb = pb, r and _mv_scale_div(r, _mv_content(r, nvars - 1))
    lifted = MultiLaurentPoly(
        {e + (0,): c for e, c in content.coeffs.items()}, nvars)
    return mv_normalize(lifted * _mv_join_last(pa, nvars))


def gcd_multivariate(polys):
    """Gcd of a non-empty list; all-zero input returns 0."""
    polys = list(polys)
    if not polys:
        raise ValidationError("gcd_multivariate of an empty list")
    _typed("gcd_multivariate", MultiLaurentPoly, *polys)
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise DimensionMismatch("variable count mismatch")
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        return MultiLaurentPoly.zero(nvars)
    g = mv_normalize(nonzero[0])
    for p in nonzero[1:]:
        if g == MultiLaurentPoly.one(nvars):
            break
        g = _mv_gcd(g, p)
    return g
