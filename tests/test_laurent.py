"""Exact Laurent arithmetic against sympy oracles and algebraic laws."""
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from alexkit.errors import (DimensionMismatch, NotAUnit, ValidationError,
                            ZeroPolynomial)
from alexkit.fox import AbelianWeights
from alexkit.laurent import (LaurentPoly, MultiLaurentPoly, canonical_poly,
                             distinct_root_count, exact_div, gcd_laurent,
                             gcd_multivariate, mv_exact_div, mv_normalize,
                             normalize_unit, pseudo_divmod)
from util import random_poly

_t = sympy.symbols("t")
_mv_symbols = sympy.symbols("x y z")


def to_sympy(p):
    if isinstance(p, int):
        return sympy.Integer(p)
    if isinstance(p, MultiLaurentPoly):
        return _mv_to_sympy(p, *_mv_symbols[:p.nvars])
    return sum(sympy.Rational(c.numerator, c.denominator) * _t ** e
               for e, c in p.coeffs.items())


def poly_strategy(min_exp=-3, max_exp=4):
    return st.dictionaries(
        st.integers(min_exp, max_exp),
        st.integers(min_value=-5, max_value=5),
        max_size=5).map(LaurentPoly)


def operands(nvars=0):
    """General polynomials, single terms c*t^k (c in +-1..+-5, k in
    -4..4) and zero, so every path of +, - and * runs; nvars = 0 is the
    univariate ring, 2 and 3 the multivariate ones."""
    coeff = st.integers(-5, 5).filter(bool)
    if nvars == 0:
        single = st.builds(LaurentPoly.monomial, st.integers(-4, 4), coeff)
        return st.one_of(poly_strategy(), single,
                         st.just(LaurentPoly.zero()))
    exps = st.tuples(*[st.integers(-4, 4)] * nvars)
    general = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * nvars),
                              st.integers(-5, 5), max_size=4)
    return st.one_of(general.map(lambda d: MultiLaurentPoly(d, nvars)),
                     st.builds(MultiLaurentPoly.monomial, exps, coeff),
                     st.just(MultiLaurentPoly.zero(nvars)))


def _zero_one(nvars):
    if nvars == 0:
        return LaurentPoly.zero(), LaurentPoly.one()
    return MultiLaurentPoly.zero(nvars), MultiLaurentPoly.one(nvars)


def _mixed(data, nvars, ints=False):
    """Draw one operand from `operands(nvars)`, or an int as well."""
    strategy = operands(nvars)
    return data.draw(st.one_of(strategy, st.integers(-5, 5)) if ints
                     else strategy)


@given(poly_strategy(), poly_strategy(), poly_strategy(), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c, data):
    """Every example checks three general univariate polynomials, then
    three mixed operands in each of 1, 2 and 3 variables."""
    triples = [(0, (a, b, c))] + [
        (nvars, tuple(_mixed(data, nvars) for _ in range(3)))
        for nvars in (0, 2, 3)]
    for nvars, (a, b, c) in triples:
        n = data.draw(st.integers(-5, 5))
        zero, one = _zero_one(nvars)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == one * a == a
        assert a - a == zero
        assert a - b == a + (-b)
        assert a * n == n * a == a * (one * n)


@given(poly_strategy(), poly_strategy(), st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy(a, b, data):
    """Every example checks two general univariate polynomials, then two
    mixed operands or ints in each of 1, 2 and 3 variables, both ways."""
    pairs = [(a, b)] + [(_mixed(data, nvars, True), _mixed(data, nvars, True))
                        for nvars in (0, 2, 3)]
    for a, b in pairs:
        for p in (a * b, b * a):
            assert sympy.simplify(to_sympy(p)
                                  - to_sympy(a) * to_sympy(b)) == 0


def _all_int(p):
    return all(type(c) is int for c in p.coeffs.values())


@given(poly_strategy(), poly_strategy(), operands())
@settings(max_examples=60, deadline=None)
def test_divmod_is_division_with_remainder(a, b, m):
    """s*a = q*b + r with spread(r) < spread(b), a positive int s and int
    coefficients; s = 1 and r = 0 when b divides a, and dividing by 2t
    is exact iff every coefficient is even.  Every example divides by a
    general polynomial b and by a mixed operand m; `//` is exact_div."""
    two_t = LaurentPoly.monomial(1, 2)
    if any(c % 2 for c in a.coeffs.values()):
        with pytest.raises(ValueError):
            exact_div(a, two_t)
    else:
        assert exact_div(a, two_t) * two_t == a == a // two_t * two_t
    for b in (b, m):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                pseudo_divmod(a, b)
            continue
        s, q, r = pseudo_divmod(a, b)
        assert type(s) is int and s > 0
        assert a * s == q * b + r
        assert r.is_zero or r.spread < b.spread
        assert _all_int(q) and _all_int(r)
        assert pseudo_divmod(a * b, b) == (1, a, LaurentPoly.zero())
        assert exact_div(a * b, b) == a and _all_int(exact_div(a * b, b))
        assert a * b // b == exact_div(a * b, b)


def test_pseudo_divmod_by_non_monic_divisors():
    """Divisors with leading and trailing coefficients other than +-1:
    the scale s is needed, and stays 1 on exact quotients."""
    rng = random.Random(53)
    scaled = 0
    for _ in range(40):
        a = _int_poly(rng)
        b = LaurentPoly({-1: rng.choice([2, 3, -5]), 1: rng.randint(-3, 3),
                         2: rng.choice([2, 3, -4])})
        s, q, r = pseudo_divmod(a, b)
        assert a * s == q * b + r
        assert r.is_zero or r.spread < b.spread
        assert _all_int(q) and _all_int(r)
        scaled += s != 1
        assert pseudo_divmod(a * b, b) == (1, a, LaurentPoly.zero())
    assert scaled >= 20
    # x^3 + 1 by 2x + 1: 8(x^3 + 1) = (4x^2 - 2x + 1)(2x + 1) + 7
    assert pseudo_divmod(LaurentPoly({0: 1, 3: 1}),
                         LaurentPoly({0: 1, 1: 2})) == (
        8, LaurentPoly({0: 1, 1: -2, 2: 4}), LaurentPoly({0: 7}))
    with pytest.raises(ValueError):
        exact_div(LaurentPoly({0: 1}), LaurentPoly({0: 2}))


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(a, b):
    g = gcd_laurent(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    # compare monic ordinary-polynomial representatives
    sa = sympy.Poly(to_sympy(a.shifted(-a.min_exp)) if not a.is_zero else 0,
                    _t)
    sb = sympy.Poly(to_sympy(b.shifted(-b.min_exp)) if not b.is_zero else 0,
                    _t)
    expected = sympy.gcd(sa, sb).monic()
    got = sympy.Poly(to_sympy(normalize_unit(g)), _t).monic()
    assert got == expected
    # and the gcd really divides both
    if not a.is_zero:
        exact_div(a, g)
    if not b.is_zero:
        exact_div(b, g)


def test_normalize_unit_canonical():
    p = LaurentPoly({-2: -3, -1: 3, 0: -3})
    q = normalize_unit(p)
    assert q.min_exp == 0
    assert q.coeffs[0] > 0
    # associates normalize identically
    for k in (-2, 0, 3):
        for s in (1, -1):
            assert normalize_unit(p * LaurentPoly.monomial(k, s)) == q
    with pytest.raises(ZeroPolynomial):
        normalize_unit(LaurentPoly.zero())


def test_canonical_poly_is_primitive_integer():
    p = LaurentPoly({1: 6, 2: -12})
    q = canonical_poly(p)
    assert q == LaurentPoly({0: 1, 1: -2})
    # integer scalings are units of Q[t^+-1] and collapse to one
    # representative
    assert canonical_poly(p * -7) == q


def test_products_of_canonical_polys_are_canonical():
    """Gauss's lemma: a product of canonical factors is canonical, and so
    is its exact quotient by one of them."""
    rng = random.Random(83)
    for _ in range(200):
        p, q = (canonical_poly(random_poly(rng, max_deg=4, min_exp=-2,
                                           allow_zero=False))
                for _ in range(2))
        assert canonical_poly(p * q) == p * q
        assert (p * q) // q == p


def test_distinct_root_count():
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    assert distinct_root_count(one) == 0
    assert distinct_root_count((t - one) ** 3) == 1
    assert distinct_root_count((t - one) ** 2 * (t + one)) == 2
    assert distinct_root_count(t ** 5) == 0  # 0 is not in the base C*


def test_evaluate_points():
    p = LaurentPoly({-1: 1, 1: 2})
    assert p.evaluate(Fraction(2)) == Fraction(1, 2) + 4
    assert abs(p.evaluate(1j) - (1j ** -1 + 2j)) < 1e-12
    with pytest.raises(NotAUnit):
        p.evaluate(Fraction(0))


def test_multivariable_roundtrip_and_collapse():
    t1 = MultiLaurentPoly.variable(1, 2)
    t2 = MultiLaurentPoly.variable(2, 2)
    p = t1 * t2 - t2 * t2 + MultiLaurentPoly.one(2)
    assert p.set_all_equal() == LaurentPoly({0: 1})  # t^2 - t^2 + 1
    q = MultiLaurentPoly.variable(1, 1)
    assert q.to_laurent() == LaurentPoly.t()
    assert MultiLaurentPoly.from_laurent(LaurentPoly.t()) == q


def test_gcd_multivariate_matches_sympy():
    x, y = sympy.symbols("x y")
    rng = random.Random(11)
    for _ in range(15):
        g = _random_mv(rng)
        a = g * _random_mv(rng)
        b = g * _random_mv(rng)
        got = gcd_multivariate([a, b])
        sg = sympy.gcd(_mv_to_sympy(a, x, y), _mv_to_sympy(b, x, y))
        # gcds agree up to units +-x^a y^b of the Laurent ring
        want = _mv_unit_norm(sg, x, y)
        got_s = _mv_unit_norm(_mv_to_sympy(got, x, y), x, y)
        assert got_s == want


def test_mv_exact_div_laurent_quotients():
    """(p*q)/q == p in the Laurent ring, in 1, 2 and 3 variables, with
    negative exponents in every variable of p and q; an inexact division
    raises ValueError, also where the quotient would need a negative
    exponent, and so does a variable count mismatch."""
    for nvars in (1, 2, 3):
        t = [MultiLaurentPoly.variable(i, nvars) for i in range(1, nvars + 1)]
        one = MultiLaurentPoly.one(nvars)
        for x in t:
            assert mv_exact_div(x.term_inverse(), one) == x.term_inverse()
            assert mv_exact_div(one, x) == x.term_inverse()
    rng = random.Random(17)
    for _ in range(20):
        nvars = rng.choice((1, 2, 3))
        p = _random_mv(rng, nvars, min_exp=-2) * MultiLaurentPoly.monomial(
            (-1,) * nvars)
        q = _random_mv(rng, nvars, min_exp=-2) * MultiLaurentPoly.monomial(
            (-2,) * nvars)
        assert mv_exact_div(p * q, q) == p
        m = MultiLaurentPoly.monomial(
            [rng.randint(-4, 4) for _ in range(nvars)],
            rng.choice((-5, -3, -2, -1, 1, 2, 4, 5)))
        assert mv_exact_div(p * m, m) == p
        two_t1 = MultiLaurentPoly.monomial((1,) + (0,) * (nvars - 1), 2)
        assert mv_exact_div(p * two_t1, two_t1) == p
        if any(c % 2 for c in p.coeffs.values()):
            with pytest.raises(ValueError):
                mv_exact_div(p, two_t1)
    t1, t2 = (MultiLaurentPoly.variable(i, 2) for i in (1, 2))
    one = MultiLaurentPoly.one(2)
    for p, d in ((t1 + t2, t1 - t2), (t2, t1 + t2), (one, one + t1),
                 (t1 * t2 * 3, t1 * 2)):
        with pytest.raises(ValueError):
            mv_exact_div(p, d)
    with pytest.raises(DimensionMismatch):
        mv_exact_div(one, MultiLaurentPoly.one(3))
    x, one = MultiLaurentPoly.variable(1, 1), MultiLaurentPoly.one(1)
    with pytest.raises(ValueError):
        mv_exact_div(x * x + one, x + one)


def _random_mv(rng, nvars=2, min_exp=0):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(min_exp, 2) for _ in range(nvars))
        coeffs[exps] = rng.choice([-2, -1, 1, 2])
    return MultiLaurentPoly(coeffs, nvars)


def _mv_unit_norm(expr, x, y):
    p = sympy.Poly(sympy.expand(expr), x, y)
    monoms = p.monoms()
    shift = x ** -min(m[0] for m in monoms) * y ** -min(m[1] for m in monoms)
    out = sympy.expand(p.as_expr() * shift)
    lead = sympy.Poly(out, x, y).coeffs()[0]
    return sympy.expand(out / abs(lead) * (1 if lead > 0 else -1))


def _mv_to_sympy(p, *symbols):
    return sum((sympy.Integer(c) * sympy.Mul(*(x ** k for x, k
                                               in zip(symbols, e)))
                for e, c in p.coeffs.items()), sympy.Integer(0))


def _int_poly(rng):
    coeffs = {e: rng.randint(-4, 4) for e in range(-2, 3)}
    p = LaurentPoly(coeffs)
    return p if not p.is_zero else LaurentPoly.monomial(-1, 3)


def _int_mv(rng, nvars):
    coeffs = {tuple(rng.randint(-2, 2) for _ in range(nvars)):
              rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}
    return MultiLaurentPoly(coeffs, nvars)


def test_integer_polynomials_keep_int_coefficients():
    """Integral inputs give int coefficients through every ring operation,
    exact division, normalisation and gcd, Fraction never."""
    rng = random.Random(47)
    for _ in range(25):
        a, b, c = (_int_poly(rng) for _ in range(3))
        assert _all_int(a) and _all_int(b)
        for p in (a + b, a - b, a * b, exact_div(a * b, b),
                  canonical_poly(a), gcd_laurent(a * c, b * c)):
            assert _all_int(p)
        assert exact_div(a * b, b) == a == a * b // b
    for _ in range(20):
        nvars = rng.choice((2, 3))
        a, b, c = (_int_mv(rng, nvars) for _ in range(3))
        for p in (a + b, a * b, mv_exact_div(a * b, b), mv_normalize(a),
                  gcd_multivariate([a * c, b * c])):
            assert _all_int(p)
        assert mv_exact_div(a * b, b) == a == a * b // b


def test_non_integral_coefficients_and_non_units_raise_typed_errors():
    """Coefficients are ints (an integral Fraction is stored as one), and
    only +-t^k and +-monomials are units."""
    p = LaurentPoly({0: Fraction(4, 2), 1: -1})
    assert p.coeffs == {0: 2, 1: -1} and _all_int(p)
    for bad in (Fraction(1, 2), 0.5, 1j):
        with pytest.raises(ValidationError):
            LaurentPoly({0: bad})
        with pytest.raises(ValidationError):
            MultiLaurentPoly({(0, 1): bad}, 2)
    two_t = LaurentPoly.monomial(1, 2)
    assert not two_t.is_unit() and LaurentPoly.monomial(-3, -1).is_unit()
    for inverse in (lambda p: p ** -1, LaurentPoly.term_inverse):
        with pytest.raises(NotAUnit):
            inverse(two_t)
        assert inverse(LaurentPoly.monomial(2, -1)) == LaurentPoly.monomial(
            -2, -1)
    assert LaurentPoly.monomial(2, -1) ** -3 == LaurentPoly.monomial(-6, -1)
    with pytest.raises(NotAUnit):
        MultiLaurentPoly.monomial((1, 0), 2).term_inverse()
    with pytest.raises(NotAUnit):
        AbelianWeights({1: MultiLaurentPoly.monomial((1,), 2)}, 1)


def test_multivariate_operators_reject_other_operands():
    """+, -, * and // of a MultiLaurentPoly with anything but one (or an
    int factor or divisor), a LaurentPoly among them, raise TypeError; a
    variable count mismatch, DimensionMismatch, even of a zero dividend,
    and polynomials in different variable counts are unequal.  Equal
    values hash equal, a constant and its int too."""
    one = MultiLaurentPoly.one(2)
    for other in (1, 1.5, Fraction(1, 2), LaurentPoly.one()):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(one, other)
            with pytest.raises(TypeError):
                op(other, one)
    for other in (1.5, Fraction(1, 2), LaurentPoly.one()):
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one
    assert one * 3 == 3 * one == MultiLaurentPoly.constant(3, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.floordiv):
        with pytest.raises(DimensionMismatch):
            op(one, MultiLaurentPoly.one(3))
        with pytest.raises(TypeError):
            op(LaurentPoly.one(), MultiLaurentPoly.one(1))
        with pytest.raises(TypeError):
            op(MultiLaurentPoly.one(1), LaurentPoly.one())
    with pytest.raises(DimensionMismatch):
        MultiLaurentPoly.zero(2) // MultiLaurentPoly.one(3)
    assert one != MultiLaurentPoly.one(3)
    assert MultiLaurentPoly.zero(2) != MultiLaurentPoly.zero(3)
    assert LaurentPoly.one() != MultiLaurentPoly.one(1)
    t, u = LaurentPoly.t(), LaurentPoly.one()
    for a, b in ((t * t - u, (t - u) * (t + u)),
                 (one * 3, MultiLaurentPoly.constant(3, 2)),
                 (MultiLaurentPoly.variable(1, 1) - MultiLaurentPoly.one(1),
                  MultiLaurentPoly.from_laurent(t - u)),
                 (LaurentPoly.constant(3), 3), (LaurentPoly.zero(), 0),
                 (MultiLaurentPoly.constant(-2, 2), -2)):
        assert a == b and hash(a) == hash(b)
    assert {3: "three"}[LaurentPoly.constant(3)] == "three"
