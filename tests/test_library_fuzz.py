"""Seeded fuzz of the library API: the exported constructors and
functions called with well-typed but degenerate values (empty, zero,
huge, negative, non-finite and non-integral).

Every exception must be an `AlexkitError` or one of the built-ins that
`errors.py` makes part of the contract, and a non-integral number passed
where an integer is expected must raise, not return.  A size past
sys.maxsize raises before anything is allocated.
"""
import math
import random
from fractions import Fraction

import pytest

from alexkit import (AbelianWeights, BraidWord, Compose, ComplexPoint,
                     Crossing, CrossingList, FreeWord, GenericTField,
                     LaurentPoly, Mat, MultiLaurentPoly, RationalPoint,
                     Tensor, alexander_data, alexander_matrix, braid_closure,
                     burau_reduced, canonical_poly, catalog_lookup,
                     closed_tangle_delta, closure_alexander,
                     distinct_root_count, evaluate_tangle, exact_div,
                     fibre_dimension, fox_derivative_abelianized,
                     gcd_laurent, gcd_multivariate, identity_span,
                     kernel_basis, knot_delta, mat_identity, mat_rank,
                     multivariable_alexander, normalize_unit, parse_braid,
                     parse_crossing_list, parse_pd, parse_tangle, poly_det,
                     reduce_word, ring_presentation, smith_normal_form,
                     tangle_linear_system, tensor_spans)
from alexkit.errors import AlexkitError, ValidationError
from alexkit.laurent import mv_exact_div, mv_normalize, pseudo_divmod

NAN, INF = float("nan"), float("inf")
HUGE = (10 ** 30, 1e300)
INTEGRAL = (0, 1, -1, 2, 3, 2.0, Fraction(4, 2), -10 ** 30) + HUGE
NON_INTEGRAL = (0.5, -1.5, Fraction(1, 3), 2.9, 1e-320, NAN, INF, -INF, 1j)
POINTS = (0, 1, -1, 2, Fraction(-1, 3), 10 ** 30, 10 ** 400, 0.5, 1e-320,
          1e300, 1e200j, NAN, INF, -INF, complex(NAN, 1), 0.3 + 0.9j)

T, ONE = LaurentPoly.t(), LaurentPoly.one()
T1 = MultiLaurentPoly.variable(1, 2)
X1 = reduce_word([1, -2, 1])
WEIGHTS = AbelianWeights.all_t([1, 2])
TREFOIL = catalog_lookup("trefoil")

# Each slot takes one value where the library expects an integer.
INTEGER_SLOTS = {
    "LaurentPoly coefficient": lambda v: LaurentPoly({0: v}),
    "LaurentPoly exponent": lambda v: LaurentPoly({v: 1}),
    "LaurentPoly.monomial": lambda v: LaurentPoly.monomial(v, 2),
    "LaurentPoly.shifted": lambda v: T.shifted(v),
    "LaurentPoly power": lambda v: T ** v,
    "MultiLaurentPoly coefficient": lambda v: MultiLaurentPoly({(0, 1): v}, 2),
    "MultiLaurentPoly exponent": lambda v: MultiLaurentPoly({(v, 1): 1}, 2),
    "MultiLaurentPoly nvars": lambda v: MultiLaurentPoly({}, v),
    "MultiLaurentPoly.zero": MultiLaurentPoly.zero,
    "MultiLaurentPoly.one": MultiLaurentPoly.one,
    "MultiLaurentPoly.variable index": lambda v: MultiLaurentPoly.variable(
        v, 2),
    "MultiLaurentPoly.variable nvars": lambda v: MultiLaurentPoly.variable(
        1, v),
    "MultiLaurentPoly.shifted": lambda v: T1.shifted((v, 0)),
    "BraidWord strands": BraidWord,
    "BraidWord letter": lambda v: BraidWord(4, [v]),
    "Crossing arc": lambda v: Crossing(v, 1, 1, 1),
    "CrossingList arc count": CrossingList,
    "FreeWord generator": lambda v: FreeWord([(v, 1)]),
    "FreeWord exponent": lambda v: FreeWord([(1, v)]),
    "reduce_word": lambda v: reduce_word([v]),
    "AbelianWeights nvars": lambda v: AbelianWeights({}, v),
    "Fox derivative index": lambda v: fox_derivative_abelianized(
        X1, v, WEIGHTS),
    "Mat ncols": lambda v: Mat([], v),
    "mat_identity": lambda v: mat_identity(GenericTField(), v),
    "identity_span": lambda v: identity_span(RationalPoint(2), v),
    "closure_alexander index": lambda v: closure_alexander(TREFOIL.braid, v),
}

# A size past sys.maxsize, or a negative one, raises a typed error.
HUGE_SIZE_GAPS = [(slot, v) for slot in ("CrossingList arc count",
                                         "MultiLaurentPoly.one",
                                         "MultiLaurentPoly.variable nvars")
                  for v in HUGE]
HUGE_SIZE_GAPS += [(slot, v) for slot in ("Mat ncols", "mat_identity",
                                          "identity_span")
                   for v in HUGE + (-1,)]


def _integral(v):
    try:
        return v == int(v)
    except (TypeError, ValueError, OverflowError):
        return False


def _call(call, *args, contract=()):
    """Run call(*args): True if it returned, False if it raised an error
    of the contract; anything else propagates and fails the test."""
    try:
        call(*args)
    except (AlexkitError, TypeError) + contract:
        return False
    return True


def _integer_cases():
    for slot, call in INTEGER_SLOTS.items():
        for v in INTEGRAL + NON_INTEGRAL:
            yield slot, call, v


def _poly(rng, huge_exponent=False):
    """A random degenerate LaurentPoly: zero, a unit, a huge coefficient,
    or a small random polynomial; with `huge_exponent`, also t^(10^30),
    which only calls that never expand or evaluate its powers get."""
    return rng.choice((
        LaurentPoly.zero(), ONE, -T, LaurentPoly.monomial(-3, 10 ** 30),
        ONE - T, T * T - T + ONE,
        LaurentPoly.monomial(10 ** 30 if huge_exponent else 2),
        LaurentPoly({rng.randint(-3, 3): rng.randint(-9, 9)
                     for _ in range(rng.randint(0, 4))})))


def _any_poly(rng):
    return _poly(rng, huge_exponent=True)


def _mv(rng):
    nvars = rng.choice((1, 2, 3))
    return rng.choice((MultiLaurentPoly.zero(nvars),
                       MultiLaurentPoly.one(nvars),
                       MultiLaurentPoly.variable(1, nvars) * 10 ** 30,
                       MultiLaurentPoly.variable(nvars, nvars)
                       - MultiLaurentPoly.one(nvars)))


def _matrix(rng, entry):
    nrows, ncols = rng.randint(0, 3), rng.randint(0, 3)
    return [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def _diagram(rng):
    return rng.choice((CrossingList(1), CrossingList(3), TREFOIL.crossing_list,
                       catalog_lookup("hopf").crossing_list,
                       braid_closure(BraidWord(3, [1, -1])),
                       braid_closure(BraidWord(3)), parse_pd(","),
                       parse_crossing_list("arcs 2\nx 2 1 2 +\nx 1 2 1 -")))


def _field(rng):
    return rng.choice((GenericTField(), RationalPoint(-1),
                       RationalPoint(Fraction(1, 10 ** 30)),
                       ComplexPoint(1e-150), ComplexPoint(1e150j),
                       ComplexPoint(-1)))


def _field_matrix(rng):
    field = _field(rng)
    rows = _matrix(rng, lambda r: field.from_laurent(_poly(r)))
    return field, Mat(rows, len(rows[0]) if rows else rng.randint(0, 2))


def _tangle(rng):
    return rng.choice((Tensor(), parse_tangle("coev+- ; ev+-"),
                       parse_tangle("coev-+ ; id- # xm # id+ ; ev-+"),
                       parse_tangle("xp ; xm"), Compose(Tensor())))


# Seeded calls on degenerate values of the right types: each draws its
# arguments from rng and names the contract built-ins it may raise.
DIVIDES = (ValueError, ZeroDivisionError)
SEEDED_CALLS = [
    (lambda r: exact_div(_any_poly(r), _any_poly(r)), DIVIDES),
    (lambda r: gcd_laurent(_any_poly(r), _any_poly(r)), ()),
    (lambda r: canonical_poly(_any_poly(r)), ()),
    (lambda r: normalize_unit(_any_poly(r)), ()),
    (lambda r: distinct_root_count(_any_poly(r)), ()),
    (lambda r: _poly(r).evaluate(r.choice(POINTS)), ()),
    (lambda r: _any_poly(r) * _any_poly(r) - _any_poly(r), ()),
    (lambda r: _mv(r) * _mv(r) + _mv(r), ()),
    (lambda r: gcd_multivariate([_mv(r) for _ in range(r.randint(0, 3))]),
     ()),
    (lambda r: _mv(r).to_laurent(), ()),
    (lambda r: _mv(r).term_inverse(), ()),
    (lambda r: smith_normal_form(_matrix(r, _poly)), ()),
    (lambda r: poly_det(_matrix(r, _poly), ONE), ()),
    (lambda r: RationalPoint(r.choice(POINTS)), ()),
    (lambda r: ComplexPoint(r.choice(POINTS)), ()),
    (lambda r: fibre_dimension(alexander_matrix(_diagram(r)),
                               r.choice(POINTS)), ()),
    (lambda r: knot_delta(_diagram(r)), ()),
    (lambda r: alexander_data(alexander_matrix(_diagram(r))), ()),
    (lambda r: multivariable_alexander(_diagram(r)), ()),
    (lambda r: ring_presentation(_diagram(r)), ()),
    (lambda r: burau_reduced(BraidWord(r.randint(1, 3))), ()),
    (lambda r: closure_alexander(BraidWord(r.randint(1, 3), [])), ()),
    (lambda r: parse_braid(r.choice(("", "1:", "0:", "3: s2 S1 -2"))), ()),
    (lambda r: parse_tangle(r.choice(("", "()", "#", ";", "xp ;"))), ()),
    (lambda r: evaluate_tangle(_tangle(r), _field(r)), ()),
    (lambda r: tangle_linear_system(_tangle(r), _field(r)), ()),
    (lambda r: closed_tangle_delta(_tangle(r)), ()),
    (lambda r: tensor_spans(*[evaluate_tangle(_tangle(r), _field(r))
                              for _ in range(r.randint(0, 2))]), ()),
    (lambda r: mat_rank(*_field_matrix(r)), ()),
    (lambda r: kernel_basis(*_field_matrix(r)), ()),
]


def test_library_fuzz():
    """Integer slots over every pool value, then 30000 seeded calls."""
    for slot, call, v in _integer_cases():
        returned = _call(call, v)
        assert not returned or _integral(v), (
            "%s returned for the non-integral %r" % (slot, v))
    with pytest.raises(TypeError):  # an exponent vector must be a sequence
        MultiLaurentPoly({3: 1}, 1)
    rng = random.Random(2025)
    for _ in range(30000):
        call, contract = rng.choice(SEEDED_CALLS)
        _call(call, rng, contract=contract)


@pytest.mark.parametrize("slot, value", HUGE_SIZE_GAPS)
def test_huge_sizes_raise_typed_errors(slot, value):
    assert not _call(INTEGER_SLOTS[slot], value)


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: LaurentPoly({v: 2}), id="LaurentPoly"),
    pytest.param(lambda v: MultiLaurentPoly({(v, 1): 1}, 2),
                 id="MultiLaurentPoly"),
    pytest.param(lambda v: BraidWord(3, [v]), id="BraidWord"),
    pytest.param(CrossingList, id="CrossingList"),
    pytest.param(lambda v: Crossing(v, 2, 3, 1), id="Crossing"),
    pytest.param(lambda v: reduce_word([v]), id="reduce_word"),
    pytest.param(lambda v: FreeWord([(v, 1)]), id="FreeWord"),
    pytest.param(lambda v: Mat([], v).ncols, id="Mat"),
    pytest.param(lambda v: mat_identity(RationalPoint(2), v).rows,
                 id="mat_identity"),
    pytest.param(lambda v: identity_span(RationalPoint(2), v).left.rows,
                 id="identity_span"),
])
def test_integers_are_checked_not_truncated(make):
    """One rule for every integer argument: an integral number is taken
    as its int, a non-integral number raises ValidationError and a value
    of another type TypeError."""
    assert make(2.0) == make(Fraction(4, 2)) == make(2)
    for bad in (1.5, 2.9, -0.5, Fraction(1, 2), math.inf, math.nan):
        with pytest.raises(ValidationError):
            make(bad)
    with pytest.raises(TypeError):
        make(None)


def test_division_takes_its_ring_or_an_int():
    """`//` is exact division: a divisor of the dividend's ring, or an int
    as that ring's constant.  A zero divisor raises ZeroDivisionError, an
    inexact one ValueError and one of another type TypeError."""
    assert (2 * T) // 2 == T and (3 * T1) // -3 == -T1
    for call in (lambda: T // 0, lambda: exact_div(T, 0),
                 lambda: mv_exact_div(T1, 0), lambda: LaurentPoly.zero() // 0,
                 lambda: MultiLaurentPoly.zero(2) // 0):
        with pytest.raises(ZeroDivisionError):
            call()
    with pytest.raises(ValueError):
        exact_div(T, 2)
    for bad in ("x", 1.5, Fraction(1, 2), T1):
        with pytest.raises(TypeError):
            T // bad
        with pytest.raises(TypeError):
            T1 // (T if bad is T1 else bad)


# Calls with an argument of the wrong type, each checked before its first
# attribute read.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: exact_div(0, T), id="exact_div(0, t)"),
    pytest.param(lambda: pseudo_divmod(T, 0), id="pseudo_divmod(t, 0)"),
    pytest.param(lambda: gcd_laurent(T, 0), id="gcd_laurent(t, 0)"),
    pytest.param(lambda: canonical_poly(3), id="canonical_poly(3)"),
    pytest.param(lambda: normalize_unit(0), id="normalize_unit(0)"),
    pytest.param(lambda: distinct_root_count(2),
                 id="distinct_root_count(2)"),
    pytest.param(lambda: mv_normalize(T), id="mv_normalize(t)"),
    pytest.param(lambda: gcd_multivariate([T]), id="gcd_multivariate([t])"),
    pytest.param(lambda: poly_det([[1]], 1), id="poly_det([[1]], 1)"),
    pytest.param(lambda: smith_normal_form([[1]]),
                 id="smith_normal_form([[1]])"),
    pytest.param(lambda: mv_exact_div(0, T1), id="mv_exact_div(0, t1)"),
])
def test_wrong_types_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
