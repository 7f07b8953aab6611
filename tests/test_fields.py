"""Exact kernels, ranks and RREFs of the fraction-free elimination in
`alexkit.fields` against a sympy oracle and against a dense reference
loop, kernels at every field, and the Laurent-polynomial scalars of
generic t."""
import cmath
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from alexkit.alexander import alexander_matrix, fibre_dimension
from alexkit.codes import braid_closure, catalog_lookup, parse_braid
from alexkit.errors import DimensionMismatch, ValidationError
from alexkit.fields import (ComplexPoint, GenericTField, Mat, RationalPoint,
                            _fraction_free, column_space_equal, kernel_basis,
                            mat_mul, mat_rank)
from alexkit.laurent import LaurentPoly, gcd_laurent
from alexkit.tangles import (braid_expr, evaluate_tangle, parse_tangle,
                             tangle_linear_system, tangle_system)
from util import random_braid

_t = sympy.symbols("t")

# denominators with no root at the rational points below
_DENS = (LaurentPoly.one(), LaurentPoly({0: 1, 1: 1}),
         LaurentPoly({0: 3, 1: -2}), LaurentPoly({0: 2, 1: 1}),
         LaurentPoly.t())
_COEFFS = (0, 0, 1, -1, 2, -2, 3, -4)
_POINTS = ("2", "-3", "5/2", "-1/3")


def _sym(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * _t ** e
                for e, c in p.coeffs.items()), sympy.Integer(0))


def _entry(rng):
    """(numerator, denominator): a sparse Laurent numerator over Z."""
    num = LaurentPoly({e: rng.choice(_COEFFS) for e in range(-1, 2)
                       if rng.random() < 0.5})
    return num, rng.choice(_DENS)


def _random_entries(rng):
    """A small matrix of (num, den) pairs, with zero rows and columns,
    repeated and scaled rows, and 0 x k or k x 0 shapes among them."""
    nrows, ncols = rng.randint(0, 4), rng.randint(0, 5)
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    zero = (LaurentPoly.zero(), LaurentPoly.one())
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [zero] * ncols
    if ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = zero
    if nrows >= 2 and rng.random() < 0.4:
        src = rows[rng.randrange(nrows)]
        scale = LaurentPoly({rng.randint(-1, 1): rng.choice((1, -2))})
        rows[rng.randrange(nrows)] = [(p * scale, q) for p, q in src]
    return rows, ncols


def _laurent_rows(entries):
    """Each row of p/q entries times the product of its denominators:
    Laurent rows with the rank, the pivots and the RREF of the entries."""
    out = []
    for row in entries:
        den = LaurentPoly.one()
        for _, q in row:
            den = den * q
        out.append([p * den // q for p, q in row])
    return out


def _ours(field, entries, ncols):
    """The entries as field scalars; at generic t, where only units
    divide, as Laurent rows."""
    if isinstance(field, GenericTField):
        return Mat(_laurent_rows(entries), ncols)
    return Mat([[field.from_laurent(p) / field.from_laurent(q)
                 for p, q in row] for row in entries], ncols)


def _oracle(entries, ncols, t=None):
    """(rank, RREF, pivot columns) by sympy: Matrix.rank and Matrix.rref
    at a rational t; at generic t a DomainMatrix over Q(t), since
    Matrix.rref on rational-function entries took about five minutes
    on the generic draws below."""
    m = sympy.Matrix(len(entries), ncols,
                     [_sym(p) / _sym(q) for row in entries for p, q in row])
    if t is not None:
        m = m.subs(_t, sympy.Rational(t))
        return (m.rank(),) + m.rref()
    d = DomainMatrix.from_Matrix(m).convert_to(sympy.QQ.frac_field(_t))
    rref, pivots = d.rref()
    return d.rank(), rref.to_Matrix(), pivots


def _rref(field, m):
    """Pivot rows of the full fraction-free pass as (entry, pivot) pairs
    of the integral ring; the RREF is entry / pivot."""
    rows, pivots = _fraction_free(field.integral_rows(m), m.ncols, full=True)
    return [[(rows[r].get(j, 0), rows[r][col]) for j in range(m.ncols)]
            for r, col in enumerate(pivots)], tuple(pivots)


def _to_sym(x):
    return _sym(x) if isinstance(x, LaurentPoly) else sympy.Integer(x)


def _check_against_sympy(field, entries, ncols, t=None):
    m = _ours(field, entries, ncols)
    rank, want, want_pivots = _oracle(entries, ncols, t)
    assert mat_rank(field, m) == rank
    got, pivots = _rref(field, m)
    assert pivots == want_pivots
    for r, row in enumerate(got):
        for j, (x, pivot) in enumerate(row):
            assert sympy.cancel(_to_sym(x) / _to_sym(pivot)
                                - want[r, j]) == 0, (r, j)
    return rank


def test_rational_points_match_sympy():
    rng = random.Random(5)
    for _ in range(40):
        entries, ncols = _random_entries(rng)
        for t in _POINTS:
            _check_against_sympy(RationalPoint(Fraction(t)), entries, ncols,
                                 t)


def test_generic_t_matches_sympy():
    rng = random.Random(11)
    for _ in range(25):
        entries, ncols = _random_entries(rng)
        _check_against_sympy(GenericTField(), entries, ncols)


def test_rank_drops_at_a_root():
    # rows (1, t) and (2, 4): rank 2 except at t = 2
    entries = [[(LaurentPoly.one(), LaurentPoly.one()),
                (LaurentPoly.t(), LaurentPoly.one())],
               [(LaurentPoly({0: 2}), LaurentPoly.one()),
                (LaurentPoly({0: 4}), LaurentPoly.one())]]
    assert _check_against_sympy(RationalPoint(2), entries, 2, "2") == 1
    assert _check_against_sympy(RationalPoint(3), entries, 2, "3") == 2
    assert _check_against_sympy(GenericTField(), entries, 2) == 2


def test_kernels_at_every_field():
    rng = random.Random(23)
    fields = [GenericTField(), ComplexPoint(cmath.exp(1j))]
    fields += [RationalPoint(Fraction(t)) for t in _POINTS]
    for _ in range(25):
        entries, ncols = _random_entries(rng)
        generic_rank = None
        for field in fields:
            m = _ours(field, entries, ncols)
            k = kernel_basis(field, m)
            assert k.nrows == ncols
            if field.exact:
                t = None if isinstance(field, GenericTField) else field.t
                rank = _oracle(entries, ncols, t)[0]
                product = mat_mul(field, m, k)
                assert all(x == field.zero for row in product.rows
                           for x in row)
                if t is None:
                    generic_rank = rank
                    assert all(isinstance(x, LaurentPoly) for row in k.rows
                               for x in row)
                else:  # primitive integer columns
                    assert all(type(x) is int for row in k.rows
                               for x in row)
                    assert all(math.gcd(*col) == 1 for col in zip(*k.rows))
            else:
                # e^i is transcendental, so m(e^i) has the generic rank
                rank = generic_rank
                if m.nrows and k.ncols:
                    product = (np.array(m.rows, dtype=complex)
                               @ np.array(k.rows, dtype=complex))
                    assert np.abs(product).max() < 1e-9
            assert k.ncols == ncols - rank, field.describe()


def _dense_integral_rows(field, m):
    """Dense reference: at a rational t every row times the lcm of its
    denominators; at generic t the rows as they are."""
    if isinstance(field, GenericTField):
        return [list(row) for row in m.rows]
    out = []
    for row in m.rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _dense_fraction_free(field, m, full):
    """Dense reference Bareiss loop: every entry of every row, zeros
    included, is rewritten at each pivot."""
    rows = _dense_integral_rows(field, m)
    nrows = len(rows)
    pivots = []
    prev = None
    for col in range(m.ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        pivot = lead[col]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = rows[i]
            factor = row[col]
            if factor:
                row = [pivot * x - factor * y for x, y in zip(row, lead)]
            else:
                row = [pivot * x for x in row]
            if prev is not None:
                row = [x // prev if x else x for x in row]
            rows[i] = row
        prev = pivot
        pivots.append(col)
    return rows, pivots


def _assert_same_as_dense(field, m):
    for full in (True, False):
        rows, pivots = _fraction_free(field.integral_rows(m), m.ncols, full)
        want_rows, want_pivots = _dense_fraction_free(field, m, full)
        assert pivots == want_pivots
        assert len(rows) == len(want_rows)
        for row, want in zip(rows, want_rows):
            assert all(x for x in row.values())
            assert {j: x for j, x in enumerate(want) if x} == row


# entries of the kind crossing and gluing rows have, over small denominators
_SPARSE_NUMS = (LaurentPoly({0: 1}), LaurentPoly({0: -1}), LaurentPoly({0: 2}),
                LaurentPoly({1: 1}), LaurentPoly({1: -1}),
                LaurentPoly({0: 1, 1: -1}), LaurentPoly({-1: 1}),
                LaurentPoly({0: 1, -1: -1}), LaurentPoly({0: -3}),
                LaurentPoly({0: 3, 1: -2}))
_SPARSE_DENS = (LaurentPoly.one(), LaurentPoly.one(), LaurentPoly.t(),
                LaurentPoly({0: 1, 1: 1}))


def _sparse_entries(rng, nrows=20, ncols=24):
    """nrows x ncols with 2-3 nonzeros per row; about one row in five is
    the sum of two earlier ones, so the rank drops."""
    zero = (LaurentPoly.zero(), LaurentPoly.one())
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            rows.append([(p * q2 + p2 * q, q * q2)
                         for (p, q), (p2, q2) in zip(a, b)])
            continue
        row = [zero] * ncols
        for j in rng.sample(range(ncols), rng.randint(2, 3)):
            row[j] = (rng.choice(_SPARSE_NUMS), rng.choice(_SPARSE_DENS))
        rows.append(row)
    return rows, ncols


def _exact_fields():
    return [GenericTField()] + [RationalPoint(Fraction(t)) for t in _POINTS]


def test_sparse_elimination_matches_dense_loop_small():
    rng = random.Random(29)
    for _ in range(40):
        entries, ncols = _random_entries(rng)
        for field in _exact_fields():
            _assert_same_as_dense(field, _ours(field, entries, ncols))


def test_sparse_elimination_matches_dense_loop_sparse():
    rng = random.Random(31)
    for _ in range(6):
        entries, ncols = _sparse_entries(rng)
        for field in _exact_fields():
            _assert_same_as_dense(field, _ours(field, entries, ncols))


def test_sparse_elimination_matches_dense_loop_tangle_systems():
    rng = random.Random(37)
    for _ in range(6):
        b = random_braid(rng, max_strands=4, max_len=10, min_strands=3)
        system = tangle_system(braid_expr(b))
        for field in _exact_fields():
            m = Mat([[field.from_laurent(x) for x in row]
                     for row in system.matrix_rows()], system.nvars)
            _assert_same_as_dense(field, m)


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_points_are_validation_errors(t):
    """Infinities and NaNs are no evaluation points, as on the command
    line: real ones at both fixed fields and in fibre_dimension, and a
    complex point with either part non-finite."""
    for x in (t, Decimal(t), np.float32(t)):
        with pytest.raises(ValidationError):
            RationalPoint(x)
    for z in (complex(t, 0), complex(0, t), complex(1, t)):
        with pytest.raises(ValidationError):
            ComplexPoint(z)
    with pytest.raises(ValidationError):  # a tolerance outside [0, 1)
        ComplexPoint(2, t)
    m = alexander_matrix(catalog_lookup("trefoil").crossing_list)
    with pytest.raises(ValidationError):
        fibre_dimension(m, t)


def test_numpy_reals_are_points():
    """A real that is not a `Rational`, such as a numpy float, is read as
    a float, at a fixed rational t and in `LaurentPoly.evaluate`."""
    p = LaurentPoly({-1: 1, 1: 2})
    for x in (np.float16(2.5), np.float32(2.5), np.float64(2.5)):
        assert RationalPoint(x) == RationalPoint(Fraction(5, 2))
        assert p.evaluate(x) == p.evaluate(2.5) == 2 / 5 + 5
    assert RationalPoint(np.int64(-3)).t == -3
    assert p.evaluate(np.int64(-3)) == Fraction(-19, 3)


def test_malformed_points_are_validation_errors():
    """A string that is no number is a ValidationError (exit 2), at both
    fixed fields and in fibre_dimension; a value of the wrong type is
    still a TypeError."""
    m = alexander_matrix(catalog_lookup("trefoil").crossing_list)
    for make in (RationalPoint, ComplexPoint,
                 lambda t: fibre_dimension(m, t)):
        with pytest.raises(ValidationError) as err:
            make("x")
        assert err.value.exit_code == 2
    with pytest.raises(ValidationError):
        RationalPoint("1/0")
    for tol in (-1e-9, 1, 2.5):  # a tolerance outside [0, 1)
        with pytest.raises(ValidationError):
            ComplexPoint(2, tol)
    assert fibre_dimension(m, ComplexPoint(2, 0)) == 1
    for make in (RationalPoint, ComplexPoint):
        with pytest.raises(TypeError):
            make(None)


# Far from |t| = 1 the singular values of an exact rank-deficient matrix
# fall like |t|^-k, past the SVD's relative tolerance, and complex t
# answers with the wrong dimension; exact complex t is the cure.
_EXTREME_T = [
    ("fiber", 1e-10 + 0j, Fraction(1, 10 ** 10)),
    ("fiber", 1e10 + 0j, Fraction(10 ** 10)),
    ("span", 1e10 + 0j, Fraction(10 ** 10)),
    ("linear", 1e-10 + 0j, Fraction(1, 10 ** 10)),
]


@pytest.mark.xfail(strict=True, reason="SVD rank at complex t far from "
                                       "|t| = 1")
@pytest.mark.parametrize("kind,z,q", _EXTREME_T,
                         ids=["%s-%g" % (k, z.real) for k, z, _ in _EXTREME_T])
def test_complex_t_far_from_unit_circle(kind, z, q):
    """The answer at complex t should be the exact one at the rational
    q nearest it: the fibre of 3: s1 S2 s1 S2 is 1 there, and a braid's
    span has mid 2 at every t."""
    if kind == "fiber":
        m = alexander_matrix(braid_closure(parse_braid("3: s1 S2 s1 S2")))
        assert fibre_dimension(m, z) == fibre_dimension(m, q) == 1
    else:
        route = evaluate_tangle if kind == "span" else tangle_linear_system
        expr = parse_tangle("xp ; xm ; xp")
        assert (route(expr, ComplexPoint(z)).mid_dim
                == route(expr, RationalPoint(q)).mid_dim == 2)


def _random_laurent_matrix(rng):
    """Up to 6 x 8 with sparse Laurent entries over Z, with
    zero and dependent rows among them."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 8)
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.25:
            a, b = rng.sample(rows, 2)
            s = LaurentPoly({rng.randint(-1, 1): rng.choice((1, -1, 2))})
            rows.append([x * s + y for x, y in zip(a, b)])
            continue
        rows.append([rng.choice(_SPARSE_NUMS) * LaurentPoly(
            {rng.randint(-1, 1): rng.choice((1, -1, 3))})
            if rng.random() < 0.5 else LaurentPoly.zero()
            for _ in range(ncols)])
    return Mat(rows, ncols)


def test_generic_kernels_are_primitive_laurent_bases():
    """m k = 0 exactly, every kernel column has gcd 1, and the kernel has
    n - rank columns."""
    rng = random.Random(43)
    field = GenericTField()
    for _ in range(60):
        m = _random_laurent_matrix(rng)
        k = kernel_basis(field, m)
        assert k.nrows == m.ncols
        assert k.ncols == m.ncols - mat_rank(field, m)
        product = mat_mul(field, m, k)
        assert all(x.is_zero for row in product.rows for x in row)
        for j in range(k.ncols):
            g = LaurentPoly.zero()
            for x in (row[j] for row in k.rows):
                g = gcd_laurent(g, x)
            assert g == LaurentPoly.one()


def _raises_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert err.value.exit_code == 3


def test_ragged_mat_is_a_dimension_mismatch():
    _raises_dimension_mismatch(lambda: Mat([[1, 2], [3]], 2))


def test_mat_mul_inner_mismatch_is_a_dimension_mismatch():
    field = RationalPoint(2)
    a = Mat([[field.one, field.zero]], 2)
    _raises_dimension_mismatch(lambda: mat_mul(field, a, a))


def test_column_space_row_mismatch_is_a_dimension_mismatch():
    field = RationalPoint(2)
    _raises_dimension_mismatch(lambda: column_space_equal(
        field, Mat([[field.one]], 1), Mat([[field.one], [field.one]], 1)))
