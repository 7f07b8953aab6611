"""Scalar fields (generic t, fixed rational t, fixed complex t) and the
matrix routines used by span composition: kernels, ranks, column spaces.

A span is fixed only up to scaling both of its maps together, so on an
exact field its scalars stay in an integral ring: Z[t^+-1] at generic t,
Z at a rational t.  Each field holds t and t^-1 as fractions of its
scalars, `ratios`, so no generator leg divides.  Exact kernels and ranks
use one fraction-free elimination: each exact field gives its rows over
its ring (at a rational t times their denominators) as sparse {column:
entry} maps of their nonzero entries, and makes each kernel column
primitive.  The SVD, and so numpy, runs only at complex t.
"""
from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from numbers import Real

from .errors import DimensionMismatch, NotAUnit, ValidationError
from .laurent import LaurentPoly, _size, _typed, _Value, gcd_laurent


class ScalarField(_Value):
    """Ring of scalars at which a tangle or braid is evaluated, holding
    its value of t as `t` and ((r, s), (q, p)) with t = r/s and t^-1 = q/p
    as `ratios`; scalars combine by the arithmetic operators.  Two fields
    of one class with equal data (`_key()`) are equal.
    The shared bodies serve the fixed points t, whose scalars are numbers.

    An exact field also maps a Mat to sparse rows over its integral ring,
    Z or Z[t^+-1], whose exact division is `//` (`integral_rows`), and
    makes a kernel column of that ring primitive (`kernel_column`)."""

    exact = True

    def from_laurent(self, p):
        return p.evaluate(self.t)

    def describe(self):
        return "t=%s" % self.t


class GenericTField(ScalarField):
    """Laurent polynomials in t with integer coefficients: the generic
    fibre."""

    def __init__(self):
        self.t = LaurentPoly.t()
        self.zero = LaurentPoly.zero()
        self.one = LaurentPoly.one()
        self.ratios = ((self.t, self.one), (self.t.term_inverse(), self.one))

    def _key(self):
        return ()

    def from_laurent(self, p):
        return p

    def integral_rows(self, m):
        """Each row's nonzero entries, already over Z[t^+-1]."""
        return [{j: x for j, x in enumerate(row) if x} for row in m.rows]

    def kernel_column(self, col):
        """The column divided by the gcd of its entries: primitive."""
        g = LaurentPoly.zero()
        for x in col.values():
            g = gcd_laurent(g, x)
            if g == self.one:
                return col
        return {i: x // g for i, x in col.items()}

    def describe(self):
        return "generic"


class RationalPoint(ScalarField):
    """Exact evaluation at a fixed nonzero rational t, over the ints.  A
    `Real` t that `Fraction` refuses (a numpy float) is read as a float."""

    def __init__(self, t):
        if t != t or t in (math.inf, -math.inf):  # NaN, or an infinity
            raise ValidationError("t = %r is not a finite evaluation point"
                                  % t)
        try:
            t = Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ValidationError("t = %r is not a rational number" % (t,))
        except TypeError:  # a Real that Fraction refuses: numpy floats
            if not isinstance(t, Real):
                raise
            t = Fraction(float(t))
        if t == 0:
            raise NotAUnit("t = 0 is not an allowed evaluation point")
        self.t = t
        self.zero, self.one = 0, 1
        self.ratios = (t.as_integer_ratio(), (1 / t).as_integer_ratio())

    def _key(self):
        return self.t

    def integral_rows(self, m):
        """Each row's nonzero entries times the lcm of their denominators:
        sparse rows of ints."""
        out = []
        for row in m.rows:
            nonzero = [(j, x) for j, x in enumerate(row) if x]
            den = math.lcm(*(x.denominator for _, x in nonzero))
            out.append({j: x.numerator * (den // x.denominator)
                        for j, x in nonzero})
        return out

    def kernel_column(self, col):
        """The column divided by the gcd of its entries: primitive."""
        g = math.gcd(*col.values())
        return col if g == 1 else {i: x // g for i, x in col.items()}


class ComplexPoint(ScalarField):
    """Floating-point evaluation at a fixed nonzero complex t."""

    exact = False

    def __init__(self, t, tol=1e-9):
        if not 0 <= tol < 1:  # NaN included
            raise ValidationError("tolerance %r is outside [0, 1)" % (tol,))
        try:
            t = complex(t)
        except (ValueError, OverflowError):  # OverflowError: a huge int
            raise ValidationError("t = %r is not a complex number in float "
                                  "range" % (t,))
        if not cmath.isfinite(t):
            raise ValidationError("t = %r is not a finite evaluation point"
                                  % t)
        if t == 0:
            raise NotAUnit("t = 0 is not an allowed evaluation point")
        self.t = t
        self.tol = tol
        self.zero = 0j
        self.one = 1 + 0j
        self.ratios = ((t, self.one), (self.one / t, self.one))

    def _key(self):
        return self.t, self.tol


class Mat:
    """Dense matrix as a tuple of row tuples plus an explicit column count
    (rows alone cannot represent 0 x k shapes)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        ncols = _size(ncols, "column count")
        self.rows = tuple(tuple(r) for r in rows)
        for r in self.rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged matrix")
        self.ncols = ncols

    @property
    def nrows(self):
        return len(self.rows)

    def __repr__(self):
        return "Mat(%dx%d)" % (self.nrows, self.ncols)


def mat_identity(field, n):
    n = _size(n, "size")
    return Mat([[field.one if i == j else field.zero for j in range(n)]
                for i in range(n)], n)


def mat_mul(field, a, b):
    _typed("mat_mul", Mat, a, b)
    if a.ncols != b.nrows:
        raise DimensionMismatch("inner dimension mismatch")
    cols = list(zip(*b.rows)) or [()] * b.ncols
    return Mat([[sum(map(operator.mul, row, col), field.zero) for col in cols]
                for row in a.rows], b.ncols)


def _svd(field, m, compute_uv):
    """numpy's SVD of m, for complex t, the only place numpy is used.  A t
    that takes the entries or singular values past the floats (inf, nan)
    raises ValidationError."""
    import numpy as np
    try:
        out = np.linalg.svd(np.array(m.rows, dtype=complex).reshape(
            m.nrows, m.ncols), compute_uv=compute_uv)
    except np.linalg.LinAlgError:  # inf or nan entries
        out = None
    if out is not None and np.isfinite(out[1] if compute_uv else out).all():
        return out
    raise ValidationError("complex %s is out of floating-point range"
                          % field.describe())


def _svd_rank(field, sv):
    """Numerical rank: singular values above tol times the largest."""
    if len(sv) == 0 or sv[0] == 0:
        return 0
    return sum(1 for x in sv if x > field.tol * sv[0])


def _fraction_free(rows, ncols, full):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968; Montante's full reduction) of integral rows over ncols columns,
    ints or LaurentPolys, whose ring divides exactly with `//`; the rows
    are reduced in place.

    Rows are sparse, {column: entry} with nonzero entries only, so a step
    costs the nonzeros it touches and the fill-in it makes.  Pivots are
    chosen leftmost column first, then first row with an entry there,
    which keeps the reduction deterministic for golden outputs.  Each
    updated row becomes (pivot * row - factor * pivot row) / previous
    pivot, every division exact; a row with no entry in the pivot column
    is only rescaled on its nonzeros, and left alone when the pivot
    equals the previous one.  With `full`, rows above each pivot
    are reduced too, so pivot columns are clear elsewhere and every pivot
    entry equals the last pivot; otherwise only the rows below are
    (forward Bareiss), which is all a rank needs.  Returns (rows, pivot
    columns).
    """
    nrows = len(rows)
    pivots = []
    prev = None
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if col in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        pivot = lead[col]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = rows[i]
            factor = row.get(col)
            if factor is None and pivot == prev:
                continue  # (pivot * row) / prev is the row itself
            new = {j: pivot * x for j, x in row.items() if j != col}
            if factor is not None:
                for j, y in lead.items():
                    if j != col:
                        x = new.get(j)
                        x = -(factor * y) if x is None else x - factor * y
                        if x:
                            new[j] = x
                        else:
                            del new[j]
            if prev is not None:
                new = {j: x // prev for j, x in new.items()}
            rows[i] = new
        prev = pivot
        pivots.append(col)
    return rows, pivots


def mat_rank(field, m):
    """Rank by SVD on inexact fields and by forward fraction-free
    elimination on exact ones."""
    _typed("mat_rank", Mat, m)
    if field.exact:
        return len(_fraction_free(field.integral_rows(m), m.ncols,
                                  full=False)[1])
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return _svd_rank(field, _svd(field, m, False))


def kernel_basis(field, m):
    """Kernel of m as a Mat whose columns are basis vectors (ncols x k).

    On an exact field each column comes from one free column f of the
    full fraction-free pass, whose pivots all equal the last one, D: it
    is D at f and -x at each pivot column, x being that pivot row's entry
    at f, divided by the gcd of its entries, so it is primitive."""
    _typed("kernel_basis", Mat, m)
    n = m.ncols
    if not field.exact:
        if m.nrows == 0:
            return mat_identity(field, n)
        _, sv, vh = _svd(field, m, True)
        rank = _svd_rank(field, sv)
        null = vh[rank:].conj().T  # n x (n - rank)
        return Mat([[complex(x) for x in row] for row in null], n - rank)
    rows, pivots = _fraction_free(field.integral_rows(m), n, full=True)
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else field.one
    pivot_set = set(pivots)
    basis_cols = []
    for free in range(n):
        if free in pivot_set:
            continue
        col = {free: d}
        for r, pcol in enumerate(pivots):
            x = rows[r].get(free)
            if x is not None:
                col[pcol] = -x
        col = field.kernel_column(col)
        basis_cols.append([col.get(i, field.zero) for i in range(n)])
    return Mat(list(zip(*basis_cols)) or [()] * n, len(basis_cols))


def column_space_equal(field, a, b):
    """Do two matrices with the same number of rows span the same column
    space?  Yes iff rank a = rank b = rank [a|b]."""
    if a.nrows != b.nrows:
        raise DimensionMismatch("row count mismatch")
    rank = mat_rank(field, a)
    if rank != mat_rank(field, b):
        return False
    joined = Mat([ra + rb for ra, rb in zip(a.rows, b.rows)],
                 a.ncols + b.ncols)
    return mat_rank(field, joined) == rank
