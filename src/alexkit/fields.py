"""Scalar fields (generic t, fixed rational t, fixed complex t) and the
matrix routines used by span composition: kernels, ranks, column spaces.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NotAUnit
from .laurent import LaurentPoly, RationalFunction, exact_div, gcd_laurent


class ScalarField:
    """Field of scalars at which a tangle or braid is evaluated; the
    shared bodies serve the fixed points t, whose scalars are numbers."""

    exact = True

    def t_value(self):
        return self.t

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, x):
        return x == self.zero

    def from_laurent(self, p):
        return p.evaluate(self.t)

    def describe(self):
        return "t=%s" % self.t


class GenericTField(ScalarField):
    """Rational functions in t: the generic fibre."""

    def __init__(self):
        self.zero = RationalFunction.zero()
        self.one = RationalFunction.one()

    def t_value(self):
        return RationalFunction.t()

    def is_zero(self, x):
        return x.is_zero

    def from_laurent(self, p):
        return RationalFunction(p)

    def describe(self):
        return "generic"


class RationalPoint(ScalarField):
    """Exact evaluation at a fixed nonzero rational t."""

    def __init__(self, t):
        t = Fraction(t)
        if t == 0:
            raise NotAUnit("t = 0 is not an allowed evaluation point")
        self.t = t
        self.zero = Fraction(0)
        self.one = Fraction(1)


class ComplexPoint(ScalarField):
    """Floating-point evaluation at a fixed nonzero complex t."""

    exact = False

    def __init__(self, t, tol=1e-9):
        t = complex(t)
        if t == 0:
            raise NotAUnit("t = 0 is not an allowed evaluation point")
        self.t = t
        self.tol = tol
        self.zero = 0j
        self.one = 1 + 0j

    def is_zero(self, x):
        return abs(x) <= self.tol


class Mat:
    """Dense matrix as a tuple of row tuples plus an explicit column count
    (rows alone cannot represent 0 x k shapes)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        self.rows = tuple(tuple(r) for r in rows)
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")
        self.ncols = ncols

    @property
    def nrows(self):
        return len(self.rows)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return Mat([self.column(j) for j in range(self.ncols)], self.nrows)

    def __repr__(self):
        return "Mat(%dx%d)" % (self.nrows, self.ncols)


def mat_identity(field, n):
    return Mat([[field.one if i == j else field.zero for j in range(n)]
                for i in range(n)], n)


def mat_mul(field, a, b):
    if a.ncols != b.nrows:
        raise ValueError("inner dimension mismatch")
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = field.zero
            for k in range(a.ncols):
                acc = field.add(acc, field.mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        out.append(row)
    return Mat(out, b.ncols)


def _to_numpy(m):
    return np.array(m.rows, dtype=complex).reshape(m.nrows, m.ncols)


def _clear_denominators(m):
    """RationalFunction rows -> LaurentPoly rows (row-wise scaling)."""
    out = []
    for row in m.rows:
        den = LaurentPoly.one()
        for x in row:
            if x.den != den and not x.den == LaurentPoly.one():
                g = gcd_laurent(den, x.den)
                den = exact_div(den * x.den, g)
        out.append([x.num * exact_div(den, x.den) for x in row])
    return out


def _poly_rref(rows, ncols):
    """Fraction-free full elimination (Montante/Bareiss) over Q[t,t^-1].

    Returns (rows, pivots, last_pivot): in the reduced rows every pivot
    entry equals last_pivot and pivot columns are clear elsewhere; all
    interior divisions are exact.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    prev = LaurentPoly.one()
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][col]
            if factor.is_zero:
                rows[i] = [exact_div(pivot * x, prev) for x in rows[i]]
            else:
                rows[i] = [exact_div(pivot * x - factor * y, prev)
                           for x, y in zip(rows[i], rows[r])]
        prev = pivot
        pivots.append(col)
        r += 1
    return rows, pivots, prev


def _rref_generic(field, m):
    """Canonical RREF over the rational-function field via the
    fraction-free path, pivots normalized to 1 only at the end."""
    rows, pivots, _ = _poly_rref(_clear_denominators(m), m.ncols)
    out = []
    for r, col in enumerate(pivots):
        pivot = rows[r][col]
        out.append([RationalFunction(x, pivot) for x in rows[r]])
    zero_row = [field.zero] * m.ncols
    for r in range(len(pivots), len(rows)):
        out.append(list(zero_row))
    return out, pivots


def _rref(field, m):
    """Row-reduce in place (working copy); returns (rows, pivot columns).

    Pivots are chosen leftmost-first down the surviving rows, which keeps
    the reduction deterministic for golden outputs.
    """
    if isinstance(field, GenericTField):
        return _rref_generic(field, m)
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.div(field.one, rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][col]
            if field.is_zero(factor):
                continue
            rows[i] = [field.sub(x, field.mul(factor, y))
                       for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def mat_rank(field, m):
    """Rank by SVD on inexact fields, by RREF at generic t, and by
    forward elimination (no back-substitution) at a fixed exact t."""
    if not field.exact:
        arr = _to_numpy(m)
        if arr.size == 0:
            return 0
        sv = np.linalg.svd(arr, compute_uv=False)
        if len(sv) == 0 or sv[0] == 0:
            return 0
        return int(np.sum(sv > field.tol * sv[0]))
    if isinstance(field, GenericTField):
        return len(_rref_generic(field, m)[1])
    rows = [list(r) for r in m.rows]
    rank = 0
    for col in range(m.ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if not field.is_zero(rows[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            if not field.is_zero(rows[i][col]):
                factor = field.div(rows[i][col], lead[col])
                rows[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def kernel_basis(field, m):
    """Kernel of m as a Mat whose columns are basis vectors (ncols x k)."""
    n = m.ncols
    if not field.exact:
        arr = _to_numpy(m)
        if m.nrows == 0:
            return mat_identity(field, n)
        sv_u, sv, vh = np.linalg.svd(arr)
        if len(sv) and sv[0] > 0:
            rank = int(np.sum(sv > field.tol * sv[0]))
        else:
            rank = 0
        null = vh[rank:].conj().T  # n x (n - rank)
        return Mat([[complex(x) for x in row] for row in null], n - rank)
    rows, pivots = _rref(field, m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    basis_cols = []
    for free in free_cols:
        vec = [field.zero] * n
        vec[free] = field.one
        for r, pcol in enumerate(pivots):
            vec[pcol] = field.neg(rows[r][free])
        basis_cols.append(vec)
    return Mat([[col[i] for col in basis_cols] for i in range(n)],
               len(basis_cols))


def _row_space_canon(field, m):
    """Canonical (RREF) basis of the row space, for exact fields."""
    rows, pivots = _rref(field, m)
    return [tuple(r) for r in rows[: len(pivots)]]


def column_space_equal(field, a, b):
    """Do two matrices with the same number of rows span the same column
    space?"""
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    if not field.exact:
        ra = mat_rank(field, a)
        rb = mat_rank(field, b)
        if ra != rb:
            return False
        joined = Mat([ra_row + rb_row
                      for ra_row, rb_row in zip(a.rows, b.rows)],
                     a.ncols + b.ncols)
        return mat_rank(field, joined) == ra
    return (_row_space_canon(field, a.transpose())
            == _row_space_canon(field, b.transpose()))
