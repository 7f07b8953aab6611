"""Unreduced and reduced Burau representations, the span trace (fix
locus), and Alexander polynomials of braid closures via the deleted
minor of Id - Burau.
"""
from __future__ import annotations

from .errors import EmptyMatrix, RouteDisagreement
from .fields import Mat, kernel_basis
from .laurent import LaurentPoly, canonical_poly, exact_div, normalize_unit
from .snf import minor_matrix, poly_det
from .tangles import Span


class BurauMatrix:
    """n x n matrix of Laurent polynomials; rows sum to 1."""

    __slots__ = ("rows", "strands")

    def __init__(self, rows, strands):
        self.rows = tuple(tuple(r) for r in rows)
        self.strands = strands

    def __eq__(self, other):
        if not isinstance(other, BurauMatrix):
            return NotImplemented
        return self.strands == other.strands and self.rows == other.rows

    def __repr__(self):
        return "BurauMatrix<%dx%d>" % (self.strands, self.strands)


def _identity_rows(n):
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _generator_rows(n, letter):
    """The block [[1-t, t], [1, 0]] (or its exact inverse) at position |letter|."""
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    tinv = LaurentPoly.monomial(-1)
    rows = _identity_rows(n)
    i = abs(letter) - 1
    if letter > 0:
        rows[i][i] = one - t
        rows[i][i + 1] = t
        rows[i + 1][i] = one
        rows[i + 1][i + 1] = LaurentPoly.zero()
    else:
        rows[i][i] = LaurentPoly.zero()
        rows[i][i + 1] = one
        rows[i + 1][i] = tinv
        rows[i + 1][i + 1] = one - tinv
    return rows


def _mat_mul_poly(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero()
            for k in range(n):
                if a[i][k].is_zero or b[k][j].is_zero:
                    continue
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def burau_unreduced(b):
    """Ordered product of generator blocks; identity for the empty word."""
    n = b.strands
    rows = _identity_rows(n)
    for letter in b.letters:
        rows = _mat_mul_poly(rows, _generator_rows(n, letter))
    return BurauMatrix(rows, n)


def _reduce_rows(rows, n):
    """Induced matrix on C^n / <(1,...,1)> in the basis of the classes of
    e_1, ..., e_{n-1}: entry (i, j) is M_ij - M_nj.

    The rows of M sum to 1, so M fixes (1,...,1) and the induced map is
    well defined; modulo (1,...,1) the class of e_n is -(e_1 + ... +
    e_{n-1}), which gives the formula.  The entries stay integral.
    """
    last = rows[n - 1]
    return [[rows[i][j] - last[j] for j in range(n - 1)]
            for i in range(n - 1)]


def burau_reduced(b):
    """Reduced Burau matrix ((n-1) x (n-1) rows of LaurentPoly)."""
    if b.strands < 2:
        raise EmptyMatrix("reduced Burau needs at least 2 strands")
    return _reduce_rows(burau_unreduced(b).rows, b.strands)


def _id_minus(rows):
    one = LaurentPoly.one()
    out = []
    for i, row in enumerate(rows):
        out.append([(one - x) if i == j else -x for j, x in enumerate(row)])
    return out


def span_trace_fix(m, field):
    """Span trace of a Burau matrix: 0 <- Fix(m) -> 0 with
    Fix(m) = ker(Id - m) over the given field."""
    n = m.strands
    rows = []
    for i in range(n):
        row = []
        for j, entry in enumerate(m.rows[i]):
            val = field.from_laurent(entry)
            if i == j:
                val = field.sub(field.one, val)
            else:
                val = field.neg(val)
            row.append(val)
        rows.append(row)
    k = kernel_basis(field, Mat(rows, n))
    dim = k.ncols
    return Span(field, 0, 0, dim, Mat([], dim), Mat([], dim))


def closure_alexander(b, deleted_index=0):
    """Alexander polynomial of the braid closure: the minor of
    Id - Burau(b) with one row and column (default the first) deleted,
    as its canonical associate (a link's minor can carry an integer
    content, a unit of Q[t,t^-1], which the Fox route's gcd divides out);
    cross-checked against the reduced-Burau formula
    (1-t) det(Id - reduced) = (1-t^n) * minor when the closure is a knot."""
    m = burau_unreduced(b)
    sub = minor_matrix(_id_minus(m.rows), deleted_index, deleted_index)
    det = poly_det(sub, LaurentPoly.one())
    if b.strands >= 2 and b.component_count() == 1:
        one = LaurentPoly.one()
        t = LaurentPoly.t()
        red_det = poly_det(_id_minus(_reduce_rows(m.rows, b.strands)), one)
        lhs = (one - t) * red_det
        rhs = (one - t ** b.strands) * det
        if normalize_unit(lhs) != normalize_unit(rhs):
            raise RouteDisagreement(
                "reduced-Burau cross-check failed for %s" % b.render())
        # the ratio is exactly a unit; verify by exact division
        exact_div(lhs, rhs)
    return canonical_poly(det)
