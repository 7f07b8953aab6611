"""Unreduced and reduced Burau representations, the span trace (fix
locus), and Alexander polynomials of braid closures via the deleted
minor of Id - Burau.
"""
from __future__ import annotations

from .errors import EmptyMatrix, RouteDisagreement, ValidationError
from .fields import GenericTField, Mat, kernel_basis, mat_identity
from .laurent import (LaurentPoly, _typed, _Value, canonical_poly,
                      normalize_unit)
from .snf import poly_det
from .tangles import Span


class BurauMatrix(_Value):
    """n x n matrix of Laurent polynomials; rows sum to 1."""

    __slots__ = ("rows", "strands")

    def __init__(self, rows, strands):
        self.rows = tuple(tuple(r) for r in rows)
        self.strands = strands

    def _key(self):
        return self.strands, self.rows

    def __repr__(self):
        return "BurauMatrix<%dx%d>" % (self.strands, self.strands)


def burau_unreduced(b):
    """Ordered product of the generator blocks [[1-t, t], [1, 0]] (s_i)
    and [[0, 1], [t^-1, 1-t^-1]] (S_i) on strands i, i+1; the identity
    for the empty word.

    Right-multiplying by a block changes only columns i and i+1, so each
    letter updates those two entries of every row in place: with
    a = M[r][i] and c = M[r][i+1], s_i gives ((1-t)a + c, ta) and S_i
    gives (t^-1 c, a + (1-t^-1)c).  Multiplying by t^+-1 is a shift, and
    a row whose two entries are zero is skipped.
    """
    n = b.strands
    rows = [list(row) for row in mat_identity(GenericTField(), n).rows]
    for letter in b.letters:
        i = abs(letter) - 1
        j = i + 1
        for row in rows:
            a, c = row[i], row[j]
            if not (a or c):
                continue
            if letter > 0:
                ta = a.shifted(1)
                row[i] = a + c - ta
                row[j] = ta
            else:
                tc = c.shifted(-1)
                row[i] = tc
                row[j] = a + c - tc
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


def _id_minus(rows, one, skip=None):
    """Id - M for the square rows of M, whose ring has unit `one`, without
    row and column `skip`."""
    return [[one - x if i == j else -x for j, x in enumerate(row) if j != skip]
            for i, row in enumerate(rows) if i != skip]


def span_trace_fix(m, field):
    """Span trace of a Burau matrix: 0 <- Fix(m) -> 0 with
    Fix(m) = ker(Id - m) over the given field."""
    _typed("span_trace_fix", BurauMatrix, m)
    rows = [map(field.from_laurent, row) for row in m.rows]
    dim = kernel_basis(field, Mat(_id_minus(rows, field.one),
                                  m.strands)).ncols
    return Span(field, Mat([], dim), Mat([], dim))


def closure_alexander(b, deleted_index=0):
    """Alexander polynomial of the braid closure: the minor of
    Id - Burau(b) with one row and column (default the first) deleted,
    as its canonical associate (a link's minor can carry an integer
    content, a unit of Q[t,t^-1], which the Fox route's gcd divides out);
    cross-checked against the reduced-Burau formula
    (1-t) det(Id - reduced) = (1-t^n) * minor when the closure is a knot.
    An index outside 0..strands-1 raises `ValidationError`."""
    k = deleted_index
    if k not in range(b.strands):
        raise ValidationError("deleted index %r is outside 0..%d"
                              % (k, b.strands - 1))
    m = burau_unreduced(b)
    one = LaurentPoly.one()
    det = poly_det(_id_minus(m.rows, one, k), one)
    if b.strands >= 2 and b.component_count() == 1:
        t = LaurentPoly.t()
        red_det = poly_det(_id_minus(_reduce_rows(m.rows, b.strands), one),
                           one)
        lhs = (one - t) * red_det
        rhs = (one - t ** b.strands) * det
        if normalize_unit(lhs) != normalize_unit(rhs):
            raise RouteDisagreement(
                "reduced-Burau cross-check failed for %s" % b.render())
    return canonical_poly(det)
