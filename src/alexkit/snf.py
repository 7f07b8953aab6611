"""Smith normal form over Q[t, t^-1], and exact determinants over the
univariate and multivariate Laurent rings.

`smith_normal_form` is one sparse elimination over rows stored as
{column: entry}.  While some entry is a unit c*t^k, the pivot is the unit
of least Markowitz cost (r - 1)(c - 1), r and c the nonzero counts of its
row and column (the unit-pivot preconditioning of Dumas, Saunders and
Villard, J. Symb. Comput. 32, 2001); otherwise it is an entry of least
degree spread.  Row operations divide the rest of the pivot column by the
pivot.  A remainder stays in place; its spread is below the pivot's, so a
later pivot choice takes it up and nothing restarts.  Once the column is
clear, column operations reduce the pivot row the same way, changing that
row alone.  A pivot with a clear column splits off as a 1 x 1 block when
it is a unit (clearing its row then changes nothing else) or when it is
alone in its row.  After a non-unit step each changed row is divided by
its rational content, a unit, so the coefficients stay small.  The blocks
form a diagonal matrix equivalent to the input, and replacing each pair
(a, b) of its entries with (gcd, lcm) makes it a divisibility chain
(Newman, Integral Matrices, 1972).

The Smith form and `poly_det` share no code: the Fox route reduces its
matrices with `smith_normal_form`, while the Burau and multivariable
routes take determinants with `poly_det`, so the Fox route checks the
other two with elimination code they do not use."""
from __future__ import annotations

import heapq

from .laurent import (LaurentPoly, MultiLaurentPoly, _primitive_coeffs,
                      canonical_poly, divmod_laurent, exact_div,
                      gcd_laurent, mv_exact_div)


def _primitive_row(row):
    """Divide a row by its rational content, a unit of Q[t, t^-1]."""
    flat = _primitive_coeffs({(k, e): c for k, x in row.items()
                              for e, c in x.coeffs.items()})
    for k, x in row.items():
        row[k] = LaurentPoly({e: flat[k, e] for e in x.coeffs})


def smith_normal_form(rows):
    """Invariant factors d1 | d2 | ... | dr of a LaurentPoly matrix,
    each in canonical form; the empty list for a zero or empty matrix."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    cols = {}
    for i, row in enumerate(sparse):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # Invariant: every unit entry has a heap item with its current cost;
    # items whose row, entry or cost has changed since are skipped.
    heap = []

    def push_units(i, js):
        row = sparse[i]
        for j in js:
            if row[j].is_unit():
                heapq.heappush(
                    heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))

    for i, row in enumerate(sparse):
        push_units(i, row)
    units = 0
    diag = []
    while True:
        i = None
        while heap:
            cost, i, j = heapq.heappop(heap)
            row = sparse[i]
            if row is not None and j in row and row[j].is_unit() \
                    and cost == (len(row) - 1) * (len(cols[j]) - 1):
                break
            i = None
        if i is None:
            live = [(x.spread, i, j) for i, row in enumerate(sparse)
                    if row for j, x in row.items()]
            if not live:
                break
            _, i, j = min(live)
        row = sparse[i]
        touched = list(row)
        pivot = row.pop(j)
        unit = pivot.is_unit()
        inverse = pivot ** -1 if unit else None
        changed = [r for r in cols[j] if r != i]
        for r in changed:
            target = sparse[r]
            f = target.pop(j)
            q, rem = (f * inverse, None) if unit else divmod_laurent(f, pivot)
            if rem:
                target[j] = rem
            else:
                cols[j].discard(r)
            for k, x in row.items():
                old = target.get(k)
                new = -(q * x) if old is None else old - q * x
                if new:
                    if old is None:
                        cols[k].add(r)
                    target[k] = new
                elif old is not None:
                    del target[k]
                    cols[k].discard(r)
        clear = len(cols[j]) == 1
        if clear and not unit:
            for k in list(row):
                rem = divmod_laurent(row[k], pivot)[1]
                if rem:
                    row[k] = rem
                else:
                    del row[k]
                    cols[k].discard(i)
        if clear and (unit or not row):
            sparse[i] = None
            for k in row:
                cols[k].discard(i)
            del cols[j]
            if unit:
                units += 1
            else:
                diag.append(pivot)
        else:
            row[j] = pivot
            if clear:
                changed.append(i)
        for r in changed:
            if not unit:
                _primitive_row(sparse[r])
            push_units(r, sparse[r])
        for k in touched:
            for r in cols.get(k, ()):
                push_units(r, (k,))
    chain = [canonical_poly(d) for d in diag]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd_laurent(chain[a], chain[b])
            if g != chain[a]:
                chain[a], chain[b] = g, canonical_poly(
                    exact_div(chain[a] * chain[b], g))
    return [LaurentPoly.one() for _ in range(units)] + chain


def poly_det(rows, one):
    """Exact determinant of a square LaurentPoly or MultiLaurentPoly
    matrix; `one` is the ring unit of the entry type (the value for the
    empty matrix).

    Two phases.  While some entry is a unit c*t^k (a single term), the
    unit of least Markowitz cost (r - 1)(c - 1) is the pivot: row
    operations, exact because the pivot is invertible, clear its column,
    and expanding along that column leaves +-pivot times the determinant
    of what remains.  The rest is reduced by forward fraction-free
    elimination (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968),
    whose every division by the previous pivot is exact in the Laurent
    ring.  Units go first because Bareiss alone fills in the sparse Fox
    minors, and its products grow with every step.
    """
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if isinstance(one, MultiLaurentPoly):
        divide, invert = mv_exact_div, MultiLaurentPoly.term_inverse
    else:
        divide, invert = exact_div, lambda p: p ** -1
    zero = one - one
    live = [{j: x for j, x in enumerate(row) if not x.is_zero}
            for row in rows]
    cols = list(range(n))
    factor = one
    while live:
        counts = {}
        for row in live:
            if not row:
                return zero
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        if len(counts) < len(cols):
            return zero
        best = None
        for i, row in enumerate(live):
            for j, x in row.items():
                if len(x.coeffs) == 1:
                    cost = (len(row) - 1) * (counts[j] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            break
        _, i, j = best
        pivot_row = live.pop(i)
        pivot = pivot_row.pop(j)
        k = cols.index(j)
        del cols[k]
        factor = factor * pivot if (i + k) % 2 == 0 else -(factor * pivot)
        inverse = invert(pivot)
        scaled = {c: x * inverse for c, x in pivot_row.items()}
        for row in live:
            f = row.pop(j, None)
            if f is None:
                continue
            for c, x in scaled.items():
                new = row[c] - f * x if c in row else -(f * x)
                if new.is_zero:
                    row.pop(c, None)
                else:
                    row[c] = new
    rest = [[row.get(c, zero) for c in cols] for row in live]
    return factor * _bareiss_det(rest, one, zero, divide)


def _bareiss_det(m, one, zero, divide):
    """Determinant of a dense square matrix (reduced in place) by forward
    fraction-free elimination.  Each pivot is a nonzero entry of fewest
    terms, swapped into place by a row and a column swap."""
    n = len(m)
    if n == 0:
        return one
    negate = False
    prev = None
    for k in range(n - 1):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                x = m[i][j]
                if not x.is_zero and (best is None
                                      or len(x.coeffs) < best[0]):
                    best = (len(x.coeffs), i, j)
        if best is None:
            return zero
        _, i, j = best
        if i != k:
            m[k], m[i] = m[i], m[k]
            negate = not negate
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            negate = not negate
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                x = pivot * row[j]
                if not f.is_zero and not top[j].is_zero:
                    x = x - f * top[j]
                row[j] = x if prev is None else divide(x, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if negate else det
