"""Smith normal form over Q[t, t^-1], and exact determinants over the
univariate and multivariate Laurent rings.

The two share no code: the Fox route reduces its matrices with
`smith_normal_form`, while the Burau and multivariable routes take
determinants with `poly_det`, so the Fox route checks the other two
with elimination code they do not use."""
from __future__ import annotations

import heapq

from .laurent import (LaurentPoly, MultiLaurentPoly, canonical_poly,
                      divmod_laurent, exact_div, mv_exact_div)


def _find_pivot(m, p, nrows, ncols):
    """Nonzero entry of minimal degree spread in the trailing submatrix,
    ties broken row-major; None if the submatrix is zero."""
    best = None
    best_spread = None
    for i in range(p, nrows):
        for j in range(p, ncols):
            entry = m[i][j]
            if entry.is_zero:
                continue
            s = entry.spread
            if best is None or s < best_spread:
                best, best_spread = (i, j), s
    return best


def _swap_rows(m, a, b):
    m[a], m[b] = m[b], m[a]


def _swap_cols(m, a, b):
    for row in m:
        row[a], row[b] = row[b], row[a]


def _clear_pivot(m, p, nrows, ncols):
    """Clear row p and column p using the pivot at (p, p).

    Whenever a division leaves a remainder, the remainder (of strictly
    smaller spread) is swapped into the pivot slot and the pass restarts,
    so this terminates.
    """
    while True:
        restarted = False
        for i in range(p + 1, nrows):
            if m[i][p].is_zero:
                continue
            q, r = divmod_laurent(m[i][p], m[p][p])
            for j in range(p, ncols):
                m[i][j] = m[i][j] - q * m[p][j]
            if not r.is_zero:
                _swap_rows(m, p, i)
                restarted = True
                break
        if restarted:
            continue
        for j in range(p + 1, ncols):
            if m[p][j].is_zero:
                continue
            q, r = divmod_laurent(m[p][j], m[p][p])
            for i in range(p, nrows):
                m[i][j] = m[i][j] - q * m[i][p]
            if not r.is_zero:
                _swap_cols(m, p, j)
                restarted = True
                break
        if not restarted:
            return


def _dense_smith(m):
    """Invariant factors of a dense matrix (a list of row lists, reduced
    in place) by pivoting on entries of least degree spread."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    diag = []
    p = 0
    while p < nrows and p < ncols:
        piv = _find_pivot(m, p, nrows, ncols)
        if piv is None:
            break
        i, j = piv
        _swap_rows(m, p, i)
        _swap_cols(m, p, j)
        while True:
            _clear_pivot(m, p, nrows, ncols)
            bad = None
            for i in range(p + 1, nrows):
                for j in range(p + 1, ncols):
                    if m[i][j].is_zero:
                        continue
                    _, r = divmod_laurent(m[i][j], m[p][p])
                    if not r.is_zero:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(ncols):
                m[p][j] = m[p][j] + m[bad][j]
        diag.append(m[p][p])
        p += 1
    return [canonical_poly(d) for d in diag]


def _unit_presolve(rows):
    """Eliminate unit pivots c*t^k by sparse Gaussian elimination.

    Returns the number of pivots eliminated and the dense rows of what is
    left, without its zero rows and columns.
    The next pivot is the unit entry of least Markowitz cost
    (r - 1)(c - 1), with r and c the nonzero counts of its row and column.
    """
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero}
              for row in rows]
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
    eliminated = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = sparse[i]
        if row is None or j not in row or not row[j].is_unit() \
                or cost != (len(row) - 1) * (len(cols[j]) - 1):
            continue
        inverse = row.pop(j) ** -1
        pivot_row = {k: x * inverse for k, x in row.items()}
        sparse[i] = None
        for k in pivot_row:
            cols[k].discard(i)
        changed = [r for r in cols.pop(j) if r != i]
        for r in changed:
            target = sparse[r]
            f = target.pop(j)
            for k, x in pivot_row.items():
                old = target.get(k)
                new = -(f * x) if old is None else old - f * x
                if not new.is_zero:
                    if old is None:
                        cols[k].add(r)
                    target[k] = new
                elif old is not None:
                    del target[k]
                    cols[k].discard(r)
        eliminated += 1
        for r in changed:
            push_units(r, sparse[r])
        for k in pivot_row:
            for r in cols[k]:
                push_units(r, (k,))
    left = [row for row in sparse if row]
    keep = sorted(k for k, members in cols.items() if members)
    zero = LaurentPoly.zero()
    return eliminated, [[row.get(k, zero) for k in keep] for row in left]


def smith_normal_form(rows):
    """Invariant factors d1 | d2 | ... | dr of a LaurentPoly matrix,
    each in canonical form; the empty list for a zero or empty matrix.

    A sparse presolve comes first, the unit-pivot preconditioning of
    Dumas, Saunders and Villard ("On efficient sparse integer matrix Smith
    normal form computations", J. Symb. Comput. 32, 2001).  While some
    entry is a unit c*t^k of Q[t, t^-1], it clears that entry's column
    with row operations, which are invertible because the pivot is a
    unit, and then its row, which leaves the rest untouched.  Each such
    step splits off a 1 x 1 block equivalent to (1), so it contributes
    the invariant factor 1 and leaves the Smith form of the remaining
    (Schur complement) matrix to supply the others.  The products
    d1...dj, and with them Delta^k and the strata, are therefore those of
    the full matrix.  What is left, typically a few rows, is reduced
    densely by pivoting on entries of least degree spread.
    """
    units, rest = _unit_presolve(rows)
    return [LaurentPoly.one() for _ in range(units)] + _dense_smith(rest)


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


def minor_matrix(rows, drop_row, drop_col):
    """Matrix with one row and one column removed."""
    return [[entry for j, entry in enumerate(row) if j != drop_col]
            for i, row in enumerate(rows) if i != drop_row]
