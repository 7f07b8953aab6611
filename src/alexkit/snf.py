"""Smith normal form over Q[t, t^-1] of matrices over Z[t, t^-1], and
exact determinants over the univariate and multivariate Laurent rings.

`smith_normal_form` is one sparse elimination over rows stored as
{column: entry}, every coefficient an int.  While some entry is a unit
+-t^k, the pivot is a unit of least Markowitz cost (r - 1)(c - 1), r and
c the nonzero counts of its row and column (the unit-pivot
preconditioning of Dumas, Saunders and Villard, J. Symb. Comput. 32,
2001); otherwise it is an entry of least degree spread.  The units wait
in a heap at the cost they had when their row last changed, and a cost
is recomputed only when its unit comes up: one that has risen goes back
in at its new cost, one that has fallen is taken where it stands.  So a
step costs the rows it changes, not every unit in the columns it
touches.  Row operations pseudo-divide the rest of the pivot column by
the pivot, s*f = q*pivot + r, and replace each such row by s times
itself minus q times the pivot row; s is a positive integer, a unit of
Q[t, t^-1].  A remainder stays in place; its spread is below the
pivot's, so a later pivot choice takes it up and nothing restarts.  Once
the column is clear, column operations reduce the pivot row the same
way, scaling the rest of each reduced column by its s.  A pivot with a
clear column splits off as a 1 x 1 block when it is a unit (clearing its
row then changes nothing else) or when it is alone in its row.  After a
non-unit step each changed row is divided by its integer content, so the
coefficients stay small.  The blocks form a diagonal matrix equivalent
to the input, and replacing each pair (a, b) of its entries with (gcd,
lcm) makes it a divisibility chain (Newman, Integral Matrices, 1972).

`poly_det` is one sparse elimination loop too, whose pivot is the unit
+-t^k of least Markowitz cost or else an entry of fewest terms, and
whose one row update is a fraction-free Bareiss step, its divisions
exact in the Laurent ring over Z; until the first non-unit pivot, a unit
pivot is first divided out of its row, so the step clears its column
exactly.  The three routes reduce with
three codes: the Fox route with `smith_normal_form`, the Burau and
multivariable routes with `poly_det`, and closed tangles with the
fraction-free pass in `alexkit.fields`.  So each route checks the others
with elimination code they do not use."""
from __future__ import annotations

import heapq

from .errors import DimensionMismatch
from .laurent import (LaurentPoly, MultiLaurentPoly, _primitive_coeffs,
                      _typed, canonical_poly, gcd_laurent, pseudo_divmod)


def _primitive_row(row):
    """Divide a row by its integer content, a unit of Q[t, t^-1]."""
    flat = _primitive_coeffs({(k, e): c for k, x in row.items()
                              for e, c in x.coeffs.items()})
    for k, x in row.items():
        row[k] = x._new({e: flat[k, e] for e in x.coeffs})


def smith_normal_form(rows):
    """Invariant factors d1 | d2 | ... | dr of a LaurentPoly matrix,
    each in canonical form; the empty list for a zero or empty matrix.
    Rows of unequal lengths raise `DimensionMismatch`."""
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise DimensionMismatch("ragged matrix: rows of lengths %s"
                                % sorted(lengths))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    cols = {}
    for i, row in enumerate(sparse):
        _typed("smith_normal_form", LaurentPoly, *row.values())
        for j in row:
            cols.setdefault(j, set()).add(i)
    # Invariant: every unit entry has a heap item with its cost when it was
    # pushed.  A popped item whose entry is gone or no longer a unit is
    # dropped; one whose cost has risen since is pushed back at its new
    # cost, and otherwise its entry is the pivot.
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
            if row is not None and j in row and row[j].is_unit():
                now = (len(row) - 1) * (len(cols[j]) - 1)
                if now <= cost:
                    break
                heapq.heappush(heap, (now, i, j))
            i = None
        if i is None:
            live = [(x.spread, i, j) for i, row in enumerate(sparse)
                    if row for j, x in row.items()]
            if not live:
                break
            _, i, j = min(live)
        row = sparse[i]
        pivot = row.pop(j)
        unit = pivot.is_unit()
        inverse = pivot.term_inverse() if unit else None
        changed = [r for r in cols[j] if r != i]
        for r in changed:
            target = sparse[r]
            f = target.pop(j)
            s, q, rem = (1, f * inverse, None) if unit else pseudo_divmod(
                f, pivot)
            if s != 1:
                for k, x in target.items():
                    target[k] = x * s
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
                s, _, rem = pseudo_divmod(row[k], pivot)
                if s != 1:
                    for r in cols[k] - {i}:
                        sparse[r][k] = sparse[r][k] * s
                        changed.append(r)
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
        for r in set(changed):
            if not unit:
                _primitive_row(sparse[r])
            push_units(r, sparse[r])
    chain = [canonical_poly(d) for d in diag]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd_laurent(chain[a], chain[b])
            if g != chain[a]:
                chain[a], chain[b] = g, chain[a] * chain[b] // g
    return [LaurentPoly.one() for _ in range(units)] + chain


def poly_det(rows, one):
    """Exact determinant of a square LaurentPoly or MultiLaurentPoly
    matrix; `one` is the ring unit of the entry type (the value for the
    empty matrix).  A matrix that is not square raises
    `DimensionMismatch`.

    One elimination loop over rows stored as {column: entry}.  The pivot
    is the unit +-t^k (a +-monomial in several variables) of least
    Markowitz cost (r - 1)(c - 1), or else an entry of fewest terms, such
    as c*t^k with |c| > 1.  Each step makes every remaining row
    (pivot * row - f * pivot row) / previous pivot, f its entry in the
    pivot column, each division exact in the Laurent ring over Z
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968; any pivot order will
    do), and the last pivot is the determinant of the matrix those steps
    started from.  Until the first non-unit pivot, a unit pivot u is
    divided out of its row and into the result, leaving pivot 1 and no
    previous pivot: the step is row - f * pivot row, on the rows with an
    entry f, and expanding along the cleared column leaves u times the
    determinant of what remains.  The sign of each step is (-1)^(i + k)
    for the pivot's row and column positions among those left.  Units go
    first because Bareiss alone fills in the sparse Fox minors, and its
    products grow with every step.
    """
    if not isinstance(one, (LaurentPoly, MultiLaurentPoly)):
        raise TypeError("poly_det takes a Laurent ring's one, not %r" % (one,))
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch(
            "determinant of a non-square matrix: %d rows of lengths %s"
            % (n, sorted({len(row) for row in rows})))
    live = [{j: x for j, x in enumerate(row) if x} for row in rows]
    for row in live:
        _typed("poly_det", type(one), *row.values())
    cols = list(range(n))
    factor = one
    prev = None
    while live:
        counts = {}
        for row in live:
            if not row:
                return one - one
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        if len(counts) < len(cols):
            return one - one
        best = None
        for i, row in enumerate(live):
            for j, x in row.items():
                if x.is_unit():
                    cost = (len(row) - 1) * (counts[j] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            best = min((len(x.coeffs), i, j) for i, row in enumerate(live)
                       for j, x in row.items())
        _, i, j = best
        pivot_row = live.pop(i)
        pivot = pivot_row.pop(j)
        k = cols.index(j)
        del cols[k]
        if (i + k) % 2:
            factor = -factor
        unit = prev is None and pivot.is_unit()
        if unit:  # divided by its unit, the pivot row has pivot 1
            factor = factor * pivot
            inverse = pivot.term_inverse()
            pivot_row = {c: x * inverse for c, x in pivot_row.items()}
        for r, row in enumerate(live):
            f = row.pop(j, None)
            new = row if unit else {c: pivot * x for c, x in row.items()}
            if f is not None:
                for c, y in pivot_row.items():
                    x = new.get(c)
                    x = -(f * y) if x is None else x - f * y
                    if x.is_zero:
                        del new[c]
                    else:
                        new[c] = x
            live[r] = new if prev is None else {
                c: x // prev for c, x in new.items()}
        if not unit:
            prev = pivot
    return factor if prev is None else factor * prev
