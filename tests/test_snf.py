"""Smith normal form over Q[t,t^-1] of integer Laurent matrices against a
brute-force minor-gcd oracle (sympy), plus determinant checks against
sympy and against a two-phase elimination kept here as an oracle."""
import copy
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from alexkit.alexander import alexander_matrix
from alexkit.codes import braid_closure
from alexkit.errors import DimensionMismatch
from alexkit.fox import AbelianWeights
from alexkit.laurent import (LaurentPoly, MultiLaurentPoly, canonical_poly,
                             gcd_laurent, normalize_unit)
from alexkit.snf import poly_det, smith_normal_form
from util import random_braid, random_poly

_t = sympy.symbols("t")


def _to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * _t ** e
               for e, c in p.coeffs.items())


def _unit_norm_sympy(expr):
    """Strip the +-c*t^k unit from a Laurent expression; None if zero."""
    num, _ = sympy.fraction(sympy.cancel(sympy.expand(expr)))
    p = sympy.Poly(num, _t)
    if p.is_zero:
        return None
    shift = min(m[0] for m in p.monoms())
    return p.exquo(sympy.Poly(_t ** shift, _t)).monic()


def _minor_gcd_oracle(rows, size):
    """Monic gcd of all size x size minors, via sympy determinants
    (denominator t-powers are units and are stripped)."""
    nrows, ncols = len(rows), len(rows[0])
    g = sympy.Poly(0, _t)
    for ri in itertools.combinations(range(nrows), size):
        for ci in itertools.combinations(range(ncols), size):
            m = sympy.Matrix([[_to_sympy(rows[i][j]) for j in ci]
                              for i in ri])
            d = _unit_norm_sympy(m.det())
            if d is not None:
                g = sympy.gcd(g, d)
    if g.is_zero:
        return None
    return _unit_norm_sympy(g.as_expr())


def _check_against_oracle(rows):
    """Products d1...dk of the invariant factors are the size-k minor
    gcds, and the rank is that of the oracle."""
    nrows, ncols = len(rows), len(rows[0])
    factors = smith_normal_form(rows)
    prod = LaurentPoly.one()
    for size, d in enumerate(factors, start=1):
        prod = prod * d
        oracle = _minor_gcd_oracle(rows, size)
        assert oracle is not None, "SNF rank exceeds oracle rank"
        got = sympy.Poly(_to_sympy(normalize_unit(prod)), _t).monic()
        assert got == oracle, "size-%d minor gcd mismatch" % size
    # ranks agree: all larger minors vanish
    if len(factors) < min(nrows, ncols):
        assert _minor_gcd_oracle(rows, len(factors) + 1) is None
    return factors


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(23)
    for _ in range(12):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[random_poly(rng, max_deg=2, min_exp=-1)
                 for _ in range(ncols)] for _ in range(nrows)]
        _check_against_oracle(rows)


def _unit(rng):
    return LaurentPoly.monomial(rng.randint(-2, 2),
                                rng.choice([-1, 1]) * rng.randint(1, 3))


def _true_unit(rng):
    """+-t^k with k != 0: a unit pivot is a shift and a sign."""
    return LaurentPoly.monomial(rng.choice([-2, -1, 1, 2]),
                                rng.choice([-1, 1]))


def _non_unit(rng):
    while True:
        p = random_poly(rng, max_deg=2, min_exp=-1)
        if len(p.coeffs) > 1:
            return p


def test_unit_presolve_matches_minor_gcd_oracle():
    """Sparse matrices in which every row has a +-c*t^k entry, as Fox rows
    and tangle gluing rows do; the other entries are not units, so the
    unit pivots leave a non-unit remainder with fill-in.  Some entries
    are units +-t^k with k != 0, and in every other matrix one row is a
    unit +-t^k times another, so a unit pivot in either clears the
    other: each old - q*x cancels to zero."""
    rng = random.Random(31)
    for n in range(14):
        nrows = rng.randint(3, 4)
        ncols = rng.randint(3, 4)
        rows = []
        for _ in range(nrows):
            row = [_non_unit(rng) if rng.random() < 0.7
                   else LaurentPoly.zero() for _ in range(ncols)]
            row[rng.randrange(ncols)] = _unit(rng)
            if rng.random() < 0.5:
                row[rng.randrange(ncols)] = _true_unit(rng)
            rows.append(row)
        if n % 2:
            u = _true_unit(rng)
            rows[-1] = [u * x for x in rows[0]]
        factors = _check_against_oracle(rows)
        # pivots c*t^k with |c| > 1 are pseudo-divided, not inverted
        assert all(type(c) is int for d in factors
                   for c in d.coeffs.values())


# non-monic entries: no +-t^k among them or their products
_NON_MONIC = (LaurentPoly({1: 2}), LaurentPoly({0: 3, 1: -1}),
              LaurentPoly({0: 2, 1: 2}), LaurentPoly({-1: 3, 1: -2}),
              LaurentPoly({0: -2, 2: 3}), LaurentPoly({0: 3}))


def test_snf_non_monic_pivots_match_minor_gcd_oracle():
    """Entries are products of polynomials such as 2t, 3 - t and 2 + 2t,
    so every pivot is pseudo-divided and the row and column steps scale
    by integers s > 1."""
    one, t = LaurentPoly.one(), LaurentPoly.t()
    zero = LaurentPoly.zero()
    a, b, c = 3 * one - t, one + t, 3 * t - one
    # the pivot a(1 - t) has a clear column, and its row's other entries
    # need different scales s, so the rest of each of their columns must
    # be scaled too
    rows = [[a * (one - t), b * b, 2 * b * a], [zero, c * a, zero]]
    assert _check_against_oracle(rows) == [
        one, LaurentPoly({0: 9, 1: -33, 2: 19, 3: -3})]
    rows = [[LaurentPoly({0: -3, 1: 10, 2: -3}), LaurentPoly({1: 4, 2: 4}),
             LaurentPoly({0: 1, 1: 1, 2: -2}), (one + 2 * t) ** 2],
            [zero, 2 * b * (one + 2 * t), zero, (one - t) * b]]
    assert _check_against_oracle(rows) == [one, b]
    rng = random.Random(83)
    for _ in range(14):
        nrows, ncols = rng.randint(2, 3), rng.randint(2, 4)
        rows = [[rng.choice(_NON_MONIC) * rng.choice(_NON_MONIC)
                 if rng.random() < 0.85 else zero for _ in range(ncols)]
                for _ in range(nrows)]
        _check_against_oracle(rows)


def test_unit_presolve_edge_cases():
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    # reduced completely by unit pivots, every factor 1
    full = [[-one, one - t, t], [zero, t * t, one + t]]
    assert _check_against_oracle(full) == [one, one]
    # the second row is a multiple of the first, so a zero block is left
    a, b = t + one, t * t - one
    split = [[-one, a, b], [t - one, (one - t) * a, (one - t) * b]]
    assert _check_against_oracle(split) == [one]
    # all-zero rows, and a non-unit remainder beside a unit pivot
    sparse = [[zero, zero, zero], [t, t - one, zero],
              [zero, zero, zero], [zero, zero, t * t - one]]
    assert _check_against_oracle(sparse) == [
        one, canonical_poly(t * t - one)]
    assert smith_normal_form([[zero, zero], [zero, zero]]) == []


def test_snf_leaves_shared_entries_unchanged():
    """Fox rows share their entry objects, as `dense_rows` converts each
    distinct entry once, so a row update must copy an entry's terms and
    never change them in place."""
    rng = random.Random(47)
    for _ in range(12):
        d = braid_closure(random_braid(rng, max_strands=5, max_len=12))
        rows = alexander_matrix(d, AbelianWeights.all_t(
            range(1, d.arc_count + 1))).univariate_rows()
        before = copy.deepcopy(rows)
        smith_normal_form(rows)
        assert rows == before


def test_snf_divisibility_chain():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[random_poly(rng, max_deg=2) for _ in range(4)]
                for _ in range(3)]
        factors = smith_normal_form(rows)
        for a, b in zip(factors, factors[1:]):
            b // a  # raises unless a | b


def test_snf_known_diagonal():
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    rows = [[t - one, zero], [zero, (t - one) * (t + one)]]
    assert smith_normal_form(rows) == [
        canonical_poly(t - one), canonical_poly((t - one) * (t + one))]
    # coprime diagonal entries: the gcd/lcm finish gives 1, t^2 - 1
    assert smith_normal_form([[t - one, zero], [zero, t + one]]) == [
        one, canonical_poly(t * t - one)]
    # a column operation leaves the remainder -2 of t - 1 by t + 1
    assert smith_normal_form([[t + one, t - one]]) == [one]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[zero, zero]]) == []


def _sympy_det(exprs, gens):
    """Determinant of a matrix of Laurent polynomials whose exponents are
    all >= -2, by sympy's own elimination over Q[gens] (independent of
    poly_det), as {exponent tuple: Fraction}.  Each row is first
    multiplied by (g1...gs)^2, and the result divided by (g1...gs)^2n."""
    n = len(exprs)
    ring = sympy.QQ.poly_ring(*gens)
    mono = sympy.Mul(*gens) ** 2
    dm = DomainMatrix([[ring.from_sympy(sympy.expand(mono * x)) for x in r]
                       for r in exprs], (n, n), ring)
    return {tuple(e - 2 * n for e in exps):
            Fraction(int(c.numerator), int(c.denominator))
            for exps, c in dm.det().items()}


def _det_matrix(rng, n, kind, entry, unit, non_unit):
    """An n x n matrix of one kind: dense; a first column with zeros on
    top, so that the first pivot is found further down; singular, with a
    last row that combines the others; all-unit rows; no unit at all; no
    unit until the first, fraction-free, step makes one."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "zeros_on_top":
        for row in rows[:-1]:
            row[0] = row[0] - row[0]
    elif kind == "singular":
        last = [x - x for x in rows[0]]
        for row in rows[:-1]:
            f = entry()
            last = [a + f * b for a, b in zip(last, row)]
        rows[-1] = last
    elif kind == "unit_rows":
        for row in rows[::2]:
            row[:] = [unit() for _ in range(n)]
    elif kind in ("no_units", "late_unit"):
        rows = [[non_unit() if rng.random() < 0.8 else entry() - entry()
                 for _ in range(n)] for _ in range(n)]
        if kind == "late_unit" and n > 1:
            # the first pivot, 2, leaves the unit 2 * 5 - 3 * 3 = 1
            u = unit()
            one = u // u
            rows[0][:2] = [one * 2, one * 3]
            rows[1][:2] = [one * 3, one * 5]
    return rows


_DET_KINDS = ("dense", "zeros_on_top", "singular", "unit_rows", "no_units",
              "late_unit")


def _det(rows, one):
    """poly_det(rows, one), checking that it leaves the rows unchanged."""
    before = [[dict(x.coeffs) for x in row] for row in rows]
    det = poly_det(rows, one)
    assert [[x.coeffs for x in row] for row in rows] == before
    return det


def test_poly_det_matches_sympy():
    rng = random.Random(9)
    for n in range(1, 7):
        for kind in _DET_KINDS:
            rows = _det_matrix(
                rng, n, kind,
                lambda: random_poly(rng, max_deg=2, min_exp=-1),
                lambda: _unit(rng), lambda: _non_unit(rng))
            det = _det(rows, LaurentPoly.one())
            want = _sympy_det([[_to_sympy(x) for x in r] for r in rows],
                              [_t])
            assert {(e,): c for e, c in det.coeffs.items()} == want, (n, kind)
            if kind == "singular":
                assert det.is_zero


def _mv_entry(rng, nvars, terms):
    """A polynomial of at most `terms` terms, exponents in -1..1."""
    return MultiLaurentPoly(
        {tuple(rng.randint(-1, 1) for _ in range(nvars)):
         rng.choice([-2, -1, 1, 3]) for _ in range(terms)}, nvars)


def _mv_non_unit(rng, nvars):
    while True:
        p = _mv_entry(rng, nvars, 3)
        if len(p.coeffs) > 1:
            return p


def test_poly_det_multivariate_matches_sympy():
    """Matrices over Q[t1^+-1, .., ts^+-1], s = 2 and 3, with negative
    exponents, as the multivariable route's Fox minors have; up to 5 x 5
    in two variables and 4 x 4 in three."""
    rng = random.Random(41)
    for nvars in (2, 3):
        xs = sympy.symbols("x1:%d" % (nvars + 1))
        for n in range(1, 8 - nvars):
            for kind in _DET_KINDS:
                rows = _det_matrix(
                    rng, n, kind,
                    lambda: _mv_entry(rng, nvars, rng.randint(0, 3)),
                    lambda: _mv_entry(rng, nvars, 1),
                    lambda: _mv_non_unit(rng, nvars))
                det = _det(rows, MultiLaurentPoly.one(nvars))
                want = _sympy_det([[_mv_to_sympy(x, xs) for x in r]
                                   for r in rows], xs)
                assert det.coeffs == want, (nvars, n, kind)
                if kind == "singular":
                    assert det.is_zero


def _mv_to_sympy(p, xs):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                for exps, c in p.coeffs.items()), sympy.Integer(0))


def test_gcd_consistency_with_snf_scalars():
    # 1x2 matrix: single invariant factor is the gcd of the entries
    rng = random.Random(3)
    for _ in range(10):
        a = random_poly(rng, max_deg=2, allow_zero=False)
        b = random_poly(rng, max_deg=2, allow_zero=False)
        factors = smith_normal_form([[a, b]])
        assert factors == [canonical_poly(gcd_laurent(a, b))]


def _two_phase_det(rows, one):
    """Oracle determinant in two phases: unit pivots +-t^k of least
    Markowitz cost clear their columns, then the rest is densified and reduced by
    forward Bareiss elimination, each pivot a nonzero entry of fewest
    terms swapped into place by a row and a column swap."""
    zero = one - one
    live = [{j: x for j, x in enumerate(row) if not x.is_zero}
            for row in rows]
    cols = list(range(len(rows)))
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
        units = [((len(row) - 1) * (counts[j] - 1), i, j)
                 for i, row in enumerate(live)
                 for j, x in row.items() if x.is_unit()]
        if not units:
            break
        _, i, j = min(units)
        pivot_row = live.pop(i)
        pivot = pivot_row.pop(j)
        k = cols.index(j)
        del cols[k]
        factor = factor * pivot if (i + k) % 2 == 0 else -(factor * pivot)
        scaled = {c: x * pivot.term_inverse() for c, x in pivot_row.items()}
        for row in live:
            f = row.pop(j, None)
            if f is None:
                continue
            for c, x in scaled.items():
                new = row.get(c, zero) - f * x
                if new.is_zero:
                    row.pop(c, None)
                else:
                    row[c] = new
    m = [[row.get(c, zero) for c in cols] for row in live]
    n = len(m)
    prev = None
    for k in range(n - 1):
        live = [(len(m[i][j].coeffs), i, j) for i in range(k, n)
                for j in range(k, n) if not m[i][j].is_zero]
        if not live:
            return zero
        _, i, j = min(live)
        if i != k:
            m[k], m[i] = m[i], m[k]
            factor = -factor
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            factor = -factor
        top = m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                x = top[k] * row[j] - row[k] * top[j]
                row[j] = x if prev is None else x // prev
        prev = top[k]
    return factor * m[n - 1][n - 1] if n else factor


def _oracle_matrix(rng, n, entry, unit):
    """An n x n matrix of zeros, units and other entries, some with a zero
    row, a zero column or a row that combines two others."""
    zero = unit() * 0
    rows = [[rng.choice((zero, unit(), entry(), entry())) for _ in range(n)]
            for _ in range(n)]
    roll = rng.random()
    if n and roll < 0.15:
        rows[rng.randrange(n)] = [zero] * n
    elif n and roll < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = zero
    elif n >= 3 and roll < 0.5:
        a, b, c = rng.sample(range(n), 3)
        f, g = unit(), entry()
        rows[c] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
    return rows


def test_poly_det_matches_two_phase_oracle():
    """Univariate and 1-3 variable matrices of size 0-7 (0-6 in three
    variables, where a 7 x 7 determinant takes seconds)."""
    rng = random.Random(61)
    singular = 0
    for n in range(8):
        for _ in range(12):
            rows = _oracle_matrix(
                rng, n, lambda: random_poly(rng, max_deg=2, min_exp=-1),
                lambda: _unit(rng))
            det = _det(rows, LaurentPoly.one())
            assert det == _two_phase_det(rows, LaurentPoly.one()), n
            singular += det.is_zero
        for nvars in (1, 2) if n == 7 else (1, 2, 3):
            for _ in range(3 if n > 5 else 6):
                rows = _oracle_matrix(
                    rng, n, lambda: _mv_entry(rng, nvars, 2),
                    lambda: _mv_entry(rng, nvars, 1))
                one = MultiLaurentPoly.one(nvars)
                assert _det(rows, one) == _two_phase_det(rows, one), (
                    nvars, n)
    assert singular >= 10


def test_poly_det_fox_minors_match_two_phase_oracle():
    """Every minor without one column of the Fox matrices of random 2- and
    3-component links."""
    rng = random.Random(67)
    wanted = {2: 20, 3: 10}
    nonzero = 0
    while any(wanted.values()):
        b = random_braid(rng, max_strands=5, max_len=12)
        if not wanted.get(b.component_count()):
            continue
        wanted[b.component_count()] -= 1
        m = alexander_matrix(braid_closure(b))
        if m.arc_count - 1 != len(m.rows):
            continue
        one = MultiLaurentPoly.one(m.variable_count)
        for col in range(m.arc_count):
            minor = [row[:col] + row[col + 1:] for row in m.rows]
            det = poly_det(minor, one)
            assert det == _two_phase_det(minor, one), (b.render(), col)
            nonzero += not det.is_zero
    assert nonzero >= 30


def test_poly_det_sign_of_permuted_unit_diagonal():
    """A permutation of a diagonal of units c*t^k has determinant
    sign(permutation) times the product of the units."""
    rng = random.Random(71)
    zero = LaurentPoly.zero()
    for n in range(1, 8):
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            units = [_unit(rng) for _ in range(n)]
            rows = [[units[i] if j == perm[i] else zero for j in range(n)]
                    for i in range(n)]
            want = LaurentPoly.one()
            for u in units:
                want = want * u
            inversions = sum(perm[a] > perm[b] for a in range(n)
                             for b in range(a + 1, n))
            assert poly_det(rows, LaurentPoly.one()) == (
                -want if inversions % 2 else want)


@pytest.mark.parametrize("rows", [
    [[1, 0, -1], [0, 1, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[1, 0], [0]],
], ids=["2x3", "3x4", "ragged"])
def test_poly_det_rejects_non_square(rows):
    t = LaurentPoly.t()
    rows = [[t ** e if e else LaurentPoly.zero() for e in row]
            for row in rows]
    with pytest.raises(DimensionMismatch) as info:
        poly_det(rows, LaurentPoly.one())
    assert info.value.exit_code == 3


def _ints(p):
    return all(type(c) is int for c in p.coeffs.values())


def test_reductions_of_fox_matrices_have_int_coefficients():
    """Smith factors, determinants of the minors and gcds of the entries
    of seeded Fox matrices, as they are and with each row times a
    non-monic factor, have int coefficients: the reductions assign
    coefficient maps directly, past the constructors' check."""
    rng = random.Random(89)
    checked = 0
    for _ in range(12):
        d = braid_closure(random_braid(rng, max_strands=4, max_len=9))
        fox = alexander_matrix(
            d, AbelianWeights.all_t(range(1, d.arc_count + 1)))
        plain = fox.univariate_rows()
        for rows in (plain, [[x * rng.choice(_NON_MONIC) for x in row]
                             for row in plain]):
            assert all(_ints(f) for f in smith_normal_form(rows))
            for minor in _column_minors(rows):
                assert _ints(poly_det(minor, LaurentPoly.one()))
            entries = [x for row in rows for x in row]
            for a, b in zip(entries, entries[1:]):
                assert _ints(gcd_laurent(a, b))
            checked += 1
        mv = alexander_matrix(d)
        one = MultiLaurentPoly.one(mv.variable_count)
        for minor in _column_minors(mv.rows):
            assert all(type(c) is int
                       for c in poly_det(minor, one).coeffs.values())
    assert checked == 24


def _column_minors(rows):
    """The square matrices left by deleting one column, if there are."""
    ncols = len(rows[0]) if rows else 0
    if ncols != len(rows) + 1:
        return []
    return [[row[:col] + row[col + 1:] for row in rows]
            for col in range(ncols)]
