"""Alexander matrices from crossing lists, elementary-ideal invariants,
fibre dimensions, virtual classes, ring presentations, and the
multivariable Alexander polynomial, read off two Fox minors by Torres's
theorem and cross-checked between them.  Fox rows are written per
crossing in closed form (Crowell-Fox, 1963, ch. VII): at weight t they are
the AGL_1 equations q_out = m q_in + (1 - m) q_over, m = t^sign.
"""
from __future__ import annotations

import math

from . import fields
from .errors import (RouteDisagreement, UnknownGenerator,
                     UseMultivariableRoute, UseUnivariateRoute)
from .fields import ComplexPoint, Mat, RationalPoint, ScalarField
from .fox import AbelianWeights
from .laurent import (LaurentPoly, MultiLaurentPoly, _LaurentCore,
                      canonical_poly, distinct_root_count, mv_normalize)
# unused here; perfbench/layertrace.py traces alexander.gcd_multivariate
from .laurent import gcd_multivariate  # noqa: F401
from .snf import poly_det, smith_normal_form


def component_weights(d):
    """Default weights: each arc goes to the variable of its component."""
    s = d.component_count
    variables = [MultiLaurentPoly.variable(k, s) for k in range(1, s + 1)]
    return AbelianWeights(
        {arc: variables[comp - 1] for arc, comp in d.components.items()}, s)


class AlexanderMatrix:
    """(n-1) x n presentation matrix of the Alexander module, stored as one
    {column: nonzero entry} map per row, columns counted from 0.  Rows
    share their entry objects, so a dense view converts each distinct
    entry once."""

    __slots__ = ("sparse_rows", "arc_count", "variable_count")

    def __init__(self, sparse_rows, arc_count, variable_count):
        self.sparse_rows = tuple(sparse_rows)
        self.arc_count = arc_count
        self.variable_count = variable_count

    def dense_rows(self, zero, convert=None):
        """Dense rows filled from one `zero`, each entry x as convert(x),
        or as it is without `convert`."""
        seen = {}
        out = []
        for entries in self.sparse_rows:
            row = [zero] * self.arc_count
            if convert is None:
                for j, x in entries.items():
                    row[j] = x
            else:
                for j, x in entries.items():
                    y = seen.get(id(x))
                    if y is None:
                        y = seen[id(x)] = convert(x)
                    row[j] = y
            out.append(row)
        return out

    @property
    def rows(self):
        """Dense view: a tuple of row tuples of MultiLaurentPoly."""
        return tuple(map(tuple, self.dense_rows(
            MultiLaurentPoly.zero(self.variable_count))))

    def univariate_rows(self):
        """Dense view: a list of row lists of LaurentPoly."""
        if self.variable_count != 1:
            raise UseMultivariableRoute(
                "matrix has %d variables" % self.variable_count)
        return self.dense_rows(LaurentPoly.zero(),
                               MultiLaurentPoly.to_laurent)

    def __repr__(self):
        return "AlexanderMatrix<%dx%d, %d vars>" % (
            len(self.sparse_rows), self.arc_count, self.variable_count)


def alexander_matrix(d, weights=None):
    """Fox-derivative rows of the Wirtinger relators x_j^s x_i x_j^-s
    x_k^-1, with the last crossing's (redundant) relation dropped.

    In closed form (Crowell-Fox, Introduction to Knot Theory, ch. VII),
    over arc j, under arcs i -> k and weights w give 1 - w_i at j, w_j at
    i when s = +1, w_j^-1 (w_i - 1) at j, w_j^-1 at i when s = -1, and -1
    at k, exact as w_i == w_k is checked; coinciding arcs add, and zero
    entries (w_i = 1, or a sum that cancels) are left out.  The entry
    pair is computed once for each distinct (sign, w_j, w_i)."""
    if weights is None:
        weights = component_weights(d)
    for arc in range(1, d.arc_count + 1):
        if arc not in weights.assignment:
            raise UnknownGenerator("no weight for arc %d" % arc)
    for c in d.crossings:
        if weights.weight(c.under_in) != weights.weight(c.under_out):
            raise UnknownGenerator(
                "arcs %d and %d lie on one component but carry different "
                "weights" % (c.under_in, c.under_out))
    one = MultiLaurentPoly.one(weights.nvars)
    minus_one = -one
    pairs = {}
    rows = []
    for c in d.crossings[:-1]:
        wj, wi = weights.assignment[c.over], weights.assignment[c.under_in]
        # a unit weight has one term; its (exponents, coefficient) is a key
        key = (c.sign, *wj.coeffs.items(), *wi.coeffs.items())
        pair = pairs.get(key)
        if pair is None:
            if c.sign > 0:
                pair = (one - wi, wj)
            else:
                inv = wj.term_inverse()
                pair = (inv * (wi - one), inv)
            pairs[key] = pair
        row = {}
        for arc, entry in zip((c.over, c.under_in, c.under_out),
                              pair + (minus_one,)):
            if arc - 1 in row:
                entry = row.pop(arc - 1) + entry
            if entry:
                row[arc - 1] = entry
        rows.append(row)
    return AlexanderMatrix(rows, d.arc_count, weights.nvars)


class AlexanderData:
    """Delta^1..Delta^n, SNF invariant factors, and stratum counts."""

    __slots__ = ("delta_k", "invariant_factors", "strata")

    def __init__(self, delta_k, invariant_factors, strata):
        self.delta_k = tuple(delta_k)
        self.invariant_factors = tuple(invariant_factors)
        self.strata = tuple(strata)

    @property
    def delta(self):
        """Delta^1, the Alexander polynomial."""
        return self.delta_k[0]


def alexander_data(m):
    """Smith invariant factors d1 | d2 | ... of m, Delta^1..Delta^n with
    Delta^k = d1...d_{n-k} from the running products d1, d1 d2, ..., and
    the strata: k with the count of roots of Delta^k that are not roots
    of Delta^(k+1).

    Delta^k := 1 when the requested minor size is 0 (k >= n) and := 0
    when minors of that size do not exist or all vanish (split links).
    """
    factors = smith_normal_form(m.univariate_rows())
    prod = LaurentPoly.one()
    delta_k = [prod]
    for d in factors[:m.arc_count - 1]:
        prod = prod * d
        delta_k.append(canonical_poly(prod))
    delta_k += [LaurentPoly.zero()] * (m.arc_count - len(delta_k))
    delta_k.reverse()
    roots = [None if p.is_zero else distinct_root_count(p) for p in delta_k]
    strata = []
    for k in range(1, m.arc_count):
        upper, lower = roots[k - 1], roots[k]
        if upper is not None and lower is not None and upper != lower:
            strata.append((k, upper - lower))
    return AlexanderData(delta_k, factors, strata)


def fibre_dimension(m, t):
    """dim of the fibre of the Alexander fibration over t: n - rank(m(t)).

    t is a nonzero rational (exact rank), a complex or float (SVD rank),
    or a ScalarField, such as ComplexPoint(t, tol) for an SVD tolerance
    other than the default; GenericTField gives the generic fibre.
    NotAUnit at t = 0; UseMultivariableRoute on a link's matrix, at every t.
    """
    if m.variable_count != 1:
        raise UseMultivariableRoute("fibre dimensions need a univariate matrix")
    if isinstance(t, ScalarField):
        field = t
    elif isinstance(t, (complex, float)) and not isinstance(t, bool):
        field = ComplexPoint(t)
    else:
        field = RationalPoint(t)
    rows = m.dense_rows(field.zero,
                        lambda x: field.from_laurent(x.to_laurent()))
    return m.arc_count - fields.mat_rank(field, Mat(rows, m.arc_count))


class VirtualClassPoly(_LaurentCore):
    """Integer polynomial in the Lefschetz motive L."""

    __slots__ = ()
    _var = "L"


def virtual_class(data):
    """[R] = L(L-1) + sum_k |S_K^k| (L^{k+1} - L)."""
    coeffs = {2: 1, 1: -1}
    for k, count in data.strata:
        coeffs[k + 1] = coeffs.get(k + 1, 0) + count
        coeffs[1] = coeffs.get(1, 0) - count
    return VirtualClassPoly(coeffs)


class RingPresentation:
    """Coordinate ring of the representation variety: generators a_1..a_n
    with one linear relation per retained crossing."""

    __slots__ = ("generator_count", "relations")

    def __init__(self, generator_count, relations):
        self.generator_count = generator_count
        self.relations = tuple(tuple(r) for r in relations)

    def render_relation(self, row):
        parts = []
        for idx, coeff in enumerate(row, start=1):
            if coeff.is_zero:
                continue
            var = "a%d" % idx
            if coeff == LaurentPoly.one():
                piece = var
            elif coeff == -LaurentPoly.one():
                piece = "-" + var
            elif len(coeff.coeffs) == 1:
                piece = "%s %s" % (coeff.render(), var)
            else:
                piece = "(%s) %s" % (coeff.render(), var)
            parts.append(piece)
        # no rendered coefficient contains " + -"
        return " + ".join(parts).replace(" + -", " - ") or "0"

    def render(self):
        lines = ["generators: %s"
                 % ", ".join("a%d" % i
                             for i in range(1, self.generator_count + 1))]
        for row in self.relations:
            lines.append("relation: %s = 0" % self.render_relation(row))
        return "\n".join(lines)


def ring_presentation(d):
    if d.component_count != 1:
        raise UseMultivariableRoute("presentation is defined for knots")
    m = alexander_matrix(d)
    return RingPresentation(m.arc_count, m.univariate_rows())


def _torres_quotient(rows, col, var):
    """A_col / (var - 1), A_col the minor of the dense rows without column
    col, as its canonical associate; RouteDisagreement if the division is
    inexact."""
    one = MultiLaurentPoly.one(var.nvars)
    minor = poly_det([row[:col] + row[col + 1:] for row in rows], one)
    try:
        quotient = minor // (var - one)
    except ValueError:
        raise RouteDisagreement(
            "a Fox minor is not divisible by %s - 1" % var.render())
    return mv_normalize(quotient)


def multivariable_alexander(d):
    """Delta_L(t1..ts) of a link of s >= 2 components, from two minors.

    By Torres (Ann. Math. 57, 1953; Fox, Ann. Math. 59, 1954), the minor
    A_j of the Fox matrix without column j is an associate of
    (t_k - 1) Delta_L, t_k being the variable of arc j's component.  So
    Delta_L is A_j / (t_k - 1) for j the first arc of component 1,
    cross-checked against the quotient from the first arc of component 2:
    RouteDisagreement if they differ, if exactly one minor is 0 or if a
    division is inexact.  Delta_L is 0 on a split link, and when a
    component never passes under (more arcs than relations)."""
    if d.component_count < 2:
        raise UseUnivariateRoute("use the univariate route for knots")
    m = alexander_matrix(d)
    nvars = m.variable_count
    if m.arc_count - 1 > len(m.sparse_rows):
        return MultiLaurentPoly.zero(nvars)
    rows = m.rows
    # components are numbered in the order of their least arcs
    second = min(arc for arc, k in d.components.items() if k == 2)
    delta = _torres_quotient(rows, 0, MultiLaurentPoly.variable(1, nvars))
    check = _torres_quotient(rows, second - 1,
                             MultiLaurentPoly.variable(2, nvars))
    if delta != check:
        raise RouteDisagreement(
            "Torres quotients of two Fox minors differ: %s and %s"
            % (delta.render(), check.render()))
    return delta


def knot_delta(d):
    """Delta^1 = d1...d_{n-1} of a crossing list through the Fox route,
    0 with fewer invariant factors (any component count; all weights set
    to the single variable t)."""
    m = alexander_matrix(d, AbelianWeights.all_t(range(1, d.arc_count + 1)))
    factors = smith_normal_form(m.univariate_rows())
    factors += [LaurentPoly.zero()] * (m.arc_count - 1 - len(factors))
    return canonical_poly(math.prod(factors, start=LaurentPoly.one()))
