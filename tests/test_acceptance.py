"""Acceptance gate: thirteen end-to-end criteria, each reporting one
PASS/FAIL line on the real stdout regardless of capture."""
import functools
import random
from fractions import Fraction

import numpy as np

import acceptance_log

from alexkit.alexander import (alexander_data, alexander_matrix,
                               fibre_dimension, knot_delta,
                               multivariable_alexander, virtual_class,
                               VirtualClassPoly)
from alexkit.burau import burau_reduced, burau_unreduced, closure_alexander
from alexkit.codes import BraidWord, braid_closure, catalog_lookup
from alexkit.fields import ComplexPoint, GenericTField, RationalPoint
from alexkit.fox import (AbelianWeights, fox_derivative_abelianized,
                         reduce_word)
from alexkit.laurent import LaurentPoly, normalize_unit, pseudo_divmod
from alexkit.snf import poly_det, smith_normal_form
from alexkit.tangles import (Compose, Tensor, braid_closure_expr,
                             closed_tangle_delta, compose_spans,
                             evaluate_tangle, parse_tangle, spans_equivalent,
                             tangle_linear_system, tensor_spans)
from util import random_braid, random_poly, random_tangle_expr


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                acceptance_log.record("criterion %2d: FAIL - %s"
                                      % (num, desc))
                raise
            acceptance_log.record("criterion %2d: PASS - %s" % (num, desc))
        return wrapper
    return deco


def _lp(d):
    return LaurentPoly(d)


def _triple_route(name, expected):
    entry = catalog_lookup(name)
    want = normalize_unit(expected)
    fox = knot_delta(entry.crossing_list)
    burau = closure_alexander(entry.braid)
    tqft = closed_tangle_delta(braid_closure_expr(entry.braid))
    assert fox == want, "fox route: %s" % fox.render()
    assert burau == want, "burau route: %s" % burau.render()
    assert tqft == want, "tqft route: %s" % tqft.render()


@criterion(1, "trefoil: three routes agree on 1 - t + t^2")
def test_trefoil_triple_route():
    _triple_route("trefoil", _lp({0: 1, 1: -1, 2: 1}))


@criterion(2, "figure-eight: three routes agree on 1 - 3t + t^2")
def test_figure_eight_triple_route():
    _triple_route("figure8", _lp({0: 1, 1: -3, 2: 1}))


@criterion(3, "trefoil fibre dimensions: 1 generically, 2 at Delta roots")
def test_fibre_dimensions():
    m = alexander_matrix(catalog_lookup("trefoil").crossing_list)
    delta = _lp({0: 1, 1: -1, 2: 1})
    rng = random.Random(3)
    found = 0
    while found < 20:
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        if t == 0 or delta.evaluate(t) == 0:
            continue
        found += 1
        assert fibre_dimension(m, t) == 1, "t=%s" % t
    roots = np.roots([c for _, c in sorted(delta.coeffs.items(),
                                           reverse=True)])
    assert len(roots) == 2
    for root in roots:
        assert abs(delta.evaluate(complex(root))) < 1e-9
        assert fibre_dimension(m, ComplexPoint(complex(root), 1e-6)) == 2


@criterion(4, "Fox derivative of x1^2 x2 x1^-1 is (1 + t - t^2, t^2)")
def test_fox_example():
    w = AbelianWeights.all_t([1, 2])
    word = reduce_word([1, 1, 2, -1])
    d1 = fox_derivative_abelianized(word, 1, w).to_laurent()
    d2 = fox_derivative_abelianized(word, 2, w).to_laurent()
    assert d1 == _lp({0: 1, 1: 1, 2: -1})
    assert d2 == _lp({2: 1})


@criterion(5, "Burau generator block and 200 randomized braid relations")
def test_burau_relations():
    block = burau_unreduced(BraidWord(2, [1]))
    assert [list(r) for r in block.rows] == [
        [_lp({0: 1, 1: -1}), _lp({1: 1})], [_lp({0: 1}), _lp({})]]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 5)
        i = rng.randint(1, n - 2)
        assert burau_unreduced(BraidWord(n, [i, i + 1, i])) == \
            burau_unreduced(BraidWord(n, [i + 1, i, i + 1]))
        far = [j for j in range(1, n) if abs(j - i) >= 2]
        if far:
            j = rng.choice(far)
            assert burau_unreduced(BraidWord(n, [i, j])) == \
                burau_unreduced(BraidWord(n, [j, i]))


@criterion(6, "fixed line A.1 = 1 and det(Id - A) = 0 for 100 braids")
def test_fixed_line_and_determinant():
    rng = random.Random(6)
    one = LaurentPoly.one()
    for _ in range(100):
        b = random_braid(rng, max_strands=4, max_len=8)
        m = burau_unreduced(b)
        for row in m.rows:
            total = LaurentPoly.zero()
            for x in row:
                total = total + x
            assert total == one
        rows = [[(one - x) if i == j else -x for j, x in enumerate(row)]
                for i, row in enumerate(m.rows)]
        assert poly_det(rows, one).is_zero


@criterion(7, "Markov invariance under 100 conjugations/stabilizations")
def test_markov_invariance():
    rng = random.Random(7)
    for _ in range(100):
        b = random_braid(rng, max_strands=4, max_len=6)
        base = closure_alexander(b)
        if rng.random() < 0.5:
            g = rng.choice([1, -1]) * rng.randint(1, b.strands - 1)
            moved = BraidWord(b.strands, [g] + list(b.letters) + [-g])
        else:
            sign = rng.choice([1, -1])
            moved = BraidWord(b.strands + 1,
                              list(b.letters) + [sign * b.strands])
        assert closure_alexander(moved) == base, b.render()


@criterion(8, "reduced-Burau formula matches the minor formula, 50 knots")
def test_reduced_formula_consistency():
    rng = random.Random(8)
    one = LaurentPoly.one()
    t = LaurentPoly.t()
    checked = 0
    while checked < 50:
        b = random_braid(rng, max_strands=4, max_len=7)
        if b.component_count() != 1:
            continue
        checked += 1
        m = burau_unreduced(b)
        rows = [[(one - x) if i == j else -x for j, x in enumerate(row)]
                for i, row in enumerate(m.rows)]
        minor = poly_det([r[1:] for r in rows[1:]], one)
        red = burau_reduced(b)
        red_rows = [[(one - x) if i == j else -x
                     for j, x in enumerate(row)]
                    for i, row in enumerate(red)]
        lhs = (one - t) * poly_det(red_rows, one)
        rhs = (one - t ** b.strands) * minor
        assert normalize_unit(lhs) == normalize_unit(rhs), b.render()
        ratio = lhs // rhs  # exact: the quotient is a unit
        assert ratio.is_unit()


@criterion(9, "span laws and two-route agreement on 100 random tangles")
def test_tqft_laws():
    fields = [GenericTField()] + [RationalPoint(v)
                                  for v in (2, 3, -1, 5, Fraction(1, 2))]
    law_pairs = [
        ("xp ; xm", "id+ # id+"),
        ("(xp # id+) ; (id+ # xp) ; (xp # id+)",
         "(id+ # xp) ; (xp # id+) ; (id+ # xp)"),
        ("(coev+- # id+) ; (id+ # ev-+)", "id+"),
        ("(id+ # coev-+) ; (ev+- # id+)", "id+"),
    ]
    for f in fields:
        for left, right in law_pairs:
            assert spans_equivalent(
                evaluate_tangle(parse_tangle(left), f),
                evaluate_tangle(parse_tangle(right), f)), (left, f.describe())
    rng = random.Random(9)
    for trial in range(100):
        e = random_tangle_expr(rng, max_gens=12)
        for f in fields:
            comp = evaluate_tangle(e, f)
            glob = tangle_linear_system(e, f)
            assert spans_equivalent(comp, glob), (e.render(), f.describe())
            if trial % 10 == 0:
                # functoriality / monoidality on explicit constructions
                assert spans_equivalent(
                    tensor_spans(comp, comp),
                    evaluate_tangle(Tensor(e, e), f))
                if e.target == e.source:
                    assert spans_equivalent(
                        compose_spans(comp, comp),
                        evaluate_tangle(Compose(e, e), f))


@criterion(10, "Smith form: trefoil factors, divisibility, minor-gcd oracle")
def test_module_structure():
    data = alexander_data(
        alexander_matrix(catalog_lookup("trefoil").crossing_list))
    assert list(data.invariant_factors) == [
        LaurentPoly.one(), _lp({0: 1, 1: -1, 2: 1})]

    def check_chain(delta_k):
        for upper, lower in zip(delta_k, delta_k[1:]):
            # lower = Delta^{k+1} divides upper = Delta^k
            if lower.is_zero:
                assert upper.is_zero
            elif not upper.is_zero:
                assert pseudo_divmod(upper, lower)[2].is_zero

    for name in ("unknot", "trefoil", "figure8", "hopf", "solomon"):
        entry = catalog_lookup(name)
        m = alexander_matrix(braid_closure(entry.braid),
                             _all_t_weights(braid_closure(entry.braid)))
        check_chain(alexander_data(m).delta_k)
    rng = random.Random(10)
    for _ in range(50):
        d = braid_closure(random_braid(rng, max_len=6))
        check_chain(alexander_data(alexander_matrix(
            d, _all_t_weights(d))).delta_k)
    # SNF against the brute-force minor-gcd oracle
    from test_snf import _minor_gcd_oracle, _to_sympy
    import sympy
    t = sympy.symbols("t")
    for _ in range(8):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[random_poly(rng, max_deg=2) for _ in range(ncols)]
                for _ in range(nrows)]
        factors = smith_normal_form(rows)
        prod = LaurentPoly.one()
        for size, dfac in enumerate(factors, start=1):
            prod = prod * dfac
            want = _minor_gcd_oracle(rows, size)
            got = sympy.Poly(_to_sympy(normalize_unit(prod)), t).monic()
            assert want is not None and got == want


def _all_t_weights(d):
    from alexkit.laurent import MultiLaurentPoly
    tvar = MultiLaurentPoly.variable(1, 1)
    return AbelianWeights({a: tvar for a in range(1, d.arc_count + 1)}, 1)


@criterion(11, "virtual classes: unknot, trefoil, figure-eight")
def test_virtual_classes():
    cases = {"unknot": {2: 1, 1: -1},
             "trefoil": {2: 3, 1: -3},
             "figure8": {2: 3, 1: -3}}
    for name, want in cases.items():
        data = alexander_data(
            alexander_matrix(catalog_lookup(name).crossing_list))
        assert virtual_class(data) == VirtualClassPoly(want), name


@criterion(12, "knot sanity: Delta(1) = +-1 and Delta(t) = Delta(1/t)")
def test_knot_sanity():
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        b = random_braid(rng, max_len=7)
        if b.component_count() != 1:
            continue
        checked += 1
        p = knot_delta(braid_closure(b))
        assert abs(p.evaluate(Fraction(1))) == 1, b.render()
        mirror = LaurentPoly({-e: c for e, c in p.coeffs.items()})
        assert normalize_unit(mirror) == p, b.render()


@criterion(13, "split unlink: Delta = 0 on both routes, mid dimension 2")
def test_split_unlink():
    unlink = BraidWord(2)
    d = braid_closure(unlink)
    assert knot_delta(d).is_zero
    assert multivariable_alexander(d).is_zero
    expr = braid_closure_expr(unlink)
    assert closed_tangle_delta(expr).is_zero
    assert evaluate_tangle(expr, GenericTField()).mid_dim == 2
