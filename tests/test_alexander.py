"""Fox-route invariants: Alexander matrices, elementary ideals, fibre
dimensions, virtual classes, ring presentations, multivariable route."""
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from alexkit import alexander
from alexkit.alexander import (alexander_data, alexander_matrix,
                               component_weights, fibre_dimension,
                               knot_delta, multivariable_alexander,
                               ring_presentation, virtual_class,
                               VirtualClassPoly)
from alexkit.burau import closure_alexander
from alexkit.codes import (BraidWord, braid_closure, catalog_lookup,
                           catalog_names, parse_braid)
from alexkit.cli import run
from alexkit.errors import (NotAUnit, RouteDisagreement,
                            UseMultivariableRoute, UseUnivariateRoute)
from alexkit.fields import ComplexPoint
from alexkit.fox import AbelianWeights
from alexkit.laurent import (LaurentPoly, MultiLaurentPoly, canonical_poly,
                             distinct_root_count, gcd_multivariate,
                             mv_normalize, normalize_unit)
from alexkit.snf import poly_det, smith_normal_form
from util import random_braid, random_crossing_list, wirtinger_fox_rows


def test_matrix_shape_and_row_sums():
    """Each Wirtinger row evaluates to 0 at t = 1 (abelianized relation)."""
    d = catalog_lookup("trefoil").crossing_list
    m = alexander_matrix(d)
    assert len(m.rows) == d.arc_count - 1
    for row in m.univariate_rows():
        total = sum(entry.evaluate(Fraction(1)) for entry in row)
        assert total == 0


def _random_monomial_weights(rng, d):
    """One random +-monomial in 1-3 variables per component."""
    nvars = rng.randint(1, 3)
    per_component = {
        comp: MultiLaurentPoly.monomial(
            [rng.randint(-2, 2) for _ in range(nvars)], rng.choice((1, -1)))
        for comp in range(1, d.component_count + 1)}
    return AbelianWeights({arc: per_component[comp]
                           for arc, comp in d.components.items()}, nvars)


def _assert_closed_form_rows(rng, d):
    for weights in (component_weights(d),
                    AbelianWeights.all_t(range(1, d.arc_count + 1)),
                    _random_monomial_weights(rng, d)):
        m = alexander_matrix(d, weights)
        assert m.variable_count == weights.nvars
        assert list(m.rows) == wirtinger_fox_rows(d, weights), d.render()


def test_closed_form_rows_match_wirtinger_relators():
    """The closed-form rows equal the Fox derivatives of the freely
    reduced relators, on braid closures and on kinked crossing lists."""
    rng = random.Random(61)
    for _ in range(800):
        n = rng.randint(1, 6)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                   for _ in range(rng.randint(0, 14) if n > 1 else 0)]
        _assert_closed_form_rows(rng, braid_closure(BraidWord(n, letters)))
    kinks = 0
    for _ in range(1200):
        d = random_crossing_list(rng)
        kinks += sum(c.over in (c.under_in, c.under_out)
                     for c in d.crossings)
        _assert_closed_form_rows(rng, d)
    assert kinks > 1000


def test_sparse_rows_and_dense_views():
    """A row stores its nonzero entries only, at most three; `rows` and
    `univariate_rows()` are dense views of them.  With every weight 1 the
    entries 1 - w vanish, and on kinks coinciding arcs add, to 0 where an
    under arc leaves as it came (w_j - 1)."""
    m = alexander_matrix(braid_closure(BraidWord(3, [1, -2] * 100)))
    assert len(m.sparse_rows) == m.arc_count - 1 == 199
    assert all(0 < len(row) <= 3 for row in m.sparse_rows)
    rng = random.Random(29)
    one = MultiLaurentPoly.one(1)
    kinks = 0
    for _ in range(300):
        d = random_crossing_list(rng)
        kinks += sum(c.over in (c.under_in, c.under_out)
                     for c in d.crossings[:-1])
        arcs = range(1, d.arc_count + 1)
        for weights in (AbelianWeights({arc: one for arc in arcs}, 1),
                        AbelianWeights.all_t(arcs)):
            m = alexander_matrix(d, weights)
            assert all(x for row in m.sparse_rows for x in row.values())
            assert all(len(row) <= 3 for row in m.sparse_rows)
            rows = m.rows
            assert type(rows) is tuple and all(type(r) is tuple
                                               for r in rows)
            assert list(rows) == wirtinger_fox_rows(d, weights), d.render()
            plain = m.univariate_rows()
            assert plain == [[x.to_laurent() for x in row] for row in rows]
            assert all(type(x) is LaurentPoly for row in plain for x in row)
    assert kinks > 100


def test_catalog_knot_deltas():
    for name in catalog_names():
        entry = catalog_lookup(name)
        got = knot_delta(entry.crossing_list)
        assert got == normalize_unit(entry.delta) \
            or (got.is_zero and entry.delta.is_zero), name


def test_delta_route_matches_braid_closure_diagram():
    rng = random.Random(41)
    for _ in range(20):
        b = random_braid(rng, max_len=6)
        d = braid_closure(b)
        p = knot_delta(d)
        assert p.is_zero or p == normalize_unit(p)


def test_fox_route_matches_burau_on_six_strand_knot():
    # a dense Smith form of this 36 x 37 Fox matrix takes about 20 s
    b = parse_braid("6: s2 s5 s5 s2 S5 S5 s3 S5 S1 s3 s1 S5 S5 S2 S2 s3 s3 "
                    "s1 s1 s2 s3 s2 s4 S3 S4 s1 s3 s1 s4 s4 s3 S1 s2 S1 s3 "
                    "S5 S5")
    assert knot_delta(braid_closure(b)) == closure_alexander(b)


def test_fox_route_matches_burau_on_nine_strand_knot():
    # a cofactor-expansion determinant of this Burau minor takes about 23 s
    b = parse_braid("9: S5 S5 S5 s4 S3 s6 S4 s7 S1 S6 S7 S2 S5 s8 s1 s7 "
                    "s3 s8 S6 s8 s2 s1 S7 s1 s3 s1 s7 s5")
    delta = closure_alexander(b)
    assert delta == LaurentPoly({0: 2, 1: -9, 2: 21, 3: -27, 4: 21, 5: -9,
                                 6: 2})
    assert knot_delta(braid_closure(b)) == delta


def test_fox_route_matches_burau_on_200_crossings():
    # (s1 S2)^100: a Smith form whose rows keep their rational content
    # takes about 20 s here, from coefficient growth in the last steps
    b = parse_braid("3: " + " ".join(["s1 S2"] * 100))
    data = alexander_data(alexander_matrix(braid_closure(b)))
    assert data.delta == closure_alexander(b)
    assert [d.spread for d in data.invariant_factors if d.spread] == [98, 100]
    assert data.strata == ((1, 2), (2, 98))


def _check_module_data(d, weights=None):
    """knot_delta agrees with alexander_data, whose Delta^k and strata
    match the products of leading invariant factors taken one k at a
    time."""
    m = alexander_matrix(d, weights)
    data = alexander_data(m)
    n = m.arc_count
    factors = data.invariant_factors
    for k in range(1, n + 1):
        size = n - k
        if size > len(factors):
            want = LaurentPoly.zero()
        else:
            want = LaurentPoly.one()
            for f in factors[:size]:
                want = want * f
        assert data.delta_k[k - 1] == canonical_poly(want), k
    strata = []
    for k in range(1, n):
        upper, lower = data.delta_k[k - 1], data.delta_k[k]
        if not (upper.is_zero or lower.is_zero):
            count = distinct_root_count(upper) - distinct_root_count(lower)
            if count:
                strata.append((k, count))
    assert data.strata == tuple(strata)
    assert knot_delta(d) == data.delta
    return data


def test_knot_delta_matches_alexander_data():
    # connected sums of 2 and 3 trefoils: every Delta^k a product of
    # several nontrivial invariant factors
    for word, strata in (("3: s1 s1 s1 s2 s2 s2", ((2, 2),)),
                         ("4: s1 s1 s1 s2 s2 s2 s3 s3 s3", ((3, 2),))):
        data = _check_module_data(braid_closure(parse_braid(word)))
        assert data.strata == strata
    rng = random.Random(71)
    knots = 0
    while knots < 30:
        b = random_braid(rng, max_strands=6, max_len=14)
        if b.component_count() == 1:
            knots += 1
            _check_module_data(braid_closure(b))


def test_knot_delta_matches_alexander_data_on_links():
    """Links go through the all-t weights; a split link has Delta = 0."""
    rng = random.Random(73)
    links = 0
    while links < 10:
        b = random_braid(rng, max_strands=5, max_len=12)
        if b.component_count() != 2:
            continue
        links += 1
        d = braid_closure(b)
        _check_module_data(d, AbelianWeights.all_t(range(1, d.arc_count + 1)))
    one_crossing = braid_closure(parse_braid("2: s1"))
    assert one_crossing.arc_count == 1
    assert _check_module_data(one_crossing).delta == LaurentPoly.one()
    split = braid_closure(parse_braid("3: s1 s1"))
    weights = AbelianWeights.all_t(range(1, split.arc_count + 1))
    assert _check_module_data(split, weights).delta.is_zero


def test_trefoil_module_data():
    d = catalog_lookup("trefoil").crossing_list
    data = alexander_data(alexander_matrix(d))
    one = LaurentPoly.one()
    delta = LaurentPoly({0: 1, 1: -1, 2: 1})
    assert list(data.invariant_factors) == [one, delta]
    assert data.delta == delta
    assert data.delta_k[1] == one  # Delta^2
    assert data.strata == ((1, 2),)


def test_unknot_module_data():
    d = catalog_lookup("unknot").crossing_list
    data = alexander_data(alexander_matrix(d))
    assert data.delta == LaurentPoly.one()
    assert data.strata == ()


def test_virtual_classes():
    cases = {"unknot": {2: 1, 1: -1},
             "trefoil": {2: 3, 1: -3},
             "figure8": {2: 3, 1: -3}}
    for name, want in cases.items():
        d = catalog_lookup(name).crossing_list
        data = alexander_data(alexander_matrix(d))
        assert virtual_class(data) == VirtualClassPoly(want), name


def test_virtual_class_render():
    vc = VirtualClassPoly({2: 3, 1: -3})
    assert vc.render() == "-3 L + 3 L^2"


def test_fibre_dimension_trefoil():
    m = alexander_matrix(catalog_lookup("trefoil").crossing_list)
    assert fibre_dimension(m, Fraction(2)) == 1
    assert fibre_dimension(m, Fraction(-1)) == 1
    root = complex(0.5, np.sqrt(3) / 2)  # zero of t^2 - t + 1
    assert fibre_dimension(m, ComplexPoint(root, 1e-6)) == 2
    with pytest.raises(NotAUnit):
        fibre_dimension(m, 0)


def test_fibre_dimension_jumps_at_rational_roots():
    # stevedore 6_1, Delta = 2 - 5t + 2t^2 = (2 - t)(1 - 2t): Delta is the
    # singular locus, and at its rational roots exact elimination sees it
    m = alexander_matrix(braid_closure(parse_braid("4: s1 s1 s2 S1 S3 s2 S3")))
    data = alexander_data(m)
    assert data.delta == LaurentPoly({0: 2, 1: -5, 2: 2})
    assert data.strata == ((1, 2),)
    for t, dim in (("2", 2), ("1/2", 2), ("3", 1), ("-1", 1)):
        assert fibre_dimension(m, Fraction(t)) == dim, t


def _random_knot_braid(rng, max_strands, max_len):
    while True:
        b = random_braid(rng, max_strands=max_strands, max_len=max_len)
        if b.letters and b.component_count() == 1:
            return b


def test_fibre_dimension_matches_smith_form():
    """n - rank M(t) by exact elimination equals n minus the number of
    Smith invariant factors that do not vanish at t: the two routes
    share no code.  Connected sums of k stevedore knots (roots 2 and 1/2
    of Delta = 2 - 5t + 2t^2) have fibre dimension k + 1 there."""
    rng = random.Random(61)
    stevedore = (1, 1, 2, -1, -3, 2, -3)
    braids = [_random_knot_braid(rng, 8, 40) for _ in range(10)]
    sums = [BraidWord(3 * k + 1, [x + 3 * i if x > 0 else x - 3 * i
                                  for i in range(k) for x in stevedore])
            for k in range(1, 5)]
    braids += sums
    braids += [BraidWord(3, [1, -2] * k) for k in (1, 2, 4, 11, 23, 50)]
    points = [Fraction(t) for t in ("2", "1/2", "-1", "3")]
    for b in braids:
        m = alexander_matrix(braid_closure(b))
        factors = smith_normal_form(m.univariate_rows())
        for t in points:
            nonvanishing = sum(1 for d in factors if d.evaluate(t) != 0)
            dim = fibre_dimension(m, t)
            assert dim == m.arc_count - nonvanishing, (b.render(), t)
            if b in sums and t in (2, Fraction(1, 2)):
                assert dim == b.strands // 3 + 1


def test_fibre_dimension_unknot():
    m = alexander_matrix(catalog_lookup("unknot").crossing_list)
    assert fibre_dimension(m, Fraction(5)) == 1


def test_ring_presentation():
    d = catalog_lookup("trefoil").crossing_list
    pres = ring_presentation(d)
    assert pres.generator_count == 3
    assert len(pres.relations) == 2
    text = pres.render()
    assert text.startswith("generators: a1, a2, a3")
    assert "relation:" in text
    with pytest.raises(UseMultivariableRoute):
        ring_presentation(catalog_lookup("hopf").crossing_list)


def test_multivariable_hopf():
    d = catalog_lookup("hopf").crossing_list
    mv = multivariable_alexander(d)
    assert mv == MultiLaurentPoly.one(2)
    with pytest.raises(UseUnivariateRoute):
        multivariable_alexander(catalog_lookup("trefoil").crossing_list)


def test_multivariable_unlink_is_zero():
    d = braid_closure(BraidWord(2))
    assert multivariable_alexander(d).is_zero
    assert knot_delta(d).is_zero


def _fox_minors(d):
    """Every (n-1)-minor A_j of the multivariable Fox matrix, or None when
    there are fewer relations than n - 1."""
    m = alexander_matrix(d)
    n = m.arc_count
    if n - 1 > len(m.rows):
        return None
    one = MultiLaurentPoly.one(m.variable_count)
    return [poly_det([[x for j, x in enumerate(row) if j != col]
                      for row in m.rows], one) for col in range(n)]


_LINK_WORDS = ("2:", "3:", "3: s1", "3: s1 s1", "4: s1 s1 s3 s3",
               "5: s1 s1 s3 s4 s3 s4", "2: s1 S1", "3: s1 s1 s2 s2")


def _link_diagrams():
    """Catalog links, split links, crossing-less strands and 50 random 2-
    and 3-component closures on at most 5 strands and 12 letters, each
    generator present (a strand without crossings makes Delta_L = 0)."""
    diagrams = [catalog_lookup(name).crossing_list
                for name in ("hopf", "solomon")]
    diagrams += [braid_closure(parse_braid(w)) for w in _LINK_WORDS]
    rng = random.Random(83)
    links = 0
    while links < 50:
        b = random_braid(rng, max_strands=5, max_len=12)
        used = {abs(x) for x in b.letters}
        if b.component_count() in (2, 3) and len(used) == b.strands - 1:
            links += 1
            diagrams.append(braid_closure(b))
    return diagrams


def test_multivariable_matches_gcd_of_all_minors():
    """The two Torres minors give the gcd of all n minors."""
    nonzero = 0
    for d in _link_diagrams():
        minors = _fox_minors(d)
        nvars = d.component_count
        want = (MultiLaurentPoly.zero(nvars) if minors is None
                else gcd_multivariate(minors))
        got = multivariable_alexander(d)
        assert got == want
        nonzero += not got.is_zero
    assert nonzero >= 25


def test_every_minor_is_torres_associate():
    """A_j = (t_k - 1) Delta_L up to a unit, k the component of arc j."""
    for d in _link_diagrams():
        delta = multivariable_alexander(d)
        minors = _fox_minors(d)
        if minors is None:
            assert delta.is_zero
            continue
        one = MultiLaurentPoly.one(delta.nvars)
        for j, minor in enumerate(minors):
            t_k = MultiLaurentPoly.variable(d.components[j + 1], delta.nvars)
            assert mv_normalize(minor) == mv_normalize((t_k - one) * delta)


@pytest.mark.parametrize("wrong", ["factor", "zero", "inexact"])
def test_disagreeing_second_minor(wrong, tmp_path, capsys, monkeypatch):
    """A second minor off Torres's form raises RouteDisagreement: a
    different quotient, a lone zero minor, or no factor t2 - 1."""
    word = "2: s1 s1 s1 s1"
    one = MultiLaurentPoly.one(2)
    calls = []

    def patched(rows, unit):
        det = poly_det(rows, unit)
        calls.append(det)
        if len(calls) % 2:
            return det
        return {"factor": det * (MultiLaurentPoly.variable(1, 2) + one),
                "zero": MultiLaurentPoly.zero(2),
                "inexact": one}[wrong]

    monkeypatch.setattr(alexander, "poly_det", patched)
    with pytest.raises(RouteDisagreement):
        multivariable_alexander(braid_closure(parse_braid(word)))
    assert run(["alexander", word]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    path = tmp_path / "batch.txt"
    path.write_text(word + "\n")
    assert run(["alexander", "--file", str(path)]) == 0
    line = json.loads(capsys.readouterr().out)
    assert (line["error_type"], line["exit_code"]) == ("RouteDisagreement", 1)


def test_solomon_link_delta():
    d = catalog_lookup("solomon").crossing_list
    assert d.component_count == 2
    got = knot_delta(d)
    assert got == normalize_unit(LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1}))


def test_component_weights_shape():
    d = catalog_lookup("hopf").crossing_list
    w = component_weights(d)
    assert w.nvars == 2
    assert w.weight(1) == MultiLaurentPoly.variable(1, 2)
    assert w.weight(2) == MultiLaurentPoly.variable(2, 2)


def test_knot_sanity_properties():
    """Delta(1) = +-1 and Delta(t) = Delta(1/t) up to units, for knots."""
    rng = random.Random(53)
    checked = 0
    while checked < 15:
        b = random_braid(rng, max_len=7)
        if b.component_count() != 1:
            continue
        checked += 1
        p = knot_delta(braid_closure(b))
        assert abs(p.evaluate(Fraction(1))) == 1
        mirror = LaurentPoly({-e: c for e, c in p.coeffs.items()})
        assert normalize_unit(mirror) == p
