"""Tangle DSL parsing and span-valued evaluation: category laws,
Reidemeister equivalences, and the global linear-system route."""
import cmath
import random
from fractions import Fraction
from functools import reduce

import pytest

import alexkit.snf
import alexkit.tangles
from alexkit.alexander import knot_delta
from alexkit.burau import burau_unreduced, span_trace_fix
from alexkit.codes import BraidWord, braid_closure, catalog_lookup
from alexkit.errors import (BoundaryMismatch, DimensionMismatch,
                            ParseError, ValidationError)
from alexkit.fields import (ComplexPoint, GenericTField, Mat, RationalPoint,
                            mat_mul)
from alexkit.laurent import LaurentPoly, canonical_poly, normalize_unit
from alexkit.snf import smith_normal_form
from alexkit.tangles import (Compose, Gen, Tensor, braid_closure_expr,
                             MAX_DEPTH, Span, braid_expr, closed_tangle_delta,
                             compose_spans, evaluate_tangle, generator_span,
                             identity_span, parse_tangle,
                             spans_equivalent, tangle_linear_system,
                             tangle_system, tensor_spans)
from util import random_tangle_expr

FIELDS = [GenericTField(), RationalPoint(2), RationalPoint(-3),
          ComplexPoint(cmath.exp(2j * cmath.pi / 5))]


def test_parse_shapes():
    e = parse_tangle("xp ; xm")
    assert isinstance(e, Compose)
    assert e.source == ("+", "+") and e.target == ("+", "+")
    e = parse_tangle("(coev-+ # id+) ; (id- # xp)")
    assert e.source == ("+",) and e.target == ("-", "+", "+")
    assert parse_tangle(e.render()).render() == e.render()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tangle("bogus")
    with pytest.raises(ParseError):
        parse_tangle("(xp ; xm")
    with pytest.raises(ParseError):
        parse_tangle("xp xp")
    with pytest.raises(BoundaryMismatch):
        parse_tangle("xp ; id+")
    with pytest.raises(BoundaryMismatch):
        parse_tangle("ev+- ; ev-+")
    # whitespace, \x1c among it, is skipped before the offending input;
    # a name cut short is unexpected input, up to eight characters of it
    for text, bad, pos in (("  ?xp", "?xp", 2), ("xp ;\t ! ", "! ", 6),
                           ("xp\x1c$", "$", 3),
                           ("\x1c\x1c xp ; coev", "coev", 8),
                           ("xp ; coev-xp ; id+#xm ; xp", "coev-xp ", 5)):
        with pytest.raises(ParseError) as err:
            parse_tangle(text)
        assert err.value.position == pos
        assert str(err.value) == "unexpected input %r (at position %d)" % (
            bad, pos)


def _nested(depth):
    """Parentheses `depth` deep: around `xp`; each holding one
    composition; and each holding a composition of a tensor, the deepest
    tree a parenthesis allows (two levels each), closing one more circle
    a level."""
    alternating = "coev+- ; ev+-"
    for _ in range(depth):
        alternating = "coev+- ; ev+- # (%s)" % alternating
    return ["(" * depth + "xp" + ")" * depth,
            "(id+ ; " * depth + "id+" + ")" * depth, alternating]


def test_parse_depth_limit():
    """Parentheses up to MAX_DEPTH parse, and every recursive walk of the
    tree then runs; one level more raises ParseError instead of
    RecursionError.  `;` and `#` chains are flat, so no length of them
    nests."""
    field = GenericTField()
    chains = [" ; ".join(["id+"] * 5000), " # ".join(["id+"] * 5000)]
    for text in _nested(MAX_DEPTH) + chains:
        expr = parse_tangle(text)
        assert parse_tangle(expr.render()).render() == expr.render()
        span = evaluate_tangle(expr, field)
        assert span.src_dim == len(expr.source)
        assert tangle_system(expr).nvars >= 1
    for text in _nested(MAX_DEPTH + 1):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_tangle(text)
    assert [len(parse_tangle(text).factors) for text in chains] == [5000,
                                                                    5000]


def test_flat_factors():
    """Chains of one kind splice into one node; seams are checked, and a
    parsed mismatch names its ';'."""
    a, b, c = Gen("xp"), Gen("xm"), Gen("xp")
    assert Compose(Compose(a, b), c).factors == (a, b, c)
    assert Compose(a, Compose(b, c)).factors == (a, b, c)
    assert Tensor(a, Tensor(b, c)).factors == (a, b, c)
    mixed = Tensor(Compose(a, b), c)
    assert mixed.render() == "(xp ; xm) # xp"
    assert Compose(mixed, mixed).factors == (mixed, mixed)
    with pytest.raises(BoundaryMismatch) as info:
        parse_tangle("xp ; xm ; id+ # id+ ; ev+-")
    assert info.value.position == 20


def test_empty_chains():
    """An empty composition has no boundary and tensor_spans() no field:
    both are ValidationErrors.  The empty tensor is the identity on 0."""
    with pytest.raises(ValidationError):
        Compose()
    with pytest.raises(ValidationError):
        tensor_spans()
    for field in FIELDS:
        span = evaluate_tangle(Tensor(), field)
        zero = identity_span(field, 0)
        assert (span.src_dim, span.mid_dim, span.tgt_dim) == (0, 0, 0)
        assert (span.left.rows, span.left.ncols) == (zero.left.rows,
                                                     zero.left.ncols)
        assert (span.right.rows, span.right.ncols) == (zero.right.rows,
                                                       zero.right.ncols)
        assert spans_equivalent(span, tangle_linear_system(Tensor(), field))


def test_long_braid_walks():
    """A braid of 1000 letters is one composition: evaluating it, slicing
    it into a system and rendering it recurse no deeper than a short one."""
    e = braid_expr(BraidWord(3, [1, -2] * 500))
    span = evaluate_tangle(e, RationalPoint(2))
    assert (span.src_dim, span.mid_dim, span.tgt_dim) == (3, 3, 3)
    assert tangle_system(e).nvars == 4000
    assert parse_tangle(e.render()).render() == e.render()


def test_generator_span_dims():
    from alexkit.tangles import GENERATOR_TYPES
    f = GenericTField()
    for name, (src, tgt) in GENERATOR_TYPES.items():
        s = evaluate_tangle(Gen(name), f)
        assert (s.src_dim, s.tgt_dim) == (len(src), len(tgt)), name
    # a span is its two maps: they give the dimensions, and must share mid
    one, zero = f.one, f.zero
    s = Span(f, Mat([[one, zero], [zero, one], [one, one]], 2),
             Mat([[one, one]], 2))
    assert (s.src_dim, s.mid_dim, s.tgt_dim) == (3, 2, 1)
    with pytest.raises(DimensionMismatch):
        Span(f, Mat([[one, zero]], 2), Mat([[one]], 1))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_reidemeister_and_snake(field):
    pairs = [
        ("xp ; xm", "id+ # id+"),                      # R2
        ("xm ; xp", "id+ # id+"),                      # R2
        ("(xp # id+) ; (id+ # xp) ; (xp # id+)",
         "(id+ # xp) ; (xp # id+) ; (id+ # xp)"),      # R3
        ("(coev+- # id+) ; (id+ # ev-+)", "id+"),      # snake
        ("(id+ # coev-+) ; (ev+- # id+)", "id+"),      # snake
    ]
    for left, right in pairs:
        a = evaluate_tangle(parse_tangle(left), field)
        b = evaluate_tangle(parse_tangle(right), field)
        assert spans_equivalent(a, b), (left, right, field.describe())


def test_span_equivalence_discriminates():
    f = GenericTField()
    ev = evaluate_tangle(parse_tangle("ev+-"), f)
    cup_cap = evaluate_tangle(parse_tangle("coev+- ; ev+-"), f)
    other_circle = evaluate_tangle(parse_tangle("coev-+ ; ev-+"), f)
    circle2 = evaluate_tangle(
        parse_tangle("(coev+- # coev+-) ; (ev+- # ev+-)"), f)
    assert not spans_equivalent(cup_cap, circle2)  # mid dims 1 vs 2
    assert spans_equivalent(cup_cap, other_circle)
    with pytest.raises(DimensionMismatch):
        spans_equivalent(ev, cup_cap)


@pytest.mark.parametrize("make, other", [
    (GenericTField, lambda: RationalPoint(2)),
    (lambda: RationalPoint(2), lambda: RationalPoint(3)),
    (lambda: ComplexPoint(2), lambda: ComplexPoint(2, 1e-6)),
    (lambda: ComplexPoint(2), lambda: RationalPoint(2)),
], ids=["generic", "rational", "complex", "complex-rational"])
def test_fields_are_values(make, other):
    """Spans over two equal fields compose, tensor and compare; spans over
    fields of another class or other data raise DimensionMismatch."""
    f, g = make(), make()
    assert f is not g and f == g and hash(f) == hash(g) and f != other()
    xp, xm = generator_span("xp", f), generator_span("xm", g)
    assert spans_equivalent(compose_spans(xp, xm), identity_span(g, 2))
    assert tensor_spans(xp, xm).mid_dim == 4
    assert spans_equivalent(xp, generator_span("xp", g))
    alien = generator_span("xm", other())
    for call in (compose_spans, tensor_spans, spans_equivalent):
        with pytest.raises(DimensionMismatch):
            call(xp, alien)


def test_category_laws_random():
    rng = random.Random(61)
    f = RationalPoint(3)
    for _ in range(10):
        e = random_tangle_expr(rng)
        s = evaluate_tangle(e, f)
        # identity laws
        ids_src = [Gen("id+" if x == "+" else "id-") for x in e.source]
        if ids_src:
            chain = ids_src[0]
            for g in ids_src[1:]:
                chain = Tensor(chain, g)
            pre = evaluate_tangle(Compose(chain, e), f)
            assert spans_equivalent(pre, s)
        # monoidality: tensor of evaluations equals evaluation of tensor
        t1 = tensor_spans(s, s)
        t2 = evaluate_tangle(Tensor(e, e), f)
        assert spans_equivalent(t1, t2)


def test_compose_associativity():
    f = GenericTField()
    a = parse_tangle("coev-+")
    mid = parse_tangle("id- # id+")
    left = compose_spans(compose_spans(evaluate_tangle(a, f),
                                       evaluate_tangle(mid, f)),
                         evaluate_tangle(mid, f))
    right = compose_spans(evaluate_tangle(a, f),
                          compose_spans(evaluate_tangle(mid, f),
                                        evaluate_tangle(mid, f)))
    assert spans_equivalent(left, right)


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.describe())
def test_two_routes_agree_random(field):
    rng = random.Random(67)
    for _ in range(12):
        e = random_tangle_expr(rng)
        assert spans_equivalent(evaluate_tangle(e, field),
                                tangle_linear_system(e, field)), e.render()


def _open_braid(rng, n, length):
    return BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(length)])


def test_two_routes_agree_larger_braids():
    # open braids of 5-6 strands and 20 letters, each at one rational t,
    # and of 5 strands and 16 letters at generic t
    rng = random.Random(71)
    draws = [(_open_braid(rng, rng.randint(5, 6), 20),
              RationalPoint(Fraction(t)))
             for t in ("2/3", "-3", "5/2", "2", "-1/2", "3/4", "-2", "1/3")]
    draws += [(_open_braid(rng, 5, 16), GenericTField()) for _ in range(6)]
    for b, field in draws:
        e = braid_expr(b)
        assert spans_equivalent(evaluate_tangle(e, field),
                                tangle_linear_system(e, field)), b.render()


def _fraction_kernel(rows, ncols):
    """Reference kernel over the rationals: Gauss-Jordan elimination on
    Fractions, then one basis vector per free column (the reduced row
    echelon basis: 1 there, minus the pivot rows' entries there)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        lead = rows[r] = [x / pivot for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, lead)]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][free]
        basis.append(v)
    return basis


def _fraction_compose(s1, s2):
    """Reference pullback composition through `_fraction_kernel`."""
    glue = [list(g) + [-x for x in f]
            for g, f in zip(s1.right.rows, s2.left.rows)]
    basis = _fraction_kernel(glue, s1.mid_dim + s2.mid_dim)

    def part(rows):
        return Mat([[v[i] for v in basis] for i in rows], len(basis))

    field = s1.field
    return Span(field, mat_mul(field, s1.left, part(range(s1.mid_dim))),
                mat_mul(field, s2.right, part(range(
                    s1.mid_dim, s1.mid_dim + s2.mid_dim))))


def _old_leg_fold(expr, field, compose):
    """Reference evaluation from the crossing legs I, [[1 - t, t], [1, 0]]
    and I, [[0, 1], [t^-1, 1 - t^-1]], with Fractions at a rational t,
    composed by `compose`."""
    t = field.t
    one = Fraction(1) if isinstance(field, RationalPoint) else field.one
    zero = one - one
    tinv = t.term_inverse() if isinstance(field, GenericTField) else one / t
    ident = Mat([[one, zero], [zero, one]], 2)
    legs = {"xp": Mat([[one - t, t], [one, zero]], 2),
            "xm": Mat([[zero, one], [tinv, one - tinv]], 2)}

    def fold(node):
        if isinstance(node, Gen):
            if node.name in legs:
                return Span(field, ident, legs[node.name])
            return generator_span(node.name, field)
        spans = [fold(f) for f in node.factors]
        if not spans:
            return identity_span(field, 0)
        if isinstance(node, Compose):
            return reduce(compose, spans)
        return tensor_spans(*spans)

    return fold(expr)


def test_spans_over_the_integers_at_rational_t():
    """At a rational t both routes give spans whose entries are ints,
    equivalent to the Fraction-leg reference; at generic and complex t
    the legs are the reference's, so the spans equal its spans exactly."""
    rng = random.Random(83)
    exprs = [random_tangle_expr(rng) for _ in range(8)]
    exprs += [braid_expr(_open_braid(rng, rng.randint(2, 4),
                                     rng.randint(0, 8))) for _ in range(4)]
    exprs += [braid_closure_expr(_open_braid(rng, 3, 5)) for _ in range(2)]
    for field in (RationalPoint(Fraction(-2, 3)),
                  RationalPoint(Fraction(1, 10 ** 6 + 1))):
        for e in exprs:
            reference = _old_leg_fold(e, field, _fraction_compose)
            for s in (evaluate_tangle(e, field),
                      tangle_linear_system(e, field)):
                assert all(type(x) is int for m in (s.left, s.right)
                           for row in m.rows for x in row), e.render()
                assert spans_equivalent(s, reference), e.render()
    for field in (GenericTField(), ComplexPoint(cmath.exp(1j))):
        for e in exprs:
            reference = _old_leg_fold(e, field, compose_spans)
            s = evaluate_tangle(e, field)
            assert (s.left.rows, s.right.rows) == (reference.left.rows,
                                                   reference.right.rows)


def test_tqft_recovers_burau():
    """The paper's claim that the span TQFT recovers the Burau
    representation, at rational, generic and complex t: an open braid w
    evaluates to a span of mid dimension n whose right leg is B(w reversed)
    times its left leg, B the unreduced Burau matrix, and a closure has the
    mid dimension of the span trace of B(w)."""
    rng = random.Random(79)
    fields = (RationalPoint(Fraction(-2, 3)), GenericTField(),
              ComplexPoint(cmath.exp(1j)))
    for _ in range(16):
        n = rng.randint(2, 5)
        w = _open_braid(rng, n, rng.randint(0, 10))
        b = burau_unreduced(BraidWord(n, w.letters[::-1]))
        for field in fields:
            span = evaluate_tangle(braid_expr(w), field)
            assert span.mid_dim == n
            image = mat_mul(field, Mat([[field.from_laurent(x) for x in row]
                                        for row in b.rows], n), span.left)
            if field.exact:
                assert image.rows == span.right.rows, w.render()
            else:
                assert all(abs(x - y) < 1e-9 for r, s in zip(
                    image.rows, span.right.rows) for x, y in zip(r, s))
            closed = evaluate_tangle(braid_closure_expr(w), field)
            assert closed.mid_dim == span_trace_fix(
                burau_unreduced(w), field).mid_dim, w.render()


def test_closed_trefoil_mid_dims():
    expr = braid_closure_expr(BraidWord(2, [1, 1, 1]))
    assert evaluate_tangle(expr, GenericTField()).mid_dim == 1
    root = ComplexPoint(cmath.exp(1j * cmath.pi / 3))  # zero of t^2-t+1
    assert evaluate_tangle(expr, root).mid_dim == 2


def test_closed_tangle_delta_catalog():
    for name in ("unknot", "trefoil", "figure8", "hopf"):
        entry = catalog_lookup(name)
        got = closed_tangle_delta(braid_closure_expr(entry.braid))
        assert got == normalize_unit(entry.delta), name
    with pytest.raises(DimensionMismatch):
        closed_tangle_delta(parse_tangle("xp"))


def _smith_closed_delta(expr):
    """The Smith-form reading of a closed system, kept as the oracle: the
    product of the first nvars - 1 invariant factors of its matrix."""
    system = tangle_system(expr)
    n = system.nvars
    if n == 0:
        return LaurentPoly.one()
    factors = smith_normal_form(system.matrix_rows())
    if n - 1 > len(factors):
        return LaurentPoly.zero()
    prod = LaurentPoly.one()
    for d in factors[: n - 1]:
        prod = prod * d
    return canonical_poly(prod)


def _random_word(rng, n, length):
    return BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(length)] if n > 1 else [])


def test_closed_delta_matches_smith_oracle_and_fox():
    # seeded closures on 1-7 strands with 0-22 letters, the sizes of the
    # benchmark's closed inputs, crossing-less strands and split links
    # whose last strands never meet the first
    rng = random.Random(83)
    braids = [_random_word(rng, rng.randint(1, 7), rng.randint(0, 22))
              for _ in range(100)]
    braids += [_random_word(rng, n, length) for n, length in (
        (3, 10), (4, 11), (3, 12), (5, 10), (3, 14), (4, 13), (6, 11))]
    braids += [BraidWord(1), BraidWord(2), BraidWord(3),
               BraidWord(4, [1, -1, 1, 3]), BraidWord(5, [1, 1, 2, 4, 4])]
    braids += [BraidWord(4, [rng.choice((1, -1)) * rng.randint(1, 2)
                             for _ in range(8)]) for _ in range(3)]
    components = set()
    zeros = 0
    for b in braids:
        expr = braid_closure_expr(b)
        got = closed_tangle_delta(expr)
        assert got == _smith_closed_delta(expr), b.render()
        assert got == knot_delta(braid_closure(b)), b.render()
        components.add(b.component_count())
        zeros += got.is_zero
    assert {1, 2, 3} <= components and zeros >= 5


@pytest.mark.parametrize("text,delta", [
    ("coev+- ; ev+-", LaurentPoly.one()),
    ("(coev+- # coev+-) ; (ev+- # ev+-)", LaurentPoly.zero()),
])
def test_closed_delta_of_circles(text, delta):
    expr = parse_tangle(text)
    assert closed_tangle_delta(expr) == delta == _smith_closed_delta(expr)


def test_closed_delta_uses_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tangle route called the Smith form")

    monkeypatch.setattr(alexkit.snf, "smith_normal_form", refuse)
    monkeypatch.setattr(alexkit.tangles, "smith_normal_form", refuse)
    for name in ("unknot", "trefoil", "figure8", "hopf", "solomon"):
        entry = catalog_lookup(name)
        got = closed_tangle_delta(braid_closure_expr(entry.braid))
        assert got == normalize_unit(entry.delta), name


def test_generator_span_unknown_name():
    with pytest.raises(ParseError) as err:
        generator_span("xq", GenericTField())
    assert err.value.exit_code == 2


def test_unlink_mid_dim_and_delta():
    expr = braid_closure_expr(BraidWord(2))
    assert evaluate_tangle(expr, GenericTField()).mid_dim == 2
    assert closed_tangle_delta(expr).is_zero


def test_braid_expr_boundaries():
    b = BraidWord(3, [1, -2])
    e = braid_expr(b)
    assert e.source == ("+",) * 3 and e.target == ("+",) * 3
    closed = braid_closure_expr(b)
    assert closed.source == () and closed.target == ()
