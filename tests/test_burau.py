"""Burau matrices: generator blocks, braid relations, permutation
specialization at t = 1, reduction, fix-locus spans, closure invariants."""
import random
from fractions import Fraction

import pytest

from alexkit.burau import (burau_reduced, burau_unreduced,
                           closure_alexander, span_trace_fix)
from alexkit.cli import run
from alexkit.codes import (BraidWord, braid_closure, catalog_lookup,
                           parse_braid)
from alexkit.errors import EmptyMatrix, ValidationError
from alexkit.fields import GenericTField, RationalPoint
from alexkit.laurent import LaurentPoly, normalize_unit
from alexkit.snf import poly_det
from util import random_braid


def _lp(d):
    return LaurentPoly(d)


def test_generator_block():
    m = burau_unreduced(BraidWord(2, [1]))
    assert [list(r) for r in m.rows] == [
        [_lp({0: 1, 1: -1}), _lp({1: 1})],
        [_lp({0: 1}), _lp({})]]


def test_inverse_block():
    b = BraidWord(2, [1, -1])
    ident = burau_unreduced(BraidWord(2))
    assert burau_unreduced(b) == ident
    assert burau_unreduced(BraidWord(2, [-1, 1])) == ident


def _dense_burau(b):
    """The product as full n x n matrix products of the generator blocks:
    the reference for the two-column update."""
    n = b.strands
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    t, tinv = LaurentPoly.t(), LaurentPoly.monomial(-1)

    def identity():
        return [[one if i == j else zero for j in range(n)] for i in range(n)]

    out = identity()
    for letter in b.letters:
        block = identity()
        i = abs(letter) - 1
        if letter > 0:
            block[i][i], block[i][i + 1] = one - t, t
            block[i + 1][i], block[i + 1][i + 1] = one, zero
        else:
            block[i][i], block[i][i + 1] = zero, one
            block[i + 1][i], block[i + 1][i + 1] = tinv, one - tinv
        out = [[sum((out[r][k] * block[k][c] for k in range(n)), zero)
                for c in range(n)] for r in range(n)]
    return out


def test_product_matches_dense_blocks():
    rng = random.Random(107)
    words = [BraidWord(1), BraidWord(4), BraidWord(2, [1, 1, -1])]
    for _ in range(60):
        n = rng.randint(1, 8)
        length = rng.randint(0, 30) if n > 1 else 0
        words.append(BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                                   for _ in range(length)]))
    one = LaurentPoly.one()
    for b in words:
        m = burau_unreduced(b)
        assert [list(r) for r in m.rows] == _dense_burau(b), b.render()
        for row in m.rows:
            assert sum(row, LaurentPoly.zero()) == one
            assert all(type(c) is int for x in row for c in x.coeffs.values())


def test_word_times_inverse_is_identity():
    rng = random.Random(109)
    ident = burau_unreduced(BraidWord(6))
    for _ in range(10):
        letters = [rng.choice([1, -1]) * rng.randint(1, 5)
                   for _ in range(rng.randint(1, 25))]
        inverse = [-g for g in reversed(letters)]
        assert burau_unreduced(BraidWord(6, letters + inverse)) == ident
        assert burau_unreduced(BraidWord(6, inverse + letters)) == ident
    assert {ident, burau_unreduced(BraidWord(6, [1, -1]))} == {ident}


@pytest.mark.parametrize("word, expected", [
    ("2: s1", "[1 - t, t]\n[1, 0]\n"),
    ("5: s1 S2 s3 S4 s2 s1 S3 s4 S1",
     "[1 - t, t - t^2, 0, t^2, 0]\n"
     "[1, 0, 0, 0, 0]\n"
     "[0, 1 - t, 0, 0, t]\n"
     "[0, 1, 0, 0, 0]\n"
     "[0, 0, t^-2, -t^-2 + t^-1, -t^-1 + 1]\n"),
])
def test_burau_verb_output(capsys, word, expected):
    assert run(["burau", word]) == 0
    assert capsys.readouterr().out == expected


def test_braid_relations():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(3, 5)
        i = rng.randint(1, n - 2)
        # adjacent relation s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}
        lhs = burau_unreduced(BraidWord(n, [i, i + 1, i]))
        rhs = burau_unreduced(BraidWord(n, [i + 1, i, i + 1]))
        assert lhs == rhs
        # commuting relation for |i - j| >= 2
        far = [j for j in range(1, n) if abs(j - i) >= 2]
        if far:
            j = rng.choice(far)
            assert burau_unreduced(BraidWord(n, [i, j])) == \
                burau_unreduced(BraidWord(n, [j, i]))


def test_permutation_at_t_one():
    """At t = 1 the Burau matrix degenerates to the strand permutation."""
    rng = random.Random(73)
    for _ in range(20):
        b = random_braid(rng)
        m = burau_unreduced(b)
        perm = b.permutation()
        for i in range(b.strands):
            for j in range(b.strands):
                want = 1 if perm[j] == i else 0
                assert m.rows[i][j].evaluate(Fraction(1)) == want


def test_row_sums_are_one():
    rng = random.Random(79)
    one = LaurentPoly.one()
    for _ in range(20):
        m = burau_unreduced(random_braid(rng))
        for row in m.rows:
            total = LaurentPoly.zero()
            for x in row:
                total = total + x
            assert total == one


def test_reduced_trefoil_and_errors():
    rows = burau_reduced(BraidWord(2, [1]))
    assert rows == [[_lp({1: -1})]]
    with pytest.raises(EmptyMatrix):
        burau_reduced(BraidWord(1))


def test_reduced_is_multiplicative():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(2, 4)
        b1 = random_braid(rng, max_strands=n, min_strands=n, max_len=4)
        b2 = random_braid(rng, max_strands=n, min_strands=n, max_len=4)
        prod = BraidWord(n, b1.letters + b2.letters)
        r1 = burau_reduced(b1)
        r2 = burau_reduced(b2)
        k = n - 1
        mul = [[sum((r1[i][l] * r2[l][j] for l in range(k)),
                    LaurentPoly.zero()) for j in range(k)]
               for i in range(k)]
        assert mul == burau_reduced(prod)


def test_reduced_entries_are_integral():
    rng = random.Random(97)
    for _ in range(30):
        b = random_braid(rng, max_strands=6, max_len=10)
        for row in burau_reduced(b):
            for entry in row:
                assert all(type(c) is int for c in entry.coeffs.values())


def test_det_id_minus_burau_vanishes():
    """(1,...,1) is a fixed line, so Id - Burau is singular identically."""
    rng = random.Random(89)
    for _ in range(20):
        b = random_braid(rng)
        m = burau_unreduced(b)
        one = LaurentPoly.one()
        rows = [[(one - x) if i == j else -x for j, x in enumerate(row)]
                for i, row in enumerate(m.rows)]
        assert poly_det(rows, one).is_zero


def test_span_trace_fix_dims():
    m = burau_unreduced(BraidWord(2, [1, 1, 1]))
    s = span_trace_fix(m, GenericTField())
    assert (s.src_dim, s.mid_dim, s.tgt_dim) == (0, 1, 0)
    # at a root of the Alexander polynomial the fix locus jumps
    s2 = span_trace_fix(m, RationalPoint(2))
    assert s2.mid_dim == 1


def test_closure_alexander_catalog():
    for name in ("unknot", "trefoil", "figure8", "hopf", "solomon"):
        entry = catalog_lookup(name)
        got = closure_alexander(entry.braid)
        assert got == normalize_unit(entry.delta), name


def test_closure_alexander_markov():
    rng = random.Random(97)
    for _ in range(30):
        b = random_braid(rng, max_len=6)
        base = closure_alexander(b)
        # conjugation
        g = rng.choice([1, -1]) * rng.randint(1, b.strands - 1)
        conj = BraidWord(b.strands, [g] + list(b.letters) + [-g])
        assert closure_alexander(conj) == base
        # stabilization
        sign = rng.choice([1, -1])
        stab = BraidWord(b.strands + 1,
                         list(b.letters) + [sign * b.strands])
        assert closure_alexander(stab) == base


def test_closure_matches_fox_route():
    from alexkit.alexander import knot_delta
    rng = random.Random(101)
    for _ in range(15):
        b = random_braid(rng, max_len=6)
        lhs = closure_alexander(b)
        rhs = knot_delta(braid_closure(b))
        assert lhs == rhs or (lhs.is_zero and rhs.is_zero), b.render()


def test_closure_matches_fox_route_many_strands():
    from alexkit.alexander import knot_delta
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randint(8, 10)
        length = rng.randint(50, 70)
        # a word closes to a knot only if its length is n - 1 mod 2
        length += (length - n + 1) % 2
        b = None
        while b is None or b.component_count() != 1:
            b = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                              for _ in range(length)])
        assert closure_alexander(b) == knot_delta(braid_closure(b)), \
            b.render()


def test_closure_matches_fox_route_large():
    # up to 7 strands and 20 letters, links included: the Burau minor is
    # returned as its canonical associate, so the routes agree exactly
    from alexkit.alexander import knot_delta
    rng = random.Random(101)
    for _ in range(40):
        b = random_braid(rng, max_strands=7, max_len=20)
        lhs = closure_alexander(b)
        rhs = knot_delta(braid_closure(b))
        assert lhs == rhs, b.render()


def test_link_closure_drops_integer_content():
    # a 2-component closure whose Burau minor is 2 - 2t before the content
    # is divided out
    from alexkit.alexander import knot_delta
    b = parse_braid("3: S2 S1 S2 s1 S2 s2 s1 s1 S2 S2 S1 S2 s1")
    assert b.component_count() == 2
    one, t = LaurentPoly.one(), LaurentPoly.t()
    assert closure_alexander(b) == one - t == knot_delta(braid_closure(b))


def test_unlink_closure_is_zero():
    assert closure_alexander(BraidWord(2)).is_zero


def test_closure_any_deleted_index():
    rng = random.Random(127)
    for _ in range(10):
        b = random_braid(rng, max_strands=5, max_len=10)
        base = closure_alexander(b)
        for k in range(1, b.strands):
            assert closure_alexander(b, k) == base, (b.render(), k)


@pytest.mark.parametrize("word", ["3: s1 s1 s2", "3: s1 s1", "2: s1", "1:"])
def test_closure_rejects_bad_deleted_index(word):
    b = parse_braid(word)
    for index in (-1, b.strands, b.strands + 2, 0.5):
        with pytest.raises(ValidationError) as info:
            closure_alexander(b, index)
        assert info.value.exit_code == 2
