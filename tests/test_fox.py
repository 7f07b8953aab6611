"""Fox-derivative laws: product rule, inverse rule, and the fundamental
identity, on random free words."""
import random

import pytest

from alexkit.errors import UnknownGenerator, ValidationError
from alexkit.fox import (AbelianWeights, FreeWord, abelianize,
                         fox_derivative_abelianized, reduce_word)
from alexkit.laurent import LaurentPoly, MultiLaurentPoly


def _weights(ngens, nvars=1):
    if nvars == 1:
        return AbelianWeights.all_t(range(1, ngens + 1))
    return AbelianWeights(
        {g: MultiLaurentPoly.variable(1 + (g - 1) % nvars, nvars)
         for g in range(1, ngens + 1)}, nvars)


def _random_word(rng, ngens, length):
    return reduce_word([rng.choice([1, -1]) * rng.randint(1, ngens)
                        for _ in range(length)])


def test_reduce_word():
    assert reduce_word([1, 2, -2, -1]) == FreeWord()
    assert reduce_word([1, 1, -2]) == FreeWord([(1, 1), (1, 1), (2, -1)])
    assert reduce_word([(3, 1), (3, -1)]) == FreeWord()
    with pytest.raises(ValidationError):
        reduce_word([0])
    with pytest.raises(ValidationError):
        FreeWord([(1, 1), (1, -1)])  # not freely reduced
    # equality is within one exact class, whatever the keys
    assert _SubWord([(1, 1)]) != FreeWord([(1, 1)])
    assert len({FreeWord([(1, 1)]), reduce_word([1, 2, -2])}) == 1


class _SubWord(FreeWord):
    __slots__ = ()


def test_generator_rules():
    w = _weights(2)
    x1 = reduce_word([1])
    x1inv = reduce_word([-1])
    one = MultiLaurentPoly.one(1)
    t = MultiLaurentPoly.variable(1, 1)
    assert fox_derivative_abelianized(x1, 1, w) == one
    assert fox_derivative_abelianized(x1, 2, w) == MultiLaurentPoly.zero(1)
    assert fox_derivative_abelianized(x1inv, 1, w) == -t.term_inverse()


def test_product_rule():
    rng = random.Random(31)
    for nvars in (1, 2):
        w = _weights(3, nvars)
        for _ in range(30):
            u = _random_word(rng, 3, rng.randint(0, 6))
            v = _random_word(rng, 3, rng.randint(0, 6))
            uv = u.concat(v)
            for i in (1, 2, 3):
                lhs = fox_derivative_abelianized(uv, i, w)
                rhs = (fox_derivative_abelianized(u, i, w)
                       + abelianize(u, w) * fox_derivative_abelianized(v, i, w))
                assert lhs == rhs


def test_inverse_rule():
    rng = random.Random(7)
    w = _weights(3)
    for _ in range(30):
        u = _random_word(rng, 3, rng.randint(1, 6))
        for i in (1, 2, 3):
            lhs = fox_derivative_abelianized(u.inverse(), i, w)
            rhs = -(abelianize(u, w).term_inverse()
                    * fox_derivative_abelianized(u, i, w))
            assert lhs == rhs


def test_fundamental_identity():
    """sum_i dw/dx_i ({x_i} - 1) = {w} - 1."""
    rng = random.Random(13)
    w = _weights(4)
    one = MultiLaurentPoly.one(1)
    for _ in range(30):
        word = _random_word(rng, 4, rng.randint(0, 8))
        total = MultiLaurentPoly.zero(1)
        for i in (1, 2, 3, 4):
            total = total + (fox_derivative_abelianized(word, i, w)
                             * (w.weight(i) - one))
        assert total == abelianize(word, w) - one


def _random_unit_weights(rng, ngens, nvars):
    """Units +-t^e of the Laurent ring, exponents in [-2, 2]."""
    return AbelianWeights(
        {g: MultiLaurentPoly.monomial(
            [rng.randint(-2, 2) for _ in range(nvars)], rng.choice((1, -1)))
         for g in range(1, ngens + 1)}, nvars)


def _reference_derivative(word, i, weights):
    """{dw/dx_i} with the prefix kept as a polynomial and multiplied by
    each weight or its inverse: the loop the monomial prefix replaced."""
    prefix = MultiLaurentPoly.one(weights.nvars)
    acc = MultiLaurentPoly.zero(weights.nvars)
    for g, e in word.letters:
        wg = weights.weight(g)
        if e == 1:
            if g == i:
                acc = acc + prefix
            prefix = prefix * wg
        else:
            prefix = prefix * wg.term_inverse()
            if g == i:
                acc = acc - prefix
    return acc, prefix


def test_fundamental_formula_with_unit_weights():
    """sum_i {dw/dx_i}({x_i} - 1) = {w} - 1 under weights +-t^e in 1-3
    variables, and each derivative and image equals the polynomial-product
    reference."""
    rng = random.Random(17)
    for _ in range(60):
        ngens = rng.randint(1, 5)
        nvars = rng.randint(1, 3)
        weights = _random_unit_weights(rng, ngens, nvars)
        word = _random_word(rng, ngens, rng.randint(0, 12))
        one = MultiLaurentPoly.one(nvars)
        image = abelianize(word, weights)
        total = MultiLaurentPoly.zero(nvars)
        for i in range(1, ngens + 1):
            derivative = fox_derivative_abelianized(word, i, weights)
            reference, reference_image = _reference_derivative(word, i,
                                                               weights)
            assert derivative == reference
            assert image == reference_image
            total = total + derivative * (weights.weight(i) - one)
        assert total == image - one


def test_worked_example():
    # d/dx1 (x1 x1 x2 x1^-1) = 1 + t - t^2, d/dx2 = t^2
    w = _weights(2)
    word = reduce_word([1, 1, 2, -1])
    d1 = fox_derivative_abelianized(word, 1, w).to_laurent()
    d2 = fox_derivative_abelianized(word, 2, w).to_laurent()
    assert d1 == LaurentPoly({0: 1, 1: 1, 2: -1})
    assert d2 == LaurentPoly({2: 1})


def test_unknown_generator():
    w = AbelianWeights.all_t([1, 2])
    with pytest.raises(UnknownGenerator):
        fox_derivative_abelianized(reduce_word([3]), 3, w)
