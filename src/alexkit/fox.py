"""Free words and abelianized Fox derivatives.

Derivatives obey d(x_j)/d(x_i) = delta_ij, d(x_i^-1)/d(x_i) = -x_i^-1 and
the product rule d(uv)/d(x_i) = du/d(x_i) + u dv/d(x_i).  Here they are
computed directly through the abelianization, never materializing
group-ring elements: the image of a word under +-monomial weights is
itself a +-monomial c*t^e, carried as the pair (e, c).
"""
from __future__ import annotations

from operator import add, sub

from .errors import (DimensionMismatch, NotAUnit, UnknownGenerator,
                     ValidationError)
from .laurent import MultiLaurentPoly, _int, _size, _Value


class FreeWord(_Value):
    """Freely reduced word; letters are (generator index >= 1, +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((_int(g, "generator index"), _int(e, "exponent"))
                        for g, e in letters)
        for g, e in letters:
            if g < 1:
                raise ValidationError("generator indices start at 1")
            if e not in (1, -1):
                raise ValidationError("exponents must be +-1")
        for (g1, e1), (g2, e2) in zip(letters, letters[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValidationError("word is not freely reduced")
        self.letters = letters

    def _key(self):
        return self.letters

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        return FreeWord([(g, -e) for g, e in reversed(self.letters)])

    def concat(self, other):
        return reduce_word([g * e for g, e in self.letters]
                           + [g * e for g, e in other.letters])

    def __repr__(self):
        parts = ["x%d" % g if e == 1 else "x%d^-1" % g
                 for g, e in self.letters]
        return "FreeWord<%s>" % (" ".join(parts) or "1")


def reduce_word(raw):
    """Freely reduce a sequence of signed generator indices (3 means x3,
    -3 means x3^-1)."""
    stack = []
    for item in raw:
        if isinstance(item, tuple):
            g, e = item
        else:
            item = _int(item, "letter")
            g, e = abs(item), (1 if item > 0 else -1)
        if g < 1:
            raise ValidationError("generator indices start at 1")
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    return FreeWord(stack)


class AbelianWeights:
    """Assignment of a unit weight, a +-monomial, to each generator."""

    __slots__ = ("assignment", "nvars")

    def __init__(self, assignment, nvars):
        self.assignment = dict(assignment)
        self.nvars = nvars = _size(nvars, "variable count")
        for g, w in self.assignment.items():
            if w.nvars != nvars:
                raise DimensionMismatch("weight variable count mismatch")
            if not w.is_unit():
                raise NotAUnit("weight %s is not a +-monomial" % w.render())

    @classmethod
    def all_t(cls, generators):
        """Knot weights: every generator goes to the single variable t."""
        t = MultiLaurentPoly.variable(1, 1)
        return cls({g: t for g in generators}, 1)

    def weight(self, g):
        try:
            return self.assignment[g]
        except KeyError:
            raise UnknownGenerator("no weight for generator x%d" % g)


def _times(exps, coeff, g, e, weights):
    """The +-monomial coeff*t^exps times {x_g}^e, as (exps, coeff); a
    weight's inverse has its coefficient, +-1."""
    (wexps, wcoeff), = weights.weight(g).coeffs.items()
    return tuple(map(add if e == 1 else sub, exps, wexps)), coeff * wcoeff


def abelianize(w, weights):
    """Image {w} of a word under the abelianization."""
    exps, coeff = (0,) * weights.nvars, 1
    for g, e in w.letters:
        exps, coeff = _times(exps, coeff, g, e, weights)
    return MultiLaurentPoly({exps: coeff}, weights.nvars)


def fox_derivative_abelianized(w, i, weights):
    """{dw/dx_i}: single left-to-right pass with the running abelianized
    prefix; a letter x_i adds the prefix before it, x_i^-1 subtracts the
    prefix after it."""
    i = _int(i, "generator index")
    exps, coeff = (0,) * weights.nvars, 1
    acc = {}
    for g, e in w.letters:
        if e == -1:
            exps, coeff = _times(exps, coeff, g, e, weights)
        if g == i:
            acc[exps] = acc.get(exps, 0) + e * coeff
        if e == 1:
            exps, coeff = _times(exps, coeff, g, e, weights)
    return MultiLaurentPoly(acc, weights.nvars)
