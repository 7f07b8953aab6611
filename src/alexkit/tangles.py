"""Tangle DSL (objects are +- sign sequences) and its span-valued
evaluation: generator spans, pullback composition, tensor, a global
linear-system route over the same diagrams, and span equivalence.

Composition and tensor are associative, so expressions are flat: a
`Compose` or `Tensor` holds one tuple of `factors`, a `;` or `#` chain of
any length is one node, and only parentheses nest, at most MAX_DEPTH deep.
"""
from __future__ import annotations

import re
from functools import reduce
from itertools import count, islice, repeat

from .codes import BraidWord, label_classes
from .errors import (BoundaryMismatch, DimensionMismatch, ParseError,
                     ValidationError)
from .fields import (Mat, ScalarField, _fraction_free, column_space_equal,
                     kernel_basis, mat_identity, mat_mul)
from .laurent import LaurentPoly, _typed, canonical_poly
# unused here; perfbench/layertrace.py traces tangles.smith_normal_form
from .snf import smith_normal_form  # noqa: F401

GENERATOR_TYPES = {
    "id+": (("+",), ("+",)),
    "id-": (("-",), ("-",)),
    "xp": (("+", "+"), ("+", "+")),
    "xm": (("+", "+"), ("+", "+")),
    "ev+-": (("+", "-"), ()),
    "ev-+": (("-", "+"), ()),
    "coev+-": ((), ("+", "-")),
    "coev-+": ((), ("-", "+")),
}


class TangleExpr:
    """AST node with cached source/target sign sequences."""

    __slots__ = ("source", "target")

    def __init__(self, source, target):
        self.source = tuple(source)
        self.target = tuple(target)


class Gen(TangleExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in GENERATOR_TYPES:
            raise ParseError("unknown generator %r" % name)
        super().__init__(*GENERATOR_TYPES[name])
        self.name = name

    def render(self):
        return self.name


class _Chain(TangleExpr):
    """A flat chain of `factors`, joined by `_joint` in the DSL, where only
    a composition inside a tensor needs parentheses.  A factor of the same
    kind is spliced in, so (a ; b) ; c is one node of three factors."""

    __slots__ = ("factors",)

    def __init__(self, factors, source, target):
        super().__init__(source, target)
        self.factors = tuple(g for f in factors for g in
                             (f.factors if type(f) is type(self) else (f,)))

    def render(self):
        parts = []  # a loop, not a comprehension: one stack frame a level
        for f in self.factors:
            parts.append("(%s)" % f.render() if isinstance(f, Compose)
                         else f.render())
        return self._joint.join(parts)


class Compose(_Chain):
    """Factors stacked bottom to top; `positions` holds the offset of the
    ';' at each seam, for BoundaryMismatch.  There must be at least one:
    an empty composition has no boundary to take."""

    __slots__ = ()
    _joint = " ; "

    def __init__(self, *factors, positions=None):
        if not factors:
            raise ValidationError("a composition needs at least one factor")
        for i, (below, above) in enumerate(zip(factors, factors[1:])):
            if below.target != above.source:
                raise BoundaryMismatch(positions[i] if positions else "?",
                                       "".join(below.target),
                                       "".join(above.source))
        super().__init__(factors, factors[0].source, factors[-1].target)


class Tensor(_Chain):
    """Factors side by side, left to right; with none, the empty tangle."""

    __slots__ = ()
    _joint = " # "

    def __init__(self, *factors):
        super().__init__(factors, [s for f in factors for s in f.source],
                         [s for f in factors for s in f.target])


# After optional whitespace: the longest generator name that matches or one
# of "();#", else up to eight characters of unexpected input, else the end.
_TOKEN = re.compile(r"\s*(?:(%s|[();#])|(.{1,8})|\Z)" % "|".join(
    map(re.escape, sorted(GENERATOR_TYPES, key=len, reverse=True))),
    re.DOTALL)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.groups()
        if bad:
            raise ParseError("unexpected input %r" % bad, position=m.start(2))
        if tok:
            tokens.append((tok, m.start(1)))
    return tokens


# Deepest parenthesis nesting that parse_tangle accepts.  A parenthesis adds
# at most two tree levels, a composition and a tensor; the parser takes three
# frames a parenthesis and each walk, by map or a loop (a comprehension adds
# a frame), at most two a level: well inside the recursion limit of 1000.
MAX_DEPTH = 200


def parse_tangle(text):
    """Grammar: expr := term (";" term)*; term := factor ("#" factor)*;
    factor := "(" expr ")" | generator.  ";" composes bottom-to-top.
    Parentheses nested deeper than MAX_DEPTH raise ParseError."""
    tokens = _tokenize(text)
    index = [0]

    def peek():
        return tokens[index[0]] if index[0] < len(tokens) else (None, len(text))

    def advance():
        tok = tokens[index[0]]
        index[0] += 1
        return tok

    def parse_factor(parens):
        tok, pos = peek()
        if tok == "(":
            if parens == MAX_DEPTH:
                raise ParseError("tangle nested deeper than %d" % MAX_DEPTH,
                                 position=pos)
            advance()
            inner = parse_expr(parens + 1)
            tok, pos = peek()
            if tok != ")":
                raise ParseError("expected ')'", position=pos)
            advance()
            return inner
        if tok in GENERATOR_TYPES:
            advance()
            return Gen(tok)
        raise ParseError("expected a generator or '('", position=pos)

    def parse_term(parens):
        factors = [parse_factor(parens)]
        while peek()[0] == "#":
            advance()
            factors.append(parse_factor(parens))
        return factors[0] if len(factors) == 1 else Tensor(*factors)

    def parse_expr(parens):
        terms = [parse_term(parens)]
        positions = []
        while peek()[0] == ";":
            positions.append(advance()[1])
            terms.append(parse_term(parens))
        return (terms[0] if len(terms) == 1
                else Compose(*terms, positions=positions))

    result = parse_expr(0)
    tok, pos = peek()
    if tok is not None:
        raise ParseError("unexpected %r after expression" % tok, position=pos)
    return result


class Span:
    """Linear span src <- mid -> tgt over a scalar field: its two maps,
    left (src x mid) and right (tgt x mid), which give the dimensions."""

    __slots__ = ("field", "src_dim", "tgt_dim", "mid_dim", "left", "right")

    def __init__(self, field, left, right):
        if left.ncols != right.ncols:
            raise DimensionMismatch("left map has %d columns, right map %d"
                                    % (left.ncols, right.ncols))
        self.field = field
        self.src_dim, self.tgt_dim = left.nrows, right.nrows
        self.mid_dim = left.ncols
        self.left = left
        self.right = right

    def __repr__(self):
        return "Span<%d <- %d -> %d>" % (self.src_dim, self.mid_dim,
                                         self.tgt_dim)


def identity_span(field, n):
    ident = mat_identity(field, n)
    return Span(field, ident, ident)


def generator_span(name, field):
    """Spans of the elementary tangles at the field's value of t.  With
    t = r/s and t^-1 = q/p, the legs of xp and xm are scaled by s and p,
    so they stay in the field's integral ring."""
    _typed("generator_span", ScalarField, field)
    one, zero = field.one, field.zero
    if name in ("id+", "id-"):
        return identity_span(field, 1)
    (r, s), (q, p) = field.ratios
    if name == "xp":
        return Span(field, Mat([[s, zero], [zero, s]], 2),
                    Mat([[s - r, r], [s, zero]], 2))
    if name == "xm":
        return Span(field, Mat([[p, zero], [zero, p]], 2),
                    Mat([[zero, p], [q, p - q]], 2))
    diag, empty = Mat([[one], [one]], 1), Mat([], 1)
    if name in ("ev+-", "ev-+"):
        return Span(field, diag, empty)
    if name in ("coev+-", "coev-+"):
        return Span(field, empty, diag)
    raise ParseError("unknown generator %r" % name)


def compose_spans(s1, s2):
    """Pullback composition: mid = ker [g1 | -f2] inside mid1 + mid2."""
    _typed("compose_spans", Span, s1, s2)
    if s1.field != s2.field:
        raise DimensionMismatch("spans over different fields")
    if s1.tgt_dim != s2.src_dim:
        raise DimensionMismatch("target dim %d != source dim %d"
                                % (s1.tgt_dim, s2.src_dim))
    field = s1.field
    glue_rows = [g + tuple(-x for x in f)
                 for g, f in zip(s1.right.rows, s2.left.rows)]
    glue = Mat(glue_rows, s1.mid_dim + s2.mid_dim)
    k = kernel_basis(field, glue)
    top = Mat(k.rows[: s1.mid_dim], k.ncols)
    bottom = Mat(k.rows[s1.mid_dim:], k.ncols)
    return Span(field, mat_mul(field, s1.left, top),
                mat_mul(field, s2.right, bottom))


def tensor_spans(*spans):
    """Spans side by side: block-diagonal maps, built in one pass.  At
    least one span is needed, to give the field."""
    if not spans:
        raise ValidationError("tensor_spans needs at least one span")
    _typed("tensor_spans", Span, *spans)
    field = spans[0].field
    if any(s.field != field for s in spans):
        raise DimensionMismatch("spans over different fields")
    mid = sum(s.mid_dim for s in spans)

    def block(maps):
        rows, before, zero = [], 0, (field.zero,)
        for m in maps:
            after = zero * (mid - before - m.ncols)
            rows += [zero * before + r + after for r in m.rows]
            before += m.ncols
        return Mat(rows, mid)

    return Span(field, block([s.left for s in spans]),
                block([s.right for s in spans]))


def evaluate_tangle(expr, field):
    """Fold generator spans: a composition left to right, a tensor in
    one block-diagonal pass; the empty tensor is the identity on 0."""
    _typed("evaluate_tangle", ScalarField, field)
    if isinstance(expr, Gen):
        return generator_span(expr.name, field)
    if not isinstance(expr, _Chain):
        raise TypeError("not a tangle expression: %r" % (expr,))
    if not expr.factors:
        return identity_span(field, 0)
    spans = map(evaluate_tangle, expr.factors, repeat(field))
    if isinstance(expr, Compose):
        return reduce(compose_spans, spans)
    return tensor_spans(*spans)


def spans_equivalent(s1, s2):
    """Equivalence of linear spans: equal mid dimensions and equal images
    of the stacked maps (left over right) in src + tgt."""
    _typed("spans_equivalent", Span, s1, s2)
    if s1.field != s2.field:
        raise DimensionMismatch("spans over different fields")
    if s1.src_dim != s2.src_dim or s1.tgt_dim != s2.tgt_dim:
        raise DimensionMismatch("boundary dimensions differ")
    if s1.mid_dim != s2.mid_dim:
        return False

    def stacked(s):
        return Mat(s.left.rows + s.right.rows, s.mid_dim)

    return column_space_equal(s1.field, stacked(s1), stacked(s2))


class BoundarySystem:
    """Whole-diagram linear system: one variable per arc, one crossing
    equation per X generator, one gluing equation per composition seam."""

    __slots__ = ("nvars", "equations", "bottom", "top")

    def __init__(self, nvars, equations, bottom, top):
        self.nvars = nvars
        self.equations = equations
        self.bottom = bottom
        self.top = top

    def matrix_rows(self):
        """Equations as LaurentPoly coefficient rows."""
        zero = LaurentPoly.zero()
        rows = []
        for eq in self.equations:
            row = [zero] * self.nvars
            for var, coeff in eq.items():
                row[var] = coeff
            rows.append(row)
        return rows


def tangle_system(expr):
    """Slice an expression into arcs and crossing/gluing equations."""
    t, one, tinv = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.monomial(-1)
    equations = []
    variables = count()  # numbers the arcs 0, 1, 2, ...
    fresh = variables.__next__

    def walk(node):
        if isinstance(node, Gen):
            name = node.name
            if name in ("id+", "id-"):
                v = fresh()
                return [v], [v]
            if name == "xp":
                a1, a2, c = fresh(), fresh(), fresh()
                equations.append({a2: t, a1: one - t, c: -one})
                return [a1, a2], [c, a1]
            if name == "xm":
                a1, a2, c = fresh(), fresh(), fresh()
                equations.append({a1: tinv, a2: one - tinv, c: -one})
                return [a1, a2], [a2, c]
            if name in ("ev+-", "ev-+"):
                v = fresh()
                return [v, v], []
            v = fresh()  # coev+- or coev-+, the last names Gen admits
            return [], [v, v]
        if isinstance(node, Compose):
            bottom, top = walk(node.factors[0])
            for factor in node.factors[1:]:
                below = top
                above, top = walk(factor)
                for x, y in zip(below, above):
                    if x != y:
                        equations.append({x: one, y: -one})
            return bottom, top
        if isinstance(node, Tensor):
            ends = list(map(walk, node.factors))
            return ([v for b, _ in ends for v in b],
                    [v for _, u in ends for v in u])
        raise TypeError("not a tangle expression: %r" % (node,))

    bottom, top = walk(expr)
    return BoundarySystem(next(variables), equations, bottom, top)


def tangle_linear_system(expr, field):
    """Independent span route: solve all crossing equations globally and
    project the solution space onto the boundary arcs."""
    system = tangle_system(expr)
    rows = [[field.from_laurent(entry) for entry in row]
            for row in system.matrix_rows()]
    matrix = Mat(rows, system.nvars)
    k = kernel_basis(field, matrix)
    left = Mat([k.rows[v] for v in system.bottom], k.ncols)
    right = Mat([k.rows[v] for v in system.top], k.ncols)
    return Span(field, left, right)


def closed_tangle_delta(expr):
    """Alexander polynomial of a closed expression by the tangle route's
    own elimination: merging the variables that gluing rows join gives
    Alexander's crossing-by-arc matrix (Trans. AMS 30, 1928); its forward
    fraction-free pass, less a column and a row, ends on Delta or 0."""
    _typed("closed_tangle_delta", TangleExpr, expr)
    if expr.source or expr.target:
        raise DimensionMismatch("expression is not closed")
    system = tangle_system(expr)
    arc = label_classes(system.nvars, [tuple(v + 1 for v in eq)
                                       for eq in system.equations
                                       if len(eq) == 2])
    n = max(arc.values(), default=0)
    if n <= 1:
        return LaurentPoly.one()
    zero, rows = LaurentPoly.zero(), []
    crossings = (eq for eq in system.equations if len(eq) == 3)
    for eq in islice(crossings, n - 1):
        row = {}
        for var, coeff in eq.items():
            j = arc[var + 1] - 1
            if j < n - 1:
                row[j] = row.get(j, zero) + coeff
        rows.append({j: x for j, x in row.items() if x})
    reduced, pivots = _fraction_free(rows, n - 1, full=False)
    if len(pivots) < n - 1:
        return zero
    return canonical_poly(reduced[n - 2][pivots[-1]])


def braid_expr(b):
    """A braid word as a DSL expression on n upward strands: one
    composition of tensor slices."""
    _typed("braid_expr", BraidWord, b)
    n, up = b.strands, Gen("id+")
    slices = [Tensor(*[up] * (abs(x) - 1), Gen("xp" if x > 0 else "xm"),
                     *[up] * (n - abs(x) - 1)) for x in b.letters]
    return Compose(*slices) if slices else Tensor(*[up] * n)


def braid_closure_expr(b):
    """Closure of a braid in the DSL: nested coev cups, the braid on the
    + block, then nested ev caps (strand j pairs with cup n+1-j)."""
    n = b.strands
    down, up = Gen("id-"), Gen("id+")

    def layer(k, name):
        return Tensor(*[down] * (k - 1), Gen(name), *[up] * (k - 1))

    return Compose(*[layer(k, "coev-+") for k in range(1, n + 1)],
                   Tensor(*[down] * n, braid_expr(b)),
                   *[layer(k, "ev-+") for k in range(n, 0, -1)])
