"""Tangle DSL (objects are +- sign sequences) and its span-valued
evaluation: generator spans, pullback composition, tensor, a global
linear-system route over the same diagrams, and span equivalence.
"""
from __future__ import annotations

from .codes import label_classes
from .errors import BoundaryMismatch, DimensionMismatch, ParseError
from .fields import (GenericTField, Mat, _fraction_free, column_space_equal,
                     kernel_basis, mat_identity, mat_mul)
from .laurent import LaurentPoly, canonical_poly
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
        src, tgt = GENERATOR_TYPES[name]
        super().__init__(src, tgt)
        self.name = name

    def render(self):
        return self.name


class Compose(TangleExpr):
    __slots__ = ("first", "then")

    def __init__(self, first, then, position="?"):
        if first.target != then.source:
            raise BoundaryMismatch(position, "".join(first.target),
                                   "".join(then.source))
        super().__init__(first.source, then.target)
        self.first = first
        self.then = then

    def render(self):
        return "%s ; %s" % (self.first.render(), self.then.render())


class Tensor(TangleExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.source + right.source,
                         left.target + right.target)
        self.left = left
        self.right = right

    def render(self):
        def wrap(e):
            return "(%s)" % e.render() if isinstance(e, Compose) else e.render()
        return "%s # %s" % (wrap(self.left), wrap(self.right))


_GEN_NAMES = sorted(GENERATOR_TYPES, key=len, reverse=True)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "();#":
            tokens.append((ch, pos))
            pos += 1
            continue
        matched = None
        for name in _GEN_NAMES:
            if text.startswith(name, pos):
                matched = name
                break
        if matched is None:
            raise ParseError("unexpected input %r" % text[pos:pos + 8],
                             position=pos)
        tokens.append((matched, pos))
        pos += len(matched)
    return tokens


# Deepest parenthesis nesting, and deepest tree of compositions and
# tensors, that parse_tangle accepts: the parser takes three stack frames
# per parenthesis and `render` two per tree level, so evaluate_tangle,
# tangle_system and render stay well inside Python's default recursion
# limit of 1000.
MAX_DEPTH = 200


def parse_tangle(text):
    """Grammar: expr := term (";" term)*; term := factor ("#" factor)*;
    factor := "(" expr ")" | generator.  ";" composes bottom-to-top.
    Nesting deeper than MAX_DEPTH raises ParseError."""
    tokens = _tokenize(text)
    index = [0]

    def peek():
        return tokens[index[0]] if index[0] < len(tokens) else (None, len(text))

    def advance():
        tok = tokens[index[0]]
        index[0] += 1
        return tok

    def within(depth, pos):
        if depth > MAX_DEPTH:
            raise ParseError("tangle nested deeper than %d" % MAX_DEPTH,
                             position=pos)
        return depth

    # each parse_* returns (expression, depth of its tree)
    def parse_factor(parens):
        tok, pos = peek()
        if tok == "(":
            within(parens + 1, pos)
            advance()
            inner = parse_expr(parens + 1)
            tok, pos = peek()
            if tok != ")":
                raise ParseError("expected ')'", position=pos)
            advance()
            return inner
        if tok in GENERATOR_TYPES:
            advance()
            return Gen(tok), 0
        raise ParseError("expected a generator or '('", position=pos)

    def parse_term(parens):
        out, depth = parse_factor(parens)
        while peek()[0] == "#":
            _, pos = advance()
            right, right_depth = parse_factor(parens)
            out = Tensor(out, right)
            depth = within(max(depth, right_depth) + 1, pos)
        return out, depth

    def parse_expr(parens):
        out, depth = parse_term(parens)
        while peek()[0] == ";":
            _, pos = advance()
            then, then_depth = parse_term(parens)
            out = Compose(out, then, position=pos)
            depth = within(max(depth, then_depth) + 1, pos)
        return out, depth

    result, _ = parse_expr(0)
    tok, pos = peek()
    if tok is not None:
        raise ParseError("unexpected %r after expression" % tok, position=pos)
    return result


class Span:
    """Linear span src <- mid -> tgt over a scalar field."""

    __slots__ = ("field", "src_dim", "tgt_dim", "mid_dim", "left", "right")

    def __init__(self, field, src_dim, tgt_dim, mid_dim, left, right):
        if left.nrows != src_dim or left.ncols != mid_dim:
            raise DimensionMismatch("left map has the wrong shape")
        if right.nrows != tgt_dim or right.ncols != mid_dim:
            raise DimensionMismatch("right map has the wrong shape")
        self.field = field
        self.src_dim = src_dim
        self.tgt_dim = tgt_dim
        self.mid_dim = mid_dim
        self.left = left
        self.right = right

    def __repr__(self):
        return "Span<%d <- %d -> %d>" % (self.src_dim, self.mid_dim,
                                         self.tgt_dim)


def identity_span(field, n):
    ident = mat_identity(field, n)
    return Span(field, n, n, n, ident, ident)


def generator_span(name, field):
    """Spans of the elementary tangles at the field's value of t."""
    one = field.one
    zero = field.zero
    t = field.t
    if name in ("id+", "id-"):
        return identity_span(field, 1)
    if name == "xp":
        left = mat_identity(field, 2)
        right = Mat([[one - t, t], [one, zero]], 2)
        return Span(field, 2, 2, 2, left, right)
    if name == "xm":
        tinv = field.div(one, t)
        left = mat_identity(field, 2)
        right = Mat([[zero, one], [tinv, one - tinv]], 2)
        return Span(field, 2, 2, 2, left, right)
    if name in ("ev+-", "ev-+"):
        diag = Mat([[one], [one]], 1)
        return Span(field, 2, 0, 1, diag, Mat([], 1))
    if name in ("coev+-", "coev-+"):
        diag = Mat([[one], [one]], 1)
        return Span(field, 0, 2, 1, Mat([], 1), diag)
    raise ParseError("unknown generator %r" % name)


def compose_spans(s1, s2):
    """Pullback composition: mid = ker [g1 | -f2] inside mid1 + mid2."""
    if s1.field is not s2.field:
        raise DimensionMismatch("spans over different fields")
    if s1.tgt_dim != s2.src_dim:
        raise DimensionMismatch("target dim %d != source dim %d"
                                % (s1.tgt_dim, s2.src_dim))
    field = s1.field
    glue_rows = []
    for i in range(s1.tgt_dim):
        glue_rows.append(tuple(s1.right.rows[i])
                         + tuple(-x for x in s2.left.rows[i]))
    glue = Mat(glue_rows, s1.mid_dim + s2.mid_dim)
    k = kernel_basis(field, glue)
    top = Mat(k.rows[: s1.mid_dim], k.ncols)
    bottom = Mat(k.rows[s1.mid_dim:], k.ncols)
    left = mat_mul(field, s1.left, top)
    right = mat_mul(field, s2.right, bottom)
    return Span(field, s1.src_dim, s2.tgt_dim, k.ncols, left, right)


def tensor_spans(s1, s2):
    if s1.field is not s2.field:
        raise DimensionMismatch("spans over different fields")
    field = s1.field

    def block(a, b):
        rows = []
        for r in a.rows:
            rows.append(tuple(r) + (field.zero,) * b.ncols)
        for r in b.rows:
            rows.append((field.zero,) * a.ncols + tuple(r))
        return Mat(rows, a.ncols + b.ncols)

    return Span(field, s1.src_dim + s2.src_dim, s1.tgt_dim + s2.tgt_dim,
                s1.mid_dim + s2.mid_dim, block(s1.left, s2.left),
                block(s1.right, s2.right))


def evaluate_tangle(expr, field):
    """Fold generator spans under composition and tensor."""
    if isinstance(expr, Gen):
        return generator_span(expr.name, field)
    if isinstance(expr, Compose):
        return compose_spans(evaluate_tangle(expr.first, field),
                             evaluate_tangle(expr.then, field))
    if isinstance(expr, Tensor):
        return tensor_spans(evaluate_tangle(expr.left, field),
                            evaluate_tangle(expr.right, field))
    raise TypeError("not a tangle expression: %r" % (expr,))


def spans_equivalent(s1, s2):
    """Equivalence of linear spans: equal mid dimensions and equal images
    of the stacked maps (left over right) in src + tgt."""
    if s1.field is not s2.field:
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
    equation per X generator, one gluing equation per composition seam;
    `pairs` are the variables that lie on one strand."""

    __slots__ = ("nvars", "equations", "bottom", "top", "pairs")

    def __init__(self, nvars, equations, bottom, top, pairs):
        self.nvars = nvars
        self.equations = equations
        self.bottom = bottom
        self.top = top
        self.pairs = pairs

    def circle_count(self):
        """Connected components of the underlying strands."""
        labels = label_classes(self.nvars,
                               [(a + 1, b + 1) for a, b in self.pairs])
        return max(labels.values(), default=0)

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
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    tinv = LaurentPoly.monomial(-1)
    equations = []
    pairs = []
    nvars = 0

    def fresh():
        nonlocal nvars
        nvars += 1
        return nvars - 1

    def walk(node):
        if isinstance(node, Gen):
            name = node.name
            if name in ("id+", "id-"):
                v = fresh()
                return [v], [v]
            if name == "xp":
                a1, a2, c = fresh(), fresh(), fresh()
                equations.append({a2: t, a1: one - t, c: -one})
                pairs.append((a2, c))
                return [a1, a2], [c, a1]
            if name == "xm":
                a1, a2, c = fresh(), fresh(), fresh()
                equations.append({a1: tinv, a2: one - tinv, c: -one})
                pairs.append((a1, c))
                return [a1, a2], [a2, c]
            if name in ("ev+-", "ev-+"):
                v = fresh()
                return [v, v], []
            if name in ("coev+-", "coev-+"):
                v = fresh()
                return [], [v, v]
            raise ValueError(name)
        if isinstance(node, Compose):
            b1, t1 = walk(node.first)
            b2, t2 = walk(node.then)
            for x, y in zip(t1, b2):
                if x != y:
                    equations.append({x: one, y: -one})
                    pairs.append((x, y))
            return b1, t2
        if isinstance(node, Tensor):
            bl, tl = walk(node.left)
            br, tr = walk(node.right)
            return bl + br, tl + tr
        raise TypeError("not a tangle expression: %r" % (node,))

    bottom, top = walk(expr)
    return BoundarySystem(nvars, equations, bottom, top, pairs)


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
    return Span(field, len(system.bottom), len(system.top), k.ncols,
                left, right)


def closed_tangle_delta(expr):
    """Alexander polynomial of a closed expression by the tangle route's
    own elimination: merging the variables that gluing rows join gives
    Alexander's crossing-by-arc matrix (Trans. AMS 30, 1928); its forward
    fraction-free pass, less a column and a row, ends on Delta or 0."""
    if expr.source or expr.target:
        raise DimensionMismatch("expression is not closed")
    system = tangle_system(expr)
    arc = label_classes(system.nvars, [tuple(v + 1 for v in eq)
                                       for eq in system.equations
                                       if len(eq) == 2])
    n = max(arc.values(), default=0)
    if n <= 1:
        return LaurentPoly.one()
    rows = []
    for eq in system.equations:
        if len(eq) == 3:
            row = [LaurentPoly.zero()] * n
            for var, coeff in eq.items():
                row[arc[var + 1] - 1] += coeff
            rows.append(row[:-1])
    reduced, pivots = _fraction_free(GenericTField(),
                                     Mat(rows[: n - 1], n - 1), full=False)
    if len(pivots) < n - 1:
        return LaurentPoly.zero()
    return canonical_poly(reduced[n - 2][pivots[-1]])


def _tensor_chain(exprs):
    out = exprs[0]
    for e in exprs[1:]:
        out = Tensor(out, e)
    return out


def _id_block(sign, count):
    return [Gen("id+" if sign == "+" else "id-") for _ in range(count)]


def braid_expr(b):
    """A braid word as a DSL expression on n upward strands."""
    n = b.strands
    if not b.letters:
        return _tensor_chain(_id_block("+", n))
    slices = []
    for letter in b.letters:
        i = abs(letter)
        factors = (_id_block("+", i - 1)
                   + [Gen("xp" if letter > 0 else "xm")]
                   + _id_block("+", n - i - 1))
        slices.append(_tensor_chain(factors))
    out = slices[0]
    for s in slices[1:]:
        out = Compose(out, s)
    return out


def braid_closure_expr(b):
    """Closure of a braid in the DSL: nested coev cups, the braid on the
    + block, then nested ev caps (strand j pairs with cup n+1-j)."""
    n = b.strands
    cups = Gen("coev-+")
    for k in range(2, n + 1):
        layer = _tensor_chain(_id_block("-", k - 1) + [Gen("coev-+")]
                              + _id_block("+", k - 1))
        cups = Compose(cups, layer)
    middle = _tensor_chain(_id_block("-", n) + [braid_expr(b)])
    caps = Gen("ev-+")
    for k in range(2, n + 1):
        layer = _tensor_chain(_id_block("-", k - 1) + [Gen("ev-+")]
                              + _id_block("+", k - 1))
        caps = Compose(layer, caps)
    return Compose(Compose(cups, middle), caps)
