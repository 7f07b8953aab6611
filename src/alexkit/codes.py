"""Diagram input formats: braid words, crossing lists, PD codes, braid
closure, and the built-in catalog of standard examples.

The canonical internal format is the CrossingList: one record
(under_in, over, under_out, sign) per crossing, matching the Wirtinger
relation x_out = x_over^{sign} x_in x_over^{-sign}.
"""
from __future__ import annotations

import re

from .errors import (AmbiguousOrientation, NotFound, ParseError,
                     ValidationError)
from .laurent import LaurentPoly, _int, _size, _Value


def _strip_comments(text):
    """The text with each `#` comment blanked to spaces to its line's end."""
    return "".join(body.split("#", 1)[0].ljust(len(body)) + line[len(body):]
                   for line, body in zip(text.splitlines(keepends=True),
                                         text.splitlines()))


def _number(digits, position):
    """A digit string as an int; one past Python's digit limit for int
    raises ParseError at `position`."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("%d-digit number is too long" % len(digits), position)


class BraidWord(_Value):
    """Artin braid word on `strands` strands; letters are nonzero signed
    generator indices with |letter| < strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        strands = _size(strands, "strand count", 1)
        letters = tuple(_int(x, "braid letter") for x in letters)
        for x in letters:
            if x == 0 or abs(x) >= strands:
                raise ValidationError("letter %d out of range for %d strands"
                                      % (x, strands))
        self.strands = strands
        self.letters = letters

    def _key(self):
        return self.strands, self.letters

    def render(self):
        toks = ["s%d" % x if x > 0 else "S%d" % -x for x in self.letters]
        return "%d:%s" % (self.strands, (" " + " ".join(toks)) if toks else "")

    def permutation(self):
        """Strand permutation: position p at the bottom ends at perm[p]."""
        perm = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def component_count(self):
        """Number of components of the closure = cycles of the permutation."""
        pairs = [(p + 1, q + 1) for p, q in enumerate(self.permutation())]
        return max(label_classes(self.strands, pairs).values())

    def __repr__(self):
        return "BraidWord<%s>" % self.render()


def parse_braid(text):
    """Parse "<n>: s1 S2 -1 ..." (S<i> and negative integers are inverses)."""
    body = _strip_comments(text).strip()
    if ":" not in body:
        raise ParseError("expected '<strands>:' header", position=0)
    head, _, rest = body.partition(":")
    head = head.strip()
    if not re.fullmatch(r"[0-9]+", head):
        raise ParseError("bad strand count %r" % head, position=0)
    strands = _number(head, 0)
    letters = []
    for idx, tok in enumerate(rest.split()):
        m = re.fullmatch(r"(s|S|[+-]?)([0-9]+)", tok)
        if not m:
            raise ParseError("bad braid token %r" % tok, position=idx + 1)
        val = _number(m[2], idx + 1) * (-1 if m[1] in ("S", "-") else 1)
        if val == 0 or abs(val) >= strands:
            raise ParseError("generator index out of range in %r" % tok,
                             position=idx + 1)
        letters.append(val)
    return BraidWord(strands, letters)


def label_classes(size, pairs):
    """Union-find over the elements 1..size joined by `pairs`: returns
    {element: class label}, classes numbered 1, 2, ... in the order of
    their least members."""
    parent = list(range(size + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    labels = {}
    order = {}
    for x in range(1, size + 1):
        labels[x] = order.setdefault(find(x), len(order) + 1)
    return labels


class Crossing(_Value):
    """One crossing record (under_in, over, under_out, sign)."""

    __slots__ = ("under_in", "over", "under_out", "sign")

    def __init__(self, under_in, over, under_out, sign):
        if sign not in (1, -1):
            raise ValidationError("crossing sign must be +-1")
        self.under_in = _int(under_in, "arc")
        self.over = _int(over, "arc")
        self.under_out = _int(under_out, "arc")
        self.sign = sign

    def astuple(self):
        return (self.under_in, self.over, self.under_out, self.sign)

    _key = astuple

    def __repr__(self):
        return "Crossing(%d, %d, %d, %+d)" % self.astuple()


class CrossingList(_Value):
    """Closed-diagram crossing data with derived component labels."""

    __slots__ = ("arc_count", "crossings", "components")

    def __init__(self, arc_count, crossings=()):
        arc_count = _size(arc_count, "arc count", 1)
        crossings = tuple(crossings)
        under_in_seen = {}
        under_out_seen = {}
        for c in crossings:
            for arc in (c.under_in, c.over, c.under_out):
                if not 1 <= arc <= arc_count:
                    raise ValidationError("arc %d out of range 1..%d"
                                          % (arc, arc_count))
            if c.under_out in under_out_seen:
                raise ValidationError("arc %d emitted by two crossings"
                                      % c.under_out)
            if c.under_in in under_in_seen:
                raise ValidationError("arc %d consumed by two crossings"
                                      % c.under_in)
            under_out_seen[c.under_out] = c
            under_in_seen[c.under_in] = c
        # closed diagram: an arc either ends under a crossing on both
        # sides or is a free loop
        loose = under_out_seen.keys() ^ under_in_seen.keys()
        if loose:
            raise ValidationError("arc %d has a loose end" % min(loose))
        self.arc_count = arc_count
        self.crossings = crossings
        self.components = label_classes(
            arc_count, [(c.under_in, c.under_out) for c in crossings])

    @property
    def component_count(self):
        return max(self.components.values())

    def _key(self):
        return self.arc_count, self.crossings

    def render(self):
        lines = ["arcs %d" % self.arc_count]
        for c in self.crossings:
            lines.append("x %d %d %d %s"
                         % (c.under_in, c.over, c.under_out,
                            "+" if c.sign > 0 else "-"))
        return "\n".join(lines)

    def __repr__(self):
        return "CrossingList<arcs=%d, crossings=%d>" % (
            self.arc_count, len(self.crossings))


def parse_crossing_list(text):
    """Parse "arcs <n>" and "x i j k +|-" lines; positions are line numbers."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(
        _strip_comments(text).splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty crossing-list input", position=0)
    (lineno, ln), *lines = lines
    m = re.fullmatch(r"arcs\s+([0-9]+)", ln)
    if not m:
        raise ParseError("expected 'arcs <n>' header, got %r" % ln,
                         position=lineno)
    arc_count = _number(m[1], lineno)
    crossings = []
    for lineno, ln in lines:
        m = re.fullmatch(r"x\s+([0-9]+)\s+([0-9]+)\s+([0-9]+)\s+([+-])", ln)
        if not m:
            raise ParseError("bad crossing line %r" % ln, position=lineno)
        crossings.append(Crossing(*(_number(m[i], lineno) for i in (1, 2, 3)),
                                  1 if m[4] == "+" else -1))
    return CrossingList(arc_count, crossings)


# After spaces and commas: an X[a,b,c,d] tuple, else one unexpected
# character, else the end.
_PD_TOKEN = re.compile(r"[\s,]*(?:X\[%s\]|(.)|\Z)"
                       % ",".join([r"\s*([0-9]+)\s*"] * 4), re.DOTALL)


def parse_pd(text):
    """Parse planar-diagram tuples X[a,b,c,d] (a = incoming under-arc,
    labels counterclockwise) into a CrossingList; text with no tuples,
    the empty string among it, is the unknot.

    The over-strand labels b and d belong to one Wirtinger arc and are
    merged; sign is + when d = b+1 (mod 2m) and - when b = d+1 (mod 2m).
    """
    tuples = []
    for m in _PD_TOKEN.finditer(_strip_comments(text)):
        if m[5]:
            raise ParseError("bad PD token", position=m.start(5))
        if m[1]:
            tuples.append(tuple(_number(m[i], m.start(i))
                                for i in range(1, 5)))
    if not tuples:
        return CrossingList(1, ())
    labels = 2 * len(tuples)
    counts = {}
    for tup in tuples:
        for lab in tup:
            if not 1 <= lab <= labels:
                raise ValidationError("PD label %d out of range 1..%d"
                                      % (lab, labels))
            counts[lab] = counts.get(lab, 0) + 1
    for lab in range(1, labels + 1):
        if counts.get(lab, 0) != 2:
            raise ValidationError("PD label %d appears %d times, expected 2"
                                  % (lab, counts.get(lab, 0)))
    signs = []
    for a, b, c, d in tuples:
        forward = (b % labels) + 1 == d
        backward = (d % labels) + 1 == b
        if forward == backward:
            raise AmbiguousOrientation(
                "cannot orient PD crossing X[%d,%d,%d,%d]" % (a, b, c, d))
        signs.append(1 if forward else -1)
    arc_of = label_classes(labels, [(b, d) for _, b, _, d in tuples])
    crossings = [Crossing(arc_of[a], arc_of[b], arc_of[c], sign)
                 for (a, b, c, d), sign in zip(tuples, signs)]
    return CrossingList(max(arc_of.values()), crossings)


def braid_closure(b):
    """Crossing list of the braid closure: one crossing per letter, arcs
    joined top-to-bottom at matching positions.

    A positive letter takes the strand entering at position i over the
    strand at position i+1; the under-strand re-emerges as a fresh arc.
    """
    n = b.strands
    arcs = list(range(1, n + 1))
    start = list(arcs)
    next_arc = n + 1
    raw = []
    for letter in b.letters:
        i = abs(letter) - 1
        a1, a2 = arcs[i], arcs[i + 1]
        fresh = next_arc
        next_arc += 1
        if letter > 0:
            raw.append((a2, a1, fresh, 1))
            arcs[i], arcs[i + 1] = fresh, a1
        else:
            raw.append((a1, a2, fresh, -1))
            arcs[i], arcs[i + 1] = a2, fresh
    relabel = label_classes(next_arc - 1, zip(arcs, start))
    crossings = [Crossing(relabel[i], relabel[j], relabel[k], sign)
                 for i, j, k, sign in raw]
    return CrossingList(max(relabel.values()), crossings)


class CatalogEntry:
    """Named example with both a braid and a crossing-list representative."""

    __slots__ = ("name", "braid", "crossing_list", "delta")

    def __init__(self, name, braid_text, crossing_text, delta):
        self.name = name
        self.braid = parse_braid(braid_text)
        self.crossing_list = parse_crossing_list(crossing_text)
        self.delta = delta


_CATALOG = {
    "unknot": CatalogEntry(
        "unknot", "1:", "arcs 1", LaurentPoly({0: 1})),
    "trefoil": CatalogEntry(
        "trefoil", "2: s1 s1 s1",
        "arcs 3\nx 3 2 1 +\nx 1 3 2 +\nx 2 1 3 +",
        LaurentPoly({0: 1, 1: -1, 2: 1})),
    "figure8": CatalogEntry(
        "figure8", "3: s1 S2 s1 S2",
        # from the standard 4-crossing planar diagram of the figure-eight
        "arcs 4\nx 2 1 3 -\nx 4 3 1 -\nx 3 2 4 +\nx 1 4 2 +",
        LaurentPoly({0: 1, 1: -3, 2: 1})),
    "hopf": CatalogEntry(
        "hopf", "2: s1 s1",
        "arcs 2\nx 2 1 2 +\nx 1 2 1 +",
        LaurentPoly({0: 1, 1: -1})),
    "solomon": CatalogEntry(
        "solomon", "2: s1 s1 s1 s1",
        "arcs 4\nx 2 1 3 +\nx 1 3 4 +\nx 3 4 2 +\nx 4 2 1 +",
        LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1})),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_lookup(name):
    try:
        return _CATALOG[name]
    except KeyError:
        raise NotFound("no catalog entry named %r" % name)
