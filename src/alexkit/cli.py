"""Command-line front end: `alexkit <verb> [--format F] [--t T] [--json]
[--file P | <inline input>]`.

Each verb but `selftest` is one handler in `_HANDLERS`, which reads the
formats listed with it; another `--format` is a ParseError.  A failure
prints `error: <message>` on stderr and exits with the error's
`AlexkitError.exit_code`: 2 for parse and validation errors, 1 when routes
disagree, 3 for the other domain errors.  Under `--file` each failing line
prints an error object with its `error_type` and `exit_code` instead.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import re
import sys
from fractions import Fraction

from . import burau as burau_mod
from .alexander import (alexander_data, alexander_matrix, fibre_dimension,
                        knot_delta, multivariable_alexander,
                        ring_presentation, virtual_class)
from .codes import (braid_closure, catalog_lookup, catalog_names,
                    parse_braid, parse_crossing_list, parse_pd)
from .errors import (AlexkitError, ParseError, RouteDisagreement,
                     UseMultivariableRoute)
from .fields import (ComplexPoint, GenericTField, Mat, RationalPoint,
                     mat_identity)
from .laurent import LaurentPoly, canonical_poly, normalize_unit
from .tangles import (Span, braid_closure_expr, closed_tangle_delta,
                      evaluate_tangle, parse_tangle)

_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# "a+bi", "a-bi" or "bi"; a real part must be followed by the sign of b
_COMPLEX_RE = re.compile(
    r"(?:([+-]?%s)(?=[+-]))?([+-]?%s)i" % (_NUMBER, _NUMBER))

# a value after --t that argparse would take for an option
_NEGATIVE_T_RE = re.compile(r"-[0-9.]")

def parse_t_spec(text):
    """"generic" | rational "p/q" | complex "a+bi"."""
    text = text.strip()
    if text == "generic":
        return GenericTField()
    m = _COMPLEX_RE.fullmatch(text)
    if m:
        value = complex(float(m.group(1) or 0), float(m.group(2)))
        if not cmath.isfinite(value):
            raise ParseError("t-spec %r is not finite" % text)
        return ComplexPoint(value)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("cannot parse t-spec %r" % text)
    return RationalPoint(value)


def _load_diagram(fmt, text):
    if fmt == "xcode":
        return parse_crossing_list(text)
    if fmt == "pd":
        return parse_pd(text)
    return braid_closure(parse_braid(text))


def _poly_json(p):
    """A univariate or multivariate polynomial as JSON fields; a
    multivariate exponent tuple is written as an array."""
    return {
        "coeffs": [[e, c.numerator, c.denominator]
                   for e, c in sorted(p.coeffs.items())],
        "pretty": p.render(),
    }


def _alexander(text, fmt, field):
    diagram = _load_diagram(fmt, text)
    delta = (knot_delta if diagram.component_count == 1
             else multivariable_alexander)(diagram)
    return {"delta": _poly_json(delta)}, delta.render()


def _burau(text, fmt, field):
    m = burau_mod.burau_unreduced(parse_braid(text))
    pretty = [[entry.render() for entry in row] for row in m.rows]
    obj = {"matrix": [[_poly_json(entry)["coeffs"] for entry in row]
                      for row in m.rows]}
    return obj, "\n".join("[%s]" % ", ".join(row) for row in pretty)


def _fiber(text, fmt, field):
    dim = fibre_dimension(alexander_matrix(_load_diagram(fmt, text)), field)
    return {"fiber_dim": dim}, str(dim)


def _knot_data(verb, text, fmt):
    diagram = _load_diagram(fmt, text)
    if diagram.component_count != 1:
        raise UseMultivariableRoute("verb %r needs a knot" % verb)
    return alexander_data(alexander_matrix(diagram))


def _strata(text, fmt, field):
    strata = _knot_data("strata", text, fmt).strata
    lines = ["S^%d = %d" % (k, c) for k, c in strata]
    return ({"strata": [[k, c] for k, c in strata]},
            "\n".join(lines) if lines else "none")


def _virtual_class(text, fmt, field):
    vc = virtual_class(_knot_data("virtual-class", text, fmt))
    return ({"virtual_class": [[e, c] for e, c in sorted(vc.coeffs.items())]},
            vc.render())


def _module(text, fmt, field):
    data = _knot_data("module", text, fmt)
    obj = {"delta_k": [_poly_json(p) for p in data.delta_k],
           "invariant_factors": [_poly_json(p)
                                 for p in data.invariant_factors]}
    lines = ["d%d = %s" % (i, p.render())
             for i, p in enumerate(data.invariant_factors, start=1)]
    return obj, "\n".join(lines) if lines else "none"


def _ring(text, fmt, field):
    pres = ring_presentation(_load_diagram(fmt, text))
    return ({"generators": pres.generator_count,
             "relations": [pres.render_relation(row)
                           for row in pres.relations]},
            pres.render())


def _span(text, fmt, field):
    if fmt == "dsl":
        span = evaluate_tangle(parse_tangle(text), field)
    else:
        b = parse_braid(text)
        m = burau_mod.burau_unreduced(b)
        rows = [[field.from_laurent(entry) for entry in row]
                for row in m.rows]
        span = Span(field, mat_identity(field, b.strands),
                    Mat(rows, b.strands))
    return ({"span": {"src": span.src_dim, "mid": span.mid_dim,
                      "tgt": span.tgt_dim}},
            "src=%d mid=%d tgt=%d" % (span.src_dim, span.mid_dim,
                                      span.tgt_dim))


def _closure(text, fmt, field):
    delta = burau_mod.closure_alexander(parse_braid(text))
    return {"delta": _poly_json(delta)}, delta.render()


def _catalog(text, fmt, field):
    entries = [catalog_lookup(n) for n in ([text] if text
                                           else catalog_names())]
    obj = {"entries": [{"name": e.name, "braid": e.braid.render(),
                        "delta": _poly_json(e.delta)} for e in entries]}
    return obj, "\n".join("%s: braid=%s delta=%s"
                          % (e.name, e.braid.render(), e.delta.render())
                          for e in entries)


_DIAGRAM = ("braid", "xcode", "pd")
_FORMATS = _DIAGRAM + ("dsl",)

# verb -> (handler(text, fmt, field) -> (JSON fields, text output), the
# formats it reads).  The handlers look up the library functions when
# called, so rebinding a module attribute (as a tracer does) reaches them.
_HANDLERS = {
    "alexander": (_alexander, _DIAGRAM), "burau": (_burau, ("braid",)),
    "fiber": (_fiber, _DIAGRAM), "strata": (_strata, _DIAGRAM),
    "virtual-class": (_virtual_class, _DIAGRAM), "module": (_module, _DIAGRAM),
    "ring": (_ring, _DIAGRAM), "span": (_span, ("dsl", "braid")),
    "closure": (_closure, ("braid",)), "catalog": (_catalog, _FORMATS),
}

_VERBS = tuple(_HANDLERS) + ("selftest",)


def _run_verb(verb, text, fmt, field):
    """Returns (json_object, text_output)."""
    handler, formats = _HANDLERS[verb]
    if fmt not in formats:
        raise ParseError("%s needs --format %s" % (verb, " or ".join(formats)))
    obj, out = handler(text, fmt, field)
    return {"verb": verb, "input": text or "", **obj}, out


def _torres_delta(diagram):
    """(t - 1) Delta_L(t, .., t) of a link, which Torres's condition
    equates with its one-variable Delta."""
    t = LaurentPoly.t()
    mv = multivariable_alexander(diagram)
    return canonical_poly((t - LaurentPoly.one()) * mv.set_all_equal())


def selftest_report(names=None):
    """Cross-route consistency over the catalog; returns (lines, ok).
    A route fails when its value differs from the catalog's or when its
    own cross-check raises RouteDisagreement.  Links also take the `mv`
    route, the Torres condition on the multivariable Delta_L."""
    if names is None:
        names = catalog_names()
    lines = []
    all_ok = True
    for name in names:
        entry = catalog_lookup(name)
        expected = normalize_unit(entry.delta)
        routes = {
            "fox": lambda: knot_delta(entry.crossing_list),
            "burau": lambda: burau_mod.closure_alexander(entry.braid),
            "tqft": lambda: closed_tangle_delta(
                braid_closure_expr(entry.braid)),
        }
        if entry.crossing_list.component_count > 1:
            routes["mv"] = lambda: _torres_delta(entry.crossing_list)
        bad = []
        for route, compute in routes.items():
            try:
                val = compute()
            except RouteDisagreement:
                bad.append(route)
                continue
            if val.is_zero or normalize_unit(val) != expected:
                bad.append(route)
        if bad:
            all_ok = False
            lines.append("%s: FAIL (%s)" % (name, ", ".join(sorted(bad))))
        else:
            lines.append("%s: ok" % name)
    return lines, all_ok


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alexkit",
        description="Alexander-type invariants by Fox calculus, tangle "
                    "spans, and Burau matrices.")
    parser.add_argument("verb", choices=_VERBS)
    parser.add_argument("--format", dest="fmt", default="braid",
                        choices=_FORMATS)
    parser.add_argument("--t", dest="t_spec", default="generic")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--file", dest="path")
    parser.add_argument("input", nargs="?", default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser(), once per process: argparse leaves a parser as it
    found it after each parse.  Its usage string is fixed here, since
    parse_intermixed_args formats it on every call while it is unset."""
    parser = build_parser()
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def _emit_json(obj):
    return json.dumps(obj, separators=(",", ":"))


def _bind_t_values(argv):
    """Rewrite `--t -1/3` as `--t=-1/3`, so a negative t-spec is read as
    the value of --t."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and _NEGATIVE_T_RE.match(arg):
            out[-1] = "--t=" + arg
        else:
            out.append(arg)
    return out


def _run_batch(args, field):
    """One JSON line per input line of --file, an error object for a line
    that fails; exit 2 if the file cannot be read."""
    try:
        with open(args.path) as handle:
            raw_lines = handle.read().splitlines()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for raw in raw_lines:
        stripped = raw.split("#", 1)[0].strip() \
            if args.fmt != "dsl" else raw.strip()
        if not stripped:
            continue
        try:
            obj, _ = _run_verb(args.verb, stripped, args.fmt, field)
            print(_emit_json(obj))
        except AlexkitError as exc:
            print(_emit_json({"verb": args.verb, "input": stripped,
                              "error": str(exc),
                              "error_type": type(exc).__name__,
                              "exit_code": exc.exit_code}))
    return 0


def run(argv):
    try:
        args = _parser().parse_intermixed_args(_bind_t_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        field = parse_t_spec(args.t_spec)
        if args.verb == "selftest":
            lines, ok = selftest_report()
            print("\n".join(lines))
            return 0 if ok else 1
        if args.path is not None:
            return _run_batch(args, field)
        if args.input is None and args.verb != "catalog":
            raise ParseError("missing input")
        obj, text = _run_verb(args.verb, args.input, args.fmt, field)
    except AlexkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    print(_emit_json(obj) if args.json else text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
