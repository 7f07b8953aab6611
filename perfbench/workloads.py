"""The four benchmark workloads: seeded input streams, the timed call for
each input, and the correctness check that runs after the timed window.

A workload is one pass: a fixed list of input kinds and sizes, with the
random words inside them drawn from the seed.  The run repeats the pass,
so every seed measures the same mix and only the words change.
"""
from __future__ import annotations

import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

from alexkit import alexander, burau, cli, codes, fields, tangles
from alexkit.errors import ParseError
from alexkit.laurent import LaurentPoly, canonical_poly

WORKLOADS = ("fox_long", "burau_multivar", "tangle_spans", "cli_mixed")


class Case:
    """One benchmark input.  `text` is a braid word, or the argv tuple of
    a CLI call; `arg` is the t-spec of an open span or the documented exit
    code of a CLI call; `family` names the slot that produced it."""

    __slots__ = ("ident", "kind", "text", "arg", "family")

    def __init__(self, kind, text, arg=None, family=""):
        self.ident = -1
        self.kind = kind
        self.text = text
        self.arg = arg
        self.family = family

    def key(self):
        return [self.kind, self.text, self.arg, self.family]


def make_api():
    """The library functions the benchmark calls directly.  The tracer
    wraps these bindings as well as the ones inside the package."""
    return SimpleNamespace(
        parse_braid=codes.parse_braid,
        braid_closure=codes.braid_closure,
        knot_delta=alexander.knot_delta,
        multivariable_alexander=alexander.multivariable_alexander,
        closure_alexander=burau.closure_alexander,
        braid_expr=tangles.braid_expr,
        braid_closure_expr=tangles.braid_closure_expr,
        closed_tangle_delta=tangles.closed_tangle_delta,
        evaluate_tangle=tangles.evaluate_tangle,
        tangle_linear_system=tangles.tangle_linear_system,
        cli_run=cli.run,
    )


# ---------------------------------------------------------------- corpus

def parity_length(strands, length, components=1):
    """Smallest length >= `length` a braid on `strands` strands can have
    when its closure has `components` components."""
    return length + (length - strands + components) % 2


def random_braid(rng, strands, length, components=1):
    """Random braid word, without adjacent cancelling letters, whose
    closure has exactly `components` components.

    A word of length L has a permutation of sign (-1)^L, and a permutation
    of n points with c cycles has sign (-1)^(n - c).  Unless L = n - c
    (mod 2) no word can succeed, and rejection sampling never ends."""
    if (length - strands + components) % 2 or length < strands - components:
        raise ValueError("no %d-strand braid of length %d closes to %d "
                         "components" % (strands, length, components))
    while True:
        letters = []
        while len(letters) < length:
            g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
            if not letters or letters[-1] != -g:
                letters.append(g)
        b = codes.BraidWord(strands, letters)
        if b.component_count() == components:
            return b


def _torus(k):
    return codes.BraidWord(2, [1] * k)


def _knots(rng, kind, schedule, family):
    return [Case(kind, random_braid(rng, n, parity_length(n, length))
                 .render(), family="%s%d" % (family, n))
            for n, length in schedule]


def _fox_long(rng):
    """Fox route: T(2,k), random knot braids and long 3-strand words."""
    cases = [Case("fox", _torus(k).render(), family="T2:%d" % k)
             for k in range(21, 62, 4)]
    cases += _knots(rng, "fox", zip(itertools.cycle(range(3, 11)),
                                    (30, 32, 34, 36) * 3), "knot")
    cases.append(Case("fox", codes.BraidWord(3, [1, -2] * 25).render(),
                      family="long3"))
    cases.append(Case("fox", random_braid(rng, 3, 50).render(),
                      family="long3"))
    return cases


def _burau_multivar(rng):
    """Cofactor determinants: Burau closures and multivariable links.
    Costs vary widely between random words of one size, so the pass holds
    many small inputs rather than a few large ones."""
    cases = _knots(rng, "burau", ((6, 13), (6, 15), (6, 17), (6, 19),
                                  (7, 14), (7, 16)) * 6, "knot")
    for n, c in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)) * 3:
        for length in (8, 10, 12):
            b = random_braid(rng, n, parity_length(n, length, c), c)
            cases.append(Case("mv", b.render(), family="link%d" % c))
    return cases


_RATIONAL_T = ("2/3", "-3", "5/2")
_COMPLEX_T = ("0.3+0.9i", "-0.7+0.4i", "1.5-0.5i")


def _open_braid(rng, n, length):
    """Random braid word for an open tangle (any permutation)."""
    return codes.BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(length)]).render()


def _tangle_spans(rng):
    """Tangle route: closed braid closures and open braid tangles, each
    open one at a rational and a complex t, small ones also generically."""
    cases = _knots(rng, "closed", ((3, 10), (4, 11), (3, 12), (5, 10),
                                   (3, 14), (4, 13), (3, 10), (6, 11)),
                   "closed")
    sizes = ((2, 8), (3, 10), (4, 12), (2, 14), (3, 8), (4, 10), (2, 12),
             (3, 14), (2, 10), (3, 12), (4, 8), (2, 9))
    for i, (n, length) in enumerate(sizes):
        specs = "%s,%s" % (_RATIONAL_T[i % 3], _COMPLEX_T[i % 3])
        cases.append(Case("open", _open_braid(rng, n, length), specs,
                          family="open"))
    for length in (9, 10):
        cases.append(Case("open", _open_braid(rng, 3, length), "generic",
                          family="generic"))
    return cases


# Malformed CLI calls: argv built from a knot word, documented exit code.
_MALFORMED = (
    (lambda w, r: ("alexander", "%d: s1 s%d" % (r + 2, r + 2)), 2),
    (lambda w, r: ("alexander", w.split(":", 1)[1]), 2),
    (lambda w, r: ("alexander", "--format", "pd", "X[1,2,3]"), 2),
    (lambda w, r: ("alexander", "--format", "xcode",
                   "arcs 2\nx 1 2 %d +" % (r + 3)), 2),
    (lambda w, r: ("fiber", "--t", "0", w), 3),
    (lambda w, r: ("fiber", "--t", "two", w), 2),
    (lambda w, r: ("catalog", "knot%d" % r), 2),
    (lambda w, r: ("span", "--format", "dsl", "xp ; ev+-"), 2),
    (lambda w, r: ("span", "--format", "pd", w), 2),
    (lambda w, r: ("strata", "2: " + "s1 " * (2 * r + 2)), 3),
    (lambda w, r: ("ring", "2: s1 s1"), 3),
    (lambda w, r: ("colour", w), 2),
    (lambda w, r: ("alexander",), 2),
)

# 0.5+0.866...i is a root of the trefoil's Delta, where the fibre jumps.
_FIBER_T = ("generic", "2", "-1/3", "3/2", "0.3+0.9i",
            "0.5+0.8660254037844386i")


def braid_to_pd(b):
    """Planar-diagram code of a knot's braid closure.

    Edges are numbered along the knot; each crossing lists its incoming
    under-edge first and then the other three counterclockwise."""
    m = 2 * len(b.letters)
    roles = [{} for _ in b.letters]
    pos = label = 0
    while True:
        for idx, letter in enumerate(b.letters):
            i = abs(letter) - 1
            if pos in (i, i + 1):
                label += 1
                under = pos == (i + 1 if letter > 0 else i)
                roles[idx]["under" if under else "over"] = label
                pos = i + 1 if pos == i else i
        if pos == 0:
            break
    if label != m:
        raise ValueError("braid closure is not a knot")
    tuples = []
    for letter, role in zip(b.letters, roles):
        a, o = role["under"], role["over"]
        if letter > 0:
            tuples.append((a, o % m + 1, a % m + 1, o))
        else:
            tuples.append((a, o, a % m + 1, o % m + 1))
    return " ".join("X[%d,%d,%d,%d]" % t for t in tuples)


def _cli_mixed(rng, workdir):
    """Small inputs through `alexkit.cli.run`: every verb, some batches
    and a fixed share of malformed calls.  Every choice but the random
    words follows a fixed cycle, so each seed runs the same mix."""
    knot_kinds = itertools.cycle(("catalog", "torus", "random", "random"))
    catalog_knots = itertools.cycle(("trefoil", "figure8"))
    torus = itertools.cycle(range(3, 22, 2))
    knot_sizes = itertools.cycle(((2, 7), (3, 8), (4, 9), (3, 10), (4, 11),
                                  (2, 12)))
    link_sizes = itertools.cycle(((2, 6), (3, 7), (4, 8), (3, 9), (2, 10)))
    fiber_t = itertools.cycle(_FIBER_T)
    span_t = itertools.cycle(_RATIONAL_T + _COMPLEX_T)
    span_closed = itertools.cycle((False, True))
    xcode_verbs = itertools.cycle(("alexander", "module"))
    catalog_args = itertools.cycle(("trefoil", "figure8", "solomon", "hopf",
                                    "unknot", ""))
    malformed = itertools.cycle(_MALFORMED)
    batch_sizes = itertools.cycle((3, 4, 5, 6))
    batches = itertools.count()

    def small_knot():
        kind = next(knot_kinds)
        if kind == "catalog":
            return codes.catalog_lookup(next(catalog_knots)).braid
        if kind == "torus":
            return _torus(next(torus))
        n, length = next(knot_sizes)
        return random_braid(rng, n, parity_length(n, length))

    for slot in itertools.cycle(("alexander", "closure", "fiber", "strata",
                                 "pd", "virtual-class", "malformed",
                                 "module", "span", "xcode", "ring",
                                 "catalog", "link", "fiber", "batch",
                                 "malformed", "json")):
        if slot == "malformed":
            make, code = next(malformed)
            yield Case("cli", make(small_knot().render(), rng.randint(1, 9)),
                       code, family="malformed")
            continue
        if slot == "catalog":
            name = next(catalog_args)
            argv = ("catalog", name) if name else ("catalog",)
        elif slot == "link":
            n, length = next(link_sizes)
            argv = ("alexander", random_braid(
                rng, n, parity_length(n, length, 2), 2).render())
        elif slot == "pd":
            b = small_knot()
            while len(b.letters) < 3:
                b = small_knot()
            argv = ("alexander", "--format", "pd", braid_to_pd(b))
        elif slot == "xcode":
            argv = (next(xcode_verbs), "--format", "xcode",
                    codes.braid_closure(small_knot()).render())
        elif slot == "fiber":
            argv = ("fiber", "--t=" + next(fiber_t), small_knot().render())
        elif slot == "span":
            b = small_knot()
            closed = next(span_closed) and b.strands <= 3
            expr = (tangles.braid_closure_expr(b) if closed
                    else tangles.braid_expr(b))
            argv = ("span", "--format", "dsl", "--t=" + next(span_t),
                    expr.render())
        elif slot == "json":
            argv = ("alexander", "--json", small_knot().render())
        elif slot == "batch":
            lines = [small_knot().render() for _ in range(next(batch_sizes))]
            lines.insert(len(lines) // 2, "3: s1 s7")
            path = os.path.join(workdir, "batch%d.txt" % next(batches))
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            argv = ("alexander", "--file", path)
        else:
            argv = (slot, small_knot().render())
        yield Case("cli", argv, 0, family=slot)


def warmup_cases(workload):
    """One small input of each kind the workload runs, to load code paths
    before the first timed call."""
    if workload == "cli_mixed":
        argvs = [(verb, "2: s1 s1 s1") for verb in
                 ("alexander", "closure", "strata", "virtual-class", "module",
                  "ring", "fiber")]
        argvs += [("fiber", "--t=0.3+0.9i", "2: s1 s1 s1"),
                  ("span", "--format", "dsl", "--t=2/3", "xp ; xm"),
                  ("catalog", "trefoil"), ("alexander", "2: s1 s7")]
        return [Case("cli", argv, 2 if argv[-1] == "2: s1 s7" else 0)
                for argv in argvs]
    return {"fox_long": [Case("fox", "3: s1 S2 s1 S2")],
            "burau_multivar": [Case("burau", "3: s1 S2 s1 S2"),
                               Case("mv", "2: s1 s1")],
            "tangle_spans": [Case("closed", "2: s1 s1 s1")]
            + [Case("open", "2: s1 S1 s1", "2/3,0.3+0.9i,generic")]}[workload]


# Distinct CLI calls per run: twenty cycles of the slot list.
CLI_CALLS = 340


def make_corpus(workload, rng, workdir):
    """The inputs of one pass; ids are positions."""
    if workload == "cli_mixed":
        cases = list(itertools.islice(_cli_mixed(rng, workdir), CLI_CALLS))
    else:
        cases = {"fox_long": _fox_long, "burau_multivar": _burau_multivar,
                 "tangle_spans": _tangle_spans}[workload](rng)
    for ident, case in enumerate(cases):
        case.ident = ident
    return cases


def corpus_digest_text(cases):
    """Canonical text of a corpus: batch files by name and content, since
    their directory differs from run to run."""
    parts = []
    for case in cases:
        key = case.key()
        if case.kind == "cli" and "--file" in case.text:
            path = _option(case.text, "--file", None)
            key[1] = [os.path.basename(a) if a == path else a
                      for a in case.text]
            with open(path) as handle:
                key.append(handle.read())
        parts.append(json.dumps(key))
    return "\n".join(parts)


# ------------------------------------------------------------- execution

def make_field(spec):
    if spec == "generic":
        return fields.GenericTField()
    if spec.endswith("i"):
        return fields.ComplexPoint(complex(spec.replace("i", "j")))
    return fields.RationalPoint(Fraction(spec))


def execute(case, api):
    """The timed call: one input from text to checked-result form."""
    kind = case.kind
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = api.cli_run(list(case.text))
        return code, out.getvalue(), err.getvalue()
    b = api.parse_braid(case.text)
    if kind == "fox":
        return api.knot_delta(api.braid_closure(b))
    if kind == "burau":
        return api.closure_alexander(b)
    if kind == "mv":
        return api.multivariable_alexander(api.braid_closure(b))
    if kind == "closed":
        return api.closed_tangle_delta(api.braid_closure_expr(b))
    expr = api.braid_expr(b)
    spans = []
    for spec in case.arg.split(","):
        field = make_field(spec)
        spans.append((api.evaluate_tangle(expr, field),
                      api.tangle_linear_system(expr, field)))
    return spans


def fingerprint(case, result):
    """Comparable summary of a result, for repeated inputs."""
    if case.kind == "cli":
        return result
    if case.kind == "open":
        return tuple((s.src_dim, s.mid_dim, s.tgt_dim)
                     for pair in result for s in pair)
    return result.render()


# ---------------------------------------------------------------- checks

class Mismatch(Exception):
    """A result disagrees with its independent reference."""


class Checker:
    """Compares results with references.  With `corrupt` set every
    reference is perturbed first, so each check must fail: this is how the
    smoke test shows that a wrong value is counted, not passed."""

    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def same(self, what, actual, expected):
        if self.corrupt:
            expected = _perturb(expected)
        if actual != expected:
            raise Mismatch("%s: got %r, expected %r" % (what, actual,
                                                        expected))


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, LaurentPoly)):
        return value + (1 if isinstance(value, int) else LaurentPoly.one())
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list):
        return value + [None]
    raise TypeError("cannot perturb %r" % (value,))


def _mirror(p):
    return LaurentPoly({-e: c for e, c in p.coeffs.items()})


def torus_delta(k):
    """Closed form for T(2,k), k odd: (t^k + 1)/(t + 1)."""
    return LaurentPoly({i: (-1) ** i for i in range(k)})


def _knot_sanity(chk, delta):
    chk.same("Delta != 0", delta.is_zero, False)
    chk.same("|Delta(1)|", abs(delta.evaluate(1)), 1)
    chk.same("Delta(t) ~ Delta(1/t)", canonical_poly(_mirror(delta)),
             canonical_poly(delta))


def _fox_delta(b):
    return alexander.knot_delta(codes.braid_closure(b))


def check(case, result, chk):
    """Raise Mismatch unless `result` agrees with an independent route,
    a closed form, or the documented CLI behaviour."""
    kind = case.kind
    if kind == "cli":
        _check_cli(case, result, chk)
        return
    b = codes.parse_braid(case.text)
    if kind == "open":
        for s_eval, s_lin in result:
            chk.same("span equivalence at %s" % s_eval.field.describe(),
                     tangles.spans_equivalent(s_eval, s_lin), True)
        return
    if kind == "mv":
        # Torres: the one-variable polynomial of a link is (t - 1) times
        # the multivariable one with every variable set to t.
        t = LaurentPoly.t()
        torres = (t - LaurentPoly.one()) * result.set_all_equal()
        chk.same("Torres condition vs Fox route", canonical_poly(torres),
                 canonical_poly(_fox_delta(b)))
        return
    _knot_sanity(chk, result)
    if kind == "fox" and case.family.startswith("T2:"):
        reference = torus_delta(int(case.family[3:]))
    elif kind == "fox":
        if b.strands > 4:
            return
        reference = burau.closure_alexander(b)
    else:
        reference = _fox_delta(b)
    chk.same("Delta vs reference", canonical_poly(result),
             canonical_poly(reference))


def _diagram(fmt, text):
    if fmt == "pd":
        return codes.parse_pd(text)
    if fmt == "xcode":
        return codes.parse_crossing_list(text)
    return codes.braid_closure(codes.parse_braid(text))


def _delta_text(diagram):
    if diagram.component_count == 1:
        return alexander.knot_delta(diagram).render()
    return alexander.multivariable_alexander(diagram).render()


def _option(argv, flag, default):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return default


def _fibre_reference(diagram, spec):
    """Fibre dimension from the Smith form: n minus the number of
    invariant factors that do not vanish at t (none vanish generically).
    This is independent of the rank routines the CLI uses."""
    m = alexander.alexander_matrix(diagram)
    factors = alexander.alexander_data(m).invariant_factors
    if spec == "generic":
        return m.arc_count - len(factors)
    if spec.endswith("i"):
        t = complex(spec.replace("i", "j"))
        alive = [d for d in factors if abs(d.evaluate(t)) > 1e-6]
    else:
        t = Fraction(spec)
        alive = [d for d in factors if d.evaluate(t) != 0]
    return m.arc_count - len(alive)


def _expected_text(argv):
    """Documented stdout of a well-formed call, from the library."""
    verb = argv[0]
    fmt = _option(argv, "--format", "braid")
    text = argv[-1]
    if verb == "catalog":
        names = [argv[1]] if len(argv) > 1 else codes.catalog_names()
        return "\n".join("%s: braid=%s delta=%s"
                         % (n, codes.catalog_lookup(n).braid.render(),
                            codes.catalog_lookup(n).delta.render())
                         for n in names)
    if verb == "span":
        field = make_field(_option(argv, "--t", "generic"))
        s = tangles.tangle_linear_system(tangles.parse_tangle(text), field)
        return "src=%d mid=%d tgt=%d" % (s.src_dim, s.mid_dim, s.tgt_dim)
    if verb == "closure":
        return alexander.knot_delta(_diagram("braid", text)).render()
    diagram = _diagram(fmt, text)
    if verb == "alexander":
        return _delta_text(diagram)
    if verb == "fiber":
        return str(_fibre_reference(diagram, _option(argv, "--t",
                                                     "generic")))
    if verb == "ring":
        return alexander.ring_presentation(diagram).render()
    data = alexander.alexander_data(alexander.alexander_matrix(diagram))
    if verb == "strata":
        lines = ["S^%d = %d" % kc for kc in data.strata]
    elif verb == "virtual-class":
        return alexander.virtual_class(data).render()
    else:
        lines = ["d%d = %s" % (i, p.render())
                 for i, p in enumerate(data.invariant_factors, start=1)]
    return "\n".join(lines) if lines else "none"


def _check_cli(case, result, chk):
    code, out, err = result
    argv = case.text
    chk.same("exit code", code, case.arg)
    if case.arg != 0:
        chk.same("stdout of a rejected call", out, "")
        chk.same("error message", err.strip() != "", True)
        return
    if "--file" in argv:
        with open(_option(argv, "--file", None)) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        objs = [json.loads(ln) for ln in out.splitlines()]
        got = [obj["delta"]["pretty"] if "delta" in obj else "error"
               for obj in objs]
        want = []
        for line in lines:
            try:
                want.append(_delta_text(_diagram("braid", line)))
            except ParseError:
                want.append("error")
        chk.same("batch results", got, want)
        return
    if "--json" in argv:
        out = json.loads(out)["delta"]["pretty"]
    chk.same("stdout", out.strip(), _expected_text(argv))
