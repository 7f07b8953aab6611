"""Per-layer tracing from the benchmark's own files.

The tracer replaces the bindings that callers look up -- attributes of the
benchmark's api namespace and of the alexkit modules that call the
function -- with timing wrappers.  The defining module's binding is
wrapped only where no function calls itself through it: wrapping
`snf.poly_det` or `tangles.evaluate_tangle` would time every recursive
call.  Spans (name, start, end, parent, input id) stay in memory; self
times and sizes are computed from them after each traced pass.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span name -> the (owner, attribute) bindings wrapped for it; the owner
# "api" is the benchmark's namespace, any other is an alexkit module.
BINDINGS = {
    "cli.run": (("api", "cli_run"),),
    "codes.parse_braid": (("api", "parse_braid"), ("cli", "parse_braid")),
    "codes.parse_crossing_list": (("cli", "parse_crossing_list"),),
    "codes.parse_pd": (("cli", "parse_pd"),),
    "tangles.parse_tangle": (("cli", "parse_tangle"),),
    "codes.braid_closure": (("api", "braid_closure"),
                            ("cli", "braid_closure")),
    "alexander.knot_delta": (("api", "knot_delta"), ("cli", "knot_delta")),
    "alexander.multivariable_alexander": (
        ("api", "multivariable_alexander"),
        ("cli", "multivariable_alexander")),
    "alexander.alexander_matrix": (("alexander", "alexander_matrix"),
                                   ("cli", "alexander_matrix")),
    "alexander.alexander_data": (("alexander", "alexander_data"),
                                 ("cli", "alexander_data")),
    "alexander.fibre_dimension": (("cli", "fibre_dimension"),),
    "alexander.ring_presentation": (("cli", "ring_presentation"),),
    "alexander.gcd_multivariate": (("alexander", "gcd_multivariate"),),
    "snf.smith_normal_form": (("alexander", "smith_normal_form"),
                              ("tangles", "smith_normal_form")),
    "snf.poly_det": (("alexander", "poly_det"), ("burau", "poly_det")),
    # cli reaches these through the module object (`burau_mod.<name>`)
    "burau.closure_alexander": (("api", "closure_alexander"),
                                ("burau", "closure_alexander")),
    "burau.burau_unreduced": (("burau", "burau_unreduced"),),
    "burau.burau_reduced": (("burau", "burau_reduced"),),
    "tangles.tangle_system": (("tangles", "tangle_system"),),
    "tangles.evaluate_tangle": (("api", "evaluate_tangle"),
                                ("cli", "evaluate_tangle")),
    "tangles.tangle_linear_system": (("api", "tangle_linear_system"),),
    "tangles.closed_tangle_delta": (("api", "closed_tangle_delta"),
                                    ("cli", "closed_tangle_delta")),
    "fields.kernel_basis": (("tangles", "kernel_basis"),
                            ("burau", "kernel_basis")),
    # cli imports mat_rank inside a function, so it reads this attribute
    "fields.mat_rank": (("fields", "mat_rank"),),
}

ROOT = "bench.input"

# Spans whose self time is one per-layer metric.
SELF_METRIC = {
    "cli.run": "cli.self_s",
    "codes.parse_braid": "codes.parse_s",
    "codes.parse_crossing_list": "codes.parse_s",
    "codes.parse_pd": "codes.parse_s",
    "tangles.parse_tangle": "codes.parse_s",
    "codes.braid_closure": "codes.braid_closure_s",
    "alexander.alexander_matrix": "alexander.matrix_s",
    "alexander.alexander_data": "alexander.data_self_s",
    "alexander.fibre_dimension": "alexander.fibre_s",
    "alexander.gcd_multivariate": "alexander.mv_gcd_s",
    "snf.smith_normal_form": "snf.smith_s",
    "snf.poly_det": "snf.det_s",
    "tangles.tangle_system": "tangles.system_s",
    "tangles.evaluate_tangle": "tangles.eval_s",
    "tangles.tangle_linear_system": "tangles.linsys_s",
    "fields.mat_rank": "fields.rank_s",
}

# Spans whose result is an Alexander polynomial (or carries one).
DELTA_SPANS = ("alexander.knot_delta", "alexander.multivariable_alexander",
               "alexander.alexander_data", "burau.closure_alexander",
               "tangles.closed_tangle_delta")

LAYERS = ("cli", "codes", "alexander", "snf", "burau", "tangles", "fields")

# Every per-layer metric with its unit.  Times are self times unless the
# README defines them otherwise; sums are reported per traced input.
METRICS = (
    ("cli.self_s", "s"), ("cli.calls", "count"),
    ("codes.parse_s", "s"), ("codes.braid_closure_s", "s"),
    ("codes.crossings", "count"), ("codes.arcs", "count"),
    ("alexander.matrix_s", "s"), ("alexander.matrix_nonzero", "count"),
    ("alexander.data_self_s", "s"), ("alexander.fibre_s", "s"),
    ("alexander.mv_gcd_s", "s"),
    ("snf.smith_s", "s"), ("snf.smith_calls", "count"),
    ("snf.smith_cells", "count"), ("snf.det_s", "s"),
    ("snf.det_calls", "count"), ("snf.det_dim_max", "count"),
    ("burau.product_s", "s"), ("burau.minor_det_s", "s"),
    ("burau.verify_s", "s"),
    ("tangles.system_s", "s"), ("tangles.system_vars", "count"),
    ("tangles.gluing_rows", "count"), ("tangles.eval_s", "s"),
    ("tangles.linsys_s", "s"),
    ("fields.kernel_exact_s", "s"), ("fields.kernel_svd_s", "s"),
    ("fields.kernel_calls", "count"), ("fields.rank_s", "s"),
    ("laurent.delta_degree_max", "count"), ("laurent.coeff_bits_max", "bits"),
) + tuple((layer + ".errors", "count") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio"), ("trace.accounted_ratio", "ratio"),
)

# Metrics kept as maxima; every other sum is divided by the input count.
MAXIMA = ("snf.det_dim_max", "laurent.delta_degree_max",
          "laurent.coeff_bits_max")


class Span:
    __slots__ = ("name", "start", "end", "parent", "input_id", "args",
                 "result", "error")

    def __init__(self, name, parent, input_id, args):
        self.name = name
        self.parent = parent
        self.input_id = input_id
        self.args = args
        self.start = self.end = 0.0
        self.result = None
        self.error = False


class Tracer:
    """Installs timing wrappers and collects spans in memory."""

    def __init__(self, api):
        self.api = api
        self.spans = []
        self._stack = []
        self._saved = []
        self._last_error = None
        self.input_id = -1

    def _owner(self, name):
        if name == "api":
            return self.api
        return importlib.import_module("alexkit." + name)

    def install(self):
        for span_name, bindings in BINDINGS.items():
            for owner_name, attr in bindings:
                owner = self._owner(owner_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.input_id,
                        args)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = clock()
                stack.pop()
                # count an error once, at the innermost span it left
                if exc is not self._last_error:
                    span.error = True
                    self._last_error = exc
                raise
            span.end = clock()
            stack.pop()
            span.result = result
            return result

        return traced

    def run_input(self, input_id, fn, *args):
        """One input under a root span; returns fn's result."""
        self.input_id = input_id
        return self._wrap(ROOT, fn)(*args)

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans


def _poly_sizes(p):
    """(degree spread, largest coefficient bit length) of a Laurent or
    multivariate Laurent polynomial."""
    if p.is_zero:
        return 0, 0
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in p.coeffs.values())
    exps = list(p.coeffs)
    if isinstance(exps[0], tuple):
        spread = max(max(col) - min(col) for col in zip(*exps))
    else:
        spread = max(exps) - min(exps)
    return spread, bits


def aggregate(spans, totals):
    """Add the per-layer sums and maxima of one traced pass to `totals`.
    Returns the summed duration of the root spans."""
    child = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
            children[s.parent].append(i)

    def bump(key, value):
        totals[key] = totals.get(key, 0) + value

    def peak(key, value):
        totals[key] = max(totals.get(key, 0), value)

    root_time = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        layer = s.name.split(".", 1)[0]
        if s.name == ROOT:
            root_time += dur
            continue
        if s.error:
            bump(layer + ".errors", 1)
        if s.name in SELF_METRIC:
            bump(SELF_METRIC[s.name], dur - child[i])
        if s.name == "cli.run":
            bump("cli.calls", 1)
        elif s.name == "snf.smith_normal_form":
            rows = s.args[0]
            bump("snf.smith_calls", 1)
            bump("snf.smith_cells", len(rows) * (len(rows[0]) if rows else 0))
            for d in s.result or ():
                peak("laurent.coeff_bits_max", _poly_sizes(d)[1])
        elif s.name == "snf.poly_det":
            bump("snf.det_calls", 1)
            peak("snf.det_dim_max", len(s.args[0]))
            if s.result is not None:
                peak("laurent.coeff_bits_max", _poly_sizes(s.result)[1])
        elif s.name == "fields.kernel_basis":
            bump("fields.kernel_calls", 1)
            bump("fields.kernel_exact_s" if s.args[0].exact
                 else "fields.kernel_svd_s", dur)
        elif s.name == "alexander.alexander_matrix" and s.result is not None:
            bump("alexander.matrix_nonzero",
                 sum(1 for row in s.result.rows for x in row if not x.is_zero))
        elif s.name == "tangles.tangle_system" and s.result is not None:
            bump("tangles.system_vars", s.result.nvars)
            bump("tangles.gluing_rows",
                 sum(1 for eq in s.result.equations if len(eq) == 2))
        elif s.name == "burau.burau_unreduced":
            if s.parent < 0 or spans[s.parent].name != "burau.burau_reduced":
                bump("burau.product_s", dur)
        elif s.name == "burau.burau_reduced":
            bump("burau.verify_s", dur)
        elif s.name == "burau.closure_alexander":
            dets = [spans[j] for j in children[i]
                    if spans[j].name == "snf.poly_det"]
            if dets:
                bump("burau.minor_det_s", dets[0].end - dets[0].start)
            for d in dets[1:2]:
                bump("burau.verify_s", d.end - d.start)
        if s.name.startswith("codes.") and hasattr(s.result, "crossings"):
            bump("codes.crossings", len(s.result.crossings))
            bump("codes.arcs", s.result.arc_count)
        if s.name in DELTA_SPANS and s.result is not None:
            poly = getattr(s.result, "delta", s.result)
            spread, bits = _poly_sizes(poly)
            peak("laurent.delta_degree_max", spread)
            peak("laurent.coeff_bits_max", bits)
    return root_time


def per_input(totals, inputs):
    """Every metric of METRICS but the trace ratios: sums become per-input
    means, maxima stay as they are, and what never occurred is 0."""
    out = {}
    for key, _ in METRICS:
        value = totals.get(key, 0)
        out[key] = value if key in MAXIMA else value / inputs
    return out
