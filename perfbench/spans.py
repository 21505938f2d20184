"""Span tracing for the benchmark, installed from outside the program.

The tracer wraps public functions of the ``qseries`` modules and records,
per call, its inclusive time and its self time (inclusive time minus the
time covered by traced calls made inside it).  Calls of the names in
``SPAN_NAMES`` are also kept as individual spans (name, start, end, parent,
op id); the hot ones (series construction, kernel loops, polynomial
arithmetic, exact classical terms) are only aggregated, which keeps the
overhead bounded while self time stays computable.

Nothing under ``src/`` knows about the tracer: ``install`` replaces module
and class attributes and the returned ``restore`` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# name -> (module, qualified attribute).  A module-level function is also
# replaced in every qseries module that bound it with ``from ... import``.
TRACED = {
    "registry.load_catalog": ("qseries.registry", "load_catalog"),
    "registry.verify_identity": ("qseries.registry", "verify_identity"),
    "theorems.theorem_lhs": ("qseries.theorems", "theorem_lhs"),
    "theorems.theorem_series": ("qseries.theorems", "theorem_series"),
    "theorems.eval_term": ("qseries.theorems", "eval_term"),
    "qcore.poch_infinite": ("qseries.qcore", "poch_infinite"),
    "qcore.q_gamma_numeric": ("qseries.qcore", "q_gamma_numeric"),
    "series.LaurentSeries.__init__": ("qseries.series", "LaurentSeries.__init__"),
    "series.LaurentSeries.__mul__": ("qseries.series", "LaurentSeries.__mul__"),
    "series.LaurentSeries.inverse": ("qseries.series", "LaurentSeries.inverse"),
    "series.LaurentSeries.first_difference": ("qseries.series", "LaurentSeries.first_difference"),
    "kernel.mul_binom": ("qseries.kernel", "mul_binom"),
    "kernel.div_binom": ("qseries.kernel", "div_binom"),
    "kernel.mul_dense": ("qseries.kernel", "mul_dense"),
    "kernel.inv_dense": ("qseries.kernel", "inv_dense"),
    "bisection.build_P": ("qseries.bisection", "build_P"),
    "bisection.solve_Q": ("qseries.bisection", "solve_Q"),
    "bisection.functional_equation_residual": ("qseries.bisection", "functional_equation_residual"),
    "bisection.pairing_check": ("qseries.bisection", "pairing_check"),
    "bisection.degree_search": ("qseries.bisection", "degree_search"),
    "linsolve.poly_solve_overdetermined": ("qseries.linsolve", "poly_solve_overdetermined"),
    "polyring.Poly.__mul__": ("qseries.polyring", "Poly.__mul__"),
    "polyring.Poly.divmod": ("qseries.polyring", "Poly.divmod"),
    "polyring.poly_gcd": ("qseries.polyring", "poly_gcd"),
    "limits.term_exact": ("qseries.limits", "term_exact"),
    "limits.eval_series": ("qseries.limits", "eval_series"),
    "limits.measure_rate": ("qseries.limits", "measure_rate"),
    "limits.eval_closed_form": ("qseries.limits", "eval_closed_form"),
    "limits.q_product_numeric": ("qseries.limits", "q_product_numeric"),
    "limits.balanced_product_limit": ("qseries.limits", "balanced_product_limit"),
}

HOT = {
    "series.LaurentSeries.__init__",
    "series.LaurentSeries.__mul__",
    "series.LaurentSeries.inverse",
    "kernel.mul_binom",
    "kernel.div_binom",
    "kernel.mul_dense",
    "kernel.inv_dense",
    "polyring.Poly.__mul__",
    "polyring.Poly.divmod",
    "polyring.poly_gcd",
    "limits.term_exact",
}
SPAN_NAMES = frozenset(TRACED) - HOT | {"op"}

# Each binomial-level ring operation is charged to the innermost enclosing
# side span (left product or right term sum).
SIDES = ("theorems.theorem_lhs", "theorems.theorem_series")
BINOM_OPS = ("times_binom", "over_binom", "inv")


class Tracer:
    """A stack of open calls, per-name aggregates, kept spans and counters."""

    def __init__(self):
        self.stack = []                      # open frames: [name, start, child_s, span_id, parent_id]
                                             # (parent_id: innermost enclosing kept span)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)       # work counters, summed
        self.maxima = defaultdict(int)       # work counters, maximum
        self.spans = []                      # (id, parent_id, name, op_id, start, end)
        self.op_id = None

    def enter(self, name):
        parent = None
        if self.stack:
            top = self.stack[-1]
            parent = top[4] if top[3] is None else top[3]
        frame = [name, perf(), 0.0, len(self.spans) if name in SPAN_NAMES else None, parent]
        if frame[3] is not None:
            self.spans.append(None)          # reserve the id; filled on exit
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf()
        self.stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if span_id is not None:
            self.spans[span_id] = (span_id, parent, name, self.op_id, start, end)

    def call(self, name, fn, *args, **kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def charge_side(self):
        """Count one binomial-level operation against the innermost open side span."""
        for frame in reversed(self.stack):
            if frame[0] in SIDES:
                self.counts[f"{frame[0]}.binom_ops"] += 1
                return

    def note_max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value


# ------------------------------------------------------------ work counters


def coeff_bits(coeffs):
    """Largest numerator or denominator of the coefficients, in bits."""
    best = 0
    for c in coeffs:
        if c:
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def mul_binom_ops(a, e, c, nmax):
    return max(0, min(nmax, len(a) + e) - e)


def div_binom_ops(a, e, c, nmax):
    return max(0, nmax - e)


def mul_dense_ops(a, b, nmax):
    """Inner-loop steps of the truncated Cauchy product (zero skips ignored)."""
    la, lb = len(a), len(b)
    n = min(nmax, la + lb - 1) if la and lb else 0
    m = min(la, n)
    full = max(0, min(m, n - lb + 1))        # rows i that run all lb columns
    rest = m - full                          # rows i >= full run n - i columns
    return full * lb + rest * n - (full + m - 1) * rest // 2


def inv_dense_ops(a, nmax):
    """Inner-loop steps of the series inverse: sum of min(k, len(a)-1), k < nmax."""
    top = len(a) - 1
    k = nmax - 1
    if k <= top:
        return max(0, k * (k + 1) // 2)
    return top * (top + 1) // 2 + (k - top) * top


KERNEL_OPS = {
    "kernel.mul_binom": mul_binom_ops,
    "kernel.div_binom": div_binom_ops,
    "kernel.mul_dense": mul_dense_ops,
    "kernel.inv_dense": inv_dense_ops,
}


def compared_window(a, b, upto, diff):
    """Coefficients LaurentSeries.first_difference examined for this call."""
    orders = [o for o in (a.order, b.order, upto) if o is not None]
    lows = [s.minexp for s in (a, b) if s.coeffs]
    if not lows:
        return 0
    lo = min(lows)
    hi = min(orders) if orders else max(s.minexp + len(s.coeffs) for s in (a, b) if s.coeffs)
    if diff is not None:
        return diff[0] - lo + 1
    return max(0, hi - lo)


# ------------------------------------------------------------- installation


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _wrapper(tracer, name, fn):
    enter, exit_ = tracer.enter, tracer.exit
    ops = KERNEL_OPS.get(name)
    if ops is not None:
        key = name + ".coeff_ops"

        def traced(*args):
            tracer.counts[key] += ops(*args)
            frame = enter(name)
            try:
                return fn(*args)
            finally:
                exit_(frame)

        return traced

    observe = OBSERVERS.get(name)

    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if observe is not None:
            observe(tracer, args, kwargs, out)
        return out

    return traced


def _observe_series(tracer, args, kwargs, out):
    tracer.counts["theorems.terms_used"] += out.terms_used


def _observe_compare(tracer, args, kwargs, out):
    a, b = args[0], args[1]
    upto = args[2] if len(args) > 2 else kwargs.get("upto")
    tracer.counts["series.coeffs_compared"] += compared_window(a, b, upto, out)
    tracer.note_max("series.max_coeff_bits", max(coeff_bits(a.coeffs), coeff_bits(b.coeffs)))


def _observe_build_p(tracer, args, kwargs, out):
    tracer.note_max("bisection.P_max_coeff_bits", max((coeff_bits(p.coeffs) for p in out), default=0))


OBSERVERS = {
    "theorems.theorem_series": _observe_series,
    "series.LaurentSeries.first_difference": _observe_compare,
    "bisection.build_P": _observe_build_p,
}


def _counting(tracer, fn):
    def counted(*args, **kwargs):
        tracer.charge_side()
        return fn(*args, **kwargs)

    return counted


def install(tracer):
    """Wrap every traced name; returns a function that restores the originals."""
    import qseries.bisection  # noqa: F401  (load every traced module)
    import qseries.limits  # noqa: F401
    import qseries.qcore

    undo = []

    def replace(owner, leaf, new):
        undo.append((owner, leaf, vars(owner)[leaf]))
        setattr(owner, leaf, new)

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("qseries") and m is not None]
    for name, (module_name, attr) in TRACED.items():
        owner, leaf = _resolve(module_name, attr)
        original = getattr(owner, leaf)
        traced = _wrapper(tracer, name, original)
        if isinstance(owner, type):
            replace(owner, leaf, traced)
            continue
        for mod in modules:                  # every place the name is looked up
            if mod.__dict__.get(leaf) is original:
                replace(mod, leaf, traced)
    ring = qseries.qcore.SeriesRing
    for op in BINOM_OPS:
        replace(ring, op, _counting(tracer, vars(ring)[op]))

    def restore():
        for owner, leaf, value in reversed(undo):
            setattr(owner, leaf, value)

    return restore


# ------------------------------------------------------------------ metrics

# Per-layer report: traced name -> the fields reported for it.  Times are
# seconds per traced pass (``s`` inclusive, ``self_s`` minus traced
# children), calls and counters are per traced pass.
LAYER_FIELDS = {
    "registry.load_catalog": ("s",),
    "registry.verify_identity": ("calls", "s"),
    "theorems.theorem_lhs": ("calls", "s", "self_s", "binom_ops"),
    "theorems.theorem_series": ("calls", "s", "self_s", "binom_ops"),
    "theorems.eval_term": ("calls", "s"),
    "qcore.poch_infinite": ("calls", "s"),
    "qcore.q_gamma_numeric": ("calls", "s"),
    "series.LaurentSeries.__init__": ("calls", "s"),
    "series.LaurentSeries.__mul__": ("calls", "s"),
    "series.LaurentSeries.inverse": ("calls", "s"),
    "series.LaurentSeries.first_difference": ("calls", "s"),
    **{name: ("calls", "s", "coeff_ops") for name in KERNEL_OPS},
    "bisection.build_P": ("calls", "s"),
    "bisection.solve_Q": ("calls", "s", "self_s"),
    "bisection.functional_equation_residual": ("calls", "s"),
    "bisection.pairing_check": ("calls", "s"),
    "bisection.degree_search": ("calls", "s"),
    "linsolve.poly_solve_overdetermined": ("calls", "s"),
    "polyring.Poly.__mul__": ("calls", "s"),
    "polyring.Poly.divmod": ("calls", "s"),
    "polyring.poly_gcd": ("calls", "s"),
    "limits.term_exact": ("calls", "s"),
    "limits.eval_series": ("calls", "s", "self_s"),
    "limits.measure_rate": ("calls", "s"),
    "limits.eval_closed_form": ("calls", "s"),
    "limits.q_product_numeric": ("calls", "s"),
    "limits.balanced_product_limit": ("calls", "s"),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "binom_ops": "count",
               "coeff_ops": "computed_count"}
SUMMED = ("theorems.terms_used", "series.coeffs_compared")
MAXIMA = ("series.max_coeff_bits", "bisection.P_max_coeff_bits")
OVERHEAD = "trace.overhead_frac"

LAYER_METRICS = [
    *((f"{name}.{field}", FIELD_UNITS[field]) for name, fields in LAYER_FIELDS.items() for field in fields),
    *((name, "count") for name in SUMMED),
    *((name, "bits") for name in MAXIMA),
    (OVERHEAD, "frac"),
]


def layer_values(tracer, passes):
    """Every per-layer metric except the overhead, per traced pass."""
    totals = dict(tracer.counts)
    for name in TRACED:
        totals[f"{name}.calls"] = tracer.calls[name]
        totals[f"{name}.s"] = tracer.incl[name]
        totals[f"{name}.self_s"] = tracer.self_s[name]
    out = {}
    for name, _unit in LAYER_METRICS:
        if name in MAXIMA:
            out[name] = tracer.maxima[name]
        elif name != OVERHEAD:
            out[name] = totals.get(name, 0) / passes
    return out
