"""Spans and counters around mahlerlift's public functions, installed from outside.

``install`` replaces every public function of each layer module (and the
methods named in ``METHODS``) by a wrapper that records a span: name, start,
end, the enclosing span, and the request it belongs to.  A wrapper replaces
the original wherever a module holds it, so names imported into another
module (``cli`` imports ``kron_system`` from ``kron``) are traced too.  Hot
scalar helpers and ``Poly.__mul__`` only count calls, which keeps the
overhead of the traced run modest; their time stays in the caller's self time.
"""

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("scalars", "polyring", "linalg", "systems", "ideal", "lifting", "kron", "hilbert",
          "engine", "cli", "util")
SPAN_CAP = 50000  # spans kept for the trace file; aggregates cover every span
_MISSING = object()


class Tracer:
    def __init__(self):
        self.stack = []                      # [span id, child time]
        self.depth = defaultdict(int)        # open spans per group
        self.inclusive = defaultdict(float)  # per group, outermost spans only
        self.self_time = defaultdict(float)  # per layer
        self.calls = defaultdict(int)        # per span name
        self.counts = defaultdict(int)       # counters filled by hooks
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._next = 0

    def span(self, name, layer, fn, group=None, after=None):
        group = group or name
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr._next += 1
            sid = tr._next
            parent = tr.stack[-1][0] if tr.stack else 0
            frame = [sid, 0.0]
            tr.stack.append(frame)
            tr.depth[group] += 1
            result = _MISSING
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                tr.stack.pop()
                tr.depth[group] -= 1
                if not tr.depth[group]:
                    tr.inclusive[group] += dur
                tr.self_time[layer] += dur - frame[1]
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.calls[name] += 1
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((tr.request, sid, parent, name, t0, t1))
                else:
                    tr.dropped += 1
                if after is not None:
                    after(tr.counts, args, kwargs, result)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# hooks that turn arguments and results into work counts

def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _rref_cells(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    counts["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _gram_add(counts, args, kwargs, result):
    counts["gramrank_accepted"] += result is True


def _solve_series(counts, args, kwargs, result):
    counts["series_coeffs"] += _arg(args, kwargs, 0, "sys").m * _arg(args, kwargs, 1, "order")


def _guess(counts, args, kwargs, result):
    f, D = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "D")
    counts["guess_unknowns"] += len(f) * (D + 1)


def _lift(counts, args, kwargs, result):
    counts["lift_successes"] += result is not _MISSING


def _build_aux(counts, args, kwargs, result):
    if result is not _MISSING:
        counts["constraint_iterates"] += len(result.kset_constraints)


def _evalchain_mat(tracer):
    """EvalChain.mat: span plus the number and bit size of iterates it adds."""
    def wrap(fn):
        counts = tracer.counts

        def mat(self, k):
            before = len(self.mats)
            out = fn(self, k)
            for M in self.mats[before:]:
                counts["iterates_evaluated"] += 1
                bits = max(max(abs(int(v.numerator)).bit_length(),
                               int(v.denominator).bit_length()) for row in M for v in row)
                if bits > counts["iterate_bits_max"]:
                    counts["iterate_bits_max"] = bits
            return out

        return tracer.span("systems.EvalChain.mat", "systems", functools.wraps(fn)(mat),
                           group="evalchain")
    return wrap


AFTER = {"linalg.rref": _rref_cells, "systems.solve_series": _solve_series,
         "lifting.guess_function_relations": _guess, "lifting.lift_linear_relation": _lift,
         "engine.build_aux": _build_aux}
GROUPS = {"systems.EvalChain.step": "evalchain", "systems.EvalChain.partial_product":
          "evalchain", "polyring.TruncSeries.__mul__": "series_mul"}
# the methods that the per-layer metrics need
METHODS = {"linalg": {"GramRank": ("add",)},
           "systems": {"EvalChain": ("mat", "step", "partial_product")},
           "polyring": {"TruncSeries": ("__mul__",), "Poly": ("__mul__",)},
           "kron": {"MonomialIndexMap": ("coordinate_series",)}}
COUNT_ONLY = {"polyring.Poly.__mul__"}


def _public_functions(mod, lname):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        obj = getattr(mod, n)
        if (callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield n, obj


def install(tracer):
    """Wrap the package in place; returns the original certify_regular (for its cache)."""
    pkg = importlib.import_module("mahlerlift")
    mods = {n: importlib.import_module(f"mahlerlift.{n}") for n in LAYERS}
    holders = [pkg] + list(mods.values())

    def replace(orig, new):
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    certify = mods["systems"].certify_regular
    for lname, mod in mods.items():
        for n, fn in list(_public_functions(mod, lname)):
            full = f"{lname}.{n}"
            if lname == "scalars":
                replace(fn, tracer.counter(full, fn))
            else:
                replace(fn, tracer.span(full, lname, fn, after=AFTER.get(full)))
        for cname, methods in METHODS.get(lname, {}).items():
            cls = getattr(mod, cname)
            for meth in methods:
                fn = cls.__dict__[meth]
                full = f"{lname}.{cname}.{meth}"
                if full in COUNT_ONLY:
                    new = tracer.counter(full, fn)
                elif full == "systems.EvalChain.mat":
                    new = _evalchain_mat(tracer)(fn)
                else:
                    new = tracer.span(full, lname, fn, group=GROUPS.get(full),
                                      after=_gram_add if full == "linalg.GramRank.add" else None)
                setattr(cls, meth, new)
    return certify


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(a, b):
    return a / b if b else 0.0


def metrics(tr, certify_hits, certify_misses, overhead_pct):
    """Every per-layer metric as {name: (value, unit)}."""
    c, inc, calls = tr.counts, tr.inclusive, tr.calls
    return {
        "linalg.gramrank_add_s": (inc["linalg.GramRank.add"], "s"),
        "linalg.gramrank_add_calls": (calls["linalg.GramRank.add"], "count"),
        "linalg.gramrank_accept_ratio": (_ratio(c["gramrank_accepted"],
                                                calls["linalg.GramRank.add"]), "ratio"),
        "linalg.rref_s": (inc["linalg.rref"], "s"),
        "linalg.rref_calls": (calls["linalg.rref"], "count"),
        "linalg.rref_cells": (c["rref_cells"], "count"),
        "systems.evalchain_s": (inc["evalchain"], "s"),
        "systems.iterates_evaluated": (c["iterates_evaluated"], "count"),
        "systems.iterate_bits_max": (c["iterate_bits_max"], "bit"),
        "systems.solve_series_s": (inc["systems.solve_series"], "s"),
        "systems.series_coeffs": (c["series_coeffs"], "count"),
        "systems.certify_calls": (calls["systems.certify_regular"], "count"),
        "systems.certify_hit_ratio": (_ratio(certify_hits, certify_hits + certify_misses),
                                      "ratio"),
        "ideal.dim_profile_s": (inc["ideal.dim_profile"], "s"),
        "ideal.doubling_s": (inc["ideal.doubling_check"], "s"),
        "ideal.kernel_basis_s": (inc["ideal.kernel_basis"], "s"),
        "ideal.cell_rref_s": (inc["ideal.cell_rref"], "s"),
        "polyring.series_mul_s": (inc["series_mul"], "s"),
        "polyring.series_mul_calls": (calls["polyring.TruncSeries.__mul__"], "count"),
        "polyring.poly_mul_calls": (c["polyring.Poly.__mul__"], "count"),
        "lifting.guess_s": (inc["lifting.guess_function_relations"], "s"),
        "lifting.guess_unknowns": (c["guess_unknowns"], "count"),
        "lifting.verify_s": (inc["lifting.verify_value_relation"], "s"),
        "lifting.lift_s": (inc["lifting.lift_linear_relation"], "s"),
        "lifting.lift_attempts_per_success": (
            _ratio(calls["lifting.lift_linear_relation"], c["lift_successes"]), "ratio"),
        "kron.coordinate_series_s": (inc["kron.MonomialIndexMap.coordinate_series"], "s"),
        "kron.lift_algebraic_s": (inc["kron.lift_algebraic_relation"], "s"),
        "hilbert.phi_s": (inc["hilbert.phi_function"], "s"),
        "hilbert.phi_calls": (calls["hilbert.phi_function"], "count"),
        "engine.build_aux_s": (inc["engine.build_aux"], "s"),
        "engine.constraint_iterates": (c["constraint_iterates"], "count"),
        "engine.decay_s": (inc["engine.decay_report"], "s"),
        "engine.heights_s": (inc["engine.height_growth"], "s"),
        "cli.self_s": (tr.self_time["cli"], "s"),
        "cli.requests": (calls["cli.main"], "count"),
        "scalars.height_calls": (c["scalars.weil_height"], "count"),
        "scalars.log_calls": (c["scalars.log_of_integer"], "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def dump(tr, path, meta):
    """Write the kept spans and the aggregates as JSON."""
    import json

    names = sorted({s[3] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = dict(meta)
    doc.update({
        "span_fields": ["request", "span", "parent", "name", "start_s", "end_s"],
        "names": names,
        "spans": [[r, s, p, index[n], round(t0, 7), round(t1, 7)]
                  for r, s, p, n, t0, t1 in tr.spans],
        "spans_dropped": tr.dropped,
        "calls": dict(tr.calls),
        "inclusive_s": dict(tr.inclusive),
        "self_s": dict(tr.self_time),
        "counts": dict(tr.counts),
    })
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, separators=(",", ":"))
