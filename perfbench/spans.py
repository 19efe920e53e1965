"""Spans and work counters recorded around calls into the program's layers.

Nothing here edits the program: ``install`` rebinds names in the
program's modules to thin wrappers, at the place where each name is
looked up (modules import functions by name, so ``specgap.cli`` and
``specgap.radial_model`` each hold their own reference to, say,
``moment``).  A name that a later version of the program no longer has
is skipped, and its metrics read 0.

A span is (name, start, end, parent index); spans live in memory and are
handed back by ``Tracer.dump``.  Hot scalar callbacks (QUADPACK calls,
``RadialMeasure.log_weight``, the tridiagonal eigensolve) are counted,
not spanned.  All counters are exact integers.
"""

import time
from collections import Counter

import numpy as np

# (module, attribute, span name): every place a layer's public function
# is looked up at call time
SPANNED = (
    ("specgap.cli", "spectral_gap", "sl_eigensolver.spectral_gap"),
    ("specgap.cli", "curvature_lower", "bounds_engine.curvature_lower"),
    ("specgap.cli", "radial_moment_lower",
     "bounds_engine.radial_moment_lower"),
    ("specgap.cli", "weighted_curvature_lower",
     "bounds_engine.weighted_curvature_lower"),
    ("specgap.cli", "variational_lower", "bounds_engine.variational_lower"),
    ("specgap.cli", "rayleigh_upper", "bounds_engine.rayleigh_upper"),
    ("specgap.cli", "sample_mu", "mc_sampler.sample_mu"),
    ("specgap.cli", "rayleigh_estimate", "mc_sampler.rayleigh_estimate"),
    ("specgap.cli", "build_measure", "radial_model.build_measure"),
    ("specgap.cli", "moment", "radial_model.moment"),
    ("specgap.cli", "weighted_moment", "radial_model.weighted_moment"),
    ("specgap.catalog", "make_family", "catalog.make_family"),
    ("specgap.catalog", "build_measure", "radial_model.build_measure"),
    ("specgap.radial_model", "tail_integral", "quadrature.tail_integral"),
    ("specgap.radial_model", "moment", "radial_model.moment"),
    ("specgap.bounds_engine", "moment", "radial_model.moment"),
    ("specgap.bounds_engine", "truncation_radius",
     "radial_model.truncation_radius"),
    ("specgap.sl_eigensolver", "truncation_radius",
     "radial_model.truncation_radius"),
    ("specgap.sl_eigensolver", "log_integrals_exp",
     "quadrature.log_integrals_exp"),
)

# counter names always reported, so a layer the workload never enters
# reads 0 instead of going missing
COUNTERS = (
    "quadrature.quad.calls", "quadrature.quad.evals",
    "quadrature.quad.subintervals", "quadrature.quad.limit_hits",
    "radial_model.log_weight.calls", "radial_model.log_weight.points",
    "sl_eigensolver.eigh.calls", "sl_eigensolver.eigh.rows",
    "mc_sampler.points",
)


class Tracer:
    """In-memory span recorder and counter set for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._stack = []
        self._undo = []

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, modules):
        """Wrap every layer boundary reachable from ``modules`` (a dict of
        module name -> imported module)."""
        for mod_name, attr, span_name in SPANNED:
            if mod_name in modules:
                self._patch(modules[mod_name], attr,
                            lambda fn, n=span_name: self.spanned(n, fn))
        counts = self.counters

        def count_quad(quad):
            def wrapper(*args, **kwargs):
                out = quad(*args, **kwargs)
                counts["quadrature.quad.calls"] += 1
                if kwargs.get("full_output"):
                    info = out[2]
                    counts["quadrature.quad.evals"] += int(info["neval"])
                    counts["quadrature.quad.subintervals"] += int(info["last"])
                    counts["quadrature.quad.limit_hits"] += int(
                        info["last"] >= kwargs.get("limit", 50))
                return out
            return wrapper

        def count_eigh(eigh):
            def wrapper(d, *args, **kwargs):
                counts["sl_eigensolver.eigh.calls"] += 1
                counts["sl_eigensolver.eigh.rows"] += int(np.size(d))
                return eigh(d, *args, **kwargs)
            return wrapper

        def count_log_weight(log_weight):
            def wrapper(measure, r):
                counts["radial_model.log_weight.calls"] += 1
                counts["radial_model.log_weight.points"] += int(np.size(r))
                return log_weight(measure, r)
            return wrapper

        def count_points(sample_mu):
            def wrapper(*args, **kwargs):
                batch = sample_mu(*args, **kwargs)
                counts["mc_sampler.points"] += len(batch.points)
                return batch
            return wrapper

        if "specgap.quadrature" in modules:
            self._patch(modules["specgap.quadrature"], "quad", count_quad)
        if "specgap.sl_eigensolver" in modules:
            self._patch(modules["specgap.sl_eigensolver"],
                        "eigh_tridiagonal", count_eigh)
        if "specgap.radial_model" in modules:
            self._patch(modules["specgap.radial_model"].RadialMeasure,
                        "log_weight", count_log_weight)
        if "specgap.cli" in modules:
            # outermost, so the span wrapper sits inside the counter
            self._patch(modules["specgap.cli"], "sample_mu", count_points)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self):
        return {"spans": list(self.spans), "counters": dict(self.counters)}


def summarize(spans):
    """Per span name: inclusive seconds, calls and self seconds.

    Inclusive time counts only outermost spans of a name, so a name that
    nests inside itself is not counted twice.  Self time is a span's
    duration minus the time its direct children cover (the layers are
    single-threaded, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["s"] += end - start
    return out
