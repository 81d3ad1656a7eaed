"""Span recorder and layer-boundary instrumentation for the traced run.

The traced run wraps the public functions and methods at each ``repro``
module boundary *from the benchmark's side*: nothing in the library is
edited, the wrappers are installed with :func:`instrument` and removed
again by :meth:`Instrumentation.remove`.  Every wrapper opens a span
(name, start, end, parent, request id) on a :class:`Recorder` and, where
the boundary returns public stats, adds deterministic counters.

Layer names follow the ``repro`` module they time:

========================  =================================================
span                      boundary
========================  =================================================
``service``               ``SimulationService.submit``
``service.key``           ``repro.service.keys.content_key``
``wampde.init``           ``oscillator_initial_condition``
``wampde.envelope``       ``solve_wampde_envelope``
``steadystate.dc``        ``dc_operating_point``
``steadystate.hb``        ``harmonic_balance_forced`` / ``_autonomous``
``steadystate.sweep``     ``oscillator_frequency_sweep``
``mpde.qp``               ``solve_mpde_quasiperiodic``
``transient.march``       ``simulate_transient`` / ``_ensemble``
``kernels.run``           compiled sweep runners (``run``/``run_adaptive``)
``kernels.build``         ``build_kernel``
``solver_core``           ``SolverCore.solve``
``collocation.assemble``  ``CollocationJacobianAssembler.refresh``
``lu_cache.factor``       factorisations (frozen, block, reusable LU)
``lu_cache.solve``        triangular solves against stored factors
``dae.eval``              device/DAE batch evaluators (``*_batch``),
                          compiled ones (``KernelizedDAE``) included
========================  =================================================

A wrapper called inside a span of its own name (a subclass delegating to
its base, an ensemble delegating to its stacked member) folds into the
enclosing span instead of opening a nested one, so calls are not double
counted.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

#: Methods evaluated through the device/DAE layer.
DAE_METHODS = ("q_batch", "f_batch", "qf_batch", "dq_dx_batch", "df_dx_batch")


class Recorder:
    """In-memory span store plus named counters.

    A span is the list ``[name, start, end, parent, request]`` where
    ``parent`` is the enclosing span (or ``None``); spans are kept in
    memory and written as JSON lines by :meth:`write_jsonl`.  The
    recorder keeps one span stack: the instrumented boundaries are all
    entered from the client thread (``workers=0``, closed loop).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.request = "setup"

    def open(self, name):
        stack = self.stack
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, self.request]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span, name=None):
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        self.stack.pop()

    def count(self, key, amount=1):
        self.counters[key] += amount

    def write_jsonl(self, path):
        """Write every span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else index[id(parent)],
                    "request": request,
                }) + "\n")


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its direct children (the union of the child intervals,
    clipped to the parent), so overlapping children are not subtracted
    twice.  ``spans`` are ``[name, start, end, parent, request]`` lists
    as kept by :class:`Recorder`.
    """
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append(span)
    totals = Counter()
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(id(span), ()), key=lambda s: s[1]):
            lo = max(child[1], cursor)
            hi = min(child[2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return totals


def span_durations(spans):
    """Total (inclusive) duration per span name."""
    totals = Counter()
    for span in spans:
        totals[span[0]] += span[2] - span[1]
    return totals


def recorder_cost_per_span(samples=20000):
    """Seconds a traced boundary adds to one call: a wrapped no-op minus
    the bare no-op, on a scratch recorder."""

    def noop():
        return None

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(samples):
            fn()
        return (time.perf_counter() - start) / samples

    return max(per_call(_wrap(Recorder(), "calibrate", noop))
               - per_call(noop), 0.0)


# -- instrumentation ----------------------------------------------------------


def _wrap(rec, name, fn, after=None):
    # The hot path is inlined (no Recorder method calls): leaf boundaries
    # such as DAE evaluations run tens of thousands of times per pass.
    spans, stack, counters = rec.spans, rec.stack, rec.counters
    clock = time.perf_counter
    calls_key, raised_key = name + ".calls", name + ".raised"

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        span = [name, clock(), None, stack[-1] if stack else None,
                rec.request]
        spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            counters[raised_key] += 1
            raise
        finally:
            span[2] = clock()
            stack.pop()
        counters[calls_key] += 1
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_solver_core(rec, fn):
    """``SolverCore.solve`` plus the deltas of its public stats."""

    def solve(self, *args, **kwargs):
        stats = self.stats
        before = (stats.iterations, stats.residual_evaluations,
                  stats.factorizations, stats.fallbacks,
                  self.recovery.escalated_solves)
        span = rec.open("solver_core")
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(span)
            rec.count("solver_core.calls")
            after = (stats.iterations, stats.residual_evaluations,
                     stats.factorizations, stats.fallbacks,
                     self.recovery.escalated_solves)
            for key, old, new in zip(
                    ("iterations", "residual_evals", "factorizations",
                     "fallbacks", "escalations"), before, after):
                rec.count("solver_core." + key, new - old)

    solve.__wrapped__ = fn
    return solve


def _wrap_reusable_lu(rec, fn):
    """``ReusableLUSolver.__call__``: a factorisation when its counter moves,
    a solve against cached factors otherwise."""

    def call(self, matrix, rhs):
        before = self.stats["factorizations"]
        span = rec.open("lu_cache.solve")
        try:
            result = fn(self, matrix, rhs)
        except BaseException:
            rec.close(span, "lu_cache.factor")
            raise
        name = ("lu_cache.factor"
                if self.stats["factorizations"] > before else None)
        rec.close(span, name)
        rec.count((name or "lu_cache.solve") + ".calls")
        return result

    call.__wrapped__ = fn
    return call


def _after_envelope(rec, args, result):
    rec.count("wampde.steps", int(result.stats.get("steps", 0)))


def _after_march(rec, args, result):
    stats = result.stats
    steps = int(stats.get("steps", 0))
    kernel = stats.get("kernel") or {}
    rec.count("transient.steps", steps)
    rec.count("transient.python_steps",
              int(kernel.get("python_steps", steps)))
    rec.count("transient.rejected_steps", int(stats.get("rejected_steps", 0)))


def _after_submit(rec, args, job):
    if job.cache_hit:
        rec.count("service.cache_hits")
    elif job.warm_hit:
        rec.count("service.seed_hits")
    else:
        rec.count("service.misses")


#: (module, function, span name, after-hook) boundaries.
FUNCTIONS = (
    ("repro.service.keys", "content_key", "service.key", None),
    ("repro.wampde.initial_condition", "oscillator_initial_condition",
     "wampde.init", None),
    ("repro.wampde.envelope", "solve_wampde_envelope", "wampde.envelope",
     _after_envelope),
    ("repro.steadystate.dc", "dc_operating_point", "steadystate.dc", None),
    ("repro.steadystate.harmonic_balance", "harmonic_balance_forced",
     "steadystate.hb", None),
    ("repro.steadystate.harmonic_balance", "harmonic_balance_autonomous",
     "steadystate.hb", None),
    ("repro.steadystate.sweep", "oscillator_frequency_sweep",
     "steadystate.sweep", None),
    ("repro.mpde.quasiperiodic", "solve_mpde_quasiperiodic", "mpde.qp", None),
    ("repro.transient.engine", "simulate_transient", "transient.march",
     _after_march),
    ("repro.transient.ensemble", "simulate_transient_ensemble",
     "transient.march", _after_march),
    ("repro.kernels.backends", "build_kernel", "kernels.build", None),
)

#: (module, class, method, span name, after-hook) boundaries.
METHODS = (
    ("repro.service.service", "SimulationService", "submit", "service",
     _after_submit),
    ("repro.linalg.collocation", "CollocationJacobianAssembler", "refresh",
     "collocation.assemble", None),
    ("repro.linalg.lu_cache", "FrozenFactorization", "factor",
     "lu_cache.factor", None),
    ("repro.linalg.lu_cache", "FrozenFactorization", "solve",
     "lu_cache.solve", None),
    ("repro.linalg.lu_cache", "BlockFactorization", "factor",
     "lu_cache.factor", None),
    ("repro.linalg.lu_cache", "BlockFactorization", "solve",
     "lu_cache.solve", None),
    ("repro.kernels.sweep", "CompiledSweepRunner", "run", "kernels.run",
     None),
    ("repro.kernels.sweep", "CompiledSweepRunner", "run_adaptive",
     "kernels.run", None),
    ("repro.kernels.sweep", "EnsembleSweepRunner", "run", "kernels.run",
     None),
) + tuple(
    ("repro.kernels.sweep", "KernelizedDAE", method, "dae.eval", None)
    for method in DAE_METHODS
)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Instrumentation:
    """The installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._patches = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module_name, attr, name, after):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(self.recorder, name, original, after)
        # Rebind every module-level alias (``from x import f`` copies).
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch_method(self, cls, method, name, after=None, factory=None):
        original = cls.__dict__[method]
        if factory is not None:
            wrapper = factory(self.recorder, original)
        else:
            wrapper = _wrap(self.recorder, name, original, after)
        self._set(cls, method, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def instrument(recorder):
    """Install every boundary wrapper; returns the :class:`Instrumentation`."""
    from repro.dae.base import SemiExplicitDAE
    from repro.dae.ensemble import EnsembleDAE
    from repro.linalg.lu_cache import ReusableLUSolver
    from repro.linalg.solver_core import SolverCore

    inst = Instrumentation(recorder)
    for module_name, attr, name, after in FUNCTIONS:
        inst.patch_function(module_name, attr, name, after)
    for module_name, cls_name, method, name, after in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        inst.patch_method(cls, method, name, after)
    inst.patch_method(SolverCore, "solve", "solver_core",
                      factory=_wrap_solver_core)
    inst.patch_method(ReusableLUSolver, "__call__", "lu_cache",
                      factory=_wrap_reusable_lu)
    for cls in _subclasses(SemiExplicitDAE) + [EnsembleDAE]:
        for method in DAE_METHODS:
            if method in cls.__dict__:
                inst.patch_method(cls, method, "dae.eval")
    return inst


# -- per-layer metrics ----------------------------------------------------------

#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "service.self_s": "s",
    "service.key_s": "s",
    "service.cache_hits": "count",
    "service.seed_hits": "count",
    "service.misses": "count",
    "service.hit_ratio": "1",
    "wampde.init_self_s": "s",
    "wampde.envelope_self_s": "s",
    "wampde.steps": "count",
    "steadystate.dc_s": "s",
    "steadystate.hb_self_s": "s",
    "steadystate.hb_solves": "count",
    "steadystate.hb_failed": "count",
    "steadystate.hb_useful_ratio": "1",
    "steadystate.sweep_self_s": "s",
    "mpde.qp_self_s": "s",
    "transient.march_self_s": "s",
    "transient.steps": "count",
    "transient.python_steps": "count",
    "transient.rejected_steps": "count",
    "kernels.s": "s",
    "kernels.calls": "count",
    "kernels.build_s": "s",
    "solver_core.iterations": "count",
    "solver_core.residual_evals": "count",
    "solver_core.factorizations": "count",
    "solver_core.fallbacks": "count",
    "solver_core.escalations": "count",
    "solver_core.self_s": "s",
    "collocation.assemble_s": "s",
    "collocation.assemble_calls": "count",
    "lu_cache.factor_s": "s",
    "lu_cache.factor_calls": "count",
    "lu_cache.solve_s": "s",
    "lu_cache.solve_calls": "count",
    "dae.eval_s": "s",
    "dae.eval_calls": "count",
    "request.self_s": "s",
    "trace.overhead_s": "s",
    "trace.recorder_s": "s",
    "trace.spans": "count",
}

#: Counters that must repeat exactly between two passes over one request set.
DETERMINISTIC = tuple(
    name for name, unit in LAYER_UNITS.items()
    if unit == "count" and not name.startswith("trace.")
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans, counters):
    """Per-layer metric values (no ``trace.*``) for one traced pass."""
    own = self_times(spans)
    c = counters
    hb_solves = c["steadystate.hb.calls"] + c["steadystate.hb.raised"]
    submits = (c["service.cache_hits"] + c["service.seed_hits"]
               + c["service.misses"])
    return {
        "service.self_s": own["service"],
        "service.key_s": own["service.key"],
        "service.cache_hits": c["service.cache_hits"],
        "service.seed_hits": c["service.seed_hits"],
        "service.misses": c["service.misses"],
        "service.hit_ratio": _ratio(
            c["service.cache_hits"] + c["service.seed_hits"], submits),
        "wampde.init_self_s": own["wampde.init"],
        "wampde.envelope_self_s": own["wampde.envelope"],
        "wampde.steps": c["wampde.steps"],
        "steadystate.dc_s": own["steadystate.dc"],
        "steadystate.hb_self_s": own["steadystate.hb"],
        "steadystate.hb_solves": hb_solves,
        "steadystate.hb_failed": c["steadystate.hb.raised"],
        "steadystate.hb_useful_ratio": _ratio(
            c["steadystate.hb.calls"], hb_solves),
        "steadystate.sweep_self_s": own["steadystate.sweep"],
        "mpde.qp_self_s": own["mpde.qp"],
        "transient.march_self_s": own["transient.march"],
        "transient.steps": c["transient.steps"],
        "transient.python_steps": c["transient.python_steps"],
        "transient.rejected_steps": c["transient.rejected_steps"],
        "kernels.s": own["kernels.run"],
        "kernels.calls": c["kernels.run.calls"],
        "solver_core.iterations": c["solver_core.iterations"],
        "solver_core.residual_evals": c["solver_core.residual_evals"],
        "solver_core.factorizations": c["solver_core.factorizations"],
        "solver_core.fallbacks": c["solver_core.fallbacks"],
        "solver_core.escalations": c["solver_core.escalations"],
        "solver_core.self_s": own["solver_core"],
        "collocation.assemble_s": own["collocation.assemble"],
        "collocation.assemble_calls": c["collocation.assemble.calls"],
        "lu_cache.factor_s": own["lu_cache.factor"],
        "lu_cache.factor_calls": c["lu_cache.factor.calls"],
        "lu_cache.solve_s": own["lu_cache.solve"],
        "lu_cache.solve_calls": c["lu_cache.solve.calls"],
        "dae.eval_s": own["dae.eval"],
        "dae.eval_calls": c["dae.eval.calls"],
        "request.self_s": own["request"],
    }


#: Layer -> the metric giving its busy (self) time, for the share table.
SHARE_OF = {
    "request": "request.self_s",
    "service": ("service.self_s", "service.key_s"),
    "wampde": ("wampde.init_self_s", "wampde.envelope_self_s"),
    "steadystate": ("steadystate.dc_s", "steadystate.hb_self_s",
                    "steadystate.sweep_self_s"),
    "mpde": "mpde.qp_self_s",
    "transient": "transient.march_self_s",
    "kernels": "kernels.s",
    "solver_core": "solver_core.self_s",
    "collocation": "collocation.assemble_s",
    "lu_cache": ("lu_cache.factor_s", "lu_cache.solve_s"),
    "dae": "dae.eval_s",
}


def layer_shares(metrics, wall):
    """Share of ``wall`` spent in each layer's own (self) time."""
    shares = {}
    for layer, keys in SHARE_OF.items():
        keys = (keys,) if isinstance(keys, str) else keys
        shares[layer] = _ratio(sum(metrics[k] for k in keys), wall)
    return shares
