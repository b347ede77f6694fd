"""Span tracing of ltbf from outside the package.

The tracer wraps every public function of the ltbf modules, plus
LowRankPreconditioner.apply, by rebinding the names in each module's
namespace (the package imports its helpers by name, so every binding of a
function is rebound, not only the defining one).  Nothing under src/
changes, and the bindings are restored when recording ends, so untraced
ops run the original functions.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by its child spans.  The dense kernels of ltbf.linalg are
charged to the layer that called them, so the gemms inside CG count as CG
time and the Jacobi, Cholesky and trsm loops of the sketch count as sketch
time; the linalg.* metrics report the kernels on their own.  The two
linalg oracles stay in the linalg layer.

Functions that take a FlopCounter get a fresh one per span.  When the
caller passed its own counter, the span's counts are merged back into it,
so the program sees the same totals as without tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("scenario", "beamspace", "randevd", "cholqr", "precond", "cg",
          "evaluation", "linalg", "cli")

KERNELS = frozenset({"linalg.as_cmatrix", "linalg.fro_norm", "linalg.gemm",
                     "linalg.cholesky", "linalg.trsm_right_upper_ct",
                     "linalg.hermitian_evd_small"})

# scenario.<kind>_s is the time of one call, summed over these functions
SCENARIO_CALLS = {
    "scenario.generate_s": ("scenario.generate_scenario",),
    "scenario.assemble_s": ("scenario.assemble_q",),
    "scenario.load_s": ("scenario.load_scenario", "scenario.load_matrix"),
    "scenario.save_s": ("scenario.save_scenario", "scenario.save_matrix"),
}

# layers reported together when naming the layer with the most self time
LAYER_GROUPS = {"randevd": "randevd/cholqr", "cholqr": "randevd/cholqr"}


class OpRecord:
    """Aggregates of the spans recorded during one op, or during set-up."""

    def __init__(self, flop_counter_cls):
        self.duration = 0.0
        self.root_s = 0.0
        self.layer_self = defaultdict(float)
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.mults = defaultdict(int)
        self.counter = flop_counter_cls()
        self.call_s = defaultdict(list)
        self.cg_iterations = 0
        self.cg_gemm_s = 0.0
        self.cg_gemm_mults = 0
        self.covariances = set()
        self.budget_max = 0
        self.budget_iters = 0
        self.io_bytes = 0
        self.operator_bytes = 0

    def close(self, duration):
        """Record the op's wall time; what no span covers is bench time."""
        self.duration = duration
        self.layer_self["bench"] += duration - self.root_s


class _Frame:
    __slots__ = ("qual", "layer", "owner", "child", "cg_iters")

    def __init__(self, qual, layer, owner):
        self.qual = qual
        self.layer = layer
        self.owner = owner
        self.child = 0.0
        self.cg_iters = 0


def _hook_cg(rec, frame, stack, arguments, result, dur):
    rec.cg_iterations += result.iterations
    for outer in reversed(stack):
        if outer.qual == "evaluation.capacity_vs_iterations":
            outer.cg_iters += result.iterations
            break


def _hook_budgets(rec, frame, stack, arguments, result, dur):
    budgets = [int(b) for b in arguments["checkpoints"]]
    rec.budget_max += max(budgets, default=0)
    rec.budget_iters += frame.cg_iters


def _hook_projector(rec, frame, stack, arguments, result, dur):
    # the covariances stay alive for the whole op, so ids are distinct
    rec.covariances.add(id(arguments["covariance"]))


def _hook_file(rec, frame, stack, arguments, result, dur):
    rec.call_s[frame.qual].append(dur)
    rec.io_bytes += os.path.getsize(arguments["path"])


def _hook_call_time(rec, frame, stack, arguments, result, dur):
    rec.call_s[frame.qual].append(dur)


def _hook_operator(rec, frame, stack, arguments, result, dur):
    rec.operator_bytes = max(rec.operator_bytes, result.f.nbytes)


_HOOKS = {
    "cg.cg_inverse": _hook_cg,
    "evaluation.capacity_vs_iterations": _hook_budgets,
    "evaluation.build_projector": _hook_projector,
    "scenario.load_scenario": _hook_file,
    "scenario.load_matrix": _hook_file,
    "scenario.save_scenario": _hook_file,
    "scenario.save_matrix": _hook_file,
    "scenario.generate_scenario": _hook_call_time,
    "scenario.assemble_q": _hook_call_time,
    "beamspace.build_operator": _hook_operator,
}


def _public_functions(module, layer):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield "%s.%s" % (layer, name), fn


class Tracer:
    """Wraps ltbf's public functions and records spans into an OpRecord."""

    def __init__(self, package):
        modules = [importlib.import_module("%s.%s" % (package.__name__, layer))
                   for layer in LAYERS]
        self._flop_counter = package.linalg.FlopCounter

        class _SpanCounter(self._flop_counter):
            """A counter owned by one span."""

        self._span_counter = _SpanCounter
        self._record = None
        self._stack = []
        wrappers = {}
        for module, layer in zip(modules, LAYERS):
            for qual, fn in _public_functions(module, layer):
                wrappers[id(fn)] = (fn, self._wrap(qual, layer, fn))
        apply_cls = package.precond.LowRankPreconditioner
        apply_fn = apply_cls.apply
        self._patches = [(apply_cls, "apply", apply_fn,
                          self._wrap("precond.apply", "precond", apply_fn))]
        for module in modules:
            for attr, value in vars(module).items():
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patches.append((module, attr, value, found[1]))

    def new_record(self):
        return OpRecord(self._flop_counter)

    @contextmanager
    def recording(self, record):
        """Install the wrappers and record spans into `record`."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._record = record
        try:
            yield record
        finally:
            self._record = None
            self._stack.clear()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _wrap(self, qual, layer, fn):
        tracer = self
        kernel = qual in KERNELS
        is_gemm = qual == "linalg.gemm"
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        cpos = params.index("counter") if "counter" in params else None
        hook = _HOOKS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._record
            if rec is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if not kernel:
                frame = _Frame(qual, layer, qual)
            elif parent is not None:
                frame = _Frame(qual, parent.layer, parent.owner)
            else:
                frame = _Frame(qual, "bench", None)
            mine = outer = None
            if cpos is not None:
                mine = tracer._span_counter()
                if len(args) > cpos:
                    outer = args[cpos]
                    args = args[:cpos] + (mine,) + args[cpos + 1:]
                else:
                    outer = kwargs.get("counter")
                    kwargs["counter"] = mine
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent.child += dur
                else:
                    rec.root_s += dur
                rec.layer_self[frame.layer] += dur - frame.child
                rec.time[qual] += dur
                rec.calls[qual] += 1
                if mine is not None:
                    rec.mults[qual] += mine.mults
                    if outer is not None:
                        outer.merge(mine)
                    if not isinstance(outer, tracer._span_counter):
                        rec.counter.merge(mine)
                    if is_gemm and frame.owner == "cg.cg_inverse":
                        rec.cg_gemm_s += dur
                        rec.cg_gemm_mults += mine.mults
            if hook is not None:
                hook(rec, frame, stack, sig.bind(*args, **kwargs).arguments,
                     result, dur)
            return result

        return traced


def _ratio(num, den):
    """num / den, or 0.0 where the layer did no work on this workload."""
    return float(num) / den if den else 0.0


def layer_metrics(ops, setup):
    """Per-layer metrics from the traced ops' records and the set-up record.

    Counts come from the first traced op (the probe), so they repeat
    exactly for a given seed.  Times are per-op medians; rates and shares
    pool every traced op.
    """
    probe = ops[0]

    def per_op(get):
        return statistics.median(get(r) for r in ops)

    def per_call(quals):
        total = 0.0
        for qual in quals:
            samples = [s for r in [setup] + ops for s in r.call_s[qual]]
            if samples:
                total += statistics.median(samples)
        return total

    traced_s = sum(r.duration for r in ops)
    m = {
        "cg.solve_s": per_op(lambda r: r.time["cg.cg_inverse"]),
        "cg.iterations": probe.cg_iterations,
        "cg.s_per_iter": _ratio(sum(r.time["cg.cg_inverse"] for r in ops),
                                sum(r.cg_iterations for r in ops)),
        "cg.mults": probe.mults["cg.cg_inverse"],
        "cg.mult_rate": _ratio(sum(r.cg_gemm_mults for r in ops),
                               sum(r.cg_gemm_s for r in ops)),
        "precond.apply_s": per_op(lambda r: r.time["precond.apply"]),
        "precond.apply_calls": probe.calls["precond.apply"],
        "precond.apply.mults": probe.counter.kernel_mults("precond_apply"),
        "randevd.sketch_s": per_op(lambda r: r.time["precond.build_preconditioner"]),
        "randevd.mults": probe.mults["randevd.randomized_evd"],
        "cholqr.calls": probe.calls["cholqr.cholesky_qr2"],
        "cholqr.s": per_op(lambda r: r.time["cholqr.cholesky_qr2"]),
        "linalg.jacobi_evd.mults": probe.counter.kernel_mults("jacobi_evd"),
        "evaluation.gammas_s": per_op(lambda r: r.time["evaluation.scenario_gammas"]),
        "evaluation.gammas_calls": probe.calls["evaluation.scenario_gammas"],
        "evaluation.projector_calls": probe.calls["evaluation.build_projector"],
        "evaluation.projector_useful_ratio": _ratio(
            len(probe.covariances), probe.calls["evaluation.build_projector"]),
        "evaluation.cg_iters_useful_ratio": _ratio(probe.budget_max,
                                                   probe.budget_iters),
        "scenario.io_mb": probe.io_bytes / 1e6,
        "beamspace.forward_s": per_op(lambda r: r.time["beamspace.to_beamspace"]),
        "beamspace.inverse_s": per_op(lambda r: r.time["beamspace.from_beamspace"]),
        "beamspace.operator_mb": max(r.operator_bytes for r in [setup] + ops) / 1e6,
        "linalg.gemm_s": per_op(lambda r: r.time["linalg.gemm"]),
        "linalg.gemm.calls": probe.calls["linalg.gemm"],
        "linalg.gemm.mults": probe.counter.kernel_mults("gemm"),
        "linalg.cholesky_s": per_op(lambda r: r.time["linalg.cholesky"]),
        "cli.self_s": per_op(lambda r: r.layer_self["cli"]),
    }
    for name, quals in SCENARIO_CALLS.items():
        m[name] = per_call(quals)
    for layer in LAYERS + ("bench",):
        m["%s.self_frac" % layer] = _ratio(
            sum(r.layer_self[layer] for r in ops), traced_s)
    return m


def largest_self_layer(ops):
    """Name of the layer (or layer group) with the most self time."""
    totals = defaultdict(float)
    for rec in ops:
        for layer, seconds in rec.layer_self.items():
            totals[LAYER_GROUPS.get(layer, layer)] += seconds
    return max(totals, key=totals.get)


def exact_counts(rec):
    """Every count of one op record, for the output and the repeat test."""
    return {
        "calls": dict(sorted(rec.calls.items())),
        "mults": dict(sorted((k, v) for k, v in rec.mults.items() if v)),
        "flops_per_kernel": {tag: list(pair) for tag, pair
                             in sorted(rec.counter.per_kernel.items())},
        "flops_total": [rec.counter.mults, rec.counter.adds],
        "cg_iterations": rec.cg_iterations,
        "io_bytes": rec.io_bytes,
    }
