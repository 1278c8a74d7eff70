"""Span tracing of mzhomodyne from outside the package.

`Tracer.start()` replaces every function named in a layer module's
`__all__` with a recording wrapper, wherever that function is bound in a
`mzhomodyne.*` namespace (so the `from .x import y` copies are covered too),
and wraps `RandomStream.uniform`.  `stop()` puts the originals back, so a pass
run between traced passes carries no tracing cost.

Each call records a span (function, start, end, parent span, work done);
spans stay in memory until the run ends.  The work field holds what the
layer metric for that function counts: phases for interferometer calls,
elements for erf_diff, objective evaluations for the solvers, draws for
the random stream and replicas for estimate.
"""

from __future__ import annotations

import functools
from collections import Counter
import inspect
import sys
import time

import numpy as np

LAYERS = ("numerics", "interferometer", "metrics", "simulate", "cli")
# find_root evaluates both bracket ends, then once per iteration up to 200
FIND_ROOT_CAP_EVALS = 2 + 200
_PHASE_PARAMS = ("phi", "phis", "phi_grid")
# erf_diff reads two float64 arrays and writes one
_ERF_DIFF_BYTES_PER_ELEMENT = 3 * 8


def _bound_arg(sig, args, kwargs, names):
    """Value of the first parameter in `names` that the call supplies."""
    for i, param in enumerate(sig.parameters.values()):
        if param.name in names:
            if i < len(args):
                return args[i]
            if param.name in kwargs:
                return kwargs[param.name]
    return None


class Tracer:
    def __init__(self):
        self.names = []      # span key -> "layer.function"
        self.spans = []      # (key, start_ns, end_ns, parent, work, extra)
        self._stack = []
        self._targets = []   # (namespace, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def start(self):
        """Clear the spans and route the package's functions through spans."""
        if not self._targets:
            self._find_targets()
        self.spans.clear()
        self._stack.clear()
        for namespace, attr, _, wrapper in self._targets:
            setattr(namespace, attr, wrapper)

    def stop(self):
        """Restore the original functions; return this pass's spans."""
        for namespace, attr, original, _ in reversed(self._targets):
            setattr(namespace, attr, original)
        return list(self.spans)

    def _find_targets(self):
        packages = {name: mod for name, mod in sys.modules.items()
                    if name == "mzhomodyne" or name.startswith("mzhomodyne.")}
        wrappers = {}
        for layer in LAYERS:
            module = packages[f"mzhomodyne.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for module in packages.values():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    self._targets.append((module, attr, value, wrappers[value]))
        stream = packages["mzhomodyne.numerics"].RandomStream
        uniform = stream.uniform
        self._targets.append((stream, "uniform", uniform,
                              self._wrap(uniform, "numerics.random.uniform")))

    def _work_counter(self, fn, name):
        """A hook `before(args, kwargs) -> (args, kwargs, work getter)` for a
        function whose work a metric counts; None for the others."""
        sig = inspect.signature(fn)
        if name.startswith("interferometer."):
            def before(args, kwargs):
                phi = _bound_arg(sig, args, kwargs, _PHASE_PARAMS)
                return args, kwargs, lambda: 0 if phi is None else int(np.size(phi))
        elif name == "numerics.erf_diff":
            def before(args, kwargs):
                x = _bound_arg(sig, args, kwargs, ("x",))
                y = _bound_arg(sig, args, kwargs, ("y",))
                n = int(np.broadcast(np.asarray(x), np.asarray(y)).size)
                return args, kwargs, lambda: n
        elif name in ("numerics.find_root", "numerics.minimize_scalar"):
            def before(args, kwargs):
                count = [0]
                f = args[0] if args else kwargs.pop("f")

                def counted(x):
                    count[0] += 1
                    return f(x)
                return (counted,) + tuple(args[1:]), kwargs, lambda: count[0]
        elif name == "numerics.random.uniform":
            def before(args, kwargs):
                size = _bound_arg(sig, args, kwargs, ("size",))
                n = 1 if size is None else int(np.prod(size))
                return args, kwargs, lambda: n
        elif name == "simulate.estimate":
            def before(args, kwargs):
                replicas = _bound_arg(sig, args, kwargs, ("replicas",))
                n = len(replicas.records)
                return args, kwargs, lambda: n
        else:
            return None
        return before

    def _wrap(self, fn, name):
        key = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        before = self._work_counter(fn, name)
        clamps = name == "simulate.estimate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = None
            if before is not None:
                args, kwargs, work = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = (result.clamp_count
                         if clamps and result is not None else None)
                spans[index] = (key, start, end, parent,
                                work() if work is not None else 1, extra)

        return wrapper


def layer_metrics(names, spans):
    """Per-layer counts and times of one traced pass.

    Returns (counts, times): counts, and ratios of counts, must repeat
    exactly on the same inputs; times are seconds or rates derived from them.
    """
    n = len(spans)
    layer_of = [name.split(".", 1)[0] for name in names]
    child_ns = [0] * n
    in_estimate = [False] * n
    in_branch = [False] * n
    for i, (key, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            pname = names[spans[parent][0]]
            in_estimate[i] = in_estimate[parent] or pname == "simulate.estimate"
            in_branch[i] = (in_branch[parent]
                            or pname == "simulate.monotone_branch")

    calls, work, incl_ns = Counter(), Counter(), Counter()
    self_ns = {layer: 0 for layer in LAYERS}
    cap_hits = clamped = estimate_phase_evals = 0
    interf_top_ns = interf_top_phases = 0
    for i, (key, start, end, parent, w, extra) in enumerate(spans):
        name = names[key]
        layer = layer_of[key]
        dur = end - start
        calls[name] += 1
        work[name] += w
        incl_ns[name] += dur
        self_ns[layer] += dur - child_ns[i]
        if name == "numerics.find_root" and w >= FIND_ROOT_CAP_EVALS:
            cap_hits += 1
        if extra is not None:
            clamped += extra
        if layer == "interferometer":
            if parent < 0 or layer_of[spans[parent][0]] != "interferometer":
                interf_top_ns += dur
                interf_top_phases += w
            if in_estimate[i] and not in_branch[i]:
                estimate_phase_evals += w

    def layer_total(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    replicas = work["simulate.estimate"]
    erf_elements = work["numerics.erf_diff"]
    counts = {
        "interferometer.calls": layer_total(calls, "interferometer"),
        "interferometer.phase_evals": layer_total(work, "interferometer"),
        "numerics.erf_diff.calls": calls["numerics.erf_diff"],
        "numerics.erf_diff.elements": erf_elements,
        "numerics.erf_diff.bytes_computed":
            erf_elements * _ERF_DIFF_BYTES_PER_ELEMENT,
        "numerics.minimize_scalar.calls": calls["numerics.minimize_scalar"],
        "numerics.minimize_scalar.f_evals": work["numerics.minimize_scalar"],
        "numerics.find_root.calls": calls["numerics.find_root"],
        "numerics.find_root.f_evals": work["numerics.find_root"],
        "numerics.find_root.cap_hits": cap_hits,
        "numerics.random.draws": work["numerics.random.uniform"],
        "simulate.sample_outcomes.calls": calls["simulate.sample_outcomes"],
        "simulate.estimate.replicas": replicas,
        "metrics.calls": layer_total(calls, "metrics"),
        "simulate.signal_evals_per_replica":
            estimate_phase_evals / replicas if replicas else 0.0,
        "simulate.clamp_frac": clamped / replicas if replicas else 0.0,
    }
    times = {f"{layer}.self_s": self_ns[layer] * 1e-9 for layer in LAYERS}
    times.update({
        "interferometer.us_per_phase":
            interf_top_ns * 1e-3 / interf_top_phases if interf_top_phases else 0.0,
        "numerics.erf_diff.ns_per_element":
            incl_ns["numerics.erf_diff"] / erf_elements if erf_elements else 0.0,
        "simulate.monotone_branch.s": incl_ns["simulate.monotone_branch"] * 1e-9,
        "simulate.estimate.s": incl_ns["simulate.estimate"] * 1e-9,
    })
    return counts, times
