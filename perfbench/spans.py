"""Traced mode: spans and counts recorded around the package's layers.

The package has no instrumentation of its own, so the tracer wraps layer
entry points from outside.  A function is rebound in every ``flocksim``
module that holds it, since callers look it up in their own module's
namespace (``flocksim.integrator`` calls ``acceleration_arrays``,
``_probe``, ``_stick_time_fit`` and ``classify_event`` through its module
attributes).  ``RK45`` is replaced in ``flocksim.integrator`` by a
subclass that counts steps, and the per-call methods
``RegularizedKernel.weight`` and ``_SampleStore.emit`` are wrapped on
their classes.  A missing target raises, so a renamed layer cannot
silently drop out of the split.

Each wrapped call records a span (name, start, end, parent span) in
preallocation-free ``array`` buffers; self time is a span's duration
minus that of its child spans.  Counters that must repeat exactly between
two traced runs of the same inputs are listed in :data:`DETERMINISTIC`.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

_MODULES = ("cli", "convergence", "diagnostics", "dynamics", "integrator", "kernels", "twobody")

# span name -> (home module, attribute)
FUNCTIONS = {
    "cli.parse": ("cli", "parse_config"),
    "cli.write": ("cli", "serialize_trajectory"),
    "dynamics.make_system": ("dynamics", "make_system"),
    "dynamics.rhs": ("dynamics", "acceleration_arrays"),
    "dynamics.merge": ("dynamics", "merge_clusters"),
    "integrator.solve": ("integrator", "solve_piecewise"),
    "integrator.segment": ("integrator", "_run_segment"),
    "integrator.probe": ("integrator", "_probe"),
    "integrator.classify": ("integrator", "classify_event"),
    "integrator.stick_fit": ("integrator", "_stick_time_fit"),
    "diagnostics.run": ("diagnostics", "run_diagnostics"),
    "convergence.family": ("convergence", "run_family"),
    "convergence.cauchy": ("convergence", "cauchy_table"),
}
# span name -> (module, class, method)
METHODS = {
    "kernels.weight": ("kernels", "RegularizedKernel", "weight"),
    "integrator.store": ("integrator", "_SampleStore", "emit"),
}

DETERMINISTIC = (
    "rhs.main", "rhs.probe", "steps.main", "steps.probe", "segments", "probe.calls",
    "events", "events.Sticking", "events.NonStickCollision", "events.Unresolved",
    "store.rows", "store.emits", "weight.calls", "weight.evals", "merge.calls",
    "stick_fit.calls", "stick_fit.hits", "integrability.calls", "family.runs",
    "rhs.bytes", "write.bytes",
)


def rhs_bytes(n: int, d: int) -> int:
    """Bytes of the float arrays one dense RHS call allocates, computed from
    shapes: pair differences (n*n*d), squared distances, distances and
    weights (3*n*n), and the reduction, its row sums and the output (4*n*d)."""
    return 8 * (n * n * (d + 3) + 4 * n * d)


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_probe = 0
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        mods = {name: importlib.import_module(f"flocksim.{name}") for name in _MODULES}
        hooks = {
            "dynamics.rhs": self._on_rhs,
            "dynamics.merge": self._count("merge.calls"),
            "integrator.segment": self._count("segments"),
            "integrator.probe": self._count("probe.calls"),
            "integrator.solve": self._on_solve,
            "integrator.classify": self._on_event,
            "integrator.stick_fit": self._on_fit,
            "diagnostics.run": self._on_diagnostics,
            "convergence.family": self._on_family,
            "kernels.weight": self._on_weight,
            "integrator.store": self._count("store.emits"),
        }
        try:
            for span, (home, attr) in FUNCTIONS.items():
                orig = getattr(mods[home], attr, None)
                if orig is None:
                    raise RuntimeError(f"trace target flocksim.{home}.{attr} not found")
                wrapped = self._wrap(span, orig, hooks.get(span), probe=span == "integrator.probe")
                for mod in mods.values():
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, name, wrapped)
            for span, (home, cls_name, meth) in METHODS.items():
                cls = getattr(mods[home], cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise RuntimeError(f"trace target flocksim.{home}.{cls_name}.{meth} not found")
                self._patch(cls, meth, self._wrap(span, vars(cls)[meth], hooks.get(span)))
            integ = mods["integrator"]
            if not hasattr(integ, "RK45"):
                raise RuntimeError("trace target flocksim.integrator.RK45 not found")
            self._patch(integ, "RK45", self._counting_rk45(integ.RK45))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, obj, name, new) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def _restore(self) -> None:
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)

    def _wrap(self, span: str, fn, hook=None, probe: bool = False):
        code = len(self.names)
        self.names.append(span)
        stack, start, end = self._stack, self.start, self.end
        name_ix, parent = self.name_ix, self.parent

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_ix.append(code)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            if probe:
                self._in_probe += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if probe:
                    self._in_probe -= 1
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_rk45(self, base):
        tracer = self

        class CountingRK45(base):
            def step(self):
                tracer.counts["steps.probe" if tracer._in_probe else "steps.main"] += 1
                return super().step()

        return CountingRK45

    # -------------------------------------------------------------- counts

    def _count(self, key: str):
        def hook(args, result):
            self.counts[key] += 1

        return hook

    def _on_rhs(self, args, result) -> None:
        n, d = args[0].shape
        self.counts["rhs.probe" if self._in_probe else "rhs.main"] += 1
        self.counts["rhs.bytes"] += rhs_bytes(n, d)

    def _on_weight(self, args, result) -> None:
        self.counts["weight.calls"] += 1
        self.counts["weight.evals"] += int(args[1].size)

    def _on_solve(self, args, result) -> None:
        self.counts["store.rows"] += len(result.t)

    def _on_event(self, args, result) -> None:
        self.counts["events"] += 1
        self.counts[f"events.{result.kind}"] += 1

    def _on_fit(self, args, result) -> None:
        self.counts["stick_fit.calls"] += 1
        self.counts["stick_fit.hits"] += result is not None

    def _on_diagnostics(self, args, result) -> None:
        self.counts["integrability.calls"] += len(result.integrability)

    def _on_family(self, args, result) -> None:
        self.counts["family.runs"] += len(result)

    # -------------------------------------------------------------- results

    def deterministic_counts(self) -> dict:
        return {k: int(self.counts.get(k, 0)) for k in DETERMINISTIC}

    def times(self):
        """Inclusive and self seconds per span name."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_ix, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_t, minlength=k)
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(own[i]) for i, n in enumerate(self.names)})

    def save(self, path, t_origin: float) -> None:
        """Write the spans once the run is over: one row per wrapped call."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float) - t_origin,
            end=np.frombuffer(self.end, dtype=float) - t_origin,
        )


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    c = tracer.counts
    incl, own = tracer.times()
    rhs = c["rhs.main"] + c["rhs.probe"]
    events = c["events"]
    fits = c["stick_fit.calls"]
    # rejected fits rather than the accepted share, which has no value on
    # passes without a fit
    return {
        "integrator.main.self_s": (own["integrator.segment"], "s"),
        "integrator.main.steps": (c["steps.main"], "count"),
        "integrator.main.rhs_calls": (c["rhs.main"], "count"),
        "integrator.segments": (c["segments"], "count"),
        "integrator.rhs_per_event": (rhs / events if events else 0.0, "calls/event"),
        "integrator.probe.calls": (c["probe.calls"], "count"),
        "integrator.probe.steps": (c["steps.probe"], "count"),
        "integrator.probe.rhs_calls": (c["rhs.probe"], "count"),
        "integrator.probe.s": (incl["integrator.probe"], "s"),
        "integrator.stick_fit.calls": (fits, "count"),
        "integrator.stick_fit.rejects": (fits - c["stick_fit.hits"], "count"),
        "integrator.store.rows": (c["store.rows"], "count"),
        "integrator.store.s": (incl["integrator.store"], "s"),
        "dynamics.rhs_calls": (rhs, "count"),
        "dynamics.rhs_s": (incl["dynamics.rhs"], "s"),
        "dynamics.rhs_bytes": (c["rhs.bytes"], "B"),
        "dynamics.make_system_s": (incl["dynamics.make_system"], "s"),
        "dynamics.merge_calls": (c["merge.calls"], "count"),
        "kernels.weight_calls": (c["weight.calls"], "count"),
        "kernels.weight_evals": (c["weight.evals"], "count"),
        "kernels.weight_s": (incl["kernels.weight"], "s"),
        "cli.parse_s": (incl["cli.parse"], "s"),
        "cli.write_s": (incl["cli.write"], "s"),
        "cli.write_bytes": (c["write.bytes"], "B"),
        "diagnostics.s": (incl["diagnostics.run"], "s"),
        "diagnostics.integrability_calls": (c["integrability.calls"], "count"),
        "convergence.runs": (c["family.runs"], "count"),
        "convergence.family_s": (incl["convergence.family"], "s"),
        "convergence.cauchy_s": (incl["convergence.cauchy"], "s"),
    }
