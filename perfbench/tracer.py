"""Per-layer tracing of the metriclie package from outside the program.

``install`` wraps every public function of the layer modules and
rebinds the wrapper in every metriclie namespace that holds the
function: ``from .core import series`` copies the binding into
``einstein`` and ``cli``, so patching ``metriclie.core`` alone would
miss their calls. Each call records a span (parent span, op, function,
start, end, raised) in memory, timed on the calibrated clock of the
end-to-end metrics (clock.py); self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array

LAYERS = (
    "linalg",
    "core",
    "forms",
    "reduction",
    "einstein",
    "obstruction",
    "semisimple",
    "documents",
    "cli",
)

# Per-scalar and per-vector helpers cost about as much as a wrapper and
# run millions of times; their time counts in their caller's self time.
UNWRAPPED = {
    "linalg": {
        "frac", "vec", "zeros_vec", "unit_vec", "nrows", "ncols",
        "vec_add", "vec_sub", "vec_scale", "vec_dot", "is_zero_vec",
    },
}

# Methods reported as functions of their module (ROADMAP names core.bracket).
METHODS = {"core": {"bracket": ("LieAlgebra", "bracket")}}

# Functions reported one by one; every wrapped function feeds its
# module's totals.
REPORTED = (
    "linalg.mat_mul", "linalg.rref", "linalg.kernel", "linalg.charpoly",
    "linalg.minimal_polynomial",
    "core.ad", "core.bracket", "core.killing_matrix", "core.series", "core.nilradical",
    "forms.signature", "forms.is_invariant", "forms.witt_basis",
    "reduction.double_extend", "reduction.reduce_by_ideal",
    "einstein.sharpness_search",
    "obstruction.exact_eigenvalues", "obstruction.obstruction_verdict",
    "obstruction.qlinear_relations",
    "semisimple.compact_split",
    "documents.parse_document", "documents.emit_document",
    "cli.main",
)


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.parent = array("q")
        self.op = array("q")
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.raised = bytearray()
        self.current_op = -1
        self._stack = [-1]

    def wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        parent, op, name = self.parent, self.op, self.name
        start, end, raised, stack = self.start, self.end, self.raised, self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            name.append(idx)
            end.append(0.0)
            raised.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """calls, self_s and errors per wrapped function and per module."""
        n = len(self.start)
        child = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        per_fn = {q: {"calls": 0, "self_s": 0.0, "errors": 0} for q in self.names}
        for s in range(n):
            rec = per_fn[self.names[self.name[s]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[s] - self.start[s] - child[s]
            rec["errors"] += self.raised[s]
        out = {}
        for layer in LAYERS:
            fns = [v for q, v in per_fn.items() if q.split(".")[0] == layer]
            out[layer] = {
                "calls": sum(v["calls"] for v in fns),
                "self_s": sum(v["self_s"] for v in fns),
                "errors": sum(v["errors"] for v in fns),
            }
        for q in REPORTED:
            # a function a later change renamed or removed reports zeros
            out[q] = per_fn.get(q, {"calls": 0, "self_s": 0.0, "errors": 0})
        return out


def span_cost(clock, calls: int = 20000) -> float:
    """Calibrated time one wrapper adds to a call, measured in this
    process: a wrapped no-op against the bare no-op, best of five."""

    def noop():
        return None

    probe = Tracer(clock)
    traced = probe.wrap("probe.noop", noop)
    costs = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return min(costs)


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer functions of the imported metriclie package;
    returns the reported functions that the package does not define."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"metriclie.{layer}"]
        skip = UNWRAPPED.get(layer, set())
        for attr, val in vars(mod).items():
            if (
                isinstance(val, types.FunctionType)
                and val.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
                and not inspect.isgeneratorfunction(val)
            ):
                wrappers[val] = tracer.wrap(f"{layer}.{attr}", val)
        for fn_name, (cls_name, method) in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            if cls is not None and hasattr(cls, method):
                setattr(cls, method, tracer.wrap(f"{layer}.{fn_name}", getattr(cls, method)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "metriclie" and not mod_name.startswith("metriclie."):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                setattr(mod, attr, wrappers[val])
    return [q for q in REPORTED if q not in tracer.names]
