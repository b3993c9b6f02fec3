"""Call spans around the library's public functions, for the traced run only.

``install`` replaces each listed function with a wrapper on every module
attribute (and class attribute) bound to the same object, so calls that
cross modules -- cli -> quantize -> core -- are attributed to the callee.
Spans are kept in memory as tuples and aggregated or written out when the
run ends.  Only the traced run installs wrappers; the untraced run
executes the library untouched.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "quantize", "nebula", "universal", "jsonio", "cli")

TRACED = (
    "core.validate_metric",
    "core.sup_distance",
    "core.amalgamate",
    "core.greedy_clopen_partition",
    "core.subdominant_ultrametric",
    "core.FiniteMetricSpace.from_rows",
    "core.FiniteMetricSpace.restrict",
    "core.FiniteMetricSpace.values",
    "quantize.approximate",
    "quantize.quantize_discrete",
    "quantize.transform_metric",
    "quantize.geometric_levels",
    "quantize.RangeCertificate.value",
    "nebula.cover",
    "nebula.margin",
    "nebula.validate_nebula",
    "nebula.nebula_contains",
    "universal.build_funiv_approx",
    "universal.make_net",
    "universal.pullback_universal",
    "universal.find_isometric_embedding",
    "universal.fragility_experiment",
    "universal.build_pair_universal",
    "jsonio.space_from_obj",
    "jsonio.space_to_obj",
    "jsonio.approximation_to_obj",
    "jsonio.validation_to_obj",
    "jsonio.nebula_from_obj",
    "jsonio.nebula_to_obj",
    "jsonio.fragility_to_obj",
    "cli.main",
    "cli.render_range_svg",
)


class Tracer:
    """Collects (name index, start, end, parent span, op) tuples."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, index: int, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[me] = (index, t0, t1, parent, self.op)

        return traced

    def install(self) -> int:
        """Wrap every TRACED function in place; returns the binding count."""
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == "metric_forge"
        ]
        bound = 0
        for index, dotted in enumerate(TRACED):
            layer, *path = dotted.split(".")
            owner = sys.modules[f"metric_forge.{layer}"]
            if len(path) == 2:  # a method: patch the class once
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    setattr(cls, path[1], classmethod(self.wrap(index, raw.__func__)))
                else:
                    setattr(cls, path[1], self.wrap(index, raw))
                bound += 1
                continue
            fn = getattr(owner, path[0])
            wrapper = self.wrap(index, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        bound += 1
        return bound

    def summary(self, ops: int) -> dict:
        """Per-op means: calls, busy (inclusive) and self time per function."""
        calls = [0] * len(TRACED)
        busy = [0.0] * len(TRACED)
        child = defaultdict(float)
        for index, t0, t1, parent, _ in self.spans:
            calls[index] += 1
            busy[index] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own = [0.0] * len(TRACED)
        for me, (index, t0, t1, _, _) in enumerate(self.spans):
            own[index] += (t1 - t0) - child[me]
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, dotted in enumerate(TRACED):
            out[f"{dotted}.calls"] = calls[i] / ops
            out[f"{dotted}.busy_s"] = busy[i] / ops
            out[f"{dotted}.self_s"] = own[i] / ops
            layer_self[dotted.split(".")[0]] += own[i] / ops
        for layer, v in layer_self.items():
            out[f"{layer}.self_s"] = v
        return out

    def root_busy(self) -> float:
        """Total time inside outermost spans (the CLI steps of each op)."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": TRACED, "spans": self.spans}, fh)
