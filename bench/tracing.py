"""In-memory spans around the public functions of each planarfab module.

Wrappers are installed with ``setattr`` on the module (or class) attribute
that callers look up at call time, so the program's source stays untouched.
Each span records (name, start, end, parent span, plan id); spans are kept in
memory and aggregated once the run ends.  ``core.Layout.distance`` is far too
hot for a span per call and is only counted.
"""

from __future__ import annotations

import functools
from time import perf_counter

from planarfab import core, ordergen, packing, pipeline, placement, routing, scheduling, shppn

# (owner, attribute): one span per call, named "<module>.<attribute>"
SPANNED = [
    (pipeline, "run_pipeline"),
    (pipeline, "schedule_batched"),
    (pipeline, "render_gantt"),
    (pipeline, "render_layout"),
    (pipeline, "paths_to_csv"),
    (pipeline, "plan_to_json"),
    (pipeline, "packing_to_json"),
    (ordergen, "sample_orders"),
    (packing, "pack_min_load"),
    (packing, "pack_correlation"),
    (placement, "ga_place"),
    (placement, "fitness"),
    (placement, "analytical_cost"),
    (shppn, "kappa"),
    (scheduling, "lower_bound"),
    (scheduling, "p_cmax"),
    (scheduling, "schedule"),
    (scheduling, "candidate_routes"),
    (routing, "route_schedule"),
    (routing, "generate_resting_sites"),
    (routing, "resolve_conflicts"),
    (routing, "extract_transits"),
    (routing, "assign_resting_sites"),
    (routing, "build_paths"),
    (routing, "detect_conflicts"),
    (routing, "build_dag"),
    (routing, "propagate_starts"),
    (routing, "merge_batches"),
]
COUNTED = [(core.Layout, "distance", "core.Layout.distance")]
ARTIFACTS = tuple(
    f"pipeline.{a}"
    for a in ("render_gantt", "render_layout", "paths_to_csv", "plan_to_json", "packing_to_json")
)
ROOT_SPAN = "pipeline.run_pipeline"


def _module_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


class Patches:
    """setattr-based wrappers that can be removed again in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr, make_wrapper):
        orig = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(orig)(make_wrapper(orig)))
        self._undo.append((owner, attr, orig))

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer:
    """Collects spans and counters while installed; ``plan`` tags new spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, plan id)
        self.counts: dict[str, int] = {}
        self.plan = -1
        self._stack: list[int] = []
        self._patches = Patches()

    def _span(self, name):
        spans, stack = self.spans, self._stack

        def make(orig):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent, self.plan)

            return wrapper

        return make

    def _counter(self, name):
        counts = self.counts

        def make(orig):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return orig(*args, **kwargs)

            return wrapper

        return make

    def install(self):
        for owner, attr in SPANNED:
            self._patches.wrap(owner, attr, self._span(f"{_module_name(owner)}.{attr}"))
        for owner, attr, name in COUNTED:
            self._patches.wrap(owner, attr, self._counter(name))

    def remove(self):
        self._patches.remove()

    def totals(self) -> dict:
        """Per-name inclusive time, self time and call count over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, plan in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent, plan) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["calls"] += 1
        for name, n in self.counts.items():
            out[name] = {"s": 0.0, "self_s": 0.0, "calls": n}
        return out
