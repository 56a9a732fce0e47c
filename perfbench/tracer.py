"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces a module's public functions with timing wrappers in
the namespace where their callers look them up (``zeropack.cli.run_recipe``
for the CLI, ``zeropack.pipeline.run_recipe`` for the sweep pool, and so
on). Nothing under ``src/`` changes. Each wrapper records one span: its
layer, the layer of the span that caused it, its duration, and the time
its child spans cover, so a layer's self time is its duration minus that.
Spans are kept in memory and turned into the per-layer metrics at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time

# (span name, module, attribute) for every function wrapped. One function
# looked up from several modules is wrapped in each of them, because a
# ``from x import f`` binds its own name.
TARGETS = (
    ("recipe.load", "zeropack.cli", "load_recipe"),
    ("recipe.load", "zeropack.recipe", "load_recipe"),
    ("pipeline.run_recipe", "zeropack.cli", "run_recipe"),
    ("pipeline.run_recipe", "zeropack.pipeline", "run_recipe"),
    ("pipeline.emit", "zeropack.cli", "emit_report"),
    ("pipeline.emit", "zeropack.cli", "emit_sweep"),
    ("release.ttr", "zeropack.release", "time_to_release"),
    ("release.calibrate", "zeropack.release", "calibrate_etch"),
    ("release.calibrate", "zeropack.recipe", "calibrate_etch"),
    ("geometry.coverage", "zeropack.release", "release_coverage"),
    ("clogging.call", "zeropack.clogging", "thickness_to_clog"),
    ("clogging.call", "zeropack.clogging", "aperture_after"),
    ("clogging.call", "zeropack.clogging", "residue_estimate"),
    ("mechanics.solve", "zeropack.pipeline", "solve_plate"),
    ("mechanics.solve", "zeropack.design", "solve_plate"),
    ("mechanics.solve", "zeropack.cli", "solve_plate"),
    ("design.min_cap", "zeropack.design", "min_cap_thickness"),
    ("design.equivalent", "zeropack.design", "equivalent_thickness"),
)

# A coverage query at or above this fraction is "near" release; the two
# regimes cost very differently, so they are timed apart.
NEAR_RELEASE = 0.99


class _Span:
    __slots__ = ("name", "parent", "start", "duration", "child", "fresh", "value")

    def __init__(self, name, parent, fresh):
        self.name = name
        self.parent = parent
        self.fresh = fresh
        self.child = 0.0
        self.value = None
        self.start = time.perf_counter()
        self.duration = 0.0


class Tracer:
    """Wraps the layer functions of an imported ``zeropack`` and keeps spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen: dict[str, set] = {}
        self.spans: list[_Span] = []

    def install(self) -> None:
        wrapped = {}
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn)
            setattr(mod, attr, wrapped[id(fn)])

    def _key(self, name, sig, args, kwargs):
        """Identity of a call for the first-seen flags: the plate geometry
        and grid for a solve, the release inputs for a release."""
        if name not in ("mechanics.solve", "release.ttr"):
            return None
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        call = dict(bound.arguments)
        if name == "mechanics.solve":
            return (call["spec"].side_a, call["spec"].side_b, call["grid_n"])
        # the etch runs in the sacrificial film only: a sweep over the cap
        # or sealing film repeats an identical release
        call["stack"] = call["stack"].sacrificial_thickness
        return tuple(call.items())

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            key = self._key(name, sig, args, kwargs)
            with self._lock:
                seen = self._seen.setdefault(name, set())
                fresh = key not in seen
                seen.add(key)
            span = _Span(name, stack[-1].name if stack else None, fresh)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "geometry.coverage":
                    span.value = result
                return result
            finally:
                span.duration = time.perf_counter() - span.start
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (see ``LAYER_METRICS``
        in ``run.py`` for units)."""

        def layer(name):
            return name.split(".")[0]

        by_name: dict[str, list[_Span]] = {}
        for s in self.spans:
            # only calls that cross into a layer from outside it count, so
            # a layer function calling its own wrapped sibling is not
            # counted twice
            if s.parent is None or layer(s.parent) != layer(s.name):
                by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s.duration for s in spans(name))

        def median_ms(items):
            return 1e3 * statistics.median(s.duration for s in items) if items else 0.0

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        runs = spans("pipeline.run_recipe")
        ttr = spans("release.ttr")
        cov = spans("geometry.coverage")
        solves = spans("mechanics.solve")
        calib = spans("release.calibrate")
        min_cap = spans("design.min_cap")
        equivalent = spans("design.equivalent")
        far = [s for s in cov if s.value is not None and s.value < NEAR_RELEASE]
        near = [s for s in cov if s.value is not None and s.value >= NEAR_RELEASE]
        cold = [s for s in solves if s.fresh]
        warm = [s for s in solves if not s.fresh]
        run_recipe_s = total("pipeline.run_recipe")
        return {
            "recipe.load_s": total("recipe.load"),
            "pipeline.run_recipe_s": run_recipe_s,
            "pipeline.run_recipe_calls": len(runs),
            "pipeline.emit_s": total("pipeline.emit"),
            "pipeline.release_repeat_ratio": per(sum(not s.fresh for s in ttr), len(ttr)),
            "release.ttr_s": total("release.ttr"),
            "release.ttr_calls": len(ttr),
            "release.ttr_self_s": sum(s.duration - s.child for s in ttr),
            "release.coverage_queries_per_ttr": per(
                sum(s.parent == "release.ttr" for s in cov), len(ttr)
            ),
            "release.calibrate_s": (
                statistics.median(s.duration for s in calib) if calib else 0.0
            ),
            "release.calibrate_calls": len(calib),
            "geometry.coverage_s": total("geometry.coverage"),
            "geometry.coverage_calls": len(cov),
            "geometry.coverage_far_ms": median_ms(far),
            "geometry.coverage_near_ms": median_ms(near),
            "geometry.coverage_released_ratio": per(
                sum(s.value is not None and s.value >= 1.0 for s in cov), len(cov)
            ),
            "mechanics.solve_calls": len(solves),
            "mechanics.cold_solves": len(cold),
            "mechanics.cold_solve_ms": median_ms(cold),
            "mechanics.warm_solve_ms": median_ms(warm),
            "mechanics.cache_hit_ratio": per(len(warm), len(solves)),
            "mechanics.solve_s": total("mechanics.solve"),
            "design.min_cap_s": total("design.min_cap"),
            "design.solves_per_min_cap": per(
                sum(s.parent == "design.min_cap" for s in solves), len(min_cap)
            ),
            "design.equivalent_s": total("design.equivalent"),
            "design.solves_per_equivalent": per(
                sum(s.parent == "design.equivalent" for s in solves), len(equivalent)
            ),
            "clogging.s": total("clogging.call"),
            "clogging.calls": len(spans("clogging.call")),
            # share of run_recipe's time spent inside the layers it calls
            "trace.layer_share": per(sum(s.child for s in runs), run_recipe_s),
        }
