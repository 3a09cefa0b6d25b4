"""Outside-in tracer for thermomap.

It replaces each public function of every loaded ``thermomap.*`` module
by a wrapper, matching functions by object identity so that bindings
made with ``from .x import f`` are replaced too.  Spans are kept in
memory as ``(name, start, end, parent)`` and turned into per-layer
metrics after the traced repetition; ``uninstall`` puts the original
functions back.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import types
from collections import defaultdict

# Word primitives that run several hundred thousand times per quad4
# scan: they are counted, not timed, so the trace does not swamp them.
COUNT_ONLY = {
    "interval_map.pullback_word",
    "interval_map.derivative_along_word",
    "interval_map.derivative_along",
    "interval_map.eval_along_word",
}


def _add(key, size):
    def hook(tracer, result):
        tracer.counts[key] += size(result)
    return hook


def _scheme_hook(tracer, scheme):
    tracer.counts["inducing.branches"] += len(scheme.branches)
    tracer.escaping_masses.append(scheme.escaping_mass_bound)


# What the tracer reads off a layer's return value; refine_levels is a
# generator, so its hook sees each yielded level.
RESULT_HOOKS = {
    "hofbauer.build_tower": _add("hofbauer.tower_nodes", lambda tower: len(tower.real_nodes())),
    "inducing.extendible_return_scheme": _scheme_hook,
    "inducing.first_return_scheme": _scheme_hook,
    "symbolic.refine": _add("symbolic.cylinders", len),
    "symbolic.refine_levels": _add("symbolic.cylinders", len),
}


def _thermomap_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "thermomap" or name.startswith("thermomap."))]


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.escaping_masses: list[float] = []
        self._stack = [-1]
        self._patched: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _thermomap_modules()
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("thermomap"):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = (obj, self._wrap(obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn):
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        counts = self.counts
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)

        def timed_call(call):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return call()
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        if inspect.isgeneratorfunction(fn):
            # time the generator while it is iterated, one span per step
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed_call(lambda: next(it))
                    except StopIteration:
                        return
                    if hook is not None:
                        hook(self, item)
                    yield item
            return functools.update_wrapper(generator, fn)

        def spanned(*args, **kwargs):
            result = timed_call(lambda: fn(*args, **kwargs))
            if hook is not None:
                hook(self, result)
            return result
        return functools.update_wrapper(spanned, fn)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def outermost_time(self, names) -> float:
        """Total time in spans named in ``names`` not nested in another such span."""
        names = set(names)
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced repetition."""
        c, out = self.counts, {}
        own = self.self_times()
        spans = self.spans

        def self_of(name):
            return sum(t for s, t in zip(spans, own) if s[0] == name)

        out["interval_map.pullback_calls"] = c["interval_map.pullback_word"]
        out["interval_map.deriv_calls"] = (c["interval_map.derivative_along_word"]
                                           + c["interval_map.derivative_along"])
        out["interval_map.eval_calls"] = c["interval_map.eval_along_word"]
        out["interval_map.load_s"] = self.outermost_time(
            {"interval_map.load_map", "interval_map.parse_map_spec"})
        out["symbolic.refine_s"] = self.outermost_time(
            {"symbolic.refine", "symbolic.refine_levels"})
        out["symbolic.cylinders"] = c["symbolic.cylinders"]
        out["symbolic.useful_frac"] = (c["inducing.branches"] / c["symbolic.cylinders"]
                                       if c["symbolic.cylinders"] else 0.0)
        out["symbolic.laps_s"] = self.outermost_time({"symbolic.laps_entropy"})
        out["symbolic.periodic_points"] = self.calls("symbolic.periodic_point")
        out["symbolic.periodic_s"] = self.outermost_time({"symbolic.periodic_point"})
        out["hofbauer.tower_s"] = self.outermost_time({"hofbauer.build_tower"})
        out["hofbauer.tower_nodes"] = c["hofbauer.tower_nodes"]
        out["inducing.scheme_s"] = self.outermost_time(
            {"inducing.extendible_return_scheme", "inducing.first_return_scheme"})
        out["inducing.branches"] = c["inducing.branches"]
        masses = self.escaping_masses
        out["inducing.escaping_mass"] = sum(masses) / len(masses) if masses else 0.0
        out["thermo.gurevich_calls"] = self.calls("thermo.gurevich_pressure")
        out["thermo.gurevich_s"] = self.outermost_time({"thermo.gurevich_pressure"})
        out["thermo.tail_info_s"] = self.outermost_time({"thermo.tail_info_for"})
        out["thermo.induced_potential_s"] = self.outermost_time({"thermo.induced_potential"})
        solves = self.calls("gibbs.equilibrium_shift_solve")
        out["gibbs.solves"] = solves
        out["gibbs.shift_solve_s"] = self.outermost_time({"gibbs.equilibrium_shift_solve"})
        out["gibbs.shift_solve_self_s"] = self_of("gibbs.equilibrium_shift_solve")
        out["gibbs.evals_per_solve"] = (out["thermo.gurevich_calls"] / solves
                                        if solves else 0.0)
        out["gibbs.solve_gibbs_s"] = self.outermost_time({"gibbs.solve_gibbs"})
        out["gibbs.zero_entropy_s"] = self.outermost_time({"gibbs.zero_entropy_competitor"})
        out["gibbs.project_s"] = self.outermost_time({"gibbs.project_measure"})
        out["gibbs.ratio_check_s"] = self.outermost_time({"gibbs.gibbs_ratio_check"})
        out["gibbs.abramov_s"] = self.outermost_time({"gibbs.abramov_quantities"})
        out["diagnostics.s"] = self.outermost_time(
            {s[0] for s in spans if s[0].startswith("diagnostics.")})
        out["cli.self_s"] = self_of("cli.run")
        out["cli.detect_s"] = self.outermost_time({"cli.detect_phase_transition"})
        return out

    def dump(self, path: str) -> None:
        """Write spans (times relative to the first span) and counts as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "escaping_mass": [m if math.isfinite(m) else None
                              for m in self.escaping_masses],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
