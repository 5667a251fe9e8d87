"""Layer spans recorded from outside coppit.

``install()`` wraps every public function of the layer modules (their
``__all__``) and the public methods of their public classes, at every
coppit module attribute bound to them: ``forecasts`` and ``simstudy``
import ``bvn_cdf``, ``copula_cdf`` and others by name, and a module's own
calls go through its globals, so rebinding the attributes catches every
call.  Each call becomes a span (name, layer, start, end, parent) kept in
memory with a per-thread parent stack; a few functions also record a work
count taken from their arguments or result.  ``write_chrome`` writes the
spans in Chrome trace format and ``summarize`` derives per-layer self time
and counts from such a file.  Self time is a span's duration minus the
time covered by its child spans.
"""

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "forecasts", "kendall", "calibration", "copulas", "samplers",
          "bvn", "simstudy")


def _pairs(a, r):
    m, d = (np.shape(a["points"]) + (1,))[:2]
    return m * m * d


def _rows(a, r):
    return 1 if a["n"] is None else int(a["n"])


# work count recorded on each span of a function: (count name, f(bound args, result))
COUNTS = {
    "io.read_archive": ("cases", lambda a, r: len(r.cases)),
    "io.write_records": ("rows", lambda a, r: len(a["records"])),
    "kendall.select_kendall": ("route", lambda a, r: r.source),
    "kendall.monte_carlo_kendall": ("draws", lambda a, r: int(a["n"])),
    "kendall.archimedean_mc_kendall": ("draws", lambda a, r: int(a["n"])),
    "kendall.pseudo_observations": ("pairs", _pairs),
    "calibration.multivariate_rank": ("pairs", _pairs),
    "calibration.coppit_interval": ("pairs", _pairs),
    "calibration.histogram": ("items", lambda a, r: int(np.size(a["values"]))),
    "bvn.bvn_cdf": ("points", lambda a, r: int(np.size(r))),
    "copulas.copula_cdf": ("items", lambda a, r: int(np.size(r))),
    "copulas.sample_copula": ("items", _rows),
    "copulas.kendall_sample": ("items", _rows),
    "copulas.tau_to_theta": ("items", lambda a, r: int(np.size(a["tau"]))),
    "samplers.sibuya": ("draws", lambda a, r: int(np.size(r))),
    "samplers.positive_stable": ("draws", lambda a, r: int(np.size(r))),
}

# per-function metrics: self time plus the work count (or the call count)
SELECTED = {
    "io.read_archive": "cases",
    "io.write_records": "rows",
    "io.write_histogram": "calls",
    "io.render_svg": "calls",
    "calibration.histogram": "items",
    "bvn.bvn_cdf": "points",
    "copulas.copula_cdf": "items",
    "copulas.sample_copula": "items",
    "copulas.kendall_sample": "items",
    "copulas.tau_to_theta": "items",
    "samplers.substream": "calls",
    "samplers.sibuya": "draws",
    "samplers.positive_stable": "draws",
    "simstudy.run_bivariate": None,
    "simstudy.run_highdim": None,
    "simstudy.run_demo_emos": None,
}
COUNT_KEYS = {key for key, _ in COUNTS.values()} - {"route"}
ROUTES = ("pseudo", "mc", "analytic", "uniform")
MC_DRAWS = ("kendall.monte_carlo_kendall", "kendall.archimedean_mc_kendall")
DOMINANCE = ("kendall.pseudo_observations", "calibration.multivariate_rank",
             "calibration.coppit_interval")


def metric_names():
    """Every metric ``summarize`` reports, in a fixed order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    for fn, count in SELECTED.items():
        names.append(f"{fn}.self_s")
        if count is not None:
            names.append(f"{fn}.{count}")
    names += [f"kendall.route.{r}" for r in ROUTES]
    names += ["kendall.mc_draws", "calibration.dominance_pairs"]
    return names


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, layer):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            extra = None
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = {count[0]: count[1](bound.arguments, result)}
            spans.append((sid, parent, name, layer, t0, t1, threading.get_ident(), extra))
            return result

        return wrapper

    def write_chrome(self, path):
        base = min((s[4] for s in self.spans), default=0)
        events = []
        for sid, parent, name, layer, t0, t1, tid, extra in self.spans:
            args = {"id": sid, "parent": parent}
            if extra:
                args.update(extra)
            events.append({"name": name, "cat": layer, "ph": "X", "pid": os.getpid(),
                           "tid": tid, "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                           "args": args})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _rebind(modules, old, new):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install():
    """Wrap coppit's public functions and methods; returns the Recorder."""
    import coppit.cli  # noqa: F401  (imports every layer module)

    rec = Recorder()
    modules = [m for k, m in sys.modules.items() if k == "coppit" or k.startswith("coppit.")]
    for layer in LAYERS:
        mod = sys.modules[f"coppit.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                _rebind(modules, obj, rec.wrap(obj, f"{layer}.{name}", layer))
            elif inspect.isclass(obj):
                for cls in [obj] + obj.__subclasses__():
                    _wrap_methods(rec, cls, layer)
    return rec


def _wrap_methods(rec, cls, layer):
    for key, value in list(vars(cls).items()):
        if key.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{key}"
        if inspect.isfunction(value):
            setattr(cls, key, rec.wrap(value, name, layer))
        elif isinstance(value, (staticmethod, classmethod)):
            setattr(cls, key, type(value)(rec.wrap(value.__func__, name, layer)))


def summarize(path):
    """Per-layer and per-function metrics from a Chrome trace written above."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    covered = defaultdict(float)
    for e in events:
        covered[e["args"]["parent"]] += e["dur"]
    calls = defaultdict(int)
    self_us = defaultdict(float)
    counts = defaultdict(int)
    routes = defaultdict(int)
    for e in events:
        args, name = e["args"], e["name"]
        own = e["dur"] - covered.get(args["id"], 0.0)
        for key in (e["cat"], name):
            calls[key] += 1
            self_us[key] += own
        if "route" in args:
            routes[args["route"]] += 1
        for key in COUNT_KEYS & args.keys():
            counts[name] += args[key]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_us[layer] / 1e6
    for fn, count in SELECTED.items():
        out[f"{fn}.self_s"] = self_us[fn] / 1e6
        if count is not None:
            out[f"{fn}.{count}"] = calls[fn] if count == "calls" else counts[fn]
    for r in ROUTES:
        out[f"kendall.route.{r}"] = routes[r]
    out["kendall.mc_draws"] = sum(counts[fn] for fn in MC_DRAWS)
    out["calibration.dominance_pairs"] = sum(counts[fn] for fn in DOMINANCE)
    return out
