"""Per-module tracing of capscale from outside the program.

Each boundary function is wrapped by rebinding its name in every capscale
module namespace that holds it, so calls made through ``from .x import f``
bindings are caught too, and a wrapper knows which module called it.
Coarse calls record spans (kept in memory, written out at the end); leaf
calls, which run hundreds of thousands of times per op, only add to
aggregate counters. Self time is a call's duration minus the time of the
traced calls it made.

A boundary that a later refactor removes or renames is reported as absent
with zero calls; tracing does not fail.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "capscale"
LEAF, SPAN = "leaf", "span"

# (home module, function, kind). Order is the order of the printed report.
BOUNDARIES = (
    ("cli", "main", SPAN),
    ("cli", "load_channel_config", SPAN),
    ("cli", "_emit", SPAN),
    ("scales", "compute_capacity_report", SPAN),
    ("scales", "random_scale", SPAN),
    ("simulate", "run_trials", SPAN),
    ("optim", "maximize_chi_sum", SPAN),
    ("optim", "maximize_chi_min", SPAN),
    ("optim", "maximize_concave_1d", SPAN),
    ("holevo", "chi_ad_mirror", LEAF),
    ("holevo", "chi_mirror_family", LEAF),
    ("channels", "apply_qubit_channel", LEAF),
    ("linalg", "von_neumann_entropy", LEAF),
    ("linalg", "validate_density_matrix", LEAF),
)

_MAXIMIZERS = ("optim.maximize_chi_sum", "optim.maximize_chi_min", "optim.maximize_concave_1d")


def _key(value):
    """Hashable identity of a call argument within one op.

    Values count by value and closures by code and captured values; any other
    object counts by its type, so a maximization repeated on a rebuilt
    helper object is a repeat.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, _key(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    if isinstance(value, (int, float, str, type(None))):
        return value
    if getattr(value, "__closure__", None):
        return (value.__code__, tuple(_key(c.cell_contents) for c in value.__closure__))
    return type(value).__qualname__


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` and friends after."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.stats = {}  # boundary name -> [calls, self seconds]
        self.counters = {
            "optim.iterations": 0,
            "optim.evals": 0,
            "scales.maximizations": 0,
            "simulate.draws": 0,
        }
        self.distinct_maximizations = set()
        self.spans = []  # (span id, parent id, op, name, start s, duration s)
        self.absent = []
        self.op = None
        self._child = [0.0]  # child-time accumulators of the open calls
        self._open = [None]  # ids of the open spans
        self._patches = []

    # --- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return {
            name.rpartition(".")[2] if name != PACKAGE else name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }

    def __enter__(self):
        modules = self._modules()
        for home, func, kind in self.boundaries:
            name = f"{home}.{func}"
            self.stats[name] = [0, 0.0]
            original = getattr(modules.get(home), func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            for caller, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        wrapper = self._wrap(name, original, caller, kind)
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, caller, kind):
        stat = self.stats[name]
        child = self._child

        if kind == LEAF:
            def leaf(*args, **kwargs):
                child.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += dur - child.pop()
                    child[-1] += dur

            return leaf

        count_evals = name == "optim.maximize_concave_1d"
        sweep_maximizer = caller == "scales" and name in _MAXIMIZERS
        open_spans = self._open
        spans = self.spans

        def span(*args, **kwargs):
            if sweep_maximizer:
                self.counters["scales.maximizations"] += 1
                self.distinct_maximizations.add((self.op, name, _key(args), _key(kwargs)))
            if count_evals and args and callable(args[0]):
                args = (self._counted(args[0]),) + args[1:]
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stat[0] += 1
                stat[1] += dur - child.pop()
                child[-1] += dur
                open_spans.pop()
                spans[sid] = (sid, parent, self.op, name, t0, dur)
            if count_evals:
                self.counters["optim.iterations"] += getattr(result, "iterations", 0)
            if name == "simulate.run_trials":
                self.counters["simulate.draws"] += getattr(result, "n_trials", 0)
            return result

        return span

    def _counted(self, f):
        counters = self.counters

        def objective(x):
            counters["optim.evals"] += 1
            return f(x)

        return objective

    # --- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic count; two traced passes over the same inputs must agree."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counters)
        out["scales.distinct_maximizations"] = len(self.distinct_maximizations)
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics as (value, unit) pairs."""
        m = {}
        for name, (calls, self_s) in self.stats.items():
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_ms"] = (1e3 * self_s, "ms")
        c = self.counters
        n_max = self.stats["optim.maximize_concave_1d"][0]
        n_sweep = c["scales.maximizations"]
        draw_s = self.stats["simulate.run_trials"][1]
        m["optim.iterations"] = (c["optim.iterations"], "count")
        m["optim.evals_per_max"] = (c["optim.evals"] / n_max if n_max else 0.0, "count")
        m["scales.maximizations"] = (n_sweep, "count")
        m["scales.distinct_max_frac"] = (
            len(self.distinct_maximizations) / n_sweep if n_sweep else 0.0,
            "ratio",
        )
        m["simulate.draws"] = (c["simulate.draws"], "count")
        m["simulate.draws_per_s"] = (c["simulate.draws"] / draw_s if draw_s else 0.0, "1/s")
        return m
