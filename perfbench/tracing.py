"""Spans around calls into infodyn's public functions, from outside the package.

Each traced function is replaced, by object identity, under every name that
binds it in a loaded ``infodyn`` module (``aggregate`` is bound in both
``clustering`` and ``sampling``), so calls made inside the package are
traced too.  Nothing under ``src/`` is changed.  Spans are aggregated as
they close: calls and self time per metric name, where self time is the
span's duration minus the time its child spans cover.  The self times of
all spans therefore sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# module -> public functions traced one by one
TRACED = {
    "rng": ("stream", "derive_key", "sample_counts"),
    "sampling": ("sample_trajectory", "monte_carlo", "monte_carlo_components",
                 "fisher_hat", "clustered_fisher_hat", "info_rate_hat",
                 "cluster_info_rate_hat", "fisher_between", "info_rate_between"),
    "dynamics": ("integrate_sir", "trajectory_to_csv"),
    "clustering": ("kmeans", "kmeans_features", "aggregate", "delta_g_prob_form",
                   "elbow_select", "clustering_to_csv", "delta_curve_to_csv"),
    "filtering": ("filter_probs", "gaussian_kernel"),
    "cli": ("run", "write_csv"),
}
# module whose public functions share one aggregate span name
AGGREGATED = "theory"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_categories(counts, args, kwargs):
    p = _arg(args, kwargs, 0, "p")
    if p is not None:
        counts["rng.sample_counts.categories"] += len(p)


def _count_replications(counts, args, kwargs):
    reps = _arg(args, kwargs, 1, "replications")
    if reps is not None:
        counts["sampling.monte_carlo.replications"] += int(reps)


def _count_steps(counts, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    t_end = _arg(args, kwargs, 1, "t_end")
    step = _arg(args, kwargs, 2, "step")
    if t_end is None or step is None or step <= 0:
        return
    steps = int(round(t_end / step))
    counts["dynamics.integrate_sir.steps"] += steps
    variants = getattr(params, "n_variants", None)
    if variants is not None:
        counts["dynamics.integrate_sir.variant_steps"] += steps * int(variants)


# span name -> counter updated from the call's arguments
COUNTERS = {
    "rng.sample_counts": _count_categories,
    "sampling.monte_carlo": _count_replications,
    "sampling.monte_carlo_components": _count_replications,
    "dynamics.integrate_sir": _count_steps,
}
COUNT_NAMES = ("rng.sample_counts.categories", "sampling.monte_carlo.replications",
               "dynamics.integrate_sir.steps", "dynamics.integrate_sir.variant_steps")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [AGGREGATED]


class Tracer:
    """Per-name call counts and self times of the spans it wraps."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []  # one child-time accumulator per open span

    def wrap(self, name, fn, counter=None):
        calls, self_s, counts, children = self.calls, self.self_s, self.counts, self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, args, kwargs)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += duration

        return traced


def _targets() -> list[tuple[str, object]]:
    """(span name, function) for every traced function that exists."""
    found = []
    for mod, fns in TRACED.items():
        module = sys.modules.get(f"infodyn.{mod}")
        for fn in fns:
            obj = getattr(module, fn, None)
            if callable(obj):
                found.append((f"{mod}.{fn}", obj))
    module = sys.modules.get(f"infodyn.{AGGREGATED}")
    if module is not None:
        for key, obj in vars(module).items():
            if (not key.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found.append((AGGREGATED, obj))
    return found


def install(tracer: Tracer):
    """Wrap every traced function under all its bindings; returns an undo callable.

    A name that the loaded package no longer defines is skipped, so it
    reports 0 calls.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "infodyn" or key.startswith("infodyn."))]
    patched = []
    for name, fn in _targets():
        wrapper = tracer.wrap(name, fn, COUNTERS.get(name))
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is fn]:
                setattr(module, key, wrapper)
                patched.append((module, key, fn))

    def undo():
        for module, key, fn in reversed(patched):
            setattr(module, key, fn)

    return undo
