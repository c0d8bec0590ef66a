"""Span and counter tracing of the holeburn layers, from outside ``src/``.

``install`` wraps the public functions of each layer (one module of
``holeburn``) and puts the wrapper on every name that callers look up:
the function's own module and every other ``holeburn`` module that
imported it (``holeburn.cli.retrieve`` is ``holeburn.storage.retrieve``).
Each wrapped call records a span ``[name, start, end, parent, op]`` in
memory; a few wrappers also count the work they are handed.
``layer_metrics`` reduces spans and counts to the per-layer metrics.
"""

import collections
import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

# Public functions per layer; a name missing from the module is skipped.
LAYERS = {
    "special": ("dawson", "erf", "erfc", "erfcx"),
    "medium": ("chi_exact_gaussian", "chi_quadrature", "chi_second_order",
               "absorption_coefficient", "inverse_group_velocity",
               "slow_light_velocity", "exact_gaussian_model",
               "second_order_model", "quadrature_model"),
    "propagation": ("auto_grid", "propagate", "transmitted_gaussian",
                    "stretched_duration", "undistorted_solution",
                    "confinement_report"),
    "storage": ("default_schedule", "kappa", "kappa_quadrature",
                "kappa_finite_bandwidth", "bandwidth_reduction_factor",
                "revival_envelope", "revival_validity", "established_signal",
                "restored_field_full", "appendix_series_field",
                "retrieval_grid", "retrieve", "efficiency"),
    "oracle": ("coherence_convolution", "adiabatic_uv", "detuning_grid",
               "time_domain_propagate"),
    "cli": ("main", "run_transmit", "run_store", "run_sweep"),
}

START, END, PARENT = 1, 2, 3  # span fields after the name; the last is the op


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._stack = []

    def wrap(self, name, fn, count=None, post=None):
        """Wrapper recording a span; ``count(counts, bound_args)`` runs
        before the call, ``post(result)`` may replace the result."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            return post(result) if post else result

        return wrapper


def _size(counter_name, arg):
    def count(counts, a):
        counts[counter_name] += int(np.size(a[arg]))
    return count


def _late_samples(counter_name):
    # time samples after the read instant: the ones the route integrates
    def count(counts, a):
        t = np.asarray(a["t"], dtype=float)
        counts[counter_name] += int(np.count_nonzero(t > a["schedule"].t_pi2))
    return count


def _z_steps(counts, a):
    n_steps = a["n_steps"]
    if n_steps is None:
        oracle = sys.modules["holeburn.oracle"]
        n_steps = max(1, math.ceil(float(a["z"]) * a["params"].alpha0
                                   / oracle.MAX_STEP_OPACITY))
    counts["oracle.tdp.z_steps"] += int(n_steps)


def _propagate_samples(counts, a):
    counts["propagation.propagate.samples"] += a["env"].n


def _hooks(tracer):
    """Counters and result wrappers, keyed by span name."""
    special_points = {f"special.{n}": {"count": _size("special.points", "x")}
                      for n in LAYERS["special"]}

    def wrap_model(model):
        # the chi callable: its span is a child of propagate, and it counts
        # the frequencies it is asked for (before the symmetry cache)
        return tracer.wrap("medium.quadrature_model.model", model,
                           count=_size("medium.quadrature_model.freqs_requested",
                                       "omega"))

    return {
        **special_points,
        "medium.chi_exact_gaussian": {
            "count": _size("medium.chi_exact.points", "omega_offset")},
        "medium.quadrature_model": {"post": wrap_model},
        "propagation.propagate": {"count": _propagate_samples},
        "storage.restored_field_full": {
            "count": _late_samples("storage.full.time_samples")},
        "storage.appendix_series_field": {
            "count": _late_samples("storage.series.time_samples")},
        "oracle.time_domain_propagate": {"count": _z_steps},
    }


def install(tracer):
    """Wrap every layer function on every looked-up name; returns the
    patches for ``uninstall``."""
    hooks = _hooks(tracer)
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"holeburn.{layer}")
        for fname in names:
            fn = getattr(module, fname, None)
            if fn is None:
                continue
            name = f"{layer}.{fname}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, **hooks.get(name, {})))
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "holeburn" and not modname.startswith("holeburn."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    return patches


def uninstall(patches):
    for module, attr, value in patches:
        setattr(module, attr, value)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        kids = sorted((spans[c][START], spans[c][END]) for c in children[i])
        for lo, hi in kids:
            lo, hi = max(lo, reach, s[START]), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def busy_time(spans, names):
    """Wall time inside spans named in ``names``, nested ones counted once."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total


# per-layer metric of BENCHMARK.json -> (unit, better).  Layer times go in
# as shares of the traced pass: a layer a workload never calls reads 0 s
# there on every run, and a time that never changes is not a measurement.
# The storage.series.* values go to the table only: series-store, the one
# workload that moves them, is not in BENCHMARK.json.
PER_LAYER = {
    "special.calls": ("count", "lower"),
    "special.points": ("count", "lower"),
    "special.busy_share": ("1", "lower"),
    "medium.chi_exact.points": ("count", "lower"),
    "medium.chi_exact.busy_share": ("1", "lower"),
    "medium.quadrature_model.freqs_requested": ("count", "lower"),
    "medium.chi_quadrature.calls": ("count", "lower"),
    "medium.chi_quadrature.busy_share": ("1", "lower"),
    "medium.quadrature_model.useful_ratio": ("1", "lower"),
    "propagation.propagate.calls": ("count", "lower"),
    "propagation.propagate.samples": ("count", "lower"),
    "propagation.propagate.self_share": ("1", "lower"),
    "storage.retrieve.calls": ("count", "lower"),
    "storage.retrieve.self_share": ("1", "lower"),
    "storage.full.time_samples": ("count", "lower"),
    "storage.full.busy_share": ("1", "lower"),
    "storage.established.busy_share": ("1", "lower"),
    "storage.revival.self_share": ("1", "lower"),
    "storage.kappa_fb.calls": ("count", "lower"),
    "storage.kappa_fb.busy_share": ("1", "lower"),
    "oracle.tdp.calls": ("count", "lower"),
    "oracle.tdp.z_steps": ("count", "lower"),
    "oracle.tdp.busy_share": ("1", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_share": ("1", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


def layer_metrics(spans, counts, pass_s):
    """Per-layer metrics of one traced pass of ``pass_s`` seconds of ops
    (setup and overhead excluded); every ``*_s`` time also as ``*_share``."""
    own = self_times(spans)
    calls = collections.Counter(s[0] for s in spans)

    def self_of(pred):
        return sum(t for s, t in zip(spans, own) if pred(s[0]))

    def busy(*names):
        return busy_time(spans, set(names))

    special = {f"special.{n}" for n in LAYERS["special"]}
    freqs = counts["medium.quadrature_model.freqs_requested"]
    out = {
        "special.calls": sum(calls[n] for n in special),
        "special.points": counts["special.points"],
        "special.busy_s": busy(*special),
        "medium.chi_exact.points": counts["medium.chi_exact.points"],
        "medium.chi_exact.busy_s": busy("medium.chi_exact_gaussian"),
        "medium.quadrature_model.freqs_requested": freqs,
        "medium.chi_quadrature.calls": calls["medium.chi_quadrature"],
        "medium.chi_quadrature.busy_s": busy("medium.chi_quadrature"),
        # integrations per frequency asked for: the symmetry cache's effect
        "medium.quadrature_model.useful_ratio":
            calls["medium.chi_quadrature"] / freqs if freqs else 0.0,
        "propagation.propagate.calls": calls["propagation.propagate"],
        "propagation.propagate.samples": counts["propagation.propagate.samples"],
        "propagation.propagate.self_s":
            self_of(lambda n: n == "propagation.propagate"),
        "storage.retrieve.calls": calls["storage.retrieve"],
        "storage.retrieve.self_s": self_of(lambda n: n == "storage.retrieve"),
        "storage.full.time_samples": counts["storage.full.time_samples"],
        "storage.full.busy_s": busy("storage.restored_field_full"),
        "storage.established.busy_s": busy("storage.established_signal"),
        "storage.revival.self_s": self_of(lambda n: n == "storage.revival_envelope"),
        "storage.kappa_fb.calls": calls["storage.kappa_finite_bandwidth"],
        "storage.kappa_fb.busy_s": busy("storage.kappa_finite_bandwidth"),
        "storage.series.time_samples": counts["storage.series.time_samples"],
        "storage.series.busy_s": busy("storage.appendix_series_field"),
        "oracle.tdp.calls": calls["oracle.time_domain_propagate"],
        "oracle.tdp.z_steps": counts["oracle.tdp.z_steps"],
        "oracle.tdp.busy_s": busy("oracle.time_domain_propagate"),
        "cli.main.calls": calls["cli.main"],
        # main and the cli run_* helpers minus every child span of other
        # layers: argument parsing, scenario loading, CSV/JSON formatting
        "cli.self_s": self_of(lambda n: n.startswith("cli.")),
        "cli.bytes_out": counts["cli.bytes_out"],
    }
    for key in [k for k in out if k.endswith("_s")]:
        out[key[:-2] + "_share"] = out[key] / pass_s
    return out
