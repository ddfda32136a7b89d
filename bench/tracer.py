"""In-process span tracing of the shearmodes layers, installed from outside.

Run as a script it stands in for ``python -m shearmodes.cli``:

    python bench/tracer.py SPANS.json -- eigen --config c.json --out out

It imports the package, wraps the public functions of each layer, runs the
CLI and writes the recorded spans to SPANS.json when the command ends.  A
span is ``[name, start, end, parent]`` with times from ``time.perf_counter``
and ``parent`` the index of the enclosing span (-1 at top level).

The package binds many of these functions by from-import (``cli`` and
``modes`` hold their own references to ``find_tau``, ``solve_heat``,
``assemble_mode`` and others), so wrapping rebinds every module attribute
that refers to the original, not just the defining one.  ``shearmodes.evolve``
on the package is the re-exported function, so modules are looked up in
``sys.modules``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("heat.derivs", "shearmodes.heat", "HeatFlow.derivs"),
    ("heat.quadrature_gap", "shearmodes.heat", "HeatFlow.quadrature_gap"),
    ("heat.slice_interp", "shearmodes.heat", "HeatFlowField.slice_interp"),
    ("heat.solve_heat", "shearmodes.heat", "solve_heat"),
    ("path.track_critical_point", "shearmodes.path", "track_critical_point"),
    ("eigen.find_tau", "shearmodes.eigen", "find_tau"),
    ("eigen.shoot_tails", "shearmodes.eigen", "shoot_tails"),
    ("eigen.matrix_eigenvalues", "shearmodes.eigen", "matrix_eigenvalues"),
    ("modes.assemble_mode", "shearmodes.modes", "assemble_mode"),
    ("modes.residual", "shearmodes.modes", "residual"),
    ("modes.phase_integral", "shearmodes.modes", "phase_integral"),
    ("modes.mode_amplitude_series", "shearmodes.modes", "mode_amplitude_series"),
    ("evolve.step", "shearmodes.evolve", "step"),
    ("evolve.evolve", "shearmodes.evolve", "evolve"),
    ("evolve.operator_growth_probe", "shearmodes.evolve", "operator_growth_probe"),
    ("evolve.transient_amplification", "shearmodes.evolve",
     "transient_amplification"),
    ("norms.weighted_sup", "shearmodes.norms", "weighted_sup"),
    ("cli.write", "shearmodes.cli", "write_json"),
    ("cli.write", "shearmodes.cli", "write_text"),
    ("cli.main", "shearmodes.cli", "main"),
)

# per-layer metrics: name -> unit ("calls"/"self_s"/"incl_s" of a span name,
# or a derived quantity computed in layer_metrics)
LAYER_METRICS = {
    "heat.derivs.calls": "count",
    "heat.derivs.self_s": "s",
    "heat.derivs.points": "count",
    "heat.derivs.repeat_frac": "ratio",
    "heat.solve_heat.incl_s": "s",
    "heat.quadrature_gap.incl_s": "s",
    "heat.slice_interp.calls": "count",
    "heat.slice_interp.self_s": "s",
    "path.track_critical_point.incl_s": "s",
    "path.track_critical_point.derivs_calls": "count",
    "eigen.find_tau.calls": "count",
    "eigen.find_tau.incl_s": "s",
    "eigen.shoot_tails.calls": "count",
    "eigen.shoot_tails.self_s": "s",
    "eigen.matrix_eigenvalues.incl_s": "s",
    "modes.assemble_mode.calls": "count",
    "modes.assemble_mode.self_s": "s",
    "modes.assemble_mode.incl_s": "s",
    "modes.residual.calls": "count",
    "modes.residual.self_s": "s",
    "modes.phase_integral.calls": "count",
    "modes.phase_integral.self_s": "s",
    "modes.phase_integral.incl_s": "s",
    "modes.mode_amplitude_series.calls": "count",
    "modes.mode_amplitude_series.incl_s": "s",
    "evolve.step.calls": "count",
    "evolve.step.self_s": "s",
    "evolve.step.p50_us": "us",
    "evolve.step.p99_us": "us",
    "evolve.evolve.incl_s": "s",
    "evolve.operator_growth_probe.incl_s": "s",
    "evolve.transient_amplification.calls": "count",
    "evolve.transient_amplification.incl_s": "s",
    "norms.weighted_sup.calls": "count",
    "norms.weighted_sup.self_s": "s",
    "cli.write.calls": "count",
    "cli.write.self_s": "s",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class Recorder:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen_slices: set = set()

    def wrap(self, name, fn, on_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def count_slice(self, flow, t, y, orders=(0, 1, 2, 3, 4)):
        """Counters for one HeatFlow.derivs call: points and repeated slices."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        self.counters["heat.derivs.points"] += int(y.size)
        key = (id(flow.profile), flow.panel_factor, flow.panel_cap,
               flow.nodes_per_panel, flow.kernel_halfwidth,
               float(t), y.tobytes(), tuple(orders))
        if key in self._seen_slices:
            self.counters["heat.derivs.repeats"] += 1
        else:
            self._seen_slices.add(key)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "shearmodes"
                                  or name.startswith("shearmodes."))]


def install(rec: Recorder) -> None:
    """Wrap every target and rebind every module attribute that refers to it.

    A target that is missing raises, so a renamed function cannot silently
    read as zero.
    """
    importlib.import_module("shearmodes.cli")
    modules = _package_modules()
    for name, modname, attr in TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            hook = rec.count_slice if name == "heat.derivs" else None
            setattr(cls, meth, rec.wrap(name, orig, hook))
            continue
        orig = getattr(mod, attr)
        wrapped = rec.wrap(name, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def unwrapped_bindings() -> list[str]:
    """Module attributes of the package that still hold an original target."""
    originals = {}
    missed = []
    for _, modname, attr in TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            if not hasattr(getattr(mod, cls_name).__dict__[meth],
                           "__wrapped__"):
                missed.append(f"{modname}.{attr}")
            continue
        fn = getattr(mod, attr)
        orig = getattr(fn, "__wrapped__", fn)
        originals[id(orig)] = orig
    missed += [f"{m.__name__}.{key}" for m in _package_modules()
               for key, val in vars(m).items()
               if originals.get(id(val)) is val]
    return missed


# ---------------------------------------------------------------------------
# span arithmetic


def span_times(spans) -> list[tuple[float, float]]:
    """(inclusive, self) seconds per span.

    Self time is the span's duration minus the part of its interval that its
    child spans cover (children are clipped to the parent and merged).
    """
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start, end - start - covered))
    return out


def command_accounting(spans, wall_s: float) -> dict:
    """A command's summed span self times (equal to its top-level inclusive
    times), the remainder outside every span, and the check that the two add
    up to the command's wall time."""
    times = span_times(spans)
    top = sum(inc for sp, (inc, _) in zip(spans, times) if sp[3] < 0)
    self_sum = sum(s for _, s in times)
    return {"wall_s": wall_s, "spans_self_s": self_sum,
            "unaccounted_s": wall_s - self_sum,
            "top_level_incl_s": top,
            "balanced": abs(self_sum - top) <= 1e-9 * max(1, len(spans))
                        and wall_s - self_sum >= 0.0}


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(commands, overhead_s: float) -> dict:
    """Per-layer metrics summed over a workload's traced commands.

    ``commands`` holds one dict per command with ``spans``, ``counters``,
    ``wall_s`` and ``artifact_bytes``.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_ = defaultdict(float)
    step_us = []
    track_derivs = 0
    counters = defaultdict(int)
    unaccounted = 0.0
    artifact_bytes = 0
    for cmd in commands:
        spans = cmd["spans"]
        for i, (sp, (inc, slf)) in enumerate(zip(spans, span_times(spans))):
            name = sp[0]
            calls[name] += 1
            incl[name] += inc
            self_[name] += slf
            if name == "evolve.step":
                step_us.append(inc * 1e6)
            elif name == "heat.derivs" and _has_ancestor(
                    spans, i, "path.track_critical_point"):
                track_derivs += 1
        for key, val in cmd["counters"].items():
            counters[key] += val
        unaccounted += command_accounting(spans, cmd["wall_s"])["unaccounted_s"]
        artifact_bytes += cmd["artifact_bytes"]

    derived = {
        "heat.derivs.points": counters["heat.derivs.points"],
        "heat.derivs.repeat_frac": (counters["heat.derivs.repeats"]
                                    / calls["heat.derivs"]
                                    if calls["heat.derivs"] else 0.0),
        "path.track_critical_point.derivs_calls": track_derivs,
        "evolve.step.p50_us": float(np.percentile(step_us, 50)) if step_us else 0.0,
        "evolve.step.p99_us": float(np.percentile(step_us, 99)) if step_us else 0.0,
        "cli.artifact_bytes": artifact_bytes,
        "trace.overhead_s": overhead_s,
        "trace.unaccounted_s": unaccounted,
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        span, kind = metric.rsplit(".", 1)
        out[metric] = {"calls": calls, "self_s": self_,
                       "incl_s": incl}[kind][span]
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <shearmodes cli arguments>",
              file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    cli = sys.modules["shearmodes.cli"]
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
