"""Self-tests of the benchmark: metric names, span arithmetic, and that the
tracer reaches every layer it reports.

    python3 -m pytest bench/tests -q

The tracing tests run each workload on a small grid (a few seconds per
command) through the same code path as ``run.py --trace 1``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL = {"grid": {"y_max": 30.0, "ny": 201, "t0": 0.06, "nt": 4},
         "eigen": {"scan_n": [11, 8]}}
SMALL_OVERRIDES = {
    "growth-scan": {"growth": {"n_list": [16, 32], "transient_ks": [16]}},
    "illposedness-probe": {"probe": {"ks": [32, 64]}},
}

# the workload on which each per-layer metric must be non-zero
USED_ON = {
    "cli-defaults": [
        "heat.derivs.calls", "heat.derivs.self_s", "heat.derivs.points",
        "heat.solve_heat.incl_s", "heat.quadrature_gap.incl_s",
        "path.track_critical_point.incl_s",
        "path.track_critical_point.derivs_calls",
        "eigen.find_tau.calls", "eigen.find_tau.incl_s",
        "eigen.shoot_tails.calls", "eigen.shoot_tails.self_s",
        "eigen.matrix_eigenvalues.incl_s",
        "modes.assemble_mode.calls", "modes.assemble_mode.self_s",
        "modes.assemble_mode.incl_s", "modes.residual.calls",
        "modes.residual.self_s", "modes.phase_integral.calls",
        "modes.phase_integral.self_s", "modes.phase_integral.incl_s",
        "norms.weighted_sup.calls", "norms.weighted_sup.self_s",
        "cli.write.calls", "cli.write.self_s", "cli.main.self_s",
        "cli.artifact_bytes", "trace.unaccounted_s",
    ],
    "growth-probe": [
        "heat.derivs.repeat_frac",
        "modes.mode_amplitude_series.calls",
        "modes.mode_amplitude_series.incl_s",
        "evolve.evolve.incl_s",
        "evolve.transient_amplification.calls",
        "evolve.transient_amplification.incl_s",
        "heat.slice_interp.calls", "heat.slice_interp.self_s",
        "evolve.step.calls", "evolve.step.self_s", "evolve.step.p50_us",
        "evolve.step.p99_us", "evolve.operator_growth_probe.incl_s",
    ],
}
# differences of two wall times; either sign is a valid reading
SIGNED = {"trace.overhead_s"}


def merge(base, over):
    out = dict(base)
    for k, v in over.items():
        out[k] = merge(out[k], v) if isinstance(out.get(k), dict) else v
    return out


def small_commands(workload):
    return [(cmd, merge(cfg, merge(SMALL, SMALL_OVERRIDES.get(cmd, {}))), rc)
            for cmd, cfg, rc in run.WORKLOADS[workload]]


@pytest.fixture(scope="module")
def traced_small(tmp_path_factory):
    ref = checks.load_reference()
    out = {}
    for workload in run.WORKLOADS:
        res = run.run_traced(workload, tmp_path_factory.mktemp(workload),
                             time.monotonic() + 600, ref,
                             commands=small_commands(workload))
        out[workload] = res
    return out


def test_spec_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.LAYER_METRICS


def test_every_layer_metric_has_a_workload():
    listed = [m for names in USED_ON.values() for m in names]
    assert sorted(listed + sorted(SIGNED)) == sorted(tracer.LAYER_METRICS)


def test_self_time_clips_and_merges_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["f", 5.5, 7.0, 0],      # overlaps the second b
        ["d", 9.5, 11.0, 0],     # runs past its parent's end
        ["e", 12.0, 13.0, -1],
    ]
    times = tracer.span_times(spans)
    assert [round(i, 12) for i, _ in times] == [10.0, 3.0, 1.0, 1.0, 1.5, 1.5, 1.0]
    # a is covered by [1,4] + [5,7] + [9.5,10]
    assert [round(s, 12) for _, s in times] == [4.5, 2.0, 1.0, 1.0, 1.5, 1.5, 1.0]


def test_accounting_adds_up_to_wall_time():
    spans = [["cli.main", 1.0, 9.0, -1], ["heat.derivs", 2.0, 5.0, 0],
             ["cli.write", 6.0, 7.0, 0], ["heat.derivs", 3.0, 4.0, 1]]
    acc = tracer.command_accounting(spans, wall_s=10.0)
    assert acc["balanced"]
    assert acc["spans_self_s"] == pytest.approx(8.0)
    assert acc["unaccounted_s"] == pytest.approx(2.0)
    assert not tracer.command_accounting(spans, wall_s=7.0)["balanced"]


def test_layer_metrics_on_synthetic_spans():
    spans = [["path.track_critical_point", 0.0, 4.0, -1],
             ["heat.derivs", 1.0, 2.0, 0],
             ["heat.derivs", 5.0, 6.0, -1],
             ["evolve.step", 7.0, 7.5, -1]]
    cmd = {"spans": spans, "wall_s": 8.0, "artifact_bytes": 3,
           "counters": {"heat.derivs.points": 10, "heat.derivs.repeats": 1}}
    m = tracer.layer_metrics([cmd, cmd], overhead_s=0.25)
    assert m["heat.derivs.calls"] == 4
    assert m["heat.derivs.self_s"] == pytest.approx(4.0)
    assert m["heat.derivs.repeat_frac"] == pytest.approx(0.5)
    assert m["path.track_critical_point.derivs_calls"] == 2
    assert m["path.track_critical_point.incl_s"] == pytest.approx(8.0)
    assert m["evolve.step.p50_us"] == pytest.approx(5e5)
    assert m["cli.artifact_bytes"] == 6
    assert m["trace.unaccounted_s"] == pytest.approx(2 * 2.5)
    assert m["eigen.find_tau.calls"] == 0


def test_install_leaves_no_unwrapped_binding():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.install(tracer.Recorder()); "
            "print(repr(tracer.unwrapped_bindings()))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          env=run.child_env(), capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_spawn_normalises_by_the_sampled_speed(tmp_path):
    res = run.spawn([sys.executable, "-c", "pass"], tmp_path / "log",
                    time.monotonic() + 60)
    assert res["rc"] == 0 and res["sample_s"] > 0
    assert res["norm_s"] == pytest.approx(
        res["wall_s"] * run.REF_SAMPLE_S / res["sample_s"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_is_faithful(traced_small, workload):
    res = traced_small[workload]
    assert res["problems"] == []
    for passes in res["passes"]:
        assert all(r["rc"] in (0, 4) for r in passes), passes
    for acc in res["accounting"].values():
        assert acc["balanced"] and acc["unaccounted_s"] > 0


@pytest.mark.parametrize("workload", list(USED_ON))
def test_layer_metrics_nonzero_where_used(traced_small, workload):
    metrics = traced_small[workload]["metrics"]
    assert set(metrics) == set(tracer.LAYER_METRICS)
    zero = [m for m in USED_ON[workload] if not metrics[m] > 0]
    assert zero == []


def test_find_tau_once_per_pair_build(traced_small):
    # eigen solves the pair and its refinement; mode, growth-scan and
    # illposedness-probe solve it once each
    assert traced_small["cli-defaults"]["metrics"]["eigen.find_tau.calls"] == 3
    assert traced_small["growth-probe"]["metrics"]["eigen.find_tau.calls"] == 2
