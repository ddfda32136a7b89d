"""Benchmark of the shearmodes CLI: whole commands, and layers when traced.

    python3 bench/run.py --workload cli-defaults --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; ``--workload all`` runs every
workload in turn.  Each command of a workload runs in a fresh interpreter
(``python -m shearmodes.cli`` with ``src`` on the path), one after another,
as a user would invoke it; no state carries from one command to the next.
BLAS/OpenMP threads are pinned to 1, and the benchmark and its commands to
one CPU.

--trace 0 times the commands from spawn to exit and reports the end-to-end
metrics.  It makes whole passes over the workload, at least one and more
only while they fit in --seconds, and reports medians over the passes.
The timed metrics are normalised to a reference host speed: while each
process runs, a sampler on the same CPU times a fixed sample of work, and
the wall time is scaled by the sample's reference time over its mean
measured time.  The raw wall times are printed and kept in the results file
too.

--trace 1 makes one plain pass, then one pass through ``tracer.py``,
which wraps each layer's public functions; it reports the
per-layer metrics, the tracing overhead (traced minus untraced wall time),
and checks that both passes wrote byte-identical artifacts.

Every command's artifacts are checked (see checks.py).  No workload has
random input: --seed is recorded and changes nothing.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full results, with provenance, go to
``bench/out/<workload>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5

GAUSSIAN = {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 1.0}}
# growth-scan and the probe solve the pair once each; a coarser root scan
# (the same root, polished by Newton) keeps a run inside the benchmark's time
# budget, and cli-defaults keeps the default scan
COARSE_SCAN = {"eigen": {"scan_n": [11, 8]}}

# workload -> commands as (subcommand, config overrides, expected exit code)
WORKLOADS = {
    # the fixed cost of every session: two pair solves in eigen, one in
    # mode; heat builds no pair, so it is the control for eigen changes.  No
    # stepping and no repeated heat slices: the bypass side for both
    "cli-defaults": [("eigen", {}, 0), ("heat", {}, 0), ("mode", {}, 0)],
    "growth-probe": [
        # heat-kernel bound: the same slice times recur for all four n, plus
        # the one dense expm and four evolve runs.  The field grid is half
        # the default height at the default spacing (the fitted rates come
        # from the 1601-point layer grid, which does not depend on it), again
        # to fit the time budget
        ("growth-scan", dict(
            COARSE_SCAN, grid={"y_max": 15.0, "ny": 301},
            growth={"families": [GAUSSIAN], "transient_ks": [64]}), 0),
        # stepper bound: 12 000 IMEX steps (five times the default count)
        # reading coefficients through slice_interp; exit 4 because the
        # sigma=0.5*rate verdict is FAIL and sigma=2*rate PASS
        ("illposedness-probe",
         dict(COARSE_SCAN, solver={"min_steps": 1200}), 4),
    ],
}

E2E_METRICS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


SAMPLE_PERIOD_S = 0.1
# the sample's time on the reference host that normalised times are scaled to
REF_SAMPLE_S = 1e-3
_SAMPLE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_SAMPLE_ARRAY = np.ones(500_000)  # 4 MB, more than a core's L2 cache


def _sample_work() -> None:
    """Fixed work in the three kinds the commands do: interpreter loops, a
    small LAPACK call and a pass over memory; about 1 ms."""
    s = 0
    for i in range(4_000):
        s += i * i
    np.linalg.eigvals(_SAMPLE_MATRIX)
    _SAMPLE_ARRAY.sum()


class SpeedSampler:
    """Times a fixed sample of work every 0.1 s while a command runs.

    The sampler runs on the command's CPU (the benchmark pins itself and its
    children to one CPU), so it sees the speed that CPU had, stretch by
    stretch, while the command ran.  Each sample takes about 1 ms on a warm
    cache and 1.5-2 ms between a command's own work, so the command loses
    1-2% of the CPU to the sampler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.perf_counter()
        _sample_work()
        self.samples.append(time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._sample()


def sample_mean(samples: list[float]) -> float:
    """Mean of the samples without their highest and lowest tenth.

    A sample that the scheduler splits to let the command run takes several
    times as long; trimming keeps one such sample from moving a short
    command's mean.
    """
    cut = len(samples) // 10
    return statistics.fmean(sorted(samples)[cut:len(samples) - cut])


def spawn(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to exit; wall time from spawn to exit, its rusage,
    and its wall time normalised to the reference host's speed.

    ``norm_s`` is ``wall_s * REF_SAMPLE_S / sample_s``, with
    ``sample_s`` the sample's trimmed mean time while the process ran.
    A process still running at the deadline is killed and reported with
    exit code None.
    """
    done = {}
    with open(log, "wb") as fh, SpeedSampler() as sampler:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            done["t1"] = time.perf_counter()
            done["status"] = status
            done["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        timed_out = True
        try:
            waiter.join(max(0.0, deadline - time.monotonic()))
            timed_out = waiter.is_alive()
        finally:
            if waiter.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(done["status"])
    wall = done["t1"] - t0
    sample = sample_mean(sampler.samples)
    return {"rc": None if timed_out else proc.returncode, "wall_s": wall,
            "sample_s": sample, "samples": sampler.samples,
            "norm_s": wall * REF_SAMPLE_S / sample,
            "maxrss_kb": done["usage"].ru_maxrss}


def measure_setup(out: Path, deadline: float) -> tuple[float, list[dict]]:
    """Set-up time: fresh interpreters importing the CLI and loading config.

    Returns the median of the starts' wall times, normalised by the sample's
    trimmed mean over all the starts (one start is too short for a steady
    mean), and the starts themselves.  Each start prints where the package
    came from, which must be this checkout's ``src``.
    """
    code = ("import shearmodes.cli as c; c.load_config(None); "
            "print(c.__file__)")
    argv = [sys.executable, "-c", code]
    starts = []
    for i in range(SETUP_SAMPLES):
        log = out / f"setup{i}.log"
        res = spawn(argv, log, deadline)
        origin = Path(log.read_text().strip().splitlines()[-1]).resolve()
        if res["rc"] != 0 or ROOT / "src" not in origin.parents:
            raise RuntimeError(f"shearmodes did not load from {ROOT / 'src'}")
        starts.append(res)
    sample = sample_mean([x for res in starts for x in res["samples"]])
    wall = statistics.median(res["wall_s"] for res in starts)
    return wall * REF_SAMPLE_S / sample, [
        {k: res[k] for k in ("wall_s", "sample_s")} for res in starts]


def run_pass(workload: str, out: Path, deadline: float, *,
             traced: bool = False, commands=None) -> list[dict]:
    """One pass over the workload's commands, sequentially."""
    commands = WORKLOADS[workload] if commands is None else commands
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for cmd, overrides, expected in commands:
        cfg = out / f"{cmd}.config.json"
        cfg.write_text(json.dumps(overrides, sort_keys=True))
        args = [cmd, "--config", str(cfg), "--out", str(out)]
        spans = out / f"{cmd}.spans.json"
        argv = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--"]
                if traced else [sys.executable, "-m", "shearmodes.cli"]) + args
        res = spawn(argv, out / f"{cmd}.log", deadline)
        res.update(command=cmd, expected_rc=expected, out=out / cmd)
        if traced and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                res.update(json.load(fh))
        results.append(res)
        if res["rc"] is None:
            break
    return results


def check_pass(workload: str, results: list[dict], ref: dict) -> None:
    """Attach artifact checks, bytes and config hash to each command result."""
    for res in results:
        res["errors"] = checks.check_command(
            workload, res["command"], res["out"], res["rc"],
            res["expected_rc"], ref)
        files = [p for p in res["out"].rglob("*") if p.is_file()]
        res["artifact_bytes"] = sum(p.stat().st_size for p in files)
        try:
            res["config_sha256"] = checks.manifest_sha(res["out"])
        except (OSError, KeyError, ValueError) as exc:
            res["config_sha256"] = None
            res["errors"].append(f"{res['command']}: manifest: {exc}")


def artifact_diff(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two artifact trees."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and (a / f).read_bytes() == (b / f).read_bytes()))


def pass_times(results: list[dict]) -> dict:
    """Per-command wall times of one pass, their sum, and the normalised sum."""
    times = {f"cmd.{r['command']}_s": r["wall_s"] for r in results}
    times["wall_s"] = sum(times.values())
    times["wall_norm_s"] = sum(r["norm_s"] for r in results)
    return times


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "sample_period_s": SAMPLE_PERIOD_S, "ref_sample_s": REF_SAMPLE_S,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: "1" for v in THREAD_VARS},
        "git_commit": git_commit(), "seed": seed,
        "seed_note": "no workload has random input; the seed changes nothing",
    }


def _command_record(res: dict) -> dict:
    keep = ("command", "rc", "expected_rc", "wall_s", "sample_s",
            "norm_s", "maxrss_kb", "artifact_bytes", "config_sha256",
            "errors")
    return {k: res.get(k) for k in keep}


def run_untraced(workload, seconds, out, deadline, ref) -> dict:
    setup_s, setup = measure_setup(out, deadline)
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results = run_pass(workload, out / f"pass{len(passes)}", deadline)
        check_pass(workload, results, ref)
        passes.append(results)
        # another pass only if one more like this still ends within --seconds
        next_end = 2 * time.monotonic() - t0
        if (next_end - start > seconds or next_end > deadline
                or any(r["rc"] is None for r in results)):
            break
    per_pass = [pass_times(p) for p in passes]
    timings = {k: statistics.median(t[k] for t in per_pass)
               for k in per_pass[0]}
    every = [r for p in passes for r in p]
    metrics = {
        "wall_norm_s": timings["wall_norm_s"],
        "setup_s": setup_s,
        "peak_rss_mb": max(r["maxrss_kb"] for r in every) / 1024.0,
    }
    return {"metrics": metrics, "timings": timings, "setup_starts": setup,
            "passes": [[_command_record(r) for r in p] for p in passes],
            "commands": every, "problems": []}


def run_traced(workload, out, deadline, ref, commands=None) -> dict:
    plain = run_pass(workload, out / "untraced", deadline, commands=commands)
    traced = run_pass(workload, out / "traced", deadline, traced=True,
                      commands=commands)
    check_pass(workload, plain + traced, ref)
    problems = [f"traced artifacts differ: {p}"
                for p in artifact_diff(out / "untraced", out / "traced")
                if not p.endswith((".log", ".spans.json"))]
    accounting = {}
    for res in traced:
        if "spans" not in res:
            problems.append(f"{res['command']}: no spans recorded")
            res.update(spans=[], counters={})
        acc = tracer.command_accounting(res["spans"], res["wall_s"])
        accounting[res["command"]] = acc
        if not acc["balanced"]:
            problems.append(f"{res['command']}: span times do not add up: {acc}")
    overhead = pass_times(traced)["wall_s"] - pass_times(plain)["wall_s"]
    metrics = tracer.layer_metrics(traced, overhead)
    return {"metrics": metrics, "accounting": accounting,
            "untraced_s": pass_times(plain), "traced_s": pass_times(traced),
            "passes": [[_command_record(r) for r in p] for p in (plain, traced)],
            "commands": plain + traced, "problems": problems}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """One run of one workload; writes its results file, prints its metrics
    and returns the summary object of the last output line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # the commands and the speed sampler share one CPU (see SpeedSampler)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref = checks.load_reference()
    out = BENCH_DIR / "out" / f"{workload}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if trace:
        run = run_traced(workload, out, deadline, ref)
        units = tracer.LAYER_METRICS
    else:
        run = run_untraced(workload, seconds, out, deadline, ref)
        units = E2E_METRICS
    commands = run.pop("commands")
    failed = sum(1 for r in commands if r["errors"])
    attempted = len(commands)
    correct = failed == 0 and not run["problems"]

    result = {"workload": workload, "trace": trace,
              "provenance": provenance(seed),
              "config_sha256": {r["command"]: r["config_sha256"]
                                for r in commands},
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "errors": [e for r in commands for e in r["errors"]],
              **run}
    path = out / f"BENCH_{workload}-trace{trace}-seed{seed}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str)
                    + "\n")

    for msg in result["errors"] + run["problems"]:
        print(f"FAIL {msg}")
    shown = dict(run.get("timings", {}), **run["metrics"])
    for name, value in shown.items():
        print(f"{name:42s} {value:14.6g} {units.get(name, 's')}")
    print(f"{'fail_frac':42s} {failed / attempted:14.6g} ratio")
    print(f"results: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": run["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shearmodes" / "cli.py").is_file():
        print(f"bench: no shearmodes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return 0
    summaries = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        summaries[workload] = run_workload(workload, args.seed, args.seconds,
                                           args.trace)
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {w: s["metrics"] for w, s in summaries.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
