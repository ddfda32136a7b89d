"""Artifact checks behind the benchmark's failure count.

Each command's artifacts are checked twice:

* against oracle and physical criteria that hold for any correct
  implementation (``oracle_checks``), and
* against the values the seed implementation produced for the same config
  (``extract`` then ``compare_reference``), within the tolerances stored in
  ``reference.json`` next to this file.

The tolerances admit the more exact paths planned in ROADMAP items 2 and 3
(windowed kernel: ~1e-11; closed-form eigenpair: ~1e-13; stepper
coefficients: refining the probe's t-grid from 16 to 61 slices moved the
evolved log-norms by 5e-8, against the 0.1 allowed) and still fail a path
that computes something else.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _json(out: Path, name: str) -> dict:
    with open(out / name, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def manifest_sha(out: Path) -> str:
    """config_sha256 from manifest.json, checked against its own config."""
    man = _json(out, "manifest.json")
    canon = json.dumps(man["config"], sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canon.encode()).hexdigest() != man["config_sha256"]:
        raise ValueError("manifest config_sha256 does not match its config")
    return man["config_sha256"]


def _samples(rows, cols, prefix, count=12) -> dict:
    """Evenly spaced rows of a CSV table, as named scalars."""
    step = max(1, (len(rows) - 1) // (count - 1))
    out = {}
    for i in range(0, len(rows), step):
        for c, name in cols:
            out[f"{prefix}[{i}].{name}"] = rows[i][c]
    return out


# ---------------------------------------------------------------------------
# quantities compared with the seed


def extract(command: str, out: Path) -> dict:
    """Named scalars of one command's artifacts, compared with the seed."""
    if command == "eigen":
        art = _json(out, "eigenpair.json")
        vals = {"tau_re": art["tau_re"], "tau_im": art["tau_im"]}
        vals.update(_samples(_csv_rows(out / "V_profile.csv"),
                             [(1, "re"), (2, "im")], "V"))
        return vals
    if command == "heat":
        rows = _csv_rows(out / "heat_field.csv")
        vals = {"rows": float(len(rows))}
        vals.update(_samples(rows, [(2, "u"), (3, "dy_u"), (4, "d2y_u")],
                             "field", count=24))
        return vals
    if command == "mode":
        rep = _json(out, "mode_report.json")
        vals = {"w_eps_re": rep["w_eps"][0], "w_eps_im": rep["w_eps"][1],
                "residual_sup": rep["residual_sup"],
                "part_jump_V": rep["jump_cancellation"]["part_jump_V"]}
        for a, v in rep["initial_norm_over_eps"].items():
            vals[f"initial_norm_over_eps.{a}"] = v
        vals["rows"] = float(len(_csv_rows(out / "mode_field.csv")))
        return vals
    if command == "growth-scan":
        rep = _json(out, "growth_report.json")
        vals = {}
        for fam in rep["families"]:
            f = fam["profile"]["family"]
            vals[f"{f}.p"] = fam["power_law_exponent"]
            for r in fam["rows"]:
                vals[f"{f}.sigma.k{r['k']}"] = r["sigma"]
            for r in fam["transient_amplification"]:
                vals[f"{f}.transient_amplification.k{r['k']}"] = r["amplification"]
        return vals
    if command == "illposedness-probe":
        rep = _json(out, "probe_report.json")
        vals = {"rate": rep["rate"]}
        for r in rep["rows"]:
            vals[f"log_final_norm.f{r['sigma_factor']}.k{r['k']}"] = r["log_final_norm"]
        return vals
    raise ValueError(f"no checks for command {command!r}")


def compare_reference(command: str, values: dict, seed_values: dict,
                      tolerances: dict) -> list[str]:
    """Differences from the seed beyond tolerance, as messages."""
    errors = []
    if set(values) != set(seed_values):
        errors.append(f"{command}: quantities differ from the seed: "
                      f"{sorted(set(values) ^ set(seed_values))[:5]}")
    for key in sorted(set(values) & set(seed_values)):
        full = f"{command}.{key}"
        tol = next((t for pat, t in tolerances.items()
                    if fnmatch.fnmatchcase(full, pat)), None)
        if tol is None:
            errors.append(f"{full}: no tolerance stated")
            continue
        got, want = values[key], seed_values[key]
        limit = tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(want)
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and abs(got - want) <= limit):
            errors.append(f"{full} = {got!r}, seed {want!r}, allowed {limit:.3g}")
    return errors


# ---------------------------------------------------------------------------
# oracle and physical criteria


def oracle_checks(command: str, out: Path, limits: dict) -> list[str]:
    """Criteria every correct implementation meets, as failure messages."""
    lim = limits[command]
    measured = {}
    if command == "eigen":
        art = _json(out, "eigenpair.json")
        tau = complex(art["tau_re"], art["tau_im"])
        measured = {
            "tau_minus_closed_form": abs(tau + complex(math.cos(math.pi / 4),
                                                       math.sin(math.pi / 4))),
            "matrix_oracle_gap": art["matrix_oracle_gap"],
            "residual_norm": art["residual_norm"],
            "refinement_drift": art["refinement_drift"],
        }
    elif command == "heat":
        rep = _json(out, "heat_report.json")
        measured = {k: rep[k] for k in ("heat_residual_probe",
                                        "max_principle_gap", "far_field_gap",
                                        "wall_max")}
    elif command == "mode":
        jumps = _json(out, "mode_report.json")["jump_cancellation"]
        measured = {f"jump_{k}": abs(jumps[k]) for k in ("V", "dyV", "d2yV")}
    elif command == "growth-scan":
        rep = _json(out, "growth_report.json")
        lo, hi = rep["p_band"]
        measured = {"report_fail": 0.0 if rep["pass"] else 1.0}
        for fam in rep["families"]:
            p = fam["power_law_exponent"]
            measured[f"{fam['profile']['family']}.p_outside_band"] = (
                1.0 if p is None else max(0.0, lo - p, p - hi))
    elif command == "illposedness-probe":
        verdicts = _json(out, "probe_report.json")["verdicts"]
        want = lim["verdicts"]
        got = {k: v["pass"] for k, v in verdicts.items()}
        measured = {"verdicts_differ": 0.0 if got == want else 1.0}
    errors = []
    for key, val in measured.items():
        bound = lim[key]
        if not (math.isfinite(val) and val <= bound):
            errors.append(f"{command}.{key} = {val!r} > {bound!r}")
    return errors


def check_command(workload: str, command: str, out: Path, rc: int,
                  expected_rc: int, ref: dict) -> list[str]:
    """All checks of one command run, as failure messages."""
    if rc != expected_rc:
        return [f"{command}: exit code {rc}, expected {expected_rc}"]
    try:
        errors = oracle_checks(command, out, ref["oracle_limits"])
        values = extract(command, out)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable artifacts: {type(exc).__name__}: {exc}"]
    seed_values = ref["seed_values"].get(workload, {}).get(command)
    if seed_values is None:
        errors.append(f"{command}: no seed values for workload {workload!r}")
    else:
        errors += compare_reference(command, values, seed_values,
                                    ref["tolerances"])
    return errors
