"""The four benchmark workloads: how each op is built and how it is checked.

An op is one ``sinebracket`` CLI invocation.  Its inputs follow from the
workload seed alone; the program sees only the generated config and
arguments.  Every op writes into a directory of its own, and
:func:`check_op` returns ``None`` for a correct op or the reason it failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# sha256 and size of jacobi_violations_n5.csv at the benchmark's seed commit.
SCAN_SHA256 = "771c4ae77985be9b7d861b85be36cfb00e69b8c07948a3fde24ff600804396f0"
SCAN_BYTES = 11_035_245
SCAN_COUNTS = "211200 violating tuples (52800 after symmetry reduction)"
VERIFY_CHECKS_PASSED = "9/9 checks passed"

RUNS = {
    "run-rk4-n161": {
        "n": 161,
        "scheme": "rk4",
        "dt": 2e-3,
        "steps": 200,
        "record_every": 50,
        "initial_condition": {
            "type": "shell", "shell_min": 1.0, "shell_max": 16.0, "amplitude": 6.0,
        },
    },
    "run-midpoint-n21": {
        "n": 21,
        "scheme": "implicit_midpoint",
        "dt": 1e-3,
        "steps": 1000,
        "record_every": 1,
        "initial_condition": {
            "type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 6.0,
        },
    },
}
# Largest relative drift of H or E accepted at any record.  Over 30 seeds
# at the seed commit RK4 drifted 1.2e-7 to 9.4e-6 (its truncation error
# at dt = 2e-3) and the midpoint rule 1.8e-14 to 3.9e-13.
DRIFT_BOUND = {"rk4": 1e-4, "implicit_midpoint": 1e-10}

WORKLOADS = (*RUNS, "jacobi-scan-n5", "verify-n15")


def op_seeds(seed: int):
    """Endless stream of per-op seeds drawn from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def steps_per_op(workload: str) -> int:
    """Integration steps of one op; an op that does not integrate is one step."""
    return RUNS[workload]["steps"] if workload in RUNS else 1


def make_op(workload: str, op_seed: int, out: Path) -> list[str]:
    """Write the op's inputs under ``out`` and return its CLI arguments."""
    out.mkdir(parents=True)
    if workload in RUNS:
        config = dict(RUNS[workload], seed=op_seed, out_dir=str(out))
        path = out / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["run", "--config", str(path)]
    if workload == "jacobi-scan-n5":
        return ["jacobi-scan", "--n", "5", "--out", str(out)]
    if workload == "verify-n15":
        return ["verify", "--n", "15", "--all", "--seed", str(op_seed),
                "--out", str(out / "verify.json")]
    raise ValueError(f"unknown workload {workload!r}")


def _read_rows(path: Path, header: tuple) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path.name}: unexpected header")
    return rows[1:]


def _check_run(workload: str, out: Path) -> str | None:
    spec = RUNS[workload]
    n, steps, every = spec["n"], spec["steps"], spec["record_every"]
    for name in ("initial_state.csv", "final_state.csv"):
        rows = _read_rows(out / name, ("i1", "i2", "re", "im"))
        if len(rows) != n * n - 1:
            return f"{name}: {len(rows)} rows, expected {n * n - 1}"
        if not all(math.isfinite(float(x)) for row in rows for x in row[2:]):
            return f"{name}: non-finite coefficient"
    rows = _read_rows(out / "diagnostics.csv", ("time", "H", "E", "drift_H", "drift_E"))
    expected = 1 + steps // every + (steps % every != 0)
    if len(rows) != expected:
        return f"diagnostics.csv: {len(rows)} records, expected {expected}"
    values = [float(x) for row in rows for x in row]
    if not all(math.isfinite(x) for x in values):
        return "diagnostics.csv: non-finite value"
    drift = max(max(float(row[3]), float(row[4])) for row in rows)
    if not drift <= DRIFT_BOUND[spec["scheme"]]:
        return f"drift {drift:.3e} exceeds {DRIFT_BOUND[spec['scheme']]:.0e}"
    return None


def _check_scan(stdout: str, out: Path) -> str | None:
    if SCAN_COUNTS not in stdout:
        return "scan counts differ from 211200 / 52800"
    if "known counterexample tuple: present" not in stdout:
        return "known counterexample tuple missing"
    table = out / "jacobi_violations_n5.csv"
    data = table.read_bytes()
    if len(data) != SCAN_BYTES or hashlib.sha256(data).hexdigest() != SCAN_SHA256:
        return "violation CSV differs from the reference sha256"
    return None


def _check_verify(stdout: str, out: Path) -> str | None:
    if VERIFY_CHECKS_PASSED not in stdout:
        return "not every verify check passed"
    reports = json.loads((out / "verify.json").read_text(encoding="utf-8"))["reports"]
    if len(reports) != 9 or not all(r["passed"] for r in reports):
        return "verify report does not hold nine passing checks"
    return None


def check_op(workload: str, exit_code: int, stdout: str, out: Path) -> str | None:
    """None when the op's exit code and outputs are right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if workload in RUNS:
            return _check_run(workload, out)
        if workload == "jacobi-scan-n5":
            return _check_scan(stdout, out)
        return _check_verify(stdout, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"
