"""Self-test of the benchmark: metric names, units and failure counting.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. every workload, untraced and traced, run with one measured op, prints
   exactly the metrics that BENCHMARK.json names, each with its unit,
   and counts no failure;
2. corrupted outputs are counted as failed ops and never timed as a
   success: a NaN in a run's final state, one changed byte in the scan
   CSV, a failed check in the verify report, and a real run that blows up
   to NaN yet exits 0;
3. next to nothing but BENCHMARK.json and the benchmark's own files, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

# Blows up to NaN in a few steps, and the CLI still exits 0 at the seed.
BLOW_UP = {
    "n": 11,
    "scheme": "rk4",
    "dt": 5.0,
    "steps": 50,
    "record_every": 5,
    "initial_condition": {"type": "shell", "amplitude": 50.0},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            print(f"ok  {label}: {len(emitted)} metrics with units", flush=True)
    return problems


def _replace_in(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def nan_state(out: Path) -> None:
    table = out / "final_state.csv"
    first_row = table.read_text(encoding="utf-8").splitlines()[1]
    i1, i2, re, im = first_row.split(",")
    _replace_in(table, first_row, f"{i1},{i2},nan,{im}")


def changed_scan_byte(out: Path) -> None:
    table = out / "jacobi_violations_n5.csv"
    data = bytearray(table.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    table.write_bytes(bytes(data))


def failed_verify_check(out: Path) -> None:
    _replace_in(out / "verify.json", '"passed": true', '"passed": false')


def check_failure_counting(work: Path) -> list[str]:
    _, cli = worker.import_package()
    workloads.RUNS["blow-up"] = BLOW_UP
    cases = [
        ("run-midpoint-n21", nan_state, "NaN in final_state.csv"),
        ("jacobi-scan-n5", changed_scan_byte, "one byte changed in the scan CSV"),
        ("verify-n15", failed_verify_check, "a failed check in verify.json"),
        ("blow-up", None, "a run that blows up to NaN and exits 0"),
    ]
    problems = []
    try:
        for k, (workload, corrupt, what) in enumerate(cases):
            outcome = worker.measure(
                cli, workload, workloads.op_seeds(k), work / f"case{k}", 0.0, corrupt
            )
            if outcome["latencies"] or len(outcome["failures"]) != 1:
                problems.append(f"{what} was not counted as a failure: {outcome}")
            else:
                print(f"ok  {what}: failed with '{outcome['failures'][0]}'", flush=True)
    finally:
        del workloads.RUNS["blow-up"]
    return problems


def check_bare_directory(work: Path) -> list[str]:
    bare = work / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-n15", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, output {proc.stdout[-300:]!r}"]
    print(f"ok  bare directory: exit {proc.returncode} without a result", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        problems = check_metric_names(spec)
        problems += check_failure_counting(work)
        problems += check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
