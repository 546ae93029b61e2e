"""Traced probe of the reference per-call figures.

    python3 perfbench/reference.py

Run from the root of a checkout.  With the benchmark's spans installed it
times ``rhs_fast`` and its parts per call in ``run`` ops (RK4, dt = 2e-3,
the run-rk4-n161 initial condition) at n = 41, 161 and 321, and the
``killing-form`` check inside ``verify --n 15 --all``.  The ops go through
the benchmark's own op loop (``worker.run_op``), so each one is checked
like a benchmark op.  Every figure is the median over three ops that
follow one warm-up op.  Prints a table and, last, one JSON object.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import MEASURED_SPANS, Tracer  # noqa: E402
from worker import ROOT, import_package, run_op  # noqa: E402
from workloads import RUNS  # noqa: E402

STEPS = {41: 50, 161: 25, 321: 10}
RHS_PARTS = {
    "rhs_fast": ("total", "dynamics.rhs_fast"),
    "wrap": ("total", "grid.wrap"),
    "to_weyl (per transform)": ("total", "dynamics.to_weyl"),
    "from_weyl": ("total", "dynamics.from_weyl"),
    "matmuls + gather": ("self", "dynamics.rhs_fast"),
}


def traced_op(cli, tracer, workload, op_seed, work) -> float:
    """Seconds of one checked op, with the tracer holding only that op."""
    tracer.reset()
    elapsed, _, reason = run_op(cli, workload, op_seed, work / f"{workload}-{op_seed}")
    if reason is not None:
        raise RuntimeError(f"{workload} op failed: {reason}")
    return elapsed


def per_call_ms(tracer, table, span, calls_span) -> float:
    table = tracer.total if table == "total" else tracer.self_time
    return 1e3 * table[span] / tracer.calls[calls_span]


def main() -> int:
    package, cli = import_package()
    tracer = Tracer(package)
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = {}
    sizes = {f"rk4-n{n}": n for n in STEPS}
    for name, n in sizes.items():
        RUNS[name] = dict(RUNS["run-rk4-n161"], n=n, steps=STEPS[n], record_every=STEPS[n])
    tracer.install(MEASURED_SPANS)
    try:
        for name, n in sizes.items():
            samples = {part: [] for part in RHS_PARTS}
            for k in range(4):
                traced_op(cli, tracer, name, k, work)
                for part, (table, span) in RHS_PARTS.items():
                    calls = "dynamics.to_weyl" if span == "dynamics.to_weyl" else "dynamics.rhs_fast"
                    if k:  # op 0 is the warm-up
                        samples[part].append(per_call_ms(tracer, table, span, calls))
            results[f"n={n}"] = {part: statistics.median(v) for part, v in samples.items()}

        walls, killing = [], []
        for k in range(4):
            wall = traced_op(cli, tracer, "verify-n15", k, work)
            if k:
                walls.append(wall)
                killing.append(tracer.total["verify.killing-form"])
        results["verify --n 15 --all"] = {
            "op_s": statistics.median(walls),
            "killing_form_s": statistics.median(killing),
        }
    finally:
        tracer.uninstall()
        for name in sizes:
            del RUNS[name]
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for label, parts in results.items():
        unit = "s" if label.startswith("verify") else "ms per rhs call"
        print(f"{label}  ({unit})")
        for part, value in parts.items():
            print(f"  {part:<26} {value:10.4f}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
