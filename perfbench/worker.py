"""One benchmark process: import, warm up, run ops closed-loop, report.

Started by ``run.py`` as a fresh interpreter, so that set-up time and peak
RSS belong to one workload.  It imports ``sinebracket`` from the
checkout's ``src/``, runs one untimed warm-up op (which fills the
lru-cached tables), then, with ``--measure``, runs ops one after another
through ``sinebracket.cli.main`` until ``--seconds`` have passed.  Every op
is checked.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from spans import MEASURED_SPANS, SETUP_SPANS, Tracer, snapshot  # noqa: E402
from workloads import WORKLOADS, check_op, make_op, op_seeds  # noqa: E402


def import_package():
    """Import sinebracket from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sinebracket
    from sinebracket import cli

    if not Path(sinebracket.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sinebracket was imported from {sinebracket.__file__}, not {src}")
    return sinebracket, cli


def run_op(cli, workload, op_seed, out, after_op=None):
    """Run one op; return (seconds, monotonic end time, failure or None)."""
    argv = make_op(workload, op_seed, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an op that crashes is a failed op, not a dead run
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    finished = time.monotonic()
    if after_op is not None:
        after_op(out)
    if isinstance(code, str):
        reason = code
    else:
        reason = check_op(workload, code, stdout.getvalue(), out)
        if reason is not None and stderr.getvalue():
            reason += f" ({stderr.getvalue().strip().splitlines()[0]})"
    shutil.rmtree(out)
    return elapsed, finished, reason


def measure(cli, workload, seeds, work, seconds, after_op=None):
    """Closed loop: the next op starts when the previous one has finished.

    At least one op runs, so ``seconds=0`` runs exactly one.
    """
    latencies, failures, busy = [], [], 0.0
    started = time.perf_counter()
    while not (latencies or failures) or time.perf_counter() - started < seconds:
        index = len(latencies) + len(failures)
        elapsed, _, reason = run_op(cli, workload, next(seeds), work / f"op{index}", after_op)
        busy += elapsed
        if reason is None:
            latencies.append(elapsed)
        else:
            failures.append(reason)
    return {"latencies": latencies, "failures": failures, "busy_s": busy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="directory for op outputs")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic()")
    parser.add_argument("--measure", action="store_true", help="run ops after set-up")
    parser.add_argument("--trace", action="store_true", help="record per-module spans")
    args = parser.parse_args(argv)

    package, cli = import_package()
    work = Path(args.work)
    seeds = op_seeds(args.seed)
    tracer = Tracer(package) if args.trace else None
    if tracer:
        tracer.install(SETUP_SPANS)

    _, ready, warmup_failure = run_op(cli, args.workload, next(seeds), work / "warmup")
    result = {
        "setup_s": ready - args.spawned_at,
        "warmup_failure": warmup_failure,
        "latencies": [],
        "failures": [],
        "busy_s": 0.0,
    }
    if tracer:
        result["setup_trace"] = snapshot(tracer)
        result["silent"] = tracer.silent(SETUP_SPANS, args.workload)
        tracer.uninstall()
        tracer.reset()
        tracer.install(MEASURED_SPANS)
    if args.measure:
        result.update(measure(cli, args.workload, seeds, work, args.seconds))
    if tracer:
        tracer.uninstall()
        result["trace"] = snapshot(tracer)
        result["silent"] += tracer.silent(MEASURED_SPANS, args.workload)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
