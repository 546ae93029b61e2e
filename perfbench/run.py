"""sinebracket benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload run-rk4-n161 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each worker is a fresh interpreter
(``worker.py``) that drives ``sinebracket.cli.main`` in-process with one
closed-loop client.  With ``--trace 0`` one worker measures for
``--seconds`` and more workers only set up, so that ``setup_s`` is a
median over fresh processes.  With ``--trace 1`` one untraced and one
traced worker each measure for half of ``--seconds``; the traced one
reports the per-module split and their difference is the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, steps_per_op  # noqa: E402

# A worker gets its run length plus this long to import, warm up and finish
# the op in flight before it is counted as hung.
WORKER_SLACK_S = 150
# One BLAS thread: with two threads on the two shared CPUs, rk4 op times
# had a tail 7-17 % above the median (2-7 % with one thread), because a
# matmul waits for whichever half a neighbour slowed.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
SETUPS = 3  # fresh processes whose median start-to-ready time is setup_s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(args, work: Path, measure: bool, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--work", str(work),
    ]
    if measure:
        cmd.append("--measure")
    if trace:
        cmd.append("--trace")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, env=WORKER_ENV,
        timeout=seconds + WORKER_SLACK_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("silent"):
        raise BenchError(f"spans that never fired on {args.workload}: {result['silent']}")
    if measure and not result["latencies"]:
        raise BenchError(f"no op succeeded: {result['failures'][:3]}")
    return result


def tail(latencies: list[float]) -> float:
    """The 90th percentile, interpolated between the two nearest ops.

    A run of --seconds 20 holds 5-55 ops, too few for a high percentile
    with ten samples beyond it on any workload but one, and there the
    percentile that rule picks would move with the sample count.  A fixed
    percentile means the same on every run; p90 is steadier than the
    maximum, which one stalled op decides.
    """
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def ops_per_s(result: dict) -> float:
    return len(result["latencies"]) / result["busy_s"]


def end_to_end(args, results: list[dict]) -> tuple[dict, dict]:
    main = results[0]
    lat = main["latencies"]
    rate = ops_per_s(main)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (tail(lat), "s"),
        "steps_per_s": (rate * steps_per_op(args.workload), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }, {"tail": "p90, interpolated", "samples": len(lat)}


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    plain, traced = results
    ops = len(traced["latencies"]) + len(traced["failures"])
    metrics = layer_metrics(traced["setup_trace"], traced["trace"], ops)
    untraced_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["trace.ops_per_s.untraced"] = (untraced_rate, "1/s", "measured")
    metrics["trace.ops_per_s.traced"] = (traced_rate, "1/s", "measured")
    metrics["trace.overhead"] = (1.0 - traced_rate / untraced_rate, "ratio", "measured")
    return metrics, {"traced_ops": ops}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = ROOT / "src" / "sinebracket"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": WORKER_ENV["OPENBLAS_NUM_THREADS"],
        "source_lines": sum(len(p.read_text().splitlines()) for p in source.glob("*.py")),
        "machine_tracing": "none; in-process perf_counter spans only",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sinebracket" / "__init__.py").is_file():
        print(f"error: no sinebracket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2
            results = [
                run_worker(args, work / "plain", True, half, False),
                run_worker(args, work / "traced", True, half, True),
            ]
            metrics, detail = per_layer(results)
        else:
            results = [run_worker(args, work / "main", True, args.seconds, False)]
            for k in range(1, SETUPS):
                results.append(run_worker(args, work / f"setup{k}", False, 0.0, False))
            metrics, detail = end_to_end(args, results)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failures = [r["warmup_failure"] for r in results if r["warmup_failure"]]
    failures += [f for r in results for f in r["failures"]]
    attempted = sum(1 + len(r["latencies"]) + len(r["failures"]) for r in results)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=len(failures) / attempted,
        failures=failures[:5],
        environment=environment(),
    )
    print(f"{'metric':<38} {'value':>16}  {'unit':<9} how")
    for name, (value, unit, *how) in metrics.items():
        print(f"{name:<38} {value:>16.6g}  {unit:<9} {how[0] if how else 'measured'}")
    print(f"{'error_rate':<38} {detail['error_rate']:>16.6g}  {'ratio':<9} "
          f"{len(failures)} failed of {attempted} ops")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
