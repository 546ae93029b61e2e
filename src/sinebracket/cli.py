"""Command-line interface: simulation runs, identity checks, studies.

Subcommands
-----------
run          integrate a configured initial condition, write state CSVs,
             diagnostics, and a summary JSON
verify       run the identity suite and/or the counterexample evaluation
converge     fit the truncation error's decay exponent; write a CSV and a summary JSON
jacobi-scan  exhaustively scan for generalized-Jacobi violations, write them
             and a summary JSON with the seconds per stage and peak RSS

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 runtime failure.  ``run`` accepts a negative ``dt`` (a reversed run) and
exits 3 without writing outputs when the state becomes non-finite.  Every
output file gains a ``.meta.json`` sidecar recording version,
configuration hash, and seed.  Outputs are byte-identical across reruns of
the same configuration and seed on one numpy/BLAS build with one BLAS thread
setting; ``run`` records all three in ``summary.json``.  The thread count
alone can move a result: an implicit-midpoint run at n = 641 that stops
unconverged reports a last update of 1.553e-10 with OPENBLAS_NUM_THREADS
unset and 8.738e-11 with it set to 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import (
    IntegratorConfig,
    RhsCounts,
    integrate,
    random_shell_field,
)
from .errors import ConsistencyError, StepConvergenceError, ValidationError
from .grid import ModeField, build_grid, from_physical
from .serialization import (
    load_physical_field,
    load_wave_vector_pairs,
    save_convergence_table,
    save_diagnostics,
    save_mode_field,
    save_violations,
    write_json,
    write_metadata,
)
from .verify import (
    COUNTEREXAMPLE_MIN_N,
    check_request,
    format_reports,
    run_convergence_study,
    run_counterexample,
    run_identity_suite,
    run_jacobi_scan,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

DEFAULT_CONVERGENCE_PAIRS = (
    ((1, 0), (0, 1)),
    ((1, 1), (-1, 2)),
    ((1, 2), (2, 1)),
    ((2, 1), (-1, 1)),
)

# The keys each initial-condition type reads; any other key is refused.
_INITIAL_CONDITION_KEYS = {
    "shell": {"type", "shell_min", "shell_max", "amplitude"},
    "modes": {"type", "modes"},
    "physical_csv": {"type", "path"},
}


def _integer(value, what: str) -> int:
    """``value`` as an int; bools, fractions and non-numbers are refused."""
    fraction = isinstance(value, float) and not value.is_integer()
    try:
        if not isinstance(value, bool) and not fraction:
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """``value`` as a float; bools and non-numbers are refused."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB: ``VmHWM`` where /proc/self/status
    has it, else ``ru_maxrss``.  Linux carries the launching process's peak into the
    ``ru_maxrss`` of a command it starts, so from a larger parent that would be read."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _numerical_environment() -> dict:
    """The numpy and BLAS builds and the BLAS thread setting that a run's digits depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _string(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"{what} must be a string, got {value!r}")


def _refuse_unknown_keys(mapping: dict, known, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ValidationError(f"the {where} settings must be a JSON object, got {mapping!r}")
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValidationError(
            f"unknown {where} key {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(known))}"
        )


@dataclass(frozen=True)
class RunConfig:
    """Parsed simulation configuration with defaults filled in.

    Values are checked where they are used: ``n`` by the truncation grid,
    the scheme and step parameters by :class:`IntegratorConfig`, the
    initial condition and its keys when it is built.  A key that is not a
    field name is refused here.
    """

    n: int
    scheme: str
    dt: float
    steps: int
    record_every: int
    seed: int
    initial_condition: dict
    out_dir: str

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        try:
            _refuse_unknown_keys(raw, {f.name for f in fields(cls)}, "top-level")
            steps = _integer(raw["steps"], "steps")
            return cls(
                n=_integer(raw["n"], "n"),
                scheme=_string(raw.get("scheme", "rk4"), "scheme"),
                dt=_real(raw["dt"], "dt"),
                steps=steps,
                record_every=_integer(raw.get("record_every", max(1, steps // 10)), "record_every"),
                seed=_integer(raw.get("seed", 0), "seed"),
                initial_condition=dict(raw.get("initial_condition", {"type": "shell"})),
                out_dir=_string(raw.get("out_dir", "."), "out_dir"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad run configuration: {exc}") from exc

    def as_dict(self) -> dict:
        return asdict(self)


def _build_initial_condition(config: RunConfig) -> ModeField:
    grid = build_grid(config.n)
    spec = config.initial_condition
    kind = spec.get("type", "shell")
    if kind not in _INITIAL_CONDITION_KEYS:
        raise ValidationError(f"unknown initial-condition type {kind!r}")
    _refuse_unknown_keys(spec, _INITIAL_CONDITION_KEYS[kind], f"{kind} initial-condition")
    if kind == "shell":
        field = random_shell_field(
            grid,
            seed=config.seed,
            shell_min=_real(spec.get("shell_min", 1.0), "shell_min"),
            shell_max=_real(spec.get("shell_max", 4.0), "shell_max"),
            amplitude=_real(spec.get("amplitude", 1.0), "amplitude"),
        )
    elif kind == "modes":
        modes = {}
        for i1, i2, re, im in spec.get("modes", ()):
            index = (_integer(i1, "mode index"), _integer(i2, "mode index"))
            if index in modes:
                raise ValidationError(f"mode {index} is given twice")
            modes[index] = complex(_real(re, "mode value"), _real(im, "mode value"))
        if not modes:
            raise ValidationError("mode-list initial condition is empty")
        for (i1, i2), value in modes.items():
            mirror = modes.get((-i1, -i2))
            if mirror is not None and mirror != value.conjugate():
                raise ValidationError(
                    f"modes {(i1, i2)} and {(-i1, -i2)} must be complex conjugates, "
                    f"got {value!r} and {mirror!r}"
                )
        field = ModeField.from_modes(grid, modes)
    else:  # physical_csv
        path = spec.get("path")
        if not path:
            raise ValidationError("physical_csv initial condition needs a path")
        field = from_physical(load_physical_field(_string(path, "path")), grid)
    if not np.isfinite(field.coeffs).all():
        raise ValidationError(f"{kind} initial condition has non-finite coefficients")
    return field


def cmd_run(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if args.dt is not None:
            raw["dt"] = args.dt
        if args.steps is not None:
            raw["steps"] = args.steps
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["out_dir"] = args.out
        config = RunConfig.from_mapping(raw)
        field = _build_initial_condition(config)
        integrator = IntegratorConfig(
            scheme=config.scheme,
            dt=config.dt,
            steps=config.steps,
            record_every=config.record_every,
        )
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        counts = RhsCounts()
        started = time.perf_counter()
        final, records = integrate(field, integrator, counts=counts)
        wall = time.perf_counter() - started
    except (StepConvergenceError, ConsistencyError, ValidationError) as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = config.as_dict()
    seed = config.seed
    paths = {
        "initial_state": out / "initial_state.csv",
        "final_state": out / "final_state.csv",
        "diagnostics": out / "diagnostics.csv",
        "summary": out / "summary.json",
    }
    save_mode_field(paths["initial_state"], field)
    save_mode_field(paths["final_state"], final)
    save_diagnostics(paths["diagnostics"], records)
    last = records[-1]
    summary = {
        "n": config.n,
        "scheme": config.scheme,
        "dt": config.dt,
        "steps": config.steps,
        "seed": seed,
        "final_time": last.time,
        "energy_initial": records[0].energy,
        "enstrophy_initial": records[0].enstrophy,
        "energy_final": last.energy,
        "enstrophy_final": last.enstrophy,
        "drift_energy": last.drift_energy,
        "drift_enstrophy": last.drift_enstrophy,
        "rhs_calls": counts.calls,
        "rhs_calls_per_step": counts.per_step,
        "rhs_calls_max_step": counts.max_per_step,
        "smoothed_guess_steps": counts.smoothed_guess_steps,
        "runtime_s": wall,
        "steps_per_s": config.steps / wall if config.steps else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "environment": _numerical_environment(),
    }
    write_json(paths["summary"], summary)
    for p in paths.values():
        write_metadata(p, meta, seed)
    print(
        f"wrote {out}/: drift_H={last.drift_energy:.3e} "
        f"drift_E={last.drift_enstrophy:.3e} ({wall:.2f}s)"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:  # refuse a bad request before the report's directory is made
        check_request(args.n, args.seed, args.suite, args.counterexample)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    reports = []
    if args.counterexample:
        reports.append(run_counterexample(args.n))
    elif args.suite:
        reports.extend(run_identity_suite(args.n, seed=args.seed, only=args.suite))
    else:  # --all and the default
        reports.extend(run_identity_suite(args.n, seed=args.seed))
        if args.n >= COUNTEREXAMPLE_MIN_N:
            reports.append(run_counterexample(args.n))

    print(format_reports(reports))
    for r in reports:
        if r.name == "jacobi-counterexample":
            for variant in ("zeitlin", "continuum"):
                summands = r.params[f"{variant}_summands"]
                print(f"{variant} summands: {summands[0]!r}, {summands[1]!r}, {summands[2]!r}")
    payload = {"n": args.n, "seed": args.seed, "reports": [r.to_dict() for r in reports]}
    payload.update(runtime_s=time.perf_counter() - started, peak_rss_mb=_peak_rss_mb())
    write_json(args.out, payload)
    meta = {
        "command": "verify",
        "n": args.n,
        "seed": args.seed,
        "suite": args.suite,  # which checks ran: one, the counterexample, or all
        "counterexample": args.counterexample,
    }
    write_metadata(args.out, meta, args.seed)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_converge(args: argparse.Namespace) -> int:
    try:
        if args.pairs is not None:
            pairs = load_wave_vector_pairs(args.pairs)
        else:
            pairs = list(DEFAULT_CONVERGENCE_PAIRS)
        n_list = tuple(int(x) for x in args.n_list.split(","))
        report = run_convergence_study(pairs, n_list=n_list)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "convergence.csv"
    save_convergence_table(table, report)
    sizes = report.params["n_list"]
    meta = {"command": "converge", "pairs": [list(map(list, p)) for p in pairs], "n_list": list(sizes)}
    summary = {
        "n_list": sizes,
        # null for a collinear pair, and for a non-finite fit, which fails the study
        "exponents": [
            None if e is None or not math.isfinite(e) else e
            for e in (row["exponent"] for row in report.params["pairs"])
        ],
        "passed": report.passed,
        "runtime_s": report.runtime_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    summary_path = out / "convergence_summary.json"
    write_json(summary_path, summary)
    for path in (table, summary_path):
        write_metadata(path, meta, report.params["seed"])
    for row in report.params["pairs"]:
        exp = row["exponent"]
        label = "collinear, exact" if exp is None else f"exponent {exp:.4f}"
        print(f"pair {tuple(map(tuple, row['pair']))}: {label}")
    print(f"study {'passed' if report.passed else 'FAILED'}; wrote {table} and {summary_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_jacobi_scan(args: argparse.Namespace) -> int:
    try:
        report, violations = run_jacobi_scan(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = out / f"jacobi_violations_n{args.n}.csv"
    started = time.perf_counter()
    save_violations(table, violations)
    written = time.perf_counter() - started
    p = dict(report.params)
    stage_s = {**p.pop("stage_s"), "csv_write": written}
    summary = {
        "params": p,
        "passed": report.passed,
        "max_residual": report.to_dict()["max_residual"],
        "tolerance": report.tolerance,
        "runtime_s": report.runtime_s,
        "stage_s": stage_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    summary_path = out / "scan_summary.json"
    write_json(summary_path, summary)
    for path in (table, summary_path):
        write_metadata(path, {"command": "jacobi-scan", "n": args.n}, 0)
    print(
        f"n={args.n}: {p['violations_raw']} violating tuples "
        f"({p['violations_deduplicated']} after symmetry reduction)"
    )
    known = p["known_tuple_residual"]
    flag = "present" if known is not None else "MISSING"
    print(f"known counterexample tuple: {flag} (residual {known!r})")
    print(f"wrote {table} and {summary_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinebracket",
        description="Structure-preserving truncated vorticity dynamics and its bracket algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured initial condition")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--dt", type=float, default=None, help="override config dt")
    p_run.add_argument("--steps", type=int, default=None, help="override config steps")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="override config output directory")
    p_run.set_defaults(handler=cmd_run)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--n", type=int, required=True, help="truncation size (odd)")
    p_verify.add_argument("--seed", type=int, default=0)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument(
        "--all", action="store_true", help="identity suite plus counterexample (the default)"
    )
    group.add_argument(
        "--counterexample", action="store_true", help="only the six-index counterexample"
    )
    group.add_argument("--suite", default=None, metavar="NAME", help="a single named check")
    p_verify.add_argument("--out", default="verify_report.json", help="JSON report path")
    p_verify.set_defaults(handler=cmd_verify)

    p_conv = sub.add_parser("converge", help="truncation-error decay study")
    p_conv.add_argument("--pairs", default=None, help="CSV of i1,i2,j1,j2 rows")
    p_conv.add_argument("--n-list", default="11,21,41,81", help="comma-separated odd sizes")
    p_conv.add_argument("--out", default=".", help="output directory")
    p_conv.set_defaults(handler=cmd_converge)

    p_scan = sub.add_parser("jacobi-scan", help="exhaustive generalized-Jacobi scan")
    p_scan.add_argument("--n", type=int, required=True, help="truncation size (5 or 7)")
    p_scan.add_argument("--out", default=".", help="output directory")
    p_scan.set_defaults(handler=cmd_jacobi_scan)

    return parser


# Parsing leaves the parser as it was, so one serves every call of main().
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, MemoryError, ConsistencyError, StepConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
