"""Outside-in span tracer for the sinebracket modules.

The tracer replaces the names that callers look up (a module global such
as ``cli.save_violations``, a default argument such as ``rhs=rhs_fast``, or
a class attribute such as ``Functional.gradient``) with a timing wrapper,
and puts every original back on :meth:`Tracer.uninstall`.  Nothing inside
``src/`` is changed.

Spans nest through a stack, so a span's self time is its duration minus
the time of the spans called directly inside it.  A span only sees its
own boundaries: work done inline inside one function (the gather in
``rhs_fast``, the kernel and hit materialisation in ``_scan_sine``) cannot
be split from outside and stays in the enclosing span.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

RUN = ("run-rk4-n161", "run-midpoint-n21")
SCAN = ("jacobi-scan-n5",)
VERIFY = ("verify-n15",)
ALL = RUN + SCAN + VERIFY

# The nine verify reports and the helper that computes each one.
VERIFY_CHECKS = (
    ("alpha-antisymmetry", "verify", "_table_antisymmetry_residual"),
    ("jacobi-identity", "verify", "_table_jacobi_residual"),
    ("killing-form", "verify", "_killing_residual"),
    ("orthogonality", "verify", "_orthogonality_residual"),
    ("casimir-commutes", "verify", "_casimir_residual"),
    ("nambu-reduction", "verify", "_reduction_residual"),
    ("nambu-antisymmetry", "verify", "_nambu_antisymmetry_residual"),
    ("rhs-equivalence", "verify", "_rhs_equivalence_residual"),
    ("jacobi-counterexample", "cli", "run_counterexample"),
)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _result_len(key):
    def count(args, kwargs, result):
        return {key: len(result)}

    return count


def _commutator_cost(args, kwargs, result):
    # Two n x n complex matmuls (8 real flops per multiply-add) and the
    # minimum traffic of reading both operands and writing the product of
    # each, plus the subtraction; both follow from the array sizes alone.
    n = args[0].n
    return {"flop": 16 * n**3, "bytes": 9 * 16 * n**2}


# name -> (install points, workloads it must fire on, on-return counter)
# An install point is (module, attribute) or (module, "Class.attribute").
MEASURED_SPANS = {
    "cli": ([("cli", "main")], ALL, None),
    "cli.initial_condition": ([("cli", "_build_initial_condition")], RUN, None),
    "dynamics.integrate": ([("cli", "integrate")], RUN, None),
    "dynamics.step": ([("dynamics", "step")], RUN, None),
    "dynamics.rhs_fast": ([("verify", "rhs_fast")], RUN + VERIFY, _commutator_cost),
    "dynamics.to_weyl": ([("dynamics", "_to_weyl_matrix")], RUN + VERIFY, None),
    "dynamics.from_weyl": ([("dynamics", "_from_weyl_matrix")], RUN + VERIFY, None),
    "grid.wrap": ([("dynamics", "_wrapped")], RUN + VERIFY, None),
    "grid.diagnostics": (
        [("dynamics", "validate_reality"), ("dynamics", "energy"), ("dynamics", "enstrophy")],
        RUN,
        None,
    ),
    "serialization.save_mode_field": ([("cli", "save_mode_field")], RUN, _file_bytes),
    "serialization.save_diagnostics": ([("cli", "save_diagnostics")], RUN, None),
    "serialization.json": ([("cli", "write_json"), ("cli", "write_metadata")], ALL, None),
    "verify.jacobi_scan": ([("cli", "run_jacobi_scan")], SCAN, None),
    "algebra.scan": ([("verify", "scan_gen_jacobi")], SCAN, _result_len("hits")),
    "algebra.dedupe": ([("verify", "dedupe_violations")], SCAN, _result_len("kept")),
    "serialization.save_violations": ([("cli", "save_violations")], SCAN, _file_bytes),
    "verify.identity_suite": ([("cli", "run_identity_suite")], VERIFY, None),
    "algebra.killing_bruteforce": ([("verify", "killing_bruteforce")], VERIFY, None),
    "functionals.gradient": ([("functionals", "Functional.gradient")], VERIFY, None),
}
for _check, _module, _attr in VERIFY_CHECKS:
    MEASURED_SPANS[f"verify.{_check}"] = ([(_module, _attr)], VERIFY, None)

# The lru-cached tables are built by the warm-up op, so these spans are
# installed for set-up only; left in place they would add a span to every
# cache hit (two per killing_bruteforce call).
SETUP_SPANS = {
    "grid.tables": ([("grid", "_grid_tables")], ALL, None),
    "algebra.pair_tables": (
        [("algebra", "_pair_tables"), ("dynamics", "_pair_tables"), ("verify", "_pair_tables")],
        SCAN + VERIFY,
        None,
    ),
    "dynamics.weyl_tables": ([("dynamics", "_weyl_tables")], RUN + VERIFY, None),
}


class Tracer:
    """Per-name call counts, inclusive and self time, and extra counters."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counters):
            table.clear()

    def _wrap(self, fn, name, on_return):
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]
            if on_return is not None:
                for key, value in on_return(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            if stack:
                # The parent is credited with this span's bookkeeping as well
                # as its window, so the tracer's own work stays out of the
                # parent's self time.
                stack[-1][0] += perf_counter() - started
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, spans: dict) -> None:
        """Wrap every install point of ``spans``; a missing name raises."""
        for name, (points, _targets, on_return) in spans.items():
            for module_name, attr in points:
                owner = getattr(self.package, module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(original, name, on_return))
        if "dynamics.rhs_fast" in spans:
            self._wrap_default_rhs(spans["dynamics.rhs_fast"][2])

    def _wrap_default_rhs(self, on_return) -> None:
        # step() and integrate() bind rhs=rhs_fast when they are defined, so
        # the module global is never looked up on the stepping path; the
        # defaults themselves are what callers use.
        dynamics = self.package.dynamics
        wrapped = self._wrap(dynamics.rhs_fast, "dynamics.rhs_fast", on_return)
        for fn in (dynamics.step, dynamics.integrate):
            fn = getattr(fn, "__wrapped__", fn)
            defaults = tuple(wrapped if d is dynamics.rhs_fast else d for d in fn.__defaults__)
            self._patch(fn, "__defaults__", defaults)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def silent(self, spans: dict, workload: str) -> list[str]:
        """Names of ``spans`` that target ``workload`` but never fired."""
        return [
            name
            for name, (_points, targets, _on_return) in spans.items()
            if workload in targets and self.calls[name] == 0
        ]


def snapshot(tracer: Tracer) -> dict:
    """The tracer's tables as plain JSON-ready dicts."""
    return {
        "calls": dict(tracer.calls),
        "total": dict(tracer.total),
        "self": dict(tracer.self_time),
        "counters": dict(tracer.counters),
    }


# Per-op metric -> (table, span or counter, unit, how it is obtained).
# "measured" values come from spans; "computed" ones from array sizes;
# "combined" marks a span that holds work which cannot be split from
# outside because it runs inline in one function.
PER_OP = {
    "cli.self_s": ("self", "cli", "s/op", "measured"),
    "cli.initial_condition.s": ("total", "cli.initial_condition", "s/op", "measured"),
    "dynamics.integrate.self_s": ("self", "dynamics.integrate", "s/op", "measured"),
    "dynamics.step.self_s": ("self", "dynamics.step", "s/op", "measured"),
    "dynamics.rhs_fast.calls": ("calls", "dynamics.rhs_fast", "count/op", "measured"),
    "dynamics.rhs_fast.s": ("total", "dynamics.rhs_fast", "s/op", "measured"),
    "dynamics.rhs_fast.self_s": (
        "self", "dynamics.rhs_fast", "s/op",
        "combined: matmuls, gather and ModeField, not separable from outside",
    ),
    "dynamics.to_weyl.s": ("total", "dynamics.to_weyl", "s/op", "measured"),
    "dynamics.from_weyl.s": ("total", "dynamics.from_weyl", "s/op", "measured"),
    "grid.wrap.s": ("total", "grid.wrap", "s/op", "measured"),
    "dynamics.commutator.flop": (
        "counters", "dynamics.rhs_fast.flop", "flop/op", "computed: 16 n^3 per rhs call",
    ),
    "dynamics.commutator.bytes": (
        "counters", "dynamics.rhs_fast.bytes", "B/op", "computed: 144 n^2 per rhs call",
    ),
    "grid.diagnostics.calls": ("calls", "grid.diagnostics", "count/op", "measured"),
    "grid.diagnostics.s": ("total", "grid.diagnostics", "s/op", "measured"),
    "serialization.save_diagnostics.s": (
        "total", "serialization.save_diagnostics", "s/op", "measured",
    ),
    "serialization.save_mode_field.s": ("total", "serialization.save_mode_field", "s/op", "measured"),
    "serialization.save_mode_field.bytes": (
        "counters", "serialization.save_mode_field.bytes", "B/op", "measured",
    ),
    "serialization.json.s": ("total", "serialization.json", "s/op", "measured"),
    "verify.jacobi_scan.self_s": ("self", "verify.jacobi_scan", "s/op", "measured"),
    "algebra.scan.s": (
        "total", "algebra.scan", "s/op",
        "combined: kernel and hit materialisation, not separable from outside",
    ),
    "algebra.scan.hits": ("counters", "algebra.scan.hits", "count/op", "measured"),
    "algebra.dedupe.s": ("total", "algebra.dedupe", "s/op", "measured"),
    "algebra.dedupe.kept": ("counters", "algebra.dedupe.kept", "count/op", "measured"),
    "serialization.save_violations.s": ("total", "serialization.save_violations", "s/op", "measured"),
    "serialization.save_violations.bytes": (
        "counters", "serialization.save_violations.bytes", "B/op", "measured",
    ),
    "verify.identity_suite.self_s": ("self", "verify.identity_suite", "s/op", "measured"),
    "algebra.killing_bruteforce.calls": ("calls", "algebra.killing_bruteforce", "count/op", "measured"),
    "algebra.killing_bruteforce.s": ("total", "algebra.killing_bruteforce", "s/op", "measured"),
    "functionals.gradient.calls": ("calls", "functionals.gradient", "count/op", "measured"),
    "functionals.gradient.s": ("total", "functionals.gradient", "s/op", "measured"),
}
for _check, _module, _attr in VERIFY_CHECKS:
    PER_OP[f"verify.{_check}.s"] = ("total", f"verify.{_check}", "s/op", "measured")

# Set-up metric -> span of the warm-up op's table building (inclusive).
SETUP = {
    "grid.tables.s": "grid.tables",
    "algebra.pair_tables.s": "algebra.pair_tables",
    "dynamics.weyl_tables.s": "dynamics.weyl_tables",
}


def layer_metrics(setup: dict, measured: dict, ops: int) -> dict:
    """name -> (value, unit, how obtained) from two snapshots."""
    out = {}
    for name, (table, key, unit, how) in PER_OP.items():
        out[name] = (measured[table].get(key, 0) / ops, unit, how)
    steps = measured["calls"].get("dynamics.step", 0)
    # every rhs call of a run happens inside step(); verify calls it directly
    rhs = measured["calls"].get("dynamics.rhs_fast", 0) if steps else 0
    out["dynamics.rhs_per_step"] = (rhs / steps if steps else 0.0, "count", "measured")
    for name, key in SETUP.items():
        out[name] = (setup["total"].get(key, 0.0), "s", "measured in the warm-up op")
    return out
