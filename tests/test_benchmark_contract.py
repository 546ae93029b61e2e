"""The names the benchmark's span tracer patches must exist.

``perfbench/spans.py`` wraps package attributes by name and aborts a traced
run when one is missing; this pins that contract in the fast suite.
"""

import contextlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import pytest

import sinebracket
import sinebracket.cli  # noqa: F401  (not imported by the package itself)
from sinebracket import dynamics, verify

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["MEASURED_SPANS", "SETUP_SPANS"])
def test_span_install_points_resolve(table):
    spans = getattr(_load_spans(), table)
    assert spans
    for name, (points, _targets, _on_return) in spans.items():
        for module_name, attr in points:
            owner = getattr(sinebracket, module_name)
            for part in attr.split("."):
                assert hasattr(owner, part), f"{name}: {module_name}.{attr} is missing"
                owner = getattr(owner, part)
            assert callable(owner), f"{name}: {module_name}.{attr} is not callable"


def test_stepping_defaults_to_rhs_fast():
    for fn in (dynamics.step, dynamics.integrate):
        assert inspect.signature(fn).parameters["rhs"].default is dynamics.rhs_fast


def test_scheme_maps_take_rhs_from_step():
    # The tracer rewrites the rhs default of step() and integrate() only; a
    # scheme map with a default of its own would bypass the rhs_fast span.
    for scheme, fn in dynamics._SCHEMES.items():
        rhs = inspect.signature(fn).parameters["rhs"]
        assert rhs.default is inspect.Parameter.empty, scheme


def _count_traced_layers(monkeypatch, call):
    calls = {"_wrapped": 0, "_to_weyl_matrix": 0, "_from_weyl_matrix": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    call()
    monkeypatch.undo()
    return calls


def test_rhs_fast_reaches_each_traced_layer(monkeypatch):
    # The tracer times wrap, to-Weyl and from-Weyl by patching these module
    # globals, so rhs_fast must keep looking them up there.  Each call runs
    # one half-width transform each way, and the to-Weyl one also fills the
    # other half of the stream matrix.  It steps the lifted matrix, so the
    # wrap belongs to the lift, once per run.
    grid = sinebracket.build_grid(9)
    w = dynamics.lift(dynamics.random_shell_field(grid, seed=0))
    calls = _count_traced_layers(monkeypatch, lambda: dynamics.rhs_fast(grid, w))
    assert calls == {"_wrapped": 0, "_to_weyl_matrix": 1, "_from_weyl_matrix": 1}


def test_lift_and_lower_each_reach_one_transform(monkeypatch):
    # Every run lifts its initial field, reads its records off the matrix
    # and lowers its final state, so the to-Weyl and from-Weyl spans fire
    # on each run and verify workload.
    grid = sinebracket.build_grid(9)
    field = dynamics.random_shell_field(grid, seed=0)
    calls = _count_traced_layers(monkeypatch, lambda: dynamics.lift(field))
    assert calls == {"_wrapped": 1, "_to_weyl_matrix": 1, "_from_weyl_matrix": 0}
    w = dynamics.lift(field)
    calls = _count_traced_layers(monkeypatch, lambda: dynamics.lower(w))
    assert calls == {"_wrapped": 0, "_to_weyl_matrix": 0, "_from_weyl_matrix": 1}


def _run_config(tmp_path, name, **settings):
    config = {
        "n": 9, "dt": 1e-3, "steps": 6, "record_every": 3, "seed": 1, "out_dir": str(tmp_path / name),
        "initial_condition": {"type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 2.0},
        **settings,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["run", "--config", str(path)]


def test_every_measured_span_fires_on_its_workloads(tmp_path):
    # What perfbench --trace 1 needs, at small sizes: each measured span
    # that targets a workload fires on a run of that workload's kind.
    spans = _load_spans()
    cases = [
        ("run-rk4-n161", _run_config(tmp_path, "rk4")),
        ("run-midpoint-n21", _run_config(tmp_path, "midpoint", scheme="implicit_midpoint")),
        ("verify-n15", ["verify", "--n", "5", "--all", "--out", str(tmp_path / "verify.json")]),
        ("jacobi-scan-n5", ["jacobi-scan", "--n", "5", "--out", str(tmp_path / "scan")]),
    ]
    tracer = spans.Tracer(sinebracket)
    tracer.install(spans.MEASURED_SPANS)
    try:
        for workload, argv in cases:
            tracer.reset()
            with contextlib.redirect_stdout(io.StringIO()):
                assert sinebracket.cli.main(argv) == 0, workload
            assert tracer.silent(spans.MEASURED_SPANS, workload) == [], workload
    finally:
        tracer.uninstall()
    assert dynamics.step.__defaults__[0] is dynamics.rhs_fast  # uninstalled


def test_identity_suite_reports_each_traced_helper(monkeypatch):
    # The tracer times each check by patching its helper in ``verify``, so
    # run_identity_suite must look the helpers up there each time it runs.
    checks = [
        (name, attr) for name, module, attr in _load_spans().VERIFY_CHECKS if module == "verify"
    ]
    assert checks
    for value, (_name, attr) in enumerate(checks, start=1):
        monkeypatch.setattr(verify, attr, lambda *args, _value=value: _value / 64)
    reports = {r.name: r.max_residual for r in verify.run_identity_suite(3)}
    assert reports == {name: value / 64 for value, (name, _attr) in enumerate(checks, start=1)}
