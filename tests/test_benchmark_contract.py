"""The names the benchmark's span tracer patches must exist.

``perfbench/spans.py`` wraps package attributes by name and aborts a traced
run when one is missing; this pins that contract in the fast suite.
"""

import importlib.util
import inspect
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


def test_rhs_fast_reaches_each_traced_layer(monkeypatch):
    # The tracer times wrap, to-Weyl and from-Weyl by patching these module
    # globals, so rhs_fast must keep looking them up there.
    calls = {"_wrapped": 0, "_to_weyl_matrix": 0, "_from_weyl_matrix": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dynamics, name, counting)
    grid = sinebracket.build_grid(9)
    dynamics.rhs_fast(grid, dynamics.random_shell_field(grid, seed=0))
    assert calls == {"_wrapped": 1, "_to_weyl_matrix": 2, "_from_weyl_matrix": 1}


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
