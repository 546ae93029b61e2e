"""Command-line interface: exit codes, artifacts, determinism."""

import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import sinebracket
from sinebracket.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    RunConfig,
    main,
)
from sinebracket.grid import MAX_TRUNCATION
from sinebracket.serialization import config_hash

from oracles import load_diagnostics, load_mode_field, save_physical_field


def _write_config(tmp_path, **overrides):
    config = {
        "n": 7,
        "dt": 1e-3,
        "steps": 40,
        "record_every": 10,
        "seed": 2,
        "out_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_artifacts(tmp_path, capsys):
    cfg_path, config = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("initial_state.csv", "final_state.csv", "diagnostics.csv", "summary.json"):
        assert (out / name).exists()
        assert (out / (name + ".meta.json")).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 7 and summary["steps"] == 40 and summary["seed"] == 2
    assert summary["final_time"] == pytest.approx(0.04)
    assert summary["drift_energy"] <= 1e-10
    assert summary["drift_enstrophy"] <= 1e-10
    records = load_diagnostics(out / "diagnostics.csv")
    assert len(records) == 5  # initial + every 10 of 40 steps
    meta = json.loads((out / "final_state.csv.meta.json").read_text())
    assert set(meta) == {"version", "config_hash", "seed"}
    assert "drift_H=" in capsys.readouterr().out


def test_run_summary_records_the_numerical_environment(tmp_path, monkeypatch):
    # The digits of a run depend on the numpy and BLAS builds and the BLAS thread count.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    cfg_path, _ = _write_config(tmp_path, steps=2)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    environment = json.loads((tmp_path / "out" / "summary.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment == {
        "numpy_version": np.__version__,
        "blas_name": blas["name"],
        "blas_version": blas["version"],
        "openblas_num_threads": "3",
    }
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["environment"]["openblas_num_threads"] is None


def test_run_config_hash_is_pinned():
    # Every .meta.json sidecar of a run carries this hash of as_dict().
    config = RunConfig.from_mapping(
        {"n": 9, "dt": 1e-3, "steps": 40, "initial_condition": {"type": "shell", "amplitude": 2.0}}
    )
    assert config_hash(config.as_dict()) == (
        "09879554d457c2538efdb2f78918c999578cf796fc5cd0283e1945484a17b538"
    )


def test_run_is_deterministic_byte_for_byte(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    for name, blob in first.items():
        if name.startswith("summary.json"):
            continue  # wall-clock field
        assert (out / name).read_bytes() == blob, name


def test_midpoint_run_is_deterministic_byte_for_byte(tmp_path):
    # the extrapolated starting guess must not make reruns differ
    cfg_path, _ = _write_config(tmp_path, scheme="implicit_midpoint", record_every=1)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.name.endswith(".csv")}
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_run_cli_overrides_take_precedence(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    alt = tmp_path / "alt"
    argv = ["run", "--config", str(cfg_path), "--steps", "20", "--seed", "9", "--dt", "2e-3"]
    code = main([*argv, "--out", str(alt)])
    assert code == EXIT_OK
    summary = json.loads((alt / "summary.json").read_text())
    assert summary["steps"] == 20 and summary["seed"] == 9 and summary["dt"] == 2e-3
    assert summary["final_time"] == pytest.approx(0.04)


def test_run_single_pair_modes_ic_is_preserved(tmp_path):
    cfg_path, _ = _write_config(
        tmp_path,
        steps=200,
        initial_condition={"type": "modes", "modes": [[1, 2, 0.8, -0.3]]},
    )
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    initial = load_mode_field(out / "initial_state.csv")
    final = load_mode_field(out / "final_state.csv")
    scale = np.max(np.abs(initial.coeffs))
    assert np.max(np.abs(final.coeffs - initial.coeffs)) <= 1e-13 * scale


def test_run_zero_amplitude_is_exactly_static(tmp_path):
    cfg_path, _ = _write_config(tmp_path, initial_condition={"type": "shell", "amplitude": 0.0})
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["energy_initial"] == 0.0
    assert summary["drift_energy"] == 0.0 and summary["drift_enstrophy"] == 0.0


def test_run_readme_example_for_20000_steps(tmp_path):
    # The README example config; run this long it once aborted on a 1.1e-12
    # reality residual that the scheme itself had accumulated.
    cfg_path, _ = _write_config(
        tmp_path,
        n=11,
        steps=20000,
        record_every=100,
        seed=6,
        initial_condition={"type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 6.0},
    )
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    final = load_mode_field(tmp_path / "out" / "final_state.csv")
    assert final.reality_residual() == 0.0
    assert len(load_diagnostics(tmp_path / "out" / "diagnostics.csv")) == 201


def test_run_usage_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json)]) == EXIT_USAGE
    for overrides in (
        {"dt": 0.0},
        {"dt": float("nan")},
        {"dt": float("inf")},
        {"scheme": "euler"},
        {"n": 8},
        {"initial_condition": {"type": "vortex"}},
        {"initial_condition": {"type": "modes", "modes": []}},
        # integer fields are refused, not truncated, when not integral
        {"n": 7.9},
        {"steps": 2.7},
        {"steps": True},
        {"record_every": 1.5},
        {"seed": 2.5},
        {"n": float("inf")},
    ):
        cfg_path, _ = _write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE, overrides
        assert not (tmp_path / "out").exists(), overrides


@pytest.mark.parametrize(
    "initial_condition",
    [
        {"type": "shell"},
        {"type": "modes", "modes": [[1, 0, 1.0, 0.0]]},
        {"type": "physical_csv", "path": "samples.csv"},
    ],
    ids=lambda ic: ic["type"],
)
@pytest.mark.parametrize("where", ["config", "flag"])
def test_run_refuses_a_negative_seed(tmp_path, capsys, initial_condition, where):
    # a shell run once exited 2 with numpy's message, which names no key, and
    # a modes run, which draws nothing, exited 0
    ic = dict(initial_condition)
    if "path" in ic:
        ic["path"] = str(tmp_path / ic["path"])
        save_physical_field(ic["path"], np.zeros((7, 7)))
    cfg_path, _ = _write_config(
        tmp_path, initial_condition=ic, **({"seed": -1} if where == "config" else {})
    )
    flag = ["--seed", "-1"] if where == "flag" else []
    assert main(["run", "--config", str(cfg_path), *flag]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "seed must be a non-negative integer, got -1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("dt", True), ("amplitude", True), ("shell_min", None), ("shell_max", "wide"), ("dt", [1e-3])],
)
def test_run_refuses_non_numeric_real_fields(tmp_path, capsys, key, value):
    # a boolean once ran as 1.0 and exited 0
    if key == "dt":
        cfg_path, _ = _write_config(tmp_path, dt=value)
    else:
        cfg_path, _ = _write_config(tmp_path, initial_condition={"type": "shell", key: value})
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{key} must be a number, got {value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ([1.7, 0, 1.0, 0.0], "mode index must be an integer, got 1.7"),
        ([1, True, 1.0, 0.0], "mode index must be an integer, got True"),
        (["2.5", 0, 1.0, 0.0], "mode index must be an integer, got '2.5'"),
        ([1, 0, True, 0.0], "mode value must be a number, got True"),
        ([1, 0, 1.0, False], "mode value must be a number, got False"),
        ([1, 0, None, 0.0], "mode value must be a number, got None"),
        ([1, 0, 1.0], "not enough values to unpack"),
        (5, "cannot unpack non-iterable int"),
    ],
)
def test_run_refuses_malformed_mode_rows(tmp_path, capsys, row, message):
    # the row (1.7, 0, 1.0, 0.0) once ran as mode (1, 0) and exited 0
    cfg_path, _ = _write_config(tmp_path, initial_condition={"type": "modes", "modes": [row]})
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"shceme": "implicit_midpoint"}, "shceme"),
        ({"initial_condition": {"type": "shell", "amplitud": 50}}, "amplitud"),
        ({"initial_condition": {"amplitude": 2.0, "modes": []}}, "modes"),
        ({"initial_condition": {"type": "modes", "modes": [[1, 0, 1.0, 0.0]], "seed": 1}}, "seed"),
        ({"initial_condition": {"type": "physical_csv", "path": "x.csv", "amplitude": 1}}, "amplitude"),
    ],
)
def test_run_refuses_unknown_config_keys(tmp_path, capsys, overrides, key):
    # a misspelt key once did nothing: "shceme" ran RK4 and exited 0
    cfg_path, _ = _write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unknown" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps("shell"))
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert "the top-level settings must be a JSON object, got 'shell'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "modes, message",
    [
        ([[1, 0, 1.0, 0.0], [1, 0, 3.0, 0.0]], "mode (1, 0) is given twice"),
        ([[1, 0, 1.0, 0.0], [1.0, 0, 1.0, 0.0]], "mode (1, 0) is given twice"),
        ([[1, 0, 1.0, 0.0], [-1, 0, 2.0, 0.5]], "modes (1, 0) and (-1, 0) must be complex conjugates"),
    ],
)
def test_run_refuses_inconsistent_mode_lists(tmp_path, capsys, modes, message):
    # a repeated mode once kept its last row, and a non-conjugate pair
    # exited 3 from the integrator as a runtime failure
    cfg_path, _ = _write_config(tmp_path, initial_condition={"type": "modes", "modes": modes})
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err and "integration failed" not in err
    assert not (tmp_path / "out").exists()


def test_run_accepts_an_explicit_conjugate_pair(tmp_path):
    modes = [[1, 0, 1.0, 0.5], [-1, 0, 1.0, -0.5]]
    cfg_path, _ = _write_config(tmp_path, initial_condition={"type": "modes", "modes": modes})
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    initial = load_mode_field(tmp_path / "out" / "initial_state.csv")
    assert initial.get((1, 0)) == 1.0 + 0.5j and initial.get((-1, 0)) == 1.0 - 0.5j


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"out_dir": None}, "out_dir must be a string, got None"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"scheme": None}, "scheme must be a string, got None"),
        ({"scheme": ["rk4"]}, "scheme must be a string, got ['rk4']"),
        ({"initial_condition": {"type": "physical_csv", "path": 1}}, "path must be a string, got 1"),
    ],
)
def test_run_refuses_non_string_fields(tmp_path, capsys, monkeypatch, overrides, message):
    # "out_dir": null once wrote into a directory named None
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = _write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_run_summary_reports_steps_per_second(tmp_path):
    cfg_path, config = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps_per_s"] == config["steps"] / summary["runtime_s"] > 0.0
    cfg_path, _ = _write_config(tmp_path, steps=0)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["steps_per_s"] == 0.0


def test_run_summary_reports_peak_rss(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    peak = json.loads((tmp_path / "out" / "summary.json").read_text())["peak_rss_mb"]
    assert type(peak) is float and peak > 0.0


# sha256 of final_state.csv, taken before the midpoint sweep stopped halving
# W + W~ (it now takes f(W + W~)/4, which is f((W + W~)/2) bitwise).
@pytest.mark.parametrize(
    "scheme, digest",
    [
        ("implicit_midpoint", "e24b960902cc18490eef51de65470f39ae653ef2fecc5a3825f9b0227bd06b08"),
        ("rk4", "301dfce13c182f01be60e7fac745e5664433a6a0311c32806ad74b35dc8d885c"),
    ],
)
def test_run_final_state_bytes_are_pinned(tmp_path, scheme, digest):
    ic = {"type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 4.0}
    outputs = []
    for name in ("first", "again"):
        cfg_path, _ = _write_config(
            tmp_path, n=9, scheme=scheme, dt=1e-2, steps=40, record_every=10, seed=5,
            initial_condition=ic, out_dir=str(tmp_path / name),
        )
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        outputs.append([(tmp_path / name / f).read_bytes() for f in ("final_state.csv", "diagnostics.csv")])
    assert hashlib.sha256(outputs[0][0]).hexdigest() == digest
    assert outputs[0] == outputs[1]


def test_run_config_accepts_integral_floats():
    config = RunConfig.from_mapping({"n": 7.0, "dt": 1e-3, "steps": 1e3, "seed": 3.0})
    assert (config.n, config.steps, config.record_every, config.seed) == (7, 1000, 100, 3)
    assert all(type(v) is int for v in (config.n, config.steps, config.record_every, config.seed))


def test_run_non_finite_initial_condition_is_usage_error(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(",".join(["0.5"] * 7) for _ in range(7)).replace("0.5", "nan", 1))
    for spec in (
        {"type": "shell", "amplitude": "nan"},
        {"type": "modes", "modes": [[1, 0, "inf", 0]]},
        {"type": "physical_csv", "path": str(samples)},
    ):
        cfg_path, _ = _write_config(tmp_path, initial_condition=spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE, spec
        assert not caught, spec
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), spec
        assert "non-finite" in err and "integration failed" not in err, spec
        assert not (tmp_path / "out").exists(), spec


def test_run_accepts_negative_dt_and_zero_steps(tmp_path):
    cfg_path, config = _write_config(tmp_path, dt=-1e-3)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_time"] == pytest.approx(config["steps"] * config["dt"], rel=1e-12)

    cfg_path, _ = _write_config(tmp_path, steps=0, out_dir=str(tmp_path / "still"))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    still = tmp_path / "still"
    assert (still / "final_state.csv").read_bytes() == (still / "initial_state.csv").read_bytes()


def test_run_blow_up_is_runtime_error(tmp_path, capsys):
    # RK4 far beyond its stability limit: the state overflows to NaN
    cfg_path, _ = _write_config(
        tmp_path,
        n=11,
        dt=5.0,
        steps=50,
        record_every=5,
        seed=0,
        initial_condition={"type": "shell", "amplitude": 50.0},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "non-finite" in err
    # numpy's overflow warnings would print before it
    assert not caught
    assert len(err.splitlines()) == 1 and err.startswith("error: integration failed: ")
    assert not (tmp_path / "out").exists()


def _strict_json(path):
    """The JSON document at ``path``; NaN, Infinity and -Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{path}: non-standard JSON constant {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


@pytest.mark.parametrize(
    "steps, record_every, message",
    [
        (10, 1, "diverged at t=0.18: "),  # exited 0 with drift_H = 43
        (12, 1, "diverged at t=0.18: "),  # exited 0 with inf in diagnostics.csv and summary.json
        (12, 12, "H or E is non-finite at t=0.23999999999999996 "),  # W itself is still finite
    ],
)
def test_run_diverged_record_is_runtime_error(tmp_path, capsys, steps, record_every, message):
    cfg_path, _ = _write_config(
        tmp_path, n=81, scheme="rk4", dt=2e-2, steps=steps, record_every=record_every, seed=3,
        initial_condition={"type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 6.0},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert not caught
    assert len(err.splitlines()) == 1 and err.startswith("error: integration failed: " + message)
    assert not (tmp_path / "out").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_run_midpoint_blow_up_fails_fast(tmp_path, capsys):
    cfg_path, _ = _write_config(
        tmp_path,
        n=11,
        dt=5.0,
        steps=50,
        record_every=5,
        scheme="implicit_midpoint",
        initial_condition={"type": "shell", "amplitude": 50.0},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert not caught
    assert err.startswith("error: integration failed: ") and "non-finite" in err
    assert "did not converge" not in err
    assert not (tmp_path / "out").exists()


def test_run_stalled_midpoint_solver_is_runtime_error(tmp_path, capsys):
    # At dt = 2e-2 the fixed-point map contracts by about 0.7 per sweep and
    # the first solve stops at its sweep cap; the message names the time
    # the failed step started from.
    cfg_path, _ = _write_config(
        tmp_path,
        n=21,
        dt=2e-2,
        steps=10,
        seed=6,
        scheme="implicit_midpoint",
        initial_condition={"type": "shell", "shell_min": 1.0, "shell_max": 4.0, "amplitude": 6.0},
    )
    assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: integration failed: ")
    assert "did not converge" in err and "contraction estimate" in err and "t=0.0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_run_summary_reports_rhs_calls(tmp_path, scheme):
    cfg_path, _ = _write_config(tmp_path, scheme=scheme)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    calls, per_step, most = (
        summary[k] for k in ("rhs_calls", "rhs_calls_per_step", "rhs_calls_max_step")
    )
    assert per_step == calls / 40
    if scheme == "rk4":
        assert (calls, most) == (160, 4)
    else:
        assert 40 <= calls and per_step <= most <= 51


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_run_summary_counts_smoothed_guess_steps(tmp_path, scheme):
    # A midpoint step may start from the smoothing guess once 20 states are
    # kept, so at most from step 20 of these 40; RK4 takes no guess.
    cfg_path, _ = _write_config(tmp_path, scheme=scheme)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    smoothed = json.loads((tmp_path / "out" / "summary.json").read_text())["smoothed_guess_steps"]
    if scheme == "rk4":
        assert smoothed == 0
    else:
        assert 0 < smoothed <= 40 - 19


def test_run_physical_csv_roundtrip(tmp_path):
    # physical samples of a band field: run must accept and integrate them
    from sinebracket.dynamics import random_shell_field
    from sinebracket.grid import build_grid
    from test_grid import to_physical

    grid = build_grid(7)
    field = random_shell_field(grid, seed=5, shell_max=4.0, amplitude=1.0)
    samples_path = tmp_path / "samples.csv"
    save_physical_field(samples_path, to_physical(field))
    cfg_path, _ = _write_config(
        tmp_path, initial_condition={"type": "physical_csv", "path": str(samples_path)}
    )
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    initial = load_mode_field(tmp_path / "out" / "initial_state.csv")
    assert np.max(np.abs(initial.coeffs - field.coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_passes(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--n", "5", "--all", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "9/9 checks passed" in out
    assert "zeitlin summands:" in out and "continuum summands:" in out
    payload = json.loads(report.read_text())
    assert set(payload) == {"n", "seed", "runtime_s", "peak_rss_mb", "reports"}
    assert payload["n"] == 5
    assert payload["runtime_s"] >= sum(r["runtime_s"] for r in payload["reports"])
    assert payload["peak_rss_mb"] > 0
    assert [r["name"] for r in payload["reports"]][-1] == "jacobi-counterexample"
    assert all(r["passed"] for r in payload["reports"])
    assert (tmp_path / "report.json.meta.json").exists()


def test_verify_small_n_skips_counterexample(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--n", "3", "--out", str(report)]) == EXIT_OK
    assert "8/8 checks passed" in capsys.readouterr().out


def test_verify_single_named_check(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--n", "5", "--suite", "rhs-equivalence", "--out", str(report)])
    assert code == EXIT_OK
    assert "1/1 checks passed" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert [r["name"] for r in payload["reports"]] == ["rhs-equivalence"]


def test_verify_unknown_check_is_usage_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--n", "5", "--suite", "bogus", "--out", str(report)])
    assert code == EXIT_USAGE
    assert "unknown check" in capsys.readouterr().err


def test_verify_above_the_suite_cap_is_usage_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--n", "17", "--all", "--out", str(report)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "identity suite is capped at n = 15" in captured.err
    assert "passed" not in captured.out + captured.err
    assert not report.exists()


# the residual helper of each identity check, in suite order
CHECK_HELPERS = {
    "alpha-antisymmetry": "_table_antisymmetry_residual",
    "jacobi-identity": "_table_jacobi_residual",
    "killing-form": "_killing_residual",
    "orthogonality": "_orthogonality_residual",
    "casimir-commutes": "_casimir_residual",
    "nambu-reduction": "_reduction_residual",
    "nambu-antisymmetry": "_nambu_antisymmetry_residual",
    "rhs-equivalence": "_rhs_equivalence_residual",
}


@pytest.mark.parametrize("seed", range(5))
def test_verify_suite_residual_is_bitwise_its_all_value(tmp_path, seed):
    common = ["verify", "--n", "5", "--seed", str(seed), "--out"]
    assert main([*common, str(tmp_path / "all.json"), "--all"]) == EXIT_OK
    full = json.loads((tmp_path / "all.json").read_text())["reports"]
    for check in full[:-1]:  # the last report is the counterexample
        out = tmp_path / f"{check['name']}.json"
        assert main([*common, str(out), "--suite", check["name"]]) == EXIT_OK
        [report] = json.loads(out.read_text())["reports"]
        assert report["name"] == check["name"]
        assert report["max_residual"] == check["max_residual"], check["name"]


@pytest.mark.parametrize("name", CHECK_HELPERS)
def test_verify_suite_runs_only_its_check(tmp_path, monkeypatch, name):
    from sinebracket import verify

    ran = []

    def recorded(check, helper):
        def wrapper(*args):
            ran.append(check)
            return helper(*args)

        return wrapper

    for check, helper in CHECK_HELPERS.items():
        monkeypatch.setattr(verify, helper, recorded(check, getattr(verify, helper)))
    code = main(["verify", "--n", "5", "--suite", name, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    assert ran == [name]


def test_verify_seed_is_any_non_negative_integer(tmp_path, capsys):
    report = tmp_path / "r.json"
    big = ["verify", "--n", "5", "--seed", str(2**70), "--suite", "rhs-equivalence"]
    assert main([*big, "--out", str(report)]) == EXIT_OK
    assert json.loads(report.read_text())["seed"] == 2**70
    report.unlink()
    assert main(["verify", "--n", "5", "--seed", "-1", "--out", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


def test_verify_unknown_check_is_refused_before_any_check_runs(tmp_path, capsys, monkeypatch):
    from sinebracket import verify

    ran = []

    def refuse(name):
        def helper(*args):
            ran.append(name)
            raise AssertionError(f"{name} ran")

        return helper

    for name in CHECK_HELPERS.values():
        monkeypatch.setattr(verify, name, refuse(name))
    code = main(["verify", "--n", "15", "--suite", "bogus", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("error: unknown check 'bogus'; one of: alpha-antisymmetry, ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "{config}"], ["converge", "--n-list", "11,{n}", "--out", "{out}"]],
    ids=["run", "converge"],
)
def test_n_above_the_grid_cap_is_usage_error_before_any_table(tmp_path, capsys, argv):
    n = MAX_TRUNCATION + 2
    cfg_path, _ = _write_config(tmp_path, n=n)
    out = tmp_path / "out"
    argv = [a.format(config=cfg_path, n=n, out=out) for a in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"[3, {MAX_TRUNCATION}], got {n}" in err
    assert not out.exists()
    assert peak < 1_000_000


def test_verify_even_n_is_usage_error(tmp_path, capsys):
    code = main(["verify", "--n", "4", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--n", "4"], ["--n", "5", "--suite", "nope"], ["--n", "5", "--seed", "-1"],
     ["--n", "3", "--counterexample"]],
    ids=["even-n", "unknown-suite", "negative-seed", "counterexample-small-n"],
)
def test_verify_usage_error_creates_no_report_directory(tmp_path, capsys, argv):
    out = tmp_path / "newdir" / "r.json"
    assert main(["verify", *argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_report_path_is_runtime_error(tmp_path, capsys):
    code = main(["verify", "--n", "3", "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_verify_creates_the_report_directory_before_any_check_runs(tmp_path, capsys, monkeypatch):
    from sinebracket import verify

    report = tmp_path / "missing" / "deeper" / "report.json"
    seen = []
    first = verify._table_antisymmetry_residual

    def recorded(grid):
        seen.append(report.parent.is_dir())
        return first(grid)

    monkeypatch.setattr(verify, "_table_antisymmetry_residual", recorded)
    assert main(["verify", "--n", "5", "--all", "--out", str(report)]) == EXIT_OK
    assert seen == [True]
    assert "9/9 checks passed" in capsys.readouterr().out
    assert len(json.loads(report.read_text())["reports"]) == 9
    assert (report.parent / "report.json.meta.json").exists()


@pytest.mark.parametrize(
    "command, stage", [("run", "integrate"), ("verify", "run_identity_suite")]
)
def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch, command, stage):
    # numpy's _ArrayMemoryError is a MemoryError; the stand-in allocates nothing.
    message = "Unable to allocate 111. MiB for an array with shape (3720, 3720)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(sinebracket.cli, stage, refuse)
    cfg_path, _ = _write_config(tmp_path)
    args = ["--config", str(cfg_path)] if command == "run" else ["--n", "5", "--out", "r.json"]
    monkeypatch.chdir(tmp_path)
    assert main([command, *args]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_verify_config_hash_names_the_checks_that_ran(tmp_path):
    modes = {"all": ["--all"], "suite": ["--suite", "killing-form"], "ce": ["--counterexample"]}

    def hashed(name, flags):
        report = tmp_path / f"{name}.json"
        assert main(["verify", "--n", "5", *flags, "--out", str(report)]) == EXIT_OK
        return json.loads((tmp_path / f"{name}.json.meta.json").read_text())["config_hash"]

    hashes = {name: hashed(name, flags) for name, flags in modes.items()}
    assert len(set(hashes.values())) == 3
    assert hashed("all", []) == hashes["all"]  # the default is --all
    assert all(hashed(name, flags) == hashes[name] for name, flags in modes.items())


def test_verify_nan_residual_is_null_beside_its_fail_verdict(tmp_path, capsys, monkeypatch):
    from sinebracket import verify

    monkeypatch.setattr(verify, "_table_antisymmetry_residual", lambda grid: float("nan"))
    out = tmp_path / "report.json"
    argv = ["verify", "--n", "5", "--suite", "alpha-antisymmetry", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    [report] = _strict_json(out)["reports"]
    assert report["max_residual"] is None and report["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_verify_counterexample_only(tmp_path, capsys):
    report = tmp_path / "ce.json"
    code = main(["verify", "--n", "7", "--counterexample", "--out", str(report)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "jacobi-counterexample" in out
    payload = json.loads(report.read_text())
    assert len(payload["reports"]) == 1


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_default_pairs(tmp_path, capsys):
    code = main(["converge", "--n-list", "11,21,41", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "study passed" in capsys.readouterr().out
    table = tmp_path / "convergence.csv"
    assert (tmp_path / "convergence.csv.meta.json").exists()
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["i1", "i2", "j1", "j2"]
    assert rows[0][-1] == "exponent"
    assert len(rows) == 5  # header + four default pairs
    for row in rows[1:]:
        assert 1.8 <= float(row[-1]) <= 2.2
    summary = json.loads((tmp_path / "convergence_summary.json").read_text(encoding="utf-8"))
    assert (tmp_path / "convergence_summary.json.meta.json").exists()
    assert set(summary) == {"n_list", "exponents", "passed", "runtime_s", "peak_rss_mb"}
    assert summary["n_list"] == [11, 21, 41] and summary["passed"] is True
    assert summary["exponents"] == [float(row[-1]) for row in rows[1:]]
    assert summary["runtime_s"] > 0 and summary["peak_rss_mb"] > 0


def test_converge_pairs_file_with_collinear_row(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("i1,i2,j1,j2\n1,0,0,1\n1,0,2,0\n")
    code = main(["converge", "--pairs", str(pairs), "--n-list", "11,21", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "collinear, exact" in capsys.readouterr().out
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2][-1] == ""  # collinear pair carries no exponent


def test_converge_refuses_a_stray_header_row(tmp_path, capsys):
    # a header-like row among the pairs is refused, not skipped: no pair given is lost
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("i1,i2,j1,j2\n1,0,0,1\ni1,2,3,4\n1,1,2,-1\n")
    code = main(["converge", "--pairs", str(pairs), "--n-list", "11,21", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert f"error: {pairs}, line 3: " in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_converge_usage_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["converge", "--pairs", str(empty), "--out", str(tmp_path)]) == EXIT_USAGE
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("1,0,0\n")
    assert main(["converge", "--pairs", str(malformed), "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["converge", "--n-list", "11", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["converge", "--n-list", "pi,11", "--out", str(tmp_path)]) == EXIT_USAGE
    # one distinct size once fitted a "rate" under RankWarning and exited 1
    assert main(["converge", "--n-list", "11,11", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "two distinct truncation sizes" in capsys.readouterr().err
    assert main(["converge", "--n-list", "11,12", "--out", str(tmp_path)]) == EXIT_USAGE
    assert not (tmp_path / "convergence.csv").exists()
    assert (
        main(["converge", "--pairs", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        == EXIT_USAGE
    )
    capsys.readouterr()


def test_converge_non_finite_exponent_is_null_beside_its_failed_verdict(tmp_path, monkeypatch):
    from sinebracket import verify

    exact = verify.alpha_zeitlin
    monkeypatch.setattr(
        verify, "alpha_zeitlin",
        lambda grid, i, j, k: float("nan") if tuple(i) == (1, 1) else exact(grid, i, j, k),
    )
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("1,0,0,1\n1,1,-1,2\n")
    argv = ["converge", "--pairs", str(pairs), "--n-list", "11,21", "--out", str(tmp_path)]
    assert main(argv) == EXIT_CHECK_FAILED
    summary = _strict_json(tmp_path / "convergence_summary.json")
    assert summary["passed"] is False
    assert summary["exponents"][0] == pytest.approx(2.0, abs=0.2) and summary["exponents"][1] is None


# ---------------------------------------------------------------------------
# jacobi-scan
# ---------------------------------------------------------------------------


def test_jacobi_scan_writes_violations(tmp_path, capsys):
    code = main(["jacobi-scan", "--n", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "211200 violating tuples" in out
    assert "52800 after symmetry reduction" in out
    assert "known counterexample tuple: present" in out
    table = tmp_path / "jacobi_violations_n5.csv"
    assert table.exists() and (tmp_path / "jacobi_violations_n5.csv.meta.json").exists()
    with open(table, newline="") as fh:
        assert sum(1 for _ in fh) == 211201
    data = table.read_bytes()
    assert len(data) == 11_035_245
    assert hashlib.sha256(data).hexdigest() == (
        "771c4ae77985be9b7d861b85be36cfb00e69b8c07948a3fde24ff600804396f0"
    )
    summary = json.loads((tmp_path / "scan_summary.json").read_text(encoding="utf-8"))
    assert (tmp_path / "scan_summary.json.meta.json").exists()
    assert set(summary) == {
        "params", "passed", "max_residual", "tolerance", "runtime_s", "stage_s", "peak_rss_mb",
    }
    params = summary["params"]
    assert set(params) == {
        "n", "violations_raw", "violations_deduplicated", "known_tuple_residual",
        "known_tuple_expected",
    }
    assert (params["violations_raw"], params["violations_deduplicated"]) == (211200, 52800)
    assert summary["passed"] is True and summary["max_residual"] <= summary["tolerance"]
    assert set(summary["stage_s"]) == {"scan", "dedupe", "csv_write"}
    assert all(seconds > 0 for seconds in summary["stage_s"].values())
    assert summary["runtime_s"] >= summary["stage_s"]["scan"] + summary["stage_s"]["dedupe"]
    assert summary["peak_rss_mb"] > 0


def test_jacobi_scan_n7_command_is_pinned(tmp_path):
    # one child process, so that its peak RSS is the command's own
    src = Path(sinebracket.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    command = [sys.executable, "-m", "sinebracket.cli", "jacobi-scan", "--n", "7"]
    command += ["--out", str(tmp_path)]
    done = subprocess.run(
        command, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "3894912 violating tuples (973728 after symmetry reduction)" in done.stdout
    table = tmp_path / "jacobi_violations_n7.csv"
    digest = hashlib.sha256()
    try:
        with open(table, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    finally:
        table.unlink()  # 203 MB
    assert digest.hexdigest() == "2ec13a05b02f8bff20ce05c93b8e177e75a52b13b8b1d0aa2046d75434bf52b2"
    summary = json.loads((tmp_path / "scan_summary.json").read_text(encoding="utf-8"))
    params = summary["params"]
    assert (params["violations_raw"], params["violations_deduplicated"]) == (3894912, 973728)
    assert 0 < summary["peak_rss_mb"] < 175  # a per-row int64 sort in the dedupe reached 191.4


def test_jacobi_scan_without_the_known_tuple_fails(tmp_path, capsys, monkeypatch):
    from sinebracket import verify
    from sinebracket.algebra import KNOWN_JACOBI_VIOLATION

    scan = verify.scan_gen_jacobi

    def scan_missing_the_known_tuple(tensor):
        table = scan(tensor)
        keep = np.ones(len(table), dtype=bool)
        keep[table.find(KNOWN_JACOBI_VIOLATION)] = False
        return table[keep]

    monkeypatch.setattr(verify, "scan_gen_jacobi", scan_missing_the_known_tuple)
    assert main(["jacobi-scan", "--n", "5", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    assert "known counterexample tuple: MISSING (residual None)" in capsys.readouterr().out
    summary = json.loads((tmp_path / "scan_summary.json").read_text(encoding="utf-8"))
    # the infinite residual of the missing tuple is null in strict JSON
    assert summary["passed"] is False and summary["max_residual"] is None
    assert summary["params"]["violations_raw"] == 211199


def test_jacobi_scan_rejects_large_n(tmp_path, capsys):
    assert main(["jacobi-scan", "--n", "9", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser surface
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_parser_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    from sinebracket import cli

    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["run", "--config", "a.json", "--dt", "0.5"])
    second = cli._parser().parse_args(["run", "--config", "b.json"])
    assert (first.config, first.dt) == ("a.json", 0.5)
    assert (second.config, second.dt, second.steps) == ("b.json", None, None)


def test_check_failure_maps_to_exit_one(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("1,0,2,0\n")  # only a collinear pair: nothing to fit
    code = main(["converge", "--pairs", str(pairs), "--n-list", "11,21", "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED


def test_package_all_names_public_objects_only():
    # the import list of the package is the public API; submodules are not part of it
    assert "scan_gen_jacobi" in sinebracket.__all__ and "algebra" not in sinebracket.__all__
    for name in sinebracket.__all__:
        assert hasattr(sinebracket, name), name
        assert not isinstance(getattr(sinebracket, name), types.ModuleType), name


# The public API, in sorted order: adding or removing a public name is an
# edit of this list.  Helpers that only tests call live in tests/oracles.py.
PUBLIC_API = [
    "CheckReport",
    "ConsistencyError",
    "ContinuumNambuTensor",
    "DenseKillingForm",
    "DenseNambuTensor",
    "DiagnosticsRecord",
    "Functional",
    "GenericAlgebra",
    "IntegratorConfig",
    "JacobiViolation",
    "KNOWN_JACOBI_VIOLATION",
    "ModeField",
    "ModePolynomial",
    "SineNambuTensor",
    "StepConvergenceError",
    "TruncationGrid",
    "ValidationError",
    "ViolationTable",
    "WaveVector",
    "alpha_continuum",
    "alpha_zeitlin",
    "alpha_zeitlin_dense",
    "build_grid",
    "config_hash",
    "construct_generic",
    "dedupe_violations",
    "energy",
    "enstrophy",
    "enstrophy_functional",
    "enstrophy_gradient",
    "format_reports",
    "from_physical",
    "gen_jacobi_residual_known",
    "gen_jacobi_terms",
    "hamiltonian_functional",
    "hamiltonian_gradient",
    "integrate",
    "killing_bruteforce",
    "killing_closed",
    "lie_poisson_bracket",
    "lift",
    "load_generic_constants",
    "load_physical_field",
    "lower",
    "nambu_bracket",
    "random_real_polynomial",
    "random_shell_field",
    "rhs_fast",
    "rhs_from_lie_poisson",
    "rhs_naive",
    "rhs_nambu",
    "run_convergence_study",
    "run_counterexample",
    "run_identity_suite",
    "run_jacobi_scan",
    "save_diagnostics",
    "save_mode_field",
    "save_violations",
    "scan_gen_jacobi",
    "step",
    "support_nambu_bracket",
    "validate_reality",
    "write_json",
    "write_metadata",
]


def test_package_all_is_the_pinned_public_api():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(sinebracket.__all__) == PUBLIC_API


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names of ``path`` that it never loads and does not
    list in its ``__all__``; an import line marked ``# noqa: F401`` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            loaded |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    src = Path(sinebracket.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert len(modules) == 8
    assert [u for p in modules for u in _unused_imports(p)] == []


def test_unused_import_check_sees_annotations_but_not_fields(tmp_path):
    # an annotation loads its names; a dataclass field such as ``energy: float``
    # stores one, so an import of that name stays unused
    module = tmp_path / "m.py"
    module.write_text(
        "from a import energy, Field, kept  # noqa: F401\n"
        "from b import Grid, enstrophy\n"
        "import c.d\n"
        "class R:\n"
        "    energy: float\n"
        "    enstrophy: Grid\n"
        "c.d.run(kept)\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["m.py:2: enstrophy"]
