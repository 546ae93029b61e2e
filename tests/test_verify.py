"""Identity suite, counterexample report, convergence study, scan report."""

import math

import numpy as np
import pytest

from sinebracket import algebra, verify
from sinebracket.algebra import _pair_tables
from sinebracket.grid import build_grid
from sinebracket.verify import (
    _table_jacobi_residual,
    format_reports,
    gen_jacobi_residual_known,
    run_convergence_study,
    run_counterexample,
    run_identity_suite,
    run_jacobi_scan,
)

SUITE_ORDER = [
    "alpha-antisymmetry",
    "jacobi-identity",
    "killing-form",
    "orthogonality",
    "casimir-commutes",
    "nambu-reduction",
    "nambu-antisymmetry",
    "rhs-equivalence",
]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_identity_suite_passes(n):
    reports = run_identity_suite(n)
    assert [r.name for r in reports] == SUITE_ORDER
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_residual} > {r.tolerance}"
        assert r.max_residual <= r.tolerance
        assert r.params["n"] == n
        assert r.runtime_s >= 0.0


def test_identity_suite_is_deterministic():
    a = run_identity_suite(5, seed=0)
    b = run_identity_suite(5, seed=0)
    assert [r.max_residual for r in a] == [r.max_residual for r in b]


def test_identity_suite_other_seed_passes():
    assert all(r.passed for r in run_identity_suite(5, seed=12345))


def _table_jacobi_residual_per_row(grid):
    # Reference: one row of the wrap table clipped per iteration.
    t = _pair_tables(grid.n)
    s, w = t.sin_cross, t.wrap_index
    worst = 0.0
    term_scale = 0.0
    for a in range(grid.size):
        wa = np.clip(w[a], 0, None)
        t1 = s[a][:, None] * s[wa, :]
        t2 = s * s[np.clip(w, 0, None), a]
        wk = np.clip(w[:, a], 0, None)
        t3 = (s[:, a][:, None] * s[wk, :]).T
        total = t1 + t2 + t3
        worst = max(worst, float(np.max(np.abs(total))))
        for term in (t1, t2, t3):
            term_scale = max(term_scale, float(np.max(np.abs(term))))
    return worst / term_scale if term_scale else 0.0


@pytest.mark.parametrize("n", [5, 7])
def test_table_jacobi_residual_matches_per_row_reference(n):
    grid = build_grid(n)
    assert _table_jacobi_residual(grid) == _table_jacobi_residual_per_row(grid)


def test_identity_suite_rejects_bad_n():
    for bad in (4, 2, 17, 1, -5):
        with pytest.raises(ValueError):
            run_identity_suite(bad)


def test_fault_injection_is_caught(monkeypatch):
    # One sine entry with its sign flipped, seen by every check that reads
    # the pair tables of the algebra or of the suite itself.
    tables = _pair_tables(5)
    a, b = np.argwhere(tables.sin_cross != 0.0)[7]
    flipped = tables.sin_cross.copy()
    flipped[a, b] *= -1.0
    corrupted = tables._replace(sin_cross=flipped)
    for module in (algebra, verify):
        monkeypatch.setattr(module, "_pair_tables", lambda n: corrupted)
    reports = {r.name: r for r in run_identity_suite(5)}
    for name in ("alpha-antisymmetry", "jacobi-identity", "killing-form", "nambu-antisymmetry"):
        assert not reports[name].passed, name
    # the discrete orthogonality reads the cosine table only
    assert reports["orthogonality"].passed


def test_report_serialization_round():
    report = run_identity_suite(3)[0]
    d = report.to_dict()
    assert d["name"] == "alpha-antisymmetry"
    assert set(d) >= {"name", "params", "max_residual", "tolerance", "passed", "runtime_s"}
    assert d["passed"] is True


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 7])
def test_counterexample_report(n):
    report = run_counterexample(n)
    assert report.name == "jacobi-counterexample"
    assert report.passed
    assert report.tolerance == 0.0
    zt = report.params["zeitlin_summands"]
    ct = report.params["continuum_summands"]
    assert zt[0] == pytest.approx(gen_jacobi_residual_known(n), rel=1e-13)
    assert zt[1] == 0.0 and zt[2] == 0.0
    assert ct[0] > 0.0 and ct[1] == 0.0 and ct[2] == 0.0


def test_counterexample_rejects_small_or_even_n():
    for bad in (3, 4, 1):
        with pytest.raises(ValueError):
            run_counterexample(bad)


def test_known_residual_closed_form():
    # ((n/2pi) sin(2pi/n))^2 / (2pi)^8, increasing toward 1/(2pi)^8
    v5 = gen_jacobi_residual_known(5)
    v7 = gen_jacobi_residual_known(7)
    limit = 1.0 / (2.0 * math.pi) ** 8
    assert 0 < v5 < v7 < limit


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


def test_convergence_study_default_band():
    pairs = [((1, 0), (0, 1)), ((1, 1), (-1, 2)), ((1, 2), (2, 1))]
    report = run_convergence_study(pairs, n_list=(11, 21, 41))
    assert report.name == "alpha-convergence"
    assert report.passed
    for row in report.params["pairs"]:
        assert not row["collinear"]
        assert 1.8 <= row["exponent"] <= 2.2
        errs = [row["errors"][str(n)] for n in (11, 21, 41)]
        assert errs[0] > errs[1] > errs[2] > 0.0
        diffs = [row["bracket_diffs"][str(n)] for n in (11, 21, 41)]
        assert diffs[0] > diffs[1] > diffs[2] > 0.0


def test_convergence_study_wide_range_pair():
    report = run_convergence_study([((2, 1), (1, 3))], n_list=(21, 41, 81, 161))
    assert report.passed
    assert 1.8 <= report.params["pairs"][0]["exponent"] <= 2.2


def test_convergence_collinear_rows_are_exact_zero():
    report = run_convergence_study([((1, 0), (2, 0)), ((1, 0), (0, 1))], n_list=(11, 21))
    rows = report.params["pairs"]
    assert rows[0]["collinear"] and rows[0]["exponent"] is None
    assert all(v == 0.0 for v in rows[0]["errors"].values())
    assert report.passed  # the non-collinear pair still anchors the fit


def test_convergence_only_collinear_fails():
    report = run_convergence_study([((1, 0), (2, 0))], n_list=(11, 21))
    assert not report.passed
    assert report.max_residual == math.inf


def test_convergence_study_input_validation():
    with pytest.raises(ValueError):
        run_convergence_study([])
    with pytest.raises(ValueError):
        run_convergence_study([((1, 0), (0, 1))], n_list=(11,))
    with pytest.raises(ValueError, match="smallest grid"):
        run_convergence_study([((5, 5), (1, 0))], n_list=(11, 21))
    # a repeated size counts once; float sizes are refused, not truncated
    with pytest.raises(ValueError, match="two distinct truncation sizes"):
        run_convergence_study([((1, 0), (0, 1))], n_list=(11, 11))
    with pytest.raises(ValueError, match="must be an integer"):
        run_convergence_study([((1, 0), (0, 1))], n_list=(11, 21.5))
    report = run_convergence_study([((1, 0), (0, 1))], n_list=(21, 11, 21))
    assert report.params["n_list"] == [11, 21]
    assert list(report.params["pairs"][0]["errors"]) == ["11", "21"]


def test_convergence_bracket_diffs_shrink_quadratically():
    report = run_convergence_study([((1, 0), (0, 1))], n_list=(11, 21, 41))
    diffs = report.params["pairs"][0]["bracket_diffs"]
    ratio = diffs["11"] / diffs["41"]
    assert 8.0 <= ratio <= 20.0  # about (41/11)^2 with preasymptotics


# ---------------------------------------------------------------------------
# scan report
# ---------------------------------------------------------------------------


def test_jacobi_scan_report():
    report, violations = run_jacobi_scan(5)
    assert report.passed
    assert report.params["violations_raw"] == len(violations) == 211200
    assert report.params["violations_deduplicated"] == 52800
    assert report.params["known_tuple_residual"] == pytest.approx(
        gen_jacobi_residual_known(5), rel=1e-13
    )


def test_jacobi_scan_rejects_other_sizes():
    for bad in (3, 9, 4):
        with pytest.raises(ValueError):
            run_jacobi_scan(bad)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_format_reports_table():
    reports = run_identity_suite(3)
    text = format_reports(reports)
    assert "8/8 checks passed" in text
    for name in SUITE_ORDER:
        assert name in text
    assert "PASS" in text and "FAIL" not in text
