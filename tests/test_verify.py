"""Identity suite, counterexample report, convergence study, scan report."""

import math

import numpy as np
import pytest

from sinebracket import algebra, verify
from sinebracket.algebra import _pair_tables
from sinebracket.dynamics import enstrophy_functional, hamiltonian_functional, random_shell_field
from sinebracket.functionals import Functional, random_real_polynomial
from sinebracket.grid import build_grid
from sinebracket.verify import (
    _are_residue_tables,
    _jacobi_orbit_max,
    _residue_cube_max,
    _table_jacobi_residual,
    format_reports,
    gen_jacobi_residual_known,
    run_convergence_study,
    run_counterexample,
    run_identity_suite,
    run_jacobi_scan,
)

import oracles

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


@pytest.mark.parametrize("seed", [0, 1])
def test_dropping_a_check_leaves_the_other_residuals_bitwise(monkeypatch, seed):
    # Each check draws from a generator keyed by its own name, so removing
    # the first drawing check moves none of the draws of the two after it.
    full = {r.name: r.max_residual for r in run_identity_suite(5, seed=seed)}
    kept = tuple(c for c in verify.IDENTITY_CHECKS if c[0] != "casimir-commutes")
    monkeypatch.setattr(verify, "IDENTITY_CHECKS", kept)
    dropped = {r.name: r.max_residual for r in run_identity_suite(5, seed=seed)}
    del full["casimir-commutes"]
    assert dropped == full


# Every residual of `verify --n N --all` at N = 5 and 15, as float.hex: a
# change to the arithmetic of any check moves at least one of them.
PINNED_RESIDUALS = {
    (5, 0): {
        "alpha-antisymmetry": "0x0.0p+0",
        "jacobi-identity": "0x1.ef4bef2f80fe3p-52",
        "killing-form": "0x1.2756b8fe29163p-51",
        "orthogonality": "0x1.8000000000000p-50",
        "casimir-commutes": "0x1.760f2ad330f60p-56",
        "nambu-reduction": "0x1.eb1a932b23c1dp-53",
        "nambu-antisymmetry": "0x0.0p+0",
        "rhs-equivalence": "0x1.2828e357d3325p-53",
        "jacobi-counterexample": "0x0.0p+0",
    },
    (5, 1): {
        "alpha-antisymmetry": "0x0.0p+0",
        "jacobi-identity": "0x1.ef4bef2f80fe3p-52",
        "killing-form": "0x1.2756b8fe29163p-51",
        "orthogonality": "0x1.8000000000000p-50",
        "casimir-commutes": "0x1.9cc4c4405b8acp-55",
        "nambu-reduction": "0x1.0363bca68706ap-52",
        "nambu-antisymmetry": "0x0.0p+0",
        "rhs-equivalence": "0x1.50fcfbe4ba8e2p-53",
        "jacobi-counterexample": "0x0.0p+0",
    },
    (15, 0): {
        "alpha-antisymmetry": "0x0.0p+0",
        "jacobi-identity": "0x1.02d3f83b629b7p-51",
        "killing-form": "0x1.f999bb1d82630p-49",
        "orthogonality": "0x1.2c00000000000p-45",
        "casimir-commutes": "0x1.126ceb23c5c25p-56",
        "nambu-reduction": "0x1.05653b23d39f3p-54",
        "nambu-antisymmetry": "0x0.0p+0",
        "rhs-equivalence": "0x1.35fee8cc605a6p-52",
        "jacobi-counterexample": "0x0.0p+0",
    },
    (15, 1): {
        "alpha-antisymmetry": "0x0.0p+0",
        "jacobi-identity": "0x1.02d3f83b629b7p-51",
        "killing-form": "0x1.f999bb1d82630p-49",
        "orthogonality": "0x1.2c00000000000p-45",
        "casimir-commutes": "0x1.004581242c28dp-55",
        "nambu-reduction": "0x1.883793adea81dp-54",
        "nambu-antisymmetry": "0x0.0p+0",
        "rhs-equivalence": "0x1.2f31ea19834f6p-52",
        "jacobi-counterexample": "0x0.0p+0",
    },
}


@pytest.mark.parametrize("n, seed", list(PINNED_RESIDUALS))
def test_suite_residuals_are_pinned_bitwise(n, seed):
    reports = [*run_identity_suite(n, seed), run_counterexample(n)]
    measured = {r.name: float(r.max_residual).hex() for r in reports}
    assert measured == PINNED_RESIDUALS[n, seed]


def _casimir_residual_per_pair(grid, rng):
    # Reference: one bilinear_with_scale per (field, observable), drawing
    # from rng as the check does.
    e = enstrophy_functional(grid)
    shell_max = min(8.0, float(grid.half**2))
    fields = [
        random_shell_field(grid, seed=int(rng.integers(2**31)), shell_max=shell_max, amplitude=2.0)
        for _ in range(2)
    ]
    observables = [hamiltonian_functional(grid)] + [
        random_real_polynomial(grid, rng).as_functional() for _ in range(2)
    ]
    worst = 0.0
    for field in fields:
        matrix = algebra._lie_poisson_matrix(grid, field)
        ge = e.gradient(field)
        for f in observables:
            value, scale = oracles.bilinear_with_scale(matrix, f.gradient(field), ge)
            worst = verify._nanmax(worst, abs(value) / max(scale, 1e-300))
    return worst


def _reduction_residual_per_pair(grid, rng):
    # Reference: both gradients and both bilinear_with_scale calls per pair.
    e = enstrophy_functional(grid)
    pool = [hamiltonian_functional(grid)] + [
        random_real_polynomial(grid, rng).as_functional() for _ in range(3)
    ]
    shell_max = min(8.0, float(grid.half**2))
    worst = 0.0
    for _ in range(2):
        field = random_shell_field(
            grid, seed=int(rng.integers(2**31)), shell_max=shell_max, amplitude=2.0
        )
        lp = algebra._lie_poisson_matrix(grid, field)
        nm = algebra._nambu_matrix(grid, e.gradient(field))
        for f1 in pool[:2]:
            for f2 in pool[1:]:
                g1, g2 = f1.gradient(field), f2.gradient(field)
                v_n, s_n = oracles.bilinear_with_scale(nm, g1, g2)
                v_l, s_l = oracles.bilinear_with_scale(lp, g1, g2)
                worst = verify._nanmax(worst, abs(v_n - v_l) / max(s_n, s_l, 1e-300))
    return worst


@pytest.mark.parametrize("n", [5, 9, 15])
@pytest.mark.parametrize(
    "name, check, reference",
    [
        ("casimir-commutes", "_casimir_residual", _casimir_residual_per_pair),
        ("nambu-reduction", "_reduction_residual", _reduction_residual_per_pair),
    ],
)
def test_shared_product_checks_are_bitwise_the_per_pair_loops(n, name, check, reference):
    grid = build_grid(n)
    for seed in range(6):
        key = [seed, *name.encode()]
        measured = getattr(verify, check)(grid, np.random.default_rng(key))
        expected = reference(grid, np.random.default_rng(key))
        assert measured.hex() == expected.hex(), seed


def test_reduction_evaluates_each_gradient_once_per_field(monkeypatch):
    # two fields, each with four pool gradients and one enstrophy gradient
    calls = []
    gradient = Functional.gradient
    monkeypatch.setattr(
        Functional, "gradient", lambda self, field: calls.append(self) or gradient(self, field)
    )
    run_identity_suite(5, only="nambu-reduction")
    assert len(calls) == 10


def _table_jacobi_residual_per_row(grid):
    # Reference: one row of the wrap table clipped per iteration, on the
    # tables the suite reads.
    t = verify._pair_tables(grid.n)
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


@pytest.mark.parametrize("n", [3, 5, 7, 15])
def test_table_jacobi_residual_matches_per_row_reference(n):
    grid = build_grid(n)
    assert _table_jacobi_residual(grid) == _table_jacobi_residual_per_row(grid)


def _sign_flipped_tables(n):
    # One sine entry with its sign flipped: the table is no longer antisymmetric.
    tables = _pair_tables(n)
    a, b = np.argwhere(tables.sin_cross != 0.0)[7]
    flipped = tables.sin_cross.copy()
    flipped[a, b] *= -1.0
    return tables._replace(sin_cross=flipped)


@pytest.mark.parametrize(
    "n, expected", [(3, 2.0), (5, 2.0000000000000004), (9, 0.6945927106677219)]
)
def test_table_jacobi_residual_matches_reference_on_a_corrupted_table(n, expected, monkeypatch):
    corrupted = _sign_flipped_tables(n)
    monkeypatch.setattr(verify, "_pair_tables", lambda n: corrupted)
    grid = build_grid(n)
    residual = _table_jacobi_residual(grid)
    assert residual == _table_jacobi_residual_per_row(grid) == expected


def _jacobi_orbit_reference(s, w):
    # Reference: every canonical triple (a the smallest index) in Python,
    # summed as (t1 + t2) + t3.
    worst = 0.0
    size = len(s)
    for a in range(size):
        for i in range(a, size):
            for j in range(a, size):
                t1 = s[a, i] * s[w[a, i], j]
                t2 = s[i, j] * s[w[i, j], a]
                t3 = s[j, a] * s[w[j, a], i]
                worst = max(worst, abs((t1 + t2) + t3))
    return worst


def _wrap_asymmetric_tables(n):
    # w(1, 0) pointed at the next retained mode, so w(1, 0) != w(0, 1).
    tables = _pair_tables(n)
    wrap = tables.wrap_index.copy()
    wrap[1, 0] = (wrap[1, 0] + 1) % len(wrap)
    return tables._replace(wrap_index=wrap)


def _random_tables(n):
    # Tables with no structure at all: a kernel that read w or s at a
    # transposed or rotated position would move the maximum.
    size = n * n - 1
    rng = np.random.default_rng(n)
    return _pair_tables(n)._replace(
        sin_cross=rng.normal(size=(size, size)), wrap_index=rng.integers(size, size=(size, size))
    )


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize(
    "build", [_pair_tables, _sign_flipped_tables, _wrap_asymmetric_tables, _random_tables]
)
def test_jacobi_orbit_kernel_is_bitwise_the_canonical_triple_reference(n, build):
    tables = build(n)
    w = np.clip(tables.wrap_index, 0, None)
    assert _jacobi_orbit_max(tables.sin_cross, w) == _jacobi_orbit_reference(tables.sin_cross, w)


@pytest.mark.parametrize("n", [3, 5, 7, 15])
def test_table_jacobi_residual_is_within_rounding_below_every_rotation(n):
    # The orbit scan keeps one rotation of each triple, so its residual is
    # one of the all-rotations values: no larger, and smaller by at most
    # the rounding spread of a three-term sum, 6 eps of the term scale.
    grid = build_grid(n)
    old = _table_jacobi_residual_per_row(grid)
    new = _table_jacobi_residual(grid)
    assert old - 6 * np.finfo(float).eps <= new <= old


@pytest.mark.parametrize(
    "n, expected",
    [
        (3, 0.0),
        (5, 4.296013357829914e-16),
        (7, 2.628135418296424e-16),
        (9, 3.4342235859266996e-16),
        (15, 4.4899501906260685e-16),
    ],
)
def test_table_jacobi_residual_is_pinned(n, expected):
    # No BLAS call enters the kernel, so the residual is reproducible.
    assert _table_jacobi_residual(build_grid(n)) == expected


@pytest.mark.parametrize("n", range(3, 23, 2))
def test_residue_cube_is_bitwise_the_orbit_scan_on_the_package_tables(n):
    tables = _pair_tables(n)
    assert _are_residue_tables(build_grid(n), tables)
    w = np.clip(tables.wrap_index, 0, None)
    assert _residue_cube_max(n) == _jacobi_orbit_max(tables.sin_cross, w)


def _nan_planted_tables(n):
    tables = _pair_tables(n)
    s = tables.sin_cross.copy()
    s[1, 2] = np.nan
    return tables._replace(sin_cross=s)


@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize(
    "build", [_sign_flipped_tables, _wrap_asymmetric_tables, _random_tables, _nan_planted_tables]
)
def test_residue_test_rejects_tables_that_are_not_residue_tables(n, build):
    assert not _are_residue_tables(build_grid(n), build(n))


def test_jacobi_check_on_the_package_tables_does_not_run_the_orbit_scan(monkeypatch):
    def refuse(s, w):
        raise AssertionError("orbit scan ran on residue tables")

    monkeypatch.setattr(verify, "_jacobi_orbit_max", refuse)
    (report,) = run_identity_suite(15, only="jacobi-identity")
    assert report.passed
    assert report.max_residual == 4.4899501906260685e-16


def test_wrap_table_without_symmetry_fails_the_jacobi_check(monkeypatch):
    # With w(1, 0) != w(0, 1) the orbit scan, which assumes no symmetry of
    # w, must see the fault that the all-rotations reference sees.
    grid = build_grid(5)
    corrupted = _wrap_asymmetric_tables(5)
    assert corrupted.sin_cross[1, 0] != 0.0
    assert corrupted.wrap_index[1, 0] != corrupted.wrap_index[0, 1]
    monkeypatch.setattr(verify, "_pair_tables", lambda n: corrupted)
    (report,) = run_identity_suite(5, only="jacobi-identity")
    assert not report.passed
    assert _table_jacobi_residual_per_row(grid) > report.tolerance


def test_identity_suite_rejects_bad_n():
    for bad in (4, 2, 17, 1, -5):
        with pytest.raises(ValueError):
            run_identity_suite(bad)


def test_identity_suite_cap_is_n_15():
    with pytest.raises(ValueError, match="identity suite is capped at n = 15"):
        run_identity_suite(17)


def test_fault_injection_is_caught(monkeypatch):
    # One sine entry with its sign flipped, seen by every check that reads
    # the pair tables of the algebra or of the suite itself.
    corrupted = _sign_flipped_tables(5)
    for module in (algebra, verify):
        monkeypatch.setattr(module, "_pair_tables", lambda n: corrupted)
    reports = {r.name: r for r in run_identity_suite(5)}
    for name in ("alpha-antisymmetry", "jacobi-identity", "killing-form", "nambu-antisymmetry"):
        assert not reports[name].passed, name
    # the discrete orthogonality reads the cosine table only
    assert reports["orthogonality"].passed


def test_fault_injection_on_the_wrap_table_is_caught(monkeypatch):
    # The Killing kernel closes alpha_{a,k}^l with b = (k-l)|n and keeps the
    # term only where the table's (b+l)|n reads back k; rewriting that one
    # entry drops that nonzero term from K_ab, and the check must see it.
    grid = build_grid(5)
    tables = _pair_tables(5)
    a, k = grid.index_of((1, 0)), grid.index_of((0, 1))
    l = tables.wrap_index[a, k]
    b = tables.wrap_index[k, grid.neg_index[l]]
    assert tables.wrap_index[b, l] == k
    term = algebra.lie_poisson_prefactor(5) ** 2 * tables.sin_cross[a, k] * tables.sin_cross[b, l]
    clean = verify.killing_bruteforce(grid)[a, b]
    wrap = tables.wrap_index.copy()
    wrap[b, l] = -1
    corrupted = tables._replace(wrap_index=wrap)
    for module in (algebra, verify):
        monkeypatch.setattr(module, "_pair_tables", lambda n: corrupted)
    kappa = abs(algebra.killing_diagonal(5))
    assert abs(term) > 0.05 * kappa
    assert verify.killing_bruteforce(grid)[a, b] == pytest.approx(clean - term, abs=1e-14 * kappa)
    reports = {r.name: r for r in run_identity_suite(5)}
    assert not reports["killing-form"].passed
    # the sine table is untouched
    assert reports["alpha-antisymmetry"].passed


def _nan_at_0_1(fn):
    # fn with a NaN written into a copy of its (matrix) result at [0, 1]
    def planted(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        out[0, 1] = np.nan
        return out

    return planted


def _orthogonality_nan_last(fn):
    # The NaN goes to the last witness, past the first one that max() keeps.
    def planted(grid, witnesses):
        totals, expected = fn(grid, witnesses)
        totals[-1] = np.nan
        return totals, expected

    return planted


def _nan_in_the_sine_table(fn):
    # The package's pair tables with a NaN at sin_cross[1, 2].
    return _nan_planted_tables


@pytest.mark.parametrize(
    "name, helper, plant",
    [
        ("alpha-antisymmetry", "_pair_tables", _nan_in_the_sine_table),
        ("killing-form", "_pair_tables", _nan_in_the_sine_table),
        ("orthogonality", "_orthogonality_sum", _orthogonality_nan_last),
        ("casimir-commutes", "_lie_poisson_matrix", _nan_at_0_1),
        ("nambu-reduction", "_lie_poisson_matrix", _nan_at_0_1),
        ("nambu-antisymmetry", "_pair_tables", _nan_in_the_sine_table),
        ("rhs-equivalence", "rhs_fast", _nan_at_0_1),
    ],
)
def test_a_nan_residual_fails_its_check(name, helper, plant, monkeypatch):
    # Planted in each module that holds the helper: the Killing kernel reads algebra's tables.
    for module in (algebra, verify):
        if hasattr(module, helper):
            monkeypatch.setattr(module, helper, plant(getattr(module, helper)))
    (report,) = run_identity_suite(5, only=name)
    assert math.isnan(report.max_residual)
    assert report.passed is False


def test_a_nan_in_the_sine_table_fails_the_jacobi_check(monkeypatch):
    tables = _pair_tables(5)
    s = tables.sin_cross.copy()
    s[1, 2] = np.nan
    # the orbit scan itself carries the NaN, not only the term scale
    assert math.isnan(_jacobi_orbit_max(s, np.clip(tables.wrap_index, 0, None)))
    corrupted = tables._replace(sin_cross=s)
    monkeypatch.setattr(verify, "_pair_tables", lambda n: corrupted)
    (report,) = run_identity_suite(5, only="jacobi-identity")
    assert math.isnan(report.max_residual)
    assert report.passed is False


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


@pytest.mark.parametrize("position", [0, 1, 2])
def test_counterexample_with_a_nan_summand_fails(position, monkeypatch):
    def planted(tensor, *tup):
        terms = list(algebra.gen_jacobi_terms(tensor, *tup))
        terms[position] = math.nan
        return tuple(terms)

    monkeypatch.setattr(verify, "gen_jacobi_terms", planted)
    assert run_counterexample(5).passed is False


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


def test_convergence_with_a_nan_exponent_fails(monkeypatch):
    # The NaN goes to the second pair, past the first one that max() keeps.
    exact = verify.alpha_zeitlin

    def planted(grid, i, j, k):
        return math.nan if tuple(i) == (1, 1) else exact(grid, i, j, k)

    monkeypatch.setattr(verify, "alpha_zeitlin", planted)
    report = run_convergence_study([((1, 0), (0, 1)), ((1, 1), (-1, 2))], n_list=(11, 21))
    assert math.isnan(report.params["pairs"][1]["exponent"])
    assert report.passed is False


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
    assert set(report.params["stage_s"]) == {"scan", "dedupe"}
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
