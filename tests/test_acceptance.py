"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they are produced.  Criterion 8 carries a deliberate failing clause;
see README.md ("A documented impossibility") for the analysis.
"""

import math
import time

import numpy as np

from sinebracket.algebra import (
    KNOWN_JACOBI_VIOLATION,
    ContinuumNambuTensor,
    construct_generic,
    gen_jacobi_terms,
    lie_poisson_bracket,
    nambu_bracket,
    scan_gen_jacobi,
)
from sinebracket.cli import DEFAULT_CONVERGENCE_PAIRS
from sinebracket.dynamics import (
    IntegratorConfig,
    enstrophy_functional,
    hamiltonian_functional,
    integrate,
    lift,
    lower,
    random_shell_field,
    rhs_fast,
    rhs_from_lie_poisson,
    rhs_naive,
    rhs_nambu,
)
from sinebracket.functionals import random_real_polynomial
from sinebracket.grid import ModeField, build_grid, enstrophy
from sinebracket.verify import (
    gen_jacobi_residual_known,
    run_convergence_study,
    run_counterexample,
    run_identity_suite,
    run_jacobi_scan,
)

from oracles import quadratic_casimir

TWO_PI = 2.0 * math.pi

# pinned integration scenario for the conservation criterion
CRIT5 = dict(n=11, seed=6, shell_min=1.0, shell_max=4.0, amplitude=6.0, dt=1e-3, steps=1000)


def _verdict(number: int, ok: bool, description: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def test_criterion_1_identity_suite():
    bounds = {
        "alpha-antisymmetry": 1e-15,
        "jacobi-identity": 1e-12,
        "killing-form": 1e-12,
        "orthogonality": 1e-11,
    }
    budgets = {3: 600.0, 5: 60.0, 7: 600.0}
    ok = True
    for n in (3, 5, 7):
        started = time.perf_counter()
        reports = {r.name: r for r in run_identity_suite(n)}
        elapsed = time.perf_counter() - started
        ok &= elapsed <= budgets[n]
        for name, bound in bounds.items():
            ok &= reports[name].max_residual <= bound
    assert _verdict(
        1, ok, "structure constants, Jacobi, Killing, orthogonality at n in {3, 5, 7}"
    )


def test_criterion_2_casimir_is_enstrophy():
    grid = build_grid(7)
    ok = True
    for seed in range(20):
        field = random_shell_field(grid, seed=seed, shell_max=9.0, amplitude=2.0)
        reference = enstrophy(field)
        ok &= abs(quadratic_casimir(grid, field) - reference) <= 1e-12 * abs(reference)
    assert _verdict(2, ok, "scaled quadratic Casimir equals the enstrophy on 20 random fields")


def test_criterion_3_casimir_property_and_reduction():
    grid = build_grid(7)
    rng = np.random.default_rng(0)
    e = enstrophy_functional(grid)
    doubles, casimir_brackets, reduction_gaps = [], [], []
    for trial in range(20):
        field = random_shell_field(grid, seed=100 + trial, shell_max=9.0, amplitude=1.5)
        f1 = random_real_polynomial(grid, rng).as_functional("f1")
        f2 = random_real_polynomial(grid, rng).as_functional("f2")
        double = lie_poisson_bracket(grid, field, f1, f2)
        triple = nambu_bracket(grid, field, f1, f2, e)
        doubles.append(abs(double))
        casimir_brackets.append(abs(lie_poisson_bracket(grid, field, f1, e)))
        reduction_gaps.append(abs(triple - double))
    scale = max(doubles)
    ok = scale > 0.0
    ok &= max(casimir_brackets) <= 1e-12 * scale
    ok &= max(reduction_gaps) <= 1e-12 * scale
    assert _verdict(
        3, ok, "{F, E} = 0 and {F1, F2, E} = {F1, F2} on 20 random polynomial pairs"
    )


def _rhs_fast_modes(grid, field):
    """rhs_fast steps the Hermitian matrix; compare it in modes."""
    return lower(rhs_fast(grid, lift(field)))


def test_criterion_4_tendency_routes_agree():
    ok = True
    for n in (5, 9, 17):
        grid = build_grid(n)
        for seed in range(10):
            field = random_shell_field(
                grid, seed=seed, shell_max=min(8.0, 2.0 * grid.half**2), amplitude=3.0
            )
            outs = [r(grid, field).coeffs for r in (rhs_naive, rhs_from_lie_poisson, rhs_nambu, _rhs_fast_modes)]
            scale = np.max(np.abs(outs[0]))
            ok &= scale > 0.0
            worst = max(
                np.max(np.abs(a - b)) for x, a in enumerate(outs) for b in outs[x + 1 :]
            )
            ok &= worst <= 1e-10 * scale
    assert _verdict(4, ok, "four tendency routes agree on 10 random fields at n in {5, 9, 17}")


def test_criterion_5_conservation_and_order():
    grid = build_grid(CRIT5["n"])
    field = random_shell_field(
        grid,
        seed=CRIT5["seed"],
        shell_min=CRIT5["shell_min"],
        shell_max=CRIT5["shell_max"],
        amplitude=CRIT5["amplitude"],
    )
    started = time.perf_counter()
    _, coarse = integrate(
        field,
        IntegratorConfig(dt=CRIT5["dt"], steps=CRIT5["steps"], record_every=CRIT5["steps"]),
        rhs=rhs_fast,
    )
    _, fine = integrate(
        field,
        IntegratorConfig(dt=CRIT5["dt"] / 2, steps=2 * CRIT5["steps"], record_every=2 * CRIT5["steps"]),
        rhs=rhs_fast,
    )
    elapsed = time.perf_counter() - started
    drift_h, drift_e = coarse[-1].drift_energy, coarse[-1].drift_enstrophy
    ratio = drift_h / fine[-1].drift_energy
    ok = drift_h <= 1e-8 and drift_e <= 1e-8
    ok &= 12.0 <= ratio <= 20.0
    ok &= elapsed <= 60.0
    assert _verdict(
        5, ok, f"rk4 drifts {drift_h:.2e}/{drift_e:.2e} <= 1e-8, halving ratio {ratio:.1f} in [12, 20]"
    )


def test_criterion_6_continuum_convergence():
    report = run_convergence_study(DEFAULT_CONVERGENCE_PAIRS, n_list=(11, 21, 41, 81))
    exponents = [
        row["exponent"] for row in report.params["pairs"] if not row["collinear"]
    ]
    ok = len(exponents) >= 3
    ok &= all(1.8 <= e <= 2.2 for e in exponents)
    ok &= report.passed
    assert _verdict(
        6, ok, f"truncation-error exponents {['%.3f' % e for e in exponents]} in [1.8, 2.2]"
    )


def test_criterion_7_counterexample_and_scan():
    started = time.perf_counter()
    report = run_counterexample(5)
    zt = report.params["zeitlin_summands"]
    ct = report.params["continuum_summands"]
    ok = report.passed
    ok &= abs(zt[0] - gen_jacobi_residual_known(5)) <= 1e-13 * gen_jacobi_residual_known(5)
    ok &= zt[1] == 0.0 and zt[2] == 0.0
    limit = 1.0 / TWO_PI**8
    ok &= abs(ct[0] - limit) <= 1e-13 * limit
    ok &= ct[1] == 0.0 and ct[2] == 0.0
    scan_report, violations = run_jacobi_scan(5)
    ok &= len(violations) >= 1
    ok &= any(v.indices == KNOWN_JACOBI_VIOLATION for v in violations)
    ok &= scan_report.passed
    ok &= time.perf_counter() - started <= 120.0
    assert _verdict(
        7, ok, "six-index counterexample matches both closed forms; scan at n = 5 finds it"
    )


def test_criterion_8_generic_construction_su2():
    eps = np.zeros((3, 3, 3))
    for a, b, c, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (0, 2, 1, -1), (2, 1, 0, -1)]:
        eps[a, b, c] = s
    algebra = construct_generic(eps)
    ok_killing = np.array_equal(algebra.killing.matrix, -2.0 * np.eye(3))
    ratio = algebra.nambu.array[0, 1, 2] / eps[0, 1, 2]
    ok_nambu = ratio != 0.0 and np.array_equal(algebra.nambu.array, ratio * eps)
    violations = scan_gen_jacobi(algebra.nambu)
    ok_scan = len(violations) == 0
    ok = ok_killing and ok_nambu and ok_scan
    assert _verdict(
        8, ok, "su(2): Killing = -2 I exact, Nambu tensor proportional to Levi-Civita, scan clean"
    ), (
        "the su(2) Nambu tensor (-2 x Levi-Civita) satisfies the Killing and "
        "proportionality clauses but cannot satisfy a clean pointwise scan: the "
        f"three-summand combination is {gen_jacobi_terms(algebra.nambu, 0, 1, 2, 2, 0, 1)} "
        "at (0,1,2,2,0,1), a nonzero residual forced by the algebra itself; "
        "see README.md, section 'A documented impossibility'"
    )


def test_criterion_9_single_pair_steady_state():
    ok = True
    for n, pair, amp in ((7, (1, 2), 0.8 - 0.3j), (11, (2, -1), 1.0 + 0.5j)):
        grid = build_grid(n)
        field = ModeField.from_modes(grid, {pair: amp})
        final, _ = integrate(field, IntegratorConfig(dt=1e-3, steps=1000, record_every=500))
        deviation = np.max(np.abs(final.coeffs - field.coeffs))
        ok &= deviation <= 1e-13 * np.max(np.abs(field.coeffs))
    assert _verdict(9, ok, "single-conjugate-pair states preserved to 1e-13 over 1000 steps")
