"""Tendency routes, conservation, integrators, initial conditions."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sinebracket import algebra, dynamics
from sinebracket.dynamics import (
    _MIDPOINT_MAX_ITER,
    _MIDPOINT_TOL,
    DiagnosticsRecord,
    IntegratorConfig,
    RhsCounts,
    enstrophy_functional,
    enstrophy_gradient,
    hamiltonian_functional,
    hamiltonian_gradient,
    integrate,
    lift,
    lower,
    random_shell_field,
    rhs_fast,
    rhs_from_lie_poisson,
    rhs_naive,
    rhs_nambu,
    step,
)
from sinebracket.errors import ConsistencyError, StepConvergenceError, ValidationError
from sinebracket.functionals import Functional
from sinebracket.grid import (
    MAX_TRUNCATION,
    ModeField,
    _invariants,
    _quadratic_terms,
    _wrapped,
    build_grid,
    energy,
    enstrophy,
    validate_reality,
)

import oracles
from oracles import coordinate_functional, quadratic_casimir

TWO_PI = 2.0 * math.pi


def single_pair_field(grid, v, amplitude=1.0):
    """One conjugate pair: zeta_hat(v) = amplitude, zeta_hat(-v) = conj.

    A steady state of the truncated flow: every interacting partner of a
    mode and its mirror has vanishing sine factor.
    """
    return ModeField.from_modes(grid, {v: amplitude})


def shell_energies(field):
    """Energy per squared wave number |k|^2."""
    norms2 = field.grid.norms2
    shells, which = np.unique(norms2, return_inverse=True)
    terms = _quadratic_terms(field, 1.0 / norms2).real
    return dict(zip(shells.tolist(), (0.5 * TWO_PI**2 * np.bincount(which, terms)).tolist()))


def _rhs_fast_modes(grid, field):
    """rhs_fast steps the Hermitian matrix; compare it in modes."""
    return lower(rhs_fast(grid, lift(field)))


ALL_ROUTES = (rhs_naive, rhs_nambu, rhs_from_lie_poisson, _rhs_fast_modes)


def _band_field(grid, seed, amplitude=3.0):
    shell_max = min(8.0, 2.0 * grid.half**2)
    return random_shell_field(grid, seed=seed, shell_max=shell_max, amplitude=amplitude)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_hamiltonian_gradient_closed_form():
    grid = build_grid(7)
    field = _band_field(grid, seed=0)
    grad = hamiltonian_gradient(grid, field)
    a = grid.index_of((-1, -2))
    assert grad[a] == pytest.approx(TWO_PI**2 * field.get((1, 2)) / 5.0, rel=1e-15)
    b = grid.index_of((3, 0))
    assert grad[b] == pytest.approx(TWO_PI**2 * field.get((-3, 0)) / 9.0, rel=1e-15)


def test_enstrophy_gradient_closed_form():
    grid = build_grid(5)
    field = _band_field(grid, seed=1)
    grad = enstrophy_gradient(grid, field)
    for v in grid:
        assert grad[grid.index_of(v)] == TWO_PI**2 * field.get(-v)


def test_quadratic_gradients_match_finite_differences():
    grid = build_grid(5)
    field = _band_field(grid, seed=2)
    h = 1e-6
    for functional in (hamiltonian_functional(grid), enstrophy_functional(grid)):
        grad = functional.gradient(field)
        for a in [0, 3, grid.size // 2, grid.size - 1]:
            for direction in (1.0, 1.0j):
                plus = ModeField(grid, field.coeffs.copy())
                plus.coeffs[a] += h * direction
                minus = ModeField(grid, field.coeffs.copy())
                minus.coeffs[a] -= h * direction
                fd = (functional.value_complex(plus) - functional.value_complex(minus)) / (
                    2.0 * h * direction
                )
                assert fd == pytest.approx(grad[a], rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# tendency routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 9, 17])
def test_rhs_routes_agree(n):
    grid = build_grid(n)
    for seed in range(3):
        field = _band_field(grid, seed=seed)
        outs = [route(grid, field).coeffs for route in ALL_ROUTES]
        scale = np.max(np.abs(outs[0]))
        assert scale > 0.0  # the band field is not a steady state
        for a in range(len(outs)):
            for b in range(a + 1, len(outs)):
                assert np.max(np.abs(outs[a] - outs[b])) <= 1e-10 * scale


def _rhs_from_lie_poisson_per_mode(grid, field):
    # Reference: one Lie-Poisson bracket {zeta_a, H}, and so one matrix, per mode.
    ham = hamiltonian_functional(grid)
    out = np.empty(grid.size, dtype=np.complex128)
    for a in range(grid.size):
        coord = coordinate_functional(grid, grid.vector_at(a))
        out[a] = coord.gradient(field) @ (algebra._lie_poisson_matrix(grid, field) @ ham.gradient(field))
    return out


@pytest.mark.parametrize("n", [3, 5, 9])
def test_rhs_from_lie_poisson_builds_one_matrix_and_matches_per_mode_brackets(n, monkeypatch):
    grid = build_grid(n)
    field = _band_field(grid, seed=n)
    reference = _rhs_from_lie_poisson_per_mode(grid, field)
    built = []
    matrix = algebra._lie_poisson_matrix

    def counted(grid, field):
        built.append(1)
        return matrix(grid, field)

    monkeypatch.setattr(dynamics, "_lie_poisson_matrix", counted)
    out = rhs_from_lie_poisson(grid, field).coeffs
    assert len(built) == 1
    assert np.array_equal(out, reference)


def test_rhs_from_lie_poisson_takes_one_gradient_and_one_matrix(monkeypatch):
    # One energy gradient and one Lie-Poisson matrix per call, however many modes.
    grid = build_grid(5)
    field = _band_field(grid, seed=5)
    gradients, matrices = [], []
    gradient, matrix = Functional.gradient, algebra._lie_poisson_matrix

    def counted_gradient(self, field):
        gradients.append(self.name)
        return gradient(self, field)

    def counted_matrix(grid, field):
        matrices.append(1)
        return matrix(grid, field)

    monkeypatch.setattr(Functional, "gradient", counted_gradient)
    monkeypatch.setattr(dynamics, "_lie_poisson_matrix", counted_matrix)
    rhs_from_lie_poisson(grid, field)
    assert gradients == ["hamiltonian"]
    assert len(matrices) == 1


def test_rhs_fast_matches_naive_large_truncation():
    grid = build_grid(33)
    field = random_shell_field(grid, seed=5, shell_max=20.0, amplitude=2.0)
    fast = _rhs_fast_modes(grid, field).coeffs
    naive = rhs_naive(grid, field).coeffs
    assert np.max(np.abs(fast - naive)) <= 1e-10 * np.max(np.abs(naive))


def test_tendency_is_real_spectrum():
    grid = build_grid(9)
    field = _band_field(grid, seed=3)
    validate_reality(_rhs_fast_modes(grid, field))
    validate_reality(rhs_naive(grid, field))


def _random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return ModeField(grid, raw + np.conj(raw[grid.neg_index]))


@pytest.mark.parametrize("n", [5, 21, 161])
def test_rhs_fast_tendency_is_exactly_real(n):
    grid = build_grid(n)
    for seed in range(2):
        w = lift(_random_real_field(grid, seed))
        matrix = rhs_fast(grid, w)
        assert np.array_equal(matrix, matrix.conj().T)  # Hermitian bitwise
        tendency = lower(matrix)
        assert np.max(np.abs(tendency.coeffs)) > 0.0
        assert tendency.reality_residual() == 0.0
        out = np.full((n, n), np.nan, dtype=np.complex128)
        assert rhs_fast(grid, w, out=out) is out
        assert np.array_equal(out, matrix)


@pytest.mark.parametrize("n", [5, 21, 81])
def test_lower_inverts_lift_and_is_exactly_real(n):
    grid = build_grid(n)
    for seed in range(2):
        field = _random_real_field(grid, seed)
        w = lift(field)
        assert np.array_equal(w, w.conj().T)
        back = lower(w)
        assert back.grid == grid
        assert np.max(np.abs(back.coeffs - field.coeffs)) <= 1e-14 * np.max(np.abs(field.coeffs))
        assert back.reality_residual() == 0.0
    # a non-Hermitian input still lowers to a bitwise real field
    rng = np.random.default_rng(n)
    assert lower(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).reality_residual() == 0.0


# The full-width transforms of the whole wrapped table, phases applied, as
# rhs_fast ran them before its half-width tables: the oracle of the tests
# below.


def _full_width_tables(n):
    half_inv = (n + 1) // 2
    rows = np.arange(n)
    r, c = rows[:, None], rows[None, :]
    phase = np.exp((4j * np.pi / n) * ((half_inv * np.outer(rows, rows)) % n))
    to_matrix = ((2 * r) % n) * n + (c - r) % n
    hr = (half_inv * r) % n
    from_matrix = hr * n + (hr + c) % n
    signed = np.where(rows > (n - 1) // 2, rows - n, rows)
    norms2 = signed[:, None] ** 2 + signed[None, :] ** 2
    stream = np.zeros((n, n), dtype=np.complex128)
    stream[norms2 > 0] = (-0.25j * n / np.pi) / norms2[norms2 > 0]
    return phase, to_matrix, from_matrix, stream


def _full_to_weyl(n, wrapped):
    """sum_k c_k T_k from wrapped coefficients c[k1 % n, k2 % n]."""
    phase, to_matrix, _, _ = _full_width_tables(n)
    return np.fft.ifft(wrapped * phase, axis=0, norm="forward").ravel()[to_matrix]


def _full_from_weyl(n, matrix):
    """Wrapped coefficients c[k1 % n, k2 % n] of a matrix in the clock-and-shift basis."""
    phase, _, from_matrix, _ = _full_width_tables(n)
    return np.fft.fft(matrix.ravel()[from_matrix], axis=0, norm="forward") * np.conj(phase)


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.conj().T


def _close(actual, expected, rel=1e-14):
    return np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [3, 5, 21, 161])
def test_half_width_transforms_match_the_full_width_reference(n):
    m = (n - 1) // 2
    phase = _full_width_tables(n)[0]
    # from-Weyl: the phase-scaled modes with k2 = 0..m, one row per k2
    x = _random_hermitian(n, seed=n)
    half = dynamics._from_weyl_matrix(n, x, np.empty((n, n), dtype=np.complex128))
    assert half.shape == (m + 1, n)
    assert _close(half, (_full_from_weyl(n, x) * phase)[:, : m + 1].T)
    # to-Weyl: coefficients with c_{-k} = -conj(c_k) give a skew-Hermitian matrix
    coeffs = 1j * _wrapped(_random_real_field(build_grid(n), seed=n))
    table = np.empty((n, n), dtype=np.complex128)
    table[: m + 1] = (coeffs * phase)[:, : m + 1].T
    expected_table = table[: m + 1].copy()
    b = dynamics._to_weyl_matrix(n, table, np.empty((n, n), dtype=np.complex128))
    assert np.array_equal(b, -b.conj().T)  # skew-Hermitian bitwise
    assert _close(b, _full_to_weyl(n, coeffs))
    # and back
    back = dynamics._from_weyl_matrix(n, b, np.empty((n, n), dtype=np.complex128))
    assert _close(back, expected_table)


@pytest.mark.parametrize("n", [3, 5, 21, 161])
def test_lift_lower_and_rhs_fast_match_the_full_width_reference(n):
    grid = build_grid(n)
    field = _random_real_field(grid, seed=n)
    w = lift(field)
    assert _close(w, _full_to_weyl(n, _wrapped(field)))
    x = _random_hermitian(n, seed=n + 1)
    v = grid.vectors
    assert _close(lower(x).coeffs, _full_from_weyl(n, x)[v[:, 0] % n, v[:, 1] % n])
    stream = _full_width_tables(n)[3]
    y = _full_to_weyl(n, _full_from_weyl(n, w) * stream) @ w
    assert _close(rhs_fast(grid, w), y + y.conj().T)


@pytest.mark.parametrize("n", [5, 21])
def test_rhs_fast_transforms_only_the_half_table(n, monkeypatch):
    # A Hermitian W fixes its modes by the (n+1)/2 rows k2 = 0..(n-1)/2,
    # so one call transforms ((n+1)/2) n entries each way, not n^2.
    grid = build_grid(n)
    w = lift(_random_real_field(grid, seed=n))
    sizes = {"_fft": [], "_ifft": []}
    for name in sizes:
        original = getattr(dynamics, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            sizes[_name].append(np.size(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    rhs_fast(grid, w)
    assert sizes == {"_fft": [(n + 1) // 2 * n], "_ifft": [(n + 1) // 2 * n]}


@pytest.mark.parametrize("n", [5, 21])
def test_wrapped_matches_modular_scatter(n):
    grid = build_grid(n)
    field = _random_real_field(grid, seed=1)
    v = grid.vectors
    expected = np.zeros((n, n), dtype=np.complex128)
    expected[v[:, 0] % n, v[:, 1] % n] = field.coeffs
    assert np.array_equal(_wrapped(field), expected)


def test_tendency_conserves_quadratic_invariants_pointwise():
    # dH/dt = <grad H, dzeta/dt> = 0 and likewise for the enstrophy
    for n in (5, 9):
        grid = build_grid(n)
        for seed in range(3):
            field = _band_field(grid, seed=seed)
            zdot = rhs_naive(grid, field).coeffs
            for grad in (hamiltonian_gradient(grid, field), enstrophy_gradient(grid, field)):
                inner = np.sum(grad * zdot)
                mass = np.sum(np.abs(grad) * np.abs(zdot))
                assert abs(inner) <= 1e-12 * mass


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=float("nan"))
    with pytest.raises(ValueError):
        IntegratorConfig(dt=float("inf"))
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(steps=-1)
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0)
    assert IntegratorConfig(dt=-1e-3).dt == -1e-3  # reversed runs are legal
    # record_every=1.5 once recorded only at s = 3 of 3 steps, steps=True
    # and dt=True ran as 1, and steps=2.5 failed inside range().
    for settings in ({"steps": 2.5}, {"steps": 3.0}, {"steps": True}, {"steps": "3"},
                     {"record_every": 1.5}, {"record_every": True}, {"dt": True}):
        with pytest.raises(ValueError):
            IntegratorConfig(**settings)
    config = IntegratorConfig(steps=np.int64(3), record_every=np.int32(2))
    assert (config.steps, config.record_every) == (3, 2)
    assert type(config.steps) is int and type(config.record_every) is int


def test_integrate_records_initial_and_final():
    grid = build_grid(7)
    field = _band_field(grid, seed=4, amplitude=1.0)
    _, records = integrate(field, IntegratorConfig(dt=1e-3, steps=25, record_every=10))
    assert [r.time for r in records] == pytest.approx([0.0, 0.01, 0.02, 0.025])
    assert records[0].drift_energy == 0.0
    assert records[0].drift_enstrophy == 0.0
    # input field untouched
    assert np.array_equal(field.coeffs, _band_field(grid, seed=4, amplitude=1.0).coeffs)


@pytest.mark.parametrize("n", [3, 5, 21, 161])
def test_record_invariants_from_the_matrix_match_the_lowered_field(n):
    # diagnostics.csv reads H and E off the stepped matrix W; they are the
    # invariants of lower(W) to rounding, also for a field at integrate's
    # 1e-10 entry tolerance, which lifts as its real part.
    grid = build_grid(n)
    field = random_shell_field(grid, seed=n, shell_max=float(n), amplitude=6.0)
    entry = field.copy()
    entry.coeffs[grid.neg_index[int(np.argmax(np.abs(entry.coeffs)))]] *= 1.0 + 5e-11j
    assert 1e-12 < entry.reality_residual() <= 1e-10
    for start in (field, entry):
        w = lift(start)
        h, e = _invariants(lower(w))
        record = oracles.record(0.25, w, 2.0, 0.0)
        assert abs(record.energy - h) <= 1e-15 * h
        assert abs(record.enstrophy - e) <= 1e-15 * e
        assert record.drift_energy == abs(record.energy - 2.0) / 2.0  # relative to a nonzero start
        assert record.drift_enstrophy == record.enstrophy  # absolute from a zero start


def test_integrate_zero_steps_is_identity():
    grid = build_grid(5)
    field = _band_field(grid, seed=6, amplitude=1.0)
    final, records = integrate(field, IntegratorConfig(steps=0))
    assert final is field
    [record] = records
    assert (record.time, record.drift_energy, record.drift_enstrophy) == (0.0, 0.0, 0.0)
    assert abs(record.energy - energy(field)) <= 1e-15 * energy(field)
    assert abs(record.enstrophy - enstrophy(field)) <= 1e-15 * enstrophy(field)


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_integrate_lowers_once_per_run(monkeypatch, scheme):
    # Records read W, so a run lowers only its final state; every record,
    # the one at t = 0 included, takes one from-Weyl transform of its
    # matrix, though records transform their matrices in stacks.
    calls = {"lower": 0, "_from_weyl_matrix": 0}

    def counting(name, matrices):
        inner = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += matrices(*args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, wrapper)

    counting("lower", lambda w: 1)
    counting("_from_weyl_matrix", lambda n, matrix, *_: matrix.size // (n * n))
    field = _band_field(build_grid(7), seed=4, amplitude=1.0)
    counts = RhsCounts()
    config = IntegratorConfig(scheme=scheme, dt=1e-3, steps=25, record_every=10)
    _, records = integrate(field, config, counts=counts)
    assert calls == {"lower": 1, "_from_weyl_matrix": counts.calls + len(records) + 1}
    calls.update(lower=0, _from_weyl_matrix=0)
    integrate(field, IntegratorConfig(scheme=scheme, steps=0))
    assert calls == {"lower": 0, "_from_weyl_matrix": 1}


def test_rk4_drift_small_and_fourth_order():
    # Halving dt must shrink the energy drift by about 2^4; the measured
    # ratio sits below 16 because the dominant error terms still interact
    # at these step sizes.
    grid = build_grid(9)
    field = random_shell_field(grid, seed=4, shell_min=1.0, shell_max=4.0, amplitude=8.0)
    coarse = IntegratorConfig(dt=1e-3, steps=1000, record_every=1000)
    fine = IntegratorConfig(dt=5e-4, steps=2000, record_every=2000)
    _, rc = integrate(field, coarse)
    _, rf = integrate(field, fine)
    assert rc[-1].drift_energy <= 1e-8
    assert rc[-1].drift_enstrophy <= 1e-8
    assert rf[-1].drift_energy > 0.0
    ratio = rc[-1].drift_energy / rf[-1].drift_energy
    assert 12.0 <= ratio <= 20.0


def test_rk4_run_is_time_reversible():
    grid = build_grid(9)
    field = random_shell_field(grid, seed=4, shell_min=1.0, shell_max=4.0, amplitude=8.0)
    mid, forward = integrate(field, IntegratorConfig(dt=1e-3, steps=100, record_every=100))
    back, backward = integrate(mid, IntegratorConfig(dt=-1e-3, steps=100, record_every=100))
    assert abs(forward[-1].time + backward[-1].time) <= 1e-12
    deviation = np.max(np.abs(back.coeffs - field.coeffs))
    assert deviation <= 1e-9 * np.max(np.abs(field.coeffs))


def test_implicit_midpoint_conserves_quadratic_invariants():
    grid = build_grid(7)
    field = random_shell_field(grid, seed=2, shell_max=8.0, amplitude=2.0)
    cfg = IntegratorConfig(scheme="implicit_midpoint", dt=1e-3, steps=200, record_every=50)
    _, records = integrate(field, cfg)
    assert records[-1].drift_energy <= 1e-12
    assert records[-1].drift_enstrophy <= 1e-12


def test_implicit_midpoint_is_time_symmetric():
    grid = build_grid(9)
    field = random_shell_field(grid, seed=4, shell_min=1.0, shell_max=4.0, amplitude=8.0)
    fwd = IntegratorConfig(scheme="implicit_midpoint", dt=1e-3, steps=100, record_every=100)
    bwd = IntegratorConfig(scheme="implicit_midpoint", dt=-1e-3, steps=100, record_every=100)
    mid, _ = integrate(field, fwd)
    back, _ = integrate(mid, bwd)
    deviation = np.max(np.abs(back.coeffs - field.coeffs))
    assert deviation <= 1e-12 * np.max(np.abs(field.coeffs))


class _CountingRhs:
    """rhs_fast that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, grid, w, out=None):
        self.calls += 1
        return rhs_fast(grid, w, out=out)


def _oracle_midpoint_step(w, config, rhs):
    """Reference midpoint step on W: the fixed-point loop from the explicit-Euler guess."""
    grid = build_grid(len(w))
    dt = config.dt

    def f(x):
        return rhs(grid, x)

    guess = w + dt * f(w)
    scale = max(1.0, float(np.max(np.abs(guess))))
    for _ in range(_MIDPOINT_MAX_ITER):
        improved = w + dt * f(0.5 * (w + guess))
        delta = float(np.max(np.abs(improved - guess)))
        guess = improved
        if delta <= _MIDPOINT_TOL * scale:
            break
    else:
        raise StepConvergenceError(f"oracle did not converge (last update {delta:.3e})")
    return guess


def _midpoint_case(seed, dt, steps, n=21):
    # the run-midpoint-n21 benchmark configuration
    grid = build_grid(n)
    field = random_shell_field(grid, seed=seed, shell_min=1.0, shell_max=4.0, amplitude=6.0)
    config = IntegratorConfig(scheme="implicit_midpoint", dt=dt, steps=steps, record_every=steps)
    return field, config


@pytest.mark.parametrize("dt", [1e-3, 1e-2, -1e-3])
def test_step_without_guess_matches_euler_start_oracle(dt):
    field, config = _midpoint_case(seed=12, dt=dt, steps=5)
    w = lift(field)
    for _ in range(config.steps):
        expected = _oracle_midpoint_step(w, config, rhs_fast)
        w = step(w, config)
        assert np.array_equal(w, expected)


def test_midpoint_extrapolated_guess_needs_few_rhs_calls():
    # From the Euler guess this run makes about 7 rhs calls per step.
    field, config = _midpoint_case(seed=12, dt=1e-3, steps=300)
    counting = _CountingRhs()
    counts = RhsCounts()
    integrate(field, config, counting, counts=counts)
    assert counts.steps == 300 and counts.calls == counting.calls
    assert counting.calls / config.steps <= 3.0


@pytest.mark.parametrize("seed", [3, 6])
def test_midpoint_large_step_makes_no_more_rhs_calls_than_oracle(seed):
    field, config = _midpoint_case(seed=seed, dt=1e-2, steps=200)
    counting = _CountingRhs()
    final, _ = integrate(field, config, counting)
    oracle = _CountingRhs()
    w = lift(field)
    for _ in range(config.steps):
        w = _oracle_midpoint_step(w, config, oracle)
    assert counting.calls <= oracle.calls
    # both solve the same implicit equations to the solver tolerance
    expected = lower(w).coeffs
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(final.coeffs - expected)) <= 1e-9 * scale


def test_integrate_starts_each_run_from_the_euler_guess():
    # the guess history is local to one integrate() call, so a run of one
    # step, forward or reversed, is exactly one plain step
    field, config = _midpoint_case(seed=3, dt=1e-3, steps=20)
    mid, _ = integrate(field, config)
    for start, dt in ((field, 1e-3), (mid, -1e-3)):
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=dt, steps=1)
        one, _ = integrate(start, cfg)
        assert np.array_equal(one.coeffs, lower(step(lift(start), cfg)).coeffs)


def test_integrate_guess_extrapolates_the_newest_states(monkeypatch):
    # 15 steps wrap the nine-state ring; each guess must still weigh the
    # accepted states newest first, z* = sum_j (-1)^j C(q+1, j+1) z_{n-j}.
    # The weights reach 2^9 - 1 in absolute sum, so the summation order
    # shows at 1e-14; a state in the wrong slot would show at about dt.
    field, config = _midpoint_case(seed=5, dt=1e-3, steps=15, n=7)
    accepted, guesses = [lift(field)], []

    def spy(w, cfg, rhs, guess=None):
        guesses.append(guess)
        accepted.append(step(w, cfg, rhs, guess))
        return accepted[-1]

    monkeypatch.setattr(dynamics, "step", spy)
    integrate(field, config)
    assert guesses[0] is None
    for s, guess in enumerate(guesses[1:], start=1):
        q = min(s, 8)
        expected = sum((-1) ** j * math.comb(q + 1, j + 1) * accepted[s - j] for j in range(q + 1))
        assert _close(guess, expected, rel=1e-12)


def test_integrate_counts_rhs_calls_per_step():
    grid = build_grid(7)
    field = _band_field(grid, seed=4, amplitude=1.0)
    counts = RhsCounts()
    integrate(field, IntegratorConfig(dt=1e-3, steps=25), counts=counts)
    assert (counts.steps, counts.calls, counts.max_per_step) == (25, 100, 4)
    assert counts.per_step == 4.0
    field, config = _midpoint_case(seed=12, dt=1e-3, steps=30, n=9)
    counting = _CountingRhs()
    counts = RhsCounts()
    integrate(field, config, counting, counts=counts)
    assert (counts.steps, counts.calls) == (30, counting.calls)
    assert counts.per_step <= counts.max_per_step <= _MIDPOINT_MAX_ITER + 1
    assert RhsCounts().per_step == 0.0


def test_smoothing_weights_are_the_exact_least_squares_fit():
    # Recompute the degree-10 least-squares fit through t = 0, -1, ..., -19,
    # evaluated at t = 1, in exact arithmetic: w = V (V^T V)^-1 v(1).
    from fractions import Fraction

    degree, count = 10, 20
    rows = [[Fraction(-j) ** p for p in range(degree + 1)] for j in range(count)]
    normal = [
        [sum(r[a] * r[b] for r in rows) for b in range(degree + 1)] + [Fraction(1)]
        for a in range(degree + 1)
    ]
    for c in range(degree + 1):  # Gauss-Jordan on the positive-definite system
        normal[c] = [x / normal[c][c] for x in normal[c]]
        for r in range(degree + 1):
            if r != c:
                normal[r] = [x - normal[r][c] * y for x, y in zip(normal[r], normal[c])]
    solution = [row[-1] for row in normal]
    weights = [sum(x * y for x, y in zip(r, solution)) for r in rows]
    assert [w * 12920 for w in weights] == [
        round(x * 12920) for x in dynamics._SMOOTH_WEIGHTS
    ]
    assert np.array_equal(np.array([float(w) for w in weights]), dynamics._SMOOTH_WEIGHTS)
    assert sum(weights) == 1
    for p in range(degree + 1):
        assert sum(w * Fraction(-j) ** p for j, w in enumerate(weights)) == 1  # t^p at t = 1
    order8 = dynamics._GUESS_WEIGHTS[dynamics._GUESS_ORDER]
    assert math.isclose(np.linalg.norm(order8), 220.5, rel_tol=1e-3)
    assert math.sqrt(sum(w * w for w in weights)) < 25.0


def test_midpoint_smoothing_guess_makes_about_one_rhs_call_per_step():
    # The run-midpoint-n21 benchmark configuration; the order-8 guess alone
    # makes 1.80 rhs calls per step here.
    field, config = _midpoint_case(seed=12, dt=1e-3, steps=1000)
    counts = RhsCounts()
    integrate(field, config, counts=counts)
    assert counts.per_step <= 1.1
    assert counts.smoothed_guess_steps > 900


def _order8_integrate(field, config, counts):
    """The midpoint path of integrate() with only the order-<=8 extrapolated
    guess, as it ran before the smoothing guess."""
    validate_reality(field, tol=1e-10)
    w, t = lift(field), 0.0

    def counted(grid, w, out=None):
        counts.calls += 1
        return rhs_fast(grid, w, out=out)

    kept = 1
    history = np.empty((dynamics._GUESS_ORDER + 1, w.size), dtype=np.complex128)
    history[0] = w.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        recorder = dynamics._Recorder(w, config)
        for s in range(1, config.steps + 1):
            before = counts.calls
            guess = None
            if kept > 1:
                weights = dynamics._SLOT_WEIGHTS[kept, (s - 1) % len(history)]
                guess = (weights @ history[:kept]).reshape(w.shape)
            w = step(w, config, counted, guess)
            t += config.dt
            counts.steps += 1
            counts.max_per_step = max(counts.max_per_step, counts.calls - before)
            assert np.isfinite(w).all()
            history[s % len(history)] = w.ravel()
            kept = min(kept + 1, len(history))
            recorder.after_step(s, t, w)
        records = recorder.flush()
    dynamics._workspace.cache_clear()
    return lower(w), records


@pytest.mark.parametrize("dt", [1e-2, 5e-3])
def test_midpoint_run_outside_the_smoothing_rule_is_the_order8_run(dt):
    # Each step here needs more than two rhs calls, so the smoothing guess
    # never engages and the run is bitwise the order-8 one.
    field, config = _midpoint_case(seed=12, dt=dt, steps=300)
    config = IntegratorConfig(scheme=config.scheme, dt=dt, steps=300, record_every=30)
    counts, expected_counts = RhsCounts(), RhsCounts()
    final, records = integrate(field, config, counts=counts)
    expected, expected_records = _order8_integrate(field, config, expected_counts)
    assert counts.smoothed_guess_steps == 0
    assert counts == expected_counts
    assert np.array_equal(final.coeffs, expected.coeffs)
    assert records == expected_records


def test_midpoint_run_outside_the_smoothing_rule_allocates_no_older_ring():
    # The ring of older states is allocated only once a step meets the rule;
    # here it would add 11 n^2 complex entries, 1.15 MB, to the peak.  Two
    # calls of one function already differ by some tens of bytes (Python's
    # own object caches), so the peaks are compared to within 4 kB.
    n = 81
    field, config = _midpoint_case(seed=12, dt=5e-3, steps=30, n=n)
    peaks = []
    for run in (lambda: integrate(field, config, counts=RhsCounts()),
                lambda: _order8_integrate(field, config, RhsCounts())):
        run()  # builds the per-n tables outside the trace
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < 4096 < 11 * n * n * 16


def test_midpoint_nonfinite_update_raises_at_once():
    # shell amplitude 50 at dt = 5 overflows within a few sweeps; a loop
    # that kept sweeping on NaN would stop only at the 50-sweep cap
    grid = build_grid(11)
    field = random_shell_field(grid, seed=0, shell_min=1.0, shell_max=4.0, amplitude=50.0)
    config = IntegratorConfig(scheme="implicit_midpoint", dt=5.0, steps=1)
    counting = _CountingRhs()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConsistencyError, match="non-finite"):
            step(lift(field), config, counting)
    assert counting.calls < 10


def test_integrate_checks_finiteness_every_step():
    # RK4 far beyond its stability limit: the run stops at the first
    # non-finite state, not at the next record
    grid = build_grid(11)
    field = random_shell_field(grid, seed=0, shell_min=1.0, shell_max=4.0, amplitude=50.0)
    config = IntegratorConfig(dt=5.0, steps=50, record_every=50)
    w, first_bad = lift(field), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(lower(w).coeffs)):
            w, first_bad = step(w, config), first_bad + 1
    assert first_bad < config.steps
    counting = _CountingRhs()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConsistencyError, match="non-finite"):
            integrate(field, config, counting)
    assert counting.calls == 4 * first_bad
    assert not caught  # numpy's overflow warnings stay inside integrate


def test_step_convergence_error_names_the_contraction_estimate():
    # At dt = 2e-2 the fixed-point map contracts by about 0.6 per sweep and
    # the Euler start does not reach the tolerance in 50 sweeps.
    field, config = _midpoint_case(seed=6, dt=2e-2, steps=1)
    with pytest.raises(StepConvergenceError) as excinfo:
        step(lift(field), config)
    found = re.search(r"contraction estimate ([0-9.e+-]+)", str(excinfo.value))
    assert found is not None, str(excinfo.value)
    assert 0.3 < float(found.group(1)) < 1.0


def _linear_sweep(c, calls):
    """The toy sweep out = c * current, counting its calls in ``calls``."""

    def sweep(current, out):
        calls.append(c)
        return np.multiply(current, c, out=out)

    return sweep


def _solve_from_ones(sweep, n=5):
    return dynamics._solve(sweep, np.ones((n, n), dtype=np.complex128), dynamics._workspace(n))


def test_solve_converges_on_a_contraction_inside_the_cap():
    # the update after sweep k is 0.5^k, which first reaches 1e-13 at k = 44
    calls = []
    fixed = _solve_from_ones(_linear_sweep(0.5, calls))
    assert len(calls) == 44 < _MIDPOINT_MAX_ITER
    assert np.all(fixed == 0.5**44)


def test_solve_stall_reports_the_contraction_of_the_sweep():
    with pytest.raises(StepConvergenceError) as excinfo:
        _solve_from_ones(_linear_sweep(0.9, []))
    message = str(excinfo.value)
    assert f"did not converge in {_MIDPOINT_MAX_ITER} iterations" in message
    assert "contraction estimate 0.9)" in message


def test_solve_nonfinite_sweep_raises_after_one_sweep():
    calls = []
    with pytest.raises(ConsistencyError, match="non-finite"):
        _solve_from_ones(_linear_sweep(np.nan, calls))
    assert len(calls) == 1


def _higher_casimir_drifts(scheme):
    """Relative drifts of tr(W^2), tr(W^3), tr(W^4) over 300 steps of dt = 1e-2 at n = 21."""
    field = random_shell_field(build_grid(21), seed=6, shell_min=1.0, shell_max=4.0, amplitude=6.0)
    config = IntegratorConfig(scheme=scheme, dt=1e-2, steps=300)
    w0 = w = lift(field)
    for _ in range(config.steps):
        w = step(w, config)

    def traces(x):
        x2 = x @ x
        return np.array([np.trace(x2), np.trace(x2 @ x), np.trace(x2 @ x2)]).real

    before, after = traces(w0), traces(w)
    assert np.all(np.abs(before) > 1.0)  # so the relative drifts are well defined
    return np.abs(after - before) / np.abs(before)


def test_midpoint_keeps_tr_w2_but_not_the_higher_casimirs():
    # The midpoint rule conserves the quadratic Casimir to the solver
    # tolerance (3.0e-14 measured) but is not isospectral: tr(W^3) and
    # tr(W^4) drift 8.8e-4 and 8.0e-4, so a spectrum diagnostic reads
    # nonzero on it.
    quadratic, cubic, quartic = _higher_casimir_drifts("implicit_midpoint")
    assert quadratic <= 1e-12
    assert cubic >= 1e-5 and quartic >= 1e-5


def test_rk4_drifts_every_casimir():
    # measured 1.1e-4, 1.0e-4 and 1.4e-4
    assert np.all(_higher_casimir_drifts("rk4") >= 1e-5)


def test_integrate_rejects_nonreal_spectrum():
    grid = build_grid(5)
    coeffs = np.zeros(grid.size, dtype=np.complex128)
    coeffs[grid.index_of((1, 0))] = 1.0  # no conjugate partner
    with pytest.raises(ValidationError):
        integrate(ModeField(grid, coeffs), IntegratorConfig(steps=1))


def test_integrate_accepts_its_entry_tolerance_at_every_record():
    # A residual between REALITY_TOL (1e-12) and the 1e-10 that integrate
    # checks must not fail in the energy/enstrophy of a record.
    grid = build_grid(7)
    field = _band_field(grid, seed=7, amplitude=1.0)
    top = int(np.argmax(np.abs(field.coeffs)))
    field.coeffs[grid.neg_index[top]] *= 1.0 + 5e-11
    assert 1e-12 < field.reality_residual() <= 1e-10
    _, records = integrate(field, IntegratorConfig(steps=3, record_every=1))
    assert len(records) == 4
    assert records[-1].drift_enstrophy <= 1e-12


def test_invariants_drop_the_imaginary_residue_of_a_field_within_tolerance():
    # A complex factor on a mirror coefficient gives the pair sums of H and
    # E an imaginary part; the reality tolerance that passed the field must
    # be the only rule, so energy, enstrophy, the Casimir and a run take the
    # real part instead of raising.
    grid = build_grid(9)
    field = _band_field(grid, seed=7, amplitude=1.0)
    mirror = grid.neg_index[int(np.argmax(np.abs(field.coeffs)))]
    below = field.copy()
    below.coeffs[mirror] *= 1.0 + 5e-13j
    assert 0.0 < below.reality_residual() <= 1e-12
    assert energy(below) == pytest.approx(energy(field), rel=1e-13)
    assert enstrophy(below) == pytest.approx(enstrophy(field), rel=1e-13)
    assert quadratic_casimir(grid, below) == pytest.approx(enstrophy(field), rel=1e-13)
    entry = field.copy()
    entry.coeffs[mirror] *= 1.0 + 5e-11j
    assert 1e-12 < entry.reality_residual() <= 1e-10
    _, records = integrate(entry, IntegratorConfig(steps=3, record_every=1))
    assert len(records) == 4
    assert records[-1].drift_enstrophy <= 1e-12


def test_rk4_large_step_stays_exactly_real():
    # Once the rounding-level non-real part of the tendency grew about 1e3
    # every 500 steps here, and the state was NaN at step 2,295.
    grid = build_grid(21)
    field = random_shell_field(grid, seed=6, shell_min=1.0, shell_max=4.0, amplitude=6.0)
    config = IntegratorConfig(dt=2e-2, steps=500, record_every=500)
    w = lift(field)
    for _ in range(6):
        for _ in range(config.steps):
            w = step(w, config)
        z = lower(w).coeffs
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z)) <= 10.0
        assert lower(w).reality_residual() == 0.0
        assert np.array_equal(w, w.conj().T)


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_stepped_matrix_stays_exactly_hermitian(scheme, monkeypatch):
    start, _ = _midpoint_case(seed=6, dt=1e-2, steps=1)
    config = IntegratorConfig(scheme=scheme, dt=1e-2, steps=40, record_every=40)
    w = lift(start)
    for _ in range(config.steps):
        w = step(w, config)
        assert np.array_equal(w, w.conj().T)
    # integrate's extrapolated midpoint guess included
    stepped = []

    def spy(*args):
        stepped.append(step(*args))
        return stepped[-1]

    monkeypatch.setattr(dynamics, "step", spy)
    final, _ = integrate(start, config)
    assert len(stepped) == config.steps
    assert all(np.array_equal(w, w.conj().T) for w in stepped)
    assert final.reality_residual() == 0.0


@pytest.mark.parametrize("shape", [(5, 7), (4, 4), (1, 1), (9,), (3, 3, 3)])
def test_sim_state_refuses_a_matrix_that_is_not_square_with_odd_n(shape):
    # the simulation state that step() advances is the matrix W
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        step(np.zeros(shape, dtype=np.complex128), IntegratorConfig())


def test_step_refuses_a_matrix_above_the_truncation_cap():
    # The cap comes from build_grid, the one place that validates n; the
    # broadcast matrix allocates nothing.
    n = MAX_TRUNCATION + 2
    w = np.broadcast_to(np.zeros((), dtype=np.complex128), (n, n))
    message = f"truncation n must be odd in [3, {MAX_TRUNCATION}], got {n}"
    with pytest.raises(ValueError, match=re.escape(f"{message} (vorticity matrix: got shape")):
        step(w, IntegratorConfig())


def test_rk4_step_allocates_little_beyond_the_new_state():
    # Stages work in the per-n workspace, which the first step builds; a
    # later step allocates the returned matrix (n^2 complex) and little else.
    n = 81
    grid = build_grid(n)
    field = random_shell_field(grid, seed=1, shell_min=1.0, shell_max=16.0, amplitude=6.0)
    config = IntegratorConfig(dt=2e-3, steps=2)
    w = step(lift(field), config)
    tracemalloc.start()
    try:
        advanced = step(w, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert advanced.shape == (n, n)
    assert peak <= 2 * n * n * 16


def test_midpoint_step_allocates_little_beyond_the_new_state():
    # The Euler guess and every sweep of the solve work in the workspace,
    # so a step of many sweeps allocates no more than one of RK4.
    n = 81
    field, config = _midpoint_case(seed=1, dt=2e-3, steps=2, n=n)
    w = step(lift(field), config)
    counting = _CountingRhs()
    tracemalloc.start()
    try:
        advanced = step(w, config, counting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert advanced.shape == (n, n)
    assert counting.calls >= 5  # the Euler guess and several sweeps
    assert peak <= 2 * n * n * 16


def test_reality_preserved_over_long_run():
    grid = build_grid(7)
    field = _band_field(grid, seed=7, amplitude=1.0)
    final, records = integrate(field, IntegratorConfig(dt=1e-3, steps=1000, record_every=100))
    assert len(records) == 11
    assert final.reality_residual() <= 1e-10


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def test_random_shell_field_is_deterministic_and_banded():
    grid = build_grid(9)
    a = random_shell_field(grid, seed=3, shell_min=2.0, shell_max=6.0, amplitude=1.5)
    b = random_shell_field(grid, seed=3, shell_min=2.0, shell_max=6.0, amplitude=1.5)
    c = random_shell_field(grid, seed=4, shell_min=2.0, shell_max=6.0, amplitude=1.5)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert a.reality_residual() == 0.0
    for v in grid:
        k2 = v.norm2()
        if 2.0 <= k2 <= 6.0:
            assert abs(a.get(v)) == pytest.approx(1.5 / k2, rel=1e-13)
        else:
            assert a.get(v) == 0.0


def _random_shell_field_loop(grid, seed, shell_min, shell_max, amplitude):
    # one draw per conjugate pair in the shell, taken at its first index
    rng = np.random.default_rng(seed)
    out = ModeField.zeros(grid)
    for idx in range(grid.size):
        mirror = int(grid.neg_index[idx])
        if mirror < idx:
            continue
        k2 = float(grid.norms2[idx])
        if not shell_min <= k2 <= shell_max:
            continue
        coeff = (amplitude / k2) * np.exp(2j * np.pi * rng.random())
        out.coeffs[idx] = coeff
        out.coeffs[mirror] = np.conj(coeff)
    return out


@pytest.mark.parametrize("n", [3, 5, 21, 161])
@pytest.mark.parametrize(
    "shell_min, shell_max, amplitude",
    [(1.0, 8.0, 1.0), (1.0, 16.0, 6.0), (2.0, 6.0, 1.5), (3.0, 2.0, 1.0), (0.0, 1e9, 50.0)],
)
def test_random_shell_field_is_bitwise_the_per_mode_loop(n, shell_min, shell_max, amplitude):
    grid = build_grid(n)
    for seed in (0, 1, 7):
        field = random_shell_field(grid, seed, shell_min, shell_max, amplitude)
        oracle = _random_shell_field_loop(grid, seed, shell_min, shell_max, amplitude)
        assert field.coeffs.tobytes() == oracle.coeffs.tobytes()


def test_shell_energies_partition_total():
    grid = build_grid(9)
    field = random_shell_field(grid, seed=8, shell_max=10.0, amplitude=2.0)
    per_shell = shell_energies(field)
    assert sum(per_shell.values()) == pytest.approx(energy(field), rel=1e-12)
    assert all(per_shell[k2] >= 0.0 for k2 in per_shell)
    assert per_shell[1] > 0.0 and per_shell[13] == pytest.approx(0.0, abs=1e-30)


def test_single_pair_field_is_a_steady_state():
    grid = build_grid(7)
    field = single_pair_field(grid, (2, 1), 1.5 + 0.5j)
    assert field.get((2, 1)) == 1.5 + 0.5j
    assert field.get((-2, -1)) == 1.5 - 0.5j
    # direct-sum routes hit exact sine zeros, so the tendency is exactly 0
    assert np.max(np.abs(rhs_naive(grid, field).coeffs)) == 0.0
    assert np.max(np.abs(rhs_nambu(grid, field).coeffs)) == 0.0
    # the commutator route only adds transform roundoff
    assert np.max(np.abs(_rhs_fast_modes(grid, field).coeffs)) <= 1e-15


def test_single_pair_field_survives_integration():
    grid = build_grid(7)
    field = single_pair_field(grid, (1, 2), 0.8 - 0.3j)
    final, records = integrate(field, IntegratorConfig(dt=1e-3, steps=1000, record_every=250))
    deviation = np.max(np.abs(final.coeffs - field.coeffs))
    assert deviation <= 1e-13 * np.max(np.abs(field.coeffs))
    assert records[-1].drift_enstrophy <= 1e-13
    assert enstrophy(final) == pytest.approx(enstrophy(field), rel=1e-13)


def test_diagnostics_record_fields():
    r = DiagnosticsRecord(time=0.5, energy=1.0, enstrophy=2.0, drift_energy=0.0, drift_enstrophy=0.0)
    assert r.time == 0.5 and r.energy == 1.0 and r.enstrophy == 2.0


# ---------------------------------------------------------------------------
# the direct FFT entry and batched records
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [3, 21, 161])
def test_direct_fft_entry_is_numpy_fft_bitwise(n):
    # The Weyl transforms call the gufuncs np.fft.fft/ifft end in; both
    # directions must be bitwise np.fft's, the table as the output array.
    rng = np.random.default_rng(n)
    half = rng.standard_normal(((n + 1) // 2, n)) + 1j * rng.standard_normal(((n + 1) // 2, n))
    for public, direct, scale in ((np.fft.fft, dynamics._fft, 1.0 / n), (np.fft.ifft, dynamics._ifft, 1.0)):
        expected = public(half, axis=1, norm="forward", out=np.empty_like(half))
        got = direct(half, scale, axes=dynamics._LAST_AXIS, out=np.empty_like(half))
        assert np.array_equal(_bits(got), _bits(expected))
        in_place = half.copy()
        direct(in_place, scale, axes=dynamics._LAST_AXIS, out=in_place)
        assert np.array_equal(_bits(in_place), _bits(expected))


def _record_bits(records):
    return [tuple(float.hex(float(x)) for x in vars(r).values()) for r in records]


def _per_record_reference(times, states):
    """Records as each was read alone before the batching, through np.fft."""
    def invariants(w):
        n = len(w)
        t = dynamics._weyl_tables(n)
        half = np.fft.fft(w.ravel()[t.from_matrix], axis=1, norm="forward")
        squares = np.square(half.view(np.float64))
        h, e = np.add.reduce(t.invariant_weights.reshape(2, -1) * squares.ravel(), axis=-1).tolist()
        return 0.5 * TWO_PI**2 * h, 0.5 * TWO_PI**2 * e

    h0, e0 = invariants(states[0])
    return [
        DiagnosticsRecord(t, h, e, dynamics._drift(h, h0), dynamics._drift(e, e0))
        for t, (h, e) in zip(times, map(invariants, states))
    ]


def _batch(n):
    return max(1, dynamics._RECORD_BYTES // (16 * n * n))


@pytest.mark.parametrize(
    "n, scheme, steps, every",
    [(21, "implicit_midpoint", steps, every)
     for steps in (0, 1, _batch(21) - 1, _batch(21), _batch(21) + 1, 1000) for every in (1, 3, 7)]
    + [(81, "rk4", steps, every) for steps in (0, 1, 5) for every in (1, 3)]
    + [(161, "rk4", steps, 2) for steps in (1, 3)],
)
def test_batched_records_are_the_per_record_ones(n, scheme, steps, every, monkeypatch):
    field = random_shell_field(build_grid(n), seed=n + steps, shell_min=1.0, shell_max=4.0, amplitude=6.0)
    config = IntegratorConfig(scheme=scheme, dt=1e-3, steps=steps, record_every=every)
    states, times, t = [lift(field)], [0.0], 0.0
    inner = dynamics.step

    def keeping(w, *args):
        nonlocal t
        w = inner(w, *args)
        t += config.dt
        states.append(w.copy())
        times.append(t)
        return w

    monkeypatch.setattr(dynamics, "step", keeping)
    _, records = integrate(field, config)
    recorded = [s for s in range(steps + 1) if s % every == 0 or s == steps]
    expected = _per_record_reference([times[s] for s in recorded], [states[s] for s in recorded])
    assert _record_bits(records) == _record_bits(expected)
    h0, e0 = records[0].energy, records[0].enstrophy  # and each one is the single-matrix record
    singles = [oracles.record(times[s], states[s], h0, e0) for s in recorded]
    assert _record_bits(records) == _record_bits(singles)


def test_record_buffer_holds_a_fixed_byte_budget():
    # 18 states at n = 21, one from n = 81 on: the buffer never holds more
    # than the budget or one state, whichever is larger.
    for n, size in ((21, 18), (81, 1), (161, 1)):
        w = lift(random_shell_field(build_grid(n), seed=0))
        recorder = dynamics._Recorder(w, IntegratorConfig(steps=10))
        assert len(recorder.states) == size
        assert recorder.states.nbytes <= max(dynamics._RECORD_BYTES, w.nbytes)


def _diverging_case(n, dt, steps, record_every):
    # RK4 far past its stability limit (shell 1..4, amplitude 6, seed 3)
    field = random_shell_field(build_grid(n), seed=3, shell_min=1.0, shell_max=4.0, amplitude=6.0)
    return field, IntegratorConfig(dt=dt, steps=steps, record_every=record_every)


@pytest.mark.parametrize("steps", [10, 12])
def test_a_diverged_record_stops_the_run_at_its_time(steps):
    # At n = 81, dt = 2e-2 W stays finite through step 12, but E has grown
    # 12.6-fold by step 9 (t = 0.18), and H and E overflow at step 12.
    field, config = _diverging_case(81, 2e-2, steps, 1)
    with pytest.raises(ConsistencyError, match=r"diverged at t=0\.18: .* more than 1\.0"):
        integrate(field, config)


def test_a_non_finite_record_stops_the_run():
    # Recorded only at step 12, whose W is finite but whose H and E overflow.
    field, config = _diverging_case(81, 2e-2, 12, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match=r"H or E is non-finite at t=0\.2399+6 \(H=inf"):
            integrate(field, config)


def test_a_batch_check_reports_its_first_refused_record():
    # rows H, E, drift_H, drift_E of records at t = 0.1, 0.2, 0.3, 0.4: a
    # batch is tested at once, yet the message is the first refused record's,
    # and a record that is non-finite and drifted is reported as non-finite
    values = np.array([
        [1.0, 1.0, 9.0, math.nan],
        [2.0, 2.0, 2.0, 2.0],
        [0.0, 0.5, 8.0, math.nan],
        [0.0, 0.0, 0.0, math.inf],
    ])
    times = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(ConsistencyError, match=r"^diverged at t=0\.3: H and E drifted by 8 and 0 "):
        dynamics._Recorder._check(times, values)
    values[1, 2] = math.inf
    message = r"^H or E is non-finite at t=0\.3 \(H=9\.0, E=inf\)$"
    with pytest.raises(ConsistencyError, match=message):
        dynamics._Recorder._check(times, values)
    dynamics._Recorder._check(times[:2], values[:, :2])  # drifts of 0.5 and less pass
    values[3, 1] = 1.5
    with pytest.raises(ConsistencyError, match=r"^diverged at t=0\.2: .* by 0\.5 and 1\.5 "):
        dynamics._Recorder._check(times[:2], values[:, :2])


def test_a_buffered_divergence_is_reported_before_a_later_failing_step():
    # n = 21 batches 18 records: the record of step 7 diverges, and step 12
    # makes W non-finite before that batch is read.  The earlier record wins.
    field, config = _diverging_case(21, 5e-2, 20, 1)
    with pytest.raises(ConsistencyError, match=r"diverged at t=0\.35"):
        integrate(field, config)
    config = IntegratorConfig(dt=5e-2, steps=20, record_every=20)  # no record before step 12
    with pytest.raises(ConsistencyError, match="non-finite entries after step 12"):
        integrate(field, config)
