"""Tendencies and conservative time stepping for the truncated vorticity flow.

The equation of motion in mode space is

    d zeta_i / dt = -(n/2pi) sum_k |k|^-2 sin((2pi/n) i x k)
                     zeta_{(i+k)|n} zeta_{-k}

equivalently the Lie-Poisson flow of the kinetic energy, equivalently the
Nambu flow {zeta_i, H, E}.  Four independent assemblies of the right-hand
side are provided and must agree to rounding:

* :func:`rhs_naive`             direct double sum, O(n^4), the reference;
* :func:`rhs_nambu`             contraction of the Nambu tensor with both
                                gradients;
* :func:`rhs_from_lie_poisson`  {zeta_i, H} mode by mode through the
                                functional machinery;
* :func:`rhs_fast`              matrix-commutator form, O(n^3).

The fast route rewrites the truncated field as an n x n matrix over the
clock-and-shift basis, where the sine bracket becomes an exact matrix
commutator (the su(n) realisation of the truncation); the mode <-> matrix
transforms are per-diagonal FFTs.  The sum defining the tendency couples
input and output indices through the symplectic phase sin((2pi/n) i x k),
which cannot be absorbed into index translations, so no plain convolution
(FFT) evaluation exists; the commutator is the fastest exact form here.

Time stepping offers classical RK4 and the implicit midpoint rule; the
latter conserves every quadratic invariant (energy, enstrophy) up to the
tolerance of its fixed-point solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import _masked_gather, _pair_tables, nambu_prefactor
from .errors import StepConvergenceError
from .functionals import Functional
from .grid import (
    TWO_PI,
    ModeField,
    TruncationGrid,
    _wrapped,
    energy,
    enstrophy,
    validate_reality,
)

RhsFunction = Callable[[TruncationGrid, ModeField], ModeField]


def hamiltonian_gradient(grid: TruncationGrid, field: ModeField) -> np.ndarray:
    """dH/dzeta_i = (2pi)^2 zeta_{-i} / |i|^2."""
    return TWO_PI**2 * field.coeffs[grid.neg_index] / grid.norms2


def enstrophy_gradient(grid: TruncationGrid, field: ModeField) -> np.ndarray:
    """dE/dzeta_i = (2pi)^2 zeta_{-i}."""
    return TWO_PI**2 * field.coeffs[grid.neg_index]


def _quadratic_functional(
    grid: TruncationGrid, weights: np.ndarray, gradient: Callable, name: str
) -> Functional:
    """(2pi)^2/2 * sum_k w_k zeta_k zeta_{-k} as a differentiable observable.

    The value map is the raw quadratic sum (complex for non-symmetric
    inputs) so that finite-difference probing stays well defined; it
    coincides with :func:`~sinebracket.grid.energy` or
    :func:`~sinebracket.grid.enstrophy` on reality fields.
    """

    def value(field: ModeField) -> complex:
        z = field.coeffs
        return complex(0.5 * TWO_PI**2 * np.sum(weights * z * z[grid.neg_index]))

    return Functional(value, lambda field: gradient(grid, field), name=name)


def hamiltonian_functional(grid: TruncationGrid) -> Functional:
    """Kinetic energy as a differentiable observable."""
    return _quadratic_functional(grid, 1.0 / grid.norms2, hamiltonian_gradient, "hamiltonian")


def enstrophy_functional(grid: TruncationGrid) -> Functional:
    """Enstrophy as a differentiable observable."""
    return _quadratic_functional(grid, np.ones(grid.size), enstrophy_gradient, "enstrophy")


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def rhs_naive(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Reference tendency by the direct double sum over the retained set."""
    t = _pair_tables(grid.n)
    z = field.coeffs
    gathered = _masked_gather(z, t.wrap_index)
    inv_lap = z[grid.neg_index] / grid.norms2
    tendency = -(grid.n / TWO_PI) * ((t.sin_cross * gathered) @ inv_lap)
    return ModeField(grid, tendency)


def rhs_nambu(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Tendency as the Nambu contraction d zeta_i/dt = N_ijk dH_j dE_k."""
    t = _pair_tables(grid.n)
    grad_h = hamiltonian_gradient(grid, field)
    grad_e_closed = _masked_gather(enstrophy_gradient(grid, field), t.neg_wrap_index)
    tendency = nambu_prefactor(grid.n) * ((t.sin_cross * grad_e_closed) @ grad_h)
    return ModeField(grid, tendency)


def rhs_from_lie_poisson(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Tendency assembled mode by mode as {zeta_i, H}; verification route.

    Deliberately goes through the functional machinery (coordinate
    observables against the energy) rather than any shared assembly;
    O(n^4) per call, intended for cross checks at small n.
    """
    from .algebra import lie_poisson_bracket_complex
    from .functionals import coordinate_functional

    ham = hamiltonian_functional(grid)
    out = np.empty(grid.size, dtype=np.complex128)
    for a in range(grid.size):
        coord = coordinate_functional(grid, grid.vector_at(a))
        out[a] = lie_poisson_bracket_complex(grid, field, coord, ham)
    return ModeField(grid, out)


class _WeylTables:
    """Index and phase tables of the clock-and-shift basis at one n."""

    def __init__(self, n: int):
        m = (n - 1) // 2
        half_inv = (n + 1) // 2  # inverse of 2 modulo odd n
        rows = np.arange(n)
        # basis element for wave vector k: lam^(k1 k2 / 2) g^k1 h^k2 with
        # g = diag(lam^a), (h v)_a = v_{a+1}, lam = exp(4i pi/n); the /2 is
        # the mod-n inverse, making the element n-periodic in both indices.
        self.phase = np.exp((4j * np.pi / n) * ((half_inv * np.outer(rows, rows)) % n))
        self.double = (2 * rows) % n
        self.diag_cols = (rows[:, None] + rows[None, :]) % n
        signed = np.where(rows > m, rows - n, rows)
        norms2 = signed[:, None] ** 2 + signed[None, :] ** 2
        self.inv_norms2 = np.zeros((n, n))
        self.inv_norms2[norms2 > 0] = 1.0 / norms2[norms2 > 0]
        for arr in (self.phase, self.double, self.diag_cols, self.inv_norms2):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _weyl_tables(n: int) -> _WeylTables:
    return _WeylTables(n)


def _to_weyl_matrix(n: int, wrapped: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k from wrapped coefficients c[k1 % n, k2 % n]."""
    t = _weyl_tables(n)
    spectral = np.fft.ifft(wrapped * t.phase, axis=0) * n
    rows = np.arange(n)
    matrix = np.empty((n, n), dtype=np.complex128)
    matrix[rows[:, None], t.diag_cols] = spectral[t.double, :]
    return matrix


def _from_weyl_matrix(n: int, matrix: np.ndarray) -> np.ndarray:
    """Wrapped coefficients of a matrix in the clock-and-shift basis."""
    t = _weyl_tables(n)
    rows = np.arange(n)
    diagonals = matrix[rows[:, None], t.diag_cols]
    spectral = np.fft.fft(diagonals, axis=0) / n
    return spectral[t.double, :] * np.conj(t.phase)


def rhs_fast(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Tendency through the commutator form, O(n^3).

    The field and its stream function are lifted to matrices W and P over
    the clock-and-shift basis, where the truncated bracket is exactly
    (n i/4pi) [P, W]; the result is transformed back to mode coefficients.
    The mean component of the commutator vanishes (it is traceless) and is
    discarded.
    """
    n = grid.n
    t = _weyl_tables(n)
    zw = _wrapped(field, n)
    pw = -zw * t.inv_norms2
    w_mat = _to_weyl_matrix(n, zw)
    p_mat = _to_weyl_matrix(n, pw)
    commutator = p_mat @ w_mat - w_mat @ p_mat
    tw = _from_weyl_matrix(n, (0.25 * n / np.pi) * 1j * commutator)
    v = grid.vectors
    return ModeField(grid, tw[v[:, 0] % n, v[:, 1] % n])


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step parameters, validated on construction."""

    scheme: str = "rk4"
    dt: float = 1e-3
    steps: int = 100
    record_every: int = 10
    midpoint_tol: float = 1e-13
    midpoint_max_iter: int = 50

    def __post_init__(self) -> None:
        if self.scheme not in ("rk4", "implicit_midpoint"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero and finite, got {self.dt}")  # negative = reversed run
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


@dataclass
class SimState:
    """Integration state: current time and mode field."""

    time: float
    field: ModeField


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Conserved-quantity snapshot; drifts are relative to the initial values."""

    time: float
    energy: float
    enstrophy: float
    drift_energy: float
    drift_enstrophy: float


def step(state: SimState, config: IntegratorConfig, rhs: RhsFunction = rhs_fast) -> SimState:
    """Advance one step; the input state is left untouched."""
    grid = state.field.grid
    z = state.field.coeffs
    dt = config.dt

    def f(coeffs: np.ndarray) -> np.ndarray:
        return rhs(grid, ModeField(grid, coeffs)).coeffs

    if config.scheme == "rk4":
        k1 = f(z)
        k2 = f(z + 0.5 * dt * k1)
        k3 = f(z + 0.5 * dt * k2)
        k4 = f(z + dt * k3)
        advanced = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:  # implicit midpoint by fixed-point iteration
        guess = z + dt * f(z)
        scale = max(1.0, float(np.max(np.abs(guess))))
        for _ in range(config.midpoint_max_iter):
            improved = z + dt * f(0.5 * (z + guess))
            delta = float(np.max(np.abs(improved - guess)))
            guess = improved
            if delta <= config.midpoint_tol * scale:
                break
        else:
            raise StepConvergenceError(
                f"implicit midpoint did not converge in {config.midpoint_max_iter} "
                f"iterations at t={state.time!r} (last update {delta:.3e})"
            )
        advanced = guess

    return SimState(state.time + dt, ModeField(grid, advanced))


def _record(state: SimState, h0: float, e0: float) -> DiagnosticsRecord:
    h = energy(state.field)
    e = enstrophy(state.field)
    return DiagnosticsRecord(
        time=state.time,
        energy=h,
        enstrophy=e,
        drift_energy=abs(h - h0) / max(abs(h0), 1e-300) if h0 != 0.0 else abs(h),
        drift_enstrophy=abs(e - e0) / max(abs(e0), 1e-300) if e0 != 0.0 else abs(e),
    )


def integrate(
    state: SimState,
    config: IntegratorConfig,
    rhs: RhsFunction = rhs_fast,
) -> tuple[SimState, list[DiagnosticsRecord]]:
    """Run ``config.steps`` steps with diagnostics every ``record_every``.

    The reality condition is re-validated (relative 1e-10) at every record
    point; the final step is always recorded.  Returns the final state and
    the diagnostics series, the input state is left untouched.
    """
    validate_reality(state.field, tol=1e-10)
    h0 = energy(state.field)
    e0 = enstrophy(state.field)
    records = [_record(state, h0, e0)]
    current = SimState(state.time, state.field.copy())
    for s in range(1, config.steps + 1):
        current = step(current, config, rhs)
        if s % config.record_every == 0 or s == config.steps:
            validate_reality(current.field, tol=1e-10)
            records.append(_record(current, h0, e0))
    return current, records


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def random_shell_field(
    grid: TruncationGrid,
    seed: int,
    shell_min: float = 1.0,
    shell_max: float = 8.0,
    amplitude: float = 1.0,
) -> ModeField:
    """Random band-limited field, conjugate-symmetric by construction.

    Every conjugate pair with shell_min <= |k|^2 <= shell_max receives
    magnitude amplitude/|k|^2 and a unit-modulus phase drawn from a
    generator seeded with ``seed``; deterministic in canonical order.
    """
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


def single_pair_field(grid: TruncationGrid, v, amplitude: complex = 1.0) -> ModeField:
    """One conjugate pair: zeta_hat(v) = amplitude, zeta_hat(-v) = conj.

    A steady state of the truncated flow: every interacting partner of a
    mode and its mirror has vanishing sine factor.
    """
    return ModeField.from_modes(grid, {v: amplitude})


def shell_energies(field: ModeField) -> dict[int, float]:
    """Energy per squared wave number |k|^2; diagnostic helper."""
    grid = field.grid
    z = field.coeffs
    contributions = 0.5 * TWO_PI**2 * (z * z[grid.neg_index]).real / grid.norms2
    out: dict[int, float] = {}
    for k2 in np.unique(grid.norms2):
        out[int(k2)] = float(np.sum(contributions[grid.norms2 == k2]))
    return out
