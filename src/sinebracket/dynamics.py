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
* :func:`rhs_fast`              matrix-commutator form with one matmul,
                                O(n^3); the production route.

The fast route rewrites the truncated field as an n x n matrix over the
clock-and-shift basis, where the sine bracket becomes an exact matrix
commutator (the su(n) realisation of the truncation); the mode <-> matrix
transforms are per-diagonal FFTs plus one flat gather each.  A real field
maps to a Hermitian matrix, so the commutator with the stream matrix is a
product plus its own adjoint: one matmul suffices, and the tendency obeys
the reality condition bitwise, so steppers keep a real state exactly.  The
sum defining the tendency couples input and output indices through the
symplectic phase sin((2pi/n) i x k), which cannot be absorbed into index
translations, so no plain convolution (FFT) evaluation exists; the
commutator is the fastest exact form here.

Time stepping offers classical RK4 and the implicit midpoint rule; the
latter conserves every quadratic invariant (energy, enstrophy) up to the
tolerance of its fixed-point solve.  :func:`step` on its own starts that
solve from the explicit-Euler guess z + dt f(z).  :func:`integrate` keeps
up to nine accepted states of its run and starts each solve from their
polynomial extrapolation instead (Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, VIII.6), which costs no rhs call and lands within
about one contraction sweep of the solution at small dt.  The guess moves
the result only within the solver tolerance, and reruns stay bitwise
identical.  :func:`integrate` also counts the rhs calls of the run and
stops at the first non-finite state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import _masked_gather, _pair_tables, nambu_prefactor
from .errors import ConsistencyError, StepConvergenceError
from .functionals import Functional
from .grid import (
    TWO_PI,
    ModeField,
    TruncationGrid,
    _invariants,
    _quadratic_sum,
    _quadratic_terms,
    _wrap_index,
    _wrapped,
    energy,  # noqa: F401  (perfbench/spans.py traces the diagnostics under these names)
    enstrophy,  # noqa: F401
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
        return complex(_quadratic_sum(field, weights))

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
    """Flat gather indices and phase tables of the clock-and-shift basis at one n."""

    def __init__(self, n: int):
        m = (n - 1) // 2
        half_inv = (n + 1) // 2  # inverse of 2 modulo odd n
        rows = np.arange(n)
        # basis element for wave vector k: lam^(k1 k2 / 2) g^k1 h^k2 with
        # g = diag(lam^a), (h v)_a = v_{a+1}, lam = exp(4i pi/n); the /2 is
        # the mod-n inverse, making the element n-periodic in both indices.
        self.phase = np.exp((4j * np.pi / n) * ((half_inv * np.outer(rows, rows)) % n))
        self.conj_phase = np.conj(self.phase)
        r, c = rows[:, None], rows[None, :]
        # to-Weyl: matrix[r, j] = spectral[2r mod n, (j - r) mod n].
        self.to_matrix = ((2 * r) % n) * n + (c - r) % n
        # from-Weyl: the diagonal table D[r, c] = matrix[r, (r + c) mod n]
        # is gathered with row r' holding row r'/2 mod n, so that row r' of
        # the FFT of the gathered table is row 2r' of the FFT of D, which puts
        # the output rows in wave-vector order.
        hr = (half_inv * r) % n
        self.from_matrix = hr * n + (hr + c) % n
        # stream scale: B = to-Weyl(zw * stream) = (n i/4pi) P for the stream
        # matrix P of the field, with P's coefficients -zeta_k/|k|^2.
        signed = np.where(rows > m, rows - n, rows)
        norms2 = signed[:, None] ** 2 + signed[None, :] ** 2
        self.stream = np.zeros((n, n), dtype=np.complex128)
        self.stream[norms2 > 0] = (-0.25j * n / np.pi) / norms2[norms2 > 0]
        for arr in (self.phase, self.conj_phase, self.to_matrix, self.from_matrix, self.stream):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _weyl_tables(n: int) -> _WeylTables:
    return _WeylTables(n)


def _to_weyl_matrix(n: int, wrapped: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k from wrapped coefficients c[k1 % n, k2 % n]."""
    t = _weyl_tables(n)
    spectral = wrapped * t.phase
    np.fft.ifft(spectral, axis=0, norm="forward", out=spectral)
    return spectral.ravel().take(t.to_matrix)


def _from_weyl_matrix(n: int, matrix: np.ndarray) -> np.ndarray:
    """Wrapped coefficients of a matrix in the clock-and-shift basis."""
    t = _weyl_tables(n)
    spectral = matrix.ravel().take(t.from_matrix)
    np.fft.fft(spectral, axis=0, norm="forward", out=spectral)
    spectral *= t.conj_phase
    return spectral


def rhs_fast(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Tendency through the commutator form with one matmul, O(n^3).

    The field is lifted to the Hermitian matrix W over the clock-and-shift
    basis and its scaled stream function to the skew-Hermitian
    B = (n i/4pi) P, where the truncated bracket is exactly
    (n i/4pi) [P, W] = BW + (BW)^H.  Since from-Weyl(X^H)_k equals
    conj(from-Weyl(X)_{-k}), the tendency is y + conj(y_{-k}) with
    y = from-Weyl(BW): one matmul, and a result that satisfies the reality
    condition bitwise, so no non-real part can build up while stepping.
    The input is taken to be real; the mean component of the product is
    discarded.
    """
    n = grid.n
    zw = _wrapped(field, n)
    w_mat = _to_weyl_matrix(n, zw)
    zw *= _weyl_tables(n).stream
    b_mat = _to_weyl_matrix(n, zw)
    y = _from_weyl_matrix(n, b_mat @ w_mat).ravel().take(_wrap_index(n, n))
    tendency = y.take(grid.neg_index)
    np.conjugate(tendency, out=tendency)
    tendency += y
    return ModeField(grid, tendency)


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
        if not self.midpoint_tol >= 0:
            raise ValueError(f"midpoint_tol must be nonnegative, got {self.midpoint_tol}")
        if self.midpoint_max_iter < 1:
            raise ValueError(f"midpoint_max_iter must be at least 1, got {self.midpoint_max_iter}")


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


@dataclass
class RhsCounts:
    """rhs calls of one :func:`integrate` run."""

    steps: int = 0
    calls: int = 0
    max_per_step: int = 0

    @property
    def per_step(self) -> float:
        return self.calls / self.steps if self.steps else 0.0


def step(
    state: SimState,
    config: IntegratorConfig,
    rhs: RhsFunction = rhs_fast,
    guess: np.ndarray | None = None,
) -> SimState:
    """Advance one step; the input state is left untouched.

    ``guess`` starts the implicit midpoint solve in place of the
    explicit-Euler guess (RK4 ignores it).  A non-finite solver update
    raises :class:`ConsistencyError` at once.
    """
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
        if guess is None:
            guess = z + dt * f(z)
        scale = max(1.0, float(np.max(np.abs(guess))))
        delta = math.nan
        for _ in range(config.midpoint_max_iter):
            improved = z + dt * f(0.5 * (z + guess))
            previous, delta = delta, float(np.max(np.abs(improved - guess)))
            if not math.isfinite(delta):
                raise ConsistencyError(f"implicit midpoint update is non-finite at t={state.time!r}")
            guess = improved
            if delta <= config.midpoint_tol * scale:
                break
        else:
            raise StepConvergenceError(
                f"implicit midpoint did not converge in {config.midpoint_max_iter} "
                f"iterations at t={state.time!r} (last update {delta:.3e}, "
                f"contraction estimate {delta / previous:.3g})"
            )
        advanced = guess

    return SimState(state.time + dt, ModeField(grid, advanced))


# Highest order of the extrapolated midpoint guess, and its weights for
# each order q: z* = sum_j (-1)^j C(q+1, j+1) z_{n-j}, newest state first.
# Order 8 made the fewest rhs calls per step at dt = 1e-3 (CHANGES.md).
_GUESS_ORDER = 8
_GUESS_WEIGHTS = [
    np.array([(-1) ** j * math.comb(q + 1, j + 1) for j in range(q + 1)], dtype=np.float64)
    for q in range(_GUESS_ORDER + 1)
]


def _drift(value: float, initial: float) -> float:
    """Relative change from a nonzero initial value, absolute from zero."""
    return abs(value - initial) / max(abs(initial), 1e-300) if initial != 0.0 else abs(value)


def _record(state: SimState, h0: float, e0: float) -> DiagnosticsRecord:
    # integrate() has validated the field's reality at its own tolerance.
    h, e = _invariants(state.field)
    return DiagnosticsRecord(state.time, h, e, _drift(h, h0), _drift(e, e0))


def integrate(
    state: SimState,
    config: IntegratorConfig,
    rhs: RhsFunction = rhs_fast,
    counts: RhsCounts | None = None,
) -> tuple[SimState, list[DiagnosticsRecord]]:
    """Run ``config.steps`` steps with diagnostics every ``record_every``.

    The reality condition is validated (relative 1e-10) on entry and at
    every record point; finiteness after every step, where a non-finite
    state raises :class:`ConsistencyError`.  The final step is always
    recorded.  Implicit midpoint solves start from the extrapolation of up
    to ``_GUESS_ORDER + 1`` states of this run.  ``counts``, if given,
    accumulates the run's steps and rhs calls.  Returns the final state and
    the diagnostics series, the input state is left untouched.
    """
    validate_reality(state.field, tol=1e-10)
    h0, e0 = _invariants(state.field)
    records = [_record(state, h0, e0)]
    current = SimState(state.time, state.field.copy())
    counts = RhsCounts() if counts is None else counts

    def counted(grid: TruncationGrid, field: ModeField) -> ModeField:
        counts.calls += 1
        return rhs(grid, field)

    implicit = config.scheme == "implicit_midpoint"
    # Accepted states of this run, newest first.  With a single state the
    # zero-order guess z_n would only reach the Euler guess one sweep
    # later, so the first step keeps the Euler guess.
    kept = 1
    if implicit:
        history = np.empty((_GUESS_ORDER + 1, current.field.coeffs.size), dtype=np.complex128)
        history[0] = current.field.coeffs
    # Overflow shows up as a non-finite state and is reported as such.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, config.steps + 1):
            before = counts.calls
            guess = _GUESS_WEIGHTS[kept - 1] @ history[:kept] if implicit and kept > 1 else None
            current = step(current, config, counted, guess)
            counts.steps += 1
            counts.max_per_step = max(counts.max_per_step, counts.calls - before)
            if not np.isfinite(current.field.coeffs).all():
                raise ConsistencyError(
                    f"mode field has non-finite coefficients after step {s} (t={current.time!r})"
                )
            if implicit:
                history[1:] = history[:-1]
                history[0] = current.field.coeffs
                kept = min(kept + 1, len(history))
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
    norms2 = field.grid.norms2
    shells, which = np.unique(norms2, return_inverse=True)
    terms = _quadratic_terms(field, 1.0 / norms2).real
    return dict(zip(shells.tolist(), (0.5 * TWO_PI**2 * np.bincount(which, terms)).tolist()))
