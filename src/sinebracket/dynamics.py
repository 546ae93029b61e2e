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
* :func:`rhs_from_lie_poisson`  {zeta_i, H}, the Lie-Poisson matrix of
                                the field times the energy functional's
                                gradient;
* :func:`rhs_fast`              matrix-commutator form with one matmul,
                                O(n^3); the production route.

The fast route rewrites the truncated field as an n x n matrix over the
clock-and-shift basis, where the sine bracket becomes an exact matrix
commutator (the su(n) realisation of the truncation).  A real field maps
to a Hermitian matrix W, and that matrix is the state the steppers
advance: :func:`lift` builds it once per run, the records read H and E off
W, and :func:`lower` gives the final state's modes.  The mode <-> matrix
transforms are one flat gather and one FFT per diagonal, on half-width
tables: a Hermitian or skew-Hermitian matrix is fixed by its diagonals
0..(n-1)/2, the rest are conjugate mirrors, so only those (n+1)/2 rows are
transformed.  Only lift and lower apply the phase of the basis; in the
tendency the phases of the two transforms cancel.  The commutator with
the skew-Hermitian stream matrix B is BW + (BW)^H, one matmul, and it is
Hermitian bitwise, so the stepped W stays exactly Hermitian and every
lowered state exactly real.  The sum defining the tendency couples input
and output indices through the symplectic phase sin((2pi/n) i x k), which
cannot be absorbed into index translations, so no plain convolution (FFT)
evaluation exists; the commutator is the fastest exact form here.

A step is a scheme map, looked up by name in ``_SCHEMES``: classical RK4,
or the implicit midpoint rule, which conserves every quadratic invariant
(energy, enstrophy) up to the tolerance of its fixed-point solve, the
shared :func:`_solve`.  Both work in per-n scratch matrices, so a step
allocates only the matrix it returns.  :func:`step` on its own starts the
midpoint solve from the explicit-Euler guess W + dt f(W); :func:`integrate`
starts it from one of two guesses that cost no rhs call.  The first is the
polynomial extrapolation of up to nine accepted states of its run (Hairer,
Lubich & Wanner, *Geometric Numerical Integration*, VIII.6).  Its weights
amplify the rounding noise of those states about 220-fold, which leaves
most small-dt solves one sweep short.  So once the previous step made at
most two rhs calls and 20 states are kept, a step starts instead from the
degree-10 least-squares fit through the 20 newest states, which amplifies
that noise 22-fold (the predictor of Kolafa, *J. Comput. Chem.* 25 (2004)
335); most such steps end after one sweep.  :func:`integrate` also counts
the rhs calls of the run and stops at the first non-finite state.

:func:`step` maps a matrix to a matrix and knows no time;
:func:`integrate` maps a field to a field and keeps the time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The gufuncs that np.fft.fft and np.fft.ifft(a, axis=-1, norm="forward", out=out)
# end in, numpy.fft._pocketfft_umath.fft/ifft(a, fct, axes=[(axis,), (), (axis,)],
# out=out) with the scale fct = 1/n forward and 1 back; called directly, a
# transform skips the wrapper's checks, most of its cost at n = 21.
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .algebra import _lie_poisson_matrix, _masked_gather, _nambu_matrix, _pair_tables
from .errors import ConsistencyError, StepConvergenceError
from .functionals import Functional
from .grid import (
    TWO_PI,
    ModeField,
    TruncationGrid,
    _quadratic_sum,
    _wrapped,
    build_grid,
    energy,  # noqa: F401  (perfbench/spans.py traces the diagnostics under these names)
    enstrophy,  # noqa: F401
    validate_reality,
)

# rhs(grid, w, out=None) -> dW/dt, written into ``out`` when one is given.
RhsFunction = Callable[..., np.ndarray]


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
    nambu = _nambu_matrix(grid, enstrophy_gradient(grid, field))
    return ModeField(grid, nambu @ hamiltonian_gradient(grid, field))


def rhs_from_lie_poisson(grid: TruncationGrid, field: ModeField) -> ModeField:
    """Tendency as the Lie-Poisson flow {zeta_i, H} = M_ij dH/dzeta_j; verification route.

    One N x N Lie-Poisson matrix M of the field times the energy gradient,
    taken through the functional interface rather than any assembly shared
    with the other routes.  O(n^4) per call, intended for cross checks at
    small n.
    """
    return ModeField(grid, _lie_poisson_matrix(grid, field) @ hamiltonian_functional(grid).gradient(field))


class _WeylTables:
    """Gather indices, phases and stream scale of the clock-and-shift basis at one n.

    The transforms work on half-width tables of (n+1)/2 rows and n columns:
    row c holds diagonal c of a matrix, or the modes with k2 = c, so that
    the FFT runs along the contiguous axis.  The rows c = 0..(n-1)/2 fix a
    Hermitian or skew-Hermitian matrix, whose other diagonals are conjugate
    mirrors of these.
    """

    def __init__(self, n: int):
        m = (n - 1) // 2
        half_inv = (n + 1) // 2  # inverse of 2 modulo odd n
        rows = np.arange(n)
        c, a = np.arange(m + 1)[:, None], rows[None, :]
        # basis element for wave vector k: lam^(k1 k2 / 2) g^k1 h^k2 with
        # g = diag(lam^a), (h v)_a = v_{a+1}, lam = exp(4i pi/n); the /2 is
        # the mod-n inverse, making the element n-periodic in both indices.
        # phase[c, k1] is that factor for k2 = c.
        self.phase = np.exp((4j * np.pi / n) * ((half_inv * c * a) % n))
        # from-Weyl: diagonal c, D[r, c] = matrix[r, (r + c) mod n], is
        # gathered with entry r' holding D[r'/2 mod n, c], so that entry k1
        # of its FFT is entry 2 k1 of the FFT of D, which puts the output in
        # wave-vector order.
        hr = (half_inv * a) % n
        self.from_matrix = hr * n + (hr + c) % n
        # to-Weyl: with E[c, rho] the inverse FFT of row c and d = (j - r)
        # mod n, matrix[r, j] = E[d, 2r mod n] on the diagonals d <= m.  A
        # skew-Hermitian matrix has matrix[r, j] = -conj(matrix[j, r]), that
        # is E[-c, rho] = -conj(E[c, rho - 2c]); the rows m + c of the
        # gathered table hold -conj(E[c]), read at column 2j mod n.
        r, j = rows[:, None], rows[None, :]
        d = (j - r) % n
        self.to_matrix = np.where(d <= m, d * n + (2 * r) % n, (m + n - d) * n + (2 * j) % n)
        # stream scale: B = to-Weyl(modes * stream) = (n i/4pi) P for the
        # stream matrix P of the field, with P's coefficients -zeta_k/|k|^2;
        # the phases of from-Weyl and to-Weyl cancel between them.
        signed = np.where(rows > m, rows - n, rows)
        norms2 = c**2 + signed[None, :] ** 2
        self.stream = np.zeros((m + 1, n), dtype=np.complex128)
        self.stream[norms2 > 0] = (-0.25j * n / np.pi) / norms2[norms2 > 0]
        # invariants: H and E weights on the squared floats of a half table,
        # 1 in row 0, 2 in rows whose mirrors it omits, 0 at the trace, /|k|^2
        # for H; shaped (2, 1, .) to broadcast over a stack of tables.
        weight = np.where(c > 0, 2.0, 1.0) * (norms2 > 0)
        pair = np.repeat([weight / np.maximum(norms2, 1), weight], 2, axis=-1)
        self.invariant_weights = pair.reshape(2, 1, -1)
        # lower: retained k in canonical order read from the half table,
        # at (k2, k1) when k2 >= 0 and conjugated from -k otherwise.
        v = build_grid(n).vectors
        self.mirrored = v[:, 1] < 0
        k2, k1 = np.abs(v[:, 1]), np.where(self.mirrored, -v[:, 0], v[:, 0]) % n
        self.from_modes = k2 * n + k1
        for arr in (self.phase, self.from_matrix, self.to_matrix, self.stream,
                    self.invariant_weights, self.mirrored, self.from_modes):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _weyl_tables(n: int) -> _WeylTables:
    return _WeylTables(n)


class _Workspace:
    """Scratch matrices at one n: two for :func:`rhs_fast` and records, the rest for :func:`step`.

    Shared by every call at that n, so neither function is reentrant or
    thread-safe; the two sets are disjoint, so ``step`` may hand its
    matrices to ``rhs_fast``.  The complex ones are views of one block,
    which the allocator maps and unmaps whole, so that releasing the
    workspace returns its memory at once.
    """

    def __init__(self, n: int):
        block = np.empty((5, n, n), dtype=np.complex128)
        self.spectral, self.stream, self.stage, self.slope, self.total = block
        self.magnitude = np.empty((n, n))


@functools.lru_cache(maxsize=8)  # bounded: each holds five n x n complex matrices
def _workspace(n: int) -> _Workspace:
    return _Workspace(n)


_LAST_AXIS = [(-1,), (), (-1,)]  # the axes of _fft and _ifft: input, scale, output


# take buffers ``out`` under its default mode="raise"; the gather indices
# are in range, so mode="clip" gives the same result without it.  The
# ndarray method skips np.take's dispatch, about half a gather at n = 21.
def _to_weyl_matrix(n: int, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The skew-Hermitian matrix whose half table fills rows 0..(n-1)/2 of ``table``.

    Those rows hold the phase-scaled coefficients c_k phase_k, row k2 and
    column k1 mod n, of a matrix sum_k c_k T_k with c_{-k} = -conj(c_k).
    The matrix is written into ``out``; its diagonals below the half are
    filled from B = -B^H, so it is skew-Hermitian bitwise.  ``table``
    (n x n) is used as scratch, so nothing is allocated.
    """
    m = (n - 1) // 2
    half = table[: m + 1]
    _ifft(half, 1.0, axes=_LAST_AXIS, out=half)
    half[0].real = 0.0  # the main diagonal is imaginary; drop its rounding
    mirror = np.conjugate(table[1 : m + 1], out=table[m + 1 :]).view(np.float64)
    np.negative(mirror, out=mirror)
    return table.ravel().take(_weyl_tables(n).to_matrix, out=out, mode="clip")


def _from_weyl_matrix(n: int, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half table of a Hermitian matrix, written into the first (n+1)/2 rows of ``out``.

    Returns those rows, the coefficients c_k phase_k of the matrix in the
    layout :func:`_to_weyl_matrix` reads; the other modes follow from
    c_{-k} = conj(c_k).  A stack of matrices, shape (B, n, n), gives the
    stack of their tables in ``out`` of shape (B, (n+1)/2, n), by one
    gather and one FFT, each table bitwise the one of its matrix alone.
    """
    t = _weyl_tables(n)
    flat = matrix.reshape(matrix.shape[:-2] + (n * n,))
    half = flat.take(t.from_matrix, axis=-1, out=out[..., : len(t.from_matrix), :], mode="clip")
    _fft(half, 1.0 / n, axes=_LAST_AXIS, out=half)
    return half


def lift(field: ModeField) -> np.ndarray:
    """The Hermitian vorticity matrix W = sum_k zeta_k T_k of a real field.

    The field's real part (zeta_k + conj(zeta_{-k}))/2 is taken first, so a
    field that is not real lifts as its real part.  Its lift is built as the
    skew-Hermitian iW and turned by -i, which keeps W Hermitian bitwise.
    """
    grid = field.grid
    n, m = grid.n, grid.half
    z = field.coeffs
    wrapped = _wrapped(ModeField(grid, 0.5j * (z + np.conj(z[grid.neg_index]))))
    table = np.empty((n, n), dtype=np.complex128)
    np.multiply(wrapped[:, : m + 1].T, _weyl_tables(n).phase, out=table[: m + 1])
    w = _to_weyl_matrix(n, table, np.empty((n, n), dtype=np.complex128))
    w *= -1j
    return w


def lower(w: np.ndarray) -> ModeField:
    """The mode field of a Hermitian matrix; the inverse of :func:`lift`.

    The modes y with k2 >= 0 come from the half table, the others from
    y_{-k} = conj(y_k).  It returns (y_k + conj(y_{-k}))/2, which
    satisfies the reality condition bitwise.  The trace of W, the mean
    component, has no retained mode and is dropped.
    """
    grid = build_grid(w.shape[0])
    t = _weyl_tables(grid.n)
    half = _from_weyl_matrix(grid.n, w, np.empty(w.shape, dtype=np.complex128))
    y = (half * t.phase.conj()).ravel().take(t.from_modes)
    np.conjugate(y, out=y, where=t.mirrored)
    return ModeField(grid, 0.5 * (y + np.conj(y[grid.neg_index])))


def _stack_invariants(stack: np.ndarray, out: np.ndarray) -> np.ndarray:
    """H and E of each Hermitian matrix of a (B, n, n) stack, as the two rows of a (2, B) array.

    They are grid._invariants(lower(w)) of each matrix w to rounding: the
    weighted squares |c_k phase_k|^2 = zeta_k zeta_{-k} of its half table,
    summed per matrix as np.sum does.  ``out``, of shape (B, (n+1)/2, n),
    takes the tables.  Each matrix's values are bitwise those of it alone.
    """
    n = stack.shape[-1]
    squares = _from_weyl_matrix(n, stack, out=out).view(np.float64)
    np.square(squares, out=squares)
    weighted = _weyl_tables(n).invariant_weights * squares.reshape(len(stack), -1)
    sums = np.add.reduce(weighted, axis=-1)
    sums *= 0.5 * TWO_PI**2
    return sums


def rhs_fast(grid: TruncationGrid, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Tendency dW/dt of the Hermitian vorticity matrix, one matmul, O(n^3).

    The stream matrix B = (n i/4pi) P, with P the matrix of the stream
    function, is skew-Hermitian.  It comes from the half table of W scaled
    by the stream table: gather, FFT, scale, inverse FFT and one gather
    that fills the other half of B from B = -B^H.  The phases of the two
    transforms cancel, so neither is applied, and only the (n+1)/2 rows
    of the half table are transformed.  The truncated bracket is exactly
    (n i/4pi) [P, W] = BW + (BW)^H, so one product Y = BW gives a tendency
    that is Hermitian bitwise.  Apart from ``out`` (allocated when not
    given) every array is a scratch matrix of the per-n workspace.
    """
    n = grid.n
    ws = _workspace(n)
    scaled = _from_weyl_matrix(n, w, out=ws.spectral)
    scaled *= _weyl_tables(n).stream
    b_mat = _to_weyl_matrix(n, ws.spectral, out=ws.stream)
    y = np.matmul(b_mat, w, out=ws.spectral)  # the scaled modes are spent
    # Y + Y^H through a copy of Y^T: a ufunc reading the transposed view
    # directly would buffer a full copy of it.
    if out is None:
        out = np.empty_like(y)
    np.copyto(out, y.T)
    np.conjugate(out, out=out)
    out += y
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

_MIDPOINT_TOL = 1e-13  # a sweep moving W by <= this * max(1, max |W|) ends the solve
_MIDPOINT_MAX_ITER = 50  # sweeps before the solve raises StepConvergenceError


def _axpy(out: np.ndarray, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out = y + a x, in place."""
    np.multiply(x, a, out=out)
    out += y
    return out


def _rk4(grid: TruncationGrid, w: np.ndarray, dt: float, rhs: RhsFunction, guess) -> np.ndarray:
    """Classical RK4; ``guess`` is ignored."""
    ws = _workspace(grid.n)
    # k1 .. k4 land in turn in ``slope``; the next stage is built from k
    # before k is weighted into total = k1 + 2 k2 + 2 k3 + k4 (that order).
    ws.total.fill(0.0)
    x = w
    for weight, reach in ((1.0, 0.5), (2.0, 0.5), (2.0, 1.0), (1.0, None)):
        k = rhs(grid, x, out=ws.slope)
        if reach is not None:
            x = _axpy(ws.stage, reach * dt, k, w)
        k *= weight
        ws.total += k
    ws.total *= dt / 6.0
    return ws.total + w


def _solve(sweep: Callable, start: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Fixed point of ``sweep(current, out)``, iterated in ``start`` and ``ws.stage`` by turns.

    A sweep writes its image of ``current`` into ``out`` (scratch: ``ws.slope``).  The solve
    ends at a sweep moving no entry by more than ``_MIDPOINT_TOL * max(1, max |start|)``.  A
    non-finite update raises :class:`ConsistencyError` at once, and ``_MIDPOINT_MAX_ITER``
    sweeps without convergence raise :class:`StepConvergenceError` with the last update and
    its ratio to the one before, the contraction estimate.
    """
    current, trial = start, ws.stage
    scale = max(1.0, float(np.abs(current, out=ws.magnitude).max()))
    delta = math.nan
    for _ in range(_MIDPOINT_MAX_ITER):
        improved = sweep(current, trial)
        update = np.subtract(improved, current, out=ws.slope)
        previous, delta = delta, float(np.abs(update, out=ws.magnitude).max())
        if not math.isfinite(delta):
            raise ConsistencyError("implicit midpoint update is non-finite")
        current, trial = improved, current
        if delta <= _MIDPOINT_TOL * scale:
            return current
    raise StepConvergenceError(
        f"implicit midpoint did not converge in {_MIDPOINT_MAX_ITER} "
        f"iterations (last update {delta:.3e}, "
        f"contraction estimate {delta / previous:.3g})"
    )


def _implicit_midpoint(grid: TruncationGrid, w: np.ndarray, dt: float, rhs: RhsFunction, guess):
    """W~ = W + dt f((W + W~)/2) by :func:`_solve` from ``guess``, or else from W + dt f(W).

    ``rhs`` must be quadratic: a sweep takes f(W + W~)/4 for f((W + W~)/2), bitwise the same.
    """
    ws = _workspace(grid.n)
    if guess is None:
        _axpy(ws.total, dt, rhs(grid, w, out=ws.slope), w)
    else:
        np.copyto(ws.total, guess)

    def sweep(current: np.ndarray, out: np.ndarray) -> np.ndarray:
        k = rhs(grid, np.add(w, current, out=out), out=ws.slope)  # 4 f(midpoint)
        return _axpy(out, 0.25 * dt, k, w)  # W + W~ is spent

    return _solve(sweep, ws.total, ws).copy()


# scheme name -> map(grid, w, dt, rhs, guess) of W to the next W; the one list of the names
_SCHEMES = {"rk4": _rk4, "implicit_midpoint": _implicit_midpoint}


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step parameters, validated on construction."""

    scheme: str = "rk4"
    dt: float = 1e-3
    steps: int = 100
    record_every: int = 10

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("steps", "record_every"):  # refuse bools and fractions, store as int
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.dt, bool) or self.dt == 0 or not np.isfinite(self.dt):  # < 0: reversed run
            raise ValueError(f"dt must be a nonzero finite number, got {self.dt!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


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
    smoothed_guess_steps: int = 0  # midpoint steps started from the smoothing guess

    @property
    def per_step(self) -> float:
        return self.calls / self.steps if self.steps else 0.0


def step(
    w: np.ndarray,
    config: IntegratorConfig,
    rhs: RhsFunction = rhs_fast,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """The Hermitian vorticity matrix W advanced by one step of ``config.dt``.

    ``w`` is left untouched and must be square, of a size :func:`build_grid` accepts.
    The step is the map ``_SCHEMES[config.scheme]``.  ``rhs`` writes each tendency into the
    ``out`` it is given; ``guess`` starts a midpoint solve in place of the Euler guess.
    """
    shape = np.shape(w)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"vorticity matrix must be square, got shape {shape}")
    try:
        grid = build_grid(shape[0])
    except ValueError as exc:
        raise ValueError(f"{exc} (vorticity matrix: got shape {shape})") from None
    return _SCHEMES[config.scheme](grid, w, config.dt, rhs, guess)


# Highest order of the extrapolated midpoint guess, and its weights for
# each order q: z* = sum_j (-1)^j C(q+1, j+1) z_{n-j}, newest state first.
# Order 8 made the fewest rhs calls per step at dt = 1e-3 (CHANGES.md).
_GUESS_ORDER = 8
_GUESS_WEIGHTS = [
    np.array([(-1) ** j * math.comb(q + 1, j + 1) for j in range(q + 1)], dtype=np.float64)
    for q in range(_GUESS_ORDER + 1)
]
# The same weights per ring slot of integrate(), keyed by (states kept, slot of the newest).
_SLOT_WEIGHTS = {
    (kept, newest): _GUESS_WEIGHTS[kept - 1][(newest - np.arange(kept)) % (_GUESS_ORDER + 1)]
    for kept in range(2, _GUESS_ORDER + 2)
    for newest in (range(kept) if kept > _GUESS_ORDER else [kept - 1])
}
# The smoothing guess: the degree-10 least-squares polynomial through the
# 20 newest states (at t = 0, -1, ..., -19) evaluated at t = 1, newest
# first.  Exact: these integers over 12920 sum to 1 and reproduce t^p for
# p <= 10.  Their L2 norm is 22.4, against 220 for the order-8 weights, so
# the rounding noise of the accepted states enters the guess ten times
# smaller.  A step starts from it when its predecessor made at most
# _SMOOTH_MAX_CALLS rhs calls: that solve was limited by the noise, not by
# the truncation error of the guess, which this fit has more of.
_SMOOTH_WEIGHTS = np.array([
    78166, -168674, 119306, 61226, -67639, -69091, 14399, 65219, 35574, -29106,
    -55566, -18326, 38269, 46849, -6941, -53009, -10274, 63206, -37774, 7106,
]) / 12920
_SMOOTH_MAX_CALLS = 2
# The same weights per ring slot of integrate(), keyed by the slot of the
# newest state in each ring: nine for the ring of recent states, and the
# other eleven for the ring of the older states that leave it.  They are
# stored complex, the type a product with a ring is taken in, so that the
# product does not cast them at every step; the cast is exact.
_SMOOTH_RECENT, _SMOOTH_OLDER = (
    [
        part[(newest - np.arange(len(part))) % len(part)].astype(np.complex128)
        for newest in range(len(part))
    ]
    for part in np.split(_SMOOTH_WEIGHTS, [_GUESS_ORDER + 1])
)


def _drift(value, initial):
    """|value - initial| / max(|initial|, 1e-300), the change relative to a nonzero initial
    value, or |value - 0| / 1, which is |value| bitwise, from zero; elementwise over arrays."""
    initial = np.asarray(initial, dtype=np.float64)
    scale = np.where(initial == 0.0, 1.0, np.maximum(np.abs(initial), 1e-300))
    return np.abs(value - initial) / scale


def _record_values(stack: np.ndarray, out: np.ndarray, initial) -> np.ndarray:
    """H, E and their drifts from ``initial`` = [[H0], [E0]] for each matrix of ``stack``, the
    rows of a (4, B) array, read off the matrix (a record lowers nothing); ``out`` takes the
    half tables."""
    sums = _stack_invariants(stack, out)
    return np.concatenate((sums, _drift(sums, initial)))


def _records(times, values: np.ndarray) -> list:
    """The DiagnosticsRecord of each column of :func:`_record_values` at its time."""
    return [DiagnosticsRecord(*row) for row in zip(times, *values.tolist())]


# Bytes of recorded states that a run holds before it reads their H and E as
# one stack: 18 states at n = 21, one from n = 81 on.  At small n a batch
# saves most of a record's cost, the per-call overhead of the gather, the FFT
# and the sum; at n >= 81 it saves nothing, and held states would only add
# to the peak memory.
_RECORD_BYTES = 1 << 17
# A record whose H or E has moved from its value at t = 0 by more than this,
# relatively, ends the run as diverged.  The benchmark's stable RK4 runs
# drift by under 1e-5, so this is no tolerance on a scheme's drift.
_DIVERGED_DRIFT = 1.0


class _Recorder:
    """The diagnostics records of one run, read off W in batches.

    It records t = 0 on construction, and :meth:`after_step` the state of
    every ``record_every``-th step and of the last one.  A recorded state is
    copied into a buffer of as many matrices as fit ``_RECORD_BYTES`` (at
    least one); a full buffer and :meth:`flush` turn the buffered states
    into records, in order.  The first record whose H or E is non-finite, or
    drifts by more than ``_DIVERGED_DRIFT``, raises :class:`ConsistencyError`
    naming its own time; both tests run over the whole batch at once, and a
    non-finite value is reported before a drift.  Used under
    ``np.errstate(over="ignore")``: an overflowing H or E is reported as
    non-finite.
    """

    def __init__(self, w: np.ndarray, config: IntegratorConfig):
        n, m = len(w), (len(w) - 1) // 2
        size = max(1, _RECORD_BYTES // w.nbytes)
        self.states = np.empty((size, n, n), dtype=np.complex128)
        self.tables = np.empty((size, m + 1, n), dtype=np.complex128)
        self.every, self.last = config.record_every, config.steps
        self.times: list[float] = []
        self.initial = _stack_invariants(w[None], self.tables[:1])  # [[H0], [E0]]
        start = np.concatenate((self.initial, np.zeros((2, 1))))
        self._check([0.0], start)
        self.records = _records([0.0], start)

    def after_step(self, s: int, t: float, w: np.ndarray) -> None:
        """Record ``w``, the state at time ``t`` after step ``s``, if step ``s`` is recorded."""
        if s % self.every and s != self.last:
            return
        self.states[len(self.times)] = w
        self.times.append(t)
        if len(self.times) == len(self.states):
            self.flush()

    def flush(self) -> list[DiagnosticsRecord]:
        """Turn the buffered states into records; returns every record so far."""
        times, k = self.times, len(self.times)
        if k:
            self.times = []
            values = _record_values(self.states[:k], self.tables[:k], self.initial)
            self._check(times, values)
            self.records += _records(times, values)
        return self.records

    @staticmethod
    def _check(times: list[float], values: np.ndarray) -> None:
        """Raise at the first column of ``values`` (H, E, drift_H, drift_E) that is refused."""
        if np.isfinite(values).all() and values[2:].max() <= _DIVERGED_DRIFT:
            return
        nonfinite = ~np.isfinite(values[:2]).all(axis=0)
        r = np.flatnonzero(nonfinite | (values[2:].max(axis=0) > _DIVERGED_DRIFT))[0]
        t, (h, e, drift_h, drift_e) = times[r], values[:, r].tolist()
        if nonfinite[r]:
            raise ConsistencyError(f"H or E is non-finite at t={t!r} (H={h!r}, E={e!r})")
        raise ConsistencyError(
            f"diverged at t={t!r}: H and E drifted by {drift_h:.3g} and "
            f"{drift_e:.3g} from t = 0, more than {_DIVERGED_DRIFT!r}"
        )


def integrate(
    field: ModeField,
    config: IntegratorConfig,
    rhs: RhsFunction = rhs_fast,
    counts: RhsCounts | None = None,
) -> tuple[ModeField, list[DiagnosticsRecord]]:
    """Run ``config.steps`` steps from t = 0 with diagnostics every ``record_every``.

    The input field's reality condition is validated (relative 1e-10) on
    entry, and the field is lifted once; :func:`step` advances the
    Hermitian matrix W, records read H and E (and their drifts from t = 0)
    off W, and W is lowered to modes once, for the returned field.
    Finiteness is checked after every step, where a non-finite state raises
    :class:`ConsistencyError` (a midpoint step is finite when its solve
    returns, so only the other schemes' states are checked); a :class:`StepConvergenceError` or
    :class:`ConsistencyError` of a step is raised again with the time the
    step started from.  The final step is always recorded, and the records
    are read in batches by a :class:`_Recorder`: a record with non-finite H
    or E, or with a drift of either above ``_DIVERGED_DRIFT``, raises
    :class:`ConsistencyError` with its own time, also when a later step
    fails before its batch is read.  An implicit
    midpoint solve starts from the extrapolation of up to
    ``_GUESS_ORDER + 1`` states of this run, or, when the previous step
    made at most ``_SMOOTH_MAX_CALLS`` rhs calls and 20 states are kept,
    from the least-squares fit ``_SMOOTH_WEIGHTS`` through them; outputs
    differ from those of the extrapolation alone at rounding level.
    ``counts``, if given, accumulates the run's steps, rhs calls and steps
    started from the fit.  Returns the final field
    (the input field itself when ``config.steps`` is 0) and the diagnostics
    series; the input field is left untouched.
    """
    validate_reality(field, tol=1e-10)
    w, t = lift(field), 0.0
    counts = RhsCounts() if counts is None else counts

    def counted(grid: TruncationGrid, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        counts.calls += 1
        return rhs(grid, w, out=out)

    implicit = _SCHEMES[config.scheme] is _implicit_midpoint  # the one scheme that takes a guess
    # Accepted states of this run in a ring: step s writes slot s mod
    # len(history), so slot i holds the state (s - 1 - i) mod len(history)
    # steps older than the newest when step s starts.  Only the ``kept``
    # slots written so far are read, since a zero weight on an unwritten
    # (NaN) row would still poison the guess.  With a single state the
    # zero-order guess W_n would only reach the Euler guess one sweep
    # later, so the first step keeps the Euler guess.
    # The smoothing guess also reads the older ring: step s moves the state
    # it overwrites in ``history`` into slot s mod len(older).  That ring is
    # allocated at the first step of at most _SMOOTH_MAX_CALLS rhs calls, so
    # a run that never meets the rule never holds it; ``moved`` counts the
    # states it has received.
    kept, older, moved = 1, None, 0
    if implicit:
        history = np.empty((_GUESS_ORDER + 1, w.size), dtype=np.complex128)
        history[0] = w.ravel()
    # Overflow shows up as a non-finite state or record and is reported as such.
    with np.errstate(over="ignore", invalid="ignore"):
        recorder = _Recorder(w, config)
        try:
            for s in range(1, config.steps + 1):
                before = counts.calls
                guess = None
                if moved >= len(_SMOOTH_OLDER) and made <= _SMOOTH_MAX_CALLS:
                    guess = _SMOOTH_RECENT[(s - 1) % len(history)] @ history
                    guess += _SMOOTH_OLDER[(s - 1) % len(older)] @ older
                    guess = guess.reshape(w.shape)
                    counts.smoothed_guess_steps += 1
                elif implicit and kept > 1:
                    weights = _SLOT_WEIGHTS[kept, (s - 1) % len(history)]
                    guess = (weights @ history[:kept]).reshape(w.shape)
                try:
                    w = step(w, config, counted, guess)
                except (StepConvergenceError, ConsistencyError) as exc:
                    raise type(exc)(f"{exc} at t={t!r}") from exc
                t += config.dt
                made = counts.calls - before
                counts.steps += 1
                counts.max_per_step = max(counts.max_per_step, made)
                # A midpoint state needs no check: _solve returns only after a
                # finite update, and a finite difference has two finite terms.
                if not implicit and not np.isfinite(w).all():
                    raise ConsistencyError(
                        f"vorticity matrix has non-finite entries after step {s} (t={t!r})"
                    )
                if implicit:
                    if older is None and made <= _SMOOTH_MAX_CALLS:
                        older = np.empty((len(_SMOOTH_OLDER), w.size), dtype=np.complex128)
                    if older is not None and kept == len(history):
                        older[s % len(older)] = history[s % len(history)]
                        moved += 1
                    history[s % len(history)] = w.ravel()
                    kept = min(kept + 1, len(history))
                recorder.after_step(s, t, w)
        except (StepConvergenceError, ConsistencyError):
            recorder.flush()  # a buffered record may have diverged before the failing step
            raise
        records = recorder.flush()
    # The caller writes the run's outputs next; a workspace still held
    # would add to the peak memory of that.
    _workspace.cache_clear()
    return (lower(w) if config.steps else field), records


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
    k2, neg = grid.norms2, grid.neg_index
    # the canonical half of each pair in the shell, in canonical order
    half = np.flatnonzero((neg > np.arange(grid.size)) & (shell_min <= k2) & (k2 <= shell_max))
    u = np.random.default_rng(seed).random(len(half))
    coeff = (amplitude / k2[half]) * np.exp(2j * np.pi * u)
    out = ModeField.zeros(grid)
    out.coeffs[half] = coeff
    out.coeffs[neg[half]] = np.conj(coeff)
    return out
