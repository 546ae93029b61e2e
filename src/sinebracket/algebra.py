"""Structure constants, Killing form, and Nambu tensor of the mode algebra.

The truncated vorticity equation is a Lie-Poisson system on the sine
algebra (Zeitlin 1991): for retained wave vectors i, j the structure
constants are

    alpha_ij^k = -(2pi)^-2 (n/2pi) sin((2pi/n) i x j) delta_{(i+j)|n, k}

with i x j the scalar cross product and (i+j)|n the wrapped sum.  Letting
n -> infinity at fixed wave vectors recovers the untruncated constants
-(2pi)^-2 (i x j) delta_{i+j,k}.

The Killing pairing K_ij = sum_{k,l} alpha_ik^l alpha_jl^k collapses to
-n^4/(2(2pi)^6) delta_{(i+j)|n,0}, which is invertible, so the quadratic
Casimir C = 1/2 sum K^{ij} zeta_i zeta_j exists and r*C equals the
enstrophy for r = -(n/2pi)^4/2.  Lowering the upper index of alpha with K
and dividing by r yields the totally antisymmetric tensor

    N_ijk = -(2pi)^-4 (n/2pi) sin((2pi/n) i x j) delta_{(i+j+k)|n, 0}

which turns the Lie-Poisson bracket into a trilinear bracket with the
enstrophy as second conserved slot (Nambu 1973; the construction follows
Bialynicki-Birula and Morrison 1991).  The trilinear bracket satisfies the
Leibniz rule but not the generalized (fundamental) Jacobi identity;
:func:`gen_jacobi_residual` and :func:`scan_gen_jacobi` quantify exactly
how it fails.

Sine and cosine values are read from reflected tables indexed by integer
arguments modulo n, so all antisymmetry and wrap cancellations hold
bitwise, not merely to rounding.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .functionals import Functional, ModePolynomial
from .grid import (
    TWO_PI,
    ModeField,
    TruncationGrid,
    WaveVector,
    _as_wave_vector,
    enstrophy,
    validate_reality,
)

#: Generic algebras above this dimension are refused (dense tensors only).
GENERIC_DIMENSION_CAP = 128

#: Published violating tuple (i, j, k, l, p, q) of the generalized Jacobi
#: identity; valid for every truncation and for the untruncated tensor.
KNOWN_JACOBI_VIOLATION = (
    WaveVector(1, 0),
    WaveVector(0, 1),
    WaveVector(-1, -1),
    WaveVector(1, 0),
    WaveVector(-1, 1),
    WaveVector(0, -1),
)


def lie_poisson_prefactor(n: int) -> float:
    """Coefficient of sin((2pi/n) i x j) in the structure constants."""
    return -n / TWO_PI**3


def nambu_prefactor(n: int) -> float:
    """Coefficient of sin((2pi/n) i x j) in the Nambu tensor."""
    return -n / TWO_PI**5


def killing_diagonal(n: int) -> float:
    """Value of K_ij on the pairing diagonal j = -i."""
    return -0.5 * n**4 / TWO_PI**6


def killing_inverse_diagonal(n: int) -> float:
    return -2.0 * TWO_PI**6 / n**4


def casimir_scale(n: int) -> float:
    """The scaling r with r * Casimir = enstrophy; also lowers alpha to N."""
    return -0.5 * (n / TWO_PI) ** 4


@functools.lru_cache(maxsize=None)
def sine_table(n: int) -> np.ndarray:
    """sin(2pi s/n) for s = 0..n-1 with exact odd symmetry S[n-s] = -S[s]."""
    m = (n - 1) // 2
    table = np.zeros(n)
    for s in range(1, m + 1):
        value = math.sin(TWO_PI * s / n)
        table[s] = value
        table[n - s] = -value
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def cosine_table(n: int) -> np.ndarray:
    """cos(2pi s/n) for s = 0..n-1 with exact even symmetry."""
    m = (n - 1) // 2
    table = np.ones(n)
    for s in range(1, m + 1):
        value = math.cos(TWO_PI * s / n)
        table[s] = value
        table[n - s] = value
    table.setflags(write=False)
    return table


class _PairTables(NamedTuple):
    sin_cross: np.ndarray  # (N, N) sin((2pi/n) i x j)
    wrap_index: np.ndarray  # (N, N) canonical index of (i+j)|n, -1 if it wraps to 0
    neg_wrap_index: np.ndarray  # (N, N) canonical index of -(i+j)|n, -1 likewise


@functools.lru_cache(maxsize=None)
def _pair_tables(n: int) -> _PairTables:
    grid = TruncationGrid(n)
    v = grid.vectors
    m = grid.half
    cross = np.outer(v[:, 0], v[:, 1]) - np.outer(v[:, 1], v[:, 0])
    sin_cross = sine_table(n)[cross % n]
    o1 = (v[:, 0][:, None] + v[:, 0][None, :] + m) % n
    o2 = (v[:, 1][:, None] + v[:, 1][None, :] + m) % n
    wrap_index = grid.offset_table[o1, o2]
    neg_wrap_index = np.where(wrap_index >= 0, grid.neg_index[wrap_index], -1)
    for arr in (sin_cross, wrap_index, neg_wrap_index):
        arr.setflags(write=False)
    return _PairTables(sin_cross, wrap_index, neg_wrap_index)


def _masked_gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[index] with index == -1 mapped to 0.0."""
    out = values[np.clip(index, 0, None)]
    out[index < 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def alpha_zeitlin(grid: TruncationGrid, i, j, k) -> float:
    """Structure constant of the truncated algebra at (i, j, k).

    All three wave vectors must belong to the retained set; a sum that
    wraps to the origin matches no retained k, so the constant vanishes.
    """
    i, j, k = _as_wave_vector(i), _as_wave_vector(j), _as_wave_vector(k)
    for v in (i, j, k):
        grid.index_of(v)  # membership check, raises ValueError
    if grid.mod_reduce(i + j) != k:
        return 0.0
    return lie_poisson_prefactor(grid.n) * float(sine_table(grid.n)[i.cross(j) % grid.n])


def alpha_continuum(i, j, k) -> float:
    """Structure constant of the untruncated mode algebra at (i, j, k)."""
    i, j, k = _as_wave_vector(i), _as_wave_vector(j), _as_wave_vector(k)
    for v in (i, j, k):
        if v == (0, 0):
            raise ValueError("the zero wave vector is not a mode index")
    if i + j != k:
        return 0.0
    return -float(i.cross(j)) / TWO_PI**2


@dataclass(frozen=True)
class ZeitlinConstants:
    """Sine-algebra constants of the truncation with parameter grid.n."""

    grid: TruncationGrid

    def entry(self, i, j, k) -> float:
        return alpha_zeitlin(self.grid, i, j, k)

    def dense(self) -> np.ndarray:
        """Full (N, N, N) tensor in canonical index order.

        Memory grows as n^6; intended for cross checks at small n.
        """
        t = _pair_tables(self.grid.n)
        size = self.grid.size
        out = np.zeros((size, size, size))
        rows, cols = np.nonzero(t.wrap_index >= 0)
        out[rows, cols, t.wrap_index[rows, cols]] = (
            lie_poisson_prefactor(self.grid.n) * t.sin_cross[rows, cols]
        )
        return out


class ContinuumConstants:
    """Constants of the untruncated algebra; index set is all of Z^2 minus 0."""

    def entry(self, i, j, k) -> float:
        return alpha_continuum(i, j, k)


class GenericConstants:
    """Dense constants of a finite-dimensional algebra given as an array.

    Antisymmetry in the lower index pair is validated on construction.
    """

    def __init__(self, alpha: np.ndarray, antisymmetry_tol: float = 1e-12):
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim != 3 or len(set(alpha.shape)) != 1:
            raise ValueError(f"structure constants must be a cubic array, got shape {alpha.shape}")
        if alpha.shape[0] > GENERIC_DIMENSION_CAP:
            raise ValueError(
                f"dimension {alpha.shape[0]} exceeds the generic cap {GENERIC_DIMENSION_CAP}"
            )
        residual = dense_antisymmetry_residual(alpha)
        if residual > antisymmetry_tol:
            raise ValidationError(
                f"structure constants are not antisymmetric: relative residual {residual:.3e}"
            )
        self.alpha = alpha
        self.dim = alpha.shape[0]

    def entry(self, i: int, j: int, k: int) -> float:
        return float(self.alpha[i, j, k])


def dense_antisymmetry_residual(alpha: np.ndarray) -> float:
    """max |alpha_ij^k + alpha_ji^k| relative to the tensor scale."""
    scale = np.max(np.abs(alpha))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(alpha + alpha.transpose(1, 0, 2))) / scale)


def dense_jacobi_residual(alpha: np.ndarray) -> float:
    """Largest relative defect of the Jacobi identity of a dense tensor.

    Checks sum_l alpha_ij^l alpha_lk^m + cyclic(i,j,k) = 0 for all (i,j,k,m).
    """
    d = alpha.shape[0]
    t1 = (alpha.reshape(d * d, d) @ alpha.reshape(d, d * d)).reshape(d, d, d, d)
    total = t1 + t1.transpose(1, 2, 0, 3) + t1.transpose(2, 0, 1, 3)
    scale = np.max(np.abs(t1))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(total)) / scale)


# ---------------------------------------------------------------------------
# Killing form and Casimir
# ---------------------------------------------------------------------------


def killing_bruteforce(
    constants: ZeitlinConstants | GenericConstants | ContinuumConstants,
) -> np.ndarray:
    """K_ab = sum_{k,l} alpha_ak^l alpha_bl^k by direct double contraction.

    Returns the full (N, N) matrix.  For the truncated algebra the sum runs
    over the full retained set, one row a at a time; terms are dropped only
    where a wrap delta makes them exactly zero, and the closed form is never
    consulted.  The untruncated algebra has no trace-class adjoint, so its
    Killing form diverges and is refused.
    """
    if isinstance(constants, ContinuumConstants):
        raise ValueError(
            "the Killing form of the untruncated mode algebra diverges; "
            "only the truncated and generic variants admit one"
        )
    if isinstance(constants, GenericConstants):
        return dense_killing_matrix(constants.alpha)
    n, size = constants.grid.n, constants.grid.size
    t = _pair_tables(n)
    pref = lie_poisson_prefactor(n)
    ks = np.arange(size)
    out = np.empty((size, size))
    for a in range(size):
        l_idx = t.wrap_index[a]  # upper index closing alpha_{a,k}
        k, l = ks[l_idx >= 0], l_idx[l_idx >= 0]
        # alpha_{b,l}^k survives only where (b+l)|n lands back on k
        second = np.where(t.wrap_index[:, l] == k, t.sin_cross[:, l], 0.0)
        out[a] = (pref * second) @ (pref * t.sin_cross[a, k])
    return out


def dense_killing_matrix(alpha: np.ndarray) -> np.ndarray:
    """K_ij = sum_{k,l} alpha_ik^l alpha_jl^k of a dense (not validated) tensor."""
    return np.einsum("ikl,jlk->ij", alpha, alpha)


def killing_closed(grid: TruncationGrid, i, j) -> float:
    """Closed form of the truncated Killing pairing: diagonal in i, -j."""
    i, j = _as_wave_vector(i), _as_wave_vector(j)
    grid.index_of(i), grid.index_of(j)
    if grid.mod_reduce(i + j) != (0, 0):
        return 0.0
    return killing_diagonal(grid.n)


def orthogonality_check(grid: TruncationGrid, l, tol: float = 1e-11) -> float:
    """sum_k cos((2pi/n) k.l) over the retained set, checked exactly.

    Equals n^2 - 1 when l wraps to the origin modulo n and -1 otherwise;
    this discrete orthogonality is what collapses the Killing double sum.
    Deviations beyond ``tol`` (absolute) raise :class:`ConsistencyError`.
    """
    l = _as_wave_vector(l)
    v = grid.vectors
    dots = (v[:, 0] * l.i1 + v[:, 1] * l.i2) % grid.n
    total = float(np.sum(cosine_table(grid.n)[dots]))
    wraps_to_zero = l.i1 % grid.n == 0 and l.i2 % grid.n == 0
    expected = float(grid.n**2 - 1) if wraps_to_zero else -1.0
    if abs(total - expected) > tol:
        raise ConsistencyError(
            f"mode orthogonality violated at l={tuple(l)}: sum {total!r}, expected {expected!r}"
        )
    return total


@dataclass(frozen=True)
class ClosedKillingForm:
    """Closed-form Killing pairing of the truncation: K_ij = c_n delta_{(i+j)|n,0}."""

    grid: TruncationGrid

    def entry(self, i, j) -> float:
        return killing_closed(self.grid, i, j)

    def inverse_entry(self, i, j) -> float:
        return killing_inverse_diagonal(self.grid.n) if self.entry(i, j) else 0.0

    def as_matrix(self) -> np.ndarray:
        grid = self.grid
        out = np.zeros((grid.size, grid.size))
        out[np.arange(grid.size), grid.neg_index] = killing_diagonal(grid.n)
        return out


class DenseKillingForm:
    """Killing matrix of a generic algebra with a validated inverse."""

    def __init__(self, matrix: np.ndarray, symmetry_tol: float = 1e-12):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"Killing matrix must be square, got shape {matrix.shape}")
        scale = np.max(np.abs(matrix))
        if scale > 0 and np.max(np.abs(matrix - matrix.T)) > symmetry_tol * scale:
            raise ValidationError("Killing matrix is not symmetric")
        self.matrix = matrix
        self.inverse = self._invert()

    def _invert(self) -> np.ndarray:
        dim = self.matrix.shape[0]
        try:
            inverse = np.linalg.solve(self.matrix, np.eye(dim))
        except np.linalg.LinAlgError:
            inverse = None
        if inverse is None or np.max(np.abs(self.matrix @ inverse - np.eye(dim))) > 1e-8:
            raise ValueError(
                "Killing form is singular or near-singular: the algebra is not semi-simple"
            )
        return inverse

    def entry(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def inverse_entry(self, i: int, j: int) -> float:
        return float(self.inverse[i, j])


def quadratic_casimir(grid: TruncationGrid, field: ModeField, tol: float = 1e-12) -> float:
    """r/2 * sum_ij K^{ij} zeta_i zeta_j, cross-checked against the enstrophy.

    The inverse Killing pairing collapses onto j = -i, and the prefactors
    combine to (2pi)^2/2, so the scaled Casimir must reproduce the
    enstrophy to rounding.  A mismatch beyond ``tol`` (relative) raises
    :class:`ConsistencyError`; the Casimir value is returned.
    """
    validate_reality(field)
    z = field.coeffs
    paired = np.sum(z * z[grid.neg_index])
    value = 0.5 * casimir_scale(grid.n) * killing_inverse_diagonal(grid.n) * paired
    scale = abs(0.5 * casimir_scale(grid.n) * killing_inverse_diagonal(grid.n)) * np.sum(
        np.abs(z) ** 2
    )
    if abs(value.imag) > 1e-14 * max(scale, 1e-300):
        raise ConsistencyError("quadratic Casimir acquired an imaginary part")
    casimir = float(value.real)
    reference = enstrophy(field)
    if abs(casimir - reference) > tol * max(abs(reference), 1e-300):
        raise ConsistencyError(
            f"scaled quadratic Casimir {casimir!r} does not match the enstrophy {reference!r}"
        )
    return casimir


# ---------------------------------------------------------------------------
# Nambu tensor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineNambuTensor:
    """N_ijk of the truncation: supported where (i+j+k) wraps to the origin."""

    grid: TruncationGrid

    @property
    def scaling(self) -> float:
        """The r relating N to the Killing-lowered constants, alpha.K / r."""
        return casimir_scale(self.grid.n)

    def entry(self, i, j, k) -> float:
        i, j, k = _as_wave_vector(i), _as_wave_vector(j), _as_wave_vector(k)
        grid = self.grid
        for v in (i, j, k):
            grid.index_of(v)
        if grid.mod_reduce(i + j + k) != (0, 0):
            return 0.0
        return nambu_prefactor(grid.n) * float(sine_table(grid.n)[i.cross(j) % grid.n])


@dataclass(frozen=True)
class ContinuumNambuTensor:
    """Untruncated tensor: supported on exactly closing triples i+j+k = 0."""

    def entry(self, i, j, k) -> float:
        i, j, k = _as_wave_vector(i), _as_wave_vector(j), _as_wave_vector(k)
        for v in (i, j, k):
            if v == (0, 0):
                raise ValueError("the zero wave vector is not a mode index")
        if i + j + k != (0, 0):
            return 0.0
        return -float(i.cross(j)) / TWO_PI**4


class DenseNambuTensor:
    """Dense trilinear tensor of a generic algebra, validated antisymmetric."""

    def __init__(self, array: np.ndarray, antisymmetry_tol: float = 1e-12):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 3 or len(set(array.shape)) != 1:
            raise ValueError(f"Nambu tensor must be a cubic array, got shape {array.shape}")
        residual = dense_total_antisymmetry_residual(array)
        if residual > antisymmetry_tol:
            raise ValidationError(
                f"Nambu tensor is not totally antisymmetric: relative residual {residual:.3e}"
            )
        self.array = array
        self.dim = array.shape[0]

    def entry(self, i: int, j: int, k: int) -> float:
        return float(self.array[i, j, k])

    def contract(self, g1: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> float:
        return float(np.einsum("ijk,i,j,k->", self.array, g1, g2, g3))


def dense_total_antisymmetry_residual(array: np.ndarray) -> float:
    """Largest deviation from sign-alternating behaviour over all 6 slot orders."""
    scale = np.max(np.abs(array))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for axes, sign in (
        ((1, 0, 2), -1.0),
        ((0, 2, 1), -1.0),
        ((2, 1, 0), -1.0),
        ((1, 2, 0), 1.0),
        ((2, 0, 1), 1.0),
    ):
        worst = max(worst, float(np.max(np.abs(array.transpose(axes) - sign * array))))
    return worst / scale


# The three tensor variants; each exposes ``entry(i, j, k)``.
_AnyNambuTensor = SineNambuTensor | ContinuumNambuTensor | DenseNambuTensor


# ---------------------------------------------------------------------------
# generic construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericAlgebra:
    """Killing data and Nambu tensor derived from dense structure constants."""

    constants: GenericConstants
    killing: DenseKillingForm
    nambu: DenseNambuTensor
    casimir_coefficients: np.ndarray  # C(z) = 1/2 z.K^{-1}.z
    scaling: float

    def casimir(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=np.float64)
        return float(0.5 * z @ self.casimir_coefficients @ z)


def construct_generic(
    constants: GenericConstants | np.ndarray,
    scaling: float = 1.0,
    jacobi_tol: float = 1e-12,
) -> GenericAlgebra:
    """Run the algebraic pipeline on dense constants of a finite algebra.

    Validates antisymmetry and the Jacobi identity, computes the Killing
    matrix by double contraction, inverts it (a singular pairing means the
    algebra is not semi-simple and is refused), and lowers the upper index
    to produce the Nambu tensor N = alpha.K / scaling.  The scaling is a
    free normalisation for a generic algebra; the truncated vorticity
    algebra fixes it by matching the Casimir to the enstrophy.
    """
    if not isinstance(constants, GenericConstants):
        constants = GenericConstants(constants)
    if scaling == 0.0:
        raise ValueError("scaling must be nonzero")
    jacobi = dense_jacobi_residual(constants.alpha)
    if jacobi > jacobi_tol:
        raise ValidationError(
            f"structure constants violate the Jacobi identity: relative residual {jacobi:.3e}"
        )
    killing = DenseKillingForm(killing_bruteforce(constants))
    nambu = DenseNambuTensor(np.einsum("ijl,lk->ijk", constants.alpha, killing.matrix) / scaling)
    return GenericAlgebra(
        constants=constants,
        killing=killing,
        nambu=nambu,
        casimir_coefficients=killing.inverse,
        scaling=scaling,
    )


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def _lie_poisson_matrix(grid: TruncationGrid, field: ModeField) -> np.ndarray:
    """M[a, b] = alpha_ab^c zeta_c with c the unique surviving upper index."""
    t = _pair_tables(grid.n)
    gathered = _masked_gather(field.coeffs, t.wrap_index)
    return lie_poisson_prefactor(grid.n) * t.sin_cross * gathered


def _bilinear_with_scale(
    matrix: np.ndarray, g1: np.ndarray, g2: np.ndarray
) -> tuple[complex, float]:
    """g1.M.g2 plus the L1 mass of the summands (cancellation scale)."""
    value = complex(g1 @ (matrix @ g2))
    scale = float(np.abs(g1) @ (np.abs(matrix) @ np.abs(g2)))
    return value, scale


def lie_poisson_bracket_complex(
    grid: TruncationGrid, field: ModeField, f1: Functional, f2: Functional
) -> complex:
    """{F1, F2} without the realness demand; for coordinate functionals."""
    matrix = _lie_poisson_matrix(grid, field)
    value, _ = _bilinear_with_scale(matrix, f1.gradient(field), f2.gradient(field))
    return value


def lie_poisson_bracket(
    grid: TruncationGrid,
    field: ModeField,
    f1: Functional,
    f2: Functional,
    residue_tol: float = 1e-10,
) -> float:
    """{F1, F2} = sum alpha_ij^k zeta_k dF1/dzeta_i dF2/dzeta_j as a real number.

    For real-valued functionals on a conjugate-symmetric field the bracket
    is real; an imaginary residue beyond ``residue_tol`` relative to the
    cancellation scale of the sum raises :class:`ValidationError`.
    """
    matrix = _lie_poisson_matrix(grid, field)
    value, scale = _bilinear_with_scale(matrix, f1.gradient(field), f2.gradient(field))
    if abs(value.imag) > residue_tol * max(scale, 1e-300):
        raise ValidationError(
            f"Lie-Poisson bracket of {f1.name!r} and {f2.name!r} is not real: "
            f"imaginary part {value.imag:.3e} at scale {scale:.3e}"
        )
    return value.real


def _nambu_matrix(grid: TruncationGrid, g3: np.ndarray) -> np.ndarray:
    """M[a, b] = N_abc g3_c with c the unique closing index of (a, b)."""
    t = _pair_tables(grid.n)
    gathered = _masked_gather(g3, t.neg_wrap_index)
    return nambu_prefactor(grid.n) * t.sin_cross * gathered


def nambu_bracket(
    tensor: _AnyNambuTensor,
    f1: Functional,
    f2: Functional,
    f3: Functional,
    field: ModeField,
    residue_tol: float = 1e-10,
) -> float:
    """{F1, F2, F3} = N_ijk dF1_i dF2_j dF3_k on the truncation."""
    if not isinstance(tensor, SineNambuTensor):
        raise TypeError(
            "field-based Nambu brackets need the truncated tensor; use "
            "support_nambu_bracket for finitely supported observables"
        )
    grid = tensor.grid
    matrix = _nambu_matrix(grid, f3.gradient(field))
    value, scale = _bilinear_with_scale(matrix, f1.gradient(field), f2.gradient(field))
    if abs(value.imag) > residue_tol * max(scale, 1e-300):
        raise ValidationError(
            f"Nambu bracket of {f1.name!r}, {f2.name!r}, {f3.name!r} is not real: "
            f"imaginary part {value.imag:.3e} at scale {scale:.3e}"
        )
    return value.real


def support_nambu_bracket(
    tensor: _AnyNambuTensor,
    p1: ModePolynomial,
    p2: ModePolynomial,
    p3: ModePolynomial,
    assignment: Mapping[WaveVector, complex],
) -> complex:
    """Triple Nambu sum over the finite gradient supports of polynomials.

    Works for the truncated and the untruncated tensor alike, since only
    finitely many entries are touched; this is the bridge used to compare
    the two at fixed observables.
    """
    g1 = p1.gradient_map(assignment)
    g2 = p2.gradient_map(assignment)
    g3 = p3.gradient_map(assignment)
    total = 0.0 + 0.0j
    for i, a in g1.items():
        if a == 0.0:
            continue
        for j, b in g2.items():
            if b == 0.0:
                continue
            for k, c in g3.items():
                if c == 0.0:
                    continue
                total += tensor.entry(i, j, k) * a * b * c
    return total


# ---------------------------------------------------------------------------
# generalized Jacobi identity
# ---------------------------------------------------------------------------


def gen_jacobi_terms(tensor: _AnyNambuTensor, i, j, k, l, p, q) -> tuple[float, float, float]:
    """The three summands of the generalized Jacobi combination.

    Their sum vanishes identically for a fundamental (Nambu-Lie) tensor;
    for the vorticity tensors it does not.
    """
    t1 = tensor.entry(i, j, k) * tensor.entry(l, p, q)
    t2 = tensor.entry(i, j, q) * tensor.entry(l, k, p)
    t3 = tensor.entry(i, j, p) * tensor.entry(l, q, k)
    return (t1, t2, t3)


def gen_jacobi_residual(tensor: _AnyNambuTensor, i, j, k, l, p, q) -> float:
    """Residual of the generalized Jacobi identity at one index tuple."""
    t1, t2, t3 = gen_jacobi_terms(tensor, i, j, k, l, p, q)
    return t1 + t2 + t3


class JacobiViolation(NamedTuple):
    """One index tuple where the generalized Jacobi identity fails."""

    indices: tuple  # (i, j, k, l, p, q), wave vectors or plain ints
    residual: float


def _read_only(values, dtype) -> np.ndarray:
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


class ViolationTable(Sequence):
    """Scan hits held as integer arrays, read as :class:`JacobiViolation` rows.

    Row r is the index tuple ``triples[first[r]] + triples[second[r]]``
    with residual ``residual[r]``.  A triple holds three member codes, and
    code c stands for ``members[c]``: a wave vector, or a plain basis
    label for a dense tensor.  Indexing and iteration build the members
    only when asked; a slice or an index array selects a sub-table.
    """

    def __init__(self, members: Sequence, triples, first, second, residual):
        self.members = tuple(members)
        self.triples = _read_only(triples, np.int32).reshape(-1, 3)
        self.first = _read_only(first, np.int32)
        self.second = _read_only(second, np.int32)
        self.residual = _read_only(residual, np.float64)

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, key):
        if isinstance(key, (slice, np.ndarray)):
            return ViolationTable(
                self.members, self.triples, self.first[key], self.second[key], self.residual[key]
            )
        r = range(len(self))[key]
        codes = self.triples[self.first[r]].tolist() + self.triples[self.second[r]].tolist()
        return JacobiViolation(tuple(self.members[c] for c in codes), float(self.residual[r]))

    def __iter__(self):
        spelled = [tuple(self.members[c] for c in t) for t in self.triples.tolist()]
        rows = zip(self.first.tolist(), self.second.tolist(), self.residual.tolist())
        for a, b, residual in rows:
            yield JacobiViolation(spelled[a] + spelled[b], residual)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def find(self, indices: tuple) -> int | None:
        """Row of the first hit at the six-member tuple ``indices``, or None."""
        if not all(m in self.members for m in indices):
            return None
        codes = np.array([self.members.index(m) for m in indices])
        ijk = np.flatnonzero((self.triples == codes[:3]).all(axis=1))
        lpq = np.flatnonzero((self.triples == codes[3:]).all(axis=1))
        rows = np.flatnonzero(np.isin(self.first, ijk) & np.isin(self.second, lpq))
        return int(rows[0]) if rows.size else None


@functools.lru_cache(maxsize=None)
def _vector_objects(n: int) -> tuple[WaveVector, ...]:
    grid = TruncationGrid(n)
    return tuple(WaveVector(int(a), int(b)) for a, b in grid.vectors)


def _violation_orbit(indices: tuple) -> list[tuple]:
    """All 12 index tuples carrying the same residual up to sign.

    The residual is invariant under cycling (k, p, q), flips sign under
    swapping any two of them, and flips sign under swapping (i, j).
    """
    i, j, k, l, p, q = indices
    triples = [(k, p, q), (p, q, k), (q, k, p), (q, p, k), (p, k, q), (k, q, p)]
    images = []
    for a, b in ((i, j), (j, i)):
        for t in triples:
            images.append((a, b, t[0], l, t[1], t[2]))
    return images


#: Rows per block when packing orbit keys, bounding the dedupe's scratch.
_KEY_BLOCK = 1 << 16


def dedupe_violations(violations: ViolationTable) -> ViolationTable:
    """Keep one representative per symmetry orbit, in input order.

    The six member codes of a tuple are the digits of one int64 in base
    ``len(members)``; an orbit's key is the smallest such number over the
    12 images of :func:`_violation_orbit`, and the first row with each key
    is kept.  Raises ``ValueError`` when the packing would overflow.
    """
    base = len(violations.members)
    if base**6 > 2**63:
        raise ValueError(f"{base} members overflow the int64 orbit key (at most 1448)")
    # place[s, e]: the digit weight that image e gives to slot s of the tuple
    images = np.array(_violation_orbit(tuple(range(6))))
    place = np.zeros((6, len(images)), dtype=np.int64)
    place[images, np.arange(len(images))[:, None]] = base ** np.arange(5, -1, -1, dtype=np.int64)
    triples = violations.triples.astype(np.int64)
    lead, tail = triples @ place[:3], triples @ place[3:]
    keys = np.empty(len(violations), dtype=np.int64)
    for start in range(0, len(keys), _KEY_BLOCK):
        block = slice(start, start + _KEY_BLOCK)
        keys[block] = (lead[violations.first[block]] + tail[violations.second[block]]).min(axis=1)
    _, kept = np.unique(keys, return_index=True)
    return violations[np.sort(kept)]


def scan_gen_jacobi(
    tensor: _AnyNambuTensor,
    bound: int | None = None,
    tol: float | None = None,
) -> ViolationTable:
    """Find all violations of the generalized Jacobi identity.

    The scan enumerates tuples whose first summand has both delta factors
    satisfied; the residual is invariant (up to sign) under a 12-element
    relabeling group, and every violating tuple has at least one nonzero
    summand, which a cyclic relabel moves into first position.  The
    result is therefore complete up to that equivalence.

    A tuple is reported when |residual| > tol; the default threshold is
    1e-10 * (max |N|)^2.  ``bound`` limits the free wave-vector components
    for the untruncated tensor (required there, ignored otherwise).  Hits
    come back as a :class:`ViolationTable` in enumeration order.
    """
    if isinstance(tensor, SineNambuTensor):
        return _scan_sine(tensor, tol=tol)
    if isinstance(tensor, ContinuumNambuTensor):
        if bound is None:
            raise ValueError("the untruncated scan needs a bound on the free components")
        return _scan_continuum(tensor, bound=bound, tol=tol)
    if isinstance(tensor, DenseNambuTensor):
        return _scan_dense(tensor, tol=tol)
    raise TypeError(f"cannot scan tensor of type {type(tensor).__name__}")


def _scan_sine(tensor: SineNambuTensor, tol: float | None) -> ViolationTable:
    grid = tensor.grid
    n = grid.n
    t = _pair_tables(n)
    npair = nambu_prefactor(n) * t.sin_cross
    trip = t.neg_wrap_index  # the unique third index closing each pair
    if tol is None:
        tol = 1e-10 * (abs(nambu_prefactor(n)) * float(np.max(sine_table(n)))) ** 2

    rows, cols = np.nonzero((trip >= 0) & (npair != 0.0))
    pair_i, pair_j = rows, cols
    pair_k = trip[rows, cols]
    pair_val = npair[rows, cols]
    n_pairs = len(pair_i)

    first, second, residuals = [], [], []
    chunk = max(1, 1_000_000 // max(n_pairs, 1))
    for start in range(0, n_pairs, chunk):
        sl = slice(start, start + chunk)
        k_c = pair_k[sl][:, None]
        val_c = pair_val[sl][:, None]
        t1 = val_c * pair_val[None, :]
        # second summand: q must equal k, and p must close (l, k)
        nlk = npair[pair_i[None, :], k_c]
        mask2 = (pair_k[None, :] == k_c) & (trip[pair_i[None, :], k_c] == pair_j[None, :])
        t2 = np.where(mask2, val_c * nlk, 0.0)
        # third summand: p must equal k, and k must close (l, q)
        nlq = npair[pair_i, pair_k][None, :]
        mask3 = (pair_j[None, :] == k_c) & (trip[pair_i, pair_k][None, :] == k_c)
        t3 = np.where(mask3, val_c * nlq, 0.0)
        residual = t1 + t2 + t3
        hit_rows, hit_cols = np.nonzero(np.abs(residual) > tol)
        first.append((start + hit_rows).astype(np.int32))
        second.append(hit_cols.astype(np.int32))
        residuals.append(residual[hit_rows, hit_cols])

    return ViolationTable(
        _vector_objects(n),
        np.stack([pair_i, pair_j, pair_k], axis=1),
        np.concatenate(first),
        np.concatenate(second),
        np.concatenate(residuals),
    )


def _scan_continuum(
    tensor: ContinuumNambuTensor, bound: int, tol: float | None
) -> ViolationTable:
    if bound < 1:
        raise ValueError("bound must be at least 1")
    vectors = [
        WaveVector(a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if (a, b) != (0, 0)
    ]
    max_entry = max(abs(i.cross(j)) for i in vectors for j in vectors) / TWO_PI**4
    if tol is None:
        tol = 1e-10 * max_entry**2

    pairs = []
    for i in vectors:
        for j in vectors:
            if i.cross(j) == 0 or i + j == (0, 0):
                continue
            pairs.append((i, j, -(i + j)))

    hits = []
    for a, (i, j, k) in enumerate(pairs):
        for b, (l, p, q) in enumerate(pairs):
            residual = gen_jacobi_residual(tensor, i, j, k, l, p, q)
            if abs(residual) > tol:
                hits.append((a, b, residual))
    codes: dict[WaveVector, int] = {}
    triples = [[codes.setdefault(v, len(codes)) for v in pair] for pair in pairs]
    first, second, residuals = zip(*hits) if hits else ((), (), ())
    return ViolationTable(list(codes), triples, first, second, residuals)


def _scan_dense(tensor: DenseNambuTensor, tol: float | None) -> ViolationTable:
    d = tensor.dim
    if d > 12:
        raise ValueError(f"dense scan is limited to dimension 12, got {d}")
    arr = tensor.array
    if tol is None:
        tol = 1e-10 * float(np.max(np.abs(arr))) ** 2
    total = (
        np.einsum("ijk,lpq->ijklpq", arr, arr)
        + np.einsum("ijq,lkp->ijklpq", arr, arr)
        + np.einsum("ijp,lqk->ijklpq", arr, arr)
    ).reshape(d**3, d**3)
    first, second = np.nonzero(np.abs(total) > tol)
    triples = np.indices((d, d, d)).reshape(3, -1).T
    return ViolationTable(range(d), triples, first, second, total[first, second])
