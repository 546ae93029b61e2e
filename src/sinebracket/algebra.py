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
how it fails.  The truncated and the untruncated tensor are both supported
on closing triples (i + j + k = 0, modulo n on the truncation) and differ
only in the coefficient, so one entry rule gives both (and the structure
constants, read at (i, j, -k)), and one closing-triple kernel scans both.

The truncated algebra is a set of functions of its grid (:func:`alpha_zeitlin`,
:func:`alpha_zeitlin_dense`, :func:`killing_bruteforce`, :func:`killing_closed`),
and so are its brackets, :func:`lie_poisson_bracket` (grid, field, f1, f2) and
:func:`nambu_bracket` (grid, field, f1, f2, f3), each one O(n^3) trace over
the su(n) matrices of its slots; the N x N pair matrices remain as O(n^4)
oracles.  Types remain only to validate outside input or to pick a Nambu
entry rule.  :func:`scan_gen_jacobi` scans a truncated or a dense tensor;
the untruncated tensor has no finite index set, so
:func:`scan_gen_jacobi_continuum` takes the box it scans.

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


def _reflected_table(n: int, fn, sign: float) -> np.ndarray:
    """fn(2pi s/n) for s = 0..n-1, mirrored as T[n-s] = sign * T[s]."""
    table = np.full(n, fn(0.0))
    for s in range(1, (n - 1) // 2 + 1):
        value = fn(TWO_PI * s / n)
        table[s] = value
        table[n - s] = sign * value
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def sine_table(n: int) -> np.ndarray:
    """sin(2pi s/n) for s = 0..n-1 with exact odd symmetry S[n-s] = -S[s]."""
    return _reflected_table(n, math.sin, -1.0)


@functools.lru_cache(maxsize=None)
def cosine_table(n: int) -> np.ndarray:
    """cos(2pi s/n) for s = 0..n-1 with exact even symmetry."""
    return _reflected_table(n, math.cos, 1.0)


class _PairTables(NamedTuple):
    sin_cross: np.ndarray  # (N, N) sin((2pi/n) i x j)
    wrap_index: np.ndarray  # (N, N) canonical index of (i+j)|n, -1 if it wraps to 0
    neg_wrap_index: np.ndarray  # (N, N) canonical index of -(i+j)|n, -1 likewise


@functools.lru_cache(maxsize=8)  # bounded: each holds three N x N tables
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
    """values[index] with index == -1 mapped to 0.0, for a 1-D values and index >= -1.

    One gather from values with a +0.0 appended, which index -1 reads, so
    the table is neither clipped nor masked.
    """
    return np.concatenate((values, [0.0]))[index]


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def _closing_entry(grid: TruncationGrid | None, i, j, k, power: int) -> float:
    """Entry at (i, j, k) of a tensor supported on closing triples i + j + k = 0.

    On a truncation the three vectors must be retained, the triple closes
    modulo n and the entry is -(2pi)^-power (n/2pi) sin((2pi/n) i x j).
    Without a grid (the untruncated algebra) the vectors must be nonzero,
    the triple closes exactly and the entry is -(i x j) / (2pi)^power.
    """
    i, j, k = _as_wave_vector(i), _as_wave_vector(j), _as_wave_vector(k)
    if grid is None:
        if (0, 0) in (i, j, k):
            raise ValueError("the zero wave vector is not a mode index")
        if i + j + k != (0, 0):
            return 0.0
        return -float(i.cross(j)) / TWO_PI**power
    for v in (i, j, k):
        grid.index_of(v)  # membership check, raises ValueError
    if grid.mod_reduce(i + j + k) != (0, 0):
        return 0.0
    return -grid.n / TWO_PI ** (power + 1) * float(sine_table(grid.n)[i.cross(j) % grid.n])


def alpha_zeitlin(grid: TruncationGrid, i, j, k) -> float:
    """Structure constant of the truncated algebra at (i, j, k).

    All three wave vectors must belong to the retained set; a sum that
    wraps to the origin matches no retained k, so the constant vanishes.
    """
    return _closing_entry(grid, i, j, -_as_wave_vector(k), power=2)


def alpha_continuum(i, j, k) -> float:
    """Structure constant of the untruncated mode algebra at (i, j, k)."""
    return _closing_entry(None, i, j, -_as_wave_vector(k), power=2)


def alpha_zeitlin_dense(grid: TruncationGrid) -> np.ndarray:
    """Full (N, N, N) structure-constant tensor in canonical index order.

    Memory grows as n^6; intended for cross checks at small n.
    """
    t = _pair_tables(grid.n)
    out = np.zeros((grid.size,) * 3)
    rows, cols = np.nonzero(t.wrap_index >= 0)
    values = lie_poisson_prefactor(grid.n) * t.sin_cross[rows, cols]
    out[rows, cols, t.wrap_index[rows, cols]] = values
    return out


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


def killing_bruteforce(grid: TruncationGrid) -> np.ndarray:
    """K_ab = sum_{k,l} alpha_ak^l alpha_bl^k of the truncation, by double contraction.

    Returns the full (N, N) matrix.  Each closing term is visited once, in
    O(N^2): for (a, k) with l = (a+k)|n retained, only b = (k-l)|n, read from
    the wrap table, can close (b+l)|n = k.  The term is kept where the
    table's own delta holds and is scatter-added into (a, b); the closed
    form is never consulted.  The tables are read raveled, at flat indices
    x N + y, in the row-major order of a 2-D scan.
    """
    t = _pair_tables(grid.n)
    pref = lie_poisson_prefactor(grid.n)
    size = grid.size
    w, s = t.wrap_index.ravel(), t.sin_cross.ravel()
    ak = np.flatnonzero(w >= 0)  # (a, k) at a N + k
    k = ak % size
    l = w.take(ak)  # upper index closing alpha_{a,k}
    b = w.take(k * size + grid.neg_index.take(l))  # the one b with (b+l)|n = k, -1 if none
    bl = b * size + l  # b = -1 reads a row-(N-1) entry, which the b >= 0 test discards
    keep = (b >= 0) & (w.take(bl) == k)  # the delta of alpha_{b,l}^k
    ak, b, bl = ak[keep], b[keep], bl[keep]
    terms = (pref * s.take(ak)) * (pref * s.take(bl))
    ab = ak // size * size + b
    return np.bincount(ab, weights=terms, minlength=w.size).reshape(size, size)


def killing_closed(grid: TruncationGrid) -> np.ndarray:
    """Closed-form (N, N) Killing matrix of the truncation: K_ij = c_n delta_{(i+j)|n,0}."""
    out = np.zeros((grid.size, grid.size))
    out[np.arange(grid.size), grid.neg_index] = killing_diagonal(grid.n)
    return out


def _orthogonality_sum(
    grid: TruncationGrid, witnesses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k cos((2pi/n) k.l) over the retained set for each row l of a
    (W, 2) integer stack, and the values they must equal.

    Each sum runs along a contiguous row of one (W, N) cosine block, so it
    is the same float as the sum of that witness alone.
    """
    v = grid.vectors
    dots = (witnesses[:, :1] * v[:, 0] + witnesses[:, 1:] * v[:, 1]) % grid.n
    totals = np.sum(cosine_table(grid.n)[dots], axis=1)
    wraps_to_zero = np.all(witnesses % grid.n == 0, axis=1)
    return totals, np.where(wraps_to_zero, float(grid.n**2 - 1), -1.0)


class DenseKillingForm:
    """Killing matrix of a generic algebra with a validated inverse."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"Killing matrix must be square, got shape {matrix.shape}")
        scale = np.max(np.abs(matrix))
        if scale > 0 and np.max(np.abs(matrix - matrix.T)) > 1e-12 * scale:
            raise ValidationError("Killing matrix is not symmetric")
        eye = np.eye(len(matrix))
        try:
            inverse = np.linalg.solve(matrix, eye)
        except np.linalg.LinAlgError:
            inverse = None
        if inverse is None or np.max(np.abs(matrix @ inverse - eye)) > 1e-8:
            raise ValueError(
                "Killing form is singular or near-singular: the algebra is not semi-simple"
            )
        self.matrix, self.inverse = matrix, inverse


def quadratic_casimir(grid: TruncationGrid, field: ModeField) -> float:
    """r/2 * sum_ij K^{ij} zeta_i zeta_j, cross-checked against the enstrophy.

    The inverse Killing pairing collapses onto j = -i, and the prefactors
    combine to (2pi)^2/2, so the scaled Casimir must reproduce the
    enstrophy to rounding.  A relative mismatch beyond 1e-12 raises
    :class:`ConsistencyError`; the Casimir value is returned.
    """
    validate_reality(field)
    z = field.coeffs
    prefactor = 0.5 * casimir_scale(grid.n) * killing_inverse_diagonal(grid.n)
    casimir = float((prefactor * np.sum(z * z[grid.neg_index])).real)
    reference = enstrophy(field)
    if abs(casimir - reference) > 1e-12 * max(abs(reference), 1e-300):
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

    def entry(self, i, j, k) -> float:
        return _closing_entry(self.grid, i, j, k, power=4)


@dataclass(frozen=True)
class ContinuumNambuTensor:
    """Untruncated tensor: supported on exactly closing triples i+j+k = 0."""

    def entry(self, i, j, k) -> float:
        return _closing_entry(None, i, j, k, power=4)


class DenseNambuTensor:
    """Dense trilinear tensor of a generic algebra, validated antisymmetric."""

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 3 or len(set(array.shape)) != 1:
            raise ValueError(f"Nambu tensor must be a cubic array, got shape {array.shape}")
        residual = dense_total_antisymmetry_residual(array)
        if residual > 1e-12:
            raise ValidationError(
                f"Nambu tensor is not totally antisymmetric: relative residual {residual:.3e}"
            )
        self.array = array
        self.dim = array.shape[0]

    def entry(self, i: int, j: int, k: int) -> float:
        return float(self.array[i, j, k])


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

    alpha: np.ndarray
    killing: DenseKillingForm
    nambu: DenseNambuTensor
    scaling: float

    def casimir(self, z: np.ndarray) -> float:
        """C(z) = 1/2 z.K^{-1}.z."""
        z = np.asarray(z, dtype=np.float64)
        return float(0.5 * z @ self.killing.inverse @ z)


def construct_generic(alpha: np.ndarray, scaling: float = 1.0) -> GenericAlgebra:
    """Run the algebraic pipeline on dense constants of a finite algebra.

    Validates the cubic shape, the dimension cap, antisymmetry in the lower
    index pair and the Jacobi identity, computes the Killing matrix
    K_ij = sum_{k,l} alpha_ik^l alpha_jl^k by double contraction, inverts
    it (a singular pairing means the algebra is not semi-simple and is
    refused), and lowers the upper index to produce the Nambu tensor
    N = alpha.K / scaling.  The scaling is a free normalisation for a
    generic algebra; the truncated vorticity algebra fixes it by matching
    the Casimir to the enstrophy.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 3 or len(set(alpha.shape)) != 1:
        raise ValueError(f"structure constants must be a cubic array, got shape {alpha.shape}")
    if alpha.shape[0] > GENERIC_DIMENSION_CAP:
        raise ValueError(
            f"dimension {alpha.shape[0]} exceeds the generic cap {GENERIC_DIMENSION_CAP}"
        )
    residual = dense_antisymmetry_residual(alpha)
    if residual > 1e-12:
        raise ValidationError(
            f"structure constants are not antisymmetric: relative residual {residual:.3e}"
        )
    if scaling == 0.0:
        raise ValueError("scaling must be nonzero")
    jacobi = dense_jacobi_residual(alpha)
    if jacobi > 1e-12:
        raise ValidationError(
            f"structure constants violate the Jacobi identity: relative residual {jacobi:.3e}"
        )
    killing = DenseKillingForm(np.einsum("ikl,jlk->ij", alpha, alpha))
    nambu = DenseNambuTensor(np.einsum("ijl,lk->ijk", alpha, killing.matrix) / scaling)
    return GenericAlgebra(alpha=alpha, killing=killing, nambu=nambu, scaling=scaling)


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
    """g1.M.g2 plus the L1 mass of the summands (cancellation scale).

    The per-pair oracle of the shared products in ``verify``'s casimir and
    reduction checks.
    """
    value = complex(g1 @ (matrix @ g2))
    scale = float(np.abs(g1) @ (np.abs(matrix) @ np.abs(g2)))
    return value, scale


def _trace_bracket(grid: TruncationGrid, vectors, prefactor, what: str) -> float:
    """i kappa tr(A [B, C]), kappa = prefactor(n)/2n, over the Weyl matrices of three vectors.

    This is the closing-triple sum of the tensor with coefficient prefactor(n), in O(n^3).
    A vector v lifts as lift(v) + i lift(-i v) = sum_k v_k T_k, complex-linear (``lift``
    alone keeps the real part).  An imaginary part beyond 1e-10 of the term mass
    |kappa| sum |A^T * [B, C]| raises :class:`ValidationError`.
    """
    from .dynamics import lift

    a, b, c = (lift(ModeField(grid, v)) + 1j * lift(ModeField(grid, -1j * v)) for v in vectors)
    terms = a.T * (b @ c - c @ b)
    kappa = 0.5 * prefactor(grid.n) / grid.n
    value = 1j * kappa * complex(np.sum(terms))
    scale = abs(kappa) * float(np.sum(np.abs(terms)))
    if abs(value.imag) > 1e-10 * max(scale, 1e-300):
        raise ValidationError(
            f"{what} is not real: imaginary part {value.imag:.3e} at scale {scale:.3e}"
        )
    return value.real


def lie_poisson_bracket(
    grid: TruncationGrid, field: ModeField, f1: Functional, f2: Functional
) -> float:
    """{F1, F2} = sum alpha_ij^k zeta_k dF1/dzeta_i dF2/dzeta_j as a real number.

    It is -i/(2(2pi)^3) tr(Z [A, B]), Z the matrix of the reflected field
    zeta_{-k}, by :func:`_trace_bracket`.  For real-valued functionals on a
    conjugate-symmetric field the bracket is real; an imaginary residue
    beyond 1e-10 of the term mass raises :class:`ValidationError`.
    """
    vectors = (field.coeffs[grid.neg_index], f1.gradient(field), f2.gradient(field))
    what = f"Lie-Poisson bracket of {f1.name!r} and {f2.name!r}"
    return _trace_bracket(grid, vectors, lie_poisson_prefactor, what)


def _nambu_matrix(grid: TruncationGrid, g3: np.ndarray) -> np.ndarray:
    """M[a, b] = N_abc g3_c with c the unique closing index of (a, b)."""
    t = _pair_tables(grid.n)
    gathered = _masked_gather(g3, t.neg_wrap_index)
    return nambu_prefactor(grid.n) * t.sin_cross * gathered


def nambu_bracket(
    grid: TruncationGrid, field: ModeField, f1: Functional, f2: Functional, f3: Functional
) -> float:
    """{F1, F2, F3} = N_ijk dF1_i dF2_j dF3_k on the truncation, as a real number.

    It is -i/(2(2pi)^5) tr(A [B, C]) over the gradients' matrices, checked as
    in :func:`lie_poisson_bracket`; :func:`support_nambu_bracket` evaluates
    finitely supported observables with any tensor.
    """
    vectors = tuple(f.gradient(field) for f in (f1, f2, f3))
    what = f"Nambu bracket of {f1.name!r}, {f2.name!r}, {f3.name!r}"
    return _trace_bracket(grid, vectors, nambu_prefactor, what)


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


def dedupe_violations(violations: ViolationTable) -> ViolationTable:
    """Keep one representative per symmetry orbit, the first in input order.

    Two rows share an orbit when one tuple is among the 12 images of the
    other (:func:`_violation_orbit`), compared by member code.  Raises
    ``ValueError`` past 1448 members, where the six-digit orbit key of the
    sort path would overflow an int64.

    A table like the closing-triple scan's is deduplicated on a P x P grid
    of its hits (P triples, :func:`_grid_heads`), with no per-row key and
    no sort; any other table takes :func:`_sorted_heads`.  Both keep the
    same rows.
    """
    base = len(violations.members)
    if base**6 > 2**63:
        raise ValueError(f"{base} members overflow the int64 orbit key (at most 1448)")
    heads = _grid_heads(violations)
    return violations[_sorted_heads(violations) if heads is None else heads]


#: A hit grid larger than this many cells, and than 8 per row (the bytes of
#: the sort path's int64 key of each row), is not built.
_GRID_CELLS = 1 << 19


def _grid_heads(violations: ViolationTable) -> np.ndarray | None:
    """Mask of the rows that head their orbits, or None where the grid does not apply.

    It applies when no two triples share their first two members (the third
    is fixed by them), when (j, i, .) closes on the same member as (i, j, .)
    wherever both are triples, when rows are strictly increasing in
    (first, second) order, as :func:`_scan_closing` emits them and any slice
    keeps them, and when the P x P grid is small enough.  Then the orbit of
    a row f = (i, j, k), s = (l, p, q) meets the table only at the rows
    {f, f'} x {s, s'}, f' = (j, i, k) and s' = (l, q, p), those that are
    triples: an image puts k back into the first triple, and where it moves
    k into the second one, p or q equals k and the tuple is the same.  A row
    heads its orbit unless such a mate row comes earlier and is a hit too.
    A missing mate is the row itself, which never comes earlier.
    """
    t, first, second = violations.triples, violations.first, violations.second
    p, m = len(t), np.int64(len(violations.members))
    if p * p > max(8 * len(first), _GRID_CELLS):
        return None
    pairs = t[:, 0] * m + t[:, 1]  # (x, y) of each triple as one code, sorted below
    order = np.argsort(pairs)
    pairs = pairs[order]
    if np.any(pairs[1:] == pairs[:-1]):
        return None  # two triples share their first two members
    own = np.arange(p)

    def triple_at(x, y):
        """Per triple, the index of the triple (x, y, .), or its own index where there is none."""
        at = np.minimum(np.searchsorted(pairs, x * m + y), p - 1)
        return np.where(pairs[at] == x * m + y, order[at], own)

    swap_ij = triple_at(t[:, 1], t[:, 0])
    if np.any(t[swap_ij, 2] != t[:, 2]):
        return None  # (j, i, .) closes on another member than (i, j, .)
    swap_pq = triple_at(t[:, 0], t[:, 2])
    swap_pq = np.where(t[swap_pq, 2] == t[:, 1], swap_pq, own)  # (l, q, .) must close on p
    flat = first.astype(np.intp) * p + second
    if np.any(flat[1:] <= flat[:-1]):
        return None  # rows out of scan order
    hit = np.zeros((p, p), dtype=bool)
    hit.ravel()[flat] = True
    earlier = hit[swap_ij] & (swap_ij < own)[:, None]  # (f', s) before (f, s)
    earlier |= np.take(earlier, swap_pq, axis=1)  # (f', s') likewise
    earlier |= np.take(hit, swap_pq, axis=1) & (swap_pq < own)  # (f, s') before (f, s)
    return ~earlier.ravel()[flat]


def _sorted_heads(violations: ViolationTable) -> np.ndarray:
    """Rows that head their orbits, by one sort of packed orbit codes; any table.

    The images permute slots (0, 1) and slots (2, 4, 5) independently and
    fix slot 3, so the smallest image sorts each group: its head digits are
    (min(i, j), max(i, j)), its tail digits (min, l, mid, max) of (k, p, q).
    Heads are tabulated per first triple, tails per (k, second triple), and
    a row's code is its head rank times the number of tails plus its tail
    rank.  One in-place sort of ``(code << b) | row`` puts each orbit's
    rows together, first row first; raises ``ValueError`` when that packing
    would overflow an int64.
    """
    base = len(violations.members)
    t = violations.triples.astype(np.int64)
    head = np.minimum(t[:, 0], t[:, 1]) * base + np.maximum(t[:, 0], t[:, 1])
    k_values, krow = np.unique(t[:, 2], return_inverse=True)
    k, lo, hi = k_values[:, None], np.minimum(t[:, 1], t[:, 2]), np.maximum(t[:, 1], t[:, 2])
    tail = np.minimum(k, lo) * base + t[:, 0]
    tail = (tail * base + np.maximum(lo, np.minimum(k, hi))) * base + np.maximum(k, hi)
    head_values, head_rank = np.unique(head, return_inverse=True)
    tail_values, tail_rank = np.unique(tail, return_inverse=True)
    rows = len(violations)
    b = max(rows - 1, 0).bit_length()
    if len(head_values) * len(tail_values) << b > 2**63:
        raise ValueError(f"{rows} rows overflow the int64 packing of their orbit codes")
    code = tail_rank.reshape(-1)[(krow * len(t))[violations.first] + violations.second]
    code += (head_rank * len(tail_values))[violations.first]
    code <<= b
    code |= np.arange(rows)
    code.sort()
    keep = np.ones(rows, dtype=bool)
    keep[1:] = (code[1:] ^ code[:-1]) >> b != 0
    return np.sort(code[keep] & ((1 << b) - 1))


def scan_gen_jacobi(tensor: SineNambuTensor | DenseNambuTensor) -> ViolationTable:
    """Find all violations of the generalized Jacobi identity.

    The scan enumerates tuples whose first summand has both delta factors
    satisfied; the residual is invariant (up to sign) under a 12-element
    relabeling group, and every violating tuple has at least one nonzero
    summand, which a cyclic relabel moves into first position.  The
    result is therefore complete up to that equivalence.

    The truncated tensor is supported on closing triples and is scanned by
    :func:`_scan_closing`, as is the untruncated one
    (:func:`scan_gen_jacobi_continuum`); a dense tensor is scanned over all
    d^6 tuples.  A tuple is reported when |residual| > 1e-10 * (max |N|)^2.
    Hits come back as a :class:`ViolationTable` in enumeration order.
    """
    if isinstance(tensor, SineNambuTensor):
        n = tensor.grid.n
        t = _pair_tables(n)
        value = nambu_prefactor(n) * t.sin_cross
        pairs = (t.neg_wrap_index >= 0) & (value != 0.0)
        return _scan_closing(tuple(tensor.grid), value, t.neg_wrap_index, pairs)
    if isinstance(tensor, DenseNambuTensor):
        return _scan_dense(tensor)
    raise TypeError(f"cannot scan tensor of type {type(tensor).__name__}")


def scan_gen_jacobi_continuum(bound: int) -> ViolationTable:
    """:func:`scan_gen_jacobi` for the untruncated tensor, over i, j in |i|, |j| <= bound.

    The members are the retained vectors of the n = 4*bound + 1 grid, which
    holds the closing vector -(i+j) of every pair of box vectors.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    grid = TruncationGrid(4 * bound + 1)
    v, m = grid.vectors, grid.half
    cross = np.outer(v[:, 0], v[:, 1]) - np.outer(v[:, 1], v[:, 0])
    # -(i+j) has components in [-2m, 2m]; off the grid it closes on no member
    padded = np.pad(grid.offset_table, m, constant_values=-1)
    close = padded[2 * m - v[:, 0][:, None] - v[:, 0], 2 * m - v[:, 1][:, None] - v[:, 1]]
    box = np.all(np.abs(v) <= bound, axis=1)
    pairs = np.outer(box, box) & (cross != 0)
    return _scan_closing(tuple(grid), -cross / TWO_PI**4, close, pairs)


def _matching_pairs(keys_a: np.ndarray, keys_b: np.ndarray, size: int):
    """Every (a, b) with ``keys_b[b] == keys_a[a]``, ordered by a, then b.

    Keys are codes in [0, size).  The b are grouped on their key by a
    stable argsort, and each a is repeated once per member of its group.
    """
    order = np.argsort(keys_b, kind="stable")
    counts = np.bincount(keys_b, minlength=size)
    starts = np.cumsum(counts) - counts
    per_a = counts[keys_a]
    a = np.repeat(np.arange(len(keys_a)), per_a)
    offset = np.arange(len(a)) - np.repeat(np.cumsum(per_a) - per_a, per_a)
    return a, order[np.repeat(starts[keys_a], per_a) + offset]


#: Residual entries that one chunk of :func:`_scan_closing` holds, at least one row of them.
_SCAN_CHUNK_ENTRIES = 1_000_000


def _scan_closing(
    members: Sequence, value: np.ndarray, close: np.ndarray, pairs: np.ndarray
) -> ViolationTable:
    """Scan a tensor that is supported on closing triples.

    Over the (M, M) member table, ``value[a, b]`` is N(m_a, m_b, m_c) and
    ``close[a, b]`` is the code c of the member closing (m_a, m_b), or -1;
    every True entry of ``pairs`` must close.  The triples
    (a, b, close[a, b]) for the True entries of ``pairs``, in row-major
    order, are paired with each other, and a tuple is a hit when
    |residual| > 1e-10 * (max |value| over ``pairs``)^2.

    The first summand N_ijk N_lpq is nonzero at every pair of triples and
    is formed as an outer product.  The second needs q = k and the third
    p = k, so each is added only at the pairs of triples that match on
    that member (:func:`_matching_pairs`) and whose remaining delta holds.
    Each residual is summed as (t1 + t2) + t3, as a dense sum with zeros
    for the absent summands would be, and t1 is never zero, so the
    residuals are bitwise those of the dense sum.  Rows are scanned in
    chunks of ``_SCAN_CHUNK_ENTRIES`` residuals.  A chunk's hits are pulled
    out in one pass as flat positions; each hit's row comes from the
    per-row hit counts, and its column is its position less the row's
    start, in int32 since a chunk holds far fewer than 2^31 entries.  Hits
    come out strictly increasing in (first, second) order.
    """
    pair_i, pair_j = np.nonzero(pairs)
    pair_k = close[pair_i, pair_j]
    pair_val = value[pair_i, pair_j]
    n_pairs = len(pair_i)
    tol = 1e-10 * float(np.max(np.abs(pair_val))) ** 2

    # second summand: q must equal k, and p must close (l, k)
    a2, b2 = _matching_pairs(pair_k, pair_k, len(members))
    keep = close[pair_i[b2], pair_k[a2]] == pair_j[b2]
    a2, b2 = a2[keep], b2[keep]
    t2 = pair_val[a2] * value[pair_i[b2], pair_k[a2]]
    # third summand: p must equal k, and k must close (l, q)
    a3, b3 = _matching_pairs(pair_k, pair_j, len(members))
    keep = close[pair_i[b3], pair_k[b3]] == pair_k[a3]
    a3, b3 = a3[keep], b3[keep]
    t3 = pair_val[a3] * value[pair_i[b3], pair_k[b3]]

    first, second, residuals = [], [], []
    chunk = max(1, _SCAN_CHUNK_ENTRIES // n_pairs)
    for start in range(0, n_pairs, chunk):
        stop = start + chunk
        residual = np.multiply.outer(pair_val[start:stop], pair_val)
        for a, b, t in ((a2, b2, t2), (a3, b3, t3)):
            lo, hi = np.searchsorted(a, (start, stop))
            residual[a[lo:hi] - start, b[lo:hi]] += t[lo:hi]
        hits = np.abs(residual) > tol
        flat = np.flatnonzero(hits)
        residuals.append(residual.ravel()[flat])
        rows = np.repeat(np.arange(len(hits), dtype=np.int32), np.count_nonzero(hits, axis=1))
        second.append(flat.astype(np.int32) - rows * np.int32(n_pairs))
        first.append(rows + np.int32(start))
    # one column at a time, so each list of chunks is freed before the next is joined
    first = np.concatenate(first)
    second = np.concatenate(second)
    residuals = np.concatenate(residuals)
    return ViolationTable(
        members, np.stack([pair_i, pair_j, pair_k], axis=1), first, second, residuals
    )


def _scan_dense(tensor: DenseNambuTensor) -> ViolationTable:
    d = tensor.dim
    if d > 12:
        raise ValueError(f"dense scan is limited to dimension 12, got {d}")
    arr = tensor.array
    tol = 1e-10 * float(np.max(np.abs(arr))) ** 2
    total = (
        np.einsum("ijk,lpq->ijklpq", arr, arr)
        + np.einsum("ijq,lkp->ijklpq", arr, arr)
        + np.einsum("ijp,lqk->ijklpq", arr, arr)
    ).reshape(d**3, d**3)
    first, second = np.nonzero(np.abs(total) > tol)
    triples = np.indices((d, d, d)).reshape(3, -1).T
    return ViolationTable(range(d), triples, first, second, total[first, second])
