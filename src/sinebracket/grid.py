"""Wave-vector lattice and vorticity mode fields of the sine-bracket truncation.

The truncation keeps, for odd n >= 3, the n^2 - 1 nonzero integer wave
vectors with both components in [-(n-1)/2, (n-1)/2].  Vorticity on the
2pi-periodic square is represented by the Fourier coefficients

    zeta_hat(k) = (2pi)^-2 * integral zeta(x) exp(-i k.x) dx,

with the mean (k = 0) mode dropped; a real field satisfies the reality
condition zeta_hat(-k) = conj(zeta_hat(k)).  Sums of wave vectors wrap
component-wise into the symmetric range modulo n.  The wrap is part of the
truncated dynamics (Zeitlin 1991), not an aliasing artefact: a sum that
wraps to the origin simply leaves the retained set and contributes nothing.

Energy and enstrophy are the quadratic observables

    H = (2pi)^2/2 * sum_k zeta_hat(k) zeta_hat(-k) / |k|^2
    E = (2pi)^2/2 * sum_k zeta_hat(k) zeta_hat(-k)

both real and nonnegative under the reality condition.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConsistencyError, ValidationError

TWO_PI = 2.0 * np.pi

#: Relative tolerance for the reality condition zeta_hat(-k) = conj(zeta_hat(k)).
REALITY_TOL = 1e-12

#: Largest truncation parameter; a run's memory grows as n^2 and stays under 2 GB at n = 2001.
MAX_TRUNCATION = 2001


class WaveVector(NamedTuple):
    """Integer wave vector (i1, i2) on the 2pi-periodic square."""

    i1: int
    i2: int

    def __neg__(self) -> "WaveVector":
        return WaveVector(-self.i1, -self.i2)

    def __add__(self, other) -> "WaveVector":  # type: ignore[override]
        return WaveVector(self.i1 + other[0], self.i2 + other[1])

    def cross(self, other: "WaveVector") -> int:
        """Third component of the vector product, i1*j2 - i2*j1."""
        return self.i1 * other[1] - self.i2 * other[0]

    def norm2(self) -> int:
        return self.i1 * self.i1 + self.i2 * self.i2


def _as_wave_vector(v) -> WaveVector:
    if isinstance(v, WaveVector):
        return v
    a, b = v
    return WaveVector(int(a), int(b))


@dataclass(frozen=True)
class TruncationGrid:
    """Retained wave-vector set for one odd truncation parameter n.

    Hashable and cheap to copy; the derived index tables are cached per n.
    Canonical mode order is row-major over (i1, i2), each running from
    -(n-1)/2 to (n-1)/2, with the origin skipped.
    """

    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int:  # refuse bools and fractions, store numpy integers as int
            if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
                raise ValueError(f"truncation parameter must be an integer, got {self.n!r}")
            object.__setattr__(self, "n", int(self.n))
        if not 3 <= self.n <= MAX_TRUNCATION or self.n % 2 == 0:
            raise ValueError(f"truncation n must be odd in [3, {MAX_TRUNCATION}], got {self.n}")

    @property
    def half(self) -> int:
        return (self.n - 1) // 2

    @property
    def size(self) -> int:
        return self.n * self.n - 1

    # -- index tables -----------------------------------------------------

    @property
    def vectors(self) -> np.ndarray:
        """All retained wave vectors, shape (size, 2), canonical order."""
        return _grid_tables(self.n).vectors

    @property
    def norms2(self) -> np.ndarray:
        """|k|^2 for every retained vector, shape (size,)."""
        return _grid_tables(self.n).norms2

    @property
    def neg_index(self) -> np.ndarray:
        """neg_index[a] is the canonical index of -vectors[a]."""
        return _grid_tables(self.n).neg_index

    @property
    def offset_table(self) -> np.ndarray:
        """(n, n) map from offset coordinates (i1+half, i2+half) to canonical
        index, with -1 at the origin."""
        return _grid_tables(self.n).offset_table

    # -- membership and indexing ------------------------------------------

    def contains(self, v) -> bool:
        v = _as_wave_vector(v)
        return v != (0, 0) and abs(v.i1) <= self.half and abs(v.i2) <= self.half

    def index_of(self, v) -> int:
        v = _as_wave_vector(v)
        if not self.contains(v):
            raise ValueError(f"wave vector {tuple(v)} is not in the retained set for n={self.n}")
        return int(self.offset_table[v.i1 + self.half, v.i2 + self.half])

    def vector_at(self, index: int) -> WaveVector:
        if not 0 <= index < self.size:
            raise ValueError(f"mode index {index} out of range for n={self.n}")
        i1, i2 = _grid_tables(self.n).vectors[index]
        return WaveVector(int(i1), int(i2))

    def __iter__(self) -> Iterator[WaveVector]:
        for i1, i2 in _grid_tables(self.n).vectors:
            yield WaveVector(int(i1), int(i2))

    def mod_reduce(self, v) -> WaveVector:
        """Component-wise reduction into [-(n-1)/2, (n-1)/2] modulo n."""
        v = _as_wave_vector(v)
        m, n = self.half, self.n
        return WaveVector((v.i1 + m) % n - m, (v.i2 + m) % n - m)


class _GridTables(NamedTuple):
    vectors: np.ndarray
    norms2: np.ndarray
    neg_index: np.ndarray
    offset_table: np.ndarray
    invariant_weights: np.ndarray  # rows 1/|k|^2 and 1, the weights of H and E


@functools.lru_cache(maxsize=None)
def _grid_tables(n: int) -> _GridTables:
    m = (n - 1) // 2
    coords = np.arange(-m, m + 1)
    i1, i2 = np.meshgrid(coords, coords, indexing="ij")
    keep = (i1 != 0) | (i2 != 0)
    vectors = np.stack([i1[keep], i2[keep]], axis=1)
    vectors.setflags(write=False)

    norms2 = vectors[:, 0] ** 2 + vectors[:, 1] ** 2
    norms2.setflags(write=False)

    offset_table = np.full((n, n), -1, dtype=np.int64)
    offset_table[vectors[:, 0] + m, vectors[:, 1] + m] = np.arange(len(vectors))
    offset_table.setflags(write=False)

    neg_index = offset_table[-vectors[:, 0] + m, -vectors[:, 1] + m]
    neg_index.setflags(write=False)

    invariant_weights = np.stack([1.0 / norms2, np.ones(len(vectors))])
    invariant_weights.setflags(write=False)
    return _GridTables(vectors, norms2, neg_index, offset_table, invariant_weights)


def build_grid(n: int) -> TruncationGrid:
    """Validate n and build the retained wave-vector set."""
    return TruncationGrid(n)


@dataclass
class ModeField:
    """Vorticity mode coefficients on a truncation grid.

    ``coeffs`` is a complex vector of length grid.size in canonical order.
    The reality condition is a property of the data, not enforced on every
    write; use :func:`validate_reality` (or the energy/enstrophy entry
    points, which validate implicitly) at trust boundaries.
    """

    grid: TruncationGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.grid.size,):
            raise ValidationError(
                f"coefficient vector has shape {coeffs.shape}, expected ({self.grid.size},)"
            )
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, grid: TruncationGrid) -> "ModeField":
        return cls(grid, np.zeros(grid.size, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: TruncationGrid, modes: Mapping) -> "ModeField":
        """Build a field from a {wave vector: coefficient} mapping.

        Every assignment also sets the mirror coefficient conj(c) at -k
        unless the mapping provides it explicitly, so the result satisfies
        the reality condition by construction.
        """
        index = np.array([grid.index_of(v) for v in modes], dtype=np.int64)
        values = np.array(list(modes.values()), dtype=np.complex128)
        out = cls.zeros(grid)
        out.coeffs[grid.neg_index[index]] = np.conj(values)
        out.coeffs[index] = values  # explicit values win over mirrors
        return out

    def get(self, v) -> complex:
        return complex(self.coeffs[self.grid.index_of(v)])

    def copy(self) -> "ModeField":
        return ModeField(self.grid, self.coeffs.copy())

    def reality_residual(self) -> float:
        """max |zeta_hat(-k) - conj(zeta_hat(k))| relative to the field scale."""
        dev = np.max(np.abs(self.coeffs[self.grid.neg_index] - np.conj(self.coeffs)))
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return 0.0
        return float(dev / scale)


def validate_reality(field: ModeField, tol: float = REALITY_TOL) -> float:
    """Check the reality condition and return the relative residual.

    A non-finite coefficient raises :class:`ConsistencyError`; a residual
    above ``tol`` raises :class:`ValidationError`.
    """
    if not np.all(np.isfinite(field.coeffs)):  # before inf - inf warns in the residual
        raise ConsistencyError("mode field has non-finite coefficients")
    residual = field.reality_residual()
    if not residual <= tol:
        raise ValidationError(
            f"reality condition violated: relative residual {residual:.3e} exceeds {tol:.1e}"
        )
    return residual


def _quadratic_terms(field: ModeField, weights: np.ndarray) -> np.ndarray:
    """w_k zeta_hat(k) zeta_hat(-k) for every mode and each row of ``weights``."""
    z = field.coeffs
    return weights * z * z[field.grid.neg_index]


def _quadratic_sum(field: ModeField, weights: np.ndarray):
    """(2pi)^2/2 * sum_k w_k zeta_hat(k) zeta_hat(-k) per row of ``weights``, unchecked."""
    return 0.5 * TWO_PI**2 * np.sum(_quadratic_terms(field, weights), axis=-1)


def _invariants(field: ModeField) -> tuple[float, float]:
    """(H, E) of a field whose reality the caller has validated.

    The imaginary parts of the pair sums, the residue of a field within
    its reality tolerance, are dropped: :func:`validate_reality` is the one
    reality rule.
    """
    h, e = _quadratic_sum(field, _grid_tables(field.grid.n).invariant_weights).real
    return float(h), float(e)


def energy(field: ModeField) -> float:
    """Kinetic energy (2pi)^2/2 * sum_k |k|^-2 zeta_hat(k) zeta_hat(-k)."""
    validate_reality(field)
    return _invariants(field)[0]


def enstrophy(field: ModeField) -> float:
    """Enstrophy (2pi)^2/2 * sum_k zeta_hat(k) zeta_hat(-k)."""
    validate_reality(field)
    return _invariants(field)[1]


@functools.lru_cache(maxsize=16)
def _wrap_index(n: int) -> np.ndarray:
    """Flat position of each retained k in an (n, n) array indexed by k mod n."""
    v = _grid_tables(n).vectors
    index = (v[:, 0] % n) * n + v[:, 1] % n
    index.setflags(write=False)
    return index


def _wrapped(field: ModeField) -> np.ndarray:
    """Embed the coefficients into an (n, n) array indexed by k mod n."""
    n = field.grid.n
    out = np.zeros(n * n, dtype=np.complex128)
    out[_wrap_index(n)] = field.coeffs
    return out.reshape(n, n)


def from_physical(samples: np.ndarray, grid: TruncationGrid) -> ModeField:
    """Project real samples on the n x n collocation grid onto the mode set.

    The mean is discarded; components outside the retained set do not exist
    at this resolution, so the transform is exact for band-limited data.
    """
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        raise ValidationError("physical samples must be real")
    if samples.shape != (grid.n, grid.n):
        raise ValidationError(
            f"sample array has shape {samples.shape}, expected ({grid.n}, {grid.n})"
        )
    spec = np.fft.fft2(samples.astype(np.float64)) / grid.n**2
    return ModeField(grid, spec.reshape(-1)[_wrap_index(grid.n)])
