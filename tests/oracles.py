"""Reference helpers that only the tests call.

No command of the package (``run``, ``verify``, ``converge``,
``jacobi-scan``) reaches these, so they live beside the tests instead of
in ``sinebracket``.  Each is the slow or per-item form of something the
package computes another way, a reader of a file the package only
writes, or a helper of such a check.  Pytest puts ``tests/`` on the
import path, so a test imports this module as ``oracles``.
"""

import numpy as np

from sinebracket.algebra import _scan_closing, casimir_scale, gen_jacobi_terms
from sinebracket.dynamics import DiagnosticsRecord, _record_values, _records
from sinebracket.errors import ConsistencyError, ValidationError
from sinebracket.functionals import Functional
from sinebracket.grid import (
    TWO_PI,
    ModeField,
    TruncationGrid,
    _as_wave_vector,
    build_grid,
    enstrophy,
    validate_reality,
)
from sinebracket.serialization import (
    DIAGNOSTICS_HEADER,
    MODE_FIELD_HEADER,
    _open_write,
    _read_rows,
    _write_rows,
)

# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def quadratic_casimir(grid: TruncationGrid, field: ModeField) -> float:
    """r/2 * sum_ij K^{ij} zeta_i zeta_j, cross-checked against the enstrophy.

    The inverse Killing pairing collapses onto j = -i with the value
    -2 (2pi)^6 / n^4, and the prefactors combine to (2pi)^2/2, so the
    scaled Casimir must reproduce the enstrophy to rounding.  A relative
    mismatch beyond 1e-12 raises :class:`ConsistencyError`; the Casimir
    value is returned.
    """
    validate_reality(field)
    z = field.coeffs
    killing_inverse_diagonal = -2.0 * TWO_PI**6 / grid.n**4
    prefactor = 0.5 * casimir_scale(grid.n) * killing_inverse_diagonal
    casimir = float((prefactor * np.sum(z * z[grid.neg_index])).real)
    reference = enstrophy(field)
    if abs(casimir - reference) > 1e-12 * max(abs(reference), 1e-300):
        raise ConsistencyError(
            f"scaled quadratic Casimir {casimir!r} does not match the enstrophy {reference!r}"
        )
    return casimir


def bilinear_with_scale(
    matrix: np.ndarray, g1: np.ndarray, g2: np.ndarray
) -> tuple[complex, float]:
    """g1.M.g2 plus the L1 mass of the summands (cancellation scale).

    The per-pair oracle of ``verify._right_products``, the shared products
    of the casimir and reduction checks.
    """
    value = complex(g1 @ (matrix @ g2))
    scale = float(np.abs(g1) @ (np.abs(matrix) @ np.abs(g2)))
    return value, scale


def gen_jacobi_residual(tensor, i, j, k, l, p, q) -> float:
    """Residual of the generalized Jacobi identity at one index tuple."""
    t1, t2, t3 = gen_jacobi_terms(tensor, i, j, k, l, p, q)
    return t1 + t2 + t3


def violation_orbit(indices: tuple) -> list[tuple]:
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


def scan_gen_jacobi_continuum(bound: int):
    """``scan_gen_jacobi`` for the untruncated tensor, over i, j in |i|, |j| <= bound.

    The members are the retained vectors of the n = 4*bound + 1 grid, which
    holds the closing vector -(i+j) of every pair of box vectors; the scan
    is the truncation's own closing-triple kernel, ``algebra._scan_closing``.
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


# ---------------------------------------------------------------------------
# functionals and dynamics
# ---------------------------------------------------------------------------


def coordinate_functional(grid: TruncationGrid, v) -> Functional:
    """The single coefficient zeta_hat(v) as a (complex-valued) observable."""
    idx = grid.index_of(v)

    def gradient(field: ModeField) -> np.ndarray:
        g = np.zeros(grid.size, dtype=np.complex128)
        g[idx] = 1.0
        return g

    return Functional(
        lambda field: field.coeffs[idx],
        gradient,
        name=f"coordinate{tuple(_as_wave_vector(v))}",
    )


def record(time: float, w: np.ndarray, h0: float, e0: float) -> DiagnosticsRecord:
    """The record of one matrix alone, which each record of a run's batch equals bitwise."""
    out = np.empty((1, (len(w) + 1) // 2, len(w)), dtype=np.complex128)
    return _records([time], _record_values(w[None], out, [[h0], [e0]]))[0]


# ---------------------------------------------------------------------------
# files the package writes but never reads, and one it reads but never writes
# ---------------------------------------------------------------------------


def load_mode_field(path) -> ModeField:
    """Rebuild a mode field from ``save_mode_field``'s CSV; the row order must be canonical."""
    rows = _read_rows(
        path,
        MODE_FIELD_HEADER,
        lambda r: (int(r[0]), int(r[1]), float(r[2]), float(r[3])),
        "mode rows",
    )
    size = len(rows)
    n = round((size + 1) ** 0.5)
    if n % 2 == 0 or n * n - 1 != size:
        raise ValidationError(f"{path}: {size} rows is not a full odd-n mode set")
    grid = build_grid(n)
    coeffs = np.empty(size, dtype=np.complex128)
    for idx, (i1, i2, real, imag) in enumerate(rows):
        expected = grid.vector_at(idx)
        if (i1, i2) != (expected.i1, expected.i2):
            raise ValidationError(
                f"{path}: row {idx} holds mode ({i1}, {i2}), expected {tuple(expected)}"
            )
        coeffs[idx] = complex(real, imag)
    return ModeField(grid, coeffs)


def save_physical_field(path, values: np.ndarray) -> None:
    """Headerless n x n grid of samples, one spatial row per line, as ``physical_csv`` reads."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"physical field must be square, got shape {values.shape}")
    with _open_write(path) as fh:
        _write_rows(fh, None, map(tuple, values.tolist()))


def load_diagnostics(path) -> list[DiagnosticsRecord]:
    """The records of ``save_diagnostics``' CSV."""
    return _read_rows(
        path, DIAGNOSTICS_HEADER, lambda r: DiagnosticsRecord(*map(float, r)), "diagnostics records"
    )
