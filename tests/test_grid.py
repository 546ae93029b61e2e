"""Mode set combinatorics, transforms, and quadratic invariants."""

import math

import numpy as np
import pytest

from sinebracket.errors import ValidationError
from sinebracket.grid import (
    ModeField,
    TruncationGrid,
    WaveVector,
    build_grid,
    energy,
    enstrophy,
    _wrapped,
    from_physical,
    validate_reality,
)

TWO_PI = 2.0 * math.pi


def to_physical(field: ModeField) -> np.ndarray:
    """Real samples of the field on the n x n grid x_ab = (2pi a/n, 2pi b/n)."""
    validate_reality(field)
    n = field.grid.n
    return np.ascontiguousarray((np.fft.ifft2(_wrapped(field)) * n**2).real)


def stream_function(field: ModeField) -> ModeField:
    """Stream function modes psi_hat(k) = -zeta_hat(k)/|k|^2 (mean-free gauge)."""
    return ModeField(field.grid, -field.coeffs / field.grid.norms2)


def test_grid_counts_and_ordering():
    for n in (3, 5, 9):
        grid = build_grid(n)
        assert grid.size == n * n - 1
        vectors = list(grid)
        assert len(vectors) == grid.size
        assert (0, 0) not in [tuple(v) for v in vectors]
        # row-major over [-(n-1)/2, (n-1)/2]^2 with the origin skipped
        h = grid.half
        expected = [(a, b) for a in range(-h, h + 1) for b in range(-h, h + 1) if (a, b) != (0, 0)]
        assert [tuple(v) for v in vectors] == expected


def test_grid_rejects_even_and_tiny_n():
    with pytest.raises(ValueError):
        build_grid(4)
    with pytest.raises(ValueError):
        build_grid(1)
    with pytest.raises(ValueError):
        build_grid(-5)


def test_grid_refuses_non_integer_n():
    # 7.5 once built a grid of size 55.25 and build_grid(7.9) truncated to 7
    for n in (7.5, 7.9, True):
        with pytest.raises(ValueError, match="must be an integer"):
            TruncationGrid(n)
        with pytest.raises(ValueError, match="must be an integer"):
            build_grid(n)
    grid = build_grid(np.int64(7))
    assert type(grid.n) is int and grid.n == 7
    assert grid == build_grid(7) and type(grid.size) is int


def test_mod_reduce_symmetric_window():
    grid = build_grid(5)
    assert grid.mod_reduce((3, -3)) == (-2, 2)
    assert grid.mod_reduce((2, 5)) == (2, 0)
    assert grid.mod_reduce((7, -7)) == (2, -2)
    # every representative lands inside the window, congruent per coordinate
    for n in (3, 5, 7):
        g = build_grid(n)
        h = (n - 1) // 2
        for x in range(-3 * n, 3 * n + 1):
            r = g.mod_reduce((x, -x))
            assert -h <= r[0] <= h and -h <= r[1] <= h
            assert (x - r[0]) % n == 0 and (-x - r[1]) % n == 0


def test_index_bijection_and_neg_index():
    grid = build_grid(7)
    for idx in range(grid.size):
        v = grid.vector_at(idx)
        assert grid.index_of(v) == idx
        mirror = grid.vector_at(int(grid.neg_index[idx]))
        assert tuple(mirror) == tuple(-v)
    with pytest.raises(ValueError):
        grid.index_of((0, 0))
    with pytest.raises(ValueError):
        grid.index_of((4, 0))  # outside the window at n=7


def test_wave_vector_arithmetic():
    a = WaveVector(1, 2)
    b = WaveVector(2, -1)
    assert tuple(a + b) == (3, 1)
    assert tuple(-a) == (-1, -2)
    assert a.cross(b) == 1 * (-1) - 2 * 2
    assert a.norm2() == 5


def test_from_modes_symmetrizes():
    grid = build_grid(5)
    f = ModeField.from_modes(grid, {(1, 2): 0.3 + 0.4j})
    assert f.get((1, 2)) == 0.3 + 0.4j
    assert f.get((-1, -2)) == 0.3 - 0.4j
    assert validate_reality(f) <= 1e-15


def test_validate_reality_flags_asymmetry():
    grid = build_grid(5)
    coeffs = np.zeros(grid.size, dtype=np.complex128)
    coeffs[grid.index_of((1, 0))] = 1.0 + 1.0j
    # mirror left at zero: clearly not a real field
    with pytest.raises(ValidationError):
        validate_reality(ModeField(grid, coeffs))


def _physical_oracle(field, samples_per_side):
    """Direct exponential sum on an independent grid resolution."""
    grid = field.grid
    xs = np.arange(samples_per_side) * TWO_PI / samples_per_side
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    out = np.zeros_like(x1, dtype=np.complex128)
    for idx, v in enumerate(grid):
        out += field.coeffs[idx] * np.exp(1j * (v.i1 * x1 + v.i2 * x2))
    assert np.max(np.abs(out.imag)) < 1e-12 * max(1.0, np.max(np.abs(out.real)))
    return out.real


def test_energy_against_quadrature_oracle():
    # H = (1/2) integral of |grad psi|^2 = -(1/2) integral of psi * zeta;
    # the rectangle rule is exact for band-limited integrands once the
    # sampling exceeds twice the bandwidth.
    grid = build_grid(5)
    rng = np.random.default_rng(3)
    modes = {}
    for v in [(1, 0), (2, 1), (-1, 2), (2, 2)]:
        modes[v] = complex(rng.normal(), rng.normal())
    zeta = ModeField.from_modes(grid, modes)
    psi = stream_function(zeta)
    m = 4 * grid.n + 1
    z_phys = _physical_oracle(zeta, m)
    p_phys = _physical_oracle(psi, m)
    quadrature = -0.5 * np.sum(p_phys * z_phys) * (TWO_PI / m) ** 2
    assert energy(zeta) == pytest.approx(quadrature, rel=1e-12)


def test_enstrophy_against_quadrature_oracle():
    grid = build_grid(7)
    field = ModeField.from_modes(
        grid, {(1, 1): 0.5 - 0.2j, (3, -2): 0.1 + 0.7j, (0, 2): -0.4 + 0.0j}
    )
    m = 4 * grid.n + 1
    z_phys = _physical_oracle(field, m)
    quadrature = 0.5 * np.sum(z_phys**2) * (TWO_PI / m) ** 2
    assert enstrophy(field) == pytest.approx(quadrature, rel=1e-12)


def test_stream_function_inverts_laplacian():
    grid = build_grid(5)
    field = ModeField.from_modes(grid, {(1, 2): 1.0 + 0.5j, (2, 0): 0.3j})
    psi = stream_function(field)
    for idx, v in enumerate(grid):
        assert psi.coeffs[idx] == pytest.approx(-field.coeffs[idx] / v.norm2(), rel=1e-15)


def test_physical_roundtrip():
    grid = build_grid(9)
    rng = np.random.default_rng(11)
    modes = {}
    for v in [(1, 0), (0, 1), (2, -3), (4, 4), (-3, 1)]:
        modes[v] = complex(rng.normal(), rng.normal())
    field = ModeField.from_modes(grid, modes)
    samples = to_physical(field)
    assert samples.shape == (grid.n, grid.n)
    back = from_physical(samples, grid)
    assert np.max(np.abs(back.coeffs - field.coeffs)) < 1e-13


def test_physical_matches_exponential_sum():
    grid = build_grid(5)
    field = ModeField.from_modes(grid, {(1, 2): 0.8 - 0.1j, (2, -2): 0.2 + 0.3j})
    samples = to_physical(field)
    oracle = _physical_oracle(field, grid.n)
    assert np.max(np.abs(samples - oracle)) < 1e-12


def test_from_physical_rejects_bad_input():
    grid = build_grid(5)
    with pytest.raises(ValidationError):
        from_physical(np.zeros((5, 5), dtype=np.complex128), grid)
    with pytest.raises(ValidationError):
        from_physical(np.zeros((5, 7)), grid)


def test_from_physical_drops_mean():
    grid = build_grid(5)
    samples = np.full((5, 5), 2.5)  # pure mean: no retained mode content
    field = from_physical(samples, grid)
    assert np.max(np.abs(field.coeffs)) < 1e-15 * 2.5


def test_energy_enstrophy_parseval_forms():
    # closed forms: (2pi)^2/2 * sum |z|^2 / k^2 and (2pi)^2/2 * sum |z|^2
    grid = build_grid(7)
    field = ModeField.from_modes(grid, {(1, 0): 1.0 + 0.0j, (2, 1): 0.5j})
    z = field.coeffs
    h_direct = 0.5 * TWO_PI**2 * float(np.sum(np.abs(z) ** 2 / grid.norms2))
    e_direct = 0.5 * TWO_PI**2 * float(np.sum(np.abs(z) ** 2))
    assert energy(field) == pytest.approx(h_direct, rel=1e-14)
    assert enstrophy(field) == pytest.approx(e_direct, rel=1e-14)
