"""Polynomial observables and their mode-coefficient gradients."""

import numpy as np
import pytest

from sinebracket.dynamics import random_shell_field
from sinebracket.functionals import ModePolynomial, random_real_polynomial
from sinebracket.grid import ModeField, build_grid

from oracles import coordinate_functional

FD_STEP = 1e-6


def _fd_gradient(value_fn, field, idx, h=FD_STEP):
    """Central difference in the complex coefficient at one index."""
    plus = field.coeffs.copy()
    minus = field.coeffs.copy()
    plus[idx] += h
    minus[idx] -= h
    grid = field.grid
    return (value_fn(ModeField(grid, plus)) - value_fn(ModeField(grid, minus))) / (2 * h)


def test_linear_polynomial_value_and_gradient():
    grid = build_grid(5)
    p = ModePolynomial.from_terms([(2.0 + 0.0j, [(1, 2)])])
    field = ModeField.from_modes(grid, {(1, 2): 0.3 + 0.4j})
    assert p.value(field) == pytest.approx(2 * (0.3 + 0.4j))
    g = p.gradient(field)
    assert g[grid.index_of((1, 2))] == 2.0
    assert np.count_nonzero(g) == 1


def test_with_conjugate_makes_real_values():
    grid = build_grid(5)
    rng = np.random.default_rng(0)
    field = random_shell_field(grid, seed=5, shell_max=8.0, amplitude=1.5)
    for _ in range(5):
        p = random_real_polynomial(grid, rng)
        v = p.value(field)
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v.real))


def test_gradient_matches_finite_differences():
    grid = build_grid(5)
    rng = np.random.default_rng(1)
    field = random_shell_field(grid, seed=9, shell_max=8.0, amplitude=1.2)
    for _ in range(4):
        p = random_real_polynomial(grid, rng)
        grad = p.gradient(field)
        probed = [i for i in range(grid.size) if grad[i] != 0][:6]
        for idx in probed:
            fd = _fd_gradient(p.value, field, idx)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_cubic_monomial_product_rule():
    grid = build_grid(5)
    vs = [(1, 0), (0, 1), (-1, -1)]
    p = ModePolynomial.from_terms([(1.0 + 0.0j, vs)])
    field = ModeField.from_modes(
        grid, {(1, 0): 1.0 + 2.0j, (0, 1): -0.5 + 0.1j, (-1, -1): 0.3 - 0.3j},
    )
    a, b, c = (field.get(v) for v in vs)
    assert p.value(field) == pytest.approx(a * b * c)
    g = p.gradient(field)
    assert g[grid.index_of((1, 0))] == pytest.approx(b * c)
    assert g[grid.index_of((0, 1))] == pytest.approx(a * c)
    assert g[grid.index_of((-1, -1))] == pytest.approx(a * b)


def test_repeated_factor_gradient():
    grid = build_grid(5)
    p = ModePolynomial.from_terms([(1.0 + 0.0j, [(1, 1), (1, 1)])])
    field = ModeField.from_modes(grid, {(1, 1): 0.7 - 0.2j})
    z = field.get((1, 1))
    g = p.gradient(field)
    assert g[grid.index_of((1, 1))] == pytest.approx(2 * z)
    fd = _fd_gradient(p.value, field, grid.index_of((1, 1)))
    assert g[grid.index_of((1, 1))] == pytest.approx(fd, rel=1e-7)


def test_gradient_map_agrees_with_field_gradient():
    grid = build_grid(5)
    rng = np.random.default_rng(2)
    field = random_shell_field(grid, seed=4, shell_max=8.0, amplitude=1.0)
    assignment = {v: field.get(v) for v in grid}
    p = random_real_polynomial(grid, rng)
    dense = p.gradient(field)
    sparse = p.gradient_map(assignment)
    for v, value in sparse.items():
        assert dense[grid.index_of(v)] == pytest.approx(value, rel=1e-13, abs=1e-15)
    for idx in range(grid.size):
        if dense[idx] != 0:
            assert grid.vector_at(idx) in sparse


def test_value_map_matches_value():
    grid = build_grid(5)
    field = ModeField.from_modes(grid, {(2, 1): 0.4 + 0.9j, (1, -2): -0.2 + 0.3j})
    assignment = {v: field.get(v) for v in grid}
    p = ModePolynomial.from_terms(
        [(0.5 + 0.0j, [(2, 1), (1, -2)]), (1.0 + 0.0j, [(2, 1)])]
    ).with_conjugate()
    assert p.value_map(assignment) == pytest.approx(p.value(field))


def test_coordinate_functional():
    grid = build_grid(5)
    f = coordinate_functional(grid, (2, -1))
    field = ModeField.from_modes(grid, {(2, -1): 1.5 - 0.5j})
    assert f.value_complex(field) == pytest.approx(1.5 - 0.5j)
    g = f.gradient(field)
    assert g[grid.index_of((2, -1))] == 1.0
    assert np.count_nonzero(g) == 1


def test_random_polynomial_is_deterministic():
    grid = build_grid(5)
    p1 = random_real_polynomial(grid, np.random.default_rng(42))
    p2 = random_real_polynomial(grid, np.random.default_rng(42))
    assert p1.terms == p2.terms
