"""Structure constants, Killing form, Casimir, Nambu tensor, brackets.

Numeric anchors were derived independently: the alpha entries with
50-digit interval arithmetic, the n = 3 Killing matrix by a literal
quadruple loop written directly from the definitions, and the
counterexample summands by hand from the closed forms.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sinebracket import algebra as sine_algebra
from sinebracket.algebra import (
    KNOWN_JACOBI_VIOLATION,
    ContinuumNambuTensor,
    DenseKillingForm,
    DenseNambuTensor,
    SineNambuTensor,
    ViolationTable,
    _violation_orbit,
    alpha_continuum,
    alpha_zeitlin,
    alpha_zeitlin_dense,
    casimir_scale,
    construct_generic,
    dedupe_violations,
    dense_antisymmetry_residual,
    dense_jacobi_residual,
    dense_total_antisymmetry_residual,
    gen_jacobi_residual,
    gen_jacobi_terms,
    killing_bruteforce,
    killing_closed,
    killing_diagonal,
    lie_poisson_bracket,
    lie_poisson_prefactor,
    nambu_bracket,
    nambu_prefactor,
    quadratic_casimir,
    scan_gen_jacobi,
    scan_gen_jacobi_continuum,
    sine_table,
    support_nambu_bracket,
)
from sinebracket.dynamics import (
    enstrophy_functional,
    hamiltonian_functional,
    random_shell_field,
)
from sinebracket.errors import ConsistencyError, ValidationError
from sinebracket.functionals import ModePolynomial, random_real_polynomial
from sinebracket.grid import ModeField, build_grid
from sinebracket.verify import run_identity_suite

TWO_PI = 2.0 * math.pi

# 50-digit evaluations of -(n/(2pi)^3) sin((2pi/n)(i x j)), rounded to double
ALPHA_ANCHORS = [
    (5, (1, 2), (2, 1), -0.01184811018977346632),
    (5, (2, 2), (1, 2), -0.01184811018977346632),
    (7, (1, 0), (0, 1), -0.022063356855554932857),
    (9, (2, 3), (4, -4), 0.035731756300899426965),
]

# -(n^4/2)/(2pi)^6 at n in {3, 5, 7}, same precision
KILLING_DIAGONAL_ANCHORS = {
    3: -0.00065822718232003153112,
    5: -0.0050789134438274037895,
    7: -0.019511153885807354398,
}

# first summand of the counterexample combination
COUNTEREXAMPLE_T1 = {
    5: 2.3580552480558458215e-07,
    7: 3.12337194716789345e-07,
    "continuum": 4.1168121739645963411e-07,
}


def _wrap(x, n):
    h = (n - 1) // 2
    return ((x + h) % n) - h


def _alpha_literal(n, i, j, k):
    """Transliteration of the definition, independent of the package."""
    target = (_wrap(i[0] + j[0], n), _wrap(i[1] + j[1], n))
    if target == (0, 0) or target != tuple(k):
        return 0.0
    cross = i[0] * j[1] - i[1] * j[0]
    return -(n / TWO_PI**3) * math.sin(TWO_PI * cross / n)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def test_alpha_zeitlin_against_anchors():
    for n, i, j, value in ALPHA_ANCHORS:
        grid = build_grid(n)
        k = (_wrap(i[0] + j[0], n), _wrap(i[1] + j[1], n))
        assert alpha_zeitlin(grid, i, j, k) == pytest.approx(value, rel=1e-13)


def test_alpha_zeitlin_delta_support():
    grid = build_grid(5)
    assert alpha_zeitlin(grid, (1, 0), (0, 1), (1, 1)) != 0.0
    assert alpha_zeitlin(grid, (1, 0), (0, 1), (1, 2)) == 0.0
    assert alpha_zeitlin(grid, (1, 0), (0, 1), (-1, -1)) == 0.0


def test_alpha_zeitlin_exact_zeros():
    grid = build_grid(7)
    # j = -i: the sum lands on the discarded constant mode, no retained k
    for k in [(1, 0), (2, 2)]:
        assert alpha_zeitlin(grid, (3, 3), (-3, -3), k) == 0.0
    # cross product a multiple of n: the sine table carries an exact zero
    # (3)(3) - (-2)(-1) = 7, so the coupling vanishes identically
    assert alpha_zeitlin(grid, (3, -2), (-1, 3), (2, 1)) == 0.0


def test_alpha_zeitlin_matches_literal_definition():
    for n in (3, 5):
        grid = build_grid(n)
        vs = [tuple(v) for v in grid]
        for i in vs:
            for j in vs:
                k = (_wrap(i[0] + j[0], n), _wrap(i[1] + j[1], n))
                if k == (0, 0):
                    continue
                assert alpha_zeitlin(grid, i, j, k) == pytest.approx(
                    _alpha_literal(n, i, j, k), abs=1e-16, rel=1e-13
                )


def test_alpha_antisymmetry_is_exact():
    grid = build_grid(9)
    dense = alpha_zeitlin_dense(grid)
    assert dense_antisymmetry_residual(dense) == 0.0


def test_alpha_jacobi_identity_dense():
    for n in (3, 5):
        dense = alpha_zeitlin_dense(build_grid(n))
        assert dense_jacobi_residual(dense) < 1e-13


def test_alpha_continuum_values():
    assert alpha_continuum((1, 0), (0, 1), (1, 1)) == pytest.approx(-1.0 / TWO_PI**2)
    assert alpha_continuum((1, 0), (0, 1), (1, 2)) == 0.0
    assert alpha_continuum((2, 1), (1, 3), (3, 4)) == pytest.approx(-5.0 / TWO_PI**2)
    # no modular identification: this triple only closes on the torus algebra
    assert alpha_continuum((2, 2), (2, 2), (-1, -1)) == 0.0
    with pytest.raises(ValueError):
        alpha_continuum((0, 0), (1, 0), (1, 0))


def test_alpha_convergence_pointwise():
    # alpha_n -> continuum alpha at fixed indices, error ~ n^-2
    i, j, k = (1, 0), (0, 1), (1, 1)
    errors = []
    for n in (11, 21, 41):
        e = abs(alpha_zeitlin(build_grid(n), i, j, k) - alpha_continuum(i, j, k))
        errors.append(e)
    assert errors[0] > errors[1] > errors[2]
    # n doubling shrinks the defect by ~4; the band absorbs the n = 11
    # preasymptotics of sin(x)/x at x = 2 pi / n
    assert 3.3 <= errors[0] / errors[1] <= 4.2
    assert 3.3 <= errors[1] / errors[2] <= 4.2


# ---------------------------------------------------------------------------
# Killing form and Casimir
# ---------------------------------------------------------------------------


def test_killing_literal_oracle_n3():
    # quadruple loop straight from K_ij = sum_{k,l} alpha_ik^l alpha_jl^k
    n = 3
    grid = build_grid(n)
    vs = [tuple(v) for v in grid]
    brute = killing_bruteforce(grid)
    closed = killing_closed(grid)
    kappa = KILLING_DIAGONAL_ANCHORS[n]
    for i in vs:
        for j in vs:
            literal = 0.0
            for k in vs:
                for l in vs:
                    literal += _alpha_literal(n, i, k, l) * _alpha_literal(n, j, l, k)
            expected = kappa if _wrap(i[0] + j[0], n) == 0 and _wrap(i[1] + j[1], n) == 0 else 0.0
            assert literal == pytest.approx(expected, abs=1e-14 * abs(kappa))
            a, b = grid.index_of(i), grid.index_of(j)
            assert brute[a, b] == pytest.approx(literal, abs=1e-13 * abs(kappa))
            assert closed[a, b] == pytest.approx(expected, abs=1e-14 * abs(kappa))


def test_killing_brute_equals_closed():
    for n in (5, 7):
        grid = build_grid(n)
        brute = killing_bruteforce(grid)
        closed = killing_closed(grid)
        kappa = KILLING_DIAGONAL_ANCHORS[n]
        assert closed[grid.index_of((1, 0)), grid.index_of((-1, 0))] == pytest.approx(
            kappa, rel=1e-13
        )
        for i, j in [((1, 0), (-1, 0)), ((2, 1), (-2, -1)), ((1, 0), (0, 1)), ((2, 2), (1, 1))]:
            a, b = grid.index_of(i), grid.index_of(j)
            assert brute[a, b] == pytest.approx(closed[a, b], abs=1e-12 * abs(kappa))
        assert np.max(np.abs(brute - closed)) <= 1e-12 * abs(kappa)


def _killing_contraction_per_row(grid):
    # Reference: the O(N^3) double contraction, one row a at a time over
    # every b, on the tables the kernel reads.
    t = sine_algebra._pair_tables(grid.n)
    pref = lie_poisson_prefactor(grid.n)
    ks = np.arange(grid.size)
    out = np.empty((grid.size, grid.size))
    for a in range(grid.size):
        l_idx = t.wrap_index[a]
        k, l = ks[l_idx >= 0], l_idx[l_idx >= 0]
        second = np.where(t.wrap_index[:, l] == k, t.sin_cross[:, l], 0.0)
        out[a] = (pref * second) @ (pref * t.sin_cross[a, k])
    return out


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_killing_matches_the_per_row_contraction(n):
    grid = build_grid(n)
    reference = _killing_contraction_per_row(grid)
    assert np.max(np.abs(killing_bruteforce(grid) - reference)) <= 1e-14 * abs(killing_diagonal(n))


def _killing_flags(grid, kernel):
    defect = np.max(np.abs(kernel(grid) - killing_closed(grid)))
    return bool(defect > 1e-12 * abs(killing_diagonal(grid.n)))


def test_killing_and_the_per_row_contraction_flag_the_same_corruptions(monkeypatch):
    # Each corruption rewrites one entry of the wrap table (to another index
    # or -1) or of the sine table (to another sine value).
    n = 5
    grid = build_grid(n)
    clean = sine_algebra._pair_tables(n)
    rng = np.random.default_rng(17)
    flags = []
    for trial in range(40):
        i, j = rng.integers(grid.size, size=2)
        if trial % 2:
            w = clean.wrap_index.copy()
            w[i, j] = rng.choice([v for v in range(-1, grid.size) if v != w[i, j]])
            tables = clean._replace(wrap_index=w)
        else:
            s = clean.sin_cross.copy()
            s[i, j] = rng.choice([v for v in sine_table(n) if v != s[i, j]])
            tables = clean._replace(sin_cross=s)
        monkeypatch.setattr(sine_algebra, "_pair_tables", lambda n, t=tables: t)
        new = _killing_flags(grid, killing_bruteforce)
        flags.append((new, _killing_flags(grid, _killing_contraction_per_row)))
    assert all(new == old for new, old in flags)
    assert {new for new, _ in flags} == {True, False}  # the sample holds both outcomes


def test_orthogonality_relation():
    grid = build_grid(5)
    # arguments that wrap onto the origin flip the sum from -1 to n^2 - 1
    witnesses = np.array([(1, 0), (2, 2), (-1, 2), (0, 0), (5, 0), (0, 5), (5, 5)])
    totals, expected = sine_algebra._orthogonality_sum(grid, witnesses)
    assert list(expected) == [-1.0] * 3 + [24.0] * 4
    assert np.all(np.abs(totals - expected) <= 1e-11)


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_orthogonality_sums_are_bitwise_the_single_witness_sums(n):
    # One (W, N) cosine block summed along its rows gives, for each witness,
    # the float that the 1-D sum over that witness alone gives.
    grid = build_grid(n)
    witnesses = np.vstack([grid.vectors, [(0, 0), (n, 0), (0, n), (n, n)]])
    totals, expected = sine_algebra._orthogonality_sum(grid, witnesses)
    v = grid.vectors
    for (l1, l2), total, want in zip(witnesses, totals, expected):
        single = float(np.sum(sine_algebra.cosine_table(n)[(v[:, 0] * l1 + v[:, 1] * l2) % n]))
        assert total == single
        assert sine_algebra._orthogonality_sum(grid, np.array([[l1, l2]]))[0][0] == single
        assert want == (n * n - 1.0 if l1 % n == 0 and l2 % n == 0 else -1.0)


def test_orthogonality_check_refuses_a_nan_sum(monkeypatch):
    # A NaN in the cosine table reaches the suite's orthogonality check
    # through its sums and fails it.
    table = sine_algebra.cosine_table(5).copy()
    table[1] = np.nan
    monkeypatch.setattr(sine_algebra, "cosine_table", lambda n: table)
    (report,) = run_identity_suite(5, only="orthogonality")
    assert math.isnan(report.max_residual)
    assert report.passed is False


def test_quadratic_casimir_equals_enstrophy():
    from sinebracket.grid import enstrophy

    grid = build_grid(7)
    for seed in range(5):
        field = random_shell_field(grid, seed=seed, shell_max=9.0, amplitude=2.0)
        value = quadratic_casimir(grid, field)
        assert value == pytest.approx(enstrophy(field), rel=1e-13)


def test_quadratic_casimir_refuses_a_mismatch_with_the_enstrophy(monkeypatch):
    grid = build_grid(5)
    field = random_shell_field(grid, seed=0, shell_max=4.0, amplitude=2.0)
    enstrophy = sine_algebra.enstrophy
    monkeypatch.setattr(sine_algebra, "enstrophy", lambda f: enstrophy(f) * (1 + 1e-9))
    with pytest.raises(ConsistencyError, match="does not match the enstrophy"):
        quadratic_casimir(grid, field)


def test_dense_killing_rejects_singular_pairing():
    with pytest.raises(ValueError, match="semi-simple"):
        DenseKillingForm(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Nambu tensor
# ---------------------------------------------------------------------------


def test_sine_nambu_entries():
    n = 5
    grid = build_grid(n)
    t = SineNambuTensor(grid)
    pref = -n / TWO_PI**5
    # closing triple: i + j + k = 0 exactly
    value = t.entry((1, 0), (0, 1), (-1, -1))
    assert value == pytest.approx(pref * math.sin(TWO_PI / n), rel=1e-14)
    # modular closing: i + j + k = (5, 0) wraps to the origin
    assert t.entry((2, 1), (2, 0), (1, -1)) == pytest.approx(
        pref * math.sin(TWO_PI * ((2 * 0) - (1 * 2)) / n), rel=1e-14
    )
    # non-closing triple
    assert t.entry((1, 0), (0, 1), (1, 1)) == 0.0


def test_sine_nambu_total_antisymmetry():
    grid = build_grid(5)
    t = SineNambuTensor(grid)
    vs = [tuple(v) for v in grid]
    rng = np.random.default_rng(8)
    for _ in range(200):
        i, j, k = (vs[rng.integers(len(vs))] for _ in range(3))
        base = t.entry(i, j, k)
        assert t.entry(j, i, k) == -base
        assert t.entry(i, k, j) == -base
        assert t.entry(k, j, i) == -base
        assert t.entry(j, k, i) == base
        assert t.entry(k, i, j) == base


def test_sine_nambu_scaling_matches_killing_route():
    # N = alpha . K / r entry by entry on a small truncation
    n = 3
    grid = build_grid(n)
    dense_alpha = alpha_zeitlin_dense(grid)
    t = SineNambuTensor(grid)
    kappa = KILLING_DIAGONAL_ANCHORS[n]
    r = casimir_scale(n)
    for ai, i in enumerate(grid):
        for bj, j in enumerate(grid):
            for ck, k in enumerate(grid):
                lowered = dense_alpha[ai, bj, int(grid.neg_index[ck])] * kappa / r
                assert t.entry(tuple(i), tuple(j), tuple(k)) == pytest.approx(
                    lowered, abs=1e-16, rel=1e-12
                )


def test_continuum_nambu_entries():
    t = ContinuumNambuTensor()
    assert t.entry((1, 0), (0, 1), (-1, -1)) == pytest.approx(-1.0 / TWO_PI**4)
    assert t.entry((2, 1), (1, 3), (-3, -4)) == pytest.approx(-5.0 / TWO_PI**4)
    assert t.entry((1, 0), (0, 1), (4, 4)) == 0.0
    with pytest.raises(ValueError):
        t.entry((0, 0), (0, 1), (0, -1))


def test_entry_rule_gives_literal_values():
    # alpha and N of the truncation and of the untruncated algebra share one
    # closing-triple rule; each must still equal its literal formula exactly.
    n = 5
    grid = build_grid(n)
    tensor = SineNambuTensor(grid)
    for i in grid:
        for j in grid:
            sine = sine_table(n)[i.cross(j) % n]
            for k in grid:
                alpha_closes = (_wrap(i[0] + j[0], n), _wrap(i[1] + j[1], n)) == k
                nambu_closes = _wrap(i[0] + j[0] + k[0], n) == 0 == _wrap(i[1] + j[1] + k[1], n)
                alpha = lie_poisson_prefactor(n) * sine if alpha_closes else 0.0
                nambu = nambu_prefactor(n) * sine if nambu_closes else 0.0
                assert alpha_zeitlin(grid, i, j, k) == alpha
                assert tensor.entry(i, j, k) == nambu
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    continuum = ContinuumNambuTensor()
    for i in box:
        for j in box:
            cross = i[0] * j[1] - i[1] * j[0]
            for k in box:
                alpha = -cross / TWO_PI**2 if (i[0] + j[0], i[1] + j[1]) == k else 0.0
                closes = (i[0] + j[0] + k[0], i[1] + j[1] + k[1]) == (0, 0)
                assert alpha_continuum(i, j, k) == alpha
                assert continuum.entry(i, j, k) == (-cross / TWO_PI**4 if closes else 0.0)


def test_dense_nambu_validates_antisymmetry():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # no compensating permutations
    with pytest.raises(ValidationError):
        DenseNambuTensor(bad)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_lie_poisson_bracket_antisymmetry_and_nullity():
    grid = build_grid(5)
    rng = np.random.default_rng(3)
    field = random_shell_field(grid, seed=2, shell_max=8.0, amplitude=1.5)
    f1 = random_real_polynomial(grid, rng).as_functional("f1")
    f2 = random_real_polynomial(grid, rng).as_functional("f2")
    b12 = lie_poisson_bracket(grid, field, f1, f2)
    b21 = lie_poisson_bracket(grid, field, f2, f1)
    assert b12 == pytest.approx(-b21, rel=1e-11, abs=1e-14)
    assert lie_poisson_bracket(grid, field, f1, f1) == pytest.approx(0.0, abs=1e-13)


def test_enstrophy_poisson_commutes():
    grid = build_grid(7)
    rng = np.random.default_rng(4)
    e = enstrophy_functional(grid)
    h = hamiltonian_functional(grid)
    for seed in range(3):
        field = random_shell_field(grid, seed=seed, shell_max=9.0, amplitude=2.0)
        assert lie_poisson_bracket(grid, field, h, e) == pytest.approx(0.0, abs=1e-13)
        f = random_real_polynomial(grid, rng).as_functional()
        assert lie_poisson_bracket(grid, field, f, e) == pytest.approx(0.0, abs=1e-13)


def test_nambu_reduction_to_lie_poisson():
    # fixing the last slot to the enstrophy recovers the Poisson bracket
    grid = build_grid(5)
    rng = np.random.default_rng(5)
    e = enstrophy_functional(grid)
    for seed in range(3):
        field = random_shell_field(grid, seed=10 + seed, shell_max=8.0, amplitude=1.5)
        f1 = random_real_polynomial(grid, rng).as_functional("f1")
        f2 = random_real_polynomial(grid, rng).as_functional("f2")
        triple = nambu_bracket(grid, field, f1, f2, e)
        double = lie_poisson_bracket(grid, field, f1, f2)
        scale = max(abs(double), 1e-12)
        assert abs(triple - double) <= 1e-12 * scale


def test_nambu_bracket_total_antisymmetry():
    grid = build_grid(5)
    rng = np.random.default_rng(6)
    field = random_shell_field(grid, seed=20, shell_max=8.0, amplitude=1.5)
    fs = [random_real_polynomial(grid, rng).as_functional(f"f{i}") for i in range(3)]
    base = nambu_bracket(grid, field, fs[0], fs[1], fs[2])
    assert nambu_bracket(grid, field, fs[1], fs[0], fs[2]) == pytest.approx(-base, rel=1e-9, abs=1e-13)
    assert nambu_bracket(grid, field, fs[2], fs[1], fs[0]) == pytest.approx(-base, rel=1e-9, abs=1e-13)
    assert nambu_bracket(grid, field, fs[1], fs[2], fs[0]) == pytest.approx(base, rel=1e-9, abs=1e-13)


def test_brackets_refuse_a_field_without_conjugate_symmetry():
    grid = build_grid(5)
    rng = np.random.default_rng(0)
    field = ModeField(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    h, e = hamiltonian_functional(grid), enstrophy_functional(grid)
    f = random_real_polynomial(grid, rng).as_functional("f")
    flow = sine_algebra._lie_poisson_matrix(grid, field) @ f.gradient(field)
    assert (h.gradient(field) @ flow).imag != 0.0
    with pytest.raises(ValidationError, match="Lie-Poisson bracket .* is not real"):
        lie_poisson_bracket(grid, field, h, f)
    with pytest.raises(ValidationError, match="Nambu bracket .* is not real"):
        nambu_bracket(grid, field, h, f, e)


def _pair_brackets(grid, field, fs):
    # Reference: both brackets through the N x N pair matrices, with their summand mass.
    g = [f.gradient(field) for f in fs]
    lie = sine_algebra._lie_poisson_matrix(grid, field)
    nambu = sine_algebra._nambu_matrix(grid, g[2])
    return tuple(sine_algebra._bilinear_with_scale(m, g[0], g[1]) for m in (lie, nambu))


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_trace_brackets_match_the_pair_matrices(n):
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    shell_max = min(8.0, float(grid.half**2))
    h, e = hamiltonian_functional(grid), enstrophy_functional(grid)
    polys = [random_real_polynomial(grid, rng).as_functional(f"f{i}") for i in range(3)]
    for seed in range(2):
        field = random_shell_field(grid, seed=seed, shell_max=shell_max, amplitude=2.0)
        for fs in (polys, [h, polys[0], e], [polys[1], h, polys[2]]):
            (lie, lie_scale), (nambu, nambu_scale) = _pair_brackets(grid, field, fs)
            assert abs(lie_poisson_bracket(grid, field, fs[0], fs[1]) - lie) <= 1e-13 * lie_scale
            assert abs(nambu_bracket(grid, field, *fs) - nambu) <= 1e-13 * nambu_scale
    # i u for a real field u is not conjugate-symmetric, and it and the
    # gradients of H and E lift to anti-Hermitian matrices; beside a real
    # linear observable (an even number of factors i) the brackets are
    # real again, so the trace route returns a value to compare.
    field = ModeField(grid, 1j * random_shell_field(grid, seed=7).coeffs)
    linear = ModePolynomial.from_terms([(0.5 + 0.25j, [(1, 0)])]).with_conjugate()
    linear = linear.as_functional("l")
    for fs in ([linear, h, e], [h, linear, e]):
        (lie, lie_scale), (nambu, nambu_scale) = _pair_brackets(grid, field, fs)
        assert abs(lie) > 0.1 * lie_scale  # a value, not a cancellation to rounding
        assert abs(lie_poisson_bracket(grid, field, fs[0], fs[1]) - lie) <= 1e-13 * lie_scale
        assert abs(nambu_bracket(grid, field, *fs) - nambu) <= 1e-13 * nambu_scale


def test_trace_brackets_allocate_no_pair_matrix():
    # At n = 61 one N x N float64 array is 3720^2 * 8 B = 110.7 MB.
    grid = build_grid(61)
    field = random_shell_field(grid, seed=1, shell_max=40.0, amplitude=2.0)
    h, e = hamiltonian_functional(grid), enstrophy_functional(grid)
    f = random_real_polynomial(grid, np.random.default_rng(1)).as_functional("f")
    for bracket, slots in ((lie_poisson_bracket, (f, h)), (nambu_bracket, (f, h, e))):
        tracemalloc.start()
        try:
            bracket(grid, field, *slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


def test_pair_table_cache_is_bounded():
    for n in range(3, 21, 2):  # nine sizes
        sine_algebra._pair_tables(n)
    assert sine_algebra._pair_tables.cache_info().currsize <= 8


def test_support_bracket_matches_field_bracket():
    grid = build_grid(7)
    t = SineNambuTensor(grid)
    i, j = (1, 0), (0, 1)
    k = (1, 1)
    p1 = ModePolynomial.from_terms([(0.5 + 0.0j, [i])]).with_conjugate()
    p2 = ModePolynomial.from_terms([(0.5 + 0.0j, [j])]).with_conjugate()
    p3 = ModePolynomial.from_terms([(0.25 + 0.0j, [k, tuple(-c for c in k)])]).with_conjugate()
    field = random_shell_field(grid, seed=3, shell_max=4.0, amplitude=1.0)
    assignment = {v: field.get(v) for v in grid}
    sparse = support_nambu_bracket(t, p1, p2, p3, assignment)
    dense = nambu_bracket(grid, field, p1.as_functional(), p2.as_functional(), p3.as_functional())
    assert sparse.real == pytest.approx(dense, rel=1e-12, abs=1e-16)
    assert abs(sparse.imag) <= 1e-14 * max(1.0, abs(sparse.real))


# ---------------------------------------------------------------------------
# generalized Jacobi identity
# ---------------------------------------------------------------------------


def test_counterexample_summands_zeitlin():
    for n in (5, 7):
        t = SineNambuTensor(build_grid(n))
        t1, t2, t3 = gen_jacobi_terms(t, *KNOWN_JACOBI_VIOLATION)
        assert t1 == pytest.approx(COUNTEREXAMPLE_T1[n], rel=1e-13)
        assert t2 == 0.0
        assert t3 == 0.0
        assert gen_jacobi_residual(t, *KNOWN_JACOBI_VIOLATION) == t1


def test_counterexample_summands_continuum():
    t = ContinuumNambuTensor()
    t1, t2, t3 = gen_jacobi_terms(t, *KNOWN_JACOBI_VIOLATION)
    assert t1 == pytest.approx(COUNTEREXAMPLE_T1["continuum"], rel=1e-13)
    assert t2 == 0.0
    assert t3 == 0.0


@pytest.fixture(scope="module")
def scan5():
    return scan_gen_jacobi(SineNambuTensor(build_grid(5)))


def test_scan_finds_known_violation(scan5):
    assert len(scan5) > 0
    hits = [v for v in scan5 if v.indices == KNOWN_JACOBI_VIOLATION]
    assert len(hits) == 1
    assert hits[0].residual == pytest.approx(COUNTEREXAMPLE_T1[5], rel=1e-13)


def test_scan_deduplication_symmetry_factor(scan5):
    deduped = dedupe_violations(scan5)
    assert 0 < len(deduped) < len(scan5)
    # the relabeling group has order 12; the enumeration reaches each
    # class through the cyclings that keep a nonzero first summand
    assert len(scan5) % len(deduped) == 0


def test_scan_table_reads_as_violations(scan5):
    head = scan5[:50]
    assert isinstance(head, ViolationTable) and len(head) == 50
    assert list(head) == [scan5[r] for r in range(50)]
    assert scan5[-1] == list(scan5)[-1]
    row = scan5.find(KNOWN_JACOBI_VIOLATION)
    assert scan5[row].indices == KNOWN_JACOBI_VIOLATION
    assert head.find(KNOWN_JACOBI_VIOLATION) == (row if row < 50 else None)
    assert scan5.find((KNOWN_JACOBI_VIOLATION[0],) * 6) is None


def _reference_dedupe(violations):
    """Per-tuple oracle: the first row of each orbit, keyed by its smallest flattened image."""

    def flatten(members):
        return tuple(c for m in members for c in np.atleast_1d(m).tolist())

    seen, kept = set(), []
    for v in violations:
        key = min(flatten(image) for image in _violation_orbit(v.indices))
        if key not in seen:
            seen.add(key)
            kept.append(v)
    return kept


def _unique_dedupe(violations):
    """Array oracle: the six sorted-slot digits packed into one int64 key, first row per key."""
    place = len(violations.members) ** np.arange(5, -1, -1, dtype=np.int64)
    a = violations.triples[violations.first].astype(np.int64)
    b = violations.triples[violations.second].astype(np.int64)
    kpq = np.sort(np.stack([a[:, 2], b[:, 1], b[:, 2]], axis=1), axis=1)
    ij = np.sort(a[:, :2], axis=1)
    keys = np.stack([ij[:, 0], ij[:, 1], kpq[:, 0], b[:, 0], kpq[:, 1], kpq[:, 2]], axis=1) @ place
    _, kept = np.unique(keys, return_index=True)
    return violations[np.sort(kept)]


def _loose_table():
    """Triples that need not close, so no slot is fixed by the others."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 40, (2, 2000))
    return ViolationTable(range(5), rng.integers(0, 5, (40, 3)), *rows, rng.normal(size=2000))


def test_dedupe_matches_per_tuple_oracle(scan5):
    head = scan5[:20000]
    assert list(dedupe_violations(head)) == _reference_dedupe(head)
    su2 = scan_gen_jacobi(construct_generic(_levi_civita()).nambu)
    assert len(su2) == 36
    assert list(dedupe_violations(su2)) == _reference_dedupe(su2)
    continuum = scan_gen_jacobi_continuum(1)
    assert list(dedupe_violations(continuum)) == _reference_dedupe(continuum)
    loose = _loose_table()
    assert list(dedupe_violations(loose)) == _reference_dedupe(loose)


def test_dedupe_matches_the_unique_route_bitwise(scan5):
    for violations in (scan5, scan_gen_jacobi_continuum(2), _loose_table()):
        kept, oracle = dedupe_violations(violations), _unique_dedupe(violations)
        assert np.array_equal(kept.first, oracle.first)
        assert np.array_equal(kept.second, oracle.second)
        assert kept.residual.tobytes() == oracle.residual.tobytes()


def test_dedupe_keeps_first_rows_near_the_top_of_the_key_range():
    # With 1448 members the six-digit keys reach 1448**6 - 1, close to 2**63.
    # The first two orbits' keys differ by exactly 3 * 2**61, so packing a
    # key itself above the 3 row bits of an 8-row table wraps both to one
    # code, and the first row of the later orbit is lost; the third orbit
    # sits at the very top of the range
    triples = [
        [1425, 1434, 733], [447, 976, 1194],
        [339, 426, 421], [607, 740, 906],
        [1447, 1446, 1445], [1447, 1444, 1443],
    ]
    first, second = [2, 4, 0, 2, 0, 4, 0, 2], [3, 5, 1, 3, 1, 5, 1, 3]
    table = ViolationTable(range(1448), triples, first, second, np.arange(8.0))
    kept = _reference_dedupe(table)
    assert [v.residual for v in kept] == [0.0, 1.0, 2.0]
    assert list(dedupe_violations(table)) == kept


def test_dedupe_packing_edge_and_overflow():
    # (i, j, k, l, p, q) and its (j, i) swap share one orbit; with 1448
    # members the largest key is 1448**6 - 1, which still fits an int64
    top = 1447
    table = ViolationTable(
        range(1448), [[top, top - 1, top - 2], [top - 1, top, top - 2]], [0, 1], [0, 0], [1.0, -1.0]
    )
    assert list(dedupe_violations(table)) == [table[0]]
    with pytest.raises(ValueError):
        dedupe_violations(ViolationTable(range(1449), [[0, 1, 2]], [0], [0], [1.0]))


def test_scan_continuum_needs_bound():
    # the untruncated tensor has no finite index set: only the bounded scan takes it
    with pytest.raises(TypeError, match="ContinuumNambuTensor"):
        scan_gen_jacobi(ContinuumNambuTensor())
    with pytest.raises(ValueError, match="bound"):
        scan_gen_jacobi_continuum(0)
    violations = scan_gen_jacobi_continuum(1)
    assert any(v.indices == KNOWN_JACOBI_VIOLATION for v in violations)
    assert all(abs(v.residual) > 0 for v in violations)


def _continuum_scan_oracle(bound):
    """Every pair of closing box triples, one gen_jacobi_residual call each."""
    tensor = ContinuumNambuTensor()
    box = [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]
    box = [v for v in box if v != (0, 0)]
    triples = [
        (i, j, (-i[0] - j[0], -i[1] - j[1]))
        for i in box
        for j in box
        if i[0] * j[1] - i[1] * j[0] != 0
    ]
    max_entry = max(abs(tensor.entry(*t)) for t in triples)
    hits = []
    for first in triples:
        for second in triples:
            residual = gen_jacobi_residual(tensor, *first, *second)
            if abs(residual) > 1e-10 * max_entry**2:
                hits.append((first + second, residual))
    return hits


def test_scan_continuum_matches_per_pair_oracle():
    scan = scan_gen_jacobi_continuum(1)
    oracle = _continuum_scan_oracle(1)
    assert len(scan) == len(oracle) == 2032
    # same order, same wave vectors, bitwise-equal residuals
    assert list(scan) == oracle


def test_scan_continuum_bound_two_counts():
    scan = scan_gen_jacobi_continuum(2)
    assert len(scan) == 236128
    assert len(dedupe_violations(scan)) == 86888
    row = scan.find(KNOWN_JACOBI_VIOLATION)
    assert row is not None
    assert scan[row].residual == pytest.approx(COUNTEREXAMPLE_T1["continuum"], rel=1e-13)


def _table_sha256(violations):
    """sha256 over the bytes of triples, first, second and residual, in that order."""
    digest = hashlib.sha256()
    for column in (violations.triples, violations.first, violations.second, violations.residual):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def test_scan_n7_counts_and_tables_are_pinned():
    # sha256 of the little-endian int32 and float64 arrays: a faster scan
    # or dedupe must leave both tables bitwise equal
    scan = scan_gen_jacobi(SineNambuTensor(build_grid(7)))
    assert len(scan) == 3894912
    assert _table_sha256(scan) == (
        "13560c176772e5be48f8000372819edf1b6dbe161bfc44beaa40cc00d598da24"
    )
    kept = dedupe_violations(scan)
    assert len(kept) == 973728
    assert _table_sha256(kept) == (
        "7c4c802b39cffb6979ee5b0ad5add463516c668727f73e8e1b19aef4c3226901"
    )


def _dense_scan_closing(members, value, close, pairs):
    """Reference closing-triple kernel: all three summands as dense gathers and masks."""
    pair_i, pair_j = np.nonzero(pairs)
    pair_k = close[pair_i, pair_j]
    pair_val = value[pair_i, pair_j]
    n_pairs = len(pair_i)
    tol = 1e-10 * float(np.max(np.abs(pair_val))) ** 2

    first, second, residuals = [], [], []
    chunk = max(1, 1_000_000 // n_pairs)
    for start in range(0, n_pairs, chunk):
        sl = slice(start, start + chunk)
        k_c = pair_k[sl][:, None]
        val_c = pair_val[sl][:, None]
        t1 = val_c * pair_val[None, :]
        # second summand: q must equal k, and p must close (l, k)
        nlk = value[pair_i[None, :], k_c]
        mask2 = (pair_k[None, :] == k_c) & (close[pair_i[None, :], k_c] == pair_j[None, :])
        t2 = np.where(mask2, val_c * nlk, 0.0)
        # third summand: p must equal k, and k must close (l, q)
        nlq = value[pair_i, pair_k][None, :]
        mask3 = (pair_j[None, :] == k_c) & (close[pair_i, pair_k][None, :] == k_c)
        t3 = np.where(mask3, val_c * nlq, 0.0)
        residual = t1 + t2 + t3
        hit_rows, hit_cols = np.nonzero(np.abs(residual) > tol)
        first.append((start + hit_rows).astype(np.int32))
        second.append(hit_cols.astype(np.int32))
        residuals.append(residual[hit_rows, hit_cols])

    return ViolationTable(
        members,
        np.stack([pair_i, pair_j, pair_k], axis=1),
        np.concatenate(first),
        np.concatenate(second),
        np.concatenate(residuals),
    )


def test_scan_kernel_matches_the_dense_oracle_bitwise(scan5, monkeypatch):
    # the sparse second and third summands give the same hits, in the same
    # order, with bitwise-equal residuals
    scans = [scan5, scan_gen_jacobi_continuum(2)]
    monkeypatch.setattr(sine_algebra, "_scan_closing", _dense_scan_closing)
    oracles = [scan_gen_jacobi(SineNambuTensor(build_grid(5))), scan_gen_jacobi_continuum(2)]
    for scan, oracle in zip(scans, oracles):
        assert np.array_equal(scan.triples, oracle.triples)
        assert np.array_equal(scan.first, oracle.first)
        assert np.array_equal(scan.second, oracle.second)
        assert scan.residual.tobytes() == oracle.residual.tobytes()


def test_scan_zero_tensor_is_empty():
    assert scan_gen_jacobi(DenseNambuTensor(np.zeros((4, 4, 4)))) == []


def test_dense_scan_refuses_dimension_13():
    with pytest.raises(ValueError, match="limited to dimension 12, got 13"):
        scan_gen_jacobi(DenseNambuTensor(np.zeros((13, 13, 13))))


# ---------------------------------------------------------------------------
# generic construction
# ---------------------------------------------------------------------------


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for a, b, c, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (0, 2, 1, -1), (2, 1, 0, -1)]:
        eps[a, b, c] = s
    return eps


def test_su2_killing_and_nambu():
    eps = _levi_civita()
    algebra = construct_generic(eps)
    assert np.array_equal(algebra.killing.matrix, -2.0 * np.eye(3))
    assert np.array_equal(algebra.nambu.array, -2.0 * eps)
    assert dense_total_antisymmetry_residual(algebra.nambu.array) == 0.0
    # C(z) = 1/2 z K^{-1} z = -|z|^2 / 4
    z = np.array([1.0, -2.0, 0.5])
    assert algebra.casimir(z) == pytest.approx(-0.25 * float(z @ z), rel=1e-14)


def test_su2_scaling_divides_tensor():
    eps = _levi_civita()
    algebra = construct_generic(eps, scaling=2.0)
    assert np.array_equal(algebra.nambu.array, -1.0 * eps)


def test_su2_tensor_violates_pointwise_identity():
    # The canonical su(2) triple bracket satisfies the functional
    # consistency law, but the pointwise three-term combination used by
    # the scan is strictly stronger and fails: at (0,1,2,2,0,1) the
    # first summand is eps_{012} eps_{201} = 1 with the other two zero.
    algebra = construct_generic(_levi_civita())
    t1, t2, t3 = gen_jacobi_terms(algebra.nambu, 0, 1, 2, 2, 0, 1)
    assert t1 == 4.0  # (-2)^2
    assert t2 == 0.0 and t3 == 0.0
    violations = scan_gen_jacobi(algebra.nambu)
    assert len(violations) == 36


def test_generic_zeitlin_cross_check():
    # dense constants of the n=3 truncation through the generic pipeline
    n = 3
    grid = build_grid(n)
    dense = alpha_zeitlin_dense(grid)
    algebra = construct_generic(dense, scaling=casimir_scale(n))
    t = SineNambuTensor(grid)
    for ai, i in enumerate(grid):
        for bj, j in enumerate(grid):
            for ck, k in enumerate(grid):
                assert algebra.nambu.array[ai, bj, ck] == pytest.approx(
                    t.entry(tuple(i), tuple(j), tuple(k)), abs=1e-16, rel=1e-12
                )


def test_generic_rejects_bad_constants():
    eps = _levi_civita()
    broken = eps.copy()
    broken[0, 1, 2] = -1.0  # single sign flip
    with pytest.raises(ValidationError, match="not antisymmetric"):
        construct_generic(broken)
    # antisymmetric but violating the Jacobi identity
    rng = np.random.default_rng(0)
    arb = rng.normal(size=(4, 4, 4))
    arb = arb - arb.transpose(1, 0, 2)
    with pytest.raises(ValidationError, match="Jacobi"):
        construct_generic(arb)
    with pytest.raises(ValueError, match="scaling must be nonzero"):
        construct_generic(eps, scaling=0.0)
    with pytest.raises(ValueError, match="cubic array"):
        construct_generic(np.zeros((3, 3, 4)))
    with pytest.raises(ValueError, match="exceeds the generic cap 128"):
        construct_generic(np.zeros((129, 129, 129)))


def test_fault_injection_single_sign_flip_detected():
    grid = build_grid(5)
    dense = alpha_zeitlin_dense(grid)
    rng = np.random.default_rng(13)
    nz = np.argwhere(dense != 0.0)
    for _ in range(5):
        a, b, c = nz[rng.integers(len(nz))]
        corrupted = dense.copy()
        corrupted[a, b, c] *= -1.0
        assert (
            dense_antisymmetry_residual(corrupted) > 1e-6
            or dense_jacobi_residual(corrupted) > 1e-6
        )
