"""Named, repeatable identity checks with measured residuals.

Each check evaluates one algebraic identity of the truncated vorticity
bracket (or one of its companion studies) and reports the largest
residual relative to the largest-magnitude term entering the identity,
so pass criteria are scale free across truncation sizes.  Failures are
reported, never thrown.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    KNOWN_JACOBI_VIOLATION,
    ContinuumNambuTensor,
    SineNambuTensor,
    ViolationTable,
    _lie_poisson_matrix,
    _masked_gather,
    _nambu_matrix,
    _orthogonality_sum,
    _pair_tables,
    alpha_continuum,
    alpha_zeitlin,
    dedupe_violations,
    gen_jacobi_terms,
    killing_bruteforce,
    killing_closed,
    killing_diagonal,
    scan_gen_jacobi,
    sine_table,
    support_nambu_bracket,
)
from .dynamics import (
    enstrophy_functional,
    hamiltonian_functional,
    lift,
    lower,
    random_shell_field,
    rhs_fast,
    rhs_from_lie_poisson,
    rhs_nambu,
    rhs_naive,
)
from .functionals import ModePolynomial, random_real_polynomial
from .grid import TWO_PI, TruncationGrid, WaveVector, _as_wave_vector, build_grid

__all__ = [
    "CheckReport",
    "IDENTITY_CHECKS",
    "check_request",
    "run_identity_suite",
    "run_counterexample",
    "run_convergence_study",
    "run_jacobi_scan",
    "gen_jacobi_residual_known",
    "format_reports",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: what ran, how large the defect, verdict."""

    name: str
    params: dict
    max_residual: float
    tolerance: float
    passed: bool
    runtime_s: float

    def to_dict(self) -> dict:
        """The report as JSON values; a non-finite residual, which fails its check, is None."""
        d = asdict(self)
        if not math.isfinite(self.max_residual):
            d["max_residual"] = None
        return d


def _report(
    name: str, params: dict, residual: float, tolerance: float, started: float
) -> CheckReport:
    return CheckReport(
        name=name,
        params=params,
        max_residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        runtime_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# the eight identity checks
# ---------------------------------------------------------------------------


def _nanmax(*values: float) -> float:
    """max(values), except that a NaN among them gives NaN.

    The builtin keeps its running value when it compares a NaN, so a NaN
    residual folded with max() would drop out and its check would pass.
    """
    return math.nan if any(v != v for v in values) else max(values)


def _table_antisymmetry_residual(grid: TruncationGrid) -> float:
    s = _pair_tables(grid.n).sin_cross
    return float(np.max(np.abs(s + s.T))) / float(np.max(np.abs(s)))


def _table_jacobi_residual(grid: TruncationGrid) -> float:
    """max |sum of the three adjoint products| / max |single product|.

    The deltas force the free upper index, so the identity is a scan over
    triples (a, i, j) of s[a, i] s[w[a, i], j] plus its two cyclic rotations.
    Residue tables (:func:`_are_residue_tables`) hold s[x, y] = S[x×y mod n]
    and x×y is bilinear, so with p = a×i, q = i×j, r = j×a each such sum is
    J(p, q, r) of :func:`_residue_cube_max`, the same products in the same
    order: the cube's max bounds the scan's from above, bit for bit.  A sum
    a + i on the origin reads row 0, but p = 0 and S[0] = 0.0 zero the term
    up to a sign, which abs() removes.  Other tables: :func:`_jacobi_orbit_max`.

    Every term is some s[x, y] * s[w[x, y], z], so the largest single
    product is max(|s| * rowmax(|s|)[w]), computed once: |x y| = |x| |y|
    in floating point and rounding is monotone, so this equals the
    per-term maximum bit for bit.
    """
    t = _pair_tables(grid.n)
    s = t.sin_cross
    w = np.clip(t.wrap_index, 0, None)  # sums wrapping onto the origin carry sine 0
    worst = _residue_cube_max(grid.n) if _are_residue_tables(grid, t) else _jacobi_orbit_max(s, w)
    abs_s = np.abs(s)
    term_scale = float(np.max(np.multiply(abs_s, abs_s.max(axis=1)[w], out=abs_s)))
    return worst / term_scale if term_scale else 0.0


def _are_residue_tables(grid: TruncationGrid, t) -> bool:
    """Whether t holds S[x×y mod n] and the index of (x + y) mod n; False on a NaN."""
    v, m, n = grid.vectors, grid.half, grid.n
    cross = np.multiply.outer(v[:, 0], v[:, 1]) - np.multiply.outer(v[:, 1], v[:, 0])
    if not np.array_equal(t.sin_cross, np.take(sine_table(n), cross, mode="wrap")):
        return False
    flat = np.add.outer(v[:, 0] + m, v[:, 0]) % n * n + np.add.outer(v[:, 1] + m, v[:, 1]) % n
    return np.array_equal(t.wrap_index, np.take(grid.offset_table, flat))


def _residue_cube_max(n: int) -> float:
    """max |J| over residues p, q, r mod n, J = (S[p] S[q−r] + S[q] S[r−p]) + S[r] S[p−q]."""
    S = sine_table(n)
    p, q, r = np.ogrid[:n, :n, :n]
    total = (S[p] * S[(q - r) % n] + S[q] * S[(r - p) % n]) + S[r] * S[(p - q) % n]
    return float(np.max(np.abs(total)))


def _jacobi_orbit_max(s: np.ndarray, w: np.ndarray) -> float:
    """max over triples (a, i, j) of |J|, J the sum of the three products

        s[a, i] s[w[a, i], j] + s[i, j] s[w[i, j], a] + s[j, a] s[w[j, a], i]

    formed as (t1 + t2) + t3, for an (N, N) table s and an in-range (N, N)
    index table w; NaN if any J is NaN.

    A cyclic rotation of (a, i, j) sums the same three products, so each
    orbit is scanned once, from its smallest index: row a covers the block
    i >= a, j >= a, about N^3/3 triples in all.  Neither s = -s^T nor a
    symmetric w is assumed.  Each J is formed bit for bit as a scan of
    every rotation forms it at row a, so the result is one of that scan's
    values: no larger, and smaller by at most the rounding spread between
    rotations.
    """
    worst = 0.0
    for a in range(len(s)):
        t1 = s[a, a:, None] * s[w[a, a:], a:]  # s[a, i] s[w[a, i], j]
        t2 = s[a:, a:] * s[w[a:, a:], a]  # s[i, j] s[w[i, j], a]
        t3 = s[a:, a, None] * s[w[a:, a], a:]  # s[j, a] s[w[j, a], i] at [j, i]
        worst = _nanmax(worst, float(np.max(np.abs(t1 + t2 + t3.T))))
    return worst


def _killing_residual(grid: TruncationGrid) -> float:
    brute = killing_bruteforce(grid)
    return float(np.max(np.abs(brute - killing_closed(grid)))) / abs(killing_diagonal(grid.n))


def _orthogonality_residual(grid: TruncationGrid) -> float:
    """Worst defect of sum_k cos((2pi/n) k.l); terms are unit scale.

    Includes the off-grid witnesses that wrap to the origin, where the
    sum must jump from -1 to n^2 - 1.
    """
    n = grid.n
    witnesses = np.vstack([grid.vectors, [(0, 0), (n, 0), (0, n), (n, n)]])
    totals, expected = _orthogonality_sum(grid, witnesses)
    return _nanmax(*np.abs(totals - expected))


def _right_products(matrix: np.ndarray, right: Sequence[np.ndarray]) -> list[tuple]:
    """(M @ g, |M| @ |g|) for each right-hand gradient g, |M| formed once.

    A left gradient h then gives the bilinear h.M.g as h @ (M @ g) and its
    summand mass as |h| @ (|M| @ |g|), the products and the order of the
    per-pair oracle ``bilinear_with_scale`` in ``tests/oracles.py``, so each
    value and scale is bitwise its own.
    """
    abs_matrix = np.abs(matrix)
    return [(matrix @ g, abs_matrix @ np.abs(g)) for g in right]


def _casimir_residual(grid: TruncationGrid, rng: np.random.Generator) -> float:
    """{F, E} must vanish for every F: the enstrophy generates no motion."""
    e = enstrophy_functional(grid)
    shell_max = min(8.0, float(grid.half**2))
    fields = [
        random_shell_field(grid, seed=int(rng.integers(2**31)), shell_max=shell_max, amplitude=2.0)
        for _ in range(2)
    ]
    observables = [hamiltonian_functional(grid)] + [
        random_real_polynomial(grid, rng).as_functional() for _ in range(2)
    ]
    worst = 0.0
    for field in fields:
        ((flow, mass),) = _right_products(_lie_poisson_matrix(grid, field), [e.gradient(field)])
        for f in observables:
            g = f.gradient(field)
            value, scale = complex(g @ flow), float(np.abs(g) @ mass)
            worst = _nanmax(worst, abs(value) / max(scale, 1e-300))
    return worst


def _reduction_residual(grid: TruncationGrid, rng: np.random.Generator) -> float:
    """{F1, F2, E} with the Nambu tensor equals the Lie-Poisson {F1, F2}.

    F1 runs over the first two functionals of the pool and F2 over the
    last three; each field's pool gradients are evaluated once.
    """
    e = enstrophy_functional(grid)
    pool = [hamiltonian_functional(grid)] + [
        random_real_polynomial(grid, rng).as_functional() for _ in range(3)
    ]
    shell_max = min(8.0, float(grid.half**2))
    worst = 0.0
    for _ in range(2):
        field = random_shell_field(
            grid, seed=int(rng.integers(2**31)), shell_max=shell_max, amplitude=2.0
        )
        grads = [f.gradient(field) for f in pool]
        lp = _right_products(_lie_poisson_matrix(grid, field), grads[1:])
        nm = _right_products(_nambu_matrix(grid, e.gradient(field)), grads[1:])
        for g1 in grads[:2]:
            abs_g1 = np.abs(g1)
            for (nm_g2, nm_mass), (lp_g2, lp_mass) in zip(nm, lp):
                v_n, s_n = complex(g1 @ nm_g2), float(abs_g1 @ nm_mass)
                v_l, s_l = complex(g1 @ lp_g2), float(abs_g1 @ lp_mass)
                worst = _nanmax(worst, abs(v_n - v_l) / max(s_n, s_l, 1e-300))
    return worst


def _nambu_antisymmetry_residual(grid: TruncationGrid) -> float:
    """Swap and cyclic relabelings checked exactly on the tables.

    The closing index is delta-determined, so the swap (i, j) and the
    cycle (i, j, k) -> (k, i, j) generate all of S3 with signs; both
    reduce to identities between entries of the pair table.
    """
    t = _pair_tables(grid.n)
    s, nw = t.sin_cross, t.neg_wrap_index
    swap = float(np.max(np.abs(s + s.T)))
    padded = np.vstack((s, np.zeros(len(s))))  # row -1 reads 0.0
    cycled = padded[nw, np.arange(len(s))[:, None]]  # N_kij read back at k = -(i+j)
    cyclic = float(np.max(np.abs(cycled - np.where(nw >= 0, s, 0.0))))
    return _nanmax(swap, cyclic) / float(np.max(np.abs(s)))


def _rhs_equivalence_residual(grid: TruncationGrid, rng: np.random.Generator) -> float:
    field = random_shell_field(
        grid,
        seed=int(rng.integers(2**31)),
        shell_max=min(8.0, 2.0 * grid.half**2),
        amplitude=3.0,
    )
    routes = [
        rhs_naive(grid, field).coeffs,
        rhs_nambu(grid, field).coeffs,
        rhs_from_lie_poisson(grid, field).coeffs,
        lower(rhs_fast(grid, lift(field))).coeffs,
    ]
    # cancellation scale of the double sum, not the (possibly tiny) result
    t = _pair_tables(grid.n)
    gathered = np.abs(_masked_gather(field.coeffs, t.wrap_index))
    inv_lap = np.abs(field.coeffs[grid.neg_index]) / grid.norms2
    scale = (grid.n / TWO_PI) * float(np.max((np.abs(t.sin_cross) * gathered) @ inv_lap))
    worst = 0.0
    for a in range(len(routes)):
        for b in range(a + 1, len(routes)):
            worst = _nanmax(worst, float(np.max(np.abs(routes[a] - routes[b]))))
    return worst / max(scale, 1e-300)


# The eight structural checks in dependency order: name, tolerance, and the
# residual as a function of (grid, rng), rng being the check's own generator.
# Each lambda looks its helper up as a module global when it runs, so a
# patched helper (as the benchmark's span tracer installs) is the one called.
IDENTITY_CHECKS = (
    ("alpha-antisymmetry", 1e-15, lambda grid, rng: _table_antisymmetry_residual(grid)),
    ("jacobi-identity", 1e-12, lambda grid, rng: _table_jacobi_residual(grid)),
    ("killing-form", 1e-12, lambda grid, rng: _killing_residual(grid)),
    ("orthogonality", 1e-11, lambda grid, rng: _orthogonality_residual(grid)),
    ("casimir-commutes", 1e-12, lambda grid, rng: _casimir_residual(grid, rng)),
    ("nambu-reduction", 1e-12, lambda grid, rng: _reduction_residual(grid, rng)),
    ("nambu-antisymmetry", 1e-15, lambda grid, rng: _nambu_antisymmetry_residual(grid)),
    ("rhs-equivalence", 1e-10, lambda grid, rng: _rhs_equivalence_residual(grid, rng)),
)


def check_request(
    n: int, seed: int = 0, only: str | None = None, counterexample: bool = False
) -> None:
    """Raise the ValueError that :func:`run_identity_suite` or, with ``counterexample``,
    :func:`run_counterexample` raises for these arguments, before any work is done."""
    if counterexample and n < COUNTEREXAMPLE_MIN_N:
        raise ValueError(f"counterexample evaluation needs n >= {COUNTEREXAMPLE_MIN_N}, got {n}")
    build_grid(n)  # odd n in [3, MAX_TRUNCATION]
    if counterexample:
        return
    if n > 15:
        raise ValueError(f"identity suite is capped at n = 15, got {n}")
    names = [check[0] for check in IDENTITY_CHECKS]
    if only is not None and only not in names:
        raise ValueError(f"unknown check {only!r}; one of: {', '.join(names)}")
    if seed < 0:  # the checks' generators take non-negative seeds only
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def run_identity_suite(n: int, seed: int = 0, only: str | None = None) -> list[CheckReport]:
    """The eight structural checks of :data:`IDENTITY_CHECKS`, in order.

    With ``only``, that check alone runs.  Each check draws from its own
    ``np.random.default_rng([seed, *name.encode()])``, whatever else runs.
    """
    check_request(n, seed, only)
    grid = build_grid(n)
    reports = []
    for name, tolerance, residual in IDENTITY_CHECKS:
        if only in (None, name):
            started = time.perf_counter()
            value = residual(grid, np.random.default_rng([seed, *name.encode()]))
            reports.append(_report(name, {"n": n, "seed": seed}, value, tolerance, started))
    return reports


# ---------------------------------------------------------------------------
# counterexample, convergence study, violation scan
# ---------------------------------------------------------------------------


#: Smallest n on which the counterexample is evaluated; ``verify --all`` skips it below.
COUNTEREXAMPLE_MIN_N = 5


def run_counterexample(n: int) -> CheckReport:
    """Evaluate the six-index tuple that breaks the generalized identity.

    For both the truncated and the untruncated tensor the first summand
    must be nonzero while the other two vanish exactly; the reported
    residual is the worst spurious summand (inf when a first summand
    degenerates to zero or NaN, so the check fails in that direction too).
    """
    check_request(n, counterexample=True)
    grid = build_grid(n)
    tup = KNOWN_JACOBI_VIOLATION
    started = time.perf_counter()
    summands = {
        "zeitlin": gen_jacobi_terms(SineNambuTensor(grid), *tup),
        "continuum": gen_jacobi_terms(ContinuumNambuTensor(), *tup),
    }
    residual = 0.0
    for terms in summands.values():
        if not abs(terms[0]) > 0.0:
            residual = math.inf
        residual = _nanmax(residual, abs(terms[1]), abs(terms[2]))
    params = {
        "n": n,
        "tuple": [list(v) for v in tup],
        "zeitlin_summands": list(summands["zeitlin"]),
        "continuum_summands": list(summands["continuum"]),
    }
    return _report("jacobi-counterexample", params, residual, 0.0, started)


def _fixed_polynomials(
    i: WaveVector, j: WaveVector
) -> tuple[ModePolynomial, ModePolynomial, ModePolynomial]:
    """Two linear modes and a quadratic whose gradient closes the triad.

    The tensor's delta demands a + b + c = 0 over the gradient supports,
    so the third observable lives on the pair's sum.
    """
    k = i + j
    p1 = ModePolynomial.from_terms([(0.5 + 0.0j, [i])]).with_conjugate()
    p2 = ModePolynomial.from_terms([(0.5 + 0.0j, [j])]).with_conjugate()
    p3 = ModePolynomial.from_terms([(0.25 + 0.0j, [k, -k])]).with_conjugate()
    return p1, p2, p3


#: Seed of the mode values on which :func:`run_convergence_study` evaluates its brackets.
CONVERGENCE_SEED = 7


def _fixed_assignment(support: Sequence[WaveVector]) -> Mapping[WaveVector, complex]:
    rng = np.random.default_rng(CONVERGENCE_SEED)
    out: dict[WaveVector, complex] = {}
    for v in sorted(set(support)):
        if v in out:
            continue
        z = complex(rng.normal(), rng.normal())
        out[v] = z
        out[-v] = z.conjugate()
    return out


def run_convergence_study(
    pairs: Sequence[tuple],
    n_list: Sequence[int] = (11, 21, 41, 81),
) -> CheckReport:
    """Decay of the truncation error in the structure constants.

    For each non-collinear pair (i, j) the study tabulates
    |alpha_n(i, j, i+j) - alpha_inf(i, j, i+j)| across n and fits the
    decay exponent by log-log regression; collinear pairs have error
    identically zero and are excluded from the fit.  The study also
    evaluates the truncated and untruncated Nambu brackets on fixed
    low-order polynomials in the pair's modes (the same mode-derivative
    convention on both sides) and tabulates the difference; that
    comparison carries no acceptance band.  Passes iff every fitted
    exponent lies in [1.8, 2.2].  ``n_list`` needs two distinct sizes.
    """
    if not pairs:
        raise ValueError("need at least one wave-vector pair")
    grids = {grid.n: grid for grid in map(build_grid, n_list)}
    if len(grids) < 2:
        raise ValueError(f"need two distinct truncation sizes to fit a rate, got {list(n_list)}")
    n_list = sorted(grids)
    started = time.perf_counter()
    smallest = grids[n_list[0]]
    continuum = ContinuumNambuTensor()

    rows = []
    exponents = []
    for raw_i, raw_j in pairs:
        i, j = _as_wave_vector(raw_i), _as_wave_vector(raw_j)
        k = i + j
        for v in (i, j, k):
            if not smallest.contains(v):
                raise ValueError(
                    f"pair ({tuple(i)}, {tuple(j)}) leaves the smallest grid n={smallest.n}"
                )
        p1, p2, p3 = _fixed_polynomials(i, j)
        support = list(p1.support()) + list(p2.support()) + list(p3.support())
        assignment = _fixed_assignment(support)
        reference = support_nambu_bracket(continuum, p1, p2, p3, assignment)
        errors: dict[int, float] = {}
        bracket_diffs: dict[int, float] = {}
        for n in n_list:
            g = grids[n]
            errors[n] = float(
                abs(alpha_zeitlin(g, tuple(i), tuple(j), tuple(k)) - alpha_continuum(i, j, k))
            )
            discrete = support_nambu_bracket(SineNambuTensor(g), p1, p2, p3, assignment)
            bracket_diffs[n] = float(abs(discrete - reference))
        collinear = i.cross(j) == 0
        if collinear:
            exponent = None
        else:
            slope = np.polyfit(
                np.log(np.array(n_list, dtype=np.float64)),
                np.log(np.array([errors[n] for n in n_list])),
                1,
            )[0]
            exponent = float(-slope)
            exponents.append(exponent)
        rows.append(
            {
                "pair": [list(i), list(j)],
                "collinear": collinear,
                "errors": {str(n): errors[n] for n in n_list},
                "bracket_diffs": {str(n): bracket_diffs[n] for n in n_list},
                "exponent": exponent,
            }
        )

    if exponents:
        residual = _nanmax(*(abs(e - 2.0) for e in exponents))
    else:
        residual = math.inf  # nothing to fit: only collinear pairs supplied
    params = {"n_list": list(n_list), "pairs": rows, "seed": CONVERGENCE_SEED}
    return _report("alpha-convergence", params, residual, 0.2, started)


def run_jacobi_scan(n: int) -> tuple[CheckReport, ViolationTable]:
    """Exhaustive violation scan of the generalized Jacobi identity.

    Enumerates every tuple whose delta factors close, deduplicates under
    the 12-element relabeling symmetry of the residual, and passes iff
    violations exist and the known six-index tuple is among them with
    its closed-form residual value.  ``params["stage_s"]`` holds the
    seconds of the scan and of the deduplication.
    """
    if n not in (5, 7):
        raise ValueError(f"exhaustive scan is sized for n in {{5, 7}}, got {n}")
    started = time.perf_counter()
    grid = build_grid(n)
    violations = scan_gen_jacobi(SineNambuTensor(grid))
    scanned = time.perf_counter()
    deduped = dedupe_violations(violations)
    stage_s = {"scan": scanned - started, "dedupe": time.perf_counter() - scanned}
    expected = gen_jacobi_residual_known(n)
    row = violations.find(KNOWN_JACOBI_VIOLATION)
    if row is None:
        measured, residual = None, math.inf
    else:
        measured = float(violations.residual[row])
        residual = abs(measured - expected) / abs(expected)
    params = {
        "n": n,
        "violations_raw": len(violations),
        "violations_deduplicated": len(deduped),
        "known_tuple_residual": measured,
        "known_tuple_expected": expected,
        "stage_s": stage_s,
    }
    return _report("jacobi-scan", params, residual, 1e-12, started), violations


def gen_jacobi_residual_known(n: int) -> float:
    """Closed form of the scan's anchor residual on the truncation.

    ((n/2pi) sin(2pi/n))^2 / (2pi)^8: the single surviving summand of
    the known tuple, whose two cross products are both unity.
    """
    two_pi = 2.0 * math.pi
    return ((n / two_pi) * math.sin(two_pi / n)) ** 2 / two_pi**8


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def format_reports(reports: Sequence[CheckReport]) -> str:
    """Fixed-width text table, one row per check."""
    header = f"{'check':<22} {'max residual':>14} {'tolerance':>11} {'verdict':>7} {'time':>9}"
    lines = [header, "-" * len(header)]
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<22} {r.max_residual:>14.3e} {r.tolerance:>11.1e} "
            f"{verdict:>7} {r.runtime_s:>8.2f}s"
        )
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return "\n".join(lines)
