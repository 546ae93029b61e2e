"""Differentiable observables of the mode coefficients.

A functional here is a scalar map of the coefficient vector together with
its mode gradient dF/dzeta_hat(k).  All built-in functionals are polynomial
in the coefficients (never in their conjugates), so the gradient is the
ordinary complex derivative and can be checked against central finite
differences with a real step.  Real-valued observables on
conjugate-symmetric fields are obtained by adding to each monomial its
mirror (conjugated coefficient, negated wave vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .grid import ModeField, TruncationGrid, WaveVector, _as_wave_vector


class Functional:
    """Scalar observable with an explicit gradient in mode space."""

    def __init__(
        self,
        value_fn: Callable[[ModeField], complex],
        gradient_fn: Callable[[ModeField], np.ndarray],
        name: str = "functional",
    ):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.name = name

    def value_complex(self, field: ModeField) -> complex:
        return complex(self._value_fn(field))

    def gradient(self, field: ModeField) -> np.ndarray:
        g = np.asarray(self._gradient_fn(field), dtype=np.complex128)
        if g.shape != (field.grid.size,):
            raise ValueError(
                f"gradient of {self.name!r} has shape {g.shape}, expected ({field.grid.size},)"
            )
        return g

    def __repr__(self) -> str:
        return f"Functional({self.name!r})"


Monomial = tuple[complex, tuple[WaveVector, ...]]


@dataclass(frozen=True)
class ModePolynomial:
    """Polynomial in the mode coefficients, sum of c * prod_s zeta_hat(k_s).

    Evaluable both on a :class:`ModeField` and on a plain mapping from wave
    vectors to coefficients; the latter makes the same observable usable on
    the untruncated mode ladder, where no finite grid exists.
    """

    terms: tuple[Monomial, ...]

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[complex, Sequence]]) -> "ModePolynomial":
        normalized = tuple(
            (complex(c), tuple(_as_wave_vector(v) for v in vs)) for c, vs in terms
        )
        return cls(normalized)

    def support(self) -> tuple[WaveVector, ...]:
        """Wave vectors the gradient can touch, in first-appearance order."""
        seen: dict[WaveVector, None] = {}
        for _, vs in self.terms:
            for v in vs:
                seen.setdefault(v)
        return tuple(seen)

    def with_conjugate(self) -> "ModePolynomial":
        """Append the mirror of every monomial; real on reality fields."""
        mirrored = tuple(
            (np.conj(c), tuple(-v for v in vs)) for c, vs in self.terms
        )
        return ModePolynomial(self.terms + mirrored)

    # -- evaluation ---------------------------------------------------------

    def value_map(self, lookup: Mapping[WaveVector, complex]) -> complex:
        total = 0.0 + 0.0j
        for c, vs in self.terms:
            prod = c
            for v in vs:
                prod *= lookup.get(v, 0.0)
            total += prod
        return total

    def gradient_map(self, lookup: Mapping[WaveVector, complex]) -> dict[WaveVector, complex]:
        grad: dict[WaveVector, complex] = {}
        for c, vs in self.terms:
            for s, v in enumerate(vs):
                prod = c
                for t, w in enumerate(vs):
                    if t != s:
                        prod *= lookup.get(w, 0.0)
                grad[v] = grad.get(v, 0.0) + prod
        return grad

    def _lookup(self, field: ModeField) -> dict[WaveVector, complex]:
        """The field's coefficients on the support; off-grid raises ValueError."""
        return {v: field.coeffs[field.grid.index_of(v)] for v in self.support()}

    def value(self, field: ModeField) -> complex:
        return self.value_map(self._lookup(field))

    def gradient(self, field: ModeField) -> np.ndarray:
        grid = field.grid
        out = np.zeros(grid.size, dtype=np.complex128)
        for v, g in self.gradient_map(self._lookup(field)).items():
            out[grid.index_of(v)] = g
        return out

    def as_functional(self, name: str = "polynomial") -> Functional:
        return Functional(self.value, self.gradient, name=name)


def random_real_polynomial(grid: TruncationGrid, rng: np.random.Generator) -> ModePolynomial:
    """Random polynomial observable, real-valued on reality fields.

    Three monomials of degree 1 to 3 draw wave vectors with components in
    [-b, b], b = min(2, (n-1)/2), and complex Gaussian coefficients; the
    mirror of every monomial is appended.  Deterministic for a given
    generator state.
    """
    b = min(2, grid.half)
    terms = []
    for _ in range(3):
        degree = int(rng.integers(1, 4))
        vs = []
        while len(vs) < degree:
            cand = WaveVector(int(rng.integers(-b, b + 1)), int(rng.integers(-b, b + 1)))
            if cand != (0, 0):
                vs.append(cand)
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((coeff, tuple(vs)))
    return ModePolynomial(tuple(terms)).with_conjugate()
