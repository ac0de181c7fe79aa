"""Complex polynomials.

Evaluation with derivatives (Horner), simultaneous root finding
(Aberth-Ehrlich) and Sylvester resultants of stacked coefficient rows.
Everything is plain double-precision complex; no exact arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonConvergenceError

__all__ = ["CPoly", "RootSet", "all_roots", "resultant", "log_resultant"]

ABERTH_MAX_ITER = 400


@dataclass(frozen=True)
class CPoly:
    """Polynomial with complex coefficients, lowest degree first.

    Normalized so the stored leading coefficient is non-zero unless the
    polynomial is identically zero (represented by the single coefficient 0).
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            cs = (0j,)
        end = len(cs)
        while end > 1 and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_derivatives(self, z: complex, n: int) -> list[complex]:
        """Return [p(z), p'(z), ..., p^(n)(z)] by Horner's scheme."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        z = complex(z)
        # b[j] accumulates p^(j)(z)/j!
        b = [0j] * (n + 1)
        for c in reversed(self.coeffs):
            for j in range(n, 0, -1):
                b[j] = b[j] * z + b[j - 1]
            b[0] = b[0] * z + c
        fact = 1.0
        out = []
        for j in range(n + 1):
            out.append(b[j] * fact)
            fact *= j + 1
        return out


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial, with the worst residual |p(root)|."""

    roots: tuple[complex, ...]
    residual: float


def all_roots(p: CPoly) -> RootSet:
    """All roots of ``p`` (with multiplicity) by simultaneous iteration.

    Aberth-Ehrlich from a scaled circle of initial guesses until every step
    is below 1e-14 * (1 + |z|).  There |p(root)| is already at round-off, so
    no separate polish follows.  Root clusters from nearly multiple roots are
    kept as-is; detecting them is the caller's business.

    Raises ``NonConvergenceError`` for a coefficient that is not finite, and
    when the iteration stalls or two iterates coincide, which signals an
    ill-conditioned instance that the caller may perturb.
    """
    n = p.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    if not all(map(cmath.isfinite, p.coeffs)):
        raise NonConvergenceError("a coefficient is not finite")
    coeff_scale = max(abs(c) for c in p.coeffs)
    if coeff_scale == 0:
        raise ValueError("zero polynomial has no well-defined root set")

    # Cauchy bound for the root radius; slightly irrational angle offset so
    # symmetric polynomials do not start in an unstable configuration.
    radius = 1.0 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.leading)
    zs = [0.8 * radius * cmath.exp(2j * math.pi * (k + 0.354) / n + 0.41j) for k in range(n)]
    # Python complex arithmetic with p and p' by inline Horner: at a handful
    # of roots per iteration, numpy's per-call overhead and the general
    # eval_derivatives cost more than the arithmetic
    high_first = p.coeffs[::-1]
    for _ in range(ABERTH_MAX_ITER):
        new_zs, converged = [], True
        for i, z in enumerate(zs):
            val = der = 0j
            for c in high_first:
                der = der * z + val
                val = val * z + c
            s = 0
            try:
                for j, other in enumerate(zs):
                    if j != i:
                        s += 1.0 / (z - other)
            except ZeroDivisionError:
                raise NonConvergenceError("two root iterates coincide") from None
            if der != 0:
                w = val / der
                denom = 1.0 - w * s
                step = w / denom if denom != 0 else w
            elif s != 0:
                step = -1.0 / s  # the Aberth step 1/(p'/p - s) at p' = 0
            else:
                raise NonConvergenceError("p' and the Aberth sum vanish together")
            z = z - step
            new_zs.append(z)
            converged = converged and abs(step) < 1e-14 * (1.0 + abs(z))
        zs = new_zs
        if converged:
            break
    else:
        resid = max(abs(p(z)) for z in zs)
        if resid > 1e-8 * coeff_scale * max(1.0, max(abs(z) for z in zs)) ** n:
            raise NonConvergenceError(
                f"root iteration stalled, residual {resid:.3e}"
            )

    return RootSet(roots=tuple(zs), residual=max(abs(p(z)) for z in zs))


def _shifted(coeffs: Sequence[complex], z0: complex) -> list[complex]:
    """Coefficients of p(w + z0), highest degree first, by repeated synthetic division."""
    c = list(coeffs[::-1])
    for i in range(len(c) - 1, 0, -1):
        acc = c[0]
        for j in range(1, i + 1):
            acc = c[j] = c[j] + z0 * acc
    return c


@functools.cache
def _sylvester_slots(m: int, n: int) -> np.ndarray:
    """Flat positions in the Sylvester matrix of n rows of f's m + 1 coefficients, then m of g's."""
    size = m + n
    return np.array([r * size + r + j for r in range(n) for j in range(m + 1)]
                    + [(n + r) * size + r + j for r in range(m) for j in range(n + 1)])


def _sylvester(fs, gs) -> np.ndarray:
    """Sylvester matrices of the row pairs of ``fs``, ``gs`` (coefficients, lowest degree first).

    The origin moves to the mean root of f.  A common translation of both
    polynomials leaves their resultant as it is; centred coefficients are
    smaller, and so is the determinant's round-off (by several digits for
    degrees near 12 with roots off 0).
    """
    fs, gs = np.asarray(fs, dtype=complex).tolist(), np.asarray(gs, dtype=complex).tolist()
    m, n = len(fs[0]) - 1, len(gs[0]) - 1
    rows = []
    for f, g in zip(fs, gs):
        z0 = -f[-2] / (m * f[-1])
        rows.append(_shifted(f, z0) * n + _shifted(g, z0) * m)
    mat = np.zeros((len(fs), (m + n) ** 2), dtype=complex)
    mat[:, _sylvester_slots(m, n)] = rows
    return mat.reshape(len(fs), m + n, m + n)


def resultant(fs, gs) -> np.ndarray:
    """Sylvester resultant R(f, g) of each row pair of ``fs``, ``gs``.

    Rows are coefficients, lowest degree first, leading one non-zero; f has
    degree >= 1 and g any degree.  Convention: R(f, g) = lc(f)^deg(g) *
    prod g(root_i(f)).  One stacked determinant by pivoted elimination,
    independent of any root finding.
    """
    return np.linalg.det(_sylvester(fs, gs))


def log_resultant(fs, gs) -> np.ndarray:
    """log R(f, g) (principal imaginary part) of each row pair, from one stacked ``slogdet``.

    The real part is ``-inf`` where the resultant vanishes exactly; useful
    for scale-robust ratios along parameter sweeps.
    """
    signs, logabs = np.linalg.slogdet(_sylvester(fs, gs))
    return np.array([complex(-math.inf, 0.0) if s == 0 else complex(v) + cmath.log(s)
                     for s, v in zip(signs.tolist(), logabs.tolist())])
