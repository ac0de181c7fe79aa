"""Deterministic generators for covering instances.

Every randomized instance in the test suite and the CLI derives from a
named generator here plus an integer seed, so runs are reproducible.
Generated instances keep a safety margin from the boundary (separated
poles, order-one top tails) and from the caustic (resampled if critical
values nearly collide).
"""

from __future__ import annotations

import numpy as np

from .cover0 import Covering0, Pole, critical_data as critical_data0
from .cover1 import Covering1, critical_data as critical_data1
from .elliptic import Modulus
from .errors import HurwitzError

__all__ = ["random_covering0", "random_covering1", "builtin_example"]

MAX_TRIES = 60


def _cnum(rng: np.random.Generator, scale: float = 1.0) -> complex:
    return complex(rng.normal(0.0, scale), rng.normal(0.0, scale))


def _unit_band(rng: np.random.Generator, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return complex(mag * np.cos(ang), mag * np.sin(ang))


def random_covering0(
    profile: tuple[int, ...], seed: int | np.random.Generator, min_gap: float = 0.05
) -> Covering0:
    """Generic genus-0 instance: poles separated by > 0.8, order-one tails.

    Instances whose critical values come closer than ``min_gap`` (relative)
    are resampled, so that every instance stays clear of the caustic.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k1 = profile[0]
    for _ in range(MAX_TRIES):
        coeffs = tuple(_cnum(rng, 0.7) for _ in range(k1 - 1))
        poles = []
        positions: list[complex] = []
        for k in profile[1:]:
            for _ in range(MAX_TRIES):
                b = _cnum(rng, 1.2)
                if all(abs(b - q) > 0.8 for q in positions):
                    break
            positions.append(b)
            tails = tuple(_cnum(rng, 0.4) for _ in range(k - 1)) + (
                _unit_band(rng, 0.5, 1.4),
            )
            poles.append(Pole(b, tails))
        cov = Covering0(tuple(profile), coeffs, tuple(poles))
        try:
            cd = critical_data0(cov)
        except (HurwitzError, ValueError):
            continue
        scale = max(abs(v) for v in cd.lam) + 1.0
        if cd.min_lambda_gap > min_gap * scale:
            return cov
    raise RuntimeError(f"could not sample a generic covering for profile {profile}")


def random_covering1(
    profile: tuple[int, ...], seed: int | np.random.Generator, min_gap: float = 0.04
) -> Covering1:
    """Generic genus-1 instance on a random modulus with Im in [0.8, 1.5].

    Residues are balanced to satisfy ellipticity; a final generic complex
    nudge avoids the symmetric configurations where critical points sit at
    special lattice points.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    l = len(profile)
    for _ in range(MAX_TRIES):
        sigma = complex(rng.uniform(-0.25, 0.25), rng.uniform(0.8, 1.5))
        mod = Modulus(sigma)
        a = _cnum(rng, 0.5)
        us = rng.uniform(0.12, 0.88, size=l)
        vs = rng.uniform(0.12, 0.88, size=l)
        positions = [complex(u) + complex(v) * sigma for u, v in zip(us, vs)]
        if any(
            abs((positions[i] - positions[j]).real) + abs((positions[i] - positions[j]).imag) < 0.25
            for i in range(l)
            for j in range(i + 1, l)
        ):
            continue
        residues = [_unit_band(rng, 0.4, 1.0) for _ in range(l)]
        residues[-1] = -sum(residues[:-1]) if l > 1 else 0j
        if l > 1 and abs(residues[-1]) < 0.1:
            continue
        poles = []
        degenerate = False
        for k, b, r in zip(profile, positions, residues):
            mids = tuple(_cnum(rng, 0.3) for _ in range(max(k - 2, 0)))
            if k == 1:
                tails: tuple[complex, ...] = (r,)
            else:
                tails = (r,) + mids + (_unit_band(rng, 0.5, 1.2),)
            if abs(tails[-1]) < 1e-3:
                degenerate = True
            poles.append(Pole(b, tails))
        if degenerate:
            continue
        try:
            cov = Covering1(mod, a, tuple(poles))
            cd = critical_data1(cov)
        except (HurwitzError, ValueError):
            continue
        scale = max(abs(v) for v in cd.lam) + 1.0
        if cd.min_lambda_gap > min_gap * scale:
            return cov
    raise RuntimeError(f"could not sample a generic covering for profile {profile}")


def builtin_example(name: str, seed: int = 42) -> Covering0 | Covering1:
    """Named example coverings used by the CLI and the test suite.

    a2       cubic polynomial covering z^3 - 3z (two critical values -2, 2)
    h0_surf  genus 0, profile (2, 2), a fixed generic instance from ``seed``
    h12      genus 1, profile (2,): one double pole, the order-2 family
    """
    if name == "a2":
        return Covering0((3,), (0.0, -3.0), ())
    if name == "h0_surf":
        return random_covering0((2, 2), seed)
    if name == "h12":
        return Covering1(
            Modulus(1.1j),
            0.0,
            (Pole(0.23 + 0.31j, (0.0, 1.0 + 0.05j)),),
        )
    raise KeyError(f"unknown example {name!r}")
