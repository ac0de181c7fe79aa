"""Exact invariances of the genus-1 pipeline (metamorphic oracles, no finite differences).

* T-move: sigma -> sigma + 1 spans the same lattice, so p is the same
  function; only the period cell, and with it the zero search's contour, is
  sheared.  (A pole that the new cell represents by b + omega, omega a
  period, shifts zeta(z - b) by a constant; the constant term takes it back.)
  lambda and H do not move, and log eta(sigma) shifts by i pi/12, which
  route A passes on to log tau and G as -i pi/12.
* S-move: sigma -> sigma' = -1/sigma maps the lattice L = Z + sigma Z to
  L/sigma = Z + sigma' Z, and zeta^(alpha-1)(sigma u; L) =
  sigma^(-alpha) zeta^(alpha-1)(u; L/sigma).  So b -> b/sigma and
  c_{i,alpha} -> sigma^(-alpha) c_{i,alpha}, with the constant kept, give
  the covering p'(u) = p(sigma u): the critical values do not move, the
  critical points go to z/sigma, f^2 goes to f^2/sigma^2, and
  eta(sigma') = sqrt(-i sigma) eta(sigma).  With Im sigma' drawn in
  [0.15, 0.5] the image lives on a thin cell.
* lambda-shift: a0 -> a0 + c adds c to p, so every critical value moves by
  c and the Hamiltonians, tau (both routes) and G do not move.  At genus 1
  a0 is the constant term; at genus 0 it is ``poly_coeffs.0``, the constant
  of the polynomial part (profiles with k_1 >= 2 have one).
"""

import cmath
import math

import numpy as np
import oracles
from oracles import zeta_w
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurwitztau import cover0, cover1, isomon
from hurwitztau.cover0 import Pole
from hurwitztau.cover1 import Covering1, tau_resultant
from hurwitztau.elliptic import Modulus, lattice_distance, log_dedekind_eta
from hurwitztau.errors import ContourClashError, HurwitzError
from hurwitztau.samples import random_covering0, random_covering1

SETTINGS = settings(max_examples=10, deadline=None, database=None, derandomize=True)
PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,), (4, 1)]
# genus 0: profile[0] >= 2, so the polynomial part has a constant term a0
PROFILES0 = [(2,), (3,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (4,), (4, 1), (2, 4), (4, 2)]
_coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def _sample(profile, seed, sampler=random_covering1):
    try:
        return sampler(profile, seed)
    except RuntimeError:  # the sampler found no generic instance
        assume(False)


def _by_lambda(an):
    """(lambda, H) pairs of an analysis in lambda order."""
    lam = an.critical.lam
    order = sorted(range(len(lam)), key=lambda i: (round(lam[i].real, 8), lam[i].imag))
    return np.array([lam[i] for i in order]), np.array([an.iso.hamiltonians[i] for i in order])


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1.0)


class TestTMove:
    @SETTINGS
    @given(st.sampled_from(PROFILES), st.integers(0, 10_000))
    def test_same_lattice_same_numbers(self, profile, seed):
        cov = _sample(profile, seed)
        moved = Covering1(Modulus(cov.modulus.sigma + 1.0), cov.constant, cov.poles)
        drift = sum(q.c[0] * (zeta_w(cov.ctx, -q.b) - zeta_w(cov.ctx, -p.b))
                    for p, q in zip(cov.poles, moved.poles))
        moved = Covering1(moved.modulus, cov.constant - drift, moved.poles)
        an, an_t = isomon.analyze(cov), isomon.analyze(moved)
        lam, h = _by_lambda(an)
        lam_t, h_t = _by_lambda(an_t)
        assert _rel(lam_t, lam) < 1e-12
        assert _rel(h_t, h) < 1e-12
        shift = log_dedekind_eta(moved.modulus) - log_dedekind_eta(cov.modulus)
        assert abs(shift - 1j * math.pi / 12.0) < 1e-12
        # route A: log tau = -log eta + ..., G = -log eta - ...
        assert abs(an_t.tau.log_tau - an.tau.log_tau + 1j * math.pi / 12.0) < 1e-12
        assert abs(an_t.tau.G - an.tau.G + 1j * math.pi / 12.0) < 1e-12


def _s_moved(cov: Covering1) -> Covering1:
    """``cov`` under sigma -> -1/sigma: the covering u -> p(sigma u) on Z + (-1/sigma) Z."""
    sigma = cov.modulus.sigma
    poles = tuple(Pole(p.b / sigma, tuple(c * sigma ** -(a + 1) for a, c in enumerate(p.c)))
                  for p in cov.poles)
    return Covering1(Modulus(-1.0 / sigma), cov.constant, poles)


def _p_prime(cov: Covering1):
    """(hd, pole divisor, sigma) of the zero search for the zeros of p'."""
    return (lambda z: cover1.eval_p_derivs(cov, z, 2)[1:],
            [(p.b, p.order + 1) for p in cov.poles], cov.modulus.sigma)


def _nearest(values, targets, distance=np.abs) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and distance to, the nearest target of each value."""
    gaps = distance(np.subtract.outer(np.asarray(values), np.asarray(targets)))
    return gaps.argmin(axis=1), gaps.min(axis=1)


class TestSMove:
    @SETTINGS
    @given(st.sampled_from(PROFILES), st.integers(0, 10_000),
           st.floats(-0.5, 0.5), st.floats(0.15, 0.5))
    def test_critical_data_and_eta(self, profile, seed, re, im):
        sigma = -1.0 / complex(re, im)  # the image modulus -1/sigma is re + i im
        try:
            cov = cover1.set_param(_sample(profile, seed), "modulus", sigma)
            cd = cover1.critical_data(cov)
        except HurwitzError:  # poles clash on this lattice, or a degenerate instance
            assume(False)
        moved = _s_moved(cov)
        sigma_s = moved.modulus.sigma
        want = np.array(cd.pts) / sigma
        try:
            cd_s = cover1.critical_data(moved)
        except ContourClashError:  # allowed only where a zero is not determined to the tolerance
            oracles.assert_not_determined(want, *_p_prime(moved))
            return
        # round-off moves a zero of p' by up to oracles.round_off_spread in either frame
        slack = 1e-10 + oracles.round_off_spread(want, *_p_prime(moved))
        slack += oracles.round_off_spread(cd.pts, *_p_prime(cov)) / abs(sigma)
        # the same critical values, at the points z/sigma
        lam, lam_s = np.array(cd.lam), np.array(cd_s.lam)
        scale = max(1.0, float(np.abs(lam).max()))
        assert _nearest(lam, lam_s)[1].max() < 1e-10 * scale
        assert _nearest(lam_s, lam)[1].max() < 1e-10 * scale
        match, gaps = _nearest(want, cd_s.pts, lambda d: lattice_distance(d, sigma_s))
        assert (gaps <= slack).all()
        assert sorted(match) == list(range(len(match)))
        # f^2 = 2/p'': a point off by dz moves it by |p'''/p''| dz, relative, and
        # the round-off of p'' is 10 eps S'' / |p''|, S'' the size of p'' on the contour
        d = cover1.eval_p_derivs(moved, want, 3)
        hd, poles, _ = _p_prime(moved)
        size = np.abs(hd(oracles.first_contour(poles, sigma_s))[1]).max()
        bound = 1e-10 + (10 * np.finfo(float).eps * size + np.abs(d[3]) * slack) / np.abs(d[2])
        fsq, fsq_s = np.array(cd.fsq) / sigma**2, np.array(cd_s.fsq)[match]
        assert (np.abs(fsq_s / fsq - 1.0) <= bound).all()
        # eta(-1/sigma) = sqrt(-i sigma) eta(sigma)
        shift = log_dedekind_eta(moved.modulus) - log_dedekind_eta(cov.modulus)
        shift -= 0.5 * cmath.log(-1j * sigma)
        assert abs(shift - 2j * math.pi * round(shift.imag / (2 * math.pi))) < 1e-12


class TestLambdaShift:
    @SETTINGS
    @given(st.sampled_from(PROFILES), st.integers(0, 10_000), _coord, _coord)
    def test_values_shift_everything_else_stays(self, profile, seed, re, im):
        cov = _sample(profile, seed)
        c = complex(re, im)
        shifted = Covering1(cov.modulus, cov.constant + c, cov.poles)
        an, an_s = isomon.analyze(cov), isomon.analyze(shifted)
        # p' is unchanged, so the search returns the same points in the same order
        assert an_s.critical.pts == an.critical.pts
        lam, lam_s = np.array(an.critical.lam), np.array(an_s.critical.lam)
        assert _rel(lam_s - c, lam) < 1e-12
        h = np.array(an.iso.hamiltonians)
        h_s = np.array(an_s.iso.hamiltonians)
        assert _rel(h_s, h) < 1e-12
        assert abs(an_s.tau.log_tau - an.tau.log_tau) < 1e-12
        assert abs(an_s.tau.G - an.tau.G) < 1e-12
        tb = tau_resultant([cov], [an.critical])[0]
        tb_s = tau_resultant([shifted], [an_s.critical])[0]
        assert abs(cmath.exp(tb_s.log_tau_inv48 - tb.log_tau_inv48) - 1.0) < 1e-12


class TestLambdaShiftGenus0:
    @SETTINGS
    @given(st.sampled_from(PROFILES0), st.integers(0, 10_000), _coord, _coord)
    @example((4, 1), 7, 1.5, -0.5)  # order-4 pole at infinity
    @example((2, 4), 3, -2.0, 2.0)  # finite order-4 pole
    def test_values_shift_everything_else_stays(self, profile, seed, re, im):
        cov = _sample(profile, seed, random_covering0)
        c = complex(re, im)
        shifted = cover0.set_param(cov, "poly_coeffs.0", cov.poly_coeffs[0] + c)
        an, an_s = isomon.analyze(cov), isomon.analyze(shifted)
        # p' is unchanged, so the root solve returns the same points in the same order
        assert an_s.critical.pts == an.critical.pts
        lam, lam_s = np.array(an.critical.lam), np.array(an_s.critical.lam)
        assert _rel(lam_s - c, lam) < 1e-12
        h = np.array(an.iso.hamiltonians)
        h_s = np.array(an_s.iso.hamiltonians)
        assert _rel(h_s, h) < 1e-12
        assert abs(an_s.tau.log_tau - an.tau.log_tau) < 1e-12
        assert abs(an_s.tau.G - an.tau.G) < 1e-12
        tb = cover0.tau_resultant([cov], [an.critical])[0]
        tb_s = cover0.tau_resultant([shifted], [an_s.critical])[0]
        assert abs(cmath.exp(tb_s.log_tau_inv48 - tb.log_tau_inv48) - 1.0) < 1e-12
