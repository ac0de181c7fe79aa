"""Exact invariances of the genus-1 pipeline (metamorphic oracles, no finite differences).

* T-move: sigma -> sigma + 1 spans the same lattice, so p is the same
  function; only the period cell, and with it the zero search's contour, is
  sheared.  (A pole that the new cell represents by b + omega, omega a
  period, shifts zeta(z - b) by a constant; the constant term takes it back.)
  lambda and H do not move, and log eta(sigma) shifts by i pi/12, which
  route A passes on to log tau and G as -i pi/12.
* lambda-shift: a0 -> a0 + c adds c to p, so every critical value moves by
  c and the Hamiltonians, tau (both routes) and G do not move.  At genus 1
  a0 is the constant term; at genus 0 it is ``poly_coeffs.0``, the constant
  of the polynomial part (profiles with k_1 >= 2 have one).
"""

import cmath
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurwitztau import cover0, isomon
from hurwitztau.cover1 import Covering1, tau_resultant
from hurwitztau.elliptic import Modulus, log_dedekind_eta, zeta_w
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


def _by_lambda(an, iso):
    """(lambda, H) pairs in lambda order."""
    order = sorted(range(len(an.lam)), key=lambda i: (round(an.lam[i].real, 8), an.lam[i].imag))
    return np.array([an.lam[i] for i in order]), np.array([iso.hamiltonians[i] for i in order])


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
        lam, h = _by_lambda(an, isomon.build_isomonodromy(cov, an))
        lam_t, h_t = _by_lambda(an_t, isomon.build_isomonodromy(moved, an_t))
        assert _rel(lam_t, lam) < 1e-12
        assert _rel(h_t, h) < 1e-12
        shift = log_dedekind_eta(moved.modulus) - log_dedekind_eta(cov.modulus)
        assert abs(shift - 1j * math.pi / 12.0) < 1e-12
        # route A: log tau = -log eta + ..., G = -log eta - ...
        assert abs(an_t.tau.log_tau - an.tau.log_tau + 1j * math.pi / 12.0) < 1e-12
        assert abs(an_t.tau.G - an.tau.G + 1j * math.pi / 12.0) < 1e-12


class TestLambdaShift:
    @SETTINGS
    @given(st.sampled_from(PROFILES), st.integers(0, 10_000), _coord, _coord)
    def test_values_shift_everything_else_stays(self, profile, seed, re, im):
        cov = _sample(profile, seed)
        c = complex(re, im)
        shifted = Covering1(cov.modulus, cov.constant + c, cov.poles)
        an, an_s = isomon.analyze(cov), isomon.analyze(shifted)
        # p' is unchanged, so the search returns the same points in the same order
        assert an_s.pts == an.pts
        lam, lam_s = np.array(an.lam), np.array(an_s.lam)
        assert _rel(lam_s - c, lam) < 1e-12
        h = np.array(isomon.build_isomonodromy(cov, an).hamiltonians)
        h_s = np.array(isomon.build_isomonodromy(shifted, an_s).hamiltonians)
        assert _rel(h_s, h) < 1e-12
        assert abs(an_s.tau.log_tau - an.tau.log_tau) < 1e-12
        assert abs(an_s.tau.G - an.tau.G) < 1e-12
        tb, tb_s = tau_resultant(cov, an.critical), tau_resultant(shifted, an_s.critical)
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
        assert an_s.pts == an.pts
        lam, lam_s = np.array(an.lam), np.array(an_s.lam)
        assert _rel(lam_s - c, lam) < 1e-12
        h = np.array(isomon.build_isomonodromy(cov, an).hamiltonians)
        h_s = np.array(isomon.build_isomonodromy(shifted, an_s).hamiltonians)
        assert _rel(h_s, h) < 1e-12
        assert abs(an_s.tau.log_tau - an.tau.log_tau) < 1e-12
        assert abs(an_s.tau.G - an.tau.G) < 1e-12
        tb = cover0.tau_resultant(cov, an.critical)
        tb_s = cover0.tau_resultant(shifted, an_s.critical)
        assert abs(cmath.exp(tb_s.log_tau_inv48 - tb.log_tau_inv48) - 1.0) < 1e-12
