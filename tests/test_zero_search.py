"""The genus-1 zero search against the subdivision search.

``elliptic_zeros`` seeds an elliptic Aberth polish from contour moments of
h'/h (``_moment_zeros``), one admissible contour after another, and raises
``ContourClashError`` when no contour yields every zero.  The reference is
the argument-principle subdivision search in ``oracles``: both must find the
same zero set, and the search may fail only where the zeros are not
determined to its tolerance.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from hurwitztau import cover1, elliptic
from hurwitztau.elliptic import (
    Modulus,
    WeierstrassContext,
    elliptic_zeros,
    lattice_distance,
    wp,
    zeta_w,
)
from hurwitztau.errors import ContourClashError, HurwitzError
from hurwitztau.samples import builtin_example, random_covering1

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)
PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,), (4, 1), (4, 2), (5, 1)]


def _search_args(cov):
    """(context, hd, pole divisor) of the search for the zeros of p'."""
    def hd(z):
        return cover1.eval_p_derivs(cov, z, 2)[1:]

    return cov.ctx, hd, [(p.b, p.order + 1) for p in cov.poles]


class _OverBudget(Exception):
    """The reference search spent its ``hd`` call budget."""


def _budgeted(hd, calls: int):
    """``hd`` that raises ``_OverBudget`` after ``calls`` calls.

    Below Im sigma ~ 0.2 the subdivision search can take tens of thousands of
    calls (seconds) on one covering; such examples are skipped, not waited for.
    """
    left = [calls]

    def counted(z):
        left[0] -= 1
        if left[0] < 0:
            raise _OverBudget
        return hd(z)

    return counted


def _reference(mod, hd, poles):
    """The subdivision search's zeros, or an unsatisfied assumption when it has none."""
    try:
        return oracles._subdivision_zeros(mod, _budgeted(hd, 2000), poles)
    except (HurwitzError, _OverBudget):  # no reference for this covering
        assume(False)


def _assert_same_zeros(got, want, hd, poles, sigma) -> None:
    """Each zero of either set lies within its tolerance of one of the other.

    The tolerance is 1e-10, widened by ``oracles.round_off_spread`` where h
    is too flat to fix a zero that well.
    """
    assert len(got) == len(want)
    for one, other in ((got, want), (want, got)):
        for z, spread in zip(one, oracles.round_off_spread(one, hd, poles, sigma)):
            gap = min(lattice_distance(z - y, sigma) for y in other)
            assert gap <= 1e-10 + spread, (z, gap)


def _moved(profile, seed, sigma):
    """``random_covering1(profile, seed)`` moved to ``sigma``."""
    return cover1.set_param(random_covering1(profile, seed), "modulus", sigma)


@st.composite
def coverings(draw, thin=st.one_of(st.floats(0.11, 0.4), st.floats(0.8, 1.5))):
    """Sampled coverings moved to a drawn modulus, thin (Im sigma in (0.11, 0.4)) or not."""
    profile = draw(st.sampled_from(PROFILES))
    seed = draw(st.integers(0, 10_000))
    sigma = complex(draw(st.floats(-0.5, 0.5)), draw(thin))
    try:
        return _moved(profile, seed, sigma)
    except (HurwitzError, RuntimeError, ValueError):  # no sample, or poles clash on this lattice
        assume(False)


class TestGaussLegendre:
    def test_rule_is_exact_to_degree_63(self):
        t, w = elliptic._gauss_legendre()
        assert len(t) == elliptic.GAUSS_NODES == 32
        assert ((t > 0) & (t < 1)).all() and (w > 0).all()
        for k in range(64):
            assert abs(np.sum(w * t**k) - 1.0 / (k + 1)) < 1e-15


class TestMomentStage:
    @SETTINGS
    @given(coverings())
    def test_agrees_with_subdivision(self, cov):
        ctx, hd, poles = _search_args(cov)
        want = _reference(ctx.modulus, hd, poles)
        sigma = ctx.modulus.sigma
        for corner, poles_uv in islice(elliptic._contour_corners(poles, sigma), 3):
            got = elliptic._moment_zeros(hd, ctx, corner, poles, poles_uv)
            if got is not None:
                _assert_same_zeros(got, want, hd, poles, sigma)
        try:
            got = elliptic_zeros(ctx, hd, poles)
        except ContourClashError:  # only on the thin branch of the drawn moduli
            assert sigma.imag < 0.4
            oracles.assert_not_determined(want, hd, poles, sigma)
        else:
            _assert_same_zeros(got, want, hd, poles, sigma)

    @SETTINGS
    @given(coverings(thin=st.floats(0.11, 0.2)))
    @example(_moved((3, 1), 1355, 0.003767238927799066 + 0.12160506158282378j))
    @example(_moved((4,), 6810, -0.01644975782895375 + 0.14599177092649795j))
    def test_fails_only_where_a_zero_is_not_determined(self, cov):
        ctx, hd, poles = _search_args(cov)
        mod = ctx.modulus
        try:
            elliptic_zeros(ctx, hd, poles)
        except ContourClashError:
            oracles.assert_not_determined(_reference(mod, hd, poles), hd, poles, mod.sigma)

    @pytest.mark.parametrize("name,cov", [
        ("h12", builtin_example("h12")),
        ("g1(2,1)", random_covering1((2, 1), 2025)),
        ("g1(1,1,1)", random_covering1((1, 1, 1), 7)),
        ("g1(4)", random_covering1((4,), 3)),
        ("g1(5,1)", random_covering1((5, 1), 1000)),
    ])
    def test_one_contour_call_and_a_short_polish(self, name, cov):
        ctx, hd, poles = _search_args(cov)
        calls = []
        elliptic_zeros(ctx, lambda z: calls.append(len(z)) or hd(z), poles)
        # the moment quadrature on two edges, then one Aberth step per call
        assert calls[0] == 2 * elliptic.GAUSS_NODES
        assert len(calls) <= 12


class TestAberth:
    @pytest.mark.parametrize("profile,seed", [((2, 1), 2025), ((1, 1, 1), 7), ((4, 2), 1003)])
    def test_log_derivative_is_the_zeta_sum(self, profile, seed):
        # h'/h = sum_j zeta(w - a_j) - sum_k m_k zeta(w - b_k) + eta(S) for any
        # representatives: S = p + q sigma and eta(S) = p 2c + q (2c sigma - 2 pi i)
        cov = random_covering1(profile, seed)
        ctx, hd, poles = _search_args(cov)
        sigma = ctx.modulus.sigma
        zeros = np.array(elliptic_zeros(ctx, hd, poles))
        zeros += np.arange(len(zeros)) % 3 - 1 + (np.arange(len(zeros)) % 2) * sigma
        c2 = 2.0 * ctx.calib_sigma
        p, q = (round(x) for x in elliptic.cell_coords(
            zeros.sum() - sum(m * b for b, m in poles), sigma))
        for w in (0.37 + 0.21 * sigma, 0.83 + 0.66 * sigma):
            h, dh = hd(np.array([w]))
            want = sum(zeta_w(ctx, w - a) for a in zeros) - sum(
                m * zeta_w(ctx, w - b) for b, m in poles) + p * c2 + q * (c2 * sigma - 2j * np.pi)
            assert abs(dh[0] / h[0] - want) < 1e-9 * max(1.0, abs(want))

    def test_lanes_that_start_on_one_zero_part(self):
        # two lanes seeded next to the same zero: Newton merges them, Aberth
        # repels one of them onto the zero that no lane was seeded near
        cov = random_covering1((2, 1), 2025)
        ctx, hd, poles = _search_args(cov)
        sigma = ctx.modulus.sigma
        zeros = np.array(elliptic_zeros(ctx, hd, poles))
        seeds = zeros + 0.02 * np.exp(1j * np.arange(len(zeros)))
        seeds[1] = zeros[0] - 0.02
        tol = elliptic._newton_tol(sigma)
        newton, _ = elliptic.newton_lanes(hd, seeds, tol, 0.5, 20)
        assert lattice_distance(newton[1] - newton[0], sigma) < 1e-10
        zs, ok = elliptic._aberth_lanes(hd, ctx, seeds, poles, tol)
        assert ok.all()
        _assert_same_zeros(zs.tolist(), zeros.tolist(), hd, poles, sigma)


class TestFailure:
    def test_double_zero_raises_after_every_contour(self, monkeypatch):
        # wp - e1 has a double zero at 1/2: its two lanes meet, so no contour
        # gives two distinct zeros, and each contour costs a bounded number of calls
        mod = Modulus(0.3 + 1.1j)
        ctx = WeierstrassContext.create(mod)
        e1 = wp(ctx, 0.5)
        calls = []
        hd = lambda u: calls.append(len(u)) or (wp(ctx, u) - e1, wp(ctx, u, 1))
        tried = []
        real = elliptic._moment_zeros

        def recorded(*args):
            tried.append(args[2])
            return real(*args)

        monkeypatch.setattr(elliptic, "_moment_zeros", recorded)
        poles = [(0.0, 2)]
        with pytest.raises(ContourClashError):
            elliptic_zeros(ctx, hd, poles)
        corners = [corner for corner, _ in elliptic._contour_corners(poles, mod.sigma)]
        assert tried == corners and len(corners) == len(elliptic._OFFSETS) == 20
        assert len(calls) <= len(corners) * (1 + elliptic.ABERTH_STEPS)
