"""The genus-1 zero search: moment stage against the subdivision search.

``elliptic_zeros`` first seeds Newton from contour moments of h'/h
(``_moment_zeros``, on at most ``MOMENT_CORNERS`` contours) and only falls
back to the argument-principle subdivision (``_subdivision_zeros``) when no
moment attempt yields every zero.  Both must find the same zero set.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitztau import cover1, elliptic
from hurwitztau.elliptic import (
    Modulus,
    WeierstrassContext,
    elliptic_zeros,
    lattice_distance,
    wp,
)
from hurwitztau.errors import HurwitzError
from hurwitztau.samples import builtin_example, random_covering1

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)
PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,), (4, 1)]


def _search_args(cov):
    """(modulus, hd, pole divisor) of the search for the zeros of p'."""
    def hd(z):
        return cover1.eval_p_derivs(cov, z, 2)[1:]

    return cov.modulus, hd, [(p.b, p.order + 1) for p in cov.poles]


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


def _assert_same_zeros(got, want, hd, poles, sigma) -> None:
    """Each zero of either set lies within its tolerance of one of the other.

    The tolerance is 1e-10, widened where h is too flat to fix a zero that
    well: a round-off of 10 eps S in h, S the size of h on the edges of the
    first contour, moves a zero by 10 eps S / |h'(z)|.  Far from the poles
    of a thin cell (Im sigma near 0.1) |h'| can fall to 1e-4 of S.
    """
    assert len(got) == len(want)
    corner, _ = next(elliptic._contour_corners(poles, sigma))
    t, _ = elliptic._gauss_legendre()
    size = np.abs(hd(np.concatenate([corner + t, corner + t * sigma]))[0]).max()
    for one, other in ((got, want), (want, got)):
        slope = np.abs(hd(np.array(one))[1])
        for z, d in zip(one, slope):
            gap = min(lattice_distance(z - y, sigma) for y in other)
            assert gap <= 1e-10 + 10 * np.finfo(float).eps * size / d, (z, gap)


@st.composite
def coverings(draw):
    """Sampled coverings moved to a drawn modulus, thin (Im sigma in (0.11, 0.4)) or not."""
    profile = draw(st.sampled_from(PROFILES))
    seed = draw(st.integers(0, 10_000))
    im = draw(st.one_of(st.floats(0.11, 0.4), st.floats(0.8, 1.5)))
    sigma = complex(draw(st.floats(-0.5, 0.5)), im)
    try:
        return cover1.set_param(random_covering1(profile, seed), "modulus", sigma)
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
        mod, hd, poles = _search_args(cov)
        try:
            want = elliptic._subdivision_zeros(mod, _budgeted(hd, 2000), poles)
        except (HurwitzError, _OverBudget):  # no reference for this covering
            assume(False)
        sigma = mod.sigma
        tol = elliptic._newton_tol(sigma)
        corners = list(elliptic._contour_corners(poles, sigma))[: elliptic.MOMENT_CORNERS]
        for corner, poles_uv in corners:
            got = elliptic._moment_zeros(hd, corner, sigma, poles_uv, cov.dim, tol)
            if got is not None:
                _assert_same_zeros(got, want, hd, poles, sigma)
        _assert_same_zeros(elliptic_zeros(mod, hd, poles), want, hd, poles, sigma)

    @pytest.mark.parametrize("name,cov", [
        ("h12", builtin_example("h12")),
        ("g1(2,1)", random_covering1((2, 1), 2025)),
        ("g1(1,1,1)", random_covering1((1, 1, 1), 7)),
        ("g1(4)", random_covering1((4,), 3)),
    ])
    def test_one_contour_call_and_a_short_polish(self, name, cov):
        mod, hd, poles = _search_args(cov)
        calls = []
        elliptic_zeros(mod, lambda z: calls.append(len(z)) or hd(z), poles)
        # the moment quadrature on two edges, then one Newton step per call
        assert calls[0] == 2 * elliptic.GAUSS_NODES
        assert len(calls) <= 12


class TestFallback:
    @pytest.mark.parametrize("name,cov", [
        ("h12", builtin_example("h12")),
        ("g1(2,1)", random_covering1((2, 1), 2025)),
        ("g1(4,1)", random_covering1((4, 1), 14)),
    ])
    def test_failed_moment_stage_is_the_subdivision_search(self, name, cov, monkeypatch):
        mod, hd, poles = _search_args(cov)
        want = elliptic._subdivision_zeros(mod, hd, poles)
        monkeypatch.setattr(elliptic, "_moment_zeros", lambda *args: None)
        assert elliptic_zeros(mod, hd, poles) == want

    def test_double_zero_falls_back_after_bounded_attempts(self, monkeypatch):
        # wp - e1 has a double zero at 1/2: its two Newton lanes meet, so no
        # moment attempt passes, and the subdivision search finds the pair
        mod = Modulus(0.3 + 1.1j)
        ctx = WeierstrassContext.create(mod)
        e1 = wp(ctx, 0.5)
        hd = lambda u: (wp(ctx, u) - e1, wp(ctx, u, 1))
        max_iters = []
        real = elliptic.newton_lanes

        def recorded(hd_, z, tol, max_step, max_iter):
            max_iters.append(max_iter)
            return real(hd_, z, tol, max_step, max_iter)

        monkeypatch.setattr(elliptic, "newton_lanes", recorded)
        zs = elliptic_zeros(mod, hd, [(0.0, 2)])
        moment_runs = [n for n in max_iters if n == elliptic.MOMENT_NEWTON_STEPS]
        assert len(moment_runs) == elliptic.MOMENT_CORNERS == 3
        assert max_iters[:3] == moment_runs and elliptic.MOMENT_NEWTON_STEPS == 20
        assert len(zs) == 2 and max(abs(z - 0.5) for z in zs) < 1e-8
