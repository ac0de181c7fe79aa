"""The array contract of the genus-1 evaluation stack.

Array inputs are checked against a 30-digit mpmath oracle built from
``jtheta`` alone (no code path of the package), against the per-point
scalar results, and against the guards.  The zero search is checked on
every genus-1 profile of the benchmark pool plus an order-4 pole.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hurwitztau.cover0 import Pole
from hurwitztau.cover1 import Covering1, critical_data, eval_p_derivs
from hurwitztau.elliptic import (
    Modulus,
    WeierstrassContext,
    elliptic_zeros,
    lattice_distance,
    newton_lanes,
    sigma_w,
    theta1_derivs,
    weierstrass_context,
    wp,
    wp_derivs,
    zeta_derivs,
    zeta_w,
)
from hurwitztau.errors import LatticePointError, NearPoleError
from hurwitztau.samples import random_covering1

SIGMAS = [0.15 + 0.9j, -0.3 + 1.4j, 0.1 + 0.3j, 0.45 + 0.45j]
THETA_TOL = 1e-12  # measured <= 3e-15 relative
ZETA_TOL = 1e-10  # measured <= 2e-13 relative, up to order 8
PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)]
SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)


def _mp_theta(sigma: complex, z: complex, n_max: int) -> list:
    """d^k/dz^k theta1(z | sigma), k = 0..n_max, on the lattice Z + sigma*Z."""
    q = mp.exp(1j * mp.pi * mp.mpc(sigma))
    w = mp.pi * mp.mpc(z)
    return [mp.pi**k * mp.jtheta(1, w, q, k) for k in range(n_max + 1)]


def _mp_zeta_derivs(sigma: complex, z: complex, n_max: int) -> list[complex]:
    """zeta, zeta', ..., zeta^(n_max), with (log theta1)^(k) from the Leibniz rule."""
    with mp.workdps(30):
        th0 = _mp_theta(sigma, 0, 3)
        c = -th0[3] / (3 * th0[1])  # 2 * calib_sigma
        th = _mp_theta(sigma, z, n_max + 1)
        logd = [None] * (n_max + 2)
        for m in range(n_max + 1):
            acc = th[m + 1]
            for k in range(m):
                acc -= mp.binomial(m, k) * th[m - k] * logd[k + 1]
            logd[m + 1] = acc / th[0]
        out = [logd[1] + c * mp.mpc(z)]
        if n_max >= 1:
            out.append(logd[2] + c)
        out += logd[3: n_max + 2]
        return [complex(v) for v in out]


def _rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


points = st.tuples(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(-3, 3), st.integers(-3, 3)
)


def _point(sigma: complex, pt) -> complex:
    u, v, m, n = pt
    return complex(u + m) + complex(v + n) * sigma


class TestAgainstMpmath:
    @SETTINGS
    @given(st.sampled_from(SIGMAS), st.lists(points, min_size=1, max_size=6))
    def test_theta1_derivs(self, sigma, pts):
        mod = Modulus(sigma)
        zs = np.array([_point(sigma, p) for p in pts])
        got = theta1_derivs(mod, zs, 3)
        assert got.shape == (4, len(zs))
        with mp.workdps(30):
            for i, z in enumerate(zs):
                want = [complex(v) for v in _mp_theta(sigma, z, 3)]
                scale = max(abs(v) for v in want)
                assert np.max(np.abs(got[:, i] - want)) / scale < THETA_TOL

    @SETTINGS
    @given(st.sampled_from(SIGMAS), st.lists(points, min_size=1, max_size=4))
    def test_zeta_derivs_to_order_8(self, sigma, pts):
        ctx = weierstrass_context(Modulus(sigma))
        zs = np.array([_point(sigma, p) for p in pts])
        got = zeta_derivs(ctx, zs, 8)
        assert got.shape == (9, len(zs))
        for i, z in enumerate(zs):
            assert _rel_err(got[:, i], _mp_zeta_derivs(sigma, z, 8)) < ZETA_TOL

    @SETTINGS
    @given(st.sampled_from(SIGMAS), st.lists(points, min_size=1, max_size=4))
    def test_wp(self, sigma, pts):
        ctx = weierstrass_context(Modulus(sigma))
        zs = np.array([_point(sigma, p) for p in pts])
        got = wp_derivs(ctx, zs, 3)
        second = wp(ctx, zs, 2)
        for i, z in enumerate(zs):
            want = [-v for v in _mp_zeta_derivs(sigma, z, 4)[1:]]
            assert _rel_err(got[:, i], want) < ZETA_TOL
            assert _rel_err(second[i], want[2]) < ZETA_TOL

    @pytest.mark.parametrize("profile", [(4,), (2, 1), (1, 1, 1)])
    def test_eval_p_derivs(self, profile):
        cov = random_covering1(profile, 3) if profile != (4,) else _order_four_covering()
        sigma = cov.modulus.sigma
        rng = np.random.default_rng(5)
        zs = np.array([
            complex(u + m) + complex(v + n) * sigma
            for u, v, m, n in zip(rng.uniform(0.05, 0.95, 4), rng.uniform(0.05, 0.95, 4),
                                  rng.integers(-3, 4, 4), rng.integers(-3, 4, 4))
        ])
        zs = zs[[min(lattice_distance(z - p.b, sigma) for p in cov.poles) > 0.05 for z in zs]]
        n_max = 4
        got = eval_p_derivs(cov, zs, n_max)
        for i, z in enumerate(zs):
            want = np.zeros(n_max + 1, dtype=complex)
            want[0] = cov.constant
            for p in cov.poles:
                zd = _mp_zeta_derivs(sigma, z - p.b, p.order - 1 + n_max)
                for a, coeff in enumerate(p.c):
                    want += coeff * np.array(zd[a: a + n_max + 1])
            assert _rel_err(got[:, i], want) < ZETA_TOL


def _order_four_covering() -> Covering1:
    return Covering1(
        Modulus(0.12 + 1.05j),
        0.3 - 0.1j,
        (Pole(0.41 + 0.37j, (0.0, 0.2 + 0.1j, -0.3j, 0.9 + 0.2j)),),
    )


class TestScalarAndArrayAgree:
    def test_array_equals_per_point_scalar(self):
        ctx = weierstrass_context(Modulus(0.2 + 1.1j))
        s = ctx.modulus.sigma
        zs = np.array([0.31 + 0.2j, 1.7 + 2.3 * s + 0.31, -0.4 + 0.1j, 0.5 - 2 * s])
        cov = random_covering1((2, 1), 7)
        for fn in (
            lambda z: theta1_derivs(ctx.modulus, z, 3),
            lambda z: zeta_derivs(ctx, z, 5),
            lambda z: wp_derivs(ctx, z, 4),
            lambda z: [sigma_w(ctx, z)],
            lambda z: eval_p_derivs(cov, z, 3),
        ):
            batch = np.asarray(fn(zs))
            for i, z in enumerate(zs):
                one = fn(complex(z))
                assert all(type(v) is complex for v in one)
                # row-wise sums give each point the same bits in any batch
                assert np.array_equal(np.array(one), batch[:, i])

    def test_scalars_return_complex(self):
        ctx = weierstrass_context(Modulus(1.1j))
        z = 0.3 + 0.2j
        for v in (wp(ctx, z), wp(ctx, z, 2), zeta_w(ctx, z), zeta_w(ctx, z, 3), sigma_w(ctx, z)):
            assert type(v) is complex
        assert type(theta1_derivs(ctx.modulus, np.complex128(z), 1)[1]) is complex

    def test_array_shape_is_kept(self):
        ctx = weierstrass_context(Modulus(1.1j))
        zs = np.array([[0.3 + 0.2j, 0.4 + 0.1j, 0.2 + 0.6j], [0.1 + 0.1j, 0.7 + 0.3j, 0.5 + 0.9j]])
        assert zeta_derivs(ctx, zs, 2).shape == (3, 2, 3)
        assert wp(ctx, zs).shape == (2, 3)
        assert np.array_equal(wp(ctx, zs)[1], wp(ctx, zs[1]))


class TestGuardsPerPoint:
    def test_one_near_lattice_point_raises(self):
        ctx = weierstrass_context(Modulus(0.3 + 1.1j))
        s = ctx.modulus.sigma
        zs = np.array([0.3 + 0.2j, 0.5 + 0.4j, 2.0 - s + 1e-10, 0.7 + 0.1j])
        for fn in (lambda z: wp(ctx, z), lambda z: zeta_w(ctx, z), lambda z: zeta_derivs(ctx, z, 3)):
            with pytest.raises(LatticePointError):
                fn(zs)
            fn(np.delete(zs, 2))

    def test_one_near_pole_point_raises(self):
        cov = random_covering1((2, 1), 7)
        b = cov.poles[1].b
        zs = np.array([0.3 + 0.2j, b + 1 + cov.modulus.sigma + 1e-9, 0.7 + 0.1j])
        with pytest.raises(NearPoleError):
            eval_p_derivs(cov, zs, 1)


class TestDerivativeOrders:
    def test_zeta_derivs_returns_every_order(self):
        ctx = weierstrass_context(Modulus(0.2 + 1.3j))
        for n in range(10):
            assert len(zeta_derivs(ctx, 0.41 + 0.18j, n)) == n + 1
            assert len(wp_derivs(ctx, 0.41 + 0.18j, n)) == n + 1

    def test_order_four_pole(self):
        cov = _order_four_covering()
        d = eval_p_derivs(cov, 0.13 + 0.71j, 4)
        assert len(d) == 5
        cd = critical_data(cov)
        assert len(cd.pts) == cov.dim == 5
        for z in cd.pts:
            assert abs(eval_p_derivs(cov, z, 1)[1]) < 1e-9


class TestContextsAtSmallImSigma:
    @pytest.mark.parametrize("sigma", [0.1 + 0.3j, 0.1 + 0.45j])
    def test_context_builds(self, sigma):
        ctx = WeierstrassContext.create(Modulus(sigma))
        z = 1e-3
        assert abs(wp(ctx, z) - (1.0 / (z * z) + ctx.g2 * z * z / 20.0)) < 1e-4

    def test_context_cache_per_modulus(self):
        mod = Modulus(0.1 + 0.45j)
        assert weierstrass_context(mod) is weierstrass_context(Modulus(0.1 + 0.45j))
        assert weierstrass_context(mod) is not weierstrass_context(Modulus(0.1 + 0.46j))


def _scalar_newton(h, hp, z, tol, max_step, max_iter):
    """The scalar Newton loop newton_lanes must reproduce lane by lane."""
    for _ in range(max_iter):
        v = h(z)
        d = hp(z)
        if d == 0:
            return z, False
        step = v / d
        if abs(step) > max_step:
            step = max_step * step / abs(step)
        z = z - step
        if abs(step) < tol:
            return z, True
    return z, False


class TestNewtonLanes:
    def test_lanes_match_scalar_loop(self):
        cov = random_covering1((2, 1), 7)
        s = cov.modulus.sigma
        seeds = [complex(u) + v * s for u in (0.1, 0.35, 0.6, 0.85) for v in (0.2, 0.5, 0.8)]
        tol = 1e-12 * (1.0 + abs(s))
        zs, ok = newton_lanes(lambda w: eval_p_derivs(cov, w, 2)[1:], seeds, tol, 0.5, 80)
        for z0, z, good in zip(seeds, zs, ok):
            ref, ref_ok = _scalar_newton(
                lambda w: eval_p_derivs(cov, w, 1)[1], lambda w: eval_p_derivs(cov, w, 2)[2],
                z0, tol, 0.5, 80)
            assert good == ref_ok
            assert abs(z - ref) < 1e-12


class TestZeroSearchPerProfile:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_count_residual_and_winding(self, profile):
        cov = random_covering1(profile, 11)
        s = cov.modulus.sigma
        cd = critical_data(cov)
        assert len(cd.pts) == cov.dim
        for z in cd.pts:
            assert abs(eval_p_derivs(cov, z, 1)[1]) < 1e-8
        # p' has zeros minus poles = 0 on a period cell: the independent
        # trapezoid winding plus the pole count is the zero count
        poles = sum(p.order + 1 for p in cov.poles)
        corner = 0.0731 + 0.0457 * s
        winding = oracles.trapezoid_argument_count(
            lambda z: eval_p_derivs(cov, z, 1)[1], corner, 1.0, s, n=512)
        assert winding + poles == len(cd.pts)

    def test_wp_prime_zeros_on_arrays(self):
        mod = Modulus(0.1 + 0.45j)
        ctx = weierstrass_context(mod)
        zs = elliptic_zeros(ctx, lambda u: (wp(ctx, u, 1), wp(ctx, u, 2)), [(0.0, 3)])
        assert len(zs) == 3
        for z in zs:
            assert abs(wp(ctx, z, 1)) < 1e-8 * max(1.0, abs(wp(ctx, z, 2)))
