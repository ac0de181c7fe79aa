import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import oracles
from oracles import theta1, zeta_w
from hurwitztau import elliptic
from hurwitztau.elliptic import (
    Modulus,
    WeierstrassContext,
    elliptic_zeros,
    eta_tilde,
    log_dedekind_eta,
    reduce_to_cell,
    sigma_w,
    theta1_derivs,
    wp,
    zeta_derivs,
)
from hurwitztau.errors import LatticePointError
from hurwitztau.samples import random_covering1

MODULI = [0.3 + 1.1j, -0.2 + 0.7j, 1.3j, 0.45 + 2.1j]


def _ctx(sigma) -> WeierstrassContext:
    return WeierstrassContext.create(Modulus(sigma))


class TestModulus:
    def test_rejects_low_imaginary_part(self):
        with pytest.raises(ValueError):
            Modulus(0.5 + 0.05j)

    def test_nome(self):
        m = Modulus(0.3 + 1.1j)
        assert abs(m.q - cmath.exp(2j * math.pi * (0.3 + 1.1j))) < 1e-15

    def test_dropped_term_below_target(self):
        m = Modulus(1.1j)
        j = m.theta_terms
        y = 1.1
        bound = math.exp(-math.pi * y * (j * j - 0.25) + math.pi * y / 4)
        assert bound < 1e-16

    @pytest.mark.parametrize("im_sigma", [0.11, 0.5, 1.0, 3.0])
    def test_divisor_sums_exact(self, im_sigma):
        m = Modulus(complex(0.2, im_sigma))
        sums = elliptic._divisor_sums(m.eisenstein_terms)
        for k in (1, 3, 5):
            brute = [sum(d**k for d in range(1, n + 1) if n % d == 0)
                     for n in range(1, m.eisenstein_terms + 1)]
            assert sums[k].tolist() == brute

    def test_divisor_sums_shared_per_series_length(self):
        # two moduli with one series length share one read-only table
        a, b = Modulus(0.3 + 1.1j), Modulus(-0.2 + 1.1j)
        assert a.eisenstein_terms == b.eisenstein_terms
        table = elliptic._divisor_sums(a.eisenstein_terms)
        assert elliptic._divisor_sums(b.eisenstein_terms) is table
        for row in table.values():
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 2.0

    @pytest.mark.parametrize("sigma", [0.3 + 1.1j, 0.15 + 0.11j, 2.8j])
    def test_eisenstein_series_bit_identical(self, sigma):
        # E_2, E_4, E_6 from the shared table equal the per-modulus sums term for term
        m = Modulus(sigma)
        d = np.arange(1, m.eisenstein_terms + 1, dtype=float)
        divides = d[:, None] % d == 0.0
        q_powers = m.q ** np.arange(1, m.eisenstein_terms + 1)
        for weight, const in ((2, -24.0), (4, 240.0), (6, -504.0)):
            want = 1.0 + const * complex(np.sum((divides @ d ** (weight - 1)) * q_powers))
            assert elliptic.eisenstein(m, weight) == want


# the seven genus-1 pool profiles and the sampler seed of each one's first pool spec
POOL_PROFILES = [((2,), 910000), ((1, 1), 911000), ((3,), 912000), ((2, 1), 913000),
                 ((1, 1, 1), 914000), ((2, 2), 915000), ((3, 1), 916000)]
_EDGE = 0.5 - 1e-9  # the far edges of the base cell, approached from inside


class TestSeriesLength:
    """``Modulus.theta_terms`` terms against a 40-term reference series.

    The points are in the base cell [-1/2, 1/2]^2, so ``theta1_derivs`` sums
    the series at them as given: its corners, points on its edges, the half
    periods (as their representatives +-1/2, +-sigma/2 and +-(1 + sigma)/2)
    and points within 1e-6 of 0.  A cell coordinate of exactly +1/2 is summed
    as given, not moved to -1/2 with the quasi-periodic factor, which cost up
    to 1.4e-13 of the largest term at Im sigma = 3.  At Im sigma = 0.11 the
    series' own round-off (the same with 19 terms) reaches 1.5e-15 of the
    largest term, hence the bound 2e-15.
    """

    @pytest.mark.parametrize("re_sigma", [0.0, 0.5])
    @pytest.mark.parametrize("im_sigma", [0.11, 0.3, 1.0, 3.0])
    def test_matches_long_series(self, re_sigma, im_sigma):
        m = Modulus(complex(re_sigma, im_sigma))
        s = m.sigma
        uv = [(-0.5, -0.5), (_EDGE, -0.5), (-0.5, _EDGE), (_EDGE, _EDGE),
              (-0.5, 0.0), (-0.5, 0.3), (0.0, -0.5), (0.3, -0.5), (0.0, _EDGE), (_EDGE, 0.2),
              (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5), (0.5, 0.0), (0.5, 0.2), (0.0, 0.5), (0.3, 0.5)]
        halves = [0.5, 0.5 * s, 0.5 * (1 + s)]
        near_zero = [1e-6 * cmath.exp(1j * a) for a in (0.3, 2.1, 4.4)] + [1e-9, 1e-7j]
        pts = np.array([u + v * s for u, v in uv] + [-h for h in halves] + halves + near_zero)
        got = theta1_derivs(m, pts, 7)
        want, peak = oracles.theta1_long(s, pts, 7)
        assert (np.abs(got - want) <= 2e-15 * peak).all()

    @pytest.mark.parametrize("profile, seed", POOL_PROFILES)
    def test_pool_moduli_take_four_or_five_terms(self, profile, seed):
        assert random_covering1(profile, seed).modulus.theta_terms in (4, 5)

    @pytest.mark.parametrize("im_sigma, terms", [(0.11, 14), (0.12, 13), (0.8, 5), (1.5, 4)])
    def test_term_counts(self, im_sigma, terms):
        assert Modulus(complex(0.0, im_sigma)).theta_terms == terms


class TestTheta:
    @pytest.mark.parametrize("sigma", MODULI)
    def test_odd(self, sigma):
        m = Modulus(sigma)
        assert abs(theta1(m, 0.0)) < 1e-15
        z = 0.37 + 0.21j
        assert abs(theta1(m, -z) + theta1(m, z)) < 1e-12

    def test_quasi_periodicity_consistency(self):
        # reduction path vs direct series at a moderate argument
        m = Modulus(0.2 + 0.9j)
        z = 1.7 + 2.3 * m.sigma + 0.31
        direct = theta1_derivs(m, z, 2)
        for n, v in enumerate(direct):
            fd = oracles.central_diff(lambda w, nn=max(n - 1, 0): theta1(m, w, nn), z, 1e-6)
            if n >= 1:
                assert abs(fd - v) / max(1.0, abs(v)) < 1e-7

    @pytest.mark.parametrize("sigma", MODULI)
    def test_heat_equation_ratio(self, sigma):
        m = Modulus(sigma)
        d = theta1_derivs(m, 0.0, 3)
        ratio = d[3] / d[1]
        target = 12j * math.pi * eta_tilde(m)
        assert abs(ratio - target) / abs(ratio) < 1e-10


class TestEta:
    def test_value_at_i(self):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4)), cross-checked against the series
        exact = float(gamma_fn(0.25)) / (2.0 * math.pi**0.75)
        got = oracles.dedekind_eta(Modulus(1j))
        assert abs(got - exact) < 1e-14
        assert abs(got - 0.7682254223260566) < 1e-7

    @pytest.mark.parametrize("sigma", [0.23 + 0.87j, 1.32j, -0.4 + 1.7j])
    def test_modular_transform(self, sigma):
        lhs = oracles.dedekind_eta(Modulus(-1.0 / sigma))
        rhs = cmath.sqrt(-1j * sigma) * oracles.dedekind_eta(Modulus(sigma))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_eta_tilde_two_series_grid(self):
        # theta route (heat equation) against the weight-2 Eisenstein route
        rng = np.random.default_rng(2)
        for im in np.linspace(0.3, 3.0, 20):
            sigma = complex(rng.uniform(-0.5, 0.5), im)
            m = Modulus(sigma)
            d = theta1_derivs(m, 0.0, 3)
            via_theta = d[3] / d[1] / (12j * math.pi)
            via_series = eta_tilde(m)
            assert abs(via_theta - via_series) / abs(via_series) < 1e-10

    def test_eta_tilde_finite_difference(self):
        s = 0.3 + 1.1j
        h = 1e-6
        fd = (log_dedekind_eta(Modulus(s + h)) - log_dedekind_eta(Modulus(s - h))) / (2 * h)
        assert abs(fd - eta_tilde(Modulus(s))) < 1e-6


class TestWeierstrass:
    def test_context_invariants_hold(self):
        for sigma in MODULI:
            ctx = _ctx(sigma)  # raises if any calibration fails
            z = 1e-3
            assert abs(wp(ctx, z) - 1.0 / (z * z)) < 1e-4
            assert abs(sigma_w(ctx, z) / z - 1.0) < 1e-5
            assert abs(zeta_w(ctx, z) - 1.0 / z) < 1e-4

    def test_parity_and_periodicity(self):
        ctx = _ctx(0.3 + 1.1j)
        s = ctx.modulus.sigma
        rng = np.random.default_rng(0)
        for _ in range(4):
            z = complex(rng.uniform(0.1, 0.9), 0) + complex(0, rng.uniform(0.1, 0.9)) * s
            assert abs(wp(ctx, -z) - wp(ctx, z)) < 1e-11 * max(1.0, abs(wp(ctx, z)))
            assert abs(wp(ctx, -z, 1) + wp(ctx, z, 1)) < 1e-11 * max(1.0, abs(wp(ctx, z, 1)))
            assert abs(wp(ctx, z + 1) - wp(ctx, z)) < 1e-11 * max(1.0, abs(wp(ctx, z)))
            assert abs(wp(ctx, z + s) - wp(ctx, z)) < 1e-11 * max(1.0, abs(wp(ctx, z)))

    def test_cubic_identity(self):
        for sigma in MODULI:
            ctx = _ctx(sigma)
            g2, g3 = oracles.g_invariants(ctx.modulus)
            rng = np.random.default_rng(1)
            for _ in range(3):
                z = complex(rng.uniform(0.15, 0.85), 0) + complex(0, rng.uniform(0.15, 0.85)) * sigma
                p = wp(ctx, z)
                dp = wp(ctx, z, 1)
                err = abs(dp * dp - (4 * p**3 - g2 * p - g3))
                assert err < 1e-9 * max(1.0, abs(p) ** 3)

    def test_derivative_chain_vs_finite_difference(self):
        ctx = _ctx(0.25 + 1.2j)
        z = 0.31 + 0.22j
        for n in (1, 2, 3, 4):
            fd = oracles.central_diff(lambda w, nn=n - 1: wp(ctx, w, nn), z, 1e-6)
            assert abs(fd - wp(ctx, z, n)) / abs(wp(ctx, z, n)) < 1e-7

    def test_lattice_guard(self):
        ctx = _ctx(1.1j)
        with pytest.raises(LatticePointError):
            wp(ctx, 1e-9)
        with pytest.raises(LatticePointError):
            zeta_w(ctx, 1.0 + 1e-10)

    def test_legendre_relation(self):
        for sigma in MODULI:
            ctx = _ctx(sigma)
            zt = 0.31 + 0.27 * sigma
            e1 = zeta_w(ctx, zt + 1.0) - zeta_w(ctx, zt)
            e2 = zeta_w(ctx, zt + sigma) - zeta_w(ctx, zt)
            assert abs(e1 * sigma - e2 - 2j * math.pi) < 1e-10

    def test_sigma_quasi_periodicity(self):
        ctx = _ctx(0.3 + 1.1j)
        zt = 0.31 + 0.27 * ctx.modulus.sigma
        eta1 = zeta_w(ctx, zt + 1.0) - zeta_w(ctx, zt)
        z = 0.4 + 0.25j
        lhs = sigma_w(ctx, z + 1.0)
        rhs = -sigma_w(ctx, z) * cmath.exp(eta1 * (z + 0.5))
        assert abs(lhs - rhs) / abs(lhs) < 1e-9

    def test_sigma_vanishes_on_the_lattice_only(self):
        # exactly representable modulus so the lattice translate is exact;
        # the quasi-periodic growth of sigma_w amplifies any representation
        # dust on the point
        ctx = _ctx(0.25 + 1.0j)
        s = ctx.modulus.sigma
        assert abs(sigma_w(ctx, -2 - 3 * s)) < 1e-10
        assert 0 < abs(sigma_w(ctx, -1 - s - 1e-9)) < 1e-3  # near miss
        assert abs(sigma_w(ctx, -0.37)) > 1e-6

    def test_zeta_derivs_consistent(self):
        ctx = _ctx(0.2 + 1.3j)
        z = 0.41 + 0.18j
        zd = zeta_derivs(ctx, z, 4)
        assert abs(zd[1] + wp(ctx, z)) < 1e-12 * abs(wp(ctx, z))
        assert abs(zd[3] + wp(ctx, z, 2)) < 1e-12 * abs(wp(ctx, z, 2))


class TestContextConstants:
    """The context's constants are the module's functions of its modulus, bit for bit."""

    @pytest.mark.parametrize("sigma", MODULI + [0.11j])
    def test_table_sums_are_the_derivatives_at_zero(self, sigma):
        m = Modulus(sigma)
        d = theta1_derivs(m, 0.0, 5)
        weights = m._theta_tabs[2]
        assert [complex(weights[k].sum()) for k in (1, 3, 5)] == [d[1], d[3], d[5]]
        ctx = _ctx(sigma)
        assert ctx.theta1_deriv0 == d[1]
        assert ctx.calib_p == d[3] / (3.0 * d[1])

    @pytest.mark.parametrize("sigma", MODULI + [0.11j])
    def test_fields_match_the_module_functions(self, sigma):
        m = Modulus(sigma)
        ctx = WeierstrassContext.create(m)
        assert ctx.eta_tilde == eta_tilde(m)
        assert ctx.g2 == oracles.g_invariants(m)[0]
        assert ctx.log_eta == log_dedekind_eta(m)


class TestContextVerification:
    """Each check of ``WeierstrassContext._verify`` fires on the slip it guards against."""

    @pytest.fixture()
    def ctx(self):
        return _ctx(0.3 + 1.1j)

    @pytest.mark.parametrize("field, corrupt, message", [
        ("calib_p", lambda v: v + 1e-2, "wp Laurent calibration failed"),
        ("theta1_deriv0", lambda v: v * 1.001, "sigma_w normalization failed"),
        ("calib_sigma", lambda v: v + 1.0, "zeta_w principal part failed"),
        ("calib_sigma", lambda v: v + 1e3, "sigma_w normalization failed"),
    ])
    def test_corrupted_calibration_raises(self, ctx, field, corrupt, message):
        ctx._verify()
        bad = dataclasses.replace(ctx, **{field: corrupt(getattr(ctx, field))})
        with pytest.raises(ValueError, match=message):
            bad._verify()

    def test_lost_quasi_period_shift_fails_legendre(self, ctx, monkeypatch):
        # a reduction that reports the lattice shift but keeps z unreduced
        # counts the -2 pi i n of zeta twice; only the Legendre check sees it
        split = elliptic._split_lattice

        def unreduced(z, sigma):
            m, n, _ = split(z, sigma)
            return m, n, z

        monkeypatch.setattr(elliptic, "_split_lattice", unreduced)
        with pytest.raises(ValueError, match="Legendre relation failed"):
            ctx._verify()


def _two_pole_functions(ctx):
    """Three elliptic functions with two zeta tails on the modulus of ``ctx``.

    Each is (constant, parts, h, h'): its principal parts, for ``elliptic_zeros``,
    and closures over ``zeta_w``/``wp``.
    """
    rng = np.random.default_rng(10)
    s = ctx.modulus.sigma
    for _ in range(3):
        b1 = complex(rng.uniform(0.1, 0.45)) + complex(0, rng.uniform(0.1, 0.45)) * s
        b2 = complex(rng.uniform(0.55, 0.9)) + complex(0, rng.uniform(0.55, 0.9)) * s
        c2 = complex(rng.normal(), rng.normal())

        def h(z, b1=b1, b2=b2, c2=c2):
            return zeta_w(ctx, z - b1) - zeta_w(ctx, z - b2) + c2 * wp(ctx, z - b2)

        def hp(z, b1=b1, b2=b2, c2=c2):
            return -wp(ctx, z - b1) + wp(ctx, z - b2) + c2 * wp(ctx, z - b2, 1)

        # wp = -zeta', so c2 wp(z - b2) is the tail coefficient -c2 of zeta'
        yield 0, [(b1, (1,)), (b2, (-1, -c2))], h, hp


class TestPrincipalParts:
    """``elliptic._parts_hd`` against closures over ``wp`` and ``zeta_w``."""

    def test_wp_prime_and_shifted_wp(self):
        ctx = _ctx(0.2 + 0.9j)
        val = wp(ctx, 0.31 + 0.18j)
        w = np.array([0.13 + 0.4j, 0.77 + 0.05j, -1.6 + 2.2j, 0.5, 0.45j])
        cases = [
            (0, [(0.0, (0, 0, -1))], lambda u: wp(ctx, u, 1), lambda u: wp(ctx, u, 2)),
            (-val, [(0.0, (0, -1))], lambda u: wp(ctx, u) - val, lambda u: wp(ctx, u, 1)),
        ]
        for constant, parts, h, hp in cases:
            got = elliptic._parts_hd(ctx, constant, parts, w)
            for row, want in zip(got, (h(w), hp(w))):
                assert np.abs(row - want).max() < 1e-12 * np.abs(want).max()

    def test_two_pole_functions(self):
        ctx = _ctx(0.15 + 1.05j)
        w = np.array([0.37 + 0.21j, 0.83 + 0.66j, 2.1 - 1.3j, 0.05 + 0.97j])
        for constant, parts, h, hp in _two_pole_functions(ctx):
            got = elliptic._parts_hd(ctx, constant, parts, w)
            for row, want in zip(got, (h(w), hp(w))):
                assert np.abs(row - want).max() < 1e-12 * np.abs(want).max()


class TestEllipticZeros:
    def test_wp_prime_half_periods(self):
        mod = Modulus(0.3 + 1.1j)
        ctx = WeierstrassContext.create(mod)
        zs = elliptic_zeros(ctx, 0, [(0.0, (0, 0, -1))])  # wp' = -zeta''
        assert len(zs) == 3
        want = sorted(
            (reduce_to_cell(w, mod.sigma) for w in oracles.half_periods(mod.sigma)),
            key=lambda t: (round(t.real, 6), round(t.imag, 6)),
        )
        got = sorted(zs, key=lambda t: (round(t.real, 6), round(t.imag, 6)))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    def test_wp_shifted_level_set(self):
        mod = Modulus(0.2 + 0.9j)
        ctx = WeierstrassContext.create(mod)
        c = 0.31 + 0.18j
        val = wp(ctx, c)
        zs = elliptic_zeros(ctx, -val, [(0.0, (0, -1))])  # wp - val = -zeta' - val
        want = sorted(
            (reduce_to_cell(w, mod.sigma) for w in (c, -c)),
            key=lambda t: (round(t.real, 6), round(t.imag, 6)),
        )
        got = sorted(zs, key=lambda t: (round(t.real, 6), round(t.imag, 6)))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    def test_zero_count_random_two_pole_functions(self):
        # elliptic functions with two zeta tails: zeros == poles, confirmed
        # against an independent trapezoid argument-principle count
        ctx = WeierstrassContext.create(Modulus(0.15 + 1.05j))
        s = ctx.modulus.sigma
        for constant, parts, h, _ in _two_pole_functions(ctx):
            zs = elliptic_zeros(ctx, constant, parts)
            assert len(zs) == 3
            for z in zs:
                assert abs(h(z)) < 1e-8
            # independent count: zeros minus poles winds to zero
            corner = 0.0731 + 0.0457 * s
            winding = oracles.trapezoid_argument_count(h, corner, 1.0, s)
            assert winding == 0
