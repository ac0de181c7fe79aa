import cmath
import math

import numpy as np
import pytest

import oracles
from oracles import profile_constant
from hurwitztau import isomon
from hurwitztau.cover0 import (
    Covering0,
    Pole,
    caustic_orders,
    critical_data,
    euler_scaling_expected,
    eval_p_derivs,
    flat_coords,
    gamma,
    p_prime_as_ratio,
    reject_ill_conditioned,
    set_param,
    tau_product,
    tau_resultant,
)
from hurwitztau.errors import CommonRootError, OnBoundaryError
from hurwitztau.poly import resultant
from hurwitztau.samples import random_covering0

PROFILES = [(3,), (2, 1), (2, 2), (3, 2), (2, 1, 1)]
# the genus-0 profiles of the benchmark pool
POOL_PROFILES = [(3,), (4,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3), (2, 3), (4, 2), (3, 1, 1)]


def _one_ratio(cov):
    """``p_prime_as_ratio``'s rows f and g of one covering."""
    fs, gs = p_prime_as_ratio([cov])
    return fs[0], gs[0]


def _by_lambda(cd):
    order = sorted(range(len(cd.lam)), key=lambda i: (cd.lam[i].real, cd.lam[i].imag))
    return [(cd.lam[i], cd.pts[i], cd.fsq[i], cd.sb[i]) for i in order]


class TestValidate:
    def test_coincident_poles(self):
        with pytest.raises(OnBoundaryError) as err:
            Covering0((1, 1, 1), (), (Pole(1.0, (1.0,)), Pole(1.0, (2.0,))))
        assert err.value.component == "S1"
        assert err.value.indices == (0, 1)

    def test_vanishing_top_tail(self):
        with pytest.raises(OnBoundaryError) as err:
            Covering0((1, 1), (), (Pole(1.0, (0.0,)),))
        assert err.value.component == "S2"


class TestPrimeRatio:
    def test_cubic(self, a2):
        f, g = _one_ratio(a2)
        assert f.tolist() == [-3, 0, 3]
        assert g.tolist() == [1]

    def test_single_simple_pole(self):
        # the map z + c/(z - b) carries tail coefficient -c in this model
        b, c = 0.3 + 0.2j, 0.5 + 0.1j
        cov = Covering0((1, 1), (), (Pole(b, (-c,)),))
        f, g = _one_ratio(cov)
        want_f = (b * b - c, -2 * b, 1.0)
        want_g = (b * b, -2 * b, 1.0)
        assert max(abs(a - w) for a, w in zip(f, want_f)) < 1e-14
        assert max(abs(a - w) for a, w in zip(g, want_g)) < 1e-14

    def test_against_finite_differences(self):
        rng = np.random.default_rng(2)
        cov = random_covering0((3, 2), seed=3)
        f, g = _one_ratio(cov)
        checked = 0
        while checked < 20:
            z = complex(rng.normal(0, 2), rng.normal(0, 2))
            if min(abs(z - p.b) for p in cov.poles) < 0.3:
                continue
            fd = oracles.central_diff(lambda w: eval_p_derivs(cov, w, 0)[0], z, 1e-6)
            val = np.polyval(f[::-1], z) / np.polyval(g[::-1], z)
            assert abs(fd - val) / abs(val) < 1e-7
            checked += 1

    @pytest.mark.parametrize("profile", POOL_PROFILES)
    def test_matches_the_product_builder(self, profile):
        # every coefficient to 1e-13 relative, the exact zeros included
        for seed in range(6):
            cov = random_covering0(profile, seed=seed)
            for got, want in zip(_one_ratio(cov), oracles.p_prime_as_ratio(cov)):
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_stacked_rows_are_the_single_builds(self):
        coverings = [random_covering0((3, 1, 1), seed=s) for s in range(4)]
        fs, gs = p_prime_as_ratio(coverings)
        for cov, f_row, g_row in zip(coverings, fs, gs):
            f, g = _one_ratio(cov)
            assert f_row.tolist() == f.tolist()
            assert g_row.tolist() == g.tolist()

    def test_degree_and_leading(self):
        for profile in PROFILES:
            cov = random_covering0(profile, seed=sum(profile))
            f, g = _one_ratio(cov)
            assert len(f) - 1 == cov.dim
            assert abs(f[-1] - profile[0]) < 1e-12


class TestCriticalData:
    def test_cubic_anchor(self, a2):
        cd = critical_data(a2)
        rows = _by_lambda(cd)
        # lambda = -2 at alpha = +1, lambda = +2 at alpha = -1
        assert abs(rows[0][0] - (-2)) < 1e-12 and abs(rows[1][0] - 2) < 1e-12
        assert abs(rows[0][1] - 1) < 1e-12 and abs(rows[1][1] + 1) < 1e-12
        # fsq = 2/p'' = +-1/3; Schwarzian values +-1/12 (sum of H vanishes)
        assert abs(rows[0][2] - 1 / 3) < 1e-12 and abs(rows[1][2] + 1 / 3) < 1e-12
        assert abs(rows[0][3] - 1 / 12) < 1e-12 and abs(rows[1][3] + 1 / 12) < 1e-12

    def test_simple_pole_anchor(self):
        # z - c_model/(z - b): critical points b +- sqrt(-c_model)
        b, cm = 0.3 + 0.2j, -0.5 + 0.0j
        cov = Covering0((1, 1), (), (Pole(b, (cm,)),))
        cd = critical_data(cov)
        root = cmath.sqrt(-cm)
        assert _set_close(cd.pts, [b + root, b - root], 1e-10)
        assert _set_close(cd.fsq, [root, -root], 1e-10)
        assert _set_close(cd.sb, [-3 / (4 * root), 3 / (4 * root)], 1e-10)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_count_equals_dimension(self, profile):
        cov = random_covering0(profile, seed=17 + sum(profile))
        cd = critical_data(cov)
        assert len(cd.pts) == cov.dim == len(profile) + sum(profile) - 2

    def test_fsq_times_second_derivative(self):
        cov = random_covering0((2, 2), seed=4)
        cd = critical_data(cov)
        for a, f2 in zip(cd.pts, cd.fsq):
            d2 = eval_p_derivs(cov, a, 2)[2]
            assert abs(f2 * d2 - 2.0) < 1e-9

    def test_schwarzian_oracle(self):
        cov = random_covering0((2, 1, 1), seed=5)
        cd = critical_data(cov)
        for z, lam, f2, sb in zip(cd.pts, cd.lam, cd.fsq, cd.sb):
            est = oracles.fd_schwarzian(cov, z, lam, f2, h=0.1)
            assert abs(est - sb) / abs(sb) < 1e-5

    def test_common_root_rejected(self):
        # tail so small the critical points sit on the pole to within the
        # root-pole guard: f and g effectively share a root
        cov = Covering0((1, 1), (), (Pole(0.5, (-1e-18,)),))
        with pytest.raises(CommonRootError):
            critical_data(cov)

    def test_high_degree_points_are_newton_fixed_points(self):
        # a degree-9 f: its companion eigenvalues stop about 3e-10 (relative) short of the
        # Newton fixed point of p', Aberth's roots about 4e-11; the data pass's one step on
        # p' in pole-tail form reaches it
        cov = random_covering0((2, 4, 3), 9730)
        pts = np.array(critical_data(cov).pts)
        _, d1, d2 = eval_p_derivs(cov, pts, 2)
        assert np.max(np.abs(d1 / d2) / (1.0 + np.abs(pts))) < 1e-14

    def test_high_degree_identities_pass(self):
        # unpolished, f_m^2 = 2/p'' was off by about 1e-9: tau-gradient and
        # schwarzian-gradient failed at 3.3e-9
        checks = isomon.identity_report(random_covering0((2, 4, 3), 9730))
        assert [c.name for c in checks if not c.passed] == []

    def test_resultant_membership(self):
        for profile in [(2, 1), (2, 2)]:
            cov = random_covering0(profile, seed=23)
            cd = critical_data(cov)
            assert abs(cd.resultant_ratio) > 1e-8  # R(f, g) over its factorization


def _set_close(got, want, tol):
    got = sorted(got, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    want = sorted(want, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    return max(abs(a - b) for a, b in zip(got, want)) < tol


class TestBoundaryConstant:
    """|R(f, g)| is |its pole/flat factorization| times prod k_i^-(k_i^2 - 1)."""

    @pytest.mark.parametrize("profile", [(2, 1), (3, 2), (2, 3), (3, 3), (2, 4), (3, 2, 2)])
    def test_ratio_is_the_profile_constant(self, profile):
        cov = random_covering0(profile, seed=8)
        cd = critical_data(cov)
        assert abs(abs(cd.resultant_ratio) / profile_constant(cov) - 1.0) < 1e-9

    @pytest.mark.parametrize("profile", [(2, 4, 4), (3, 4, 4), (5, 4, 4), (6, 5, 5, 4)])
    def test_profiles_with_two_high_order_poles_sample(self, profile):
        # |R(f, g)| / factorization is 4^-30 or less here: below the boundary
        # test's 1e-10 unless that test is scaled by the profile constant.
        # min_gap=0 takes the first draw with critical data: with 14 or 21
        # critical values most draws miss the default 5% critical-value gap
        cov = random_covering0(profile, 0, min_gap=0.0)
        assert profile_constant(cov) < 1e-10
        cd = critical_data(cov)
        assert len(cd.pts) == cov.dim
        assert abs(abs(cd.resultant_ratio) / profile_constant(cov) - 1.0) < 1e-6

    def test_ratio_survives_a_factor_below_double_precision(self):
        # two order-5 poles 1e-5 apart: R(f, g) and its pole/flat factor, near e^-810
        # and e^-732, underflow; their ratio, taken in logarithms, does not
        top = (1, 0, 0, 0, 1)
        cov = Covering0((1, 5, 5), (), (Pole(0, top), Pole(1e-5, top)))
        cd = critical_data(cov)
        assert abs(abs(cd.resultant_ratio) / profile_constant(cov) - 1.0) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_instances_with_two_order_four_poles(self, seed):
        for profile in [(2, 4, 4), (3, 4, 4)]:
            assert random_covering0(profile, seed).profile == profile


class TestConditioning:
    def test_pool_profiles_pass(self):
        for profile in PROFILES + [(2, 4, 4), (4, 3)]:
            cov = random_covering0(profile, seed=3)
            reject_ill_conditioned(cov, critical_data(cov).pts)

    @pytest.mark.parametrize("c,rejected", [(1e-9, True), (1e-7, True), (1e-6, False)])
    def test_critical_points_near_a_pole(self, c, rejected):
        # the critical points of z - c/(z - 0.5) sit sqrt(c) from the pole;
        # the gap must exceed 1.5 * (eps / 1e-9)^(1/2) = 7.1e-4
        cov = Covering0((1, 1), (), (Pole(0.5, (c,)),))
        pts = critical_data(cov).pts
        if rejected:
            with pytest.raises(OnBoundaryError) as err:
                reject_ill_conditioned(cov, pts)
            assert err.value.component == "S2" and err.value.indices == (0,)
        else:
            reject_ill_conditioned(cov, pts)


class TestFlatCoords:
    def test_first_root(self):
        cov = Covering0((1, 1), (), (Pole(0.0, (5.0,)),))
        assert flat_coords(cov).t[0] == 5.0

    def test_square_root(self):
        cov = Covering0((1, 2), (), (Pole(0.0, (0.0, 4.0)),))
        assert abs(flat_coords(cov).t[0] - 4.0) < 1e-14

    def test_principal_cube_root(self):
        cov = Covering0((1, 3), (), (Pole(0.0, (0.0, 0.0, -8.0)),))
        want = 3.0 * 2.0 * cmath.exp(1j * math.pi / 3)
        assert abs(flat_coords(cov).t[0] - want) < 1e-13

    def test_pole_positions(self):
        cov = random_covering0((2, 1, 1), seed=2)
        fc = flat_coords(cov)
        assert fc.p == tuple(p.b for p in cov.poles)


class TestTauProduct:
    def test_cubic_magnitude(self, a2):
        tp = tau_product(a2, critical_data(a2))
        assert abs(abs(tp.tau_inv48) - 9.0) < 1e-10
        assert abs(cmath.exp(tp.log_tau_inv48) - tp.tau_inv48) < 1e-12

    def test_gradient_is_hamiltonian(self, a2):
        an = isomon.analyze(a2)
        iso = an.iso
        _, d = oracles.lambda_derivatives(a2, oracles.check_bundle(an))
        dlogtau = -d["log_tau48"][0] / 48.0
        err = max(abs(a - b) for a, b in zip(dlogtau, iso.hamiltonians))
        assert err / max(abs(h) for h in iso.hamiltonians) < 1e-6

    def test_translation_invariance(self):
        # degree-1 polynomial part: shifting every pole shifts the critical
        # values uniformly and leaves the frame product untouched
        cov = random_covering0((1, 2, 1), seed=6)
        shifted = Covering0(
            cov.profile,
            cov.poly_coeffs,
            tuple(Pole(p.b - 1.0, p.c) for p in cov.poles),
        )
        t1 = tau_product(cov, critical_data(cov))
        t2 = tau_product(shifted, critical_data(shifted))
        assert abs(t1.tau_inv48 - t2.tau_inv48) / abs(t1.tau_inv48) < 1e-10
        l1 = sorted(critical_data(cov).lam, key=lambda z: (z.real, z.imag))
        l2 = sorted(critical_data(shifted).lam, key=lambda z: (z.real, z.imag))
        assert max(abs(a - 1.0 - b) for a, b in zip(l1, l2)) < 1e-9


class TestScalingCovariance:
    def test_schwarzian_scales_with_degree(self):
        # z -> cz with the induced coefficient change scales every critical
        # value by c^k1 and every Schwarzian value by c^(-k1)
        cov = random_covering0((2, 1), seed=9)
        c = 1.3 - 0.45j
        k1 = cov.profile[0]
        coeffs = tuple(c ** (k1 - r) * a for r, a in enumerate(cov.poly_coeffs))
        poles = tuple(
            Pole(c * p.b, tuple(c ** (k1 + a) * v for a, v in enumerate(p.c, start=1)))
            for p in cov.poles
        )
        scaled = Covering0(cov.profile, coeffs, poles)
        cd = critical_data(cov)
        cd2 = critical_data(scaled)
        # match critical points via alpha -> c * alpha
        for a, sb in zip(cd.pts, cd.sb):
            j = min(range(len(cd2.pts)), key=lambda i: abs(cd2.pts[i] - c * a))
            assert abs(cd2.sb[j] * c**k1 - sb) < 1e-9 * abs(sb)


class TestTauResultant:
    def test_route_ratio_constant_along_sweep(self):
        cov = random_covering0((2, 2), seed=7)
        v0 = cov.poles[0].b
        ratios = []
        for s in range(20):
            c2 = set_param(cov, "poles.0.b", v0 + 0.02 * s * cmath.exp(0.5j))
            cd = critical_data(c2)
            ratios.append(tau_product(c2, cd).tau_inv48 / tau_resultant([c2], [cd])[0].tau_inv48)
        drift = max(abs(r / ratios[0] - 1.0) for r in ratios)
        assert drift < 1e-8

    def test_collided_critical_points_vanish(self):
        z3 = Covering0((3,), (0.0, 0.0), ())  # pure cube: double critical point
        assert tau_resultant([z3], [critical_data(z3)])[0].tau_inv48 == 0

    def test_resultant_factorization_constant(self):
        cov = random_covering0((2, 1, 1), seed=8)
        vals = []
        v0 = cov.poles[1].b
        for s in range(20):
            c2 = set_param(cov, "poles.1.b", v0 + 0.015 * s * cmath.exp(1.1j))
            fs, gs = p_prime_as_ratio([c2])
            fc = flat_coords(c2)
            denom = 1.0 + 0j
            bs = [p.b for p in c2.poles]
            ks = c2.profile[1:]
            for i in range(len(bs)):
                for j in range(len(bs)):
                    if i != j:
                        denom *= (bs[i] - bs[j]) ** ((ks[i] + 1) * (ks[j] + 1))
            for k, t in zip(ks, fc.t):
                denom *= t ** (k * (k + 1))
            vals.append(resultant(fs, gs)[0] / denom)
        drift = max(abs(v / vals[0] - 1.0) for v in vals)
        assert drift < 1e-8


class TestGFunction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_polynomial_families_are_trivial(self, n):
        rng = np.random.default_rng(n)
        coeffs = tuple(complex(rng.normal(), rng.normal()) for _ in range(n - 1))
        cov = Covering0((n,), coeffs, ())
        assert tau_product(cov, critical_data(cov)).G == 0
        assert abs(gamma(cov)) < 1e-15

    def test_euler_flow_matches_anomaly(self):
        # |gamma| < 1, so the identity's error is |E(G) - gamma|
        cov = random_covering0((2, 2), seed=10)
        errors = {c.name: c.error for c in isomon.identity_report(cov)}
        assert errors["euler-anomaly"] < 1e-6

    def test_cross_route_differs_by_profile_constant(self):
        cov = random_covering0((3, 2), seed=11)
        expected = -sum((k + 1) * math.log(k) for k in cov.profile[1:]) / 24.0
        diffs = []
        v0 = cov.poles[0].b
        for s in range(5):
            c2 = set_param(cov, "poles.0.b", v0 + 0.03 * s)
            tp = tau_product(c2, critical_data(c2))
            diffs.append(tp.G - tp.g_from_jacobian)
        assert max(abs(d - expected) for d in diffs) < 1e-10


class TestCausticOrders:
    def test_simple_pole_tail_vanishes_linearly(self):
        cov = random_covering0((2, 1), seed=5)
        rays = {r.indices: r for r in caustic_orders(cov).rays if r.kind == "top-tail"}
        r = rays[(0,)]
        assert r.expected_min == 1.0
        assert r.order >= 1.0 - max(0.03, r.fit_residual)

    def test_double_pole_tail_does_not_vanish(self):
        cov = random_covering0((2, 2), seed=6)
        rays = {r.indices: r for r in caustic_orders(cov).rays if r.kind == "top-tail"}
        r = rays[(0,)]
        assert r.expected_min == 0.0
        assert abs(r.order) < 0.02

    def test_pole_collision_order(self):
        cov = random_covering0((2, 1, 1), seed=7)
        rays = {r.indices: r for r in caustic_orders(cov).rays if r.kind == "pole-collision"}
        for (i, j), r in rays.items():
            assert r.order >= r.expected_min - max(0.03, r.fit_residual)


class TestEulerInvariants:
    def test_hamiltonian_sum_and_degree(self):
        rng = np.random.default_rng(12)
        cov0 = random_covering0((2, 1), seed=13)
        expected = euler_scaling_expected(cov0)
        values = []
        for _ in range(20):
            cov = random_covering0((2, 1), rng)
            an = isomon.analyze(cov)
            h = np.array(an.iso.hamiltonians)
            assert abs(np.sum(h)) / np.max(np.abs(h)) < 1e-9
            values.append(complex(h @ np.array(an.critical.lam)))
        assert max(abs(v - expected) for v in values) < 1e-8
