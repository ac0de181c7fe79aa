import cmath
import math

import numpy as np
import pytest

import oracles
from hurwitztau import isomon
from hurwitztau.cli import spec_to_covering
from hurwitztau.cover0 import Pole
from hurwitztau.cover1 import (
    Covering1,
    critical_data,
    deformation_params,
    eval_p_derivs,
    flat_coords,
    gamma,
    set_param,
    tau_product,
    tau_resultant,
)
from hurwitztau.elliptic import (
    Modulus,
    lattice_distance,
    log_dedekind_eta,
    reduce_to_cell,
    wp,
)
from hurwitztau.errors import NearPoleError, OnBoundaryError
from hurwitztau.samples import random_covering1


def _mod():
    return Modulus(0.12 + 1.1j)


def _h12(a=0.3 + 0.1j, c=1.0 + 0.2j, b=0.23 + 0.31j, mod=None):
    return Covering1(mod or _mod(), a, (Pole(b, (0.0, c)),))


class TestConstruction:
    def test_residue_constraint(self):
        with pytest.raises(ValueError):
            Covering1(_mod(), 0.0, (Pole(0.3, (1.0,)), Pole(0.6, (-0.5,))))

    def test_coincident_poles_mod_lattice(self):
        s = _mod().sigma
        with pytest.raises(OnBoundaryError) as err:
            Covering1(
                _mod(), 0.0,
                (Pole(0.3 + 0.2j, (1.0,)), Pole(0.3 + 0.2j + 1 + s, (-1.0,))),
            )
        assert err.value.component == "S1"

    def test_vanishing_top_tail(self):
        with pytest.raises(OnBoundaryError) as err:
            Covering1(_mod(), 0.0, (Pole(0.3, (0.0, 0.0)),))
        assert err.value.component == "S2"

    def test_poles_reduced_to_cell(self):
        s = _mod().sigma
        cov = Covering1(_mod(), 0.0, (Pole(0.23 + 0.31j + 2 + 3 * s, (0.0, 1.0)),))
        assert abs(cov.poles[0].b - reduce_to_cell(0.23 + 0.31j, s)) < 1e-12

    def test_dimension(self):
        assert _h12().dim == 3
        cov = random_covering1((2, 1), seed=1)
        assert cov.dim == 5


class TestEvalP:
    def test_matches_wp_model(self):
        cov = _h12()
        ctx = cov.ctx
        z = 0.55 + 0.4j
        a, c, b = cov.constant, cov.poles[0].c[1], cov.poles[0].b
        assert abs(eval_p_derivs(cov, z, 0)[0] - (a - c * wp(ctx, z - b))) < 1e-13

    def test_periodicity(self):
        cov = random_covering1((2, 1), seed=2)
        s = cov.modulus.sigma
        rng = np.random.default_rng(0)
        for _ in range(3):
            z = complex(rng.uniform(0, 1)) + complex(rng.uniform(0, 1)) * s
            if min(lattice_distance(z - p.b, s) for p in cov.poles) < 0.1:
                continue
            v = eval_p_derivs(cov, z, 0)[0]
            assert abs(eval_p_derivs(cov, z + 1, 0)[0] - v) < 1e-10 * max(1, abs(v))
            assert abs(eval_p_derivs(cov, z + s, 0)[0] - v) < 1e-10 * max(1, abs(v))

    def test_laurent_leading_coefficient(self):
        cov = random_covering1((2, 1), seed=3)
        for pole in cov.poles:
            k = pole.order
            lead = math.factorial(k - 1) * (-1) ** (k - 1) * pole.top
            eps = 1e-5
            got = (eps**k) * eval_p_derivs(cov, pole.b + eps, 0)[0]
            assert abs(got - lead) / abs(lead) < 1e-3

    def test_derivative_finite_difference(self):
        cov = random_covering1((1, 1), seed=4)
        s = cov.modulus.sigma
        z = 0.45 + 0.37 * s
        fd = oracles.central_diff(lambda w: eval_p_derivs(cov, w, 0)[0], z, 1e-6)
        exact = eval_p_derivs(cov, z, 1)[1]
        assert abs(fd - exact) / abs(exact) < 1e-7

    def test_near_pole_guard(self):
        cov = _h12()
        with pytest.raises(NearPoleError):
            eval_p_derivs(cov, cov.poles[0].b + 1e-10, 0)[0]


class TestCriticalData:
    def test_order_two_family_half_periods(self):
        cov = _h12()
        s = cov.modulus.sigma
        b = cov.poles[0].b
        cd = critical_data(cov)
        assert len(cd.pts) == 3
        want = sorted(
            (reduce_to_cell(b + w, s) for w in oracles.half_periods(s)),
            key=lambda t: (round(t.real, 6), round(t.imag, 6)),
        )
        got = sorted(cd.pts, key=lambda t: (round(t.real, 6), round(t.imag, 6)))
        assert max(abs(a - b2) for a, b2 in zip(got, want)) < 1e-9
        # critical values are a - c * wp(half-period)
        es = [wp(cov.ctx, w) for w in oracles.half_periods(s)]
        lam_want = sorted(
            (cov.constant - cov.poles[0].c[1] * e for e in es),
            key=lambda t: (round(t.real, 6), round(t.imag, 6)),
        )
        lam_got = sorted(cd.lam, key=lambda t: (round(t.real, 6), round(t.imag, 6)))
        assert max(abs(a - b2) for a, b2 in zip(lam_got, lam_want)) < 1e-10

    def test_constant_shift_moves_values_not_points(self):
        cov = _h12()
        cd = critical_data(cov)
        cov2 = _h12(a=cov.constant + 0.37 - 0.21j)
        cd2 = oracles.seeded_critical_data(cov2, cd.pts)
        assert max(abs(a - b) for a, b in zip(cd.pts, cd2.pts)) < 1e-10
        assert max(abs(l2 - l1 - (0.37 - 0.21j)) for l1, l2 in zip(cd.lam, cd2.lam)) < 1e-10

    @pytest.mark.parametrize("profile", [(2,), (1, 1), (2, 1)])
    def test_zero_count_is_dimension(self, profile):
        cov = random_covering1(profile, seed=5 + sum(profile))
        cd = critical_data(cov)
        assert len(cd.pts) == cov.dim == len(profile) + sum(profile)

    def test_wirtinger_defect_is_exact(self):
        cov = random_covering1((2, 1), seed=6)
        cd = critical_data(cov)
        eta_t = cov.ctx.eta_tilde
        for f2, sw, sb in zip(cd.fsq, cd.sw, cd.sb):
            assert abs(sb - (sw - 24j * math.pi * eta_t * f2)) < 1e-14 * max(1, abs(sw))

    def test_schwarzian_oracle(self):
        cov = random_covering1((2, 1), seed=7)
        cd = critical_data(cov)
        for z, lam, f2, sw in zip(cd.pts, cd.lam, cd.fsq, cd.sw):
            est = oracles.fd_schwarzian(cov, z, lam, f2, h=0.12)
            assert abs(est - sw) / abs(sw) < 1e-5

    def test_kernel_diagonal_oracle(self):
        # three-way consistency: Taylor sw, kernel-limit sb, and the
        # marking defect 24 pi i eta~ fsq connecting them
        cov = random_covering1((1, 1), seed=8)
        cd = critical_data(cov)
        eta_t = cov.ctx.eta_tilde
        for z, lam, f2, sw, sb in zip(cd.pts, cd.lam, cd.fsq, cd.sw, cd.sb):
            sb_est = oracles.kernel_diagonal_sb(cov, z, lam, f2, h=0.12)
            assert abs(sb_est - sb) / max(1.0, abs(sw)) < 1e-6
            assert abs(sw - (sb_est + 24j * math.pi * eta_t * f2)) / max(1.0, abs(sw)) < 1e-6


class TestFlatCoords:
    def test_simple_pole(self):
        cov = random_covering1((1, 1), seed=9)
        fc = flat_coords(cov)
        assert abs(fc.t[0] - cov.poles[0].c[0]) < 1e-14
        assert fc.t0 == cov.modulus.sigma

    def test_double_pole_sign(self):
        cov = _h12()
        c = cov.poles[0].c[1]
        assert abs(flat_coords(cov).t[0] - cmath.sqrt(-c)) < 1e-14

    def test_local_inversion_oracle(self):
        # h_i = dz/dzeta at the puncture, via the local inverse of
        # zeta = lambda^(-1/k), extrapolated zeta -> 0
        cov = random_covering1((2, 1), seed=10)
        fc = flat_coords(cov)
        for i, pole in enumerate(cov.poles):
            k = pole.order
            t = fc.t[i]

            def z_of_zeta(zeta):
                lam = zeta ** (-k)
                z = pole.b + t * zeta
                for _ in range(80):
                    d = eval_p_derivs(cov, z, 1)
                    step = (d[0] - lam) / d[1]
                    z -= step
                    if abs(step) < 1e-15 * (1 + abs(z)):
                        break
                return z

            def slope(zeta):
                dz = 1e-3 * zeta
                return (z_of_zeta(zeta + dz) - z_of_zeta(zeta - dz)) / (2 * dz)

            z0 = 4e-3
            d1, d2, d4 = slope(z0), slope(z0 / 2), slope(z0 / 4)
            e1 = 2 * d2 - d1
            e2 = 2 * d4 - d2
            fd = (4 * e2 - e1) / 3
            assert abs(fd - t) / abs(t) < 1e-6


class TestTauRoutes:
    def test_gradient_is_hamiltonian(self):
        cov = random_covering1((1, 1), seed=11)
        an = isomon.analyze(cov)
        iso = an.iso
        _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
        dlogtau = -d["log_tau48"][0] / 48.0
        h = np.array(iso.hamiltonians)
        assert float(np.max(np.abs(dlogtau - h))) / float(np.max(np.abs(h))) < 1e-5

    def test_modulus_flow(self):
        cov = random_covering1((2,), seed=12)
        an = isomon.analyze(cov)
        _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
        rhs = 1j * math.pi * np.array(an.critical.fsq)
        err = float(np.max(np.abs(d["sigma"][0] - rhs))) / float(np.max(np.abs(rhs)))
        assert err < 1e-5

    def test_route_ratio_constant(self):
        cov = random_covering1((2, 1), seed=13)
        v0 = cov.poles[0].c[1]
        ratios = []
        seeds = None
        for s in range(12):
            c2 = set_param(cov, "poles.0.c.1", v0 * (1 + 0.02 * s))
            cd = critical_data(c2) if seeds is None else oracles.seeded_critical_data(c2, seeds)
            seeds = cd.pts
            ratios.append(tau_product(c2, cd).tau_inv48 / tau_resultant([c2], [cd])[0].tau_inv48)
        assert max(abs(r / ratios[0] - 1) for r in ratios) < 1e-7

    def test_order_two_family_closed_form(self):
        # tau^-48 proportional to t1^12 eta^72 along sweeps of both moduli
        base = _h12()
        vals = []
        for s in range(10):
            cov = _h12(c=(1.0 + 0.2j) * (1 + 0.05 * s))
            cd = critical_data(cov)
            pred = flat_coords(cov).t[0] ** 12 * cmath.exp(72 * log_dedekind_eta(cov.modulus))
            vals.append(tau_product(cov, cd).tau_inv48 / pred)
        assert max(abs(v / vals[0] - 1) for v in vals) < 1e-6
        vals = []
        for s in range(10):
            cov = _h12(mod=Modulus(0.12 + 1.1j + 0.03j * s))
            cd = critical_data(cov)
            pred = flat_coords(cov).t[0] ** 12 * cmath.exp(72 * log_dedekind_eta(cov.modulus))
            vals.append(tau_product(cov, cd).tau_inv48 / pred)
        assert max(abs(v / vals[0] - 1) for v in vals) < 1e-6

    def test_collision_drives_kappa_to_zero(self):
        cov = random_covering1((2, 1), seed=3)
        c11 = cov.poles[0].c[0]
        log_kappas, ts = [], []
        for s in np.geomspace(10**-1.0, 10**-5.0, 9):
            poles = (
                Pole(cov.poles[0].b, (c11 * s, cov.poles[0].c[1])),
                Pole(cov.poles[1].b, (-c11 * s,)),
            )
            c2 = Covering1(cov.modulus, cov.constant, poles)
            cd = critical_data(c2)
            log_kappas.append(tau_resultant([c2], [cd])[0].log_kappa.real / math.log(10))
            ts.append(abs(flat_coords(c2).t[1]))
        assert all(a > b for a, b in zip(log_kappas, log_kappas[1:]))
        slope = np.polyfit(np.log10(ts), log_kappas, 1)[0]
        assert slope >= 1.0 - 0.05

    def test_kappa_relabeling_invariance(self):
        from hurwitztau.elliptic import sigma_w

        cov = _h12()
        cd = critical_data(cov)
        ctx = cov.ctx
        perm = (2, 0, 1)
        k1 = k2 = 1.0 + 0j
        for r in range(3):
            for s in range(3):
                if r != s:
                    k1 *= sigma_w(ctx, cd.pts[r] - cd.pts[s])
                    k2 *= sigma_w(ctx, cd.pts[perm[r]] - cd.pts[perm[s]])
        assert abs(k1 - k2) < 1e-12 * abs(k1)


class TestGFunction:
    def test_single_pole_closed_form(self):
        # G = -log eta(t0) - (k1+1)/24 log t1 for the one-pole families: the
        # t1 term is forced by G = log(tau / J^(1/24)) and by E(G) = gamma,
        # and matches the order-2 family where tau^-48 ~ t1^12 eta^72
        cov = _h12()
        tp = tau_product(cov, critical_data(cov))
        k1 = cov.profile[0]
        want = -log_dedekind_eta(cov.modulus) - (k1 + 1) / 24.0 * cmath.log(
            flat_coords(cov).t[0]
        )
        assert abs(tp.G - want) < 1e-13
        assert abs(tp.G - tp.g_from_jacobian) < 1e-12
        # gamma for profile (2): -(1/24)(l + sum 1/k) = -(1/24)(1 + 1/2)
        assert abs(gamma(cov) - (-(1 + 0.5) / 24.0)) < 1e-15

    def test_euler_flow_matches_anomaly(self):
        # |gamma| < 1, so the identity's error is |E(G) - gamma|
        cov = random_covering1((1, 1), seed=14)
        errors = {c.name: c.error for c in isomon.identity_report(cov)}
        assert errors["euler-anomaly"] < 1e-5
        an = isomon.analyze(cov)
        euler_log_tau = complex(np.array(an.iso.hamiltonians) @ np.array(an.critical.lam))
        assert abs(euler_log_tau - oracles.euler_scaling_expected(cov)) < 1e-8

    def test_modulus_gradient_of_g(self):
        from hurwitztau.elliptic import eta_tilde

        cov = _h12()
        h = 1e-6

        def g_of_sigma(ds):
            c2 = _h12(mod=Modulus(cov.modulus.sigma + ds))
            return tau_product(c2, critical_data(c2)).G

        fd = (g_of_sigma(h) - g_of_sigma(-h)) / (2 * h)
        assert abs(fd + eta_tilde(cov.modulus)) < 1e-6

    def test_translation_invariance(self):
        cov = random_covering1((2, 1), seed=15)
        shift = 0.11 + 0.07j
        shifted = Covering1(
            cov.modulus,
            cov.constant,
            tuple(Pole(p.b + shift, p.c) for p in cov.poles),
        )
        l1 = sorted(critical_data(cov).lam, key=lambda z: (round(z.real, 8), z.imag))
        l2 = sorted(critical_data(shifted).lam, key=lambda z: (round(z.real, 8), z.imag))
        assert max(abs(a - b) for a, b in zip(l1, l2)) < 1e-10
        tp1 = tau_product(cov, critical_data(cov))
        tp2 = tau_product(shifted, critical_data(shifted))
        assert abs(tp1.tau_inv48 - tp2.tau_inv48) / abs(tp1.tau_inv48) < 1e-10
        assert abs(tp1.G - tp2.G) < 1e-12
        h1 = sorted(
            isomon.analyze(cov).iso.hamiltonians,
            key=lambda z: (round(z.real, 8), z.imag),
        )
        h2 = sorted(
            isomon.analyze(shifted).iso.hamiltonians,
            key=lambda z: (round(z.real, 8), z.imag),
        )
        assert max(abs(a - b) for a, b in zip(h1, h2)) < 1e-10


class TestDeformationParams:
    @pytest.mark.parametrize("profile", [(2,), (1, 1), (2, 1)])
    def test_count_matches_dimension(self, profile):
        cov = random_covering1(profile, seed=16)
        assert len(deformation_params(cov)) == cov.dim


# the genus-1 pool of the benchmark: 12 specs of each profile, sampler seeds
# 910000 + 1000 i + j for the i-th profile
POOL = [(profile, 910000 + 1000 * i + j)
        for i, profile in enumerate([(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)])
        for j in range(12)]


class TestRouteBLogs:
    def test_matches_the_float_product_on_the_pool(self):
        worst = 0.0
        for profile, seed in POOL:
            cov = random_covering1(profile, seed)
            cd = critical_data(cov)
            log48 = tau_resultant([cov], [cd])[0].log_tau_inv48
            # equal up to 2 pi i n: compare tau^-48 itself
            worst = max(worst, abs(cmath.exp(log48 - oracles.tau_resultant_float_product(cov, cd))
                                   - 1.0))
        assert worst <= 1e-12

    def test_kappa_below_double_precision_stays_finite(self):
        # a (3,2,1) spec at Im sigma = 4: kappa is about e^-837, a float product
        # underflows to 0, and the route ratio divided by it
        base = random_covering1((3, 2, 1), 5)
        cov = set_param(base, "modulus", complex(base.modulus.sigma.real, 4.0))
        an = isomon.analyze(cov)
        tb = tau_resultant([cov], [an.critical])[0]
        assert tb.log_kappa.real < math.log(5e-324) and cmath.exp(tb.log_kappa) == 0
        assert cmath.isfinite(tb.log_tau_inv48)
        # the route ratio at the pool modulus and at Im sigma = 4 is one constant
        ratio = isomon.route_ratio(an.tau, tb)
        cd = critical_data(base)
        base_ratio = isomon.route_ratio(tau_product(base, cd), tau_resultant([base], [cd])[0])
        assert abs(ratio / base_ratio - 1.0) < 1e-8

    def test_thick_torus_spreads_the_lattice_shift_over_the_zeros(self):
        # Im sigma = 5.87: the critical divisor is the pole divisor minus (-1 - 3 sigma).
        # Put on one zero, the shift makes its z_r - z_s about 3 sigma long, sigma_w
        # underflows there, and route B is -inf (CoincidentPointsError); spread one unit
        # per zero, every identity holds
        cov = spec_to_covering(THICK_TORUS)
        an = isomon.analyze(cov)
        tb = tau_resultant([cov], [an.critical])[0]
        assert cmath.isfinite(tb.log_tau_inv48) and an.critical.min_point_gap > 0.15
        isomon.route_ratio(an.tau, tb)  # raises CoincidentPointsError on a route B of -inf
        assert all(c.passed for c in isomon.identity_report(cov))


# a fuzz-drawn (4,4,1) spec, residues rounded; its divisor shift is -1 - 3 sigma
THICK_TORUS = {
    "genus": 1, "profile": [4, 4, 1], "modulus": [0.09064682048844441, 5.87],
    "constant": [1.0, 0.0],
    "poles": [
        {"b": [0.6319007993980061, 0.0],
         "c": [[1.0, 0.0], [0.4045795148637246, 0.3637436475900354],
               [-0.05767110195509459, 0.00954045362926612], [1.0, 0.0]]},
        {"b": [0.027328742985767634, 1.7693794546010604],
         "c": [[100.0, 69.224], [0.999617898139151, 0.027641594018178187], [1.0, 0.0],
               [0.02913074836146968, -0.04647218869903869]]},
        {"b": [0.8914504544472838, 1.8376021265238625], "c": [[-101.0, -69.224]]},
    ],
}
