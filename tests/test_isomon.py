import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

import oracles
from hurwitztau import cli, cover0, cover1, isomon
from hurwitztau.cover0 import Covering0, Pole, critical_data as critical_data0
from hurwitztau.errors import (CausticWarning, CoincidentPointsError, ContourClashError,
                               OnBoundaryError)
from hurwitztau.samples import builtin_example, random_covering0, random_covering1


class TestBergmann:
    def test_symmetry(self):
        for cov in (random_covering0((2, 2), seed=1), random_covering1((1, 1), seed=2)):
            B, _ = isomon.bergmann_values(cov, isomon.analyze(cov).critical)
            assert np.max(np.abs(B - B.T)) < 1e-12 * np.max(np.abs(B))

    def test_cubic_closed_form(self, a2):
        an = isomon.analyze(a2)
        B, _ = isomon.bergmann_values(a2, an.critical)
        pts = an.critical.pts
        # critical points are +-1, so the kernel value is f1 f2 / 4
        want = an.f[0] * an.f[1] / (pts[0] - pts[1]) ** 2
        assert abs(B[0, 1] - want) < 1e-14

    @pytest.mark.parametrize("gap", [1e-9, 1e-11])
    def test_genus1_coincident_points_raise(self, gap):
        # within wp's lattice guard of each other: the coincidence, not the guard, is reported
        cov = random_covering1((2, 1), 3)
        cd = isomon.analyze(cov).critical
        pts = (cd.pts[0], cd.pts[0] + gap, *cd.pts[2:])
        with pytest.raises(CoincidentPointsError, match="coincident critical points"):
            isomon.bergmann_values(cov, dataclasses.replace(cd, pts=pts))

    def test_one_evaluation_per_identity_report(self, monkeypatch, a2, h12):
        # the report takes the kernel values build_isomonodromy was built from
        calls = []
        real = isomon.bergmann_values
        monkeypatch.setattr(isomon, "bergmann_values", lambda *args: calls.append(1) or real(*args))
        for cov in (a2, h12):
            calls.clear()
            isomon.identity_report(cov)
            assert len(calls) == 1

    @pytest.mark.parametrize("name", ["h0_surf", "h12"])
    def test_route_a_once_per_covering(self, monkeypatch, name):
        # the cross-route identity reuses the analysis's route A
        cov = builtin_example(name)
        model = (cover0, cover1)[cov.genus]
        calls = []
        real = model.tau_product
        monkeypatch.setattr(model, "tau_product", lambda *args: calls.append(1) or real(*args))
        isomon.identity_report(cov)
        assert len(calls) == 1


class TestRouteRatio:
    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12"])
    def test_exp_of_the_log_difference(self, name):
        cov = builtin_example(name)
        an = isomon.analyze(cov)
        tb = (cover0, cover1)[cov.genus].tau_resultant([cov], [an.critical])[0]
        ratio = isomon.route_ratio(an.tau, tb)
        assert ratio == cmath.exp(an.tau.log_tau_inv48 - tb.log_tau_inv48)
        assert abs(ratio / (an.tau.tau_inv48 / tb.tau_inv48) - 1.0) < 1e-12

    def test_vanishing_route_b_raises(self, a2):
        # z^3 has a double critical point: R(f, f') = 0 and log tau^-48 of route B, which
        # has no pole/flat denominator without poles, is -inf
        fs, _ = cover0.p_prime_as_ratio([Covering0((3,), (0.0, 0.0), ())])
        tb = cover0.TauResultant(complex(cover0._log_r_ff(fs)[0]))
        assert tb.log_tau_inv48.real == -math.inf
        with pytest.raises(CoincidentPointsError, match="route B vanishes"):
            isomon.route_ratio(isomon.analyze(a2).tau, tb)


def _route_b_scaled(monkeypatch, model, log_factor: float) -> None:
    """Route B of ``model`` times e^log_factor: a constant along any segment."""
    real = model.tau_resultant
    monkeypatch.setattr(model, "tau_resultant", lambda cs, cds: [
        dataclasses.replace(tb, log_tau_inv48=tb.log_tau_inv48 + log_factor) for tb in real(cs, cds)])


class TestAnalyze:
    def test_analyses_compare_without_raising(self, a2):
        # the ndarray fields have no truth value: an analysis equals itself only
        an = isomon.analyze(a2)
        assert an == an and an.iso == an.iso
        assert (isomon.analyze(a2) == isomon.analyze(a2)) is False

    def test_rejects_critical_points_too_near_a_pole(self):
        # p = z - 1e-7/(z - 0.5): the top tail is above the boundary tolerance, but
        # the critical points lie 3.2e-4 from the pole, too near to verify (S2)
        cov = Covering0((1, 1), (), (Pole(0.5, (1e-7,)),))
        with pytest.raises(OnBoundaryError, match="too ill-conditioned to verify") as info:
            isomon.analyze(cov)
        assert info.value.component == "S2"

    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12"])
    def test_report_and_check_read_one_discrepancy(self, name):
        # the two Hamiltonian routes' discrepancy is formed once, on the analysis' data
        cov = builtin_example(name)
        an = isomon.analyze(cov)
        report = cli.build_report(cov)["hamiltonians"]["max_discrepancy"]
        (check,) = [c for c in isomon.identity_report(cov) if c.name == "hamiltonian-two-route"]
        assert report == check.error == an.iso.hamiltonian_discrepancy < 1e-8


class TestIsomonodromyData:
    def test_cubic_hamiltonians_both_routes(self, a2):
        an = isomon.analyze(a2)
        iso = an.iso
        by_lam = {round(l.real): h for l, h in zip(an.critical.lam, iso.hamiltonians)}
        assert abs(by_lam[-2] - 1 / 288) < 1e-14
        assert abs(by_lam[2] + 1 / 288) < 1e-14
        for h1, h2 in zip(iso.hamiltonians, iso.hamiltonians_bergmann):
            assert abs(h1 - h2) < 1e-12

    def test_v_antisymmetric_and_consistent(self):
        cov = random_covering0((3, 2), seed=3)
        an = isomon.analyze(cov)
        iso = an.iso
        v = iso.v_matrix
        assert np.max(np.abs(v + v.T)) < 1e-12 * np.max(np.abs(v))
        lam = np.array(an.critical.lam)
        want = iso.gamma_matrix * (lam[None, :] - lam[:, None])
        assert np.max(np.abs(v - want)) < 1e-14 * max(1, np.max(np.abs(v)))

    def test_residue_row_structure(self):
        cov = random_covering0((2, 1), seed=4)
        iso = isomon.analyze(cov).iso
        for k, a in enumerate(iso.residues):
            mask = np.ones(len(iso.hamiltonians), dtype=bool)
            mask[k] = False
            assert np.all(a[mask, :] == 0)
            assert np.max(np.abs(a[k, :] - iso.v_matrix[k, :])) == 0

    def test_residue_extraction(self):
        # contour integrals of sum_k A_k/(lambda - lambda_k) recover each A_k
        cov = random_covering0((2, 2), seed=5)
        an = isomon.analyze(cov)
        iso = an.iso
        lam = np.array(an.critical.lam)
        m = len(lam)

        def mat(l):
            return sum(iso.residues[k] / (l - lam[k]) for k in range(m))

        gap = min(abs(lam[i] - lam[j]) for i in range(m) for j in range(i + 1, m))
        r = 0.2 * gap
        n = 64
        for k in range(m):
            acc = np.zeros((m, m), dtype=complex)
            for j in range(n):
                w = lam[k] + r * cmath.exp(2j * math.pi * j / n)
                acc += mat(w) * (w - lam[k])
            acc /= n
            assert np.max(np.abs(acc - iso.residues[k])) < 1e-12 * max(
                1, np.max(np.abs(iso.residues[k]))
            )

    def test_two_route_agreement_random(self):
        for seed, make in [(6, random_covering0), (7, random_covering1)]:
            cov = make((2, 1), seed=seed)
            iso = isomon.analyze(cov).iso
            h1 = np.array(iso.hamiltonians)
            h2 = np.array(iso.hamiltonians_bergmann)
            tol = 1e-8 if isinstance(cov, Covering0) else 1e-6
            assert np.max(np.abs(h1 - h2)) / np.max(np.abs(h1)) < tol


class TestDeformationEngine:
    def test_jacobian_well_conditioned(self):
        for cov in (random_covering0((2, 2), seed=8), random_covering1((2,), seed=9)):
            an = isomon.analyze(cov)
            bundle = lambda c: {"lam": oracles.continued_analysis(c, an).critical.lam}
            _, _, derivs = isomon.parameter_derivatives(cov, bundle)
            jac = derivs["lam"].T  # (M, P)
            m = cov.dim
            assert jac.shape == (m, m)
            assert np.linalg.cond(jac) < 1e8

    def test_lambda_derivative_self_consistency(self):
        cov = random_covering0((2, 1), seed=10)
        an = isomon.analyze(cov)
        # the functional F = lambda, evaluated apart from the bundle's own "lam"
        bundle = lambda c: {"lam": oracles.continued_analysis(c, an).critical.lam,
                            "F": oracles.continued_analysis(c, an).critical.lam}
        _, d = oracles.lambda_derivatives(cov, bundle)
        for k in range(cov.dim):
            for j in range(cov.dim):
                assert abs(d["F"][j, k] - (1.0 if j == k else 0.0)) < 1e-7

    def test_gamma_definition_finite_difference(self):
        # rotation coefficients: d sqrt(metric_mm) / d lambda_n / sqrt(metric_nn)
        cov = random_covering0((2, 1), seed=11)
        an = isomon.analyze(cov)
        iso = an.iso
        _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
        df = d["f"]  # df[n, m] = d f_n / d lambda_m
        m = cov.dim
        for i in range(m):
            for n in range(m):
                if i == n:
                    continue
                got = df[i, n] / an.f[n]
                assert abs(got - iso.gamma_matrix[i, n]) / abs(got) < 1e-5

    def test_schwarzian_gradient(self):
        for cov in (random_covering0((3, 2), seed=12), random_covering1((1, 1), seed=13)):
            an = isomon.analyze(cov)
            _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
            sw = np.array(an.critical.sw)
            err = np.max(np.abs(d["T"][0] - sw)) / np.max(np.abs(sw))
            assert err < 1e-5

    def test_diagonal_frame_derivative(self):
        # d log f_k / d lambda_k = sb_k/12 + f_{k,2}/(2 f_k), with the
        # quadratic frame coefficient from the Taylor data of p' at the
        # critical point: f_{k,2}/(2 f_k) = 5 beta^2/(6 alpha^3) - 3 gamma/(4 alpha^2)
        from hurwitztau.cover0 import eval_p_derivs as ev0
        from hurwitztau.cover1 import eval_p_derivs as ev1

        for cov, ev in (
            (random_covering0((2, 2), seed=21), ev0),
            (random_covering1((1, 1), seed=22), ev1),
        ):
            an = isomon.analyze(cov)
            cd = an.critical
            _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
            for k in range(len(cd.lam)):
                dlogf = d["fsq"][k, k] / (2 * cd.fsq[k])
                der = ev(cov, cd.pts[k], 4)
                al, be, ga = der[2], der[3] / 2, der[4] / 6
                rhs = cd.sb[k] / 12 + 5 * be * be / (6 * al**3) - 3 * ga / (4 * al**2)
                assert abs(dlogf - rhs) / max(1.0, abs(rhs)) < 1e-5

    def test_richardson_convergence_ratio(self):
        # central-difference convergence of a Hamiltonian along one parameter
        # (the residue; the constant coefficient only shifts all lambda)
        cov = random_covering0((2, 1), seed=14)
        an = isomon.analyze(cov)
        path = "poles.0.c.0"
        from hurwitztau.cover0 import params, set_param

        v0 = params(cov)[path]

        def h1(value):
            c2 = set_param(cov, path, value)
            return oracles.continued_analysis(c2, an).iso.hamiltonians[0]

        def central(h):
            return (h1(v0 + h) - h1(v0 - h)) / (2 * h)

        h = 2e-3 * max(1.0, abs(v0))
        d1, d2, d4 = central(h), central(h / 2), central(h / 4)
        ratio = abs(d1 - d2) / abs(d2 - d4)
        assert 3.5 < ratio < 4.5

    def test_hamiltonian_blowup_towards_caustic(self):
        # two critical values collide like sqrt(c); the Hamiltonians grow
        # monotonically through four decades of the tail coefficient.  Below
        # c = 1e-6 the critical points lie too near the pole for analyze to
        # verify, so the data is built from the critical data directly
        b = 0.3 + 0.2j
        values = []
        for c in np.geomspace(1e-1, 1e-8, 8):
            cov = Covering0((1, 1), (), (Pole(b, (complex(-c),)),))
            iso = isomon.build_isomonodromy(cov, critical_data0(cov))
            values.append(float(np.max(np.abs(iso.hamiltonians))))
        assert all(a < b2 for a, b2 in zip(values, values[1:]))
        assert values[-1] / values[0] > 1e3

    def test_caustic_guard_flags_partial_data(self):
        # near-coincident critical values: data still produced from the flagged
        # critical data, which analyze rejects as too near the pole to verify
        cov = Covering0((1, 1), (), (Pole(0.3 + 0.2j, (-1e-14,)),))
        cd = critical_data0(cov)
        assert cd.caustic
        iso = isomon.build_isomonodromy(cov, cd)
        assert len(iso.hamiltonians) == len(cd.lam) == 2
        with pytest.raises(OnBoundaryError, match="too ill-conditioned to verify"):
            isomon.analyze(cov)


class TestCausticFlag:
    """The critical data flags the caustic and never warns; ``sweep_ratios`` raises."""

    def _cusp(self, a1: float) -> Covering0:
        # z^3 + a1 z + 0.2: the two critical values meet as a1 -> 0
        return Covering0((3,), (0.2, a1), ())

    def test_sweep_into_the_caustic_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            with pytest.raises(CausticWarning, match="critical values nearly collide"):
                isomon.sweep_ratios(self._cusp(-1.0), "poly_coeffs.1", 1e-9, 3)

    def test_failing_step_comes_before_a_flagged_one(self, h12):
        # h12 thickened to Im sigma = 7: the round's steps include one whose lambda gap is
        # flagged and one whose global zero search fails; the failure raises
        with pytest.raises(ContourClashError, match="zero search failed"):
            isomon.sweep_ratios(h12, "modulus", 7j, 8)

    def test_analysis_near_the_caustic_flags_without_warning(self, monkeypatch):
        cov = self._cusp(1e-7)
        analyses = []
        real = isomon.analyze
        monkeypatch.setattr(isomon, "analyze",
                            lambda *args: analyses.append(real(*args)) or analyses[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            an = isomon.analyze(cov)
            isomon.identity_report(cov)
        assert an.critical.caustic
        assert len(analyses) == 2 and all(a.critical.caustic for a in analyses)


class TestEulerChecks:
    def test_sum_and_degree_both_genera(self):
        # sum H and E(G) = gamma are identities of the suite; |gamma| < 1, so
        # the euler-anomaly error is |E(G) - gamma|
        for cov in (random_covering0((2, 2), seed=15), random_covering1((1, 1), seed=16)):
            errors = {c.name: c.error for c in isomon.identity_report(cov)}
            assert errors["hamiltonian-sum"] < 1e-10
            assert errors["euler-anomaly"] < 1e-5
            an = isomon.analyze(cov)
            euler_log_tau = complex(np.array(an.iso.hamiltonians) @ np.array(an.critical.lam))
            assert abs(euler_log_tau - oracles.euler_scaling_expected(cov)) < 1e-8

    def test_scaling_degree_closed_form_cubic(self, a2):
        # for the cubic family: sum lambda_m H_m = -1/72
        assert abs(oracles.euler_scaling_expected(a2) - (-1.0 / 72.0)) < 1e-15


class TestIdentityReport:
    def test_all_pass_genus0(self):
        cov = random_covering0((2, 1, 1), seed=17)
        checks = isomon.identity_report(cov)
        assert {c.name for c in checks} >= {
            "tau-gradient",
            "rauch-ramification",
            "rauch-puncture",
            "schwarzian-gradient",
            "hamiltonian-two-route",
            "hamiltonian-sum",
            "euler-anomaly",
            "tau-route-ratio",
            "resultant-factorization",
        }
        for c in checks:
            assert c.passed, f"{c.name}: {c.error} >= {c.tol}"

    def test_all_pass_genus1(self):
        cov = random_covering1((2, 1), seed=18)
        checks = isomon.identity_report(cov)
        assert "modulus-flow" in {c.name for c in checks}
        for c in checks:
            assert c.passed, f"{c.name}: {c.error} >= {c.tol}"

    @pytest.mark.parametrize("name", ["h0_surf", "h12"])
    def test_route_b_scaled_by_a_constant_fails(self, monkeypatch, name):
        cov = builtin_example(name)
        _route_b_scaled(monkeypatch, (cover0, cover1)[cov.genus], 1e-6)
        checks = {c.name: c for c in isomon.identity_report(cov)}
        assert 5e-7 < checks["tau-route-ratio"].error < 2e-6
        assert [name for name, c in checks.items() if not c.passed] == ["tau-route-ratio"]

    def test_route_b_without_its_flat_terms_fails(self, monkeypatch):
        # route B's denominator without its (k+1)(k-2) log t terms, which an
        # order-3 pole weights by 4; R(f, g)'s factorization shares the denominator
        real = cover0.route_b_denominator_terms
        monkeypatch.setattr(cover0, "route_b_denominator_terms",
                            lambda ks, log_d, log_t: real(ks, log_d, []))
        checks = isomon.identity_report(random_covering0((2, 3), seed=4))
        assert [c.name for c in checks if not c.passed] == [
            "tau-route-ratio", "resultant-factorization"]

    @pytest.mark.parametrize("steps", [0, 1])
    def test_too_few_sweep_ratio_steps_raise(self, a2, steps):
        # one step has no segment to walk, and zero steps no covering at all
        with pytest.raises(ValueError, match="steps must be at least 2"):
            isomon.sweep_ratios(a2, "poly_coeffs.0", 0.3 + 0.2j, steps)

    def test_tolerance_override(self):
        cov = random_covering0((2, 1), seed=19)
        checks = isomon.identity_report(cov, tol=1e-15)
        assert all(c.tol == 1e-15 for c in checks)
        assert all(c.passed == (c.error < 1e-15) for c in checks)
        # below every nonzero error, some check fails
        assert any(not c.passed for c in isomon.identity_report(cov, tol=1e-30))
