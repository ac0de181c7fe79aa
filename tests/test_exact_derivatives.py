"""Exact deformation derivatives against the finite-difference engine.

``isomon.exact_parameter_derivatives`` differentiates the check bundle in
closed form at the critical points; ``isomon.parameter_derivatives`` (central
differences with one Richardson level) over the analyses that
``oracles.check_bundle`` continues from the base one is the independent
reference it is compared with.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import zeta_sigma_derivs
from hurwitztau import cover0, cover1, isomon
from hurwitztau.cli import main
from hurwitztau.elliptic import Modulus, weierstrass_context, zeta_derivs
from hurwitztau.poly import CPoly
from hurwitztau.samples import builtin_example, random_covering0, random_covering1

SETTINGS = settings(max_examples=8, deadline=None, database=None, derandomize=True)
DERIVATIVE_IDENTITIES = {
    "tau-gradient",
    "rauch-ramification",
    "rauch-puncture",
    "schwarzian-gradient",
    "euler-anomaly",
    "modulus-flow",
}


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    if not want.size:
        return 0.0
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def _bits(value):
    """``value`` bit for bit: arrays by their bytes, dataclasses and tuples item by item."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, field.name)) for field in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return repr(value)


def _assert_exact_matches_fd(cov) -> None:
    an = isomon.analyze(cov)
    paths, exact, _ = isomon.exact_parameter_derivatives(an)
    _, fd_paths, fd = isomon.parameter_derivatives(cov, oracles.check_bundle(an))
    assert paths == fd_paths
    assert set(exact) == set(fd)
    for key in fd:
        assert exact[key].shape == fd[key].shape, key
        assert _rel(exact[key], fd[key]) <= 1e-6, (key, _rel(exact[key], fd[key]))


def _assert_identities_tight(cov) -> None:
    checks = isomon.identity_report(cov)
    for c in checks:
        assert c.passed, f"{c.name}: {c.error} >= {c.tol}"
        if c.name in DERIVATIVE_IDENTITIES:
            assert c.error <= 1e-10, (c.name, c.error)


def _sample(sampler, profile, seed):
    try:
        return sampler(tuple(profile), seed)
    except RuntimeError:  # the sampler found no generic instance
        assume(False)


NAMED = {
    "a2": lambda: builtin_example("a2"),
    "h0_surf": lambda: builtin_example("h0_surf"),
    "h12": lambda: builtin_example("h12"),
    "g1(1,1)": lambda: random_covering1((1, 1), 5),
    "g1(1,1,1)": lambda: random_covering1((1, 1, 1), 7),
    "g1(4)": lambda: random_covering1((4,), 3),
    "g1(2,1)": lambda: random_covering1((2, 1), 2025),
    "g0(3,2)": lambda: random_covering0((3, 2), 3),
}


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_specs(self, name):
        _assert_exact_matches_fd(NAMED[name]())

    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10_000))
    @example([2, 4, 4], 15)
    def test_sampled_genus0(self, profile, seed):
        assume(len(profile) + sum(profile) - 2 >= 2)
        _assert_exact_matches_fd(_sample(random_covering0, profile, seed))

    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10_000))
    @example([1, 1], 11)
    @example([1, 1, 1], 12)
    @example([4], 13)
    @example([4, 1], 14)
    def test_sampled_genus1(self, profile, seed):
        assume(profile != [1] and sum(profile) <= 5)
        _assert_exact_matches_fd(_sample(random_covering1, profile, seed))


class TestIdentityErrors:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_specs(self, name):
        _assert_identities_tight(NAMED[name]())

    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10_000))
    @example([2, 4, 4], 16)
    def test_sampled_genus0(self, profile, seed):
        assume(len(profile) + sum(profile) - 2 >= 2)
        _assert_identities_tight(_sample(random_covering0, profile, seed))

    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10_000))
    @example([1, 1, 1], 12)
    @example([4], 13)
    def test_sampled_genus1(self, profile, seed):
        assume(profile != [1] and sum(profile) <= 5)
        _assert_identities_tight(_sample(random_covering1, profile, seed))


class TestOneAnalysis:
    @pytest.mark.parametrize("name", ["h0_surf", "g1(2,1)"])
    def test_identity_report_runs_no_fd(self, name, monkeypatch):
        # the one analysis solves the covering itself
        calls = {"analyze": [], "parameter_derivatives": []}
        for fn in calls:
            real = getattr(isomon, fn)

            def counted(*args, _real=real, _fn=fn, **kwargs):
                calls[_fn].append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(isomon, fn, counted)
        isomon.identity_report(NAMED[name]())
        assert len(calls["analyze"]) == 1
        assert calls["parameter_derivatives"] == []

    def test_genus0_sweep_builds_p_prime_once_per_step(self, monkeypatch):
        cov = random_covering0((3, 2), 3)
        calls = []
        real = cover0.p_prime_as_ratio
        monkeypatch.setattr(cover0, "p_prime_as_ratio", lambda cs: calls.append(cs) or real(cs))
        isomon.sweep_ratios(cov, "poles.0.b", cov.poles[0].b + 0.1, 5)
        assert [len(cs) for cs in calls] == [1, 4]  # step 0's solve, then one build for the rest

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_check_analysis_is_analyze_bit_for_bit(self, name, monkeypatch):
        # check verifies the analysis that analyze reports
        cov = NAMED[name]()
        made = []
        real = isomon.analyze
        monkeypatch.setattr(isomon, "analyze", lambda *args: made.append(real(*args)) or made[-1])
        isomon.identity_report(cov)
        isomon.analyze(cov)
        assert len(made) == 2  # the report's, then analyze's
        for field in dataclasses.fields(isomon.Analysis):
            assert _bits(getattr(made[0], field.name)) == _bits(getattr(made[1], field.name)), \
                field.name


class TestRouteAOnce:
    """T, log tau^-48 and G are differentiated through ``cover0.route_a`` itself."""

    def test_wrong_pole_orders_fail_tau_gradient(self, monkeypatch):
        # every pole order one too high in route A, wherever a module holds it: the
        # reported tau is wrong, and so must be the derivatives that check verifies
        real = cover0.route_a
        holders = [mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "hurwitztau" and getattr(mod, "route_a", None) is real]
        for mod in holders:
            monkeypatch.setattr(mod, "route_a", lambda ks, *logs: real([k + 1 for k in ks], *logs))
        checks = {c.name: c for c in isomon.identity_report(NAMED["h0_surf"]())}
        assert not checks["tau-gradient"].passed
        assert not checks["schwarzian-gradient"].passed


class TestContinuedBundle:
    """The finite-difference reference continues the analysis that ``check`` differentiates."""

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_base_is_the_analysis_bit_for_bit(self, name):
        # on the base analysis' own critical data (the seeded re-solve of the base
        # covering moves the points by round-off), the continued branches are the
        # principal ones and route A is analyze's
        an = isomon.analyze(NAMED[name]())
        got = oracles.continue_branches(an, an)
        assert (got.tau.T, got.tau.log_tau_inv48, got.tau.G) == (
            an.tau.T, an.tau.log_tau_inv48, an.tau.G)
        assert (got.f, got.h) == (an.f, an.h)


class TestPartials:
    """The covering-level partials d_theta [p, p', p''] at fixed points, and d_theta of the
    top tails, whose last one the residue constraint moves at genus 1."""

    @staticmethod
    def _tops(cov, _) -> np.ndarray:
        return np.array([p.top for p in cov.poles])

    @staticmethod
    def _fd(cov, path, z, evaluate, setter):
        v0 = (cover0, cover1)[cov.genus].params(cov)[path]
        h = 1e-5 * max(1.0, abs(v0))
        rows = [np.asarray(evaluate(setter(cov, path, v0 + s * h), z)) for s in (2, 1, -1, -2)]
        return (8.0 * (rows[1] - rows[2]) - (rows[0] - rows[3])) / (12.0 * h)

    def test_genus0_columns(self):
        cov = random_covering0((3, 2, 1), 4)
        z = np.array([0.3 + 0.7j, -1.1 + 0.2j, 2.0 - 1.0j])
        _, got, dtop = cover0.eval_param_derivs(cov, z)
        evaluate = lambda c, pts: np.array([cover0.eval_p_derivs(c, w, 2) for w in pts]).T
        for j, path in enumerate(cover0.deformation_params(cov)):
            want = self._fd(cov, path, z, evaluate, cover0.set_param)
            assert _rel(got[j], want) < 1e-8, path
            want = self._fd(cov, path, z, self._tops, cover0.set_param)
            assert np.max(np.abs(dtop[j] - want)) < 1e-8, path

    @pytest.mark.parametrize("profile,seed", [((1, 1, 1), 7), ((4, 1), 3), ((2, 2), 9)])
    def test_genus1_columns(self, profile, seed):
        cov = random_covering1(profile, seed)
        s = cov.modulus.sigma
        z = np.array([0.41 + 0.27 * s, 0.93 + 0.61 * s, 0.07 + 0.88 * s])
        _, got, dtop = cover1.eval_param_derivs(cov, z)
        evaluate = lambda c, pts: cover1.eval_p_derivs(c, pts, 2)
        for j, path in enumerate(cover1.params(cov)):  # poles.0.b too, which sweeps move
            want = self._fd(cov, path, z, evaluate, cover1.set_param)
            assert _rel(got[j], want) < 1e-7, path
            want = self._fd(cov, path, z, self._tops, cover1.set_param)
            assert np.max(np.abs(dtop[j] - want)) < 1e-8, path
        assert (dtop[:, -1] != 0).sum() == (len(profile) - 1 if profile[-1] == 1 else 1)

    @pytest.mark.parametrize("sigma", [0.23 + 0.97j, -0.4 + 0.35j, 0.1 + 1.6j])
    def test_zeta_sigma_derivatives(self, sigma):
        z = np.array([0.31 + 0.4j, 0.7 + 0.2j, 1.3 - 0.8j, 0.05 + 0.02j])
        h = 1e-4

        def rows(sig):
            return zeta_derivs(weierstrass_context(Modulus(sig)), z, 3)

        want = (8.0 * (rows(sigma + h) - rows(sigma - h))
                - (rows(sigma + 2 * h) - rows(sigma - 2 * h))) / (12.0 * h)
        got = zeta_sigma_derivs(weierstrass_context(Modulus(sigma)), z, 3)
        for n in range(4):
            assert _rel(got[n], want[n]) < 1e-6, n
        # a scalar point gives the same values as inside the batch
        one = zeta_sigma_derivs(weierstrass_context(Modulus(sigma)), complex(z[1]), 3)
        assert one == [complex(v) for v in got[:, 1]]

    def test_value_rows_do_not_depend_on_order(self):
        # the zero search takes h and h' from one order-2 evaluation; its
        # h row must be the order-1 row bit for bit
        cov = random_covering1((2, 1), 2025)
        s = cov.modulus.sigma
        z = np.array([0.41 + 0.27 * s, 0.93 + 0.61 * s, 0.07 + 0.88 * s])
        assert np.array_equal(cover1.eval_p_derivs(cov, z, 1)[1], cover1.eval_p_derivs(cov, z, 2)[1])


@pytest.fixture()
def global_solves(monkeypatch) -> list:
    """The genus-0 global root solves (``cover0._roots``) made since set up."""
    calls = []
    orig = cover0._roots

    def counted(row):
        calls.append(row)
        return orig(row)

    monkeypatch.setattr(cover0, "_roots", counted)
    return calls


class TestSeededGenus0:
    """A one-covering ``critical_round`` continues its seeds by Newton lanes on p' in pole-tail
    form, and solves globally where a lane fails or two lanes collapse."""

    def test_tracks_the_global_roots(self, global_solves):
        cov = random_covering0((3, 2), 3)
        cd = cover0.critical_data(cov)
        before = len(global_solves)  # the sampler's and the base's
        seeded = oracles.seeded_critical_data(cov, tuple(a + 1e-3 for a in cd.pts))
        assert len(global_solves) == before  # the seeded solve converged
        assert max(abs(a - b) for a, b in zip(seeded.pts, cd.pts)) < 1e-12

    @pytest.mark.parametrize("seeds", [(0.0, 1.1), (0.9, 1.1)], ids=["stationary", "one_basin"])
    def test_lanes_reach_both_roots(self, a2, seeds, global_solves):
        # p' = 3z^2 - 3: p''(0) = 0 fails the lane of the first seed, and both seeds of the
        # second pair converge to 1; the one global solve of the round finds both roots
        pts = oracles.seeded_critical_data(a2, seeds).pts
        assert len(global_solves) == 1
        got = sorted(pts, key=lambda z: z.real)
        assert max(abs(a - b) for a, b in zip(got, (-1.0, 1.0))) < 1e-12

    def test_coincident_seeds_solve_globally(self, a2, global_solves):
        # coincident seeds run coincident lanes, which collapse: the round solves once, globally
        cd = oracles.seeded_critical_data(a2, (1.1, 1.1))
        assert len(global_solves) == 1
        assert cd.pts == cover0.critical_data(a2).pts

    @pytest.mark.parametrize("profile", [(3,), (4,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3),
                                         (2, 3), (4, 2), (3, 1, 1)])
    def test_continued_points_are_at_round_off(self, profile, global_solves):
        # the genus-0 profiles of the benchmark pool, seeded off the global roots by 1e-3:
        # where the lanes stop, |f| sits below 1e-13 max|coeff|, as at the global roots
        for seed in range(20):
            cov = random_covering0(profile, seed)
            f = CPoly(tuple(cover0.p_prime_as_ratio([cov])[0][0]))
            seeds = [z * (1 + 1e-3) for z in cover0.critical_data(cov).pts]
            before = len(global_solves)
            cd = oracles.seeded_critical_data(cov, seeds)
            assert len(global_solves) == before  # the lanes continued every point
            assert max(abs(f(z)) for z in cd.pts) < 1e-13 * max(map(abs, f.coeffs))

    def test_points_are_newton_fixed_points(self):
        # a degree-9 f, seeded 1e-6 (relative) off the global points: the lanes on p' in
        # pole-tail form, and the data pass's one step after them, end well inside tolerance
        cov = random_covering0((2, 4, 3), 9730)
        seeds = [z * (1 + 1e-6) for z in cover0.critical_data(cov).pts]
        pts = np.array(oracles.seeded_critical_data(cov, seeds).pts)
        _, d1, d2 = cover0.eval_p_derivs(cov, pts, 2)
        assert np.max(np.abs(d1 / d2) / (1.0 + np.abs(pts))) < 1e-14


class TestNumericalFailureExit:
    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_cube_exits_6(self, command, tmp_path, capsys):
        # z^3: both critical points sit at 0, so the kernel values are undefined
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(
            {"genus": 0, "profile": [3], "poly_coeffs": [[0, 0], [0, 0]], "poles": []}))
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc == 6
        assert err.count("\n") == 1 and "CoincidentPointsError" in err
        assert "Traceback" not in err
