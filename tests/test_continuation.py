"""Sweeps continue the critical points instead of solving again, at both genera.

``sweep_ratios`` and ``identity_report`` walk their segment in one
``critical_round``: the first covering solves globally, the others continue
from tangent-predicted seeds, and a covering whose seeded solve fails solves
globally inside the round.

The global genus-1 zero search is counted by wrapping
``cover1.elliptic_zeros``, and the genus-0 solves by wrapping
``cover0._roots``, where every genus-0 solve finds its roots.  Every
continued route ratio is compared with the ratio from a fresh global solve
at the same covering.  The theta and sigma evaluations of a genus-1 check
are counted by wrapping ``elliptic._theta1_raw`` and ``cover1.sigma_w``,
and the per-modulus constants by wrapping ``log_dedekind_eta`` and
``eisenstein``.
"""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from hurwitztau import cli, cover0, cover1, elliptic, isomon
from hurwitztau.cli import covering_to_spec, main
from hurwitztau.elliptic import _split_lattice, lattice_distance
from hurwitztau.errors import CountMismatchError, NearPoleError, NonConvergenceError
from hurwitztau.samples import random_covering0, random_covering1


@pytest.fixture()
def searches(monkeypatch):
    """Number of global zero searches made since the fixture was set up."""
    count = {"n": 0}
    orig = cover1.elliptic_zeros

    def counted(*args, **kwargs):
        count["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(cover1, "elliptic_zeros", counted)
    return count


@pytest.fixture()
def routed(monkeypatch):
    """(covering, row) of every cross-route row made since set up, in order."""
    seen = []
    orig = isomon._route_row

    def recorded(cov, cd, tb, ta):
        row = orig(cov, cd, tb, ta)
        seen.append((cov, row))
        return row

    monkeypatch.setattr(isomon, "_route_row", recorded)
    return seen


def _sweep_rows(routed, cov):
    """The identity sweep's rows but the base covering's, in sweep order."""
    return [(c, row) for c, row in routed if c is not cov]


def _failing_lane(monkeypatch, failing_call: int, lane: int = 0):
    """Make the seeded Newton run number ``failing_call`` report ``lane`` unconverged.

    The run is the one ``_iterate_lanes`` call of a stacked seeded solve;
    its lanes are those of every covering of the round, covering by covering.
    """
    calls = {"n": 0}
    orig = cover1._iterate_lanes

    def lanes(*args, **kwargs):
        z, ok = orig(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == failing_call:
            ok = ok.copy()
            ok[lane] = False
        return z, ok

    monkeypatch.setattr(cover1, "_iterate_lanes", lanes)


def _global_ratio(cov) -> complex:
    cd = cover1.critical_data(cov)
    return isomon.route_ratio(cover1.tau_product(cov, cd), cover1.tau_resultant([cov], [cd])[0])


def _assert_ratios_match_global(pairs):
    assert pairs
    for cov, row in pairs:
        assert abs(row["route_ratio"] / _global_ratio(cov) - 1.0) < 1e-12


@pytest.fixture(scope="module")
def g1_21():
    # module scope: built (the sampler solves too) before ``searches`` counts
    return random_covering1((2, 1), seed=2025)


def _sweep20(cov):
    v0 = cov.poles[0].c[1]
    return isomon.sweep_ratios(cov, "poles.0.c.1", v0 * 1.285, 20)


class TestIdentityReport:
    @pytest.mark.parametrize("name", ["h12", "g1(2,1)"])
    def test_one_global_search(self, name, h12, g1_21, searches, routed):
        cov = h12 if name == "h12" else g1_21
        checks = isomon.identity_report(cov)
        assert searches["n"] == 1
        assert all(c.passed for c in checks)
        sweep = _sweep_rows(routed, cov)
        assert len(sweep) == 4  # the middle step reuses the base analysis
        _assert_ratios_match_global(sweep)

    def test_failing_lane_sends_only_its_covering_to_the_search(self, monkeypatch, g1_21,
                                                                 searches, routed):
        # the one round stacks the sweep steps 0, 1, 3 and 4 in that order;
        # lane 2M is the first lane of step 3
        _failing_lane(monkeypatch, failing_call=1, lane=2 * g1_21.dim)
        checks = isomon.identity_report(g1_21)
        assert searches["n"] == 2  # the base analysis and step 3 alone
        assert all(c.passed for c in checks)
        sweep = _sweep_rows(routed, g1_21)
        assert len(sweep) == 4
        cov3, row3 = sweep[2]
        assert row3["route_ratio"] == _global_ratio(cov3)
        _assert_ratios_match_global(sweep)


class TestSweepRatios:
    def test_one_global_search_over_20_steps(self, g1_21, searches):
        table = _sweep20(g1_21)
        assert searches["n"] == 1
        assert len(table) == 20
        _assert_ratios_match_global([(cov, row) for _, cov, row in table])

    def test_unconverged_lane_falls_back(self, monkeypatch, g1_21, searches):
        # the one lane run holds steps 1..19 in turn: lane M is the first lane of step 2
        _failing_lane(monkeypatch, failing_call=1, lane=g1_21.dim)
        table = _sweep20(g1_21)
        # step 0 searches; step 2's continuation fails and searches again
        assert searches["n"] == 2
        _, cov2, row2 = table[2]
        assert row2["route_ratio"] == _global_ratio(cov2)
        _assert_ratios_match_global([(c, row) for _, c, row in table])

    def test_collapsed_seeds_fall_back(self, g1_21, searches):
        cov = g1_21
        (step,) = _sweep_steps(cov, 1)
        _, cd = cover1.critical_round([cov, step], lambda zs: [(zs[0],) * len(zs)])
        assert searches["n"] == 2  # the base and the collapsed step
        assert cd.pts == cover1.critical_data(step).pts

    @pytest.mark.parametrize("path, move", [("modulus", 0.3), ("modulus", 0.4j),
                                            ("poles.0.b", 0.3 + 0.2j), ("constant", 2.0)])
    def test_genus1_paths_match_global(self, g1_21, path, move):
        # a modulus sweep changes sigma at every step: its round solves one step at a time
        v0 = cover1.params(g1_21)[path]
        table = isomon.sweep_ratios(g1_21, path, v0 + move * max(1.0, abs(v0)), 8)
        _assert_ratios_match_global([(cov, row) for _, cov, row in table])


class TestOneRoundPerWalk:
    """``sweep_ratios`` and ``identity_report`` reach the critical data through one round."""

    @pytest.mark.parametrize("walk", ["sweep", "check"])
    @pytest.mark.parametrize("genus", [0, 1])
    def test_one_critical_round(self, monkeypatch, walk, genus, g0_32, g1_21):
        cov, model = (g0_32, cover0) if genus == 0 else (g1_21, cover1)
        rounds = _calls(monkeypatch, model, "critical_round")
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        lanes = _calls(monkeypatch, cover1, "_iterate_lanes")
        if walk == "sweep":
            path = model.default_sweep_param(cov)
            v0 = model.params(cov)[path]
            steps = len(isomon.sweep_ratios(cov, path, v0 + 0.3 * max(1.0, abs(v0)), 20))
        else:
            isomon.identity_report(cov)
            steps = isomon.SWEEP_STEPS
        assert [len(coverings) for coverings, _ in rounds] == [steps]
        if genus == 0:
            assert [len(coverings) for (coverings,) in built] == [steps]
        else:
            assert not built and len(lanes) == 1


class TestSeededCriticalData:
    def test_unconverged_lane_raises(self, monkeypatch, g1_21):
        cov = g1_21
        z0 = cover1.critical_data(cov).pts
        _failing_lane(monkeypatch, failing_call=1)
        with pytest.raises(CountMismatchError, match="did not converge"):
            cover1.critical_data(cov, seeds=z0)

    def test_converged_lanes_return_the_zeros(self, g1_21):
        cov = g1_21
        cd = cover1.critical_data(cov)
        tracked = cover1.critical_data(cov, seeds=cd.pts)
        gaps = lattice_distance(np.array(tracked.pts) - np.array(cd.pts), cov.modulus.sigma)
        assert np.max(gaps) < 1e-12


@pytest.fixture()
def solves0(monkeypatch):
    """Genus-0 root solves since set up: global (seeds None) and seeded, counted where
    ``cover0.critical_data`` and ``cover0.critical_round`` both find their roots."""
    count = {"global": 0, "seeded": 0}
    orig = cover0._roots

    def counted(row, seeds):
        count["global" if seeds is None else "seeded"] += 1
        return orig(row, seeds)

    monkeypatch.setattr(cover0, "_roots", counted)
    return count


def _failing_seeded_solve(monkeypatch, failing_call: int):
    """Make the seeded genus-0 root solve number ``failing_call`` stall."""
    calls = {"n": 0}
    orig = cover0.all_roots

    def roots(f, start=None):
        if start is not None:
            calls["n"] += 1
            if calls["n"] == failing_call:
                raise NonConvergenceError("root iteration stalled")
        return orig(f, start)

    monkeypatch.setattr(cover0, "all_roots", roots)


def _global_ratio0(cov) -> complex:
    cd = cover0.critical_data(cov)
    return isomon.route_ratio(cover0.tau_product(cov, cd), cover0.tau_resultant([cov], [cd])[0])


@pytest.fixture(scope="module")
def g0_32():
    return random_covering0((3, 2), 3)


def _sweep20_g0(cov):
    v0 = cov.poles[0].b
    return isomon.sweep_ratios(cov, "poles.0.b", v0 + 0.3, 20)


class TestGenus0:
    def test_check_makes_one_global_solve(self, monkeypatch, g0_32, tmp_path, capsys, solves0):
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        logs = _calls(monkeypatch, cover0, "log_resultant")
        evals = _calls(monkeypatch, cover0, "eval_p_derivs")
        spec = tmp_path / "g0.json"
        spec.write_text(json.dumps(covering_to_spec(g0_32)))
        assert main(["check", str(spec)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        # one round: the base covering solves globally and the 4 other sweep steps
        # continue from it; f and g, R(f, g), R(f, f') and the order-4 frame rows of
        # all 5 come from one call each
        assert solves0 == {"global": 1, "seeded": 4}
        assert [len(cs) for (cs,) in built] == [5]
        assert [len(fs) for fs, _ in logs] == [5, 5]
        assert [len(cs) for cs, _, n_max in evals if n_max == 4] == [5]

    def test_sweep_ratios_match_global(self, g0_32, solves0):
        table = _sweep20_g0(g0_32)
        assert solves0 == {"global": 1, "seeded": 19}
        for _, cov, row in table:
            assert abs(row["route_ratio"] / _global_ratio0(cov) - 1.0) < 1e-12

    def test_failed_seeded_solve_falls_back(self, monkeypatch, g0_32, solves0):
        _failing_seeded_solve(monkeypatch, failing_call=2)
        table = _sweep20_g0(g0_32)
        # step 0 solves globally; step 2's seeded solve fails and solves again
        assert solves0 == {"global": 2, "seeded": 19}
        _, cov2, row2 = table[2]
        assert row2["route_ratio"] == _global_ratio0(cov2)

    def test_failed_step_of_the_round_solves_alone(self, monkeypatch, g0_32, solves0, routed):
        # the round solves the sweep steps 0, 1, 3 and 4 in that order; step 1 stalls
        _failing_seeded_solve(monkeypatch, failing_call=2)
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        checks = isomon.identity_report(g0_32)
        assert all(c.passed for c in checks)
        assert solves0 == {"global": 2, "seeded": 4}
        assert [len(cs) for (cs,) in built] == [5]  # step 1 solves its row of the round again
        sweep = _sweep_rows(routed, g0_32)
        assert len(sweep) == 4
        cov1, row1 = sweep[1]
        assert row1["route_ratio"] == _global_ratio0(cov1)


def _sweep_steps(cov, count):
    """The first ``count`` coverings of the identity sweep around ``cov``."""
    path = cover1.default_sweep_param(cov)
    return isomon._moved(cov, path, isomon._sweep_offsets(cov, path, 0.7))[:count]


@pytest.fixture(scope="module")
def g1_11():
    cov = random_covering1((1, 1), seed=11)
    assert cover1.default_sweep_param(cov) == "poles.1.b"
    return cov


class TestStackedSolve:
    @pytest.mark.parametrize("name, count", [("h12", 2), ("g1(2,1)", 3), ("g1(1,1)", 3)])
    def test_matches_per_covering_solves(self, name, count, h12, g1_21, g1_11):
        cov = {"h12": h12, "g1(2,1)": g1_21, "g1(1,1)": g1_11}[name]
        seeds = cover1.critical_data(cov).pts
        steps = _sweep_steps(cov, count)
        stacked = cover1.critical_round([cov, *steps], lambda zs: [seeds] * count)
        assert stacked[0].pts == seeds
        for step, cd in zip(steps, stacked[1:]):
            one = cover1.critical_data(step, seeds=seeds)
            for field in ("pts", "lam", "fsq"):
                got, want = np.array(getattr(cd, field)), np.array(getattr(one, field))
                assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-13, field

    def test_lane_at_a_pole_isolates_its_covering(self, g1_21, searches):
        cov = g1_21
        seeds = cover1.critical_data(cov).pts
        steps = _sweep_steps(cov, 3)
        at_pole = (steps[1].poles[0].b,) + seeds[1:]
        with pytest.raises(NearPoleError):
            cover1.eval_p_derivs(steps[:2], [np.array(seeds), np.array(at_pole)], 2)
        got = cover1.critical_round([cov, *steps], lambda zs: [seeds, at_pole, seeds])
        # the covering with the lane at the pole searches globally; the others continue
        assert searches["n"] == 3  # the seeds', the round's and the one fallback
        assert got[2].pts == cover1.critical_data(steps[1]).pts
        for k in (0, 2):
            want = cover1.critical_data(steps[k], seeds=seeds)
            assert np.max(np.abs(np.array(got[k + 1].pts) - np.array(want.pts))) < 1e-13


def _sweep_steps0(cov, count):
    """The first ``count`` coverings of the identity sweep around a genus-0 ``cov``."""
    path = cover0.default_sweep_param(cov)
    return isomon._moved(cov, path, isomon._sweep_offsets(cov, path, 0.7))[:count]


class TestStackedSolve0:
    @pytest.mark.parametrize("profile, seed", [((3, 2), 3), ((2, 1, 1), 5), ((4,), 2),
                                               ((3, 1, 1), 8)])
    def test_matches_per_covering_solves(self, profile, seed):
        cov = random_covering0(profile, seed)
        seeds = cover0.critical_data(cov).pts
        steps = _sweep_steps0(cov, 4)
        stacked = cover0.critical_round([cov, *steps], lambda pts: [seeds] * 4)
        assert stacked[0].pts == seeds
        for step, cd in zip(steps, stacked[1:]):
            one = cover0.critical_data(step, seeds=seeds)
            for field in ("pts", "lam", "fsq"):
                got, want = np.array(getattr(cd, field)), np.array(getattr(one, field))
                assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-12, field
            assert abs(cd.resultant_fg / one.resultant_fg - 1.0) < 1e-10

    def test_coincident_seeds_fail_their_covering_only(self, g0_32, solves0):
        seeds = cover0.critical_data(g0_32).pts
        steps = _sweep_steps0(g0_32, 3)
        got = cover0.critical_round([g0_32, *steps],
                                    lambda pts: [seeds, (seeds[0],) * len(seeds), seeds])
        # the seeds' solve and the round's; step 1's seeded solve fails and solves globally
        assert solves0 == {"global": 3, "seeded": 3}
        assert got[2].pts == cover0.critical_data(steps[1]).pts
        for k in (0, 2):
            assert got[k + 1].pts == cover0.critical_data(steps[k], seeds=seeds).pts


def _calls(monkeypatch, module, name: str) -> list:
    """The argument tuples of every call of ``module.name`` made since set up."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestGenus0OncePerSolve:
    """Each genus-0 solve computes the flat coordinates and R(f, f') once per covering."""

    def test_identity_report_builds_flat_coords_once_per_covering(self, monkeypatch, g0_32):
        flat = _calls(monkeypatch, cover0, "flat_coords")
        isomon.identity_report(g0_32)
        # the base covering and the 4 other sweep steps, each inside its solve
        assert len(flat) == 5

    def test_identity_report_stacks_log_resultants(self, monkeypatch, g0_32):
        logs = _calls(monkeypatch, cover0, "log_resultant")
        isomon.identity_report(g0_32)
        # R(f, g), then R(f, f'): one stacked call each for the base covering and
        # the 4 other sweep steps
        assert [len(fs) for fs, _ in logs] == [5, 5]

    def test_caustic_orders_solve_each_ray_in_one_call(self, monkeypatch):
        cov = random_covering0((2, 1, 1), seed=7)
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        logs = _calls(monkeypatch, cover0, "log_resultant")
        rays = cover0.caustic_orders(cov).rays
        assert len(rays) == len(built) == len(logs) == 4  # 2 top tails, 2 pole collisions
        assert [len(cs) for (cs,) in built] == [12] * len(rays)


@pytest.fixture(scope="module")
def g1_111():
    # pool spec g1-1.1.1-5: seeded at the base points instead of the tangent
    # prediction, one of its sweep lanes fails and goes to the global search
    return random_covering1((1, 1, 1), 914005)


class TestGenus1OncePerCheck:
    """A genus-1 check evaluates zeta once for the exact derivatives and sigma once for route B."""

    def test_exact_derivatives_make_one_theta_evaluation(self, monkeypatch, g1_21):
        an = isomon.analyze(g1_21)
        theta = _calls(monkeypatch, elliptic, "_theta1_raw")
        isomon.exact_parameter_derivatives(an)
        assert len(theta) == 1  # every pole, the d/dsigma column and p, ..., p^(3) share it

    def test_identity_report_makes_one_route_b_sigma_call(self, monkeypatch, g1_21):
        sigmas = _calls(monkeypatch, cover1, "sigma_w")
        isomon.identity_report(g1_21)
        assert len(sigmas) == 1  # the 5 sweep steps, the middle one included

    def test_predicted_seeds_keep_every_lane(self, g1_111, searches):
        checks = isomon.identity_report(g1_111)
        assert all(c.passed for c in checks)
        assert searches["n"] == 1  # the base analysis only

    @pytest.mark.parametrize("profile, seed", [((2,), 3), ((1, 1), 5), ((3,), 4), ((2, 1), 2025),
                                               ((1, 1, 1), 7), ((2, 2), 9), ((3, 1), 6), ((4,), 1)])
    def test_fused_partials_match_per_pole_code(self, profile, seed):
        cov = random_covering1(profile, seed)
        pts = np.array(cover1.critical_data(cov).pts)
        rows, partials = cover1.eval_param_derivs(cov, pts)
        want = oracles.per_pole_param_derivs(cov, pts)
        assert partials.shape == want.shape
        for path, got_p, want_p in zip(cover1.params(cov), partials, want):
            assert _rel(got_p, want_p) < 1e-12, path
        assert _rel(rows, cover1.eval_p_derivs(cov, pts, 3)) < 1e-12

    @pytest.mark.parametrize("name", ["h12", "g1(2,1)", "g1(1,1)"])
    def test_tau_resultant_many_matches_one_covering_calls(self, name, h12, g1_21, g1_11):
        """A stacked route-B call equals its one-element calls."""
        cov = {"h12": h12, "g1(2,1)": g1_21, "g1(1,1)": g1_11}[name]
        steps = [cov] + _sweep_steps(cov, 4)
        cds = cover1.critical_round(steps, lambda zs: [zs] * 4)
        stacked = cover1.tau_resultant(steps, cds)  # one sigma_w call for all five
        for step, cd, got in zip(steps, cds, stacked):
            one = cover1.tau_resultant([step], [cd])[0]
            assert abs(got.tau_inv48 / one.tau_inv48 - 1.0) < 1e-13
            assert abs(got.kappa / one.kappa - 1.0) < 1e-13


def _calls_anywhere(monkeypatch, name: str) -> list:
    """The argument tuples of every call of ``elliptic.name``, through any module holding it."""
    calls = []
    real = getattr(elliptic, name)
    for module in (elliptic, cover0, cover1, isomon, cli):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _unbuilt(cov):
    """A copy of ``cov`` whose Weierstrass context is not built yet, in or out of the cache."""
    elliptic.weierstrass_context.cache_clear()
    return dataclasses.replace(cov)


class TestGenus1OncePerModulus:
    """log eta, eta_tilde and g2 are computed once, in the context build of the modulus."""

    def test_identity_report_computes_log_eta_once(self, monkeypatch, g1_21):
        cov = _unbuilt(g1_21)
        logs = _calls_anywhere(monkeypatch, "log_dedekind_eta")
        isomon.identity_report(cov)
        assert len(logs) == 1  # the base analysis and both routes of the 5 sweep steps

    def test_build_report_computes_log_eta_once(self, monkeypatch, g1_21):
        cov = _unbuilt(g1_21)
        logs = _calls_anywhere(monkeypatch, "log_dedekind_eta")
        cli.build_report(cov)
        assert len(logs) == 1  # the analysis and route A

    def test_context_build_takes_two_eisenstein_series(self, monkeypatch):
        series = _calls_anywhere(monkeypatch, "eisenstein")
        elliptic.WeierstrassContext.create(elliptic.Modulus(0.3 + 1.1j))
        assert sorted(weight for _, weight in series) == [2, 4]  # eta_tilde and g2, no E_6


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def _tangent_fd(cov, path, base_pts, h_rel=1e-4) -> np.ndarray:
    """d z_m/d path by central differences (one Richardson level) of the continued points."""
    model = (cover0, cover1)[cov.genus]
    v0 = model.params(cov)[path]
    h = h_rel * max(1.0, abs(v0))
    z0 = np.array(base_pts)
    moved = []
    for s in (2, 1, -1, -2):
        step = model.set_param(cov, path, v0 + s * h)
        shift = np.array(model.critical_data(step, seeds=base_pts).pts) - z0
        if cov.genus:  # the points are reduced to the cell: take the shortest lattice shift
            shift = _split_lattice(shift, step.modulus.sigma)[2]
        moved.append(shift)
    return (8.0 * (moved[1] - moved[2]) - (moved[0] - moved[3])) / (12.0 * h)


class TestCriticalPointTangent:
    """The tangent dz that seeds the sweep is the derivative of the continued critical points."""

    @pytest.mark.parametrize("name", ["a2", "g0(3,2)", "g0(2,1,1)", "h12", "g1(2,1)", "g1(1,1,1)"])
    def test_matches_central_differences(self, name, a2, h12, g1_21, g0_32):
        cov = {"a2": a2, "g0(3,2)": g0_32, "g0(2,1,1)": random_covering0((2, 1, 1), 5),
               "h12": h12, "g1(2,1)": g1_21, "g1(1,1,1)": random_covering1((1, 1, 1), 7)}[name]
        an = isomon.analyze(cov)
        paths, _, dz = isomon.exact_parameter_derivatives(an)
        assert dz.shape == (len(paths), len(an.pts))
        fd = np.array([_tangent_fd(cov, path, an.pts) for path in paths])
        assert _rel(dz, fd) < 1e-6
