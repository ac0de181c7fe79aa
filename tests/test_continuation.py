"""Sweeps continue the critical points instead of solving again, at both genera.

``sweep_ratios`` solves the first covering of its segment globally and
continues the others from tangent-predicted seeds in one ``critical_round``,
whose Newton lanes (``cover0._seeded_points``) serve both genera; a covering
whose lanes fail solves globally inside the round, which makes no other
global solve.
``identity_report`` walks no segment: it solves the covering once.

The global genus-1 zero search is counted by wrapping
``cover1.elliptic_zeros``, the global genus-0 solves by wrapping
``cover0._roots``, and the lane runs of both genera by wrapping
``cover0._iterate_lanes``.  Every
continued route ratio is compared with the ratio from a fresh global solve
at the same covering.  The theta and sigma evaluations of a genus-1 check
are counted by wrapping ``elliptic._theta1_raw`` and ``cover1.sigma_w``,
and the per-modulus constants by wrapping ``log_dedekind_eta`` and
``eisenstein``.
"""

import cmath
import dataclasses
import json

import numpy as np
import pytest

import oracles
from hurwitztau import cli, cover0, cover1, elliptic, isomon
from hurwitztau.cli import covering_to_spec, main
from hurwitztau.elliptic import _split_lattice, lattice_distance
from hurwitztau.errors import NearPoleError, NonConvergenceError
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


def _segment(cov, path: str, count: int) -> list:
    """The first ``count`` of four coverings around ``cov``: ``path`` moved by -5%, -2.5%,
    2.5% and 5% of max(1, |value|) along the phase 0.7."""
    model = (cover0, cover1)[cov.genus]
    v0 = model.params(cov)[path]
    delta = 0.1 * max(1.0, abs(v0)) * cmath.exp(0.7j)
    return [model.set_param(cov, path, v0 + delta * f) for f in (-0.5, -0.25, 0.25, 0.5)][:count]


def _failing_lane(monkeypatch, failing_call: int, lane: int = 0):
    """Make the seeded Newton run number ``failing_call`` report ``lane`` unconverged.

    The run is the one ``cover0._iterate_lanes`` call of a round's ``_seeded_points``, at
    either genus; its lanes are those of every covering of the round, covering by covering.
    """
    calls = {"n": 0}
    orig = cover0._iterate_lanes

    def lanes(*args, **kwargs):
        z, ok = orig(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == failing_call:
            ok = ok.copy()
            ok[lane] = False
        return z, ok

    monkeypatch.setattr(cover0, "_iterate_lanes", lanes)


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
    def test_one_global_search(self, monkeypatch, name, h12, g1_21, searches):
        cov = h12 if name == "h12" else g1_21
        lanes = _calls(monkeypatch, cover0, "_iterate_lanes")
        checks = isomon.identity_report(cov)
        assert searches["n"] == 1 and not lanes  # the covering's own solve, no continuation
        assert all(c.passed for c in checks)


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
        zs = cover1.critical_data(cov).pts
        (cd,) = cover1.critical_round([step], [(zs[0],) * len(zs)])
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
    """``sweep_ratios`` reaches the critical data through the ``critical_data`` of step 0 and
    one round of the others; ``identity_report`` through the one ``critical_data`` of its
    analysis."""

    @pytest.mark.parametrize("walk", ["sweep"])
    @pytest.mark.parametrize("genus", [0, 1])
    def test_one_critical_round(self, monkeypatch, walk, genus, g0_32, g1_21):
        cov, model, path = (g0_32, cover0, "poles.0.b") if genus == 0 else (
            g1_21, cover1, "poles.0.c.1")
        rounds = _calls(monkeypatch, model, "critical_round")
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        lanes = _calls(monkeypatch, cover0, "_iterate_lanes")
        v0 = model.params(cov)[path]
        steps = len(isomon.sweep_ratios(cov, path, v0 + 0.3 * max(1.0, abs(v0)), 20))
        assert [len(coverings) for coverings, _ in rounds] == [steps - 1]
        assert len(lanes) == 1  # the round's one lane run, at both genera
        if genus == 0:  # step 0's build, then the round's
            assert [len(coverings) for (coverings,) in built] == [1, steps - 1]
        else:
            assert not built

    @pytest.mark.parametrize("genus", [0, 1])
    def test_check_solves_once(self, monkeypatch, genus, g0_32, g1_21):
        # the one critical_data of the analysis, and no round
        cov, model = (g0_32, cover0) if genus == 0 else (g1_21, cover1)
        depth, solves, rounds = [0], [], []
        real_data, real_round = model.critical_data, model.critical_round

        def critical_data(*args):
            solves.append(args)
            depth[0] += 1
            try:
                return real_data(*args)
            finally:
                depth[0] -= 1

        def critical_round(*args):
            rounds.append(depth[0])
            return real_round(*args)

        monkeypatch.setattr(model, "critical_data", critical_data)
        monkeypatch.setattr(model, "critical_round", critical_round)
        assert all(c.passed for c in isomon.identity_report(cov))
        assert solves == [(cov,)]
        assert rounds == []


class TestSeededCriticalData:
    """A one-covering ``critical_round`` continues its seeds, and searches globally where a
    lane fails."""

    def test_unconverged_lane_searches_globally(self, monkeypatch, g1_21, searches):
        cov = g1_21
        z0 = cover1.critical_data(cov).pts
        _failing_lane(monkeypatch, failing_call=1)
        (cd,) = cover1.critical_round([cov], [z0])
        assert searches["n"] == 2  # the base's, then the failed lane's covering's
        assert cd.pts == z0

    def test_converged_lanes_return_the_zeros(self, g1_21, searches):
        cov = g1_21
        cd = cover1.critical_data(cov)
        tracked = oracles.seeded_critical_data(cov, cd.pts)
        assert searches["n"] == 1
        gaps = lattice_distance(np.array(tracked.pts) - np.array(cd.pts), cov.modulus.sigma)
        assert np.max(gaps) < 1e-12


@pytest.fixture()
def solves0(monkeypatch):
    """Global genus-0 root solves (``cover0._roots``) and Newton lane runs of either genus
    (``cover0._iterate_lanes``) since set up."""
    count = {"global": 0, "lanes": 0}
    for name, key in (("_roots", "global"), ("_iterate_lanes", "lanes")):
        def counted(*args, _orig=getattr(cover0, name), _key=key):
            count[_key] += 1
            return _orig(*args)

        monkeypatch.setattr(cover0, name, counted)
    return count


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
        # the covering solves globally and continues nothing; f and g, R(f, f') and the
        # order-5 frame rows (with the Newton step) come from one call each, and R(f, g)
        # from the polished points, without a determinant
        assert solves0 == {"global": 1, "lanes": 0}
        assert [len(cs) for (cs,) in built] == [1]
        assert [len(fs) for fs, _ in logs] == [1]
        assert [len(cs) for cs, _, n_max in evals if n_max == 5] == [1]

    def test_sweep_ratios_match_global(self, g0_32, solves0):
        table = _sweep20_g0(g0_32)
        assert solves0 == {"global": 1, "lanes": 1}  # step 0, then one run for steps 1-19
        for _, cov, row in table:
            assert abs(row["route_ratio"] / _global_ratio0(cov) - 1.0) < 1e-12

    def test_failed_seeded_solve_falls_back(self, monkeypatch, g0_32, solves0):
        # the one lane run holds steps 1..19 in turn: lane M is the first lane of step 2
        _failing_lane(monkeypatch, failing_call=1, lane=g0_32.dim)
        table = _sweep20_g0(g0_32)
        # step 0 solves globally; step 2's lane fails and its covering solves again
        assert solves0 == {"global": 2, "lanes": 1}
        _, cov2, row2 = table[2]
        assert row2["route_ratio"] == _global_ratio0(cov2)

    def test_failed_step_0_raises_before_the_round(self, monkeypatch, g0_32):
        # step 0 solves alone, and its error raises before the other steps are solved
        def stalled(c):
            raise NonConvergenceError("root iteration stalled")

        monkeypatch.setattr(cover0, "critical_data", stalled)
        rounds = _calls(monkeypatch, cover0, "critical_round")
        with pytest.raises(NonConvergenceError):
            _sweep20_g0(g0_32)
        assert rounds == []

    def test_failed_step_of_the_round_solves_alone(self, monkeypatch, g0_32, solves0):
        # step 0 solves alone; the round continues steps 1, ..., 4 in that order; a lane of
        # step 2 stalls
        _failing_lane(monkeypatch, failing_call=1, lane=g0_32.dim)
        built = _calls(monkeypatch, cover0, "p_prime_as_ratio")
        logs = _calls(monkeypatch, cover0, "log_resultant")
        table = isomon.sweep_ratios(g0_32, "poles.0.b", g0_32.poles[0].b + 0.05, 5)
        assert solves0 == {"global": 2, "lanes": 1}
        # step 2 solves its row of the round again; R(f, f') stacks the round's 4
        assert [len(cs) for (cs,) in built] == [1, 4]
        assert [len(fs) for fs, _ in logs] == [1, 4]
        _, cov2, row2 = table[2]
        assert row2["route_ratio"] == _global_ratio0(cov2)


def _sweep_steps(cov, count):
    """The first ``count`` coverings of the segment around ``cov``, along ``poles.1.b`` for
    simple poles and the top tail of pole 0 otherwise."""
    k1 = cov.poles[0].order
    return _segment(cov, f"poles.0.c.{k1 - 1}" if k1 > 1 else "poles.1.b", count)


@pytest.fixture(scope="module")
def g1_11():
    return random_covering1((1, 1), seed=11)


class TestStackedSolve:
    @pytest.mark.parametrize("name, count", [("h12", 2), ("g1(2,1)", 3), ("g1(1,1)", 3)])
    def test_matches_per_covering_solves(self, name, count, h12, g1_21, g1_11):
        cov = {"h12": h12, "g1(2,1)": g1_21, "g1(1,1)": g1_11}[name]
        seeds = cover1.critical_data(cov).pts
        steps = _sweep_steps(cov, count)
        stacked = cover1.critical_round(steps, [seeds] * count)
        for step, cd in zip(steps, stacked):
            one = oracles.seeded_critical_data(step, seeds)
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
        got = cover1.critical_round(steps, [seeds, at_pole, seeds])
        # the covering with the lane at the pole searches globally; the others continue
        assert searches["n"] == 2  # the seeds' and the one fallback
        assert got[1].pts == cover1.critical_data(steps[1]).pts
        for k in (0, 2):
            want = oracles.seeded_critical_data(steps[k], seeds)
            assert np.max(np.abs(np.array(got[k].pts) - np.array(want.pts))) < 1e-13


def _sweep_steps0(cov, count):
    """The first ``count`` coverings of the segment around a genus-0 ``cov``, along
    ``poles.0.b`` or, without poles, ``poly_coeffs.0``."""
    return _segment(cov, "poles.0.b" if cov.poles else "poly_coeffs.0", count)


class TestStackedSolve0:
    @pytest.mark.parametrize("profile, seed", [((3, 2), 3), ((2, 1, 1), 5), ((4,), 2),
                                               ((3, 1, 1), 8)])
    def test_matches_per_covering_solves(self, profile, seed):
        cov = random_covering0(profile, seed)
        seeds = cover0.critical_data(cov).pts
        steps = _sweep_steps0(cov, 4)
        stacked = cover0.critical_round(steps, [seeds] * 4)
        for step, cd in zip(steps, stacked):
            one = oracles.seeded_critical_data(step, seeds)
            for field in ("pts", "lam", "fsq"):
                got, want = np.array(getattr(cd, field)), np.array(getattr(one, field))
                assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-12, field
            assert abs(cd.resultant_ratio / one.resultant_ratio - 1.0) < 1e-10

    def test_coincident_seeds_fail_their_covering_only(self, g0_32, solves0):
        seeds = cover0.critical_data(g0_32).pts
        steps = _sweep_steps0(g0_32, 3)
        got = cover0.critical_round(steps, [seeds, (seeds[0],) * len(seeds), seeds])
        # the seeds' solve; step 1's lanes collapse onto one point and it solves globally
        assert solves0 == {"global": 2, "lanes": 1}
        assert got[1].pts == cover0.critical_data(steps[1]).pts
        for k in (0, 2):
            assert got[k].pts == oracles.seeded_critical_data(steps[k], seeds).pts

    @pytest.mark.parametrize("path, value, error, message", [
        ("poles.0.b", 1e110, OverflowError, "f overflows at its own roots"),
        ("poles.0.b", 1e200, NonConvergenceError, "a coefficient is not finite"),
        ("poles.0.c.0", 1e300, OverflowError, "overflow at the critical points"),
    ])
    def test_failing_covering_raises_its_own_error(self, path, value, error, message):
        # a (2, 1) covering moved far out: its global solve (pole at 1e110 or 1e200) or its
        # frame rows (tail 1e300) fail; collapsed seeds send it to that global solve, between
        # two coverings that continue, and the round raises what its critical_data raises
        ok = random_covering0((2, 1), 4)
        bad = cover0.set_param(ok, path, value)
        seeds = cover0.critical_data(ok).pts
        with np.errstate(all="ignore"):
            with pytest.raises(error, match=message) as alone:
                cover0.critical_data(bad)
            with pytest.raises(error) as got:
                cover0.critical_round([ok, bad, ok], [seeds, (seeds[0],) * len(seeds), seeds])
        assert str(got.value) == str(alone.value)


class TestRoundContinuesOnly:
    """``critical_round`` continues its seeds: where every seed converges, it makes no global
    solve, and it runs one set of Newton lanes per modulus."""

    @pytest.mark.parametrize("genus", [0, 1])
    def test_converged_seeds_make_no_global_solve(self, genus, g0_32, g1_21, searches, solves0):
        cov, model = (g0_32, cover0) if genus == 0 else (g1_21, cover1)
        seeds = model.critical_data(cov).pts
        steps = (_sweep_steps0 if genus == 0 else _sweep_steps)(cov, 4)
        before = (dict(solves0), searches["n"])
        cds = model.critical_round(steps, [seeds] * 4)
        assert [type(cd) for cd in cds] == [cover0.CriticalData] * 4  # one record at both genera
        for cd in cds:
            if genus:  # no R(f, g): route B's genus-0 data stays None
                assert (cd.resultant_ratio, cd.log_resultant_ff, cd.log_pole_flat) == (None,) * 3
            else:  # the Bergmann and Wirtinger connections coincide on the sphere
                assert cd.sw == cd.sb
        assert (solves0["global"], searches["n"]) == (before[0]["global"], before[1])
        assert solves0["lanes"] - before[0]["lanes"] == 1

    @pytest.mark.parametrize("genus, path, runs", [(0, "poles.0.b", 1), (1, "poles.0.c.1", 1),
                                                   (1, "modulus", 4)])
    def test_one_lane_run_per_modulus(self, monkeypatch, genus, path, runs, g0_32, g1_21):
        # genus 0 and a genus-1 round at one modulus run their lanes once; a modulus
        # path gives each covering a modulus, and so a run, of its own
        cov, model = (g0_32, cover0) if genus == 0 else (g1_21, cover1)
        seeds = model.critical_data(cov).pts
        steps = _segment(cov, path, 4)
        lanes = _calls(monkeypatch, cover0, "_iterate_lanes")
        cds = model.critical_round(steps, [seeds] * 4)
        assert all(isinstance(cd, cover0.CriticalData) for cd in cds)
        assert [z.size for _, z, *_ in lanes] == [4 * cov.dim // runs] * runs


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
        assert len(flat) == 1  # inside the covering's solve


@pytest.fixture(scope="module")
def g1_111():
    # pool spec g1-1.1.1-5: seeded at the base points instead of the tangent
    # prediction, one of its segment's lanes fails and goes to the global search
    return random_covering1((1, 1, 1), 914005)


class TestGenus1OncePerCheck:
    """A genus-1 check's exact derivatives read the zeta rows of its critical data, and route B
    evaluates sigma once."""

    def test_exact_derivatives_make_no_own_theta_pass(self, monkeypatch, g1_21):
        an = isomon.analyze(g1_21)
        theta = _calls(monkeypatch, elliptic, "_theta1_raw")
        isomon.exact_parameter_derivatives(an)
        assert len(theta) == 0  # every pole, the d/dsigma column and p, ..., p^(3) read cd's rows

    def test_identity_report_makes_eight_theta_passes(self, monkeypatch, g1_21):
        # the zero search's moment pass and 4 Aberth steps, the critical-data pass, the kernel's
        # wp and route B's sigma_w: nine when the exact derivatives made a pass of their own
        g1_21.ctx  # built: its calibration passes are not the report's
        theta = _calls(monkeypatch, elliptic, "_theta1_raw")
        isomon.identity_report(g1_21)
        assert len(theta) == 8

    @pytest.mark.parametrize("profile, seed", [((2,), 3), ((1, 1, 1), 7), ((3, 1), 6)])
    def test_kept_zeta_rows_give_the_bits_of_a_fresh_evaluation(self, profile, seed):
        # a global solve, and each covering of a stacked round
        cov = random_covering1(profile, seed)
        cd = cover1.critical_data(cov)
        steps = _sweep_steps(cov, 3)
        for step, data in zip([cov] + steps, [cd] + cover1.critical_round(steps, [cd.pts] * 3)):
            pts = np.array(data.pts)
            kept = cover1.eval_param_derivs(step, pts, data.zeta_rows)
            fresh = cover1.eval_param_derivs(step, pts)
            assert data.zeta_rows is not None
            assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, fresh))
        assert cd == dataclasses.replace(cd, zeta_rows=None) and "zeta_rows" not in repr(cd)

    def test_identity_report_makes_one_route_b_sigma_call(self, monkeypatch, g1_21):
        sigmas = _calls(monkeypatch, cover1, "sigma_w")
        isomon.identity_report(g1_21)
        assert len(sigmas) == 1

    def test_predicted_seeds_keep_every_lane(self, g1_111, searches):
        # poles.1.b moved by 5% of max(1, |b|) along the phase 4.863, in 3 steps
        b = g1_111.poles[1].b
        table = isomon.sweep_ratios(g1_111, "poles.1.b",
                                    b + 0.05 * max(1.0, abs(b)) * cmath.exp(4.863j), 3)
        assert searches["n"] == 1  # step 0 only
        _assert_ratios_match_global([(cov, row) for _, cov, row in table])

    @pytest.mark.parametrize("profile, seed", [((2,), 3), ((1, 1), 5), ((3,), 4), ((2, 1), 2025),
                                               ((1, 1, 1), 7), ((2, 2), 9), ((3, 1), 6), ((4,), 1)])
    def test_fused_partials_match_per_pole_code(self, profile, seed):
        cov = random_covering1(profile, seed)
        pts = np.array(cover1.critical_data(cov).pts)
        rows, partials, _ = cover1.eval_param_derivs(cov, pts)
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
        cds = cover1.critical_round(steps, [cover1.critical_data(cov).pts] * 5)
        stacked = cover1.tau_resultant(steps, cds)  # one sigma_w call for all five
        for step, cd, got in zip(steps, cds, stacked):
            one = cover1.tau_resultant([step], [cd])[0]
            assert abs(got.tau_inv48 / one.tau_inv48 - 1.0) < 1e-13
            assert abs(cmath.exp(got.log_kappa - one.log_kappa) - 1.0) < 1e-13


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
        assert len(logs) == 1  # the analysis and route B

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
        shift = np.array(oracles.seeded_critical_data(step, base_pts).pts) - z0
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
        assert dz.shape == (len(paths), len(an.critical.pts))
        fd = np.array([_tangent_fd(cov, path, an.critical.pts) for path in paths])
        assert _rel(dz, fd) < 1e-6
