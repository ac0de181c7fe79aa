import argparse
import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitztau import cli, cover0, cover1, isomon
from hurwitztau.cli import covering_to_spec, load_covering, main
from hurwitztau.cover0 import Pole
from hurwitztau.samples import builtin_example, random_covering0, random_covering1

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc, encoding="utf-8")
    return str(p)


def _a2_file(tmp_path):
    return _write(tmp_path, "a2.json", covering_to_spec(builtin_example("a2")))


def _h12_file(tmp_path):
    return _write(tmp_path, "h12.json", covering_to_spec(builtin_example("h12")))


# two finite poles at each genus, next to the one-pole built-in examples
TWO_POLES = {
    "g0_2poles": lambda: random_covering0((2, 1, 1), 3),
    "g1_2poles": lambda: random_covering1((1, 1), 3),
}


def _spec_file(tmp_path, name):
    cov = TWO_POLES[name]() if name in TWO_POLES else builtin_example(name)
    return _write(tmp_path, f"{name}.json", covering_to_spec(cov))


class TestAnalyze:
    def test_cubic_report_values(self, tmp_path, capsys):
        rc = main(["analyze", _a2_file(tmp_path), "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        lams = sorted(v[0] for v in rep["canonical"]["lambda"])
        assert abs(lams[0] + 2) < 1e-10 and abs(lams[1] - 2) < 1e-10
        hs = sorted(v[0] for v in rep["hamiltonians"]["quadratic"])
        assert abs(hs[0] + 1 / 288) < 1e-12 and abs(hs[1] - 1 / 288) < 1e-12
        assert rep["hamiltonians"]["status"] == "checked"
        assert rep["hamiltonians"]["max_discrepancy"] < 1e-10

    def test_critical_values_sort_by_real_then_imaginary_part(self, monkeypatch, tmp_path,
                                                              capsys):
        # a real quartic: a real critical point and a conjugate pair.  The global solve is
        # made to return the pair bit for bit conjugate (the eigensolve leaves it a few ulps
        # off); the data pass keeps it so, so the two critical values have bit-equal real
        # parts, and the one with the smaller imaginary part comes first
        cov = cover0.Covering0((4,), (0.1, -0.2, 0.9), ())
        solve = cover0._roots

        def conjugate_pair(row):
            lower, real, _ = sorted(solve(row), key=lambda z: z.imag)
            return [lower, lower.conjugate(), complex(real.real)]

        monkeypatch.setattr(cover0, "_roots", conjugate_pair)
        assert main(["analyze", _write(tmp_path, "q.json", covering_to_spec(cov)), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)["canonical"]
        assert len({re for re, _ in rep["lambda"]}) == 2  # the tie
        assert rep["lambda"] == sorted(rep["lambda"])
        for lam, z in zip(rep["lambda"], rep["points"]):  # each point next to its value
            assert abs(cover0.eval_p_derivs(cov, complex(*z), 0)[0] - complex(*lam)) < 1e-12

    def test_tau_status_reads_the_route_constant(self, monkeypatch, tmp_path, capsys):
        # route B scaled by e^1e-6 is off the closed-form profile constant by 1e-6
        real = cover0.tau_resultant
        monkeypatch.setattr(cover0, "tau_resultant", lambda cs, cds: [
            dataclasses.replace(tb, log_tau_inv48=tb.log_tau_inv48 + 1e-6) for tb in real(cs, cds)])
        assert main(["analyze", _a2_file(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tau"]["status"] == "warned"

    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12"])
    def test_hamiltonian_status_reads_the_check_tolerance(self, name, monkeypatch, tmp_path,
                                                          capsys):
        # a discrepancy of 5e-8 fails check at genus 0 (1e-8) and passes it at genus 1
        # (1e-6); the analyze status says the same
        monkeypatch.setattr(isomon.IsomonodromyData, "hamiltonian_discrepancy",
                            property(lambda self: 5e-8))
        spec = _spec_file(tmp_path, name)
        passed = main(["check", spec]) == 0
        assert ("FAIL  hamiltonian-two-route" in capsys.readouterr().out) is not passed
        assert passed is (builtin_example(name).genus == 1)
        assert main(["analyze", spec, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)["hamiltonians"]["status"]
        assert status == ("checked" if passed else "warned")

    def test_malformed_json(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", '{"genus": 0,\n  "profile": [3,],\n}')
        rc = main(["analyze", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line" in err and "column" in err

    def test_coincident_poles(self, tmp_path, capsys):
        doc = {
            "genus": 0,
            "profile": [1, 1, 1],
            "poly_coeffs": [],
            "poles": [
                {"b": [1.0, 0.0], "c": [[1.0, 0.0]]},
                {"b": [1.0, 0.0], "c": [[2.0, 0.0]]},
            ],
        }
        rc = main(["analyze", _write(tmp_path, "s1.json", doc)])
        assert rc == 3
        assert "S1" in capsys.readouterr().err

    def test_strict_near_caustic(self, tmp_path, capsys):
        # nearly-cube polynomial: interior point with colliding critical
        # values (no boundary component involved)
        doc = {
            "genus": 0,
            "profile": [3],
            "poly_coeffs": [[0.0, 0.0], [-3e-8, 0.0]],
            "poles": [],
        }
        rc = main(["analyze", _write(tmp_path, "c.json", doc), "--strict"])
        assert rc == 4
        rc = main(["analyze", _write(tmp_path, "c.json", doc), "--json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["caustic"]["warned"] is True

    def test_human_output(self, tmp_path, capsys):
        rc = main(["analyze", _a2_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Hamiltonians" in out and "tau" in out

    def test_json_schema_stable(self, tmp_path, capsys):
        main(["analyze", _a2_file(tmp_path), "--json"])
        rep1 = json.loads(capsys.readouterr().out)
        other = covering_to_spec(builtin_example("h0_surf", seed=7))
        main(["analyze", _write(tmp_path, "o.json", other), "--json"])
        rep2 = json.loads(capsys.readouterr().out)
        assert set(rep1) == set(rep2)
        for key in rep1:
            if isinstance(rep1[key], dict):
                assert set(rep1[key]) == set(rep2[key]), key
        # complex numbers are [re, im] pairs everywhere
        assert all(len(v) == 2 for v in rep1["canonical"]["lambda"])


class TestCheck:
    def test_cubic_all_pass(self, tmp_path, capsys):
        rc = main(["check", _a2_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_order_two_elliptic_family_all_pass(self, tmp_path, capsys):
        rc = main(["check", _h12_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "modulus-flow" in out
        assert "FAIL" not in out

    def test_unrealistic_tolerance_fails(self, tmp_path, capsys):
        # exact derivatives put the cubic's identity errors at round-off
        # (up to about 1e-16), so the tolerance sits below double precision
        rc = main(["check", _a2_file(tmp_path), "--tol", "1e-17"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("option, value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "0"),
    ])
    def test_bad_option_exits_2(self, option, value, tmp_path, capsys):
        rc = main(["check", _a2_file(tmp_path), option, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and option in captured.err

    def test_deterministic(self, tmp_path, capsys):
        f = _a2_file(tmp_path)
        main(["check", f])
        out1 = capsys.readouterr().out
        main(["check", f])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # check draws nothing at random: argparse rejects --seed, exit 2
        with pytest.raises(SystemExit) as info:
            main(["check", _a2_file(tmp_path), "--seed", "7"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestParser:
    def test_tree_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        try:
            assert main(["example", "a2"]) == 0
            one_tree = len(built)
            assert one_tree == 5  # the top-level parser and its 4 subcommands
            assert main(["analyze", _a2_file(tmp_path), "--json"]) == 0
            assert main(["check", _a2_file(tmp_path)]) == 0
            assert main(["example", "h12"]) == 0
            assert len(built) == one_tree
        finally:
            cli._parser.cache_clear()  # later tests get a plain parser


class TestSpecShape:
    @pytest.mark.parametrize("command", ["check", "analyze"])
    @pytest.mark.parametrize("doc", ["[1, 2]", "3", '"a2"', "null"])
    def test_top_level_not_an_object_exits_2(self, command, doc, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "list.json", doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "JSON object" in captured.err

    @pytest.mark.parametrize("command", ["check", "analyze"])
    @pytest.mark.parametrize("genus", [0, 1])
    def test_wrongly_typed_field_exits_2(self, command, genus, tmp_path, capsys):
        doc = covering_to_spec(builtin_example(("a2", "h12")[genus]))
        doc["poles"] = [1]
        rc = main([command, _write(tmp_path, "typed.json", doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1 and "invalid covering spec" in captured.err

    A2 = {"genus": 0, "profile": [3], "poly_coeffs": [[0, 0], [-3, 0]], "poles": []}
    H12 = {"genus": 1, "profile": [2], "modulus": [0, 1.1], "constant": [0, 0],
           "poles": [{"b": [0.23, 0.31], "c": [[0, 0], [1, 0.05]]}]}
    # each was once read as a covering: a profile entry or genus cast to int, a
    # string read as numbers, or an int literal beyond double precision (exit 6)
    WRONG_TYPES = {
        "profile-float": {**A2, "profile": [3.9]},
        "profile-string": {**A2, "profile": "3"},
        "profile-bool": {"genus": 0, "profile": [True, 2], "poly_coeffs": [],
                         "poles": [{"b": [0.5, 0], "c": [[0.2, 0], [1, 0]]}]},
        "genus-bool": {**H12, "genus": True},
        "genus-float": {**A2, "genus": 0.0},
        "pair-string": {**A2, "poly_coeffs": [[0, 0], ["-3", 0]]},
        "pair-bool": {**H12, "constant": [False, 0]},
        "pair-int-400-digits": {**A2, "poly_coeffs": [[0, 0], [10 ** 400, 0]]},
    }

    @pytest.mark.parametrize("command", ["check", "analyze"])
    @pytest.mark.parametrize("name", list(WRONG_TYPES))
    def test_field_of_the_wrong_type_exits_2(self, command, name, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "typed.json", self.WRONG_TYPES[name])])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "invalid covering spec" in captured.err

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_nesting_deeper_than_the_recursion_limit_exits_2(self, command, tmp_path, capsys):
        doc = "[" * 100000 + "]" * 100000
        rc = main([command, _write(tmp_path, "nested.json", doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "invalid covering spec" in captured.err


class TestOneAnalysisPerOp:
    """``analyze`` and ``check`` share ``isomon.analyze``, the only caller of the
    isomonodromy build and of the ill-conditioning rejection, and read route B from
    ``Analysis.route_b``, which makes the op's one ``tau_resultant`` call."""

    @pytest.mark.parametrize("command", [["check"], ["analyze", "--json"], ["analyze"]],
                             ids=["check", "analyze-json", "analyze"])
    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12"])
    def test_one_build_per_op_made_by_analyze(self, command, name, tmp_path, capsys, monkeypatch):
        calls = []

        def caller_recorded(module, fn):
            real = getattr(module, fn)

            def recorded(*args):
                frame = sys._getframe(1)
                calls.append((fn, frame.f_globals["__name__"], frame.f_code.co_name))
                return real(*args)

            monkeypatch.setattr(module, fn, recorded)

        caller_recorded(isomon, "build_isomonodromy")
        for model in (cover0, cover1):
            caller_recorded(model, "reject_ill_conditioned")
            caller_recorded(model, "tau_resultant")
        assert main([command[0], _spec_file(tmp_path, name), *command[1:]]) == 0
        assert sorted(calls) == [("build_isomonodromy", "hurwitztau.isomon", "analyze"),
                                 ("reject_ill_conditioned", "hurwitztau.isomon", "analyze"),
                                 ("tau_resultant", "hurwitztau.isomon", "route_b")]


class TestGenus1PointCollision:
    """A (2,1) family through a double zero of p': tail c_(1,2) = T + s e^(0.3i).

    At s = 0 two zeros of p' coincide; at s > 0 they lie about 1.6 sqrt(s)
    apart.  Down to a gap near 1e-5 the zero search parts them and the
    caustic is reported; below it no contour gives two distinct zeros.
    """

    T = complex(-0.11311449376152663, -0.06278302015477011)

    def _spec(self, tmp_path, s):
        cov = random_covering1((2, 1), 3)
        first, second = cov.poles
        tail = (first.c[0], self.T + s * cmath.exp(0.3j))
        near = cover1.Covering1(cov.modulus, cov.constant, (Pole(first.b, tail), second))
        return _write(tmp_path, "collision.json", covering_to_spec(near))

    def test_near_collision_warns(self, tmp_path, capsys):
        path = self._spec(tmp_path, 1e-6)
        assert main(["analyze", path, "--json"]) == 0
        caustic = json.loads(capsys.readouterr().out)["caustic"]
        assert caustic["warned"] is True
        assert 1e-3 < caustic["min_point_gap"] < 3e-3
        assert main(["analyze", path, "--strict"]) == 4

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_collision_exits_6(self, command, tmp_path, capsys):
        rc = main([command, self._spec(tmp_path, 0.0)])
        captured = capsys.readouterr()
        assert rc == 6
        assert captured.err.count("\n") == 1
        assert "numerical failure (ContourClashError)" in captured.err


class TestSpecNumbers:
    """Spec numbers must be finite, and each genus-1 pole must match the profile."""

    H12 = {"genus": 1, "profile": [2], "modulus": [0.0, 1.1], "constant": [0.0, 0.0],
           "poles": [{"b": [0.23, 0.31], "c": [[0.0, 0.0], [1.0, 0.05]]}]}
    # json writes and reads NaN and Infinity, which are no covering's numbers
    BAD = {
        "nan-coefficient": {"genus": 0, "profile": [3], "poly_coeffs": [[math.nan, 0], [1, 0]],
                            "poles": []},
        "infinite-constant": {**H12, "constant": [math.inf, 0]},
        "nan-pole": {"genus": 0, "profile": [1, 1], "poly_coeffs": [],
                     "poles": [{"b": [math.nan, 0], "c": [[1, 0]]}]},
        "profile-mismatch": {**H12, "profile": [7, 3]},
        "empty-tail": {**H12, "profile": [2, 0],
                       "poles": [*H12["poles"], {"b": [0.5, 0.5], "c": []}]},
    }
    # numbers that overflow double precision on the way to the critical data, each with
    # the error that names it; p' overflows on every contour of the genus-1 1e307 tail
    HUGE = {
        "coefficients-1e308": ({"genus": 0, "profile": [3], "poly_coeffs": [[1e308, 0], [1e308, 0]],
                                "poles": []}, "OverflowError"),
        "tail-1e300": ({"genus": 0, "profile": [2, 2], "poly_coeffs": [[0.3, 0]],
                        "poles": [{"b": [0.5, 0], "c": [[0.2, 0], [1e300, 0]]}]}, "OverflowError"),
        "g0-tail-1e150": ({"genus": 0, "profile": [2, 1], "poly_coeffs": [[-0.14, -0.57]],
                           "poles": [{"b": [2.08, -0.70], "c": [[1e150, 0]]}]}, "OverflowError"),
        "g0-position-1e150": ({"genus": 0, "profile": [2, 1], "poly_coeffs": [[-0.14, -0.57]],
                               "poles": [{"b": [1e150, -0.70], "c": [[-0.17, 0.88]]}]},
                              "OverflowError"),
        "h12-tail-1e150": ({**H12, "poles": [{"b": [0.23, 0.31], "c": [[0, 0], [1e150, 0]]}]},
                           "OverflowError"),
        "h12-tail-1e307": ({**H12, "poles": [{"b": [0.23, 0.31], "c": [[0, 0], [1e307, 0]]}]},
                           "ContourClashError"),
    }
    COMMANDS = pytest.mark.parametrize("command", [["check"], ["analyze", "--json"]],
                                       ids=["check", "analyze"])

    @COMMANDS
    @pytest.mark.parametrize("name", list(BAD))
    def test_bad_spec_exits_2(self, command, name, tmp_path, capsys):
        rc = main([command[0], _write(tmp_path, "bad.json", self.BAD[name]), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "invalid covering spec" in captured.err

    @COMMANDS
    @pytest.mark.parametrize("name", list(HUGE))
    @pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
    def test_overflow_exits_6(self, command, name, tmp_path, capsys):
        spec, error = self.HUGE[name]
        rc = main([command[0], _write(tmp_path, "huge.json", spec), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 6
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"numerical failure ({error})" in captured.err


class TestFewCriticalPoints:
    NO_POINTS = {"genus": 0, "profile": [1], "poly_coeffs": [], "poles": []}  # p = z, M = 0
    ONE_POINT = {"genus": 0, "profile": [2], "poly_coeffs": [[1.0, 0.0]], "poles": []}  # z^2 + 1

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_no_critical_points_exits_6(self, command, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "z.json", self.NO_POINTS)])
        err = capsys.readouterr().err
        assert rc == 6
        assert err.count("\n") == 1 and "NoCriticalPointsError" in err

    def test_one_critical_point_checks(self, tmp_path, capsys):
        # one critical point has H = 0, so the Hamiltonian errors are absolute
        rc = main(["check", _write(tmp_path, "z2.json", self.ONE_POINT)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out and "tau-gradient" in out

    def test_one_critical_point_analyzes(self, tmp_path, capsys):
        rc = main(["analyze", _write(tmp_path, "z2.json", self.ONE_POINT), "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert rep["dim"] == 1
        assert rep["hamiltonians"]["max_discrepancy"] == 0.0
        assert rep["hamiltonians"]["status"] == "checked"


class TestCloseHighOrderPoles:
    # two order-5 poles 1e-5 apart: R(f, g)'s pole/flat factor underflows, so it is
    # taken in logarithms; the critical points lie too near the poles to verify (S2)
    SPEC = {"genus": 0, "profile": [1, 5, 5], "poly_coeffs": [],
            "poles": [{"b": [0, 0], "c": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]},
                      {"b": [1e-5, 0], "c": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]}]}

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_exits_3_at_s2(self, command, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "close.json", self.SPEC)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "boundary point (S2)" in err


class TestGuardPaths:
    # two simple poles 1e-6 apart, with equal residues, next to a quartic part: R(f, g) is
    # about 1e-48, but over its pole/flat factorization it is the profile constant, and
    # a critical point lies too near pole 0 to verify (S2)
    VANISHING_RESULTANT = {"genus": 0, "profile": [4, 1, 1], "poly_coeffs": [[1, 0]] * 3,
                           "poles": [{"b": [0, 0], "c": [[1, 0]]}, {"b": [1e-6, 0], "c": [[1, 0]]}]}
    # z^3 + 1e-18 z + 0.2: critical points 1.2e-9 apart, lambda derivatives too ill-conditioned
    CUSP = {"genus": 0, "profile": [3], "poly_coeffs": [[0.2, 0], [1e-18, 0]], "poles": []}

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_vanishing_resultant_exits_3(self, command, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "r.json", self.VANISHING_RESULTANT)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == ("boundary point (S2): a critical point lies 7.071e-07 from pole 0:"
                                " too ill-conditioned to verify\n")

    def test_ill_conditioned_jacobian_fails_check_only(self, tmp_path, capsys):
        path = _write(tmp_path, "cusp.json", self.CUSP)
        rc = main(["check", path])
        captured = capsys.readouterr()
        assert rc == 6
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "IllConditionedError): deformation Jacobian condition" in captured.err
        # analyze inverts no Jacobian: it reports, and flags the caustic
        assert main(["analyze", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["caustic"]["warned"] is True


class TestStrictJson:
    """``analyze --json`` and ``sweep --json`` print no ``NaN`` or ``Infinity``."""

    @staticmethod
    def _strict(text: str):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        return json.loads(text, parse_constant=reject)

    def test_one_critical_point_has_null_gaps(self, tmp_path, capsys):
        # M = 1: there is no pair of critical values or points, so no smallest gap
        path = _write(tmp_path, "z2.json", TestFewCriticalPoints.ONE_POINT)
        assert main(["analyze", path, "--json"]) == 0
        caustic = self._strict(capsys.readouterr().out)["caustic"]
        assert caustic["min_lambda_gap"] is None and caustic["min_point_gap"] is None
        assert caustic["status"] == "checked"
        assert main(["analyze", path]) == 0
        assert "min |lambda_i - lambda_j| = none, min point gap = none" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12", "g0_2poles", "g1_2poles"])
    def test_analyze_is_strict_json(self, name, tmp_path, capsys):
        assert main(["analyze", _spec_file(tmp_path, name), "--json"]) == 0
        assert self._strict(capsys.readouterr().out)["tau"]["status"] == "checked"

    def test_sweep_is_strict_json(self, tmp_path, capsys):
        rc = main(["sweep", _h12_file(tmp_path), "--param", "poles.0.c.1", "--to", "1.4,0.12",
                   "--steps", "3", "--json"])
        assert rc == 0
        assert self._strict(capsys.readouterr().out)["max_drift"]["route_ratio"] < 1e-7


class TestKappaUnderflow:
    """Specs whose kappa = prod sigma_w(z_r - z_s) lies below double precision.

    The thick torus is pool spec g1-1.1.1-2 of the benchmark moved to
    Im sigma = 4, where kappa is about e^-842; the thin one is a (4,3,2) spec
    at Im sigma = 0.126.  A float product of kappa underflowed on both (a
    ``ZeroDivisionError``, and a NaN route ratio on the thin torus's sweep);
    route B summed in logarithms stays finite.
    """

    SPECS = {"thick": ((1, 1, 1), 914002, 4.0), "thin": ((4, 3, 2), 1, 0.126)}

    def _path(self, tmp_path, name):
        profile, seed, im_sigma = self.SPECS[name]
        base = random_covering1(profile, seed)
        cov = cover1.set_param(base, "modulus", complex(base.modulus.sigma.real, im_sigma))
        return _write(tmp_path, f"{name}.json", covering_to_spec(cov))

    @pytest.mark.parametrize("name", list(SPECS))
    def test_check_runs_every_identity(self, name, tmp_path, capsys):
        rc = main(["check", self._path(tmp_path, name)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert "9/9 identities passed" in captured.out
        assert "PASS  tau-route-ratio" in captured.out

    @pytest.mark.parametrize("name", list(SPECS))
    def test_analyze_checks_the_route_ratio(self, name, tmp_path, capsys):
        assert main(["analyze", self._path(tmp_path, name), "--json"]) == 0
        tau = TestStrictJson._strict(capsys.readouterr().out)["tau"]
        assert tau["status"] == "checked"
        assert all(math.isfinite(x) for x in tau["route_ratio"])


class TestClosedPipe:
    def test_reader_closing_the_pipe_exits_0_quietly(self, tmp_path):
        # the read end is closed before the command writes, as after `| head -1`
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "hurwitztau.cli", "analyze", _h12_file(tmp_path), "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
        assert err == ""


class TestSweep:
    @pytest.mark.parametrize("steps", ["0", "1", "-3"])
    def test_too_few_steps_exit_2(self, steps, tmp_path, capsys):
        rc = main(["sweep", _a2_file(tmp_path), "--param", "poly_coeffs.0",
                   "--to", "0.3,0.2", "--steps", steps])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--steps" in captured.err

    @pytest.mark.parametrize("spec, param", [
        ("a2", "nope"), ("a2", "poly_coeffs.9"), ("a2", "poles.0.b"),
        ("h12", "nope"), ("h12", "poles.3.b"), ("h12", "poles.0.c.7"), ("h12", "poles.x.b"),
        # not in the parameter table: the constrained last residue, negative
        # indices and trailing parts
        ("h12", "poles.0.c.0"), ("g1_2poles", "poles.1.c.0"), ("a2", "poly_coeffs.-1"),
        ("h12", "poles.0.b.x"), ("h12", "modulus.x"),
        ("g0_2poles", "poles.-1.b"), ("g1_2poles", "poles.-1.b"),
    ])
    def test_unknown_param_exits_2(self, spec, param, tmp_path, capsys):
        path = _spec_file(tmp_path, spec)
        rc = main(["sweep", path, "--param", param, "--to", "0.3,0.2", "--steps", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--param" in captured.err

    @pytest.mark.parametrize("spec, param", [("a2", "poly_coeffs.0"), ("h12", "constant")])
    @pytest.mark.parametrize("to", ["nan,0", "0,nan", "inf,0", "0,-inf", "0.2", "1,2,3"])
    def test_non_finite_target_exits_2(self, spec, param, to, tmp_path, capsys):
        path = _write(tmp_path, f"{spec}.json", covering_to_spec(builtin_example(spec)))
        rc = main(["sweep", path, "--param", param, f"--to={to}", "--steps", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--to" in captured.err

    def test_genus0_ratio_constancy(self, tmp_path, capsys):
        cov = builtin_example("h0_surf", seed=3)
        path = _write(tmp_path, "g0.json", covering_to_spec(cov))
        b = cov.poles[0].b
        rc = main([
            "sweep", path, "--param", "poles.0.b",
            "--to", f"{b.real + 0.25},{b.imag + 0.1}", "--steps", "20", "--json",
        ])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["max_drift"]["route_ratio"] < 1e-7
        assert res["max_drift"]["resultant_ratio"] < 1e-8

    def test_crossing_pole_collision_exits(self, tmp_path, capsys):
        doc = {
            "genus": 0,
            "profile": [1, 1, 1],
            "poly_coeffs": [],
            "poles": [
                {"b": [0.8, 0.1], "c": [[0.9, 0.2]]},
                {"b": [-0.7, -0.4], "c": [[1.1, -0.3]]},
            ],
        }
        rc = main([
            "sweep", _write(tmp_path, "x.json", doc), "--param", "poles.0.b",
            "--to=-0.7,-0.4", "--steps", "10",
        ])
        assert rc == 5

    @pytest.mark.parametrize("param, shift", [("poles.0.b", 0.05 + 0.02j), ("modulus", 0.03 + 0.02j)])
    def test_genus1_first_pole_and_modulus_sweep(self, param, shift, tmp_path, capsys):
        # poles.0.b is not a deformation parameter (translations), but it is in the table
        cov = builtin_example("h12")
        to = cover1.params(cov)[param] + shift
        rc = main(["sweep", _h12_file(tmp_path), "--param", param,
                   "--to", f"{to.real},{to.imag}", "--steps", "3", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["max_drift"]["route_ratio"] < 1e-7

    def test_genus1_sweep_reports_a_failed_search_before_the_caustic(self, tmp_path, capsys):
        # to Im sigma = 7 in 8 steps: one step's lambda gap is flagged and another's zero
        # search fails; the failure is what the one stderr line reports
        rc = main(["sweep", _h12_file(tmp_path), "--param", "modulus", "--to=0,7", "--steps", "8"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err.count("\n") == 1 and "zero search failed" in captured.err

    def test_genus1_ratio_constancy(self, tmp_path, capsys):
        path = _h12_file(tmp_path)
        rc = main([
            "sweep", path, "--param", "poles.0.c.1",
            "--to", "1.4,0.12", "--steps", "20", "--json",
        ])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["max_drift"]["route_ratio"] < 1e-7


class TestBoundarySpecs:
    """A genus-0 spec on the boundary is rejected when the covering is built."""

    S1 = {"genus": 0, "profile": [2, 1, 1], "poly_coeffs": [[0.3, 0.0]],
          "poles": [{"b": [0.5, 0.2], "c": [[1.0, 0.0]]},
                    {"b": [0.5, 0.2], "c": [[2.0, 0.0]]}]}
    # a double pole whose top tail vanishes
    S2 = {"genus": 0, "profile": [2, 2], "poly_coeffs": [[0.3, 0.0]],
          "poles": [{"b": [0.5, 0.0], "c": [[0.2, 0.0], [0.0, 0.0]]}]}

    @pytest.mark.parametrize("component", ["S1", "S2"])
    @pytest.mark.parametrize("command", [
        ["check"], ["analyze", "--json"],
        ["sweep", "--param", "poly_coeffs.0", "--to", "0.1,0.1", "--steps", "3"],
    ], ids=["check", "analyze", "sweep"])
    def test_exits_3_with_one_line(self, component, command, tmp_path, capsys):
        path = _write(tmp_path, f"{component}.json", getattr(self, component))
        rc = main([command[0], path, *command[1:]])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"({component})" in captured.err

    # p = z - 1e-12/(z - 0.5): a top tail within the boundary tolerance of 0
    NEAR_S2 = {"genus": 0, "profile": [1, 1], "poly_coeffs": [],
               "poles": [{"b": [0.5, 0.0], "c": [[1e-12, 0.0]]}]}

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_top_tail_within_tolerance_exits_3(self, command, tmp_path, capsys):
        rc = main([command, _write(tmp_path, "near.json", self.NEAR_S2)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.count("\n") == 1 and "(S2)" in captured.err

    @staticmethod
    def _tail(c: float) -> dict:
        """p = z - c/(z - 0.5): the critical points sit sqrt(c) from the pole."""
        return {"genus": 0, "profile": [1, 1], "poly_coeffs": [],
                "poles": [{"b": [0.5, 0.0], "c": [[c, 0.0]]}]}

    @pytest.mark.parametrize("c", [1e-9, 1e-8, 1e-7])
    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_too_ill_conditioned_to_verify_exits_3(self, c, command, tmp_path, capsys):
        # above the 1e-10 tolerance, but the identities would lose their digits
        rc = main([command, _write(tmp_path, "cond.json", self._tail(c))])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "(S2)" in captured.err

    def test_sweep_reaching_an_ill_conditioned_step_exits_5(self, tmp_path, capsys):
        rc = main(["sweep", _write(tmp_path, "cond.json", self._tail(0.5)), "--param",
                   "poles.0.c.0", "--to", "1e-8,0", "--steps", "3"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err.count("\n") == 1 and "ill-conditioned" in captured.err

    def test_conditioned_enough_still_verifies(self, tmp_path, capsys):
        rc = main(["check", _write(tmp_path, "cond.json", self._tail(1e-6))])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("9/9 identities passed")

    @pytest.mark.parametrize("v, reason", [(1e-8, "(S2)"), (3e-9, "collides with a pole"),
                                           (1e-9, "collides with a pole")])
    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_genus1_top_tail_towards_0_exits_3(self, v, reason, command, tmp_path, capsys):
        # the (2, 1) covering's double pole loses its top tail: at 1e-8 a critical point lies
        # 4.7e-8 from the pole, too near to verify; nearer S2 the zero search's lanes reach the
        # pole on every contour, a critical point at the pole, as at genus 0
        cov = cover1.set_param(random_covering1((2, 1), 5), "poles.0.c.1", v)
        rc = main([command, _write(tmp_path, "s2.json", covering_to_spec(cov))])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and reason in captured.err

    def test_sweep_reaching_tail_within_tolerance_exits_5(self, tmp_path, capsys):
        spec = {**self.NEAR_S2, "poles": [{"b": [0.5, 0.0], "c": [[0.5, 0.0]]}]}
        rc = main(["sweep", _write(tmp_path, "ok.json", spec), "--param", "poles.0.c.0",
                   "--to", "1e-12,0", "--steps", "3"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err.count("\n") == 1 and "S2" in captured.err


class TestExample:
    @pytest.mark.parametrize("name", ["a2", "h0_surf", "h12"])
    def test_roundtrip(self, name, tmp_path, capsys):
        out_file = tmp_path / f"{name}.json"
        rc = main(["example", name, "--out", str(out_file)])
        assert rc == 0
        cov = load_covering(str(out_file))
        assert covering_to_spec(cov) == covering_to_spec(builtin_example(name))

    def test_cubic_spec_content(self, capsys):
        rc = main(["example", "a2"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "genus": 0,
            "profile": [3],
            "poly_coeffs": [[0.0, 0.0], [-3.0, 0.0]],
            "poles": [],
        }

    def test_order_two_elliptic_spec_content(self, capsys):
        rc = main(["example", "h12"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["genus"] == 1
        assert doc["profile"] == [2]
        assert len(doc["poles"]) == 1

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        rc = main(["example", "a2", "--out", str(tmp_path / "missing" / "a2.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--out" in captured.err

    def test_unknown_name(self, capsys):
        rc = main(["example", "nope"])
        assert rc == 2

    def test_negative_seed_exits_2(self, capsys):
        rc = main(["example", "h0_surf", "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--seed" in captured.err

    def test_seeded_generator_deterministic(self, capsys):
        main(["example", "h0_surf", "--seed", "5"])
        doc1 = capsys.readouterr().out
        main(["example", "h0_surf", "--seed", "5"])
        doc2 = capsys.readouterr().out
        assert doc1 == doc2

