import argparse
import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitztau import cli, cover1
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
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "0"), ("--seed", "-1"),
    ])
    def test_bad_option_exits_2(self, option, value, tmp_path, capsys):
        rc = main(["check", _a2_file(tmp_path), option, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and option in captured.err

    def test_deterministic_under_seed(self, tmp_path, capsys):
        f = _a2_file(tmp_path)
        main(["check", f, "--seed", "7"])
        out1 = capsys.readouterr().out
        main(["check", f, "--seed", "7"])
        out2 = capsys.readouterr().out
        assert out1 == out2


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
    @pytest.mark.parametrize("to", ["nan,0", "0,nan", "inf,0", "0,-inf"])
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

