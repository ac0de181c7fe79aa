"""CLI fuzz gate: ``check`` and ``analyze --json`` on specs drawn from the whole admitted domain.

Genus 1: Im sigma in [0.11, 8], Re sigma in [-1/2, 1/2], one to three poles of orders
1-5 anywhere in the cell.  Genus 0: a pole of order 1-5 at infinity and up to two
finite ones in [-2, 2]^2, or two finite ones of orders 1-5 that nearly meet (1e-6 to
1e-2 apart).  Every coefficient has a modulus from 1e-6 to 1e6 (12 decades) and any
phase.  Whatever the spec, ``cli.main`` returns a documented exit code, raises nothing,
prints exactly one stderr line with every exit but 0 and 1 (none with those), and
``analyze --json`` prints JSON that a strict parser reads.

Tier 1 draws a few specs; ``pytest --hypothesis-profile=fuzz tests/test_fuzz.py`` draws
the profile's 1000 (``conftest.py``).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitztau import cli

FUZZ = settings(deadline=None, database=None, derandomize=True,
                max_examples=(settings().max_examples
                              if settings.get_current_profile_name() == "fuzz" else 20))
# the exit codes each command documents (``analyze`` exits 4 only under --strict)
DOCUMENTED = {"check": {0, cli.EXIT_CHECK_FAILED, cli.EXIT_PARSE, cli.EXIT_BOUNDARY,
                        cli.EXIT_NUMERICAL},
              "analyze": {0, cli.EXIT_PARSE, cli.EXIT_BOUNDARY, cli.EXIT_NUMERICAL}}

unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def coefficients(draw) -> complex:
    """A complex number of modulus 10^u, u in [-6, 6], and any phase."""
    mag, phase = draw(st.floats(-6.0, 6.0)), draw(st.floats(0.0, 2.0 * math.pi))
    return 10.0 ** mag * complex(math.cos(phase), math.sin(phase))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


@st.composite
def genus1_specs(draw) -> dict:
    sigma = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.11, 8.0)))
    orders = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    tails = [[draw(coefficients()) for _ in range(k)] for k in orders]
    tails[-1][0] = -sum(tail[0] for tail in tails[:-1])  # the residues sum to zero
    return {"genus": 1, "profile": orders, "modulus": _pair(sigma),
            "constant": _pair(draw(coefficients())),
            "poles": [{"b": _pair(draw(unit) + draw(unit) * sigma),
                       "c": [_pair(v) for v in tail]} for tail in tails]}


def _genus0(draw, profile: list[int], bs: list[complex]) -> dict:
    return {"genus": 0, "profile": profile,
            "poly_coeffs": [_pair(draw(coefficients())) for _ in range(profile[0] - 1)],
            "poles": [{"b": _pair(b), "c": [_pair(draw(coefficients())) for _ in range(k)]}
                      for k, b in zip(profile[1:], bs)]}


@st.composite
def genus0_specs(draw) -> dict:
    profile = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    return _genus0(draw, profile, [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
                                   for _ in profile[1:]])


@st.composite
def close_pole_specs(draw) -> dict:
    """Genus 0 with two finite poles of orders 1-5 that nearly meet: 1e-6 to 1e-2 apart."""
    profile = [draw(st.integers(1, 5)) for _ in range(3)]
    b = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    gap = 10.0 ** draw(st.floats(-6.0, -2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return _genus0(draw, profile, [b, b + gap])


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@FUZZ
@given(spec=st.one_of(genus1_specs(), genus0_specs(), close_pole_specs()))
def test_check_and_analyze_exit_cleanly(spec_path, spec):
    spec_path.write_text(json.dumps(spec, allow_nan=False), encoding="utf-8")
    for argv in (["check", str(spec_path)], ["analyze", str(spec_path), "--json"]):
        rc, out, err = _run(argv)
        assert rc in DOCUMENTED[argv[0]], (argv[0], rc)
        assert err.count("\n") == (0 if rc in (0, cli.EXIT_CHECK_FAILED) else 1), (argv[0], err)
        if argv[0] == "analyze" and rc == 0:
            json.loads(out, parse_constant=_reject_constant)
