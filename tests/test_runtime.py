"""The package runs on numpy alone, and tracked critical points keep their lanes.

The CLI commands and the finite-difference reference of the tests
(``oracles.lambda_derivatives``) run in a fresh interpreter, once with every
scipy import made to fail and once to see that none is made.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from hurwitztau import cover0, cover1, isomon
from hurwitztau.errors import CountMismatchError
from hurwitztau.samples import builtin_example

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
import oracles
from hurwitztau import isomon
from hurwitztau.cli import load_covering, main

sweeps = {
    "a2": ["--param", "poly_coeffs.0", "--to", "0.3,0.2", "--steps", "4"],
    "h12": ["--param", "poles.0.c.1", "--to", "1.4,0.12", "--steps", "4"],
}
for name, sweep in sweeps.items():
    spec = f"{sys.argv[1]}/{name}.json"
    for argv in (["example", name, "--out", spec], ["analyze", spec, "--json"],
                 ["check", spec], ["sweep", spec, *sweep]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc == 0, (argv, rc)
    cov = load_covering(spec)
    oracles.lambda_derivatives(cov, oracles.check_bundle(isomon.analyze(cov)))
loaded = [m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"]
print(json.dumps(loaded))
"""


def _run(tmp_path, mode: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_run_with_scipy_blocked(tmp_path):
    assert _run(tmp_path, "block") == []


def test_commands_load_no_scipy(tmp_path):
    assert _run(tmp_path, "plain") == []


@pytest.mark.parametrize("module,name", [(cover0, "a2"), (cover1, "h12")])
def test_swapped_tracked_points_raise(module, name, monkeypatch):
    cov = builtin_example(name)
    base = isomon.analyze(cov)
    tracked = oracles.continued_analysis(cov, base).critical.pts
    assert np.allclose(tracked, base.critical.pts, rtol=0.0, atol=1e-12)
    real = module.critical_round

    def swapped(coverings, seeds):
        return [dataclasses.replace(cd, pts=(cd.pts[1], cd.pts[0]) + cd.pts[2:])
                for cd in real(coverings, seeds)]

    monkeypatch.setattr(module, "critical_round", swapped)
    with pytest.raises(CountMismatchError):
        oracles.continued_analysis(cov, base)
