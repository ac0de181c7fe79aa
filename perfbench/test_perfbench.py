"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import corpus  # noqa: E402
from run import records  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import calibrate, check_output, run_op  # noqa: E402

from hurwitztau import cli, cover0, cover1, elliptic, isomon, poly  # noqa: E402


def write_spec(tmp_path: Path, name: str, spec: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def first_entry(genus: int, profile: tuple[int, ...]) -> dict:
    return next(e for e in corpus.load_pool(genus) if tuple(e["profile"]) == profile)


def test_tracer_sees_elliptic_calls_only_at_genus_1(tmp_path):
    g0 = write_spec(tmp_path, "g0", first_entry(0, (2, 2))["spec"])
    g1 = write_spec(tmp_path, "g1", first_entry(1, (2,))["spec"])
    tracer = Tracer()
    patched = tracer.install()
    try:
        # bindings made by "from ... import" are traced, not only the originals
        for binding in ("cover1.zeta_derivs", "cover1.elliptic_zeros", "cover0.all_roots",
                        "cover0.resultant", "isomon.wp", "poly.CPoly.eval_derivatives",
                        "elliptic.WeierstrassContext.create"):
            assert binding in patched
        tracer.op_id = 0
        assert run_op(cli.main, ["check", g0])[1] is None
        genus0 = tracer.aggregate()
        tracer.op_id = 1
        assert run_op(cli.main, ["analyze", g1, "--json"])[1] is None
        both = tracer.aggregate()
    finally:
        tracer.uninstall()

    assert sum(v["calls"] for k, v in genus0.items() if k.startswith("elliptic.")) == 0
    assert genus0["cover0.critical_data"]["calls"] > 0
    assert genus0["poly.all_roots"]["calls"] > 0  # called through cover0's binding
    assert both["elliptic.theta1_derivs"]["calls"] > 0
    assert both["elliptic.zeta_derivs"]["calls"] > 0  # called through cover1's binding
    assert both["cover1.critical_data"]["calls"] == 2
    assert both["elliptic.ctx_create"]["calls"] == 1
    # uninstall restores every binding
    assert cover1.zeta_derivs is elliptic.zeta_derivs
    assert not hasattr(cover1.zeta_derivs, "__wrapped__")
    assert cover0.all_roots is poly.all_roots
    assert isomon.analyze.__module__ == "hurwitztau.isomon"
    assert not hasattr(isomon.analyze, "__wrapped__")


def test_coincident_poles_count_as_failed_ops(tmp_path):
    spec = {"genus": 1, "profile": [1, 1], "modulus": [0.0, 1.1], "constant": [0.0, 0.0],
            "poles": [{"b": [0.3, 0.4], "c": [[1.0, 0.0]]},
                      {"b": [0.3, 0.4], "c": [[-1.0, 0.0]]}]}
    path = write_spec(tmp_path, "coincident", spec)
    for argv in (["analyze", path, "--json"], ["check", path]):
        _, reason = run_op(cli.main, argv)
        assert reason is not None and reason.startswith("exit code 3")


def test_analyze_output_check_needs_every_status_checked():
    rep = {"dim": 1, "canonical": {"status": "checked", "lambda": [[0.0, 0.0]]},
           "hamiltonians": {"status": "checked"}, "tau": {"status": "checked"},
           "g_function": {"status": "checked"}}
    assert check_output(["analyze"], 0, json.dumps(rep)) is None
    rep["tau"]["status"] = "warned"
    assert check_output(["analyze"], 0, json.dumps(rep)) == "tau status 'warned'"
    rep["tau"]["status"] = "checked"
    rep["dim"] = 2
    assert check_output(["analyze"], 0, json.dumps(rep)) is not None
    assert check_output(["check"], 0, "PASS  x\n1/2 identities passed\n") is not None


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_same_corpus(workload):
    genus, _, _, per_profile = corpus.WORKLOADS[workload]

    def digest(seed):
        return corpus.canonical_hash([e["spec"] for e in corpus.run_corpus(genus, seed, per_profile)])

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
    # every seed visits the same specs: the first per_profile of each profile
    ids = sorted(e["id"] for e in corpus.run_corpus(genus, 5, per_profile))
    assert ids == sorted(e["id"] for e in corpus.run_corpus(genus, 6, per_profile))
    assert len(ids) == per_profile * len(corpus.PROFILES[genus])

def test_op_times_are_scaled_by_the_speed_around_them():
    result = {"records": [[0, 0.2, None], [1, 0.3, "exit code 3"]], "speed": [1.0, 3.0, 1.0]}
    assert records([result]) == [(0.1, None), (0.15, "exit code 3")]
    assert calibrate() > 0.0
