"""Acceptance criteria, one test per criterion, one printed line each.

Run as ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

import cmath
import math

import numpy as np
import pytest

import oracles
from oracles import zeta_w
from hurwitztau import cover0, cover1, isomon
from hurwitztau.cover0 import Covering0, Pole
from hurwitztau.cover1 import Covering1
from hurwitztau.elliptic import (
    Modulus,
    WeierstrassContext,
    eta_tilde,
    log_dedekind_eta,
    sigma_w,
    theta1_derivs,
    wp,
)
from hurwitztau.samples import random_covering0, random_covering1

G0_PROFILES = [(3,), (2, 1), (2, 2), (3, 2), (2, 1, 1)]
G1_PROFILES = [(2,)] * 7 + [(1, 1)] * 7 + [(2, 1)] * 6


def _verdict(num: int, desc: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def _instance_checks(cov):
    """Error measures shared by criteria 1, 2, 4, 5 and 7."""
    an = isomon.analyze(cov)
    cd, iso = an.critical, an.iso
    B, Binf = isomon.bergmann_values(cov, cd)
    _, d = oracles.lambda_derivatives(cov, oracles.check_bundle(an))
    h = np.array(iso.hamiltonians)
    h_scale = float(np.max(np.abs(h)))
    m = len(h)
    out = {}
    out["two_route"] = float(
        np.max(np.abs(h - np.array(iso.hamiltonians_bergmann)))
    ) / h_scale
    out["tau_gradient"] = float(np.max(np.abs(-d["log_tau48"][0] / 48.0 - h))) / h_scale
    rhs = 0.5 * B.T * np.array(an.f)[None, :]
    mask = ~np.eye(m, dtype=bool)
    out["rauch_f"] = float(np.max(np.abs((d["f"] - rhs)[mask]))) / float(
        np.max(np.abs(rhs[mask]))
    )
    if an.h:
        rhs_h = 0.5 * Binf.T * np.array(an.f)[None, :]
        out["rauch_h"] = float(np.max(np.abs(d["h"] - rhs_h))) / float(
            np.max(np.abs(rhs_h))
        )
    if cov.genus == 1:
        rhs_s = 1j * math.pi * np.array(cd.fsq)
        out["modulus_flow"] = float(np.max(np.abs(d["sigma"][0] - rhs_s))) / float(
            np.max(np.abs(rhs_s))
        )
    eg = complex(d["G"][0] @ np.array(cd.lam))
    out["euler_anomaly"] = abs(eg - an.gamma) / max(1.0, abs(an.gamma))
    return out


@pytest.fixture(scope="module")
def battery_g0():
    out = []
    for i, profile in enumerate(G0_PROFILES):
        for s in range(10):
            cov = random_covering0(profile, seed=1000 + 97 * i + s)
            out.append(_instance_checks(cov))
    return out


@pytest.fixture(scope="module")
def battery_g1():
    out = []
    for i, profile in enumerate(G1_PROFILES):
        cov = random_covering1(profile, seed=5000 + 31 * i)
        out.append(_instance_checks(cov))
    return out


def test_criterion_1_two_route_hamiltonians(battery_g0, battery_g1):
    e0 = max(r["two_route"] for r in battery_g0)
    e1 = max(r["two_route"] for r in battery_g1)
    _verdict(
        1,
        "two-route Hamiltonian identity (50 genus-0 < 1e-8, 20 genus-1 < 1e-6)",
        e0 < 1e-8 and e1 < 1e-6,
        f"genus0 {e0:.2e}, genus1 {e1:.2e}",
    )


def test_criterion_2_tau_differential_system(battery_g0, battery_g1):
    e0 = max(r["tau_gradient"] for r in battery_g0)
    e1 = max(r["tau_gradient"] for r in battery_g1)
    _verdict(
        2,
        "d log tau / d lambda_k = H_k within 1e-5 (finite differences)",
        e0 < 1e-5 and e1 < 1e-5,
        f"genus0 {e0:.2e}, genus1 {e1:.2e}",
    )


def test_criterion_3_cubic_anchor(a2):
    # values fixed after independent confirmation by both computation routes
    # (and by hand series inversion): lambda -2 pairs with sb = +1/12,
    # H = +1/288; lambda +2 with the opposite signs, so that sum H = 0
    cd = cover0.critical_data(a2)
    iso = isomon.analyze(a2).iso
    ok = len(cd.lam) == 2
    pairs = sorted(zip(cd.lam, cd.sb), key=lambda t: t[0].real)
    ok &= abs(pairs[0][0] + 2) < 1e-12 and abs(pairs[1][0] - 2) < 1e-12
    ok &= abs(pairs[0][1] - 1 / 12) < 1e-12 and abs(pairs[1][1] + 1 / 12) < 1e-12
    hp = sorted(zip(cd.lam, iso.hamiltonians), key=lambda t: t[0].real)
    ok &= abs(hp[0][1] - 1 / 288) < 1e-13 and abs(hp[1][1] + 1 / 288) < 1e-13
    hb = sorted(zip(cd.lam, iso.hamiltonians_bergmann), key=lambda t: t[0].real)
    ok &= abs(hb[0][1] - 1 / 288) < 1e-13 and abs(hb[1][1] + 1 / 288) < 1e-13
    _verdict(
        3,
        "cubic anchor lambda={-2,2}, |sb|=1/12, |H|=1/288 by both routes "
        "(signs paired so sum H = 0)",
        ok,
    )


def test_criterion_4_rauch_consequences(battery_g0, battery_g1):
    ef = max(r["rauch_f"] for r in battery_g0 + battery_g1)
    eh = max(r["rauch_h"] for r in battery_g0 + battery_g1 if "rauch_h" in r)
    _verdict(
        4,
        "Rauch consequences d f/d lambda and d h/d lambda within 1e-5",
        ef < 1e-5 and eh < 1e-5,
        f"f {ef:.2e}, h {eh:.2e}",
    )


def test_criterion_5_modulus_flow(battery_g1):
    e = max(r["modulus_flow"] for r in battery_g1)
    _verdict(5, "d sigma / d lambda_k = pi i f_k^2 within 1e-5 (20 genus-1)",
             e < 1e-5, f"{e:.2e}")


def test_criterion_6_route_constancy():
    cov = random_covering0((2, 2), seed=2024)
    b0 = cov.poles[0].b
    table = isomon.sweep_ratios(cov, "poles.0.b", b0 + 0.3 * cmath.exp(0.4j), 20)
    ratios = [row["route_ratio"] for _, _, row in table]
    facts = [row["resultant_ratio"] for _, _, row in table]
    d_route0 = max(abs(r / ratios[0] - 1) for r in ratios)
    d_fact = max(abs(r / facts[0] - 1) for r in facts)

    cov1_inst = random_covering1((2, 1), seed=2025)
    v0 = cov1_inst.poles[0].c[1]
    ratios1 = []
    seeds = None
    for s in range(20):
        c2 = cover1.set_param(
            cov1_inst, "poles.0.c.1", v0 * (1 + 0.015 * s)
        )
        cd = cover1.critical_data(c2) if seeds is None else oracles.seeded_critical_data(c2, seeds)
        seeds = cd.pts
        ratios1.append(
            cover1.tau_product(c2, cd).tau_inv48
            / cover1.tau_resultant([c2], [cd])[0].tau_inv48
        )
    d_route1 = max(abs(r / ratios1[0] - 1) for r in ratios1)
    _verdict(
        6,
        "tau route ratios constant over 20-step sweeps "
        "(< 1e-7) and resultant factorization (< 1e-8)",
        d_route0 < 1e-7 and d_route1 < 1e-7 and d_fact < 1e-8,
        f"genus0 {d_route0:.2e}, genus1 {d_route1:.2e}, factorization {d_fact:.2e}",
    )


def test_criterion_7_g_function_and_anomaly(battery_g0, battery_g1):
    ok = True
    details = []
    rng = np.random.default_rng(77)
    for n in (3, 4, 5):
        coeffs = tuple(complex(rng.normal(), rng.normal()) for _ in range(n - 1))
        cov = Covering0((n,), coeffs, ())
        g = cover0.tau_product(cov, cover0.critical_data(cov)).G
        ok &= g == 0 and abs(cover0.gamma(cov)) < 1e-14
    e = max(r["euler_anomaly"] for r in battery_g0 + battery_g1)
    ok &= e < 1e-5
    _verdict(
        7,
        "G = gamma = 0 for polynomial coverings (N = 3,4,5); E(G) = gamma "
        "within 1e-5 both genera",
        ok,
        f"euler flow {e:.2e}",
    )


def test_criterion_8_order_two_family_closed_form():
    def deviation(sweep):
        vals = []
        for cov in sweep:
            cd = cover1.critical_data(cov)
            pred = cover1.flat_coords(cov).t[0] ** 12 * cmath.exp(
                72.0 * log_dedekind_eta(cov.modulus)
            )
            vals.append(cover1.tau_product(cov, cd).tau_inv48 / pred)
        return max(abs(v / vals[0] - 1) for v in vals)

    base_b = 0.23 + 0.31j
    sweep_c = [
        Covering1(Modulus(1.1j), 0.0, (Pole(base_b, (0.0, 1.0 + 0.05j + 0.06 * s)),))
        for s in range(10)
    ]
    sweep_s = [
        Covering1(Modulus(0.02 * s + (1.1 + 0.03 * s) * 1j), 0.0,
                  (Pole(base_b, (0.0, 1.0 + 0.05j)),))
        for s in range(10)
    ]
    d1, d2 = deviation(sweep_c), deviation(sweep_s)
    _verdict(
        8,
        "one-double-pole family: tau^-48 / (t1^12 eta(t0)^72) constant "
        "within 1e-6 under sweeps of t1 and t0",
        d1 < 1e-6 and d2 < 1e-6,
        f"t1 sweep {d1:.2e}, t0 sweep {d2:.2e}",
    )


def test_criterion_9_caustic_behavior():
    # genus 0: R(f, f') -> 0 along the simple-pole tail ray, estimated
    # vanishing order >= 1; pole-collision order >= k_r + k_s
    cov = random_covering0((2, 1), seed=41)
    rays = {(r.kind, r.indices): r for r in cover0.caustic_orders(cov).rays}
    r_tail = rays[("top-tail", (0,))]
    ok = r_tail.order >= 1.0 - max(0.03, r_tail.fit_residual)
    mags = []
    for s in np.geomspace(1e-1, 1e-5, 7):
        tails = (cov.poles[0].c[0] * s,)
        c2 = Covering0(cov.profile, cov.poly_coeffs, (Pole(cov.poles[0].b, tails),))
        mags.append(abs(cover0.tau_resultant([c2], [cover0.critical_data(c2)])[0].tau_inv48))
    ok &= all(a > b for a, b in zip(mags, mags[1:])) and mags[-1] / mags[0] < 1e-3

    cov2 = random_covering0((2, 1, 1), seed=42)
    rays2 = {
        (r.kind, r.indices): r for r in cover0.caustic_orders(cov2).rays
    }
    for (kind, idx), r in rays2.items():
        if kind == "pole-collision":
            ok &= r.order >= r.expected_min - max(0.03, r.fit_residual)

    # genus 1: kappa -> 0 with order >= 1 along the simple-pole tail ray
    cov3 = random_covering1((2, 1), seed=43)
    c11 = cov3.poles[0].c[0]
    kappas, ts = [], []
    for s in np.geomspace(1e-1, 1e-5, 9):
        poles = (
            Pole(cov3.poles[0].b, (c11 * s, cov3.poles[0].c[1])),
            Pole(cov3.poles[1].b, (-c11 * s,)),
        )
        c2 = Covering1(cov3.modulus, cov3.constant, poles)
        cd = cover1.critical_data(c2)
        kappas.append(abs(cover1.tau_resultant([c2], [cd])[0].kappa))
        ts.append(abs(cover1.flat_coords(c2).t[1]))
    slope = float(np.polyfit(np.log10(ts), np.log10(kappas), 1)[0])
    ok &= all(a > b for a, b in zip(kappas, kappas[1:]))
    ok &= slope >= 1.0 - 0.05
    _verdict(
        9,
        "caustic rays: R(f,f') and kappa vanish with orders above the "
        "factorization bounds",
        ok,
        f"tail order {r_tail.order:.3f}, kappa slope {slope:.3f}",
    )


def test_criterion_10_special_function_substrate():
    rng = np.random.default_rng(10)
    worst = {"heat": 0.0, "eta2": 0.0, "legendre": 0.0, "cubic": 0.0,
             "laurent_p": 0.0, "laurent_s": 0.0, "laurent_z": 0.0}
    for im in np.linspace(0.3, 3.0, 20):
        mod = Modulus(complex(rng.uniform(-0.5, 0.5), im))
        ctx = WeierstrassContext.create(mod)
        d = theta1_derivs(mod, 0.0, 3)
        ratio = d[3] / d[1]
        et = eta_tilde(mod)
        worst["heat"] = max(worst["heat"], abs(ratio - 12j * math.pi * et) / abs(ratio))
        worst["eta2"] = max(
            worst["eta2"], abs(ratio / (12j * math.pi) - et) / abs(et)
        )
        zt = 0.31 + 0.27 * mod.sigma
        e1 = zeta_w(ctx, zt + 1.0) - zeta_w(ctx, zt)
        e2 = zeta_w(ctx, zt + mod.sigma) - zeta_w(ctx, zt)
        worst["legendre"] = max(
            worst["legendre"], abs(e1 * mod.sigma - e2 - 2j * math.pi)
        )
        g2, g3 = oracles.g_invariants(mod)
        z = complex(rng.uniform(0.2, 0.8)) + complex(rng.uniform(0.2, 0.8)) * mod.sigma
        p, dp = wp(ctx, z), wp(ctx, z, 1)
        worst["cubic"] = max(
            worst["cubic"],
            abs(dp * dp - (4 * p**3 - g2 * p - g3)) / max(1.0, abs(p) ** 3),
        )
        worst["laurent_p"] = max(worst["laurent_p"], abs(wp(ctx, 1e-3) - 1e6))
        worst["laurent_s"] = max(worst["laurent_s"], abs(sigma_w(ctx, 1e-3) / 1e-3 - 1))
        worst["laurent_z"] = max(worst["laurent_z"], abs(zeta_w(ctx, 1e-3) - 1e3))
    ok = (
        worst["heat"] < 1e-10
        and worst["eta2"] < 1e-10
        and worst["legendre"] < 1e-10
        and worst["cubic"] < 1e-9
        and worst["laurent_p"] < 1e-4
        and worst["laurent_s"] < 1e-5
        and worst["laurent_z"] < 1e-4
    )
    _verdict(
        10,
        "special-function substrate (Laurent calibrations, Legendre, cubic, "
        "eta-tilde two-series, theta heat ratio) at stated tolerances",
        ok,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )
