"""Isomonodromy layer shared by both genera.

Rotation coefficients from the Bergmann kernel, the commutator matrix V,
quadratic Hamiltonians by two independent routes, Schlesinger residue
matrices, and exact derivatives in the canonical coordinates (the critical
values) from the implicit function theorem at the critical points, which
the identity suite uses.  Route A's tau and G come from ``cover0.route_a``
alone: ``analyze`` reports it on principal logarithms, and
``exact_parameter_derivatives`` differentiates it by applying it to rows of
logarithmic derivatives.  ``parameter_derivatives`` (central differences
over the covering parameters) drives the finite-difference reference in
``tests/oracles.py``; it stays here while ``perfbench/tracer.py`` wraps it
by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cover0, cover1
from .cover0 import Covering0, TauProduct, _raised, route_a
from .cover1 import Covering1
from .elliptic import lattice_distance, wp
from .errors import CoincidentPointsError, HurwitzError, IllConditionedError

__all__ = [
    "Analysis",
    "IsomonodromyData",
    "analyze",
    "bergmann_values",
    "build_isomonodromy",
    "exact_parameter_derivatives",
    "identity_report",
    "IdentityCheck",
    "route_ratio",
    "sweep_ratios",
]

Covering = Covering0 | Covering1
# The finite-difference step, relative to max(1, |parameter|).  Richardson
# truncation is O(h^4) while the round-off of the perturbed root solves grows
# as 1/h; at 1e-4 round-off dominates and is about 10x below that at 1e-5
# (worst of 60 sampled specs of both genera: 1.5e-8 against 1.5e-7).
FD_STEP = 1e-4
SWEEP_STEPS = 5  # odd: the middle step is the covering itself
COND_LIMIT = 1e8


# --------------------------------------------------------------------------
# uniform analysis of a covering (both genera)


@dataclass(frozen=True)
class Analysis:
    """Everything the identity checks consume, on principal branches.

    ``tau`` is the genus module's ``tau_product`` and ``critical`` its
    critical data, in the order of ``pts``.
    """

    covering: Covering
    genus: int
    pts: tuple[complex, ...]
    lam: tuple[complex, ...]
    fsq: tuple[complex, ...]
    sw: tuple[complex, ...]
    sb: tuple[complex, ...]
    f: tuple[complex, ...]
    h: tuple[complex, ...]
    ks: tuple[int, ...]
    sigma: complex | None
    eta_tilde: complex | None
    tau: TauProduct
    gamma: complex
    critical: cover0.CriticalData0 | cover1.CriticalData1


def analyze(covering: Covering) -> Analysis:
    """Critical data, flat data and closed-form scalars in one bundle."""
    return _analysis(covering, (cover0, cover1)[covering.genus].critical_data(covering))


def _analysis(covering: Covering, cd) -> Analysis:
    """``analyze`` of ``covering`` from its critical data ``cd``."""
    model = (cover0, cover1)[covering.genus]
    return Analysis(
        covering=covering,
        genus=covering.genus,
        pts=tuple(cd.pts),
        lam=tuple(cd.lam),
        fsq=tuple(cd.fsq),
        sw=tuple(cd.sw),
        sb=tuple(cd.sb),
        f=tuple(cmath.sqrt(v) for v in cd.fsq),
        h=tuple(cd.flat.h),
        ks=tuple(p.order for p in covering.poles),
        sigma=covering.modulus.sigma if covering.genus else None,
        eta_tilde=covering.ctx.eta_tilde if covering.genus else None,
        tau=model.tau_product(covering, cd),
        gamma=model.gamma(covering),
        critical=cd,
    )


# --------------------------------------------------------------------------
# Bergmann kernel values and the isomonodromy data


def bergmann_values(covering: Covering, an: Analysis) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values b(P_m, P_n) (zero diagonal) and b(P_m, infinity_s).

    Genus 0: f_m f_n / (z_m - z_n)^2 and f_m h_s / (z_m - b_s)^2 (s >= 2).
    Genus 1: [wp(z_m - z_n) - 4 pi i eta_tilde] f_m f_n and the analogue
    with the pole positions.
    """
    m = len(an.pts)
    # columns: the critical points, then the poles; the diagonal holds 1/2,
    # a regular point of both kernels, until it is zeroed
    diff = np.subtract.outer(an.pts, an.pts + tuple(p.b for p in covering.poles))
    diff.reshape(-1)[:: diff.shape[1] + 1] = 0.5
    if an.genus:
        values = wp(covering.ctx, diff) - 4j * math.pi * an.eta_tilde
        coincident = lattice_distance(diff[:, :m], an.sigma) < 1e-10
    else:
        values = 1.0 / diff**2
        coincident = np.abs(diff[:, :m]) < 1e-12
    if coincident.any():
        raise CoincidentPointsError("coincident critical points")
    values *= np.multiply.outer(an.f, an.f + an.h)
    values.reshape(-1)[:: values.shape[1] + 1] = 0.0
    return values[:, :m], values[:, m:]


@dataclass(frozen=True)
class IsomonodromyData:
    """Rotation coefficients, commutator matrix, Hamiltonians, residues.

    ``bergmann`` and ``bergmann_poles`` are the kernel values of
    ``bergmann_values`` the data is built from.
    """

    bergmann: np.ndarray
    bergmann_poles: np.ndarray
    gamma_matrix: np.ndarray
    v_matrix: np.ndarray
    hamiltonians: tuple[complex, ...]
    hamiltonians_bergmann: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]
    lam: tuple[complex, ...]
    caustic: bool


def build_isomonodromy(covering: Covering, an: Analysis) -> IsomonodromyData:
    """Gamma (= half the kernel values), V = [Gamma, U], and H by two routes.

    Route one is the quadratic form in V; route two is the projective
    connection value sb/24 at each ramification point.  Both are returned;
    their agreement is the central consistency check of the construction.
    On a near-caustic instance the data is still produced, tagged by the
    ``caustic`` flag (a CausticWarning is emitted by the critical data).
    """
    B, Binf = bergmann_values(covering, an)
    m = len(an.lam)
    gamma = 0.5 * B
    lam = np.array(an.lam)
    v = gamma * (lam[None, :] - lam[:, None])
    h = [
        0.5 * sum((gamma[i, n] ** 2 * (lam[i] - lam[n]) for n in range(m) if n != i), 0j)
        for i in range(m)
    ]
    h_sb = tuple(s / 24.0 for s in an.sb)
    # the k-th residue keeps the k-th row of V
    residues = [np.where(np.arange(m)[:, None] == k, v, 0j) for k in range(m)]
    return IsomonodromyData(
        bergmann=B,
        bergmann_poles=Binf,
        gamma_matrix=gamma,
        v_matrix=v,
        hamiltonians=tuple(h),
        hamiltonians_bergmann=h_sb,
        residues=tuple(residues),
        lam=an.lam,
        caustic=an.critical.caustic,
    )


# --------------------------------------------------------------------------
# the finite-difference engine


def _bundle_arrays(bundle: dict) -> dict[str, np.ndarray]:
    return {k: np.atleast_1d(np.asarray(v, dtype=complex)) for k, v in bundle.items()}


def parameter_derivatives(
    covering: Covering,
    bundle_fn: Callable[[Covering], dict],
) -> tuple[dict[str, np.ndarray], list[str], dict[str, np.ndarray]]:
    """Central differences with one Richardson level, per complex parameter.

    ``bundle_fn`` maps a covering to a dict of scalars/vectors; holomorphy
    in each complex parameter means a real-axis step determines the full
    complex derivative.  Returns (base bundle, parameter paths, derivative
    arrays of shape (P, len(value))).
    """
    model = (cover0, cover1)[covering.genus]
    base = _bundle_arrays(bundle_fn(covering))
    table = model.params(covering)
    paths = model.deformation_params(covering)
    derivs: dict[str, list[np.ndarray]] = {k: [] for k in base}
    for path in paths:
        v0 = table[path]
        h = FD_STEP * max(1.0, abs(v0))
        evals = {}
        for mult in (1.0, -1.0, 0.5, -0.5):
            evals[mult] = _bundle_arrays(bundle_fn(model.set_param(covering, path, v0 + mult * h)))
        for k in base:
            d1 = (evals[1.0][k] - evals[-1.0][k]) / (2.0 * h)
            d2 = (evals[0.5][k] - evals[-0.5][k]) / h
            derivs[k].append((4.0 * d2 - d1) / 3.0)
    return base, paths, {k: np.array(v) for k, v in derivs.items()}


def _chain_to_lambda(derivs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Parameter derivatives (P, len(value)) to lambda derivatives (len(value), M).

    The parameter Jacobian of ``derivs["lam"]`` is inverted (the parameter
    count equals the moduli dimension) and chained with every entry.
    """
    jac = derivs["lam"].T  # (M, P)
    m, p = jac.shape
    if m != p:
        raise IllConditionedError(f"parameter count {p} != dimension {m}")
    cond = float(np.linalg.cond(jac))
    if cond > COND_LIMIT:
        raise IllConditionedError(f"deformation Jacobian condition {cond:.2e}")
    inv = np.linalg.inv(jac)  # (P, M): d params / d lambda
    return {k: d.T @ inv for k, d in derivs.items()}


# --------------------------------------------------------------------------
# exact deformation derivatives


def _top_derivs(an: Analysis, paths: Sequence[str]) -> np.ndarray:
    """d(top tail of pole s)/d theta, shape (P, S).

    A path moves its own pole's top tail.  A top tail that is not a path is
    the residue of a simple last pole that the residue constraint fixes
    (genus 1): every other residue path moves it, with weight -1.
    """
    poles = an.covering.poles
    row = {path: j for j, path in enumerate(paths)}
    out = np.zeros((len(paths), len(poles)))
    for i, pole in enumerate(poles):
        top = f"poles.{i}.c.{pole.order - 1}"
        if top in row:
            out[row[top], i] = 1.0
        else:
            out[[row[f"poles.{r}.c.0"] for r in range(i)], i] = -1.0
    return out


def exact_parameter_derivatives(an: Analysis, partials=None) -> tuple[list[str], dict, np.ndarray]:
    """The analysis' parameter derivatives in closed form.

    Same layout as ``parameter_derivatives``: (paths, arrays of shape
    (P, len(value))) for ``lam``, ``fsq``, ``f``, ``h``, ``T``,
    ``log_tau48``, ``G`` and, at genus 1, ``sigma``; then the tangent of the
    critical points, d z_m/d theta of shape (P, M).  At a critical point
    p'(z_m) = 0, so with the partials d_theta p^(n) at fixed z:
    d lambda_m = d_theta p, d z_m = -d_theta p'/p'', and
    d fsq_m = -2 (d_theta p'' + p^(3) d z_m)/p''^2; h_s follows its top tail
    (h_s^k_s is proportional to it), and so does t_s.  T, log tau^-48 and G
    are ``route_a`` of the rows d log f_m^2, d log h_s = d log t_s and
    d log eta = eta_tilde d sigma.  ``partials`` is the model's
    ``eval_param_derivs`` at the analysis' points where the caller has it.
    """
    cov = an.covering
    model = (cover0, cover1)[an.genus]
    paths = model.deformation_params(cov)
    rows, dp = partials or model.eval_param_derivs(cov, np.array(an.pts))  # (4, M), (P, 3, M)
    p2, p3 = rows[2], rows[3]
    dz = -dp[:, 1] / p2
    dfsq = -2.0 * (dp[:, 2] + p3 * dz) / (p2 * p2)
    top = np.array([p.top for p in cov.poles], dtype=complex)
    dlog_h = _top_derivs(an, paths) / (np.array(an.ks) * top)  # (P, S)
    dsigma = np.array([float(path == "modulus") for path in paths])
    tau = route_a(an.ks, (dfsq / np.array(an.fsq)).T, dlog_h.T, dlog_h.T,
                  (an.eta_tilde or 0.0) * dsigma)
    derivs = {
        "lam": dp[:, 0],
        "fsq": dfsq,
        "f": dfsq / (2.0 * np.array(an.f)),
        "h": dlog_h * np.array(an.h, dtype=complex),
        "T": tau.T,
        "log_tau48": tau.log_tau_inv48,
        "G": tau.G,
    }
    if an.genus:
        derivs["sigma"] = dsigma
    n = len(paths)
    return paths, {k: np.asarray(v, dtype=complex).reshape(n, -1) for k, v in derivs.items()}, dz


# --------------------------------------------------------------------------
# the identity suite


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    error: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.error < self.tol


def _sweep_offsets(covering: Covering, path: str, phase: float) -> list[complex]:
    """The identity sweep's moves of ``path``: SWEEP_STEPS steps but the middle one (no move).

    ``path`` moves by up to 5% of max(1, |value|) either way, along ``phase``.
    """
    v0 = (cover0, cover1)[covering.genus].params(covering)[path]
    delta = 0.1 * max(1.0, abs(v0)) * cmath.exp(1j * phase)
    return [delta * (s / (SWEEP_STEPS - 1) - 0.5)
            for s in range(SWEEP_STEPS) if s != SWEEP_STEPS // 2]


def _sweep_coverings(covering: Covering, path: str, phase: float) -> list[Covering]:
    """The identity sweep's steps but the middle one, ``covering`` itself: ``_sweep_offsets``."""
    model = (cover0, cover1)[covering.genus]
    v0 = model.params(covering)[path]
    return [model.set_param(covering, path, v0 + d) for d in _sweep_offsets(covering, path, phase)]


def _rel_error(diff, ref) -> float:
    """max |diff| relative to max |ref|; the absolute error where ref is all zero."""
    err = float(np.max(np.abs(diff)))
    scale = float(np.max(np.abs(ref)))
    return err / scale if scale else err


def _ratio_drift(values: list[complex]) -> float:
    ref = values[0]
    return max(abs(v / ref - 1.0) for v in values)


def route_ratio(ta: TauProduct, tb: cover0.TauResultant) -> complex:
    """exp(log tau^-48_A - log tau^-48_B); a route B that vanishes (log -inf, as
    where critical points collide) raises ``CoincidentPointsError``."""
    if tb.log_tau_inv48.real == -math.inf:
        raise CoincidentPointsError("route B vanishes: log tau^-48 is -inf")
    return cmath.exp(ta.log_tau_inv48 - tb.log_tau_inv48)


def _route_row(cov: Covering, cd: cover0.CriticalData0 | cover1.CriticalData1,
               tb, ta) -> dict:
    """Cross-route tau data of one covering from its critical data and routes A and B."""
    row = {"pts": cd.pts, "route_ratio": route_ratio(ta, tb)}
    if cd.resultant_ratio is not None:  # a genus test: R(f, g) factorizes at genus 0 only
        row["resultant_ratio"] = cd.resultant_ratio
    return row


def _route_rows(coverings: Sequence[Covering], cds: Sequence, tas=None) -> list[dict]:
    """Cross-route tau data of each covering: route B in one call, route A unless ``tas`` has it."""
    model = (cover0, cover1)[coverings[0].genus]
    tbs = model.tau_resultant_many(coverings, cds)
    return [_route_row(cov, cd, tb, ta or model.tau_product(cov, cd))
            for cov, cd, tb, ta in zip(coverings, cds, tbs, tas or [None] * len(cds))]


def _continued(coverings: Sequence[Covering], seeds) -> list:
    """Critical data of each covering from its seeds in one call; failures solve globally alone."""
    model = (cover0, cover1)[coverings[0].genus]
    cds = [None] * len(coverings) if seeds[0] is None else model.critical_data_many(coverings, seeds)
    return [cd or model.critical_data(cov) for cov, cd in zip(coverings, cds)]


def sweep_ratios(covering: Covering, path: str, target: complex, steps: int):
    """Coverings and cross-route tau data along a straight parameter segment.

    Returns (step index, covering, dict of per-step scalars) triples.  Used
    by the sweep command; raises the underlying boundary/caustic errors at
    the offending step (``OnBoundaryError`` for a step too near S2 to
    verify, the model's ``reject_ill_conditioned``), and ``ValueError`` for
    fewer than 2 steps.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    model = (cover0, cover1)[covering.genus]
    v0 = model.params(covering)[path]
    coverings = [
        model.set_param(covering, path, v0 + (target - v0) * (s / (steps - 1)))
        for s in range(steps)
    ]
    cds = []
    for cov in coverings:  # each step continues the one before; the first solves globally
        cds += _continued([cov], [cds[-1].pts if cds else None])
    rows = _route_rows(coverings, cds)
    for cov, row in zip(coverings, rows):
        model.reject_ill_conditioned(cov, row["pts"])
    return list(zip(range(steps), coverings, rows))


# default tolerances per identity; a caller-supplied tolerance replaces all
DEFAULT_TOLS = {
    "tau-gradient": 1e-9,
    "rauch-ramification": 1e-9,
    "rauch-puncture": 1e-9,
    "schwarzian-gradient": 1e-9,
    "hamiltonian-two-route": 1e-8,  # 1e-6 at genus 1
    "hamiltonian-sum": 1e-10,
    "euler-anomaly": 1e-9,
    "modulus-flow": 1e-9,
    "tau-route-ratio": 1e-7,
    "resultant-factorization": 1e-8,
}


def identity_report(
    covering: Covering,
    tol: float | None = None,
    seed: int = 42,
) -> list[IdentityCheck]:
    """Run every applicable differential/closed-form identity at one point.

    Gradient identities use the exact lambda derivatives of the one analysis;
    the cross-route constancy identities run a short deterministic parameter
    sweep of SWEEP_STEPS coverings around the instance, the middle one the
    covering itself.  All make one critical-data round (``critical_round``):
    the covering solves globally, each other step continues its points from
    z_m + move * dz_m/d path (dz of ``exact_parameter_derivatives``), and one
    data pass serves them all.  A step that cannot be built, or at genus 0
    whose data fails, raises after the checks at the covering, whose own
    errors come first.  A not-None ``tol`` replaces every default.  A covering
    whose critical points sit too near a pole to verify (the model's
    ``reject_ill_conditioned``) raises ``OnBoundaryError``.
    """
    model = (cover0, cover1)[covering.genus]
    rng = np.random.default_rng(seed)
    path = model.default_sweep_param(covering)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    try:  # an error here raises where the sweep starts, after the checks at the covering
        sweep, sweep_error = _sweep_coverings(covering, path, phase), None
    except (HurwitzError, KeyError) as exc:  # KeyError: no sweep path where M = 0
        sweep, sweep_error = [], exc
    partials = []

    def predict(pts) -> list[np.ndarray]:
        partials.append(model.eval_param_derivs(covering, np.array(pts)))
        (rows, dp), moves = partials[0], _sweep_offsets(covering, path, phase)[: len(sweep)]
        tangent = -dp[model.deformation_params(covering).index(path), 1] / rows[2]
        return [np.array(pts) + move * tangent for move in moves]

    cds = model.critical_round([covering, *sweep], predict)
    an = _analysis(covering, *_raised(cds[:1]))
    model.reject_ill_conditioned(covering, an.pts)
    iso = build_isomonodromy(covering, an)
    B, Binf = iso.bergmann, iso.bergmann_poles
    _, pderivs, _ = exact_parameter_derivatives(an, partials[0])
    d = _chain_to_lambda(pderivs)
    m = len(an.lam)
    lam = np.array(an.lam)
    h = np.array(iso.hamiltonians)

    def tolerance(name: str) -> float:
        if tol is not None:
            return tol
        t = DEFAULT_TOLS[name]
        if name == "hamiltonian-two-route" and an.genus:
            t = 1e-6
        return t

    checks: list[IdentityCheck] = []

    dlogtau = -d["log_tau48"][0] / 48.0
    err = _rel_error(dlogtau - h, h)
    checks.append(IdentityCheck("tau-gradient", err, tolerance("tau-gradient"),
                                "d log tau / d lambda_k vs H_k"))

    if m > 1:  # one critical point has no pair to relate
        df = d["f"]  # (M, M): df_n/dlam_m at [n, m]
        rhs = 0.5 * B.T * np.array(an.f)[None, :]  # [n, m] = 0.5 B[m, n] f_m
        mask = ~np.eye(m, dtype=bool)
        err = _rel_error((df - rhs)[mask], rhs[mask])
        checks.append(IdentityCheck("rauch-ramification", err, tolerance("rauch-ramification"),
                                    "d f_n / d lambda_m vs (1/2) b(P_m,P_n) f_m"))

    if an.h:
        dh = d["h"]  # (S, M)
        rhs_h = 0.5 * Binf.T * np.array(an.f)[None, :]
        err = _rel_error(dh - rhs_h, rhs_h)
        checks.append(IdentityCheck("rauch-puncture", err, tolerance("rauch-puncture"),
                                    "d h_s / d lambda_m vs (1/2) b(P_m,inf_s) f_m"))

    dT = d["T"][0]
    sw = np.array(an.sw)
    err = _rel_error(dT - sw, sw)
    checks.append(IdentityCheck("schwarzian-gradient", err, tolerance("schwarzian-gradient"),
                                "d T / d lambda_k vs Schwarzian at P_k"))

    err = _rel_error(h - np.array(iso.hamiltonians_bergmann), h)
    checks.append(IdentityCheck("hamiltonian-two-route", err, tolerance("hamiltonian-two-route"),
                                "H from V-quadratic form vs projective connection"))

    err = _rel_error(np.sum(h), h)
    checks.append(IdentityCheck("hamiltonian-sum", err, tolerance("hamiltonian-sum"),
                                "sum_m H_m = 0"))

    eg = complex(d["G"][0] @ lam)
    err = abs(eg - an.gamma) / max(1.0, abs(an.gamma))
    checks.append(IdentityCheck("euler-anomaly", err, tolerance("euler-anomaly"),
                                "E(G) vs closed-form gamma"))

    if an.genus:
        dsig = d["sigma"][0]
        rhs_s = 1j * math.pi * np.array(an.fsq)
        err = _rel_error(dsig - rhs_s, rhs_s)
        checks.append(IdentityCheck("modulus-flow", err, tolerance("modulus-flow"),
                                    "d sigma / d lambda_k vs pi i f_k^2"))

    # cross-route constancy; a failed seeded solve solves globally alone, and the
    # middle step takes its critical data and route A from the analysis
    if sweep_error is not None:
        raise sweep_error
    cds = [cd or model.critical_data(cov) for cov, cd in zip(sweep, _raised(cds[1:]))]
    mid = SWEEP_STEPS // 2
    rows = _route_rows(sweep[:mid] + [covering] + sweep[mid:],
                       cds[:mid] + [an.critical] + cds[mid:],
                       [None] * mid + [an.tau] + [None] * (len(sweep) - mid))
    ratios = [row["route_ratio"] for row in rows]
    factorization_ratios = [row["resultant_ratio"] for row in rows if "resultant_ratio" in row]
    checks.append(IdentityCheck("tau-route-ratio", _ratio_drift(ratios),
                                tolerance("tau-route-ratio"),
                                f"product vs resultant route along {path}"))
    if factorization_ratios:
        checks.append(IdentityCheck("resultant-factorization", _ratio_drift(factorization_ratios),
                                    tolerance("resultant-factorization"),
                                    f"R(f,g) vs pole/flat factorization along {path}"))
    return checks
