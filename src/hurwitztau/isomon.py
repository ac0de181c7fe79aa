"""Isomonodromy layer shared by both genera.

``analyze`` is the whole per-covering stage that the ``analyze`` and
``check`` commands share: the critical data, the rejection of data too near
a pole to verify, the isomonodromy data (rotation coefficients from the
Bergmann kernel, the commutator matrix V, quadratic Hamiltonians by two
independent routes and their discrepancy, Schlesinger residue matrices),
route A's tau and G, and the anomaly gamma.  Exact derivatives in the
canonical coordinates (the critical values) come from the implicit function
theorem at the critical points, for the identity suite.  Route A comes from
``cover0.route_a`` alone: ``analyze`` takes it on principal logarithms, and
``exact_parameter_derivatives`` differentiates it by applying it to rows of
logarithmic derivatives.  The identity suite checks route A over route B,
and R(f, g) over its factorization, against closed-form profile constants
(route B is ``Analysis.route_b``).  The sweep command continues its first
step's critical points along their tangent, in one ``critical_round``.
``parameter_derivatives`` (central differences over the covering
parameters) drives the finite-difference reference in ``tests/oracles.py``;
it stays here while ``perfbench/tracer.py`` wraps it by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import cover0, cover1
from .cover0 import Covering0, CriticalData, TauProduct, TauResultant, _raised, route_a
from .cover1 import Covering1
from .elliptic import LATTICE_GUARD, lattice_distance, wp
from .errors import CausticWarning, CoincidentPointsError, IllConditionedError

__all__ = [
    "Analysis",
    "IsomonodromyData",
    "analyze",
    "bergmann_values",
    "build_isomonodromy",
    "default_tol",
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
COND_LIMIT = 1e8


# --------------------------------------------------------------------------
# uniform analysis of a covering (both genera)


@dataclass(frozen=True, eq=False)
class Analysis:
    """One covering's critical data, isomonodromy data, route A and anomaly.

    ``critical`` is the genus module's critical data, ``iso`` its
    ``build_isomonodromy``, ``tau`` its ``tau_product`` and ``gamma`` the
    scaling anomaly of G.  ``f`` (the roots of f_m^2) and ``h`` (the flat
    h_s) are the branches route A is on: the principal ones here, the ones
    continued from a base analysis in ``tests/oracles.continue_branches``.
    Its ndarray fields have no truth value, so an analysis equals itself only.
    ``route_b`` is route B, one ``tau_resultant`` made on first read, and
    ``route_error`` its ``tau-route-ratio`` error.
    """

    covering: Covering
    critical: CriticalData
    iso: IsomonodromyData
    tau: TauProduct
    gamma: complex
    f: tuple[complex, ...]
    h: tuple[complex, ...]

    @cached_property
    def route_b(self) -> TauResultant:
        model = (cover0, cover1)[self.covering.genus]
        return model.tau_resultant([self.covering], [self.critical])[0]

    @property
    def route_error(self) -> float:
        """|r e^(-c) - 1|, r = ``route_ratio`` and c the model's ``log_route_constant``."""
        c = (cover0, cover1)[self.covering.genus].log_route_constant(self.covering)
        return abs(route_ratio(self.tau, self.route_b) * cmath.exp(-c) - 1.0)


def analyze(covering: Covering, cd: CriticalData | None = None) -> Analysis:
    """The analysis of ``covering`` from its critical data ``cd``, solved here where None.

    Critical points too near a pole to verify (the model's
    ``reject_ill_conditioned``) raise ``OnBoundaryError``.
    """
    model = (cover0, cover1)[covering.genus]
    if cd is None:
        cd = model.critical_data(covering)
    tau, gamma = model.tau_product(covering, cd), model.gamma(covering)
    model.reject_ill_conditioned(covering, cd.pts)
    return Analysis(covering, cd, build_isomonodromy(covering, cd), tau, gamma,
                    tuple(map(cmath.sqrt, cd.fsq)), cd.flat.h)


# --------------------------------------------------------------------------
# Bergmann kernel values and the isomonodromy data


def bergmann_values(covering: Covering, cd: CriticalData) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values b(P_m, P_n) (zero diagonal) and b(P_m, infinity_s) at the points of ``cd``.

    Genus 0: f_m f_n / (z_m - z_n)^2 and f_m h_s / (z_m - b_s)^2 (s >= 2).
    Genus 1: [wp(z_m - z_n) - 4 pi i eta_tilde] f_m f_n and the analogue
    with the pole positions.
    """
    m = len(cd.pts)
    # columns: the critical points, then the poles; the diagonal holds 1/2,
    # a regular point of both kernels, until it is zeroed
    diff = np.subtract.outer(cd.pts, cd.pts + tuple(p.b for p in covering.poles))
    diff.reshape(-1)[:: diff.shape[1] + 1] = 0.5
    # coincidence is tested first: wp's own lattice guard would raise on it
    if covering.genus:
        coincident = lattice_distance(diff[:, :m], covering.modulus.sigma) <= LATTICE_GUARD
    else:
        coincident = np.abs(diff[:, :m]) < cover0.COINCIDENT_TOL
    if coincident.any():
        raise CoincidentPointsError("coincident critical points")
    values = (wp(covering.ctx, diff) - 4j * math.pi * covering.ctx.eta_tilde if covering.genus
              else 1.0 / diff**2)
    f = tuple(map(cmath.sqrt, cd.fsq))
    values *= np.multiply.outer(f, f + cd.flat.h)
    values.reshape(-1)[:: values.shape[1] + 1] = 0.0
    return values[:, :m], values[:, m:]


@dataclass(frozen=True, eq=False)
class IsomonodromyData:
    """Rotation coefficients, commutator matrix, Hamiltonians, residues.

    ``bergmann`` and ``bergmann_poles`` are the kernel values of
    ``bergmann_values`` the data is built from.  Equality is identity, as
    for ``Analysis``.
    """

    bergmann: np.ndarray
    bergmann_poles: np.ndarray
    gamma_matrix: np.ndarray
    v_matrix: np.ndarray
    hamiltonians: tuple[complex, ...]
    hamiltonians_bergmann: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]

    @property
    def hamiltonian_discrepancy(self) -> float:
        """The two routes' disagreement, max |H - sb/24| relative to max |H|."""
        h = np.array(self.hamiltonians)
        return _rel_error(h - np.array(self.hamiltonians_bergmann), h)


def build_isomonodromy(covering: Covering, cd: CriticalData) -> IsomonodromyData:
    """Gamma (= half the kernel values), V = [Gamma, U] and H by two routes, from ``cd``.

    Route one is the quadratic form in V; route two is the projective
    connection value sb/24 at each ramification point.  Both are returned;
    their agreement is the central consistency check of the construction.
    On a near-caustic instance the data is still produced, tagged by the
    ``caustic`` flag of the critical data; nothing is raised or warned.
    """
    B, Binf = bergmann_values(covering, cd)
    m = len(cd.lam)
    gamma = 0.5 * B
    lam = np.array(cd.lam)
    v = gamma * (lam[None, :] - lam[:, None])
    h = [
        0.5 * sum((gamma[i, n] ** 2 * (lam[i] - lam[n]) for n in range(m) if n != i), 0j)
        for i in range(m)
    ]
    h_sb = tuple(s / 24.0 for s in cd.sb)
    # the k-th residue keeps the k-th row of V
    residues = [np.where(np.arange(m)[:, None] == k, v, 0j) for k in range(m)]
    return IsomonodromyData(B, Binf, gamma, v, tuple(h), h_sb, tuple(residues))


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


def _tangent(covering: Covering, pts) -> tuple[np.ndarray, ...]:
    """The model's ``eval_param_derivs`` at the critical points ``pts``, then the tangent
    d z_m/d theta = -d_theta p'/p'' of each ``params`` path theta, shape (P, M)."""
    rows, dp, dtop = (cover0, cover1)[covering.genus].eval_param_derivs(covering, np.array(pts))
    return rows, dp, dtop, -dp[:, 1] / rows[2]


def exact_parameter_derivatives(an: Analysis) -> tuple[list[str], dict, np.ndarray]:
    """The analysis' parameter derivatives in closed form.

    Same layout as ``parameter_derivatives``: (paths, arrays of shape
    (P, len(value))) for ``lam``, ``fsq``, ``f``, ``h``, ``T``,
    ``log_tau48``, ``G`` and, at genus 1, ``sigma``; then the tangent of the
    critical points, d z_m/d theta of shape (P, M).  At a critical point
    p'(z_m) = 0, so with the partials d_theta p^(n) at fixed z:
    d lambda_m = d_theta p, d z_m = -d_theta p'/p'' (``_tangent``), and
    d fsq_m = -2 (d_theta p'' + p^(3) d z_m)/p''^2; h_s follows its top tail
    (h_s^k_s is proportional to it), and so does t_s.  T, log tau^-48 and G
    are ``route_a`` of the rows d log f_m^2, d log h_s = d log t_s and
    d log eta = eta_tilde d sigma.  The partials and the top-tail
    derivatives come from the model's ``eval_param_derivs`` at the
    analysis' points; its rows of the ``params`` paths outside
    ``deformation_params`` are dropped.
    """
    cov, cd = an.covering, an.critical
    model = (cover0, cover1)[cov.genus]
    paths, table = model.deformation_params(cov), list(model.params(cov))
    rows, dp, dtop, dz = _tangent(cov, cd.pts)  # (4, M), (P', 3, M), (P', S), (P', M)
    keep = [table.index(path) for path in paths]
    dp, dtop, dz = dp[keep], dtop[keep], dz[keep]
    p2, p3 = rows[2], rows[3]
    dfsq = -2.0 * (dp[:, 2] + p3 * dz) / (p2 * p2)
    top = np.array([p.top for p in cov.poles], dtype=complex)
    ks = [p.order for p in cov.poles]
    dlog_h = dtop / (np.array(ks) * top)  # (P, S)
    dsigma = np.array([float(path == "modulus") for path in paths])
    tau = route_a(ks, (dfsq / np.array(cd.fsq)).T, dlog_h.T, dlog_h.T,
                  (cov.ctx.eta_tilde if cov.genus else 0.0) * dsigma)
    derivs = {
        "lam": dp[:, 0],
        "fsq": dfsq,
        "f": dfsq / (2.0 * np.array(an.f)),
        "h": dlog_h * np.array(an.h, dtype=complex),
        "T": tau.T,
        "log_tau48": tau.log_tau_inv48,
        "G": tau.G,
    }
    if cov.genus:
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


def _rel_error(diff, ref) -> float:
    """max |diff| relative to max |ref|; the absolute error where ref is all zero."""
    err = float(np.max(np.abs(diff)))
    scale = float(np.max(np.abs(ref)))
    return err / scale if scale else err


def route_ratio(ta: TauProduct, tb: cover0.TauResultant) -> complex:
    """exp(log tau^-48_A - log tau^-48_B); a route B that vanishes (log -inf, as
    where critical points collide) raises ``CoincidentPointsError``."""
    if tb.log_tau_inv48.real == -math.inf:
        raise CoincidentPointsError("route B vanishes: log tau^-48 is -inf")
    return cmath.exp(ta.log_tau_inv48 - tb.log_tau_inv48)


def sweep_ratios(covering: Covering, path: str, target: complex, steps: int):
    """Coverings and cross-route tau data along a straight parameter segment.

    Returns (step index, covering, dict of per-step scalars) triples for the
    sweep command.  Step 0 solves with the model's ``critical_data``, which
    raises its error; the other steps continue z_m + move * dz_m/d path from
    its points (``_tangent``) in one ``critical_round``.  Then raises
    ``CausticWarning`` for the first step whose critical data carries the
    caustic flag, whatever the warning filters; then the error of the first
    step whose solve or data failed; then ``OnBoundaryError`` for the first
    step too near S2 to verify (the model's ``reject_ill_conditioned``).
    Fewer than 2 steps raise ``ValueError``.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    model = (cover0, cover1)[covering.genus]
    table = model.params(covering)
    moves = [(target - table[path]) * (s / (steps - 1)) for s in range(steps)]
    coverings = [model.set_param(covering, path, table[path] + d) for d in moves]
    cds = [model.critical_data(coverings[0])]
    dz = _tangent(coverings[0], cds[0].pts)[3][list(table).index(path)]
    cds += model.critical_round(coverings[1:], [np.array(cds[0].pts) + d * dz for d in moves[1:]])
    for cd in cds:
        if not isinstance(cd, Exception) and cd.caustic:
            raise CausticWarning(f"critical values nearly collide (gap {cd.min_lambda_gap:.3e})")
    cds = _raised(cds)
    rows = [{"route_ratio": route_ratio(model.tau_product(cov, cd), tb)}
            for cov, cd, tb in zip(coverings, cds, model.tau_resultant(coverings, cds))]
    for cov, cd, row in zip(coverings, cds, rows):
        model.reject_ill_conditioned(cov, cd.pts)
        if cd.resultant_ratio is not None:  # a genus test: R(f, g) factorizes at genus 0 only
            row["resultant_ratio"] = cd.resultant_ratio
    return list(zip(range(steps), coverings, rows))


# default tolerances per identity; a caller-supplied tolerance replaces all
DEFAULT_TOLS = {
    "tau-gradient": 1e-9,
    "rauch-ramification": 1e-9,
    "rauch-puncture": 1e-9,
    "schwarzian-gradient": 1e-9,
    "hamiltonian-two-route": 1e-8,  # 1e-6 at genus 1 (``default_tol``)
    "hamiltonian-sum": 1e-10,
    "euler-anomaly": 1e-9,
    "modulus-flow": 1e-9,
    "tau-route-ratio": 1e-7,
    "resultant-factorization": 1e-8,
}


def default_tol(name: str, genus: int) -> float:
    """The default tolerance of identity ``name`` at ``genus``, which ``check`` and the
    ``analyze`` statuses both read."""
    return 1e-6 if genus and name == "hamiltonian-two-route" else DEFAULT_TOLS[name]


def identity_report(covering: Covering, tol: float | None = None) -> list[IdentityCheck]:
    """Run every applicable differential/closed-form identity at one point.

    All of them read the one analysis of the covering.  The gradient
    identities take its exact lambda derivatives; the cross-route identities
    compare route A over route B (one ``tau_resultant``) with the model's
    ``log_route_constant`` and, at genus 0, R(f, g) over its factorization with
    ``cover0.log_resultant_constant``.  A not-None ``tol`` replaces every
    default.  A covering whose critical points sit too near a pole to verify
    (``reject_ill_conditioned``) raises ``OnBoundaryError``, and a route B that
    vanishes ``CoincidentPointsError``.
    """
    an = analyze(covering)
    cd, iso = an.critical, an.iso
    B, Binf = iso.bergmann, iso.bergmann_poles
    _, pderivs, _ = exact_parameter_derivatives(an)
    d = _chain_to_lambda(pderivs)
    m = len(cd.lam)
    lam = np.array(cd.lam)
    h = np.array(iso.hamiltonians)

    def tolerance(name: str) -> float:
        return default_tol(name, covering.genus) if tol is None else tol

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
    sw = np.array(cd.sw)
    err = _rel_error(dT - sw, sw)
    checks.append(IdentityCheck("schwarzian-gradient", err, tolerance("schwarzian-gradient"),
                                "d T / d lambda_k vs Schwarzian at P_k"))

    checks.append(IdentityCheck("hamiltonian-two-route", iso.hamiltonian_discrepancy,
                                tolerance("hamiltonian-two-route"),
                                "H from V-quadratic form vs projective connection"))

    err = _rel_error(np.sum(h), h)
    checks.append(IdentityCheck("hamiltonian-sum", err, tolerance("hamiltonian-sum"),
                                "sum_m H_m = 0"))

    eg = complex(d["G"][0] @ lam)
    err = abs(eg - an.gamma) / max(1.0, abs(an.gamma))
    checks.append(IdentityCheck("euler-anomaly", err, tolerance("euler-anomaly"),
                                "E(G) vs closed-form gamma"))

    if covering.genus:
        dsig = d["sigma"][0]
        rhs_s = 1j * math.pi * np.array(cd.fsq)
        err = _rel_error(dsig - rhs_s, rhs_s)
        checks.append(IdentityCheck("modulus-flow", err, tolerance("modulus-flow"),
                                    "d sigma / d lambda_k vs pi i f_k^2"))

    checks.append(IdentityCheck("tau-route-ratio", an.route_error, tolerance("tau-route-ratio"),
                                "product vs resultant route: closed-form profile constant"))
    if cd.resultant_ratio is not None:  # a genus test: R(f, g) factorizes at genus 0 only
        err = abs(cd.resultant_ratio * cmath.exp(-cover0.log_resultant_constant(covering)) - 1.0)
        checks.append(IdentityCheck("resultant-factorization", err,
                                    tolerance("resultant-factorization"),
                                    "R(f,g) vs pole/flat factorization: closed-form constant"))
    return checks
