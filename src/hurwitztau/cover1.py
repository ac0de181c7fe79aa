"""Genus-1 covering model: elliptic functions with prescribed pole profile.

A point of the moduli space is an elliptic function on C/(Z + sigma*Z)

    p(z) = a + sum_{i=1..l} sum_{alpha=1..k_i} c_{i,alpha} zeta^(alpha-1)(z - b_i)

whose residues sum to zero (ellipticity).  The module defines the genus-0
model's names with the same parameters: critical data via zero localization
of p', flat coordinates, the tau-function by two closed-form routes, and the
G-function with anomaly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, islice
from typing import Sequence

import numpy as np

from .cover0 import (
    Pole,
    TauProduct,
    TauResultant,
    check_pole_gaps,
    frame_data,
    principal_root,
    principal_route_a,
    route_b_denominator_terms,
)
from .elliptic import (
    Modulus,
    WeierstrassContext,
    _iterate_lanes,
    _pair_indices,
    _pole_zeta_rows,
    _principal_sum,
    _zeta_sigma_rows,
    cell_coords,
    elliptic_zeros,
    lattice_distance,
    point_array,
    reduce_to_cell,
    shape_rows,
    sigma_w,
    weierstrass_context,
    zeta_derivs,
)
from .errors import CountMismatchError, HurwitzError, NearPoleError, OnBoundaryError

__all__ = [
    "Covering1",
    "CriticalData1",
    "FlatCoords1",
    "TauResultant1",
    "eval_p_derivs",
    "eval_param_derivs",
    "critical_data",
    "critical_round",
    "reject_ill_conditioned",
    "flat_coords",
    "tau_product",
    "tau_resultant",
]

RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class Covering1:
    """Elliptic covering with pole profile (k_1, ..., k_l) over infinity.

    Pole positions are reduced to the fundamental cell at construction;
    the residue constraint sum_i c_{i,1} = 0 and the boundary conditions
    (poles distinct mod lattice, non-zero top tails) are enforced here.
    """

    modulus: Modulus
    constant: complex
    poles: tuple[Pole, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", complex(self.constant))
        sigma = self.modulus.sigma
        object.__setattr__(
            self,
            "poles",
            tuple(Pole(reduce_to_cell(p.b, sigma), p.c) for p in self.poles),
        )
        if not self.poles:
            raise ValueError("need at least one pole")
        if any(p.order < 1 for p in self.poles):
            raise ValueError("every pole needs at least one tail coefficient")
        res = sum(p.c[0] for p in self.poles)
        scale = max(max(abs(v) for v in p.c) for p in self.poles)
        if abs(res) > RESIDUE_TOL * max(1.0, scale):
            raise ValueError(f"residues must sum to zero, got {res}")
        for i, p in enumerate(self.poles):
            if abs(p.top) <= 1e-10:
                raise OnBoundaryError("S2", (i,))
        i, j = _pair_indices(len(self.poles))
        bs = np.array([p.b for p in self.poles])
        clash = np.flatnonzero(lattice_distance(bs[i] - bs[j], sigma) <= 1e-10)
        if clash.size:
            raise OnBoundaryError("S1", (int(i[clash[0]]), int(j[clash[0]])))

    @property
    def genus(self) -> int:
        return 1

    @property
    def profile(self) -> tuple[int, ...]:
        return tuple(p.order for p in self.poles)

    @property
    def degree(self) -> int:
        return sum(self.profile)

    @property
    def n_poles(self) -> int:
        return len(self.poles)

    @property
    def dim(self) -> int:
        """Moduli dimension M = l + N."""
        return len(self.poles) + self.degree

    @cached_property
    def ctx(self) -> WeierstrassContext:
        return weierstrass_context(self.modulus)


def eval_p_derivs(c: Covering1 | Sequence[Covering1], z, n_max: int):
    """[p(z), ..., p^(n_max)(z)] from the zeta-derivative basis.

    ``z`` is a complex scalar (returns a list of complex) or an array of
    points (returns an array of shape (n_max + 1, *z.shape)).  Stacked: ``c``
    is a sequence of coverings of one modulus and one profile and ``z`` one
    1-d point array per covering; the columns are all their points in turn.
    All z - b_i are reduced together and take one theta evaluation
    (``elliptic._pole_zeta_rows``, whose pole guard raises ``NearPoleError``).
    """
    if isinstance(c, Covering1):
        cs, (pts, shape) = (c,), point_array(z)
        counts = [len(pts)]
    else:
        cs, pts, counts = c, np.concatenate(z), [len(part) for part in z]
        shape = pts.shape
    ends = list(accumulate(counts, initial=0))
    bs = np.repeat(np.array([[p.b for p in cv.poles] for cv in cs]), counts, axis=0).T
    zd = _pole_zeta_rows(cs[0].ctx, pts, bs, max(cs[0].profile) - 1 + n_max, len(bs))
    out = np.zeros((n_max + 1, len(pts)), dtype=complex)
    for cv, lo, hi in zip(cs, ends, ends[1:]):
        _principal_sum(out[:, lo:hi], cv.constant, [p.c for p in cv.poles], zd[:, :, lo:hi])
    return shape_rows(out, shape)


def eval_param_derivs(c: Covering1, z) -> tuple[np.ndarray, np.ndarray]:
    """p, ..., p^(3) at the points z, and d/d theta of [p, p', p''] for each
    path theta of ``params``, from one zeta evaluation.

    z and the pole positions are held fixed (z is the uniformizing
    coordinate).  Returns the rows, shape (4, len(z)), and the partials,
    shape (P, 3, len(z)); every z - b_i takes one ``zeta_derivs`` call.  A
    residue column c_{i,1} carries the rebalanced last residue,
    zeta(z - b_i) - zeta(z - b_l); the modulus column differentiates every
    zeta^(n) at fixed argument (``_zeta_sigma_rows``).
    """
    pts = np.asarray(z, dtype=complex)
    ctx = c.ctx
    diffs = pts[None, :] - np.array([[p.b] for p in c.poles])
    top = max(c.profile) + 3
    zd = zeta_derivs(ctx, diffs, top)  # (top + 1, S, M)
    zs = _zeta_sigma_rows(ctx, zd, diffs, top - 2)
    rows = np.zeros((4, pts.size), dtype=complex)
    _principal_sum(rows, c.constant, [p.c for p in c.poles], zd)
    blocks = {"constant": np.zeros((3, pts.size), dtype=complex), "modulus": 0}
    blocks["constant"][0] = 1.0
    for i, pole in enumerate(c.poles):
        blocks["modulus"] += sum(coeff * zs[a: a + 3, i] for a, coeff in enumerate(pole.c))
        blocks[f"poles.{i}.b"] = -sum(coeff * zd[a + 1: a + 4, i] for a, coeff in enumerate(pole.c))
        blocks[f"poles.{i}.c.0"] = zd[:3, i] - zd[:3, -1]
        for a in range(1, pole.order):
            blocks[f"poles.{i}.c.{a}"] = zd[a: a + 3, i]
    return rows, np.array([blocks[path] for path in params(c)], dtype=complex)


@dataclass(frozen=True)
class CriticalData1:
    """Critical points of p in the fundamental cell with local frame data.

    ``sw`` is the Schwarzian of the uniformizing coordinate in the local
    parameter; ``sb`` subtracts the marking-dependent part:
    sb = sw - 24*pi*i*eta_tilde*fsq.  ``flat`` is ``flat_coords`` of the
    covering.  There is no R(f, g) factorization at genus 1, so
    ``resultant_ratio`` is None.
    """

    pts: tuple[complex, ...]
    lam: tuple[complex, ...]
    fsq: tuple[complex, ...]
    sw: tuple[complex, ...]
    sb: tuple[complex, ...]
    min_lambda_gap: float
    min_point_gap: float
    caustic: bool
    flat: FlatCoords1
    resultant_ratio: None = None


def _sort_cell_points(pts: list[complex], sigma: complex) -> list[complex]:
    def key(z: complex):
        u, v = cell_coords(z, sigma)
        return (round(u, 9), round(v, 9))

    return sorted(pts, key=key)


def critical_data(c: Covering1, seeds: tuple[complex, ...] | None = None) -> CriticalData1:
    """All M = l + N zeros of p' in the fundamental cell, with frame data.

    Zeros come from the global search ``elliptic.elliptic_zeros`` (contour moments seeding an
    elliptic Aberth polish, ``ContourClashError`` when no contour yields every zero), or with
    ``seeds`` from Newton lanes: lane m steps from seeds[m] by p'/p'' (capped at 0.2, at most
    60 steps) to 1e-14*(1 + |seed|).  M converged, distinct lanes are the M zeros; a lane that
    does not converge, collapses or reaches a pole raises ``CountMismatchError``.
    """
    if seeds is None:
        return critical_round([c], lambda zs: [])[0]
    if len(seeds) != c.dim:
        raise ValueError("seed count must equal the moduli dimension")
    try:
        (cd,) = _critical_data_at([c], _seeded_zeros([c], [seeds]))
    except NearPoleError:
        cd = None
    if cd is None:
        raise CountMismatchError("a seeded lane did not converge, collapsed or hit a pole")
    return cd


def critical_round(coverings: Sequence[Covering1], predict) -> list:
    """``cover0.critical_round`` at genus 1: the global search, then one lane run (as in
    ``critical_data``) and one ``_critical_data_at`` for coverings of one modulus; for mixed
    moduli, or where a zero or a lane reaches a pole, the first covering alone and the others one
    at a time through ``critical_data(c, s)``.  A covering whose lanes fail searches globally,
    the error of that search in its place; a data error (the frame rows overflow) raises here."""
    c = coverings[0]
    # p' = sum_i sum_a c_{i,a} zeta^(a+1)(z - b_i): the principal parts of a pole of order k_i + 1
    zs = _sort_cell_points(elliptic_zeros(c.ctx, 0, [(p.b, (0,) + p.c) for p in c.poles]),
                           c.modulus.sigma)
    seeds = predict(zs)
    cds = None
    if len({cv.modulus for cv in coverings}) == 1:
        try:
            moved = _seeded_zeros(coverings[1:], seeds) if seeds else ()
            cds = _critical_data_at(coverings, np.array([zs, *moved]))
        except NearPoleError:
            pass
    if cds is None:
        cds = _critical_data_at([c], np.array([zs])) + [
            _or_error(critical_data, cv, s) for cv, s in zip(coverings[1:], seeds)]
    return cds[:1] + [cd if isinstance(cd, CriticalData1) else _or_error(critical_data, cv)
                      for cv, cd in zip(coverings[1:], cds[1:])]


def _or_error(fn, *args):
    """``fn(*args)``, or the ``HurwitzError`` it raises."""
    try:
        return fn(*args)
    except HurwitzError as exc:
        return exc


def _seeded_zeros(coverings: Sequence[Covering1], seeds) -> np.ndarray:
    """One Newton lane run: row k holds the zeros of covering k, NaN where a lane failed."""
    z0 = np.array(seeds, dtype=complex).ravel()
    starts = coverings[0].dim * np.arange(len(coverings) + 1)  # each covering's first lane

    def newton_step(z: np.ndarray, live: np.ndarray) -> np.ndarray:
        cut = np.searchsorted(live, starts)
        _, v, d = eval_p_derivs(coverings, [z[live[a:b]] for a, b in zip(cut, cut[1:])], 2)
        return v / d

    tracked, ok = _iterate_lanes(newton_step, z0, 1e-14 * (1.0 + np.abs(z0)), 0.2, 60)
    zs = np.array([reduce_to_cell(complex(z), coverings[0].modulus.sigma) for z in tracked])
    zs[~ok] = np.nan  # an unconverged lane fails the gap test of _critical_data_at
    return zs.reshape(len(coverings), -1)


def _critical_data_at(cs: Sequence[Covering1], zs: np.ndarray) -> list[CriticalData1 | None]:
    """Critical data of each covering cs[k] with zeros zs[k], from one order-4 evaluation.

    None where two zeros lie within 1e-10 modulo the lattice or are NaN (failed seeded lanes).
    """
    i, j = _pair_indices(zs.shape[1])
    gaps = lattice_distance(zs[:, i] - zs[:, j], cs[0].modulus.sigma)
    keep = np.flatnonzero((gaps >= 1e-10).all(axis=1))
    out: list[CriticalData1 | None] = [None] * len(cs)
    if keep.size:
        rows = eval_p_derivs([cs[k] for k in keep], zs[keep], 4).reshape(5, keep.size, -1)
        for k, d in zip(keep, rows.transpose(1, 0, 2)):
            lam, f2, s, min_lgap, caustic = frame_data(d)
            sb = s - 24j * math.pi * cs[k].ctx.eta_tilde * f2
            out[k] = CriticalData1(
                pts=tuple(zs[k].tolist()), lam=tuple(lam), fsq=tuple(f2.tolist()),
                sw=tuple(s.tolist()), sb=tuple(sb.tolist()), min_lambda_gap=min_lgap,
                min_point_gap=float(gaps[k].min(initial=math.inf)), caustic=caustic,
                flat=flat_coords(cs[k]))
    return out


def reject_ill_conditioned(c: Covering1, pts) -> None:
    """``cover0.check_pole_gaps`` for the critical points ``pts``, by lattice distance.

    The scale is the unit period.
    """
    gaps = lattice_distance(np.subtract.outer(pts, [p.b for p in c.poles]), c.modulus.sigma)
    check_pole_gaps(c.poles, gaps.min(axis=0).tolist(), 1.0)


@dataclass(frozen=True)
class FlatCoords1:
    """t0 = sigma plus the leading-Laurent-coefficient roots t_i = h_i."""

    t0: complex
    t: tuple[complex, ...]

    @property
    def h(self) -> tuple[complex, ...]:
        return self.t


def flat_coords(c: Covering1) -> FlatCoords1:
    ts = []
    for pole in c.poles:
        k = pole.order
        lead = ((-1) ** (k - 1)) * math.factorial(k - 1) * pole.top
        ts.append(principal_root(lead, k))
    return FlatCoords1(t0=c.modulus.sigma, t=tuple(ts))


def tau_product(c: Covering1, cd: CriticalData1) -> TauProduct:
    """Route A: log tau = -log eta + (1/24)[sum log f_m - sum_{s=1..l} (k_s+1) log h_s].

    G = -log eta(t0) - (1/24) sum_{i=1..l} (k_i+1) log t_i sums over every pole,
    i = 1 included: G = log(tau / J^(1/24)) with J = prod f_m and E(G) = gamma
    force it, and the order-2 one-pole family, tau^(-48) ~ t1^12 eta^72, confirms it.
    """
    return principal_route_a(c, cd.fsq, cd.flat, c.ctx.log_eta)


@dataclass(frozen=True)
class TauResultant1(TauResultant):
    """Route B with log kappa, kappa = prod_{r != s} sigma_w(z_r - z_s)."""

    log_kappa: complex

    @property
    def kappa(self) -> complex:
        return cmath.exp(self.log_kappa)


def tau_resultant(coverings: Sequence[Covering1],
                  cds: Sequence[CriticalData1]) -> list[TauResultant1]:
    """tau^(-48) as eta^48 f0^(2M) kappa / [prod sigma_w(b_i-b_j)^((k_i+1)(k_j+1))
    prod t_i^((k_i+1)(k_i-2))] of each covering from its critical data, in logarithms.

    kappa = prod_{r != s} sigma_w(z_r - z_s) over the critical points; f0
    normalizes the sigma-product representation of the numerator of p'.
    kappa vanishes exactly on the caustic.  Every factor enters as the sum of
    its logarithms, so a kappa below double precision (thick tori) stays
    finite.  One ``sigma_w`` call and one ``np.log`` serve coverings of one
    modulus; mixed moduli take one each.
    """
    n = len(coverings)
    groups = [range(n)] if len({c.modulus for c in coverings}) == 1 else [[k] for k in range(n)]
    logs = []
    for group in groups:
        args = [a for k in group for a in _sigma_args(coverings[k], cds[k])]
        logs += np.split(np.log(sigma_w(coverings[group[0]].ctx, np.concatenate(args))),
                         list(accumulate(len(a) for a in args[:-1])))
    out = []
    for k, (c, cd) in enumerate(zip(coverings, cds)):
        l_zz, l_b1, l_bz, l_bb = (v.tolist() for v in logs[4 * k: 4 * k + 4])
        ks, log_t = c.profile, [cmath.log(t) for t in cd.flat.t]
        log_kappa = sum(l_zz, 0j)
        log_f0 = (cmath.log(-ks[0]) + ks[0] * log_t[0] - sum(l_bz, 0j)
                  + sum((kb + 1) * lb for lb, kb in zip(l_b1, ks[1:])))
        log48 = 48.0 * c.ctx.log_eta + 2.0 * c.dim * log_f0 + log_kappa
        log48 -= sum(route_b_denominator_terms(ks, l_bb, log_t), 0j)
        out.append(TauResultant1(log_tau_inv48=log48, log_kappa=log_kappa))
    return out


def _sigma_args(c: Covering1, cd: CriticalData1) -> list[np.ndarray]:
    """Route B's sigma_w arguments: z_r - z_s, b_1 - b_j, b_1 - z_m and b_i - b_j.

    The zero representatives are shifted by lattice vectors so their sum
    matches the pole divisor exactly, which makes route B independent of the
    fundamental-cell choice.
    """
    sigma = c.modulus.sigma
    diff = sum((k + 1) * p.b for k, p in zip(c.profile, c.poles)) - sum(cd.pts)
    mu, nu = (round(x) for x in cell_coords(diff, sigma))
    if abs(diff - mu - nu * sigma) > 1e-6 * (1.0 + abs(sigma)):
        raise CountMismatchError(
            "critical divisor does not match the pole divisor modulo the lattice"
        )
    # mu + nu sigma spread one lattice unit per zero from the last one on: no difference
    # z_r - z_s grows with it (one zero moved by 3 sigma underflows sigma_w on a thick torus)
    m = len(cd.pts)
    units = [[int(math.copysign((abs(n) + j) // m, n)) for j in range(m)] for n in (mu, nu)]
    zs = np.array([z + a + b * sigma for z, a, b in zip(cd.pts, *units)])
    bs = np.array([p.b for p in c.poles])
    return [(zs[:, None] - zs[None, :])[~np.eye(len(zs), dtype=bool)], bs[0] - bs[1:],
            bs[0] - zs, (bs[:, None] - bs[None, :])[~np.eye(len(bs), dtype=bool)]]


def gamma(c: Covering1) -> complex:
    """Scaling anomaly of G: gamma = -(1/24)(l + sum 1/k_i)."""
    return complex(-(len(c.profile) + sum(1.0 / k for k in c.profile)) / 24.0)


def euler_scaling_expected(c: Covering1) -> complex:
    """Closed-form value of E(log tau) = sum lambda_m H_m from the profile."""
    return complex((-0.5 * c.dim - sum((k + 1) / k for k in c.profile)) / 24.0)


# --------------------------------------------------------------------------
# parameter addressing


def default_sweep_param(c: Covering1) -> str:
    """The parameter the identity suite's cross-route sweep moves."""
    k1 = c.poles[0].order
    if k1 > 1:
        return f"poles.0.c.{k1 - 1}"
    return "poles.1.b" if len(c.poles) > 1 else "constant"


def params(c: Covering1) -> dict[str, complex]:
    """Every free complex parameter by dot path, in ``deformation_params`` order.

    The last residue is not one: the constraint fixes it.  The order is that
    of the covering's fields, in which ``set_param`` reads the table back.
    """
    table = {"modulus": c.modulus.sigma, "constant": c.constant}
    last = len(c.poles) - 1
    for i, pole in enumerate(c.poles):
        table[f"poles.{i}.b"] = pole.b
        for a in range(1 if i == last else 0, pole.order):
            table[f"poles.{i}.c.{a}"] = pole.c[a]
    return table


def set_param(c: Covering1, path: str, value: complex) -> Covering1:
    """``c`` rebuilt from its ``params`` table with ``path`` set to ``value``.

    A path that is not in the table raises ``KeyError``.  The residue of the
    last pole absorbs the change, so the ellipticity constraint keeps holding.
    """
    table = params(c)
    if path not in table:
        raise KeyError(f"unknown parameter path {path!r}")
    table[path] = value
    values = iter(table.values())
    sigma, constant = next(values), next(values)
    last = len(c.poles) - 1
    poles = [(next(values), list(islice(values, p.order - 1 if i == last else p.order)))
             for i, p in enumerate(c.poles)]
    poles[last][1].insert(0, -sum(tails[0] for _, tails in poles[:last]))
    mod = replace(c.modulus, sigma=sigma) if path == "modulus" else c.modulus
    return Covering1(mod, constant, tuple(Pole(b, tuple(tails)) for b, tails in poles))


def deformation_params(c: Covering1) -> list[str]:
    """Paths of M independent complex coordinates: ``params`` without ``poles.0.b``.

    The first pole position is pinned: translations act trivially on the
    critical values.
    """
    return [path for path in params(c) if path != "poles.0.b"]
