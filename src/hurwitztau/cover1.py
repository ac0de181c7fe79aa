"""Genus-1 covering model: elliptic functions with prescribed pole profile.

A point of the moduli space is an elliptic function on C/(Z + sigma*Z)

    p(z) = a + sum_{i=1..l} sum_{alpha=1..k_i} c_{i,alpha} zeta^(alpha-1)(z - b_i)

whose residues sum to zero (ellipticity).  The module defines the genus-0
model's names with the same parameters: critical data (``cover0.CriticalData``)
via zero localization of p' or, in a round, the shared Newton lanes, flat
coordinates, the tau-function by two closed-form routes, and the G-function.
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
    BOUNDARY_TOL,
    CriticalData,
    Pole,
    TauProduct,
    TauResultant,
    _seeded_points,
    _top_tail_derivs,
    check_pole_gaps,
    frame_data,
    principal_root,
    principal_route_a,
    reject_near_s2,
    route_b_denominator_terms,
)
from .elliptic import (
    Modulus,
    WeierstrassContext,
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
)
from .errors import (CommonRootError, CountMismatchError, HurwitzError, NearPoleError,
                     OnBoundaryError)

__all__ = [
    "Covering1",
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
        reject_near_s2(self)
        i, j = _pair_indices(len(self.poles))
        bs = np.array([p.b for p in self.poles])
        clash = np.flatnonzero(lattice_distance(bs[i] - bs[j], sigma) <= BOUNDARY_TOL)
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


def eval_param_derivs(c: Covering1, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, ..., p^(3) at the points z, and d/d theta of [p, p', p''] and of the
    top tails for each path theta of ``params``, from one zeta evaluation.

    z and the pole positions are held fixed (z is the uniformizing coordinate).  Returns
    the rows, shape (4, len(z)), the partials, shape (P, 3, len(z)), and the top-tail
    derivatives, shape (P, S); every z - b_i takes one ``_pole_zeta_rows`` pass.  A residue
    column c_{i,1} carries the rebalanced last residue, zeta(z - b_i) - zeta(z - b_l), and
    moves a simple last pole's top tail by -1; the modulus column differentiates every
    zeta^(n) at fixed argument (``_zeta_sigma_rows``).
    """
    pts = np.asarray(z, dtype=complex)
    ctx = c.ctx
    bs = np.array([[p.b] for p in c.poles])
    diffs = pts[None, :] - bs
    top = max(c.profile) + 3
    zd = _pole_zeta_rows(ctx, pts, bs, top, len(bs))  # (top + 1, S, M)
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
    paths = list(params(c))
    dtop = _top_tail_derivs(c, paths)
    if c.poles[-1].order == 1:
        dtop[:, -1] = [-1.0 if path.endswith(".c.0") else 0.0 for path in paths]
    return rows, np.array([blocks[path] for path in paths], dtype=complex), dtop


def _sort_cell_points(pts: list[complex], sigma: complex) -> list[complex]:
    def key(z: complex):
        u, v = cell_coords(z, sigma)
        return (round(u, 9), round(v, 9))

    return sorted(pts, key=key)


def critical_data(c: Covering1) -> CriticalData:
    """All M = l + N zeros of p' in the fundamental cell, with frame data.

    Zeros come from the global search ``elliptic.elliptic_zeros`` (contour moments seeding an
    elliptic Aberth polish, ``ContourClashError`` when no contour yields every zero).  A search
    whose failed contours include one with a lane at a pole (``NearPoleError``) has found a
    critical point at the pole, the boundary: ``CommonRootError``, as at genus 0.
    """
    # p' = sum_i sum_a c_{i,a} zeta^(a+1)(z - b_i): principal parts of poles of order k_i + 1
    try:
        zs = elliptic_zeros(c.ctx, 0, [(p.b, (0,) + p.c) for p in c.poles])
    except NearPoleError as exc:
        raise CommonRootError(f"a critical point collides with a pole: {exc}") from None
    return _critical_data_at([c], np.array([_sort_cell_points(zs, c.modulus.sigma)]))[0]


def critical_round(coverings: Sequence[Covering1], seeds) -> list:
    """``cover0.critical_round`` at genus 1: each modulus group (as in ``tau_resultant``) takes
    one ``_seeded_points`` lane run, reduced to the cell, and one ``_critical_data_at``, again one
    covering at a time where a lane reaches a pole; a covering whose lanes fail, collapse or reach
    a pole searches globally, that search's error in its place.  A frame overflow raises here."""
    n = len(coverings)
    groups = [range(n)] if len({c.modulus for c in coverings}) == 1 else [[k] for k in range(n)]
    cds = [cd for group in groups for cd in _seeded_data([coverings[k] for k in group],
                                                         [seeds[k] for k in group])]
    return [cd if isinstance(cd, CriticalData) else _or_error(critical_data, cv)
            for cv, cd in zip(coverings, cds)]


def _seeded_data(cs: Sequence[Covering1], seeds) -> list[CriticalData | None]:
    """``_critical_data_at`` of one lane run over ``cs``; where a lane reaches a pole, each
    covering's own run, None for the covering at the pole."""
    try:
        zs = _seeded_points(eval_p_derivs, cs, seeds)
        live = ~np.isnan(zs)
        zs[live] = [reduce_to_cell(z, cs[0].modulus.sigma) for z in zs[live].tolist()]
        return _critical_data_at(cs, zs)
    except NearPoleError:
        if len(cs) == 1:
            return [None]
        return [cd for c, s in zip(cs, seeds) for cd in _seeded_data([c], [s])]


def _or_error(fn, *args):
    """``fn(*args)``, or the ``HurwitzError`` it raises."""
    try:
        return fn(*args)
    except HurwitzError as exc:
        return exc


def _critical_data_at(cs: Sequence[Covering1], zs: np.ndarray) -> list[CriticalData | None]:
    """Critical data of each covering cs[k] with zeros zs[k], from one order-4 evaluation.

    None where two zeros lie within 1e-10 modulo the lattice or are NaN (failed seeded lanes).
    """
    i, j = _pair_indices(zs.shape[1])
    gaps = lattice_distance(zs[:, i] - zs[:, j], cs[0].modulus.sigma)
    keep = np.flatnonzero((gaps >= 1e-10).all(axis=1))
    out: list[CriticalData | None] = [None] * len(cs)
    if keep.size:
        rows = eval_p_derivs([cs[k] for k in keep], zs[keep], 4).reshape(5, keep.size, -1)
        for k, d in zip(keep, rows.transpose(1, 0, 2)):
            lam, f2, s, min_lgap, caustic = frame_data(d)
            sb = s - 24j * math.pi * cs[k].ctx.eta_tilde * f2
            out[k] = CriticalData(
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


def tau_product(c: Covering1, cd: CriticalData) -> TauProduct:
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


def tau_resultant(coverings: Sequence[Covering1],
                  cds: Sequence[CriticalData]) -> list[TauResultant1]:
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


def _sigma_args(c: Covering1, cd: CriticalData) -> list[np.ndarray]:
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


def log_route_constant(c: Covering1) -> complex:
    """log of tau^-48 by route A over route B, 2^-M prod k_i^-(k_i+1).

    p' = f0 prod sigma_w(z - z_m) / prod sigma_w(z - b_i)^(k_i+1) (divisors matched as in
    ``_sigma_args``) and p' ~ -k_i t_i^k_i (z - b_i)^(-k_i-1) give prod_m sigma_w(b_i - z_m);
    with f_m^2 = 2/p''(z_m) and sum (k_i+1) = M, prod f_m^2 = 2^M prod k_i^(k_i+1)
    t_i^(k_i(k_i+1)) prod_{i!=j} sigma_w(b_i - b_j)^((k_i+1)(k_j+1)) / (f0^(2M) kappa).
    """
    return -c.dim * math.log(2) - sum((k + 1) * math.log(k) for k in c.profile)


# --------------------------------------------------------------------------
# parameter addressing


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
