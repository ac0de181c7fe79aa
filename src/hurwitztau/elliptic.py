"""Genus-1 special functions on the lattice Z + sigma*Z.

The odd theta function is the single primitive: everything else (Dedekind
eta and its logarithmic derivative, Weierstrass wp/zeta/sigma, zero
localization for elliptic functions) is derived from its q-series in the
unit-lattice convention (periods 1 and sigma, Im sigma > 0).

Normalization constants relating the theta-based and Weierstrass-based
conventions are solved from the Laurent conditions wp(z) = 1/z^2 + O(z^2)
and sigma_w(z) = z + O(z^5) rather than hard-coded, and verified at
construction time.

Array contract.  ``theta1_derivs``, ``wp_derivs``/``wp``,
``zeta_derivs``/``zeta_w``, ``zeta_sigma_derivs``, ``sigma_w`` and
``lattice_distance`` take either a complex scalar or an ndarray of points.
A scalar returns plain ``complex`` values (a list of them for the
``*_derivs`` functions); an array returns an ndarray with the point axes
last, so ``derivs[k]`` is the k-th derivative at every point.  An array is
reduced to the base cell and evaluated with one sin/cos over the (points x
series terms) grid.  The lattice guard holds per point: one point of an
array within ``LATTICE_GUARD`` of the lattice raises ``LatticePointError``.
``cover1.eval_p_derivs`` enters the kernel below this guard: it reduces the
z - b_i of all its poles at once, guards them itself and calls ``_zeta_rows``.

``elliptic_zeros`` relies on this contract: its ``hd`` is called with a
1-d complex array of points and must return the pair (h, h') of arrays of
the same length (closures over ``wp``/``zeta_w``, or rows 1 and 2 of
``cover1.eval_p_derivs``, qualify as they are).  The zero search first
takes the contour moments of h'/h from one ``hd`` call on the Gauss-Legendre
nodes of two cell edges, and polishes the roots of the polynomial they
define in one lane-wise Newton iteration, one ``hd`` call per step.  Only
when that fails does the argument-principle subdivision run: one ``hd``
call per subdivision level, and one lane-wise Newton polish of all leaf
cells.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourClashError,
    HurwitzError,
    LatticePointError,
    NonConvergenceError,
)
from .poly import CPoly, all_roots

__all__ = [
    "Modulus",
    "WeierstrassContext",
    "theta1",
    "theta1_derivs",
    "dedekind_eta",
    "log_dedekind_eta",
    "eta_tilde",
    "eisenstein",
    "g_invariants",
    "weierstrass_context",
    "wp",
    "wp_derivs",
    "zeta_w",
    "zeta_derivs",
    "zeta_sigma_derivs",
    "sigma_w",
    "elliptic_zeros",
    "newton_lanes",
    "reduce_to_cell",
    "lattice_distance",
    "half_periods",
]

TWO_PI_I = 2j * math.pi
MIN_IM_SIGMA = 0.1
LATTICE_GUARD = 1e-8
SERIES_CAP = 400
THETA_TABLE_ORDER = 7


# --------------------------------------------------------------------------
# modulus and q-series plumbing


@dataclass(frozen=True)
class Modulus:
    """Period ratio sigma of the lattice Z + sigma*Z, with series cutoffs.

    ``truncation`` caps every q-series; the effective number of terms is
    chosen adaptively below it so the first dropped term is < 1e-16 of the
    running peak.  Moduli with Im(sigma) <= 0.1 are rejected rather than
    reduced: modular reduction would silently change the homology marking.
    """

    sigma: complex
    truncation: int = SERIES_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", complex(self.sigma))
        y = self.sigma.imag
        if not y > MIN_IM_SIGMA:
            raise ValueError(f"Im(sigma) must exceed {MIN_IM_SIGMA}, got {y}")
        if self.truncation < 8:
            raise ValueError("series truncation too small")
        # bound on the first dropped theta term, relative to the peak term
        j = self.theta_terms
        dropped = math.exp(-math.pi * y * (j * j - 0.25) + math.pi * y / 4)
        if dropped > 1e-16:
            raise ValueError("truncation too small for this modulus")

    @property
    def q(self) -> complex:
        """Nome exp(2*pi*i*sigma)."""
        return cmath.exp(TWO_PI_I * self.sigma)

    @cached_property
    def theta_terms(self) -> int:
        """Number of theta-series terms (arguments reduced to the base cell)."""
        y = self.sigma.imag
        j = math.ceil(math.sqrt(80.0 / (math.pi * y))) + 3
        return min(self.truncation, max(j, 8))

    @cached_property
    def _theta_tabs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frequencies pi*(2j+1), signed series coefficients, and the
        derivative weights of orders 0..THETA_TABLE_ORDER."""
        j = np.arange(self.theta_terms)
        half = j + 0.5
        coeff = np.exp(1j * math.pi * self.sigma * half * half)
        coeff = coeff * np.where(j % 2 == 0, 1.0, -1.0)
        freq = math.pi * (2 * j + 1).astype(float)
        return freq, coeff, _theta_weights(freq, coeff, THETA_TABLE_ORDER)

    @cached_property
    def eisenstein_terms(self) -> int:
        y = self.sigma.imag
        return min(self.truncation, math.ceil(14.0 / y) + 8)

    @cached_property
    def _divisor_sums(self) -> dict[int, np.ndarray]:
        """sigma_k(m) for m = 1..n and k = 1, 3, 5: exact, every sum is an integer below 2^53."""
        d = np.arange(1, self.eisenstein_terms + 1, dtype=float)
        divides = d[:, None] % d == 0.0  # [m - 1, d - 1]: d divides m
        return {k: divides @ d**k for k in (1, 3, 5)}

    @cached_property
    def _q_powers(self) -> np.ndarray:
        n = self.eisenstein_terms
        return self.q ** np.arange(1, n + 1)


def point_array(z) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Flat complex array of the points in ``z`` and the shape to restore.

    The shape is None for a scalar (a Python or numpy number, or a 0-d
    array), whose results are returned as plain ``complex`` values.
    """
    if np.ndim(z) == 0:
        return np.array([complex(z)]), None
    a = np.asarray(z, dtype=complex)
    return a.ravel(), a.shape


def shape_rows(rows: np.ndarray, shape: tuple[int, ...] | None):
    """Rows of per-point values, shape (K, n): K complex for a scalar, else (K, *shape)."""
    if shape is None:
        return rows[:, 0].tolist()
    return rows.reshape((rows.shape[0],) + shape)


def _theta_weights(freq: np.ndarray, coeff: np.ndarray, n_max: int) -> np.ndarray:
    """Row n weights sin (n even) or cos (n odd) of freq*z in the n-th derivative.

    d^n/dz^n sin(f z) = f^n (sin, cos, -sin, -cos)[n % 4](f z); the factor 2
    of the theta series is folded in.  Shape (n_max + 1, terms).
    """
    orders = np.arange(n_max + 1)
    sign = np.where(orders % 4 < 2, 2.0, -2.0)
    return sign[:, None] * (coeff * freq ** orders[:, None])


def _theta1_raw(mod: Modulus, z0: np.ndarray, n_max: int) -> np.ndarray:
    """z-derivatives 0..n_max of the odd theta series at the points z0.

    One sin and one cos over the (points x terms) grid, weighted per order
    and summed along the contiguous terms axis, one order at a time.  That
    sum gives each point the same bits whatever the batch it comes in (a
    BLAS product does not), so a scalar call reproduces its value inside an
    array call exactly.  Returns shape (n_max + 1, len(z0)).
    """
    freq, coeff, table = mod._theta_tabs
    weights = table if n_max <= THETA_TABLE_ORDER else _theta_weights(freq, coeff, n_max)
    ang = np.multiply.outer(z0, freq)
    trig = np.empty((2,) + ang.shape, dtype=complex)
    np.sin(ang, out=trig[0])
    np.cos(ang, out=trig[1])
    out = np.empty((n_max + 1, len(z0)), dtype=complex)
    for k in range(n_max + 1):
        out[k] = (trig[k % 2] * weights[k]).sum(axis=1)
    return out


def cell_coords(z, sigma: complex):
    """Real coordinates (u, v) of z = u + v*sigma (scalar or array z)."""
    v = z.imag / sigma.imag
    return z.real - v * sigma.real, v


def _split_lattice(z: np.ndarray, sigma: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write z = m + n*sigma + z0 with the cell coordinates of z0 in [-1/2, 1/2)."""
    u, v = cell_coords(z, sigma)
    m = np.floor(u + 0.5)
    n = np.floor(v + 0.5)
    return m, n, z - m - n * sigma


def theta1_derivs(mod: Modulus, z, n_max: int):
    """z-derivatives 0..n_max of theta1 at arbitrary z.

    ``z`` is a complex scalar (returns a list of complex) or an array of
    points (returns an array of shape (n_max + 1, *z.shape)).  Each argument
    is reduced to the base cell; quasi-periodicity supplies the exponential
    factor, and the Leibniz rule propagates it through the requested
    derivatives.
    """
    pts, shape = point_array(z)
    m, n, z0 = _split_lattice(pts, mod.sigma)
    raw = _theta1_raw(mod, z0, n_max)
    if not (m.any() or n.any()):
        return shape_rows(raw, shape)
    # theta1(z0 + m + n*sigma) = (-1)^(m+n) exp(mu z0 - i pi sigma n^2) theta1(z0),
    # mu = -2 pi i n; the k-th derivative of exp(mu z0) theta1(z0) is
    # exp(mu z0) (d/dz + mu)^k theta1(z0)
    mu = -TWO_PI_I * n
    pref = np.exp(mu * z0 - 1j * math.pi * mod.sigma * n * n)
    pref *= np.where((m + n) % 2, -1.0, 1.0)
    out = np.empty_like(raw)
    out[0] = raw[0]
    for k in range(1, n_max + 1):
        raw = raw[1:] + mu * raw[:-1]
        out[k] = raw[0]
    return shape_rows(out * pref, shape)


def theta1(mod: Modulus, z: complex, n_deriv: int = 0) -> complex:
    """n_deriv-th z-derivative of the odd theta function on Z + sigma*Z."""
    if n_deriv < 0:
        raise ValueError("n_deriv must be >= 0")
    return theta1_derivs(mod, z, n_deriv)[n_deriv]


def eisenstein(mod: Modulus, weight: int) -> complex:
    """Normalized Eisenstein series E_2, E_4 or E_6 at the modulus."""
    consts = {2: -24.0, 4: 240.0, 6: -504.0}
    if weight not in consts:
        raise ValueError("weight must be 2, 4 or 6")
    sig = mod._divisor_sums[weight - 1]
    return 1.0 + consts[weight] * complex(np.sum(sig * mod._q_powers))


def log_dedekind_eta(mod: Modulus) -> complex:
    """log eta(sigma), continuous in sigma (no branch ambiguity)."""
    acc = 1j * math.pi * mod.sigma / 12.0
    for w in mod._q_powers:
        if abs(w) < 1e-18:
            break
        acc += cmath.log(1.0 - w)
    return acc


def dedekind_eta(mod: Modulus) -> complex:
    """Dedekind eta: q^(1/24) * prod(1 - q^n)."""
    return cmath.exp(log_dedekind_eta(mod))


def eta_tilde(mod: Modulus) -> complex:
    """d/dsigma log eta(sigma), from the weight-2 Eisenstein series."""
    return (1j * math.pi / 12.0) * eisenstein(mod, 2)


def g_invariants(mod: Modulus) -> tuple[complex, complex]:
    """Weierstrass invariants (g2, g3) of the lattice Z + sigma*Z."""
    g2 = (4.0 * math.pi**4 / 3.0) * eisenstein(mod, 4)
    g3 = (8.0 * math.pi**6 / 27.0) * eisenstein(mod, 6)
    return g2, g3


# --------------------------------------------------------------------------
# lattice geometry helpers


def reduce_to_cell(z: complex, sigma: complex) -> complex:
    """Representative of z in the fundamental cell {x + y*sigma : x,y in [0,1)}."""
    u, v = cell_coords(z, sigma)
    return z - math.floor(u) - math.floor(v) * sigma


_NEAR_M, _NEAR_N = (a.ravel() for a in np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]))


def lattice_distance(z, sigma: complex):
    """Distance from z to the nearest lattice point of Z + sigma*Z (per point for an array)."""
    pts, shape = point_array(z)
    d = _centered_distance(_split_lattice(pts, sigma)[2], sigma)
    return float(d[0]) if shape is None else d.reshape(shape)


def _centered_distance(z0: np.ndarray, sigma: complex) -> np.ndarray:
    """lattice_distance of points already reduced by _split_lattice."""
    return np.abs(z0[:, None] - (_NEAR_M + _NEAR_N * sigma)).min(axis=1)


def half_periods(sigma: complex) -> tuple[complex, complex, complex]:
    return (0.5, sigma / 2.0, (1.0 + sigma) / 2.0)


# --------------------------------------------------------------------------
# Weierstrass functions


@dataclass(frozen=True)
class WeierstrassContext:
    """Calibrated Weierstrass-function evaluator for one modulus.

    ``calib_p`` makes wp(z) - 1/z^2 vanish at z = 0; ``calib_sigma`` makes
    sigma_w(z) = z + O(z^5).  Both are solved from the theta expansion at the
    origin, and the Laurent/Legendre conditions are re-verified numerically
    at construction so any convention slip fails fast.  The verification is
    one batched evaluation: the wp Laurent, zeta principal-part and Legendre
    checks share one ``zeta_derivs`` call at four points (wp = -zeta'), and
    the sigma normalisation takes one ``sigma_w`` call.
    ``calib_sigma_dsigma`` is d calib_sigma / d sigma, from the heat equation
    4 pi i d theta1/d sigma = d^2 theta1/dz^2 at the origin.
    """

    modulus: Modulus
    theta1_deriv0: complex
    calib_p: complex
    calib_sigma: complex
    calib_sigma_dsigma: complex
    eta_tilde: complex
    g2: complex

    @classmethod
    def create(cls, modulus: Modulus) -> "WeierstrassContext":
        d = theta1_derivs(modulus, 0.0, 5)
        t1, t3, t5 = d[1], d[3], d[5]
        ctx = cls(
            modulus=modulus,
            theta1_deriv0=t1,
            calib_p=t3 / (3.0 * t1),
            calib_sigma=-t3 / (6.0 * t1),
            calib_sigma_dsigma=-(t5 / t1 - (t3 / t1) ** 2) / (24j * math.pi),
            eta_tilde=eta_tilde(modulus),
            g2=g_invariants(modulus)[0],
        )
        ctx._verify()
        return ctx

    def _verify(self) -> None:
        z = 1e-3
        s = self.modulus.sigma
        zt = 0.31 + 0.27 * s
        zeta, dzeta = zeta_derivs(self, np.array([z, zt, zt + 1.0, zt + s]), 1)
        if abs(-dzeta[0] - (1.0 / (z * z) + self.g2 * z * z / 20.0)) > 1e-4:  # wp = -zeta'
            raise ValueError("wp Laurent calibration failed")
        if abs(sigma_w(self, z) / z - 1.0) > 1e-5:
            raise ValueError("sigma_w normalization failed")
        if abs(zeta[0] - 1.0 / z) > 1e-4:
            raise ValueError("zeta_w principal part failed")
        e1 = zeta[2] - zeta[1]
        e2 = zeta[3] - zeta[1]
        if abs(e1 * s - e2 - TWO_PI_I) > 1e-10:
            raise ValueError("Legendre relation failed")


@lru_cache(maxsize=16)
def weierstrass_context(modulus: Modulus) -> WeierstrassContext:
    """The context of ``modulus``, built once per distinct modulus (bounded cache)."""
    return WeierstrassContext.create(modulus)


def _reduce_and_guard(ctx: WeierstrassContext, z) -> tuple:
    """Points, shape, n and z0 of z = m + n*sigma + z0; LatticePointError within LATTICE_GUARD."""
    pts, shape = point_array(z)
    sigma = ctx.modulus.sigma
    _, n, z0 = _split_lattice(pts, sigma)
    near = _centered_distance(z0, sigma) <= LATTICE_GUARD
    if near.any():
        raise LatticePointError(
            f"z = {complex(pts[near][0])} is within {LATTICE_GUARD} of the lattice"
        )
    return pts, shape, n, z0


def _wp_rows(ctx: WeierstrassContext, l2: np.ndarray, l3: np.ndarray, n_max: int) -> np.ndarray:
    """wp, wp', ..., wp^(n_max) from the 2nd and 3rd derivatives of log theta1.

    wp and wp' come from the theta expansion; every higher order follows
    from the differentiated Weierstrass cubic, which needs only g2:
    wp'' = 6 wp^2 - g2/2 and wp^(k+2) = 6 sum_j C(k, j) wp^(j) wp^(k-j).
    """
    out = np.empty((n_max + 1, len(l2)), dtype=complex)
    out[0] = -l2 + ctx.calib_p
    if n_max >= 1:
        out[1] = -l3
    if n_max >= 2:
        out[2] = 6.0 * out[0] * out[0] - ctx.g2 / 2.0
    for k in range(1, n_max - 1):
        out[k + 2] = 6.0 * sum(math.comb(k, j) * out[j] * out[k - j] for j in range(k + 1))
    return out


def wp_derivs(ctx: WeierstrassContext, z, n_max: int):
    """[wp(z), wp'(z), ..., wp^(n_max)(z)], any order.

    ``z`` is a complex scalar (returns a list of complex) or an array of
    points (returns an array of shape (n_max + 1, *z.shape)).
    """
    pts, shape, n, z0 = _reduce_and_guard(ctx, z)
    return shape_rows(-_zeta_rows(ctx, pts, n, z0, n_max + 1)[1:], shape)


def wp(ctx: WeierstrassContext, z, n_deriv: int = 0):
    """n_deriv-th derivative of the Weierstrass wp-function (scalar or array z)."""
    return wp_derivs(ctx, z, n_deriv)[n_deriv]


def zeta_derivs(ctx: WeierstrassContext, z, n_max: int):
    """[zeta(z), zeta'(z), ..., zeta^(n_max)(z)] in one theta evaluation.

    zeta = sigma_w'/sigma_w = (log theta1)' + 2*calib_sigma*z, and
    zeta^(k) = -wp^(k-1).  Scalar or array ``z`` as in ``wp_derivs``.
    """
    pts, shape, n, z0 = _reduce_and_guard(ctx, z)
    return shape_rows(_zeta_rows(ctx, pts, n, z0, n_max), shape)


def _zeta_rows(ctx: WeierstrassContext, pts, n, z0, n_max: int) -> np.ndarray:
    """zeta, ..., zeta^(n_max) at pts = m + n*sigma + z0, from the log theta1 rows at z0.

    theta1 is evaluated at the base-cell representative z0 only: the first
    derivative of log theta1 shifts by -2 pi i n under the reduction, the
    higher ones are periodic.
    """
    t0, t1, t2, t3 = theta1_derivs(ctx.modulus, z0, 3)
    r1, r2, r3 = t1 / t0, t2 / t0, t3 / t0
    out = np.empty((n_max + 1, len(pts)), dtype=complex)
    out[0] = r1 - TWO_PI_I * n + 2.0 * ctx.calib_sigma * pts
    if n_max >= 1:
        out[1:] = -_wp_rows(ctx, r2 - r1 * r1, r3 - 3.0 * r1 * r2 + 2.0 * r1**3, n_max - 1)
    return out


def zeta_sigma_derivs(ctx: WeierstrassContext, z, n_max: int):
    """[d/dsigma zeta^(n)(z) for n = 0..n_max] at fixed z, in one theta evaluation.

    With L = zeta - 2*calib_sigma*z = (log theta1)' the heat equation gives
    d L/d sigma = (L'' + 2 L L')/(4 pi i), so
    d zeta^(n)/d sigma = (L^(n+2) + sum_j C(n+1, j) L^(j) L^(n+1-j))/(4 pi i)
    plus 2 c_sigma z (n = 0) or 2 c_sigma (n = 1), c_sigma = calib_sigma_dsigma.
    Scalar or array ``z`` as in ``zeta_derivs``.
    """
    pts, shape = point_array(z)
    big_l = zeta_derivs(ctx, pts, n_max + 2)
    big_l[0] -= 2.0 * ctx.calib_sigma * pts
    big_l[1] -= 2.0 * ctx.calib_sigma
    out = np.empty((n_max + 1, len(pts)), dtype=complex)
    for n in range(n_max + 1):
        out[n] = big_l[n + 2] + sum(
            math.comb(n + 1, j) * big_l[j] * big_l[n + 1 - j] for j in range(n + 2)
        )
    out /= 4j * math.pi
    out[0] += 2.0 * ctx.calib_sigma_dsigma * pts
    if n_max >= 1:
        out[1] += 2.0 * ctx.calib_sigma_dsigma
    return shape_rows(out, shape)


def zeta_w(ctx: WeierstrassContext, z, n_deriv: int = 0):
    """Weierstrass zeta and derivatives: zeta' = -wp, zeta'' = -wp', ..."""
    return zeta_derivs(ctx, z, n_deriv)[n_deriv]


def sigma_w(ctx: WeierstrassContext, z):
    """Weierstrass sigma, normalized so sigma_w(z) = z + O(z^5) (scalar or array z)."""
    pts, shape = point_array(z)
    t = theta1_derivs(ctx.modulus, pts, 0)[0]
    vals = (t / ctx.theta1_deriv0) * np.exp(ctx.calib_sigma * pts * pts)
    return shape_rows(vals[None, :], shape)[0]


# --------------------------------------------------------------------------
# zero localization for elliptic functions


class _EdgeTrouble(Exception):
    """Argument tracking failed along a contour edge (zero/pole too close)."""


_OFFSETS = [
    (0.0731, 0.0457), (0.3117, 0.1723), (0.5303, 0.2919), (0.7489, 0.4115),
    (0.1327, 0.5711), (0.8923, 0.6907), (0.4519, 0.8103), (0.6115, 0.9299),
    (0.2211, 0.3495), (0.9807, 0.7691), (0.0403, 0.8887), (0.7999, 0.1083),
    (0.3595, 0.2279), (0.5191, 0.6475), (0.6787, 0.4671), (0.8383, 0.5867),
    (0.1979, 0.7063), (0.9575, 0.8259), (0.4171, 0.9455), (0.5767, 0.0651),
]
_UNIT_CELL = (0.0, 1.0, 0.0, 1.0)
_MIN_CELL = 1e-4
# argument tracking: grid intervals per contour edge, bisection depth limit
EDGE_INTERVALS = 12
MAX_BISECTIONS = 13
# moment stage: contours tried, quadrature nodes per edge, Newton steps per try
MOMENT_CORNERS = 3
GAUSS_NODES = 32
MOMENT_NEWTON_STEPS = 20


def _arg_changes(hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Total continuous argument change of h along each segment [za[i], zb[i]].

    The (EDGE_INTERVALS + 1)-point grids of all segments go to ``hd`` in one
    call.  Every interval whose argument moves by more than 1.2 rad is
    bisected, breadth first, with one ``hd`` call per depth for all such
    intervals, at most MAX_BISECTIONS deep.
    """
    n0 = EDGE_INTERVALS
    ts = np.arange(n0 + 1) / n0
    dz = zb - za
    vals = hd((za[:, None] + ts[None, :] * dz[:, None]).ravel())[0].reshape(len(za), n0 + 1)
    seg = np.repeat(np.arange(len(za)), n0)
    t0 = np.tile(ts[:-1], len(za))
    t1 = np.tile(ts[1:], len(za))
    v0 = vals[:, :-1].ravel()
    v1 = vals[:, 1:].ravel()
    total = np.zeros(len(za))
    depth = 0
    while True:
        if not (v0.all() and v1.all()):
            raise _EdgeTrouble("zero on contour")
        d = np.angle(v1 / v0)
        jump = np.abs(d) > 1.2
        np.add.at(total, seg[~jump], d[~jump])
        if not jump.any():
            return total
        if depth >= MAX_BISECTIONS:
            raise _EdgeTrouble("argument jump on contour")
        seg, t0, t1, v0, v1 = seg[jump], t0[jump], t1[jump], v0[jump], v1[jump]
        tm = 0.5 * (t0 + t1)
        vm = hd(za[seg] + tm * dz[seg])[0]
        seg = np.concatenate([seg, seg])
        t0, t1 = np.concatenate([t0, tm]), np.concatenate([tm, t1])
        v0, v1 = np.concatenate([v0, vm]), np.concatenate([vm, v1])
        depth += 1


def _cell_counts(hd, corner: complex, sigma: complex, poles_uv, cells) -> list[int]:
    """Zeros of h = hd(w)[0] inside each parallelogram cell (winding + enclosed poles).

    The four edges of every cell are tracked in one ``_arg_changes`` call.
    """
    za, zb = [], []
    for u0, u1, v0, v1 in cells:
        a = corner + u0 + v0 * sigma
        b = corner + u1 + v0 * sigma
        c = corner + u1 + v1 * sigma
        d = corner + u0 + v1 * sigma
        za += [a, b, c, d]
        zb += [b, c, d, a]
    totals = _arg_changes(hd, np.array(za), np.array(zb)).reshape(len(cells), 4).sum(axis=1)
    counts = []
    for (u0, u1, v0, v1), total in zip(cells, totals):
        w = float(total) / (2.0 * math.pi)
        wi = round(w)
        if abs(w - wi) > 0.2:
            raise _EdgeTrouble(f"non-integer winding {w:.3f}")
        p_in = sum(m for (u, v), m in poles_uv if u0 <= u < u1 and v0 <= v < v1)
        counts.append(wi + p_in)
    return counts


def _cell_size(cell, sigma: complex) -> float:
    u0, u1, v0, v1 = cell
    return max((u1 - u0), (v1 - v0) * abs(sigma))


def _halves(cell, poles_uv, sigma: complex) -> list[tuple[float, float, float, float]]:
    """Split along the longer side, jiggling past any pole line."""
    u0, u1, v0, v1 = cell
    if (u1 - u0) >= (v1 - v0) * abs(sigma):
        um = 0.5 * (u0 + u1)
        while any(abs(u - um) < 1e-6 for (u, _), _ in poles_uv):
            um += 0.0137 * (u1 - u0)
        return [(u0, um, v0, v1), (um, u1, v0, v1)]
    vm = 0.5 * (v0 + v1)
    while any(abs(v - vm) < 1e-6 for (_, v), _ in poles_uv):
        vm += 0.0137 * (v1 - v0)
    return [(u0, u1, v0, vm), (u0, u1, vm, v1)]


def newton_lanes(hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], z,
                 tol, max_step: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method from many starting points at once.

    ``hd(w)`` returns (h(w), h'(w)) for an array of points w.  Each lane
    iterates as scalar Newton does: the step h/h' is clipped to length
    ``max_step``; the lane stops when the step is shorter than its ``tol``
    (a scalar or one value per lane) and fails when h' vanishes or after
    ``max_iter`` steps.  Only the live lanes are evaluated.  Returns the
    final points and the mask of lanes that converged.
    """
    z = np.array(z, dtype=complex)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), z.shape)
    ok = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    for _ in range(max_iter):
        if not live.size:
            break
        v, d = hd(z[live])
        nonzero = d != 0
        live, v, d = live[nonzero], v[nonzero], d[nonzero]
        step = v / d
        size = np.abs(step)
        big = size > max_step
        step[big] = max_step * step[big] / size[big]
        z[live] -= step
        done = np.abs(step) < tol[live]
        ok[live[done]] = True
        live = live[~done]
    return z, ok


def _polish(hd, corner: complex, sigma: complex, cells, tol: float) -> list[complex | None]:
    """One lane-wise Newton over the five seeds of every leaf cell.

    A cell keeps the first seed, in seed order, whose converged point lies
    in the cell (any converged point for a cell below the minimum size);
    None marks a cell where no seed qualified.
    """
    seeds = []
    for u0, u1, v0, v1 in cells:
        seeds += [
            corner + 0.5 * (u0 + u1) + 0.5 * (v0 + v1) * sigma,
            corner + (0.75 * u0 + 0.25 * u1) + (0.75 * v0 + 0.25 * v1) * sigma,
            corner + (0.25 * u0 + 0.75 * u1) + (0.75 * v0 + 0.25 * v1) * sigma,
            corner + (0.75 * u0 + 0.25 * u1) + (0.25 * v0 + 0.75 * v1) * sigma,
            corner + (0.25 * u0 + 0.75 * u1) + (0.25 * v0 + 0.75 * v1) * sigma,
        ]
    zs, ok = newton_lanes(hd, seeds, tol, 0.5, 80)
    roots: list[complex | None] = []
    for i, cell in enumerate(cells):
        u0, u1, v0, v1 = cell
        small = _cell_size(cell, sigma) < _MIN_CELL
        root = None
        for r in zs[5 * i: 5 * i + 5][ok[5 * i: 5 * i + 5]]:
            ru, rv = cell_coords(reduce_to_cell(complex(r) - corner, sigma), sigma)
            in_cell = (u0 - 1e-9 <= ru <= u1 + 1e-9) and (v0 - 1e-9 <= rv <= v1 + 1e-9)
            if in_cell or small:
                root = complex(r)
                break
        roots.append(root)
    return roots


def _locate(hd, corner: complex, sigma: complex, poles_uv, total: int,
            tol: float) -> list[complex]:
    """Subdivide the unit cell until every zero sits in a leaf, then polish.

    Cells of one subdivision level are counted together; leaves (one zero,
    or below the minimum size) are polished together.  A one-zero leaf whose
    Newton seeds all escape is split further.
    """
    found: list[complex] = []
    leaves: list[tuple] = []
    to_split: list[tuple] = []

    def place(cell, count: int) -> None:
        if count == 1 or _cell_size(cell, sigma) < _MIN_CELL:
            leaves.append((cell, count))
        else:
            to_split.append(cell)

    place(_UNIT_CELL, total)
    while leaves or to_split:
        while to_split:
            children = [sub for cell in to_split for sub in _halves(cell, poles_uv, sigma)]
            to_split = []
            for cell, n in zip(children, _cell_counts(hd, corner, sigma, poles_uv, children)):
                if n < 0:
                    raise _EdgeTrouble("negative zero count in cell")
                if n > 0:
                    place(cell, n)
        roots = _polish(hd, corner, sigma, [cell for cell, _ in leaves], tol)
        for (cell, count), root in zip(leaves, roots):
            if root is not None:
                found.extend([root] * count)
            elif count == 1 and _cell_size(cell, sigma) >= _MIN_CELL:
                to_split.append(cell)  # Newton escaped the cell: split further
            else:
                raise _EdgeTrouble("newton failed in small cell")
        leaves = []
    return found


def _cell_representative(z: complex, sigma: complex, edge: float = 1e-12) -> complex:
    """reduce_to_cell, with points within ``edge`` of the far edges moved to the near ones.

    A zero on the cell boundary (a half-period, say) then gets the same
    representative whichever way its last bits round.
    """
    r = reduce_to_cell(z, sigma)
    u, v = cell_coords(r, sigma)
    if v > 1.0 - edge:
        r -= sigma
    if u > 1.0 - edge:
        r -= 1.0
    return r


def _contour_corners(poles: Sequence[tuple[complex, int]], sigma: complex):
    """Contour corners from ``_OFFSETS`` whose unit cell keeps every pole off its edges.

    Yields (corner, poles_uv): the corner, and each pole's cell coordinates
    (u, v) with its multiplicity, every coordinate at least 5e-3 from 0 and 1.
    """
    for du, dv in _OFFSETS:
        corner = du + dv * sigma
        poles_uv = []
        for p, mult in poles:
            u, v = cell_coords(reduce_to_cell(p - corner, sigma), sigma)
            if min(u, 1 - u, v, 1 - v) < 5e-3:
                break
            poles_uv.append(((u, v), mult))
        else:
            yield corner, poles_uv


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GAUSS_NODES-point Gauss-Legendre rule on [0, 1].

    Newton's method on the three-term Legendre recurrence, in plain Python:
    the rule is built once, without loading ``numpy.polynomial`` or LAPACK.
    """
    n = GAUSS_NODES
    nodes, weights = [], []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        nodes.append(0.5 * (1.0 - x))
        weights.append(1.0 / ((1.0 - x * x) * dp * dp))
    return np.array(nodes), np.array(weights)


def _moment_zeros(hd, corner: complex, sigma: complex, poles_uv, total: int,
                  tol: float) -> list[complex] | None:
    """The ``total`` zeros of h from contour moments of h'/h, or None on failure.

    About the cell centre c, the power sums s_j = sum (z - c)^j of the zeros
    in the cell are (1/2 pi i) times the contour integral of (w - c)^j h'/h
    plus the enclosed pole terms sum m (r - c)^j.  h'/h is periodic, so the
    top edge folds onto the bottom one and the right edge onto the left one:
    one ``hd`` call on the Gauss-Legendre nodes of those two edges gives
    every s_j.  The Newton identities turn s_1..s_total into a monic
    polynomial whose roots seed one lane-wise Newton polish.  The result is
    accepted only when every lane converges and no two of them coincide
    modulo the lattice: ``total`` distinct zeros of an elliptic function
    with ``total`` poles are all of its zeros.
    """
    t, wt = _gauss_legendre()
    n = len(t)
    centre = corner + 0.5 + 0.5 * sigma
    xb = (corner - centre) + t          # bottom edge, w = corner + t
    xl = (corner - centre) + t * sigma  # left edge, w = corner + t sigma
    h, dh = hd(np.concatenate([xb, xl]) + centre)
    with np.errstate(all="ignore"):
        g = dh / h
    if not np.isfinite(g).all():
        return None
    j = np.arange(1, total + 1)
    pw = np.stack([xb, xb + sigma, xl + 1.0, xl]) ** j[:, None, None]
    s = ((pw[:, 0] - pw[:, 1]) * (wt * g[:n])).sum(axis=1)
    s += sigma * ((pw[:, 2] - pw[:, 3]) * (wt * g[n:])).sum(axis=1)
    s /= TWO_PI_I
    for (u, v), mult in poles_uv:
        s += mult * ((u - 0.5) + (v - 0.5) * sigma) ** j
    s = s.tolist()
    # Newton identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i
    e = [1.0 + 0j]
    for k in range(1, total + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)) / k)
    try:
        seeds = all_roots(CPoly(tuple((-1) ** k * e[k] for k in range(total, -1, -1)))).roots
    except NonConvergenceError:
        return None
    try:
        zs, ok = newton_lanes(hd, np.array(seeds) + centre, tol, 0.5, MOMENT_NEWTON_STEPS)
    except HurwitzError:
        return None
    if not ok.all():
        return None
    i, k = np.triu_indices(total, 1)
    if (lattice_distance(zs[i] - zs[k], sigma) < 1e-10).any():
        return None
    return zs.tolist()


def _newton_tol(sigma: complex) -> float:
    return 1e-12 * (1.0 + abs(sigma))


def elliptic_zeros(
    mod: Modulus,
    hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    poles: Sequence[tuple[complex, int]],
) -> list[complex]:
    """All zeros of the elliptic function h in one fundamental cell.

    ``hd`` takes a 1-d complex array of points and returns the pair
    (h, h') there (see the module docstring and ``newton_lanes``).  ``poles`` lists pole
    positions with multiplicities (the full divisor in one cell), so h has
    as many zeros as the multiplicities add up to.  The cell contour is
    translated until it clears the poles.  The moment stage
    (``_moment_zeros``) seeds Newton from the contour moments of h'/h on up
    to MOMENT_CORNERS contours; if none of them yields every zero, the
    subdivision search (``_subdivision_zeros``) decides.  Zeros are
    returned reduced to {x + y*sigma : x, y in [-1e-12, 1 - 1e-12)}.
    """
    sigma = mod.sigma
    total = sum(m for _, m in poles)
    for corner, poles_uv in islice(_contour_corners(poles, sigma), MOMENT_CORNERS):
        found = _moment_zeros(hd, corner, sigma, poles_uv, total, _newton_tol(sigma))
        if found is not None:
            return [_cell_representative(r, sigma) for r in found]
    return _subdivision_zeros(mod, hd, poles)


def _subdivision_zeros(
    mod: Modulus,
    hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    poles: Sequence[tuple[complex, int]],
) -> list[complex]:
    """``elliptic_zeros`` by the argument principle and adaptive subdivision.

    The winding of h around the translated cell contour, plus the enclosed
    poles, gives the zero count, which must equal the pole count; adaptive
    cell subdivision plus Newton polishing localizes the zeros.  When no
    contour works, ``ContourClashError``.
    """
    sigma = mod.sigma
    target = sum(m for _, m in poles)

    last_trouble = "no admissible contour"
    for corner, poles_uv in _contour_corners(poles, sigma):
        try:
            total = _cell_counts(hd, corner, sigma, poles_uv, [_UNIT_CELL])[0]
        except _EdgeTrouble as exc:
            last_trouble = str(exc)
            continue
        if total != target:
            last_trouble = f"count {total} != {target}"
            continue
        try:
            found = _locate(hd, corner, sigma, poles_uv, total, _newton_tol(sigma))
        except _EdgeTrouble as exc:
            last_trouble = str(exc)
            continue
        if len(found) != target:
            last_trouble = f"located {len(found)} of {target}"
            continue
        return [_cell_representative(r, sigma) for r in found]

    raise ContourClashError(f"zero localization failed: {last_trouble}")
