"""Genus-1 special functions on the lattice Z + sigma*Z.

The odd theta function is the single primitive: everything else (Dedekind
eta and its logarithmic derivative, Weierstrass wp/zeta/sigma, zero
localization for elliptic functions) is derived from its q-series in the
unit-lattice convention (periods 1 and sigma, Im sigma > 0).

Normalization constants relating the theta-based and Weierstrass-based
conventions are solved from the Laurent conditions wp(z) = 1/z^2 + O(z^2)
and sigma_w(z) = z + O(z^5) rather than hard-coded, and verified at
construction time.  The theta series is summed at points reduced to the
base cell only, and its length ``Modulus.theta_terms`` is sized for them.

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
``cover1.eval_p_derivs``, qualify as they are).  The zero search takes the
contour moments of h'/h from one ``hd`` call on the Gauss-Legendre nodes of
two cell edges, and polishes the roots of the polynomial they define with a
lane-wise elliptic Aberth iteration: one ``hd`` call and one first-order
theta call per step.  It tries the admissible contours in turn and raises
``ContourClashError`` when none yields every zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ContourClashError, HurwitzError, LatticePointError
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

    ``truncation`` caps every q-series; the theta series keeps the fewest
    terms whose first dropped one ``_theta_tail`` bounds below 1e-16.  Moduli
    with Im(sigma) <= 0.1 are rejected rather than reduced: modular reduction
    would silently change the homology marking.
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
        if _theta_tail(self.theta_terms, y) >= 1e-16:
            raise ValueError("truncation too small for this modulus")

    @property
    def q(self) -> complex:
        """Nome exp(2*pi*i*sigma)."""
        return cmath.exp(TWO_PI_I * self.sigma)

    @cached_property
    def theta_terms(self) -> int:
        """Number of theta-series terms, at most ``truncation`` (see ``_theta_tail``)."""
        y, cap = self.sigma.imag, self.truncation
        return next((j for j in range(1, cap) if _theta_tail(j, y) < 1e-16), cap)

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


def _theta_tail(j: int, y: float) -> float:
    """Bound on theta term j of derivative order n <= THETA_TABLE_ORDER, over 2 pi^n.

    At Im(sigma) = y and |Im z| <= y/2 (a base-cell argument) the term is at
    most 2 (pi (2j+1))^n exp(-pi y (j^2 - 1/4)) (Whittaker & Watson, ch. 21).
    """
    return (2 * j + 1) ** THETA_TABLE_ORDER * math.exp(-math.pi * y * (j * j - 0.5))


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
    """z-derivatives 0..n_max of the odd theta series at base-cell points z0.

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
    """Write z = m + n*sigma + z0 with the cell coordinates of z0 in [-1/2, 1/2].

    A coordinate of exactly +-1/2 stays: shifting it to the other edge costs
    the quasi-periodic factor of ``theta1_derivs`` digits for nothing.
    """
    u, v = cell_coords(z, sigma)
    m = np.rint(u)
    n = np.rint(v)
    return m, n, z - m - n * sigma


def theta1_derivs(mod: Modulus, z, n_max: int):
    """z-derivatives 0..n_max of theta1 at arbitrary z.

    ``z`` is a complex scalar (returns a list of complex) or an array of
    points (returns an array of shape (n_max + 1, *z.shape)).  Each argument is
    reduced to the base cell; quasi-periodicity supplies the exponential factor,
    and the Leibniz rule propagates it through the requested derivatives.  The
    base-cell sums are batch-invariant, but numpy rounds the product with that
    factor by array length: a scalar can differ from its array entry in the last bit.
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


def _g2(mod: Modulus) -> complex:
    return (4.0 * math.pi**4 / 3.0) * eisenstein(mod, 4)


def g_invariants(mod: Modulus) -> tuple[complex, complex]:
    """Weierstrass invariants (g2, g3) of the lattice Z + sigma*Z."""
    return _g2(mod), (8.0 * math.pi**6 / 27.0) * eisenstein(mod, 6)


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


@cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the n(n-1)/2 pairs i < j of n items, built once per n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


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
    4 pi i d theta1/d sigma = d^2 theta1/dz^2 at the origin.  ``eta_tilde``,
    ``g2`` and ``log_eta`` of the modulus are computed once, here.
    """

    modulus: Modulus
    theta1_deriv0: complex
    calib_p: complex
    calib_sigma: complex
    calib_sigma_dsigma: complex
    eta_tilde: complex
    g2: complex
    log_eta: complex

    @classmethod
    def create(cls, modulus: Modulus) -> "WeierstrassContext":
        # theta1^(k)(0) for odd k is the sum of row k of the weight table (cos 0 = 1)
        t1, t3, t5 = (complex(modulus._theta_tabs[2][k].sum()) for k in (1, 3, 5))
        ctx = cls(
            modulus=modulus,
            theta1_deriv0=t1,
            calib_p=t3 / (3.0 * t1),
            calib_sigma=-t3 / (6.0 * t1),
            calib_sigma_dsigma=-(t5 / t1 - (t3 / t1) ** 2) / (24j * math.pi),
            eta_tilde=eta_tilde(modulus),
            g2=_g2(modulus),
            log_eta=log_dedekind_eta(modulus),
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
    t0, t1, t2, t3 = _theta1_raw(ctx.modulus, z0, 3)
    r1, r2, r3 = t1 / t0, t2 / t0, t3 / t0
    out = np.empty((n_max + 1, len(pts)), dtype=complex)
    out[0] = r1 - TWO_PI_I * n + 2.0 * ctx.calib_sigma * pts
    if n_max >= 1:
        out[1:] = -_wp_rows(ctx, r2 - r1 * r1, r3 - 3.0 * r1 * r2 + 2.0 * r1**3, n_max - 1)
    return out


def zeta_sigma_derivs(ctx: WeierstrassContext, z, n_max: int):
    """[d/dsigma zeta^(n)(z), n = 0..n_max] at fixed z (``_zeta_sigma_rows``), scalar or array z."""
    pts, shape = point_array(z)
    return shape_rows(_zeta_sigma_rows(ctx, zeta_derivs(ctx, pts, n_max + 2), pts, n_max), shape)


def _zeta_sigma_rows(ctx: WeierstrassContext, zeta: np.ndarray, pts, n_max: int) -> np.ndarray:
    """d/dsigma zeta^(n) at fixed argument, n = 0..n_max, from the zeta rows at ``pts``.

    ``zeta`` holds zeta, ..., zeta^(N) (N >= n_max + 2) over the points
    ``pts`` (any shape).  With L = zeta - 2*calib_sigma*z = (log theta1)' the
    heat equation gives d L/d sigma = (L'' + 2 L L')/(4 pi i), so
    d zeta^(n)/d sigma = (L^(n+2) + sum_j C(n+1, j) L^(j) L^(n+1-j))/(4 pi i)
    plus 2 c_sigma z (n = 0) or 2 c_sigma (n = 1), c_sigma = calib_sigma_dsigma.
    """
    big_l = zeta[: n_max + 3].copy()
    big_l[0] -= 2.0 * ctx.calib_sigma * pts
    big_l[1] -= 2.0 * ctx.calib_sigma
    out = np.empty((n_max + 1,) + big_l.shape[1:], dtype=complex)
    for n in range(n_max + 1):
        out[n] = big_l[n + 2] + sum(
            math.comb(n + 1, j) * big_l[j] * big_l[n + 1 - j] for j in range(n + 2)
        )
    out /= 4j * math.pi
    out[0] += 2.0 * ctx.calib_sigma_dsigma * pts
    if n_max >= 1:
        out[1] += 2.0 * ctx.calib_sigma_dsigma
    return out


def zeta_w(ctx: WeierstrassContext, z, n_deriv: int = 0):
    """Weierstrass zeta and derivatives: zeta' = -wp, zeta'' = -wp', ..."""
    return zeta_derivs(ctx, z, n_deriv)[n_deriv]


def sigma_w(ctx: WeierstrassContext, z):
    """Weierstrass sigma, normalized so sigma_w(z) = z + O(z^5) (scalar or array z,
    which agree to round-off, not bit for bit: see ``theta1_derivs``)."""
    pts, shape = point_array(z)
    t = theta1_derivs(ctx.modulus, pts, 0)[0]
    vals = (t / ctx.theta1_deriv0) * np.exp(ctx.calib_sigma * pts * pts)
    return shape_rows(vals[None, :], shape)[0]


# --------------------------------------------------------------------------
# zero localization for elliptic functions


_OFFSETS = [
    (0.0731, 0.0457), (0.3117, 0.1723), (0.5303, 0.2919), (0.7489, 0.4115),
    (0.1327, 0.5711), (0.8923, 0.6907), (0.4519, 0.8103), (0.6115, 0.9299),
    (0.2211, 0.3495), (0.9807, 0.7691), (0.0403, 0.8887), (0.7999, 0.1083),
    (0.3595, 0.2279), (0.5191, 0.6475), (0.6787, 0.4671), (0.8383, 0.5867),
    (0.1979, 0.7063), (0.9575, 0.8259), (0.4171, 0.9455), (0.5767, 0.0651),
]
# moment stage: quadrature nodes per edge; Aberth steps per contour and their length cap
GAUSS_NODES = 32
ABERTH_STEPS = 20
ABERTH_MAX_STEP = 0.5


def _iterate_lanes(step_of, z, tol, max_step: float,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """z[live] -= step_of(z, live) lane by lane, for Newton and Aberth alike.

    A step is clipped to length ``max_step``; a lane stops when its step is
    shorter than its ``tol`` (a scalar or one value per lane) and fails when
    its step is not finite or after ``max_iter`` steps.
    """
    z = np.array(z, dtype=complex)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), z.shape)
    ok = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    for _ in range(max_iter):
        if not live.size:
            break
        with np.errstate(all="ignore"):
            step = step_of(z, live)
        finite = np.isfinite(step)
        live, step = live[finite], step[finite]
        size = np.abs(step)
        big = size > max_step
        step[big] = max_step * step[big] / size[big]
        z[live] -= step
        done = np.abs(step) < tol[live]
        ok[live[done]] = True
        live = live[~done]
    return z, ok


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


def _moment_zeros(hd, ctx: WeierstrassContext, corner: complex,
                  poles: Sequence[tuple[complex, int]], poles_uv) -> list[complex] | None:
    """All zeros of h from contour moments of h'/h and an Aberth polish, or None on failure.

    About the cell centre c, the power sums s_j = sum (z - c)^j of the zeros
    in the cell are (1/2 pi i) times the contour integral of (w - c)^j h'/h
    plus the enclosed pole terms sum m (r - c)^j.  h'/h is periodic, so the
    top edge folds onto the bottom one and the right edge onto the left one:
    one ``hd`` call on the Gauss-Legendre nodes of those two edges gives
    every s_j.  The Newton identities turn s_1..s_M into a monic polynomial
    whose roots seed ``_aberth_lanes``.  The result is accepted only when
    every lane converges and no two of them coincide modulo the lattice: M
    distinct zeros of an elliptic function with M poles are all of its zeros.
    """
    sigma = ctx.modulus.sigma
    total = sum(m for _, m in poles)
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
        zs, ok = _aberth_lanes(hd, ctx, np.array(seeds) + centre, poles, _newton_tol(sigma))
    except HurwitzError:
        return None
    if not ok.all():
        return None
    i, k = _pair_indices(total)
    if (lattice_distance(zs[i] - zs[k], sigma) < 1e-10).any():
        return None
    return zs.tolist()


def _aberth_lanes(hd, ctx: WeierstrassContext, z, poles: Sequence[tuple[complex, int]],
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The elliptic Aberth-Ehrlich iteration: every zero of h at once, from the points z.

    An elliptic h with zeros a_j and poles b_k of multiplicity m_k has a
    sigma-product form (Whittaker & Watson, ch. 20), so
    h'/h(w) = sum_j zeta(w - a_j) - sum_k m_k zeta(w - b_k) + eta(S), where
    S = sum_j a_j - sum_k m_k b_k is a lattice point and eta(S) its
    quasi-period.  Lane i steps by
    1 / (h'/h(z_i) - sum_{j != i} zeta(z_i - z_j) + sum_k m_k zeta(z_i - b_k) - eta(S)),
    S the lattice point p + q sigma nearest sum_j z_j - sum_k m_k b_k: the
    Newton step on h with the other lanes divided out, which keeps two lanes
    from settling on one zero (Aberth, Math. Comp. 27, 1973).  With
    c = calib_sigma, zeta(u) = (log theta1)'(u) + 2c u and
    eta(S) = p 2c + q (2c sigma - 2 pi i), so the 2c u terms of the zeta sums
    and eta(S) add up to 2c (sum_j z_j - sum_k m_k b_k - S) + 2 pi i q, which
    needs no evaluation.  Steps are clipped to ABERTH_MAX_STEP and stop as
    in ``_iterate_lanes``.  A step makes one ``hd`` call and one first-order
    theta call over the live lanes.  Returns the final points and the mask
    of lanes that converged.
    """
    sigma = ctx.modulus.sigma
    b = np.array([p for p, _ in poles], dtype=complex)
    m = np.array([k for _, k in poles], dtype=float)
    mb = m @ b

    def aberth_step(z: np.ndarray, live: np.ndarray) -> np.ndarray:
        gap = z.sum() - mb
        p, q = (round(x) for x in cell_coords(gap, sigma))
        u = np.subtract.outer(z[live], np.concatenate([z, b]))
        own = (np.arange(live.size), live)
        u[own] = 0.5  # a regular point of theta1'/theta1 in place of z_i - z_i
        _, n, u0 = _split_lattice(u.ravel(), sigma)
        t0, t1 = _theta1_raw(ctx.modulus, u0, 1)
        dlog = (t1 / t0 - TWO_PI_I * n).reshape(u.shape)  # (log theta1)'(u)
        dlog[own] = 0.0
        v, d = hd(z[live])
        return 1.0 / (d / v - dlog[:, : z.size].sum(axis=1) + dlog[:, z.size:] @ m
                      + 2.0 * ctx.calib_sigma * (gap - p - q * sigma) + TWO_PI_I * q)

    return _iterate_lanes(aberth_step, z, tol, ABERTH_MAX_STEP, ABERTH_STEPS)


def _newton_tol(sigma: complex) -> float:
    return 1e-12 * (1.0 + abs(sigma))


def elliptic_zeros(
    ctx: WeierstrassContext,
    hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    poles: Sequence[tuple[complex, int]],
) -> list[complex]:
    """All zeros of the elliptic function h in one fundamental cell.

    ``ctx`` is the Weierstrass context of the cell's modulus, which the
    Aberth step needs for its zeta sums.  ``hd`` takes a 1-d complex array
    of points and returns the pair (h, h') there (see the module
    docstring).  ``poles`` lists pole positions with multiplicities (the
    full divisor in one cell), so h has as many zeros as the multiplicities
    add up to.  Each admissible contour of ``_contour_corners`` is tried in
    turn (``_moment_zeros``: contour moments of h'/h seed an elliptic
    Aberth polish) until one yields every zero; when none does,
    ``ContourClashError``.  Zeros are returned reduced to
    {x + y*sigma : x, y in [-1e-12, 1 - 1e-12)}.
    """
    sigma = ctx.modulus.sigma
    for corner, poles_uv in _contour_corners(poles, sigma):
        found = _moment_zeros(hd, ctx, corner, poles, poles_uv)
        if found is not None:
            return [_cell_representative(r, sigma) for r in found]
    raise ContourClashError("zero search failed: no admissible contour gave every zero")
