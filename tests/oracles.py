"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
plain central differences, Newton inversion of the covering map composed
with the local square root, kernel diagonal limits, and a trapezoid
argument-principle count, the argument-principle subdivision search
that ``elliptic.elliptic_zeros`` replaced, as the reference for its zeros,
and the two-pass elliptic Aberth step, as the reference for its one-pass step.
The finite-difference reference for ``isomon.exact_parameter_derivatives``
is here too: ``check_bundle`` continues an analysis from a base one (seeded
critical points, nearest branches), and ``lambda_derivatives`` differences
it with ``isomon.parameter_derivatives``.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from itertools import permutations

import numpy as np

from typing import Callable, Sequence

from hurwitztau import cover0, cover1, isomon
from hurwitztau.elliptic import (
    POLE_GUARD,
    Modulus,
    _cell_representative,
    _contour_corners,
    _g2,
    _gauss_legendre,
    _iterate_lanes,
    _newton_tol,
    _split_lattice,
    _theta1_raw,
    _zeta_sigma_rows,
    cell_coords,
    eisenstein,
    lattice_distance,
    log_dedekind_eta,
    point_array,
    reduce_to_cell,
    shape_rows,
    sigma_w,
    theta1_derivs,
    wp,
    zeta_derivs,
)
from hurwitztau.errors import ContourClashError, CountMismatchError, NearPoleError
from hurwitztau.poly import CPoly

_ULP = float(np.finfo(float).eps)


# --------------------------------------------------------------------------
# closed forms over the elliptic module, references for its tests


def dedekind_eta(mod: Modulus) -> complex:
    """Dedekind eta: q^(1/24) * prod(1 - q^n)."""
    return cmath.exp(log_dedekind_eta(mod))


def g_invariants(mod: Modulus) -> tuple[complex, complex]:
    """Weierstrass invariants (g2, g3) of the lattice Z + sigma*Z."""
    return _g2(mod), (8.0 * math.pi**6 / 27.0) * eisenstein(mod, 6)


def half_periods(sigma: complex) -> tuple[complex, complex, complex]:
    return (0.5, sigma / 2.0, (1.0 + sigma) / 2.0)


def theta1(mod: Modulus, z: complex, n_deriv: int = 0) -> complex:
    """n_deriv-th z-derivative of the odd theta function on Z + sigma*Z."""
    if n_deriv < 0:
        raise ValueError("n_deriv must be >= 0")
    return theta1_derivs(mod, z, n_deriv)[n_deriv]


def zeta_w(ctx, z, n_deriv: int = 0):
    """Weierstrass zeta and derivatives: zeta' = -wp, zeta'' = -wp', ..."""
    return zeta_derivs(ctx, z, n_deriv)[n_deriv]


def zeta_sigma_derivs(ctx, z, n_max: int):
    """[d/dsigma zeta^(n)(z), n = 0..n_max] at fixed z (``_zeta_sigma_rows``), scalar or array z."""
    pts, shape = point_array(z)
    return shape_rows(_zeta_sigma_rows(ctx, zeta_derivs(ctx, pts, n_max + 2), pts, n_max), shape)


def profile_constant(c: cover0.Covering0) -> float:
    """prod k_i^-(k_i^2 - 1) over the finite poles: off the boundary |R(f, g)| is this
    constant times its pole/flat factorization."""
    return math.prod(float(k) ** -(k * k - 1) for k in c.profile[1:])


def euler_scaling_expected(c) -> complex:
    """Closed-form value of E(log tau) = sum lambda_m H_m from the profile, at either genus."""
    if c.genus:
        return complex((-0.5 * c.dim - sum((k + 1) / k for k in c.profile)) / 24.0)
    k1 = c.profile[0]
    return complex((c.dim * (1.0 / k1 - 0.5)
                    - sum((k + 1) * (1.0 / k + 1.0 / k1) for k in c.profile[1:])) / 24.0)


def newton_lanes(hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], z,
                 tol, max_step: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method from many starting points at once, on ``elliptic._iterate_lanes``.

    ``hd(w)`` returns (h(w), h'(w)) for an array of points w.  Each lane
    iterates as scalar Newton does: the step h/h' is clipped to length
    ``max_step``; the lane stops when the step is shorter than its ``tol``
    (a scalar or one value per lane) and fails when h' vanishes or after
    ``max_iter`` steps.  Only the live lanes are evaluated.  Returns the
    final points and the mask of lanes that converged.
    """
    def newton_step(z: np.ndarray, live: np.ndarray) -> np.ndarray:
        v, d = hd(z[live])
        return v / d

    return _iterate_lanes(newton_step, z, tol, max_step, max_iter)


def aberth_step_two_pass(hd: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                         ctx, poles: Sequence[tuple[complex, int]]) -> Callable:
    """The elliptic Aberth step of ``elliptic._aberth_step`` in two theta passes.

    The reference for the one-pass step: h and h' come from ``hd`` on the
    live lanes, and the zeta sums from a second, first-order theta call on
    every z_i - z_j and z_i - b_k.  The sums take (log theta1)' = zeta - 2c u
    (c = calib_sigma), and the 2c u terms, summed over the lanes and the
    pole divisor, add up to 2c (sum_j z_j - sum_k m_k b_k) in closed form.
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
        dlog = (t1 / t0 - 2j * math.pi * n).reshape(u.shape)  # (log theta1)'(u)
        dlog[own] = 0.0
        v, d = hd(z[live])
        return 1.0 / (d / v - dlog[:, : z.size].sum(axis=1) + dlog[:, z.size:] @ m
                      + 2.0 * ctx.calib_sigma * (gap - p - q * sigma) + 2j * math.pi * q)

    return aberth_step


def central_diff(fn, z: complex, h: float = 1e-6) -> complex:
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def _p_and_dp(cov):
    if isinstance(cov, cover0.Covering0):
        return (
            lambda z: cover0.eval_p_derivs(cov, z, 0)[0],
            lambda z: cover0.eval_p_derivs(cov, z, 1)[1],
        )
    return (
        lambda z: cover1.eval_p_derivs(cov, z, 0)[0],
        lambda z: cover1.eval_p_derivs(cov, z, 1)[1],
    )


def local_inverse(cov, z_m: complex, lam_m: complex, fsq_m: complex):
    """z(x) with p(z(x)) = lam_m + x^2, z(0) = z_m, by Newton from a linear seed.

    Newton stops at round-off: after a step within a few ulps of z, or
    before a step that is no shorter than the one before it (which only
    round-off makes).  So when it stops does not hang on the last bits of p.
    z(0) is z_m itself: there p' = 0, and a Newton step would be round-off
    over round-off.
    """
    p, dp = _p_and_dp(cov)
    f_m = cmath.sqrt(fsq_m)

    def z_of_x(x: complex) -> complex:
        if x == 0:
            return z_m
        z = z_m + f_m * x
        target = lam_m + x * x
        last = math.inf
        for _ in range(80):
            step = (p(z) - target) / dp(z)
            if abs(step) >= last:
                break
            z -= step
            last = abs(step)
            if last <= 4.0 * _ULP * abs(z):
                break
        return z

    return z_of_x


def fd_schwarzian(cov, z_m: complex, lam_m: complex, fsq_m: complex, h: float = 0.12) -> complex:
    """{z, x} at x = 0 by five-point stencils on the local inverse z(x).

    Two Richardson levels on top of the O(h^2) stencil error; the base step
    stays large because the Newton-inverted z(x) carries a small noise floor
    that dominates below h ~ 1e-2.  This is the
    Schwarzian of the uniformizing coordinate in the distinguished local
    parameter: the Wirtinger connection value (equal to the Bergmann one at
    genus 0).
    """
    z = local_inverse(cov, z_m, lam_m, fsq_m)

    def schwarz(hh: float) -> complex:
        zs = {k: z(k * hh) for k in (-2, -1, 0, 1, 2)}
        d1 = (8.0 * (zs[1] - zs[-1]) - (zs[2] - zs[-2])) / (12.0 * hh)
        d2 = (16.0 * (zs[1] + zs[-1]) - (zs[2] + zs[-2]) - 30.0 * zs[0]) / (12.0 * hh * hh)
        d3 = (zs[2] - 2.0 * zs[1] + 2.0 * zs[-1] - zs[-2]) / (2.0 * hh**3)
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    s1 = schwarz(h)
    s2 = schwarz(h / 2.0)
    s4 = schwarz(h / 4.0)
    return (64.0 * s4 - 20.0 * s2 + s1) / 45.0


def kernel_diagonal_sb(cov1_inst, z_m: complex, lam_m: complex, fsq_m: complex,
                       h: float = 0.12) -> complex:
    """Genus-1 Bergmann connection value by the kernel diagonal limit.

    6 * lim_{x->0} [ (wp(z(x)-z(-x)) - 4 pi i eta~) z'(x) z'(-x) - 1/(2x)^2 ]
    with z'(x) = 2x / p'(z(x)), Richardson-extrapolated in x^2.
    """
    ctx = cov1_inst.ctx
    eta_t = ctx.eta_tilde
    z = local_inverse(cov1_inst, z_m, lam_m, fsq_m)
    _, dp = _p_and_dp(cov1_inst)

    def h_val(x: float) -> complex:
        zp = z(x)
        zm = z(-x)
        dzp = 2.0 * x / dp(zp)
        dzm = -2.0 * x / dp(zm)
        ker = wp(ctx, zp - zm) - 4j * math.pi * eta_t
        return 6.0 * (ker * dzp * dzm - 1.0 / (4.0 * x * x))

    s1 = h_val(h)
    s2 = h_val(h / 2.0)
    s4 = h_val(h / 4.0)
    return (64.0 * s4 - 20.0 * s2 + s1) / 45.0


def per_pole_p_derivs(cov, z, n_max: int):
    """p, p', ..., p^(n_max) of a genus-1 covering, pole by pole.

    The reference for ``cover1.eval_p_derivs``: one pole guard and one
    ``zeta_derivs`` call per pole, summed in pole order.  Scalar or array z.
    """
    pts, shape = point_array(z)
    sigma = cov.modulus.sigma
    for pole in cov.poles:
        dist = lattice_distance(pts - pole.b, sigma)
        near = dist <= POLE_GUARD * (1.0 + abs(sigma))
        if near.any():
            raise NearPoleError(f"z = {complex(pts[near][0])} lies {dist[near][0]:.1e} modulo the "
                                f"lattice from the pole at {pole.b}")
    out = np.zeros((n_max + 1, len(pts)), dtype=complex)
    out[0] = cov.constant
    for pole in cov.poles:
        zd = zeta_derivs(cov.ctx, pts - pole.b, pole.order - 1 + n_max)
        for a, coeff in enumerate(pole.c):
            out += coeff * zd[a: a + n_max + 1]
    return shape_rows(out, shape)


def per_pole_param_derivs(cov, z) -> np.ndarray:
    """d/d theta of [p, p', p''] of a genus-1 covering, pole by pole.

    The reference for the partials of ``cover1.eval_param_derivs``: per pole
    one ``zeta_derivs`` and one ``zeta_sigma_derivs`` call.  Shape
    (P, 3, len(z)), rows in ``cover1.params`` order.
    """
    pts = np.asarray(z, dtype=complex)
    ctx = cov.ctx
    zetas = [zeta_derivs(ctx, pts - p.b, p.order + 2) for p in cov.poles]
    blocks = {"constant": np.zeros((3, pts.size), dtype=complex), "modulus": 0}
    blocks["constant"][0] = 1.0
    for i, (pole, zd) in enumerate(zip(cov.poles, zetas)):
        zs = zeta_sigma_derivs(ctx, pts - pole.b, pole.order + 1)
        blocks["modulus"] += sum(coeff * zs[a: a + 3] for a, coeff in enumerate(pole.c))
        blocks[f"poles.{i}.b"] = -sum(coeff * zd[a + 1: a + 4] for a, coeff in enumerate(pole.c))
        blocks[f"poles.{i}.c.0"] = zd[:3] - zetas[-1][:3]
        for a in range(1, pole.order):
            blocks[f"poles.{i}.c.{a}"] = zd[a: a + 3]
    return np.array([blocks[path] for path in cover1.params(cov)], dtype=complex)


def per_point_p_derivs0(cov, z: complex, n_max: int) -> list[complex]:
    """p, p', ..., p^(n_max) of a genus-0 covering at one point.

    The reference for ``cover0.eval_p_derivs``: ``CPoly`` Horner on the
    polynomial part plus each pole tail term by term, in Python complex
    arithmetic, one point at a time.
    """
    z = complex(z)
    poly = [0j] * (cov.profile[0] + 1)
    poly[-1] = 1.0
    poly[: len(cov.poly_coeffs)] = cov.poly_coeffs
    out = CPoly(tuple(poly)).eval_derivatives(z, n_max)
    for pole in cov.poles:
        for a, coeff in enumerate(pole.c, start=1):
            # d^n/dz^n of -(z-b)^(-a) is -(-1)^n a(a+1)...(a+n-1) (z-b)^(-a-n)
            for n in range(n_max + 1):
                out[n] -= coeff * (-1) ** n * math.perm(a + n - 1, n) * (z - pole.b) ** (-a - n)
    return out


def trapezoid_argument_count(h_fn, corner: complex, e1: complex, e2: complex,
                             n: int = 4096) -> int:
    """(1/2 pi) * total argument change of h around the parallelogram contour.

    ``h_fn`` takes the array of the n + 1 points of one edge at a time.
    """
    total = 0.0
    ts = np.linspace(0.0, 1.0, n + 1)
    for za, zb in [
        (corner, corner + e1),
        (corner + e1, corner + e1 + e2),
        (corner + e1 + e2, corner + e2),
        (corner + e2, corner),
    ]:
        vals = np.asarray(h_fn(za + ts * (zb - za)))
        total += float(np.sum(np.angle(vals[1:] / vals[:-1])))
    return round(total / (2.0 * math.pi))


def first_contour(poles, sigma) -> np.ndarray:
    """The quadrature nodes on the two edges of the zero search's first contour."""
    corner, _ = next(_contour_corners(poles, sigma))
    t, _ = _gauss_legendre()
    return np.concatenate([corner + t, corner + t * sigma])


def round_off_spread(zs, hd, poles, sigma) -> np.ndarray:
    """How far round-off can move each zero z of h: 10 eps S / |h'(z)|.

    S is the size of h on ``first_contour``, so 10 eps S bounds the
    round-off in a value of h.  Far from the poles of a thin cell
    (Im sigma near 0.1) |h'| can fall to 1e-4 of S.
    """
    size = np.abs(hd(first_contour(poles, sigma))[0]).max()
    return 10 * np.finfo(float).eps * size / np.abs(hd(np.array(zs))[1])


# Where the zero search raises on a sampled covering, round-off moves some zero
# by 7.8e3 to 1e8 times the Newton tolerance; a margin of 100 keeps a failure on
# well-determined zeros from passing as one on zeros that round-off moves.
NOT_DETERMINED_MARGIN = 100.0


def assert_not_determined(zs, hd, poles, sigma) -> None:
    """Round-off moves some zero of ``zs`` by far more than the search's Newton tolerance.

    Where this holds, ``elliptic_zeros`` may raise ``ContourClashError``: no
    lane can meet its tolerance on that zero.
    """
    spread = round_off_spread(zs, hd, poles, sigma).max()
    assert spread > NOT_DETERMINED_MARGIN * _newton_tol(sigma), spread / _newton_tol(sigma)


def _linear_power(b: complex, m: int) -> np.ndarray:
    """(z - b)^m, lowest degree first, as m convolutions with the root factor."""
    return functools.reduce(np.convolve, [np.array([-b, 1.0])] * m, np.ones(1))


def p_prime_as_ratio(c: cover0.Covering0) -> tuple[np.ndarray, np.ndarray]:
    """p' = f/g with g = prod (z - b_i)^(k_i + 1), built at coefficient level.

    f has degree M with leading coefficient k1; its roots are exactly the
    finite critical points.  Both are coefficient rows, lowest degree first.

    The reference for ``cover0.p_prime_as_ratio``: ``np.convolve`` products
    of root factors, one covering at a time.
    """
    k1 = c.profile[0]
    g = np.ones(1, dtype=complex)
    for pole in c.poles:
        g = np.convolve(g, _linear_power(pole.b, pole.order + 1))

    dpoly = np.zeros(k1, dtype=complex)
    dpoly[k1 - 1] = float(k1)
    for r, a in enumerate(c.poly_coeffs):
        if r >= 1:
            dpoly[r - 1] = r * a
    f = np.convolve(dpoly, g)

    for i, pole in enumerate(c.poles):
        rest = np.ones(1, dtype=complex)
        for j, other in enumerate(c.poles):
            if j != i:
                rest = np.convolve(rest, _linear_power(other.b, other.order + 1))
        for a, coeff in enumerate(pole.c, start=1):
            term = np.convolve(a * coeff * _linear_power(pole.b, pole.order - a), rest)
            f[: len(term)] += term
    return f, g


def product_resultant(f, g) -> complex:
    """lc(f)^deg(g) * prod g(root) with roots from the companion-matrix solver.

    ``f`` and ``g`` are coefficient rows, lowest degree first.
    """
    roots = np.roots(list(reversed(f)))
    acc = f[-1] ** (len(g) - 1)
    for r in roots:
        acc *= np.polyval(list(reversed(g)), complex(r))
    return complex(acc)


def boundary_ray_orders(c: cover0.Covering0) -> dict[tuple, float]:
    """Least-squares slope of log10 |R(f, f')| against log10 of the ray parameter, per ray.

    ("top-tail", (i,)) scales pole i's top tail so that |t_i| runs over 12 points from 1e-2
    of its value down to 1e-6 (to 1e-5.5, and not below 1e-4, when k_i >= 2: t_i = 0 leaves
    the moduli space).  ("pole-collision", (r, s)) moves b_r to b_s + eps (b_r - b_s), eps
    from 10^(-4/(k_r+k_s)) to 10^(-10/(k_r+k_s)), so |R| spans about 1e-4 to 1e-10 of its
    scale.  Every ray's R(f, f') comes from one stacked f build and one determinant call.
    """
    ks, t0s = c.profile[1:], [abs(t) for t in cover0.flat_coords(c).t]

    def moved(i: int, **change) -> cover0.Covering0:
        poles = list(c.poles)
        poles[i] = dataclasses.replace(poles[i], **change)
        return cover0.Covering0(c.profile, c.poly_coeffs, tuple(poles))

    rays = {}
    for i, (k, t0, pole) in enumerate(zip(ks, t0s, c.poles)):
        t_lo = max(1e-4, t0 * 10**-5.5) if k >= 2 else t0 * 1e-6
        if t_lo < t0 * 1e-2:
            ts = np.geomspace(t0 * 1e-2, t_lo, 12)
            rays["top-tail", (i,)] = ts, [moved(i, c=pole.c[:-1] + (pole.top * (t / t0) ** k,))
                                          for t in ts]
    for r, s in permutations(range(len(ks)), 2):
        eps = np.logspace(-4.0, -10.0, 12) ** (1.0 / (ks[r] + ks[s]))
        b_r, b_s = c.poles[r].b, c.poles[s].b
        rays["pole-collision", (r, s)] = eps, [moved(r, b=b_s + e * (b_r - b_s)) for e in eps]
    fs, _ = cover0.p_prime_as_ratio([cov for _, ray in rays.values() for cov in ray])
    ys = np.split(cover0._log_r_ff(fs).real / math.log(10), len(rays))
    return {key: float(np.polyfit(np.log10(xs), y, 1)[0])
            for (key, (xs, _)), y in zip(rays.items(), ys)}


# --------------------------------------------------------------------------
# the argument-principle subdivision search: the reference for elliptic_zeros


class _EdgeTrouble(Exception):
    """Argument tracking failed along a contour edge (zero/pole too close)."""


_UNIT_CELL = (0.0, 1.0, 0.0, 1.0)
_MIN_CELL = 1e-4
# argument tracking: grid intervals per contour edge, bisection depth limit
EDGE_INTERVALS = 12
MAX_BISECTIONS = 13


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


def theta1_long(sigma: complex, z, n_max: int, terms: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """z-derivatives 0..n_max of theta1 from ``terms`` terms of its q-series, unreduced.

    theta1(z) = 2 sum_j (-1)^j exp(i pi sigma (j+1/2)^2) sin(pi (2j+1) z), and
    d^n/dz^n sin(f z) = f^n (sin, cos, -sin, -cos)[n % 4](f z): the weights of
    ``elliptic._theta_weights``, summed here over ``terms`` terms at the points
    as given.  Returns the sums and, per order and point, the size of the
    largest term: its weight times sqrt(|sin|^2 + |cos|^2) = sqrt(cosh(2 Im fz)),
    which does not vanish where the sine or the cosine does.
    """
    j = np.arange(terms)
    coeff = 2.0 * np.where(j % 2, -1.0, 1.0) * np.exp(1j * math.pi * sigma * (j + 0.5) ** 2)
    freq = math.pi * (2 * j + 1)
    ang = np.multiply.outer(np.asarray(z, dtype=complex), freq)
    sin, cos = np.sin(ang), np.cos(ang)
    orders = np.arange(n_max + 1)[:, None, None]
    rows = np.array([(sin, cos, -sin, -cos)[k % 4] for k in range(n_max + 1)])
    rows *= coeff * freq**orders
    # log of |coeff| freq^k sqrt(cosh(2t)), t = Im fz, without overflow
    log_size = (math.log(2.0) - math.pi * sigma.imag * (j + 0.5) ** 2 + orders * np.log(freq)
                + 0.5 * (np.logaddexp(2.0 * ang.imag, -2.0 * ang.imag) - math.log(2.0)))
    # correctly rounded sums (math.fsum), so the reference adds no round-off of its own
    sums = np.array([[complex(math.fsum(r.real), math.fsum(r.imag)) for r in row] for row in rows])
    return sums, np.exp(log_size.max(axis=-1))


def tau_resultant_float_product(c: cover1.Covering1, cd: cover0.CriticalData) -> complex:
    """log tau^-48 of genus-1 route B with kappa and f0 formed as float products.

    The same sigma_w values as ``cover1.tau_resultant``, multiplied out
    before one logarithm each: the float-product form of route B, which
    underflows where kappa = prod sigma_w(z_r - z_s) leaves double precision.
    """
    s_zz, s_b1, s_bz, s_bb = (sigma_w(c.ctx, a).tolist() for a in cover1._sigma_args(c, cd))
    ks, t = c.profile, cd.flat.t
    f0 = -ks[0] * t[0] ** ks[0]
    for s, k in zip(s_b1, ks[1:]):
        f0 *= s ** (k + 1)
    f0 /= complex(np.prod(s_bz))
    log48 = 48.0 * c.ctx.log_eta + 2.0 * c.dim * cmath.log(f0) + cmath.log(complex(np.prod(s_zz)))
    for term in cover0.route_b_denominator_terms(ks, [cmath.log(s) for s in s_bb],
                                                 [cmath.log(v) for v in t]):
        log48 -= term
    return log48


# --------------------------------------------------------------------------
# the finite-difference reference: analyses continued from a base analysis


def _nearest_log(v: complex, ref: complex) -> complex:
    """The logarithm of v nearest the logarithm ``ref``: the principal one plus 2 pi i n."""
    lv = cmath.log(v)
    return lv + 2j * math.pi * round((ref.imag - lv.imag) / (2.0 * math.pi))


def continue_branches(an: isomon.Analysis, base: isomon.Analysis) -> isomon.Analysis:
    """``an`` with f, h and route A on the branches that continue ``base``'s.

    f_m is the square root of f_m^2 nearest base.f[m] and h_s the k_s-th root
    of h_s^k_s nearest base.h[s]; the logarithms of f_m^2 and h_s are those
    nearest base's principal ones, and log t_s moves with log h_s (t_s is a
    fixed multiple of h_s).  ``cover0.route_a`` of these gives ``tau``.  With
    ``an`` = ``base`` every value is base's own, bit for bit.
    """
    fsq, ks = an.critical.fsq, [p.order for p in an.covering.poles]
    f = tuple(r if abs(r - rf) <= abs(-r - rf) else -r
              for r, rf in zip((cmath.sqrt(v) for v in fsq), base.f))
    h = tuple(
        min((hv * cmath.exp(2j * math.pi * j / k) for j in range(k)), key=lambda w: abs(w - rh))
        for hv, k, rh in zip(an.h, ks, base.h)
    )
    log_fsq = [_nearest_log(v, cmath.log(rv)) for v, rv in zip(fsq, base.critical.fsq)]
    log_h0 = [cmath.log(rh) for rh in base.h]
    log_h = [_nearest_log(hv, lh0) for hv, lh0 in zip(h, log_h0)]
    log_t = [cmath.log(rt) + (lh - lh0) for rt, lh, lh0 in zip(base.critical.flat.t, log_h, log_h0)]
    log_eta = an.covering.ctx.log_eta if an.covering.genus else 0
    return dataclasses.replace(an, f=f, h=h,
                               tau=cover0.route_a(ks, log_fsq, log_h, log_t, log_eta))


def seeded_critical_data(cov, seeds):
    """The critical data of ``cov`` continuing ``seeds``: its one-covering ``critical_round``,
    whose error raises.  A seed that fails makes the round solve globally."""
    (cd,) = (cover0, cover1)[cov.genus].critical_round([cov], [seeds])
    if isinstance(cd, Exception):
        raise cd
    return cd


def continued_analysis(cov, base: isomon.Analysis) -> isomon.Analysis:
    """The analysis of ``cov`` with the critical points tracked from ``base``'s.

    The seeded solve returns the tracked points lane by lane, in the order of
    base's points; when each is nearest its own base point the identity is an
    optimal assignment, so that order is kept, and a tracked point nearer
    another base point raises ``CountMismatchError``, as does a global
    fallback of the round that reorders the points.  The branches continue
    base's (``continue_branches``).
    """
    base_pts = base.critical.pts
    cd = seeded_critical_data(cov, base_pts)
    diff = np.subtract.outer(np.array(cd.pts), np.array(base_pts))
    gaps = lattice_distance(diff, cov.modulus.sigma) if cov.genus else np.abs(diff)
    if (np.argmin(gaps, axis=1) != np.arange(len(cd.pts))).any():
        raise CountMismatchError("a tracked critical point is nearer another base point")
    return continue_branches(isomon.analyze(cov, cd), base)


def bundle(an: isomon.Analysis) -> dict:
    """The quantities ``isomon.exact_parameter_derivatives`` differentiates, by key."""
    out = {"lam": an.critical.lam, "fsq": an.critical.fsq, "f": an.f, "h": an.h, "T": an.tau.T,
           "log_tau48": an.tau.log_tau_inv48, "G": an.tau.G}
    if an.covering.genus:
        out["sigma"] = an.covering.modulus.sigma
    return out


def check_bundle(base: isomon.Analysis) -> Callable:
    """The bundle function of coverings near ``base``'s, branch-continued from ``base``."""
    return lambda cov: bundle(continued_analysis(cov, base))


def lambda_derivatives(cov, bundle_fn: Callable) -> tuple[dict, dict]:
    """d(bundle)/d(lambda_k) of every bundle entry, by finite differences.

    The bundle must contain the key ``"lam"``; its parameter Jacobian is
    inverted and chained with every other entry's parameter derivatives.
    """
    base, _, derivs = isomon.parameter_derivatives(cov, bundle_fn)
    return base, isomon._chain_to_lambda(derivs)
