"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
plain central differences, Newton inversion of the covering map composed
with the local square root, kernel diagonal limits, and a trapezoid
argument-principle count.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from hurwitztau import cover0, cover1
from hurwitztau.elliptic import lattice_distance, point_array, shape_rows, wp, zeta_derivs
from hurwitztau.errors import NearPoleError
from hurwitztau.poly import CPoly


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
    """z(x) with p(z(x)) = lam_m + x^2, z(0) = z_m, by Newton from a linear seed."""
    p, dp = _p_and_dp(cov)
    f_m = cmath.sqrt(fsq_m)

    def z_of_x(x: complex) -> complex:
        z = z_m + f_m * x
        target = lam_m + x * x
        for _ in range(80):
            step = (p(z) - target) / dp(z)
            z -= step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
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
        near = lattice_distance(pts - pole.b, sigma) <= cover1.POLE_GUARD * (1.0 + abs(sigma))
        if near.any():
            raise NearPoleError(
                f"z = {complex(pts[near][0])} is too close to the pole at {pole.b}"
            )
    out = np.zeros((n_max + 1, len(pts)), dtype=complex)
    out[0] = cov.constant
    for pole in cov.poles:
        zd = zeta_derivs(cov.ctx, pts - pole.b, pole.order - 1 + n_max)
        for a, coeff in enumerate(pole.c):
            out += coeff * zd[a: a + n_max + 1]
    return shape_rows(out, shape)


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


def product_resultant(f_coeffs, g) -> complex:
    """lc(f)^deg(g) * prod g(root) with roots from the companion-matrix solver."""
    roots = np.roots(list(reversed(f_coeffs)))
    lc = f_coeffs[-1]
    acc = lc ** g.degree
    for r in roots:
        acc *= g(complex(r))
    return complex(acc)
