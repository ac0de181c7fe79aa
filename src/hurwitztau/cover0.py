"""Genus-0 covering model: rational maps with prescribed pole profile.

A point of the moduli space is a rational map

    p(z) = z^k1 + sum_{r<=k1-2} a_r z^r - sum_{i>=2} sum_{a=1..k_i} c_{i,a}/(z-b_i)^a

with distinct poles and non-vanishing top Laurent coefficients.  This module
computes the critical data (critical points, critical values, squared local
frame f_m^2, Schwarzian values) by a global solve, or in a ``critical_round``
from seeds, the flat coordinates, the tau-function by two independent
closed-form routes, and the G-function with its scaling anomaly.  ``cover1``
defines the same model names; what both share (``CriticalData``, ``route_a``,
``frame_data``, ``route_b_denominator_terms``, the Newton lanes
``_seeded_points``) is here.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import combinations, compress, islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .elliptic import _iterate_lanes, _pair_indices, point_array, shape_rows
from .errors import (
    CoincidentPointsError,
    CommonRootError,
    NoCriticalPointsError,
    NonConvergenceError,
    OnBoundaryError,
)
from .poly import log_resultant

if TYPE_CHECKING:
    from .cover1 import FlatCoords1

__all__ = [
    "Pole",
    "Covering0",
    "CriticalData",
    "FlatCoords0",
    "TauProduct",
    "TauResultant",
    "reject_near_s2",
    "reject_ill_conditioned",
    "eval_p_derivs",
    "eval_param_derivs",
    "p_prime_as_ratio",
    "critical_data",
    "critical_round",
    "flat_coords",
    "tau_product",
    "tau_resultant",
    "principal_root",
]

BOUNDARY_TOL = 1e-10
CAUSTIC_REL_TOL = 1e-6
ROOT_POLE_GUARD = 1e-8
# critical points closer than this coincide (the Bergmann kernel is singular there)
COINCIDENT_TOL = 1e-12
# the largest Newton step, relative to the smallest point gap, that polishes a global solve
STEP_GAP_TOL = 1e-3
# round-off a verified covering may lose near S2 (the gradient identities' 1e-9)
S2_CONDITION_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


def principal_root(c: complex, k: int) -> complex:
    """Principal k-th root exp(Log(c)/k)."""
    if k == 1:
        return complex(c)
    return cmath.exp(cmath.log(c) / k)


@dataclass(frozen=True)
class Pole:
    """One finite pole: position b and Laurent tail (c_1, ..., c_k)."""

    b: complex
    c: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))

    @property
    def order(self) -> int:
        return len(self.c)

    @property
    def top(self) -> complex:
        return self.c[-1]


@dataclass(frozen=True)
class Covering0:
    """Genus-0 covering with pole profile (k_1, ..., k_l), sum = N.

    ``profile[0]`` is the ramification index over infinity carried by the
    polynomial part; ``poles`` matches ``profile[1:]``.  The polynomial part
    has no z^(k1-1) term, which pins the uniformizing coordinate to z itself.
    Construction rejects the boundary: poles that coincide (S1, within
    BOUNDARY_TOL of the pole scale) or a top tail that is exactly 0 (S2).  A
    tiny non-zero top tail is a covering whose critical points approach the
    pole; ``critical_data`` rejects it with ``CommonRootError`` once they
    reach it.  ``reject_near_s2`` holds a covering to BOUNDARY_TOL from S2.
    """

    profile: tuple[int, ...]
    poly_coeffs: tuple[complex, ...]
    poles: tuple[Pole, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", tuple(int(k) for k in self.profile))
        object.__setattr__(
            self, "poly_coeffs", tuple(complex(a) for a in self.poly_coeffs)
        )
        object.__setattr__(self, "poles", tuple(self.poles))
        if not self.profile or any(k < 1 for k in self.profile):
            raise ValueError("profile entries must be integers >= 1")
        k1 = self.profile[0]
        if len(self.poly_coeffs) != max(k1 - 1, 0):
            raise ValueError(
                f"need {k1 - 1} polynomial coefficients (degrees 0..k1-2), "
                f"got {len(self.poly_coeffs)}"
            )
        if len(self.poles) != len(self.profile) - 1:
            raise ValueError("poles must match profile[1:]")
        for k, pole in zip(self.profile[1:], self.poles):
            if pole.order != k:
                raise ValueError(
                    f"pole at {pole.b} carries {pole.order} tail coefficients, profile says {k}"
                )
        scale = 1.0 + max((abs(p.b) for p in self.poles), default=0.0)
        for (i, p), (j, q) in combinations(enumerate(self.poles), 2):
            if abs(p.b - q.b) <= BOUNDARY_TOL * scale:
                raise OnBoundaryError("S1", (i, j))
        reject_near_s2(self, 0.0)

    @property
    def genus(self) -> int:
        return 0

    @property
    def degree(self) -> int:
        return sum(self.profile)

    @property
    def n_poles(self) -> int:
        return len(self.profile)

    @property
    def dim(self) -> int:
        """Moduli dimension M = l + N - 2."""
        return len(self.profile) + self.degree - 2


def reject_near_s2(c: Covering0, tol: float = BOUNDARY_TOL) -> Covering0:
    """``c``, or ``OnBoundaryError`` (S2) when a top tail is within ``tol`` of 0.

    A spec read from a file and every ``set_param`` result are held to
    BOUNDARY_TOL, and so is every ``Covering1`` at construction.
    """
    for i, p in enumerate(c.poles):
        if abs(p.top) <= tol:
            raise OnBoundaryError("S2", (i,))
    return c


def check_pole_gaps(poles: tuple[Pole, ...], gaps, scale: float) -> None:
    """``OnBoundaryError`` (S2) when a critical point is too near a pole to verify.

    Near S2 the critical points close in on a pole of order k whose top tail
    goes to 0.  At distance d they carry derivatives that grow like
    (scale/d)^(k+1), so round-off eps * (scale/d)^(k+1) is what the identity
    suite can resolve; ``gaps[i]`` is the distance from pole i to the nearest
    critical point, and a gap below scale * (eps/S2_CONDITION_TOL)^(1/(k+1))
    is rejected.
    """
    for i, (pole, d) in enumerate(zip(poles, gaps)):
        if d < scale * (_EPS / S2_CONDITION_TOL) ** (1.0 / (pole.order + 1)):
            raise OnBoundaryError(
                "S2", (i,), f"a critical point lies {d:.3e} from pole {i}: "
                "too ill-conditioned to verify"
            )


def reject_ill_conditioned(c: Covering0, pts) -> None:
    """``check_pole_gaps`` for the critical points ``pts``, at the pole scale 1 + max |b_i|.

    That is the scale of ``ROOT_POLE_GUARD``.
    """
    scale = 1.0 + max((abs(p.b) for p in c.poles), default=0.0)
    check_pole_gaps(c.poles, [min(abs(a - p.b) for a in pts) for p in c.poles], scale)


def eval_p_derivs(c: Covering0 | Sequence[Covering0], z, n_max: int):
    """[p(z), p'(z), ..., p^(n_max)(z)] evaluated exactly.

    ``z`` is a complex scalar (returns a list of complex) or an array of
    points (returns an array of shape (n_max + 1, *z.shape)).  Stacked: ``c``
    is a sequence of coverings of one profile and ``z`` one 1-d point array
    per covering; the columns are all their points in turn.  The polynomial
    part is Horner's scheme on p^(j)/j!, started from its leading terms
    z^k1 + 0 z^(k1-1); the pole part is each tail coefficient times the
    powers (z - b)^(-a-j).  The rows are laid end to end in one flat array:
    numpy multiplies complex arrays of one dimension the same way at any
    length, so a scalar gives its batch entry bit for bit, as a covering
    does its stacked columns.
    """
    if isinstance(c, Covering0):
        cs, (pts, shape) = (c,), point_array(z)
        counts = [len(pts)]
    else:
        cs, pts, counts = c, np.concatenate(z), [len(part) for part in z]
        shape = pts.shape
    n = len(pts)
    # row q: coefficient q of each point's covering, the polynomial part's
    # from degree k1 - 2 down, then per pole b, c_1, ..., c_k
    cols = np.array([[*cv.poly_coeffs[::-1], *(v for p in cv.poles for v in (p.b, *p.c))]
                     for cv in cs]).T.take(np.repeat(np.arange(len(cs)), counts), axis=1)
    buf = np.zeros((n_max + 2) * n, dtype=complex)  # the next coefficient, then p^(j)/j!
    buf[n : 2 * n] = pts
    buf[2 * n : 3 * n] = 1.0
    tiled = np.concatenate([pts] * (n_max + 1))
    q = len(cs[0].poly_coeffs)
    for coeff in cols[:q]:
        buf[:n] = coeff
        buf[n:] = buf[n:] * tiled + buf[:-n]
    out = buf[n:] * np.array([float(math.factorial(j)) for j in range(n_max + 1)]).repeat(n)
    for k in cs[0].profile[1:]:
        w = pts - cols[q]
        powers = np.concatenate([w**-e for e in range(1, k + n_max + 1)])
        for a in range(1, k + 1):
            # d^j/dz^j of -c (z-b)^(-a) is -(-1)^j a(a+1)...(a+j-1) c (z-b)^(-a-j)
            factors = [-((-1) ** j) * math.perm(a + j - 1, j) for j in range(n_max + 1)]
            out += np.outer(factors, cols[q + a]).ravel() * powers[(a - 1) * n : (a + n_max) * n]
        q += k + 1
    return shape_rows(out.reshape(n_max + 1, n), shape)


def eval_param_derivs(c: Covering0, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, ..., p^(3) at the points z, d/d theta of [p, p', p''] and of the top
    tails for each path theta of ``params`` (= ``deformation_params``).

    z is held fixed (it is the uniformizing coordinate).  Returns the rows,
    shape (4, len(z)), the partials, shape (P, 3, len(z)):
    d p/d a_r = z^r, d p/d c_{i,a} = -(z-b_i)^(-a), and
    d p/d b_i = -(pole part i)'(z), and ``_top_tail_derivs``, shape (P, S).
    """
    pts = np.asarray(z, dtype=complex)
    blocks = {
        f"poly_coeffs.{r}": [math.perm(r, n) * pts ** max(r - n, 0) for n in range(3)]
        for r in range(len(c.poly_coeffs))
    }
    for i, pole in enumerate(c.poles):
        w = pts - pole.b
        # d^n/dz^n of -(z-b)^(-a), n = 0..3
        tails = [
            [-((-1) ** n) * math.perm(a + n - 1, n) * w ** (-a - n) for n in range(4)]
            for a in range(1, pole.order + 1)
        ]
        for a, rows in enumerate(tails):
            blocks[f"poles.{i}.c.{a}"] = rows[:3]
        blocks[f"poles.{i}.b"] = [
            -sum(coeff * rows[n + 1] for coeff, rows in zip(pole.c, tails)) for n in range(3)
        ]
    paths = deformation_params(c)
    partials = np.array([blocks[path] for path in paths], dtype=complex)
    return eval_p_derivs(c, pts, 3), partials, _top_tail_derivs(c, paths)


def _top_tail_derivs(c, paths) -> np.ndarray:
    """d(top tail of pole s)/d theta over ``paths``, shape (P, S): 1 where theta is the tail."""
    tops = [f"poles.{i}.c.{p.order - 1}" for i, p in enumerate(c.poles)]
    return np.array([[float(path == top) for top in tops] for path in paths])


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of two stacks of polynomials, lowest degree first."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=complex)
    for r in range(a.shape[1]):
        out[:, r : r + b.shape[1]] += a[:, r : r + 1] * b
    return out


def p_prime_as_ratio(cs: Sequence[Covering0]) -> tuple[np.ndarray, np.ndarray]:
    """p' = f/g with g = prod (z - b_i)^(k_i + 1), built at coefficient level.

    f has degree M with leading coefficient k1; its roots are exactly the
    finite critical points.  ``cs`` are coverings of one profile; f and g are
    arrays with a row of coefficients per covering, lowest degree first.
    (z - b)^m is the row C(m, r) (-b)^(m-r).  M = 0 raises ``NoCriticalPointsError``.
    """
    if cs[0].dim < 1:
        raise NoCriticalPointsError(f"profile {cs[0].profile} has no critical points (M = 0)")
    k1, ks = cs[0].profile[0], cs[0].profile[1:]
    powers = []  # (z - b_i)^m of every covering for m = 0..k_i + 1
    for i, k in enumerate(ks):
        neg_b = np.vander([-cv.poles[i].b for cv in cs], k + 2, increasing=True)
        powers.append([[math.comb(m, r) for r in range(m + 1)] * neg_b[:, m::-1]
                       for m in range(k + 2)])
    factors = [rows[k + 1] for rows, k in zip(powers, ks)]
    g = functools.reduce(_times, factors, np.ones((len(cs), 1)))
    # the polynomial part's derivative k1 z^(k1-1) + 0 z^(k1-2) + sum_r r a_r z^(r-1)
    dpoly = [([r * a for r, a in enumerate(cv.poly_coeffs) if r] + [0, k1])[-k1:] for cv in cs]
    f = _times(np.array(dpoly, dtype=complex), g)
    for i, k in enumerate(ks):
        # sum_a a c_a (z - b)^(k - a) times the other poles' factors
        tail = np.zeros((len(cs), k), dtype=complex)
        for a in range(1, k + 1):
            tail[:, : k - a + 1] += [[a * cv.poles[i].c[a - 1]] for cv in cs] * powers[i][k - a]
        term = functools.reduce(_times, factors[:i] + factors[i + 1 :], tail)
        f[:, : term.shape[1]] += term
    return f, g


@dataclass(frozen=True)
class CriticalData:
    """Per-critical-point bundle driving every downstream formula, at both genera.

    ``sw`` is the Schwarzian of the uniformizing coordinate in the local parameter, ``sb`` its
    Bergmann part: sb = sw - 24*pi*i*eta_tilde*fsq at genus 1, sb = sw on the sphere.  ``flat``
    is ``flat_coords`` of the covering.  Route B's genus-0 data, None at genus 1 (no R(f, g)):
    ``log_pole_flat`` is log prod_{i!=j} (b_i-b_j)^((k_i+1)(k_j+1)) prod t_i^((k_i+1)(k_i-2)),
    its pole/flat denominator, on no fixed branch (it underflows where high-order poles nearly
    meet); ``resultant_ratio`` is R(f, g), taken over ``pts``, over its factorization, that
    denominator times prod t_i^(2(k_i+1)): the profile constant ``log_resultant_constant``;
    ``log_resultant_ff`` is log R(f, f') (f of p' = f/g, whose roots are ``pts``), the route-B
    numerator, from f's coefficients alone.
    """

    pts: tuple[complex, ...]
    lam: tuple[complex, ...]
    fsq: tuple[complex, ...]
    sw: tuple[complex, ...]
    sb: tuple[complex, ...]
    min_lambda_gap: float
    min_point_gap: float
    caustic: bool
    flat: FlatCoords0 | FlatCoords1
    resultant_ratio: complex | None = None
    log_resultant_ff: complex | None = None
    log_pole_flat: complex | None = None


def frame_data(d: np.ndarray) -> tuple[list[complex], np.ndarray, np.ndarray, float, bool]:
    """Critical values, f_m^2, Schwarzians, smallest value gap and caustic flag.

    ``d`` holds the rows p, p', ..., p^(4) at the critical points.  f_m^2 is
    2/p'' and the Schwarzian (2 beta^2 - 3 alpha gamma)/alpha^3 comes from the
    cubic Taylor data of p' there.  Critical values closer than
    CAUSTIC_REL_TOL (relative) set the caustic flag; the data is returned all
    the same, and only ``isomon.sweep_ratios`` turns the flag into an error.
    Rows that overflow double precision raise ``OverflowError``.
    """
    if not np.isfinite(d).all():
        raise OverflowError("p and its derivatives overflow at the critical points")
    al, be, ga = d[2], d[3] / 2.0, d[4] / 6.0
    lam = d[0].tolist()
    min_lgap = min((abs(a - b) for a, b in combinations(lam, 2)), default=math.inf)
    caustic = min_lgap < CAUSTIC_REL_TOL * (max(abs(v) for v in lam) + 1.0)
    return lam, 2.0 / al, (2.0 * be * be - 3.0 * al * ga) / (al * al * al), min_lgap, caustic


def _sort_points(pts: list[complex]) -> list[complex]:
    return sorted(pts, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def critical_data(c: Covering0) -> CriticalData:
    """Critical points (f's companion eigenvalues, sorted, and one Newton step), critical values,
    f_m^2 and Schwarzians; the error of the solve or of the data raises."""
    fs, _ = p_prime_as_ratio([c])
    return _raised(_critical_data_at([c], [_roots(fs[0])], fs))[0]


def critical_round(coverings: Sequence[Covering0], seeds) -> list:
    """Critical data of ``coverings`` (of one profile), covering k continuing ``seeds[k]`` by
    ``_seeded_points`` (point i from seed i), from one f/g build and one data pass.  A covering
    with a failed lane, or two points within 1e-10, solves f globally; the error of a covering
    whose solve or data fails stands in its place.  The one seeded entry of the model."""
    fs, _ = p_prime_as_ratio(coverings)
    zs = _seeded_points(eval_p_derivs, coverings, seeds)
    i, j = _pair_indices(zs.shape[1])
    kept = (np.abs(zs[:, i] - zs[:, j]) >= 1e-10).all(axis=1)  # False on a NaN lane
    found = [row.tolist() if ok else _roots(f) for f, row, ok in zip(fs, zs, kept)]
    return _critical_data_at(coverings, found, fs)


def _seeded_points(eval_p_derivs, coverings, seeds) -> np.ndarray:
    """One Newton lane run on p' in pole-tail form (a model's stacked ``eval_p_derivs``): lane m
    of covering k steps from seeds[k][m] by p'/p'' (capped at 0.2, at most 60 steps) to
    1e-14*(1 + |seed|).  Row k holds the points of covering k, NaN where a lane failed."""
    z0 = np.array(seeds, dtype=complex).ravel()
    starts = coverings[0].dim * np.arange(len(coverings) + 1)  # each covering's first lane

    def newton_step(z: np.ndarray, live: np.ndarray) -> np.ndarray:
        cut, lanes = np.searchsorted(live, starts), z[live]
        _, v, d = eval_p_derivs(coverings, [lanes[a:b] for a, b in zip(cut, cut[1:])], 2)
        return v / d

    zs, ok = _iterate_lanes(newton_step, z0, 1e-14 * (1.0 + np.abs(z0)), 0.2, 60)
    zs[~ok] = np.nan
    return zs.reshape(len(coverings), -1)


def _raised(cds: list) -> list:
    """``cds``, or the first error among them raised."""
    for cd in cds:
        if isinstance(cd, Exception):
            raise cd
    return cds


def _roots(row: np.ndarray) -> list[complex] | NonConvergenceError | OverflowError:
    """The roots of the f of row ``row`` (lowest degree first, leading coefficient k1): the
    eigenvalues of its companion matrix, sorted, or the error; f overflowing there is one."""
    if not np.isfinite(row).all():
        return NonConvergenceError("a coefficient is not finite")
    companion = np.eye(len(row) - 1, k=-1, dtype=complex)
    companion[:, -1] = -row[:-1] / row[-1]
    try:
        pts = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        return NonConvergenceError(f"companion eigensolve failed: {exc}")
    if not np.isfinite(np.vander(pts, len(row), increasing=True) @ row).all():
        return OverflowError("f overflows at its own roots")
    return _sort_points(pts.tolist())


def _critical_data_at(coverings: Sequence[Covering0], found, fs) -> list:
    """Data phase: critical data of each covering at the roots ``found`` of its f (its error
    where that is one), from one stacked R(f, f') of the f rows ``fs`` and one order-5 frame
    evaluation.  The frame rows give one Newton step on p' in pole-tail form and are moved
    with it; R(f, g) is taken over the polished points, in logarithms, over its factorization
    from ``log_pole_flat``.  A covering whose data fails holds its error, and one with two
    points within COINCIDENT_TOL holds ``CoincidentPointsError`` before any evaluation."""
    out: list = [pts if isinstance(pts, Exception) else None for pts in found]
    keep = [k for k, pts in enumerate(found) if out[k] is None]
    m = coverings[0].dim
    zs = np.array([found[k] for k in keep]).reshape(len(keep), m)
    lo, hi = _pair_indices(m)
    gaps = np.abs(zs[:, lo] - zs[:, hi]).min(axis=1, initial=math.inf)
    apart = gaps >= COINCIDENT_TOL
    for k in compress(keep, ~apart):
        out[k] = CoincidentPointsError("coincident critical points")
    keep, zs, gaps = list(compress(keep, apart)), zs[apart], gaps[apart]
    if not keep:
        return out
    kept = [coverings[k] for k in keep]
    rows = eval_p_derivs(kept, list(zs), 5)
    # one Newton step on p' in pole-tail form, the rows moved with it to first order (the
    # O(step^2) left is of the order of the polished points' own error); a covering keeps its
    # points unpolished where a step is not finite or reaches STEP_GAP_TOL of its smallest gap
    step = (rows[1] / rows[2]).reshape(zs.shape)
    ok = (np.abs(step) < STEP_GAP_TOL * gaps[:, None]).all(axis=1)  # False where not finite
    step = np.where(ok[:, None], step, 0.0)
    zs -= step
    rows = rows[:5] - rows[1:] * step.ravel()
    flats = [flat_coords(c) for c in kept]
    log_t = [[cmath.log(t) for t in fc.t] for fc in flats]
    log_pf = [_log_pole_flat(c, lt) for c, lt in zip(kept, log_t)]
    # log R(f, g) = deg g log k1 + sum_m sum_i (k_i+1) log(z_m - b_i), on any branch
    weights = np.array(kept[0].profile[1:]) + 1
    bs = np.array([[p.b for p in c.poles] for c in kept])
    log_fg = weights.sum() * math.log(kept[0].profile[0]) + (
        np.log(zs[:, :, None] - bs[:, None, :]) @ weights).sum(axis=1)
    log_ratio = log_fg - [lpf + 2.0 * sum((k + 1) * v for k, v in zip(c.profile[1:], lt))
                          for c, lpf, lt in zip(kept, log_pf, log_t)]
    ratios = np.exp(log_ratio).tolist()
    log_ff = _log_r_ff(fs[keep]).tolist()
    for j, (k, c, fc) in enumerate(zip(keep, kept, flats)):
        pts = zs[j].tolist()
        scale_b = 1.0 + max((abs(p.b) for p in c.poles), default=0.0)
        try:
            for a, b in ((a, p.b) for a in pts for p in c.poles):
                if abs(a - b) < ROOT_POLE_GUARD * scale_b:
                    raise CommonRootError(f"critical point {a} collides with pole {b}")
            lam, fsq, sb, min_lgap, caustic = frame_data(rows[:, j * m : (j + 1) * m])
        except (CommonRootError, OverflowError) as exc:
            out[k] = exc
            continue
        sb = tuple(sb.tolist())
        out[k] = CriticalData(
            pts=tuple(pts), lam=tuple(lam), fsq=tuple(fsq.tolist()), sw=sb, sb=sb,
            min_lambda_gap=min_lgap,
            min_point_gap=min((abs(a - b) for a, b in combinations(pts, 2)), default=math.inf),
            caustic=caustic, flat=fc, resultant_ratio=ratios[j],
            log_resultant_ff=log_ff[j], log_pole_flat=log_pf[j])
    return out


def _log_pole_flat(c: Covering0, log_t: list[complex]) -> complex:
    """``CriticalData.log_pole_flat`` of ``c`` from the logarithms of its t_i."""
    bs = [p.b for p in c.poles]
    log_d = [cmath.log(bi - bj) for i, bi in enumerate(bs) for j, bj in enumerate(bs) if i != j]
    return sum(route_b_denominator_terms(c.profile[1:], log_d, log_t), 0j)


def _log_r_ff(fs: np.ndarray) -> np.ndarray:
    """log R(f, f') of each row f of ``fs`` (coefficients, lowest degree first)."""
    return log_resultant(fs, fs[:, 1:] * np.arange(1, fs.shape[1]))


@dataclass(frozen=True)
class FlatCoords0:
    """Flat coordinates entering the closed forms: p_i = b_i, t_i = k_i c_top^(1/k_i)."""

    p: tuple[complex, ...]
    t: tuple[complex, ...]
    h: tuple[complex, ...]  # c_top^(1/k_i), principal branch


def flat_coords(c: Covering0) -> FlatCoords0:
    hs = tuple(principal_root(p.top, k) for k, p in zip(c.profile[1:], c.poles))
    ts = tuple(k * h for k, h in zip(c.profile[1:], hs))
    return FlatCoords0(p=tuple(p.b for p in c.poles), t=ts, h=hs)


@dataclass(frozen=True)
class TauProduct:
    """Route A: tau and G from the product of local frame and pole data.

    ``T`` is the log of the frame product, whose canonical gradient is the
    Schwarzian of the uniformizing map; ``g_from_jacobian`` is the
    cross-check log(tau / J^(1/24)) with J = prod f_m.
    """

    T: complex
    log_tau: complex
    log_tau_inv48: complex
    G: complex
    g_from_jacobian: complex

    @property
    def tau_inv48(self) -> complex:
        return cmath.exp(self.log_tau_inv48)


def route_a(ks, log_fsq, log_h, log_t, log_eta: complex = 0) -> TauProduct:
    """Route A from logarithms on any branch (of eta too at genus 1).

    log tau = -log eta + (1/24) [sum log f_m - sum (k_s+1) log h_s],
    log tau^-48 = 48 log eta + 2 sum (k_s+1) log h_s - sum log f_m^2 and
    G = -log eta - (1/24) sum (k_s+1) log t_s, over the poles s with orders
    ``ks``.  The 48th inverse power is assembled from branch-free squares.

    ``g_from_jacobian`` = log(tau / J^(1/24)), J = prod f_m, is G + (1/24) sum (k_s+1)
    log(t_s / h_s), a profile constant: log(t_s / h_s) = log k_s at genus 0, 0 at genus 1.

    Route A is linear in its logarithms, so rows of their derivatives give the
    derivatives of T, log tau^-48 and G (``isomon.exact_parameter_derivatives``);
    ``log_eta`` then carries the length of the rows, even where there are no poles.
    """
    log_f = sum(0.5 * v for v in log_fsq)
    log_hk = sum((k + 1) * lh for k, lh in zip(ks, log_h))
    T = log_f - log_hk
    log_tau = -log_eta + T / 24.0
    return TauProduct(
        T=T,
        log_tau=log_tau,
        log_tau_inv48=48.0 * log_eta + 2.0 * log_hk - sum(log_fsq),
        G=-log_eta - sum((k + 1) * lt for k, lt in zip(ks, log_t)) / 24.0,
        g_from_jacobian=log_tau - log_f / 24.0,
    )


def principal_route_a(c, fsq, fc, log_eta: complex = 0) -> TauProduct:
    """``route_a`` on the principal branches of f_m^2 and of the flat data ``fc``.

    A tau^-48 beyond double precision raises ``OverflowError`` here.
    """
    tau = route_a(
        [p.order for p in c.poles],
        [cmath.log(v) for v in fsq],
        [cmath.log(h) for h in fc.h],
        [cmath.log(t) for t in fc.t],
        log_eta,
    )
    tau.tau_inv48  # evaluated for its OverflowError
    return tau


def tau_product(c: Covering0, cd: CriticalData) -> TauProduct:
    """Route A: log tau = (1/24) [sum log f_m - sum (k_s+1) log h_s], principal branches."""
    return principal_route_a(c, cd.fsq, cd.flat)


def route_b_denominator_terms(ks, log_d, log_t) -> list[complex]:
    """The terms of route B's log pole/flat denominator over the poles with orders ``ks``:
    (k_i+1)(k_j+1) log D(b_i - b_j), then (k_i+1)(k_i-2) log t_i.

    ``log_d`` runs over the ordered pairs i != j, row by row; D is the plain
    difference at genus 0 and sigma_w at genus 1.
    """
    weights = [(ki + 1) * (kj + 1) for i, ki in enumerate(ks) for j, kj in enumerate(ks) if i != j]
    return ([w * ld for w, ld in zip(weights, log_d)]
            + [(k + 1) * (k - 2) * lt for k, lt in zip(ks, log_t)])


@dataclass(frozen=True)
class TauResultant:
    """Route B: tau^(-48) as a ratio of closed-form products, kept as its logarithm."""

    log_tau_inv48: complex

    @property
    def tau_inv48(self) -> complex:
        return cmath.exp(self.log_tau_inv48)


def tau_resultant(coverings: Sequence[Covering0],
                  cds: Sequence[CriticalData]) -> list[TauResultant]:
    """Route B of each covering from its critical data, in logarithms:
    tau^(-48) = R(f, f') / [prod (b_i-b_j)^((k_i+1)(k_j+1)) prod t_i^((k_i+1)(k_i-2))].

    Uses no root of f, only its coefficients: both logarithms,
    ``log_resultant_ff`` and ``log_pole_flat``, come with the critical data.
    Vanishes exactly on the caustic R(f, f') = 0.
    """
    return [TauResultant(cd.log_resultant_ff - cd.log_pole_flat) for cd in cds]


def gamma(c: Covering0) -> complex:
    """Scaling anomaly of G: gamma = -(1/24) (l - 2 + sum 1/k_i + M/k1)."""
    return complex(-(c.n_poles - 2 + sum(1.0 / k for k in c.profile) + c.dim / c.profile[0]) / 24.0)


def log_resultant_constant(c: Covering0) -> complex:
    """log of R(f, g) over its factorization, s prod k_i^(1-k_i^2), s = (-1)^(M D), D = deg g.

    Over the roots z_m of f (degree M, leading coefficient k1), prod_m (z_m - b_i) =
    (-1)^M f(b_i)/k1 and f(b_i) = k_i c_top,i prod_{j!=i} (b_i-b_j)^(k_j+1), so R(f, g) =
    k1^D prod_m g(z_m) = s prod (k_i c_top,i)^(k_i+1) prod_{i!=j} (b_i-b_j)^((k_i+1)(k_j+1));
    the factorization's t_i^(k_i(k_i+1)) = (k_i^k_i c_top,i)^(k_i+1) leaves the constant.
    """
    ks = c.profile[1:]
    odd = c.dim * sum(k + 1 for k in ks) % 2
    return sum((1 - k * k) * math.log(k) for k in ks) + 1j * math.pi * odd


def log_route_constant(c: Covering0) -> complex:
    """log of tau^-48 by route A over route B, s 2^-M k1^(2-k1) prod k_i^((k_i+1)(k_i-3)).

    f'(z_m) = p''(z_m) g(z_m) = 2 g(z_m)/f_m^2, so R(f, f') = 2^M k1^(M-1-D) R(f, g)/prod f_m^2;
    with t_i = k_i h_i the ratio is ``log_resultant_constant`` times
    2^-M k1^(D+1-M) prod k_i^(2(k_i+1)(k_i-2)), and D + 1 - M = 2 - k1.
    """
    k1, ks = c.profile[0], c.profile[1:]
    return (log_resultant_constant(c) - c.dim * math.log(2) + (2 - k1) * math.log(k1)
            + sum(2 * (k + 1) * (k - 2) * math.log(k) for k in ks))


# --------------------------------------------------------------------------
# parameter addressing (shared by the deformation engine and the CLI)


def params(c: Covering0) -> dict[str, complex]:
    """Every free complex parameter by dot path, in ``deformation_params`` order.

    That is the order of the covering's fields, in which ``set_param`` reads
    the table back.
    """
    table = {f"poly_coeffs.{r}": a for r, a in enumerate(c.poly_coeffs)}
    for i, pole in enumerate(c.poles):
        table[f"poles.{i}.b"] = pole.b
        for a, v in enumerate(pole.c):
            table[f"poles.{i}.c.{a}"] = v
    return table


def set_param(c: Covering0, path: str, value: complex) -> Covering0:
    """``c`` rebuilt from its ``params`` table with ``path`` set to ``value``.

    A path that is not in the table raises ``KeyError``.
    """
    table = params(c)
    if path not in table:
        raise KeyError(f"unknown parameter path {path!r}")
    table[path] = value
    values = iter(table.values())
    coeffs = tuple(islice(values, len(c.poly_coeffs)))
    poles = tuple(Pole(next(values), tuple(islice(values, p.order))) for p in c.poles)
    return reject_near_s2(Covering0(c.profile, coeffs, poles))


def deformation_params(c: Covering0) -> list[str]:
    """Paths of the M independent complex coordinates of the moduli space."""
    return list(params(c))
