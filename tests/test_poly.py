import cmath

import mpmath
import numpy as np
import pytest

import oracles
from hurwitztau.cover0 import p_prime_as_ratio
from hurwitztau.errors import NonConvergenceError
from hurwitztau.poly import CPoly, all_roots, log_resultant, resultant
from hurwitztau.samples import random_covering0


def _row(roots, leading=1.0) -> np.ndarray:
    """Coefficients of leading * prod (z - root), lowest degree first."""
    return leading * np.poly(roots)[::-1].astype(complex)


def _res(f, g) -> complex:
    """``resultant`` of one row pair."""
    return resultant([f], [g])[0]


def _log_res(f, g) -> complex:
    """``log_resultant`` of one row pair."""
    return log_resultant([f], [g])[0]


def _close_sets(got, want, tol):
    got = sorted(got, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    want = sorted(want, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    return max(abs(a - b) for a, b in zip(got, want)) < tol


class TestEvalDerivatives:
    def test_square(self):
        assert CPoly((0, 0, 1)).eval_derivatives(3.0, 2) == [9, 6, 2]

    def test_cubic(self):
        assert CPoly((0, -3, 0, 1)).eval_derivatives(1.0, 2) == [-2, 0, 6]

    def test_fd_oracle_degree10(self):
        rng = np.random.default_rng(0)
        p = CPoly(tuple(rng.normal(size=11) + 1j * rng.normal(size=11)))
        for _ in range(5):
            z = complex(rng.normal(), rng.normal())
            exact = p.eval_derivatives(z, 1)[1]
            fd = oracles.central_diff(p, z, 1e-6)
            assert abs(fd - exact) / abs(exact) < 1e-7

    def test_order_zero_and_negative(self):
        assert CPoly((2, 1)).eval_derivatives(5.0, 0) == [7]
        with pytest.raises(ValueError):
            CPoly((2, 1)).eval_derivatives(5.0, -1)


class TestRoots:
    def test_quadratic_units(self):
        rs = all_roots(CPoly((1, 0, 1)))
        assert _close_sets(rs.roots, [1j, -1j], 1e-12)
        assert rs.residual < 1e-12

    def test_cubic_derivative(self):
        rs = all_roots(CPoly((-3, 0, 3)))
        assert _close_sets(rs.roots, [1.0, -1.0], 1e-12)

    def test_construct_then_solve(self):
        rng = np.random.default_rng(7)
        while True:
            roots = rng.normal(size=8) + 1j * rng.normal(size=8)
            if min(
                abs(roots[i] - roots[j])
                for i in range(8)
                for j in range(i + 1, 8)
            ) > 0.1:
                break
        p = CPoly(tuple(_row(roots, 1.3 - 0.4j)))
        rs = all_roots(p)
        assert len(rs.roots) == 8
        assert _close_sets(rs.roots, list(roots), 1e-10)

    def test_cardinality_matches_degree(self):
        rng = np.random.default_rng(3)
        for deg in (1, 2, 5, 9):
            p = CPoly(tuple(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
            assert len(all_roots(p).roots) == deg

    def test_roundtrip_degree12(self):
        rng = np.random.default_rng(11)
        while True:
            roots = 1.5 * (rng.normal(size=12) + 1j * rng.normal(size=12))
            if min(
                abs(roots[i] - roots[j])
                for i in range(12)
                for j in range(i + 1, 12)
            ) > 0.25:
                break
        lead = 0.7 + 0.2j
        p = CPoly(tuple(_row(roots, lead)))
        rs = all_roots(p)
        back = _row(rs.roots, lead)
        for a, b in zip(back, p.coeffs):
            assert abs(a - b) <= 1e-9 * max(abs(v) for v in p.coeffs)

    def test_double_root_cluster_reported_as_is(self):
        rs = all_roots(CPoly((0, 0, 3.0)))  # 3 z^2
        assert len(rs.roots) == 2
        assert max(abs(r) for r in rs.roots) < 1e-6

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(CPoly((1.0,)))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("nan"))])
    def test_non_finite_coefficient_raises_on_entry(self, bad):
        # a NaN residual never fails the stall test, so without the entry check the
        # iteration ran every sweep and returned NaN roots
        with pytest.raises(NonConvergenceError, match="not finite"):
            all_roots(CPoly((bad, 0.3 + 0.1j, -0.2j, 0.5, 1, 0, 1)))

    @pytest.mark.parametrize("profile", [(3,), (4,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3),
                                         (2, 3), (4, 2), (3, 1, 1)])
    def test_converged_roots_are_at_round_off(self, profile):
        # the genus-0 profiles of the benchmark pool: where Aberth stops, |f| already
        # sits below 1e-13 max|coeff| (the round's continued points are held to the same
        # bound in test_exact_derivatives.py)
        for seed in range(20):
            f = CPoly(tuple(p_prime_as_ratio([random_covering0(profile, seed)])[0][0]))
            assert all_roots(f).residual < 1e-13 * max(map(abs, f.coeffs))


class TestResultant:
    def test_linear_pair(self):
        a, b = 1.3 + 0.2j, -0.7 + 1.1j
        r = _res([-a, 1], [-b, 1])
        assert abs(r - (a - b)) < 1e-14

    def test_biquadratic(self):
        r = _res([-1, 0, 1], [-4, 0, 1])
        assert abs(r - 9) < 1e-12

    def test_constant_second_polynomial(self):
        # R(f, c) = c^deg(f): g of degree 0, as g = 1 without poles or a
        # constant f' for a linear f
        assert abs(_res([1, 2, 3], [2.0]) - 4.0) < 1e-14
        assert abs(_res([1 + 1j, 2], [2.0]) - 2.0) < 1e-14
        assert abs(cmath.exp(_log_res([0.5, -1j, 3], [1.5j])) - (1.5j) ** 2) < 1e-14

    def test_product_over_roots_oracle(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = rng.normal(size=8) + 1j * rng.normal(size=8)
        r = _res(f, g)
        oracle = oracles.product_resultant(f, g)
        assert abs(r - oracle) / abs(r) < 1e-9

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = rng.normal(size=5) + 1j * rng.normal(size=5)
            g = rng.normal(size=7) + 1j * rng.normal(size=7)
            r1 = _res(f, g)
            r2 = _res(g, f) * (-1) ** ((len(f) - 1) * (len(g) - 1))
            assert abs(r1 - r2) / abs(r1) < 1e-10

    def test_zero_iff_common_root(self):
        shared = 0.4 - 0.9j
        f = _row([shared, 1.0, -2.0 + 1j])
        g = _row([shared, 0.5j])
        scale = abs(oracles.product_resultant(f, _row([1.1, 0.5j])))
        assert abs(_res(f, g)) < 1e-12 * max(1.0, scale)
        # and conversely: separated roots give a resultant bounded away from 0
        f2 = _row([1.0, -2.0 + 1j])
        g2 = _row([0.3 + 0.4j, -1.5])
        r = _res(f2, g2)
        rf = all_roots(CPoly(tuple(f2))).roots
        rg = all_roots(CPoly(tuple(g2))).roots
        min_gap = min(abs(a - b) for a in rf for b in rg)
        assert abs(r) > 1e-6
        assert min_gap > 1e-3

    def test_log_resultant_matches(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert abs(cmath.exp(_log_res(f, g)) - _res(f, g)) < 1e-12 * abs(_res(f, g))

    def test_stacked_rows_are_the_one_row_calls(self):
        rng = np.random.default_rng(12)
        fs = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        gs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        for fn in (resultant, log_resultant):
            assert fn(fs, gs).tolist() == [fn([f], [g])[0] for f, g in zip(fs, gs)]

    def test_roots_off_the_origin_keep_their_digits(self):
        # degree 12 against a quintic-squared g whose roots sit near 1.5 + 1i:
        # a translation leaves R unchanged, and the centred Sylvester matrix
        # keeps about 11 digits where the uncentred one kept about 5
        fs, gs = p_prime_as_ratio([random_covering0((3, 4, 4), 7297)])
        f, g = fs[0], gs[0]
        for a, b in ((f, g), (f, f[1:] * np.arange(1, len(f)))):
            n, m = len(a) - 1, len(b) - 1
            rows = [[0] * r + a[::-1].tolist() + [0] * (m - 1 - r) for r in range(m)]
            rows += [[0] * r + b[::-1].tolist() + [0] * (n - 1 - r) for r in range(n)]
            with mpmath.workdps(50):
                want = complex(mpmath.det(mpmath.matrix(rows)))
            assert abs(_res(a, b) / want - 1.0) < 1e-9
            assert abs(cmath.exp(_log_res(a, b)) / want - 1.0) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        f = _row(rng.normal(size=6) + 1j * rng.normal(size=6))
        g = _row(rng.normal(size=4) + 1j * rng.normal(size=4))
        shift = 2.0 - 1.5j
        fs = _row([r + shift for r in all_roots(CPoly(tuple(f))).roots])
        gs = _row([r + shift for r in all_roots(CPoly(tuple(g))).roots])
        assert abs(_res(fs, gs) / _res(f, g) - 1.0) < 1e-10
