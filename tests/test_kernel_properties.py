"""Property tests of the genus-1 kernel: the theta pass, the guards and the lattice distance.

Each compares the package with a plain reference in ``oracles``: the fused
``_theta1_raw`` with its per-order loop, bit for bit; the lattice and pole
guards, which read |z0| of the reduced point, with the 9-neighbour rule they
read before; and ``lattice_distance`` with a brute-force nearest lattice
point.  The moduli span the CLI fuzz domain, Im sigma in [0.11, 8] and
Re sigma in [-1/2, 1/2], thin and skewed cells included.  The examples are
derandomized; ``pytest --hypothesis-profile=fuzz`` runs 1000 of each.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hurwitztau.elliptic import (
    LATTICE_GUARD,
    POLE_GUARD,
    THETA_TABLE_ORDER,
    Modulus,
    _pole_zeta_rows,
    _reduce_and_guard,
    _split_lattice,
    _theta1_raw,
    lattice_distance,
    weierstrass_context,
)
from hurwitztau.errors import LatticePointError, NearPoleError

PROPERTY = settings(deadline=None, database=None, derandomize=True,
                    max_examples=(settings().max_examples
                                  if settings.get_current_profile_name() == "fuzz" else 60))
sigmas = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.11, 8.0))


def _cell_points(sigma: complex, n: int, seed: int) -> np.ndarray:
    """n points of the centred cell, cell coordinates in [-1/2, 1/2], two of them on its edges."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-0.5, 0.5, (2, n))
    u[:1], v[1:2] = 0.5, -0.5
    return u + v * sigma


@PROPERTY
@given(sigma=sigmas, n_max=st.integers(0, 9), size=st.integers(1, 300), seed=st.integers(0, 2**32))
@example(sigma=0.11j, n_max=9, size=300, seed=0)  # the longest series of the domain
@example(sigma=0.5 + 8j, n_max=THETA_TABLE_ORDER + 1, size=1, seed=1)
def test_fused_theta_pass_equals_the_per_order_loop(sigma, n_max, size, seed):
    mod = Modulus(sigma)
    z0 = _cell_points(sigma, size, seed)
    got = _theta1_raw(mod, z0, n_max)
    want = oracles.theta1_raw_per_order(mod, z0, n_max)
    assert got.shape == want.shape == (n_max + 1, size)
    assert got.tobytes() == want.tobytes()
    j = seed % size
    assert _theta1_raw(mod, z0[j:j + 1], n_max)[:, 0].tobytes() == got[:, j].tobytes()


def _near_lattice_points(sigma: complex, guard: float, data) -> np.ndarray:
    """Points at distance about ``guard`` (a factor in [0.5, 1.5], or exactly 1) from random
    lattice points, and points at cell coordinates +-1/2 off the lattice."""
    pts = []
    for _ in range(data.draw(st.integers(1, 6))):
        m, n = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
        factor = data.draw(st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
        phase = data.draw(st.floats(0.0, 2.0 * np.pi))
        pts.append(m + n * sigma + factor * guard * np.exp(1j * phase))
    for u, v in ((0.5, 0.0), (-0.5, 0.5), (0.5, -0.5), (0.0, -0.5)):
        pts.append(u + v * sigma + data.draw(st.integers(-3, 3)))
    return np.array(pts)


@PROPERTY
@given(sigma=sigmas, data=st.data())
def test_guards_fire_where_the_nine_point_rule_fired(sigma, data):
    """|z0| of a reduced point within a guard g of the lattice is its distance to the lattice
    whenever g (1 + |sigma|) < min(1, Im sigma)/2, which both guards meet on this domain
    (g = LATTICE_GUARD, and g = POLE_GUARD (1 + |sigma|) <= 1e-8 (1 + 8.02)).  So each guard
    fires on exactly the points the 9-neighbour rule flagged, and the pole guard's message
    states the same distance."""
    ctx = weierstrass_context(Modulus(sigma))
    pole_guard = POLE_GUARD * (1.0 + abs(sigma))
    for guard in (LATTICE_GUARD, pole_guard):
        pts = _near_lattice_points(sigma, guard, data)
        nine = oracles.nine_point_distance(_split_lattice(pts, sigma)[2], sigma)
        near = np.flatnonzero(nine <= LATTICE_GUARD)
        if near.size:
            message = re.escape(f"z = {complex(pts[near[0]])} is within")
            with pytest.raises(LatticePointError, match=message):
                _reduce_and_guard(ctx, pts)
        else:
            _reduce_and_guard(ctx, pts)
        near = np.flatnonzero(nine <= pole_guard)
        if near.size:
            with pytest.raises(NearPoleError) as info:
                _pole_zeta_rows(ctx, pts, np.zeros((1, 1), dtype=complex), 1, 1)
            assert f"z = {complex(pts[near[0]])} lies {nine[near[0]]:.1e} modulo" in str(info.value)
        else:
            _pole_zeta_rows(ctx, pts, np.zeros((1, 1), dtype=complex), 1, 1)


@PROPERTY
@given(sigma=sigmas, seed=st.integers(0, 2**32))
@example(sigma=-0.18 + 0.105j, seed=0)
def test_lattice_distance_is_the_brute_force_distance(sigma, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    z = np.concatenate([z, _cell_points(sigma, 4, seed)])
    got = lattice_distance(z, sigma)
    assert got.tobytes() == oracles.brute_lattice_distance(z, sigma).tobytes()
    assert lattice_distance(complex(z[0]), sigma) == got[0]


def test_a_thin_cell_needs_more_than_nine_points():
    # the 9-neighbour stencil overstated this distance by 1.52x
    sigma, z = -0.18 + 0.105j, np.array([0.265 + 0.785j])
    nine = oracles.nine_point_distance(_split_lattice(z, sigma)[2], sigma)
    brute = oracles.brute_lattice_distance(z, sigma)
    assert nine[0] > 1.5 * brute[0]
    assert lattice_distance(z, sigma)[0] == brute[0]
