"""The fused genus-1 covering evaluation against the pole-by-pole sum.

``cover1.eval_p_derivs`` reduces the differences z - b_i of all poles
together and makes one theta evaluation.  Its values must equal, bit for
bit, those of one guard and one ``zeta_derivs`` call per pole
(``oracles.per_pole_p_derivs``), and its guard must name the same point and
pole.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hurwitztau.cover0 import Pole
from hurwitztau.cover1 import Covering1, eval_p_derivs
from hurwitztau.elliptic import POLE_GUARD, Modulus
from hurwitztau.errors import NearPoleError
from hurwitztau.samples import random_covering1

# every genus-1 profile of the benchmark pool, plus an order-4 pole
PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (4, 1)]
SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@lru_cache(maxsize=None)
def _covering(profile) -> Covering1:
    if profile == (4, 1):
        return Covering1(Modulus(0.12 + 1.05j), 0.3 - 0.1j, (
            Pole(0.31 + 0.22j, (0.4 - 0.2j, 0.1j, -0.3 + 0.1j, 0.8 + 0.05j)),
            Pole(0.62 + 0.74j, (-0.4 + 0.2j,)),
        ))
    return random_covering1(profile, 21)


def _outcome(fn, cov, z, n_max):
    """The value bits of fn(cov, z, n_max), or the NearPoleError message."""
    try:
        return np.asarray(fn(cov, z, n_max)).tobytes()
    except NearPoleError as exc:
        return f"NearPoleError: {exc}"


def _assert_same(cov, z, n_max):
    want = _outcome(oracles.per_pole_p_derivs, cov, z, n_max)
    assert _outcome(eval_p_derivs, cov, z, n_max) == want


cell_points = st.lists(
    st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)), min_size=1, max_size=12
)


class TestEqualsPerPoleSum:
    @SETTINGS
    @given(st.sampled_from(PROFILES), cell_points, st.integers(0, 4))
    def test_sampled_points(self, profile, uv, n_max):
        cov = _covering(profile)
        sigma = cov.modulus.sigma
        zs = np.array([u + v * sigma for u, v in uv])
        _assert_same(cov, zs, n_max)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_cell_edges_half_periods_and_translates(self, profile):
        cov = _covering(profile)
        sigma = cov.modulus.sigma
        edge = [-0.5, 0.5, -0.25, 0.0, 0.25]
        offsets = [u + v * sigma for u in edge for v in (-0.5, 0.5)]
        offsets += [u * sigma + v for u in edge for v in (-0.5, 0.5)]
        offsets += list(oracles.half_periods(sigma))
        centres = [0.0] + [p.b for p in cov.poles]
        base = np.array([c + o for c in centres for o in offsets])
        shifts = np.array([0.0, 1.0, -1.0, sigma, -sigma])
        zs = (base[:, None] + shifts[None, :]).ravel()
        for n_max in range(5):
            _assert_same(cov, zs, n_max)
            for z in zs[::7]:
                _assert_same(cov, complex(z), n_max)


class TestScalarAndGuard:
    @pytest.mark.parametrize("profile", [(2, 1), (4, 1)])
    def test_scalar_equals_batch_entry(self, profile):
        cov = _covering(profile)
        sigma = cov.modulus.sigma
        zs = np.array([0.13 + 0.71j, 1.4 - 0.2j, 0.5 + 0.5 * sigma, -0.5 - 2.0 * sigma])
        batch = eval_p_derivs(cov, zs, 4)
        for k, z in enumerate(zs):
            assert eval_p_derivs(cov, complex(z), 4) == batch[:, k].tolist()

    def test_error_names_the_reference_point_and_pole(self):
        cov = _covering((1, 1, 1))
        sigma = cov.modulus.sigma
        b0, b1 = cov.poles[0].b, cov.poles[1].b
        # point 2 is near pole 1 and point 4 near pole 0: pole 0 is reported
        zs = np.array([0.3 + 0.2j, 0.7 + 0.1j, b1 - sigma + 1e-12, 0.5j, b0 + 1 + 1e-12])
        with pytest.raises(NearPoleError) as got:
            eval_p_derivs(cov, zs, 2)
        with pytest.raises(NearPoleError) as want:
            oracles.per_pole_p_derivs(cov, zs, 2)
        assert str(got.value) == str(want.value)
        assert str(b0) in str(got.value) and str(complex(zs[4])) in str(got.value)

    def test_point_within_the_guard_of_the_second_pole_raises(self):
        cov = _covering((2, 1))
        sigma = cov.modulus.sigma
        b = cov.poles[1].b
        z = b + 2.0 - sigma + 0.5 * POLE_GUARD
        for zs, n_max in ((np.array([0.41 + 0.37j, z]), 0), (z, 3)):
            with pytest.raises(NearPoleError) as exc:
                eval_p_derivs(cov, zs, n_max)
            assert str(exc.value).endswith(f"the pole at {b}")
