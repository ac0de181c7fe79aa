"""The two genus modules are one model: same names, same signatures.

``isomon`` and ``cli`` pick the module with ``(cover0, cover1)[cov.genus]``
and call these names without knowing the genus, so each must exist in both
modules with the same parameters.  The genus-0 covering evaluation takes
arrays of points, and is checked against a per-point reference.
"""

import cmath
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurwitztau
import oracles
from hurwitztau import cover0, cover1, elliptic, errors, isomon, poly
from hurwitztau.samples import random_covering0, random_covering1

MODEL_NAMES = [
    "critical_data",
    "critical_round",
    "reject_ill_conditioned",
    "flat_coords",
    "eval_p_derivs",
    "eval_param_derivs",
    "params",
    "deformation_params",
    "set_param",
    "tau_product",
    "tau_resultant",
    "gamma",
    "log_route_constant",
]
# the genus-0 and genus-1 profiles of the benchmark pool
POOL_PROFILES = [(3,), (4,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3), (2, 3), (4, 2), (3, 1, 1)]
GENUS1_PROFILES = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_both_genera_define_the_name_alike(name):
    sig0 = inspect.signature(getattr(cover0, name))
    sig1 = inspect.signature(getattr(cover1, name))
    assert list(sig0.parameters) == list(sig1.parameters)
    assert [p.default for p in sig0.parameters.values()] == [
        p.default for p in sig1.parameters.values()]


@pytest.mark.parametrize("model", [cover0, cover1], ids=lambda m: m.__name__)
def test_critical_data_takes_the_covering_alone(model):
    # the global solve; critical_round is the one seeded entry of each model
    assert list(inspect.signature(model.critical_data).parameters) == ["c"]


@pytest.mark.parametrize("genus", [0, 1])
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_set_param_to_its_own_value_keeps_the_table(genus, data):
    profile = data.draw(st.sampled_from((POOL_PROFILES, GENUS1_PROFILES)[genus]))
    cov = (random_covering0, random_covering1)[genus](profile, data.draw(st.integers(0, 10_000)))
    model = (cover0, cover1)[genus]
    table = model.params(cov)
    for path, value in table.items():
        assert model.params(model.set_param(cov, path, value)) == table, path


@pytest.mark.parametrize("module", [hurwitztau, cover0, cover1, isomon, elliptic, poly],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_error_type_is_exported():
    types = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, (errors.HurwitzError, Warning))]
    assert types and all(name in hurwitztau.__all__ for name in types)
    assert hurwitztau.CoincidentPointsError is errors.CoincidentPointsError


def _route_ratio(cov) -> complex:
    an = isomon.analyze(cov)
    (tb,) = (cover0, cover1)[cov.genus].tau_resultant([cov], [an.critical])
    return isomon.route_ratio(an.tau, tb)


class TestProfileConstants:
    """tau^-48 by route A over route B, and R(f, g) over its pole/flat factorization, are
    the closed-form constants ``log_route_constant`` and ``cover0.log_resultant_constant``."""

    # (profile, route A / route B, R(f, g) / factorization) evaluated by hand; the sign
    # (-1)^(M sum (k_i + 1)) is -1 in each
    @pytest.mark.parametrize("profile, route, factorization", [
        ((1, 2), -1 / 64, -1 / 8), ((3, 2), -1 / 768, -1 / 8), ((1, 4), -32.0, -(4.0 ** -15)),
        ((3, 3, 2), -1 / 12288, -1 / (3**8 * 8))])
    def test_genus0_negative_signs(self, profile, route, factorization):
        cov = random_covering0(profile, 1)
        assert abs(cmath.exp(cover0.log_route_constant(cov)) / route - 1.0) < 1e-14
        assert abs(cmath.exp(cover0.log_resultant_constant(cov)) / factorization - 1.0) < 1e-14
        assert abs(_route_ratio(cov) / route - 1.0) < 1e-9
        assert abs(cover0.critical_data(cov).resultant_ratio / factorization - 1.0) < 1e-9

    @pytest.mark.parametrize("profile, route", [((4,), 2.0 ** -15), ((4, 1), 2.0 ** -17)])
    def test_genus1_order_four_pole(self, profile, route):
        cov = random_covering1(profile, 1)
        assert abs(cmath.exp(cover1.log_route_constant(cov)) / route - 1.0) < 1e-14
        assert abs(_route_ratio(cov) / route - 1.0) < 1e-9

    @pytest.mark.parametrize("genus", [0, 1])
    def test_every_pool_profile(self, genus):
        # the first pool spec of each profile, and the magnitude of R(f, g)'s
        # constant against the reference of tests/oracles.py
        model = (cover0, cover1)[genus]
        for i, profile in enumerate((POOL_PROFILES, GENUS1_PROFILES)[genus]):
            cov = (random_covering0, random_covering1)[genus](profile, 920_000 - 10_000 * genus
                                                                + 1000 * i)
            const = cmath.exp(model.log_route_constant(cov))
            assert abs(_route_ratio(cov) / const - 1.0) < 1e-9, profile
            if genus == 0:
                const = cmath.exp(cover0.log_resultant_constant(cov))
                assert abs(abs(const) / oracles.profile_constant(cov) - 1.0) < 1e-14, profile
                assert abs(cover0.critical_data(cov).resultant_ratio / const - 1.0) < 1e-9, profile


_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_points = st.lists(st.builds(complex, _coord, _coord), min_size=8, max_size=8, unique=True)


class TestGenus0Evaluation:
    @pytest.mark.parametrize("profile", POOL_PROFILES)
    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(points=_points, seed=st.integers(0, 50))
    def test_array_matches_per_point_reference(self, profile, points, seed):
        cov = random_covering0(profile, seed)
        zs = np.array(points)
        if cov.poles:  # stay off the poles, where every row is unbounded
            zs = zs[np.min(np.abs(zs[:, None] - np.array([p.b for p in cov.poles])), axis=1) > 0.05]
        got = cover0.eval_p_derivs(cov, zs, 4)
        want = np.array([oracles.per_point_p_derivs0(cov, z, 4) for z in zs]).T
        assert got.shape == want.shape == (5, len(zs))
        scale = np.max(np.abs(want), axis=1, initial=0.0)
        err = np.max(np.abs(got - want), axis=1, initial=0.0)
        assert np.all(err <= 1e-15 * scale), err / scale

    @pytest.mark.parametrize("profile", [(3,), (2, 1), (1, 2, 1), (3, 1, 1)])
    def test_scalar_equals_its_batch_entry(self, profile):
        cov = random_covering0(profile, 3)
        zs = np.array([0.3 + 0.7j, -1.1 + 0.2j, 2.0 - 1.0j, 0.05 - 0.4j])
        for n_max in (0, 1, 4):
            batch = cover0.eval_p_derivs(cov, zs, n_max)
            for k, z in enumerate(zs):
                assert cover0.eval_p_derivs(cov, complex(z), n_max) == batch[:, k].tolist()

    def test_array_shape_is_kept(self):
        cov = random_covering0((3, 2), 3)
        zs = np.array([[0.3 + 0.7j, -1.1 + 0.2j], [2.0 - 1.0j, 0.05 - 0.4j]])
        assert cover0.eval_p_derivs(cov, zs, 2).shape == (3, 2, 2)
