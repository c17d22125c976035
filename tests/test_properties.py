"""Property tests of the closedness verdict (hypothesis, derandomized).

Every property runs on a table of point samplers that covers closed
orbits, a non-closed orbit and the nullcone; hypothesis draws the seeds.
``derandomize=True`` keeps the examples the same on every run, and a
flow takes about ten steps, so a few examples per case stay fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitlab as ol
from orbitlab import kempfness, subalgebra
from orbitlab.experiments import get_scenario

from helpers import scale

SETTINGS = settings(derandomize=True, max_examples=6, deadline=None,
                    database=None)


def _example1_translate(seed):
    # a random ambient translate of v0: a closed block SL(2) orbit
    sc = get_scenario("example1")
    g = ol.random_group_element(sc.group, seed, 0.5)
    return sc.representation, sc.subgroup, ol.act(sc.representation, g,
                                                   sc.base_point)


def _example1_special(seed):
    # a point of the block orbit of the special translate x: not closed
    sc = get_scenario("example1")
    x = ol.act(sc.representation, sc.fixed_element, sc.base_point)
    h = ol.random_group_element(sc.subgroup, seed, 0.5)
    return sc.representation, sc.subgroup, ol.act(sc.representation, h, x)


def _sym2_rank_one(seed):
    # a symmetric a a^t has det 0: its SL(2) orbit closure holds zero
    sl2 = ol.special_linear(2, "complex")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return ol.sym2(sl2), sl2, np.outer(a, a)


def _sym2_sum(seed):
    sc = get_scenario("sym2-sum")
    rng = np.random.default_rng(seed)
    return (sc.representation, sc.subgroup,
            ol.random_vector(sc.representation, rng, 0.5))


def _normal_factor(seed):
    sc = get_scenario("normal-factor")
    g = ol.random_group_element(sc.group, seed, 0.5)
    return sc.representation, sc.subgroup, ol.act(sc.representation, g,
                                                  sc.base_point)


# (point sampler, expected verdict); every property runs on every case
CASES = [
    (_example1_translate, kempfness.CLOSED),
    (_example1_special, kempfness.NON_CLOSED),
    (_sym2_rank_one, kempfness.NON_CLOSED),
    (_sym2_sum, kempfness.CLOSED),
    (_normal_factor, kempfness.CLOSED),
]
each_case = pytest.mark.parametrize("case,expected", CASES,
                                    ids=[c.__name__[1:] for c, _ in CASES])
seeds = st.integers(0, 2**32 - 1)


def _outcome(verdict):
    return verdict.status, verdict.start_orbit_dim, verdict.limit_orbit_dim


@each_case
@SETTINGS
@given(seed=seeds, factor=st.sampled_from([1e-3, -0.5, 1j, 7.0, 1e3]))
def test_verdict_is_invariant_under_scaling(case, expected, seed, factor):
    rep, group, v = case(seed)
    base = ol.closedness_verdict(rep, group, v)
    scaled = ol.closedness_verdict(rep, group, scale(rep, factor, v))
    assert base.status == expected
    assert _outcome(scaled) == _outcome(base)


@each_case
@SETTINGS
@given(seed=seeds, h_seed=seeds)
def test_verdict_is_invariant_under_subgroup_translation(case, expected, seed,
                                                         h_seed):
    rep, group, v = case(seed)
    h = ol.random_group_element(group, h_seed, 0.5)
    base = ol.closedness_verdict(rep, group, v)
    moved = ol.closedness_verdict(rep, group, ol.act(rep, h, v))
    assert base.status == expected
    assert _outcome(moved) == _outcome(base)


@each_case
@SETTINGS
@given(seed=seeds)
def test_closed_orbit_never_has_a_nonreductive_stabilizer(case, expected,
                                                          seed):
    rep, group, v = case(seed)
    verdict = ol.closedness_verdict(rep, group, v)
    assert verdict.status == expected
    stab = ol.stabilizer_subalgebra(rep, ol.lie_algebra_basis(group), v)
    if verdict.status == kempfness.CLOSED:
        assert ol.reductivity_verdict(stab).verdict != subalgebra.NOT_REDUCTIVE
