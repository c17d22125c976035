"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The statistical bars: prevalence of the predicted
property >= 0.99 among converged trials, inconclusive trials <= 5%.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

import orbitlab as ol
from orbitlab.experiments import ExperimentConfig, get_scenario, run_experiment
from orbitlab.kempfness import CLOSED, NON_CLOSED

from helpers import orbit_dimension, scale


def announce(number, name, detail=""):
    print(f"\nACCEPTANCE {number} PASS: {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def theorem1_report():
    config = ExperimentConfig(kind="theorem1", scenario="example1",
                              trials=100, seed=2024, spread=0.5)
    start = time.perf_counter()
    report = run_experiment(config)
    report.summary["_elapsed_s"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def cor3_report():
    config = ExperimentConfig(kind="cor3-intersection", scenario="sl4-block",
                              trials=100, seed=2024, spread=0.5)
    return run_experiment(config)


@pytest.fixture(scope="module")
def cor2_report():
    config = ExperimentConfig(kind="cor2-normal", scenario="normal-factor",
                              trials=50, seed=2024, spread=0.5)
    return run_experiment(config)


@pytest.fixture(scope="module")
def cor5_report():
    config = ExperimentConfig(kind="cor5-direct-sum", scenario="sym2-sum",
                              trials=100, seed=2024, spread=0.5)
    return run_experiment(config)


@pytest.fixture(scope="module")
def agreement_report():
    config = ExperimentConfig(kind="real-complex-agreement",
                              scenario="sl2-real-complex", trials=20, seed=2024)
    return run_experiment(config)


def test_criterion_1_example1_golden_path():
    start = time.perf_counter()
    config = ExperimentConfig(kind="example1", scenario="example1")
    report = run_experiment(config)
    elapsed = time.perf_counter() - start

    summary = report.summary
    assert summary["base_relative_moment_norm"] <= 1e-8
    assert summary["base_orbit_dim"] == 14
    assert summary["base_stabilizer_dim"] == 21
    assert summary["stabilizer_dim"] == 1
    assert summary["stabilizer_generator_type"] == "nilpotent"
    assert summary["stabilizer_verdict"] == "not_reductive"
    assert summary["h_orbit_status"] == "non_closed"
    assert summary["g_orbit_status"] == "closed"
    assert report.passed
    assert elapsed < 30.0
    announce(1, "counterexample golden path", f"{elapsed:.1f}s")


def test_criterion_2_theorem1_prevalence(theorem1_report):
    summary = theorem1_report.summary
    assert summary["inconclusive"] <= 5
    assert summary["converged"] > 0
    assert summary["closed_prevalence"] >= 0.99
    assert summary["_elapsed_s"] < 300.0
    assert theorem1_report.passed
    announce(2, "generic subgroup orbits closed",
             f"{summary['closed']}/100 closed, "
             f"{summary['inconclusive']} inconclusive, "
             f"{summary['_elapsed_s']:.1f}s")


def test_criterion_3_stabilizer_intersections(cor3_report):
    summary = cor3_report.summary
    assert summary["inconclusive_rate"] <= 0.05
    assert summary["decided"] > 0
    assert summary["reductive_prevalence"] >= 0.99
    assert summary["dim1_generators_semisimple"]
    counter = summary["counterexample"]
    assert counter["verdict"] == "not_reductive"
    assert counter["intersection_dim"] == 1
    assert counter["generator_type"] == "nilpotent"
    assert cor3_report.passed
    announce(3, "generic stabilizer intersections reductive",
             f"{summary['reductive']}/100 reductive, dims "
             f"{summary['dimension_histogram']}, fixed translate not reductive")


def test_criterion_4_normal_subgroup_all_closed(cor2_report):
    summary = cor2_report.summary
    assert summary["inconclusive_rate"] <= 0.05
    assert summary["non_closed"] == 0
    assert cor2_report.passed
    announce(4, "normal subgroup: zero non-closed orbits",
             f"{summary['closed']}/50 closed")


def test_criterion_5_direct_sum_good(cor5_report):
    summary = cor5_report.summary
    assert summary["inconclusive"] <= 5
    assert summary["converged"] > 0
    assert summary["closed_prevalence"] >= 0.99
    assert cor5_report.passed
    announce(5, "direct sum of good representations is good",
             f"{summary['closed']}/100 closed")


def test_criterion_6_real_complex_agreement(agreement_report):
    summary = agreement_report.summary
    assert summary["disagreements"] == 0
    assert summary["agreements"] > 0
    assert summary["inconclusive_rate"] <= 0.05
    assert agreement_report.passed
    announce(6, "real and complex verdicts agree",
             f"{summary['agreements']}/20 agreeing pairs")


class TestCriterion7NumericalProperties:
    def test_gradient_matches_finite_differences(self):
        sl6 = ol.special_linear(6, "complex")
        alt6 = ol.alt_bilinear(sl6)
        cartan = ol.cartan_decomposition_for(sl6)
        rng = np.random.default_rng(7)
        t = 1e-6
        checked = 0
        for trial in range(100):
            x = cartan.p_basis.matrices[rng.integers(cartan.p_basis.dim)]
            v = ol.random_vector(alt6, rng)
            v = v / ol.reps.norm(alt6, v)
            moved = ol.act(alt6, scipy.linalg.expm(t * x), v)
            fd = (ol.inner_product(alt6, moved, moved)
                  - ol.inner_product(alt6, v, v)) / (2 * t)
            exact = ol.inner_product(alt6, ol.differential_act(alt6, x, v), v)
            assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1.0)
            checked += 1
        assert checked >= 100

    def test_flow_norms_monotone_on_recorded_traces(self):
        sl6 = ol.special_linear(6, "complex")
        alt6 = ol.alt_bilinear(sl6)
        h = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
        v0 = ol.standard_symplectic_form(6, "complex")
        g = np.eye(6, dtype=complex)
        g[0, 2] = 1.0
        x = ol.act(alt6, g, v0)
        traces = [ol.norm_flow(alt6, sl6, x), ol.norm_flow(alt6, h, x)]
        for seed in range(5):
            gg = ol.random_group_element(sl6, seed, 0.5)
            traces.append(ol.norm_flow(alt6, h, ol.act(alt6, gg, v0)))
        for trace in traces:
            assert np.all(np.diff(trace.norms) <= 0.0)

    def test_orbit_dimension_invariant_under_translation(self):
        # translations come from the same group whose orbit is measured
        cases = []
        for name in ("example1", "sl4-block", "normal-factor"):
            sc = get_scenario(name)
            cases.append((sc.representation, sc.group, sc.base_point))
            x = ol.act(sc.representation,
                       ol.random_group_element(sc.group, 71, 0.5),
                       sc.base_point)
            cases.append((sc.representation, sc.subgroup, x))
        sym2sum = get_scenario("sym2-sum")
        v = ol.random_vector(sym2sum.representation, np.random.default_rng(1))
        cases.append((sym2sum.representation, sym2sum.group, v))
        pair = get_scenario("sl2-real-complex")
        m = ol.random_vector(pair.real_representation, np.random.default_rng(2))
        cases.append((pair.real_representation, pair.real_group, m))

        for rep, group, v in cases:
            algebra = ol.lie_algebra_basis(group)
            base = orbit_dimension(rep, algebra, v)
            for seed in range(20):
                g = ol.random_group_element(group, seed, 0.5)
                assert orbit_dimension(rep, algebra, ol.act(rep, g, v)) == base

    @pytest.mark.parametrize("factor", [2.0, -1.0, 1e-3])
    def test_verdict_scale_invariance(self, factor):
        sl6 = ol.special_linear(6, "complex")
        alt6 = ol.alt_bilinear(sl6)
        h = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
        v0 = ol.standard_symplectic_form(6, "complex")
        g = np.eye(6, dtype=complex)
        g[0, 2] = 1.0
        x = ol.act(alt6, g, v0)
        for group, expected in ((sl6, CLOSED), (h, NON_CLOSED)):
            scaled = scale(alt6, factor, x)
            assert ol.closedness_verdict(alt6, group, scaled).status == expected

    def test_closed_orbits_never_have_nonreductive_stabilizers(
            self, theorem1_report, cor2_report, cor5_report):
        for report in (theorem1_report, cor2_report, cor5_report):
            for record in report.trials:
                if record["status"] == CLOSED:
                    assert record["stabilizer_verdict"] != "not_reductive"
        announce(7, "numerical property suite",
                 "gradients, monotonicity, dimension/scale invariance, "
                 "closed => reductive stabilizer")


def test_criterion_8_determinism_across_workers():
    config = ExperimentConfig(kind="theorem1", scenario="example1",
                              trials=24, seed=99, spread=0.5)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=4)
    a = serial.to_json_str(include_wall_time=False)
    b = parallel.to_json_str(include_wall_time=False)
    assert a == b
    rerun = run_experiment(config, workers=1)
    assert rerun.to_json_str(include_wall_time=False) == a
    announce(8, "byte-identical reports across worker counts",
             f"{len(a)} bytes compared")
