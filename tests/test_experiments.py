import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import experiments
from orbitlab.errors import ConfigurationError, InvalidArgumentError
from orbitlab.experiments import (ExperimentConfig, _summarize_flow,
                                  get_scenario, run_experiment,
                                  scenario_catalog, trial_seed)
from orbitlab.kempfness import CLOSED

from helpers import subspace_distance


class TestCatalog:
    def test_contains_all_builtin_scenarios(self):
        names = {entry["name"] for entry in scenario_catalog()}
        assert {"example1", "sl4-block", "normal-factor", "sym2-sum",
                "sl2-real-complex"} <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("does-not-exist")


class TestScenarioGeometry:
    def test_normal_factor_base_points_have_closed_ambient_orbits(self):
        # the determinant is invariant and the orbit is its level set;
        # cross-check with the flow oracle
        sc = get_scenario("normal-factor")
        for seed in range(3):
            g = ol.random_group_element(sc.group, seed, 0.5)
            x = ol.act(sc.representation, g, sc.base_point)
            assert abs(np.linalg.det(x)) > 1e-6
            verdict = ol.closedness_verdict(sc.representation, sc.group, x)
            assert verdict.status == CLOSED

    def test_sym2_point_with_nonzero_discriminant_closed(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.sym2(sl2)
        rng = np.random.default_rng(5)
        m = ol.random_vector(rep, rng)
        assert abs(np.linalg.det(m)) > 1e-6
        verdict = ol.closedness_verdict(rep, sl2, m)
        assert verdict.status == CLOSED


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="nope", scenario="example1")

    def test_bad_trials(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="example1", scenario="example1", trials=0)

    def test_bad_spread(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1", spread=-1.0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread(self, spread):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             spread=spread)

    # a cutoff of 1 or more reads every stabilizer as the whole algebra
    @pytest.mark.parametrize("rank_rtol", [0.0, -1e-9, float("nan"),
                                           float("inf"), 1.0, 20.0])
    def test_bad_rank_rtol(self, rank_rtol):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             rank_rtol=rank_rtol)

    @pytest.mark.parametrize("name,value", [
        ("trials", 2.5), ("trials", "10"), ("seed", -1), ("seed", 1.5)])
    def test_non_integer_trials_or_seed(self, name, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             **{name: value})

    @pytest.mark.parametrize("field,value", [
        ("spread", "0.5"), ("rank_rtol", "1e-9")])
    def test_non_numeric_spread_or_rank_rtol(self, field, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             **{field: value})

    def test_non_numeric_moment_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            ol.FlowConfig("1e-8")

    # 1.5 reached the pool as max_workers and raised TypeError there, and
    # True counted as one worker
    @pytest.mark.parametrize("workers", [0, -3, 1.5, True])
    def test_workers_below_one(self, workers):
        config = ExperimentConfig(kind="cor3-intersection",
                                  scenario="sl4-block", trials=1)
        with pytest.raises(ConfigurationError):
            run_experiment(config, workers=workers)

    @pytest.mark.parametrize("name,value", [("trials", True), ("seed", False)])
    def test_boolean_trials_or_seed(self, name, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             **{name: value})

    # True is a numbers.Real equal to 1: a boolean rank cutoff would be 1.0
    @pytest.mark.parametrize("name", ["spread", "rank_rtol"])
    def test_boolean_spread_or_rank_rtol(self, name):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="theorem1", scenario="example1",
                             **{name: True})

    def test_kind_scenario_mismatch(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="cor2-normal", scenario="example1")


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [trial_seed(42, i) for i in range(50)]
        assert seeds == [trial_seed(42, i) for i in range(50)]
        assert len(set(seeds)) == 50

    def test_base_seed_matters(self):
        assert trial_seed(0, 1) != trial_seed(1, 1)


class TestExample1Experiment:
    def test_pipeline_passes(self):
        config = ExperimentConfig(kind="example1", scenario="example1")
        report = run_experiment(config)
        assert report.passed
        assert report.summary["stabilizer_dim"] == 1
        assert report.summary["stabilizer_generator_type"] == "nilpotent"
        assert report.summary["stabilizer_verdict"] == "not_reductive"
        assert report.summary["h_orbit_status"] == "non_closed"
        assert report.summary["g_orbit_status"] == "closed"
        assert report.summary["base_orbit_dim"] == 14
        assert report.summary["base_stabilizer_dim"] == 21

    def test_base_point_minimality_reads_the_flow_bar(self):
        # the report echoes moment_tolerance 1e-17, and the base point's
        # relative moment norm, rounding of order 1e-16, must fail it
        config = ExperimentConfig(
            kind="example1", scenario="example1",
            flow=ol.FlowConfig(moment_tolerance=1e-17, max_iterations=5))
        report = run_experiment(config)
        checks = {a["name"]: a["passed"] for a in report.trials}
        assert report.summary["base_relative_moment_norm"] > 1e-17
        assert checks["base_point_minimal"] is False
        assert not report.passed

    def test_report_serializes(self):
        config = ExperimentConfig(kind="example1", scenario="example1")
        report = run_experiment(config)
        payload = json.loads(report.to_json_str())
        assert payload["kind"] == "example1"
        assert "tolerances" in payload
        assert "wall_time_ms" in payload


class TestStatisticalExperiments:
    def test_theorem1_small_run(self):
        config = ExperimentConfig(kind="theorem1", scenario="example1",
                                  trials=8, seed=0)
        report = run_experiment(config)
        assert report.passed
        assert report.summary["closed"] == 8
        counts = (report.summary["closed"] + report.summary["non_closed"]
                  + report.summary["inconclusive"])
        assert counts == config.trials == len(report.trials)
        for record in report.trials:
            assert record["stabilizer_verdict"] != "not_reductive"

    def test_cor3_small_run_carries_counterexample(self):
        config = ExperimentConfig(kind="cor3-intersection", scenario="sl4-block",
                                  trials=8, seed=0)
        report = run_experiment(config)
        assert report.passed
        counter = report.summary["counterexample"]
        assert counter["verdict"] == "not_reductive"
        assert counter["intersection_dim"] == 1
        assert counter["generator_type"] == "nilpotent"

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_cor3_structure_numbers(self, seed):
        # a generic stabilizer intersection of the SL(4) block is a rank-one
        # symplectic reduction: sl(2)-like, semisimple, no center
        config = ExperimentConfig(kind="cor3-intersection",
                                  scenario="sl4-block", trials=30, seed=seed)
        report = run_experiment(config)
        numbers = {(r["intersection_dim"], r["derived_dim"], r["center_dim"],
                    r["killing_rank"], r["verdict"]) for r in report.trials}
        assert numbers == {(3, 3, 0, 3, "reductive")}
        # the example1 block stabilizer at the unipotent translate
        assert report.summary["counterexample"] == {
            "intersection_dim": 1, "verdict": "not_reductive",
            "generator_type": "nilpotent"}

    def test_counterexample_is_decided_once_per_scenario_and_cutoff(
            self, monkeypatch):
        calls = []
        intersection = experiments._intersection

        def counting(*args):
            calls.append(args)
            return intersection(*args)

        monkeypatch.setattr(experiments, "_intersection", counting)
        experiments.run_counterexample_trial.cache_clear()
        config = ExperimentConfig(kind="cor3-intersection",
                                  scenario="sl4-block", trials=2, seed=0)
        for seed in (0, 1):
            run_experiment(replace(config, seed=seed))
        # one call per trial, and the counterexample once
        assert len(calls) == 2 * config.trials + 1
        run_experiment(replace(config, rank_rtol=1e-8))
        assert len(calls) == 3 * config.trials + 2

    def test_reports_do_not_share_the_counterexample_record(self):
        config = ExperimentConfig(kind="cor3-intersection",
                                  scenario="sl4-block", trials=2, seed=0)
        first = run_experiment(config)
        first.summary["counterexample"]["verdict"] = "reductive"
        second = run_experiment(config)
        assert second.summary["counterexample"] == {
            "intersection_dim": 1, "verdict": "not_reductive",
            "generator_type": "nilpotent"}

    def test_cached_counterexample_equals_a_fresh_decision(self):
        scenario = get_scenario("sl4-block")
        cached = experiments.run_counterexample_trial(scenario, 1e-9)
        fresh = experiments.run_counterexample_trial.__wrapped__(scenario, 1e-9)
        assert cached == fresh

    def test_cor2_small_run_no_nonclosed(self):
        config = ExperimentConfig(kind="cor2-normal", scenario="normal-factor",
                                  trials=6, seed=0)
        report = run_experiment(config)
        assert report.passed
        assert report.summary["non_closed"] == 0

    def test_closed_orbit_with_nonreductive_stabilizer_fails_report(self):
        record = {"status": CLOSED, "iterations": 3,
                  "stabilizer_verdict": "not_reductive"}
        summary, failure = _summarize_flow([record], require_all_closed=False)
        assert summary["closed_but_not_reductive"] == 1
        assert failure == "math"
        record["stabilizer_verdict"] = "reductive"
        summary, failure = _summarize_flow([record], require_all_closed=False)
        assert summary["closed_but_not_reductive"] == 0
        assert failure is None

    def test_real_complex_small_run(self):
        config = ExperimentConfig(kind="real-complex-agreement",
                                  scenario="sl2-real-complex", trials=5, seed=0)
        report = run_experiment(config)
        assert report.passed
        assert report.summary["disagreements"] == 0
        for record in report.trials:
            assert record["agree"] is not False


class TestStabilizerDecision:
    @pytest.mark.parametrize("kind,scenario", [
        ("theorem1", "example1"), ("cor2-normal", "normal-factor"),
        ("cor5-direct-sum", "sym2-sum")])
    def test_orbit_and_stabilizer_dims_fill_the_algebra(self, kind, scenario):
        # both dimensions are one rank decision of the orbit map
        config = ExperimentConfig(kind=kind, scenario=scenario, trials=30,
                                  seed=4)
        dim = ol.lie_algebra_basis(get_scenario(scenario).subgroup).dim
        for record in run_experiment(config).trials:
            assert record["start_orbit_dim"] + record["stabilizer_dim"] == dim

    def test_verdict_carries_the_stabilizer_of_its_start_point(
            self, alt6, sl6, sl2_block, x_translate):
        # the verdict reads the kernel off the flow's first D, at v / |v|,
        # so its basis may differ from the public decision's at v by a
        # phase: the dimension, the flag and the span agree
        sl2 = ol.special_linear(2, "complex")
        sl2_real = ol.special_linear(2, "real")
        eye = np.eye(2, dtype=complex)
        cases = [
            (alt6, sl2_block, x_translate, 1),
            (alt6, sl6, x_translate, 21),
            (ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2)), sl2, (eye, 2.0 * eye),
             1),
            (ol.sym2(sl2_real), sl2_real, np.array([[1.0, 0.3], [0.3, 2.0]]),
             1)]
        for rep, group, v, dim in cases:
            verdict = ol.closedness_verdict(rep, group, v)
            algebra = ol.lie_algebra_basis(group)
            decision = ol.orbit_dimension_info(rep, algebra, v)
            stab = ol.stabilizer_subalgebra(rep, algebra, v)
            assert ((verdict.stabilizer.dim, verdict.start_ambiguous)
                    == (stab.dim, decision.ambiguous) == (dim, False))
            assert subspace_distance(verdict.stabilizer.matrices,
                                     stab.matrices) <= 1e-12

    @pytest.mark.parametrize("kind,scenario", [
        ("theorem1", "example1"), ("theorem1", "sl4-block"),
        ("cor2-normal", "normal-factor"), ("cor3-intersection", "sl4-block"),
        ("cor5-direct-sum", "sym2-sum")])
    def test_rank_decisions_keep_six_decades_of_margin(self, monkeypatch,
                                                       kind, scenario):
        # decades between the cutoff and the nearest nonzero singular value
        # of every two-sided rank decision of a seed-0 run: the start-side
        # orbit maps, which also give the stabilizers, and the structure
        # decisions on those stabilizers.  The one-sided limit decisions
        # have their own test in test_kempfness.py.
        margins = []
        original = ol._linalg.rank_from_singular_values

        def recording(s, rtol=ol._linalg.RANK_RTOL, floor=0.0,
                      one_sided=False):
            values = np.asarray(s, dtype=float)
            if not one_sided and values.max(initial=0.0) > 0.0:
                cutoff = max(rtol * values.max(), floor)
                margins.append(np.min(np.abs(np.log10(
                    values[values > 0.0] / cutoff))))
            return original(s, rtol, floor, one_sided)

        monkeypatch.setattr(ol._linalg, "rank_from_singular_values",
                            recording)
        report = run_experiment(ExperimentConfig(kind=kind, scenario=scenario,
                                                 seed=0))
        assert report.passed
        assert len(margins) >= report.config.trials
        assert min(margins) >= 6.0

    @pytest.mark.parametrize("kind,scenario", [
        ("theorem1", "example1"), ("cor3-intersection", "sl4-block")])
    def test_ambiguous_stabilizer_is_not_analysed(self, monkeypatch, kind,
                                                   scenario):
        def refuse(*args, **kwargs):
            raise AssertionError("analysed an ambiguous stabilizer")

        monkeypatch.setattr(ol.subalgebra, "reductivity_verdict", refuse)
        config = ExperimentConfig(kind=kind, scenario=scenario, trials=2,
                                  rank_rtol=0.5)
        report = run_experiment(config)
        assert report.failure == "inconclusive"
        for record in report.trials:
            assert record.get("stabilizer_verdict",
                              record.get("verdict")) == "inconclusive"

    @pytest.mark.parametrize("kind", ["theorem1", "cor3-intersection"])
    def test_stabilizer_missing_closure_is_inconclusive(self, kind):
        # trial 3 of seed 0 at spread 3 reads a 3-dimensional stabilizer
        # whose bracket residual is about 1e-9, above BRACKET_CLOSURE_TOL:
        # the structure analysis refuses it, and the trial, not the run,
        # reads inconclusive
        sc = get_scenario("sl4-block")
        config = ExperimentConfig(kind=kind, scenario="sl4-block", seed=0,
                                  spread=3.0)
        x = experiments._start_vector(sc, config, trial_seed(0, 3))
        stab = ol.stabilizer_subalgebra(
            sc.representation, ol.lie_algebra_basis(sc.subgroup), x)
        with pytest.raises(ol.NotBracketClosedError):
            ol.structure_report(stab)
        record = experiments._run_one(config, 3)
        assert record.get("stabilizer_verdict",
                          record.get("verdict")) == "inconclusive"
        if kind == "cor3-intersection":
            assert record["derived_dim"] is None
            assert record["intersection_dim"] == stab.dim


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        config = ExperimentConfig(kind="theorem1", scenario="example1",
                                  trials=6, seed=9)
        a = run_experiment(config).to_json_str(include_wall_time=False)
        b = run_experiment(config).to_json_str(include_wall_time=False)
        assert a == b

    @pytest.mark.parametrize("kind,scenario,trials,workers", [
        ("cor3-intersection", "sl4-block", 6, 3),
        ("theorem1", "example1", 4, 2),
    ], ids=["cor3-intersection", "theorem1"])
    def test_worker_count_does_not_change_report(self, kind, scenario,
                                                 trials, workers):
        config = ExperimentConfig(kind=kind, scenario=scenario, trials=trials,
                                  seed=5)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=workers)
        assert (serial.to_json_str(include_wall_time=False)
                == parallel.to_json_str(include_wall_time=False))

    def test_serial_runs_skip_the_json_round_trip(self, monkeypatch):
        # a serial run hands the trial runner the config itself
        def refuse(*args):
            raise AssertionError("serial run re-parsed the config")

        config = ExperimentConfig(kind="cor3-intersection",
                                  scenario="sl4-block", trials=3, seed=5)
        expected = run_experiment(config).to_json_str(include_wall_time=False)
        monkeypatch.setattr(experiments.json, "loads", refuse)
        assert run_experiment(config).to_json_str(
            include_wall_time=False) == expected

    def test_pool_workers_receive_the_config_object(self):
        # the pool maps the trial function over the pickled config, and a
        # pooled run gives the serial report
        config = ExperimentConfig(kind="theorem1", scenario="example1",
                                  trials=3, seed=4)
        expected = run_experiment(config).to_json_str(include_wall_time=False)
        assert run_experiment(config, workers=2).to_json_str(
            include_wall_time=False) == expected

    def test_pool_starts_no_more_workers_than_trials(self, monkeypatch):
        # a fork pool launches every worker at its first submit; the fake
        # pool runs the trials in this process and records its size
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        config = ExperimentConfig(kind="theorem1", scenario="example1",
                                  trials=3, seed=4)
        expected = run_experiment(config).to_json_str(include_wall_time=False)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        assert run_experiment(config, workers=1000).to_json_str(
            include_wall_time=False) == expected
        assert sizes == [3]
        # one trial leaves one worker, and one worker runs serially
        run_experiment(replace(config, trials=1), workers=1000)
        assert sizes == [3]

    def test_csv_has_one_row_per_trial(self):
        config = ExperimentConfig(kind="theorem1", scenario="example1",
                                  trials=4, seed=2)
        report = run_experiment(config)
        lines = report.to_csv_str().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("index,")


# Run as a script so that the start method is set before any pool exists
# and pytest's own process keeps its default.
SPAWN_SCRIPT = """
import json
import multiprocessing

from orbitlab.experiments import ExperimentConfig, run_experiment

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    config = ExperimentConfig(kind="cor3-intersection", scenario="sl4-block",
                              trials=4, seed=0, rank_rtol=0.1)
    print(json.dumps([run_experiment(config, workers=w).to_json_str(
        include_wall_time=False) for w in (2, 1)]))
"""


def test_rank_rtol_reaches_spawned_workers(tmp_path):
    script = tmp_path / "spawn_run.py"
    script.write_text(SPAWN_SCRIPT)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    parallel, serial = json.loads(result.stdout)
    assert parallel == serial
    serial = json.loads(serial)
    assert serial["config"]["rank_rtol"] == 0.1
    assert serial["tolerances"]["rank_rtol"] == 0.1
    # the default cutoff gives {"3": 4}: the coarse one drops the smaller
    # singular values of the orbit map, so the stabilizers grow
    assert serial["summary"]["dimension_histogram"] == {"7": 1, "4": 2,
                                                        "3": 1}
