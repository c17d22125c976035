"""The benchmark's three workloads: inputs, verdict calls and fingerprints.

Every input is generated here, from ``experiments.trial_seed`` and the
public samplers, exactly as the experiment harness draws its trials; the
package only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from orbitlab import experiments, groups, kempfness, reps, subalgebra


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    scenario: str
    flow: bool          # the verdict calls include the closedness flow
    prediction: str     # the verdict the paper predicts for every trial


# Why these three: theorem1 is flow-heavy on 6x6 matrices with SL(6)
# sampling; cor3 never enters the flow (stabilizer null spaces and the
# reductivity analysis), so it is the "no change" control for any flow
# optimisation; cor5 runs the flow on direct-sum vectors drawn without
# group sampling, with heavy-tailed iteration counts.
WORKLOADS = {w.name: w for w in (
    Workload("theorem1", experiments.THEOREM1, "example1", True,
             kempfness.CLOSED),
    Workload("cor3", experiments.COR3_INTERSECTION, "sl4-block", False,
             subalgebra.REDUCTIVE),
    Workload("cor5", experiments.COR5_DIRECT_SUM, "sym2-sum", True,
             kempfness.CLOSED),
)}

# The per-trial report fields the verdict calls reproduce.
_FLOW_FIELDS = ("status", "start_orbit_dim", "limit_orbit_dim",
                "stabilizer_dim", "stabilizer_verdict")
_COR3_FIELDS = ("intersection_dim", "verdict")


@dataclass(frozen=True, eq=False)
class Prepared:
    """A workload with its scenario built and its algebra caches warm."""

    workload: Workload
    scenario: experiments.Scenario
    algebra: groups.LieAlgebraBasis
    flow_config: kempfness.FlowConfig
    spread: float

    def config(self, seed: int, trials: int) -> experiments.ExperimentConfig:
        return experiments.ExperimentConfig(
            kind=self.workload.kind, scenario=self.workload.scenario,
            trials=trials, seed=seed, spread=self.spread,
            flow=self.flow_config)


def prepare(workload: Workload) -> Prepared:
    scenario = experiments.get_scenario(workload.scenario)
    algebra = groups.lie_algebra_basis(scenario.subgroup)
    if workload.flow:
        groups.cartan_decomposition_for(scenario.subgroup)
    defaults = experiments.ExperimentConfig(kind=workload.kind,
                                            scenario=workload.scenario)
    return Prepared(workload, scenario, algebra, defaults.flow,
                    defaults.spread)


def chunk_seed(seed: int, chunk: int) -> int:
    """Seed of the chunk-th experiment of a run with the given seed."""
    return experiments.trial_seed(seed, chunk)


def trial_input(prep: Prepared, config_seed: int, index: int):
    """The vector the harness tests in trial ``index`` of an experiment."""
    seed = experiments.trial_seed(config_seed, index)
    rep = prep.scenario.representation
    if prep.workload.kind == experiments.COR5_DIRECT_SUM:
        return reps.random_vector(rep, np.random.default_rng(seed),
                                  prep.spread)
    g = groups.random_group_element(prep.scenario.group, seed, prep.spread)
    return reps.act(rep, g, prep.scenario.base_point)


def verdict(prep: Prepared, x) -> dict:
    """The public verdict calls on one input, as report fields."""
    rep = prep.scenario.representation
    out = {}
    if prep.workload.flow:
        closed = kempfness.closedness_verdict(rep, prep.scenario.subgroup, x,
                                              prep.flow_config)
        out.update(status=closed.status,
                   start_orbit_dim=closed.start_orbit_dim,
                   limit_orbit_dim=closed.limit_orbit_dim)
    stab = reps.stabilizer_subalgebra(rep, prep.algebra, x)
    report = subalgebra.reductivity_verdict(stab)
    if prep.workload.flow:
        out.update(stabilizer_dim=stab.dim, stabilizer_verdict=report.verdict)
    else:
        out.update(intersection_dim=stab.dim, verdict=report.verdict)
    return out


def matches_record(out: dict, record: dict) -> bool:
    return all(record[key] == value for key, value in out.items())


def predicted(workload: Workload, record: dict) -> bool:
    """Inconclusive counts as a miss."""
    key = "status" if workload.flow else "verdict"
    return record[key] == workload.prediction


def closed_but_not_reductive(workload: Workload, report) -> int:
    """Trials whose orbit is closed but whose stabilizer is not reductive,
    which the theory forbids."""
    if not workload.flow:
        return 0
    return sum(1 for r in report.trials
               if r["status"] == kempfness.CLOSED
               and r["stabilizer_verdict"] == subalgebra.NOT_REDUCTIVE)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(workload: Workload, report) -> str:
    """Hash of every per-trial verdict and dimension plus the summary counts;
    timings and flow iteration counts are left out."""
    if workload.flow:
        fields = _FLOW_FIELDS
        counts = ("closed", "non_closed", "inconclusive")
    else:
        fields = _COR3_FIELDS + ("generator_type",)
        counts = ("reductive", "not_reductive", "inconclusive",
                  "dimension_histogram", "counterexample")
    data = {"kind": workload.kind, "scenario": workload.scenario,
            "trials": [[r[f] for f in fields] for r in report.trials],
            "summary": {k: report.summary[k] for k in counts}}
    return _sha256(json.dumps(data, sort_keys=True))


def payload_hash(report) -> str:
    """Hash of the full deterministic report payload."""
    return _sha256(report.to_json_str(include_wall_time=False))
