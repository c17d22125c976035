"""Randomized and golden-path experiment suites.

Each experiment kind turns one statement about reductive group actions
into a reproducible statistical (or deterministic) check:

* ``theorem1``                generic subgroup orbits on a closed orbit
                              are closed,
* ``cor2-normal``             a normal subgroup has *all* orbits closed
                              on closed orbits,
* ``cor3-intersection``       generic stabilizer intersections are
                              reductive,
* ``cor5-direct-sum``         direct sums of good representations are
                              good,
* ``example1``                the deterministic counterexample pipeline
                              (non-reductive stabilizer, non-closed
                              orbit),
* ``real-complex-agreement``  closedness verdicts agree between a real
                              group and its complexification on real
                              starting points.

Genericity is operationalized as prevalence under Gaussian sampling in
Lie-algebra coordinates: a dense Zariski-open set has full measure under
any absolutely continuous law.  Each trial-based kind passes when the
prevalence over its decided trials reaches its bar: ``PREVALENCE_BAR``
(99%) for the generic statements (theorem1, cor3, cor5) and 1 for the
statements about every point (cor2-normal, real-complex-agreement).
The bar is part of the kind's row in ``_KINDS``, and the report echoes
it; example1 has no prevalence bar and echoes null.  Inconclusive
trials are excluded from prevalence denominators but hard-capped at 5%
so numerical failure cannot masquerade as genericity.

Per-trial seeds are derived once, in ``_run_one``, from (config.seed,
trial index), so reports are pure functions of their config,
independent of worker count: serial and pooled runs enter each trial
through ``_run_one``, which the process pool maps over the pickled
config.  Example1 checks its base point's minimality at
``config.flow.moment_tolerance``, the bar it echoes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _linalg, groups, kempfness, reps, subalgebra
from .errors import ConfigurationError, NotBracketClosedError
from .groups import GroupSpec, lie_algebra_basis, random_group_element
from .kempfness import (CLOSED, INCONCLUSIVE, NON_CLOSED, FlowConfig,
                        closedness_verdict, relative_moment_norm)
from .serialize import is_integer, is_real

THEOREM1 = "theorem1"
COR2_NORMAL = "cor2-normal"
COR3_INTERSECTION = "cor3-intersection"
COR5_DIRECT_SUM = "cor5-direct-sum"
EXAMPLE1 = "example1"
REAL_COMPLEX = "real-complex-agreement"

ALL_KINDS = (THEOREM1, COR2_NORMAL, COR3_INTERSECTION, COR5_DIRECT_SUM,
             EXAMPLE1, REAL_COMPLEX)

# Acceptance bars for the statistical experiments: the prevalence bar of
# the generic statements and the cap on the inconclusive rate of every kind.
PREVALENCE_BAR = 0.99
INCONCLUSIVE_CAP = 0.05


def counterexample_unipotent() -> np.ndarray:
    """The explicit unipotent 6x6 element of the counterexample: identity
    plus a single 1 in the (1, 3) slot (1-based), bit-exact integers."""
    g = np.eye(6, dtype=complex)
    g[0, 2] = 1.0
    return g


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named cast of characters: ambient group, subgroup, action, base point.

    The first of ``kinds`` is the scenario's natural experiment kind.
    """

    name: str
    description: str
    kinds: tuple[str, ...]
    group: GroupSpec
    representation: reps.Representation
    subgroup: GroupSpec | None = None
    base_point: object | None = None
    fixed_element: np.ndarray | None = None
    counterexample_subgroup: GroupSpec | None = None
    real_group: GroupSpec | None = None
    real_representation: reps.Representation | None = None

    @property
    def default_kind(self) -> str:
        return self.kinds[0]


def _sl6_block_scenario(name: str, block: int, kinds: tuple[str, ...],
                        description: str) -> Scenario:
    """SL(6, C) on antisymmetric 6x6 matrices at the base point
    diag(J, J, J), with SL(block) in the upper-left block; the fixed
    element is the counterexample's unipotent and the counterexample
    subgroup the block SL(2)."""
    g = groups.special_linear(6, groups.COMPLEX)

    def upper_left(size: int) -> GroupSpec:
        return groups.block_embedding(
            groups.special_linear(size, groups.COMPLEX), 6, 0)

    return Scenario(
        name=name,
        description=description,
        kinds=kinds,
        group=g,
        representation=reps.alt_bilinear(g),
        subgroup=upper_left(block),
        base_point=groups.standard_symplectic_form(6, groups.COMPLEX),
        fixed_element=counterexample_unipotent(),
        counterexample_subgroup=upper_left(2),
    )


def _normal_factor_scenario() -> Scenario:
    sl2 = groups.special_linear(2, groups.COMPLEX)
    g = groups.product(sl2, sl2)
    h = groups.block_embedding(sl2, 4, 0)
    rep = reps.external_tensor(g)
    base = np.eye(2, dtype=complex)
    return Scenario(
        name="normal-factor",
        description="SL(2) x SL(2) on 2x2 matrices by (A, B) . M = A M B^t; "
                    "the first factor is normal, and base points g . I sit on "
                    "closed ambient orbits (determinant level sets).",
        kinds=(COR2_NORMAL, THEOREM1),
        group=g,
        representation=rep,
        subgroup=h,
        base_point=base,
    )


def _sym2_sum_scenario() -> Scenario:
    g = groups.special_linear(2, groups.COMPLEX)
    rep = reps.direct_sum(reps.sym2(g), reps.sym2(g))
    return Scenario(
        name="sym2-sum",
        description="SL(2, C) acting diagonally on two copies of the symmetric "
                    "2x2 matrices; each summand has generically closed orbits "
                    "(nonzero discriminant), and so should the sum.",
        kinds=(COR5_DIRECT_SUM,),
        group=g,
        representation=rep,
        subgroup=g,
    )


def _sl2_real_complex_scenario() -> Scenario:
    gc = groups.special_linear(2, groups.COMPLEX)
    gr = groups.special_linear(2, groups.REAL)
    return Scenario(
        name="sl2-real-complex",
        description="Symmetric 2x2 matrices under SL(2), run once over the "
                    "reals and once over the complex field on the same real "
                    "starting points; closedness verdicts must agree.",
        kinds=(REAL_COMPLEX,),
        group=gc,
        representation=reps.sym2(gc),
        subgroup=gc,
        real_group=gr,
        real_representation=reps.sym2(gr),
    )


_SCENARIO_BUILDERS = {
    "example1": functools.partial(
        _sl6_block_scenario, "example1", 2,
        (EXAMPLE1, THEOREM1, COR3_INTERSECTION),
        "SL(6, C) on antisymmetric 6x6 matrices by g M g^t; "
        "base point diag(J, J, J); subgroup SL(2) in the upper-left "
        "block. Carries the explicit unipotent element whose "
        "translate has a non-reductive block stabilizer."),
    "sl4-block": functools.partial(
        _sl6_block_scenario, "sl4-block", 4, (COR3_INTERSECTION, THEOREM1),
        "Same ambient action as example1 with SL(4) in the "
        "upper-left block: positive-dimensional generic stabilizer "
        "intersections (a symplectic reduction of rank one)."),
    "normal-factor": _normal_factor_scenario,
    "sym2-sum": _sym2_sum_scenario,
    "sl2-real-complex": _sl2_real_complex_scenario,
}

_SCENARIO_CACHE: dict[str, Scenario] = {}


def get_scenario(name: str) -> Scenario:
    if name not in _SCENARIO_BUILDERS:
        raise ConfigurationError(f"unknown scenario {name!r}; "
                                 f"known: {sorted(_SCENARIO_BUILDERS)}")
    if name not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[name] = _SCENARIO_BUILDERS[name]()
    return _SCENARIO_CACHE[name]


def scenario_catalog() -> list[dict]:
    """Names and descriptions of the built-in scenarios."""
    out = []
    for name in sorted(_SCENARIO_BUILDERS):
        sc = get_scenario(name)
        out.append({
            "name": sc.name,
            "description": sc.description,
            "default_kind": sc.default_kind,
            "kinds": list(sc.kinds),
        })
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    scenario: str
    trials: int = 100
    seed: int = 0
    spread: float = 0.5
    flow: FlowConfig = field(default_factory=FlowConfig)
    rank_rtol: float = _linalg.RANK_RTOL

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if not (is_integer(self.trials) and self.trials >= 1):
            raise ConfigurationError("trials must be an integer >= 1")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ConfigurationError("seed must be a non-negative integer")
        if not (is_real(self.spread)
                and math.isfinite(self.spread) and self.spread > 0):
            raise ConfigurationError("spread must be a finite positive number")
        # a cutoff of 1 or more drops even the largest singular value
        if not (is_real(self.rank_rtol) and 0 < self.rank_rtol < 1):
            raise ConfigurationError("rank_rtol must lie strictly between 0 and 1")
        sc = get_scenario(self.scenario)
        if self.kind not in sc.kinds:
            raise ConfigurationError(
                f"scenario {self.scenario!r} does not support kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "trials": self.trials,
            "seed": self.seed,
            "spread": self.spread,
            "flow": self.flow.to_json(),
            "rank_rtol": self.rank_rtol,
        }


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    trials: list
    summary: dict
    failure: str | None
    wall_time_ms: float

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_json(self, include_wall_time: bool = True) -> dict:
        out = {
            "kind": self.config.kind,
            "scenario": self.config.scenario,
            "config": self.config.to_json(),
            "tolerances": tolerance_echo(self.config),
            "trials": self.trials,
            "summary": self.summary,
            "passed": self.passed,
            "failure": self.failure,
        }
        if include_wall_time:
            out["wall_time_ms"] = self.wall_time_ms
        return out

    def to_json_str(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_json(include_wall_time), indent=2,
                          sort_keys=True)

    def to_csv_str(self) -> str:
        """One row per trial, scalar fields only."""
        buf = io.StringIO()
        keys: list[str] = []
        for record in self.trials:
            for key, value in record.items():
                if key not in keys and not isinstance(value, (dict, list)):
                    keys.append(key)
        writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore")
        writer.writeheader()
        for record in self.trials:
            writer.writerow({k: record.get(k) for k in keys})
        return buf.getvalue()


def tolerance_echo(config: ExperimentConfig) -> dict:
    return {
        "rank_rtol": config.rank_rtol,
        "bracket_closure_tol": groups.BRACKET_CLOSURE_TOL,
        "moment_tolerance": config.flow.moment_tolerance,
        "limit_rank_floor_factor": kempfness.LIMIT_RANK_FLOOR,
        "eigen_merge_rtol": subalgebra.EIGEN_MERGE_RTOL,
        "prevalence_bar": (_KINDS[config.kind][2] if config.kind in _KINDS
                           else None),
        "inconclusive_cap": INCONCLUSIVE_CAP,
    }


def trial_seed(base_seed: int, index: int) -> int:
    """Stable per-trial seed; aggregation order never affects results."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _stabilizer_verdict(stab: groups.LieAlgebraBasis, ambiguous: bool,
                        rtol: float) -> tuple[str, subalgebra.SubalgebraReport | None]:
    """Reductivity verdict of a stabilizer and its report.  A stabilizer
    whose dimension was ambiguous, or that misses bracket closure (read
    off a null space at a badly conditioned point), is inconclusive and
    is not analysed."""
    if ambiguous:
        return subalgebra.INCONCLUSIVE, None
    try:
        report = subalgebra.reductivity_verdict(stab, rtol=rtol)
    except NotBracketClosedError:
        return subalgebra.INCONCLUSIVE, None
    return report.verdict, report


def _intersection(rep, algebra, v,
                  rtol: float) -> tuple[dict, subalgebra.SubalgebraReport | None]:
    """The stabilizer of v in the algebra, decided once, as the record
    cor3 reports: its dimension, its reductivity verdict and, for a line,
    the type of its generator."""
    decision = reps.orbit_dimension_info(rep, algebra, v, rtol)
    stab = reps._stabilizer_subalgebra(algebra, decision)
    verdict, report = _stabilizer_verdict(stab, decision.ambiguous, rtol)
    generator_type = (subalgebra.element_type(stab.matrices[0])
                      if stab.dim == 1 else None)
    return {"intersection_dim": stab.dim, "verdict": verdict,
            "generator_type": generator_type}, report


def _start_vector(scenario: Scenario, config: ExperimentConfig, seed: int):
    """A random ambient translate of the base point, or a Gaussian point
    of the space when the scenario has no base point."""
    if scenario.base_point is None:
        rng = np.random.default_rng(seed)
        return reps.random_vector(scenario.representation, rng, config.spread)
    g = random_group_element(scenario.group, seed, config.spread)
    return reps.act(scenario.representation, g, scenario.base_point)


def _flow_trial(scenario: Scenario, config: ExperimentConfig, seed: int) -> dict:
    """One closedness trial, with the verdict on the stabilizer that the
    closedness verdict's start decision gives at the same point."""
    x = _start_vector(scenario, config, seed)
    verdict = closedness_verdict(scenario.representation, scenario.subgroup,
                                 x, config.flow, rtol=config.rank_rtol)
    stab_verdict, _ = _stabilizer_verdict(verdict.stabilizer,
                                          verdict.start_ambiguous,
                                          config.rank_rtol)
    return {
        "status": verdict.status,
        "start_orbit_dim": verdict.start_orbit_dim,
        "limit_orbit_dim": verdict.limit_orbit_dim,
        "start_norm": verdict.trace.start_norm,
        "limit_norm": verdict.trace.limit_norm,
        "iterations": verdict.trace.iterations_used,
        "flow_reason": verdict.trace.reason,
        "relative_moment_norm": float(verdict.trace.moment_norms[-1]),
        "stabilizer_dim": verdict.stabilizer.dim,
        "stabilizer_verdict": stab_verdict,
    }


def _cor3_trial(scenario: Scenario, config: ExperimentConfig, seed: int) -> dict:
    """One stabilizer-reductivity trial at a random ambient translate."""
    x = _start_vector(scenario, config, seed)
    h_algebra = lie_algebra_basis(scenario.subgroup)
    record, report = _intersection(scenario.representation, h_algebra, x,
                                   config.rank_rtol)
    return {
        **record,
        # an ambiguous stabilizer is not analysed: no structure data
        "derived_dim": report.derived_dim if report else None,
        "center_dim": report.center_dim if report else None,
        "killing_rank": report.killing_rank_on_derived if report else None,
    }


def _real_complex_trial(scenario: Scenario, config: ExperimentConfig,
                        seed: int) -> dict:
    """The same real starting point flowed over R and over C."""
    rng = np.random.default_rng(seed)
    m_real = reps.random_vector(scenario.real_representation, rng, config.spread)
    real_verdict = closedness_verdict(scenario.real_representation,
                                      scenario.real_group, m_real, config.flow,
                                      rtol=config.rank_rtol)
    complex_verdict = closedness_verdict(scenario.representation,
                                         scenario.group,
                                         m_real.astype(complex), config.flow,
                                         rtol=config.rank_rtol)
    agree = None
    if INCONCLUSIVE not in (real_verdict.status, complex_verdict.status):
        agree = real_verdict.status == complex_verdict.status
    return {
        "real_status": real_verdict.status,
        "complex_status": complex_verdict.status,
        "real_orbit_dim": real_verdict.start_orbit_dim,
        # complex dimension plus its real count, so the two fields compare
        "complex_orbit_dim": complex_verdict.start_orbit_dim,
        "complex_orbit_dim_over_r": 2 * complex_verdict.start_orbit_dim,
        "agree": agree,
    }


def run_example1_pipeline(config: ExperimentConfig) -> tuple[list, dict]:
    """The deterministic counterexample, one assertion at a time."""
    scenario = get_scenario(config.scenario)
    rep = scenario.representation
    g_algebra = lie_algebra_basis(scenario.group)
    v0 = scenario.base_point
    rtol = config.rank_rtol

    assertions = []

    def check(name: str, passed: bool, detail):
        assertions.append({"name": name, "passed": bool(passed),
                           "detail": detail})

    rel = relative_moment_norm(rep, scenario.group, v0)
    check("base_point_minimal", rel <= config.flow.moment_tolerance,
          {"relative_moment_norm": rel})

    # orbit and stabilizer dimension of v0 are one rank decision
    base = reps.orbit_dimension_info(rep, g_algebra, v0, rtol)
    base_stabilizer_dim = base.kernel.shape[1]
    check("ambient_orbit_dim_14", base.rank == 14, {"orbit_dim": base.rank})
    check("base_stabilizer_dim_21", base_stabilizer_dim == 21,
          {"dim": base_stabilizer_dim})

    # the block stabilizer of x is cor3's counterexample record, decided
    # once per (scenario, cutoff)
    block = run_counterexample_trial(scenario, rtol)
    check("block_stabilizer_dim_1", block["intersection_dim"] == 1,
          {"dim": block["intersection_dim"]})
    check("block_stabilizer_nilpotent",
          block["generator_type"] == subalgebra.NILPOTENT,
          {"generator_type": block["generator_type"]})
    check("block_stabilizer_not_reductive",
          block["verdict"] == subalgebra.NOT_REDUCTIVE,
          {"verdict": block["verdict"]})

    x = reps.act(rep, scenario.fixed_element, v0)
    h_verdict = closedness_verdict(rep, scenario.subgroup, x, config.flow,
                                   rtol=rtol)
    check("block_orbit_non_closed", h_verdict.status == NON_CLOSED,
          {"status": h_verdict.status,
           "start_orbit_dim": h_verdict.start_orbit_dim,
           "limit_orbit_dim": h_verdict.limit_orbit_dim})

    g_verdict = closedness_verdict(rep, scenario.group, x, config.flow,
                                   rtol=rtol)
    check("ambient_orbit_closed", g_verdict.status == CLOSED,
          {"status": g_verdict.status,
           "start_orbit_dim": g_verdict.start_orbit_dim,
           "limit_orbit_dim": g_verdict.limit_orbit_dim})

    summary = {
        "all_passed": all(a["passed"] for a in assertions),
        "assertions_passed": sum(a["passed"] for a in assertions),
        "assertions_total": len(assertions),
        "base_orbit_dim": base.rank,
        "base_stabilizer_dim": base_stabilizer_dim,
        "base_relative_moment_norm": rel,
        "stabilizer_dim": block["intersection_dim"],
        "stabilizer_generator_type": block["generator_type"],
        "stabilizer_verdict": block["verdict"],
        "h_orbit_status": h_verdict.status,
        "g_orbit_status": g_verdict.status,
    }
    return assertions, summary


@functools.lru_cache(maxsize=None)
def run_counterexample_trial(scenario: Scenario, rtol: float) -> dict:
    """Deterministic stabilizer trial at the scenario's fixed element,
    using the counterexample subgroup (the block SL(2)).

    The record depends only on its arguments, so it is decided once per
    (scenario, rtol) in a process and cached: ``Scenario`` hashes by
    identity, and ``get_scenario`` returns one object per name.  Callers
    share the cached dict and must copy it before handing it out.
    """
    rep = scenario.representation
    h_algebra = lie_algebra_basis(scenario.counterexample_subgroup)
    x = reps.act(rep, scenario.fixed_element, scenario.base_point)
    return _intersection(rep, h_algebra, x, rtol)[0]


def _run_one(config: ExperimentConfig, index: int) -> dict:
    """Trial ``index`` of a trial-based kind, run at the seed derived from
    (config.seed, index); also the process pool's entry point, to which
    the frozen config travels pickled."""
    seed = trial_seed(config.seed, index)
    run_trial = _KINDS[config.kind][0]
    return {"index": index, "seed": seed,
            **run_trial(get_scenario(config.scenario), config, seed)}


def _summarize_flow(config: ExperimentConfig, records: list,
                    bar: float) -> tuple[dict, str | None]:
    counts = Counter(r["status"] for r in records)
    # a closed orbit never has a non-reductive stabilizer
    closed_but_not_reductive = sum(
        1 for r in records if r["status"] == CLOSED
        and r["stabilizer_verdict"] == subalgebra.NOT_REDUCTIVE)
    converged = counts[CLOSED] + counts[NON_CLOSED]
    prevalence = counts[CLOSED] / converged if converged else 0.0
    summary = {
        "closed": counts[CLOSED],
        "non_closed": counts[NON_CLOSED],
        "inconclusive": counts[INCONCLUSIVE],
        "converged": converged,
        "closed_prevalence": prevalence,
        "inconclusive_rate": counts[INCONCLUSIVE] / len(records),
        "max_iterations_used": max(r["iterations"] for r in records),
        "closed_but_not_reductive": closed_but_not_reductive,
    }
    if closed_but_not_reductive:
        return summary, "math"
    return _accept(summary, prevalence >= bar)


def _accept(summary: dict, bar_met: bool) -> tuple[dict, str | None]:
    """The acceptance rule of every statistical kind: an inconclusive rate
    above INCONCLUSIVE_CAP fails as "inconclusive", else the kind's bar
    decides ("math").  Under the cap at least one trial is decided, so a
    bar of 1 fails on the first decided failure and on nothing else.
    Returns the summary and the failure, None when the kind passed."""
    if summary["inconclusive_rate"] > INCONCLUSIVE_CAP:
        return summary, "inconclusive"
    return summary, None if bar_met else "math"


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run all trials of an experiment and aggregate the report.

    The report is a pure function of the config; ``workers`` (at least
    1) only parallelizes independent trials, and no more workers start
    than there are trials.
    """
    if not (is_integer(workers) and workers >= 1):
        raise ConfigurationError("workers must be an integer >= 1")
    start = time.perf_counter()
    if config.kind == EXAMPLE1:
        records, summary = run_example1_pipeline(config)
        failure = None if summary["all_passed"] else "math"
    else:
        indices = range(config.trials)
        # a fork pool launches every worker at its first submit; map
        # returns the records in trial order
        workers = min(workers, config.trials)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_run_one, [config] * config.trials,
                                        indices))
        else:
            records = [_run_one(config, i) for i in indices]
        _, summarize, bar = _KINDS[config.kind]
        summary, failure = summarize(config, records, bar)
    wall = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config, records, summary, failure, wall)


def _summarize_cor3(config: ExperimentConfig, records: list,
                    bar: float) -> tuple[dict, str | None]:
    """Prevalence of reductive stabilizers over the trials, with the
    counterexample record as the non-reductive witness the bar requires.
    That record is decided once per (scenario, ``rank_rtol``) and reused,
    so a short run pays only for its trials."""
    counts = Counter(r["verdict"] for r in records)
    decided = counts[subalgebra.REDUCTIVE] + counts[subalgebra.NOT_REDUCTIVE]
    prevalence = counts[subalgebra.REDUCTIVE] / decided if decided else 0.0
    dim1_semisimple = all(
        r["generator_type"] == subalgebra.SEMISIMPLE
        for r in records
        if r["intersection_dim"] == 1 and r["verdict"] == subalgebra.REDUCTIVE)
    # both cor3 scenarios carry the counterexample's element and subgroup;
    # each report gets its own copy of the cached record
    counterexample = dict(run_counterexample_trial(
        get_scenario(config.scenario), config.rank_rtol))
    summary = {
        "reductive": counts[subalgebra.REDUCTIVE],
        "not_reductive": counts[subalgebra.NOT_REDUCTIVE],
        "inconclusive": counts[subalgebra.INCONCLUSIVE],
        "decided": decided,
        "reductive_prevalence": prevalence,
        "inconclusive_rate": counts[subalgebra.INCONCLUSIVE] / len(records),
        "dimension_histogram": dict(Counter(str(r["intersection_dim"])
                                            for r in records)),
        "dim1_generators_semisimple": dim1_semisimple,
        "counterexample": counterexample,
    }
    return _accept(summary, prevalence >= bar and dim1_semisimple
                   and counterexample["verdict"] == subalgebra.NOT_REDUCTIVE)


def _summarize_real_complex(config: ExperimentConfig, records: list,
                            bar: float) -> tuple[dict, str | None]:
    agreements = sum(1 for r in records if r["agree"] is True)
    disagreements = sum(1 for r in records if r["agree"] is False)
    inconclusive_pairs = sum(1 for r in records if r["agree"] is None)
    summary = {
        "agreements": agreements,
        "disagreements": disagreements,
        "inconclusive_pairs": inconclusive_pairs,
        "inconclusive_rate": inconclusive_pairs / len(records),
    }
    decided = agreements + disagreements
    prevalence = agreements / decided if decided else 0.0
    return _accept(summary, prevalence >= bar)


# Each trial-based kind: (trial runner, summarizer of its records, the
# prevalence bar its summarizer applies).  A generic statement holds on
# PREVALENCE_BAR of the decided trials, a statement about every point on
# all of them.  The example1 kind is one deterministic pipeline and has
# no entry.
_KINDS = {
    THEOREM1: (_flow_trial, _summarize_flow, PREVALENCE_BAR),
    COR2_NORMAL: (_flow_trial, _summarize_flow, 1.0),
    COR3_INTERSECTION: (_cor3_trial, _summarize_cor3, PREVALENCE_BAR),
    COR5_DIRECT_SUM: (_flow_trial, _summarize_flow, PREVALENCE_BAR),
    REAL_COMPLEX: (_real_complex_trial, _summarize_real_complex, 1.0),
}
