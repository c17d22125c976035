"""Command-line front end: one subcommand per capability, JSON in and out.

Exit codes:
  0  all assertions / prevalence bars met
  1  a mathematical assertion failed
  2  configuration or parse error
  3  excessive inconclusive rate
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

from . import _linalg, experiments, kempfness, reps, subalgebra
from .errors import OrbitLabError
from .experiments import ExperimentConfig
from .groups import GroupSpec, LieAlgebraBasis, lie_algebra_basis
from .kempfness import FlowConfig

EXIT_OK = 0
EXIT_MATH = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


def _fail_config(message: str):
    json.dump({"error": "configuration", "message": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(EXIT_CONFIG)


def _load(path: str, read):
    """``read`` of the JSON at ``path`` ('-' for stdin); any bad input exits 2."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
        return read(data)
    except (OSError, OrbitLabError, LookupError, TypeError, ValueError) as exc:
        _fail_config(f"bad input: {exc}")


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit(payload: dict, out: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _problem(data: dict):
    """Representation, vector and optional subgroup (else the rep's group)."""
    rep = reps.Representation.from_json(data["representation"])
    group = (GroupSpec.from_json(data["subgroup"]) if "subgroup" in data
             else rep.group)
    return rep, reps.vector_from_json(rep, data["vector"]), group


def _domain_errors_exit_2(fn):
    """Domain errors (bad groups, shapes, non-theta-stable algebras) are
    configuration errors from the CLI's point of view."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OrbitLabError as exc:
            _fail_config(str(exc))
    return wrapper


def _positive(ctx, param, value: float) -> float:
    if not value > 0:
        _fail_config(f"{param.opts[0]} must be positive")
    if not math.isfinite(value):
        _fail_config(f"{param.opts[0]} must be finite")
    return value


def _relative_cutoff(ctx, param, value: float) -> float:
    """A positive cutoff below 1: at 1 or more even the largest singular
    value is dropped, so every rank reads 0."""
    if not _positive(ctx, param, value) < 1:
        _fail_config(f"{param.opts[0]} must be below 1")
    return value


input_option = click.option("--in", "input_path", default="-", show_default=True,
                            help="JSON input file ('-' for stdin)")
out_option = click.option("--out", default=None, help="output path (default stdout)")
moment_tol_option = click.option("--moment-tol", type=float, show_default=True,
                                 default=FlowConfig.moment_tolerance,
                                 help="the flow's moment tolerance")
max_iters_option = click.option("--max-iters", type=int, show_default=True,
                                default=FlowConfig.max_iterations,
                                help="the flow's iteration budget")
rank_tol_option = click.option("--rank-tol", type=float,
                               default=_linalg.RANK_RTOL, show_default=True,
                               callback=_relative_cutoff,
                               help="relative singular-value threshold for "
                                    "rank decisions")


@click.group()
def main():
    """Numerical laboratory for orbit closedness on reductive group actions."""


@main.command()
@input_option
@out_option
@moment_tol_option
@max_iters_option
@rank_tol_option
@_domain_errors_exit_2
def closedness(input_path, out, moment_tol, max_iters, rank_tol):
    """Decide closedness of a vector's orbit, optionally under a subgroup.

    Input: {"representation": {...}, "vector": ..., "subgroup": {...}?}
    """
    rep, vector, group = _load(input_path, _problem)
    config = FlowConfig(moment_tol, max_iters)
    verdict = kempfness.closedness_verdict(rep, group, vector, config,
                                           rtol=rank_tol)
    _emit(verdict.to_json(rep), out)
    sys.exit(EXIT_OK if verdict.status != kempfness.INCONCLUSIVE
             else EXIT_INCONCLUSIVE)


@main.command()
@input_option
@out_option
@click.option("--tolerance", type=float, default=FlowConfig.moment_tolerance,
              show_default=True, callback=_positive,
              help="scale-invariant minimality tolerance")
@_domain_errors_exit_2
def minimal(input_path, out, tolerance):
    """Test whether a vector is minimal, optionally under a subgroup."""
    rep, vector, group = _load(input_path, _problem)
    rel = kempfness.relative_moment_norm(rep, group, vector)
    _emit({
        "minimal": rel <= tolerance,
        "relative_moment_norm": rel,
        "tolerance": tolerance,
    }, out)
    sys.exit(EXIT_OK)


@main.command()
@input_option
@out_option
@rank_tol_option
@_domain_errors_exit_2
def stabilizer(input_path, out, rank_tol):
    """Stabilizer subalgebra of a vector; optionally under a subgroup.

    Input: {"representation": {...}, "vector": ..., "subgroup": {...}?}
    """
    rep, vector, group = _load(input_path, _problem)
    algebra = lie_algebra_basis(group)
    decision = reps.orbit_dimension_info(rep, algebra, vector, rank_tol)
    stab = reps._stabilizer_subalgebra(algebra, decision)
    _emit({"dimension": stab.dim, "rank_ambiguous": decision.ambiguous,
           "basis": stab.to_json()}, out)
    sys.exit(EXIT_INCONCLUSIVE if decision.ambiguous else EXIT_OK)


@main.command()
@input_option
@out_option
@rank_tol_option
@_domain_errors_exit_2
def reductive(input_path, out, rank_tol):
    """Reductivity verdict for a bracket-closed matrix Lie algebra.

    Input: {"algebra": {"field": ..., "size": n, "matrices": [...]}}
    """
    basis = _load(input_path,
                  lambda data: LieAlgebraBasis.from_json(data["algebra"]))
    report = subalgebra.reductivity_verdict(basis, rtol=rank_tol)
    _emit(report.to_json(), out)
    if report.verdict == subalgebra.INCONCLUSIVE:
        sys.exit(EXIT_INCONCLUSIVE)
    sys.exit(EXIT_OK)


@main.command(name="orbit-dim")
@input_option
@out_option
@rank_tol_option
@_domain_errors_exit_2
def orbit_dim(input_path, out, rank_tol):
    """Orbit dimension of a vector (over the group's field)."""
    rep, vector, group = _load(input_path, _problem)
    algebra = lie_algebra_basis(group)
    decision = reps.orbit_dimension_info(rep, algebra, vector, rank_tol)
    _emit({"orbit_dim": decision.rank, "rank_ambiguous": decision.ambiguous,
           "field": algebra.field}, out)
    sys.exit(EXIT_INCONCLUSIVE if decision.ambiguous else EXIT_OK)


@main.command()
@click.option("--scenario", required=True, help="scenario name (see catalog)")
@click.option("--kind", default=None,
              help="experiment kind (defaults to the scenario's natural kind)")
@click.option("--trials", type=int, default=ExperimentConfig.trials,
              show_default=True, help="number of trials")
@click.option("--seed", type=int, default=ExperimentConfig.seed,
              show_default=True)
@click.option("--spread", type=float, default=ExperimentConfig.spread,
              show_default=True,
              help="std-dev of the Gaussian Lie-algebra coefficients")
@click.option("--workers", type=int, default=1, show_default=True,
              help="concurrent trial workers (result is identical for any N)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@out_option
@moment_tol_option
@max_iters_option
@rank_tol_option
@_domain_errors_exit_2
def experiment(scenario, kind, trials, seed, spread, workers, fmt, out,
               moment_tol, max_iters, rank_tol):
    """Run a named experiment and report per-trial records plus a summary."""
    config = ExperimentConfig(
        kind=kind or experiments.get_scenario(scenario).default_kind,
        scenario=scenario,
        trials=trials,
        seed=seed,
        spread=spread,
        flow=FlowConfig(moment_tol, max_iters),
        rank_rtol=rank_tol,
    )
    report = experiments.run_experiment(config, workers=workers)
    if fmt == "csv":
        _write(report.to_csv_str(), out)
    else:
        _emit(report.to_json(), out)
    if report.passed:
        sys.exit(EXIT_OK)
    sys.exit(EXIT_INCONCLUSIVE if report.failure == "inconclusive" else EXIT_MATH)


@main.command()
@out_option
def catalog(out):
    """List the built-in scenarios."""
    _emit({"scenarios": experiments.scenario_catalog()}, out)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
