"""The verdict matrix: every trial-based experiment's verdicts at the
spreads and tolerances a user can reach, compared with a committed file.

Each entry is one 100-trial run: the 8 trial-based scenario x kind pairs
at spreads 1, 2 and 3 and seeds 0 and 1, and theorem1 on example1 at
loose and tight moment tolerances and rank cutoffs.  An entry records
the run's status counts, its ``failure`` (None, "math" or "inconclusive",
so its exit code) and a sha256 of the per-trial (status, dimensions)
tuples.  Runs that fail are recorded as they fail.  A change that moves
an entry rewrites the file and names the move and its cause:

    PYTHONPATH=src python tests/test_verdict_matrix.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

from orbitlab.experiments import ExperimentConfig, run_experiment
from orbitlab.kempfness import FlowConfig

MATRIX_PATH = Path(__file__).parent / "data" / "verdict_matrix.json"

PAIRS = (("example1", "theorem1"), ("example1", "cor3-intersection"),
         ("sl4-block", "cor3-intersection"), ("sl4-block", "theorem1"),
         ("normal-factor", "cor2-normal"), ("normal-factor", "theorem1"),
         ("sym2-sum", "cor5-direct-sum"),
         ("sl2-real-complex", "real-complex-agreement"))
SPREADS = (1.0, 2.0, 3.0)
SEEDS = (0, 1)
MOMENT_TOLERANCES = (0.1, 0.3, 0.99)
RANK_RTOLS = (1e-6, 1e-12)

# (verdict fields, dimension fields) of a trial record, per kind
_FLOW_FIELDS = (("status", "stabilizer_verdict"),
                ("start_orbit_dim", "limit_orbit_dim", "stabilizer_dim"))
_FIELDS = {
    "theorem1": _FLOW_FIELDS,
    "cor2-normal": _FLOW_FIELDS,
    "cor5-direct-sum": _FLOW_FIELDS,
    "cor3-intersection": (("verdict", "generator_type"),
                          ("intersection_dim", "derived_dim", "center_dim")),
    "real-complex-agreement": (("real_status", "complex_status", "agree"),
                               ("real_orbit_dim", "complex_orbit_dim")),
}


def _configs() -> dict:
    """Every run of the matrix, by its entry name."""
    configs = {}
    for scenario, kind in PAIRS:
        for spread in SPREADS:
            for seed in SEEDS:
                configs[f"{scenario}/{kind}/spread={spread}/seed={seed}"] = (
                    ExperimentConfig(kind=kind, scenario=scenario,
                                     spread=spread, seed=seed))
    for seed in SEEDS:
        for tol in MOMENT_TOLERANCES:
            configs[f"example1/theorem1/moment_tolerance={tol}/seed={seed}"] = (
                ExperimentConfig(kind="theorem1", scenario="example1",
                                 seed=seed, flow=FlowConfig(tol)))
        for rtol in RANK_RTOLS:
            configs[f"example1/theorem1/rank_rtol={rtol}/seed={seed}"] = (
                ExperimentConfig(kind="theorem1", scenario="example1",
                                 seed=seed, rank_rtol=rtol))
    return configs


def _entry(config: ExperimentConfig) -> dict:
    report = run_experiment(config)
    verdicts, dims = _FIELDS[config.kind]
    rows = [[record[k] for k in verdicts + dims] for record in report.trials]
    counts = Counter("/".join(str(row[i]) for i in range(len(verdicts)))
                     for row in rows)
    return {
        "counts": dict(sorted(counts.items())),
        "failure": report.failure,
        "trials_sha256": hashlib.sha256(
            json.dumps(rows).encode()).hexdigest(),
    }


def build() -> dict:
    return {name: _entry(config) for name, config in _configs().items()}


def test_no_verdict_moves():
    recorded = json.loads(MATRIX_PATH.read_text())
    found = build()
    moved = sorted(name for name in recorded.keys() | found.keys()
                   if recorded.get(name) != found.get(name))
    for name in moved:
        print(f"{name}: recorded {recorded.get(name)}, found {found.get(name)}")
    assert not moved, f"{len(moved)} verdict-matrix entries moved"


if __name__ == "__main__":
    MATRIX_PATH.write_text(json.dumps(build(), indent=1, sort_keys=True)
                           + "\n")
