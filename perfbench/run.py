"""orbitlab benchmark: throughput, verdict latency and per-layer time.

Usage, from the repository root:

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 50 --trace 0

Workloads are ``theorem1``, ``cor3`` and ``cor5`` (see workloads.py and
README.md).
Every run first checks, untimed: the example1 counterexample (all 8
assertions), the verdict fingerprint of the workload at the default seed
against reference.json, that no closed orbit has a non-reductive
stabilizer, and that ``workers=2`` gives the ``workers=1`` payload.

``--trace 0`` then runs experiments of CHUNK_TRIALS trials, with seeds
derived from ``--seed``, for ``--seconds`` seconds, and after each one
times the public verdict calls on the same inputs (regenerated untimed).
``--trace 1`` instead runs a fixed set of experiments, alternately plain
and with every layer wrapped by the tracer in spans.py, for
``--seconds`` seconds, and reports the traced pass of median wall time.

A JSON line of machine facts and sample counts comes first; the last
stdout line is {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when a check fails and 2 when the package is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Trials per run_experiment call while measuring.  Flow iteration counts
# are heavy-tailed, so a call's rate is noisy; small calls and the median
# over many of them keep trials_per_s steady between seeds.
CHUNK_TRIALS = 2
WORKERS_CHECK_TRIALS = 4
SETUP_PROBES = 5          # fresh interpreters per run; the median is reported
TRACE_EXPERIMENTS = 25    # experiments in one traced pass

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "predicted_share": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "cpu_over_wall")):
        return "ratio"
    return "count"


class Checks:
    """Correctness failures seen during the run."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var, "unset")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def example1_gate(checks: Checks) -> None:
    from orbitlab import experiments
    report = experiments.run_experiment(experiments.ExperimentConfig(
        kind=experiments.EXAMPLE1, scenario="example1"))
    passed = sum(a["passed"] for a in report.trials)
    checks.require(passed == len(report.trials) == 8,
                   f"example1 gate: {passed} of {len(report.trials)} "
                   "assertions passed, 8 of 8 required")


def reference_check(prep, checks: Checks) -> dict:
    """Fingerprint and payload hash at the seed and trial count recorded in
    reference.json (the package defaults)."""
    import workloads
    from orbitlab import experiments
    name = prep.workload.name
    reference = json.loads((HERE / "reference.json").read_text())
    report = experiments.run_experiment(
        prep.config(reference["seed"], reference["trials"]))
    expected = reference["workloads"][name]
    found = {"fingerprint": workloads.fingerprint(prep.workload, report),
             "payload_sha256": workloads.payload_hash(report)}
    checks.require(found["fingerprint"] == expected["fingerprint"],
                   f"{name}: verdict fingerprint {found['fingerprint']} "
                   f"differs from reference.json")
    checks.require(
        workloads.closed_but_not_reductive(prep.workload, report) == 0,
        f"{name}: a closed orbit has a non-reductive stabilizer at the "
        "reference seed")
    found["payload_matches_reference"] = (
        found["payload_sha256"] == expected["payload_sha256"])
    return found


def workers_check(prep, checks: Checks) -> None:
    from orbitlab import experiments
    config = prep.config(0, WORKERS_CHECK_TRIALS)
    one = experiments.run_experiment(config, workers=1)
    two = experiments.run_experiment(config, workers=2)
    checks.require(one.to_json_str(include_wall_time=False)
                   == two.to_json_str(include_wall_time=False),
                   f"{prep.workload.name}: workers=2 payload differs "
                   "from workers=1")


def setup_metrics(name: str, seed: int) -> dict:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return {key: statistics.median(p[key] for p in probes)
            for key in ("setup_s", "peak_rss_mb")}


def measure(prep, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Untraced throughput and verdict latency over seeded experiments."""
    import workloads
    from orbitlab import experiments
    workload = prep.workload
    rates: list[float] = []
    latencies: list[float] = []
    trials = hits = violations = mismatches = 0
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        config = prep.config(workloads.chunk_seed(seed, len(rates)),
                             CHUNK_TRIALS)
        t0 = time.perf_counter()
        report = experiments.run_experiment(config)
        rates.append(CHUNK_TRIALS / (time.perf_counter() - t0))
        for record in report.trials:
            x = workloads.trial_input(prep, config.seed, record["index"])
            t0 = time.perf_counter()
            out = workloads.verdict(prep, x)
            latencies.append(time.perf_counter() - t0)
            if not workloads.matches_record(out, record):
                mismatches += 1
                checks.require(False, f"{workload.name}: verdict calls "
                               f"gave {out} where the report has {record}")
            hits += workloads.predicted(workload, record)
        violations += workloads.closed_but_not_reductive(workload, report)
        trials += len(report.trials)
    checks.require(violations == 0, f"{workload.name}: {violations} closed "
                   "orbits with a non-reductive stabilizer")
    metrics = {
        "trials_per_s": statistics.median(rates),
        "verdict_ms_p50": 1e3 * statistics.median(latencies),
        "verdict_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "predicted_share": hits / trials,
    }
    counts = {"experiments": len(rates), "trials": trials,
              "latency_samples": len(latencies), "failed": mismatches,
              "missed_prediction": trials - hits}
    return metrics, counts


def trace_run(prep, seed: int, seconds: float,
              checks: Checks) -> tuple[dict, dict]:
    """Alternate plain and traced passes over a fixed set of experiments.

    Each pass starts with the example1 pipeline, which enters every layer,
    so no layer time reads a constant zero on a workload that skips the
    layer (cor3 never runs the flow); its share is the same in every pass.
    """
    import spans
    import workloads
    from orbitlab import experiments
    example1 = experiments.ExperimentConfig(kind=experiments.EXAMPLE1,
                                            scenario="example1")
    configs = [prep.config(workloads.chunk_seed(seed, e), CHUNK_TRIALS)
               for e in range(TRACE_EXPERIMENTS)]
    labels = ["example1"] + list(range(TRACE_EXPERIMENTS))
    passes = []
    trials = hits = changed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        cpu0, t0 = time.process_time(), time.perf_counter()
        plain = [experiments.run_experiment(c) for c in [example1] + configs]
        plain_wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        tracer = spans.Tracer()
        traced = []
        with tracer.installed():
            t0 = time.perf_counter()
            for label, config in zip(labels, [example1] + configs):
                tracer.experiment = label
                traced.append(experiments.run_experiment(config))
            traced_wall = time.perf_counter() - t0
        for a, b in zip(plain, traced):
            if (a.to_json_str(include_wall_time=False)
                    != b.to_json_str(include_wall_time=False)):
                changed += len(a.trials)
                checks.require(False, f"{prep.workload.name}: tracing "
                               "changed a report")
        for report in plain[1:]:
            trials += len(report.trials)
            hits += sum(workloads.predicted(prep.workload, r)
                        for r in report.trials)
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.remainder_s"] = (traced_wall
                                        - sum(tracer.self_times().values()))
        passes.append((traced_wall, plain_wall, cpu, metrics,
                       tracer.per_trial()))
    # Report the traced pass of median wall time, whole, so that its self
    # times and remainder add up to its wall time.
    *_, metrics, per_trial = sorted(passes, key=lambda p: p[0])[
        (len(passes) - 1) // 2]
    metrics.update({
        "trace.overhead_s": statistics.median(p[0] for p in passes)
                            - statistics.median(p[1] for p in passes),
        "process.cpu_over_wall": sum(p[2] for p in passes)
                                 / sum(p[1] for p in passes),
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{prep.workload.name}-seed{seed}.json").write_text(
        json.dumps({"experiment_seeds": [c.seed for c in configs],
                    "per_trial": per_trial}, sort_keys=True))
    counts = {"passes": len(passes), "trials_per_pass":
              TRACE_EXPERIMENTS * CHUNK_TRIALS, "trials": trials,
              "failed": changed, "missed_prediction": trials - hits}
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitlab" / "__init__.py").is_file():
        print(f"orbitlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(workloads.WORKLOADS)}")

    info = {"facts": machine_facts(args.workload, args.seed)}
    checks = Checks()
    example1_gate(checks)
    prep = workloads.prepare(workloads.WORKLOADS[args.workload])
    info["reference"] = reference_check(prep, checks)
    workers_check(prep, checks)
    if args.trace:
        raw, counts = trace_run(prep, args.seed, args.seconds, checks)
        units = {name: per_layer_unit(name) for name in raw}
    else:
        raw, counts = measure(prep, args.seed, args.seconds, checks)
        raw.update(setup_metrics(args.workload, args.seed))
        units = END_TO_END_UNITS
    info["counts"] = counts
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": counts["trials"],
        "failed": counts["failed"],
        "metrics": {name: {"value": raw[name], "unit": units[name]}
                    for name in sorted(raw)},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
