"""Set-up time and peak memory of a fresh interpreter for one workload.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times ``import orbitlab`` up to the first trial's input being ready
(scenario build, algebra and Cartan caches), then runs that trial's
verdict calls and prints {"setup_s": ..., "peak_rss_mb": ...}.
"""

import json
import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports orbitlab, numpy and scipy)


def main(name: str, seed: int) -> None:
    prep = workloads.prepare(workloads.WORKLOADS[name])
    x = workloads.trial_input(prep, workloads.chunk_seed(seed, 0), 0)
    setup_s = time.perf_counter() - START
    workloads.verdict(prep, x)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kib / 1024.0}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
