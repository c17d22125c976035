"""Per-layer tracing from outside the package.

The tracer replaces module attributes that callers look up at call time
(``kempfness.moment_vector``, ``reps.inner_product``, ...) with timing
wrappers and puts the originals back afterwards.  A call re-entering a
layer that is already open (the recursion of ``reps.act`` over direct-sum
components, say) runs untraced, so each layer is counted at its
outermost call only.  One span is kept per call; a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from orbitlab import _linalg, experiments, groups, kempfness, reps, subalgebra

# (module, attribute, layer name).  One name may be installed at several
# modules when the function is imported by name elsewhere.
_SPAN_POINTS = (
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "random_group_element", "groups.random_group_element"),
    (groups, "random_group_element", "groups.random_group_element"),
    (experiments, "closedness_verdict", "kempfness.closedness_verdict"),
    (kempfness, "closedness_verdict", "kempfness.closedness_verdict"),
    (kempfness, "norm_flow", "kempfness.norm_flow"),
    (kempfness, "moment_vector", "kempfness.moment_vector"),
    (kempfness, "matrix_exp", "kempfness.expm"),
    (reps, "act", "reps.act"),
    (reps, "differential_act", "reps.differential_act"),
    (reps, "inner_product", "reps.inner_product"),
    (reps, "orbit_dimension_info", "reps.orbit_dimension_info"),
    (reps, "stabilizer_subalgebra", "reps.stabilizer_subalgebra"),
    (subalgebra, "reductivity_verdict", "subalgebra.reductivity_verdict"),
    (subalgebra, "structure_report", "subalgebra.structure_report"),
    (subalgebra, "bracket_closure_residual",
     "subalgebra.bracket_closure_residual"),
    (subalgebra, "element_type", "subalgebra.element_type"),
    (_linalg, "null_space", "linalg.null_space"),
    (_linalg, "matrix_rank", "linalg.matrix_rank"),
)

_CALL_COUNTED = ("kempfness.moment_vector", "kempfness.expm", "reps.act",
                 "reps.differential_act", "reps.inner_product",
                 "subalgebra.element_type", "linalg.null_space",
                 "linalg.matrix_rank", "groups.random_group_element")

_LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in _SPAN_POINTS))


class Tracer:
    """Collects spans and counters while installed; not thread-safe."""

    def __init__(self):
        self.experiment = None   # set by the caller before each experiment
        self.trial = None
        # [name, key, parent span index, start, end, self time]; the key is
        # "experiment:trial", or the experiment alone outside any trial
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.iterations_max = 0
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._active: set[str] = set()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            key = self.trial if self.trial is not None else self.experiment
            self.spans.append([name, key, parent, 0.0, 0.0, 0.0])
            self._active.add(name)
            self._open.append(index)
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self._active.discard(name)
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += end - start
                self.spans[index][3:] = [start, end, end - start - children]
            if name == "kempfness.norm_flow":
                self._count_flow(result)
            return result
        return traced

    def _count_flow(self, trace):
        self.counts["iterations"] += trace.iterations_used
        self.counts["accepted_steps"] += len(trace.norms) - 1
        self.iterations_max = max(self.iterations_max, trace.iterations_used)

    def _count_ambiguous(self, fn):
        def counted(*args, **kwargs):
            decision = fn(*args, **kwargs)
            self.counts["rank_ambiguous"] += bool(decision.ambiguous)
            return decision
        return counted

    def _run_one(self, fn):
        def keyed(config_json, index):
            self.trial = f"{self.experiment}:{index}"
            try:
                return fn(config_json, index)
            finally:
                self.trial = None
        return keyed

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span point for the duration of the block.

        Attributes a later version of the package no longer has are
        skipped; their layer then reads as unused.
        """
        patches = [(module, attr, self._wrap(name, getattr(module, attr)))
                   for module, attr, name in _SPAN_POINTS
                   if hasattr(module, attr)]
        patches.append((_linalg, "rank_from_singular_values",
                        self._count_ambiguous(
                            _linalg.rank_from_singular_values)))
        if hasattr(experiments, "_run_one"):
            patches.append((experiments, "_run_one",
                            self._run_one(experiments._run_one)))
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        out = dict.fromkeys(_LAYER_NAMES, 0.0)
        for name, *_, self_time in self.spans:
            out[name] += self_time
        return out

    def metrics(self) -> dict[str, float]:
        calls = Counter(span[0] for span in self.spans)
        out = {f"{name}.self_s": t for name, t in self.self_times().items()}
        out.update({f"{name}.calls": calls[name] for name in _CALL_COUNTED})
        expm = calls["kempfness.expm"]
        accepted = self.counts["accepted_steps"]
        out.update({
            "kempfness.flow.iterations": self.counts["iterations"],
            "kempfness.flow.iterations_max": self.iterations_max,
            "kempfness.flow.backtracks": expm - accepted,
            "kempfness.line_search.accept_ratio":
                accepted / expm if expm else 0.0,
            "linalg.rank_ambiguous": self.counts["rank_ambiguous"],
        })
        return out

    def per_trial(self) -> dict[str, dict[str, list]]:
        """Calls and self time of each layer, keyed by "experiment:trial";
        spans outside any trial go under the experiment's own label."""
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for name, trial, *_, self_time in self.spans:
            cell = table[str(trial)][name]
            cell[0] += 1
            cell[1] += self_time
        return {trial: dict(cells) for trial, cells in table.items()}
