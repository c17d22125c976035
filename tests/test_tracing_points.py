"""The benchmark's tracer wraps package functions by module attribute.

``perfbench/spans.py`` skips an attribute that no longer exists, so a
renamed or inlined layer would silently read as unused in the next
traced run.  These tests load the tracer read-only and fail instead.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import kempfness, subalgebra

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_point_resolves(spans):
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in spans._SPAN_POINTS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_structure_layers_are_called_through_their_modules(spans):
    # sl(2) + scalars has a center and a derived part, so every layer of
    # the reductivity analysis runs once
    sl2 = ol.lie_algebra_basis(ol.special_linear(2, "complex")).matrices
    basis = ol.LieAlgebraBasis(np.concatenate([sl2, np.eye(2)[None] + 0j]),
                               "complex", 2)
    tracer = spans.Tracer()
    with tracer.installed():
        subalgebra.reductivity_verdict(basis)
    called = {span[0] for span in tracer.spans}
    assert {"subalgebra.reductivity_verdict", "subalgebra.structure_report",
            "subalgebra.bracket_closure_residual", "subalgebra.element_type",
            "linalg.matrix_rank"} <= called


def test_flow_layers_are_called_through_their_modules(spans, alt6, sl2_block,
                                                     x_translate):
    # the benchmark counts backtracks as expm calls minus accepted steps,
    # so every trial exponential must pass through kempfness.matrix_exp
    tracer = spans.Tracer()
    with tracer.installed():
        verdict = kempfness.closedness_verdict(alt6, sl2_block, x_translate)
    calls = Counter(span[0] for span in tracer.spans)
    accepted = len(verdict.trace.norms) - 1
    assert accepted == verdict.trace.iterations_used > 0
    assert calls["kempfness.expm"] >= accepted
    assert calls["kempfness.moment_vector"] >= verdict.trace.iterations_used
    metrics = tracer.metrics()
    backtracks = calls["kempfness.expm"] - accepted
    assert metrics["kempfness.flow.backtracks"] == backtracks
    assert 0 < metrics["kempfness.line_search.accept_ratio"] <= 1
    # a correctly scaled Newton step is accepted at full length here
    assert backtracks == 0


# With rtol >= 0.1 the largest singular value always falls inside the
# ambiguity band, so every nontrivial rank decision is flagged: the
# tracer's counter and the inconclusive verdict show that the threaded
# value reached the decisions.
LOOSE_RTOL = 0.5


def _traced(spans, call):
    tracer = spans.Tracer()
    with tracer.installed():
        result = call()
    called = {span[0] for span in tracer.spans}
    return result, called, tracer.counts["rank_ambiguous"]


def test_threaded_closedness_verdict_is_traced(spans):
    sl2 = ol.special_linear(2, "complex")
    rep = ol.sym2(sl2)
    v = np.array([[1.0, 0.3], [0.3, 2.0]], dtype=complex)
    verdict, called, ambiguous = _traced(
        spans, lambda: kempfness.closedness_verdict(rep, sl2, v,
                                                    rtol=LOOSE_RTOL))
    assert {"kempfness.closedness_verdict", "kempfness.norm_flow",
            "kempfness.moment_vector", "linalg.matrix_rank"} <= called
    # the start decision reads the flow's first D, not a second orbit map
    assert "reps.orbit_dimension_info" not in called
    assert ambiguous > 0
    assert verdict.status == kempfness.INCONCLUSIVE
    verdict, _, ambiguous = _traced(
        spans, lambda: kempfness.closedness_verdict(rep, sl2, v))
    assert (verdict.status, ambiguous) == (kempfness.CLOSED, 0)


def test_threaded_reductivity_verdict_is_traced(spans):
    basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
    report, called, ambiguous = _traced(
        spans, lambda: subalgebra.reductivity_verdict(basis, rtol=LOOSE_RTOL))
    assert {"subalgebra.reductivity_verdict", "subalgebra.structure_report",
            "subalgebra.bracket_closure_residual", "linalg.matrix_rank"} <= called
    assert ambiguous > 0
    assert report.verdict == subalgebra.INCONCLUSIVE
    report, _, ambiguous = _traced(
        spans, lambda: subalgebra.reductivity_verdict(basis))
    assert (report.verdict, ambiguous) == (subalgebra.REDUCTIVE, 0)
