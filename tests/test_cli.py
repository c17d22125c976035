import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import orbitlab as ol
from orbitlab import _linalg
from orbitlab.cli import main


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "orbitlab.cli", *args],
        capture_output=True, text=True, input=input_text)


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    rep = ol.alt_bilinear(ol.special_linear(6, "complex"))
    v0 = ol.standard_symplectic_form(6, "complex")
    path = tmp_path_factory.mktemp("cli") / "problem.json"
    path.write_text(json.dumps({
        "representation": rep.to_json(),
        "vector": ol.reps.vector_to_json(rep, v0),
    }))
    return path


def test_catalog_lists_example1():
    result = run_cli("catalog")
    assert result.returncode == 0
    names = {s["name"] for s in json.loads(result.stdout)["scenarios"]}
    assert "example1" in names


def test_closedness_of_zero_vector_exits_zero():
    rep = ol.alt_bilinear(ol.special_linear(6, "complex"))
    payload = json.dumps({
        "representation": rep.to_json(),
        "vector": ol.reps.vector_to_json(rep, np.zeros((6, 6), dtype=complex)),
    })
    result = run_cli("closedness", "--in", "-", input_text=payload)
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "closed"


@pytest.mark.parametrize("family", ["special_linear", "torus"])
def test_closedness_under_a_size_one_group_exits_zero(family):
    # sl(1) is empty and 1 x 1 antisymmetric matrices are only 0: the
    # trivial action, decided as the closed orbit 0 -> 0
    payload = json.dumps({
        "representation": {"kind": "alt_bilinear", "group": {
            "family": family, "size": 1, "field": "complex"}},
        "vector": [[[0, 0]]],
    })
    result = run_cli("closedness", "--in", "-", input_text=payload)
    assert result.returncode == 0, result.stderr
    verdict = json.loads(result.stdout)
    assert verdict["status"] == "closed"
    assert verdict["start_orbit_dim"] == verdict["limit_orbit_dim"] == 0


def test_closedness_of_base_form(problem_file):
    result = run_cli("closedness", "--in", str(problem_file))
    assert result.returncode == 0
    verdict = json.loads(result.stdout)
    assert verdict["status"] == "closed"
    assert verdict["start_orbit_dim"] == 14


def test_minimal_subcommand(problem_file):
    result = run_cli("minimal", "--in", str(problem_file))
    assert result.returncode == 0
    assert json.loads(result.stdout)["minimal"] is True


@pytest.fixture(scope="module")
def block_problem_file(tmp_path_factory):
    """x = (I + E_02) . v0 under the block SL(2) of the first two rows."""
    rep = ol.alt_bilinear(ol.special_linear(6, "complex"))
    g = np.eye(6, dtype=complex)
    g[0, 2] = 1.0
    x = ol.act(rep, g, ol.standard_symplectic_form(6, "complex"))
    path = tmp_path_factory.mktemp("cli") / "block_problem.json"
    path.write_text(json.dumps({
        "representation": rep.to_json(),
        "vector": ol.reps.vector_to_json(rep, x),
        "subgroup": ol.block_embedding(
            ol.special_linear(2, "complex"), 6, 0).to_json(),
    }))
    return path


def test_closedness_reads_the_subgroup(block_problem_file):
    # under the ambient SL(6) the same vector reads closed 14 -> 14
    result = run_cli("closedness", "--in", str(block_problem_file))
    assert result.returncode == 0, result.stderr
    verdict = json.loads(result.stdout)
    assert verdict["status"] == "non_closed"
    assert (verdict["start_orbit_dim"], verdict["limit_orbit_dim"]) == (2, 0)


def test_minimal_reads_the_subgroup(tmp_path):
    # diag(J, 2J, J) is minimal for the block SL(2) on the first two rows,
    # whose moment map sees only the first J, but not for SL(6)
    rep = ol.alt_bilinear(ol.special_linear(6, "complex"))
    v = ol.standard_symplectic_form(6, "complex")
    v[2:4, 2:4] *= 2.0
    problem = {"representation": rep.to_json(),
               "vector": ol.reps.vector_to_json(rep, v)}
    ambient = run_cli("minimal", "--in", "-", input_text=json.dumps(problem))
    problem["subgroup"] = ol.block_embedding(
        ol.special_linear(2, "complex"), 6, 0).to_json()
    block = run_cli("minimal", "--in", "-", input_text=json.dumps(problem))
    assert ambient.returncode == block.returncode == 0
    assert json.loads(ambient.stdout)["minimal"] is False
    assert json.loads(block.stdout)["minimal"] is True


def test_minimal_tolerance_default_is_the_flow_bar():
    defaults = {p.name: p.default for p in main.commands["minimal"].params}
    assert defaults["tolerance"] == ol.FlowConfig().moment_tolerance


def test_stabilizer_subcommand(problem_file):
    result = run_cli("stabilizer", "--in", str(problem_file))
    assert result.returncode == 0
    assert json.loads(result.stdout)["dimension"] == 21


def test_orbit_dim_with_subgroup(tmp_path):
    rep = ol.alt_bilinear(ol.special_linear(6, "complex"))
    g = np.eye(6, dtype=complex)
    g[0, 2] = 1.0
    x = ol.act(rep, g, ol.standard_symplectic_form(6, "complex"))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "representation": rep.to_json(),
        "vector": ol.reps.vector_to_json(rep, x),
        "subgroup": ol.block_embedding(
            ol.special_linear(2, "complex"), 6, 0).to_json(),
    }))
    result = run_cli("orbit-dim", "--in", str(path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["orbit_dim"] == 2


def test_reductive_subcommand():
    e12 = np.zeros((6, 6))
    e12[0, 1] = 1.0
    basis = ol.LieAlgebraBasis(np.array([e12], dtype=complex), "complex", 6)
    payload = json.dumps({"algebra": basis.to_json()})
    result = run_cli("reductive", "--in", "-", input_text=payload)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "not_reductive"


def test_reductive_on_an_ambiguous_jordan_type_exits_3():
    # the center element's nilpotent part lies in the rank cutoff's band
    payload = json.dumps({"algebra": {
        "field": "real", "size": 2, "matrices": [[[1.0, 1e-5], [0.0, 1.0]]]}})
    result = run_cli("reductive", "--in", "-", input_text=payload)
    assert result.returncode == 3
    assert json.loads(result.stdout)["verdict"] == "inconclusive"


def test_experiment_example1_exit_zero_and_keys(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("experiment", "--scenario", "example1",
                     "--out", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["summary"]["stabilizer_dim"] == 1
    assert report["summary"]["h_orbit_status"] == "non_closed"
    assert report["passed"] is True


def test_experiment_zero_trials_is_config_error():
    result = run_cli("experiment", "--scenario", "example1", "--trials", "0")
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


@pytest.mark.parametrize("option,value", [
    ("--spread", "nan"), ("--spread", "inf"), ("--moment-tol", "nan"),
    ("--moment-tol", "inf"), ("--rank-tol", "inf"), ("--rank-tol", "20"),
    ("--rank-tol", "1")])
def test_non_finite_experiment_input_is_config_error(option, value):
    result = run_cli("experiment", "--scenario", "example1", "--kind",
                     "theorem1", "--trials", "2", option, value)
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


@pytest.mark.parametrize("option,value", [
    ("--seed", "-1"), ("--workers", "0"), ("--workers", "-3")])
def test_negative_seed_or_too_few_workers_is_config_error(option, value):
    result = run_cli("experiment", "--scenario", "sym2-sum", "--trials", "2",
                     option, value)
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


def test_unknown_scenario_is_config_error():
    result = run_cli("experiment", "--scenario", "not-a-scenario")
    assert result.returncode == 2


def test_malformed_input_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = run_cli("closedness", "--in", str(path))
    assert result.returncode == 2


def test_algebra_that_is_not_bracket_closed_is_config_error():
    # [E12, E21] = diag(1, -1) lies outside span{E12, E21}
    payload = json.dumps({"algebra": {
        "field": "real", "size": 2,
        "matrices": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}})
    result = run_cli("reductive", "--in", "-", input_text=payload)
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"
    assert "not bracket-closed" in error["message"]


def test_algebra_of_the_wrong_matrix_size_is_config_error():
    # size says 3, the one matrix is 2x2 (complex [re, im] leaves)
    payload = json.dumps({"algebra": {
        "field": "complex", "size": 3,
        "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]}})
    result = run_cli("reductive", "--in", "-", input_text=payload)
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


def test_non_theta_stable_group_is_config_error():
    # this form is not compatible with conjugate transpose, so no Cartan
    # split exists and the flow cannot run
    form = np.array([[0, 2, 0, 0], [-2, 0, 1, 0],
                     [0, -1, 0, 1], [0, 0, -1, 0]], dtype=float)
    rep = ol.sym2(ol.symplectic(form=form, field="real"))
    payload = json.dumps({
        "representation": rep.to_json(),
        "vector": ol.reps.vector_to_json(rep, np.eye(4)),
    })
    result = run_cli("closedness", "--in", "-", input_text=payload)
    assert result.returncode == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


def test_experiment_reports_identical_across_workers(tmp_path):
    args = ["experiment", "--scenario", "sl4-block", "--trials", "6",
            "--seed", "11"]
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    assert run_cli(*args, "--workers", "1", "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--workers", "3", "--out", str(out2)).returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_experiment_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    result = run_cli("experiment", "--scenario", "sym2-sum", "--trials", "4",
                     "--format", "csv", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == "index"


def test_experiment_kind_override():
    result = run_cli("experiment", "--scenario", "example1", "--kind",
                     "theorem1", "--trials", "4")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["kind"] == "theorem1"
    assert report["summary"]["closed"] == 4


def test_experiment_rank_tol_is_used_and_echoed(tmp_path):
    args = ["experiment", "--scenario", "sl4-block", "--trials", "4",
            "--seed", "0"]
    outs = {}
    # the coarse cutoff lands decisions near it, so those runs are
    # inconclusive
    for name, extra, code in [
            ("default", [], 0),
            ("w1", ["--rank-tol", "0.1", "--workers", "1"], 3),
            ("w2", ["--rank-tol", "0.1", "--workers", "2"], 3)]:
        outs[name] = tmp_path / f"{name}.json"
        result = run_cli(*args, *extra, "--out", str(outs[name]))
        assert result.returncode == code, result.stderr
    reports = {name: json.loads(path.read_text())
               for name, path in outs.items()}
    for report in reports.values():
        report.pop("wall_time_ms")
    assert reports["w1"] == reports["w2"]
    assert reports["w1"]["config"]["rank_rtol"] == 0.1
    assert reports["w1"]["tolerances"]["rank_rtol"] == 0.1
    assert reports["default"]["config"]["rank_rtol"] == 1e-9
    # the coarse cutoff drops the smaller singular values of the orbit
    # map, so the stabilizers grow
    assert reports["w1"]["summary"]["dimension_histogram"] == {
        "7": 1, "4": 2, "3": 1}
    assert reports["default"]["summary"]["dimension_histogram"] == {"3": 4}


@pytest.mark.parametrize("command", [
    ["closedness"], ["stabilizer"], ["reductive"], ["orbit-dim"],
    ["experiment", "--scenario", "example1"]],
    ids=lambda command: command[0])
@pytest.mark.parametrize("value", ["0", "-1e-9"])
def test_non_positive_rank_tol_is_config_error(command, value):
    result = CliRunner().invoke(main, [*command, "--rank-tol", value],
                                input="{}")
    assert result.exit_code == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error == {"error": "configuration",
                     "message": "--rank-tol must be positive"}


# a cutoff of 1 or more drops even the largest singular value, so every
# rank reads 0; an infinite moment tolerance stops the flow at its start,
# and an infinite minimality bar passes every vector
@pytest.mark.parametrize("args", [
    *([command, "--rank-tol", value]
      for command in ("closedness", "stabilizer", "orbit-dim")
      for value in ("inf", "20", "1")),
    ["closedness", "--moment-tol", "inf"], ["minimal", "--tolerance", "inf"]],
    ids="-".join)
def test_tolerance_that_decides_nothing_is_config_error(args, problem_file):
    result = CliRunner().invoke(main, [*args, "--in", str(problem_file)])
    assert result.exit_code == 2
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"


def test_rank_tol_does_not_leak_into_the_process(problem_file):
    result = CliRunner().invoke(main, ["orbit-dim", "--in", str(problem_file),
                                       "--rank-tol", "1e-3"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["orbit_dim"] == 14
    assert _linalg.RANK_RTOL == 1e-9


# With rtol >= 0.1 the largest singular value falls inside the ambiguity
# band: the stabilizer carries the orbit-dimension decision's flag and
# exit code, as orbit-dim does, instead of printing a guessed dimension.
def test_stabilizer_reports_an_ambiguous_decision():
    rep = ol.sym2(ol.special_linear(2, "complex"))
    v = np.array([[1.0, 0.3], [0.3, 2.0]], dtype=complex)
    payload = json.dumps({"representation": rep.to_json(),
                          "vector": ol.reps.vector_to_json(rep, v)})
    outputs = {}
    for command in ("orbit-dim", "stabilizer"):
        for rank_tol in ("0.5", "1e-9"):
            result = CliRunner().invoke(main, [command, "--rank-tol", rank_tol],
                                        input=payload)
            outputs[command, rank_tol] = (result.exit_code,
                                          json.loads(result.stdout))
    for rank_tol, code, flag in (("0.5", 3, True), ("1e-9", 0, False)):
        orbit_code, orbit = outputs["orbit-dim", rank_tol]
        stab_code, stab = outputs["stabilizer", rank_tol]
        assert orbit_code == stab_code == code
        assert orbit["rank_ambiguous"] is stab["rank_ambiguous"] is flag
    assert outputs["stabilizer", "1e-9"][1]["dimension"] == 1


# A loose cutoff puts the stabilizer dimension inside the ambiguity band;
# the stabilizer is then inconclusive instead of being analysed as if it
# were a bracket-closed basis (a configuration error before).
@pytest.mark.parametrize("scenario,rank_tol", [
    ("sl4-block", "0.5"), ("example1", "0.9"), ("normal-factor", "0.9"),
    ("sym2-sum", "0.9")])
def test_ambiguous_stabilizers_are_inconclusive(scenario, rank_tol):
    kind = ["--kind", "theorem1"] if scenario == "example1" else []
    result = run_cli("experiment", "--scenario", scenario, *kind,
                     "--trials", "4", "--rank-tol", rank_tol)
    assert result.returncode == 3, result.stderr
    report = json.loads(result.stdout)
    assert report["failure"] == "inconclusive"
    verdicts = {r.get("stabilizer_verdict", r.get("verdict"))
                for r in report["trials"]}
    assert verdicts == {"inconclusive"}


def test_experiment_defaults_come_from_the_configs():
    defaults = {p.name: p.default for p in main.commands["experiment"].params}
    config = ol.ExperimentConfig(kind="theorem1", scenario="example1")
    assert defaults["trials"] == config.trials == 100
    assert (defaults["seed"], defaults["spread"]) == (config.seed,
                                                      config.spread)
    assert defaults["moment_tol"] == config.flow.moment_tolerance
    assert defaults["max_iters"] == config.flow.max_iterations
    assert defaults["rank_tol"] == config.rank_rtol


def _pairs(entries):
    """Complex JSON leaves for a list of real numbers."""
    return [[x, 0.0] for x in entries]


_SL2 = {"family": "special_linear", "size": 2, "field": "complex"}


def _problem(group, vector, **extra):
    return {"representation": {"kind": "defining", "group": group},
            "vector": vector, **extra}


# Every malformed input exits 2 with a configuration error object,
# whichever reader or check rejects it.
@pytest.mark.parametrize("args,payload", [
    (["reductive"], {"algebra": {"field": "complex", "size": 2,
                                 "matrices": 5}}),
    (["reductive"], []),
    (["reductive"], {"algebra": {"field": "quaternion", "size": 2,
                                 "matrices": [[[1.0, 0.0], [0.0, -1.0]]]}}),
    (["reductive"], {"algebra": {"field": "real", "size": 2,
                                 "matrices": [np.eye(2).tolist()] * 2}}),
    (["reductive"], {"algebra": {"field": "real", "size": 3, "matrices": [
        np.diag([1.0, -1.0, 0.0]).tolist(),
        np.diag([1.0, -1.0 + 3e-9, -3e-9]).tolist()]}}),
    (["stabilizer"], _problem(_SL2, _pairs([1.0, 0.0]), subgroup={
        "family": "torus", "size": "x", "field": "complex"})),
    (["stabilizer"], _problem(_SL2, _pairs([1.0, 0.0]), subgroup=[])),
    (["closedness"], _problem({**_SL2, "size": True}, _pairs([1.0]))),
    (["closedness"], _problem({**_SL2, "size": 2.7}, _pairs([1.0, 0.0]))),
    (["closedness"], _problem({**_SL2, "size": "2"}, _pairs([1.0, 0.0]))),
    (["closedness"], _problem(
        {"family": "block_embedding", "size": 4, "field": "complex",
         "inner": _SL2, "offset": 1.5}, _pairs([1.0, 0.0, 0.0, 0.0]))),
    (["closedness"], _problem(
        {"family": "diagonal_embedding", "size": 4, "field": "complex",
         "inner": _SL2, "copies": 2.0}, _pairs([1.0, 0.0, 0.0, 0.0]))),
    (["closedness"], _problem({**_SL2, "size": 3}, [1.0, 0.0, 0.0])),
    (["minimal", "--tolerance", "nan"], _problem(_SL2, _pairs([1.0, 0.0]))),
    (["minimal", "--tolerance", "-1"], _problem(_SL2, _pairs([1.0, 0.0]))),
    (["closedness"], _problem(_SL2, _pairs([1e308, 1e308]))),
    (["minimal"], _problem(_SL2, _pairs([1e308, 1e308]))),
    (["stabilizer"], _problem(_SL2, _pairs([1.0, 0.0]), subgroup={
        "family": "torus", "size": 2, "field": "real"})),
    (["orbit-dim"], _problem(_SL2, _pairs([1.0, 0.0]), subgroup={
        "family": "torus", "size": 2, "field": "real"})),
    (["orbit-dim"], _problem(_SL2, [["1", "0.3"], [0.3, 0.0]])),
    (["orbit-dim"], _problem(_SL2, [[1.0, 0.3], [0.3, True]])),
    (["reductive"], {"algebra": {"field": "real", "size": 2, "matrices": [
        [[float("nan"), 0.0], [0.0, 0.0]]]}}),
], ids=["matrices-not-a-list", "algebra-input-a-list", "quaternion-field",
        "identity-twice", "nearly-dependent-basis", "string-subgroup-size",
        "subgroup-a-list", "boolean-size", "fractional-size", "string-size",
        "fractional-offset", "float-copies", "complex-vector-without-pairs",
        "nan-tolerance", "negative-tolerance", "norm-overflow",
        "minimal-norm-overflow",
        "real-subgroup-stabilizer", "real-subgroup-orbit-dim",
        "string-entry", "boolean-entry", "nan-algebra-entry"])
def test_malformed_input_exits_2(args, payload):
    result = CliRunner().invoke(main, [*args, "--in", "-"],
                                input=json.dumps(payload))
    assert result.exit_code == 2, (result.output, result.exception)
    error = json.loads(result.stderr.strip().splitlines()[-1])
    assert error["error"] == "configuration"
