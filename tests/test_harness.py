"""Experiment harness: configs, artifacts, round-trips, CLI, determinism."""

import copy
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gramsynth import ConfigError, ExperimentConfig, RunArtifact
from gramsynth import flow, harness
from gramsynth.cli import main as cli_main
from gramsynth.harness import (run_baseline, run_reference, run_scale,
                               run_synthesize, run_underactuated)
from tests.conftest import counted_calls

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAST_UNICYCLE = {
    "system": {"name": "unicycle"},
    "synthesis": {"map_kind": "general", "n_max": 8, "eps_x": 1e-9,
                  "eps_u": 1e-9, "quadrature_points": 101},
    "solver": {"rtol": 1e-7, "atol": 1e-9},
    "seed": 7,
    "export": {"samples": 101, "format": "csv"},
}


def _cfg(tmp_path, base=FAST_UNICYCLE, **updates):
    data = copy.deepcopy(base)
    data.update(updates)
    data["out_dir"] = str(tmp_path / "out")
    return ExperimentConfig.from_dict(data)


def _strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"export": {"format": "xml"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"export": {"samples": 1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"synthesis": {"map_kind": "bogus"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"solver": {"rtol": -1.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"synthesis": {"unknown_option": 1}})
    with pytest.raises(ConfigError):   # the anchor is set on the problem
        ExperimentConfig.from_dict({"synthesis": {"anchor": 1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sede": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["seed"])
    for section in ("system", "export", "scale", "underactuated"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({section: {"typo": 1}})
    # a value has its default's type: nothing is cast, a bool is no int
    for data in ({"reference": {"simulate": "false"}},   # no such section
                 {"scale": {"trials": 2.7}}, {"scale": {"dims": [3.9]}},
                 {"seed": 7.9}, {"seed": True}, {"seed": "7"},
                 {"export": {"samples": 51.0}}, {"out_dir": 1},
                 {"underactuated": {"d": True}}, {"system": {"name": 1}},
                 {"scale": {"dims": 3}}, {"scale": []}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError):   # synthesis.n_max drives every command
        ExperimentConfig.from_dict({"scale": {"n_max": 10}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"underactuated": {"d": 4, "k": 5}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scale": {"trials": 0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scale": {"dims": [0]}})
    # K is an odd integer >= 3, n_max an integer, the shift finite and >= 0
    for synthesis in ({"quadrature_points": 0}, {"quadrature_points": 200},
                      {"quadrature_points": 201.0}, {"n_max": 1.5},
                      {"regularization": -1.0}, {"regularization": None}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"synthesis": synthesis})


@pytest.mark.parametrize("data", [
    {"synthesis": {"n_max": True}}, {"synthesis": {"eps_x": True}},
    {"solver": {"rtol": True}}, {"solver": {"max_steps": 2.5}},
    {"synthesis": {"eps_u": False}}, {"synthesis": {"regularization": True}},
    {"solver": {"atol": True}}, {"solver": {"max_steps": True}},
    {"solver": {"rtol": "1e-8"}}], ids=lambda d: json.dumps(d))
def test_synthesis_and_solver_values_reject_bools_and_fractional_counts(
        data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_echo_loads_back(path):
    cfg = ExperimentConfig.from_json(str(path))
    echo = json.loads(json.dumps(cfg.echo()))
    assert ExperimentConfig.from_dict(echo) == cfg


def test_config_missing_file():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("/nonexistent/config.json")


def test_synthesize_artifact_files(tmp_path):
    cfg = _cfg(tmp_path)
    art = run_synthesize(cfg)
    assert art.success
    path = art.save(cfg.out_dir)
    out = tmp_path / "out"
    for name in ("summary.json", "telemetry.csv", "control.csv",
                 "trajectory.csv"):
        assert (out / name).exists()
    with open(out / "telemetry.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["n", "err_end", "err_fp", "energy",
                      "gramian_condition", "product_rtol", "product_nodes",
                      "interp_estimate", "wall_time"]
    with open(out / "control.csv") as fh:
        assert fh.readline().strip().split(",") == ["t", "u1", "u2"]
    with open(out / "trajectory.csv") as fh:
        assert fh.readline().strip().split(",") == ["t", "x1", "x2", "x3"]
    # K=101 quadrature floors this fast config around 2e-8
    assert art.summary["err_end"] <= 1e-7


def test_artifact_json_roundtrip_bit_exact(tmp_path):
    cfg = _cfg(tmp_path)
    art = run_synthesize(cfg)
    path = art.save(cfg.out_dir)
    loaded = RunArtifact.load(path)
    assert loaded.schema == "v2"
    assert loaded.telemetry == art.telemetry  # float-exact equality
    assert loaded.summary == art.summary
    assert loaded.control_samples == art.control_samples
    assert loaded.trajectory_samples == art.trajectory_samples


def test_load_reads_a_v1_artifact(tmp_path):
    # schema v1 records and summaries still carry energy_sq_norm = 2E
    record = {"n": 0, "err_end": 0.5, "err_fp": 0.25, "energy": 1.5,
              "energy_sq_norm": 3.0, "gramian_condition": 10.0,
              "product_rtol": 1e-8, "product_nodes": 33,
              "interp_estimate": 1e-12, "wall_time": 0.01}
    v1 = {"command": "synthesize", "config": {"seed": 7},
          "status": {"criterion": "max_iterations", "iterations": 1,
                     "initial_gramian_ok": True, "message": "",
                     "success": False},
          "telemetry": [record],
          "summary": {"energy": 1.5, "energy_sq_norm": 3.0,
                      "control_l2_norm": math.sqrt(3.0)},
          "control_samples": {}, "trajectory_samples": {},
          "extra_tables": {}, "schema": "v1"}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(v1))
    loaded = RunArtifact.load(str(path))
    assert loaded.schema == "v1" and loaded.success is False
    assert loaded.telemetry == [record]
    assert loaded.summary["energy_sq_norm"] == 3.0


def test_endpoint_stop_artifact_roundtrip(tmp_path):
    # the stopping pass applies no map: its err_fp, gramian_condition,
    # product_rtol, product_nodes and interp_estimate are NaN in the
    # record, null in summary.json, empty in telemetry.csv
    cfg = ExperimentConfig.from_json(str(CONFIGS / "unicycle.json"))
    art = run_synthesize(cfg)
    assert art.status["criterion"] == "endpoint_tolerance"
    last = art.telemetry[-1]
    assert last["err_fp"] is None and last["gramian_condition"] is None
    unmeasured = ("product_rtol", "product_nodes", "interp_estimate")
    assert all(last[key] is None for key in unmeasured)
    assert all(r["err_fp"] is not None and r["product_rtol"] is not None
               for r in art.telemetry[:-1])
    assert all(isinstance(r["product_nodes"], int)
               and r["interp_estimate"] is not None
               for r in art.telemetry[:-1])
    path = art.save(str(tmp_path / "out"))
    loaded = RunArtifact.load(path)
    assert loaded.telemetry == art.telemetry
    with open(tmp_path / "out" / "telemetry.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["err_fp"] == "" and rows[-1]["gramian_condition"] == ""
    assert all(rows[-1][key] == "" for key in unmeasured)
    assert float(rows[-1]["err_end"]) == last["err_end"]


def test_csv_floats_roundtrip(tmp_path):
    cfg = _cfg(tmp_path)
    art = run_synthesize(cfg)
    art.save(cfg.out_dir)
    with open(tmp_path / "out" / "telemetry.csv") as fh:
        rows = list(csv.DictReader(fh))
    for parsed, orig in zip(rows, art.telemetry):
        assert float(parsed["err_end"]) == orig["err_end"]
        assert float(parsed["energy"]) == orig["energy"]


def test_run_determinism_modulo_timing(tmp_path):
    a = run_synthesize(_cfg(tmp_path))
    b = run_synthesize(_cfg(tmp_path))
    assert _strip_wall(a.telemetry) == _strip_wall(b.telemetry)
    assert a.control_samples == b.control_samples
    assert a.trajectory_samples == b.trajectory_samples


def test_synthesize_error_artifact(tmp_path):
    # a 3-attempt step budget makes the first trajectory solve raise
    # StepLimitExceeded inside run_picard
    bad = {
        "system": {"name": "hopfield2d_under",
                   "params": {"x0": [0.0, 0.0], "x1": [1.0, -1.0]}},
        "synthesis": {"map_kind": "general", "n_max": 3,
                      "quadrature_points": 51},
        "solver": {"rtol": 1e-7, "atol": 1e-9, "max_steps": 3},
    }
    cfg = _cfg(tmp_path, base=bad)
    art = run_synthesize(cfg)
    assert art.success is False
    assert art.status["criterion"] == "error"
    assert art.status["message"] == ("StepLimitExceeded: no convergence "
                                     "within 3 step attempts")
    assert art.telemetry == [] and art.summary == {}
    assert art.schema == "v2"
    art.save(cfg.out_dir)
    assert (tmp_path / "out" / "summary.json").exists()
    assert not (tmp_path / "out" / "telemetry.csv").exists()


def test_baseline_artifact(tmp_path):
    base = {
        "system": {"name": "hopfield2d_full"},
        "solver": {"rtol": 1e-10, "atol": 1e-12},
        "export": {"samples": 51},
    }
    cfg = _cfg(tmp_path, base=base)
    art = run_baseline(cfg)
    assert art.success
    assert art.summary["err_end"] <= 1e-6
    assert art.summary["energy"] > 0


def test_baseline_not_fully_actuated(tmp_path):
    cfg = _cfg(tmp_path, base={"system": {"name": "unicycle"}})
    art = run_baseline(cfg)
    assert not art.success
    assert "NotFullyActuated" in art.status["message"]


def test_reference_artifact_and_determinism(tmp_path):
    base = {
        "system": {"name": "unicycle"},
        "solver": {"rtol": 1e-7, "atol": 1e-9},
        "seed": 42,
        "export": {"samples": 51},
    }
    a = run_reference(_cfg(tmp_path, base=base))
    b = run_reference(_cfg(tmp_path, base=base))
    assert a.success
    assert a.summary["coefficients"] == b.summary["coefficients"]
    assert a.summary["endpoint"] == b.summary["endpoint"]
    coeffs = np.asarray(a.summary["coefficients"])
    assert coeffs.shape == (2, 6)


def test_synthesize_certificate_with_anchor_override(tmp_path):
    # the certificate must use the residual of the anchor the synthesis
    # solved (t0 here), not the benchmark's default anchor T
    base = {
        "system": {"name": "hopfield2d_full", "params": {"anchor": 1}},
        "synthesis": {"map_kind": "general", "n_max": 20,
                      "quadrature_points": 201},
        "solver": {"rtol": 1e-8, "atol": 1e-10},
        "export": {"samples": 51},
    }
    art = run_synthesize(_cfg(tmp_path, base=base))
    assert art.summary["anchor"] == 1
    assert art.summary["certificate_rel_gap"] <= 1e-4  # C7's bound


def test_scale_run_structure_and_determinism(tmp_path):
    base = {
        "scale": {"dims": [2, 3], "trials": 2},
        "synthesis": {"n_max": 6, "eps_x": 1e-5, "quadrature_points": 51},
        "solver": {"rtol": 1e-7, "atol": 1e-9},
        "seed": 17,
    }
    art = run_scale(_cfg(tmp_path, base=base))
    rows = art.extra_tables["scale"]["rows"]
    cols = art.extra_tables["scale"]["columns"]
    assert len(rows) == 4  # 2 dims x 2 trials
    err_idx = cols.index("err_end")
    d_idx = cols.index("d")
    assert sorted({r[d_idx] for r in rows}) == [2, 3]
    again = run_scale(_cfg(tmp_path, base=base))
    for r1, r2 in zip(rows, again.extra_tables["scale"]["rows"]):
        assert r1[err_idx] == r2[err_idx]  # bit-identical across runs
    assert len(art.summary["aggregates"]) == 2
    art.save(str(tmp_path / "out"))
    assert (tmp_path / "out" / "scale.csv").exists()
    assert (tmp_path / "out" / "scale_aggregates.csv").exists()


def test_scale_row_reports_the_returned_controls_error(tmp_path,
                                                       monkeypatch):
    # an eps_u stop returns F(u_n), whose endpoint error is not the last
    # record's: the row solves its trajectory once
    results = []
    real = harness.run_picard

    def kept(problem, config):
        results.append((problem, real(problem, config)))
        return results[-1][1]

    monkeypatch.setattr(harness, "run_picard", kept)
    base = {
        "scale": {"dims": [2], "trials": 1},
        "synthesis": {"n_max": 20, "eps_x": 1e-14, "eps_u": 1e-6,
                      "quadrature_points": 51},
        "solver": {"rtol": 1e-7, "atol": 1e-9},
        "seed": 17,
    }
    cfg = _cfg(tmp_path, base=base)
    art = run_scale(cfg)
    [row] = [dict(zip(art.extra_tables["scale"]["columns"], r))
              for r in art.extra_tables["scale"]["rows"]]
    [(problem, result)] = results
    assert row["status"] == "control_update_tolerance"
    traj = flow.solve_trajectory(problem, result.control,
                                 cfg.synthesis.solver)
    err = float(np.linalg.norm(traj.endpoint - problem.x1))
    assert row["err_end"] == err != result.records[-1].err_end


def test_underactuated_small_surrogate(tmp_path):
    # half-actuated surrogate network; the minimum-energy synthesis must
    # undercut the reference control that manufactured the target
    base = {
        "underactuated": {"d": 24, "k": 12},
        "synthesis": {"map_kind": "minimum_energy", "n_max": 15,
                      "quadrature_points": 201},
        "solver": {"rtol": 1e-7, "atol": 1e-7},
        "seed": 23,
        "export": {"samples": 51},
    }
    cfg = _cfg(tmp_path, base=base)
    art = run_underactuated(cfg)
    assert art.summary["energy_reduced"] is True
    assert art.summary["energy_synthesized"] < art.summary["energy_reference"]
    assert art.summary["d"] == 24 and art.summary["k"] == 12
    art.save(cfg.out_dir)
    assert (tmp_path / "out" / "reference_control.csv").exists()
    k = 12
    with open(tmp_path / "out" / "control.csv") as fh:
        assert fh.readline().strip().split(",") == \
            ["t"] + [f"u{i+1}" for i in range(k)]


def test_scale_and_underactuated_reject_a_system_section(tmp_path):
    # both build their own mindy_like networks, so a system section (and a
    # typo in its params) would otherwise be ignored
    for run, section in ((run_scale, {"scale": {"dims": [2], "trials": 1}}),
                         (run_underactuated,
                          {"underactuated": {"d": 4, "k": 2}})):
        for system in ({"params": {"x_0": 1}}, {"name": "mindy_like"}):
            with pytest.raises(ConfigError):
                run(_cfg(tmp_path, base={"system": system, **section}))


def test_synthesize_reuses_the_runs_solves(tmp_path, monkeypatch):
    # run_picard keeps the residual and, when it stops on the endpoint
    # tolerance, the trajectory of the control it returns
    steer = counted_calls(monkeypatch, harness, "solve_trajectory")
    drift = counted_calls(monkeypatch, flow, "drift_flow")
    art = run_synthesize(ExperimentConfig.from_json(
        str(CONFIGS / "unicycle.json")))
    assert art.status["criterion"] == "endpoint_tolerance"
    assert art.status["iterations"] == 3
    assert len(steer) == 0 and len(drift) == 1
    assert art.summary["err_end"] == art.telemetry[-1]["err_end"]
    # on a control-update stop no pass solved the returned control's
    # trajectory
    del drift[:]
    art = run_synthesize(_cfg(tmp_path))
    assert art.status["criterion"] == "control_update_tolerance"
    assert len(steer) == 1 and len(drift) == 1


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    data = copy.deepcopy(FAST_UNICYCLE)
    data["out_dir"] = str(tmp_path / "cli_out")
    cfg_path.write_text(json.dumps(data))

    assert cli_main(["synthesize", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "summary.json").exists()

    # --out flag wins over config
    assert cli_main(["synthesize", str(cfg_path),
                     "--out", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "summary.json").exists()

    # config errors exit 2
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{not json")
    assert cli_main(["synthesize", str(bad_path)]) == 2
    data["synthesis"]["anchor"] = 1
    bad_path.write_text(json.dumps(data))
    assert cli_main(["synthesize", str(bad_path)]) == 2
    bad_path.write_text(json.dumps({"scale": {"n_maxx": 10}}))
    assert cli_main(["scale", str(bad_path)]) == 2
    bad_path.write_text(json.dumps({"system": {"params": {"x_0": 1}},
                                    "scale": {"dims": [2], "trials": 1}}))
    assert cli_main(["scale", str(bad_path)]) == 2

    # json format suppresses csv exports
    assert cli_main(["synthesize", str(cfg_path), "--format", "json",
                     "--out", str(tmp_path / "json_out")]) == 0
    assert (tmp_path / "json_out" / "summary.json").exists()
    assert not (tmp_path / "json_out" / "telemetry.csv").exists()
    capsys.readouterr()


def test_cli_failure_exit_code(tmp_path):
    # a run that cannot converge exits nonzero
    data = {
        "system": {"name": "unicycle"},
        "synthesis": {"map_kind": "general", "n_max": 1, "eps_x": 1e-16,
                      "eps_u": 1e-16, "quadrature_points": 51},
        "solver": {"rtol": 1e-7, "atol": 1e-9},
        "out_dir": str(tmp_path / "fail_out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    # running out of passes is not success
    assert cli_main(["synthesize", str(cfg_path)]) == 1


def test_config_echo_records_overrides(tmp_path):
    cfg = _cfg(tmp_path)
    art = run_synthesize(cfg)
    assert art.config["seed"] == 7
    assert art.config["out_dir"] == str(tmp_path / "out")
    assert art.config["synthesis"]["quadrature_points"] == 101
    assert ExperimentConfig.from_dict(art.config) == cfg
