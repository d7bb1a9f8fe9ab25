"""Experiment harness: structured configs, run commands, persisted artifacts.

Configs are JSON (nested key/value); every random quantity flows through
named integer seeds derived from the config's root seed with
`numpy.random.SeedSequence`, and the derived seeds are recorded in the
artifact.  Artifacts round-trip bit-exactly: floats are serialized with
their shortest repr both in `summary.json` and in the CSV exports.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from .baselines import (REFERENCE_DEGREE, REFERENCE_SIGMA,
                        chebyshev_reference_control,
                        feedback_linearization_baseline)
from .controls import SynthesizedControl
from .errors import ConfigError, GramsynthError
from .flow import solve_trajectory
from .ode import SolverConfig
from .picard import (RunStatus, SynthesisConfig, control_energy,
                     endpoint_error, energy_certificate, run_picard)
from .systems import SteeringProblem, make_benchmark, mindy_like

SCHEMA = "v2"


# Every config key with its default.  The keys of the `synthesis` and
# `solver` sections are the fields of `SynthesisConfig` and `SolverConfig`,
# which check them and drive all five commands.
_SECTIONS = {
    "system": {"name": "unicycle", "params": {}},
    "export": {"samples": 1001, "format": "csv"},
    "scale": {"dims": [2, 8], "trials": 3},
    "underactuated": {"d": 100, "k": 50},
}
_TOP_LEVEL = {"synthesis": {}, "solver": {}, "seed": 0, "out_dir": "runs/out",
              **_SECTIONS}

# The horizon of the scale and underactuated networks, and the upper bound
# of the uniformly drawn scale targets.
HORIZON = (0.0, 1.0)
TARGET_UPPER = 0.5


def _has_type(value, default) -> bool:
    """``value`` has ``default``'s exact type (so a bool is no int), and so
    has each item of a list, against the default's first item."""
    return type(value) is type(default) and (
        type(value) is not list
        or all(_has_type(v, default[0]) for v in value))


def _filled(where: str, given: dict, defaults: dict) -> dict:
    """``given`` over ``defaults``; a given value must have its default's
    type, and a list or dict is copied."""
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {unknown}")
    for key, value in given.items():
        if not _has_type(value, defaults[key]):
            raise ConfigError(f"{key} in {where} must have the type of "
                              f"its default {defaults[key]!r}, got {value!r}")
    return {key: type(d)(given.get(key, d)) for key, d in defaults.items()}


@dataclass
class ExperimentConfig:
    """Validated experiment settings in the config file's layout (one file
    drives one command).  `from_dict` is the one place that knows each key
    and default, and ``from_dict(echo())`` equals the config."""

    system: dict
    synthesis: SynthesisConfig
    seed: int
    out_dir: str
    export: dict
    scale: dict
    underactuated: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            top = _filled("the config", data, _TOP_LEVEL)
            sections = {name: _filled(name, top[name], defaults)
                        for name, defaults in _SECTIONS.items()}
            dims = sections["scale"]["dims"] = sorted(
                sections["scale"]["dims"])
            cfg = cls(synthesis=SynthesisConfig(
                          solver=SolverConfig(**top["solver"]),
                          **top["synthesis"]),
                      seed=top["seed"], out_dir=top["out_dir"], **sections)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        ua = cfg.underactuated
        for ok, message in (
                (cfg.export["format"] in ("csv", "json"),
                 "export.format must be 'csv' or 'json'"),
                (cfg.export["samples"] >= 2, "export.samples must be >= 2"),
                (dims and dims[0] >= 1, "scale.dims must list dimensions >= 1"),
                (cfg.scale["trials"] >= 1, "scale.trials must be >= 1"),
                (1 <= ua["k"] <= ua["d"], "underactuated needs 1 <= k <= d")):
            if not ok:
                raise ConfigError(message)
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def echo(self) -> dict:
        out = _jsonable(asdict(self))
        out["solver"] = out["synthesis"].pop("solver")
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass
class RunArtifact:
    """Everything one run produced, in a JSON-serializable form."""

    command: str
    config: dict
    status: dict
    telemetry: List[dict]
    summary: dict
    control_samples: dict = field(default_factory=dict)
    trajectory_samples: dict = field(default_factory=dict)
    extra_tables: dict = field(default_factory=dict)
    schema: str = SCHEMA

    @property
    def success(self) -> bool:
        return bool(self.status.get("success", False))

    def save(self, out_dir: Optional[str] = None) -> str:
        out = out_dir or self.config.get("out_dir", "runs/out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "summary.json")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1)
        if self.config.get("export", {}).get("format", "csv") == "csv":
            tables = dict(self.extra_tables)
            if self.telemetry:
                tables["telemetry"] = _table(self.telemetry)
            for name, key, samples in (
                    ("control", "u", self.control_samples),
                    ("trajectory", "x", self.trajectory_samples)):
                if samples:
                    tables[name] = _sample_table(samples["t"], samples[key],
                                                 key)
            for name, table in tables.items():
                _write_csv(os.path.join(out, f"{name}.csv"), table)
        return path

    @classmethod
    def load(cls, path: str) -> "RunArtifact":
        with open(path) as fh:
            return cls(**json.load(fh))


def _fmt(v):
    if v is None:
        return ""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(path, table):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table["columns"])
        for row in table["rows"]:
            w.writerow([_fmt(v) for v in row])


def _table(records: List[dict]) -> dict:
    """A table of dict records that share their keys, in key order."""
    return {"columns": list(records[0]),
            "rows": [list(r.values()) for r in records]}


def _sample_table(ts, values, key: str) -> dict:
    """A table with columns t, key1, key2, ... of sampled vectors."""
    return {"columns": ["t"] + [f"{key}{i + 1}" for i in range(len(values[0]))],
            "rows": [[t] + list(v) for t, v in zip(ts, values)]}


def _telemetry(records) -> List[dict]:
    """The per-pass records as dicts, a value the pass did not measure
    (NaN) as None, so JSON writes null and reads it back equal."""
    return [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in asdict(r).items()} for r in records]


def _status(status: RunStatus, success: Optional[bool] = None) -> dict:
    """``status`` as a dict; ``success`` overrides its own verdict."""
    return dict(asdict(status),
                success=status.success if success is None else success)


def _failed(command: str, cfg: ExperimentConfig,
            exc: Exception) -> RunArtifact:
    """The artifact of a run that raised ``exc``."""
    return RunArtifact(
        command=command, config=cfg.echo(),
        status=_status(RunStatus("error", 0, False,
                                 f"{type(exc).__name__}: {exc}")),
        telemetry=[], summary={})


def _energy_fields(energy: float) -> dict:
    """E(u) with the L2 norm sqrt(2E) of the control."""
    return {"energy": energy, "control_l2_norm": float(np.sqrt(2.0 * energy))}


def _samples(ts, values, key: str) -> dict:
    return {"t": ts.tolist(), key: _jsonable(values)}


def _steer(cfg: ExperimentConfig, problem: SteeringProblem, u, traj=None):
    """The endpoint of u (simulated unless its trajectory is given), its
    distance err_end to x1, and the artifact's control and state samples."""
    if traj is None:
        traj = solve_trajectory(problem, u, cfg.synthesis.solver)
    ts = np.linspace(problem.t0, problem.T, cfg.export["samples"])
    samples = {"control_samples": _samples(ts, u.eval_many(ts), "u"),
               "trajectory_samples": _samples(
                   ts, traj.solution.eval_many(ts), "x")}
    return (traj.endpoint, float(np.linalg.norm(traj.endpoint - problem.x1)),
            samples)


def run_synthesize(cfg: ExperimentConfig) -> RunArtifact:
    """One Picard synthesis run with full telemetry and sample exports."""
    system, problem = make_benchmark(cfg.system["name"], cfg.system["params"])
    try:
        result = run_picard(problem, cfg.synthesis)
    except GramsynthError as exc:
        return _failed("synthesize", cfg, exc)
    u, status = result.control, result.status
    _, err_end, samples = _steer(cfg, problem, u, result.trajectory)
    energy = control_energy(u, problem.t0, problem.T)
    summary = {
        "system": system.name, "d": system.d, "k": system.k,
        "map_kind": cfg.synthesis.map_kind, "anchor": problem.anchor,
        "iterations": status.iterations, "err_end": err_end,
        **_energy_fields(energy),
        "wall_time_total": float(sum(r.wall_time for r in result.records)),
    }
    if isinstance(u, SynthesizedControl) and cfg.synthesis.map_kind == "general":
        cert = energy_certificate(result.residual, u.lam)
        summary["energy_certificate"] = cert
        summary["certificate_rel_gap"] = (abs(cert - energy) / energy
                                          if energy > 0 else 0.0)
    return RunArtifact(
        command="synthesize", config=cfg.echo(),
        status=_status(status),
        telemetry=_telemetry(result.records), summary=summary,
        **samples)


def run_baseline(cfg: ExperimentConfig) -> RunArtifact:
    """Feedback-linearization baseline on a fully actuated benchmark."""
    system, problem = make_benchmark(cfg.system["name"], cfg.system["params"])
    try:
        u, energy = feedback_linearization_baseline(problem)
    except GramsynthError as exc:
        return _failed("baseline", cfg, exc)
    _, err_end, samples = _steer(cfg, problem, u)
    return RunArtifact(
        command="baseline", config=cfg.echo(),
        status=_status(RunStatus("baseline", 0, True, f"err_end={err_end:.3e}"),
                       err_end <= 1e-6),
        telemetry=[],
        summary={"system": system.name, "d": system.d, "k": system.k,
                 "err_end": err_end, **_energy_fields(energy)},
        **samples)


def run_reference(cfg: ExperimentConfig) -> RunArtifact:
    """Seeded Chebyshev reference control, simulated forward."""
    system, problem = make_benchmark(cfg.system["name"], cfg.system["params"])
    u = chebyshev_reference_control(system.k, (problem.t0, problem.T),
                                    seed=cfg.seed)
    endpoint, _, samples = _steer(cfg, problem, u)
    summary = {"system": system.name, "k": system.k,
               "degree": REFERENCE_DEGREE, "sigma": REFERENCE_SIGMA,
               "seed": cfg.seed,
               "coefficients": _jsonable(u.coefficients),
               **_energy_fields(control_energy(u, problem.t0, problem.T)),
               "endpoint": _jsonable(endpoint)}
    return RunArtifact(command="reference", config=cfg.echo(),
                       status=_status(RunStatus("reference", 0, True), True),
                       telemetry=[],
                       summary=summary, **samples)


def _no_system_section(cfg: ExperimentConfig, command: str) -> None:
    """Reject the system section, which ``command`` would ignore."""
    if cfg.system != _SECTIONS["system"]:
        raise ConfigError(f"{command} builds its own mindy_like networks "
                          "and takes no system section")


def _derived_seeds(root: int, *tags: int, n: int = 2):
    ss = np.random.SeedSequence([int(root), *map(int, tags)])
    return [int(s) for s in ss.generate_state(n)]


def run_scale(cfg: ExperimentConfig) -> RunArtifact:
    """Scaling benchmark: per-dimension trials of the general synthesis.

    Each trial builds a fresh fully actuated surrogate network, steers from
    the resting equilibrium to a uniformly sampled target, and records the
    amortized per-iteration wall time.  A trial is ok when its
    `RunStatus.success` is; failures are recorded and the sweep continues.
    """
    _no_system_section(cfg, "scale")
    dims, trials = cfg.scale["dims"], cfg.scale["trials"]
    rows, ok_dims = [], []
    for d in dims:
        for trial in range(trials):
            sys_seed, target_seed = _derived_seeds(cfg.seed, d, trial)
            system = mindy_like(d, d, sys_seed)
            x1 = np.random.default_rng(target_seed).uniform(0.0, TARGET_UPPER,
                                                            size=d)
            problem = SteeringProblem(system, np.zeros(d), x1, *HORIZON)
            row = {"d": d, "trial": trial, "sys_seed": sys_seed,
                   "target_seed": target_seed}
            tic = time.perf_counter()
            try:
                result = run_picard(problem, cfg.synthesis)
                wall = time.perf_counter() - tic
                # the returned control's own error; an eps_u stop's was
                # never solved
                traj = result.trajectory or solve_trajectory(
                    problem, result.control, cfg.synthesis.solver)
                row.update(status=result.status.criterion,
                           iterations=result.status.iterations,
                           err_end=endpoint_error(traj, problem.x1))
                if result.status.success:
                    ok_dims.append(d)
            except GramsynthError as exc:
                wall = time.perf_counter() - tic
                row.update(status=f"error:{type(exc).__name__}",
                           iterations=0, err_end=float("nan"))
            row.update(wall_time_total=wall, time_per_iteration=(
                wall / row["iterations"] if row["iterations"] else float("nan")))
            rows.append(row)

    aggregates = []
    for d in dims:
        sub = [r for r in rows if r["d"] == d and r["iterations"] > 0]
        # an empty dimension reads nan throughout
        times = np.array([r["time_per_iteration"] for r in sub] or [np.nan])
        errs = np.array([r["err_end"] for r in sub] or [np.nan])
        aggregates.append({
            "d": d, "trials_ok": ok_dims.count(d),
            "time_per_iteration_mean": float(times.mean()),
            "time_per_iteration_std": float(times.std()),
            "err_end_max": float(errs.max())})

    return RunArtifact(
        command="scale", config=cfg.echo(),
        status=_status(RunStatus("scale", len(rows), True,
                                 f"{len(ok_dims)}/{len(rows)} trials ok"),
                       len(ok_dims) == len(rows)),
        telemetry=[],
        summary={"dims": dims, "trials": trials, "horizon": list(HORIZON),
                 "target_upper": TARGET_UPPER, "aggregates": aggregates},
        extra_tables={"scale": _table(rows),
                      "scale_aggregates": _table(aggregates)})


def run_underactuated(cfg: ExperimentConfig) -> RunArtifact:
    """Underactuated surrogate-network demo.

    The target is manufactured by forward simulation under a seeded
    Chebyshev reference control, so it is reachable by construction; the
    run then checks that the synthesized control undercuts the reference
    control's energy.
    """
    _no_system_section(cfg, "underactuated")
    d, k = cfg.underactuated["d"], cfg.underactuated["k"]
    t0, T = HORIZON
    sys_seed, x0_seed, ref_seed = _derived_seeds(cfg.seed, d, k, n=3)

    system = mindy_like(d, k, sys_seed)
    x0 = np.random.default_rng(x0_seed).standard_normal(d)
    u_ref = chebyshev_reference_control(k, HORIZON, seed=ref_seed)
    probe = SteeringProblem(system, x0, np.zeros(d), t0, T)
    x1 = solve_trajectory(probe, u_ref, cfg.synthesis.solver).endpoint
    problem = SteeringProblem(system, x0, x1, t0, T)

    try:
        result = run_picard(problem, cfg.synthesis)
    except GramsynthError as exc:
        return _failed("underactuated", cfg, exc)
    u, status = result.control, result.status

    E_synth = control_energy(u, t0, T)
    E_ref = control_energy(u_ref, t0, T)
    errs = [r.err_end for r in result.records]
    monotone_ok = all(errs[i + 1] <= 2.0 * errs[i]
                      for i in range(len(errs) - 1)) and errs[-1] < errs[0]
    reduced = E_synth < E_ref

    _, err_end, samples = _steer(cfg, problem, u, result.trajectory)
    ts = np.linspace(t0, T, cfg.export["samples"])
    summary = {
        "system": system.name, "d": d, "k": k, "horizon": list(HORIZON),
        "seeds": {"system": sys_seed, "x0": x0_seed, "reference": ref_seed},
        "iterations": status.iterations, "err_end": err_end,
        "energy_synthesized": E_synth, "energy_reference": E_ref,
        "l2_norm_synthesized": float(np.sqrt(2 * E_synth)),
        "l2_norm_reference": float(np.sqrt(2 * E_ref)),
        "energy_reduced": bool(reduced),
        "monotone_decay": bool(monotone_ok),
    }
    return RunArtifact(
        command="underactuated", config=cfg.echo(),
        status=_status(status, status.success and reduced),
        telemetry=_telemetry(result.records), summary=summary,
        extra_tables={"reference_control": _sample_table(
            ts, u_ref.eval_many(ts), "u")},
        **samples)
