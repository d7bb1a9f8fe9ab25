"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; the whole
module takes about 17 s on a 2-vCPU machine (C9, with its d=64 scaling
run, takes about 1.5 s of it).

Criteria C2b and C2c check the fully actuated 2D Hopfield fixed points
against the scipy-only shooting oracles of tests/oracles.py (computed when
the criteria run, cached per module).  The minimum-energy map's fixed point
is the Pontryagin extremal, control L2 norm 1.56615 (criterion C2a).  The
general map's fixed point is a steering control with no optimality promise;
it sits at 1.58818 and differs from the minimum-energy control by 0.487 in
sup norm, and the general fixed-point oracle reproduces both numbers.  An
earlier form of C2b/C2c held the general map to the minimum-energy value
(1.566 +/- 0.02) and to the minimum-energy control (1e-3); that reference
has no source in the repository and contradicts both oracles.
"""

import time
from dataclasses import replace

import numpy as np

from gramsynth import (ExperimentConfig, SolverConfig, SteeringProblem,
                       SynthesisConfig, ZeroControl, apply_map,
                       control_energy, feedback_linearization_baseline,
                       flow_conjugate_profile, make_benchmark, residual,
                       run_picard, simpson_rule, solve_trajectory)
from gramsynth.flow import flow_input_products
from gramsynth.gramian import assemble_symmetric_from_samples
from gramsynth.harness import run_scale, run_synthesize, run_underactuated
from tests.conftest import lti_min_energy_control, make_stable_lti
from tests.oracles import general_fixed_point_shooting, pontryagin_shooting

PAPER_SOLVER = SolverConfig(rtol=1e-8, atol=1e-10)
TIGHT_SOLVER = SolverConfig(rtol=1e-10, atol=1e-12)

# per-benchmark synthesis settings used throughout the gate (the pendulum
# needs the finer grid to floor safely below 1e-7)
RUN_SETTINGS = {
    "unicycle": dict(quadrature_points=401),
    "pendulum": dict(quadrature_points=401),
    "sir": dict(quadrature_points=201),
    "spacecraft": dict(quadrature_points=201),
    "hopfield2d_full": dict(quadrature_points=201),
    "hopfield2d_under": dict(quadrature_points=201),
}

_CACHE = {}


def suite_problem(name, map_kind):
    """The system, problem and synthesis settings of a suite run."""
    system, problem = make_benchmark(name)
    cfg = SynthesisConfig(map_kind=map_kind, solver=PAPER_SOLVER, n_max=25,
                          eps_x=1e-11, eps_u=1e-11, **RUN_SETTINGS[name])
    return system, problem, cfg


def suite_run(name, map_kind):
    """Converged synthesis run (25-pass budget), cached across criteria."""
    key = (name, map_kind)
    if key not in _CACHE:
        system, problem, cfg = suite_problem(name, map_kind)
        tic = time.perf_counter()
        result = run_picard(problem, cfg)
        wall = time.perf_counter() - tic
        _CACHE[key] = dict(system=system, problem=problem, config=cfg,
                           u=result.control, records=result.records,
                           status=result.status, wall=wall)
    return _CACHE[key]


_ORACLES = {}


def hopfield_oracles():
    """Pontryagin and general fixed-point shooting solutions, cached."""
    if not _ORACLES:
        problem = suite_run("hopfield2d_full", "general")["problem"]
        _ORACLES["pontryagin"] = pontryagin_shooting(problem)
        _ORACLES["general"] = general_fixed_point_shooting(problem)
    return _ORACLES["pontryagin"], _ORACLES["general"]


def report(cid, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# C1 unicycle steering

def test_c1_unicycle_steering():
    run = suite_run("unicycle", "general")
    err = run["records"][-1].err_end
    iters = run["status"].iterations
    ok = err <= 1e-9 and iters <= 5 and run["wall"] <= 60.0
    report("C1 unicycle steering",
           ok, f"err_end={err:.3e} (<=1e-9), iterations={iters} (<=5), "
               f"wall={run['wall']:.1f}s (<=60)")


# ---------------------------------------------------------------------------
# C2 fully actuated 2D Hopfield

def _hopfield_l2(map_kind):
    run = suite_run("hopfield2d_full", map_kind)
    problem = run["problem"]
    traj = solve_trajectory(problem, run["u"], PAPER_SOLVER)
    err = float(np.linalg.norm(traj.endpoint - problem.x1))
    l2 = float(np.sqrt(2 * control_energy(run["u"], problem.t0, problem.T)))
    return run, err, l2


def test_c2a_hopfield_steering_and_me_energy():
    _, err_g, l2_g = _hopfield_l2("general")
    _, err_m, l2_m = _hopfield_l2("minimum_energy")
    ok = err_g <= 1e-8 and err_m <= 1e-8 and abs(l2_m - 1.566) <= 0.02
    report("C2a hopfield steering + minimum-energy value",
           ok, f"err_general={err_g:.2e}, err_me={err_m:.2e} (<=1e-8); "
               f"minimum-energy L2 norm={l2_m:.5f} (1.566 +/- 0.02)")


def test_c2b_hopfield_general_map_energy_window():
    # the general map's fixed point steers but need not have minimum
    # energy: its L2 norm must match the general fixed-point oracle and may
    # not undercut the Pontryagin optimum
    _, _, l2_g = _hopfield_l2("general")
    pont, gen = hopfield_oracles()
    ok = (abs(l2_g - gen.l2) <= 1e-3 and l2_g >= pont.l2
          and gen.residual <= 1e-10 and pont.residual <= 1e-10)
    report("C2b hopfield general-map energy window",
           ok, f"general-map L2 norm={l2_g:.5f} vs general fixed-point "
               f"oracle {gen.l2:.5f} (+/- 1e-3), >= Pontryagin optimum "
               f"{pont.l2:.5f}; oracle shooting residuals "
               f"{gen.residual:.1e}, {pont.residual:.1e} (<=1e-10)")


def test_c2c_hopfield_map_agreement():
    run_g = suite_run("hopfield2d_full", "general")
    run_m = suite_run("hopfield2d_full", "minimum_energy")
    pont, gen = hopfield_oracles()

    def sup_gap(u, ref):
        return float(np.max(np.linalg.norm(u - ref, axis=1)))

    # both oracles sample the same uniform 1001-point grid
    u_g = run_g["u"].eval_many(gen.ts)
    u_m = run_m["u"].eval_many(pont.ts)
    err_g = sup_gap(u_g, gen.u)
    err_m = sup_gap(u_m, pont.u)
    gap = sup_gap(u_g, u_m)
    gap_oracle = sup_gap(gen.u, pont.u)
    ok = (err_g <= 1e-3 and err_m <= 1e-3 and abs(gap - gap_oracle) <= 1e-3
          and gen.residual <= 1e-10 and pont.residual <= 1e-10)
    report("C2c hopfield fixed-point agreement",
           ok, f"sup |u_general - oracle| = {err_g:.1e}, "
               f"sup |u_me - Pontryagin| = {err_m:.1e} (<=1e-3); "
               f"sup |u_general - u_me| = {gap:.3e} vs oracle gap "
               f"{gap_oracle:.3e} (+/- 1e-3); oracle shooting residuals "
               f"{gen.residual:.1e}, {pont.residual:.1e} (<=1e-10)")


def test_c2d_hopfield_baseline_ordering():
    system, problem = make_benchmark("hopfield2d_full")
    u_fl, E_fl = feedback_linearization_baseline(problem)
    traj = solve_trajectory(problem, u_fl, TIGHT_SOLVER)
    err = float(np.linalg.norm(traj.endpoint - problem.x1))
    _, _, l2_g = _hopfield_l2("general")
    _, _, l2_m = _hopfield_l2("minimum_energy")
    l2_fl = float(np.sqrt(2 * E_fl))
    ok = err <= 1e-8 and l2_fl > l2_g and l2_fl > l2_m
    report("C2d hopfield baseline ordering",
           ok, f"baseline err={err:.2e}, L2={l2_fl:.4f} > "
               f"general {l2_g:.4f} and me {l2_m:.4f}")


# ---------------------------------------------------------------------------
# C3 minimum-energy dominance

def test_c3_minimum_energy_dominance():
    rows = []
    ok = True
    for name in ("unicycle", "pendulum", "sir", "hopfield2d_full"):
        rg = suite_run(name, "general")
        rm = suite_run(name, "minimum_energy")
        problem = rg["problem"]
        E_S = control_energy(rg["u"], problem.t0, problem.T)
        E_Z = control_energy(rm["u"], problem.t0, problem.T)
        good = E_Z <= E_S + 1e-3 * E_S
        ok = ok and good
        rows.append(f"{name}: E_Z={E_Z:.6f} vs E_S={E_S:.6f} "
                    f"({'ok' if good else 'VIOLATED'})")
    report("C3 minimum-energy dominance", ok, "; ".join(rows))


# ---------------------------------------------------------------------------
# C4 convergence suite

def test_c4_convergence_suite():
    details = []
    ok = True
    reached = {}
    for name in ("pendulum", "sir", "spacecraft", "hopfield2d_full",
                 "hopfield2d_under"):
        run = suite_run(name, "general")
        errs = [r.err_end for r in run["records"][:20]]  # 20-pass budget
        best = min(errs)
        good = best <= 1e-7
        ok = ok and good
        reached[name] = next((i for i, e in enumerate(errs) if e <= 1e-8),
                             len(errs))
        details.append(f"{name}: min err={best:.1e} within "
                       f"{len(errs)} iters")
    under_ge_full = reached["hopfield2d_under"] >= reached["hopfield2d_full"]
    ok = ok and under_ge_full
    details.append(f"iters to 1e-8: underactuated {reached['hopfield2d_under']}"
                   f" >= fully actuated {reached['hopfield2d_full']}")
    report("C4 convergence suite", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# C5 LTI oracle equivalence

def test_c5_lti_oracle_equivalence():
    A, B, system = make_stable_lti(4, 2, seed=42)
    rng = np.random.default_rng(43)
    problem = SteeringProblem(system, rng.normal(size=4), rng.normal(size=4),
                              0.0, 1.2)
    cfg = SynthesisConfig(quadrature_points=1001, solver=TIGHT_SOLVER,
                          eps_x=1e-13, eps_u=1e-8)
    u_star, _, _ = lti_min_energy_control(A, B, problem.x0, problem.x1,
                                          0.0, 1.2)
    ts = np.linspace(0.0, 1.2, 401)
    ref = np.stack([u_star(float(t)) for t in ts])

    y = residual(problem, cfg.solver)
    u_gen, u_me = (apply_map(problem, ZeroControl(2, (0.0, 1.2)),
                             replace(cfg, map_kind=kind), y)[0]
                   for kind in ("general", "minimum_energy"))
    kinds_ok = (u_gen.map_kind, u_me.map_kind) == ("general",
                                                   "minimum_energy")
    gap_gen = float(np.max(np.abs(u_gen.eval_many(ts) - ref)))
    gap_me = float(np.max(np.abs(u_me.eval_many(ts) - ref)))

    result = run_picard(problem, cfg)
    records, status = result.records, result.status
    fp_at_one = (status.criterion == "control_update_tolerance"
                 and records[-1].n == 1)
    ok = gap_gen <= 1e-6 and gap_me <= 1e-6 and fp_at_one and kinds_ok
    report("C5 LTI oracle equivalence",
           ok, f"sup gaps: general={gap_gen:.2e}, me={gap_me:.2e} (<=1e-6); "
               f"err_fp fired at n={records[-1].n} "
               f"({status.criterion})")


# ---------------------------------------------------------------------------
# C6 flow-conjugate identity

def test_c6_flow_conjugate_identity():
    details = []
    worst_all = 0.0
    for name in ("unicycle", "pendulum", "sir", "spacecraft",
                 "hopfield2d_full", "hopfield2d_under"):
        run = suite_run(name, "general")
        problem = run["problem"]
        traj = solve_trajectory(problem, run["u"], TIGHT_SOLVER)
        nodes = 201
        indices = np.linspace(0, nodes - 1, 12, dtype=int)[1:-1]
        indices = (indices // 2) * 2  # snap to even Simpson prefixes
        _, defects = flow_conjugate_profile(problem, traj, indices,
                                            TIGHT_SOLVER, nodes=nodes)
        worst = float(defects.max())
        worst_all = max(worst_all, worst)
        details.append(f"{name}={worst:.1e}")
    ok = worst_all <= 1e-6
    report("C6 flow-conjugate identity",
           ok, f"max defect over 10 interior times: {'; '.join(details)}")


# ---------------------------------------------------------------------------
# C7 energy certificate

def test_c7_energy_certificate():
    details = []
    ok = True
    for name in ("unicycle", "pendulum", "sir", "spacecraft",
                 "hopfield2d_full", "hopfield2d_under"):
        run = suite_run(name, "general")
        problem = run["problem"]
        u = run["u"]
        if not hasattr(u, "lam"):
            continue
        y = residual(problem, PAPER_SOLVER)
        cert = 0.5 * float(y @ u.lam)
        E = control_energy(u, problem.t0, problem.T)
        gap = abs(cert - E) / E
        good = gap <= 1e-4
        ok = ok and good
        details.append(f"{name}: rel gap={gap:.1e}")
    report("C7 energy certificate", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# C8 quadrature order

def test_c8_quadrature_fourth_order():
    system, problem = make_benchmark("pendulum")
    solver = SolverConfig(rtol=1e-12, atol=1e-13)
    from gramsynth.controls import ClosedFormControl

    u = ClosedFormControl(lambda t: np.array([np.sin(2.0 * t)]), k=1,
                          span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, solver)

    def gram(K):
        rule = simpson_rule(problem.t0, problem.T, K)
        D = flow_input_products(traj, rule.nodes, problem.T, solver)
        return assemble_symmetric_from_samples(D, rule).matrix

    ref = gram(1601)
    errs = [float(np.max(np.abs(gram(K) - ref))) for K in (51, 101, 201)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = 8.0 <= r1 <= 32.0 and 8.0 <= r2 <= 32.0
    report("C8 quadrature fourth order",
           ok, f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}; "
               f"ratios {r1:.1f}, {r2:.1f} (in [8, 32])")


# ---------------------------------------------------------------------------
# C9 desk-scale scalability + underactuated properties

def test_c9_scalability_and_underactuated(tmp_path):
    tic = time.perf_counter()
    scale_cfg = ExperimentConfig.from_dict({
        "scale": {"dims": [64], "trials": 1},
        "synthesis": {"map_kind": "general", "n_max": 10, "eps_x": 1e-6,
                      "quadrature_points": 5001, "regularization": 1e-6},
        "solver": {"rtol": 1e-8, "atol": 1e-10},
        "seed": 17,
        "out_dir": str(tmp_path / "scale64"),
    })
    art = run_scale(scale_cfg)
    wall = time.perf_counter() - tic
    cols = art.extra_tables["scale"]["columns"]
    row = dict(zip(cols, art.extra_tables["scale"]["rows"][0]))
    scale_ok = (row["err_end"] <= 1e-6 and row["iterations"] <= 10
                and wall <= 1800.0)

    ua_cfg = ExperimentConfig.from_dict({
        "underactuated": {"d": 24, "k": 12},
        "synthesis": {"map_kind": "minimum_energy", "n_max": 50,
                      "quadrature_points": 201},
        "solver": {"rtol": 1e-7, "atol": 1e-7},
        "seed": 5,
        "out_dir": str(tmp_path / "underactuated"),
    })
    ua = run_underactuated(ua_cfg)
    ua_ok = (ua.summary["energy_reduced"] and ua.summary["monotone_decay"])
    ok = scale_ok and ua_ok
    report("C9 desk-scale scalability",
           ok, f"d=64: err_end={row['err_end']:.2e} (<=1e-6) in "
               f"{row['iterations']} iters (<=10), wall={wall / 60:.1f} min "
               f"(<=30); underactuated surrogate: energy "
               f"{ua.summary['l2_norm_synthesized']:.3f} < "
               f"{ua.summary['l2_norm_reference']:.3f}, monotone decay "
               f"{ua.summary['monotone_decay']}")


# ---------------------------------------------------------------------------
# C10 determinism

def test_c10_determinism(tmp_path):
    base = {
        "system": {"name": "unicycle"},
        "synthesis": {"map_kind": "general", "n_max": 6, "eps_x": 1e-9,
                      "eps_u": 1e-9, "quadrature_points": 101},
        "solver": {"rtol": 1e-7, "atol": 1e-9},
        "seed": 7,
        "out_dir": str(tmp_path / "det"),
        "export": {"samples": 101},
    }

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time"}
                for r in rows]

    a = run_synthesize(ExperimentConfig.from_dict(base))
    b = run_synthesize(ExperimentConfig.from_dict(base))

    repeat_ok = (strip(a.telemetry) == strip(b.telemetry)
                 and a.control_samples == b.control_samples
                 and a.trajectory_samples == b.trajectory_samples)

    path = a.save()
    from gramsynth import RunArtifact
    loaded = RunArtifact.load(path)
    roundtrip_ok = (loaded.telemetry == a.telemetry
                    and loaded.summary == a.summary)
    ok = repeat_ok and roundtrip_ok
    report("C10 determinism",
           ok, f"repeat bit-identical={repeat_ok}, "
               f"artifact roundtrip bit-exact={roundtrip_ok}")
