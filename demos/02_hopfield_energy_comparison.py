"""Compare steering energies on the fully actuated 2D Hopfield network.

Three controllers steer (1,1) -> (-1,-1) over [0, 1.5]: the general
Gramian synthesis, the minimum-energy synthesis, and a feedback-
linearization baseline along a straight-line reference.  The minimum-
energy fixed point matches the Pontryagin extremal; the baseline steers
exactly but fights the drift and pays for it.
"""

import numpy as np

from gramsynth import (SolverConfig, SynthesisConfig, control_energy,
                       feedback_linearization_baseline, make_benchmark,
                       run_picard, solve_trajectory)

system, problem = make_benchmark("hopfield2d_full")
solver = SolverConfig(rtol=1e-8, atol=1e-10)

results = {}
for map_kind in ("general", "minimum_energy"):
    config = SynthesisConfig(map_kind=map_kind, n_max=25, eps_x=1e-10,
                             eps_u=1e-10, quadrature_points=201, solver=solver)
    result = run_picard(problem, config)
    u = result.control
    traj = solve_trajectory(problem, u, solver)
    results[map_kind] = {
        "u": u,
        "err": np.linalg.norm(traj.endpoint - problem.x1),
        "norm": np.sqrt(2 * control_energy(u, problem.t0, problem.T)),
        "iters": result.status.iterations,
    }

u_fl, E_fl = feedback_linearization_baseline(problem)
traj_fl = solve_trajectory(problem, u_fl, solver)
results["feedback_linearization"] = {
    "u": u_fl,
    "err": np.linalg.norm(traj_fl.endpoint - problem.x1),
    "norm": np.sqrt(2 * E_fl),
    "iters": 0,
}

print(f"{'method':>24s} {'err_end':>12s} {'||u||_2':>10s} {'iters':>6s}")
for name, r in results.items():
    print(f"{name:>24s} {r['err']:12.3e} {r['norm']:10.5f} {r['iters']:6d}")

best = results["minimum_energy"]["norm"]
fl = results["feedback_linearization"]["norm"]
print(f"\nminimum-energy vs baseline: {100 * (1 - best / fl):.1f}% lower L2 norm")

ts = np.linspace(problem.t0, problem.T, 7)
print("\ncontrols sampled over the horizon:")
for name in ("general", "minimum_energy", "feedback_linearization"):
    vals = results[name]["u"].eval_many(ts)
    rows = "  ".join(f"({v[0]:6.3f},{v[1]:6.3f})" for v in vals)
    print(f"  {name:>24s}: {rows}")
