"""Steer a kinematic unicycle between poses with the general Gramian map.

The unicycle is driftless, so the first Gramian (built on the resting
trajectory) is rank-deficient and the first pass goes through the
minimum-norm least-squares solve; two more applications land the endpoint
error near 1e-10.  Run with `python demos/01_unicycle_steering.py`.
"""

import numpy as np

from gramsynth import (SolverConfig, SynthesisConfig, control_energy,
                       make_benchmark, run_picard, solve_trajectory)

system, problem = make_benchmark("unicycle")
print(f"system: {system.name} (d={system.d}, k={system.k})")
print(f"steer {problem.x0} -> {problem.x1} on [{problem.t0}, {problem.T}]")

config = SynthesisConfig(
    map_kind="general",
    n_max=20,
    eps_x=1e-11,
    quadrature_points=401,
    solver=SolverConfig(rtol=1e-8, atol=1e-10),
)
result = run_picard(problem, config)
u, status = result.control, result.status

print(f"\nterminated: {status.criterion} after {status.iterations} passes "
      f"(initial Gramian invertible: {status.initial_gramian_ok})")
print(f"{'n':>3s} {'err_end':>12s} {'err_fp':>12s} {'||u||_2':>10s}")
for r in result.records:
    print(f"{r.n:3d} {r.err_end:12.3e} {r.err_fp:12.3e} "
          f"{np.sqrt(2 * r.energy):10.6f}")

traj = solve_trajectory(problem, u, config.solver)
print(f"\nre-solved endpoint error: "
      f"{np.linalg.norm(traj.endpoint - problem.x1):.3e}")
print(f"control L2 norm: {np.sqrt(2 * control_energy(u, problem.t0, problem.T)):.6f}")

ts = np.linspace(problem.t0, problem.T, 9)
states = traj.solution.eval_many(ts)
print("\ntrajectory samples (t, x, y, heading):")
for t, x in zip(ts, states):
    print(f"  t={t:4.2f}  ({x[0]:7.4f}, {x[1]:7.4f}, {x[2]:7.4f})")
