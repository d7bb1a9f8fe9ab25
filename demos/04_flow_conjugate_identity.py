"""Verify the flow-conjugate trajectory representation along a synthesis.

A controlled trajectory can be written as the drift flow applied to the
initial state shifted by a control-dependent integral.  This demo
synthesizes a pendulum swing-up, then re-predicts interior states from
that representation (quadrature over flow-Jacobian products plus two
drift flows) and prints the defect, which should sit near the integrator
tolerance.
"""

import numpy as np

from gramsynth import (SolverConfig, SynthesisConfig, flow_conjugate_profile,
                       make_benchmark, run_picard, solve_trajectory)

system, problem = make_benchmark("pendulum")
solver = SolverConfig(rtol=1e-10, atol=1e-12)
config = SynthesisConfig(map_kind="general", n_max=15, eps_x=1e-10,
                         eps_u=1e-10, quadrature_points=201, solver=solver)

result = run_picard(problem, config)
traj = solve_trajectory(problem, result.control, solver)
status = result.status
print(f"pendulum synthesis: {status.criterion}@{status.iterations}, "
      f"err_end={result.records[-1].err_end:.2e}")

nodes = 201
indices = np.arange(20, nodes - 1, 20)
times, defects = flow_conjugate_profile(problem, traj, indices,
                                        config=solver, nodes=nodes)
print("\nflow-conjugate defect |x_u(t) - Phi(shifted state)|:")
for t, r in zip(times, defects):
    print(f"  t={t:6.3f}   defect={r:.3e}")
print(f"\nmax defect: {defects.max():.3e}")
