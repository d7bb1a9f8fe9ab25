"""Scaling probe: general synthesis on surrogate networks of growing size.

Builds fully actuated surrogate neural networks (MINDy-style activation),
steers the resting state to a random target, and reports amortized
per-iteration wall time by dimension.  Uses small sizes so the demo
finishes in about a minute; raise `DIMS` (and quadrature points) to probe
further.
"""

import time

import numpy as np

from gramsynth import (SolverConfig, SteeringProblem, SynthesisConfig,
                       mindy_like, run_picard)

DIMS = [2, 4, 8, 16]
TRIALS = 2
HORIZON = 1.0

solver = SolverConfig(rtol=1e-8, atol=1e-10)
print(f"{'d':>4s} {'trial':>6s} {'iters':>6s} {'err_end':>12s} {'s/iter':>8s}")
for d in DIMS:
    per_iter = []
    for trial in range(TRIALS):
        ss = np.random.SeedSequence([17, d, trial])
        sys_seed, target_seed = (int(s) for s in ss.generate_state(2))
        system = mindy_like(d, d, sys_seed)
        x1 = np.random.default_rng(target_seed).uniform(size=d)
        problem = SteeringProblem(system, np.zeros(d), x1, 0.0, HORIZON)
        config = SynthesisConfig(map_kind="general", n_max=10, eps_x=1e-6,
                                 quadrature_points=201, solver=solver)
        tic = time.perf_counter()
        result = run_picard(problem, config)
        wall = time.perf_counter() - tic
        status = result.status
        per_iter.append(wall / status.iterations)
        print(f"{d:4d} {trial:6d} {status.iterations:6d} "
              f"{result.records[-1].err_end:12.3e} {per_iter[-1]:8.3f}")
    print(f"{d:4d}   mean{'':>14s} {np.mean(per_iter):20.3f}"
          f"  (std {np.std(per_iter):.3f})")
