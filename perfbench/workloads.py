"""The benchmark's three workloads, built from a seed.

Each workload is one steering problem, its synthesis settings and the data
its correctness checks need.  All three systems are autonomous, so the
benchmark seed shifts the time origin: the seed draws ``t0`` uniformly from
[0, 4) and every seed poses the same steering problem on the shifted span
[t0, t0 + T].  The inputs the program receives differ from seed to seed
(the span, the quadrature nodes, every time argument), while the work a
synthesis does stays the same: the pass counts do not change, and the step
counts move by at most a fraction of a per cent.  So the spread of the
figures across seeds is the spread of the measurement.  The network weights, the initial states and
the targets come from the fixed root seeds of the recipes they reproduce.

Only the public API of gramsynth is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from gramsynth import (SolverConfig, SteeringProblem, SynthesisConfig,
                       chebyshev_reference_control, make_benchmark,
                       mindy_like, solve_trajectory)


@dataclass
class Workload:
    """Inputs of one synthesis plus what the checks compare against."""

    name: str
    problem: SteeringProblem
    config: SynthesisConfig
    tolerance: float                     # endpoint tolerance of the run
    reference_control: Optional[Callable] = None
    seeds: dict = field(default_factory=dict)   # of the recipe

    def make_up(self) -> dict:
        p = self.problem
        return {"system": p.system.name, "x0": p.x0.tolist(),
                "x1": p.x1.tolist(), "t0": p.t0, "T": p.T,
                "seeds": self.seeds}


def time_origin(seed: int) -> float:
    """Start of the time span for a benchmark seed, in [0, 4)."""
    return float(np.random.default_rng([int(seed), 2605]).uniform(0.0, 4.0))


def derived_seeds(root: int, *tags: int, n: int = 2):
    """Seeds of a recipe, derived as gramsynth's harness derives them."""
    ss = np.random.SeedSequence([int(root), *map(int, tags)])
    return [int(s) for s in ss.generate_state(n)]


def hopfield_me(seed: int) -> Workload:
    """`configs/hopfield_minimum_energy.json` on a shifted span."""
    t0 = time_origin(seed)
    _, problem = make_benchmark("hopfield2d_full",
                                {"t0": t0, "T": t0 + 1.5})
    config = SynthesisConfig(
        map_kind="minimum_energy", n_max=20, eps_x=1e-9, eps_u=1e-9,
        quadrature_points=201, solver=SolverConfig(rtol=1e-8, atol=1e-10))
    return Workload("hopfield-me", problem, config, tolerance=1e-9)


def mindy24_under_me(seed: int) -> Workload:
    """The underactuated C9 recipe (root seed 5) at eps_x = 1e-4."""
    d, k, root = 24, 12, 5
    t0 = time_origin(seed)
    T = t0 + 1.0
    sys_seed, x0_seed, ref_seed = derived_seeds(root, d, k, n=3)
    solver = SolverConfig(rtol=1e-7, atol=1e-7)
    system = mindy_like(d, k, sys_seed)
    x0 = np.random.default_rng(x0_seed).standard_normal(d)
    u_ref = chebyshev_reference_control(k, (t0, T), seed=ref_seed,
                                        degree=5, sigma=0.2)
    probe = SteeringProblem(system, x0, np.zeros(d), t0, T)
    x1 = solve_trajectory(probe, u_ref, solver).endpoint
    problem = SteeringProblem(system, x0, x1, t0, T)
    config = SynthesisConfig(map_kind="minimum_energy", n_max=50, eps_x=1e-4,
                             quadrature_points=201, solver=solver)
    return Workload("mindy24-under-me", problem, config, tolerance=1e-4,
                    reference_control=u_ref,
                    seeds={"root": root, "system": sys_seed, "x0": x0_seed,
                           "reference": ref_seed})


def mindy64_general(seed: int) -> Workload:
    """The C9 scale recipe (root seed 17) at K = 1001."""
    d, root = 64, 17
    t0 = time_origin(seed)
    T = t0 + 1.0
    sys_seed, target_seed = derived_seeds(root, d, 0)
    system = mindy_like(d, d, sys_seed)
    x1 = np.random.default_rng(target_seed).uniform(0.0, 0.5, size=d)
    problem = SteeringProblem(system, np.zeros(d), x1, t0, T)
    config = SynthesisConfig(map_kind="general", n_max=10, eps_x=1e-6,
                             quadrature_points=1001, regularization=1e-6,
                             solver=SolverConfig(rtol=1e-8, atol=1e-10))
    return Workload("mindy64-general", problem, config, tolerance=1e-6,
                    seeds={"root": root, "system": sys_seed,
                           "target": target_seed})


BUILDERS = {"hopfield-me": hopfield_me,
            "mindy24-under-me": mindy24_under_me,
            "mindy64-general": mindy64_general}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
