"""The default of K = 201 quadrature nodes, checked by two error estimates.

Both estimates come from the samples one Picard pass already holds, taken
at the converged iterate of each case:

* quadrature: the Gramian by Simpson on the even nodes (101 of them; the
  even nodes form a Simpson grid when K is 1 mod 4) against the Gramian
  on all nodes, relative in the Frobenius norm;
* interpolation: the control spline through the even nodes, read at the
  odd nodes, against the exact values there, relative to the largest
  control value (sup over nodes).

The cases are every catalog system under both maps, plus `mindy_like`
networks at d = 24 (underactuated, minimum-energy map) and d = 64 (fully
actuated, general map), all at the default K and regularization.  The
networks' estimates are no larger than the two- to six-dimensional
systems', so the state dimension gives no reason for a finer grid.
"""

import numpy as np

from gramsynth import (SolverConfig, SteeringProblem, SynthesisConfig,
                       SynthesizedControl, assemble_mixed_from_samples,
                       assemble_symmetric_from_samples, chain_input_products,
                       chebyshev_reference_control, flow_input_products,
                       make_benchmark, mindy_like, run_picard, simpson_rule,
                       solve_gramian, solve_trajectory)

# Bounds over all cases: the measured maxima (3.7e-8 and 4.1e-7, both on
# hopfield2d_under under the general map) with a margin of about 2.5.
QUADRATURE_BOUND = 1e-7
INTERPOLATION_BOUND = 1e-6

PAPER_SOLVER = SolverConfig(rtol=1e-8, atol=1e-10)
CATALOG = ("unicycle", "pendulum", "sir", "spacecraft", "hopfield2d_full",
           "hopfield2d_under")


def _seeds(*entropy, n):
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(n)]


def _network_cases():
    """The C9 recipes: d = 24, k = 12 from a reachable target, and d = 64
    from rest to a uniform target."""
    d, k = 24, 12
    sys_seed, x0_seed, ref_seed = _seeds(5, d, k, n=3)
    solver = SolverConfig(rtol=1e-7, atol=1e-7)
    system = mindy_like(d, k, sys_seed)
    x0 = np.random.default_rng(x0_seed).standard_normal(d)
    u_ref = chebyshev_reference_control(k, (0.0, 1.0), seed=ref_seed,
                                        degree=5, sigma=0.2)
    probe = SteeringProblem(system, x0, np.zeros(d), 0.0, 1.0)
    x1 = solve_trajectory(probe, u_ref, solver).endpoint
    yield ("mindy24x12/minimum_energy",
           SteeringProblem(system, x0, x1, 0.0, 1.0),
           SynthesisConfig(map_kind="minimum_energy", n_max=20, eps_x=1e-4,
                           solver=solver))

    d = 64
    sys_seed, target_seed = _seeds(17, d, 0, n=2)
    x1 = np.random.default_rng(target_seed).uniform(0.0, 0.5, size=d)
    yield ("mindy64/general",
           SteeringProblem(mindy_like(d, d, sys_seed), np.zeros(d), x1,
                           0.0, 1.0),
           SynthesisConfig(map_kind="general", n_max=10, eps_x=1e-6,
                           solver=PAPER_SOLVER))


def _estimates(problem, u, config, y):
    """(quadrature, interpolation) estimates of one pass of the map at u."""
    traj = solve_trajectory(problem, u, config.solver)
    K = config.quadrature_points
    rule = simpson_rule(problem.t0, problem.T, K)
    even = simpson_rule(problem.t0, problem.T, (K + 1) // 2)
    tau = problem.anchor_time
    D = flow_input_products(traj, rule.nodes, tau, config.solver)
    if config.map_kind == "general":
        rows = D
        G = assemble_symmetric_from_samples(D, rule)
        G_even = assemble_symmetric_from_samples(D[::2], even)
    else:
        rows = chain_input_products(traj, u, rule.nodes, tau, config.solver)
        G = assemble_mixed_from_samples(D, rows, rule)
        G_even = assemble_mixed_from_samples(D[::2], rows[::2], even)
    quadrature = (np.linalg.norm(G_even.matrix - G.matrix)
                  / np.linalg.norm(G.matrix))

    lam = solve_gramian(G, y, reg=config.regularization).lam
    values = np.einsum("kim,i->km", rows, lam)
    spline = SynthesizedControl(lam, tau, config.map_kind, rule.nodes[::2],
                                values[::2])
    gap = spline.eval_many(rule.nodes[1::2]) - values[1::2]
    interpolation = (np.max(np.linalg.norm(gap, axis=1))
                     / np.max(np.linalg.norm(values, axis=1)))
    return quadrature, interpolation


def test_default_node_count_estimates():
    assert SynthesisConfig().quadrature_points == 201
    cases = [(f"{name}/{kind}", make_benchmark(name)[1],
              SynthesisConfig(map_kind=kind, n_max=25, eps_x=1e-10,
                              eps_u=1e-10, solver=PAPER_SOLVER))
             for name in CATALOG for kind in ("general", "minimum_energy")]
    cases += list(_network_cases())

    found = {}
    for label, problem, config in cases:
        result = run_picard(problem, config)
        assert result.status.success, label
        found[label] = _estimates(problem, result.control, config,
                                  result.residual)
    report = "\n".join(f"{label}: quadrature {q:.2e}, interpolation {i:.2e}"
                       for label, (q, i) in found.items())

    assert all(q <= QUADRATURE_BOUND and i <= INTERPOLATION_BOUND
               for q, i in found.values()), report
    small = [found[label] for label in found if not label.startswith("mindy")]
    networks = [found[label] for label in found if label.startswith("mindy")]
    for column in (0, 1):
        assert (max(e[column] for e in networks)
                <= max(e[column] for e in small)), report

