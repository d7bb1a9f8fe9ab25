"""Synthesis maps, Picard iteration, metrics, and control representations."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from gramsynth import (InvalidQuadrature, SingularGramian, SolverConfig,
                       SteeringProblem, SynthesisConfig, SynthesizedControl,
                       ZeroControl, apply_map, chain_input_products,
                       control_energy, drift_flow, endpoint_error,
                       energy_certificate, flow_input_products, linear_system,
                       make_benchmark, mindy_like, residual, run_picard,
                       simpson_rule, solve_trajectory)
from gramsynth import picard
from gramsynth.controls import ClosedFormControl
from gramsynth import flow
from gramsynth.flow import (ProductRecord, barycentric_matrix,
                            lobatto_points, sampled_products, subgrid_tails)
from gramsynth.gramian import DEFICIENCY_TOL
from tests.conftest import counted_calls, lti_min_energy_control


# ---------------------------------------------------------------------------
# control representations

def test_zero_control():
    u = ZeroControl(2, (0.0, 1.0))
    assert np.array_equal(u(0.3), np.zeros(2))
    assert np.array_equal(u.eval_many([0.0, 0.5, 1.0]), np.zeros((3, 2)))


def test_closed_form_control_scalar_and_vectorized():
    u = ClosedFormControl(lambda t: np.array([np.sin(t)]), k=1,
                          span=(0.0, np.pi))
    assert u(0.5) == pytest.approx([np.sin(0.5)])
    uv = ClosedFormControl(lambda t: np.stack([np.sin(t)], axis=-1), k=1,
                           span=(0.0, np.pi), vectorized=True)
    ts = np.linspace(0, np.pi, 7)
    assert np.allclose(uv.eval_many(ts)[:, 0], np.sin(ts))


def _map(problem, u, cfg):
    """One application of ``cfg.map_kind``'s map, with the residual solved."""
    return apply_map(problem, u, cfg, residual(problem, cfg.solver))


@pytest.fixture(scope="module")
def lti_map_output(lti_pair, paper_solver):
    A, B, system, problem = lti_pair
    cfg = SynthesisConfig(quadrature_points=1001, solver=paper_solver)
    u1, traj0 = _map(problem, ZeroControl(2, (0.0, 1.2)), cfg)
    return u1, traj0, problem


def _exact_general_control(u1, traj0, ts, solver):
    """The general map's pointwise formula D_t^T lam at times ts.

    The products at ts are solved in one batch with the map's grid nodes,
    so they share the step sequence of the map's own products.
    """
    grid = u1.grid_ts
    D = flow_input_products(traj0, np.append(grid, ts), u1.anchor_time,
                            solver)
    return np.einsum("jim,i->jm", D[grid.size:], u1.lam)


def test_synthesized_grid_values_match_exact_formula(lti_map_output,
                                                     paper_solver):
    # grid nodes carry the exact pointwise product formula, over the
    # map's own products: sampled on its Lobatto grid, interpolated onto
    # the nodes
    u1, traj0, problem = lti_map_output
    V, M, _ = sampled_products(
        lambda ts: flow_input_products(traj0, ts, u1.anchor_time,
                                       paper_solver),
        u1.grid_ts, paper_solver.rtol)
    D = np.tensordot(M, V, axes=1)
    for j in range(0, len(u1.grid_ts), 200):
        exact = D[j].T @ u1.lam
        assert np.max(np.abs(u1(float(u1.grid_ts[j])) - exact)) < 1e-12


def test_synthesized_dense_vs_on_demand_between_nodes(lti_pair,
                                                      lti_map_output,
                                                      paper_solver):
    # the spline between nodes stays close to the pointwise formula, and
    # both stay close to the LTI closed form B^T expm(A^T (T - t)) lam
    A, B = lti_pair[:2]
    u1, traj0, problem = lti_map_output
    ts = np.array([0.123, 0.5501, 0.997])
    exact = _exact_general_control(u1, traj0, ts, paper_solver)
    for t, ex in zip(ts, exact):
        assert np.max(np.abs(u1(t) - ex)) < 1e-8
        closed = B.T @ expm(A.T * (problem.T - t)) @ u1.lam
        assert np.max(np.abs(u1(t) - closed)) < 5e-8


def test_synthesized_control_carries_multiplier(lti_map_output):
    u1, traj0, problem = lti_map_output
    assert u1.lam.shape == (4,)
    assert u1.map_kind == "general"
    assert u1.anchor_time == problem.T
    assert u1.solve_info is not None and u1.solve_info.method == "cholesky"


# ---------------------------------------------------------------------------
# map applications

def test_zero_residual_gives_zero_control(paper_solver):
    system, problem = make_benchmark("pendulum")
    x1 = drift_flow(system, problem.t0, problem.T, problem.x0, paper_solver)
    p = SteeringProblem(system, problem.x0, x1, problem.t0, problem.T)
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver)
    u1, _ = _map(p, ZeroControl(1, (p.t0, p.T)), cfg)
    assert np.max(np.abs(u1.eval_many(np.linspace(p.t0, p.T, 50)))) < 1e-8


def test_general_map_matches_lti_min_energy_oracle(lti_pair, paper_solver):
    A, B, system, problem = lti_pair
    cfg = SynthesisConfig(quadrature_points=1001, solver=paper_solver)
    u1, _ = _map(problem, ZeroControl(2, (0.0, 1.2)), cfg)
    u_star, W, lam = lti_min_energy_control(A, B, problem.x0, problem.x1,
                                            0.0, 1.2)
    ts = np.linspace(0.0, 1.2, 401)
    diff = max(np.max(np.abs(u1(float(t)) - u_star(float(t)))) for t in ts)
    assert diff < 1e-6


def test_minimum_energy_map_equals_general_for_lti(lti_pair, paper_solver):
    A, B, system, problem = lti_pair
    u0 = ClosedFormControl(lambda t: np.array([0.1, -0.2]), k=2,
                           span=(0.0, 1.2))
    ug, um = (_map(problem, u0, SynthesisConfig(
        map_kind=kind, quadrature_points=1001, solver=paper_solver))[0]
        for kind in ("general", "minimum_energy"))
    assert (ug.map_kind, um.map_kind) == ("general", "minimum_energy")
    ts = np.linspace(0.0, 1.2, 401)
    diff = um.eval_many(ts) - ug.eval_many(ts)
    assert np.max(np.linalg.norm(diff, axis=1)) < 1e-6


def test_unicycle_two_applications(paper_solver):
    system, problem = make_benchmark("unicycle")
    cfg = SynthesisConfig(quadrature_points=401, solver=paper_solver)
    # the resting unicycle's first Gramian is rank-deficient: flagged,
    # not raised, by the single-pass map
    u1, _ = _map(problem, ZeroControl(2, (0.0, 2.0)), cfg)
    assert u1.solve_info.deficient
    u2, _ = _map(problem, u1, cfg)
    traj = solve_trajectory(problem, u2, paper_solver)
    assert np.linalg.norm(traj.endpoint - problem.x1) <= 1e-9


def test_singular_gramian_raises_after_first_iteration(paper_solver):
    # underactuated driftless system with constant input directions: the
    # Gramian stays rank-1, so iteration 1 must flag loss of coercivity
    system = linear_system(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
    problem = SteeringProblem(system, np.zeros(2), np.array([0.5, 0.5]),
                              0.0, 1.0)
    cfg = SynthesisConfig(quadrature_points=51, solver=paper_solver, n_max=5)
    with pytest.raises(SingularGramian) as exc:
        run_picard(problem, cfg)
    assert exc.value.rel_residual > DEFICIENCY_TOL


# ---------------------------------------------------------------------------
# run_picard

def test_terminates_at_iteration_zero_on_matched_target(paper_solver):
    system, problem = make_benchmark("pendulum")
    x1 = drift_flow(system, problem.t0, problem.T, problem.x0, paper_solver)
    p = SteeringProblem(system, problem.x0, x1, problem.t0, problem.T)
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver,
                          eps_x=1e-8)
    result = run_picard(p, cfg)
    assert result.status.criterion == "endpoint_tolerance"
    assert result.records[-1].n == 0
    assert isinstance(result.control, ZeroControl)


def test_lti_fixed_point_at_iteration_one(lti_pair, tight_solver):
    # the map is constant in u for LTI systems, so iterate 2 equals iterate 1
    # up to integrator noise; needs tolerances tighter than the 1e-8 gate
    A, B, system, problem = lti_pair
    cfg = SynthesisConfig(quadrature_points=1001, solver=tight_solver,
                          eps_x=1e-13, eps_u=1e-8)
    result = run_picard(problem, cfg)
    assert result.status.criterion == "control_update_tolerance"
    assert result.records[-1].n == 1
    assert result.records[-1].err_fp < 1e-8


def test_returned_control_re_steers(paper_solver):
    system, problem = make_benchmark("unicycle")
    cfg = SynthesisConfig(quadrature_points=401, solver=paper_solver,
                          eps_x=1e-10)
    result = run_picard(problem, cfg)
    assert result.status.criterion == "endpoint_tolerance"
    traj = solve_trajectory(problem, result.control, paper_solver)
    assert np.linalg.norm(traj.endpoint - problem.x1) <= cfg.eps_x * 1.01
    # the last pass solved this trajectory already, bit for bit
    assert np.array_equal(result.trajectory.endpoint, traj.endpoint)


def test_initial_gramian_reporting(paper_solver):
    system, problem = make_benchmark("unicycle")
    cfg = SynthesisConfig(quadrature_points=201, solver=paper_solver)
    status = run_picard(problem, cfg).status
    assert status.initial_gramian_ok is False  # driftless resting Gramian
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver, n_max=2)
    status = run_picard(problem, cfg).status
    assert status.initial_gramian_ok is True


def test_records_are_finite_and_ordered(paper_solver):
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver, n_max=4,
                          eps_x=1e-14, eps_u=1e-14)
    records = run_picard(problem, cfg).records
    assert [r.n for r in records] == list(range(len(records)))
    for r in records:
        for v in (r.err_end, r.err_fp, r.energy, r.gramian_condition,
                  r.product_rtol, r.product_nodes, r.interp_estimate,
                  r.wall_time):
            assert np.isfinite(v) and v >= 0.0


def test_anchor_equivalence_on_unicycle(paper_solver):
    for anchor in (1, 2):
        system, problem = make_benchmark("unicycle", params={"anchor": anchor})
        cfg = SynthesisConfig(quadrature_points=401, solver=paper_solver,
                              eps_x=1e-9)
        result = run_picard(problem, cfg)
        assert result.status.criterion == "endpoint_tolerance"
        assert result.records[-1].err_end <= 1e-9


def test_result_unpacks_as_control_records_status(paper_solver):
    # perfbench/run.py unpacks the result as this triple
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver, n_max=2,
                          eps_x=1e-14, eps_u=1e-14)
    result = run_picard(problem, cfg)
    u, records, status = result
    assert u is result.control and records is result.records
    assert status is result.status
    # no pass solved the trajectory of the last iterate
    assert status.criterion == "max_iterations"
    assert result.trajectory is None


def test_synthesis_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(map_kind="fastest")
    with pytest.raises(ValueError):
        SynthesisConfig(n_max=0)
    with pytest.raises(ValueError):
        SynthesisConfig(eps_x=0.0)
    c = SynthesisConfig()
    assert c.quadrature_points == 201
    assert c.regularization == 0.0
    for K in (0, 1, 200, 201.0, "201", None):
        with pytest.raises(InvalidQuadrature):   # a ValueError
            SynthesisConfig(quadrature_points=K)
    for n_max in (1.5, "20", None):
        with pytest.raises(ValueError):
            SynthesisConfig(n_max=n_max)
    for reg in (-1.0, float("nan"), float("inf"), None, "1e-6"):
        with pytest.raises(ValueError):
            SynthesisConfig(regularization=reg)
    c = SynthesisConfig(quadrature_points=np.int64(5), regularization=1)
    assert c.quadrature_points == 5 and c.regularization == 1


# ---------------------------------------------------------------------------
# metrics

def test_endpoint_error_examples(paper_solver):
    system, problem = make_benchmark("unicycle")
    traj = solve_trajectory(problem, ZeroControl(2, (0.0, 2.0)), paper_solver)
    assert endpoint_error(traj, traj.endpoint) == 0.0
    assert endpoint_error(traj, traj.endpoint + np.array([3.0, 4.0, 0.0])) \
        == pytest.approx(5.0)


def test_control_energy_examples():
    c = ClosedFormControl(lambda t: np.array([3.0]), k=1, span=(0.0, 1.0))
    assert control_energy(c, 0.0, 1.0) == pytest.approx(4.5)
    s = ClosedFormControl(lambda t: np.array([np.sin(t)]), k=1,
                          span=(0.0, 2 * np.pi))
    assert control_energy(s, 0.0, 2 * np.pi) == pytest.approx(np.pi / 2,
                                                              abs=1e-8)


def test_energy_certificate_examples():
    assert energy_certificate(np.array([1.0, 0.0]),
                              np.array([1.0, 0.0])) == pytest.approx(0.5)
    lam = np.linalg.solve(np.diag([2.0, 0.5]), np.array([1.0, 1.0]))
    assert energy_certificate(np.array([1.0, 1.0]), lam) \
        == pytest.approx(1.25)


def test_certificate_matches_energy_scalar_integrator(paper_solver):
    # dx/dt = u, steer 0 -> 2 in unit time: lam = 2, u = 2, E = 2
    system = linear_system(np.zeros((1, 1)), np.eye(1))
    problem = SteeringProblem(system, np.zeros(1), np.array([2.0]), 0.0, 1.0)
    cfg = SynthesisConfig(quadrature_points=51, solver=paper_solver)
    u1, _ = _map(problem, ZeroControl(1, (0.0, 1.0)), cfg)
    y = residual(problem, paper_solver)
    cert = energy_certificate(y, u1.lam)
    assert cert == pytest.approx(2.0, abs=1e-8)
    assert control_energy(u1, 0.0, 1.0) == pytest.approx(2.0, abs=1e-8)


def test_certificate_at_fixed_point(paper_solver):
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=201, solver=paper_solver,
                          eps_x=1e-10, eps_u=1e-10, n_max=20)
    result = run_picard(problem, cfg)
    y = residual(problem, paper_solver)
    assert np.array_equal(result.residual, y)
    u = result.control
    E = control_energy(u, 0.0, 1.5)
    assert abs(0.5 * float(y @ u.lam) - E) <= 1e-4 * E


# ---------------------------------------------------------------------------
# Anderson mixing

@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixing_solves_an_affine_contraction(n):
    # x -> A x + b: mixing with memory >= n reaches the fixed point to
    # rounding within n + 2 map applications; the carried entries
    # (here C g + e) follow the same affine combination
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A *= 0.8 / np.linalg.norm(A, 2)
    b = rng.standard_normal(n)
    C, e = rng.standard_normal((2, n)), rng.standard_normal(2)
    x_star = np.linalg.solve(np.eye(n) - A, b)
    mixer, x = picard._AndersonMixer(n, 2), np.zeros(n)
    for applications in range(1, 6):
        g = A @ x + b
        mixed = mixer(g - x, g, C @ g + e)
        if mixed is None:
            x = g
            continue
        x, carried = mixed
        assert np.allclose(carried, C @ x + e, rtol=0, atol=1e-13)
        if np.max(np.abs(x - x_star)) <= 1e-13:
            break
    assert np.max(np.abs(x - x_star)) <= 1e-13
    assert applications <= n + 2


def test_run_picard_leaves_a_synthesized_u0_unchanged(paper_solver):
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver, n_max=5,
                          eps_x=1e-14, eps_u=1e-14)
    u0, _ = _map(problem, ZeroControl(2, (problem.t0, problem.T)), cfg)
    values, lam = u0.grid_values.copy(), u0.lam.copy()
    result = run_picard(problem, cfg, u0)
    assert result.status.criterion == "max_iterations"
    assert np.array_equal(u0.grid_values, values)
    assert np.array_equal(u0.lam, lam)


# Passes of plain Picard iteration (no mixing) on the acceptance suite's
# runs: eps_x = eps_u = 1e-11, n_max 25, paper solver.
PLAIN_PICARD_PASSES = {
    ("unicycle", "general"): 3, ("unicycle", "minimum_energy"): 21,
    ("pendulum", "general"): 10, ("pendulum", "minimum_energy"): 8,
    ("sir", "general"): 25, ("sir", "minimum_energy"): 24,
    ("spacecraft", "general"): 18, ("spacecraft", "minimum_energy"): 12,
    ("hopfield2d_full", "general"): 16,
    ("hopfield2d_full", "minimum_energy"): 20,
    ("hopfield2d_under", "general"): 23,
    ("hopfield2d_under", "minimum_energy"): 23,
}


@pytest.mark.parametrize("name,kind", sorted(PLAIN_PICARD_PASSES))
def test_mixing_needs_no_more_passes_than_plain_picard(name, kind,
                                                       paper_solver):
    system, problem = make_benchmark(name)
    cfg = SynthesisConfig(
        map_kind=kind, solver=paper_solver, n_max=25, eps_x=1e-11,
        eps_u=1e-11,
        quadrature_points=401 if name in ("unicycle", "pendulum") else 201)
    status = run_picard(problem, cfg).status
    assert status.success
    assert status.iterations <= PLAIN_PICARD_PASSES[name, kind]


def test_endpoint_stop_applies_no_map(paper_solver, monkeypatch):
    # the stopping pass checks the endpoint before sampling any product
    calls = counted_calls(monkeypatch, picard, "flow_input_products")
    system, problem = make_benchmark("unicycle")
    cfg = SynthesisConfig(quadrature_points=401, solver=paper_solver,
                          eps_x=1e-10)
    result = run_picard(problem, cfg)
    assert result.status.criterion == "endpoint_tolerance"
    assert len(calls) == result.status.iterations - 1
    last = result.records[-1]
    assert np.isnan(last.err_fp) and np.isnan(last.gramian_condition)
    assert np.isnan(last.product_rtol) and np.isnan(last.product_nodes)
    assert np.isnan(last.interp_estimate)
    assert last.err_end <= cfg.eps_x and last.wall_time > 0.0
    assert last.energy == control_energy(result.control, 0.0, 2.0)
    for r in result.records[:-1]:
        assert np.isfinite(r.err_fp) and np.isfinite(r.gramian_condition)


def test_control_update_stop_applies_the_map_every_pass(lti_pair,
                                                        tight_solver,
                                                        monkeypatch):
    calls = counted_calls(monkeypatch, picard, "flow_input_products")
    A, B, system, problem = lti_pair
    cfg = SynthesisConfig(quadrature_points=1001, solver=tight_solver,
                          eps_x=1e-13, eps_u=1e-8)
    result = run_picard(problem, cfg)
    assert result.status.criterion == "control_update_tolerance"
    assert len(calls) == result.status.iterations == 2


def test_each_pass_builds_one_control(paper_solver, monkeypatch):
    # the stop and the mixing read one node residual, so a mixing pass
    # builds no spline of F(u_n) next to the mixed iterate's
    builds = counted_calls(monkeypatch, SynthesizedControl, "__init__")
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=201, solver=paper_solver)
    records = run_picard(problem, cfg).records
    assert len(records) > 3   # mixing starts at pass 2
    assert len(builds) == sum(np.isfinite(r.err_fp) for r in records)


def test_err_fp_is_the_largest_node_residual(paper_solver):
    # from the zero control the residual is F(u_0) itself, read at the
    # nodes; the unicycle's F(u_0) is constant, and a sup of its spline
    # between the nodes would differ in the last bits
    system, problem = make_benchmark("unicycle")
    cfg = SynthesisConfig(quadrature_points=201, solver=paper_solver,
                          n_max=1, eps_x=1e-14, eps_u=1e-14)
    records = run_picard(problem, cfg).records
    u1, _ = _map(problem, ZeroControl(2, (problem.t0, problem.T)), cfg)
    assert records[0].err_fp == np.max(np.linalg.norm(u1.grid_values,
                                                      axis=1))


# ---------------------------------------------------------------------------
# product tolerances tied to the endpoint error

def _product_solvers(monkeypatch):
    """The solver handed to each flow- and chain-product call from now on."""
    flow = counted_calls(monkeypatch, picard, "flow_input_products")
    chain = counted_calls(monkeypatch, picard, "chain_input_products")
    return flow, chain


def test_pass_zero_and_apply_map_use_the_configured_solver(paper_solver,
                                                           monkeypatch):
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(map_kind="minimum_energy", quadrature_points=101,
                          solver=paper_solver, n_max=1, eps_x=1e-14,
                          eps_u=1e-14)
    flow, chain = _product_solvers(monkeypatch)
    run_picard(problem, cfg)
    _map(problem, ZeroControl(2, (problem.t0, problem.T)), cfg)
    assert len(flow) == len(chain) == 2
    assert all(args[-1] is cfg.solver for args in flow + chain)


def test_loose_pass_scales_rtol_and_atol_by_one_factor(paper_solver,
                                                       monkeypatch):
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(map_kind="minimum_energy", quadrature_points=101,
                          solver=paper_solver, n_max=2, eps_x=1e-14,
                          eps_u=1e-14)
    flow, chain = _product_solvers(monkeypatch)
    records = run_picard(problem, cfg).records
    loose = picard._PRODUCT_TOL_FRACTION * records[1].err_end
    assert loose > paper_solver.rtol
    solver = flow[1][-1]
    assert chain[1][-1] is solver
    assert solver.rtol == pytest.approx(loose, rel=1e-15)
    assert solver.atol / paper_solver.atol == pytest.approx(
        solver.rtol / paper_solver.rtol, rel=1e-15)
    assert solver.max_steps == paper_solver.max_steps
    assert [r.product_rtol for r in records] == [paper_solver.rtol,
                                                 solver.rtol]


def test_control_update_stop_waits_for_a_configured_tolerance_pass(
        paper_solver, monkeypatch):
    # every pass after the first reports a converged control update; the
    # run must still go on until its products run at the configured rtol
    real, calls = picard._sup_norm, []

    def fake(f):
        calls.append(f)
        return real(f) if len(calls) == 1 else 0.0

    monkeypatch.setattr(picard, "_sup_norm", fake)
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(map_kind="minimum_energy", quadrature_points=101,
                          solver=paper_solver, n_max=20, eps_x=1e-14,
                          eps_u=1e-9)
    result = run_picard(problem, cfg)
    records = result.records
    assert result.status.criterion == "control_update_tolerance"
    assert len(records) > 2
    assert records[-1].product_rtol == paper_solver.rtol
    assert all(r.product_rtol > paper_solver.rtol for r in records[1:-1])
    assert (picard._PRODUCT_TOL_FRACTION * records[-1].err_end
            <= paper_solver.rtol)


def test_divergence_guard_rule():
    from gramsynth.picard import diverging

    assert diverging([1.0, 2.0, 5.0, 11.0])
    assert diverging([0.1, 1.0, 2.0, 5.0, 11.0])      # windowed on the tail
    assert not diverging([1.0, 2.0, 5.0])             # too short
    assert not diverging([1.0, 0.5, 0.6, 0.55])       # not increasing
    assert not diverging([1.0, 2.0, 3.0, 9.0])        # under the x10 bar
    assert not diverging([1.0, 2.0, 2.0, 11.0])       # not strictly monotone


# ---------------------------------------------------------------------------
# loosened passes start their flow products where the pass before left them

def _recorded_passes(monkeypatch, run):
    """Call ``run()`` and record each `sampled_products` call of it: the
    rtol and degree handed over, the samples V, whether V holds the
    products on the 33-point grid solved cold bit for bit, and the
    first step and proposed step of the pass's first `integrate` call."""
    passes, solves = [], []
    real_sampled, real_integrate = picard.sampled_products, flow.integrate

    def integrate(problem, config, dense=True, first_step=None):
        sol = real_integrate(problem, config, dense, first_step=first_step)
        solves.append((first_step, sol.next_step))
        return sol

    def sampled(products, nodes, rtol, degree):
        first = len(solves)
        V, M, tail = real_sampled(products, nodes, rtol, degree)
        first_step, proposed = solves[first]
        grid = lobatto_points(nodes[0], nodes[-1], flow._LOBATTO_DEGREE)
        stride = (len(V) - 1) // flow._LOBATTO_DEGREE
        cold = stride > 0 and np.array_equal(V[::stride], products(grid))
        passes.append(dict(rtol=rtol, degree=degree, V=V, cold=cold,
                           first_step=first_step, proposed=proposed))
        return V, M, tail

    monkeypatch.setattr(flow, "integrate", integrate)
    monkeypatch.setattr(picard, "sampled_products", sampled)
    out = run()
    monkeypatch.undo()
    return out, passes


@pytest.fixture(scope="module")
def hopfield_passes(paper_solver):
    """Nine passes of the general map on `hopfield2d_full` at K = 101:
    pass 0, loosened passes 1-6 (1 and 2 at 17 points), configured-rtol
    passes 7 and 8; then one `apply_map` from the zero control."""
    system, problem = make_benchmark("hopfield2d_full")
    cfg = SynthesisConfig(quadrature_points=101, solver=paper_solver,
                          n_max=9, eps_x=1e-14, eps_u=1e-14)
    with pytest.MonkeyPatch.context() as monkeypatch:
        result, passes = _recorded_passes(
            monkeypatch, lambda: run_picard(problem, cfg))
        _, applied = _recorded_passes(
            monkeypatch, lambda: apply_map(
                problem, ZeroControl(2, (problem.t0, problem.T)), cfg,
                residual(problem, cfg.solver)))
    return cfg, result.records, passes, applied[0]


def test_pass_zero_configured_passes_and_apply_map_start_cold(
        hopfield_passes):
    cfg, records, passes, applied = hopfield_passes
    assert len(passes) == len(records) == cfg.n_max
    configured = [p for r, p in zip(records, passes)
                  if r.n == 0 or r.product_rtol == cfg.solver.rtol]
    assert len(configured) == 3
    for p in configured + [applied]:
        assert p["degree"] == flow._LOBATTO_DEGREE
        assert p["first_step"] is None
        assert p["cold"]


def test_loose_pass_starts_at_the_grid_its_predecessor_resolved(
        hopfield_passes):
    # the 17-point sub-grid of the previous pass's 33 samples decides:
    # its tail within the pass's acceptance threshold starts the pass at
    # 17 points, else at 33; a pass after a 17-point one starts at 17
    cfg, records, passes, _ = hopfield_passes
    starts = []
    for r, prev, p in zip(records[1:], passes, passes[1:]):
        if r.product_rtol == cfg.solver.rtol:
            continue
        expected = len(prev["V"]) - 1
        for n, tail in subgrid_tails(prev["V"]):
            if tail <= flow._TAIL_FRACTION * p["rtol"]:
                expected = n
        assert p["degree"] == expected
        starts.append((len(prev["V"]), p["degree"]))
    # both outcomes of the 33-point predecessors' tails occur
    assert (33, 16) in starts and (33, 32) in starts, starts


def test_loose_pass_starts_from_the_carried_first_step(hopfield_passes):
    cfg, records, passes, _ = hopfield_passes
    loose = [(prev, p) for r, prev, p in zip(records[1:], passes, passes[1:])
             if r.product_rtol != cfg.solver.rtol]
    assert len(loose) == 6
    for prev, p in loose:
        assert p["first_step"] == pytest.approx(
            prev["proposed"] * (p["rtol"] / prev["rtol"]) ** (1 / 8),
            rel=1e-15)


def test_product_record_start_rule():
    tails = ((32, 1e-7), (16, 1e-5))
    record = ProductRecord(rtol=1e-3, degree=64, tails=tails, step=0.5)
    # the smallest degree whose tail is within 0.1 rtol, else the record's
    assert record.start(1e-4) == (16, pytest.approx(0.5 * 0.1 ** 0.125))
    assert record.start(1e-6)[0] == 32
    assert record.start(1e-7)[0] == 64
    assert ProductRecord(1e-3, 64, tails, None).start(1e-4) == (16, None)
    # after a direct solve: the first grid, whatever the tails
    assert ProductRecord(1e-3, None, (), 0.5).start(1e-3) == (
        flow._LOBATTO_DEGREE, 0.5)


# ---------------------------------------------------------------------------
# Gramian and node values contracted from the Lobatto samples

def _pass_and_explicit_route(problem, u, cfg, monkeypatch):
    """One `apply_map` pass, and the same pass the explicit way.

    Returns the pass's Gramian and node values, the same two from the
    flow products at the K nodes (formed as barycentric_matrix(grid,
    nodes) @ V, or V itself on a direct solve) followed by the K-node
    Simpson sums written out, and the pass's samples V and matrix M.
    """
    seen = {}
    real_sampled, real_solve = picard.sampled_products, picard.solve_gramian

    def sampled(*args):
        seen["samples"] = real_sampled(*args)
        return seen["samples"]

    def solve(G, *args, **kwargs):
        seen["gramian"] = G.matrix
        return real_solve(G, *args, **kwargs)

    monkeypatch.setattr(picard, "sampled_products", sampled)
    monkeypatch.setattr(picard, "solve_gramian", solve)
    u1, traj = _map(problem, u, cfg)
    V, M, _ = seen["samples"]
    rule = simpson_rule(problem.t0, problem.T, cfg.quadrature_points)
    D = V
    if M is not None:
        grid = lobatto_points(problem.t0, problem.T, len(V) - 1)
        D = np.tensordot(barycentric_matrix(grid, rule.nodes), V, axes=1)
    rows = D if cfg.map_kind == "general" else chain_input_products(
        traj, u, rule.nodes, problem.anchor_time, cfg.solver)
    G = np.einsum("k,kim,kjm->ij", rule.weights, D, rows)
    values = np.einsum("kim,i->km", rows, u1.lam)
    return (seen["gramian"], u1.grid_values), (G, values), (V, M)


def _rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _network_problem(d, k, K, kind):
    """A d-dimensional `mindy_like` network steered from rest over [0, 1]
    by K nodes, and a smooth non-zero control to apply the map to."""
    system = mindy_like(d, k, seed=7)
    x1 = np.random.default_rng(8).uniform(0.0, 0.5, size=d)
    problem = SteeringProblem(system, np.zeros(d), x1, 0.0, 1.0)
    phase = np.arange(k)
    u = ClosedFormControl(lambda t: 0.2 * np.sin(3.0 * t + phase), k=k,
                          span=(0.0, 1.0))
    cfg = SynthesisConfig(map_kind=kind, quadrature_points=K,
                          solver=SolverConfig(rtol=1e-8, atol=1e-10))
    return problem, u, cfg


@pytest.mark.parametrize("kind", ["general", "minimum_energy"])
def test_sample_space_pass_matches_the_explicit_route(kind, monkeypatch):
    problem, u, cfg = _network_problem(16, 8, 1001, kind)
    (G, values), (G_ref, values_ref), (V, M) = _pass_and_explicit_route(
        problem, u, cfg, monkeypatch)
    assert M is not None and len(V) < cfg.quadrature_points
    assert _rel_diff(G, G_ref) <= 1e-12
    assert _rel_diff(values, values_ref) <= 1e-12


def _kinked_unicycle(K, kind):
    """The `unicycle` whose steering input jumps at t = 1, as in the
    kinked-products test of tests/test_flow.py: no grid is accepted."""
    system, problem = make_benchmark("unicycle")
    u = ClosedFormControl(lambda t: np.array([1.0, 1.0 if t < 1.0 else -1.0]),
                          k=2, span=(problem.t0, problem.T))
    cfg = SynthesisConfig(map_kind=kind, quadrature_points=K,
                          solver=SolverConfig(rtol=1e-8, atol=1e-10))
    return problem, u, cfg


@pytest.mark.parametrize("kind", ["general", "minimum_energy"])
@pytest.mark.parametrize("case", [(_network_problem, 16, 8, 33),
                                  (_kinked_unicycle, 401)],
                         ids=["network-K33", "kinked-unicycle-K401"])
def test_direct_solves_match_the_explicit_route(case, kind, monkeypatch):
    # the fallback that solves the products at the nodes weighs them by
    # the Simpson weights alone: the K-node sums within rounding
    make, *args = case
    problem, u, cfg = make(*args, kind)
    (G, values), (G_ref, values_ref), (V, M) = _pass_and_explicit_route(
        problem, u, cfg, monkeypatch)
    assert M is None and len(V) == cfg.quadrature_points
    assert _rel_diff(G, G_ref) <= 1e-14
    assert _rel_diff(values, values_ref) <= 1e-14


def test_general_pass_memory_does_not_grow_with_a_product_stack(
        monkeypatch):
    # one (K, d, k) stack of flow products at the nodes is 8 K d k bytes;
    # from K = 201 to K = 1001 the pass's traced peak must grow by less
    # than half of the 800 nodes' share of it.  The integrator's batch
    # workspace (8.7 MB here, whatever K) would hide such a stack under
    # the peak, so the traced pass replays products solved beforehand.
    d = 32
    solved, real = {}, picard.flow_input_products

    def replayed(traj, ts, *args, **kwargs):
        key = np.asarray(ts).tobytes()
        if key not in solved:
            solved[key] = real(traj, ts, *args, **kwargs)
        return solved[key].copy()

    monkeypatch.setattr(picard, "flow_input_products", replayed)
    peaks = {}
    for K in (201, 1001):
        problem, u, cfg = _network_problem(d, d, K, "general")
        y = residual(problem, cfg.solver)
        apply_map(problem, u, cfg, y)   # solves the products to replay
        tracemalloc.start()
        try:
            apply_map(problem, u, cfg, y)
            peaks[K] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1001] - peaks[201] < 0.5 * 800 * d * d * 8, peaks
