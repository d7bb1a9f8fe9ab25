"""Trajectory solves, variational products, their Chebyshev-Lobatto
sampling, and the flow-conjugate identity."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp
from scipy.linalg import expm

from gramsynth import (SteeringProblem, ZeroControl, chain_input_products,
                       flow_conjugate_profile, flow_input_products,
                       drift_flow, linear_system, make_benchmark, residual,
                       run_picard, simpson_rule, solve_trajectory)
from gramsynth import (DenseSolution, SynthesisConfig, SynthesizedControl,
                       apply_map)
from gramsynth import flow, picard
from gramsynth.controls import ClosedFormControl
from tests.conftest import counted_calls
from tests.test_acceptance import suite_problem, suite_run
from tests.test_default_node_count import CATALOG, _network_cases


def _const_control(k, value):
    v = np.full(k, value)
    return ClosedFormControl(lambda t: v, k=k, span=(0.0, 10.0))


@pytest.fixture(scope="module")
def lti3(tight_solver):
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(3)
    B = rng.normal(size=(3, 2))
    system = linear_system(A, B)
    problem = SteeringProblem(system, np.array([1.0, 0.0, -1.0]),
                              np.array([0.0, 1.0, 0.0]), 0.0, 1.5)
    u = _const_control(2, 0.3)
    traj = solve_trajectory(problem, u, tight_solver)
    return A, B, system, problem, u, traj


def test_zero_control_driftless_constant(tight_solver):
    system, problem = make_benchmark("unicycle")
    traj = solve_trajectory(problem, ZeroControl(2, (0.0, 2.0)), tight_solver)
    assert np.array_equal(traj.endpoint, problem.x0)
    assert np.array_equal(traj.solution.eval(1.3), problem.x0)


def test_zero_control_reduces_to_drift_flow(tight_solver):
    system, problem = make_benchmark("pendulum")
    traj = solve_trajectory(problem, ZeroControl(1, (problem.t0, problem.T)),
                            tight_solver)
    ref = drift_flow(system, problem.t0, problem.T, problem.x0, tight_solver)
    assert np.max(np.abs(traj.endpoint - ref)) < 1e-9


def test_lti_variation_of_constants(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    T = problem.T
    forced = quad_vec(lambda s: expm(A * (T - s)) @ B @ u(s), 0.0, T,
                      epsabs=1e-12)[0]
    oracle = expm(A * T) @ problem.x0 + forced
    assert np.max(np.abs(traj.endpoint - oracle)) < 1e-8


def test_residual_driftless_both_anchors(tight_solver):
    system, problem = make_benchmark("unicycle")
    for anchor in (1, 2):
        p = SteeringProblem(system, problem.x0, problem.x1, 0.0, 2.0,
                            anchor=anchor)
        y = residual(p, tight_solver)
        assert np.max(np.abs(y - (p.x1 - p.x0))) < 1e-12


def test_residual_matched_endpoint(tight_solver):
    system, problem = make_benchmark("pendulum")
    x1 = drift_flow(system, problem.t0, problem.T, problem.x0, tight_solver)
    p = SteeringProblem(system, problem.x0, x1, problem.t0, problem.T)
    assert np.linalg.norm(residual(p, tight_solver)) < 1e-9


def test_residual_lti_oracle(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    y2 = residual(problem, tight_solver)
    oracle2 = problem.x1 - expm(A * problem.T) @ problem.x0
    assert np.max(np.abs(y2 - oracle2)) < 1e-9
    p1 = SteeringProblem(system, problem.x0, problem.x1, 0.0, problem.T,
                         anchor=1)
    y1 = residual(p1, tight_solver)
    oracle1 = expm(-A * problem.T) @ problem.x1 - problem.x0
    assert np.max(np.abs(y1 - oracle1)) < 1e-9


def test_flow_product_at_anchor_is_exact(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    out = flow_input_products(traj, [0.7], 0.7, tight_solver)[0]
    assert np.array_equal(out, B)


def test_flow_product_lti_expm(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    fwd = flow_input_products(traj, [0.4], 1.5, tight_solver)[0]
    assert np.max(np.abs(fwd - expm(A * 1.1) @ B)) < 1e-7
    back = flow_input_products(traj, [0.4], 0.0, tight_solver)[0]
    assert np.max(np.abs(back - expm(-A * 0.4) @ B)) < 1e-7


def test_flow_product_driftless_is_input(tight_solver):
    system, problem = make_benchmark("unicycle")
    u = _const_control(2, 0.2)
    traj = solve_trajectory(problem, u, tight_solver)
    out = flow_input_products(traj, [0.8], 2.0, tight_solver)[0]
    expect = system.input_matrix(0.8, traj.solution.eval(0.8))
    assert np.max(np.abs(out - expect)) < 1e-12


@pytest.mark.parametrize("name", ["pendulum", "sir", "hopfield2d_under",
                                  "spacecraft"])
def test_flow_product_fd_oracle(name, tight_solver):
    # columns of the product match finite differences of the drift flow
    system, problem = make_benchmark(name)
    u = _const_control(system.k, 0.25)
    traj = solve_trajectory(problem, u, tight_solver)
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    h = 1e-5
    for _ in range(5):
        t = float(rng.uniform(problem.t0, problem.T))
        tau = problem.T if rng.random() < 0.5 else problem.t0
        x_t = traj.solution.eval(t)
        B = system.input_matrix(t, x_t)
        P = flow_input_products(traj, [t], tau, tight_solver)[0]
        for j in range(system.k):
            plus = drift_flow(system, t, tau, x_t + h * B[:, j], tight_solver)
            minus = drift_flow(system, t, tau, x_t - h * B[:, j], tight_solver)
            assert np.max(np.abs(P[:, j] - (plus - minus) / (2 * h))) < 1e-5


def _chain(traj, u, t, tau, config):
    return chain_input_products(traj, u, [t], tau, config)[0]


def test_stm_product_at_horizon_is_exact(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    out = _chain(traj, u, problem.T, problem.T, tight_solver)
    assert np.array_equal(out, B)


def test_stm_product_lti_control_independent(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    S = _chain(traj, u, 0.4, problem.T, tight_solver)
    assert np.max(np.abs(S - expm(A * 1.1) @ B)) < 1e-7


def test_stm_reduces_to_flow_product_with_zero_control(tight_solver):
    system, problem = make_benchmark("hopfield2d_full")
    u = ZeroControl(2, (0.0, 1.5))
    traj = solve_trajectory(problem, u, tight_solver)
    S = _chain(traj, u, 0.5, problem.T, tight_solver)
    F = flow_input_products(traj, [0.5], problem.T, tight_solver)[0]
    assert np.max(np.abs(S - F)) < 1e-8


def test_chain_product_tau_horizon_equals_stm(lti3, tight_solver):
    # moving the anchor from T to 0 applies D Phi_{T,0} = expm(-A T)
    A, B, system, problem, u, traj = lti3
    ts = np.linspace(0.0, problem.T, 7)
    at_T = chain_input_products(traj, u, ts, problem.T, tight_solver)
    at_0 = chain_input_products(traj, u, ts, 0.0, tight_solver)
    assert np.max(np.abs(at_0 - expm(-A * problem.T) @ at_T)) < 1e-7


def test_chain_product_lti_oracle(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    C = _chain(traj, u, 0.4, 0.0, tight_solver)
    assert np.max(np.abs(C - expm(-A * 0.4) @ B)) < 1e-7


def test_chain_product_driftless_equals_stm(tight_solver):
    system, problem = make_benchmark("unicycle")
    u = _const_control(2, 0.3)
    traj = solve_trajectory(problem, u, tight_solver)
    C = _chain(traj, u, 0.7, 0.0, tight_solver)
    S = _chain(traj, u, 0.7, problem.T, tight_solver)
    assert np.max(np.abs(C - S)) < 1e-9


def _reference_chain_product(system, problem, u, t, tau):
    """Per-sample chain product from scipy alone: the forward closed-loop
    STM product R_u(T,t) B_t, then the drift-variational push to tau."""
    d, k = system.d, system.k
    ivp = dict(method="DOP853", rtol=1e-12, atol=1e-14)

    def state(s, x):
        return system.drift(s, x) + system.input_matrix(s, x) @ u(s)

    def stm(s, z):
        x, Y = z[:d], z[d:].reshape(d, k)
        J = system.closed_loop_jacobian(s, x, u(s))
        return np.concatenate([state(s, x), (J @ Y).ravel()])

    def push(s, z):
        y, Y = z[:d], z[d:].reshape(d, d)
        J = system.drift_jacobian(s, y)
        return np.concatenate([system.drift(s, y), (J @ Y).ravel()])

    x_t = solve_ivp(state, (problem.t0, t), problem.x0, **ivp).y[:, -1]
    z0 = np.concatenate([x_t, system.input_matrix(t, x_t).ravel()])
    z_T = solve_ivp(stm, (t, problem.T), z0, **ivp).y[:, -1]
    x_T, R_B = z_T[:d], z_T[d:].reshape(d, k)
    if tau == problem.T:
        return R_B
    z0 = np.concatenate([x_T, np.eye(d).ravel()])
    P = solve_ivp(push, (problem.T, tau), z0, **ivp).y[d:, -1].reshape(d, d)
    return P @ R_B


@pytest.mark.parametrize("name", ["pendulum", "hopfield2d_full"])
def test_chain_products_match_per_sample_reference(name, tight_solver):
    system, problem = make_benchmark(name)
    u = ClosedFormControl(lambda t: np.full(system.k, np.sin(3.0 * t)),
                          k=system.k, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    ts = np.linspace(problem.t0, problem.T, 9)
    for tau in (problem.t0, problem.T):
        C = chain_input_products(traj, u, ts, tau, tight_solver)
        for t, C_t in zip(ts, C):
            ref = _reference_chain_product(system, problem, u, float(t), tau)
            assert np.max(np.abs(C_t - ref)) <= 1e-9 * max(
                1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name,params", [("hopfield2d_full", {}),
                                         ("mindy_like", {"d": 8, "k": 4})])
def test_chain_products_independent_of_chunking(name, params, tight_solver,
                                                monkeypatch):
    system, problem = make_benchmark(name, params)
    u = ClosedFormControl(lambda t: np.full(system.k, np.sin(3.0 * t)),
                          k=system.k, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    ts = np.linspace(problem.t0, problem.T, 21)
    row = system.d + system.d * system.k
    for tau in (problem.t0, problem.T):
        runs = []
        # chunks of 1 node, 3 nodes and the whole grid
        for nodes in (1, 3, ts.size):
            monkeypatch.setattr(flow, "_BATCH_ELEMENTS", nodes * row)
            runs.append(chain_input_products(traj, u, ts, tau, tight_solver))
        whole = runs[-1]
        for C in runs[:-1]:
            assert np.max(np.abs(C - whole)) <= 1e-15 * np.max(np.abs(whole))


# The right-hand sides as they were before the stage times of an attempt
# were prepared at once: every stage reads the control, the trajectory and
# the closed-loop Jacobian at its own time.

def _per_stage_controlled_rhs(t, x, system, control):
    return system.drift(t, x) + system.input_matrix(t, x) @ control(t)


def _per_stage_costate_rhs(s, lam_flat, traj, u, d):
    x = traj.solution.eval(s)
    J = traj.system.closed_loop_jacobian(s, x, u(s))
    return -(lam_flat.reshape(d, d) @ J).ravel()


def _per_stage_integrate(monkeypatch, traj=None, u=None, system=None):
    """Make flow's prepared solves integrate the per-stage fields instead,
    at the same tolerance: the costate's (given ``traj``) or the
    trajectory's (given ``system`` and ``u``)."""
    real = flow.integrate

    def integrate(problem, config, *args, **kwargs):
        if problem.prepare is not None:
            field = (partial(_per_stage_costate_rhs, traj=traj, u=u,
                             d=traj.system.d) if traj is not None else
                     partial(_per_stage_controlled_rhs, system=system,
                             control=u))
            problem = replace(problem, vector_field=field, prepare=None)
        return real(problem, config, *args, **kwargs)

    monkeypatch.setattr(flow, "integrate", integrate)


PREPARED_CASES = [("unicycle", 2), ("pendulum", 1), ("sir", 2),
                  ("hopfield2d_under", 1)]


@pytest.fixture(scope="module")
def first_iterates(paper_solver):
    """F(u_0) of the minimum-energy map per system: a synthesized control."""
    out = {}
    for name, anchor in PREPARED_CASES:
        system, problem = make_benchmark(name, {"anchor": anchor})
        cfg = SynthesisConfig(map_kind="minimum_energy",
                              quadrature_points=101, solver=paper_solver)
        u1, _ = apply_map(problem, ZeroControl(system.k, (problem.t0,
                                                          problem.T)),
                          cfg, residual(problem, paper_solver))
        out[name] = problem, u1
    return out


@pytest.mark.parametrize("name", [name for name, _ in PREPARED_CASES])
def test_prepared_solves_equal_per_stage_reads(name, first_iterates,
                                               paper_solver, monkeypatch):
    # reading an attempt's stage times at once changes no bit of the
    # trajectory or of the chain products at the configured tolerance
    problem, u = first_iterates[name]
    nodes = np.linspace(problem.t0, problem.T, 101)
    traj = solve_trajectory(problem, u, paper_solver)
    rows = chain_input_products(traj, u, nodes, problem.anchor_time,
                                paper_solver)
    with monkeypatch.context() as m:
        _per_stage_integrate(m, system=problem.system, u=u)
        ref = solve_trajectory(problem, u, paper_solver).solution
    for attr in ("ts", "ys", "segments"):
        assert np.array_equal(getattr(traj.solution, attr),
                              getattr(ref, attr))
    _per_stage_integrate(monkeypatch, traj=traj, u=u)
    ref_rows = chain_input_products(traj, u, nodes, problem.anchor_time,
                                    paper_solver)
    assert np.array_equal(rows, ref_rows)


def test_loosened_costate_runs_at_the_products_tolerance(first_iterates,
                                                         paper_solver,
                                                         monkeypatch):
    problem, u = first_iterates["sir"]
    traj = solve_trajectory(problem, u, paper_solver)
    configs, real = [], flow.integrate

    def spy(problem, config, *args, **kwargs):
        if problem.prepare is not None:
            configs.append(config)
        return real(problem, config, *args, **kwargs)

    monkeypatch.setattr(flow, "integrate", spy)
    loose = replace(paper_solver, rtol=1e-5, atol=1e-7)
    for loosened in (False, True):
        chain_input_products(traj, u, [problem.t0, problem.T], problem.T,
                             loose, loosened=loosened)
    factor = flow._COSTATE_TOL_FACTOR
    assert configs[0] == replace(loose, rtol=loose.rtol * factor,
                                 atol=loose.atol * factor)
    assert configs[1] is loose


def test_minimum_energy_synthesis_reads_no_scalar_hot_path(paper_solver,
                                                           monkeypatch):
    # the right-hand sides read the trajectory and the control once per
    # step attempt; at most the fields at t_start and at the starting-step
    # probe may read one time alone
    scalar = []
    for owner, attr in ((DenseSolution, "eval"),
                        (SynthesizedControl, "__call__")):
        def spy(self, t, real=getattr(owner, attr)):
            scalar.append(t)
            return real(self, t)
        monkeypatch.setattr(owner, attr, spy)
    solves = counted_calls(monkeypatch, flow, "integrate")
    system, problem = make_benchmark("hopfield2d_full")
    result = run_picard(problem, SynthesisConfig(
        map_kind="minimum_energy", solver=paper_solver))
    assert result.status.success and len(result.records) > 2
    assert len(scalar) <= 2 * len(solves)


def _reference_flow_product(system, x_t, t, tau):
    """Per-sample flow-input product from scipy alone."""
    d, k = system.d, system.k
    B_t = system.input_matrix(t, x_t)
    if t == tau:
        return B_t

    def variational(s, z):
        y, Y = z[:d], z[d:].reshape(d, k)
        J = system.drift_jacobian(s, y)
        return np.concatenate([system.drift(s, y), (J @ Y).ravel()])

    z0 = np.concatenate([x_t, B_t.ravel()])
    z = solve_ivp(variational, (t, tau), z0, method="DOP853", rtol=1e-12,
                  atol=1e-14).y[:, -1]
    return z[d:].reshape(d, k)


@pytest.mark.parametrize("name,params", [("pendulum", {}),
                                         ("hopfield2d_full", {}),
                                         ("mindy_like", {"d": 8, "k": 4})])
def test_flow_products_match_per_sample_reference(name, params, tight_solver,
                                                  monkeypatch):
    system, problem = make_benchmark(name, params)
    u = ClosedFormControl(lambda t: np.full(system.k, np.sin(3.0 * t)),
                          k=system.k, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    ts = np.linspace(problem.t0, problem.T, 9)
    row = system.d + system.d * system.k
    for tau in (problem.t0, problem.T):
        refs = [_reference_flow_product(system, traj.solution.eval(t), t, tau)
                for t in ts]
        # one batch of all nine samples, then batches of two rows
        for elements in (flow._BATCH_ELEMENTS, 2 * row):
            monkeypatch.setattr(flow, "_BATCH_ELEMENTS", elements)
            D = flow_input_products(traj, ts, tau, tight_solver)
            for t, D_t, ref in zip(ts, D, refs):
                if t == tau:
                    assert np.array_equal(D_t, ref)
                assert np.max(np.abs(D_t - ref)) <= 1e-9 * max(
                    1.0, np.max(np.abs(ref)))


def test_warm_started_batches_match_and_take_fewer_steps(tight_solver,
                                                         monkeypatch):
    # 2-row batches, each started from its predecessor's last proposed
    # step, against the same batches started cold and one whole batch;
    # the per-sample scipy check of these batches is the test above
    system, problem = make_benchmark("mindy_like", {"d": 8, "k": 4})
    u = ClosedFormControl(lambda t: np.full(system.k, np.sin(3.0 * t)),
                          k=system.k, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    ts = np.linspace(problem.t0, problem.T, 9)
    row = system.d + system.d * system.k
    real = flow.integrate
    steps = {}

    def counted(warm):
        def wrapper(problem, config, dense=True, first_step=None):
            sol = real(problem, config, dense,
                       first_step=first_step if warm else None)
            steps[warm] += sol.n_accepted
            return sol
        return wrapper

    for tau in (problem.t0, problem.T):
        whole = flow_input_products(traj, ts, tau, tight_solver)
        monkeypatch.setattr(flow, "_BATCH_ELEMENTS", 2 * row)
        D = {}
        for warm in (False, True):
            steps[warm] = 0
            monkeypatch.setattr(flow, "integrate", counted(warm))
            D[warm] = flow_input_products(traj, ts, tau, tight_solver)
        monkeypatch.undo()
        assert steps[True] < steps[False]
        scale = max(1.0, np.max(np.abs(whole)))
        assert np.max(np.abs(D[True] - whole)) <= 1e-9 * scale


def test_products_are_pure(lti3, tight_solver):
    A, B, system, problem, u, traj = lti3
    a = flow_input_products(traj, [0.3], 1.5, tight_solver)[0]
    b = flow_input_products(traj, [0.3], 1.5, tight_solver)[0]
    assert np.array_equal(a, b)
    c = _chain(traj, u, 0.3, 0.0, tight_solver)
    d = _chain(traj, u, 0.3, 0.0, tight_solver)
    assert np.array_equal(c, d)


def test_first_step_and_step_list_leave_products_pure(tight_solver,
                                                     monkeypatch):
    # the step list only records each batch's proposed step; a handed
    # first step moves the products within the tolerance, the same bits on
    # every call, and leaves no trace in a later cold call
    system, problem = make_benchmark("mindy_like", {"d": 8, "k": 4})
    u = ClosedFormControl(lambda t: np.full(system.k, np.sin(3.0 * t)),
                          k=system.k, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    ts = np.linspace(problem.t0, problem.T, 9)
    monkeypatch.setattr(flow, "_BATCH_ELEMENTS",
                        2 * (system.d + system.d * system.k))
    tau = problem.T
    cold = flow_input_products(traj, ts, tau, tight_solver)
    steps = []
    recorded = flow_input_products(traj, ts, tau, tight_solver, steps=steps)
    assert np.array_equal(recorded, cold) and len(steps) == 4
    warm = [flow_input_products(traj, ts, tau, tight_solver,
                                first_step=steps[0]) for _ in range(2)]
    assert np.array_equal(warm[0], warm[1])
    assert np.max(np.abs(warm[0] - cold)) <= 1e-9 * max(
        1.0, np.max(np.abs(cold)))
    assert np.array_equal(flow_input_products(traj, ts, tau, tight_solver),
                          cold)


def test_flow_conjugate_zero_control(tight_solver):
    system, problem = make_benchmark("pendulum")
    traj = solve_trajectory(problem, ZeroControl(1, (problem.t0, problem.T)),
                            tight_solver)
    # grid index 36 of 51 nodes on [0.5, 1.5] is t = 1.22
    _, defects = flow_conjugate_profile(problem, traj, [36], tight_solver,
                                        nodes=51)
    assert defects[0] < 1e-8


def test_flow_conjugate_driftless(tight_solver):
    system, problem = make_benchmark("unicycle")
    u = ClosedFormControl(
        lambda t: np.array([0.5 + 0.1 * np.sin(t), 0.8 * np.cos(t)]),
        k=2, span=(0.0, 2.0))
    traj = solve_trajectory(problem, u, tight_solver)
    # grid index 130 of 201 nodes on [0, 2] is t = 1.3
    _, defects = flow_conjugate_profile(problem, traj, [130], tight_solver,
                                        nodes=201)
    assert defects[0] < 1e-9


def test_flow_conjugate_pendulum_smooth_control(tight_solver):
    system, problem = make_benchmark("pendulum")
    u = ClosedFormControl(lambda t: np.array([np.sin(2.0 * t)]), k=1,
                          span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    # grid index 120 of 201 nodes on [0.5, 1.5] is t = 1.1
    _, defects = flow_conjugate_profile(problem, traj, [120], tight_solver,
                                        nodes=201)
    assert defects[0] < 1e-6


def test_flow_conjugate_profile_matches_single_checks(tight_solver):
    system, problem = make_benchmark("pendulum")
    u = ClosedFormControl(lambda t: np.array([np.cos(t)]), k=1,
                          span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    times, defects = flow_conjugate_profile(problem, traj, [40, 100, 160],
                                            tight_solver, nodes=201)
    assert np.all(defects < 1e-6)
    with pytest.raises(ValueError):
        flow_conjugate_profile(problem, traj, [41], tight_solver, nodes=201)


# ---------------------------------------------------------------------------
# flow products sampled on a Chebyshev-Lobatto grid

def test_lobatto_grids_are_nested_and_hold_both_ends():
    t0, T = 0.37, 2.91
    for N in (8, 32, 64, 128):
        coarse = flow.lobatto_points(t0, T, N)
        fine = flow.lobatto_points(t0, T, 2 * N)
        assert np.array_equal(fine[::2], coarse)
        for grid in (coarse, fine):
            assert grid[0] == t0 and grid[-1] == T
            assert np.all(np.diff(grid) > 0.0)


def test_barycentric_matrix_reproduces_degree_n_polynomials():
    t0, T, N = 0.37, 2.91, 32
    grid = flow.lobatto_points(t0, T, N)
    nodes = simpson_rule(t0, T, 201).nodes   # holds t0, T and interior hits
    coeffs = np.random.default_rng(3).standard_normal((N + 1, 2))

    def poly(t):
        x = (2.0 * t - (t0 + T)) / (T - t0)
        return np.polynomial.chebyshev.chebval(x, coeffs).T

    M = flow.barycentric_matrix(grid, nodes)
    assert np.max(np.abs(M @ poly(grid) - poly(nodes))) <= 1e-12
    # the degree-N coefficient is read back, the top-degree tail of a
    # lower degree is rounding
    assert flow.chebyshev_tail(poly(grid)) == pytest.approx(
        np.max(np.abs(coeffs[-1])), rel=1e-12)
    low = coeffs.copy()
    low[N - N // 8 + 1:] = 0.0
    assert flow.chebyshev_tail(
        np.polynomial.chebyshev.chebval(
            (2.0 * grid - (t0 + T)) / (T - t0), low).T) <= 1e-13


def _pendulum_products(tight_solver):
    system, problem = make_benchmark("pendulum")
    u = ClosedFormControl(lambda t: np.array([np.sin(2.0 * t)]), k=1,
                          span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    return problem, (lambda ts: flow_input_products(
        traj, ts, problem.T, tight_solver))


def _at_nodes(V, M):
    """The products at the nodes from `sampled_products`' samples V and
    barycentric matrix M (None on a direct solve)."""
    return V if M is None else np.tensordot(M, V, axes=1)


def test_few_nodes_are_solved_directly(tight_solver):
    problem, products = _pendulum_products(tight_solver)
    for K in (3, 31, flow._LOBATTO_DEGREE + 1):
        nodes = simpson_rule(problem.t0, problem.T, K).nodes
        V, M, estimate = flow.sampled_products(products, nodes, 1e-10)
        assert np.array_equal(V, products(nodes))
        assert (M, estimate) == (None, 0.0)


def test_smooth_products_come_from_the_first_grid(tight_solver):
    problem, products = _pendulum_products(tight_solver)
    nodes = simpson_rule(problem.t0, problem.T, 201).nodes
    V, M, estimate = flow.sampled_products(products, nodes, 1e-10)
    assert len(V) == flow._LOBATTO_DEGREE + 1
    grid = flow.lobatto_points(problem.t0, problem.T, flow._LOBATTO_DEGREE)
    assert np.array_equal(M, flow.barycentric_matrix(grid, nodes))
    assert estimate <= flow._TAIL_FRACTION * 1e-10
    D = _at_nodes(V, M)
    direct = products(nodes)
    assert np.max(np.abs(D - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_kinked_products_double_the_grid_until_solved_directly(
        paper_solver):
    # the steering input jumps at t = 1, so the heading has a kink and the
    # products' Chebyshev tail decays only like n^-2: every grid is
    # refused, each doubling solves only its new points, and the nodes
    # are solved directly once the next grid would hold K of them
    system, problem = make_benchmark("unicycle")
    u = ClosedFormControl(lambda t: np.array([1.0, 1.0 if t < 1.0 else -1.0]),
                          k=2, span=(problem.t0, problem.T))
    traj = solve_trajectory(problem, u, paper_solver)
    sizes = []

    def products(ts):
        sizes.append(len(ts))
        return flow_input_products(traj, ts, problem.T, paper_solver)

    nodes = simpson_rule(problem.t0, problem.T, 401).nodes
    V, M, estimate = flow.sampled_products(products, nodes,
                                           paper_solver.rtol)
    assert sizes == [33, 32, 64, 128, 401]
    assert (M, estimate) == (None, 0.0)
    assert np.array_equal(V, flow_input_products(traj, nodes, problem.T,
                                                 paper_solver))


def _converged_cases():
    """Every catalog system under both maps at its converged acceptance
    suite control, and the d = 24 underactuated network at its converged
    control."""
    for name in CATALOG:
        for kind in ("general", "minimum_energy"):
            run = suite_run(name, kind)
            yield (f"{name}/{kind}", run["problem"], run["config"], run["u"],
                   run["records"])
    label, problem, config = next(_network_cases())
    result = run_picard(problem, config)
    yield label, problem, config, result.control, result.records


def test_sampled_products_match_direct_solves_across_the_catalog():
    # at every product tolerance a pass of the run used, the interpolated
    # products agree with the products solved at the nodes within
    # rtol * max|D|
    worst, solved = {}, {}
    for label, problem, config, u, records in _converged_cases():
        traj = solve_trajectory(problem, u, config.solver)
        nodes = simpson_rule(problem.t0, problem.T,
                             config.quadrature_points).nodes
        scale = config.solver.atol / config.solver.rtol
        for rtol in {r.product_rtol for r in records
                     if np.isfinite(r.product_rtol)}:
            solver = replace(config.solver, rtol=rtol, atol=rtol * scale)

            def products(ts):
                return flow_input_products(traj, ts, problem.anchor_time,
                                           solver)

            V, M, _ = flow.sampled_products(products, nodes, rtol)
            D, n = _at_nodes(V, M), len(V)
            direct = products(nodes)
            ratio = (np.max(np.abs(D - direct))
                     / (rtol * np.max(np.abs(direct))))
            worst[label] = max(worst.get(label, 0.0), ratio)
            if rtol == config.solver.rtol:
                solved[label] = n
    report = ", ".join(f"{label} {r:.2f}" for label, r in worst.items())
    assert len(worst) == 2 * len(CATALOG) + 1
    assert max(worst.values()) <= 1.0, report
    # 33 Lobatto points leave sir's general-map products 1.7 rtol off
    # while their tail reads 0.15 rtol: the tail bound must refuse them
    assert solved["sir/general"] > flow._LOBATTO_DEGREE + 1, report


def test_warm_started_passes_match_direct_solves_across_the_catalog(
        monkeypatch):
    # every pass of the runs above, as `run_picard` starts it: a loosened
    # pass from the Lobatto degree and first step the pass before it
    # hands over.  The interpolated products agree with the products
    # solved at the nodes (at the pass's solver, started cold) within
    # rtol * max|D|
    real, worst, coarse = picard.sampled_products, {}, {}

    def checked(products, nodes, rtol, degree):
        V, M, tail = real(products, nodes, rtol, degree)
        direct = products(nodes)
        ratio = (np.max(np.abs(_at_nodes(V, M) - direct))
                 / (rtol * np.max(np.abs(direct))))
        worst[label] = max(worst.get(label, 0.0), ratio)
        coarse[label] += degree < flow._LOBATTO_DEGREE
        return V, M, tail

    monkeypatch.setattr(picard, "sampled_products", checked)
    cases = [(f"{name}/{kind}",) + suite_problem(name, kind)[1:]
             for name in CATALOG for kind in ("general", "minimum_energy")]
    for label, problem, config in cases + [next(_network_cases())]:
        coarse[label] = 0
        assert run_picard(problem, config).status.success, label
    report = ", ".join(f"{label} {r:.2f} ({coarse[label]} coarse)"
                       for label, r in worst.items())
    print(report)
    assert len(worst) == 2 * len(CATALOG) + 1
    assert max(worst.values()) <= 1.0, report
    assert sum(coarse.values()) > 0, report
