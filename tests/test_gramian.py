"""Simpson rule, Gramian assembly vs classical oracles, multiplier solves."""

import warnings

import numpy as np
import pytest

from gramsynth import (GramianMatrix, InvalidQuadrature, SteeringProblem,
                       assemble_mixed_from_samples,
                       assemble_symmetric_from_samples, chain_input_products,
                       cumulative_simpson, flow_input_products, linear_system,
                       make_benchmark, simpson_rule, solve_gramian,
                       solve_trajectory)
from gramsynth.controls import ClosedFormControl, ZeroControl
from gramsynth.gramian import DEFICIENCY_TOL
from tests.conftest import lti_gramian


def assemble_symmetric(traj, tau, rule, config):
    D = flow_input_products(traj, rule.nodes, tau, config)
    return assemble_symmetric_from_samples(D, rule)


def assemble_mixed(traj, u, tau, rule, config):
    D = flow_input_products(traj, rule.nodes, tau, config)
    C = chain_input_products(traj, u, rule.nodes, tau, config)
    return assemble_mixed_from_samples(D, C, rule)


def test_simpson_single_panel_weights():
    r = simpson_rule(0.0, 1.0, 3)
    assert r.weights == pytest.approx([1 / 6, 4 / 6, 1 / 6])
    assert r.weights.sum() == pytest.approx(1.0)


def test_simpson_exact_on_cubics():
    r = simpson_rule(0.0, 1.0, 3)
    assert float(r.weights @ r.nodes ** 3) == pytest.approx(0.25, abs=1e-15)


def test_simpson_sine_integral():
    # the composite error constant (pi/180) h^4 max|f''''| is 1.08e-8 here
    r = simpson_rule(0.0, np.pi, 101)
    assert float(r.weights @ np.sin(r.nodes)) == pytest.approx(2.0, abs=2e-8)
    fine = simpson_rule(0.0, np.pi, 401)
    assert float(fine.weights @ np.sin(fine.nodes)) == pytest.approx(
        2.0, abs=1e-10)


def test_simpson_validation():
    for K in (2, 4, 100, 1):
        with pytest.raises(InvalidQuadrature):
            simpson_rule(0.0, 1.0, K)


def test_simpson_weight_sum_matches_span():
    r = simpson_rule(0.25, 1.75, 7)
    assert abs(r.weights.sum() - 1.5) <= 1e-12 * 1.5
    assert np.all(r.weights > 0)


def test_simpson_fourth_order():
    errs = []
    for K in (11, 21, 41):
        r = simpson_rule(0.0, 1.0, K)
        errs.append(abs(float(r.weights @ np.exp(r.nodes)) - (np.e - 1.0)))
    assert 8 < errs[0] / errs[1] < 32
    assert 8 < errs[1] / errs[2] < 32


def test_cumulative_simpson_prefixes():
    r = simpson_rule(0.0, 2.0, 9)
    vals = np.sin(r.nodes)
    prefixes = cumulative_simpson(vals, r)
    assert prefixes[0] == pytest.approx(0.0)
    # each even prefix equals a fresh rule on the subinterval
    for m in (1, 2, 3, 4):
        sub = simpson_rule(0.0, r.nodes[2 * m], 2 * m + 1)
        assert prefixes[m] == pytest.approx(float(sub.weights @ np.sin(sub.nodes)))


def test_symmetric_gramian_scalar_integrator(tight_solver):
    # dx/dt = u in one dimension: the Gramian is the horizon length
    system = linear_system(np.zeros((1, 1)), np.eye(1))
    problem = SteeringProblem(system, np.zeros(1), np.ones(1), 0.0, 1.0)
    traj = solve_trajectory(problem, ZeroControl(1, (0.0, 1.0)), tight_solver)
    rule = simpson_rule(0.0, 1.0, 11)
    G = assemble_symmetric(traj, 1.0, rule, tight_solver)
    assert G.matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)
    M = assemble_mixed(traj, traj.control, 1.0, rule, tight_solver)
    assert M.matrix == pytest.approx(np.array([[1.0]]), abs=1e-9)


def test_symmetric_gramian_driftless_constant(tight_solver):
    system, problem = make_benchmark("unicycle")
    traj = solve_trajectory(problem, ZeroControl(2, (0.0, 2.0)), tight_solver)
    rule = simpson_rule(0.0, 2.0, 21)
    G = assemble_symmetric(traj, 2.0, rule, tight_solver)
    B0 = system.input_matrix(0.0, problem.x0)
    assert np.max(np.abs(G.matrix - 2.0 * B0 @ B0.T)) < 1e-12
    M = assemble_mixed(traj, traj.control, 2.0, rule, tight_solver)
    assert np.max(np.abs(M.matrix - 2.0 * B0 @ B0.T)) < 1e-9


def test_symmetric_gramian_lti_oracle(lti_pair, tight_solver):
    A, B, system, problem = lti_pair
    u = ClosedFormControl(lambda t: np.array([0.3 * np.sin(t), -0.2]), k=2,
                          span=(0.0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    rule = simpson_rule(0.0, problem.T, 201)
    G = assemble_symmetric(traj, problem.T, rule, tight_solver)
    W = lti_gramian(A, B, problem.T)
    assert np.max(np.abs(G.matrix - W)) < 1e-6
    assert np.array_equal(G.matrix, G.matrix.T)
    assert np.linalg.eigvalsh(G.matrix).min() >= -1e-10 * np.abs(G.matrix).max()


def test_gramian_lti_control_independence(lti_pair, tight_solver):
    A, B, system, problem = lti_pair
    rule = simpson_rule(0.0, problem.T, 101)
    mats = []
    for c in (0.0, 0.7):
        u = ClosedFormControl(lambda t, c=c: np.array([c, -c]), k=2,
                              span=(0.0, problem.T))
        traj = solve_trajectory(problem, u, tight_solver)
        mats.append(assemble_symmetric(traj, problem.T, rule,
                                       tight_solver).matrix)
    assert np.max(np.abs(mats[0] - mats[1])) < 1e-8


def test_mixed_equals_symmetric_for_lti(lti_pair, tight_solver):
    A, B, system, problem = lti_pair
    u = ClosedFormControl(lambda t: np.array([0.2, 0.1 * t]), k=2,
                          span=(0.0, problem.T))
    traj = solve_trajectory(problem, u, tight_solver)
    rule = simpson_rule(0.0, problem.T, 101)
    N = assemble_symmetric(traj, problem.T, rule, tight_solver)
    G = assemble_mixed(traj, u, problem.T, rule, tight_solver)
    assert np.max(np.abs(N.matrix - G.matrix)) < 1e-6


def _gram(M, kind="symmetric"):
    return GramianMatrix(np.asarray(M, dtype=float), kind)


def test_solve_identity():
    s = solve_gramian(_gram(np.eye(3)), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(s.lam, [1.0, 2.0, 3.0])
    assert s.method == "cholesky"


def test_solve_diagonal():
    s = solve_gramian(_gram(np.diag([2.0, 0.5])), np.array([1.0, 1.0]))
    assert s.lam == pytest.approx([0.5, 2.0], abs=1e-12)


def test_solve_hand_inverse():
    s = solve_gramian(_gram([[2.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    assert s.lam == pytest.approx([1.0, -1.0], abs=1e-12)


def test_solve_mixed_lu_path():
    M = np.array([[1.0, 0.8], [-0.3, 1.2]])
    s = solve_gramian(_gram(M, kind="mixed"), np.array([0.5, -1.0]))
    assert s.method == "lu"
    assert np.max(np.abs(M @ s.lam - [0.5, -1.0])) < 1e-12


def test_solve_reports_residual_and_roundtrip():
    rng = np.random.default_rng(3)
    R = rng.normal(size=(5, 5))
    M = R @ R.T + np.eye(5)
    y = rng.normal(size=5)
    G = _gram(M)
    fields, matrix = dict(vars(G)), G.matrix.copy()
    s = solve_gramian(G, y)
    assert np.linalg.norm(M @ s.lam - y) <= 1e-8 * np.linalg.norm(y)
    assert s.residual <= 1e-10
    assert np.isfinite(s.condition_estimate)
    # the solve reports through its result and leaves G as it was
    assert vars(G).keys() == fields.keys()
    assert np.array_equal(G.matrix, matrix)


def test_deficient_solve_is_flagged():
    # the solve reports deficiency and returns; run_picard decides on it
    G = _gram([[1.0, 0.0], [0.0, 0.0]])
    s = solve_gramian(G, np.array([1.0, 1.0]))
    assert s.deficient and s.method == "lstsq"
    assert s.rel_residual > DEFICIENCY_TOL
    assert s.lam == pytest.approx([1.0, 0.0])  # minimum-norm solution


def test_in_range_rank_deficiency_is_not_deficient():
    G = _gram([[1.0, 0.0], [0.0, 0.0]])
    s = solve_gramian(G, np.array([2.0, 0.0]))  # y in the range
    assert not s.deficient


def test_tiny_pivot_falls_back_to_lstsq():
    # rounding leaves this singular matrix a tiny positive pivot; a
    # factorization past CONDITION_LIMIT is not trusted
    M = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    y = np.array([1.0, 1.0])
    for kind in ("symmetric", "mixed"):
        s = solve_gramian(_gram(M, kind=kind), y)
        assert s.method == "lstsq"
        assert np.max(np.abs(s.lam - 0.5)) < 1e-12
        assert not s.deficient


def test_exactly_zero_pivot_falls_back_to_lstsq_silently():
    # LU of an exactly singular mixed Gramian leaves a zero pivot, which
    # the least-squares fallback handles, so scipy's warning is not shown
    G = _gram([[1.0, 0.0], [0.0, 0.0]], kind="mixed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve_gramian(G, np.array([2.0, 0.0]))
    assert s.method == "lstsq"
    assert s.lam == pytest.approx([2.0, 0.0])


def test_regularized_solve_is_refined():
    rng = np.random.default_rng(4)
    R = rng.normal(size=(6, 6))
    M = R @ R.T + 0.5 * np.eye(6)
    y = rng.normal(size=6)
    exact = np.linalg.solve(M, y)
    s = solve_gramian(_gram(M), y, reg=1e-6)
    assert s.regularization == 1e-6
    assert np.max(np.abs(s.lam - exact)) < 1e-9
    assert s.residual < 1e-9 * np.linalg.norm(y)
    # the refined lam solves the unshifted system, not the shifted one
    shifted_res = np.linalg.norm((M + 1e-6 * np.eye(6)) @ s.lam - y)
    assert shifted_res == pytest.approx(1e-6 * np.linalg.norm(s.lam),
                                        rel=1e-3)


def test_refinement_takes_more_than_one_step():
    # the shift leaves a contraction of reg / (lambda_min + reg) ~ 0.09 per
    # Richardson step, so a second step cuts the residual about tenfold
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = (Q * np.geomspace(1e-3, 1.0, 6)) @ Q.T
    M = 0.5 * (M + M.T)
    y = rng.normal(size=6)
    reg = 1e-4
    shifted = M + reg * np.eye(6)
    lam = np.linalg.solve(shifted, y)
    one_step = lam + np.linalg.solve(shifted, y - M @ lam)
    res_one = np.linalg.norm(M @ one_step - y)
    two_steps = one_step + np.linalg.solve(shifted, y - M @ one_step)
    assert np.linalg.norm(M @ two_steps - y) < 0.2 * res_one
    s = solve_gramian(_gram(M), y, reg=reg)
    assert s.method == "cholesky"
    assert s.residual < 1e-3 * res_one


def test_regularized_singular_stays_stable():
    rng = np.random.default_rng(5)
    U = rng.normal(size=(6, 2))
    M = U @ U.T
    y = U @ rng.normal(size=2)
    s = solve_gramian(_gram(M), y, reg=1e-6)
    assert s.residual < 1e-8 * np.linalg.norm(y)
    assert np.all(np.isfinite(s.lam))
