"""System catalog: analytic Jacobians vs finite differences, flows, setups."""

import math
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from gramsynth import (ConfigError, SteeringProblem, UnknownSystem, drift_flow,
                       linear_system, make_benchmark, mindy_like)
from tests.oracles import jacobian_fd

DESK_SYSTEMS = ["unicycle", "pendulum", "sir", "spacecraft",
                "hopfield2d_full", "hopfield2d_under"]


def test_jacobian_fd_identity():
    # power-of-two step keeps x +/- h exactly representable
    J = jacobian_fd(lambda t, x: x, 0.0, np.array([1.0, -2.0, 0.5]),
                    h=2.0 ** -13)
    assert np.max(np.abs(J - np.eye(3))) < 1e-12


def test_jacobian_fd_linear_map():
    A = np.array([[1.0, 2.0], [-0.5, 3.0]])
    J = jacobian_fd(lambda t, x: A @ x, 0.0, np.array([0.3, 0.7]),
                    h=2.0 ** -13)
    assert np.max(np.abs(J - A)) < 1e-10


def test_jacobian_fd_pendulum_probe():
    system, _ = make_benchmark("pendulum")
    x = np.array([math.pi / 2, 0.0])
    J_fd = jacobian_fd(system.drift, 0.0, x, h=1e-6)
    assert np.max(np.abs(J_fd - system.drift_jacobian(0.0, x))) < 1e-6


@pytest.mark.parametrize("name", DESK_SYSTEMS)
def test_catalog_jacobians_match_fd(name):
    system, problem = make_benchmark(name)
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(problem.t0, problem.T)
        x = problem.x0 + rng.normal(scale=0.4, size=system.d)
        J = system.drift_jacobian(t, x)
        J_fd = jacobian_fd(system.drift, t, x, h=1e-6)
        worst = max(worst, float(np.max(np.abs(J - J_fd))))
    assert worst < 1e-5


@pytest.mark.parametrize("name", DESK_SYSTEMS)
def test_closed_loop_jacobian_consistency(name):
    system, problem = make_benchmark(name)
    rng = np.random.default_rng(1 + hash(name) % 2 ** 32)
    for _ in range(5):
        t = rng.uniform(problem.t0, problem.T)
        x = problem.x0 + rng.normal(scale=0.3, size=system.d)
        u = rng.normal(size=system.k)

        def closed(tt, xx):
            return system.drift(tt, xx) + system.input_matrix(tt, xx) @ u

        J = system.closed_loop_jacobian(t, x, u)
        assert np.max(np.abs(J - jacobian_fd(closed, t, x, 1e-6))) < 1e-5
        # with u = 0 and state-independent B the closed loop is the drift
        J0 = system.closed_loop_jacobian(t, x, np.zeros(system.k))
        if name != "sir" and name != "unicycle":
            assert np.array_equal(J0, system.drift_jacobian(t, x))


BATCH_SYSTEMS = {name: (lambda name=name: make_benchmark(name)[0])
                 for name in DESK_SYSTEMS}
BATCH_SYSTEMS["lti"] = lambda: linear_system(
    np.array([[0.0, 1.0, 0.0], [-2.0, -0.3, 0.5], [0.1, 0.0, -1.0]]),
    np.eye(3)[:, :2])
BATCH_SYSTEMS["mindy_like"] = lambda: mindy_like(8, 4)


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_drift_and_jacobian_accept_batches(name):
    # a (B, d) batch with per-row times equals the stacked per-row calls,
    # for B != d and for B == d (where a wrong contraction axis still runs)
    system = BATCH_SYSTEMS[name]()
    d = system.d
    rng = np.random.default_rng(3)
    for B in (d + 3, d):
        X = rng.normal(scale=0.5, size=(B, d))
        ts = rng.uniform(0.5, 1.5, size=B)
        for t_arg, t_rows in ((ts, ts), (0.7, np.full(B, 0.7))):
            drift = np.stack([system.drift(t, x) for t, x in zip(t_rows, X)])
            jac = np.stack([system.drift_jacobian(t, x)
                            for t, x in zip(t_rows, X)])
            assert system.drift(t_arg, X).shape == (B, d)
            assert system.drift_jacobian(t_arg, X).shape == (B, d, d)
            np.testing.assert_allclose(system.drift(t_arg, X), drift,
                                       rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(system.drift_jacobian(t_arg, X), jac,
                                       rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_closed_loop_jacobian_accepts_batches_bit_for_bit(name):
    # a costate solve reads a batch of stage times at once, and must get
    # exactly what reading each time alone gives
    system = BATCH_SYSTEMS[name]()
    d, k = system.d, system.k
    rng = np.random.default_rng(4)
    for B in (d + 3, d, 16):
        X = rng.normal(scale=0.5, size=(B, d))
        U = rng.normal(size=(B, k))
        ts = rng.uniform(0.5, 1.5, size=B)
        for t_arg, t_rows in ((ts, ts), (0.7, np.full(B, 0.7))):
            J = system.closed_loop_jacobian(t_arg, X, U)
            stacked = np.stack([system.closed_loop_jacobian(float(t), x, u)
                                for t, x, u in zip(t_rows, X, U)])
            assert J.shape == (B, d, d)
            assert np.array_equal(J, stacked)


def test_sir_input_is_state_dependent():
    system, problem = make_benchmark("sir")
    x = problem.x0
    u = np.array([0.7])
    J_drift = system.drift_jacobian(0.1, x)
    J_cl = system.closed_loop_jacobian(0.1, x, u)
    assert np.max(np.abs(J_cl - J_drift)) > 0.1  # -u enters dS/dS
    B = system.input_matrix(0.0, x)
    assert B[0, 0] == -x[0] and B[1, 0] == 0.0 and B[2, 0] == 0.0


def test_table_setups():
    _, pu = make_benchmark("unicycle")
    assert pu.x0 == pytest.approx([0.5, 0.25, math.pi / 12])
    assert pu.x1 == pytest.approx([1.0, 0.75, 4 * math.pi / 3])
    assert (pu.t0, pu.T) == (0.0, 2.0)

    sp, pp = make_benchmark("pendulum")
    assert (pp.t0, pp.T) == (0.5, 1.5)
    assert pp.x1 == pytest.approx([math.pi, 0.0])
    # time-varying coefficients at a reference time
    b = (1 + 0.5 * math.cos(0.7)) ** -2
    B = sp.input_matrix(0.7, pp.x0)
    assert B[1, 0] == pytest.approx(b)
    drift = sp.drift(0.7, np.array([0.2, -0.1]))
    a = 0.78 ** 2 * math.sqrt(b)
    g = -b * math.sin(0.7) + 0.13 * 0.78
    assert drift[1] == pytest.approx(-a * math.sin(0.2) + g * 0.1)

    ss, ps = make_benchmark("sir")
    assert ps.x0 == pytest.approx([1.0, 0.2, 0.1])
    assert ps.x1 == pytest.approx([0.5, 0.25, 0.2])
    assert (ps.t0, ps.T) == (0.0, 0.5)
    S, I, R = 0.8, 0.3, 0.2
    d = ss.drift(0.0, np.array([S, I, R]))
    assert d[0] == pytest.approx(1.0 - 2.0 * S * I - 0.2 * S)
    assert d[1] == pytest.approx(2.0 * S * I - 1.2 * I)
    assert d[2] == pytest.approx(1.0 * I - 0.2 * R)

    sc, pc = make_benchmark("spacecraft")
    assert pc.x0 == pytest.approx([0.3, 0.2, 0.1, 0, 0, 0])
    assert (pc.t0, pc.T) == (0.0, 5.0)
    B = sc.input_matrix(0.0, pc.x0)
    assert np.array_equal(B[:3], np.zeros((3, 3)))
    assert np.allclose(np.diag(B[3:]), [1 / 10, 1 / 20, 1 / 15])

    hf, phf = make_benchmark("hopfield2d_full")
    assert hf.k == 2 and np.array_equal(hf.input_matrix(0, phf.x0), np.eye(2))
    hu, phu = make_benchmark("hopfield2d_under")
    assert hu.k == 1
    assert np.array_equal(hu.input_matrix(0, phu.x0), [[1.0], [0.5]])
    for p in (phf, phu):
        assert p.x0 == pytest.approx([1.0, 1.0])
        assert p.x1 == pytest.approx([-1.0, -1.0])
        assert (p.t0, p.T) == (0.0, 1.5)


def test_benchmark_overrides_and_unknown():
    _, p = make_benchmark("unicycle", params={"T": 5.0, "anchor": 1})
    assert p.T == 5.0 and p.anchor == 1
    with pytest.raises(UnknownSystem):
        make_benchmark("double_pendulum")


def test_benchmark_rejects_unread_params():
    with pytest.raises(ConfigError):
        make_benchmark("unicycle", params={"x_0": [0.0, 0.0, 0.0]})
    with pytest.raises(ConfigError):   # (d, k, seed) belong to mindy_like
        make_benchmark("pendulum", params={"d": 2})
    system, _ = make_benchmark("mindy_like", params={"d": 3, "seed": 1})
    assert (system.d, system.k) == (3, 3)


def test_drift_flow_driftless_identity(tight_solver):
    system, problem = make_benchmark("unicycle")
    x = problem.x0
    out = drift_flow(system, 0.0, 1.7, x, tight_solver)
    assert np.array_equal(out, x)  # zero field is integrated exactly
    assert np.array_equal(drift_flow(system, 0.3, 0.3, x), x)


def test_drift_flow_lti_expm(tight_solver):
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    system = linear_system(A, np.eye(2))
    x = np.array([1.0, -0.5])
    fwd = drift_flow(system, 0.0, 1.3, x, tight_solver)
    assert np.max(np.abs(fwd - expm(1.3 * A) @ x)) < 1e-8
    back = drift_flow(system, 1.3, 0.0, fwd, tight_solver)
    assert np.max(np.abs(back - x)) < 1e-8


@pytest.mark.parametrize("name", ["pendulum", "sir", "hopfield2d_full"])
def test_flow_semigroup(name, tight_solver):
    system, problem = make_benchmark(name)
    rng = np.random.default_rng(5)
    x = problem.x0
    for _ in range(3):
        r, s, t = np.sort(rng.uniform(problem.t0, problem.T, size=3))
        one = drift_flow(system, r, t, x, tight_solver)
        two = drift_flow(system, s, t,
                         drift_flow(system, r, s, x, tight_solver),
                         tight_solver)
        tol = 10 * (tight_solver.atol + tight_solver.rtol * np.abs(x).max())
        assert np.max(np.abs(one - two)) <= max(tol, 1e-9)


def test_mindy_structure():
    m = mindy_like(12, 5, seed=4)
    assert (m.d, m.k) == (12, 5)
    assert np.max(np.abs(m.drift(0.0, np.zeros(12)))) == 0.0  # equilibrium
    B = m.input_matrix(0.0, np.zeros(12))
    assert np.array_equal(B, np.eye(12)[:, :5])
    m2 = mindy_like(12, 5, seed=4)
    x = np.random.default_rng(0).normal(size=12)
    assert np.allclose(m.drift(0.2, x), m2.drift(0.2, x))  # seeded determinism
    J_fd = jacobian_fd(m.drift, 0.0, x, 1e-6)
    assert np.max(np.abs(J_fd - m.drift_jacobian(0.0, x))) < 1e-5


def test_mindy_effective_radius():
    # spectral radius of W psi'(0) (the rest linearization without decay)
    # is normalized to 0.9, keeping the resting state out of the unstable
    # regime despite the steep activation
    m = mindy_like(16, 16, seed=11)
    decay = -np.diag(m.drift_jacobian(0.0, 1e6 * np.ones(16)))
    J0 = m.drift_jacobian(0.0, np.zeros(16))
    W_eff = J0 + np.diag(decay)
    radius = np.max(np.abs(np.linalg.eigvals(W_eff)))
    assert radius == pytest.approx(0.9, rel=1e-8)
    assert np.max(np.linalg.eigvals(J0).real) < 0.9


def test_mindy_table_defaults():
    system, problem = make_benchmark("mindy_like", params={"d": 8, "k": 8,
                                                           "seed": 1})
    assert problem.x0 == pytest.approx(np.ones(8))
    assert problem.x1 == pytest.approx(-0.5 * np.ones(8))
    assert (problem.t0, problem.T) == (0.0, 3.0)


def test_systems_pickle():
    for name in DESK_SYSTEMS:
        system, problem = make_benchmark(name)
        clone = pickle.loads(pickle.dumps(system))
        x = problem.x0 + 0.1
        assert np.allclose(clone.drift(0.3, x), system.drift(0.3, x))
    m = mindy_like(6, 3, seed=2)
    clone = pickle.loads(pickle.dumps(m))
    x = np.random.default_rng(1).normal(size=6)
    assert np.array_equal(clone.drift(0.0, x), m.drift(0.0, x))


def test_steering_problem_validation():
    system, _ = make_benchmark("unicycle")
    with pytest.raises(ValueError):
        SteeringProblem(system, np.zeros(3), np.ones(3), 1.0, 0.5)
    with pytest.raises(ValueError):
        SteeringProblem(system, np.zeros(2), np.ones(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        SteeringProblem(system, np.zeros(3), np.ones(3), 0.0, 1.0, anchor=3)
