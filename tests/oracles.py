"""Test oracles built on numpy and scipy alone: a finite-difference
Jacobian and shooting solutions of the two synthesis fixed points.

`jacobian_fd` is the central-difference Jacobian that tests/test_systems.py
checks every analytic Jacobian against.  The shooting oracles read only the
system's ``drift``, ``input_matrix``, ``drift_jacobian`` and
``closed_loop_jacobian`` (each checked against `jacobian_fd`) and
integrate with scipy's DOP853 at tight tolerances; no gramsynth
integrator, quadrature or Picard code is involved, so they are
independent references for the synthesized controls.

* `pontryagin_shooting` solves the minimum-energy two-point problem
  x' = N + B u, p' = -D_x[N + B u]^T p, u = B^T p by shooting on p(t0).
  Its solution is the Pontryagin extremal, i.e. the minimum-energy map's
  fixed point.
* `general_fixed_point_shooting` solves the general map's fixed-point
  condition u(t) = B^T D Phi_{t,tau}(x_u(t))^T lam (Phi the drift flow,
  tau the anchor time) by shooting on lam.  D Phi is computed by a nested
  drift-variational solve from (t, x_u(t)) to tau.  A fixed point steers
  exactly (x_u(T) = x1), so the shooting residual is the endpoint error.
  For an affine drift both oracles give the same control; for a nonlinear
  drift the general fixed point need not have minimum energy.

Each returns the control on a uniform grid, its L2 norm sqrt(int |u|^2)
(integrated as an extra ODE state, not by quadrature) and the final
shooting residual |x(T) - x1|.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode, solve_ivp

RTOL = 1e-12
ATOL = 1e-12
SHOOTING_TOL = 1e-11   # target |x(T) - x1|, above the integration noise


@dataclass(frozen=True)
class OracleControl:
    """A shooting solution: control samples, L2 norm, endpoint residual."""

    ts: np.ndarray         # (M,) uniform grid on [t0, T]
    u: np.ndarray          # (M, k) control samples
    l2: float              # sqrt(int_{t0}^{T} |u|^2 dt)
    residual: float        # |x(T) - x1| of the reported solution


def jacobian_fd(f, t, x, h=1e-6):
    """Central-difference Jacobian of x -> f(t, x)."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(f(t, x + e)) - np.asarray(f(t, x - e))) / (2 * h))
    J = np.stack(cols, axis=1)
    if not np.all(np.isfinite(J)):
        raise FloatingPointError("finite-difference probe produced NaN/Inf")
    return J


def _solve(rhs, span, z0, dense=False):
    sol = solve_ivp(rhs, span, z0, method="DOP853", rtol=RTOL, atol=ATOL,
                    dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol


def _fd_jacobian(F, x, r):
    J = np.empty((r.size, x.size))
    for j in range(x.size):
        xh = x.copy()
        xh[j] += 1e-7 * max(1.0, abs(x[j]))
        J[:, j] = (F(xh) - r) / (xh[j] - x[j])
    return J


def _shoot(F, guess):
    """Root of the endpoint error F by a chord-Newton iteration.

    The forward-difference Jacobian is reused while each step cuts |F| at
    least a hundredfold and rebuilt otherwise; halving the step keeps |F|
    decreasing.  Stops once |F| <= SHOOTING_TOL, or when even a fresh Jacobian
    cannot reduce |F| (the integration noise floor).
    """
    x = np.asarray(guess, dtype=float)
    r = F(x)
    J = None
    for _ in range(30):
        if np.linalg.norm(r) <= SHOOTING_TOL:
            break
        fresh = J is None
        if fresh:
            J = _fd_jacobian(F, x, r)
        step = np.linalg.solve(J, -r)
        for _ in range(10):
            r_new = F(x + step)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                break
            step = 0.5 * step
        else:
            if fresh:
                break
            J = None
            continue
        if np.linalg.norm(r_new) > 1e-2 * np.linalg.norm(r):
            J = None
        x, r = x + step, r_new
    return x


def pontryagin_shooting(problem, grid_points=1001):
    """Minimum-energy extremal by shooting on the initial costate p(t0)."""
    system = problem.system
    d = system.d
    span = (problem.t0, problem.T)

    def rhs(t, z):
        x, p = z[:d], z[d:2 * d]
        u = system.input_matrix(t, x).T @ p
        return np.concatenate([
            system.drift(t, x) + system.input_matrix(t, x) @ u,
            -system.closed_loop_jacobian(t, x, u).T @ p,
            [u @ u],
        ])

    def run(p0, dense=False):
        return _solve(rhs, span, np.concatenate([problem.x0, p0, [0.0]]),
                      dense)

    p0 = _shoot(lambda p0: run(p0).y[:d, -1] - problem.x1, np.zeros(d))
    sol = run(p0, dense=True)
    ts = np.linspace(problem.t0, problem.T, grid_points)
    z = sol.sol(ts)
    u = np.stack([system.input_matrix(t, z[:d, j]).T @ z[d:2 * d, j]
                  for j, t in enumerate(ts)])
    return OracleControl(
        ts=ts, u=u, l2=float(np.sqrt(sol.y[-1, -1])),
        residual=float(np.linalg.norm(sol.y[:d, -1] - problem.x1)))


def _flow_jacobian(system, t, x, tau):
    """D Phi_{t,tau}(x) of the drift flow, by a drift-variational solve."""
    d = system.d
    if t == tau:
        return np.eye(d)

    def rhs(s, z):
        y = z[:d]
        Y = z[d:].reshape(d, d)
        return np.concatenate([system.drift(s, y),
                               (system.drift_jacobian(s, y) @ Y).ravel()])

    # Hairer's Fortran DOP853: the same method as solve_ivp's, with the
    # step loop outside Python, which matters since this runs once per
    # right-hand-side call of the outer solve
    solver = ode(rhs).set_integrator("dop853", rtol=RTOL, atol=ATOL,
                                     nsteps=100_000)
    z = solver.set_initial_value(np.concatenate([x, np.eye(d).ravel()]),
                                 t).integrate(tau)
    if not solver.successful():
        raise RuntimeError("oracle flow-Jacobian integration failed")
    return z[d:].reshape(d, d)


def _general_control(system, t, x, lam, tau):
    return (system.input_matrix(t, x).T
            @ _flow_jacobian(system, t, x, tau).T @ lam)


def general_fixed_point_shooting(problem, grid_points=1001):
    """General-map fixed point by shooting on the multiplier lam.

    The anchor is ``problem.anchor_time``: D Phi_{t,tau} transports from t
    to t0 (anchor 1, backward) or to T (anchor 2, forward).
    """
    system = problem.system
    d = system.d
    tau = problem.anchor_time
    span = (problem.t0, problem.T)

    def run(lam, dense=False):
        def rhs(t, z):
            x = z[:d]
            u = _general_control(system, t, x, lam, tau)
            return np.concatenate([
                system.drift(t, x) + system.input_matrix(t, x) @ u, [u @ u]])

        return _solve(rhs, span, np.concatenate([problem.x0, [0.0]]), dense)

    lam = _shoot(lambda lam: run(lam).y[:d, -1] - problem.x1, np.zeros(d))
    sol = run(lam, dense=True)
    ts = np.linspace(problem.t0, problem.T, grid_points)
    xs = sol.sol(ts)[:d]
    u = np.stack([_general_control(system, t, xs[:, j], lam, tau)
                  for j, t in enumerate(ts)])
    return OracleControl(
        ts=ts, u=u, l2=float(np.sqrt(sol.y[-1, -1])),
        residual=float(np.linalg.norm(sol.y[:d, -1] - problem.x1)))
