"""Trajectory solves, variational propagation, and Jacobian-input products.

Two matrix-valued products feed the Gramians:

* flow-input products -- drift-flow Jacobian times B, transported from a
  sample time to the anchor; the coupled (y, Y) system in d x k variables
  is propagated per sample, in either direction.
* chain products -- the closed-loop state-transition matrix R_u(T,t)
  times B, pushed through the drift variational equation back to the
  anchor.  R_u(T,t) is the Pontryagin costate, so one dense backward
  d x d solve and one push give every sample.

Flow-input sample batches run through `parallel.ordered_map`, so they can
fan out over processes while keeping a deterministic index-ordered gather.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .ode import DenseSolution, OdeProblem, SolverConfig, integrate
from .parallel import ordered_map
from .quadrature import cumulative_simpson, simpson_rule
from .systems import ControlAffineSystem, SteeringProblem, drift_flow

# The costate is read between steps from the degree-7 dense interpolant,
# one order less accurate than the step itself, so its solve runs at this
# fraction of the configured rtol and atol.
_COSTATE_TOL_FACTOR = 1e-2


@dataclass(frozen=True)
class Trajectory:
    """A controlled trajectory: the control, its dense solution, the system."""

    system: ControlAffineSystem
    control: object  # evaluable: u(t) -> (k,)
    solution: DenseSolution

    @property
    def t0(self) -> float:
        return self.solution.t_span[0]

    @property
    def T(self) -> float:
        return self.solution.t_span[1]

    @property
    def endpoint(self) -> np.ndarray:
        return self.solution.ys[-1].copy()

    def state(self, t: float) -> np.ndarray:
        return self.solution.eval(t)


def _controlled_rhs(t, x, system, control):
    return system.drift(t, x) + system.input_matrix(t, x) @ control(t)


def solve_trajectory(problem: SteeringProblem, u,
                     config: SolverConfig = SolverConfig()) -> Trajectory:
    """Dense solution of dx/dt = N + B u from x0 over [t0, T]."""
    rhs = partial(_controlled_rhs, system=problem.system, control=u)
    sol = integrate(OdeProblem(rhs, problem.t0, problem.T, problem.x0), config)
    return Trajectory(system=problem.system, control=u, solution=sol)


def residual(problem: SteeringProblem,
             config: SolverConfig = SolverConfig()) -> np.ndarray:
    """Flow-transported endpoint mismatch the steering operator must match.

    Anchor 1: Phi_{T,t0}(x1) - x0; anchor 2: x1 - Phi_{t0,T}(x0).
    """
    sys_ = problem.system
    if problem.anchor == 1:
        back = drift_flow(sys_, problem.T, problem.t0, problem.x1, config)
        return back - problem.x0
    fwd = drift_flow(sys_, problem.t0, problem.T, problem.x0, config)
    return problem.x1 - fwd


def _drift_variational_rhs(s, z, system, d, k):
    y = z[:d]
    Y = z[d:].reshape(d, k)
    out = np.empty_like(z)
    out[:d] = system.drift(s, y)
    out[d:] = (system.drift_jacobian(s, y) @ Y).ravel()
    return out


def _propagate_drift_variational(system, t_from, t_to, y_init, Y_init, config):
    d, k = Y_init.shape
    z0 = np.concatenate([y_init, Y_init.ravel()])
    rhs = partial(_drift_variational_rhs, system=system, d=d, k=k)
    sol = integrate(OdeProblem(rhs, t_from, t_to, z0), config, dense=False)
    # A copy: a view would keep the solve's whole step array alive.
    return sol.ys[-1][d:].reshape(d, k).copy()


def flow_input_product(traj: Trajectory, t: float, tau: float,
                       config: SolverConfig = SolverConfig()) -> np.ndarray:
    """D Phi_{t,tau}(x_u(t)) B_t(x_u(t)) via the coupled variational system."""
    x_t = traj.state(t)
    B_t = traj.system.input_matrix(t, x_t)
    if t == tau:
        return B_t
    return _propagate_drift_variational(traj.system, t, tau, x_t, B_t, config)


def _flow_product_task(payload, t):
    traj, tau, config = payload
    return flow_input_product(traj, t, tau, config)


def flow_input_products(traj: Trajectory, ts, tau: float,
                        config: SolverConfig = SolverConfig(),
                        workers: int = 1) -> np.ndarray:
    """Stacked flow-input products at sample times ts; shape (len(ts), d, k)."""
    mats = ordered_map(_flow_product_task, (traj, tau, config), list(ts),
                       workers=workers)
    return np.stack(mats)


def _costate_rhs(s, lam_flat, traj, u, d):
    x = traj.solution.eval(s)
    J = traj.system.closed_loop_jacobian(s, x, u(s))
    return -(lam_flat.reshape(d, d) @ J).ravel()


def chain_input_products(traj: Trajectory, u, ts, tau: float,
                         config: SolverConfig = SolverConfig()) -> np.ndarray:
    """D Phi_{T,tau}(x_u(T)) R_u(T,t) B_t(x_u(t)) at sample times ts.

    R_u(T,t) is the costate Lam(t) of dLam/dt = -Lam J_cl(t), Lam(T) = I,
    so one dense backward solve serves every sample; the push from the
    horizon to the anchor is one drift-variational solve of the identity.
    Returns shape (len(ts), d, k).
    """
    sys_ = traj.system
    d, T = sys_.d, traj.T
    costate_config = replace(config, rtol=config.rtol * _COSTATE_TOL_FACTOR,
                             atol=config.atol * _COSTATE_TOL_FACTOR)
    rhs = partial(_costate_rhs, traj=traj, u=u, d=d)
    costate = integrate(OdeProblem(rhs, T, traj.t0, np.eye(d).ravel()),
                        costate_config)
    push = None if tau == T else _propagate_drift_variational(
        sys_, T, tau, traj.endpoint, np.eye(d), config)
    mats = []
    for t in ts:
        t = float(t)
        R = costate.eval(t).reshape(d, d)
        prod = R @ sys_.input_matrix(t, traj.state(t))
        mats.append(prod if push is None else push @ prod)
    return np.stack(mats)


def flow_conjugate_profile(problem: SteeringProblem, traj: Trajectory,
                           check_indices, config: SolverConfig = SolverConfig(),
                           nodes: int = 201, workers: int = 1):
    """Flow-conjugate defects at several grid times, sharing one sample pass.

    ``check_indices`` are even indices into the ``nodes``-point Simpson grid
    on [t0, T].  Returns (times, defects).
    """
    tau = problem.anchor_time
    t0, T = problem.t0, problem.T
    sys_ = problem.system
    rule = simpson_rule(t0, T, nodes)
    D = flow_input_products(traj, rule.nodes, tau, config, workers)
    u_vals = _eval_control(traj.control, rule.nodes, sys_.k)
    integrand = np.einsum("jim,jm->ji", D, u_vals)
    prefixes = cumulative_simpson(integrand, rule)  # ((K+1)//2, d)
    base = drift_flow(sys_, t0, tau, problem.x0, config)
    times, defects = [], []
    for idx in check_indices:
        if idx % 2 != 0:
            raise ValueError("check indices must be even (Simpson prefixes)")
        t = float(rule.nodes[idx])
        shifted = base + prefixes[idx // 2]
        predicted = drift_flow(sys_, tau, t, shifted, config)
        times.append(t)
        defects.append(float(np.linalg.norm(traj.state(t) - predicted)))
    return np.asarray(times), np.asarray(defects)


def _eval_control(u, ts, k) -> np.ndarray:
    """Control samples stacked as (len(ts), k)."""
    eval_many = getattr(u, "eval_many", None)
    if eval_many is not None:
        return np.asarray(eval_many(ts), dtype=float).reshape(len(ts), k)
    return np.stack([np.asarray(u(float(t)), dtype=float).reshape(k)
                     for t in ts])
