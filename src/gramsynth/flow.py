"""Trajectory solves, variational propagation, and Jacobian-input products.

Two matrix-valued products feed the Gramians:

* flow-input products -- drift-flow Jacobian times B, transported from a
  sample time to the anchor.  Each sample's coupled (y, Y) system is
  rescaled onto s in [0, 1], so samples on either side of the anchor
  become rows of one lockstep batch solve.  Consecutive batches have
  nearly the same spans, so each batch after the first is warm-started
  from the step its predecessor's controller proposed last, and only the
  first pays the starting-step warm-up, unless its caller hands it a
  first step.  The products are smooth in t, so `sampled_products`
  solves them at N+1 Chebyshev-Lobatto points (N = 32 by default, or
  the start a `ProductRecord` of an earlier solve gives, doubled while
  the Chebyshev tail is above the products' rtol) and returns those
  samples with the barycentric matrix that maps them onto the K
  quadrature nodes.  The products at the nodes are never formed: the
  Gramian and the control's node values are contracted from the
  samples, and K still counts the Simpson nodes of the Gramians and the
  control's sample grid.
* chain products -- the closed-loop state-transition matrix R_u(T,t)
  times B, pushed through the drift variational equation back to the
  anchor.  R_u(T,t) is the Pontryagin costate, so one dense backward
  d x d solve and one push give every sample.

The trajectory's right-hand side reads the control, and the costate's the
closed-loop Jacobian along the trajectory, for all the stage times of a
step attempt at once (`_StageValues`, an `OdeProblem.prepare` hook).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .controls import ControlFunction
from .ode import (DenseSolution, OdeProblem, SolverConfig, carried_step,
                  integrate)
from .quadrature import cumulative_simpson, simpson_rule
from .systems import ControlAffineSystem, SteeringProblem, drift_flow

# The costate is read between steps from the degree-7 dense interpolant,
# one order less accurate than the step itself, so a solve at the
# configured tolerance runs at this fraction of its rtol and atol.  The
# costate of a Picard pass whose products are loosened to its endpoint
# error runs at the pass's own tolerance: that pass's F(u_n) only feeds
# the mixing, and is never returned.
_COSTATE_TOL_FACTOR = 1e-2

# Elements (rows x (d + d*m)) of one lockstep variational batch.  One pass
# of warm-started d=64, K=1001 flow products (one BLAS thread, 2-vCPU Xeon,
# medians of five alternated runs): 1 row 3.32 s, 3 rows 2.44 s, 7 rows
# 2.06 s, 15 rows 1.98 s (runs 1.72-3.09 s), 31 rows 2.14 s.  Every row
# adds stage and knot arrays, so the smallest fast size: 2**15 elements,
# 7 rows at d=64 and whole 201-node grids at d=2.
_BATCH_ELEMENTS = 2 ** 15

# Degree of the first Chebyshev-Lobatto grid of `sampled_products`.
_LOBATTO_DEGREE = 32
# `sampled_products` accepts a grid whose top ceil(N/8) Chebyshev
# coefficients are at most this fraction of rtol * max|D|.
_TAIL_FRACTION = 0.1
# The coarsest grid a `ProductRecord.start` may choose.
_MIN_DEGREE = 16
# The (degree, first step) of products solved with nothing to go on: the
# first grid of `sampled_products` and the integrator's automatic step.
COLD_START = (_LOBATTO_DEGREE, None)


@dataclass(frozen=True)
class Trajectory:
    """A controlled trajectory: the control, its dense solution, the system."""

    system: ControlAffineSystem
    control: ControlFunction
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


class _StageValues:
    """A function of time alone, ``read(ts)`` giving its values at the
    times ts along the leading axis.  `prepare`, an `OdeProblem.prepare`
    hook, reads them at a step attempt's stage times, and a call returns
    the row of its time, or reads a time that was not prepared alone.
    Only the current attempt's values are kept."""

    def __init__(self, read):
        self._read = read
        self._rows = {}
        self._values = None

    def prepare(self, ts):
        self._values = self._read(ts)
        self._rows = dict(zip(ts.tolist(), range(ts.size)))

    def __call__(self, t):
        i = self._rows.get(t)
        if i is None:
            return self._read(np.array([t]))[0]
        return self._values[i]


def _controlled_rhs(t, x, system, control):
    return system.drift(t, x) + system.input_matrix(t, x) @ control(t)


def solve_trajectory(problem: SteeringProblem, u,
                     config: SolverConfig = SolverConfig()) -> Trajectory:
    """Dense solution of dx/dt = N + B u from x0 over [t0, T]."""
    control = _StageValues(u.eval_many)
    rhs = partial(_controlled_rhs, system=problem.system, control=control)
    sol = integrate(OdeProblem(rhs, problem.t0, problem.T, problem.x0,
                               prepare=control.prepare), config)
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


def _variational_rhs(s, Z, system, t_from, span, d, m):
    """d/ds of the rows (y, vec Y) at t = t_from + s * span, per row."""
    t = t_from + s * span
    y = Z[:, :d]
    Y = Z[:, d:].reshape(-1, d, m)
    out = np.empty_like(Z)
    out[:, :d] = span[:, None] * system.drift(t, y)
    JY = out[:, d:].reshape(-1, d, m)
    np.matmul(system.drift_jacobian(t, y), Y, out=JY)
    JY *= span[:, None, None]
    return out


def _drift_variational(system, t_from, t_to, y0, Y0, config,
                       first_step=None):
    """D Phi_{t_from[i], t_to}(y0[i]) Y0[i] for every row i; (B, d, m).

    Row i runs dz/ds = (t_to - t_from[i]) F(t, z) on s in [0, 1], with F
    the drift and its variational equation, so all rows share one step
    sequence whatever their span or direction.  Returns the products and
    the solve's `DenseSolution.next_step`, a warm ``first_step`` for the
    next batch.
    """
    B, d, m = Y0.shape
    rhs = partial(_variational_rhs, system=system, t_from=t_from,
                  span=t_to - t_from, d=d, m=m)
    z0 = np.concatenate([y0, Y0.reshape(B, d * m)], axis=1)
    sol = integrate(OdeProblem(rhs, 0.0, 1.0, z0), config, dense=False,
                    first_step=first_step)
    return sol.ys[-1][:, d:].reshape(B, d, m), sol.next_step


def _chunks(ts, d, k):
    """Consecutive slices of ts, each of _BATCH_ELEMENTS // (d + d*k)."""
    chunk = max(1, _BATCH_ELEMENTS // (d + d * k))
    return [slice(lo, lo + chunk) for lo in range(0, ts.size, chunk)]


def _input_matrices(sys_, t, x, out):
    """B_t(x) of every (t[i], x[i]) into out[i]; returns out."""
    for i in range(t.size):
        out[i] = sys_.input_matrix(t[i], x[i])
    return out


def flow_input_products(traj: Trajectory, ts, tau: float,
                        config: SolverConfig = SolverConfig(),
                        first_step: Optional[float] = None,
                        steps: Optional[list] = None) -> np.ndarray:
    """Flow-input products at sample times ts; shape (len(ts), d, k).

    Consecutive samples are solved together in lockstep batches of
    ``_BATCH_ELEMENTS``, each after the first warm-started from its
    predecessor's last proposed step; a sample at t == tau is B_t exactly.
    The first batch starts from ``first_step`` (default: the integrator's
    automatic step).  Each batch's last proposed step is appended to
    ``steps`` when it is a list.
    """
    sys_ = traj.system
    ts = np.asarray(ts, dtype=float).ravel()
    out = np.empty((ts.size, sys_.d, sys_.k))
    step = first_step
    for part in _chunks(ts, sys_.d, sys_.k):
        t = ts[part]
        x = traj.solution.eval_many(t)
        block = _input_matrices(sys_, t, x, out[part])
        moving = t != tau
        if moving.any():
            block[moving], step = _drift_variational(
                sys_, t[moving], tau, x[moving], block[moving], config, step)
            if steps is not None:
                steps.append(step)
    return out


def lobatto_points(t0: float, T: float, N: int) -> np.ndarray:
    """The N+1 Chebyshev-Lobatto points of [t0, T], ascending.

    Both ends are exact, and the degree-N grid is the even-indexed half
    of the degree-2N grid bit for bit: doubling N doubles both the
    numerator and the denominator of every angle.
    """
    ts = t0 + (T - t0) * np.sin(np.pi * np.arange(N + 1) / (2 * N)) ** 2
    ts[-1] = T
    return ts


def barycentric_matrix(grid: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(len(ts), N+1) matrix M such that M @ f(grid) interpolates f at ts.

    Barycentric Lagrange interpolation in the second form with the
    Chebyshev-Lobatto weights (-1)^j, halved at the ends (Berrut &
    Trefethen, SIAM Review 46(3), 2004); a t on the grid gets a unit row.
    """
    w = np.where(np.arange(grid.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    diff = ts[:, None] - grid[None, :]
    on_grid = diff == 0.0
    diff[on_grid] = 1.0
    M = w / diff
    M /= M.sum(axis=1, keepdims=True)
    hits = on_grid.any(axis=1)
    M[hits] = on_grid[hits]
    return M


def chebyshev_tail(values: np.ndarray) -> float:
    """Largest |c_n| over the top ceil(N/8) Chebyshev degrees n <= N of the
    interpolant through ``values`` at the N+1 Lobatto points (leading
    axis), from the rows of the (N+1)^2 cosine (DCT-I) matrix."""
    N = values.shape[0] - 1
    n = np.arange(N - math.ceil(N / 8) + 1, N + 1)
    # n j reduced mod 2N keeps the cosine arguments in [0, 2 pi)
    C = np.cos(np.pi * (np.outer(n, np.arange(N + 1)) % (2 * N)) / N)
    C[:, [0, -1]] *= 0.5
    C[n == N] *= 0.5
    coeffs = (2.0 / N) * (C @ values.reshape(N + 1, -1))
    return float(np.max(np.abs(coeffs)))


def sampled_products(products, nodes, rtol: float,
                     degree: int = _LOBATTO_DEGREE):
    """Samples of ``products`` that determine them at ``nodes``.

    ``products(ts)`` returns the products at ts, shape (len(ts), d, k);
    ``nodes`` run from t0 to T.  The products are solved at the N+1
    Lobatto points of [t0, T], N = ``degree`` (by default
    `_LOBATTO_DEGREE`, or a `ProductRecord.start` degree), and the grid
    is accepted when its top Chebyshev coefficients (`chebyshev_tail`)
    are at most `_TAIL_FRACTION` * rtol * max|D|; else N doubles, and
    since the grids are nested only the N new points are solved.  When
    the grid, or the next one, would hold len(nodes) or more points the
    products are solved at the nodes directly.

    Returns (V, M, tail): the samples V, shape (N+1, d, k); the
    (len(nodes), N+1) `barycentric_matrix` M, so that the products at the
    nodes are M @ V over the leading axis; and the accepted tail relative
    to max|D|.  On a direct solve V holds the products at the nodes, M is
    None (the identity, not formed) and the tail is 0.
    """
    nodes = np.asarray(nodes, dtype=float)
    K, N = nodes.size, degree
    if N + 1 >= K:
        return products(nodes), None, 0.0
    grid = lobatto_points(nodes[0], nodes[-1], N)
    values = products(grid)
    while True:
        scale = float(np.max(np.abs(values)))
        tail = chebyshev_tail(values)
        if tail <= _TAIL_FRACTION * rtol * scale:
            return (values, barycentric_matrix(grid, nodes),
                    tail / scale if scale > 0.0 else 0.0)
        if 2 * N + 1 >= K:
            return products(nodes), None, 0.0
        N *= 2
        grid = lobatto_points(nodes[0], nodes[-1], N)
        finer = np.empty((N + 1,) + values.shape[1:])
        finer[::2] = values
        finer[1::2] = products(grid[1::2])
        values = finer


def subgrid_tails(values) -> Tuple[Tuple[int, float], ...]:
    """Chebyshev tails of the coarser Lobatto grids inside a sampled one.

    ``values`` are samples at the N+1 Lobatto points (leading axis), so
    values[::2], values[::4], ... are the samples at the nested grids of
    degree N/2, N/4, ... (`lobatto_points`).  Returns (n, tail / max|D|)
    with the `chebyshev_tail` of each such degree n >= `_MIN_DEGREE`,
    finest first.
    """
    N = len(values) - 1
    scale = float(np.max(np.abs(values)))
    tails, stride = [], 2
    while N // stride >= _MIN_DEGREE:
        tail = chebyshev_tail(values[::stride])
        tails.append((N // stride, tail / scale if scale > 0.0 else 0.0))
        stride *= 2
    return tuple(tails)


@dataclass(frozen=True)
class ProductRecord:
    """What one solve of flow products leaves for the next, in place of
    its samples.

    ``rtol`` is the rtol they were solved at, ``degree`` the Lobatto
    degree of the accepted grid (None after a direct solve), ``tails`` its
    `subgrid_tails` and ``step`` the step that the first solved lockstep
    batch proposed last (None if no batch was solved).
    """

    rtol: float
    degree: Optional[int]
    tails: Tuple[Tuple[int, float], ...]
    step: Optional[float]

    def start(self, rtol: float) -> Tuple[int, Optional[float]]:
        """The Lobatto degree and the first step to solve the products at
        rtol from.

        The degree is the smallest in ``tails`` whose tail meets
        `sampled_products`' acceptance threshold at rtol, else ``degree``,
        or `COLD_START`'s after a direct solve; the grid must still pass
        its own tail.  The step is ``step`` carried from ``self.rtol`` to
        rtol (`carried_step`).
        """
        step = (None if self.step is None
                else carried_step(self.step, self.rtol, rtol))
        if self.degree is None:
            return COLD_START[0], step
        return min((n for n, tail in self.tails
                    if tail <= _TAIL_FRACTION * rtol),
                   default=self.degree), step


def _closed_loop_jacobians(ts, traj, u):
    """J_cl along the trajectory at the times ts, with u; (len(ts), d, d)."""
    return traj.system.closed_loop_jacobian(
        ts, traj.solution.eval_many(ts), u.eval_many(ts))


def _costate_field(s, lam_flat, jacobian, d):
    return -(lam_flat.reshape(d, d) @ jacobian(s)).ravel()


def chain_input_products(traj: Trajectory, u, ts, tau: float,
                         config: SolverConfig = SolverConfig(),
                         loosened: bool = False) -> np.ndarray:
    """D Phi_{T,tau}(x_u(T)) R_u(T,t) B_t(x_u(t)) at sample times ts.

    R_u(T,t) is the costate Lam(t) of dLam/dt = -Lam J_cl(t), Lam(T) = I,
    so one dense backward solve serves every sample; the push from the
    horizon to the anchor is one drift-variational solve of the identity.
    The costate runs at `_COSTATE_TOL_FACTOR` times ``config``'s rtol and
    atol, or at ``config`` itself for the ``loosened`` products of an
    inexact Picard pass.  The samples are read from the costate and the
    trajectory and multiplied one chunk at a time, sized as in
    `flow_input_products`.  Returns shape (len(ts), d, k).
    """
    sys_ = traj.system
    d, k, T = sys_.d, sys_.k, traj.T
    costate_config = config if loosened else replace(
        config, rtol=config.rtol * _COSTATE_TOL_FACTOR,
        atol=config.atol * _COSTATE_TOL_FACTOR)
    jacobian = _StageValues(partial(_closed_loop_jacobians, traj=traj, u=u))
    rhs = partial(_costate_field, jacobian=jacobian, d=d)
    costate = integrate(OdeProblem(rhs, T, traj.t0, np.eye(d).ravel(),
                                   prepare=jacobian.prepare), costate_config)
    push = None if tau == T else _drift_variational(
        sys_, np.array([T]), tau, traj.endpoint[None], np.eye(d)[None],
        config)[0][0]
    ts = np.asarray(ts, dtype=float).ravel()
    out = np.empty((ts.size, d, k))
    for part in _chunks(ts, d, k):
        t = ts[part]
        block = _input_matrices(sys_, t, traj.solution.eval_many(t),
                                out[part])
        block[...] = costate.eval_many(t).reshape(-1, d, d) @ block
        if push is not None:
            block[...] = push @ block
    return out


def flow_conjugate_profile(problem: SteeringProblem, traj: Trajectory,
                           check_indices, config: SolverConfig = SolverConfig(),
                           nodes: int = 201):
    """Flow-conjugate defects at several grid times, sharing one sample pass.

    ``check_indices`` are even indices into the ``nodes``-point Simpson grid
    on [t0, T].  Returns (times, defects).
    """
    tau = problem.anchor_time
    t0, T = problem.t0, problem.T
    sys_ = problem.system
    rule = simpson_rule(t0, T, nodes)
    D = flow_input_products(traj, rule.nodes, tau, config)
    integrand = np.einsum("jim,jm->ji", D, traj.control.eval_many(rule.nodes))
    prefixes = cumulative_simpson(integrand, rule)  # ((K+1)//2, d)
    base = drift_flow(sys_, t0, tau, problem.x0, config)
    times, predicted = [], []
    for idx in check_indices:
        if idx % 2 != 0:
            raise ValueError("check indices must be even (Simpson prefixes)")
        t = float(rule.nodes[idx])
        shifted = base + prefixes[idx // 2]
        predicted.append(drift_flow(sys_, tau, t, shifted, config))
        times.append(t)
    times = np.asarray(times)
    states = traj.solution.eval_many(times)
    return times, np.asarray([float(np.linalg.norm(x - p))
                              for x, p in zip(states, predicted)])
