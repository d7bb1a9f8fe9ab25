"""The two Gramian synthesis maps and their Picard iteration.

`apply_map` applies the map named by ``SynthesisConfig.map_kind`` in one
pass: solve the state equation, solve the flow products on a
Chebyshev-Lobatto grid and the chain products at the quadrature nodes,
assemble the nodes' Simpson Gramian from those samples, solve for the
multiplier, and form the updated control's node values pointwise from
the product rows.  The flow products at the nodes are never formed: the
Gramian and the node values are contracted from the Lobatto samples and
their barycentric matrix.  `run_picard` iterates it with type-II
Anderson mixing, solving each pass's products only as accurately as the
pass's endpoint error needs, records per-pass telemetry, and returns a
`PicardResult` on the endpoint or control-update tolerance, a stall or
the iteration budget.  A pass forms the fixed-point residual F(u_n) - u_n
once, at the quadrature nodes; the control-update stop and the mixing
both read it, and the pass builds at most one control.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .controls import ControlFunction, SynthesizedControl, ZeroControl
from .errors import SingularGramian
from .flow import (COLD_START, ProductRecord, Trajectory,
                   chain_input_products, flow_input_products, residual,
                   sampled_products, solve_trajectory, subgrid_tails)
from .gramian import (DEFICIENCY_TOL, assemble_mixed_from_samples,
                      assemble_symmetric_from_samples, solve_gramian)
from .ode import SolverConfig, _is_count, _is_real
from .quadrature import check_node_count, simpson_rule

MAP_KINDS = ("general", "minimum_energy")

# Differences that the Anderson mixing of `run_picard` combines.
ANDERSON_MEMORY = 3

# From pass 1 on, `run_picard` solves a pass's products at rtol
# max(rtol, this fraction of the pass's endpoint error), atol scaled alike
# (an inexact pass: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
# 19(2), 1982; with Anderson mixing, Toth et al., SIAM J. Sci. Comput.
# 39(5), 2017).
_PRODUCT_TOL_FRACTION = 1e-2

# `run_picard` stops after `_STALL_PASSES` passes in a row without
# progress: an endpoint error below this factor times the last progress's.
_PROGRESS_FACTOR = 0.9
_STALL_PASSES = 12


@dataclass(frozen=True)
class SynthesisConfig:
    """Settings of one Picard synthesis run.

    The anchor is set on the problem only (`SteeringProblem.anchor`,
    ``system.params.anchor`` in a config).  The ``quadrature_points`` (K)
    Simpson nodes, an odd integer >= 3, are also the synthesized control's
    sample grid, which costs nothing beyond the Gramian pass.  K does not
    set how many flow products are solved: a pass solves them on a
    Chebyshev-Lobatto grid, doubled while its Chebyshev tail is above the
    pass's product rtol, or at the K nodes when the next grid would hold K
    points or more (`flow.sampled_products`).  The first grid has 33
    points, except in a loosened pass of `run_picard` after one that
    sampled a grid: that pass starts at the smallest nested grid of at
    least 17 points whose tail, read from the previous pass's samples,
    meets its own threshold, else at the previous pass's grid.  K sets
    the Simpson rule that the Gramian applies to the flow products
    interpolated onto the nodes, the number of chain products, and the
    number of control values; the interpolated flow products themselves
    are never formed.  Each Gramian is factorized with the shift
    ``regularization`` * Id (finite, >= 0); a shifted solve is refined
    against the unshifted Gramian.  A pass's ``err_fp`` is read at the K
    nodes; its energy uses the 1001-point grid of `control_energy`.

    ``solver`` is the tolerance of every trajectory and residual solve, so
    every endpoint error, and of pass 0's and `apply_map`'s products.  From
    pass 1 on, `run_picard` solves the products at the looser of ``solver``
    and 1e-2 of the pass's endpoint error, and stops on ``eps_u`` only
    after a pass whose products ran at ``solver``.
    """

    map_kind: str = "general"
    n_max: int = 20
    eps_x: float = 1e-9
    eps_u: float = 1e-9
    quadrature_points: int = 201
    solver: SolverConfig = field(default_factory=SolverConfig)
    regularization: float = 0.0

    def __post_init__(self):
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"map_kind must be one of {MAP_KINDS}")
        if not (_is_count(self.n_max) and self.n_max >= 1):
            raise ValueError(
                f"n_max must be an integer >= 1, got {self.n_max!r}")
        if not all(_is_real(eps) and eps > 0
                   for eps in (self.eps_x, self.eps_u)):
            raise ValueError(f"tolerances must be positive numbers, got "
                             f"{self.eps_x!r} and {self.eps_u!r}")
        check_node_count(self.quadrature_points)
        reg = self.regularization
        if not (_is_real(reg) and math.isfinite(reg) and reg >= 0):
            raise ValueError(
                f"regularization must be a finite number >= 0, got {reg!r}")


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry of one Picard pass.

    ``err_end`` is the endpoint error of the pass's iterate u_n, ``energy``
    its E(u_n) and ``wall_time`` the pass's time up to this record.
    ``err_fp`` is max |F(u_n) - u_n| over the K quadrature nodes,
    ``gramian_condition`` the condition estimate of the pass's Gramian and
    ``product_rtol`` the rtol its flow and chain products were solved at.
    ``product_nodes`` is the number of flow-product samples its products
    came from (N+1 Chebyshev-Lobatto points, or K on a direct solve; N
    starts at 32, or at 16 or more in a loosened pass that starts from
    the previous pass's grid, see `SynthesisConfig`) and
    ``interp_estimate`` is the accepted grid's Chebyshev tail relative to
    max|D| (0 on a direct solve).  A pass that stops on the endpoint
    tolerance or stalls applies no map: these five are NaN in its record.
    """

    n: int
    err_end: float
    err_fp: float
    energy: float
    gramian_condition: float
    product_rtol: float
    product_nodes: float
    interp_estimate: float
    wall_time: float


@dataclass(frozen=True)
class RunStatus:
    """Which termination criterion fired (endpoint_tolerance,
    control_update_tolerance, stalled or max_iterations), plus feasibility
    reporting."""

    criterion: str
    iterations: int
    initial_gramian_ok: Optional[bool]   # None: no Gramian was solved
    message: str = ""

    @property
    def success(self) -> bool:
        """A tolerance fired; running out of passes is not success."""
        return self.criterion in ("endpoint_tolerance",
                                  "control_update_tolerance")


@dataclass(frozen=True)
class PicardResult:
    """The outcome of `run_picard`.

    ``residual`` is the run's y; ``trajectory`` is the trajectory of
    ``control``, None on a control-update stop (no pass solved that
    F(u_n)).  Unpacking yields ``(control, records, status)``.
    """

    control: ControlFunction
    records: List[IterationRecord]
    status: RunStatus
    residual: np.ndarray
    trajectory: Optional[Trajectory]

    def __iter__(self):
        return iter((self.control, self.records, self.status))


def _map_values(problem, traj: Trajectory, config: SynthesisConfig,
                y: np.ndarray, solver: SolverConfig, start=COLD_START):
    """F(u) for u = ``traj.control``, its products solved at ``solver``:
    the quadrature nodes, the pointwise formula's values there (K, k), the
    multiplier solve, the flow products' sample count and relative
    interpolation estimate (`sampled_products`), and their
    `ProductRecord`.

    The flow products are solved on a Chebyshev-Lobatto grid sized to
    ``solver.rtol``, its first grid of degree ``start[0]`` and that grid's
    first lockstep batch started from the step ``start[1]``; a doubling
    starts cold.  With M the barycentric matrix onto the K Simpson
    nodes, the Gramian is assembled from the samples V and the general
    map's node values are M (V_j^T lam), so the (K, d, k) products at the
    nodes are never formed.  The chain products are read at the nodes
    from the costate.
    """
    tau = problem.anchor_time
    rule = simpson_rule(problem.t0, problem.T, config.quadrature_points)
    degree, first_step = start
    steps = None   # the first grid's batch steps

    def products(ts):
        nonlocal steps
        if steps is not None:
            return flow_input_products(traj, ts, tau, solver)
        steps = []
        return flow_input_products(traj, ts, tau, solver,
                                   first_step=first_step, steps=steps)

    V, interp, estimate = sampled_products(products, rule.nodes, solver.rtol,
                                           degree)
    record = ProductRecord(
        solver.rtol, None if interp is None else len(V) - 1,
        () if interp is None else subgrid_tails(V),
        steps[0] if steps else None)
    if config.map_kind == "general":
        gram = assemble_symmetric_from_samples(V, rule, interp)
        rows, rows_interp = V, interp
    else:
        rows = chain_input_products(traj, traj.control, rule.nodes, tau,
                                    solver,
                                    loosened=solver is not config.solver)
        gram = assemble_mixed_from_samples(V, rows, rule, interp)
        rows_interp = None   # the chain rows are at the nodes
    sol = solve_gramian(gram, y, reg=config.regularization)
    values = np.einsum("jim,i->jm", rows, sol.lam)
    if rows_interp is not None:
        values = rows_interp @ values
    return rule.nodes, values, sol, len(V), estimate, record


def _control(problem, config, nodes, values, lam, sol) -> SynthesizedControl:
    return SynthesizedControl(
        lam=lam, anchor_time=problem.anchor_time, map_kind=config.map_kind,
        grid_ts=nodes, grid_values=values, solve_info=sol)


def apply_map(problem, u: ControlFunction, config: SynthesisConfig,
              y: np.ndarray) -> Tuple[SynthesizedControl, Trajectory]:
    """One application of the ``config.map_kind`` map to u, with the
    problem's residual y given: the updated control, sampled at the
    quadrature nodes, and the trajectory of u.

    Every solve runs at ``config.solver``.  A rank-deficient Gramian does
    not raise; ``solve_info`` flags it.
    """
    traj = solve_trajectory(problem, u, config.solver)
    nodes, values, sol, *_ = _map_values(problem, traj, config, y,
                                         config.solver)
    return _control(problem, config, nodes, values, sol.lam, sol), traj


class _AndersonMixer:
    """Type-II Anderson mixing of the Picard iterates' node values
    (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011).

    A call takes the residual f = F(u) - u at an iterate's nodes, the
    map's values F(u) there and its multiplier lam.  It returns the next
    iterate's values and multiplier, g - dG gamma with g = (F(u), lam) and
    gamma the least-squares solution of dF gamma = f over the last
    `ANDERSON_MEMORY` differences dF of the residuals and dG of g; so the
    multiplier is the same affine combination of the pass multipliers as
    the values are of the pass values.  The first call has no difference
    yet and returns None.

    The differences live in two preallocated rings.  Once a call has used
    its oldest difference, that slot holds the call's (f, g) until the
    next call subtracts it from its own, so no other copy is kept, and
    nothing aliases the caller's arrays.
    """

    def __init__(self, n_values: int, n_lam: int):
        self._df = np.empty((ANDERSON_MEMORY, n_values))
        self._dg = np.empty((ANDERSON_MEMORY, n_values + n_lam))
        self._calls = 0

    def __call__(self, f: np.ndarray, values: np.ndarray, lam: np.ndarray):
        f = f.ravel()
        g = np.concatenate((values.ravel(), lam))
        c = self._calls
        df, dg = self._df, self._dg
        mixed = None
        if c:
            slot = (c - 1) % ANDERSON_MEMORY
            np.subtract(f, df[slot], out=df[slot])
            np.subtract(g, dg[slot], out=dg[slot])
            cols = min(c, ANDERSON_MEMORY)
            gamma = np.linalg.lstsq(df[:cols].T, f, rcond=None)[0]
            g_mixed = g - gamma @ dg[:cols]
            mixed = (g_mixed[:values.size].reshape(values.shape),
                     g_mixed[values.size:])
        df[c % ANDERSON_MEMORY] = f
        dg[c % ANDERSON_MEMORY] = g
        self._calls += 1
        return mixed


def endpoint_error(traj: Trajectory, x1: np.ndarray) -> float:
    """Euclidean distance between the steered endpoint and the target."""
    return float(np.linalg.norm(traj.endpoint - np.asarray(x1, dtype=float)))


def _sup_norm(f: np.ndarray) -> float:
    """The largest row norm of a node residual f (K, k): a pass's err_fp."""
    return float(np.max(np.linalg.norm(f, axis=1)))


def control_energy(u: ControlFunction, t0: float, T: float,
                   nodes: int = 1001) -> float:
    """E(u) = 1/2 int |u|^2 dt by composite Simpson quadrature."""
    rule = simpson_rule(t0, T, nodes)
    vals = u.eval_many(rule.nodes)
    return 0.5 * float(rule.weights @ np.sum(vals * vals, axis=1))


def energy_certificate(y: np.ndarray, lam: np.ndarray) -> float:
    """1/2 y^T lam; equals the control energy at a fixed point of the
    general (symmetric-Gramian) map."""
    return 0.5 * float(np.asarray(y) @ np.asarray(lam))


def run_picard(problem, config: SynthesisConfig = SynthesisConfig(),
               u0: Optional[ControlFunction] = None) -> PicardResult:
    """Anderson-mixed Picard iteration of the selected map from u0
    (default zero).

    Pass n solves the trajectory of u_n and stops on ``eps_x`` before any
    product is sampled; then it applies the map, giving F(u_n)'s node
    values and its multiplier, and forms the node residual f = F(u_n) -
    u_n once.  ``err_fp`` is the largest row norm of f; the pass stops on
    ``eps_u`` (returning F(u_n)), or else forms u_{n+1} by type-II
    Anderson mixing of the node values (`_AndersonMixer`, which
    differences the same f), with the multipliers combined by the same
    affine coefficients.  Either way the pass builds one control, except
    the last pass of the budget, which neither mixes nor builds.  Pass
    0's pair is left out of the mixing history, so u_1 = F(u_0) and u_2 =
    F(u_1) as in plain Picard.

    The map is evaluated inexactly far from the target: from pass 1 on,
    the products are solved at rtol max(rtol, c err_end_n), with c =
    `_PRODUCT_TOL_FRACTION` and atol scaled by the same factor.  Such a
    loosened pass starts its flow products where the previous pass left
    them (`flow.ProductRecord`): at the coarsest Lobatto grid the previous
    samples say will pass, and its first lockstep batch from the step the
    previous pass's first batch proposed last, carried to the new rtol;
    every other pass starts them cold, at 33 points.  Three
    solves keep ``config.solver``: the trajectory and residual solves, so
    every ``err_end`` and endpoint stop is measured as configured; pass
    0's products, since a map that does not depend on u (a linear system)
    must give F(u_0) exactly for ``eps_u`` to fire at n = 1; and
    `apply_map`.  An ``eps_u`` stop is taken only from a pass whose
    products ran at ``config.solver``, so the returned F(u_n) is as
    accurate as configured; an endpoint stop is certified by its
    trajectory solve.

    This is the one place that decides on rank deficiency, which
    `solve_gramian` only flags: at the initial iterate the minimum-norm
    least-squares solve proceeds and is reported via
    ``status.initial_gramian_ok``; from iteration 1 on it raises
    `SingularGramian`.  A pass makes progress when its ``err_end`` is below
    `_PROGRESS_FACTOR` times that of the last pass that did (pass 0 does).
    A run that misses its tolerances stops as ``stalled`` on the
    `_STALL_PASSES`-th pass in a row without progress, before the map, or
    as ``max_iterations`` after ``config.n_max`` passes; like the endpoint
    stop, both return the iterate of lowest ``err_end`` with its trajectory.
    """
    # the drift flow of x0 or x1 does not depend on u: solved once per run
    y = residual(problem, config.solver)
    u: ControlFunction = u0 if u0 is not None else ZeroControl(
        problem.system.k, (problem.t0, problem.T))

    records: List[IterationRecord] = []
    best = (math.inf,)   # (err_end, n, u, trajectory) of the lowest err_end
    progress_err, progress_n = math.inf, 0   # of the last pass with progress
    initial_ok = None
    learned: Optional[ProductRecord] = None   # from the last pass's products
    mixer = _AndersonMixer(config.quadrature_points * problem.system.k,
                           problem.system.d)

    for n in range(config.n_max):
        tic = time.perf_counter()
        traj = solve_trajectory(problem, u, config.solver)
        err_end = endpoint_error(traj, problem.x1)
        energy = control_energy(u, problem.t0, problem.T)
        if err_end < best[0]:
            best = (err_end, n, u, traj)
        if err_end < _PROGRESS_FACTOR * progress_err:
            progress_err, progress_n = err_end, n
        stop = None   # (criterion, message)
        if err_end <= config.eps_x:
            stop = ("endpoint_tolerance",
                    f"err_end={err_end:.3e} <= {config.eps_x:g}")
        elif n - progress_n == _STALL_PASSES:
            stop = ("stalled", f"no progress in {_STALL_PASSES} passes")
        if stop:
            # the map is not applied: err_fp and the condition are unmeasured
            records.append(IterationRecord(
                n=n, err_end=err_end, err_fp=math.nan, energy=energy,
                gramian_condition=math.nan, product_rtol=math.nan,
                product_nodes=math.nan, interp_estimate=math.nan,
                wall_time=time.perf_counter() - tic))
            break

        solver = config.solver
        factor = _PRODUCT_TOL_FRACTION * err_end / solver.rtol
        if n > 0 and factor > 1.0:   # pass 0's products stay exact
            solver = replace(solver, rtol=solver.rtol * factor,
                             atol=solver.atol * factor)
        # a loosened pass starts its flow products from the last pass's
        start = (COLD_START if solver is config.solver
                 else learned.start(solver.rtol))
        nodes, values, sol, solved, estimate, learned = _map_values(
            problem, traj, config, y, solver, start)
        if n == 0:
            initial_ok = not sol.deficient
        elif sol.deficient:
            raise SingularGramian(
                f"least-squares residual {sol.rel_residual:.3e} of |y| "
                f"exceeds {DEFICIENCY_TOL:g}: Gramian not coercive on this "
                "iterate", residual=sol.residual, rel_residual=sol.rel_residual)
        f = values - u.eval_many(nodes)
        err_fp = _sup_norm(f)
        records.append(IterationRecord(
            n=n, err_end=err_end, err_fp=err_fp, energy=energy,
            gramian_condition=sol.condition_estimate,
            product_rtol=solver.rtol, product_nodes=solved,
            interp_estimate=estimate, wall_time=time.perf_counter() - tic))
        # a loosened pass's F(u_n) is not accurate enough to return
        if err_fp <= config.eps_u and solver is config.solver:
            return PicardResult(
                _control(problem, config, nodes, values, sol.lam, sol),
                records, RunStatus(
                    "control_update_tolerance", n + 1, initial_ok,
                    f"err_fp={err_fp:.3e} <= {config.eps_u:g}"), y, None)

        if n + 1 == config.n_max:   # nothing would return u_{n_max}
            stop = ("max_iterations", f"stopped after N_max={config.n_max}")
            break
        lam = sol.lam
        if n > 0:   # pass 0's pair, from u0, stays out of the history
            mixed = mixer(f, values, lam)
            if mixed is not None:
                values, lam = mixed
        del f   # the mixer keeps its own copy; free it before the build
        u = _control(problem, config, nodes, values, lam, sol)
    return PicardResult(best[2], records, RunStatus(
        stop[0], len(records), initial_ok, stop[1]), y, best[3])
