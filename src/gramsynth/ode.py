"""Adaptive embedded Runge-Kutta integration with dense output.

The method is the 8th-order Dormand-Prince pair (DOP853) with its degree-7
companion interpolant.  Step sizes are chosen by the classical integral
controller, starting from an automatically chosen step or from a caller's
``first_step``.  The starting step is only a first guess that the error
control corrects (Hairer, Norsett & Wanner, "Solving ODEs I", II.4), so a
caller solving a run of similar problems passes each solve's
`DenseSolution.next_step` to the next one and skips the warm-up.  Backward
integration (``t_end < t_start``) is supported directly by stepping with
negative h.

The stepper writes its stage states and error scale into two workspace
vectors allocated once per solve; only each accepted state is a fresh
array, because the solution keeps it as a knot.

A 2-D initial state (B, n) is a batch of B independent rows stepped in
lockstep: the rows share one step sequence, and a step is accepted on the
largest of the rows' error norms, so every row meets rtol/atol as it
would solved alone (Hairer, Norsett & Wanner, "Solving ODEs I", II.4).

Every stage time of an explicit step attempt is known before its first
stage runs (ibid., II.1), so a problem with a ``prepare`` hook is handed
all of them at once, and a vector field that depends on time through
coefficients alone can read those for the whole attempt in one call.

The degree-7 interpolant of a step is a fixed weighted sum of its seven
coefficient rows (ibid., II.6).  `DenseSolution.eval_many` evaluates it
for a whole sample grid in one vectorized pass; `DenseSolution.eval` is
its one-time wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Optional, Tuple

import numpy as np

from . import _tableaux as tb
from .errors import NonFiniteState, OutOfSpan, StepLimitExceeded

# Step-size law: h * SAFETY * err**(-1/(q+1)), never shrunk below x0.2 or
# grown above x10 in one step; never step below 1e-14 of the span.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
H_MIN_FRACTION = 1e-14


def _is_real(x) -> bool:
    """x is a real number, and not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _is_count(x) -> bool:
    """x is an integer, and not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and step budget of `integrate`."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 200_000

    def __post_init__(self):
        if not all(_is_real(tol) and tol > 0.0
                   for tol in (self.rtol, self.atol)):
            raise ValueError(f"rtol and atol must be positive numbers, got "
                             f"{self.rtol!r} and {self.atol!r}")
        if not (_is_count(self.max_steps) and self.max_steps >= 1):
            raise ValueError(
                f"max_steps must be an integer >= 1, got {self.max_steps!r}")


@dataclass(frozen=True)
class OdeProblem:
    """First-order IVP dy/dt = vector_field(t, y) on [t_start, t_end].

    ``y0`` is one state (n,) or a batch of rows (B, n); the vector field
    takes and returns arrays of the shape of ``y0``.  The state it is
    handed may be a workspace that the solver overwrites afterwards, so it
    must not keep a reference to it.

    ``prepare``, when given, is called at the start of every step attempt
    with the array of all the times at which the attempt will call the
    vector field: t + c_s h for the stages s = 1..15, then the step's end.
    The vector field is also called at times it was not handed: at
    t_start, and once more by the automatic starting step.
    """

    vector_field: Callable[[float, np.ndarray], np.ndarray]
    t_start: float
    t_end: float
    y0: np.ndarray
    prepare: Optional[Callable[[np.ndarray], None]] = None

    def __post_init__(self):
        if self.t_start == self.t_end:
            raise ValueError("t_start and t_end must differ")


def adapt_step(error_norm: float, h: float) -> float:
    """Next step size from the integral controller law.

    ``h * SAFETY * error_norm**(-1/(q+1))`` with q the embedded
    error-estimator order, clamped to [0.2, 10] times h.
    """
    if error_norm <= 0.0:
        return h * MAX_FACTOR
    factor = SAFETY * error_norm ** (-1.0 / (tb.DOP853_ERROR_ORDER + 1))
    return h * min(MAX_FACTOR, max(MIN_FACTOR, factor))


def carried_step(h: float, rtol_from: float, rtol_to: float) -> float:
    """A step size h that suited a solve at rtol_from, carried to a like
    solve at rtol_to with atol scaled alike.

    A step's error estimate scales as h**(q+1), q the embedded
    error-estimator order, so the step that meets a tolerance scales as
    its (q+1)-th root: the exponent of `adapt_step`.
    """
    return h * (rtol_to / rtol_from) ** (1.0 / (tb.DOP853_ERROR_ORDER + 1))


def _initial_step(fun, t0, y0, f0, direction, span, rtol, atol):
    """Automatic starting step (Hairer-Norsett-Wanner heuristic).

    Taken over the whole flat state, batches included: it is only a first
    guess, and the per-row error control corrects it.
    """
    order = tb.DOP853_ERROR_ORDER
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (order + 1))
    return min(100 * h0, h1, span)


def _rms(x):
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _row_sq_norms(x):
    """Squared Euclidean norm of each row of a 2-D array (as ``r @ r``)."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


@dataclass
class DenseSolution:
    """Continuously evaluable result of one adaptive integration.

    Knots ``ts`` are stored in integration order (descending for backward
    solves); ``ys[j]`` has the shape of the initial state.  Evaluation at a
    knot returns a copy of the solver's discrete state there exactly;
    between knots, step j's degree-7 interpolant is
    ``ys[j] + sum_i w_i(x) segments[j, i]`` with the weights of `_weights`.
    ``next_step`` is the step size (absolute) the controller proposed for
    the final step before clipping it to ``t_end``: a warm ``first_step``
    for a similar solve.
    """

    ts: np.ndarray
    ys: np.ndarray
    segments: Optional[np.ndarray]  # (n_segs, 7, *state shape)
    n_accepted: int
    n_rejected: int
    next_step: float
    _inner: np.ndarray = field(init=False, repr=False)
    _ascending: bool = field(init=False, repr=False)
    _bounds: Tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        self._ascending = bool(self.ts[-1] >= self.ts[0])
        ts_asc = self.ts if self._ascending else self.ts[::-1]
        # the ascending step of t is the count of inner knots <= t, so
        # the end steps also take times in the rounding slack
        self._inner = ts_asc[1:-1]
        lo, hi = float(ts_asc[0]), float(ts_asc[-1])
        slack = 1e-12 * (hi - lo) + 4e-16 * max(abs(lo), abs(hi), 1.0)
        self._bounds = (lo - slack, hi + slack)

    @property
    def t_span(self) -> Tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def step_count(self) -> int:
        return len(self.ts) - 1

    def eval(self, t: float) -> np.ndarray:
        """State at time t (closed span, up to a rounding slack)."""
        return self.eval_many([t])[0]

    def eval_many(self, ts) -> np.ndarray:
        """The state at every element of ts; (ts.size, *state shape)."""
        if self.segments is None:
            raise OutOfSpan("solution was integrated without dense output")
        t = np.asarray(ts, dtype=float).ravel()
        t_min, t_max = t.min(initial=np.inf), t.max(initial=-np.inf)
        if not (t_min >= self._bounds[0] and t_max <= self._bounds[1]):
            raise OutOfSpan(f"t in [{t_min}, {t_max}] outside span "
                            f"{sorted(self.t_span)}")
        j = np.searchsorted(self._inner, t, side="right")
        if not self._ascending:
            j = self._inner.size - j
        ta, tb = self.ts[j], self.ts[j + 1]
        w = _weights((t - ta) / (tb - ta))[:, None, :]
        ys = self.ys.reshape(len(self.ys), -1)
        F = self.segments[j].reshape(t.size, w.shape[-1], ys.shape[1])
        out = ys[j] + (w @ F)[:, 0]
        # a t on a knot gets the solver's state there exactly
        knot = j + (t == tb)
        hit = self.ts[knot] == t
        out[hit] = ys[knot[hit]]
        return out.reshape((t.size,) + self.ys.shape[1:])


def _weights(x):
    """Weights x, x(1-x), x^2(1-x), ..., x^4(1-x)^3 of a step's 7 rows,
    (n, 7), at the fractions x (n,) of the steps: each weight is the one
    before times x or 1 - x."""
    w = np.empty((x.size, tb.DOP853_INTERP_POWER))
    w[:, 0::2] = x[:, None]
    w[:, 1::2] = (1.0 - x)[:, None]
    return np.multiply.accumulate(w, axis=1, out=w)


def integrate(problem: OdeProblem, config: SolverConfig = SolverConfig(),
              dense: bool = True,
              first_step: Optional[float] = None) -> DenseSolution:
    """Integrate ``problem`` adaptively, returning a dense solution.

    A batch ``y0`` of shape (B, n) is stepped in lockstep; each step is
    accepted only if every row's error norm is at most 1.

    ``dense=False`` skips interpolant construction (and the three extra
    stages it needs); the result then only supports knot access and
    endpoint queries via ``ys[-1]``.

    ``first_step`` (absolute, > 0) replaces the automatic starting step
    and its extra vector-field call; the step is accepted or shrunk like
    any other.

    Raises `StepLimitExceeded` when ``config.max_steps`` step attempts are
    spent, `NonFiniteState` when the state or error estimate goes NaN/Inf.
    """
    if first_step is not None and not (0.0 < first_step < math.inf):
        raise ValueError("first_step must be positive and finite")
    t0, t1 = float(problem.t_start), float(problem.t_end)
    y = np.array(problem.y0, dtype=float, copy=True)
    shape = y.shape
    if y.ndim not in (1, 2):
        raise ValueError("y0 must be one state (n,) or a batch (B, n)")
    n = shape[-1]
    f0 = np.asarray(problem.vector_field(t0, y), dtype=float)
    if f0.shape != shape:
        raise ValueError("vector_field output dimension does not match y0")
    if not np.all(np.isfinite(f0)):
        raise NonFiniteState("vector field non-finite at initial state")

    # The stepper works on the flat state; a batch field sees (B, n) rows.
    fun = problem.vector_field
    if y.ndim == 2:
        def fun(t, z, field=problem.vector_field):
            return field(t, z.reshape(shape)).reshape(-1)
    y = y.ravel()
    f0 = f0.ravel()

    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    h_min = H_MIN_FRACTION * span

    n_stages = tb.DOP853_N_STAGES
    K = np.empty((tb.DOP853_N_STAGES_EXTENDED, y.size))
    A, B, C = tb.DOP853_A, tb.DOP853_B, tb.DOP853_C
    prepare = problem.prepare
    stage_c = np.append(C[1:], 1.0)   # the last one stands for t_new
    # Workspaces: stage states (then error terms) and the error scale.
    stage = np.empty(y.size)
    scale = np.empty(y.size)

    h_abs = first_step
    if h_abs is None:
        h_abs = _initial_step(fun, t0, y, f0, direction, span,
                              config.rtol, config.atol)

    ts = [t0]
    ys = [y.copy()]
    segs = [] if dense else None
    f_cur = f0
    t = t0
    n_accepted = 0
    n_rejected = 0
    attempts = 0
    last_rejected = False

    while direction * (t1 - t) > 0.0:
        attempts += 1
        if attempts > config.max_steps:
            raise StepLimitExceeded(
                f"no convergence within {config.max_steps} step attempts")
        proposed = max(h_abs, h_min)
        h_abs = min(proposed, span)
        h = direction * h_abs
        t_new = t + h
        if direction * (t_new - t1) > 0.0:
            t_new = t1
            h = t_new - t
            h_abs = abs(h)
        # every time at which the attempt calls `fun`, t + c_s h, then t_new
        times = stage_c * h
        times += t
        times[-1] = t_new
        if prepare is not None:
            prepare(times)

        K[0] = f_cur
        for s in range(1, n_stages):
            if s == 1:   # one term, which matmul would sum without BLAS
                np.multiply(K[0], A[1, 0], out=stage)
            else:
                np.matmul(K[:s].T, A[s, :s], out=stage)
            stage *= h
            stage += y
            K[s] = fun(times[s - 1], stage)
        np.matmul(K[:n_stages].T, B, out=stage)
        stage *= h
        y_new = y + stage
        f_new = np.asarray(fun(t_new, y_new), dtype=float)
        K[n_stages] = f_new

        if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(f_new))):
            raise NonFiniteState(f"non-finite state near t={t_new}")

        # DOP853 error norm of each row; the step answers to the largest.
        np.abs(y, out=stage)
        np.abs(y_new, out=scale)
        np.maximum(stage, scale, out=scale)
        scale *= config.rtol
        scale += config.atol
        Kt = K[:n_stages + 1].T
        np.matmul(Kt, tb.DOP853_E5, out=stage)
        stage /= scale
        e5sq = _row_sq_norms(stage.reshape(-1, n))
        np.matmul(Kt, tb.DOP853_E3, out=stage)
        stage /= scale
        e3sq = _row_sq_norms(stage.reshape(-1, n))
        den = np.sqrt((e5sq + 0.01 * e3sq) * n)
        error_norm = float(np.max(abs(h) * e5sq / np.where(den > 0.0, den, 1.0)))

        if error_norm <= 1.0:
            if dense:
                segs.append(_dense_coeffs_dop853(fun, times, y, y_new,
                                                 f_cur, f_new, h, K, stage))
            h_next = adapt_step(error_norm, h_abs)
            if last_rejected:
                h_next = min(h_next, h_abs)
            t = t_new
            y = y_new
            f_cur = f_new
            ts.append(t)
            ys.append(y)
            h_abs = h_next
            n_accepted += 1
            last_rejected = False
        else:
            h_abs = min(h_abs, adapt_step(error_norm, h_abs))
            n_rejected += 1
            last_rejected = True

    return DenseSolution(
        ts=np.asarray(ts), ys=np.asarray(ys).reshape((-1,) + shape),
        segments=(np.asarray(segs).reshape((-1, tb.DOP853_INTERP_POWER)
                                           + shape) if dense else None),
        n_accepted=n_accepted, n_rejected=n_rejected, next_step=proposed)


def _dense_coeffs_dop853(fun, times, y, y_new, f_old, f_new, h, K, stage):
    """Extra stages + F coefficients for the degree-7 interpolant; times
    are the attempt's stage times."""
    ns = tb.DOP853_N_STAGES
    for s in range(ns + 1, tb.DOP853_N_STAGES_EXTENDED):
        np.matmul(K[:s].T, tb.DOP853_A[s, :s], out=stage)
        stage *= h
        stage += y
        K[s] = fun(times[s - 1], stage)
    delta = y_new - y
    F = np.empty((tb.DOP853_INTERP_POWER, y.size))
    F[0] = delta
    F[1] = h * f_old - delta
    F[2] = 2.0 * delta - h * (f_new + f_old)
    F[3:] = h * (tb.DOP853_D @ K)
    return F
