"""Adaptive integrator: accuracy, dense output, step control, error paths."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gramsynth import _tableaux as tb
from gramsynth import (NonFiniteState, OdeProblem, OutOfSpan, SolverConfig,
                       StepLimitExceeded, adapt_step, integrate)


def expo(t, y):
    return y


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_zero_field_is_exact():
    sol = integrate(OdeProblem(lambda t, y: np.zeros_like(y), 0.0, 1.0,
                               np.array([1.0, 2.0, 3.0])))
    assert np.array_equal(sol.eval(1.0), np.array([1.0, 2.0, 3.0]))


def test_exponential_endpoint():
    cfg = SolverConfig(rtol=1e-10, atol=1e-12)
    sol = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])), cfg)
    assert abs(sol.eval(1.0)[0] - math.e) < 1e-9


def test_harmonic_period():
    cfg = SolverConfig(rtol=1e-10, atol=1e-12)
    sol = integrate(OdeProblem(harmonic, 0.0, 2 * math.pi,
                               np.array([1.0, 0.0])), cfg)
    assert np.max(np.abs(sol.eval(2 * math.pi) - [1.0, 0.0])) < 10 * cfg.rtol


def test_dense_output_accuracy():
    # max dense-output defect over 100 uniform points stays within 100*rtol
    cfg = SolverConfig(rtol=1e-10, atol=1e-12)
    sol = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])), cfg)
    ts = np.linspace(0.0, 1.0, 100)
    errs = np.abs(sol.eval_many(ts)[:, 0] - np.exp(ts))
    assert errs.max() <= 100 * cfg.rtol
    assert abs(sol.eval(0.5)[0] - math.exp(0.5)) < 1e-8


def test_eval_at_knots_is_discrete_state():
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    sol = integrate(OdeProblem(harmonic, 0.0, 3.0, np.array([0.3, -1.0])), cfg)
    assert np.array_equal(sol.eval(0.0), sol.ys[0])
    for j in range(len(sol.ts)):
        assert np.array_equal(sol.eval(float(sol.ts[j])), sol.ys[j])


def test_dense_continuity_across_segments():
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    sol = integrate(OdeProblem(harmonic, 0.0, 3.0, np.array([0.3, -1.0])), cfg)
    for j in range(1, len(sol.ts) - 1):
        t = float(sol.ts[j])
        eps = 1e-9 * (sol.ts[-1] - sol.ts[0])
        left = sol.eval(t - eps)
        right = sol.eval(t + eps)
        assert np.max(np.abs(left - right)) < 1e-7


def test_out_of_span_raises():
    sol = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])))
    with pytest.raises(OutOfSpan):
        sol.eval(1.5)
    with pytest.raises(OutOfSpan):
        sol.eval(-0.2)


def test_backward_integration():
    cfg = SolverConfig(rtol=1e-10, atol=1e-12)
    fwd = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])), cfg)
    back = integrate(OdeProblem(expo, 1.0, 0.0, fwd.eval(1.0)), cfg)
    assert abs(back.eval(0.0)[0] - 1.0) <= 10 * (cfg.atol + cfg.rtol)
    assert back.t_span == (1.0, 0.0)
    assert abs(back.eval(0.5)[0] - math.exp(0.5)) < 1e-8


def test_time_reversal_consistency_harmonic():
    cfg = SolverConfig(rtol=1e-9, atol=1e-11)
    y0 = np.array([0.7, -0.2])
    fwd = integrate(OdeProblem(harmonic, 0.0, 4.0, y0), cfg)
    back = integrate(OdeProblem(harmonic, 4.0, 0.0, fwd.eval(4.0)), cfg)
    tol = 10 * (cfg.atol + cfg.rtol * np.abs(y0))
    assert np.all(np.abs(back.eval(0.0) - y0) <= tol)


def test_tolerance_proportionality():
    errs = []
    rtols = [1e-5, 5e-6, 1e-7, 5e-8]
    for rtol in rtols:
        cfg = SolverConfig(rtol=rtol, atol=rtol * 1e-2)
        sol = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])), cfg)
        errs.append(abs(sol.eval(1.0)[0] - math.e))
    # halving rtol cuts the error by at least the requested factor (x10 slack)
    assert errs[1] <= 10 * errs[0] / 2 or errs[1] < 1e-14
    assert errs[3] <= 10 * errs[2] / 2 or errs[3] < 1e-14


def test_determinism_bit_identical():
    cfg = SolverConfig(rtol=1e-9, atol=1e-11)
    a = integrate(OdeProblem(harmonic, 0.0, 5.0, np.array([1.0, 0.5])), cfg)
    b = integrate(OdeProblem(harmonic, 0.0, 5.0, np.array([1.0, 0.5])), cfg)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.segments, b.segments)


def _oscillators(omega):
    """Rows (x, x') of independent harmonic oscillators x'' = -omega^2 x."""
    def field(t, y):
        return np.stack([y[:, 1], -omega ** 2 * y[:, 0]], axis=1)
    return field


def test_batch_hard_row_keeps_its_accuracy():
    # one hard row (omega = 50) among 99 easy ones (omega = 1): each step
    # answers to the worst row's error norm, so the hard row ends as
    # accurate as when solved alone (a norm averaged over the batch would
    # dilute its error 100-fold)
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    T, hard = 2.0, 37
    omega = np.ones(100)
    omega[hard] = 50.0
    y0 = np.tile([1.0, 0.0], (100, 1))
    batch = integrate(OdeProblem(_oscillators(omega), 0.0, T, y0), cfg,
                      dense=False)
    solo = integrate(OdeProblem(_oscillators(np.array([50.0])), 0.0, T,
                                y0[:1]), cfg, dense=False)

    def exact(w):
        return np.array([math.cos(w * T), -w * math.sin(w * T)])

    err_batch = np.max(np.abs(batch.ys[-1][hard] - exact(50.0)))
    err_solo = np.max(np.abs(solo.ys[-1][0] - exact(50.0)))
    assert err_batch <= 2.0 * err_solo
    easy = np.delete(batch.ys[-1], hard, axis=0)
    assert np.max(np.abs(easy - exact(1.0))) <= 1e-8


def test_batch_of_one_row_equals_single_state():
    cfg = SolverConfig(rtol=1e-9, atol=1e-11)
    y0 = np.array([0.3, -1.0])
    one = integrate(OdeProblem(harmonic, 0.0, 3.0, y0), cfg)
    row = integrate(OdeProblem(_oscillators(np.ones(1)), 0.0, 3.0,
                               y0[None]), cfg)
    assert np.array_equal(one.ts, row.ts)
    assert np.array_equal(one.ys, row.ys[:, 0])
    assert np.array_equal(one.eval(1.234), row.eval(1.234)[0])
    assert row.eval_many([0.5, 2.5]).shape == (2, 1, 2)


# Dense-output cases with closed forms: y(t) for each solution's state.
_OMEGA = np.array([1.0, 2.0, 0.5])


def _dense_problem(kind):
    cfg = SolverConfig(rtol=1e-10, atol=1e-12)
    if kind == "forward":
        def exact(t):
            return np.array([math.exp(t)])
        problem = OdeProblem(expo, 0.0, 1.0, exact(0.0))
    elif kind == "backward":
        def exact(t):
            return np.array([math.cos(t), -math.sin(t)])
        problem = OdeProblem(harmonic, 3.0, 0.0, exact(3.0))
    else:  # a (3, 2) batch of oscillators x'' = -omega^2 x
        def exact(t):
            return np.stack([np.cos(_OMEGA * t),
                             -_OMEGA * np.sin(_OMEGA * t)], axis=1)
        problem = OdeProblem(_oscillators(_OMEGA), 0.0, 3.0, exact(0.0))
    return problem, exact, cfg


def _dense_case(kind):
    problem, exact, cfg = _dense_problem(kind)
    return integrate(problem, cfg), exact, cfg


DENSE_KINDS = ["forward", "backward", "batch"]


@pytest.mark.parametrize("kind", DENSE_KINDS)
def test_eval_many_equals_stacked_eval(kind):
    sol, _, _ = _dense_case(kind)
    lo, hi = sorted(sol.t_span)
    ts = np.concatenate([np.linspace(lo, hi, 301), sol.ts[::3]])
    many = sol.eval_many(ts)
    assert many.shape == (ts.size,) + sol.ys.shape[1:]
    stacked = np.stack([sol.eval(float(t)) for t in ts])
    assert np.array_equal(many, stacked)


@pytest.mark.parametrize("kind", DENSE_KINDS)
def test_knots_return_discrete_state_copies(kind):
    sol, _, _ = _dense_case(kind)
    ys = sol.ys.copy()
    many = sol.eval_many(sol.ts)
    assert np.array_equal(many, ys)
    many += 1.0
    for j, t in enumerate(sol.ts):
        y = sol.eval(float(t))
        assert np.array_equal(y, ys[j])
        y += 1.0
    assert np.array_equal(sol.ys, ys)


@pytest.mark.parametrize("kind", DENSE_KINDS)
def test_span_slack_accepted_and_out_of_span_raises(kind):
    sol, _, _ = _dense_case(kind)
    lo, hi = sorted(sol.t_span)
    slack = 1e-13 * (hi - lo)
    edges = np.array([lo - slack, hi + slack])
    near = sol.eval_many(edges)
    ends = sol.ys[[0, -1]] if sol.ts[0] == lo else sol.ys[[-1, 0]]
    assert np.max(np.abs(near - ends)) <= 1e-12 * np.max(np.abs(sol.ys))
    assert np.array_equal(near[1], sol.eval(hi + slack))
    mid = 0.5 * (lo + hi)
    for bad in (hi + 1e-6 * (hi - lo), lo - 1e-6 * (hi - lo)):
        with pytest.raises(OutOfSpan):
            sol.eval_many([lo, mid, bad, hi])
        with pytest.raises(OutOfSpan):
            sol.eval(bad)


@pytest.mark.parametrize("kind", DENSE_KINDS)
def test_step_midpoints_match_closed_form(kind):
    # the interpolant is least accurate mid-step; same bound as
    # test_dense_output_accuracy
    sol, exact, cfg = _dense_case(kind)
    mids = 0.5 * (sol.ts[1:] + sol.ts[:-1])
    ref = np.stack([exact(t) for t in mids])
    assert np.max(np.abs(sol.eval_many(mids) - ref)) <= 100 * cfg.rtol
    assert np.max(np.abs(sol.eval(mids[len(mids) // 2])
                         - ref[len(mids) // 2])) <= 100 * cfg.rtol


def test_no_dense_output_raises():
    sol = integrate(OdeProblem(expo, 0.0, 1.0, np.array([1.0])), dense=False)
    with pytest.raises(OutOfSpan):
        sol.eval(0.5)
    with pytest.raises(OutOfSpan):
        sol.eval_many([0.5])


def test_step_counters():
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    sol = integrate(OdeProblem(harmonic, 0.0, 1.0, np.array([1.0, 0.0])), cfg)
    assert sol.n_accepted == sol.step_count
    assert sol.n_rejected >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_raises():
    def bad_field(t, y):
        # goes non-finite once the state leaves a bounded region
        return np.where(np.abs(y) > 10.0, np.inf, y * y)

    with pytest.raises(NonFiniteState):
        integrate(OdeProblem(bad_field, 0.0, 5.0, np.array([2.0])),
                  SolverConfig(rtol=1e-6, atol=1e-8))


def test_blowup_exhausts_step_budget():
    # a finite-time blow-up shrinks steps until the budget runs out
    with pytest.raises(StepLimitExceeded):
        integrate(OdeProblem(lambda t, y: y * y, 0.0, 5.0, np.array([2.0])),
                  SolverConfig(rtol=1e-6, atol=1e-8, max_steps=2000))


def test_step_limit_raises():
    with pytest.raises(StepLimitExceeded):
        integrate(OdeProblem(harmonic, 0.0, 100.0, np.array([1.0, 0.0])),
                  SolverConfig(rtol=1e-10, atol=1e-12, max_steps=5))


def test_adapt_step_unit_error():
    assert adapt_step(1.0, 2.0) == pytest.approx(2.0 * 0.9)


def test_adapt_step_halving_law():
    # error of 2^(q+1) must halve the step (q = embedded error order)
    assert adapt_step(2.0 ** 8, 1.0) == pytest.approx(0.45)


def test_adapt_step_clamps():
    assert adapt_step(0.0, 1.0) == 10.0          # growth clamp
    assert adapt_step(1e12, 1.0) == pytest.approx(0.2)  # shrink clamp


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rtol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_steps=0)
    with pytest.raises(ValueError):
        OdeProblem(expo, 1.0, 1.0, np.array([1.0]))


def test_vector_field_dimension_mismatch():
    with pytest.raises(ValueError):
        integrate(OdeProblem(lambda t, y: np.zeros(2), 0.0, 1.0,
                             np.array([1.0, 2.0, 3.0])))


class _Recorder:
    """A vector field that logs each call's time, state copy and array."""

    def __init__(self, field):
        self.field, self.times, self.states, self.arrays = field, [], [], []

    def __call__(self, t, y):
        self.times.append(t)
        self.states.append(y.copy())
        self.arrays.append(y)
        return self.field(t, y)


@pytest.mark.parametrize("kind", DENSE_KINDS + ["clipped"])
def test_prepare_hands_over_every_stage_time(kind):
    # each attempt, accepted or rejected, calls the field only at the times
    # handed to prepare before it; only f(t0) and the starting-step probe
    # come before any.  "clipped" first tries a step past t_end, which is
    # clipped to the span and rejected.
    problem, _, cfg = _dense_problem("forward" if kind == "clipped"
                                     else kind)
    span = abs(problem.t_end - problem.t_start)
    first_step = 2.0 * span if kind == "clipped" else None
    prepared, misses = [], []
    field = problem.vector_field

    def logged(t, y):
        if not (prepared and t in prepared[-1]):
            misses.append(t)
        return field(t, y)

    sol = integrate(replace(problem, vector_field=logged,
                            prepare=lambda ts: prepared.append(ts.tolist())),
                    cfg, first_step=first_step)
    ref = integrate(problem, cfg, first_step=first_step)
    assert np.array_equal(sol.ts, ref.ts)
    assert np.array_equal(sol.segments, ref.segments)
    assert len(prepared) == sol.n_accepted + sol.n_rejected
    assert all(len(ts) == tb.DOP853_N_STAGES_EXTENDED for ts in prepared)
    assert misses[0] == problem.t_start
    assert len(misses) == (1 if first_step else 2)
    assert prepared[-1][-1] == problem.t_end
    if kind == "clipped":
        assert sol.n_rejected > 0 and prepared[0][-1] == problem.t_end


def test_first_step_is_the_first_step_attempted():
    # no starting-step guess: call 0 is f(t0), calls 1-11 the stages of the
    # first attempt at t0 + C_s h, call 12 its end state at t0 + h
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    rec = _Recorder(harmonic)
    sol = integrate(OdeProblem(rec, 0.0, 3.0, np.array([1.0, 0.0])), cfg,
                    first_step=0.05)
    assert rec.times[1] == 0.05 * tb.DOP853_C[1]
    assert rec.times[12] == 0.05
    assert sol.ts[1] == 0.05 and sol.n_rejected == 0
    with pytest.raises(ValueError):
        integrate(OdeProblem(harmonic, 0.0, 1.0, np.array([1.0, 0.0])),
                  first_step=0.0)


def test_too_large_first_step_is_rejected_and_shrunk():
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    rec = _Recorder(harmonic)
    sol = integrate(OdeProblem(rec, 0.0, 2 * math.pi, np.array([1.0, 0.0])),
                    cfg, first_step=2.0)
    assert rec.times[12] == 2.0
    assert sol.n_rejected >= 1 and 0.0 < sol.ts[1] < 2.0
    assert np.max(np.abs(sol.ys[-1] - [1.0, 0.0])) < 10 * cfg.rtol


def test_next_step_is_the_proposal_before_the_clip():
    # one step of 0.5 proposed on a span of 0.1: clipped, accepted, and
    # next_step reports the 0.5
    sol = integrate(OdeProblem(harmonic, 0.0, 0.1, np.array([1.0, 0.0])),
                    first_step=0.5)
    assert sol.step_count == 1 and sol.ts[-1] == 0.1
    assert sol.next_step == 0.5
    # mid-run, the proposal is the step the longer solve goes on to take
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    long = integrate(OdeProblem(harmonic, 0.0, 10.0, np.array([1.0, 0.0])),
                     cfg, first_step=0.01)
    j = long.step_count // 2
    t_end = 0.5 * (long.ts[j] + long.ts[j + 1])
    short = integrate(OdeProblem(harmonic, 0.0, t_end, np.array([1.0, 0.0])),
                      cfg, first_step=0.01)
    assert np.array_equal(short.ts[:-1], long.ts[:j + 1])
    assert short.ts[-1] - short.ts[-2] < short.next_step
    assert short.next_step == pytest.approx(long.ts[j + 1] - long.ts[j],
                                            rel=1e-12)


@pytest.mark.parametrize("y0", [np.array([0.3, -1.0]),
                                np.array([[0.3, -1.0], [1.0, 0.5]])])
def test_integrate_leaves_y0_unchanged(y0):
    field = harmonic if y0.ndim == 1 else _oscillators(np.array([1.0, 2.0]))
    before = y0.copy()
    for first_step in (None, 0.1):
        sol = integrate(OdeProblem(field, 0.0, 2.0, y0), first_step=first_step)
        assert np.array_equal(y0, before)
        assert not np.shares_memory(sol.ys, y0)


def test_knots_are_distinct_states_not_workspace():
    # each knot is the state the field saw at the end of its step, so the
    # accepted states were not overwritten by later stages
    cfg = SolverConfig(rtol=1e-8, atol=1e-10)
    rec = _Recorder(_oscillators(np.array([1.0, 3.0])))
    y0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    sol = integrate(OdeProblem(rec, 0.0, 2.0, y0), cfg, dense=False)
    assert sol.step_count > 3
    seen = {}
    for t, state in zip(rec.times, rec.states):
        seen.setdefault(t, []).append(state)
    for t, y in zip(sol.ts[1:], sol.ys[1:]):
        assert any(np.array_equal(y, s) for s in seen[t])
    flat = sol.ys.reshape(len(sol.ys), -1)
    assert len({row.tobytes() for row in flat}) == len(flat)
    assert not any(np.shares_memory(sol.ys, a) for a in rec.arrays)
