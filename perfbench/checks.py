"""Correctness checks of a synthesized control, made apart from gramsynth.

Every check reads the control only through its public evaluation
(``u(t)``, ``u.eval_many``) or, for the energy certificate, its multiplier
and grid samples.  The references are scipy integrations of the system's
own vector fields, the Pontryagin shooting oracle of ``tests/oracles.py``,
the energy of the reference control that manufactured the target, and the
identity 1/2 y^T lam = 1/2 int |u|^2 that every general-map iterate obeys.
None of them compares against a stored copy of gramsynth's output.

`Checks.self_test` feeds each check a wrong control (scaled or perturbed)
and reports whether the check rejects it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.integrate import simpson, solve_ivp

# The re-simulated endpoint may miss x1 by this multiple of the run's
# tolerance.  Picard measures its endpoint error with gramsynth's own
# integrator (rtol 1e-8) on the interpolated control; the tighter scipy
# solve lands up to 1.4x the tolerance away on hopfield-me.
RESIM_SLACK = 2.0
RESIM_RTOL = 1e-11
RESIM_ATOL = 1e-12

ORACLE_SUP_GAP = 1e-6     # hopfield-me: sup |u - u_pontryagin| (measured 3e-9)
ORACLE_L2_REL = 1e-6      # hopfield-me: relative L2 gap to the oracle
OPTIMUM_L2_REL = 1e-2     # mindy24: relative L2 gap to the optimum (0.2 %)
CERTIFICATE_REL = 1e-6    # mindy64: |y.lam/2 - E| / E (measured ~1e-12)

GRID_POINTS = 1001


def _integrate(rhs, problem, x0):
    sol = solve_ivp(rhs, (problem.t0, problem.T), x0, method="DOP853",
                    rtol=RESIM_RTOL, atol=RESIM_ATOL)
    if not sol.success:
        raise RuntimeError(f"re-simulation failed: {sol.message}")
    return sol.y[:, -1]


def resimulated_error(problem, u) -> float:
    """|x(T) - x1| of dx/dt = N + B u(t) from x0, integrated by scipy."""
    sys_ = problem.system

    def rhs(t, x):
        return sys_.drift(t, x) + sys_.input_matrix(t, x) @ u(t)

    return float(np.linalg.norm(_integrate(rhs, problem, problem.x0)
                                - problem.x1))


def l2_norm(u, problem) -> float:
    """sqrt(int |u|^2) by Simpson's rule on a uniform 1001-point grid."""
    ts = np.linspace(problem.t0, problem.T, GRID_POINTS)
    vals = np.asarray(u.eval_many(ts), dtype=float)
    return float(np.sqrt(simpson(np.sum(vals * vals, axis=1), x=ts)))


class _Altered:
    """The control t -> fn(t, u(t)), evaluated like the original."""

    def __init__(self, u, fn):
        self.u, self.fn = u, fn

    def __call__(self, t):
        return self.fn(t, self.u(t))

    def eval_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.fn(ts[:, None], self.u.eval_many(ts))


def scaled(u, factor):
    return _Altered(u, lambda t, v: factor * v)


def perturbed(u, problem, size):
    """u plus a sine bump of the given size on every channel."""
    span = problem.T - problem.t0
    return _Altered(u, lambda t, v: v + size * np.sin(
        2.0 * np.pi * (t - problem.t0) / span))


class Checks:
    """The checks of one workload; references are computed once."""

    def __init__(self, workload):
        self.workload = workload
        problem = workload.problem
        self.oracle = None
        self.reference_l2 = None
        self.y = None
        if workload.name in ("hopfield-me", "mindy24-under-me"):
            from oracles import pontryagin_shooting
            self.oracle = pontryagin_shooting(problem, GRID_POINTS)
        if workload.reference_control is not None:
            self.reference_l2 = l2_norm(workload.reference_control, problem)
        if workload.config.map_kind == "general":
            # anchor at T: y = x1 - Phi_{t0,T}(x0) of the drift flow
            self.y = problem.x1 - _integrate(problem.system.drift, problem,
                                             problem.x0)

    # Each check returns (measured value, bound, passed).

    def resim(self, u):
        err = resimulated_error(self.workload.problem, u)
        bound = RESIM_SLACK * self.workload.tolerance
        return err, bound, err <= bound

    def oracle_sup(self, u):
        vals = np.asarray(u.eval_many(self.oracle.ts), dtype=float)
        gap = float(np.max(np.linalg.norm(vals - self.oracle.u, axis=1)))
        return gap, ORACLE_SUP_GAP, gap <= ORACLE_SUP_GAP

    def _l2_gap(self, u):
        l2 = l2_norm(u, self.workload.problem)
        return abs(l2 - self.oracle.l2) / self.oracle.l2

    def oracle_l2(self, u):
        gap = self._l2_gap(u)
        return gap, ORACLE_L2_REL, gap <= ORACLE_L2_REL

    def optimum_l2(self, u):
        gap = self._l2_gap(u)
        return gap, OPTIMUM_L2_REL, gap <= OPTIMUM_L2_REL

    def below_reference(self, u):
        l2 = l2_norm(u, self.workload.problem)
        return l2, self.reference_l2, l2 < self.reference_l2

    def certificate(self, u):
        energy = 0.5 * simpson(np.sum(u.grid_values ** 2, axis=1),
                               x=u.grid_ts)
        gap = float(abs(0.5 * float(self.y @ u.lam) - energy) / energy)
        return gap, CERTIFICATE_REL, gap <= CERTIFICATE_REL

    def names(self):
        out = ["resim"]
        if self.workload.name == "hopfield-me":
            out += ["oracle_sup", "oracle_l2"]
        if self.workload.name == "mindy24-under-me":
            out += ["optimum_l2", "below_reference"]
        if self.y is not None:
            out.append("certificate")
        return out

    def run(self, u) -> dict:
        """{check: {"value", "bound", "ok"}} for every check on u."""
        out = {}
        for name in self.names():
            value, bound, ok = getattr(self, name)(u)
            out[name] = {"value": float(value), "bound": float(bound),
                         "ok": bool(ok)}
        return out

    def self_test(self, u) -> dict:
        """{check: rejected?} with each check given a wrong control."""
        problem = self.workload.problem
        wrong = {
            "resim": perturbed(u, problem, 1e-2),
            "oracle_sup": perturbed(u, problem, 1e-4),
            "oracle_l2": scaled(u, 1.0 + 1e-4),
            "optimum_l2": scaled(u, 1.05),
            "below_reference": scaled(u, 1.5),
        }
        if self.y is not None:
            wrong["certificate"] = SimpleNamespace(
                lam=u.lam, grid_ts=u.grid_ts, grid_values=1.01 * u.grid_values)
        return {name: not getattr(self, name)(wrong[name])[2]
                for name in self.names()}
