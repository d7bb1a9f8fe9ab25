"""Control-affine system abstraction and the benchmark catalog.

A system is the pair (N, B) of dx/dt = N_t(x) + B_t(x) u together with
analytic Jacobian providers.  The drift and its Jacobian take a batch of
states, so the variational solves of many samples run as one lockstep
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, UnknownSystem
from .ode import OdeProblem, SolverConfig, integrate

Field = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ControlAffineSystem:
    """The tuple (N, B, D_xN, D_x[N + Bu]) with dimensions d and k.

    ``drift(t, x)`` and ``drift_jacobian(t, x)`` accept a batch of states x
    of shape (..., d), with t a scalar or an array of shape x.shape[:-1],
    and return (..., d) and (..., d, d).  ``input_matrix(t, x)`` (d, k)
    and ``closed_loop_jacobian(t, x, u)`` (d, d) take one state.
    """

    name: str
    d: int
    k: int
    drift: Field
    input_matrix: Field
    drift_jacobian: Field
    closed_loop_jacobian: Callable[[float, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (1 <= self.k <= self.d):
            raise ValueError("input dimension must satisfy 1 <= k <= d")


@dataclass(frozen=True)
class SteeringProblem:
    """Boundary data (x0, x1) on [t0, T] with the Gramian anchor choice.

    ``anchor`` selects the reference time of the flow Jacobians:
    1 anchors at t0, 2 anchors at T.
    """

    system: ControlAffineSystem
    x0: np.ndarray
    x1: np.ndarray
    t0: float
    T: float
    anchor: int = 2

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if not self.t0 < self.T:
            raise ValueError("t0 must be < T")
        if self.x0.shape != (self.system.d,) or self.x1.shape != (self.system.d,):
            raise ValueError("boundary states must have dimension d")
        if self.anchor not in (1, 2):
            raise ValueError("anchor must be 1 (t0) or 2 (T)")

    @property
    def anchor_time(self) -> float:
        return self.t0 if self.anchor == 1 else self.T


def drift_flow(system: ControlAffineSystem, s: float, t: float,
               x: np.ndarray, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """Drift-only flow map: the state at time t of dx/dt = N, x(s) = x."""
    x = np.asarray(x, dtype=float)
    if s == t:
        return x.copy()
    sol = integrate(OdeProblem(system.drift, s, t, x), config, dense=False)
    return sol.ys[-1]


# ---------------------------------------------------------------------------
# catalog vector fields; drifts and drift Jacobians act on (..., d) batches

def _zero_drift(t, x):
    return np.zeros_like(x)


def _zero_jac(t, x):
    return np.zeros(x.shape + x.shape[-1:])


def _state_jac(t, x, u, jac):
    """Closed-loop Jacobian of a system whose B does not depend on x."""
    return jac(t, x)


def _unicycle_input(t, x):
    th = x[2]
    return np.array([[math.cos(th), 0.0],
                     [math.sin(th), 0.0],
                     [0.0, 1.0]])


def _unicycle_cl_jac(t, x, u):
    th = x[2]
    J = np.zeros((3, 3))
    J[0, 2] = -u[0] * math.sin(th)
    J[1, 2] = u[0] * math.cos(th)
    return J


_PEND_LAM = 0.78
_PEND_BETA = 0.13


def _pend_b(t):
    return (1.0 + 0.5 * np.cos(t)) ** -2


def _pend_coeffs(t):
    """Stiffness a(t) and damping g(t) of the time-varying pendulum."""
    b = _pend_b(t)
    return _PEND_LAM ** 2 * np.sqrt(b), -b * np.sin(t) + _PEND_BETA * _PEND_LAM


def _pend_drift(t, x):
    a, g = _pend_coeffs(t)
    th, om = x[..., 0], x[..., 1]
    return np.stack([om, -a * np.sin(th) - g * om], axis=-1)


def _pend_input(t, x):
    return np.array([[0.0], [_pend_b(t)]])


def _pend_jac(t, x):
    a, g = _pend_coeffs(t)
    J = np.zeros(x.shape + (2,))
    J[..., 0, 1] = 1.0
    J[..., 1, 0] = -a * np.cos(x[..., 0])
    J[..., 1, 1] = -g
    return J


_SIR_LAM, _SIR_BETA, _SIR_MU, _SIR_GAM = 1.0, 2.0, 0.2, 1.0


def _sir_drift(t, x):
    S, I, R = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([
        _SIR_LAM - _SIR_BETA * S * I - _SIR_MU * S,
        _SIR_BETA * S * I - (_SIR_MU + _SIR_GAM) * I,
        _SIR_GAM * I - _SIR_MU * R,
    ], axis=-1)


def _sir_input(t, x):
    return np.array([[-x[0]], [0.0], [0.0]])


def _sir_jac(t, x):
    S, I = x[..., 0], x[..., 1]
    J = np.zeros(x.shape + (3,))
    J[..., 0, 0] = -_SIR_BETA * I - _SIR_MU
    J[..., 0, 1] = -_SIR_BETA * S
    J[..., 1, 0] = _SIR_BETA * I
    J[..., 1, 1] = _SIR_BETA * S - _SIR_MU - _SIR_GAM
    J[..., 2, 1] = _SIR_GAM
    J[..., 2, 2] = -_SIR_MU
    return J


def _sir_cl_jac(t, x, u):
    J = _sir_jac(t, x)
    J[0, 0] -= u[0]
    return J


_SC_J = np.array([10.0, 20.0, 15.0])
_SC_A = np.array([(_SC_J[1] - _SC_J[2]) / _SC_J[0],
                  (_SC_J[2] - _SC_J[0]) / _SC_J[1],
                  (_SC_J[0] - _SC_J[1]) / _SC_J[2]])


def _spacecraft_drift(t, x):
    phi, th = x[..., 0], x[..., 1]
    w1, w2, w3 = x[..., 3], x[..., 4], x[..., 5]
    sphi, cphi = np.sin(phi), np.cos(phi)
    tth, cth = np.tan(th), np.cos(th)
    m = w2 * sphi + w3 * cphi
    return np.stack([
        w1 + tth * m,
        w2 * cphi - w3 * sphi,
        m / cth,
        _SC_A[0] * w2 * w3,
        _SC_A[1] * w3 * w1,
        _SC_A[2] * w1 * w2,
    ], axis=-1)


def _spacecraft_input(t, x):
    B = np.zeros((6, 3))
    B[3:, :] = np.diag(1.0 / _SC_J)
    return B


def _spacecraft_jac(t, x):
    phi, th = x[..., 0], x[..., 1]
    w1, w2, w3 = x[..., 3], x[..., 4], x[..., 5]
    sphi, cphi = np.sin(phi), np.cos(phi)
    tth, cth = np.tan(th), np.cos(th)
    m = w2 * sphi + w3 * cphi          # appears in phi-dot and psi-dot
    mp = w2 * cphi - w3 * sphi         # its phi-derivative
    J = np.zeros(x.shape + (6,))
    J[..., 0, 0] = tth * mp
    J[..., 0, 1] = m / cth ** 2
    J[..., 0, 3] = 1.0
    J[..., 0, 4] = tth * sphi
    J[..., 0, 5] = tth * cphi
    J[..., 1, 0] = -m
    J[..., 1, 4] = cphi
    J[..., 1, 5] = -sphi
    J[..., 2, 0] = mp / cth
    J[..., 2, 1] = m * tth / cth
    J[..., 2, 4] = sphi / cth
    J[..., 2, 5] = cphi / cth
    J[..., 3, 4] = _SC_A[0] * w3
    J[..., 3, 5] = _SC_A[0] * w2
    J[..., 4, 3] = _SC_A[1] * w3
    J[..., 4, 5] = _SC_A[1] * w1
    J[..., 5, 3] = _SC_A[2] * w2
    J[..., 5, 4] = _SC_A[2] * w1
    return J


_HOP_DECAY = np.array([0.5, 0.3])
_HOP_W = np.array([[0.5, -1.5], [1.5, -0.5]])
_HOP_DECAY_JAC = -np.diag(_HOP_DECAY)


def _hopfield_drift(t, x):
    return -_HOP_DECAY * x + np.tanh(x) @ _HOP_W.T


def _hopfield_jac(t, x):
    s = 1.0 - np.tanh(x) ** 2
    return _HOP_DECAY_JAC + _HOP_W * s[..., None, :]


def _const_input(t, x, B):
    return B


def _mindy_psi(x, alpha, beta):
    up = beta * x + 0.5
    dn = beta * x - 0.5
    return np.sqrt(alpha ** 2 + up ** 2) - np.sqrt(alpha ** 2 + dn ** 2)


def _mindy_psi_deriv(x, alpha, beta):
    up = beta * x + 0.5
    dn = beta * x - 0.5
    return beta * (up / np.sqrt(alpha ** 2 + up ** 2)
                   - dn / np.sqrt(alpha ** 2 + dn ** 2))


def _mindy_drift(t, x, W, decay, alpha, beta):
    return -decay * x + _mindy_psi(x, alpha, beta) @ W.T


def _mindy_jac(t, x, W, decay, alpha, beta):
    J = W * _mindy_psi_deriv(x, alpha, beta)[..., None, :]
    diag = np.arange(len(decay))
    J[..., diag, diag] -= decay
    return J


def _lti_drift(t, x, A):
    return x @ A.T


def _lti_jac(t, x, A):
    return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()


def linear_system(A: np.ndarray, B: np.ndarray, name: str = "lti") -> ControlAffineSystem:
    """LTI system dx/dt = A x + B u (mainly for oracle tests)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d, k = B.shape
    jac = partial(_lti_jac, A=A)
    return ControlAffineSystem(
        name=name, d=d, k=k,
        drift=partial(_lti_drift, A=A),
        input_matrix=partial(_const_input, B=B),
        drift_jacobian=jac,
        closed_loop_jacobian=partial(_state_jac, jac=jac),
    )


def mindy_like(d: int, k: int, seed: int = 0) -> ControlAffineSystem:
    """Synthetic Hopfield-type network with the MINDy activation.

    W has i.i.d. normal entries rescaled so that the effective recurrent
    linearization at rest, W diag(psi'(0)), has spectral radius 0.9 (the
    activation slope psi'(0) = beta/sqrt(alpha^2 + 1/4) is ~6, so scaling
    the raw W to radius 0.9 would put the rest state deep in the unstable
    regime where the fixed-point iteration stops contracting).  Decay is
    uniform on [0.3, 0.7], beta = 20/3, per-component alpha = 1, and the
    input matrix is the first k columns of the identity.
    """
    rng = np.random.default_rng(seed)
    alpha = np.ones(d)
    beta = 20.0 / 3.0
    slope_at_rest = float(_mindy_psi_deriv(np.zeros(1), np.ones(1), beta)[0])
    W = rng.standard_normal((d, d))
    W *= 0.9 / (np.max(np.abs(np.linalg.eigvals(W))) * slope_at_rest)
    decay = rng.uniform(0.3, 0.7, size=d)
    B = np.eye(d)[:, :k].copy()
    params = dict(W=W, decay=decay, alpha=alpha, beta=beta)
    jac = partial(_mindy_jac, **params)
    return ControlAffineSystem(
        name=f"mindy_like_d{d}_k{k}_s{seed}", d=d, k=k,
        drift=partial(_mindy_drift, **params),
        input_matrix=partial(_const_input, B=B),
        drift_jacobian=jac,
        closed_loop_jacobian=partial(_state_jac, jac=jac),
    )


_CATALOG = {
    "unicycle",
    "pendulum",
    "sir",
    "spacecraft",
    "hopfield2d_full",
    "hopfield2d_under",
    "mindy_like",
}


def make_benchmark(name: str, params: Optional[dict] = None):
    """Benchmark system plus its boundary-value setup.

    ``params`` may override boundary data (x0, x1, t0, T, anchor) and, for
    ``mindy_like``, set (d, k, seed); any other key raises `ConfigError`.

    Returns (ControlAffineSystem, SteeringProblem).
    """
    if name not in _CATALOG:
        raise UnknownSystem(f"unknown benchmark {name!r}; choose from "
                            f"{sorted(_CATALOG)}")
    p = dict(params or {})

    if name == "unicycle":
        system = ControlAffineSystem(
            name="unicycle", d=3, k=2,
            drift=_zero_drift, input_matrix=_unicycle_input,
            drift_jacobian=_zero_jac, closed_loop_jacobian=_unicycle_cl_jac)
        bounds = dict(x0=[0.5, 0.25, math.pi / 12],
                      x1=[1.0, 0.75, 4 * math.pi / 3], t0=0.0, T=2.0)
    elif name == "pendulum":
        system = ControlAffineSystem(
            name="pendulum", d=2, k=1,
            drift=_pend_drift, input_matrix=_pend_input,
            drift_jacobian=_pend_jac,
            closed_loop_jacobian=partial(_state_jac, jac=_pend_jac))
        bounds = dict(x0=[0.0, 0.0], x1=[math.pi, 0.0], t0=0.5, T=1.5)
    elif name == "sir":
        system = ControlAffineSystem(
            name="sir", d=3, k=1,
            drift=_sir_drift, input_matrix=_sir_input,
            drift_jacobian=_sir_jac, closed_loop_jacobian=_sir_cl_jac)
        bounds = dict(x0=[1.0, 0.2, 0.1], x1=[0.5, 0.25, 0.2], t0=0.0, T=0.5)
    elif name == "spacecraft":
        system = ControlAffineSystem(
            name="spacecraft", d=6, k=3,
            drift=_spacecraft_drift, input_matrix=_spacecraft_input,
            drift_jacobian=_spacecraft_jac,
            closed_loop_jacobian=partial(_state_jac, jac=_spacecraft_jac))
        bounds = dict(x0=[0.3, 0.2, 0.1, 0.0, 0.0, 0.0],
                      x1=[0.0] * 6, t0=0.0, T=5.0)
    elif name in ("hopfield2d_full", "hopfield2d_under"):
        if name == "hopfield2d_full":
            B = np.eye(2)
        else:
            B = np.array([[1.0], [0.5]])
        system = ControlAffineSystem(
            name=name, d=2, k=B.shape[1],
            drift=_hopfield_drift,
            input_matrix=partial(_const_input, B=B),
            drift_jacobian=_hopfield_jac,
            closed_loop_jacobian=partial(_state_jac, jac=_hopfield_jac))
        bounds = dict(x0=[1.0, 1.0], x1=[-1.0, -1.0], t0=0.0, T=1.5)
    else:  # mindy_like
        d = int(p.pop("d", 100))
        k = int(p.pop("k", d))
        seed = int(p.pop("seed", 0))
        system = mindy_like(d, k, seed)
        bounds = dict(x0=np.ones(d), x1=-0.5 * np.ones(d), t0=0.0, T=3.0)

    unknown = sorted(set(p) - {"x0", "x1", "t0", "T", "anchor"})
    if unknown:
        raise ConfigError(f"unknown params for {name}: {unknown}")
    bounds.update(p)
    problem = SteeringProblem(system=system, **bounds)
    return system, problem
