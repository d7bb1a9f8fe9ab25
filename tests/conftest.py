"""Shared fixtures: solver configs, seeded LTI factories, expm oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from gramsynth import SolverConfig, SteeringProblem, linear_system


@pytest.fixture(scope="session")
def tight_solver():
    return SolverConfig(rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="session")
def paper_solver():
    return SolverConfig(rtol=1e-8, atol=1e-10)


def make_stable_lti(d, k, seed, shift=0.5):
    """Random LTI system with spectral abscissa pushed below -shift."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    A -= (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(d)
    B = rng.normal(size=(d, k))
    return A, B, linear_system(A, B, name=f"lti_d{d}k{k}s{seed}")


@pytest.fixture(scope="session")
def lti_pair():
    """The (A, B, system, problem) quadruple used by LTI oracle tests."""
    A, B, system = make_stable_lti(4, 2, seed=42)
    rng = np.random.default_rng(43)
    problem = SteeringProblem(system, rng.normal(size=4), rng.normal(size=4),
                              0.0, 1.2)
    return A, B, system, problem


def lti_gramian(A, B, T, t0=0.0, n=4001):
    """Classical reachability Gramian by expm + fine Simpson quadrature."""
    ts = np.linspace(t0, T, n)
    h = (T - t0) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    W = np.zeros((A.shape[0], A.shape[0]))
    for wi, t in zip(w, ts):
        E = expm(A * (T - t)) @ B
        W += wi * (E @ E.T)
    return W


def lti_min_energy_control(A, B, x0, x1, t0, T):
    """Closed-form minimum-energy LTI control, as a callable of t."""
    W = lti_gramian(A, B, T, t0)
    y = x1 - expm(A * (T - t0)) @ x0
    lam = np.linalg.solve(W, y)

    def u(t):
        return B.T @ expm(A.T * (T - t)) @ lam

    return u, W, lam


def counted_calls(monkeypatch, module, name):
    """Calls of ``module.name`` from now on, one list entry per call."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
