"""Reference controls and the feedback-linearization baseline.

The baseline steers fully actuated systems exactly by inverting the input
matrix along a straight-line reference path; it exists to give the Gramian
syntheses an energy comparison point.  Chebyshev reference controls are
the random smooth inputs used to manufacture reachable targets.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

import numpy as np

from .controls import ClosedFormControl, ControlFunction
from .errors import NotFullyActuated
from .picard import control_energy
from .systems import SteeringProblem


def _flatness_control(t, system, x0, x1, t0, T):
    s = (np.asarray(t) - t0) / (T - t0)
    if np.ndim(t) == 0:
        x_ref = x0 + s * (x1 - x0)
        dx_ref = (x1 - x0) / (T - t0)
        B = system.input_matrix(float(t), x_ref)
        return np.linalg.solve(B, dx_ref - system.drift(float(t), x_ref))
    return np.stack([_flatness_control(float(ti), system, x0, x1, t0, T)
                     for ti in np.asarray(t).ravel()])


def feedback_linearization_baseline(problem: SteeringProblem
                                    ) -> Tuple[ControlFunction, float]:
    """Exact-steering control along the straight-line reference path.

    u(t) = B(x_ref)^-1 (x_ref' - N(x_ref)) with x_ref linear from x0 to x1.
    Requires a square invertible input matrix along the reference.

    Returns (control, energy) with energy = 1/2 int |u|^2 dt.
    """
    sys_ = problem.system
    if sys_.k != sys_.d:
        raise NotFullyActuated(
            f"feedback linearization needs k = d, got k={sys_.k}, d={sys_.d}")
    fn = partial(_flatness_control, system=sys_, x0=problem.x0, x1=problem.x1,
                 t0=problem.t0, T=problem.T)
    try:
        fn(0.5 * (problem.t0 + problem.T))
    except np.linalg.LinAlgError as exc:
        raise NotFullyActuated(
            "input matrix singular along the reference path") from exc
    u = ClosedFormControl(fn, k=sys_.k, span=(problem.t0, problem.T),
                          vectorized=True)
    return u, control_energy(u, problem.t0, problem.T)


# Degree and coefficient spread of the default reference control.
REFERENCE_DEGREE, REFERENCE_SIGMA = 5, 0.2


def _chebyshev_eval(t, coefficients, t0, T):
    s = 2.0 * (np.asarray(t, dtype=float) - t0) / (T - t0) - 1.0
    vals = np.stack([np.polynomial.chebyshev.chebval(s, c)
                     for c in coefficients], axis=-1)
    return vals


def chebyshev_reference_control(k: int, span: Tuple[float, float],
                                seed: Optional[int] = None,
                                degree: int = REFERENCE_DEGREE,
                                sigma: float = REFERENCE_SIGMA,
                                coefficients: Optional[np.ndarray] = None
                                ) -> ClosedFormControl:
    """Per-channel Chebyshev-series control on [t0, T] mapped to [-1, 1].

    Coefficients are drawn i.i.d. Normal(0, sigma^2) from ``seed`` unless
    given explicitly (shape (k, degree+1)).  The coefficient array is
    attached as ``control.coefficients`` so runs can record it.
    """
    if coefficients is None:
        rng = np.random.default_rng(seed)
        coefficients = rng.normal(0.0, sigma, size=(k, degree + 1))
    else:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (k, degree + 1):
            raise ValueError("coefficients must have shape (k, degree+1)")
    fn = partial(_chebyshev_eval, coefficients=coefficients,
                 t0=span[0], T=span[1])
    u = ClosedFormControl(fn, k=k, span=span, vectorized=True)
    u.coefficients = coefficients
    return u
