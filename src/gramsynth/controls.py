"""Control-function representations.

A control is an evaluable map t -> R^k on [t0, T].  Three representations
exist: the zero control, closed-form user maps, and synthesized controls
carrying the Gramian multiplier.  Synthesized controls store their exact
values on the synthesis grid and answer queries between grid nodes through
a cubic spline held as a (4, K-1, k) coefficient array, built here the
way scipy's `CubicSpline` builds it, so no scipy spline object (and no
`scipy.interpolate`) is needed: `eval_many` evaluates a sample grid in one
vectorized pass, bit-identical to `CubicSpline`, and a call at one time
is `eval_many` of that time, so both give the same bits.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
import scipy.linalg


class ControlFunction:
    """Base class: an R^k-valued function of time on a fixed span."""

    def __init__(self, k: int, span: Tuple[float, float]):
        self.k = int(k)
        self.span = (float(span[0]), float(span[1]))

    def __call__(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def eval_many(self, ts) -> np.ndarray:
        return np.stack([np.asarray(self(float(t)), dtype=float).reshape(self.k)
                         for t in np.asarray(ts).ravel()])


class ZeroControl(ControlFunction):
    """u identically zero."""

    def __call__(self, t: float) -> np.ndarray:
        return np.zeros(self.k)

    def eval_many(self, ts) -> np.ndarray:
        return np.zeros((np.asarray(ts).size, self.k))


class ClosedFormControl(ControlFunction):
    """User-supplied map u(t) -> (k,).

    ``vectorized`` means ``fn`` also maps an array of n times to (n, k).
    """

    def __init__(self, fn: Callable[[float], np.ndarray], k: int,
                 span: Tuple[float, float], vectorized: bool = False):
        super().__init__(k, span)
        self.fn = fn
        self.vectorized = vectorized

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.fn(t), dtype=float).reshape(self.k)

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        if self.vectorized:
            out = np.asarray(self.fn(ts), dtype=float)
            return out.reshape(ts.size, self.k)
        return super().eval_many(ts)


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, K-1, k) of the cubic spline through (x, y).

    Built with scipy's `CubicSpline` arithmetic, operation for operation,
    so the array is bit-identical to its ``c``: the knot slopes solve the
    tridiagonal system with not-a-knot ends for K >= 4 and natural ends
    below, and each interval holds the cubic Hermite coefficients in
    powers of (t - x_i), highest first.
    """
    n = x.size
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    ab = np.zeros((3, n))        # bands: upper, diagonal, lower
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if n >= 4:                   # not-a-knot
        d = x[2] - x[0]
        ab[1, 0], ab[0, 1] = dx[1], d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0]
                + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1], ab[-1, -2] = dx[-2], d
        b[-1] = (dxr[-1] ** 2 * slope[-2]
                 + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    else:                        # natural: zero end curvature
        ab[1, 0], ab[0, 1] = 2 * dx[0], dx[0]
        b[0] = 3 * (y[1] - y[0])
        ab[1, -1], ab[-1, -2] = 2 * dx[-1], dx[-1]
        b[-1] = 3 * (y[-1] - y[-2])
    s = scipy.linalg.solve_banded((1, 1), ab, b, overwrite_ab=True,
                                  overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


class SynthesizedControl(ControlFunction):
    """Gramian-synthesized control u(t) = (product row at t)^T lam.

    For the general map the row is the flow-input product, for the
    minimum-energy map the chain product.  ``grid_values`` hold the exact
    pointwise formula at ``grid_ts`` (for the default grid these are the
    quadrature samples, so they cost nothing extra); between nodes the
    control is the cubic spline through them, kept only as its
    coefficient array ``_coef`` (4, K-1, k), and the end cubics
    extrapolate.

    An Anderson-mixed Picard iterate (`run_picard`) holds an affine
    combination of several passes' node values, and its ``lam`` is the
    same affine combination of those passes' multipliers; its
    ``solve_info`` is the solve of the pass that formed it.
    """

    def __init__(self, lam: np.ndarray, anchor_time: float, map_kind: str,
                 grid_ts: np.ndarray, grid_values: np.ndarray,
                 solve_info=None):
        super().__init__(grid_values.shape[1], (grid_ts[0], grid_ts[-1]))
        self.lam = np.asarray(lam, dtype=float)
        self.anchor_time = float(anchor_time)
        self.map_kind = map_kind
        self.grid_ts = np.asarray(grid_ts, dtype=float)
        self.grid_values = np.asarray(grid_values, dtype=float)
        self.solve_info = solve_info
        ts, vals = self.grid_ts, self.grid_values
        if not (ts.ndim == 1 and 2 <= ts.size == vals.shape[0]
                and np.isfinite(ts).all() and np.isfinite(vals).all()
                and (np.diff(ts) > 0).all()):
            raise ValueError("grid_ts must be 2 or more strictly increasing "
                             "times and grid_values finite, one row each")
        self._coef = _spline_coefficients(ts, vals)

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_many([t])[0]

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        grid = self.grid_ts
        # the interval of each t; the end cubics extrapolate
        i = np.searchsorted(grid[1:-1], ts, side="right")
        z = (ts - grid[i])[:, None]
        z2 = z * z
        c0, c1, vals, c3 = (row[i] for row in self._coef)   # copies
        # ((c3 + c2 z) + c1 z^2) + c0 z^3, scipy's PPoly term order, so the
        # values match CubicSpline bit for bit; in place, as + and * commute
        vals *= z
        vals += c3
        c1 *= z2
        vals += c1
        c0 *= z2 * z
        vals += c0
        # exact samples where queries hit grid nodes
        node = i + (grid[i + 1] == ts)
        on_node = grid[node] == ts
        vals[on_node] = self.grid_values[node[on_node]]
        return vals
