"""Control-function representations.

A control is an evaluable map t -> R^k on [t0, T].  Three representations
exist: the zero control, closed-form user maps, and synthesized controls
carrying the Gramian multiplier.  Synthesized controls store their exact
values on the synthesis grid and answer queries between grid nodes through
a cubic spline: `eval_many` evaluates a sample grid in one vectorized
pass, and a scalar call reads the interval's cubic straight from the
spline's coefficient array.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Tuple

import numpy as np
from scipy.interpolate import CubicSpline


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


class SynthesizedControl(ControlFunction):
    """Gramian-synthesized control u(t) = (product row at t)^T lam.

    For the general map the row is the flow-input product, for the
    minimum-energy map the chain product.  ``grid_values`` hold the exact
    pointwise formula at ``grid_ts`` (for the default grid these are the
    quadrature samples, so they cost nothing extra).
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
        bc = "not-a-knot" if self.grid_ts.size >= 4 else "natural"
        self._spline = CubicSpline(self.grid_ts, self.grid_values, axis=0,
                                   bc_type=bc)
        self._coef = self._spline.c       # (4, K-1, k), held without a copy
        self._knots = self.grid_ts.tolist()  # for bisect

    def __call__(self, t: float) -> np.ndarray:
        """The scalar path: exact at grid nodes, else the interval's cubic."""
        t = float(t)
        knots = self._knots
        i = bisect_left(knots, t)
        if i < len(knots) and knots[i] == t:
            return self.grid_values[i].copy()
        i = min(max(i - 1, 0), len(knots) - 2)   # end cubics extrapolate
        dx = t - knots[i]
        dx2 = dx * dx
        return np.array((dx2 * dx, dx2, dx, 1.0)) @ self._coef[:, i]

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        vals = np.asarray(self._spline(ts), dtype=float)
        vals = vals.reshape(ts.size, self.k)
        # exact samples where queries hit grid nodes
        idx = np.searchsorted(self.grid_ts, ts)
        idx = np.clip(idx, 0, self.grid_ts.size - 1)
        on_node = self.grid_ts[idx] == ts
        vals[on_node] = self.grid_values[idx[on_node]]
        return vals
