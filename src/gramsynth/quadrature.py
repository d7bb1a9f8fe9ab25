"""Composite Simpson rule on a uniform grid."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidQuadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Uniform nodes with composite Simpson weights summing to T - t0."""

    K: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def T(self) -> float:
        return float(self.nodes[-1])


def check_node_count(K) -> None:
    """Raise `InvalidQuadrature` unless K is an odd integer >= 3."""
    if not isinstance(K, Integral) or K < 3 or K % 2 == 0:
        raise InvalidQuadrature(
            f"Simpson rule needs an odd integer K >= 3, got {K!r}")


def simpson_rule(t0: float, T: float, K: int) -> QuadratureRule:
    """Composite Simpson rule with K nodes on [t0, T]; K must be odd, >= 3."""
    check_node_count(K)
    nodes = np.linspace(t0, T, K)
    h = (T - t0) / (K - 1)
    weights = np.full(K, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    return QuadratureRule(K=K, nodes=nodes, weights=weights)


def cumulative_simpson(values: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Prefix integrals over even-index nodes of ``rule``.

    ``values[j]`` is the integrand at ``rule.nodes[j]`` (leading axis K).
    Returns an array of length (K+1)//2 whose m-th entry integrates the
    first 2m+1 nodes, so entry 0 is zero and the last equals the full rule.
    """
    h = (rule.T - rule.t0) / (rule.K - 1)
    panels = (h / 3.0) * (values[0:-2:2] + 4.0 * values[1:-1:2] + values[2::2])
    out = np.zeros((panels.shape[0] + 1,) + values.shape[1:])
    np.cumsum(panels, axis=0, out=out[1:])
    return out

