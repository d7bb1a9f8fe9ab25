"""Gramian assembly by Simpson quadrature and the associated linear solves.

The symmetric Gramian integrates outer products of the flow-input
products (and is explicitly symmetrized before factorization); the mixed
Gramian pairs flow-input rows with chain-input columns and is generally
non-symmetric.  When the flow products are interpolated from Lobatto
samples, the Simpson rule over the nodes is carried onto the samples, so
the products at the nodes are never formed.  Solves go through Cholesky
(symmetric) or partial-pivot LU (mixed) on G + eps*Id, falling back to a
minimum-norm least-squares solution when factorization fails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .quadrature import QuadratureRule

# Relative least-squares residual above which a solve is flagged deficient:
# the iterate has left the coercive feasibility set.
DEFICIENCY_TOL = 1e-6

# Factorizations whose condition proxy exceeds this are treated as failed
# (an effectively singular matrix can round to a tiny positive pivot).
CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class GramianMatrix:
    """A d x d trajectory Gramian and its kind."""

    matrix: np.ndarray
    kind: str  # "symmetric" | "mixed"

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GramianSolve:
    """Multiplier solve result with solve diagnostics.

    ``residual`` is against the unshifted Gramian (the quantity that
    measures steering defect), also when the factorization was of
    G + reg*Id, with ``regularization`` the reg that was used.
    """

    lam: np.ndarray
    residual: float
    rel_residual: float
    method: str  # "cholesky" | "lu" | "lstsq"
    condition_estimate: float
    deficient: bool
    regularization: float = 0.0


# Per Gramian kind: the method name, the factor and solve pair, and the
# exponent that turns the pivot ratio into a condition proxy (Cholesky
# pivots are square roots of the matrix's scale).
_FACTORIZATIONS = {
    "symmetric": ("cholesky", scipy.linalg.cho_factor,
                  scipy.linalg.cho_solve, 2),
    "mixed": ("lu", scipy.linalg.lu_factor, scipy.linalg.lu_solve, 1),
}


def _weighted_outer_sum(weights, left, right):
    """sum_i L_i (sum_j P_ij R_j)^T for the weight matrix P = ``weights``,
    or P = diag(weights) for a vector, one d x d product per sample of
    ``left``.

    P is applied to ``right`` first as one matrix product over its leading
    axis, so the loop runs over the samples of ``left`` only: N+1
    Chebyshev-Lobatto samples on the interpolated path.
    """
    if weights.ndim == 1:
        right = weights[:, None, None] * right
    else:
        right = np.tensordot(weights, right, axes=1)
    M = np.zeros((left.shape[1], right.shape[1]))
    for L, R in zip(left, right):
        M += L @ R.T
    return M


def assemble_symmetric_from_samples(samples: np.ndarray,
                                    rule: QuadratureRule,
                                    interp=None) -> GramianMatrix:
    """Simpson rule of D_k D_k^T over the nodes of ``rule``, symmetrized.

    D = ``interp`` @ ``samples`` over the leading axis (D = samples when
    interp is None) is not formed: with W = diag(rule.weights) the sum is
    sum_i V_i (Q V)_i^T over the samples V, Q = interp^T W interp.
    """
    weights = (rule.weights if interp is None
               else (interp.T * rule.weights) @ interp)
    M = _weighted_outer_sum(weights, samples, samples)
    M = 0.5 * (M + M.T)
    return GramianMatrix(matrix=M, kind="symmetric")


def assemble_mixed_from_samples(flow_samples: np.ndarray,
                                chain_samples: np.ndarray,
                                rule: QuadratureRule,
                                interp=None) -> GramianMatrix:
    """Simpson rule of D_k C_k^T, no symmetrization: D as in
    `assemble_symmetric_from_samples`, the chain products C at the nodes,
    so the sum is sum_i V_i ((interp^T W) C)_i^T."""
    weights = rule.weights if interp is None else interp.T * rule.weights
    M = _weighted_outer_sum(weights, flow_samples, chain_samples)
    return GramianMatrix(matrix=M, kind="mixed")


def solve_gramian(G: GramianMatrix, y: np.ndarray,
                  reg: float = 0.0) -> GramianSolve:
    """Solve G lam = y through a factorization of G + reg*Id.

    Symmetric Gramians go through Cholesky, mixed ones through LU; if the
    factorization fails or its pivot-ratio condition proxy exceeds
    ``CONDITION_LIMIT``, a minimum-norm least-squares solution is used.
    With reg > 0 the stabilized factorization is reused for iterative
    refinement against the unregularized Gramian, so a well-conditioned
    solve is not left with the O(reg*|lam|) bias of the shifted system
    (refinement stalls harmlessly on near-null directions, where the shift
    is actually doing its job).

    A least-squares residual above ``DEFICIENCY_TOL * |y|`` signals loss
    of coercivity.  The solve only reports it, as ``deficient``; whether
    that is an error is the caller's decision (`run_picard` accepts it at
    the initial iterate only).
    """
    y = np.asarray(y, dtype=float)
    M = G.matrix + reg * np.eye(G.d) if reg != 0.0 else G.matrix

    lam = None
    solve_again = None
    method, factor, solve, power = _FACTORIZATIONS[G.kind]
    try:
        with warnings.catch_warnings():
            # an exactly zero pivot goes to least squares below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = factor(M, check_finite=False)
        pivots = np.abs(np.diag(factors[0]))
        if pivots.min() > 0.0:
            condition = float((pivots.max() / pivots.min()) ** power)
            if condition <= CONDITION_LIMIT:
                solve_again = partial(solve, factors, check_finite=False)
                lam = solve_again(y)
    except scipy.linalg.LinAlgError:
        pass

    if lam is None:
        lam, _, _, sv = np.linalg.lstsq(M, y, rcond=None)
        smin = sv.min() if sv.size else 0.0
        condition = float(sv.max() / max(smin, np.finfo(float).tiny))
        condition = min(condition, 1e300)
        method = "lstsq"

    if reg != 0.0 and solve_again is not None:
        lam = _refine(G.matrix, y, lam, solve_again)

    res = float(np.linalg.norm(G.matrix @ lam - y))
    ynorm = float(np.linalg.norm(y))
    rel = res / ynorm if ynorm > 0.0 else 0.0
    return GramianSolve(lam=lam, residual=res, rel_residual=rel,
                        method=method, condition_estimate=condition,
                        deficient=method == "lstsq" and rel > DEFICIENCY_TOL,
                        regularization=reg)


def _refine(A, y, lam, solve_shifted, max_steps: int = 30):
    """Richardson refinement of ``A lam = y`` using the shifted factors.

    Steps while each one at least halves the best residual so far; returns
    the iterate with the smallest residual.
    """
    best = lam
    r = y - A @ lam
    best_res = float(np.linalg.norm(r))
    for _ in range(max_steps):
        lam = lam + solve_shifted(r)
        r = y - A @ lam
        res = float(np.linalg.norm(r))
        stalled = res >= 0.5 * best_res
        if res < best_res:
            best, best_res = lam, res
        if stalled or res == 0.0:
            break
    return best
