"""Synthesized controls against scipy's cubic spline.

scipy is a test dependency only: the library builds the spline itself.
"""

import pickle

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from gramsynth import SynthesizedControl


def _control(nodes):
    # a smooth, non-polynomial control with k = 2 on a shifted span
    grid = np.linspace(1.3, 2.8, nodes)
    values = np.stack([np.sin(4.0 * grid), np.exp(-grid) * grid ** 2],
                      axis=1)
    u = SynthesizedControl(lam=np.zeros(2), anchor_time=2.8,
                           map_kind="minimum_energy", grid_ts=grid,
                           grid_values=values)
    return u, grid, values


@pytest.mark.parametrize("nodes,bc", [(201, "not-a-knot"), (3, "natural")])
def test_off_grid_values_match_scipy_spline(nodes, bc):
    u, grid, values = _control(nodes)
    ref = CubicSpline(grid, values, axis=0, bc_type=bc)
    ts = np.random.default_rng(4).uniform(grid[0], grid[-1], 400)
    got = np.stack([u(t) for t in ts])
    want = ref(ts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("grid,values", [
    ([0.0], [[1.0]]),                          # one node
    ([0.0, 1.0, 1.0, 2.0], np.ones((4, 1))),   # repeated node
    ([0.0, 1.0, 2.0], [[0.0], [np.nan], [1.0]]),
    ([0.0, 1.0, np.inf], np.ones((3, 1))),
    ([0.0, 1.0, 2.0], np.ones((2, 1))),        # one row short
])
def test_bad_grid_raises(grid, values):
    with pytest.raises(ValueError):
        SynthesizedControl(lam=np.zeros(1), anchor_time=0.0,
                           map_kind="general", grid_ts=np.asarray(grid),
                           grid_values=np.asarray(values, dtype=float))


def test_grid_nodes_return_grid_values_exactly():
    u, grid, values = _control(201)
    for t, v in zip(grid, values):
        got = u(t)
        assert np.array_equal(got, v)
        got += 1.0
    assert np.array_equal(u.grid_values, values)


def test_just_outside_span_matches_eval_many():
    # the scalar path sums the end cubics in eval_many's order, near and far
    u, grid, _ = _control(201)
    eps = 1e-12 * (grid[-1] - grid[0])
    ts = np.array([grid[0] - eps, grid[-1] + eps, grid[0] - 0.1,
                   grid[-1] + 0.1])
    scalar = np.stack([u(t) for t in ts])
    assert np.array_equal(scalar, u.eval_many(ts))


def test_pickle_round_trip():
    u, grid, _ = _control(201)
    ts = np.linspace(grid[0], grid[-1], 77) + 1e-3
    ts[-1] = grid[-1]
    before = np.stack([u(t) for t in ts])
    v = pickle.loads(pickle.dumps(u))
    assert np.array_equal(v._coef, u._coef)
    assert np.array_equal(np.stack([v(t) for t in ts]), before)


@pytest.mark.parametrize("k", [1, 2, 64])
@pytest.mark.parametrize("nodes", [3, 4, 5, 201, 1001])
def test_spline_is_bit_identical_to_scipy(nodes, k):
    rng = np.random.default_rng(nodes * 100 + k)
    grid = np.linspace(1.3, 2.8, nodes)
    values = rng.standard_normal((nodes, k))
    u = SynthesizedControl(lam=np.zeros(k), anchor_time=2.8,
                           map_kind="general", grid_ts=grid,
                           grid_values=values)
    bc = "not-a-knot" if nodes >= 4 else "natural"
    ref = CubicSpline(grid, values, axis=0, bc_type=bc)
    assert u._coef.shape == (4, nodes - 1, k)
    assert np.array_equal(u._coef, ref.c)
    eps = 1e-12 * (grid[-1] - grid[0])
    ts = np.concatenate([rng.uniform(grid[0], grid[-1], 300),
                         [grid[0] - eps, grid[-1] + eps]])
    want = ref(ts)
    assert np.array_equal(u.eval_many(ts), want)
    assert np.array_equal(np.stack([u(t) for t in ts]), want)
    # grid nodes give the stored values exactly on both paths
    assert np.array_equal(u.eval_many(grid), values)
    assert np.array_equal(np.stack([u(t) for t in grid]), values)
