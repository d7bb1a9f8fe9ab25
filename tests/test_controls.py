"""Synthesized controls: the scalar path against scipy's cubic spline."""

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


def test_grid_nodes_return_grid_values_exactly():
    u, grid, values = _control(201)
    for t, v in zip(grid, values):
        got = u(t)
        assert np.array_equal(got, v)
        got += 1.0
    assert np.array_equal(u.grid_values, values)


def test_just_outside_span_matches_eval_many():
    u, grid, _ = _control(201)
    eps = 1e-12 * (grid[-1] - grid[0])
    ts = np.array([grid[0] - eps, grid[-1] + eps])
    scalar = np.stack([u(t) for t in ts])
    many = u.eval_many(ts)
    assert np.max(np.abs(scalar - many)) <= 1e-14 * np.max(np.abs(many))


def test_pickle_round_trip():
    u, grid, _ = _control(201)
    ts = np.linspace(grid[0], grid[-1], 77) + 1e-3
    ts[-1] = grid[-1]
    before = np.stack([u(t) for t in ts])
    assert u._coef is u._spline.c          # held by reference, no copy
    v = pickle.loads(pickle.dumps(u))
    assert np.array_equal(np.stack([v(t) for t in ts]), before)
