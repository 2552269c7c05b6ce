import numpy as np
import pytest

from hftmfg.chain import pq_batch, solve_chain
from hftmfg.config import config_from_dict
from hftmfg.errors import SolverError
from hftmfg.grid import make_grid
from hftmfg.validate import check_chain_order
from conftest import base_raw

TRADES = [k / 10 for k in range(1, 10)]


def two_state(x, y, p0=(0.5, 0.5)):
    raw = base_raw()
    raw["aversion"] = {"Gamma": [0.0, 0.0], "phi": [0.0, 0.0],
                       "Q": [[-x, x], [y, -y]], "p0": list(p0)}
    raw["population"]["E0"] = [0.0, 0.0]
    return config_from_dict(raw).aversion


def closed_form_p1(x, y, t):
    return (y + (x - y) / 2 * np.exp(-(x + y) * t)) / (x + y)


def test_symmetric_chain_is_stationary():
    grid = make_grid(1.0, TRADES, 200)
    sol = solve_chain(two_state(0.5, 0.5), grid)
    for seg in sol.p.segments:
        assert np.max(np.abs(seg - 0.5)) < 1e-12


def test_zero_generator_keeps_p0():
    grid = make_grid(1.0, TRADES, 200)
    sol = solve_chain(two_state(0.0, 0.0, p0=(0.3, 0.7)), grid)
    for seg in sol.p.segments:
        assert np.array_equal(seg, np.broadcast_to([0.3, 0.7], seg.shape))


def test_asymmetric_chain_matches_closed_form():
    # derived: p1(t) = (y + (x-y)/2 e^{-(x+y)t}) / (x+y), here 0.8 - 0.3 e^{-t}
    grid = make_grid(1.0, TRADES, 400)
    sol = solve_chain(two_state(0.2, 0.8), grid)
    expected = 0.8 - 0.3 * np.exp(-1.0)
    assert sol.p.terminal()[0] == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.689636, abs=1e-6)
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        assert np.max(np.abs(sol.p.node_values(s)[:, 0] - closed_form_p1(0.2, 0.8, t))) < 1e-10


def test_conservation_at_every_node():
    grid = make_grid(1.0, TRADES, 300)
    sol = solve_chain(two_state(0.8, 0.2), grid)
    for seg in sol.p.segments:
        assert np.max(np.abs(seg.sum(axis=1) - 1.0)) <= 1e-10


def test_positivity_abort_names_time():
    grid = make_grid(1.0, TRADES, 200)
    with pytest.raises(SolverError, match="positive"):
        solve_chain(two_state(0.5, 0.5, p0=(1e-12, 1.0 - 1e-12)), grid)


def test_convergence_order():
    # error vs closed form shrinks at the integrator's order when halving
    # 200 -> 400 steps: ratio in [8, 40] for RK4, [1.5, 3] for Euler
    for method in ("rk4", "euler"):
        check_chain_order(10000, method)


def pq_single(p, Q):
    """The reweighted generator for one probability vector, as the validator reads it."""
    return pq_batch(np.asarray(p)[None], Q)[0]


def test_pq_single_state_is_zero():
    assert pq_single(np.array([1.0]), np.array([[0.0]])) == np.zeros((1, 1))


def test_pq_symmetric_two_state_equals_generator():
    # derived by hand: with p = (1/2, 1/2) and symmetric rates the reweighting
    # reduces to the generator itself
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.max(np.abs(pq_single(np.array([0.5, 0.5]), Q) - Q)) < 1e-14


def test_pq_zero_generator():
    assert np.all(pq_single(np.array([0.4, 0.6]), np.zeros((2, 2))) == 0.0)


def test_pq_entrywise_formula_and_row_sums():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.uniform(0.1, 1.0, size=3)
        p /= p.sum()
        off = rng.uniform(0.0, 2.0, size=(3, 3))
        np.fill_diagonal(off, 0.0)
        Q = off - np.diag(off.sum(axis=1))
        got = pq_single(p, Q)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert got[i, j] == pytest.approx(p[j] / p[i] * Q[j, i], rel=1e-14)
            assert got[i, i] == pytest.approx(
                -sum(p[j] / p[i] * Q[j, i] for j in range(3) if j != i), rel=1e-12)
        assert np.max(np.abs(got.sum(axis=1))) <= 1e-12
