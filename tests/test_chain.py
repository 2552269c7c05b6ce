import numpy as np
import pytest

from hftmfg.affine import step_maps, trajectory
from hftmfg.chain import pq_batch, solve_chain
from hftmfg.config import config_from_dict
from hftmfg.errors import SolverError
from hftmfg.grid import make_grid
from hftmfg.validate import check_chain_order
from conftest import base_raw

TRADES = [k / 10 for k in range(1, 10)]
# the first segment is a single step at 1000 steps per unit time
RAGGED = [0.001, 0.3, 0.3015, 0.77]


def aversion(Q, p0):
    raw = base_raw()
    N = len(p0)
    raw["aversion"] = {"Gamma": [0.0] * N, "phi": [0.0] * N,
                       "Q": np.asarray(Q, dtype=float).tolist(),
                       "p0": np.asarray(p0, dtype=float).tolist()}
    raw["population"]["E0"] = [0.0] * N
    return config_from_dict(raw).aversion


def two_state(x, y, p0=(0.5, 0.5)):
    return aversion([[-x, x], [y, -y]], p0)


def closed_form_p1(x, y, t):
    return (y + (x - y) / 2 * np.exp(-(x + y) * t)) / (x + y)


def test_symmetric_chain_is_stationary():
    grid = make_grid(1.0, TRADES, 200)
    p = solve_chain(two_state(0.5, 0.5), grid)
    for seg in p.segments:
        assert np.max(np.abs(seg - 0.5)) < 1e-12


def test_zero_generator_keeps_p0():
    for grid in (make_grid(1.0, TRADES, 200), make_grid(1.0, RAGGED, 1000)):
        for p0 in ([1.0], [0.3, 0.7], [0.2, 0.3, 0.5]):
            p = solve_chain(aversion(np.zeros((len(p0), len(p0))), p0), grid)
            for seg in p.segments:
                assert seg.tobytes() == np.broadcast_to(p0, seg.shape).tobytes()


def test_asymmetric_chain_matches_closed_form():
    # derived: p1(t) = (y + (x-y)/2 e^{-(x+y)t}) / (x+y), here 0.8 - 0.3 e^{-t}
    grid = make_grid(1.0, TRADES, 400)
    p = solve_chain(two_state(0.2, 0.8), grid)
    expected = 0.8 - 0.3 * np.exp(-1.0)
    assert p.terminal()[0] == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.689636, abs=1e-6)
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        assert np.max(np.abs(p.node_values(s)[:, 0] - closed_form_p1(0.2, 0.8, t))) < 1e-10


def test_conservation_at_every_node():
    grid = make_grid(1.0, TRADES, 300)
    p = solve_chain(two_state(0.8, 0.2), grid)
    for seg in p.segments:
        assert np.max(np.abs(seg.sum(axis=1) - 1.0)) <= 1e-10


def test_positivity_abort_names_time():
    grid = make_grid(1.0, TRADES, 200)
    with pytest.raises(SolverError, match="positive"):
        solve_chain(two_state(0.5, 0.5, p0=(1e-12, 1.0 - 1e-12)), grid)


def test_overflowing_chain_raises_without_warning():
    # rates this large overflow the first step map to inf and NaN, which the
    # mass check must catch (filterwarnings = error fails any warning first)
    grid = make_grid(1.0, [0.5], 10)
    with pytest.raises(SolverError, match=r"mass not conserved at t=0\.05$"):
        solve_chain(two_state(1e200, 1e200), grid)


def scan_chain(av, grid):
    """The chain as 2m stage-sampled step maps per segment, composed by the scan."""
    Q = np.asarray(av.Q, dtype=float)
    N = av.n_states
    cur = np.array(av.p0, dtype=float)
    segs = []
    for s in range(grid.n_segments):
        A = np.broadcast_to(Q.T, (4 * grid.steps[s] + 1, N, N))
        segs.append(trajectory(cur, step_maps(A, grid.step_width(s) / 2.0)[0]))
        cur = segs[-1][-1]
    return segs


def random_aversion(N, rng):
    off = rng.uniform(0.0, 2.0, size=(N, N))
    np.fill_diagonal(off, 0.0)
    p0 = rng.uniform(0.2, 1.0, size=N)
    return aversion(off - np.diag(off.sum(axis=1)), p0 / p0.sum())


@pytest.mark.parametrize("times,first_steps", [(TRADES, 100), (RAGGED, 1)],
                         ids=["nine-trades", "ragged"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_chain_equals_the_scan_over_stage_sampled_maps_bit_for_bit(N, times, first_steps):
    grid = make_grid(1.0, times, 1000)
    assert grid.steps[0] == first_steps
    rng = np.random.default_rng(N)
    for _ in range(5):
        av = random_aversion(N, rng)
        p = solve_chain(av, grid)
        ref = scan_chain(av, grid)
        assert len(p.segments) == len(ref)
        for seg, want in zip(p.segments, ref):
            assert seg.tobytes() == want.tobytes()


def test_convergence_order():
    # error vs closed form shrinks at RK4's order when halving
    # 200 -> 400 steps: ratio in [8, 40]
    check_chain_order(10000)


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
