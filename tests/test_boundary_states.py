"""The solution's boundary-state path and its curves built on first read.

``MeanFieldEngine.solve`` checks the residuals and reads the trade-time
values from the states at the segment ends; the fine-mesh curves are built
from the fundamental matrices only when a caller reads them.  These tests
pin both to the node-and-midpoint reconstruction the curves always had.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import hftmfg.meanfield as meanfield
from hftmfg import presets
from hftmfg.grid import trade_values
from hftmfg.meanfield import MeanFieldEngine, closed_form_n1, solve_partial
from hftmfg.strategy import solve_overall
from hftmfg.validate import SWEEP


def _reconstructed(engine, sol):
    """The curves as ``solve`` built them eagerly: node states from U, midpoint
    states from the midpoint matrices, interleaved, then p-weighted sums."""
    N = engine.cfg.n_states
    mu_segs, E_segs = [], []
    for Un, Um, c in zip(engine._U_nodes, engine._U_mid, sol.ends[:, 0]):
        vn, vm = Un @ c, Um @ c
        fine = np.empty((len(vn) + len(vm), 2 * N))
        fine[0::2] = vn
        fine[1::2] = vm
        mu_segs.append(fine[:, :N])
        E_segs.append(fine[:, N:])

    def agg(segs):
        return [np.sum(w * c, axis=1, keepdims=True) for w, c in zip(sol.p.segments, segs)]

    return {"E_by_state": E_segs, "mu_by_state": mu_segs,
            "E_agg": agg(E_segs), "mu_agg": agg(mu_segs)}


@pytest.mark.parametrize("cfg", [
    presets.partial_single_type(2.0, 10.0, grid=500),
    presets.partial_two_type(grid=400),
], ids=["single-type", "two-type"])
def test_curves_built_on_read_equal_the_node_and_midpoint_reconstruction(cfg):
    engine = MeanFieldEngine(cfg)
    sol = engine.solve(cfg.population.E0, cfg.schedule.quantities)
    expected = _reconstructed(engine, sol)
    for name, segs in expected.items():
        curve = getattr(sol, name)
        assert len(curve.segments) == len(segs)
        for got, want in zip(curve.segments, segs):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("solve", [
    lambda: solve_partial(presets.partial_single_type(2.0, 10.0, grid=500)),
    lambda: solve_partial(presets.partial_two_type(grid=400)),
    lambda: solve_overall(presets.overall_two_type(grid=400)).mean_field,
], ids=["single-type", "two-type", "overall"])
def test_segment_start_states_are_the_first_curve_samples(solve):
    # the curves sample U_s(t) z_s with U_s(t_s) = I, so ends[:, 0] is the
    # segment-start state z_s bit for bit
    sol = solve()
    N = sol.E0.shape[0]
    for s, (mu, E) in enumerate(zip(sol.mu_by_state.segments, sol.E_by_state.segments)):
        assert np.array_equal(sol.ends[s, 0, :N], mu[0])
        assert np.array_equal(sol.ends[s, 0, N:], E[0])
        assert np.array_equal(sol.ends[s, 1], np.concatenate([mu[-1], E[-1]]))


def _residuals_from_curves(cfg, sol):
    """The residual report as read back from the curves."""
    m = cfg.market
    N = cfg.n_states
    B_T = 2.0 * m.eta * np.eye(N) + m.lam_h * np.outer(np.ones(N), sol.p.terminal())
    jumps = m.gamma / (m.lam_h + 2.0 * m.eta) * sol.xi
    K = len(jumps)
    term = B_T @ sol.mu_by_state.terminal() \
        + 2.0 * np.asarray(cfg.aversion.Gamma) * sol.E_by_state.terminal()
    jump_state = np.empty((K, N))
    jump_agg = np.empty(K)
    mu, mu_agg = sol.mu_by_state, sol.mu_agg
    for k in range(1, K + 1):
        jump_state[k - 1] = (mu.left_at(k) - mu.right_at(k)) - jumps[k - 1]
        jump_agg[k - 1] = (mu_agg.left_at(k)[0] - mu_agg.right_at(k)[0]) - jumps[k - 1]
    return (float(np.linalg.norm(term)),
            float(np.max(np.abs(sol.E_by_state.initial() - sol.E0), initial=0.0)),
            jump_agg, jump_state)


def _assert_boundary_path_matches_curves(cfg, sol):
    terminal, initial, jump_agg, jump_state = _residuals_from_curves(cfg, sol)
    r = sol.residuals
    assert r.terminal == terminal
    assert r.initial == initial
    assert np.array_equal(r.jump_aggregate, jump_agg)
    assert np.array_equal(r.jump_by_state, jump_state)
    # and the trade-time values the trader's best response and profit read
    assert np.array_equal(sol.E_at_trades(), trade_values([s[:, 0] for s in sol.E_agg.segments]))
    assert np.array_equal(sol.mu_at_trades(), trade_values([s[:, 0] for s in sol.mu_agg.segments]))
    assert sol.E_agg_initial() == float(sol.E_agg.initial()[0])


@pytest.mark.parametrize("Gamma,phi", SWEEP)
def test_boundary_residuals_equal_residuals_read_from_curves(Gamma, phi):
    cfg = presets.partial_single_type(Gamma, phi, grid=500)
    for sol in (solve_partial(cfg), closed_form_n1(cfg)):
        _assert_boundary_path_matches_curves(cfg, sol)


def test_boundary_residuals_equal_residuals_read_from_curves_two_type():
    cfg = presets.partial_two_type(grid=400)
    _assert_boundary_path_matches_curves(cfg, solve_partial(cfg))
    cfg = presets.overall_two_type(grid=400)
    _assert_boundary_path_matches_curves(cfg, solve_overall(cfg).mean_field)


@pytest.fixture
def aggregate_calls(monkeypatch):
    """Counts the calls of ``weighted_aggregate``, which only the curve build makes."""
    calls = []
    real = meanfield.weighted_aggregate

    def spy(curve, weights):
        calls.append(curve)
        return real(curve, weights)

    monkeypatch.setattr(meanfield, "weighted_aggregate", spy)
    return calls


def test_solve_overall_builds_no_curves_until_one_is_read(aggregate_calls):
    eq = solve_overall(presets.overall_two_type(grid=400))
    assert len(aggregate_calls) == 0
    E_agg = eq.mean_field.E_agg
    mu_agg = eq.mean_field.mu_agg
    assert len(aggregate_calls) == 2
    assert eq.mean_field.E_agg is E_agg and eq.mean_field.mu_agg is mu_agg
    assert len(aggregate_calls) == 2


def test_concurrent_first_reads_build_the_curves_once(aggregate_calls):
    cfg = presets.partial_two_type(grid=400)
    sol = solve_partial(cfg)
    n = 8
    barrier = threading.Barrier(n, timeout=30)
    seen = [None] * n

    def read(i):
        barrier.wait()
        seen[i] = (sol.E_by_state, sol.mu_agg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(aggregate_calls) == 2
    assert all(s is not None and s[0] is seen[0][0] and s[1] is seen[0][1] for s in seen)


def test_solution_releases_midpoint_states_once_curves_are_built():
    cfg = presets.partial_two_type(grid=400)
    engine = MeanFieldEngine(cfg)
    sol = engine.solve(cfg.population.E0, cfg.schedule.quantities)
    mid = weakref.ref(engine._U_mid[0])
    del engine
    gc.collect()
    assert mid() is not None          # still needed to build the curves
    assert sol.E_agg.dim == 1         # the first read builds them
    gc.collect()
    assert mid() is None
