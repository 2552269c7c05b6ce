from dataclasses import replace

import numpy as np
import pytest

from hftmfg import figures, meanfield, presets
from hftmfg.affine import step_maps, trajectory
from hftmfg.chain import pq_batch, solve_chain
from hftmfg.config import config_from_dict
from hftmfg.errors import ConfigError, SolverError
from hftmfg.grid import PiecewiseCurve, sup_diff, weighted_aggregate
from hftmfg.meanfield import (MeanFieldEngine, assemble_A_batch, closed_form_n1,
                              closed_form_q0, engine_key, solve_partial, speed_jump_size)
from hftmfg.riccati import solve_h2
from hftmfg.validate import SWEEP
from conftest import base_raw


def test_assemble_A_single_state_structure(baseline_eq):
    cfg, eq = baseline_eq
    A = assemble_A_batch(eq.p.right_at(3)[None], eq.h2.right_at(3)[None],
                         cfg.aversion, cfg.market)[0]
    denom = cfg.market.lam_h + 2 * cfg.market.eta
    # derived by substituting one state into the block form: the speed row is
    # [-gammaH/(lamH+2eta), 2 phi/(lamH+2eta)], the inventory row [1, 0]
    assert A[0, 0] == pytest.approx(-0.7 / denom, abs=1e-12)
    assert A[0, 0] == pytest.approx(-3.5, abs=1e-12)
    assert A[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert A[1, 0] == 1.0 and A[1, 1] == 0.0


def test_assemble_A_single_state_with_running_aversion(stiff_eq):
    cfg, eq = stiff_eq
    A = assemble_A_batch(eq.p.initial()[None], eq.h2.initial()[None],
                         cfg.aversion, cfg.market)[0]
    assert A[0, 1] == pytest.approx(2 * 10.0 / 0.2, abs=1e-10)


def test_assemble_A_zero_sources_block():
    cfg = presets.partial_single_type(grid=200, quantities=np.zeros(9))
    # Gamma = phi = 0 with no switching: the inventory-feedback block vanishes
    eq = solve_partial(cfg)
    A = assemble_A_batch(eq.p.right_at(5)[None], eq.h2.right_at(5)[None],
                         cfg.aversion, cfg.market)[0]
    assert A[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_assemble_A_bottom_blocks_two_state(twostate_eq):
    cfg, eq = twostate_eq
    A = assemble_A_batch(eq.p.right_at(4)[None], eq.h2.right_at(4)[None],
                         cfg.aversion, cfg.market)[0]
    p = eq.p.right_at(4)
    pq = pq_batch(p[None, :], cfg.aversion.Q)[0]
    assert np.array_equal(A[2:, :2], np.eye(2))
    assert np.max(np.abs(A[2:, 2:] - pq)) < 1e-14


def test_zero_data_gives_zero_field():
    cfg = presets.partial_single_type(grid=300, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    assert max(np.max(np.abs(s)) for s in eq.E_by_state.segments) < 1e-14
    assert max(np.max(np.abs(s)) for s in eq.mu_by_state.segments) < 1e-14


def test_constant_solution_without_aversion():
    raw = base_raw()
    raw["aversion"]["Gamma"] = [0.0]
    raw["population"]["E0"] = [3.0]
    raw["population"]["inventory_bound"] = 3.0
    raw["schedule"]["quantities"] = [0.0] * 9
    cfg = config_from_dict(raw).with_solver(grid_steps_per_unit_time=300)
    eq = solve_partial(cfg)
    assert max(np.max(np.abs(s - 3.0)) for s in eq.E_by_state.segments) < 1e-10
    assert max(np.max(np.abs(s)) for s in eq.mu_by_state.segments) < 1e-10


@pytest.mark.parametrize("Gamma,phi", [(0.0, 0.0), (0.0, 10.0), (2.0, 0.0), (2.0, 10.0)])
def test_oracle_equivalence(Gamma, phi):
    cfg = presets.partial_single_type(Gamma, phi, grid=2000)
    num = solve_partial(cfg)
    ora = closed_form_n1(cfg)
    assert sup_diff(num.E_by_state, ora.E_by_state) < 1e-6
    assert sup_diff(num.mu_by_state, ora.mu_by_state) < 1e-6


def test_oracle_and_engine_report_residuals_alike():
    for Gamma, phi in SWEEP:
        cfg = presets.partial_single_type(Gamma, phi, grid=2000)
        tol = cfg.solver.shooting_tolerance
        for r in (closed_form_n1(cfg).residuals, solve_partial(cfg).residuals):
            assert r.jump_aggregate.shape == (9,) and r.jump_by_state.shape == (9, 1)
            assert np.array_equal(r.jump_aggregate, r.jump_by_state[:, 0])
            assert max(r.terminal, r.worst_jump, r.initial) <= tol, (Gamma, phi)


def test_closed_form_root_values():
    # phi=0 baseline: decay rates are 0 and -gammaH/(lamH + 2 eta) = -3.5
    cfg = presets.partial_single_type(2.0, 0.0, grid=500)
    denom = cfg.market.lam_h + 2 * cfg.market.eta
    disc = np.sqrt(cfg.market.gamma_h ** 2)
    th1 = (-cfg.market.gamma_h + disc) / (2 * denom)
    th2 = (-cfg.market.gamma_h - disc) / (2 * denom)
    assert abs(th1) < 1e-12
    assert th2 == pytest.approx(-3.5, abs=1e-12)


def test_closed_form_zero_case():
    cfg = presets.partial_single_type(0.0, 0.0, grid=300, quantities=np.zeros(9))
    sol = closed_form_n1(cfg)
    assert max(np.max(np.abs(s)) for s in sol.E_by_state.segments) < 1e-14


def test_closed_form_dip_then_chase_pattern():
    # inside every inter-trade interval the crowd first trades against the
    # buys, then with them
    cfg = presets.partial_single_type(2.0, 10.0, grid=500)
    sol = closed_form_n1(cfg)
    for k in range(1, 9):
        assert float(sol.mu_agg.right_at(k)[0]) < 0.0
        assert float(sol.mu_agg.left_at(k + 1)[0]) > 0.0


def test_repeated_root_branch_matches_perturbed_distinct_roots():
    cfg0 = presets.partial_single_type(1.5, 0.0, grid=500,
                                       market_overrides={"gammaH": 0.0})
    rep = closed_form_n1(cfg0)
    cfg1 = presets.partial_single_type(1.5, 1e-9, grid=500,
                                       market_overrides={"gammaH": 0.0})
    near = closed_form_n1(cfg1)
    assert sup_diff(rep.E_by_state, near.E_by_state) < 1e-6
    num = solve_partial(cfg0)
    assert sup_diff(rep.E_by_state, num.E_by_state) < 1e-8


def test_jump_conditions_baseline(baseline_eq):
    cfg, eq = baseline_eq
    assert speed_jump_size(cfg.market, 1.0) == 5.0
    assert [speed_jump_size(cfg.market, float(x)) for x in eq.xi] == [5.0] * 9
    assert eq.residuals.jump_aggregate.shape == (9,)
    assert eq.residuals.jump_by_state.shape == (9, 1)
    assert np.max(np.abs(eq.residuals.jump_aggregate)) <= 1e-6
    assert np.max(np.abs(eq.residuals.jump_by_state)) <= 1e-6
    for k in range(1, 10):
        drop = (eq.mu_agg.left_at(k) - eq.mu_agg.right_at(k))[0]
        assert drop == pytest.approx(5.0, abs=1e-6)


def test_jump_sign_linearity():
    assert speed_jump_size(presets.partial_single_type().market, 0.0) == 0.0
    assert speed_jump_size(presets.partial_single_type().market, -1.0) == -5.0


def test_inventory_continuous_speed_jumps(twostate_eq):
    cfg, eq = twostate_eq
    for k in range(1, 10):
        assert np.max(np.abs(eq.E_by_state.left_at(k) - eq.E_by_state.right_at(k))) < 1e-9
        drop = eq.mu_by_state.left_at(k) - eq.mu_by_state.right_at(k)
        assert np.max(np.abs(drop - 5.0)) < 1e-6


def test_terminal_and_initial_conditions(twostate_eq):
    cfg, eq = twostate_eq
    assert eq.residuals.terminal <= 1e-6
    assert eq.residuals.initial == 0.0
    assert np.array_equal(eq.E_by_state.initial(), cfg.population.E0)


def test_linearity_superposition_two_state():
    cfg = presets.partial_two_type(grid=500)
    eng = MeanFieldEngine(cfg)
    K = cfg.schedule.K
    basis_E0 = [eng.solve(np.eye(2)[i], np.zeros(K)) for i in range(2)]
    basis_xi = [eng.solve(np.zeros(2), np.eye(K)[k]) for k in range(K)]
    rng = np.random.default_rng(5)
    for _ in range(4):
        E0 = rng.normal(size=2)
        xi = rng.normal(size=K)
        direct = eng.solve(E0, xi)
        for s in range(K + 1):
            acc = sum(E0[i] * basis_E0[i].E_by_state.segments[s] for i in range(2)) \
                + sum(xi[k] * basis_xi[k].E_by_state.segments[s] for k in range(K))
            assert np.max(np.abs(acc - direct.E_by_state.segments[s])) < 1e-8


def test_derivative_identities(baseline_eq):
    cfg, eq = baseline_eq
    worst_agg = worst_state = 0.0
    Q = np.asarray(cfg.aversion.Q)
    for s in range(eq.grid.n_segments):
        t = eq.grid.level0_times(s)
        h = t[1] - t[0]
        E = eq.E_agg.node_values(s)[:, 0]
        mu = eq.mu_agg.node_values(s)[:, 0]
        worst_agg = max(worst_agg, np.max(np.abs((E[2:] - E[:-2]) / (2 * h) - mu[1:-1])))
        Es = eq.E_by_state.node_values(s)
        ms = eq.mu_by_state.node_values(s)
        src = np.einsum("nij,nj->ni", pq_batch(eq.p.node_values(s), Q), Es)
        worst_state = max(worst_state, np.max(
            np.abs((Es[2:] - Es[:-2]) / (2 * h) - ms[1:-1] - src[1:-1])))
    assert worst_agg < 1e-4
    assert worst_state < 1e-4  # grid 1000 here; the 1e-6 gate runs on the 1e4 grid


def test_boundary_conditions_hold_even_on_coarse_grids():
    # jumps and the terminal coupling are enforced by construction, so the
    # reported residuals stay at rounding level regardless of resolution;
    # discretization error is caught by the closed-form comparison instead
    cfg = presets.partial_single_type(2.0, 10.0, grid=100)
    sol = solve_partial(cfg)
    assert sol.residuals.terminal < 1e-10
    assert sol.residuals.worst_jump < 1e-12


@pytest.mark.parametrize("make", [
    lambda: presets.partial_single_type(2.0, 10.0, grid=300),
    lambda: presets.partial_two_type(grid=300),
], ids=["one-state", "two-state"])
def test_initial_inventory_is_exact(make):
    cfg = make()
    engine = MeanFieldEngine(cfg)
    rng = np.random.default_rng(7)
    for _ in range(3):
        E0 = rng.normal(size=cfg.n_states)
        sol = engine.solve(E0, rng.normal(size=cfg.schedule.K))
        assert np.array_equal(sol.E_by_state.initial(), E0)
        assert sol.residuals.initial == 0.0


def _stretched(cfg, T):
    """``cfg`` on the horizon T, with its nine trades moved to k T / 10."""
    raw = cfg.to_dict()
    raw["schedule"].update(T=T, times=[k * T / 10 for k in range(1, 10)])
    return config_from_dict(raw)


def test_single_state_long_horizon_meets_boundary_conditions():
    # the fast mode grows like e^{8.4 t}, so condensing all ten segment
    # propagators into one terminal equation loses every digit here
    cfg = _stretched(presets.partial_single_type(2.0, 10.0, grid=200), 10.0)
    sol = solve_partial(cfg)
    assert sol.residuals.terminal <= 1e-6
    assert sol.residuals.worst_jump <= 1e-6


def test_unswitched_two_type_crowd_meets_terminal_condition():
    cfg = _stretched(presets.partial_two_type(phi=(10.0, 1.0), Gamma=(2.0, 1.0), x=0.0, y=0.0,
                                              grid=200), 3.0)
    assert solve_partial(cfg).residuals.terminal <= 1e-6


def test_switching_two_type_long_horizon_converges_in_the_grid():
    sols = [solve_partial(_stretched(presets.partial_two_type(grid=g), 10.0))
            for g in (1000, 2000)]
    assert max(sol.residuals.terminal for sol in sols) <= 1e-6
    assert np.max(np.abs(sols[0].E_at_trades() - sols[1].E_at_trades())) <= 1e-9


def test_near_singular_boundary_system_raises():
    cfg = _stretched(presets.partial_single_type(2.0, 10.0, grid=200), 40.0)
    with pytest.raises(SolverError, match="boundary system .*condition number"):
        MeanFieldEngine(cfg)


def test_residual_warning_when_tolerance_unreachable():
    cfg = presets.partial_single_type(2.0, 10.0, grid=200).with_solver(
        shooting_tolerance=1e-16)
    with pytest.raises(SolverError, match="exceed tolerance"):
        solve_partial(cfg)


def test_nan_residuals_raise():
    # NaN compares False against any tolerance, so the gate must not read
    # "residual > tol"
    engine = MeanFieldEngine(presets.partial_single_type(2.0, 10.0, grid=200))
    with pytest.raises(SolverError, match="exceed tolerance"):
        engine.solve([np.nan], np.ones(9))


def test_closed_form_oracle_goes_through_the_residual_gate():
    # the oracle references each growing mode at its segment end, so its own
    # residuals stay at rounding level as the horizon stretches
    cfg = presets.partial_single_type(2.0, 10.0, grid=200)
    for T in (1.0, 3.0, 5.0, 10.0):
        r = closed_form_n1(_stretched(cfg, T)).residuals
        assert max(r.terminal, r.worst_jump, r.initial) <= 1e-10, T
    with pytest.raises(SolverError, match="exceed tolerance"):
        closed_form_n1(replace(cfg, schedule=replace(cfg.schedule, quantities=np.full(9, np.nan))))


def test_solution_exposes_fundamental_matrices(baseline_eq):
    # the engine's fundamental matrices, re-anchored at each trade time, map the
    # solution's segment-start states ends[:, 0] to the curves
    cfg, eq = baseline_eq
    U = MeanFieldEngine(cfg)._U_nodes
    assert len(U) == eq.grid.n_segments
    for Un in U:
        assert np.array_equal(Un[0], np.eye(2))
    for s in range(eq.grid.n_segments):
        state = np.concatenate([eq.mu_by_state.right_at(s) if s else eq.mu_by_state.initial(),
                                eq.E_by_state.right_at(s) if s else eq.E_by_state.initial()])
        assert np.max(np.abs(U[s][0] @ eq.ends[s, 0] - state)) < 1e-12
        assert np.max(np.abs(U[s][-1] @ eq.ends[s, 0] - eq.ends[s, 1])) < 1e-12
    assert np.array_equal(eq.ends[0, 0, 1:], cfg.population.E0)


def _two_type(p0=None, **changes):
    cfg = presets.partial_two_type(**{"grid": 400, **changes})
    return cfg if p0 is None else replace(cfg, aversion=replace(cfg.aversion, p0=np.array(p0)))


@pytest.mark.parametrize("changes,same_h2,same_chain", [
    ({}, True, True),
    ({"market_overrides": {"lambdaH": 0.3}}, True, True),
    ({"market_overrides": {"eta": 0.08}}, False, True),
    ({"Gamma": (0.5, 2.0)}, False, True),
    ({"phi": (1.0, 10.0)}, False, True),
    ({"p0": (0.3, 0.7)}, True, False),
    ({"x": 0.2, "y": 0.8}, False, False),
    ({"grid": 500}, False, False),
], ids=["same", "lambdaH", "eta", "Gamma", "phi", "p0", "xy", "grid"])
def test_engine_cache_shares_chain_and_h2_by_key(changes, same_h2, same_chain):
    cache = {}
    first = MeanFieldEngine(_two_type(), cache)
    cfg = _two_type(**changes)
    engine = MeanFieldEngine(cfg, cache)
    assert (engine.h2 is first.h2) == same_h2
    assert (engine.p is first.p) == same_chain
    cached, fresh = (e.solve(cfg.population.E0, cfg.schedule.quantities)
                     for e in (engine, MeanFieldEngine(cfg)))
    for name in ("E_agg", "mu_agg", "h2"):
        a, b = getattr(cached, name).segments, getattr(fresh, name).segments
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b)), name


@pytest.mark.parametrize("Gamma,phi", [(0.0, 0.0), (0.1, 0.0), (2.0, 0.0), (0.0, 5.0)])
def test_engine_key_ignores_mode_trades_xi0_and_E0(Gamma, phi):
    partial = presets.partial_single_type(Gamma, phi, quantities=np.arange(9.0))
    overall = presets.overall_single_type(Gamma, phi, xi0=-3.0)
    assert engine_key(partial) == engine_key(overall)
    shifted = replace(partial, population=replace(partial.population, E0=np.array([0.5])))
    assert engine_key(shifted) == engine_key(partial)


def _moved_trades(cfg):
    times = np.asarray(cfg.schedule.times) + 0.01
    return replace(cfg, schedule=replace(cfg.schedule, times=times))


@pytest.mark.parametrize("change", [
    lambda c: _two_type(market_overrides={"lambdaH": 0.3}),
    lambda c: c.with_solver(shooting_tolerance=1e-7),
    lambda c: c.with_solver(grid_steps_per_unit_time=500),
    _moved_trades,
], ids=["lambdaH", "shooting_tolerance", "grid", "trade_times"])
def test_engine_key_tells_apart_what_the_engine_reads(change):
    cfg = _two_type()
    assert engine_key(change(cfg)) != engine_key(cfg)


def _unswitched(N, T=1.0, grid=2000, **market):
    """An all-averse crowd of N types that never switch, nine trades at k T / 10."""
    raw = base_raw()
    raw["market"].update(market)
    raw["aversion"] = {"Gamma": [2.0, 1.0, 0.5][:N], "phi": [10.0, 1.0, 5.0][:N],
                       "Q": [[0.0] * N] * N, "p0": [1.0 / N] * N}
    raw["population"]["E0"] = [0.0, 0.3, -0.2][:N]
    raw["schedule"].update(T=T, times=[k * T / 10 for k in range(1, 10)])
    raw["solver"]["grid_steps_per_unit_time"] = grid
    return config_from_dict(raw)


@pytest.mark.parametrize("N,T", [(2, 1.0), (3, 1.0), (2, 5.0), (3, 5.0), (2, 10.0), (3, 10.0),
                                 (1, 5.0), (1, 10.0)])
def test_unswitched_crowd_oracle_equivalence(N, T):
    cfg = _unswitched(N, T)
    num, ora = solve_partial(cfg), closed_form_q0(cfg)
    assert sup_diff(num.E_by_state, ora.E_by_state) < 1e-6
    assert sup_diff(num.mu_by_state, ora.mu_by_state) < 1e-6


def test_nilpotent_two_state_crowd_oracle_equivalence():
    # gammaH = phi = 0: A is nilpotent and the oracle takes its polynomial branch
    raw = _unswitched(2, grid=1000, gammaH=0.0).to_dict()
    raw["aversion"]["phi"] = [0.0, 0.0]
    cfg = config_from_dict(raw)
    num, ora = solve_partial(cfg), closed_form_q0(cfg)
    assert sup_diff(num.E_by_state, ora.E_by_state) < 1e-6
    assert sup_diff(num.mu_by_state, ora.mu_by_state) < 1e-6


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unswitched_oracle_residuals_at_long_horizons(N):
    for T in (1.0, 5.0, 10.0, 20.0):
        r = closed_form_q0(_unswitched(N, T, grid=200)).residuals
        assert max(r.terminal, r.worst_jump, r.initial) <= 1e-10, T
        assert r.condition_number <= 1e3, T


def test_oracle_refuses_a_defective_mode_basis():
    # gammaH = 0 and a type without running aversion: A has a Jordan block
    raw = _unswitched(2, grid=200, gammaH=0.0).to_dict()
    raw["aversion"]["phi"] = [0.0, 10.0]
    for T in (1.0, 10.0):
        with pytest.raises(SolverError, match="mode basis is ill-conditioned"):
            closed_form_q0(_stretched(config_from_dict(raw), T))


def test_oracle_refuses_the_zero_aversion_type_at_long_horizon():
    cfg = presets.partial_two_type(x=0.0, y=0.0, grid=200)
    assert closed_form_q0(cfg).residuals.terminal <= 1e-10
    with pytest.raises(SolverError, match="boundary system .*condition number"):
        closed_form_q0(_stretched(cfg, 20.0))


def test_oracle_entry_points_reject_what_they_do_not_cover():
    with pytest.raises(ValueError, match="Q = 0"):
        closed_form_q0(presets.partial_two_type(grid=200))
    with pytest.raises(ValueError, match="single-state"):
        closed_form_n1(_unswitched(2, grid=200))


def test_given_schedule_entry_points_require_quantities():
    # an overall-mode config fixes no trade sizes; it used to solve as no trades
    cfg = presets.overall_single_type(grid=200)
    assert cfg.schedule.quantities is None
    for solve in (solve_partial, closed_form_q0, closed_form_n1):
        with pytest.raises(ConfigError, match="schedule.quantities"):
            solve(cfg)


def _general_path(cfg):
    """Propagators, boundary system and curves of ``cfg``'s solution as the
    switching path builds them: A at every sample, every step map, the prefix scan."""
    av, N, n = cfg.aversion, cfg.n_states, 2 * cfg.n_states
    grid = meanfield.default_grid(cfg)
    p, h2 = solve_chain(av, grid), solve_h2(av, cfg.market, grid)
    U_nodes, U_mid = [], []
    for s in range(grid.n_segments):
        A = assemble_A_batch(p.segments[s], h2.segments[s], av, cfg.market)
        h = grid.step_width(s)
        Un = trajectory(np.eye(n), step_maps(A, h)[0])
        U_nodes.append(Un)
        U_mid.append(MeanFieldEngine._midpoint_states(Un, A, h))
    S = grid.n_segments
    G = np.zeros((n * S - N, n * S))
    for s in range(S - 1):
        G[n * s:n * (s + 1), n * s:n * (s + 1)] = -U_nodes[s][-1]
        G[n * s:n * (s + 1), n * (s + 1):n * (s + 2)] = np.eye(n)
    B_T = 2.0 * cfg.market.eta * np.eye(N) + cfg.market.lam_h * np.outer(np.ones(N), p.terminal())
    G[n * (S - 1):, n * (S - 1):] = np.hstack([B_T, 2.0 * np.diag(av.Gamma)]) @ U_nodes[-1][-1]
    system = np.delete(G, np.s_[N:n], axis=1)

    E0 = cfg.population.E0
    jumps = speed_jump_size(cfg.market, np.asarray(cfg.schedule.quantities))
    rhs = -G[:, N:n] @ E0
    rhs[:-N].reshape(S - 1, n)[:, :N] -= jumps[:, None]
    w = np.linalg.solve(system, rhs)
    starts = np.concatenate([w[:N], E0, w[N:]]).reshape(S, n)
    fine = meanfield._fine_states(U_nodes, U_mid, starts)
    mu = PiecewiseCurve(grid, tuple(f[:, :N] for f in fine))
    E = PiecewiseCurve(grid, tuple(f[:, N:] for f in fine))
    curves = (E, mu, weighted_aggregate(E, p), weighted_aggregate(mu, p))
    return U_nodes, U_mid, system, curves


def _with_times(cfg, times):
    return replace(cfg, schedule=replace(cfg.schedule, times=np.array(times),
                                         quantities=np.ones(len(times))))


@pytest.mark.parametrize("make", [
    lambda: presets.partial_single_type(2.0, 0.0),
    lambda: presets.partial_single_type(0.0, 0.0),
    lambda: presets.partial_two_type(x=0.0, y=0.0),
    lambda: figures._scan_cfg("partial", presets.lamH_scan_values()[0], figures.SCAN_GRID),
    lambda: figures._scan_cfg("partial", presets.lamH_scan_values()[-1], figures.SCAN_GRID),
    lambda: _with_times(presets.partial_two_type(x=0.0, y=0.0), [k / 8 for k in range(1, 8)]),
    lambda: _with_times(presets.partial_two_type(x=0.0, y=0.0), [0.1, 0.25, 0.4, 0.55, 0.9]),
], ids=["Gamma-2", "zero-aversion", "two-type", "scan-first", "scan-last", "eighths",
        "uneven"])
def test_unswitched_engine_equals_the_general_path_bit_for_bit(make):
    cfg = make()
    U_nodes, U_mid, system, curves = _general_path(cfg)
    engine = MeanFieldEngine(cfg)
    sol = engine.solve(cfg.population.E0, cfg.schedule.quantities)

    def bits(arrays):
        return [a.tobytes() for a in arrays]

    assert bits(engine._U_nodes) == bits(U_nodes)
    assert bits(engine._U_mid) == bits(U_mid)
    assert engine._system.tobytes() == system.tobytes()
    assert engine.condition_number == float(np.linalg.cond(system))
    for got, ref in zip((sol.E_by_state, sol.mu_by_state, sol.E_agg, sol.mu_agg), curves):
        assert bits(got.segments) == bits(ref.segments)
    # segments of one width share one read-only array
    first = {}
    for s, (Un, Um) in enumerate(zip(engine._U_nodes, engine._U_mid)):
        assert not Un.flags.writeable and not Um.flags.writeable
        Un0, Um0 = first.setdefault((engine.grid.step_width(s), engine.grid.steps[s]), (Un, Um))
        assert Un is Un0 and Um is Um0


def test_unswitched_stiff_crowd_stops_at_the_h2_box_gate():
    # A never reads h2 when Q = 0, but h2's box gate is what refuses this crowd:
    # without it the solve passes every other gate and is off by 3.5 from
    # closed_form_q0, with a condition number of 2e3
    cfg = presets.partial_single_type(1.5, 2.5, grid=100,
                                      market_overrides={"eta": 2e-4, "lambdaH": 2.5e-3})
    with pytest.raises(SolverError, match=r"quadratic coefficient left \[-1\.5, 0\] at t=0\.995"):
        solve_partial(cfg)
