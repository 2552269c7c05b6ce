from dataclasses import replace

import numpy as np
import pytest

from hftmfg import presets
from hftmfg.errors import SimulationError
from hftmfg.meanfield import solve_partial
from hftmfg.simulate import (default_init_spread, deviation_gain,
                             deviation_gain_vs_mean_field, inventory_growth_bound,
                             lt_deviation_gain, sample_price_paths,
                             simulate_population, _deviator_quadratic, _draw_agents,
                             _cell_projected_controls, _new_stream, _rekey, _run_agents,
                             _segment_coeffs, _through_switches)
from hftmfg.strategy import lt_profit, solve_overall


@pytest.fixture(scope="module")
def overall_two():
    cfg = presets.overall_two_type(grid=400)
    return cfg, solve_overall(cfg)


def test_deterministic_single_type_metrics_vanish(stiff_eq):
    cfg, eq = stiff_eq
    traj, met = simulate_population(cfg, eq, M=40, seed=3, init_spread=0.0, record_paths=True)
    assert met.theta_dev == 0.0
    assert met.Z_dev == 0.0
    assert met.vbar_l2 == 0.0
    # every agent sits exactly on the mean path, at every node
    for X, E in zip(traj.paths_X, eq.E_by_state.segments):
        assert np.array_equal(X, np.broadcast_to(E[0::2], X.shape))
    assert np.array_equal(traj.paths_X[-1][-1], np.full(40, eq.E_by_state.terminal()[0]))


def test_identical_runs_are_bitwise_identical(twostate_eq):
    cfg, eq = twostate_eq
    t1, m1 = simulate_population(cfg, eq, M=300, seed=9)
    t2, m2 = simulate_population(cfg, eq, M=300, seed=9)
    assert m1 == m2
    for a, b in zip(t1.segments, t2.segments):
        assert np.array_equal(a.vbar, b.vbar)
        assert np.array_equal(a.Z, b.Z)
    t3, m3 = simulate_population(cfg, eq, M=300, seed=10)
    assert m3 != m1


def test_no_switching_keeps_state_fractions_constant(twostate_eq):
    cfg, eq = twostate_eq
    cfg0 = presets.partial_two_type(x=0.0, y=0.0, grid=400)
    eq0 = solve_partial(cfg0)
    traj, _ = simulate_population(cfg0, eq0, M=200, seed=4)
    first = traj.segments[0].theta[0]
    for rec in traj.segments:
        assert np.array_equal(rec.theta, np.broadcast_to(first, rec.theta.shape))


def test_state_fraction_counts_conserved(twostate_eq):
    cfg, eq = twostate_eq
    traj, _ = simulate_population(cfg, eq, M=137, seed=5)
    for rec in traj.segments:
        counts = rec.theta * 137
        assert np.max(np.abs(counts - np.round(counts))) < 1e-9
        assert np.all(np.round(counts).sum(axis=1) == 137)


def test_initial_inventories_respect_bound(twostate_eq):
    cfg, eq = twostate_eq
    spread = default_init_spread(cfg)
    X0, Y0, *_ = _draw_agents(cfg, 500, 11, 0, spread)
    assert np.max(np.abs(X0)) <= cfg.population.inventory_bound
    assert set(np.unique(Y0)) <= {0, 1}


def test_inventory_growth_bound_holds(twostate_eq):
    cfg, eq = twostate_eq
    traj, _ = simulate_population(cfg, eq, M=500, seed=2, record_paths=True)
    C2 = inventory_growth_bound(cfg, eq)
    X0, *_ = _draw_agents(cfg, 500, 2, 0, default_init_spread(cfg))
    bound = (np.abs(X0) + C2) * np.exp(C2 * cfg.schedule.T)
    assert np.all(np.abs(np.vstack(traj.paths_X)).max(axis=0) <= bound)


def test_vbar_error_decreases_like_one_over_M(stiff_eq):
    cfg, eq = stiff_eq
    meds = []
    for M in (200, 2000):
        vals = [simulate_population(cfg, eq, M, seed)[1].vbar_l2 for seed in range(12)]
        meds.append(np.median(vals))
    ratio = meds[0] / meds[1]
    assert 3.0 <= ratio <= 33.0


def test_rekeyed_stream_matches_fresh_philox():
    # one re-keyed generator must draw exactly what a new Philox per key draws
    g = _new_stream()
    g.random(3)     # leave the counter and buffer mid-way
    for seed, purpose, rep, agent in [(0, 0, 0, 0), (2**64 - 1, 1, 5, 9),
                                      (123456789, 0, 2**28 - 1, 2**28 - 1)]:
        key0 = (seed ^ 0x9E3779B97F4A7C15) & (2**64 - 1)
        key1 = (purpose << 56) | (rep << 28) | agent
        fresh = np.random.Generator(np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)))
        _rekey(g, seed, purpose, rep, agent)
        for draw in (lambda r: r.random(2), lambda r: r.exponential(0.7),
                     lambda r: r.standard_normal(5), lambda r: r.random()):
            assert np.array_equal(draw(g), draw(fresh))


def test_exact_switch_times_respected(twostate_eq):
    cfg, eq = twostate_eq
    _, _, ev_t, ev_agent, ev_state = _draw_agents(cfg, 400, 8, 0, 0.5)
    assert np.all(np.diff(ev_t) >= 0.0)
    assert np.all((ev_t > 0.0) & (ev_t < cfg.schedule.T))
    # switching rate 0.5 from each state: expect roughly 0.5 * M * T events
    assert 100 <= len(ev_t) <= 320


def _scalar_inventory(cfg, eq, x_init, y_init, events):
    """Reference: one agent, one event at a time, scalar RK4 between events."""
    a_segs, b_segs = _segment_coeffs(cfg, eq)
    d, y, ei, out = x_init - float(eq.E_by_state.initial()[y_init]), y_init, 0, []
    for s in range(eq.grid.n_segments):
        ft, E = eq.grid.fine_times[s], eq.E_by_state.segments[s]

        def step(d, ta, tb, y):
            if tb <= ta:
                return d

            def a(t):
                return float(np.interp(t, ft, a_segs[s][:, y]))

            def b(t):
                return float(np.interp(t, ft, b_segs[s][:, y]))

            h, tm = tb - ta, 0.5 * (ta + tb)
            k1 = a(ta) * d + b(ta)
            k2 = a(tm) * (d + 0.5 * h * k1) + b(tm)
            k3 = a(tm) * (d + 0.5 * h * k2) + b(tm)
            k4 = a(tb) * (d + h * k3) + b(tb)
            return d + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

        xs = [E[0, y] + d]
        for i in range(eq.grid.steps[s]):
            ta, t2 = ft[2 * i], ft[2 * i + 2]
            while ei < len(events) and events[ei][0] <= t2:
                te, ynew = events[ei]
                d = step(d, ta, te, y)
                d += float(np.interp(te, ft, E[:, y]) - np.interp(te, ft, E[:, ynew]))
                y, ta, ei = ynew, te, ei + 1
            d = step(d, ta, t2, y)
            xs.append(E[2 * i + 2, y] + d)
        out.append(np.array(xs))
    return out


def _switch_stepped_inventory(cfg, eq, x_init, y_init, events):
    """One agent carried through `_through_switches` on every level-0 step."""
    method = cfg.solver.integrator
    a_segs, b_segs = _segment_coeffs(cfg, eq)
    ev_t = np.array([t for t, _ in events], dtype=float)
    ev_state = np.array([y for _, y in events], dtype=np.int64)
    D = np.array([x_init - float(eq.E_by_state.initial()[y_init])])
    Y = np.array([y_init], dtype=np.int64)
    ptr, out = 0, []
    for s in range(eq.grid.n_segments):
        ft, E = eq.grid.fine_times[s], eq.E_by_state.segments[s]
        xs = [E[0, Y[0]] + D[0]]
        for i in range(eq.grid.steps[s]):
            t2 = ft[2 * i + 2]
            end = int(ev_t.searchsorted(t2, side="right"))
            n = end - ptr
            D, Y = _through_switches(D, Y, ft[2 * i], t2, np.zeros(n, dtype=np.int64),
                                     np.arange(n), ev_t[ptr:end], ev_state[ptr:end],
                                     ft, a_segs[s], b_segs[s], E, method)
            ptr = end
            xs.append(E[2 * i + 2, Y[0]] + D[0])
        out.append(np.array(xs))
    return out


def _lone_agent(cfg, eq, x_init, y_init, ev_t, ev_state, record_paths=False):
    """One agent stepped on its own through the population's stepper."""
    return _run_agents(cfg, eq, np.array([float(x_init)]), np.array([y_init]),
                       np.asarray(ev_t, dtype=float), np.zeros(len(ev_t), dtype=np.int64),
                       np.asarray(ev_state, dtype=np.int64), seed=0, record_paths=record_paths)


def test_multi_switch_steps_match_single_agent_integration():
    # switch rates of 10 on a 0.01 level-0 step: some agents switch two or
    # more times inside one step, where the population batches the events
    # of all agents by their rank within the step
    cfg = presets.partial_two_type(x=10.0, y=10.0, grid=100)
    eq = solve_partial(cfg)
    M, seed = 200, 1
    traj, _ = simulate_population(cfg, eq, M, seed, record_paths=True)
    X0, Y0, ev_t, ev_agent, ev_state = _draw_agents(cfg, M, seed, 0, default_init_spread(cfg))

    step_ends = np.concatenate([eq.grid.level0_times(s)[1:]
                                for s in range(eq.grid.n_segments)])
    step = np.searchsorted(step_ends, ev_t, side="left")
    _, per_agent_step = np.unique(ev_agent * len(step_ends) + step, return_counts=True)
    assert per_agent_step.max() >= 2

    for j in range(M):
        mine = ev_agent == j
        events = list(zip(ev_t[mine].tolist(), ev_state[mine].tolist()))
        xs = _switch_stepped_inventory(cfg, eq, float(X0[j]), int(Y0[j]), events)
        ref = _scalar_inventory(cfg, eq, float(X0[j]), int(Y0[j]), events)
        # agents do not interact: alone, agent j takes its population path exactly
        alone = _lone_agent(cfg, eq, X0[j], Y0[j], ev_t[mine], ev_state[mine],
                            record_paths=True)
        for s, x in enumerate(xs):
            assert np.array_equal(x, ref[s])
            assert np.max(np.abs(traj.paths_X[s][:, j] - x)) <= 1e-12
            assert np.array_equal(alone.paths_X[s][:, 0], traj.paths_X[s][:, j])
            assert np.max(np.abs(alone.paths_X[s][:, 0] - ref[s])) <= 1e-12


def test_deviation_gain_nonnegative_and_shrinks(stiff_eq):
    cfg, eq = stiff_eq
    gains = {}
    for M in (100, 1000):
        res = [deviation_gain(cfg, eq, simulate_population(cfg, eq, M, seed)[0])
               for seed in range(6)]
        for r in res:
            assert r.gain >= -1e-12
        gains[M] = float(np.median([r.gain for r in res]))
    assert gains[1000] < gains[100]


def test_deviation_vs_mean_field_is_tiny(stiff_eq):
    # with the crowd replaced by the mean field itself, the feedback play is
    # the best response up to control-grid projection error
    cfg, eq = stiff_eq
    r = deviation_gain_vs_mean_field(cfg, eq, x_init=0.7)
    assert 0.0 <= r.gain < 5e-4 * max(abs(r.j_mfg), 1.0)


@pytest.mark.parametrize("x_init", [0.3, -0.8])
def test_deviation_vs_mean_field_with_switch_events(x_init):
    # the deviator's events reach both its stepped play and its quadratic
    cfg = presets.partial_two_type(grid=1000)
    eq = solve_partial(cfg)
    events = [(0.123, 1), (0.55, 0), (0.9001, 1)]
    r = deviation_gain_vs_mean_field(cfg, eq, x_init=x_init, events=events)
    vbar = [eq.mu_agg.node_values(s)[:, 0] for s in range(eq.grid.n_segments)]
    quad = _deviator_quadratic(cfg, eq, 0.0, vbar, x_init, 0, events, 20)
    ref = quad.value(_cell_projected_controls(_scalar_inventory(cfg, eq, x_init, 0, events),
                                              eq.grid, 20))
    assert abs(r.j_mfg - ref) <= 1e-12 * abs(ref)


def test_deviation_perturbation_second_order(baseline_eq):
    # bumping one control cell by +1 against the mean field lowers the payoff
    # by eta * cell_width at leading order
    cfg, eq = baseline_eq
    vbar = [eq.mu_agg.node_values(s)[:, 0] for s in range(eq.grid.n_segments)]
    quad = _deviator_quadratic(cfg, eq, 0.0, vbar, 0.0, 0, [], 20)
    xs = [rec.X_agent0 for rec in _lone_agent(cfg, eq, 0.0, 0, [], []).segments]
    w = _cell_projected_controls(xs, eq.grid, 20)
    base = quad.value(w)
    c = len(w) // 2
    w2 = w.copy()
    w2[c] += 1.0
    drop = base - quad.value(w2)
    width = quad.widths[c]
    assert drop == pytest.approx(cfg.market.eta * width, abs=25.0 * width ** 2)


def test_deviation_quadratic_concavity_guard(stiff_eq):
    cfg, eq = stiff_eq
    bad = presets.partial_single_type(0.0, 10.0, grid=1000,
                                      market_overrides={"gammaH": 80.0})
    eq_bad = solve_partial(bad)
    with pytest.raises(SimulationError, match="concave"):
        deviation_gain(bad, eq_bad, simulate_population(bad, eq_bad, M=2, seed=0)[0])


def test_lt_deviation_zero_when_decoupled():
    cfg = presets.overall_two_type(grid=400,
                                   market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    eq = solve_overall(cfg)
    r = lt_deviation_gain(cfg, eq, simulate_population(cfg, eq.mean_field, M=50, seed=1)[0])
    assert abs(r.gain) < 1e-12
    assert np.max(np.abs(r.xi_best - eq.xi_star)) < 1e-12


def test_lt_deviation_zero_for_exact_mean_population():
    # deterministic single-type agents sit exactly on the mean field, so the
    # empirical aggregates equal the solved ones and the trader cannot improve
    cfg = presets.overall_single_type(2.0, 0.0, grid=400)
    eq = solve_overall(cfg)
    # all agents start exactly at the mean inventory
    traj, _ = simulate_population(cfg, eq.mean_field, M=30, seed=0, init_spread=0.0)
    r = lt_deviation_gain(cfg, eq, traj)
    assert abs(r.gain) < 1e-10
    # the empirical payoff is the analytic revenue model on the simulated aggregates
    assert r.psi_mfg == lt_profit(cfg, eq.xi_star, eq.mean_field).profit_with_hft


def test_lt_deviation_shrinks_with_population(overall_two):
    cfg, eq = overall_two
    meds = []
    for M in (100, 1000):
        vals = [lt_deviation_gain(cfg, eq, simulate_population(cfg, eq.mean_field, M, seed)[0]).gain
                for seed in range(6)]
        assert all(v >= -1e-12 for v in vals)
        meds.append(np.median(vals))
    assert meds[1] < meds[0]


def test_euler_simulation_keeps_exactness():
    cfg = presets.partial_single_type(2.0, 0.0, grid=400, integrator="euler")
    eq = solve_partial(cfg)
    _, met = simulate_population(cfg, eq, M=25, seed=1, init_spread=0.0)
    assert met.theta_dev == 0.0 and met.Z_dev == 0.0 and met.vbar_l2 == 0.0


def test_price_paths_sigma_zero_exact(baseline_eq):
    cfg, eq = baseline_eq
    out = sample_price_paths(cfg, eq.xi, eq, replications=5, seed=3)
    ref = lt_profit(cfg, eq.xi, eq).profit_with_hft
    assert np.all(out.revenues == ref)
    assert out.std_error == 0.0


@pytest.mark.parametrize("replications", [0, -3])
def test_price_paths_need_at_least_one_replication(baseline_eq, replications):
    cfg, eq = baseline_eq
    with pytest.raises(ValueError, match="replications must be at least 1"):
        sample_price_paths(cfg, eq.xi, eq, replications=replications, seed=3)


def test_price_paths_no_trades_zero_revenue():
    cfg = presets.partial_single_type(2.0, 0.0, grid=300, sigma=1.0)
    eq = solve_partial(cfg, xi=np.zeros(9))
    out = sample_price_paths(cfg, np.zeros(9), eq, replications=50, seed=3)
    assert np.all(out.revenues == 0.0)


@pytest.mark.parametrize("cfg", [
    presets.partial_single_type(2.0, 10.0, grid=200, sigma=1.0),
    presets.partial_two_type(grid=200, market_overrides={"sigma": 1.0}),
], ids=["single", "two"])
def test_schedule_without_trades(cfg):
    cfg = replace(cfg, schedule=replace(cfg.schedule, times=np.zeros(0), quantities=np.zeros(0)))
    eq = solve_partial(cfg)
    traj, _ = simulate_population(cfg, eq, M=50, seed=1)
    assert deviation_gain(cfg, eq, traj).gain >= -1e-10
    out = sample_price_paths(cfg, np.zeros(0), eq, replications=20, seed=3)
    assert np.all(out.revenues == 0.0)


def test_price_paths_clt_band(baseline_eq):
    cfg, eq = baseline_eq
    cfg_noise = presets.partial_single_type(2.0, 0.0, grid=1000, sigma=1.0)
    eq_n = solve_partial(cfg_noise)
    out = sample_price_paths(cfg_noise, eq_n.xi, eq_n, replications=4000, seed=17)
    ref = lt_profit(cfg_noise, eq_n.xi, eq_n).profit_with_hft
    assert abs(out.mean - ref) <= 3.0 * out.std_error


def test_price_paths_deterministic_per_seed(baseline_eq):
    cfg, eq = baseline_eq
    cfg_noise = presets.partial_single_type(2.0, 0.0, grid=300, sigma=0.7)
    eq_n = solve_partial(cfg_noise)
    a = sample_price_paths(cfg_noise, eq_n.xi, eq_n, 64, seed=5)
    b = sample_price_paths(cfg_noise, eq_n.xi, eq_n, 64, seed=5)
    assert np.array_equal(a.revenues, b.revenues)


def _running_aversion_by_walk(cfg, eq, quad, x_init, y_init, events):
    """``quad`` plus the running-aversion term, pieced together by walking every
    level-0 step and event in turn."""
    grid = eq.grid
    left, widths = quad.edges[:-1], quad.widths

    def psi(ts):
        return np.clip(ts[:, None] - left[None, :], 0.0, widths[None, :])

    P, g, const = quad.P.copy(), quad.g.copy(), quad.const
    phi = np.asarray(cfg.aversion.phi, dtype=float)
    TA, TB, RHO = [], [], []
    y = y_init
    evs = list(events) + [(grid.horizon + 1.0, y_init)]
    ei = 0
    for s in range(grid.n_segments):
        times = grid.level0_times(s)
        for ta, tb in zip(times[:-1], times[1:]):
            cur = ta
            while True:
                nxt_event = evs[ei][0] if ei < len(evs) else np.inf
                stop = min(tb, nxt_event)
                if stop > cur and phi[y] != 0.0:
                    TA.append(cur)
                    TB.append(stop)
                    RHO.append(phi[y])
                if nxt_event <= tb:
                    y = evs[ei][1]
                    ei += 1
                    cur = stop
                    continue
                break
    if TA:
        TAa, TBa = np.asarray(TA), np.asarray(TB)
        om = np.asarray(RHO) * (TBa - TAa) / 3.0
        PA, PB = psi(TAa), psi(TBa)
        q = PA.T @ (om[:, None] * PA) + PB.T @ (om[:, None] * PB)
        cross = PA.T @ (om[:, None] * PB)
        q += 0.5 * (cross + cross.T)
        P += 2.0 * q
        g += -3.0 * x_init * ((PA + PB).T @ om)
        const += -3.0 * x_init * x_init * float(np.sum(om))
    return P, g, const


def test_deviator_running_aversion_matches_the_step_walk():
    cfg = presets.partial_two_type(grid=200)
    eq = solve_partial(cfg)
    averse_free = replace(cfg, aversion=replace(cfg.aversion, phi=np.zeros(2)))
    vbar = [eq.mu_agg.node_values(s)[:, 0] for s in range(eq.grid.n_segments)]
    node, trade = float(eq.grid.level0_times(3)[7]), float(eq.grid.trade_times[4])
    event_sets = [[], [(node, 1)], [(0.4321, 1), (0.4321, 0)], [(trade, 1)],
                  [(0.0, 1), (0.123, 0), (node, 1), (trade, 0), (0.97, 1)]]
    for events in event_sets:
        for y_init in (0, 1):
            quad = _deviator_quadratic(cfg, eq, 0.01, vbar, 0.6, y_init, events, 20)
            base = _deviator_quadratic(averse_free, eq, 0.01, vbar, 0.6, y_init, events, 20)
            P, g, const = _running_aversion_by_walk(cfg, eq, base, 0.6, y_init, events)
            assert np.array_equal(quad.P, P) and np.array_equal(quad.g, g), (events, y_init)
            assert quad.const == const, (events, y_init)
