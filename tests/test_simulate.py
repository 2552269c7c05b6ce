from bisect import bisect_right
from dataclasses import fields, replace

import numpy as np
import pytest

from hftmfg import presets, simulate
from hftmfg.config import config_from_dict
from hftmfg.errors import SimulationError
from hftmfg.meanfield import solve_partial
from hftmfg.affine import step_maps
from hftmfg.simulate import (SegmentRecord, default_init_spread, deviation_gain,
                             deviation_gain_vs_mean_field, inventory_growth_bound,
                             lt_deviation_gain, sample_price_paths,
                             simulate_population, _deviator_quadratic, _draw_agents,
                             _cell_projected_controls, _control_edges, _lift, _lift_table,
                             _normals, _philox, _run_agents, _segment_coeffs, _stream_keys,
                             _through_switches, _uniform)
from hftmfg.grid import trade_values
from hftmfg.strategy import best_response_values, lt_profit, solve_overall

from conftest import base_raw


@pytest.fixture(scope="module")
def overall_two():
    cfg = presets.overall_two_type(grid=400)
    return cfg, solve_overall(cfg)


def test_deterministic_single_type_metrics_vanish(stiff_eq):
    cfg, eq = stiff_eq
    traj, met = simulate_population(cfg, eq, 40, [3], init_spread=0.0,
                                     record_paths=True)[0]
    assert met.theta_dev == 0.0
    assert met.Z_dev == 0.0
    assert met.vbar_l2 == 0.0
    # every agent sits exactly on the mean path, at every node
    for X, E in zip(traj.paths_X, eq.E_by_state.segments):
        assert np.array_equal(X, np.broadcast_to(E[0::2], X.shape))
    assert np.array_equal(traj.paths_X[-1][-1], np.full(40, eq.E_by_state.terminal()[0]))


def test_identical_runs_are_bitwise_identical(twostate_eq):
    cfg, eq = twostate_eq
    t1, m1 = simulate_population(cfg, eq, 300, [9])[0]
    t2, m2 = simulate_population(cfg, eq, 300, [9])[0]
    assert m1 == m2
    for a, b in zip(t1.segments, t2.segments):
        assert np.array_equal(a.vbar, b.vbar)
        assert np.array_equal(a.Z, b.Z)
    t3, m3 = simulate_population(cfg, eq, 300, [10])[0]
    assert m3 != m1


def test_no_switching_keeps_state_fractions_constant(twostate_eq):
    cfg, eq = twostate_eq
    cfg0 = presets.partial_two_type(x=0.0, y=0.0, grid=400)
    eq0 = solve_partial(cfg0)
    traj, _ = simulate_population(cfg0, eq0, 200, [4])[0]
    first = traj.segments[0].theta[0]
    for rec in traj.segments:
        assert np.array_equal(rec.theta, np.broadcast_to(first, rec.theta.shape))


def test_state_fraction_counts_conserved(twostate_eq):
    cfg, eq = twostate_eq
    traj, _ = simulate_population(cfg, eq, 137, [5])[0]
    for rec in traj.segments:
        counts = rec.theta * 137
        assert np.max(np.abs(counts - np.round(counts))) < 1e-9
        assert np.all(np.round(counts).sum(axis=1) == 137)


def test_initial_inventories_respect_bound(twostate_eq):
    cfg, eq = twostate_eq
    spread = default_init_spread(cfg)
    X0, Y0, *_ = _draw_agents(cfg, 500, [11], spread)
    assert np.max(np.abs(X0)) <= cfg.population.inventory_bound
    assert set(np.unique(Y0)) <= {0, 1}


def test_inventory_growth_bound_holds(twostate_eq):
    cfg, eq = twostate_eq
    traj, _ = simulate_population(cfg, eq, 500, [2], record_paths=True)[0]
    C2 = inventory_growth_bound(cfg, eq)
    X0, *_ = _draw_agents(cfg, 500, [2], default_init_spread(cfg))
    bound = (np.abs(X0) + C2) * np.exp(C2 * cfg.schedule.T)
    assert np.all(np.abs(np.vstack(traj.paths_X)).max(axis=0) <= bound)


def test_vbar_error_decreases_like_one_over_M(stiff_eq):
    cfg, eq = stiff_eq
    meds = []
    for M in (200, 2000):
        vals = [met.vbar_l2 for _, met in simulate_population(cfg, eq, M, range(12))]
        meds.append(np.median(vals))
    ratio = meds[0] / meds[1]
    assert 3.0 <= ratio <= 33.0


@pytest.mark.parametrize("seed, purpose, rep, agent", [
    (0, 0, 0, 0), (2**64 - 1, 1, 5, 9), (123456789, 0, 2**28 - 1, 2**28 - 1),
    (2**64 - 1, 1, 2**28 - 1, 2**28 - 1), (2**64 - 3, 0, 0, 2**27)],
    ids=["zero", "max-seed", "max-fields", "all-max", "high-seed"])
def test_philox_matches_numpy_random_raw(seed, purpose, rep, agent):
    # lanes 0-13 span four blocks, the last one part-read
    key0 = (seed ^ 0x9E3779B97F4A7C15) & (2**64 - 1)
    key1 = (purpose << 56) | (rep << 28) | agent
    k0, k1 = _stream_keys([seed], purpose, rep, agent)
    assert k0.tolist() == [key0] and k1.tolist() == [key1]
    fresh = np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)).random_raw(14)
    words = _philox(key0, np.array([key1], dtype=np.uint64), np.arange(4)[:, None])
    assert np.array_equal(words[:, :, 0].T.reshape(-1)[:14], fresh)
    # the doubles are the ones numpy's Generator makes from the same words
    g = np.random.Generator(np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)))
    assert np.array_equal(_uniform(fresh), g.random(14))


def test_stream_keys_reject_indices_that_do_not_fit():
    edge = np.array([0, 2**28 - 1])
    assert len(_stream_keys([1], 0, 0, edge)[1]) == 2
    assert len(_stream_keys([1], 1, edge, 0)[1]) == 2
    for bad in (2**28, -1):
        with pytest.raises(SimulationError, match=f"agent index {bad} does not fit"):
            _stream_keys([1], 0, 0, np.array([5, bad, 7]))
        with pytest.raises(ValueError, match=f"replication index {bad} does not fit"):
            _stream_keys([1], 1, np.array([bad, 3]), 0)


def test_seeds_outside_64_bits_raise():
    # masked to 64 bits, seed 2^64 read seed 0's streams and -1 those of 2^64 - 1
    k0, _ = _stream_keys([0, 2**64 - 1], 0, 0, 0)
    assert k0.dtype == np.uint64
    assert k0.tolist() == [0x9E3779B97F4A7C15, (2**64 - 1) ^ 0x9E3779B97F4A7C15]
    cfg = presets.partial_two_type(grid=100)
    eq = solve_partial(cfg)
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match=f"seed {bad} does not fit"):
            _stream_keys([bad], 1, 0, 0)
        with pytest.raises(ValueError, match=f"seed {bad} does not fit"):
            simulate_population(cfg, eq, 50, [bad])
        with pytest.raises(ValueError, match=f"seed {bad} does not fit"):
            simulate_population(cfg, eq, 50, [3, bad])


def test_simulate_population_takes_a_sequence_of_seeds(twostate_eq):
    cfg, eq = twostate_eq
    with pytest.raises(TypeError, match="seeds"):
        simulate_population(cfg, eq, 50, 3)


def _reference_draws(cfg, M, seed, spread):
    """Reference for _draw_agents: one agent at a time, one lane at a time."""
    N = cfg.n_states
    Q = np.asarray(cfg.aversion.Q, dtype=float)
    T = cfg.schedule.T
    X0, Y0, events = np.empty(M), np.empty(M, dtype=np.int64), []
    for j in range(M):
        key0, key1 = _stream_keys([seed], 0, 0, j)

        def u(lane):
            return float(_uniform(_philox(key0, key1, lane // 4)[lane % 4])[0])

        y = min(bisect_right(np.cumsum(cfg.aversion.p0).tolist(), u(0)), N - 1)
        X0[j] = cfg.population.E0[y] + spread * (2.0 * u(1) - 1.0)
        Y0[j] = y
        t, lane = 0.0, 2
        while -Q[y, y] > 0.0:
            rate = -Q[y, y]
            t += float(-np.log1p(-np.array([u(lane)]))[0] / rate)
            if t >= T:
                break
            row = Q[y].copy()
            row[y] = 0.0
            y = min(bisect_right((np.cumsum(row) / rate).tolist(), u(lane + 1)), N - 1)
            events.append((t, j, y))
            lane += 2
    events.sort()
    ev_t, ev_agent, ev_state = (np.array(c) for c in zip(*events))
    return X0, Y0, ev_t, ev_agent, ev_state


def _three_state(Q, p0):
    raw = base_raw()
    raw["aversion"] = {"Gamma": [2.0, 0.0, 1.0], "phi": [0.0, 10.0, 5.0],
                       "Q": Q, "p0": p0}
    raw["population"]["E0"] = [0.0, 0.1, -0.2]
    return config_from_dict(raw)


# two states switch to the other one; three states also draw the target, and
# the absorbing third state stops an agent's rounds early
ROUND_CASES = {
    "two-state": presets.partial_two_type(x=7.0, y=3.0, grid=200),
    "three-state": _three_state([[-3.0, 1.0, 2.0], [4.0, -5.0, 1.0], [0.5, 2.5, -3.0]],
                                [0.2, 0.5, 0.3]),
    "absorbing": _three_state([[-3.0, 1.0, 2.0], [4.0, -5.0, 1.0], [0.0, 0.0, 0.0]],
                              [0.6, 0.3, 0.1]),
}


@pytest.mark.parametrize("case", ROUND_CASES)
def test_round_schedule_matches_one_agent_reference(case):
    cfg = ROUND_CASES[case]
    got = _draw_agents(cfg, 120, [21], 0.4)
    for a, b in zip(got, _reference_draws(cfg, 120, 21, 0.4)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_event_cap_names_the_agent(monkeypatch):
    cfg = presets.partial_two_type(x=40.0, y=40.0, grid=200)
    ref = _reference_draws(cfg, 30, 4, 0.0)
    counts = np.bincount(ref[3], minlength=30)
    # the cap is a count of switches: at the most any agent makes, that
    # agent (the first of them) is named; one more and nothing is capped
    monkeypatch.setattr(simulate, "_MAX_EVENTS_PER_AGENT", int(counts.max()))
    with pytest.raises(SimulationError,
                       match=f"agent {np.argmax(counts)} exceeded {counts.max()} switches"):
        _draw_agents(cfg, 30, [4], 0.0)
    monkeypatch.setattr(simulate, "_MAX_EVENTS_PER_AGENT", int(counts.max()) + 1)
    for a, b in zip(_draw_agents(cfg, 30, [4], 0.0), ref):
        assert np.array_equal(a, b)


def test_agent_draws_do_not_depend_on_M(twostate_eq):
    cfg, _ = twostate_eq
    small = _draw_agents(cfg, 40, [6], 0.5)
    large = _draw_agents(cfg, 400, [6], 0.5)
    assert np.array_equal(small[0], large[0][:40])
    assert np.array_equal(small[1], large[1][:40])
    mine = large[3] < 40
    for a, b in zip(small[2:], large[2:]):
        assert np.array_equal(a, b[mine])
    # nor on the seeds drawn with it: agent M + j of seeds (9, 6) is agent j of seed 6
    both = _draw_agents(cfg, 40, [9, 6], 0.5)
    assert np.array_equal(small[0], both[0][40:])
    assert np.array_equal(small[1], both[1][40:])
    mine = both[3] >= 40
    for a, b in zip(small[2:], (both[2][mine], both[3][mine] - 40, both[4][mine])):
        assert np.array_equal(a, b)


def test_exact_switch_times_respected(twostate_eq):
    cfg, eq = twostate_eq
    _, _, ev_t, ev_agent, ev_state = _draw_agents(cfg, 400, [8], 0.5)
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
                                     ft, a_segs[s], b_segs[s], E)
            ptr = end
            xs.append(E[2 * i + 2, Y[0]] + D[0])
        out.append(np.array(xs))
    return out


def _lone_agent(cfg, eq, x_init, y_init, ev_t, ev_state, record_paths=False):
    """One agent stepped on its own through the population's stepper."""
    (traj,) = _run_agents(cfg, eq, np.array([float(x_init)]), np.array([y_init]),
                          np.asarray(ev_t, dtype=float), np.zeros(len(ev_t), dtype=np.int64),
                          np.asarray(ev_state, dtype=np.int64), replications=1,
                          record_paths=record_paths)
    return traj


def test_multi_switch_steps_match_single_agent_integration():
    # switch rates of 10 on a 0.01 level-0 step: some agents switch two or
    # more times inside one step, where the population batches the events
    # of all agents by their rank within the step
    cfg = presets.partial_two_type(x=10.0, y=10.0, grid=100)
    eq = solve_partial(cfg)
    M, seed = 200, 1
    traj, _ = simulate_population(cfg, eq, M, [seed], record_paths=True)[0]
    X0, Y0, ev_t, ev_agent, ev_state = _draw_agents(cfg, M, [seed], default_init_spread(cfg))

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


@pytest.mark.parametrize("case", ["multi-switch", "overall-two"])
def test_segment_records_match_recorded_paths(case, overall_two):
    # the per-state sums and counts give the same aggregates as summing the
    # agents' recorded inventories node by node
    if case == "multi-switch":
        cfg = presets.partial_two_type(x=10.0, y=10.0, grid=100)
        eq = solve_partial(cfg)
    else:
        cfg, eq = overall_two[0], overall_two[1].mean_field
    M = 300
    traj, _ = simulate_population(cfg, eq, M, [1], record_paths=True)[0]
    for s, rec in enumerate(traj.segments):
        X, Y = traj.paths_X[s], traj.paths_Y[s]
        nodes = np.arange(len(X))[:, None]
        E = eq.E_by_state.segments[s][::2]
        mu = eq.mu_by_state.segments[s][::2]
        a = eq.h2.segments[s][::2] / cfg.market.eta
        D = X - E[nodes, Y]
        v = mu[nodes, Y] + a[nodes, Y] * D
        in_state = Y[:, None, :] == np.arange(cfg.n_states)[None, :, None]
        assert np.array_equal(rec.theta, in_state.sum(axis=2) / M)
        assert np.max(np.abs(rec.Z - (in_state * X[:, None, :]).sum(axis=2) / M)) <= 1e-12
        assert np.max(np.abs(rec.Xbar - X.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(rec.vbar - v.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(rec.v_agent0 - v[:, 0])) <= 1e-12
        assert np.max(np.abs(rec.X_agent0 - X[:, 0])) <= 1e-12


def _multi_switch():
    return presets.partial_two_type(x=10.0, y=10.0, grid=100)


# (config, M, seeds); None runs the joint equilibrium of overall_two
STACK_CASES = {
    "multi-switch": (_multi_switch, 40, (3, 9, 4)),      # several switches in one step
    "one-seed": (_multi_switch, 40, (5,)),
    "two-agents": (_multi_switch, 2, (0, 7, 8)),
    "single-type": (lambda: presets.partial_single_type(2.0, 10.0, grid=200), 30, (1, 2, 3)),
    "overall-two": (None, 30, (2, 5, 6)),
}


@pytest.mark.parametrize("case", STACK_CASES)
def test_stacked_run_equals_separate_runs(case, overall_two):
    # every seed of one M run as one population gives, bit for bit, each
    # seed's own run
    make, M, seeds = STACK_CASES[case]
    if make is None:
        cfg, overall = overall_two
        eq = overall.mean_field
    else:
        cfg, overall = make(), None
        eq = solve_partial(cfg)
    for record_paths in (False, True):
        stacked = simulate_population(cfg, eq, M, seeds, record_paths=record_paths)
        assert len(stacked) == len(seeds)
        for seed, (traj, met) in zip(seeds, stacked):
            alone, alone_met = simulate_population(cfg, eq, M, [seed],
                                                   record_paths=record_paths)[0]
            assert met == alone_met
            assert traj.M == M
            assert traj.agent0_events == alone.agent0_events
            assert traj.agent0_initial_state == alone.agent0_initial_state
            assert traj.agent0_initial_inventory == alone.agent0_initial_inventory
            assert len(traj.segments) == len(alone.segments)
            for a, b in zip(traj.segments, alone.segments):
                for f in fields(SegmentRecord):
                    assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
            if record_paths:
                for got, ref in ((traj.paths_X, alone.paths_X), (traj.paths_Y, alone.paths_Y)):
                    assert len(got) == len(ref)
                    assert all(np.array_equal(x, y) for x, y in zip(got, ref))
            else:
                assert traj.paths_X is None and traj.paths_Y is None
                assert deviation_gain(cfg, eq, traj) == deviation_gain(cfg, eq, alone)
                if overall is not None:
                    lt, lt_alone = (lt_deviation_gain(cfg, overall, t) for t in (traj, alone))
                    assert (lt.psi_mfg, lt.psi_best, lt.gain) == (
                        lt_alone.psi_mfg, lt_alone.psi_best, lt_alone.gain)


def test_switching_steps_at_edge_times_match_single_agent_integration():
    cfg = presets.partial_two_type(grid=200)
    eq = solve_partial(cfg)
    grid = eq.grid
    h = grid.step_width(0)
    trade = float(grid.trade_times[4])                  # a segment bound
    node = float(grid.level0_times(3)[7])               # an interior level-0 node
    L2, L6, L7 = (grid.level0_times(s) for s in (2, 6, 7))
    first, last = L2[0] + 0.5 * h, L2[-1] - 0.5 * h     # a segment's first and last step
    pair = (L6[4] + 0.3 * h, L6[4] + 0.7 * h)           # two events in one step
    adjacent = (L7[10] + 0.5 * h, L7[11] + 0.5 * h)     # events in consecutive steps
    schedules = [
        (0, [(trade, 1)]),
        (1, [(node, 0)]),
        (0, [(first, 1), (last, 0)]),
        (1, [(pair[0], 0), (pair[1], 1)]),
        (0, [(0.4321, 1), (0.4321, 0)]),
        (0, [(adjacent[0], 1), (adjacent[1], 0)]),
        (1, []),
        (0, list(zip(sorted([trade, node, first, last, *pair, *adjacent]), [1, 0] * 4))),
    ]
    # segment 8 holds no event of any agent
    assert all(not 0.8 <= t <= 0.9 for _, evs in schedules for t, _ in evs)
    x_init = [0.3 - 0.1 * j for j in range(len(schedules))]
    ev = sorted(((t, j, y) for j, (_, evs) in enumerate(schedules) for t, y in evs),
                key=lambda e: e[0])
    (crowd,) = _run_agents(cfg, eq, np.array(x_init), np.array([y for y, _ in schedules]),
                           np.array([t for t, _, _ in ev]), np.array([j for _, j, _ in ev]),
                           np.array([y for _, _, y in ev]), replications=1,
                           record_paths=True)
    for j, (y_init, events) in enumerate(schedules):
        ref = _scalar_inventory(cfg, eq, x_init[j], y_init, events)
        alone = _lone_agent(cfg, eq, x_init[j], y_init, [t for t, _ in events],
                            [y for _, y in events], record_paths=True)
        for s in range(grid.n_segments):
            assert np.max(np.abs(alone.paths_X[s][:, 0] - ref[s])) <= 1e-12, (j, s)
            assert np.array_equal(alone.segments[s].X_agent0, alone.paths_X[s][:, 0])
            assert np.array_equal(alone.paths_X[s][:, 0], crowd.paths_X[s][:, j])
            assert np.array_equal(alone.paths_Y[s][:, 0], crowd.paths_Y[s][:, j])


@pytest.mark.parametrize("cfg", [
    # h * max|h2| / eta is 0.1 for every preset with a Gamma = 2 type at grid
    # 400 (0.004 at grid 1e4); of these, this one's step maps contract the
    # most over a segment (product of alpha down to 0.13)
    presets.partial_single_type(2.0, 10.0, grid=400),
    presets.partial_two_type(grid=400),
], ids=["stiffest", "two"])
def test_lifted_step_maps_match_sequential_steps(cfg):
    eq = solve_partial(cfg)
    a_segs, b_segs = _segment_coeffs(cfg, eq)
    N = cfg.n_states
    for s in range(eq.grid.n_segments):
        m = eq.grid.steps[s]
        Phi, beta = step_maps(a_segs[s][:, :, None] * np.eye(N), eq.grid.step_width(s),
                              b_segs[s])
        alpha = np.diagonal(Phi, axis1=1, axis2=2)
        A, B = _lift_table(alpha, beta)
        k, n = np.triu_indices(m + 1)                   # every gap k -> n
        for d0 in (0.0, 1.0, -0.7):
            seq = np.empty((m + 1, m + 1, N))
            for start in range(m + 1):
                d = np.full(N, d0)
                for node in range(start, m + 1):
                    seq[start, node] = d
                    if node < m:
                        d = alpha[node] * d + beta[node]
            for y in range(N):
                got = _lift(A, B, k, n, np.full(len(k), y), np.full(len(k), d0))
                ref = seq[k, n, y]
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (s, d0, y)


def test_deviation_gain_nonnegative_and_shrinks(stiff_eq):
    cfg, eq = stiff_eq
    gains = {}
    for M in (100, 1000):
        res = [deviation_gain(cfg, eq, traj)
               for traj, _ in simulate_population(cfg, eq, M, range(6))]
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
        deviation_gain(bad, eq_bad, simulate_population(bad, eq_bad, 2, [0])[0][0])


def test_lt_deviation_zero_when_decoupled():
    cfg = presets.overall_two_type(grid=400,
                                   market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    eq = solve_overall(cfg)
    traj, _ = simulate_population(cfg, eq.mean_field, 50, [1])[0]
    r = lt_deviation_gain(cfg, eq, traj)
    assert abs(r.gain) < 1e-12
    # decoupled, the best response to the simulated crowd is the equilibrium schedule
    xi_best = best_response_values(trade_values([rec.Xbar for rec in traj.segments]),
                                   trade_values([rec.vbar for rec in traj.segments],
                                                cfg.solver.mu_at_trades),
                                   cfg.schedule.xi0, cfg)
    assert np.max(np.abs(xi_best - eq.xi_star)) < 1e-12


def test_lt_deviation_zero_for_exact_mean_population():
    # deterministic single-type agents sit exactly on the mean field, so the
    # empirical aggregates equal the solved ones and the trader cannot improve
    cfg = presets.overall_single_type(2.0, 0.0, grid=400)
    eq = solve_overall(cfg)
    # all agents start exactly at the mean inventory
    traj, _ = simulate_population(cfg, eq.mean_field, 30, [0], init_spread=0.0)[0]
    r = lt_deviation_gain(cfg, eq, traj)
    assert abs(r.gain) < 1e-10
    # the empirical payoff is the analytic revenue model on the simulated aggregates
    assert r.psi_mfg == lt_profit(cfg, eq.mean_field).profit_with_hft


def test_lt_deviation_shrinks_with_population(overall_two):
    cfg, eq = overall_two
    meds = []
    for M in (100, 1000):
        vals = [lt_deviation_gain(cfg, eq, traj).gain
                for traj, _ in simulate_population(cfg, eq.mean_field, M, range(6))]
        assert all(v >= -1e-12 for v in vals)
        meds.append(np.median(vals))
    assert meds[1] < meds[0]


def test_price_paths_sigma_zero_exact(baseline_eq):
    cfg, eq = baseline_eq
    out = sample_price_paths(cfg, eq, replications=5, seed=3)
    ref = lt_profit(cfg, eq).profit_with_hft
    assert np.all(out.revenues == ref)
    assert out.std_error == 0.0


@pytest.mark.parametrize("replications", [0, -3])
def test_price_paths_need_at_least_one_replication(baseline_eq, replications):
    cfg, eq = baseline_eq
    with pytest.raises(ValueError, match="replications must be at least 1"):
        sample_price_paths(cfg, eq, replications=replications, seed=3)


def test_price_paths_no_trades_zero_revenue():
    cfg = presets.partial_single_type(2.0, 0.0, grid=300, sigma=1.0, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    out = sample_price_paths(cfg, eq, replications=50, seed=3)
    assert np.all(out.revenues == 0.0)


@pytest.mark.parametrize("cfg", [
    presets.partial_single_type(2.0, 10.0, grid=200, sigma=1.0),
    presets.partial_two_type(grid=200, market_overrides={"sigma": 1.0}),
], ids=["single", "two"])
def test_schedule_without_trades(cfg):
    cfg = replace(cfg, schedule=replace(cfg.schedule, times=np.zeros(0), quantities=np.zeros(0)))
    eq = solve_partial(cfg)
    traj, _ = simulate_population(cfg, eq, 50, [1])[0]
    assert deviation_gain(cfg, eq, traj).gain >= -1e-10
    out = sample_price_paths(cfg, eq, replications=20, seed=3)
    assert np.all(out.revenues == 0.0)


def test_price_paths_clt_band(baseline_eq):
    cfg, eq = baseline_eq
    cfg_noise = presets.partial_single_type(2.0, 0.0, grid=1000, sigma=1.0)
    eq_n = solve_partial(cfg_noise)
    out = sample_price_paths(cfg_noise, eq_n, replications=4000, seed=17)
    ref = lt_profit(cfg_noise, eq_n).profit_with_hft
    assert abs(out.mean - ref) <= 3.0 * out.std_error


def test_price_paths_deterministic_per_seed(baseline_eq):
    cfg, eq = baseline_eq
    cfg_noise = presets.partial_single_type(2.0, 0.0, grid=300, sigma=0.7)
    eq_n = solve_partial(cfg_noise)
    a = sample_price_paths(cfg_noise, eq_n, 64, seed=5)
    b = sample_price_paths(cfg_noise, eq_n, 64, seed=5)
    assert np.array_equal(a.revenues, b.revenues)


def test_price_paths_replication_does_not_depend_on_count():
    cfg = presets.partial_single_type(2.0, 0.0, grid=300, sigma=0.7)
    eq = solve_partial(cfg)
    a = sample_price_paths(cfg, eq, 50, seed=5)
    b = sample_price_paths(cfg, eq, 64, seed=5)
    assert np.array_equal(a.revenues, b.revenues[:50])
    assert len(np.unique(b.revenues)) == 64


def test_price_normals_are_standard():
    z = _normals(8, 2000, 10)
    # an odd count is the same draws, cut
    assert np.array_equal(_normals(8, 2000, 9), z[:, :9])
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # cosine and sine halves of a pair are uncorrelated
    assert abs(np.mean(z[:, 0::2] * z[:, 1::2])) < 4.0 / np.sqrt(n / 2)


def _running_aversion_by_walk(cfg, eq, quad, x_init, y_init, events):
    """``quad`` plus the running-aversion term, pieced together by walking every
    level-0 step and event in turn."""
    grid = eq.grid
    left, widths = _control_edges(eq.grid, 20)[0][:-1], quad.widths

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
