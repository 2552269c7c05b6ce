"""Acceptance gate: one test per release criterion, each printing a PASS line.

The per-criterion lines are also replayed in the terminal summary (see
conftest), so a plain ``pytest -v`` shows them; the module is the exit bar
for the package.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from hftmfg import presets
from hftmfg.chain import pq_batch
from hftmfg.cli import main as cli_main
from hftmfg.errors import ResidualWarning
from hftmfg.grid import make_grid
from hftmfg.meanfield import MeanFieldEngine, closed_form_n1, solve_partial
from hftmfg.riccati import h2_box_bound, solve_h2
from hftmfg.simulate import (deviation_gain, lt_deviation_gain,
                             sample_price_paths, simulate_population)
from hftmfg.strategy import lt_profit, profit_without_crowd, solve_overall
from conftest import base_raw, max_seg_diff

GRID = 10000
SWEEP = [(g, p) for g in (0.0, 0.1, 2.0) for p in (0.0, 5.0, 10.0)]


from conftest import ACCEPTANCE_LINES


def report(line: str) -> None:
    full = f"ACCEPTANCE {line}"
    ACCEPTANCE_LINES.append(full)
    print(full, flush=True)


@pytest.fixture(scope="module")
def sweep_solutions():
    """Numerical and closed-form solutions of the nine baseline cases on the
    criterion grid, with per-case solve times."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        for Gam, phi in SWEEP:
            cfg = presets.partial_single_type(Gam, phi, grid=GRID)
            t0 = time.perf_counter()
            num = solve_partial(cfg)
            elapsed = time.perf_counter() - t0
            oracle = closed_form_n1(cfg)
            out[(Gam, phi)] = (cfg, num, oracle, elapsed)
    return out


@pytest.fixture(scope="module")
def twostate_solution():
    cfg = presets.partial_two_type(grid=GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        return cfg, solve_partial(cfg)


def test_c01_oracle_equivalence(sweep_solutions):
    worst_err = 0.0
    worst_time = 0.0
    for (Gam, phi), (cfg, num, oracle, elapsed) in sweep_solutions.items():
        err = max(max_seg_diff(num.E_by_state, oracle.E_by_state),
                  max_seg_diff(num.mu_by_state, oracle.mu_by_state))
        assert err <= 1e-6, f"(Gamma={Gam}, phi={phi}): sup error {err:.3e}"
        assert elapsed < 1.0, f"(Gamma={Gam}, phi={phi}): solve took {elapsed:.2f}s"
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    report(f"C1 PASS: closed-form equivalence on the 1e4-node grid, "
           f"sup error {worst_err:.2e} <= 1e-6, slowest case {worst_time*1e3:.0f} ms")


def test_c02_speed_jump_conditions(sweep_solutions, twostate_solution):
    worst = 0.0
    for (_, num, _, _) in [v for v in sweep_solutions.values()] + [
            (None, twostate_solution[1], None, None)]:
        worst = max(worst, num.residuals.worst_jump,
                    float(np.max(np.abs(num.residuals.jump_aggregate))))
    assert worst <= 1e-6
    cfg, num, _, _ = sweep_solutions[(2.0, 0.0)]
    jump = float((num.mu_agg.left_at(5) - num.mu_agg.right_at(5))[0])
    expected = cfg.market.gamma * 1.0 / (cfg.market.lam_h + 2 * cfg.market.eta)
    assert expected == 5.0
    assert abs(jump - 5.0) <= 1e-6
    report(f"C2 PASS: speed jumps match gamma*xi/(lambdaH+2eta) at every trade "
           f"(worst residual {worst:.2e}); baseline jump = 5")


def test_c03_terminal_and_initial_conditions(sweep_solutions, twostate_solution):
    worst_term = 0.0
    for (_, num, _, _) in [v for v in sweep_solutions.values()] + [
            (None, twostate_solution[1], None, None)]:
        worst_term = max(worst_term, num.residuals.terminal)
        assert num.residuals.initial == 0.0
        assert np.array_equal(num.E_by_state.initial(), num.E0)
    assert worst_term <= 1e-6
    report(f"C3 PASS: terminal coupling residual {worst_term:.2e} <= 1e-6; "
           f"initial inventory exact")


def test_c04_derivative_identities(sweep_solutions):
    worst_agg = 0.0
    for (_, num, _, _) in sweep_solutions.values():
        for s in range(num.grid.n_segments):
            t = num.grid.level0_times(s)
            h = t[1] - t[0]
            E = num.E_agg.node_values(s)[:, 0]
            mu = num.mu_agg.node_values(s)[:, 0]
            worst_agg = max(worst_agg, float(
                np.max(np.abs((E[2:] - E[:-2]) / (2 * h) - mu[1:-1]))))
    assert worst_agg <= 1e-4
    cfg, num, _, _ = sweep_solutions[(2.0, 0.0)]
    Q = np.asarray(cfg.aversion.Q)
    worst_state = 0.0
    for s in range(num.grid.n_segments):
        t = num.grid.level0_times(s)
        h = t[1] - t[0]
        Es = num.E_by_state.node_values(s)
        ms = num.mu_by_state.node_values(s)
        src = np.einsum("nij,nj->ni", pq_batch(num.chain.p.node_values(s), Q), Es)
        worst_state = max(worst_state, float(
            np.max(np.abs((Es[2:] - Es[:-2]) / (2 * h) - ms[1:-1] - src[1:-1]))))
    assert worst_state <= 1e-6
    report(f"C4 PASS: speed = d(inventory)/dt, aggregate residual {worst_agg:.2e} "
           f"<= 1e-4, per-state {worst_state:.2e} <= 1e-6")


def test_c05_box_invariant_on_presets():
    from hftmfg.figures import figure_specs
    specs = figure_specs(grid=800)
    seen = set()
    checked = 0
    worst_slack = np.inf
    for spec in specs.values():
        for panel in spec.panels:
            if panel.cfg is None:
                continue
            key = json.dumps(panel.cfg.to_dict(), sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            cfg = panel.cfg
            grid = make_grid(cfg.schedule.T, cfg.schedule.times, 800)
            h2 = solve_h2(cfg.aversion, cfg.market, grid)
            C = h2_box_bound(cfg.aversion, cfg.market)
            for seg in h2.segments:
                assert seg.min() >= -C - 1e-8
                assert seg.max() <= 1e-12
            checked += 1
    # scan presets vary lambdaH, which leaves the box bound unchanged
    for lam_h in (0.02, 0.5, 1.0):
        cfg = presets.partial_single_type(2.0, 10.0, grid=800,
                                          market_overrides={"lambdaH": float(lam_h)})
        grid = make_grid(1.0, cfg.schedule.times, 800)
        h2 = solve_h2(cfg.aversion, cfg.market, grid)
        C = h2_box_bound(cfg.aversion, cfg.market)
        for seg in h2.segments:
            assert seg.min() >= -C - 1e-8 and seg.max() <= 1e-12
        checked += 1
    report(f"C5 PASS: quadratic coefficient stays in [-max(Gamma, sqrt(eta*phi)), 0] "
           f"on {checked} preset configurations")


def test_c06_mean_field_linearity():
    cfg = presets.partial_two_type(grid=1000).with_solver(shooting_tolerance=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        eng = MeanFieldEngine(cfg)
        K = cfg.schedule.K
        basis_E0 = [eng.solve(np.eye(2)[i], np.zeros(K)) for i in range(2)]
        basis_xi = [eng.solve(np.zeros(2), np.eye(K)[k]) for k in range(K)]
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(20):
            E0 = rng.normal(size=2)
            xi = rng.normal(size=K)
            direct = eng.solve(E0, xi)
            for s in range(K + 1):
                accE = sum(E0[i] * basis_E0[i].E_by_state.segments[s] for i in range(2)) \
                    + sum(xi[k] * basis_xi[k].E_by_state.segments[s] for k in range(K))
                accM = sum(E0[i] * basis_E0[i].mu_by_state.segments[s] for i in range(2)) \
                    + sum(xi[k] * basis_xi[k].mu_by_state.segments[s] for k in range(K))
                worst = max(worst,
                            float(np.max(np.abs(accE - direct.E_by_state.segments[s]))),
                            float(np.max(np.abs(accM - direct.mu_by_state.segments[s]))))
    assert worst <= 1e-8
    report(f"C6 PASS: superposition over 20 random (E0, xi) two-type instances, "
           f"worst discrepancy {worst:.2e} <= 1e-8")


def test_c07_decoupled_joint_equilibrium_uniform():
    cfg = presets.overall_single_type(2.0, 10.0, grid=1000,
                                      market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    eq = solve_overall(cfg)
    dev = float(np.max(np.abs(eq.xi_star - 1.0)))
    assert dev <= 1e-9
    report(f"C7 PASS: with no crowd price impact the optimal schedule is uniform "
           f"(max deviation {dev:.2e} <= 1e-9)")


def test_c08_qualitative_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        # (a) terminal-averse crowd trades with the buys early, against them late
        sol_a = solve_partial(presets.partial_single_type(2.0, 0.0, grid=2000))
        assert np.all(sol_a.mu_agg.node_values(0)[:, 0] > 0.0)
        assert np.all(sol_a.mu_agg.node_values(sol_a.grid.n_segments - 1)[:, 0] < 0.0)
        # (b) running-averse crowd dips then chases inside every interval
        sol_b = solve_partial(presets.partial_single_type(0.0, 10.0, grid=2000))
        for k in range(1, sol_b.grid.n_segments - 1):
            assert float(sol_b.mu_agg.right_at(k)[0]) < 0.0
            assert float(sol_b.mu_agg.left_at(k + 1)[0]) > 0.0
        # (c) profit difference crosses zero exactly once along the lambdaH scan
        from hftmfg.figures import profit_difference_scan
        rows = profit_difference_scan("partial", presets.lamH_scan_values(25), grid=1000)
        diffs = np.array([r[3] for r in rows])
        signs = np.sign(diffs)
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert diffs[0] < 0.0 < diffs[-1] and changes == 1
        # (d) stronger running aversion pushes the schedule toward uniform
        stds = []
        for phi in (0.0, 1.0, 5.0):
            eq = solve_overall(presets.overall_single_type(0.0, phi, grid=1000))
            stds.append(float(np.std(eq.xi_star)))
        assert stds[0] > stds[1] > stds[2]
    report("C8 PASS: round-trip pattern (a), within-interval dip-then-chase (b), "
           f"single profit sign change (c), schedule spread {stds[0]:.3f} > "
           f"{stds[1]:.3f} > {stds[2]:.3f} (d)")


@pytest.mark.slow
def test_c09_epsilon_nash_convergence():
    t_start = time.perf_counter()
    Ms = (100, 1000, 10000)
    seeds = range(30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        # population-average speed converges at the O(1/M) rate (two-type crowd)
        cfg2 = presets.partial_two_type(grid=400).with_solver(shooting_tolerance=1e-3)
        eq2 = solve_partial(cfg2)
        med_v = [float(np.median([simulate_population(cfg2, eq2, M, s)[1].vbar_l2
                                  for s in seeds])) for M in Ms]
        slope = float(np.polyfit(np.log(Ms), np.log(med_v), 1)[0])
        assert -1.35 <= slope <= -0.65, f"slope {slope:.3f}"

        # a single crowd member cannot profitably deviate for large M
        cfg1 = presets.partial_single_type(2.0, 10.0, grid=400).with_solver(
            shooting_tolerance=1e-3)
        eq1 = solve_partial(cfg1)
        med_g, med_j = [], []
        for M in Ms:
            res = [deviation_gain(cfg1, eq1, simulate_population(cfg1, eq1, M, s)[0])
                   for s in seeds]
            assert all(r.gain >= -1e-10 for r in res)
            med_g.append(float(np.median([r.gain for r in res])))
            med_j.append(float(np.median([abs(r.j_mfg) for r in res])))
        assert med_g[0] > med_g[1] > med_g[2], f"gains {med_g}"
        hft_ratio = med_g[-1] / med_j[-1]
        assert hft_ratio < 0.01, f"gain/objective {hft_ratio:.2e}"

        # neither can the trader (two-type joint equilibrium)
        cfgo = presets.overall_two_type(grid=400).with_solver(shooting_tolerance=1e-3)
        eqo = solve_overall(cfgo)
        pi0 = abs(lt_profit(cfgo, eqo.xi_star, eqo.mean_field).profit_no_hft)
        med_lt = []
        for M in Ms:
            vals = [lt_deviation_gain(cfgo, eqo,
                                      simulate_population(cfgo, eqo.mean_field, M, s)[0]).gain
                    for s in seeds]
            assert all(v >= -1e-10 for v in vals)
            med_lt.append(float(np.median(vals)))
        assert med_lt[0] > med_lt[1] > med_lt[2], f"gains {med_lt}"
        lt_ratio = med_lt[-1] / pi0
        assert lt_ratio < 0.01, f"gain/|profit| {lt_ratio:.2e}"

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    report(f"C9 PASS: vbar slope {slope:.2f} in -1 +- 0.35; crowd gains "
           f"{med_g[0]:.1e} > {med_g[1]:.1e} > {med_g[2]:.1e} "
           f"({hft_ratio:.1e} of objective at M=1e4); trader gains "
           f"{med_lt[0]:.1e} > {med_lt[1]:.1e} > {med_lt[2]:.1e} "
           f"({lt_ratio:.1e} of |profit|); runtime {elapsed:.0f}s < 300s")


def test_c10_profit_analytics():
    cfg = presets.partial_single_type(2.0, 0.0, grid=1000)
    base = profit_without_crowd(cfg, cfg.schedule.quantities, P0=0.0)
    assert abs(base - (-49.05)) <= 1e-10
    cfg_n = presets.partial_single_type(2.0, 0.0, grid=1000, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResidualWarning)
        eq = solve_partial(cfg_n)
    out = sample_price_paths(cfg_n, eq.xi, eq, replications=10000, seed=20260808)
    ref = lt_profit(cfg_n, eq.xi, eq).profit_with_hft
    dev = abs(out.mean - ref) / out.std_error
    assert dev <= 3.0, f"sample mean {dev:.2f} standard errors from analytic value"
    report(f"C10 PASS: no-crowd profit -49.05 exact to 1e-10; sampled mean within "
           f"{dev:.2f} standard errors of the analytic value at 1e4 replications")


def test_c11_byte_identical_csvs_across_workers(tmp_path):
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 150
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    blobs = []
    for i, workers in enumerate((1, 4, 16)):
        out = str(tmp_path / f"w{i}")
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", out,
                       "--M", "40", "80", "--seeds", "3", "--workers", str(workers)])
        assert rc == 0
        blobs.append({n: open(os.path.join(out, n), "rb").read()
                      for n in sorted(os.listdir(out))})
    assert blobs[0] == blobs[1] == blobs[2]
    report("C11 PASS: simulate CSVs byte-identical under 1, 4 and 16 workers")
