"""Machine-checkable validation suite over built-in configurations.

Each check re-verifies one family of invariants (conservation and positivity
of the chain, box bounds and closed forms of the value coefficients, oracle
equivalence, convergence order and jump/terminal conditions of the
equilibrium, linearity, profit arithmetic, qualitative shapes, simulator
exactness).  The runner produces a machine-readable JSON report and a
nonzero exit on any failure.  The checks' absolute bounds and order ratios
are sized for the package's one integrator, classic RK4.

The checks are the single implementation of the release criteria: the
acceptance tests call them at the default grid of 1e4 and add nothing
but a timing gate.
"""

from __future__ import annotations

import json

import numpy as np

from . import presets
from .chain import pq_batch, solve_chain
from .config import config_from_dict, load_config, serialize_config
from .errors import ConfigError
from .figures import figure_specs, profit_difference_scan
from .grid import make_grid, sup_diff
from .meanfield import (MeanFieldEngine, closed_form_q0, default_grid, solve_partial,
                        speed_jump_size)
from .reporting import _atomic_write
from .riccati import h2_box_bound, recover_h1, solve_h2
from .simulate import sample_price_paths, simulate_population
from .strategy import lt_best_response, lt_profit, profit_without_crowd, solve_overall

# bounds on the RK4 error ratio when the step count doubles (2^4 = 16 in the limit)
ORDER_RATIO = (8.0, 40.0)

# the single-type (Gamma, phi) sweep of the paper's figures
SWEEP = tuple((Gam, phi) for Gam in (0.0, 0.1, 2.0) for phi in (0.0, 5.0, 10.0))


class CheckFailure(Exception):
    pass


def _need(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailure(detail)


def _chain_closed_form_error(steps: int, x: float = 2.0, y: float = 3.0) -> float:
    # switch rates fast enough that truncation dominates the rounding floor
    raw = presets.partial_two_type(x=x, y=y, grid=max(steps, 100)).aversion
    grid = make_grid(1.0, [k / 10 for k in range(1, 10)], steps)
    p = solve_chain(raw, grid)
    worst = 0.0
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        exact = (y + (x - y) / 2 * np.exp(-(x + y) * t)) / (x + y)
        worst = max(worst, float(np.max(np.abs(p.node_values(s)[:, 0] - exact))))
    return worst


def _h2_closed_form_error(steps: int) -> float:
    cfg = presets.partial_single_type(2.0, 0.0, grid=steps)
    grid = make_grid(1.0, cfg.schedule.times, steps)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    eta, Gam = cfg.market.eta, 2.0
    worst = 0.0
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        exact = -Gam * eta / (eta + Gam * (1.0 - t))
        worst = max(worst, float(np.max(np.abs(h2.node_values(s)[:, 0] - exact))))
    return worst


def check_config_roundtrip(grid: int) -> str:
    cfg = presets.partial_two_type(grid=grid)
    again = config_from_dict(json.loads(serialize_config(cfg)))
    _need(cfg == again, "serialize/parse round trip changed the config")
    return "round trip is identity"


def check_chain_invariants(grid: int) -> str:
    cfg = presets.partial_two_type(x=0.2, y=0.8, grid=grid)
    g = make_grid(1.0, cfg.schedule.times, grid)
    p = solve_chain(cfg.aversion, g)
    worst_sum = worst_pq = 0.0
    for s in range(g.n_segments):
        seg = p.segments[s]
        worst_sum = max(worst_sum, float(np.max(np.abs(seg.sum(axis=1) - 1.0))))
        pq = pq_batch(seg, cfg.aversion.Q)
        worst_pq = max(worst_pq, float(np.max(np.abs(pq.sum(axis=2)))))
    _need(worst_sum <= 1e-10, f"conservation violated: {worst_sum:.3e}")
    _need(worst_pq <= 1e-12, f"reweighted-generator row sums: {worst_pq:.3e}")
    sym = pq_batch(np.array([[0.5, 0.5]]), np.array([[-0.5, 0.5], [0.5, -0.5]]))[0]
    _need(float(np.max(np.abs(sym - np.array([[-0.5, 0.5], [0.5, -0.5]])))) <= 1e-14,
          "symmetric two-state reweighting should equal the generator")
    return f"conservation {worst_sum:.1e}, pQ rows {worst_pq:.1e}"


def check_chain_order(grid: int) -> str:
    e1 = _chain_closed_form_error(200)
    e2 = _chain_closed_form_error(400)
    ratio = e1 / e2
    lo, hi = ORDER_RATIO
    _need(lo <= ratio <= hi, f"step-halving ratio {ratio:.2f} outside [{lo}, {hi}]")
    return f"error {e1:.2e} -> {e2:.2e}, ratio {ratio:.1f}"


def check_h2(grid: int) -> str:
    err = _h2_closed_form_error(max(grid, 1000))
    _need(err <= 1e-8, f"closed-form error {err:.3e} > 1e-8")
    e1 = _h2_closed_form_error(200)
    e2 = _h2_closed_form_error(400)
    ratio = e1 / e2
    lo, hi = ORDER_RATIO
    _need(lo <= ratio <= hi, f"order ratio {ratio:.2f} outside [{lo}, {hi}]")
    # box bound and terminal value across the sweep, every distinct figure
    # preset and the lambdaH scan presets (lambdaH leaves the bound unchanged)
    cfgs = [presets.partial_single_type(Gam, phi, grid=max(grid // 2, 500))
            for Gam, phi in SWEEP]
    coarse = min(grid, 800)
    figure_cfgs = {json.dumps(panel.cfg.to_dict(), sort_keys=True): panel.cfg
                   for spec in figure_specs(grid=coarse).values()
                   for panel in spec.panels if panel.cfg is not None}
    cfgs += list(figure_cfgs.values())
    cfgs += [presets.partial_single_type(2.0, 10.0, grid=coarse,
                                         market_overrides={"lambdaH": lam_h})
             for lam_h in (0.02, 0.5, 1.0)]
    for cfg in cfgs:
        h2 = solve_h2(cfg.aversion, cfg.market, default_grid(cfg))
        C = h2_box_bound(cfg.aversion, cfg.market)
        _need(np.array_equal(h2.terminal(), -np.asarray(cfg.aversion.Gamma)),
              "terminal value is not -Gamma")
        for seg in h2.segments:
            _need(float(seg.min()) >= -C - 1e-8 and float(seg.max()) <= 1e-12,
                  f"box [{-C:.3g}, 0] violated for {cfg.to_dict()['aversion']}")
    c1 = presets.partial_single_type(1.0, 0.0, grid=500)
    c2 = presets.partial_single_type(2.0, 0.0, grid=500)
    g = make_grid(1.0, c1.schedule.times, 500)
    h_a = solve_h2(c1.aversion, c1.market, g)
    h_b = solve_h2(c2.aversion, c2.market, g)
    _need(float(h_b.initial()[0]) < float(h_a.initial()[0]),
          "doubling terminal aversion must deepen the initial value")
    return (f"closed-form error {err:.2e}, order ratio {ratio:.1f}, "
            f"box [-max(Gamma, sqrt(eta*phi)), 0] on {len(cfgs)} configurations")


def check_oracle_equivalence(grid: int) -> str:
    # the single-type sweep, then the two-type crowd without switching (panel F04a's)
    cases = [(f"Gamma={Gam}, phi={phi}", presets.partial_single_type(Gam, phi, grid=grid))
             for Gam, phi in SWEEP]
    cases.append(("two types, Q = 0", presets.partial_two_type(x=0.0, y=0.0, grid=grid)))
    worst = 0.0
    for name, cfg in cases:
        num = solve_partial(cfg)
        ora = closed_form_q0(cfg)
        err = max(sup_diff(num.E_by_state, ora.E_by_state),
                  sup_diff(num.mu_by_state, ora.mu_by_state))
        _need(err <= 1e-6, f"solver vs closed form sup error {err:.3e} > 1e-6 ({name})")
        worst = max(worst, err)
    return f"sup error {worst:.2e} <= 1e-6 on {len(cases)} cases"


def _engine_boundary_states(T: float, steps: int) -> np.ndarray:
    # the two-type switching preset with its nine trades at kT/10
    raw = presets.partial_two_type(grid=steps).to_dict()
    raw["schedule"].update(T=T, times=[k * T / 10 for k in range(1, 10)])
    sol = solve_partial(config_from_dict(raw))
    return np.concatenate([sol.ends.ravel(), sol.agg_ends.ravel()])


def check_engine_order(grid: int) -> str:
    # a switching crowd has no closed form, so the equilibrium's error is
    # checked by its step-halving ratio at fixed grids, as chain-order does
    lo, hi = ORDER_RATIO
    ratios = []
    for T in (1.0, 5.0):
        z = [_engine_boundary_states(T, steps) for steps in (250, 500, 1000)]
        ratio = float(np.max(np.abs(z[0] - z[1])) / np.max(np.abs(z[1] - z[2])))
        _need(lo <= ratio <= hi,
              f"T={T:g}: step-halving ratio {ratio:.2f} outside [{lo}, {hi}]")
        ratios.append(f"{ratio:.1f} at T={T:g}")
    return "boundary-state step-halving ratio " + ", ".join(ratios)


def check_equilibrium_conditions(grid: int) -> str:
    cfgs = [presets.partial_single_type(Gam, phi, grid=grid)
            for Gam, phi in SWEEP]
    cfgs.append(presets.partial_two_type(grid=grid))
    sols = [solve_partial(cfg) for cfg in cfgs]
    worst_jump = worst_term = 0.0
    for sol in sols:
        r = sol.residuals
        worst_jump = max(worst_jump, r.worst_jump, float(np.max(np.abs(r.jump_aggregate))))
        worst_term = max(worst_term, r.terminal)
        _need(r.initial == 0.0, f"initial inventory not exact: {r.initial:.3e}")
        _need(np.array_equal(sol.E_by_state.initial(), sol.E0),
              "initial inventory differs from E0")
    _need(worst_jump <= 1e-6, f"speed-jump residual {worst_jump:.3e}")
    _need(worst_term <= 1e-6, f"terminal residual {worst_term:.3e}")
    # a unit buy drops the baseline speed by gamma/(lambdaH + 2 eta) = 5
    base = SWEEP.index((2.0, 0.0))
    expected = speed_jump_size(cfgs[base].market, 1.0)
    _need(expected == 5.0, f"baseline jump size {expected!r} != 5")
    jump = float((sols[base].mu_agg.left_at(5) - sols[base].mu_agg.right_at(5))[0])
    _need(abs(jump - 5.0) <= 1e-6, f"baseline speed jump at trade 5 is {jump!r}, not 5")
    return (f"jump {worst_jump:.1e}, baseline jump 5 to {abs(jump - 5.0):.1e}, "
            f"terminal {worst_term:.1e}, initial exact on {len(cfgs)} configurations")


def check_derivative_identities(grid: int) -> str:
    # tolerances are tied to the 1e4-node resolution, so this check pins it
    grid = 10000
    worst_agg = 0.0
    for Gam, phi in SWEEP:
        cfg = presets.partial_single_type(Gam, phi, grid=grid)
        sol = solve_partial(cfg)
        for s in range(sol.grid.n_segments):
            t = sol.grid.level0_times(s)
            h = t[1] - t[0]
            E = sol.E_agg.node_values(s)[:, 0]
            mu = sol.mu_agg.node_values(s)[:, 0]
            r = np.abs((E[2:] - E[:-2]) / (2 * h) - mu[1:-1])
            worst_agg = max(worst_agg, float(r.max()))
    _need(worst_agg <= 1e-4, f"aggregate speed/inventory identity {worst_agg:.3e} > 1e-4")
    cfg = presets.partial_single_type(2.0, 0.0, grid=grid)
    sol = solve_partial(cfg)
    Q = np.asarray(cfg.aversion.Q)
    worst_state = 0.0
    for s in range(sol.grid.n_segments):
        t = sol.grid.level0_times(s)
        h = t[1] - t[0]
        Es = sol.E_by_state.node_values(s)
        ms = sol.mu_by_state.node_values(s)
        src = np.einsum("nij,nj->ni", pq_batch(sol.p.node_values(s), Q), Es)
        worst_state = max(worst_state, float(
            np.max(np.abs((Es[2:] - Es[:-2]) / (2 * h) - ms[1:-1] - src[1:-1]))))
    _need(worst_state <= 1e-6, f"per-state identity {worst_state:.3e} > 1e-6")
    return f"aggregate {worst_agg:.2e}, per-state {worst_state:.2e}"


def check_linearity(grid: int) -> str:
    cfg = presets.partial_two_type(grid=min(grid, 1000))
    eng = MeanFieldEngine(cfg)
    K = cfg.schedule.K
    basis = [eng.solve(np.eye(2)[i], np.zeros(K)) for i in range(2)] \
        + [eng.solve(np.zeros(2), np.eye(K)[k]) for k in range(K)]
    rng = np.random.default_rng(123)
    n_cases = 20
    worst = 0.0
    for _ in range(n_cases):
        E0 = rng.normal(size=2)
        xi = rng.normal(size=K)
        direct = eng.solve(E0, xi)
        coeffs = np.concatenate([E0, xi])
        for s in range(K + 1):
            for field in ("E_by_state", "mu_by_state"):
                acc = sum(c * getattr(b, field).segments[s] for c, b in zip(coeffs, basis))
                worst = max(worst, float(np.max(np.abs(
                    acc - getattr(direct, field).segments[s]))))
    _need(worst <= 1e-8, f"superposition error {worst:.3e} > 1e-8")
    return f"superposition error {worst:.2e} <= 1e-8 over {n_cases} random (E0, xi) instances"


def check_h1_recovery(grid: int) -> str:
    cfg = presets.partial_single_type(2.0, 0.0, grid=grid)
    sol = solve_partial(cfg)
    h1, diag = recover_h1(sol, cfg.market)
    worst = float(np.max(np.abs(diag.jump_residuals)))
    term = float(np.max(np.abs(diag.terminal)))
    _need(worst <= 1e-6, f"linear-coefficient jump residual {worst:.3e}")
    _need(term <= 1e-6, f"linear coefficient at the horizon {term:.3e}")
    return f"jump {worst:.1e}, terminal {term:.1e}"


def check_overall(grid: int) -> str:
    cfg = presets.overall_single_type(2.0, 10.0, grid=min(grid, 1000),
                                      market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    eq = solve_overall(cfg)
    dev = float(np.max(np.abs(eq.xi_star - 1.0)))
    _need(dev <= 1e-9, f"decoupled schedule must be uniform, deviation {dev:.3e} > 1e-9")
    cfg2 = presets.overall_single_type(2.0, 0.0, grid=min(grid, 1000))
    eq2 = solve_overall(cfg2)
    _need(abs(float(np.sum(eq2.xi_star)) - 9.0) <= 1e-10, "completion constraint violated")
    _need(eq2.fixed_point_residual <= 1e-6,
          f"fixed point residual {eq2.fixed_point_residual:.3e}")
    _need(eq2.concavity.negative_definite, "objective must be strictly concave")
    br = lt_best_response(eq2.mean_field, cfg2)
    _need(float(np.max(np.abs(br - eq2.xi_star))) <= 1e-6, "best response mismatch")
    return (f"decoupled schedule uniform to {dev:.2e} <= 1e-9, "
            f"fixed point {eq2.fixed_point_residual:.1e}")


def check_profit_arithmetic(grid: int) -> str:
    cfg = presets.partial_single_type(2.0, 0.0, grid=max(grid // 10, 100))
    base = profit_without_crowd(cfg, cfg.schedule.quantities)
    _need(abs(base - (-49.05)) <= 1e-10, f"no-crowd profit {base!r} != -49.05")
    # sampled revenue under price noise averages to the analytic expectation
    noisy = presets.partial_single_type(2.0, 0.0, grid=max(grid // 10, 100), sigma=1.0)
    eq = solve_partial(noisy)
    out = sample_price_paths(noisy, eq, replications=10000, seed=20260808)
    ref = lt_profit(noisy, eq).profit_with_hft
    dev = abs(out.mean - ref) / out.std_error
    _need(dev <= 3.0, f"sample mean {dev:.2f} standard errors from the analytic value")
    return (f"no-crowd profit {base!r}; sampled mean within {dev:.2f} standard errors "
            f"of the analytic value at 1e4 replications")


def check_shapes(grid: int) -> str:
    g = min(grid, 2000)
    # high terminal aversion: same-direction early, opposite late
    sol = solve_partial(presets.partial_single_type(2.0, 0.0, grid=g))
    _need(np.all(sol.mu_agg.node_values(0)[:, 0] > 0.0), "early speed should be positive")
    _need(np.all(sol.mu_agg.node_values(sol.grid.n_segments - 1)[:, 0] < 0.0),
          "late speed should be negative")
    # high running aversion: dip then chase inside each inter-trade interval
    sol2 = solve_partial(presets.partial_single_type(0.0, 10.0, grid=g))
    for k in range(1, sol2.grid.n_segments - 1):
        _need(float(sol2.mu_agg.right_at(k)[0]) < 0.0, f"speed after trade {k} not negative")
        _need(float(sol2.mu_agg.left_at(k + 1)[0]) > 0.0, f"speed before trade {k+1} not positive")
    # profit difference changes sign exactly once along the lambdaH scan
    rows = profit_difference_scan("partial", presets.lamH_scan_values(25), grid=min(g, 1000))
    diffs = np.array([r[3] for r in rows])
    signs = np.sign(diffs)
    changes = int(np.sum(signs[1:] != signs[:-1]))
    _need(diffs[0] < 0.0 < diffs[-1] and changes == 1,
          f"profit difference should cross zero once (changes={changes})")
    # larger running aversion pushes the schedule toward uniform
    stds = []
    for phi in (0.0, 1.0, 5.0):
        eq = solve_overall(presets.overall_single_type(0.0, phi, grid=min(g, 1000)))
        stds.append(float(np.std(eq.xi_star)))
    _need(stds[0] > stds[1] > stds[2], f"schedule spread not decreasing: {stds}")
    return (f"sign change ok over {len(rows)} lambdaH values, "
            f"schedule spreads {['%.3f' % s for s in stds]}")


def check_simulator_exact(grid: int) -> str:
    cfg = presets.partial_single_type(2.0, 10.0, grid=min(grid, 500))
    eq = solve_partial(cfg)
    ((_, met),) = simulate_population(cfg, eq, 20, [0], init_spread=0.0)
    _need(met.theta_dev == 0.0 and met.Z_dev == 0.0 and met.vbar_l2 == 0.0,
          f"deterministic single-type metrics must vanish, got {met}")
    out = sample_price_paths(cfg, eq, 4, seed=0)
    ref = lt_profit(cfg, eq).profit_with_hft
    dev = float(np.max(np.abs(out.revenues - ref)))
    _need(dev <= 1e-9 * max(abs(ref), 1.0), f"noise-free revenue mismatch {dev:.3e}")
    return "deterministic metrics vanish; noise-free paths match analytics"


CHECKS = [
    ("config-roundtrip", check_config_roundtrip),
    ("chain-invariants", check_chain_invariants),
    ("chain-order", check_chain_order),
    ("value-coefficients", check_h2),
    ("oracle-equivalence", check_oracle_equivalence),
    ("engine-order", check_engine_order),
    ("equilibrium-conditions", check_equilibrium_conditions),
    ("derivative-identities", check_derivative_identities),
    ("mean-field-linearity", check_linearity),
    ("h1-recovery", check_h1_recovery),
    ("overall-equilibrium", check_overall),
    ("profit-arithmetic", check_profit_arithmetic),
    ("qualitative-shapes", check_shapes),
    ("simulator-exactness", check_simulator_exact),
]


def run_validation(out_path=None, config_path=None, grid: int = 10000) -> dict:
    results = []
    if config_path is not None:
        try:
            load_config(config_path)
            results.append({"name": "config-load", "passed": True,
                            "detail": f"{config_path} is valid"})
        except ConfigError as exc:
            results.append({"name": "config-load", "passed": False, "detail": str(exc)})
    for name, fn in CHECKS:
        try:
            detail = fn(grid)
            results.append({"name": name, "passed": True, "detail": detail})
        except CheckFailure as exc:
            results.append({"name": name, "passed": False, "detail": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            results.append({"name": name, "passed": False,
                            "detail": f"{type(exc).__name__}: {exc}"})
    report = {"passed": all(r["passed"] for r in results), "grid": grid, "checks": results}
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}")
    if out_path is not None:
        _atomic_write(out_path, [json.dumps(report, indent=2)])
    return report
