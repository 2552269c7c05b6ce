import warnings

import numpy as np
import pytest

from hftmfg import presets
from hftmfg.config import config_from_dict
from hftmfg.errors import SolverError
from hftmfg.grid import PiecewiseCurve, make_grid
from hftmfg.meanfield import default_grid, solve_partial
from hftmfg.riccati import (_check_box, compute_h0, h2_box_bound, integrate_h1_backward,
                            recover_h1, solve_h2)
from conftest import base_raw

TRADES = [k / 10 for k in range(1, 10)]


def single_type(Gamma, phi, eta=0.05):
    raw = base_raw()
    raw["aversion"]["Gamma"] = [Gamma]
    raw["aversion"]["phi"] = [phi]
    raw["market"]["eta"] = eta
    return config_from_dict(raw)


def closed_form_h2(Gamma, eta, t, T=1.0):
    # scalar solution of dh/dt = -h^2/eta with h(T) = -Gamma, checked by hand:
    # 1/h is affine in time
    return -Gamma * eta / (eta + Gamma * (T - t))


def test_h2_scalar_closed_form():
    cfg = single_type(2.0, 0.0)
    grid = make_grid(1.0, TRADES, 1000)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    assert h2.initial()[0] == pytest.approx(-0.1 / 2.05, abs=1e-10)
    assert h2.initial()[0] == pytest.approx(-0.0487805, abs=1e-6)
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        assert np.max(np.abs(h2.node_values(s)[:, 0] - closed_form_h2(2.0, 0.05, t))) < 1e-8


def test_h2_fixed_point():
    # Gamma = sqrt(eta*phi) keeps the coefficient pinned at -Gamma
    cfg = single_type(0.5, 5.0)
    grid = make_grid(1.0, TRADES, 500)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    for seg in h2.segments:
        assert np.max(np.abs(seg + 0.5)) < 1e-13


def test_h2_zero():
    cfg = single_type(0.0, 0.0)
    grid = make_grid(1.0, TRADES, 500)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    for seg in h2.segments:
        assert np.all(seg == 0.0)


def test_h2_terminal_exact_and_continuous():
    cfg = presets.partial_two_type(grid=500)
    grid = make_grid(1.0, TRADES, 500)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    assert np.array_equal(h2.terminal(), -cfg.aversion.Gamma)
    for k in range(1, grid.n_segments):
        assert np.array_equal(h2.left_at(k), h2.right_at(k))


def test_h2_box_invariant_two_state():
    cfg = presets.partial_two_type(grid=500)
    grid = make_grid(1.0, TRADES, 500)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    C = h2_box_bound(cfg.aversion, cfg.market)
    for seg in h2.segments:
        assert seg.min() >= -C - 1e-8
        assert seg.max() <= 1e-12


def test_h2_box_check_rejects_nan():
    # NaN fails every comparison, so it has to count as leaving the box
    cfg = presets.partial_two_type(grid=100)
    grid = default_grid(cfg)
    segs = [np.full((len(t), 2), -0.5) for t in grid.fine_times]
    segs[3][4, 1] = np.nan
    with pytest.raises(SolverError, match=f"t={grid.fine_times[3][4]:.6g};"):
        _check_box(PiecewiseCurve(grid, tuple(segs)), cfg.aversion, cfg.market)


def test_h2_box_abort_names_the_same_time_on_both_paths():
    # the scalar two-state path and the array loop blow up to inf and NaN in
    # different components; both must name the node where h2 first left the box
    cfg = presets.partial_two_type(phi=(1000, 10), Gamma=(50, 2), grid=100,
                                   market_overrides={"eta": 5e-4, "eta0": 5e-4})
    grid = default_grid(cfg)
    with pytest.raises(SolverError, match="t=0.995;"):
        solve_h2(cfg.aversion, cfg.market, grid)
    with np.errstate(all="ignore"):
        ref = h2_stage_loop(cfg, grid)
    assert sum(np.isnan(seg).sum() for seg in ref) > 400
    with pytest.raises(SolverError, match="t=0.995;"):
        _check_box(PiecewiseCurve(grid, tuple(ref)), cfg.aversion, cfg.market)


def test_h2_array_path_blow_up_raises_without_warning():
    # the N >= 3 array path overflows to inf and NaN; that must surface as the
    # SolverError the CLI maps to exit 1, also when warnings are errors
    raw = base_raw()
    raw["market"]["eta"] = raw["market"]["eta0"] = 5e-4
    raw["aversion"] = {"Gamma": [50.0, 2.0, 2.0], "phi": [1000.0, 10.0, 10.0],
                       "Q": [[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]],
                       "p0": [1 / 3, 1 / 3, 1 / 3]}
    raw["population"]["E0"] = [0.0, 0.0, 0.0]
    raw["solver"]["grid_steps_per_unit_time"] = 100
    cfg = config_from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="t=0.995;"):
            solve_h2(cfg.aversion, cfg.market, default_grid(cfg))


def test_h2_monotone_in_terminal_aversion():
    grid = make_grid(1.0, TRADES, 300)
    vals = []
    for Gamma in (1.0, 2.0, 4.0):
        cfg = single_type(Gamma, 0.0)
        vals.append(float(solve_h2(cfg.aversion, cfg.market, grid).initial()[0]))
    assert vals[0] > vals[1] > vals[2]


def test_h2_convergence_order():
    def err(steps):
        cfg = single_type(2.0, 0.0)
        grid = make_grid(1.0, TRADES, steps)
        h2 = solve_h2(cfg.aversion, cfg.market, grid)
        worst = 0.0
        for s in range(grid.n_segments):
            t = grid.level0_times(s)
            worst = max(worst, np.max(np.abs(h2.node_values(s)[:, 0]
                                             - closed_form_h2(2.0, 0.05, t))))
        return worst

    assert 8.0 <= err(100) / err(200) <= 40.0


def h2_stage_loop(cfg, grid):
    """Reference: h2 backward from -Gamma, one RK4 step at a time."""
    eta = cfg.market.eta
    phi = np.asarray(cfg.aversion.phi, dtype=float)
    Q = np.asarray(cfg.aversion.Q, dtype=float)

    def g(y):
        # the single-state solver scales by 1/eta; in floats that differs from / eta
        sq = y * y * (1.0 / eta) if cfg.n_states == 1 else y * y / eta
        return sq - phi + Q @ y

    y = -np.asarray(cfg.aversion.Gamma, dtype=float)
    segs = []
    for s in reversed(range(grid.n_segments)):
        dt = grid.step_width(s) / 2.0
        out = [y]
        for _ in range(2 * grid.steps[s]):
            k1 = g(y)
            k2 = g(y + 0.5 * dt * k1)
            k3 = g(y + 0.5 * dt * k2)
            k4 = g(y + dt * k3)
            y = y + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            out.append(y)
        segs.append(np.array(out[::-1]))
    return segs[::-1]


# the hand-written reference loop, named in the test id
@pytest.mark.parametrize("reference", [h2_stage_loop], ids=["rk4"])
@pytest.mark.parametrize("make", [lambda: presets.partial_single_type(2.0, 10.0, grid=400),
                                  lambda: presets.partial_single_type(2.0, 0.0, grid=400),
                                  lambda: presets.partial_two_type(grid=400),
                                  lambda: random_three_state(np.random.default_rng(5), grid=400)],
                         ids=["single_type", "single_type_no_running", "two_type", "three_state"])
def test_h2_matches_stage_by_stage_loop(make, reference):
    # (2, 10) settles on its fixed point within a few steps, so rounding changes
    # rarely reach its bits; (2, 0) keeps moving and shows them
    cfg = make()
    grid = default_grid(cfg)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    ref = reference(cfg, grid)
    assert len(h2.segments) == len(ref)
    for seg, r in zip(h2.segments, ref):
        assert np.array_equal(seg, r)


def h2_float_loop(cfg, grid):
    """Reference: two-state h2 on Python floats, each row of Q summed left to right."""
    eta = cfg.market.eta
    (p1, p2), ((q11, q12), (q21, q22)) = cfg.aversion.phi.tolist(), cfg.aversion.Q.tolist()

    def g(y):
        a, b = y
        return (a * a / eta - p1 + (q11 * a + q12 * b), b * b / eta - p2 + (q21 * a + q22 * b))

    def add(y, h, k):
        return tuple(yi + h * ki for yi, ki in zip(y, k))

    y = tuple(-float(v) for v in cfg.aversion.Gamma)
    segs = []
    for s in reversed(range(grid.n_segments)):
        dt = grid.step_width(s) / 2.0
        out = [y]
        for _ in range(2 * grid.steps[s]):
            k1 = g(y)
            k2 = g(add(y, 0.5 * dt, k1))
            k3 = g(add(y, 0.5 * dt, k2))
            k4 = g(add(y, dt, k3))
            y = tuple(yi + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
                      for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
            out.append(y)
        segs.append(np.array(out[::-1]))
    return segs[::-1]


@pytest.mark.parametrize("reference", [h2_float_loop], ids=["rk4"])
def test_h2_two_state_scalar_path(reference):
    # configs drawn from the solve benchmark's ranges; the scalar path rounds
    # both products of Q y, where numpy's 2x2 product fuses one of them
    rng = np.random.default_rng(23)
    for _ in range(10):
        cfg = presets.partial_two_type(
            phi=tuple(rng.uniform(0.0, 10.0, 2)), Gamma=tuple(rng.uniform(0.0, 2.0, 2)),
            x=rng.uniform(0.2, 0.8), y=rng.uniform(0.2, 0.8), grid=400)
        grid = default_grid(cfg)
        h2 = solve_h2(cfg.aversion, cfg.market, grid)
        tol = 1e-14 * h2_box_bound(cfg.aversion, cfg.market)
        for seg, exact, arr in zip(h2.segments, reference(cfg, grid), h2_stage_loop(cfg, grid)):
            assert np.array_equal(seg, exact)
            assert np.max(np.abs(seg - arr)) <= tol


def test_h1_recovery_jumps_and_terminal(baseline_eq):
    cfg, eq = baseline_eq
    h1, diag = recover_h1(eq, cfg.market)
    # each trade of one share drops the linear coefficient by gamma = 1
    assert np.max(np.abs(diag.jump_residuals)) < 1e-10
    for k in range(1, 10):
        assert (h1.left_at(k) - h1.right_at(k))[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(diag.terminal)) < 1e-8


def test_h1_zero_for_trivial_equilibrium():
    cfg = presets.partial_single_type(0.0, 0.0, grid=300, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    h1, diag = recover_h1(eq, cfg.market)
    for seg in h1.segments:
        assert np.max(np.abs(seg)) < 1e-12
    # also with a nonzero starting inventory: phi = Gamma = 0 gives h2 = 0,
    # the crowd never trades and the linear coefficient stays 0
    raw = base_raw()
    raw["aversion"]["Gamma"] = [0.0]
    raw["population"]["E0"] = [5.0]
    raw["population"]["inventory_bound"] = 5.0
    raw["schedule"]["quantities"] = [0.0] * 9
    cfg2 = config_from_dict(raw).with_solver(grid_steps_per_unit_time=300)
    eq2 = solve_partial(cfg2)
    h1b, _ = recover_h1(eq2, cfg2.market)
    assert max(np.max(np.abs(s)) for s in h1b.segments) < 1e-10
    assert max(np.max(np.abs(s)) for s in eq2.mu_by_state.segments) < 1e-10


def test_h1_backward_integration_cross_check(baseline_eq):
    cfg, eq = baseline_eq
    h1, _ = recover_h1(eq, cfg.market)
    h1b = integrate_h1_backward(eq.h2, eq.mu_agg, cfg.aversion, cfg.market, eq.xi)
    worst = max(np.max(np.abs(a[::2] - b[::2]))
                for a, b in zip(h1.segments, h1b.segments))
    assert worst < 1e-6


def test_h1_backward_cross_check_two_state(twostate_eq):
    # independent validation of the coupled speed dynamics: the algebraic
    # recovery from the equilibrium must agree with integrating the linear
    # coefficient's own backward equation, which shares only h2 and the
    # aggregate speed with it
    cfg, eq = twostate_eq
    h1, diag = recover_h1(eq, cfg.market)
    h1b = integrate_h1_backward(eq.h2, eq.mu_agg, cfg.aversion, cfg.market, eq.xi)
    worst = max(np.max(np.abs(a[::2] - b[::2]))
                for a, b in zip(h1.segments, h1b.segments))
    assert worst < 1e-8
    assert np.max(np.abs(diag.terminal)) < 1e-8


def test_h0_constant_source_quadrature():
    # with h1 - lamH*mu = c constant and no switching, h0(t) = c^2 (T-t)/(4 eta)
    cfg = single_type(0.0, 0.0)
    grid = make_grid(1.0, TRADES, 300)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    c = 0.7
    ones = [np.full((len(grid.fine_times[s]), 1), c) for s in range(grid.n_segments)]
    zeros = [np.zeros((len(grid.fine_times[s]), 1)) for s in range(grid.n_segments)]
    h1 = PiecewiseCurve(grid, tuple(ones))
    mu = PiecewiseCurve(grid, tuple(zeros))
    h0 = compute_h0(h1, h2, mu, cfg.aversion, cfg.market)
    for s in range(grid.n_segments):
        t = grid.level0_times(s)
        expected = c * c * (1.0 - t) / (4 * cfg.market.eta)
        assert np.max(np.abs(h0.node_values(s)[:, 0] - expected)) < 1e-12
    assert h0.terminal()[0] == 0.0


def test_h0_zero_when_everything_vanishes():
    cfg = single_type(0.0, 0.0)
    grid = make_grid(1.0, TRADES, 200)
    h2 = solve_h2(cfg.aversion, cfg.market, grid)
    zeros = tuple(np.zeros((len(grid.fine_times[s]), 1)) for s in range(grid.n_segments))
    h0 = compute_h0(PiecewiseCurve(grid, zeros), h2,
                    PiecewiseCurve(grid, zeros), cfg.aversion, cfg.market)
    for seg in h0.segments:
        assert np.all(seg == 0.0)


def _coefficients(cfg, eq):
    """h1 recovered from the solved mean field, and h0 integrated from it."""
    h1, _ = recover_h1(eq, cfg.market)
    return h1, compute_h0(h1, eq.h2, eq.mu_agg, cfg.aversion, cfg.market)


def _feedback(market, h1, h2, mu, x):
    """Optimal speed (h1 + 2 h2 x - lambdaH mu) / (2 eta) from coefficient values."""
    return (h1 + 2.0 * h2 * x - market.lam_h * mu) / (2.0 * market.eta)


def _value(h0, h1, h2, x, P=0.0):
    """P x + h0 + h1 x + h2 x^2 from coefficient values."""
    return P * x + h0 + h1 * x + h2 * x * x


def test_feedback_at_mean_returns_mean_speed(stiff_eq):
    cfg, eq = stiff_eq
    h1, _ = _coefficients(cfg, eq)
    for s in range(eq.grid.n_segments):
        v = _feedback(cfg.market, h1.node_values(s)[:, 0], eq.h2.node_values(s)[:, 0],
                      eq.mu_agg.node_values(s)[:, 0], eq.E_by_state.node_values(s)[:, 0])
        assert np.max(np.abs(v - eq.mu_by_state.node_values(s)[:, 0])) < 1e-9


def test_feedback_zero_when_coefficients_vanish():
    cfg = presets.partial_single_type(0.0, 0.0, grid=200, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    h1, _ = _coefficients(cfg, eq)
    for s in range(eq.grid.n_segments):
        for x in (-3.0, 0.0, 5.0):
            v = _feedback(cfg.market, h1.node_values(s), eq.h2.node_values(s),
                          eq.mu_agg.node_values(s), x)
            assert np.max(np.abs(v)) <= 1e-12


def test_feedback_jump_at_trades(baseline_eq):
    # the linear coefficient drops by gamma*xi = 1 (so its control share is
    # gamma*xi/(2 eta) = 10) while the total control jump matches the
    # population average gamma*xi/(lamH + 2 eta) = 5
    cfg, eq = baseline_eq
    h1, _ = _coefficients(cfg, eq)
    k = 5                                   # t_5 = 0.5
    x = 0.3
    v_left = _feedback(cfg.market, h1.left_at(k)[0], eq.h2.left_at(k)[0],
                       eq.mu_agg.left_at(k)[0], x)
    v_right = _feedback(cfg.market, h1.right_at(k)[0], eq.h2.right_at(k)[0],
                        eq.mu_agg.right_at(k)[0], x)
    h1_drop = (h1.left_at(k) - h1.right_at(k))[0]
    assert h1_drop / (2 * cfg.market.eta) == pytest.approx(10.0, abs=1e-8)
    assert v_left - v_right == pytest.approx(5.0, abs=1e-8)
    mu_jump = (eq.mu_agg.left_at(k) - eq.mu_agg.right_at(k))[0]
    assert mu_jump == pytest.approx(5.0, abs=1e-10)


@pytest.mark.parametrize("Gamma,phi,x0", [(2.0, 0.0, -1.0), (2.0, 10.0, 0.8),
                                          (0.0, 5.0, 0.0)])
def test_value_function_matches_realized_payoff(Gamma, phi, x0):
    # dynamic-programming consistency across modules: quadrature of the
    # objective along the feedback play equals h0 + h1 x + h2 x^2 at t = 0,
    # and the play is the grid optimum of that same objective
    from hftmfg.simulate import deviation_gain_vs_mean_field
    cfg = presets.partial_single_type(Gamma, phi, grid=2000)
    eq = solve_partial(cfg)
    h1, h0 = _coefficients(cfg, eq)
    r = deviation_gain_vs_mean_field(cfg, eq, x_init=x0, control_cells_per_segment=50)
    v = float(_value(h0.initial()[0], h1.initial()[0], eq.h2.initial()[0], x0))
    assert abs(r.j_mfg - v) < 2e-4 * max(abs(v), 1.0)
    assert 0.0 <= r.gain < 1e-7


def random_three_state(rng, grid=500):
    """Three-state chain with random switch rates and penalties."""
    off = rng.uniform(0.0, 2.0, size=(3, 3))
    np.fill_diagonal(off, 0.0)
    Q = off - np.diag(off.sum(axis=1))
    raw = base_raw()
    raw["aversion"] = {"Gamma": list(rng.uniform(0.0, 3.0, size=3)),
                       "phi": list(rng.uniform(0.0, 12.0, size=3)),
                       "Q": [list(r) for r in Q],
                       "p0": [1 / 3, 1 / 3, 1 / 3]}
    raw["population"]["E0"] = [0.0, 0.0, 0.0]
    raw["solver"]["grid_steps_per_unit_time"] = grid
    return config_from_dict(raw)


def test_h2_box_invariant_random_generators():
    # three-state chains with random rates and penalties stay inside the
    # envelope [-max(Gamma, sqrt(eta*phi)), 0]
    rng = np.random.default_rng(31)
    grid = make_grid(1.0, TRADES, 400)
    for _ in range(10):
        cfg = random_three_state(rng)
        h2 = solve_h2(cfg.aversion, cfg.market, grid)
        C = h2_box_bound(cfg.aversion, cfg.market)
        for seg in h2.segments:
            assert seg.min() >= -C - 1e-8
            assert seg.max() <= 1e-12


def test_value_function_terminal_and_zero_inventory(baseline_eq):
    cfg, eq = baseline_eq
    h1, h0 = _coefficients(cfg, eq)
    # x = 0 leaves only the inventory-free component, which a trade does not move
    for k in range(1, eq.grid.n_segments):
        assert np.array_equal(h0.left_at(k), h0.right_at(k))
    # at the horizon: P x - Gamma x^2
    x, P = 1.3, 2.0
    expect = P * x - cfg.aversion.Gamma[0] * x * x
    got = _value(h0.terminal()[0], h1.terminal()[0], eq.h2.terminal()[0], x, P)
    assert got == pytest.approx(expect, abs=1e-8)


def test_value_function_flat_market_matches_h2():
    # no trades, flat start: value at x=1 reduces to the quadratic coefficient
    cfg = presets.partial_single_type(2.0, 0.0, grid=500, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    h1, h0 = _coefficients(cfg, eq)
    got = float(_value(h0.initial()[0], h1.initial()[0], eq.h2.initial()[0], 1.0))
    assert got == pytest.approx(-0.1 / 2.05, abs=1e-9)
    assert got == pytest.approx(-0.0487805, abs=1e-6)
