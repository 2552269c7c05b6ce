import numpy as np
import pytest

from hftmfg import presets
from hftmfg.config import config_from_dict
from hftmfg.errors import SolverError
from hftmfg.meanfield import MeanFieldEngine, solve_partial
from hftmfg.strategy import (best_response_values, concavity_check, lt_best_response,
                             lt_profit, profit_from_aggregates, profit_without_crowd,
                             solve_overall)
from conftest import base_raw


@pytest.fixture(scope="module")
def overall_baseline():
    cfg = presets.overall_single_type(2.0, 0.0, grid=600)
    return cfg, solve_overall(cfg)


def test_best_response_uniform_without_crowd():
    cfg = presets.overall_single_type(0.0, 0.0, grid=600)
    xi = best_response_values(np.zeros(9), np.zeros(9), -9.0, cfg)
    assert np.array_equal(xi, np.ones(9))


def test_best_response_single_trade_is_forced():
    raw = base_raw("overall")
    raw["schedule"]["times"] = [0.5]
    raw["schedule"]["xi0"] = -3.0
    cfg = config_from_dict(raw)
    xi = best_response_values(np.array([1.3]), np.array([-0.4]), -3.0, cfg)
    assert np.array_equal(xi, np.array([3.0]))


def test_best_response_constant_curves_is_uniform():
    cfg = presets.overall_single_type(0.0, 0.0, grid=600)
    xi = best_response_values(np.full(9, 0.8), np.full(9, -1.1), -9.0, cfg)
    assert np.max(np.abs(xi - 1.0)) < 1e-14


def test_best_response_empty_schedule():
    raw = base_raw("overall")
    raw["schedule"]["times"] = []
    raw["schedule"]["xi0"] = 0.0
    cfg = config_from_dict(raw)
    assert best_response_values(np.zeros(0), np.zeros(0), 0.0, cfg).shape == (0,)


def test_overall_decoupled_is_exactly_uniform():
    cfg = presets.overall_single_type(2.0, 10.0, grid=600,
                                      market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    eq = solve_overall(cfg)
    assert np.max(np.abs(eq.xi_star - 1.0)) < 1e-12
    assert np.sum(eq.xi_star) + cfg.schedule.xi0 == pytest.approx(0.0, abs=1e-13)


def test_overall_nothing_to_execute():
    cfg = presets.overall_single_type(2.0, 0.0, xi0=0.0, grid=600)
    eq = solve_overall(cfg)
    assert np.max(np.abs(eq.xi_star)) < 1e-12
    assert max(np.max(np.abs(s)) for s in eq.mean_field.E_by_state.segments) < 1e-10


def test_overall_fixed_point_and_feasibility(overall_baseline):
    cfg, eq = overall_baseline
    # the first-order system is linear, so the fixed point holds to solve
    # precision, well inside the 1e-6 consistency gate
    assert eq.fixed_point_residual <= 1e-8
    assert abs(np.sum(eq.xi_star) - 9.0) < 5e-14
    br = lt_best_response(eq.mean_field, cfg)
    assert np.max(np.abs(br - eq.xi_star)) <= 1e-8


def test_overall_terminal_aversion_backloads(overall_baseline):
    cfg, eq = overall_baseline
    # with high terminal aversion the trader waits for the crowd's liquidity
    assert eq.xi_star[-1] > eq.xi_star[0]
    assert eq.xi_star[-1] == np.max(eq.xi_star)


def test_running_aversion_pushes_toward_uniform():
    stds = []
    for phi in (0.0, 1.0, 5.0):
        cfg = presets.overall_single_type(0.0, phi, grid=600)
        eq = solve_overall(cfg)
        stds.append(float(np.std(eq.xi_star)))
    assert stds[0] > stds[1] > stds[2]


def test_basis_consistency(overall_baseline):
    # the equilibrium field is the sum of the fields of its single trades and
    # of its single initial-inventory components
    cfg, eq = overall_baseline
    engine = MeanFieldEngine(cfg)
    N, K = cfg.n_states, cfg.schedule.K
    parts = [engine.solve(np.zeros(N), x * e) for x, e in zip(eq.xi_star, np.eye(K))]
    parts += [engine.solve(c * e, np.zeros(K)) for c, e in zip(cfg.population.E0, np.eye(N))]
    total = [sum(segs) for segs in zip(*(p.E_agg.segments for p in parts))]
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(total, eq.mean_field.E_agg.segments))
    assert worst < 1e-8


def _priced(cfg, xi, mean_field):
    """Expected revenue of the schedule xi against a given mean field."""
    return profit_from_aggregates(cfg, xi, mean_field.E_at_trades(), mean_field.E_agg_initial(),
                                  mean_field.mu_at_trades())


def test_perturbing_any_free_trade_never_helps(overall_baseline):
    cfg, eq = overall_baseline
    base = lt_profit(cfg, eq.mean_field).profit_with_hft
    for k in range(8):
        for eps in (1e-4, -1e-4):
            xi = eq.xi_star.copy()
            xi[k] += eps
            xi[-1] -= eps
            assert _priced(cfg, xi, eq.mean_field).profit_with_hft <= base + 1e-12


def test_wrong_length_schedule_is_rejected(baseline_eq):
    cfg, eq = baseline_eq
    with pytest.raises(ValueError, match="one per trade time"):
        _priced(cfg, [1.0], eq)


def test_profit_arithmetic_baseline(baseline_eq):
    cfg, eq = baseline_eq
    base = profit_without_crowd(cfg, cfg.schedule.quantities)
    # -gamma*sum_k xi_k sum_{j<=k} xi_j - (lambda+eta0)*sum xi^2 = -45 - 4.05
    assert base == pytest.approx(-49.05, abs=1e-10)
    rep = lt_profit(cfg, eq)
    assert rep.profit_with_hft == pytest.approx(rep.profit_no_hft + rep.difference, abs=1e-12)


def test_profit_no_crowd_when_field_is_zero():
    cfg = presets.partial_single_type(0.0, 0.0, grid=300, quantities=np.zeros(9))
    eq = solve_partial(cfg)
    rep = _priced(cfg, np.ones(9), eq)
    assert rep.difference == 0.0
    assert rep.profit_with_hft == rep.profit_no_hft


def test_profit_difference_changes_sign_along_lamH():
    from hftmfg.figures import profit_difference_scan
    rows = profit_difference_scan("partial", presets.lamH_scan_values(13), grid=600)
    diffs = np.array([r[3] for r in rows])
    signs = np.sign(diffs)
    assert diffs[0] < 0.0 < diffs[-1]
    assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_concavity_decoupled_structure():
    cfg = presets.overall_single_type(2.0, 0.0, grid=600,
                                      market_overrides={"gammaH": 0.0, "lambdaH": 0.0})
    K = 9
    rep = concavity_check(cfg, np.zeros((K, K)), np.zeros((K, K)))
    m = cfg.market
    expected = -(m.gamma + 2 * (m.lam + m.eta0)) * (np.eye(K - 1) + np.ones((K - 1, K - 1)))
    assert rep.negative_definite
    assert np.max(np.abs(np.sort(rep.eigenvalues)
                         - np.sort(np.linalg.eigvalsh(expected)))) < 1e-10


def test_concavity_single_trade_trivial():
    raw = base_raw("overall")
    raw["schedule"]["times"] = [0.5]
    raw["schedule"]["xi0"] = -1.0
    cfg = config_from_dict(raw)
    rep = concavity_check(cfg, np.zeros((1, 1)), np.zeros((1, 1)))
    assert rep.negative_definite


def test_concavity_baseline(overall_baseline):
    cfg, eq = overall_baseline
    assert eq.concavity.negative_definite
    assert eq.concavity.max_eigenvalue < 0.0


def test_non_concave_objective_raises():
    # a strong crowd response makes the substituted objective convex in some
    # direction (max Hessian eigenvalue 8.5e3): the stationary point is not
    # the trader's best response
    cfg = presets.overall_single_type(0.0, 0.0, grid=300,
                                      market_overrides={"gammaH": 80.0, "lambdaH": 5.0})
    with pytest.raises(SolverError, match="not negative definite"):
        solve_overall(cfg)


def test_overall_requires_overall_mode():
    cfg = presets.partial_single_type(2.0, 0.0, grid=300)
    with pytest.raises(ValueError, match="overall"):
        solve_overall(cfg)
