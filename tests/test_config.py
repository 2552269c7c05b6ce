import json
from dataclasses import replace

import numpy as np
import pytest

from hftmfg import presets
from hftmfg.config import (ConfigError, apply_env_overrides, config_from_dict,
                           config_hash, load_config, serialize_config,
                           validate_schedule_feasibility)
from conftest import base_raw


def test_load_baseline(config_file, raw_config):
    cfg = load_config(config_file(raw_config))
    assert cfg.mode == "partial"
    assert cfg.market.gamma == 1.0 and cfg.market.gamma_h == 0.7
    assert cfg.market.lam == 0.4 and cfg.market.lam_h == 0.1
    assert cfg.schedule.K == 9
    assert np.all(cfg.schedule.quantities == 1.0)
    assert cfg.n_states == 1


def test_overall_without_quantities_is_valid(config_file):
    raw = base_raw("overall")
    cfg = load_config(config_file(raw))
    assert cfg.schedule.xi0 == -9.0
    assert cfg.schedule.quantities is None


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(str(p))


def test_q_row_sum_rejected(config_file):
    raw = base_raw()
    raw["aversion"] = {"Gamma": [0.0, 0.0], "phi": [0.0, 0.0],
                       "Q": [[-0.5, 0.4], [0.5, -0.5]], "p0": [0.5, 0.5]}
    raw["population"]["E0"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="Q row sum"):
        load_config(config_file(raw))


@pytest.mark.parametrize("field,value,match", [
    (("market", "gamma"), 0.0, "market.gamma"),
    (("market", "lambda"), -1.0, "market.lambda"),
    (("market", "eta"), 0.0, "market.eta"),
    (("market", "sigma"), -0.1, "market.sigma"),
    (("schedule", "T"), 0.0, "schedule.T"),
    (("population", "inventory_bound"), -0.5, "inventory_bound"),
    (("solver", "grid_steps_per_unit_time"), 50, "grid_steps_per_unit_time"),
    (("solver", "integrator"), "rk5", "integrator"),
])
def test_invariant_violations_name_the_field(config_file, field, value, match):
    raw = base_raw()
    raw[field[0]][field[1]] = value
    with pytest.raises(ConfigError, match=match):
        load_config(config_file(raw))


def test_times_must_be_interior_and_increasing(config_file):
    raw = base_raw()
    raw["schedule"]["times"] = [0.0, 0.5]
    raw["schedule"]["quantities"] = [1.0, 1.0]
    with pytest.raises(ConfigError, match="inside"):
        load_config(config_file(raw))
    raw["schedule"]["times"] = [0.5, 0.5]
    with pytest.raises(ConfigError, match="increasing"):
        load_config(config_file(raw))


def test_partial_requires_quantities(config_file):
    raw = base_raw()
    del raw["schedule"]["quantities"]
    with pytest.raises(ConfigError, match="quantities"):
        load_config(config_file(raw))


def test_feasibility_pass_and_fail():
    raw = base_raw("overall")
    raw["schedule"]["quantities"] = [1.0] * 9
    cfg = config_from_dict(raw)
    validate_schedule_feasibility(cfg)  # 9 unit buys complete xi0 = -9

    raw["schedule"]["quantities"] = [1.0] * 8
    raw["schedule"]["times"] = [k / 10 for k in range(1, 9)]
    with pytest.raises(ConfigError, match="infeasible"):
        config_from_dict(raw)


def test_empty_schedule_no_trade():
    raw = base_raw("overall")
    raw["schedule"]["times"] = []
    raw["schedule"]["xi0"] = 0.0
    raw["schedule"]["quantities"] = []
    cfg = config_from_dict(raw)
    assert cfg.schedule.K == 0


def test_roundtrip_identity(raw_config):
    cfg = config_from_dict(raw_config)
    again = config_from_dict(json.loads(serialize_config(cfg)))
    assert cfg == again
    assert config_hash(cfg) == config_hash(again)


def test_unknown_keys_rejected(config_file):
    raw = base_raw()
    raw["market"]["gamma2"] = 1.0
    with pytest.raises(ConfigError, match="unknown"):
        load_config(config_file(raw))


def test_env_overrides(raw_config):
    env = {"HFTMFG_MARKET__GAMMA": "2.5",
           "HFTMFG_SOLVER__GRID_STEPS_PER_UNIT_TIME": "800",
           "HFTMFG_AVERSION__GAMMA": "[3.0]",
           "OTHER": "ignored"}
    out = apply_env_overrides(raw_config, env=env)
    cfg = config_from_dict(out)
    assert cfg.market.gamma == 2.5
    assert cfg.solver.grid_steps_per_unit_time == 800
    assert cfg.aversion.Gamma[0] == 3.0


def test_degenerate_single_state_allowed(raw_config):
    cfg = config_from_dict(raw_config)
    assert cfg.aversion.Q.shape == (1, 1) and cfg.aversion.Q[0, 0] == 0.0


def test_zero_crowd_impact_allowed(config_file):
    raw = base_raw()
    raw["market"]["gammaH"] = 0.0
    raw["market"]["lambdaH"] = 0.0
    cfg = load_config(config_file(raw))
    assert cfg.market.gamma_h == 0.0 and cfg.market.lam_h == 0.0


@pytest.mark.parametrize("value", ["abc", None, [1e-6], True, "1e-6", float("inf")],
                         ids=["string", "null", "list", "bool", "numeric-string", "infinity"])
def test_shooting_tolerance_must_be_a_finite_number(config_file, tmp_path, capsys, value):
    from hftmfg.cli import main
    raw = base_raw()
    raw["solver"]["shooting_tolerance"] = value
    with pytest.raises(ConfigError, match="solver.shooting_tolerance"):
        config_from_dict(raw)
    out = tmp_path / "out"
    assert main(["solve-partial", "--config", config_file(raw), "--out", str(out)]) == 1
    assert "configuration error: solver.shooting_tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,value", [("solver", None), ("market", 5), ("aversion", None),
                                           ("population", [1]), ("schedule", "T")])
def test_config_section_must_be_an_object(section, value):
    raw = base_raw()
    raw[section] = value
    with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
        config_from_dict(raw)


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigError, match="top level must be an object"):
        config_from_dict([base_raw()])


@pytest.mark.parametrize("settings", [
    {"shooting_tolerance": float("inf")}, {"shooting_tolerance": float("nan")},
    {"shooting_tolerance": 0.0}, {"shooting_tolerance": "1e-6"},
    {"grid_steps_per_unit_time": 3}, {"integrator": "rk5"},
], ids=["infinite-tolerance", "nan-tolerance", "zero-tolerance", "string-tolerance",
        "coarse-grid", "rk5"])
def test_with_solver_validates_the_settings(settings):
    # an infinite tolerance would let any residual through the solver's gate
    cfg = presets.partial_single_type(2.0, 10.0, grid=200)
    with pytest.raises(ConfigError, match="^solver\\."):
        cfg.with_solver(**settings)
    with pytest.raises(ConfigError, match="^solver\\."):
        replace(cfg.solver, **settings).validate()

