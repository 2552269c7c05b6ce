import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hftmfg
import hftmfg.cli as cli
import hftmfg.figures as figures
import hftmfg.meanfield as meanfield
from hftmfg import presets
from hftmfg.cli import main
from hftmfg.config import load_config, serialize_config
from hftmfg.reporting import write_csv
from hftmfg.simulate import deviation_gain, lt_deviation_gain
from hftmfg.strategy import solve_overall
from conftest import base_raw, read_csv


def run(args):
    return main(args)


def test_solve_partial_outputs(config_file, raw_config, tmp_path):
    out = str(tmp_path / "o")
    rc = run(["solve-partial", "--config", config_file(raw_config), "--out", out])
    assert rc == 0
    for name in ("equilibrium.csv", "residuals.csv", "equilibrium_E.svg", "equilibrium_mu.svg"):
        assert os.path.exists(os.path.join(out, name))
    meta, header, rows = read_csv(os.path.join(out, "equilibrium.csv"))
    assert meta.startswith("# config_hash=")
    assert "grid_steps_per_unit_time=500" in meta
    assert header[:2] == ["time", "side"]
    # one left and one right row at each interior trade time
    for tk in [k / 10 for k in range(1, 10)]:
        sides = {r[1] for r in rows if float(r[0]) == tk}
        assert sides == {"L", "R"}


def test_residuals_csv_rows_come_from_the_residual_report(tmp_path):
    cfg = presets.partial_two_type(grid=400)
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(cfg))
    out = str(tmp_path / "o")
    assert run(["solve-partial", "--config", str(path), "--out", out]) == 0
    sol = meanfield.solve_partial(cfg)
    r = sol.residuals
    meta, header, rows = read_csv(os.path.join(out, "residuals.csv"))
    assert header == ["k", "t_k", "expected_jump", "residual_aggregate", "residual_state_max"]
    assert len(rows) == 9
    for k, row in enumerate(rows, start=1):
        assert row[0] == str(k)
        assert float(row[1]) == sol.grid.bounds[k] == k / 10
        assert float(row[2]) == meanfield.speed_jump_size(cfg.market, float(sol.xi[k - 1])) \
            == cfg.market.gamma * sol.xi[k - 1] / (cfg.market.lam_h + 2.0 * cfg.market.eta)
        assert float(row[3]) == abs(r.jump_aggregate[k - 1])
        assert float(row[4]) == np.max(np.abs(r.jump_by_state[k - 1]))
    assert meta.endswith(f" terminal={r.terminal!r} initial={r.initial!r} "
                         f"condition_number={r.condition_number!r}")


def test_solve_partial_rejects_overall_config(config_file, tmp_path):
    rc = run(["solve-partial", "--config", config_file(base_raw("overall")),
              "--out", str(tmp_path / "x")])
    assert rc == 1


def test_solve_partial_invalid_config_exit_1(config_file, tmp_path):
    raw = base_raw()
    raw["aversion"]["Q"] = [[-0.5]]
    rc = run(["solve-partial", "--config", config_file(raw), "--out", str(tmp_path / "x")])
    assert rc == 1


def test_usage_error_exit_2():
    assert run(["no-such-command"]) == 2


def test_solve_overall_outputs(config_file, tmp_path):
    out = str(tmp_path / "o")
    rc = run(["solve-overall", "--config", config_file(base_raw("overall")), "--out", out])
    assert rc == 0
    for name in ("xi_star.csv", "equilibrium.csv", "profit.csv", "concavity.csv"):
        assert os.path.exists(os.path.join(out, name))
    _, header, rows = read_csv(os.path.join(out, "xi_star.csv"))
    assert header == ["k", "t_k", "xi_star_k"]
    assert len(rows) == 9
    assert sum(float(r[2]) for r in rows) == pytest.approx(9.0, abs=1e-10)


def test_simulate_outputs_and_row_counts(config_file, tmp_path):
    out = str(tmp_path / "o")
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 200
    rc = run(["simulate", "--config", config_file(raw), "--out", out,
              "--M", "50", "100", "--seeds", "3"])
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "metrics.csv"))
    assert len(rows) == 6   # two sizes x three seeds
    _, _, drows = read_csv(os.path.join(out, "deviations_hft.csv"))
    assert len(drows) == 6
    assert all(float(r[4]) >= -1e-12 for r in drows)
    _, _, srows = read_csv(os.path.join(out, "slope.csv"))
    assert srows[-1][0] == "vbar_l2_loglog_slope"


def test_simulate_overall_includes_lt_deviation(config_file, tmp_path):
    out = str(tmp_path / "o")
    raw = base_raw("overall")
    raw["solver"]["grid_steps_per_unit_time"] = 200
    rc = run(["simulate", "--config", config_file(raw), "--out", out,
              "--M", "50", "--seeds", "2"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "deviations_lt.csv"))


def test_simulate_runs_one_population_per_task(config_file, tmp_path, monkeypatch):
    raw = base_raw("overall")
    raw["aversion"] = {"Gamma": [2.0, 0.0], "phi": [0.0, 10.0],
                       "Q": [[-0.5, 0.5], [0.5, -0.5]], "p0": [0.5, 0.5]}
    raw["population"]["E0"] = [0.0, 0.0]
    raw["solver"]["grid_steps_per_unit_time"] = 200
    path = config_file(raw)
    calls, trajs = [], {}
    simulate_population = cli.simulate_population

    def counted(cfg, eq, M, seeds, **kwargs):
        runs = simulate_population(cfg, eq, M, seeds, **kwargs)
        calls.append((M, tuple(seeds)))
        for seed, (traj, _) in zip(seeds, runs):
            trajs[(M, seed)] = traj
        return runs

    monkeypatch.setattr(cli, "simulate_population", counted)
    out = tmp_path / "o"
    rc = run(["simulate", "--config", path, "--out", str(out),
              "--M", "30", "60", "--seeds", "2", "--seed", "4"])
    assert rc == 0
    # one stacked population per M, carrying every seed
    assert calls == [(30, (4, 5)), (60, (4, 5))]

    # the deviation files are exactly the deviation functions on those populations
    cfg = load_config(path)
    overall = solve_overall(cfg)
    hft, lt = [], []
    for (M, seed), traj in trajs.items():
        d = deviation_gain(cfg, overall.mean_field, traj)
        hft.append([M, seed, d.j_mfg, d.j_best, d.gain])
        t = lt_deviation_gain(cfg, overall, traj)
        lt.append([M, seed, t.psi_mfg, t.psi_best, t.gain])
    write_csv(tmp_path / "hft.csv", ["M", "seed", "j_mfg", "j_best", "gain"], hft, cfg)
    write_csv(tmp_path / "lt.csv", ["M", "seed", "psi_mfg", "psi_best", "gain"], lt, cfg)
    assert (out / "deviations_hft.csv").read_bytes() == (tmp_path / "hft.csv").read_bytes()
    assert (out / "deviations_lt.csv").read_bytes() == (tmp_path / "lt.csv").read_bytes()


def test_simulate_single_agent_deviation_exit_1(config_file, raw_config, tmp_path):
    # the deviation test needs agent 0 plus at least one other agent
    rc = run(["simulate", "--config", config_file(raw_config), "--out", str(tmp_path / "o"),
              "--M", "1"])
    assert rc == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(config_file, raw_config, tmp_path, workers):
    out = tmp_path / "o"
    rc = run(["simulate", "--config", config_file(raw_config), "--out", str(out),
              "--M", "10", "--workers", workers])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["--M", "20", "40", "--seeds", "0"], "--seeds"),   # no seed: NaN medians and slope
    (["--M", "50", "50"], "--M"),                       # a slope through one repeated M
    (["--M", "0"], "--M"),                              # no agent to simulate
    (["--M", "10", "--seed", "-1"], "--seed"),          # no 64-bit stream key
    (["--M", "10", "--seed", str(2**64 - 2), "--seeds", "3"], "--seed"),
], ids=["no-seeds", "repeated-M", "zero-M", "negative-seed", "seed-past-64-bits"])
def test_simulate_rejects_degenerate_sample_flags(config_file, raw_config, tmp_path, capsys,
                                                  args, flag):
    out = tmp_path / "o"
    rc = run(["simulate", "--config", config_file(raw_config), "--out", str(out)] + args)
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-partial", "simulate", "figures"])
def test_out_that_is_a_file_is_an_output_error(config_file, raw_config, tmp_path, capsys,
                                               command):
    out = tmp_path / "o" / "taken"
    out.parent.mkdir()
    out.write_text("not a directory")
    args = {"solve-partial": ["--config", config_file(raw_config)],
            "simulate": ["--config", config_file(raw_config), "--M", "20"],
            "figures": ["--ids", "F1"]}[command]
    assert run([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert os.listdir(out.parent) == ["taken"]
    assert out.read_text() == "not a directory"


def test_simulate_trajectory_dump_guard(config_file, tmp_path):
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 20000
    rc = run(["simulate", "--config", config_file(raw), "--out", str(tmp_path / "o"),
              "--M", "500", "--seeds", "1", "--dump-trajectories"])
    assert rc == 1


def test_simulate_trajectory_dump(config_file, tmp_path):
    out = str(tmp_path / "o")
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 150
    rc = run(["simulate", "--config", config_file(raw), "--out", out,
              "--M", "20", "--seeds", "1", "--dump-trajectories", "--skip-deviation"])
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "trajectory_M20_seed0.csv"))
    assert header == ["time", "agent", "X", "Y"]
    nodes = sum(150 // 10 + 1 for _ in range(10))
    assert len(rows) == 20 * nodes
    assert {r[1] for r in rows} == {str(j) for j in range(20)}


def test_simulate_deterministic_config_zero_metrics(config_file, tmp_path):
    # inventory_bound = 0 pins every starting inventory to the mean, so the
    # single-type population tracks the mean field exactly
    out = str(tmp_path / "o")
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 200
    raw["population"]["inventory_bound"] = 0.0
    rc = run(["simulate", "--config", config_file(raw), "--out", out,
              "--M", "30", "--seeds", "2", "--skip-deviation"])
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "metrics.csv"))
    for r in rows:
        assert float(r[2]) == 0.0 and float(r[3]) == 0.0 and float(r[4]) == 0.0


def test_figures_accumulation_panel_monotone(tmp_path):
    # with no inventory aversion the crowd just accumulates alongside the buys
    out = str(tmp_path / "f")
    assert run(["figures", "--ids", "F2", "--out", out]) == 0
    _, header, rows = read_csv(os.path.join(out, "F02a.csv"))
    E = np.array([float(r[header.index("E_agg")]) for r in rows])
    assert E[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(E) > -1e-9)
    assert E[-1] > 1.0


def test_figures_empty_and_unknown(tmp_path):
    out = str(tmp_path / "f")
    assert run(["figures", "--ids", "--out", out]) == 2
    assert run(["figures", "--out", out]) == 2
    assert not os.path.exists(out) or os.listdir(out) == []
    assert run(["figures", "--ids", "F99", "--out", out]) == 2


@pytest.mark.parametrize("command,flag,value", [
    ("solve-partial", "--seed", "9"), ("solve-partial", "--workers", "2"),
    ("solve-overall", "--seed", "9"), ("solve-overall", "--workers", "2"),
    ("figures", "--config", "cfg.json"), ("figures", "--seed", "9"),
    ("figures", "--grid", "500"), ("figures", "--integrator", "euler"),
    ("validate", "--seed", "9"), ("validate", "--workers", "2"),
    # RK4 is the only integrator, so no command takes an option to choose it
    ("solve-partial", "--integrator", "rk4"), ("solve-overall", "--integrator", "rk4"),
    ("simulate", "--integrator", "rk4"), ("validate", "--integrator", "rk4"),
])
def test_flags_a_command_does_not_read_are_usage_errors(config_file, command, flag, value,
                                                        tmp_path):
    needed = {"solve-partial": ["--config", config_file(base_raw())],
              "solve-overall": ["--config", config_file(base_raw("overall"))],
              "simulate": ["--config", config_file(base_raw()), "--M", "10"],
              "figures": ["--ids", "F1"], "validate": []}
    out = tmp_path / "o"
    assert run([command, *needed[command], "--out", str(out), flag, value]) == 2
    assert not out.exists()


def test_figures_integrate_each_chain_and_h2_once_per_request(tmp_path, monkeypatch):
    calls = {"solve_h2": 0, "solve_chain": 0}

    def counting(name):
        fn = getattr(meanfield, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(meanfield, name, counting(name))
    # F5 and F11 give the crowds of four switch-rate pairs a fixed and the joint schedule;
    # a second request integrates them again, so nothing is kept across requests
    for n in (1, 2):
        assert run(["figures", "--ids", "F5", "F11", "--out", str(tmp_path / f"f{n}")]) == 0
        assert calls == {"solve_h2": 4 * n, "solve_chain": 4 * n}


def test_figures_build_each_engine_once_per_request(tmp_path, monkeypatch):
    builds = []
    init = meanfield.MeanFieldEngine.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(meanfield.MeanFieldEngine, "__init__", counted)
    # F5 fixes the schedule of four crowds, F11 and F12 plot their joint equilibrium
    for n in (1, 2):
        assert run(["figures", "--ids", "F5", "F11", "F12", "--out", str(tmp_path / f"f{n}")]) == 0
        assert len(builds) == 4 * n


def test_figures_solve_each_joint_equilibrium_once_per_request(tmp_path, monkeypatch):
    solves = []

    def counted(cfg, cache=None):
        solves.append(cfg)
        return solve_overall(cfg, cache)

    monkeypatch.setattr(figures, "solve_overall", counted)
    # F6 plots the joint schedule of three crowds and F8 their inventories
    for n in (1, 2):
        assert run(["figures", "--ids", "F6", "F8", "--out", str(tmp_path / f"f{n}")]) == 0
        assert len(solves) == 3 * n


def test_figure_groups_share_engines_and_drop_them(tmp_path):
    specs = figures.figure_specs(grid=400)
    groups = figures.panel_groups([p for fid in ("F3", "F5", "F9", "F11", "F12")
                                   for p in specs[fid].panels])
    assert [[p.name for p in members] for members, _ in groups] == [
        ["F03a", "F09a"]] + [[f"F05{c}", f"F11{c}", f"F12{c}"] for c in "abcd"]
    assert [len(keys) for _, keys in groups] == [25, 1, 1, 1, 1]
    cache = {}
    members, keys = groups[1]
    figures.render_group(members, keys, str(tmp_path), cache)
    assert not keys & cache.keys()
    assert {key[0] for key in cache} == {"chain", "h2"}


def test_figures_byte_identical_across_worker_counts(tmp_path):
    # the F1 and F2 panels form five groups that share the single-type chain, which
    # worker threads may build at the same time; a short switch interval makes such
    # races likely.  F5, F11 and F12 form four groups of three panels each
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            assert run(["figures", "--ids", "F1", "F2", "F5", "F11", "F12", "--out", str(out),
                        "--workers", str(workers)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    finally:
        sys.setswitchinterval(interval)
    assert len(blobs[0]) == 36
    assert blobs[0] == blobs[1]


def test_python_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(hftmfg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for module in ("hftmfg", "hftmfg.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "figures", "--ids", "F99",
                               "--out", str(tmp_path / "f")], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 2, module
        assert "unknown figure id" in proc.stderr, module


def test_figures_scan_has_sign_change(tmp_path):
    out = str(tmp_path / "f")
    rc = run(["figures", "--ids", "F3", "--out", out])
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "F03a.csv"))
    diffs = np.array([float(r[header.index("difference")]) for r in rows])
    signs = np.sign(diffs)
    assert diffs[0] < 0.0 < diffs[-1]
    assert int(np.sum(signs[1:] != signs[:-1])) == 1
    svg = Path(out, "F03a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_figures_panel_files_stable(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["figures", "--ids", "F1", "--out", out1]) == 0
    assert run(["figures", "--ids", "F1", "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == ["F01a.csv", "F01a.svg", "F01b.csv", "F01b.svg", "F01c.csv", "F01c.svg"]
    for n in names:
        assert Path(out1, n).read_bytes() == \
            Path(out2, n).read_bytes()


def test_env_override_applies(config_file, raw_config, tmp_path, monkeypatch):
    out = str(tmp_path / "o")
    monkeypatch.setenv("HFTMFG_SOLVER__GRID_STEPS_PER_UNIT_TIME", "250")
    rc = run(["solve-partial", "--config", config_file(raw_config), "--out", out])
    assert rc == 0
    meta, _, _ = read_csv(os.path.join(out, "equilibrium.csv"))
    assert "grid_steps_per_unit_time=250" in meta


def test_grid_flag_overrides(config_file, raw_config, tmp_path):
    out = str(tmp_path / "o")
    rc = run(["solve-partial", "--config", config_file(raw_config), "--out", out,
              "--grid", "300"])
    assert rc == 0
    meta, _, _ = read_csv(os.path.join(out, "equilibrium.csv"))
    assert "grid_steps_per_unit_time=300" in meta


def test_rerun_byte_identical(config_file, raw_config, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["solve-partial", "--config", config_file(raw_config), "--out", out]) == 0
    for name in os.listdir(out1):
        assert Path(out1, name).read_bytes() == \
            Path(out2, name).read_bytes()



def test_verbose_logs_condition_number_to_stderr_only(config_file, raw_config, tmp_path,
                                                      capsys):
    quiet, loud = str(tmp_path / "quiet"), str(tmp_path / "loud")
    assert run(["solve-partial", "--config", config_file(raw_config), "--out", quiet]) == 0
    assert "condition number" not in capsys.readouterr().err
    assert run(["solve-partial", "-v", "--config", config_file(raw_config), "--out", loud]) == 0
    assert "condition number" in capsys.readouterr().err
    assert sorted(os.listdir(quiet)) == sorted(os.listdir(loud))
    for name in os.listdir(quiet):
        assert Path(quiet, name).read_bytes() == \
            Path(loud, name).read_bytes()


def test_solve_partial_exits_1_on_singular_boundary_system(config_file, tmp_path, capsys):
    # N = 1 at T = 40: the block system over the segment starts has cond ~1e16
    raw = base_raw()
    raw["aversion"]["phi"] = [10.0]
    raw["schedule"].update(T=40.0, times=[4.0 * k for k in range(1, 10)])
    raw["solver"]["grid_steps_per_unit_time"] = 200
    out = tmp_path / "o"
    assert run(["solve-partial", "--config", config_file(raw), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "boundary system" in err and "condition number" in err
    assert not (out / "equilibrium.csv").exists()


def test_solve_partial_exits_1_when_residuals_miss_tolerance(config_file, raw_config,
                                                             tmp_path, capsys):
    raw_config["solver"]["shooting_tolerance"] = 1e-16
    out = tmp_path / "o"
    assert run(["solve-partial", "--config", config_file(raw_config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "solver error:" in captured.err and "exceed tolerance" in captured.err
    assert "WARN" not in captured.out + captured.err
    assert not (out / "equilibrium.csv").exists()


def test_solve_overall_exits_1_on_non_concave_objective(config_file, tmp_path, capsys):
    cfg = presets.overall_single_type(0.0, 0.0, grid=300,
                                      market_overrides={"gammaH": 80.0, "lambdaH": 5.0})
    out = tmp_path / "o"
    assert run(["solve-overall", "--config", config_file(cfg.to_dict()), "--out", str(out)]) == 1
    assert "not negative definite" in capsys.readouterr().err
    assert not (out / "xi_star.csv").exists()


@pytest.mark.slow
def test_config_naming_an_integrator_is_a_configuration_error(config_file, tmp_path, capsys):
    raw = base_raw()
    raw["solver"]["integrator"] = "rk4"
    out = tmp_path / "o"
    assert run(["solve-partial", "--config", config_file(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "configuration error: unknown key(s) in solver: ['integrator']\n"
    assert not out.exists()


MU_AT_TRADES_REFUSED = "configuration error: unknown key(s) in solver: ['mu_at_trades']\n"


@pytest.mark.parametrize("side", ["right", "left"])
def test_config_naming_mu_at_trades_is_a_configuration_error(config_file, tmp_path, capsys,
                                                             side):
    # trades are priced with the right-continuous speed, so a config may not
    # name a side, not even "right"
    raw = base_raw()
    raw["solver"]["mu_at_trades"] = side
    out = tmp_path / "o"
    assert run(["solve-partial", "--config", config_file(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == MU_AT_TRADES_REFUSED
    assert not out.exists()


def test_env_naming_mu_at_trades_is_a_configuration_error(config_file, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setenv("HFTMFG_SOLVER__MU_AT_TRADES", "left")
    out = tmp_path / "o"
    assert run(["solve-overall", "--config", config_file(base_raw("overall")),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == MU_AT_TRADES_REFUSED
    assert not out.exists()


def test_validate_fresh_checkout_passes(tmp_path):
    out = str(tmp_path / "v")
    rc = run(["validate", "--out", out, "--grid", "4000"])
    assert rc == 0
    report = json.loads(Path(out, "validation.json").read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_validate_fault_injection(config_file, tmp_path):
    raw = base_raw()
    raw["aversion"]["Q"] = [[-0.5]]  # row sum fault
    out = str(tmp_path / "v")
    rc = run(["validate", "--out", out, "--config", config_file(raw), "--grid", "1000"])
    report = json.loads(Path(out, "validation.json").read_text())
    byname = {c["name"]: c for c in report["checks"]}
    assert not byname["config-load"]["passed"]
    assert "Q row sum" in byname["config-load"]["detail"]
    assert rc == 1


def test_validate_detects_coarse_grid(tmp_path):
    # oracle equivalence degrades visibly when the grid is coarsened 100x
    out = str(tmp_path / "v")
    rc = run(["validate", "--out", out, "--grid", "100"])
    report = json.loads(Path(out, "validation.json").read_text())
    byname = {c["name"]: c for c in report["checks"]}
    assert not byname["oracle-equivalence"]["passed"]
    assert "sup error" in byname["oracle-equivalence"]["detail"]
    assert rc == 1


def test_simulate_on_the_mean_field_writes_no_slope(tmp_path, capsys):
    # agents that start at E0 = 0 stay on the mean field, so every vbar_l2 median is 0
    cfg = presets.partial_single_type(2.0, 10.0, grid=200, inventory_bound=0.0)
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(cfg))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["simulate", "--config", str(path), "--out", str(out),
                  "--M", "10", "20", "--seeds", "2"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in (out / "slope.csv").read_text()
    _, _, rows = read_csv(out / "slope.csv")
    assert rows == [["vbar_l2_median", "10", "0.0"], ["vbar_l2_median", "20", "0.0"]]
