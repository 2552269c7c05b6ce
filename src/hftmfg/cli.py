"""Command-line front end.

Subcommands: ``solve-partial``, ``solve-overall``, ``simulate``, ``figures``,
``validate``.  Exit codes: 0 success, 1 validation, solver or output failure
(among them a residual that misses its tolerance, or an ``--out`` that cannot
be made a directory), 2 usage error.  The solve commands solve before they
write, so a failed solve leaves no output files.

Configuration values can be overridden per run through environment variables
prefixed with ``HFTMFG_`` (path segments joined by double underscores, e.g.
``HFTMFG_MARKET__GAMMA=2``), and through ``--grid``.  Every command solves
with classic RK4.
``-v/--verbose`` sends the solver's INFO log (boundary- and trade-system
condition numbers) to stderr; it never writes into ``--out``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .config import ModelConfig, load_config
from .errors import ConfigError, SimulationError, SolverError
from .meanfield import solve_partial, speed_jump_size
from .reporting import (plot_columns_from_csv, write_csv, write_equilibrium_csv,
                        write_keyvalue_csv, xi_star_rows)
from . import simulate as _simulate
from .simulate import deviation_gain, lt_deviation_gain
from .strategy import lt_profit, solve_overall


def simulate_population(*args, **kwargs):
    """``hftmfg.simulate.simulate_population``, looked up when called.

    A wrapper installed on either name, ``hftmfg.cli.simulate_population`` or
    ``hftmfg.simulate.simulate_population``, sees every simulation the CLI runs.
    """
    return _simulate.simulate_population(*args, **kwargs)


def _add_flags(p: argparse.ArgumentParser, *, config: bool | None, grid: bool,
               seed: bool = False, workers: bool = False) -> None:
    """Register ``--out``, ``-v`` and the shared flags that the command reads.

    ``config`` is True for a required ``--config``, False for an optional one
    and None for none; ``grid`` adds ``--grid``.
    """
    if config is not None:
        p.add_argument("--config", required=config, help="model configuration JSON")
    p.add_argument("--out", default="out", help="output directory")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="base random seed")
    if grid:
        p.add_argument("--grid", type=int, default=None,
                       help="override solver.grid_steps_per_unit_time")
    if workers:
        p.add_argument("--workers", type=int, default=1, help="task-parallel worker threads")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log solver diagnostics such as condition numbers to stderr")


@contextmanager
def _log_to_stderr(enabled: bool):
    """Send the package's INFO log to stderr while one command runs."""
    if not enabled:
        yield
        return
    log = logging.getLogger("hftmfg")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _load(args, mode: str | None = None) -> ModelConfig:
    cfg = load_config(args.config)
    if args.grid is not None:
        cfg = cfg.with_solver(grid_steps_per_unit_time=args.grid)
    if mode is not None and cfg.mode != mode:
        article = "an" if mode == "overall" else "a"
        raise ConfigError(f"this command requires {article} {mode}-mode configuration")
    return cfg


def cmd_solve_partial(args) -> int:
    cfg = _load(args, "partial")
    os.makedirs(args.out, exist_ok=True)
    sol = solve_partial(cfg)
    eq_csv = os.path.join(args.out, "equilibrium.csv")
    write_equilibrium_csv(eq_csv, sol, cfg)
    r = sol.residuals
    rows = [[k, float(sol.grid.bounds[k]), speed_jump_size(cfg.market, float(sol.xi[k - 1])),
             float(abs(r.jump_aggregate[k - 1])), float(np.max(np.abs(r.jump_by_state[k - 1])))]
            for k in range(1, sol.grid.n_segments)]
    write_csv(os.path.join(args.out, "residuals.csv"),
              ["k", "t_k", "expected_jump", "residual_aggregate", "residual_state_max"],
              rows, cfg, terminal=repr(r.terminal), initial=repr(r.initial),
              condition_number=repr(r.condition_number))
    plot_columns_from_csv(eq_csv, os.path.join(args.out, "equilibrium_E.svg"),
                          "time", ["E_agg"], title="crowd mean inventory")
    plot_columns_from_csv(eq_csv, os.path.join(args.out, "equilibrium_mu.svg"),
                          "time", ["mu_agg"], title="crowd mean trading speed")
    print(f"wrote equilibrium outputs to {args.out}")
    return 0


def cmd_solve_overall(args) -> int:
    cfg = _load(args, "overall")
    os.makedirs(args.out, exist_ok=True)
    eq = solve_overall(cfg)
    write_csv(os.path.join(args.out, "xi_star.csv"), *xi_star_rows(cfg.schedule.times, eq.xi_star),
              cfg, fixed_point_residual=repr(eq.fixed_point_residual))
    write_equilibrium_csv(os.path.join(args.out, "equilibrium.csv"), eq.mean_field, cfg)
    rep = lt_profit(cfg, eq.mean_field)
    write_keyvalue_csv(os.path.join(args.out, "profit.csv"),
                       {"profit_no_hft": rep.profit_no_hft,
                        "profit_with_hft": rep.profit_with_hft,
                        "difference": rep.difference}, cfg)
    write_csv(os.path.join(args.out, "concavity.csv"), ["eigenvalue"],
              [[float(v)] for v in eq.concavity.eigenvalues], cfg,
              negative_definite=eq.concavity.negative_definite)
    print(f"wrote joint-equilibrium outputs to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    if cfg.mode == "overall":
        overall = solve_overall(cfg)
        eq = overall.mean_field
    else:
        overall = None
        eq = solve_partial(cfg)

    Ms = list(args.M)
    seeds = [args.seed + i for i in range(args.seeds)]

    if args.dump_trajectories:
        nodes = eq.grid.total_level0_nodes()
        worst = max(Ms) * nodes
        if worst > 1_000_000:
            print(f"refusing trajectory dump: {worst} rows exceed the 1e6 guard",
                  file=sys.stderr)
            return 1

    def run(M):
        # every seed of one M runs as one stacked population
        rows = []
        for seed, (traj, met) in zip(seeds, simulate_population(
                cfg, eq, M, seeds, record_paths=args.dump_trajectories)):
            row = {"metrics": [M, seed, met.theta_dev, met.Z_dev, met.vbar_l2]}
            if not args.skip_deviation:
                dev = deviation_gain(cfg, eq, traj)
                row["hft"] = [M, seed, dev.j_mfg, dev.j_best, dev.gain]
                if overall is not None:
                    lt = lt_deviation_gain(cfg, overall, traj)
                    row["lt"] = [M, seed, lt.psi_mfg, lt.psi_best, lt.gain]
            if args.dump_trajectories:
                row["traj"] = (M, seed, traj)
            rows.append(row)
        return rows

    try:
        if args.workers > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                groups = list(pool.map(run, Ms))
        else:
            groups = [run(M) for M in Ms]
    except (SimulationError, SolverError) as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 1
    results = [row for rows in groups for row in rows]

    write_csv(os.path.join(args.out, "metrics.csv"),
              ["M", "seed", "theta_dev", "Z_dev", "vbar_l2"],
              [r["metrics"] for r in results], cfg)
    if not args.skip_deviation:
        write_csv(os.path.join(args.out, "deviations_hft.csv"),
                  ["M", "seed", "j_mfg", "j_best", "gain"],
                  [r["hft"] for r in results], cfg)
        if overall is not None:
            write_csv(os.path.join(args.out, "deviations_lt.csv"),
                      ["M", "seed", "psi_mfg", "psi_best", "gain"],
                      [r["lt"] for r in results], cfg)
    if len(Ms) >= 2:
        med = []
        for M in Ms:
            vals = [r["metrics"][4] for r in results if r["metrics"][0] == M]
            med.append((M, float(np.median(vals))))
        rows = [["vbar_l2_median", M, v] for M, v in med]
        # a zero median (a population exactly on the mean field) has no log-log slope
        if all(v > 0.0 for _, v in med):
            logm = np.log([m for m, _ in med])
            logv = np.log([v for _, v in med])
            rows.append(["vbar_l2_loglog_slope", "", float(np.polyfit(logm, logv, 1)[0])])
        write_csv(os.path.join(args.out, "slope.csv"), ["quantity", "M", "value"], rows, cfg)
    if args.dump_trajectories:
        for r in results:
            M, seed, traj = r["traj"]
            rows = []
            for s, (segX, segY) in enumerate(zip(traj.paths_X, traj.paths_Y)):
                for t, X, Y in zip(eq.grid.level0_times(s).tolist(), segX.tolist(),
                                   segY.tolist()):
                    rows.extend([t, j, x, y] for j, (x, y) in enumerate(zip(X, Y)))
            write_csv(os.path.join(args.out, f"trajectory_M{M}_seed{seed}.csv"),
                      ["time", "agent", "X", "Y"], rows, cfg)
    print(f"wrote simulation outputs for {len(results)} runs to {args.out}")
    return 0


def cmd_figures(args) -> int:
    from .figures import figure_specs, panel_groups, render_group
    specs = figure_specs()
    ids = list(args.ids)
    unknown = [fid for fid in ids if fid not in specs]
    if unknown:
        print(f"unknown figure id(s): {unknown}; known: {sorted(specs)}", file=sys.stderr)
        return 2
    panels = [p for fid in ids for p in specs[fid].panels]
    # chains and h2 shared by this invocation's panels; each group's engines
    # only while the group renders
    cache = {}

    def run(group):
        members, keys = group
        return zip(members, render_group(members, keys, args.out, cache))

    groups = panel_groups(panels)
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            written = list(pool.map(run, groups))
    else:
        written = [run(g) for g in groups]
    paths = {panel.name: files for group in written for panel, files in group}
    for panel in panels:
        for path in paths[panel.name]:
            print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    from .validate import run_validation
    report = run_validation(
        out_path=os.path.join(args.out, "validation.json"),
        config_path=args.config,
        grid=args.grid if args.grid is not None else 10000)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hftmfg",
        description="crowd/large-trader equilibrium solver and finite-population validator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-partial", help="crowd equilibrium for a fixed schedule")
    _add_flags(p, config=True, grid=True)
    p.set_defaults(fn=cmd_solve_partial)

    p = sub.add_parser("solve-overall", help="joint trader/crowd equilibrium")
    _add_flags(p, config=True, grid=True)
    p.set_defaults(fn=cmd_solve_overall)

    p = sub.add_parser("simulate", help="finite-population convergence and deviation tests")
    _add_flags(p, config=True, grid=True, seed=True, workers=True)
    p.add_argument("--M", type=int, nargs="+", required=True, help="population sizes")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds (from --seed)")
    p.add_argument("--skip-deviation", action="store_true")
    p.add_argument("--dump-trajectories", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("figures", help="reproduce built-in figure sweeps")
    _add_flags(p, config=None, grid=False, workers=True)
    p.add_argument("--ids", nargs="+", required=True, help="figure ids (F1..F12)")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("validate", help="run the invariant suite")
    _add_flags(p, config=False, grid=True)
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            parser.error(f"--workers must be at least 1, got {args.workers}")
        if args.command == "simulate":
            if args.seeds < 1:
                parser.error(f"--seeds must be at least 1, got {args.seeds}")
            if args.seed < 0 or args.seed + args.seeds > 1 << 64:
                parser.error("--seed through --seed + --seeds - 1 must lie in [0, 2^64), "
                             f"got {args.seed} through {args.seed + args.seeds - 1}")
            if min(args.M) < 1:
                parser.error(f"--M values must be at least 1, got {args.M}")
            if len(set(args.M)) < len(args.M):
                parser.error(f"--M values must be distinct, got {args.M}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with _log_to_stderr(args.verbose):
            return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SimulationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
