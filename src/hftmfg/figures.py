"""Built-in figure presets reproducing the numerical study.

Each figure id maps to a list of panels; every panel emits one CSV and one
SVG with stable file names.  Sweeps:

  F1  crowd mean inventory, single type, phi=0, Gamma in {0, 0.1, 2}
  F2  crowd mean inventory, single type, Gamma=0, phi in {0, 5, 10}
  F3  profit difference vs lambdaH scan (phi=10, Gamma=2), fixed schedule
  F4  crowd mean inventory, two types (phi, Gamma) = (0,0) and (10,2),
      switch rates (x, y) in {(0,0), (0.2,0.8), (0.5,0.5), (0.8,0.2)}
  F5  same with types (0,2) and (10,0)
  F6  optimal trade schedule, single type, phi=0, Gamma in {0, 0.1, 2}
  F7  optimal trade schedule, single type, Gamma=0, phi in {0, 1, 5}
  F8  crowd mean inventory under the joint equilibrium, phi=0 Gamma sweep
  F9  profit difference vs lambdaH scan under the joint equilibrium
  F10 crowd mean inventory under the joint equilibrium, Gamma=0 phi sweep
  F11 optimal trade schedule, two types (0,2) and (10,0), (x, y) grid
  F12 crowd mean inventory for the same two-type joint equilibria
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import presets
from .config import ModelConfig
from .meanfield import engine_key, solve_partial
from .reporting import plot_columns_from_csv, write_csv, write_equilibrium_csv, xi_star_rows
from .strategy import lt_profit, solve_overall

XY_GRID = ((0.0, 0.0), (0.2, 0.8), (0.5, 0.5), (0.8, 0.2))
SCAN_GAMMA, SCAN_PHI = 2.0, 10.0     # the crowd of the lambdaH scans
SCAN_GRID = 1000


@dataclass(frozen=True)
class PanelSpec:
    name: str              # file stem, e.g. "F01a"
    kind: str              # partial_E | overall_xi | overall_E | scan_lamH
    cfg: ModelConfig | None
    label: str
    scan: tuple | None = None   # (mode, lamH values) for scans


@dataclass(frozen=True)
class FigureSpec:
    panels: tuple[PanelSpec, ...]


def _letters(n: int):
    return "abcdefghijklmnopqrstuvwxyz"[:n]


def _panels(fid, kind, cfgs, labels):
    num = int(fid[1:])
    return tuple(PanelSpec(f"F{num:02d}{ch}", kind, cfg, lab)
                 for ch, cfg, lab in zip(_letters(len(cfgs)), cfgs, labels))


def figure_specs(grid: int = 2000) -> dict[str, FigureSpec]:
    gam_sweep = (0.0, 0.1, 2.0)
    phi_sweep = (0.0, 5.0, 10.0)
    phi_sweep_lt = (0.0, 1.0, 5.0)
    specs = {}

    specs["F1"] = FigureSpec(_panels(
        "F1", "partial_E",
        [presets.partial_single_type(g, 0.0, grid=grid) for g in gam_sweep],
        [f"Gamma={g}" for g in gam_sweep]))
    specs["F2"] = FigureSpec(_panels(
        "F2", "partial_E",
        [presets.partial_single_type(0.0, p, grid=grid) for p in phi_sweep],
        [f"phi={p}" for p in phi_sweep]))
    specs["F3"] = FigureSpec((
        PanelSpec("F03a", "scan_lamH", None, "phi=10 Gamma=2",
                  ("partial", tuple(presets.lamH_scan_values()))),))
    specs["F4"] = FigureSpec(_panels(
        "F4", "partial_E",
        [presets.partial_two_type(phi=(0.0, 10.0), Gamma=(0.0, 2.0), x=x, y=y, grid=grid)
         for x, y in XY_GRID],
        [f"x={x} y={y}" for x, y in XY_GRID]))
    specs["F5"] = FigureSpec(_panels(
        "F5", "partial_E",
        [presets.partial_two_type(phi=(0.0, 10.0), Gamma=(2.0, 0.0), x=x, y=y, grid=grid)
         for x, y in XY_GRID],
        [f"x={x} y={y}" for x, y in XY_GRID]))
    specs["F6"] = FigureSpec(_panels(
        "F6", "overall_xi",
        [presets.overall_single_type(g, 0.0, grid=grid) for g in gam_sweep],
        [f"Gamma={g}" for g in gam_sweep]))
    specs["F7"] = FigureSpec(_panels(
        "F7", "overall_xi",
        [presets.overall_single_type(0.0, p, grid=grid) for p in phi_sweep_lt],
        [f"phi={p}" for p in phi_sweep_lt]))
    specs["F8"] = FigureSpec(_panels(
        "F8", "overall_E",
        [presets.overall_single_type(g, 0.0, grid=grid) for g in gam_sweep],
        [f"Gamma={g}" for g in gam_sweep]))
    specs["F9"] = FigureSpec((
        PanelSpec("F09a", "scan_lamH", None, "phi=10 Gamma=2",
                  ("overall", tuple(presets.lamH_scan_values()))),))
    specs["F10"] = FigureSpec(_panels(
        "F10", "overall_E",
        [presets.overall_single_type(0.0, p, grid=grid) for p in phi_sweep_lt],
        [f"phi={p}" for p in phi_sweep_lt]))
    specs["F11"] = FigureSpec(_panels(
        "F11", "overall_xi",
        [presets.overall_two_type(phi=(0.0, 10.0), Gamma=(2.0, 0.0), x=x, y=y, grid=grid)
         for x, y in XY_GRID],
        [f"x={x} y={y}" for x, y in XY_GRID]))
    specs["F12"] = FigureSpec(_panels(
        "F12", "overall_E",
        [presets.overall_two_type(phi=(0.0, 10.0), Gamma=(2.0, 0.0), x=x, y=y, grid=grid)
         for x, y in XY_GRID],
        [f"x={x} y={y}" for x, y in XY_GRID]))
    return specs


def _scan_cfg(mode: str, lam_h, grid: int) -> ModelConfig:
    make = presets.partial_single_type if mode == "partial" else presets.overall_single_type
    return make(SCAN_GAMMA, SCAN_PHI, grid=grid, market_overrides={"lambdaH": float(lam_h)})


def profit_difference_scan(mode: str, lam_values, grid: int = SCAN_GRID,
                           cache: dict | None = None):
    """Profit with/without the crowd across temporary-impact values.

    The crowd (Gamma = 2, phi = 10) is the same at every lambdaH, so the scan
    integrates its chain and h2 once, through ``cache`` or a dict of its own.
    """
    cache = {} if cache is None else cache
    rows = []
    for lam_h in lam_values:
        cfg = _scan_cfg(mode, lam_h, grid)
        if mode == "partial":
            sol = solve_partial(cfg, cache=cache)
            rep = lt_profit(cfg, sol)
        else:
            eq = solve_overall(cfg, cache)
            rep = lt_profit(cfg, eq.mean_field)
        rows.append([float(lam_h), rep.profit_no_hft, rep.profit_with_hft, rep.difference])
    return rows


def panel_engine_keys(panel: PanelSpec) -> set:
    """The ``engine_key`` of every crowd the panel solves."""
    if panel.kind == "scan_lamH":
        mode, lam_values = panel.scan
        return {engine_key(_scan_cfg(mode, lam_h, SCAN_GRID)) for lam_h in lam_values}
    return {engine_key(panel.cfg)}


def panel_groups(panels) -> list[tuple[list[PanelSpec], set]]:
    """(panels, engine keys) per group, in the order of each group's first
    panel; a panel joins the first group it shares an engine key with."""
    groups = []
    for panel in panels:
        keys = panel_engine_keys(panel)
        group = next((g for g in groups if g[1] & keys), None)
        if group is None:
            groups.append(([panel], keys))
        else:
            group[0].append(panel)
            group[1].update(keys)
    return groups


def render_group(panels: list[PanelSpec], keys: set, out_dir: str,
                 cache: dict) -> list[list[str]]:
    """``render_panel`` for each of ``panels``, then drop the engines under
    ``keys`` from ``cache``; the chains and h2 stay for other groups."""
    try:
        return [render_panel(panel, out_dir, cache) for panel in panels]
    finally:
        for key in keys:
            cache.pop(key, None)


def render_panel(panel: PanelSpec, out_dir: str, cache: dict | None = None) -> list[str]:
    """Write the panel's CSV and SVG; ``cache`` is passed to every solve."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{panel.name}.csv")
    svg_path = os.path.join(out_dir, f"{panel.name}.svg")
    if panel.kind == "partial_E":
        sol = solve_partial(panel.cfg, cache=cache)
        write_equilibrium_csv(csv_path, sol, panel.cfg)
        plot_columns_from_csv(csv_path, svg_path, "time", ["E_agg"],
                              title=f"{panel.name} {panel.label}")
    elif panel.kind == "overall_E":
        eq = solve_overall(panel.cfg, cache)
        write_equilibrium_csv(csv_path, eq.mean_field, panel.cfg)
        plot_columns_from_csv(csv_path, svg_path, "time", ["E_agg"],
                              title=f"{panel.name} {panel.label}")
    elif panel.kind == "overall_xi":
        eq = solve_overall(panel.cfg, cache)
        write_csv(csv_path, *xi_star_rows(panel.cfg.schedule.times, eq.xi_star), panel.cfg)
        plot_columns_from_csv(csv_path, svg_path, "t_k", ["xi_star_k"],
                              title=f"{panel.name} {panel.label}", kind="bar")
    elif panel.kind == "scan_lamH":
        mode, lam_values = panel.scan
        rows = profit_difference_scan(mode, lam_values, cache=cache)
        write_csv(csv_path, ["lambdaH", "profit_no_hft", "profit_with_hft", "difference"],
                  rows, None, scan=mode)
        plot_columns_from_csv(csv_path, svg_path, "lambdaH", ["difference"],
                              title=f"{panel.name} {panel.label}")
    else:
        raise ValueError(f"unknown panel kind {panel.kind!r}")
    return [csv_path, svg_path]
