"""Built-in configurations for figures, validation and tests.

The shared setting: horizon T = 1, nine unit buy trades at t_k = k/10,
gamma = 1, gammaH = 0.7, lambda = 0.4, lambdaH = 0.1, eta = eta0 = 0.05,
crowd starting flat (E0 = 0).
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig, config_from_dict

BASE_MARKET = {"gamma": 1.0, "gammaH": 0.7, "lambda": 0.4, "lambdaH": 0.1,
               "eta": 0.05, "eta0": 0.05, "sigma": 0.0}
TRADE_TIMES = [k / 10.0 for k in range(1, 10)]


def _raw(mode: str, market: dict, aversion: dict, schedule: dict,
         E0, inventory_bound: float, grid: int) -> dict:
    return {
        "mode": mode,
        "market": market,
        "aversion": aversion,
        "schedule": schedule,
        "population": {"E0": list(E0), "inventory_bound": inventory_bound},
        "solver": {"grid_steps_per_unit_time": grid, "shooting_tolerance": 1e-6},
    }


def partial_single_type(Gamma: float = 2.0, phi: float = 0.0, *, grid: int = 2000,
                        sigma: float = 0.0, market_overrides: dict | None = None,
                        quantities=None, inventory_bound: float = 1.0) -> ModelConfig:
    market = dict(BASE_MARKET, sigma=sigma, **(market_overrides or {}))
    q = list(np.ones(len(TRADE_TIMES))) if quantities is None else list(quantities)
    raw = _raw(
        "partial", market,
        {"Gamma": [Gamma], "phi": [phi], "Q": [[0.0]], "p0": [1.0]},
        {"T": 1.0, "times": TRADE_TIMES, "quantities": q},
        [0.0], inventory_bound, grid)
    return config_from_dict(raw)


def partial_two_type(phi=(0.0, 10.0), Gamma=(0.0, 2.0), x: float = 0.5, y: float = 0.5,
                     *, grid: int = 2000, market_overrides: dict | None = None,
                     inventory_bound: float = 1.0) -> ModelConfig:
    market = dict(BASE_MARKET, **(market_overrides or {}))
    raw = _raw(
        "partial", market,
        {"Gamma": list(Gamma), "phi": list(phi),
         "Q": [[-x, x], [y, -y]], "p0": [0.5, 0.5]},
        {"T": 1.0, "times": TRADE_TIMES, "quantities": list(np.ones(len(TRADE_TIMES)))},
        [0.0, 0.0], inventory_bound, grid)
    return config_from_dict(raw)


def overall_single_type(Gamma: float = 0.0, phi: float = 0.0, *, xi0: float = -9.0,
                        grid: int = 2000, market_overrides: dict | None = None,
                        inventory_bound: float = 1.0) -> ModelConfig:
    market = dict(BASE_MARKET, **(market_overrides or {}))
    raw = _raw(
        "overall", market,
        {"Gamma": [Gamma], "phi": [phi], "Q": [[0.0]], "p0": [1.0]},
        {"T": 1.0, "times": TRADE_TIMES, "xi0": xi0},
        [0.0], inventory_bound, grid)
    return config_from_dict(raw)


def overall_two_type(phi=(0.0, 10.0), Gamma=(2.0, 0.0), x: float = 0.5, y: float = 0.5,
                     *, xi0: float = -9.0, grid: int = 2000,
                     market_overrides: dict | None = None,
                     inventory_bound: float = 1.0) -> ModelConfig:
    market = dict(BASE_MARKET, **(market_overrides or {}))
    raw = _raw(
        "overall", market,
        {"Gamma": list(Gamma), "phi": list(phi),
         "Q": [[-x, x], [y, -y]], "p0": [0.5, 0.5]},
        {"T": 1.0, "times": TRADE_TIMES, "xi0": xi0},
        [0.0, 0.0], inventory_bound, grid)
    return config_from_dict(raw)


def lamH_scan_values(n: int = 25) -> np.ndarray:
    return np.linspace(0.02, 1.0, n)
