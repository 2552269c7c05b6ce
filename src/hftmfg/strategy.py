"""Large trader best response, the joint equilibrium, and profit analytics.

With the mean field held fixed, the large trader's expected revenue is a
strictly concave quadratic in the trade vector under the completion
constraint sum(xi) = -xi0, and the first-order condition gives, for k < K,

    xi_k = -xi0/K + (D_k - (1/K) sum_{j<K} D_j) / (gamma + 2 (lambda + eta0)),
    D_k  = gammaH (E(t_K) - E(t_k)) + lambdaH (mu(t_K) - mu(t_k)),

with xi_K absorbing the remainder; revenue is counted from the initial
price P0, which cancels from every comparison.  In the
joint equilibrium the schedule is the best response to the mean field it
induces.  The mean field at the trade times is linear in (E0, xi), so the
best response is affine in the trades, xi -> G xi + g, and its fixed point
is one (K-1)-dimensional linear system.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import SolverError
from .meanfield import COND_ABORT, MeanFieldSolution, shared_engine

logger = logging.getLogger(__name__)

FIXED_POINT_TOL = 1e-6


def best_response_values(E_k: np.ndarray, mu_k: np.ndarray, xi0: float,
                         cfg: ModelConfig) -> np.ndarray:
    """First-order-condition trades from sampled aggregates at the trade times."""
    K = len(E_k)
    if K == 0:
        return np.zeros(0)
    m = cfg.market
    cstar = 1.0 / (m.gamma + 2.0 * (m.lam + m.eta0))
    D = m.gamma_h * (E_k[-1] - E_k) + m.lam_h * (mu_k[-1] - mu_k)
    xi = np.empty(K)
    if K > 1:
        S = float(np.sum(D[:-1]))
        xi[:-1] = -xi0 / K + cstar * (D[:-1] - S / K)
    xi[-1] = -xi0 - float(np.sum(xi[:-1]))
    return xi


def lt_best_response(mean_field: MeanFieldSolution, cfg: ModelConfig) -> np.ndarray:
    """Optimal trades against a fixed mean field (empty schedule -> empty vector)."""
    xi0 = cfg.schedule.xi0 if cfg.schedule.xi0 is not None else 0.0
    return best_response_values(mean_field.E_at_trades(), mean_field.mu_at_trades(),
                                float(xi0), cfg)


@dataclass(frozen=True)
class ProfitReport:
    profit_no_hft: float
    profit_with_hft: float
    difference: float


def profit_without_crowd(cfg: ModelConfig, xi: np.ndarray) -> float:
    """Expected revenue -sum_k xi_k (P_k - P0) with no fast-trader crowd in the market."""
    xi = np.asarray(xi, dtype=float)
    m = cfg.market
    running = float(np.sum(xi * np.cumsum(xi)))
    return -m.gamma * running - (m.lam + m.eta0) * float(np.sum(xi * xi))


def profit_from_aggregates(cfg: ModelConfig, xi, E_k: np.ndarray, E_start: float,
                           mu_k: np.ndarray) -> ProfitReport:
    """Expected revenue with and without the crowd's extra price impact.

    ``E_k`` and ``mu_k`` are the crowd's aggregate inventory and speed at the
    trade times, ``E_start`` its inventory at time 0; they may come from the
    mean field or from a simulated population.  All three vectors need one
    entry per trade time.
    """
    xi = np.asarray(xi, dtype=float)
    if not len(xi) == len(E_k) == len(mu_k):
        raise ValueError(f"xi has {len(xi)} entries, the aggregates {len(E_k)} and "
                         f"{len(mu_k)}; each needs one per trade time")
    m = cfg.market
    base = profit_without_crowd(cfg, xi)
    diff = float(np.sum(-xi * (m.gamma_h * (E_k - E_start) + m.lam_h * mu_k)))
    return ProfitReport(base, base + diff, diff)


def lt_profit(cfg: ModelConfig, mean_field: MeanFieldSolution) -> ProfitReport:
    """Expected revenue of the schedule ``mean_field.xi`` against the mean field it
    induces, with and without its price impact."""
    return profit_from_aggregates(cfg, mean_field.xi, mean_field.E_at_trades(),
                                  mean_field.E_agg_initial(), mean_field.mu_at_trades())


@dataclass(frozen=True)
class ConcavityReport:
    eigenvalues: np.ndarray
    negative_definite: bool
    max_eigenvalue: float


def concavity_check(cfg: ModelConfig, basis_E: np.ndarray, basis_mu: np.ndarray) -> ConcavityReport:
    """Negative definiteness of the substituted objective in the free trades.

    ``basis_E[k, m]`` is the aggregate-inventory response at t_k to a unit
    trade at t_m (``basis_mu`` likewise for the speed).  The Hessian is
    -gamma (11^T + I) - 2 (lambda + eta0) I - (R + R^T) with
    R = gammaH basis_E + lambdaH basis_mu, restricted to the constraint's
    free coordinates.
    """
    m = cfg.market
    K = basis_E.shape[0]
    if K <= 1:
        return ConcavityReport(np.zeros(0), True, float("-inf"))
    ones = np.ones((K, K))
    R = m.gamma_h * basis_E + m.lam_h * basis_mu
    H = -m.gamma * (ones + np.eye(K)) - 2.0 * (m.lam + m.eta0) * np.eye(K) - (R + R.T)
    M = np.vstack([np.eye(K - 1), -np.ones(K - 1)])
    Hz = M.T @ H @ M
    eig = np.linalg.eigvalsh(0.5 * (Hz + Hz.T))
    return ConcavityReport(eig, bool(eig.max() < 0.0), float(eig.max()))


@dataclass(frozen=True)
class OverallEquilibrium:
    xi_star: np.ndarray
    mean_field: MeanFieldSolution
    concavity: ConcavityReport
    fixed_point_residual: float


def solve_overall(cfg: ModelConfig, cache: dict | None = None) -> OverallEquilibrium:
    """Joint equilibrium: the schedule that is the best response to the mean field it induces.

    ``cache`` as in ``MeanFieldEngine``.  Raises ``SolverError`` when the
    fixed-point residual exceeds ``FIXED_POINT_TOL`` or the objective with the
    crowd's response substituted is not negative definite.
    """
    if cfg.mode != "overall":
        raise ValueError("solve_overall requires an overall-mode configuration")
    engine = shared_engine(cfg, cache)
    N = cfg.n_states
    K = cfg.schedule.K
    xi0 = float(cfg.schedule.xi0)
    E0 = cfg.population.E0

    if K <= 1:
        # the completion constraint alone fixes the schedule
        bE = bMu = np.zeros((K, K))
        xi_star = best_response_values(np.zeros(K), np.zeros(K), xi0, cfg)
    else:
        def at_trades(E0_i, xi):
            sol = engine.solve(E0_i, xi)
            return sol.E_at_trades(), sol.mu_at_trades()

        # mean field at the trades in response to unit E0 components and unit trades
        initial = [at_trades(e, np.zeros(K)) for e in np.eye(N)]
        trades = [at_trades(np.zeros(N), e) for e in np.eye(K)]
        bE = np.column_stack([E for E, _ in trades])
        bMu = np.column_stack([mu for _, mu in trades])
        cE0 = sum(c * E for c, (E, _) in zip(E0, initial))
        cMu0 = sum(c * mu for c, (_, mu) in zip(E0, initial))

        # the best response to the field of xi is G xi + g
        G = np.column_stack([best_response_values(bE[:, j], bMu[:, j], 0.0, cfg)
                             for j in range(K)])
        g = best_response_values(cE0, cMu0, xi0, cfg)

        # fixed point in z = xi[:-1], with xi_K = -xi0 - sum(z)
        A_sys = np.eye(K - 1) - G[:-1, :-1] + G[:-1, -1:]
        rhs = g[:-1] - xi0 * G[:-1, -1]
        cond = float(np.linalg.cond(A_sys))
        logger.info("trade system condition number: %.3e", cond)
        if not np.isfinite(cond) or cond > COND_ABORT:
            raise SolverError(f"trade-vector system is numerically singular (cond {cond:.3e})")
        z = np.linalg.solve(A_sys, rhs)
        xi_star = np.append(z, -xi0 - float(np.sum(z)))

    mean_field = engine.solve(E0, xi_star)
    br = lt_best_response(mean_field, cfg)
    residual = float(np.max(np.abs(br - xi_star), initial=0.0))
    if not residual <= FIXED_POINT_TOL:      # NaN fails too
        raise SolverError(f"equilibrium fixed-point residual {residual:.3e} exceeds "
                          f"{FIXED_POINT_TOL:g}")

    concavity = concavity_check(cfg, bE, bMu)
    if not concavity.negative_definite:
        raise SolverError(f"substituted objective is not negative definite (max eigenvalue "
                          f"{concavity.max_eigenvalue:.3e}); the solved trade vector is "
                          "not an equilibrium")

    return OverallEquilibrium(xi_star=xi_star, mean_field=mean_field,
                              concavity=concavity, fixed_point_residual=residual)
