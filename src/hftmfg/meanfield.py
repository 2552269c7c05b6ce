"""Mean-field equilibrium of the crowd for a fixed trade schedule.

Between trades the per-state averages (mu, E) satisfy a linear system

    d/dt [mu; E] = A(t) [mu; E],
    A = [[A1, A2], [I, p_Q]],
    A1 = -B^{-1} (gammaH e p^T + 2 eta Q + lambdaH e p^T Q),
    A2 = 2 B^{-1} (H p_Q + Phi + Q H),      B = 2 eta I + lambdaH e p^T,

with H = diag(h2), Phi = diag(phi_i - (Q h2)_i).  B is always invertible
(det = (2 eta)^(N-1) (lambdaH + 2 eta)); its inverse is applied through the
rank-one update formula.  At each trade time the speeds jump down by
gamma*xi_k/(lambdaH + 2 eta) while E stays continuous, the terminal condition
is B mu(T) + 2 diag(Gamma) E(T) = 0, and E(0) = E0.

The solver builds the fundamental matrices of dU = A U dt on each segment
from the RK4 step maps, composed by a prefix scan (see ``affine``),
each re-anchored to the identity at its segment start, so the propagator V_s
spans one inter-trade interval only.  The unknowns are the states
z_s = [mu; E] at the segment starts (multiple shooting anchored at the trade
times).  With E(z_0) = E0 substituted, the speed jumps z_{s+1} - V_s z_s =
-jump_s [1; 0] and the terminal coupling form one square block-bidiagonal
linear system: the problem is linear, so the shooting needs no iteration.
The initial, jump and terminal residuals of every solution are checked
against ``solver.shooting_tolerance``, and one that misses it (or is NaN)
raises ``SolverError``.  They, and the aggregates at the trade times, are read
from the states at the segment ends, V_s z_s and z_s; the fine-mesh curves
are reconstructed from the fundamental matrices only when first read.

The block system's conditioning grows roughly with the largest single-segment
propagator, not with their product as in single shooting, which condenses
every segment into one N x N terminal system.  On two-state presets that
product exceeds 1e12 by T = 3, and single-state crowds lose every digit
by T = 10.  Its condition number is checked against ``COND_ABORT`` when the
engine is built.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import astuple, dataclass, field
from functools import partial

import numpy as np

from .affine import rk_step, step_maps, trajectory
from .chain import pq_batch, solve_chain
from .config import AversionSpec, MarketParams, ModelConfig
from .errors import ConfigError, SolverError
from .grid import PiecewiseCurve, TimeGrid, make_grid, trade_values, weighted_aggregate
from .riccati import solve_h2

logger = logging.getLogger(__name__)

COND_ABORT = 1e12


def default_grid(cfg: ModelConfig) -> TimeGrid:
    return make_grid(cfg.schedule.T, cfg.schedule.times, cfg.solver.grid_steps_per_unit_time)


def speed_jump_size(market: MarketParams, xi_k: float) -> float:
    """Drop of the aggregate speed at a trade of size xi_k."""
    return market.gamma * xi_k / (market.lam_h + 2.0 * market.eta)


def assemble_A_batch(P: np.ndarray, H2: np.ndarray, aversion: AversionSpec,
                     market: MarketParams) -> np.ndarray:
    """System matrices for a batch of (p, h2) samples, shape (n, 2N, 2N)."""
    n, N = P.shape
    eta, lam_h, gamma_h = market.eta, market.lam_h, market.gamma_h
    Q = np.asarray(aversion.Q, dtype=float)
    phi = np.asarray(aversion.phi, dtype=float)

    s = P.sum(axis=1)
    alpha = lam_h / (2.0 * eta + lam_h * s)          # rank-one inverse coefficient

    def apply_binv(M):
        pM = np.einsum("ni,nij->nj", P, M)
        return (M - alpha[:, None, None] * pM[:, None, :]) / (2.0 * eta)

    PQ = pq_batch(P, Q)
    ep = np.broadcast_to(P[:, None, :], (n, N, N))   # rows all equal p^T
    pTQ = P @ Q
    R1 = gamma_h * ep + 2.0 * eta * Q[None, :, :] + lam_h * pTQ[:, None, :]
    A1 = -apply_binv(R1)

    M2 = H2[:, :, None] * PQ + Q[None, :, :] * H2[:, None, :]
    idx = np.arange(N)
    phid = phi[None, :] - H2 @ Q.T                   # diagonal of Phi
    M2 = M2.copy()
    M2[:, idx, idx] += phid
    A2 = 2.0 * apply_binv(M2)

    A = np.zeros((n, 2 * N, 2 * N))
    A[:, :N, :N] = A1
    A[:, :N, N:] = A2
    A[:, N:, :N] = np.eye(N)
    A[:, N:, N:] = PQ
    return A


@dataclass(frozen=True)
class ResidualReport:
    terminal: float                 # ||B mu(T) + 2 Gamma E(T)||_2
    initial: float                  # max |E(0) - E0|
    jump_aggregate: np.ndarray      # (K,) aggregate-speed jump residuals
    jump_by_state: np.ndarray       # (K, N) per-state jump residuals
    condition_number: float         # of the linear system the solver solved

    @property
    def worst_jump(self) -> float:
        return float(np.max(np.abs(self.jump_by_state), initial=0.0))


def _residual_report(B_T: np.ndarray, Gamma, jumps: np.ndarray, E0: np.ndarray,
                     ends: np.ndarray, agg_ends: np.ndarray, condition_number: float,
                     tol: float) -> ResidualReport:
    """Residuals of E(0) = E0, the speed jumps ``jumps`` at the trades and the
    terminal coupling B_T mu(T) + 2 diag(Gamma) E(T) = 0.

    ``ends[s]`` holds [mu; E] at the start and the end of segment s, and
    ``agg_ends[s]`` the aggregates (mu_agg, E_agg) there.  Raises
    ``SolverError`` when any residual exceeds ``tol`` or is NaN.
    """
    N = len(E0)
    term_vec = B_T @ ends[-1, 1, :N] + 2.0 * np.asarray(Gamma) * ends[-1, 1, N:]
    report = ResidualReport(
        terminal=float(np.linalg.norm(term_vec)),
        initial=float(np.max(np.abs(ends[0, 0, N:] - E0), initial=0.0)),
        jump_aggregate=(agg_ends[:-1, 1, 0] - agg_ends[1:, 0, 0]) - jumps,
        jump_by_state=(ends[:-1, 1, :N] - ends[1:, 0, :N]) - jumps[:, None],
        condition_number=condition_number,
    )
    # written so that NaN fails: NaN <= tol is False
    if not all(r <= tol for r in (report.terminal, report.worst_jump, report.initial)):
        raise SolverError(
            f"equilibrium residuals exceed tolerance {tol:g}: terminal="
            f"{report.terminal:.3e}, jump={report.worst_jump:.3e}, "
            f"initial={report.initial:.3e}")
    return report


class _Curves:
    """A solution's fine-mesh curves, built on first read.

    ``fine()`` returns the per-segment [mu; E] samples on the fine mesh.  It
    is dropped once the curves exist, which releases what it holds, and the
    lock lets threads that read a shared solution build it once.
    """

    def __init__(self, grid: TimeGrid, p: PiecewiseCurve, fine):
        self._grid, self._p, self._fine = grid, p, fine
        self._lock = threading.Lock()
        self._built = None

    def get(self) -> tuple[PiecewiseCurve, PiecewiseCurve, PiecewiseCurve, PiecewiseCurve]:
        """(E_by_state, mu_by_state, E_agg, mu_agg)."""
        with self._lock:
            if self._built is None:
                N = self._p.dim
                fine = self._fine()
                mu_by_state = PiecewiseCurve(self._grid, tuple(f[:, :N] for f in fine))
                E_by_state = PiecewiseCurve(self._grid, tuple(f[:, N:] for f in fine))
                self._built = (E_by_state, mu_by_state, weighted_aggregate(E_by_state, self._p),
                               weighted_aggregate(mu_by_state, self._p))
                self._fine = None
            return self._built


@dataclass(frozen=True)
class MeanFieldSolution:
    """The crowd's equilibrium.

    The segment-boundary states ``ends`` are computed with the solution and
    determine it (``ends[:, 0]`` are the segment starts); the residual report,
    ``E_at_trades``, ``mu_at_trades`` and ``E_agg_initial`` read only them.
    The curves ``E_by_state``, ``mu_by_state``, ``E_agg`` and ``mu_agg`` are
    built on first read and kept.
    """

    grid: TimeGrid
    p: PiecewiseCurve                         # the chain's state probabilities
    h2: PiecewiseCurve
    xi: np.ndarray
    E0: np.ndarray
    residuals: ResidualReport
    ends: np.ndarray                          # (S, 2, 2N): [mu; E] at the start and
                                              # the end of each segment
    agg_ends: np.ndarray                      # (S, 2, 2): (mu_agg, E_agg) at the same
                                              # points
    _curves: _Curves = field(repr=False, compare=False)

    @property
    def E_by_state(self) -> PiecewiseCurve:
        return self._curves.get()[0]

    @property
    def mu_by_state(self) -> PiecewiseCurve:
        return self._curves.get()[1]

    @property
    def E_agg(self) -> PiecewiseCurve:
        return self._curves.get()[2]

    @property
    def mu_agg(self) -> PiecewiseCurve:
        return self._curves.get()[3]

    def mu_at_trades(self, side: str = "right") -> np.ndarray:
        return trade_values(self.agg_ends[:, :, 0], side)

    def E_at_trades(self) -> np.ndarray:
        return trade_values(self.agg_ends[:, :, 1])

    def E_agg_initial(self) -> float:
        return float(self.agg_ends[0, 0, 1])


def _solution(grid: TimeGrid, p: PiecewiseCurve, h2: PiecewiseCurve, xi: np.ndarray,
              E0: np.ndarray, ends: np.ndarray, p_ends: np.ndarray, fine, B_T: np.ndarray,
              Gamma, jumps: np.ndarray, condition_number: float, tol: float) -> MeanFieldSolution:
    """Check the boundary values ``ends`` and wrap them with the curve builder ``fine``.

    ``p_ends`` holds the chain's probabilities at the same points as ``ends``.
    """
    N = len(E0)
    # the product and reduction of ``weighted_aggregate``, so the values equal
    # its samples bit for bit
    agg_ends = np.stack([np.sum(p_ends * ends[..., :N], axis=-1),
                         np.sum(p_ends * ends[..., N:], axis=-1)], axis=-1)
    residuals = _residual_report(B_T, Gamma, jumps, E0, ends, agg_ends, condition_number, tol)
    return MeanFieldSolution(
        grid=grid, p=p, h2=h2, xi=xi.copy(), E0=E0.copy(), residuals=residuals,
        ends=ends, agg_ends=agg_ends, _curves=_Curves(grid, p, fine))


def _segment_ends(segments) -> np.ndarray:
    """First and last sample of every segment, shape (S, 2, dim)."""
    return np.stack([seg[[0, -1]] for seg in segments])


def _fine_states(U_nodes, U_mid, starts) -> list[np.ndarray]:
    """[mu; E] on every segment's fine mesh from the segment-start states ``starts``:
    nodes from U_nodes, midpoints from U_mid."""
    fine = []
    for Un, Um, c in zip(U_nodes, U_mid, starts):
        f = np.empty((len(Un) + len(Um), len(c)))
        f[0::2] = Un @ c
        f[1::2] = Um @ c
        fine.append(f)
    return fine


def _bits(*arrays) -> tuple[bytes, ...]:
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


def _on_grid(cfg: ModelConfig) -> tuple:
    """The horizon, trade times and grid resolution."""
    return cfg.schedule.T, _bits(cfg.schedule.times), cfg.solver.grid_steps_per_unit_time


def engine_key(cfg: ModelConfig) -> tuple:
    """Exactly the config values ``MeanFieldEngine`` reads: the aversion, the
    market, the horizon, trade times, grid and shooting tolerance.

    Not the mode, trade sizes, xi0 or E0, which ``solve`` takes as arguments,
    so configs with equal keys give bit-identical engines.
    """
    av = cfg.aversion
    return (("engine", _bits(av.Gamma, av.phi, av.Q, av.p0), _bits(astuple(cfg.market)))
            + _on_grid(cfg) + (cfg.solver.shooting_tolerance,))


def _reuse(cache: dict | None, key: tuple, build):
    """``build()``, or the value ``cache`` already holds under ``key``.

    Threads that miss on one key together each build; the builds are
    bit-identical, and every caller gets the value stored first.
    """
    if cache is None:
        return build()
    value = cache.get(key)
    if value is None:
        value = cache.setdefault(key, build())
    return value


class MeanFieldEngine:
    """Shared machinery for all solves on one configuration and grid.

    The chain, the quadratic coefficient, the fundamental matrices and the
    boundary system over the segment starts do not depend on (E0, xi), so
    basis solves reuse them; ``solve`` then costs one linear solve of that
    (N (2S - 1))-square system and one product per segment end.  The curves
    are reconstructed only when a caller reads them.

    The engine reads only the config values in ``engine_key``.  The chain
    depends only on (Q, p0) and the grid, h2 only on (Gamma, phi, Q, eta) and
    the grid.  Engines built with one ``cache`` dict, which a caller creates
    for one request, integrate each distinct chain and h2 once and share the
    results.  ``shared_engine(cfg, cache)`` keeps the engine itself in that
    dict under ``engine_key(cfg)``, for the next solve of the same crowd;
    the caller pops the key once it is done with the crowd.
    """

    def __init__(self, cfg: ModelConfig, cache: dict | None = None):
        self.cfg = cfg
        self.grid = default_grid(cfg)
        av = cfg.aversion
        on_grid = _on_grid(cfg)
        self.p = _reuse(cache, ("chain", _bits(av.Q, av.p0)) + on_grid,
                        lambda: solve_chain(av, self.grid))
        self.h2 = _reuse(cache, ("h2", _bits(av.Gamma, av.phi, av.Q), cfg.market.eta) + on_grid,
                         lambda: solve_h2(av, cfg.market, self.grid))
        N = cfg.n_states
        self._N = N
        U_nodes, U_mid = [], []
        for s in range(self.grid.n_segments):
            A = assemble_A_batch(self.p.segments[s], self.h2.segments[s],
                                 cfg.aversion, cfg.market)
            h = self.grid.step_width(s)
            Un = trajectory(np.eye(2 * N), step_maps(A, h)[0])
            U_nodes.append(Un)
            U_mid.append(self._midpoint_states(Un, A, h))
        self._U_nodes, self._U_mid = tuple(U_nodes), tuple(U_mid)
        self._U_ends = np.stack([Un[[0, -1]] for Un in U_nodes])    # I and V_s per segment
        self._p_ends = _segment_ends(self.p.segments)

        # unknowns: the segment-start states z_s = [mu; E](t_s), with E(z_0) = E0
        # substituted exactly.  Rows: z_{s+1} - V_s z_s = -jump_s [1; 0] at each
        # trade, then the terminal coupling C V_{S-1} z_{S-1} = 0.
        S, n = self.grid.n_segments, 2 * N
        pT = self.p.terminal()
        self._B_T = 2.0 * cfg.market.eta * np.eye(N) + cfg.market.lam_h * np.outer(np.ones(N), pT)
        C = np.hstack([self._B_T, 2.0 * np.diag(cfg.aversion.Gamma)])
        G = np.zeros((n * S - N, n * S))
        V_end = self._U_ends[:, 1]
        for s, V in enumerate(V_end[:-1]):
            G[n * s:n * (s + 1), n * s:n * (s + 1)] = -V
            G[n * s:n * (s + 1), n * (s + 1):n * (s + 2)] = np.eye(n)
        G[n * (S - 1):, n * (S - 1):] = C @ V_end[-1]
        self._E0_cols = G[:, N:n]
        self._system = np.delete(G, np.s_[N:n], axis=1)
        self.condition_number = float(np.linalg.cond(self._system))
        logger.info("boundary system condition number: %.3e", self.condition_number)
        if not np.isfinite(self.condition_number) or self.condition_number > COND_ABORT:
            raise SolverError(
                f"boundary system is numerically singular "
                f"(condition number {self.condition_number:.3e})")

    @staticmethod
    def _midpoint_states(Un, A, h):
        # one vectorized half-step from every node; the quarter-point matrix is
        # linearly interpolated, which is ample for the stage-data consumers
        A0, Am = A[0:-1:2], A[1::2]
        stages = (A0, 0.5 * (A0 + Am), Am)
        return rk_step(lambda c, U: stages[c] @ U, Un[:-1], h / 2.0)

    def solve(self, E0, xi) -> MeanFieldSolution:
        cfg = self.cfg
        N = self._N
        S = self.grid.n_segments
        K = S - 1
        E0 = np.asarray(E0, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if E0.shape != (N,):
            raise ValueError("E0 length must match the number of states")
        if xi.shape != (K,):
            raise ValueError("xi length must match the number of trade times")

        scale = cfg.market.gamma / (cfg.market.lam_h + 2.0 * cfg.market.eta)
        jumps = scale * xi
        rhs = -self._E0_cols @ E0
        rhs[:-N].reshape(K, 2 * N)[:, :N] -= jumps[:, None]     # speed rows at each trade
        w = np.linalg.solve(self._system, rhs)
        starts = np.concatenate([w[:N], E0, w[N:]]).reshape(S, 2 * N)

        # [mu; E] at both ends of every segment, as the curves would sample them
        ends = (self._U_ends @ starts[:, None, :, None])[..., 0]
        return _solution(self.grid, self.p, self.h2, xi, E0, ends, self._p_ends,
                         partial(_fine_states, self._U_nodes, self._U_mid, starts),
                         self._B_T, cfg.aversion.Gamma, jumps, self.condition_number,
                         cfg.solver.shooting_tolerance)


def shared_engine(cfg: ModelConfig, cache: dict | None = None) -> MeanFieldEngine:
    """The engine ``cache`` holds under ``engine_key(cfg)``, built there on a miss."""
    return _reuse(cache, engine_key(cfg), lambda: MeanFieldEngine(cfg, cache))


def _quantities(cfg: ModelConfig) -> np.ndarray:
    """The configured trade sizes; ``ConfigError`` where the config fixes none."""
    if cfg.schedule.quantities is None:
        raise ConfigError("solving for a given trade schedule requires schedule.quantities")
    return np.asarray(cfg.schedule.quantities, dtype=float)


def solve_partial(cfg: ModelConfig, cache: dict | None = None) -> MeanFieldSolution:
    """Crowd equilibrium for the configured trade schedule (``ConfigError``
    where the config has none); ``cache`` as in ``MeanFieldEngine``."""
    return shared_engine(cfg, cache).solve(cfg.population.E0, _quantities(cfg))


def closed_form_q0(cfg: ModelConfig) -> MeanFieldSolution:
    """Exact solution for any crowd that never switches (Q = 0); the
    independent oracle for the numerical path.

    With Q = 0, p stays at p0 and h2 drops out, so between trades z = [mu; E]
    solves z' = A z with the constant A = [[-B^{-1} gammaH e p0^T,
    2 B^{-1} diag(phi)], [I, 0]], built here from those formulas.  On segment
    s, z(t) = V e^{Lambda (t - r)} c_s in A's eigenbasis, each growing mode
    referenced at the segment end and the others at its start, so no
    exponential exceeds 1 at any horizon; a nilpotent A (gammaH = phi = 0)
    gives z(t) = (I + A (t - t_s)) c_s.  E(0) = E0, the speed jumps and the
    terminal coupling are one square system in the c_s.  Raises
    ``SolverError`` when V is ill-conditioned, when that system's condition
    number exceeds ``COND_ABORT`` and when the residuals miss the tolerance.
    """
    av, mkt = cfg.aversion, cfg.market
    if np.any(av.Q):
        raise ValueError("closed_form_q0 requires a crowd that never switches (Q = 0)")
    grid = default_grid(cfg)
    S, N, n, b = grid.n_segments, cfg.n_states, 2 * cfg.n_states, grid.bounds
    xi = _quantities(cfg)
    B = 2.0 * mkt.eta * np.eye(N) + mkt.lam_h * np.outer(np.ones(N), av.p0)
    A = np.zeros((n, n))
    A[:N, :N] = -np.linalg.solve(B, mkt.gamma_h * np.outer(np.ones(N), av.p0))
    A[:N, N:] = 2.0 * np.linalg.solve(B, np.diag(av.phi))
    A[N:, :N] = np.eye(N)
    if not A[:N].any():
        def modes(s, t):
            return np.eye(n) + A * (t - b[s])[:, None, None]
    else:
        lam, V = np.linalg.eig(A)
        cond_V = np.linalg.cond(V)        # the curves' error is about cond_V * rounding
        if not cond_V <= 1e8:
            raise SolverError(f"mode basis is ill-conditioned (condition number {cond_V:.3e})")

        def modes(s, t):
            ref = np.where(lam.real > 0.0, b[s + 1], b[s])
            return V * np.exp(lam * (t[:, None] - ref))[:, None, :]

    # rows: E(0) = E0, then at each trade z_s(t_s) - z_{s-1}(t_s) = -jump [1; 0],
    # then the terminal coupling C z_{S-1}(T) = 0
    ends = [modes(s, b[s:s + 2]) for s in range(S)]
    jumps = speed_jump_size(mkt, xi)
    G = np.zeros((n * S, n * S), dtype=ends[0].dtype)     # complex only for a complex spectrum
    rhs = np.zeros(n * S, dtype=ends[0].dtype)
    G[:N, :n], rhs[:N] = ends[0][0][N:], cfg.population.E0
    for s in range(1, S):
        r = N + n * (s - 1)
        G[r:r + n, n * (s - 1):n * s] = -ends[s - 1][1]
        G[r:r + n, n * s:n * (s + 1)] = ends[s][0]
        rhs[r:r + N] = -jumps[s - 1]
    G[-N:, -n:] = np.hstack([B, 2.0 * np.diag(av.Gamma)]) @ ends[-1][1]
    cond = float(np.linalg.cond(G))
    if not cond <= COND_ABORT:
        raise SolverError(f"boundary system is numerically singular (condition number {cond:.3e})")
    c = np.linalg.solve(G, rhs).reshape(S, n)

    fine = [(modes(s, t) @ c[s]).real for s, t in enumerate(grid.fine_times)]
    p = solve_chain(av, grid)
    h2 = solve_h2(av, mkt, grid)
    return _solution(grid, p, h2, xi, cfg.population.E0, _segment_ends(fine),
                     _segment_ends(p.segments), lambda: fine, B, av.Gamma, jumps,
                     cond, cfg.solver.shooting_tolerance)


def closed_form_n1(cfg: ModelConfig) -> MeanFieldSolution:
    """``closed_form_q0`` for a single-state crowd."""
    if cfg.n_states != 1:
        raise ValueError("closed_form_n1 requires a single-state configuration")
    return closed_form_q0(cfg)

