"""Finite-population simulation and empirical deviation (epsilon-Nash) tests.

M agents follow the mean-field feedback law while their aversion states
switch at exact exponential event times (never grid-discretized).  Each agent
is integrated in deviation form D_j = X_j - E_{Y_j}: between switches

    dD/dt = (h2_i(t)/eta) D - (p_Q(t) E(t))_i,

and a switch i -> j moves D by E_i - E_j (inventory itself is continuous).
This is the same feedback control written against the per-state mean; it
keeps the degenerate single-state deterministic population exactly on the
mean field, so all convergence metrics vanish identically there.

Randomness is drawn from counter-based streams keyed by
(seed, purpose, replication, agent), so results are independent of scheduling
and worker counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .affine import rk_step, step_maps
from .chain import pq_batch
from .config import ModelConfig
from .errors import SimulationError
from .grid import trade_values
from .meanfield import MeanFieldSolution
from .strategy import best_response_values, lt_profit, profit_from_aggregates

_MASK64 = (1 << 64) - 1
_PURPOSE_AGENT = 0
_PURPOSE_PRICE = 1
_MAX_EVENTS_PER_AGENT = 100_000


def _new_stream() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(0))


_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def _rekey(g: np.random.Generator, seed: int, purpose: int, rep: int, agent: int) -> None:
    """Point g's Philox at the stream keyed by (seed, purpose, rep, agent).

    A zero counter and an empty buffer make the draws identical to those of a
    fresh ``Philox(key=...)``, for a tenth of the cost of building one.
    """
    key0 = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK64
    key1 = ((purpose & 0xFF) << 56) | ((rep & 0xFFFFFFF) << 28) | (agent & 0xFFFFFFF)
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_COUNTER, "key": (key0, key1)},
        "buffer": _ZERO_COUNTER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _draw_agents(cfg: ModelConfig, M: int, seed: int, rep: int, spread: float):
    """Initial states plus every agent's exact switch schedule on [0, T]."""
    N = cfg.n_states
    E0 = np.asarray(cfg.population.E0, dtype=float)
    Q = np.asarray(cfg.aversion.Q, dtype=float)
    T = cfg.schedule.T
    p0cum = np.cumsum(cfg.aversion.p0).tolist()
    rates = [float(-Q[y, y]) for y in range(N)]
    jump_cdfs = []       # per state: CDF of the state it switches to
    for y in range(N):
        row = Q[y].copy()
        row[y] = 0.0
        jump_cdfs.append((np.cumsum(row) / rates[y]).tolist() if rates[y] > 0.0 else None)
    X0 = np.empty(M)
    Y0 = np.empty(M, dtype=np.int64)
    ev_t: list[float] = []
    ev_agent: list[int] = []
    ev_state: list[int] = []
    g = _new_stream()
    for j in range(M):
        _rekey(g, seed, _PURPOSE_AGENT, rep, j)
        u_state, u_spread = g.random(2).tolist()
        y = min(bisect_right(p0cum, u_state), N - 1)
        X0[j] = E0[y] + spread * (2.0 * u_spread - 1.0)
        Y0[j] = y
        t = 0.0
        for _ in range(_MAX_EVENTS_PER_AGENT):
            rate = rates[y]
            if rate <= 0.0:
                break
            t += g.exponential(1.0 / rate)
            if t >= T:
                break
            y = min(bisect_right(jump_cdfs[y], g.random()), N - 1)
            ev_t.append(t)
            ev_agent.append(j)
            ev_state.append(y)
        else:
            raise SimulationError(f"agent {j} exceeded {_MAX_EVENTS_PER_AGENT} switches")
    order = np.argsort(np.asarray(ev_t), kind="stable")
    return (X0, Y0,
            np.asarray(ev_t, dtype=float)[order],
            np.asarray(ev_agent, dtype=np.int64)[order],
            np.asarray(ev_state, dtype=np.int64)[order])


@dataclass(frozen=True)
class ConvergenceMetrics:
    theta_dev: float   # sup_t || state fractions - p(t) ||^2
    Z_dev: float       # sup_t || per-state mean inventory mass - p_i E_i ||^2
    vbar_l2: float     # integral of |average speed - mu|^2


@dataclass(frozen=True)
class SegmentRecord:
    times: np.ndarray      # level-0 node times
    vbar: np.ndarray       # (m+1,)
    Xbar: np.ndarray       # (m+1,)
    theta: np.ndarray      # (m+1, N)
    Z: np.ndarray          # (m+1, N)
    v_agent0: np.ndarray   # (m+1,)
    X_agent0: np.ndarray   # (m+1,)


@dataclass(frozen=True)
class PopulationTrajectory:
    segments: tuple[SegmentRecord, ...]
    agent0_events: tuple[tuple[float, int], ...]
    agent0_initial_state: int
    agent0_initial_inventory: float
    M: int
    seed: int
    # populated only when record_paths=True: per segment
    # (m+1, M) inventories and states at level-0 nodes
    paths_X: tuple[np.ndarray, ...] | None = None
    paths_Y: tuple[np.ndarray, ...] | None = None


def default_init_spread(cfg: ModelConfig) -> float:
    """Uniform half-width keeping |X_j(0)| within the configured bound."""
    worst = float(np.max(np.abs(cfg.population.E0), initial=0.0))
    return max(cfg.population.inventory_bound - worst, 0.0)


def _segment_coeffs(cfg: ModelConfig, eq: MeanFieldSolution):
    """Per-segment fine-mesh coefficient arrays for the deviation dynamics."""
    eta = cfg.market.eta
    Q = np.asarray(cfg.aversion.Q, dtype=float)
    a_segs, b_segs = [], []
    for s in range(eq.grid.n_segments):
        P = eq.p.segments[s]
        E = eq.E_by_state.segments[s]
        a_segs.append(eq.h2.segments[s] / eta)
        b_segs.append(-np.einsum("nij,nj->ni", pq_batch(P, Q), E))
    return a_segs, b_segs


def _interp_by_state(t: np.ndarray, y: np.ndarray, ft: np.ndarray,
                     *tables: np.ndarray) -> list[np.ndarray]:
    """For each (len(ft), N) table, column y_j interpolated at t_j for every j."""
    outs = [np.empty(len(t)) for _ in tables]
    for k in range(tables[0].shape[1]):
        sel = y == k
        tk = t[sel]
        for out, table in zip(outs, tables):
            out[sel] = np.interp(tk, ft, table[:, k])
    return outs


def _sub_step(D: np.ndarray, ta: np.ndarray, tb: np.ndarray, y: np.ndarray,
              ft: np.ndarray, a_seg: np.ndarray, b_seg: np.ndarray, method: str) -> np.ndarray:
    """One integrator step of each agent's deviation ODE on [ta_j, tb_j] in state y_j.

    Coefficients are interpolated off the fine mesh, so the step may start and
    end anywhere; where tb <= ta it is a no-op.
    """
    a, b = (x.reshape(3, -1) for x in _interp_by_state(
        np.concatenate((ta, 0.5 * (ta + tb), tb)), np.tile(y, 3), ft, a_seg, b_seg))
    return np.where(tb <= ta, D, rk_step(lambda c, d: a[c] * d + b[c], D, tb - ta, method))


def _through_switches(D: np.ndarray, Y: np.ndarray, t0: float, t2: float,
                      grp: np.ndarray, rank: np.ndarray, te: np.ndarray,
                      ynew: np.ndarray, ft: np.ndarray, a_seg: np.ndarray,
                      b_seg: np.ndarray, E_seg: np.ndarray, method: str):
    """Carry switching agents across one level-0 step [t0, t2] through their events.

    D, Y hold the agents' deviations and states at t0.  Event e moves agent
    grp[e] to state ynew[e] at time te[e] and is that agent's rank[e]-th event
    in the step.  All events of one rank are integrated together, so every
    agent takes the same sub-steps and jumps as it would alone.  a_seg, b_seg
    and E_seg are the segment's (len(ft), N) arrays.  Returns the deviations
    and states at t2.
    """
    D = D.copy()
    Y = Y.copy()
    ta = np.full(len(D), t0)
    for r in range(int(rank.max(initial=-1)) + 1):
        sel = rank == r
        g = grp[sel]
        t, yn, y = te[sel], ynew[sel], Y[g]
        d = _sub_step(D[g], ta[g], t, y, ft, a_seg, b_seg, method)
        # inventory is continuous, so the deviation moves by E_old - E_new
        (E_old,) = _interp_by_state(t, y, ft, E_seg)
        (E_new,) = _interp_by_state(t, yn, ft, E_seg)
        D[g] = d + (E_old - E_new)
        Y[g] = yn
        ta[g] = t
    return _sub_step(D, ta, np.full(len(D), t2), Y, ft, a_seg, b_seg, method), Y


def simulate_population(cfg: ModelConfig, eq: MeanFieldSolution, M: int, seed: int,
                        *, init_spread: float | None = None, record_paths: bool = False
                        ) -> tuple[PopulationTrajectory, ConvergenceMetrics]:
    """Simulate M agents under the feedback law and measure mean-field gaps."""
    if M < 1:
        raise SimulationError("need at least one agent")
    spread = default_init_spread(cfg) if init_spread is None else float(init_spread)
    traj = _run_agents(cfg, eq, *_draw_agents(cfg, M, seed, 0, spread),
                       seed=seed, record_paths=record_paths)
    return traj, _metrics(cfg, eq, traj)


def _run_agents(cfg: ModelConfig, eq: MeanFieldSolution, X0: np.ndarray, Y0: np.ndarray,
                ev_t: np.ndarray, ev_agent: np.ndarray, ev_state: np.ndarray,
                *, seed: int, record_paths: bool) -> PopulationTrajectory:
    """Step agents from (X0, Y0) through their time-sorted switch events.

    Event e moves agent ev_agent[e] to state ev_state[e] at time ev_t[e].  The
    agents do not interact: each plays its feedback law against the frozen
    mean field, so an agent stepped alone takes exactly its path in a crowd.
    """
    grid = eq.grid
    N = cfg.n_states
    M = len(X0)
    method = cfg.solver.integrator
    Y = np.array(Y0, dtype=np.int64)
    a_segs, b_segs = _segment_coeffs(cfg, eq)

    D = X0 - eq.E_by_state.initial()[Y]
    agent0_events = [(float(t), int(s)) for t, s, a in zip(ev_t, ev_state, ev_agent) if a == 0]

    records = []
    paths_X: list[np.ndarray] = []
    paths_Y: list[np.ndarray] = []
    ptr = 0
    for s in range(grid.n_segments):
        ft = grid.fine_times[s]
        m = grid.steps[s]
        h = grid.step_width(s)
        a_seg, b_seg = a_segs[s], b_segs[s]
        mu_seg = eq.mu_by_state.segments[s]
        E_seg = eq.E_by_state.segments[s]
        # the integrator's scalar step map D -> alpha D + beta, per (step, state)
        Phi, beta = step_maps(a_seg[:, :, None] * np.eye(N), h, method, b_seg)
        alpha = np.diagonal(Phi, axis1=1, axis2=2)
        vbar = np.empty(m + 1)
        Xbar = np.empty(m + 1)
        theta = np.empty((m + 1, N))
        Z = np.empty((m + 1, N))
        v0 = np.empty(m + 1)
        X0a = np.empty(m + 1)
        if record_paths:
            seg_X = np.empty((m + 1, M))
            seg_Y = np.empty((m + 1, M), dtype=np.int64)

        def record(node: int, fine_idx: int):
            av = a_seg[fine_idx]
            muv = mu_seg[fine_idx]
            Ev = E_seg[fine_idx]
            counts = np.bincount(Y, minlength=N)
            th = counts / M
            sumD = np.bincount(Y, weights=D, minlength=N)
            theta[node] = th
            Z[node] = th * Ev + sumD / M
            adev = av[Y] * D
            vbar[node] = th @ muv + adev.mean()
            Xbar[node] = th @ Ev + D.mean()
            v0[node] = muv[Y[0]] + adev[0]
            X0a[node] = Ev[Y[0]] + D[0]
            if record_paths:
                seg_X[node] = Ev[Y] + D
                seg_Y[node] = Y

        record(0, 0)
        for i in range(m):
            t0 = ft[2 * i]
            t2 = ft[2 * i + 2]
            end = int(ev_t.searchsorted(t2, side="right"))
            if end > ptr:
                # the step's events by agent, numbered within each agent
                order = np.argsort(ev_agent[ptr:end], kind="stable")
                agents = ev_agent[ptr:end][order]
                first = np.concatenate(([True], agents[1:] != agents[:-1]))
                grp = np.cumsum(first) - 1
                rank = np.arange(len(agents)) - np.flatnonzero(first)[grp]
                J = agents[first]
                D_J, Y_J = _through_switches(
                    D[J], Y[J], t0, t2, grp, rank, ev_t[ptr:end][order],
                    ev_state[ptr:end][order], ft, a_seg, b_seg, E_seg, method)

            D = alpha[i, Y] * D + beta[i, Y]
            if end > ptr:
                D[J] = D_J
                Y[J] = Y_J
                ptr = end
            record(i + 1, 2 * i + 2)

        records.append(SegmentRecord(grid.level0_times(s).copy(), vbar, Xbar,
                                     theta, Z, v0, X0a))
        if record_paths:
            paths_X.append(seg_X)
            paths_Y.append(seg_Y)

    return PopulationTrajectory(
        segments=tuple(records),
        agent0_events=tuple(agent0_events),
        agent0_initial_state=int(Y0[0]),
        agent0_initial_inventory=float(X0[0]),
        M=M, seed=seed,
        paths_X=tuple(paths_X) if record_paths else None,
        paths_Y=tuple(paths_Y) if record_paths else None)


def _metrics(cfg: ModelConfig, eq: MeanFieldSolution, traj: PopulationTrajectory) -> ConvergenceMetrics:
    theta_dev = 0.0
    z_dev = 0.0
    vbar_l2 = 0.0
    for s, rec in enumerate(traj.segments):
        p = eq.p.node_values(s)
        E = eq.E_by_state.node_values(s)
        mu = eq.mu_agg.node_values(s)[:, 0]
        theta_dev = max(theta_dev, float(np.max(np.sum((rec.theta - p) ** 2, axis=1))))
        z_dev = max(z_dev, float(np.max(np.sum((rec.Z - p * E) ** 2, axis=1))))
        vbar_l2 += float(np.trapezoid((rec.vbar - mu) ** 2, rec.times))
    return ConvergenceMetrics(theta_dev, z_dev, vbar_l2)


def inventory_growth_bound(cfg: ModelConfig, eq: MeanFieldSolution) -> float:
    """Growth constant C2 with max_t |X_j(t)| <= (|X_j(0)| + C2) e^{C2 T}.

    C2 dominates both affine coefficients of the feedback law: the intercept
    |mu_i - (h2_i/eta) E_i| integrated over the horizon and the gain |h2_i|/eta.
    """
    eta = cfg.market.eta
    worst_icept = 0.0
    worst_gain = 0.0
    for s in range(eq.grid.n_segments):
        beta = eq.h2.segments[s] / eta
        alpha = eq.mu_by_state.segments[s] - beta * eq.E_by_state.segments[s]
        worst_icept = max(worst_icept, float(np.max(np.abs(alpha))))
        worst_gain = max(worst_gain, float(np.max(np.abs(beta))))
    return max(worst_icept * eq.grid.horizon, worst_gain)


# ---------------------------------------------------------------------------
# deviating-agent quadratic


@dataclass(frozen=True)
class DeviationResult:
    j_mfg: float
    j_best: float
    gain: float
    M: int
    seed: int


@dataclass(frozen=True)
class _Quadratic:
    """phi(w) = const + g.w - w.P w / 2 on the control cells."""
    edges: np.ndarray
    widths: np.ndarray
    P: np.ndarray
    g: np.ndarray
    const: float

    def value(self, w: np.ndarray) -> float:
        return float(self.const + self.g @ w - 0.5 * w @ self.P @ w)

    def maximizer(self) -> np.ndarray:
        eig = np.linalg.eigvalsh(0.5 * (self.P + self.P.T))
        if eig.min() <= 0.0:
            raise SimulationError(
                f"deviation objective is not strictly concave (min curvature {eig.min():.3e})")
        return np.linalg.solve(self.P, self.g)


def _control_edges(grid, cells_per_segment: int):
    """Control cells snapped to level-0 nodes, per segment.

    Returns the edge times and, per cell, (segment, first node, last node).
    """
    edges = [0.0]
    cells = []
    for s in range(grid.n_segments):
        m = grid.steps[s]
        r = min(cells_per_segment, m)
        idx = [0] + sorted({int(round(j * m / r)) for j in range(1, r + 1)} | {m})
        t = grid.level0_times(s)
        for a, b in zip(idx[:-1], idx[1:]):
            edges.append(float(t[b]))
            cells.append((s, a, b))
    return np.asarray(edges), cells


def _trapz_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _deviator_quadratic(cfg: ModelConfig, eq: MeanFieldSolution, delta: float,
                        vbar_segments: list[np.ndarray], x_init: float,
                        y_init: int, events, cells_per_segment: int) -> _Quadratic:
    grid = eq.grid
    m = cfg.market
    edges, cells = _control_edges(grid, cells_per_segment)
    left = edges[:-1]
    widths = np.diff(edges)
    R = len(widths)

    def psi(ts: np.ndarray) -> np.ndarray:
        return np.clip(ts[:, None] - left[None, :], 0.0, widths[None, :])

    P = np.zeros((R, R))
    g = np.zeros(R)
    const = 0.0

    # own-speed costs: fee plus the 1/M share of the temporary impact
    P += 2.0 * (m.eta + m.lam_h * delta) * np.diag(widths)

    # the agent's own state path: state[j] holds after the j-th event
    ev_t = np.array([t for t, _ in events], dtype=float)
    state = np.array([y_init] + [y for _, y in events], dtype=np.int64)

    # terminal inventory: aversion minus the 1/M share of the permanent impact
    coef = float(cfg.aversion.Gamma[state[-1]]) - 0.5 * m.gamma_h * delta
    P += 2.0 * coef * np.outer(widths, widths)
    g += -2.0 * coef * x_init * widths
    const += -coef * x_init * x_init - 0.5 * m.gamma_h * delta * x_init * x_init

    # interaction with the frozen rest of the crowd
    for s in range(grid.n_segments):
        times = grid.level0_times(s)
        vb = vbar_segments[s]
        wt = _trapz_weights(times)
        g += m.gamma_h * (1.0 - delta) * psi(times).T @ (wt * vb)
        const += m.gamma_h * (1.0 - delta) * x_init * float(wt @ vb)

    # temporary-impact drag against the others' speed, per cell
    V = np.zeros(R)
    for c, (s, a, b) in enumerate(cells):
        times = grid.level0_times(s)
        V[c] = float(np.trapezoid(vbar_segments[s][a:b + 1], times[a:b + 1]))
    g += -m.lam_h * (1.0 - delta) * V

    # price shifts of the schedule trades
    xi = np.asarray(eq.xi, dtype=float)
    g += m.gamma * (psi(grid.trade_times).T @ xi)
    const += m.gamma * float(np.sum(xi)) * x_init

    # running aversion along the agent's own state path: the level-0 steps cut
    # at the events, each piece in the state after every event up to its start
    cuts = np.union1d(np.concatenate([grid.level0_times(s) for s in range(grid.n_segments)]),
                      ev_t)
    TA, TB = cuts[:-1], cuts[1:]
    RHO = np.asarray(cfg.aversion.phi, dtype=float)[state[np.searchsorted(ev_t, TA, "right")]]
    keep = RHO != 0.0
    TA, TB, RHO = TA[keep], TB[keep], RHO[keep]
    om = RHO * (TB - TA) / 3.0
    PA = psi(TA)
    PB = psi(TB)
    quad = PA.T @ (om[:, None] * PA) + PB.T @ (om[:, None] * PB)
    cross = PA.T @ (om[:, None] * PB)
    quad += 0.5 * (cross + cross.T)
    P += 2.0 * quad
    g += -3.0 * x_init * ((PA + PB).T @ om)
    const += -3.0 * x_init * x_init * float(np.sum(om))

    return _Quadratic(edges, widths, P, g, const)


def _cell_projected_controls(traj_X_segments, grid, cells_per_segment: int) -> np.ndarray:
    """Cell averages of a realized control, from inventory at cell edges."""
    edges, cells = _control_edges(grid, cells_per_segment)
    x = np.asarray([traj_X_segments[0][0]] + [traj_X_segments[s][b] for s, _, b in cells])
    return np.diff(x) / np.diff(edges)


def deviation_gain(cfg: ModelConfig, eq: MeanFieldSolution, traj: PopulationTrajectory,
                   control_cells_per_segment: int = 20) -> DeviationResult:
    """Exact best response of agent 0 of ``traj`` against the frozen remaining M-1.

    The whole realization (initial inventories and every agent's state path,
    including the deviator's) is frozen; the agent's payoff is then a strictly
    concave quadratic in her cell-discretized speed and one linear solve gives
    the grid-exact optimum.  Against it, j_mfg evaluates the same functional
    at the cell projection of her realized feedback play, so gain >= 0 up to
    solve rounding.  Martingale price-noise terms are omitted (mean zero).
    Because the deviator's own switch path is frozen too, the best response
    knows when the agent will switch, which the feedback law cannot: for a
    switching crowd the gain carries that foresight, so it is not the epsilon
    of epsilon-Nash and does not shrink with M.
    ``traj`` must come from ``simulate_population(cfg, eq, ...)``.
    """
    M = traj.M
    if M < 2:
        raise SimulationError("deviation test needs at least two agents")
    vbar_minus = [(M * rec.vbar - rec.v_agent0) / (M - 1) for rec in traj.segments]
    return _deviation_result(cfg, eq, 1.0 / M, vbar_minus, traj,
                             control_cells_per_segment, M, traj.seed)


def deviation_gain_vs_mean_field(cfg: ModelConfig, eq: MeanFieldSolution, x_init: float,
                                 *, y_init: int = 0, events=(),
                                 control_cells_per_segment: int = 20) -> DeviationResult:
    """Limiting deviation test with the rest of the crowd replaced by the mean field."""
    events = list(events)
    traj = _run_agents(cfg, eq, np.array([float(x_init)]), np.array([y_init]),
                       np.array([t for t, _ in events], dtype=float),
                       np.zeros(len(events), dtype=np.int64),
                       np.array([y for _, y in events], dtype=np.int64),
                       seed=0, record_paths=False)
    vbar = [eq.mu_agg.node_values(s)[:, 0] for s in range(eq.grid.n_segments)]
    return _deviation_result(cfg, eq, 0.0, vbar, traj, control_cells_per_segment, 0, 0)


def _deviation_result(cfg: ModelConfig, eq: MeanFieldSolution, delta: float,
                      vbar: list[np.ndarray], traj: PopulationTrajectory, cells: int,
                      M: int, seed: int) -> DeviationResult:
    """Agent 0's realized play against the best response to the others' speed vbar."""
    quad = _deviator_quadratic(cfg, eq, delta, vbar, traj.agent0_initial_inventory,
                               traj.agent0_initial_state, traj.agent0_events, cells)
    w_mfg = _cell_projected_controls([rec.X_agent0 for rec in traj.segments], eq.grid, cells)
    w_best = quad.maximizer()
    j_mfg = quad.value(w_mfg)
    j_best = quad.value(w_best)
    return DeviationResult(j_mfg, j_best, j_best - j_mfg, M, seed)


# ---------------------------------------------------------------------------
# large trader deviation


@dataclass(frozen=True)
class LTDeviationResult:
    psi_mfg: float
    psi_best: float
    gain: float
    xi_best: np.ndarray
    M: int
    seed: int


def lt_deviation_gain(cfg: ModelConfig, overall_eq,
                      traj: PopulationTrajectory) -> LTDeviationResult:
    """Exact best response of the trader against the simulated crowd ``traj``.

    The agents' feedback play does not react to the trader's realized trades
    (only to the anticipated equilibrium schedule), so the empirical payoff is
    a strictly concave quadratic in the schedule under the completion
    constraint and the first-order formula gives the exact maximizer.
    ``traj`` must come from ``simulate_population(cfg, overall_eq.mean_field, ...)``.
    """
    xbar0 = float(traj.segments[0].Xbar[0])
    xbar_k = trade_values([rec.Xbar for rec in traj.segments])
    vbar_k = trade_values([rec.vbar for rec in traj.segments], cfg.solver.mu_at_trades)
    xi_best = best_response_values(xbar_k, vbar_k, float(cfg.schedule.xi0), cfg)

    def psi(xi) -> float:
        return profit_from_aggregates(cfg, xi, xbar_k, xbar0, vbar_k).profit_with_hft

    psi_star = psi(overall_eq.xi_star)
    psi_best = psi(xi_best)
    return LTDeviationResult(psi_star, psi_best, psi_best - psi_star, xi_best,
                             traj.M, traj.seed)


# ---------------------------------------------------------------------------
# price-path sampling


@dataclass(frozen=True)
class LTPathOutcome:
    revenues: np.ndarray
    mean: float
    std_error: float


def sample_price_paths(cfg: ModelConfig, xi, solution: MeanFieldSolution,
                       replications: int, seed: int) -> LTPathOutcome:
    """Realized trader revenue under sampled price noise.

    The Brownian term is sampled exactly at the trade times; the crowd's
    permanent-impact drift integrates to gammaH (E(t_k) - E(0)) because the
    aggregate speed is the derivative of the aggregate inventory, so the only
    sampling error is statistical.  With sigma = 0 every replication equals
    the analytic expected revenue.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    xi = np.asarray(xi, dtype=float)
    m = cfg.market
    K = len(xi)
    det_revenue = lt_profit(cfg, xi, solution).profit_with_hft
    revenues = np.empty(replications)
    sq = np.sqrt(np.diff(solution.grid.trade_times, prepend=0.0))
    g = _new_stream()
    for r in range(replications):
        _rekey(g, seed, _PURPOSE_PRICE, r, 0)
        W = np.cumsum(sq * g.standard_normal(K))
        revenues[r] = det_revenue + m.sigma * float(np.sum(-xi * W))
    mean = float(revenues.mean())
    std_error = float(revenues.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return LTPathOutcome(revenues, mean, std_error)
