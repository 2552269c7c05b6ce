"""Finite-population simulation and empirical deviation (epsilon-Nash) tests.

M agents follow the mean-field feedback law while their aversion states
switch at exact exponential event times (never grid-discretized).  Each agent
is integrated in deviation form D_j = X_j - E_{Y_j}: between switches

    dD/dt = (h2_i(t)/eta) D - (p_Q(t) E(t))_i,

and a switch i -> j moves D by E_i - E_j (inventory itself is continuous).
This is the same feedback control written against the per-state mean; it
keeps the degenerate single-state deterministic population exactly on the
mean field, so all convergence metrics vanish identically there.

Agents do not interact, and between its own switches every agent in state i
takes the same RK4 step D <- alpha_i D + beta_i.  So a population is
stepped as per-state counts n_i and sums S_i of D, S_i <- alpha_i S_i +
n_i beta_i, which give every aggregate the metrics and deviation tests read.
An agent is touched only at its own switching steps, the r-th of every agent
in one vectorised round r: its D is carried from its last touch by a
binary-lifting table of composed step maps (O(log m) per lookup, and no
ratio of cumulative products, which cancels on stiff, long segments), taken
through its events in exact sub-steps, and its net change moves between the
sums.  Every agent is carried to each segment's end, and to every level-0
node only when paths are recorded.

Several seeds of one M run as one population of R*M agents, replication r
holding agents r*M .. r*M + M - 1 (the replication axis).  The counts and
sums gain an axis, n_{r,i} and S_{r,i}, and every record is cut per
replication from them; each replication's sums add its agents in the same
order as a run of that seed alone, and the step maps are the same, so a
stacked run returns, bit for bit, what the seeds give one at a time.

Randomness is drawn from counter-based Philox4x64-10 streams keyed by
(seed, purpose, replication, agent), so results are independent of scheduling,
worker counts and what a population is stacked with.  ``_philox`` computes
the blocks of many streams at once in uint64 array arithmetic, bit for bit
numpy's ``Philox.random_raw``; the agents of every seed draw their r-th
switch together in round r, and price noise is Box-Muller on each
replication's stream, so no Python loop runs per agent or replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine import rk_step, step_maps, trajectory
from .chain import pq_batch
from .config import ModelConfig
from .errors import SimulationError
from .grid import trade_values
from .meanfield import MeanFieldSolution
from .strategy import best_response_values, lt_profit, profit_from_aggregates

_LO32 = 0xFFFFFFFF
_PURPOSE_AGENT = 0
_PURPOSE_PRICE = 1
_FIELD_BITS = 28        # bits of the rep and agent fields of a stream key
_MAX_EVENTS_PER_AGENT = 100_000
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _stream_keys(seeds, purpose: int, rep, agent) -> tuple[np.ndarray, np.ndarray]:
    """Philox key (key0, key1) of the streams (seed, purpose, rep, agent).

    key0 holds one uint64 per entry of the sequence ``seeds``.  rep and agent
    are indices or index arrays, broadcast together; key1 packs purpose into
    bits 56-63, rep into 28-55 and agent into 0-27.  A seed outside
    [0, 2^64) or an index that does not fit its field would silently share
    another's stream, so it raises: ``SimulationError`` for agents,
    ``ValueError`` for seeds and replications.
    """
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < 1 << 64:
            raise ValueError(f"seed {s} does not fit a 64-bit stream key")
    rep = np.asarray(rep, dtype=np.int64)
    agent = np.asarray(agent, dtype=np.int64)
    for idx, name, err in ((agent, "agent", SimulationError), (rep, "replication", ValueError)):
        bad = (idx < 0) | (idx >= 1 << _FIELD_BITS)
        if np.any(bad):
            raise err(f"{name} index {idx[bad].flat[0]} does not fit a "
                      f"{_FIELD_BITS}-bit stream key field")
    key1 = (purpose << 56) | (rep << _FIELD_BITS) | agent
    return (np.array([s ^ 0x9E3779B97F4A7C15 for s in seeds], dtype=np.uint64),
            np.atleast_1d(key1).astype(np.uint64))


def _mulhilo(a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the products a * x, from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> 32
    x_lo, x_hi = x & _LO32, x >> 32
    p01 = x_lo * a_hi
    p10 = x_hi * a_lo
    mid = ((x_lo * a_lo) >> 32) + (p01 & _LO32) + (p10 & _LO32)
    return x_hi * a_hi + (p01 >> 32) + (p10 >> 32) + (mid >> 32), x * a


def _philox(key0, key1: np.ndarray, block) -> np.ndarray:
    """Philox4x64-10 output blocks of many streams at once.

    key0 (uint64), key1 (uint64) and the block indices
    broadcast together; the stream with key (key0, key1) and counter
    block + 1 gives word w, so [w, ...] is lane 4 * block + w of
    ``np.random.Philox(key=(key0, key1)).random_raw()``.  All arithmetic is
    on uint64 arrays, which wrap silently.  Returns (4, *broadcast shape)
    uint64.
    """
    c0, k1 = np.broadcast_arrays(np.asarray(block, dtype=np.uint64), key1)
    zero = np.zeros(c0.shape, dtype=np.uint64)
    x0, x1, x2, x3 = c0 + 1, zero, zero, zero
    k0 = np.atleast_1d(np.asarray(key0, dtype=np.uint64))
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3))


def _uniform(x: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from u64 words, as numpy's ``Generator.random`` makes them."""
    return (x >> 11) * 2.0 ** -53


def _draw_agents(cfg: ModelConfig, M: int, seeds, spread: float):
    """Initial states plus every agent's exact switch schedule on [0, T].

    M agents are drawn per seed; agent r*M + j is agent j of seeds[r] and
    reads the stream keyed (seeds[r], agent purpose, 0, j): lanes 0 and 1
    give its initial state and inventory; its r-th holding time
    -log1p(-u) / rate comes from lane 2 + 2r and the state it then switches
    to from lane 3 + 2r.  The r-th switches of all agents still switching
    are drawn together in round r, so an agent's draws depend on neither M
    nor the other seeds.  Returns X0, Y0 and the events sorted by (time,
    agent).
    """
    N = cfg.n_states
    E0 = np.asarray(cfg.population.E0, dtype=float)
    Q = np.asarray(cfg.aversion.Q, dtype=float)
    T = cfg.schedule.T
    rates = -np.diagonal(Q)
    # per state: CDF of the state it switches to (rows of absorbing states unused)
    off = Q - np.diag(np.diagonal(Q))
    jump_cdf = np.cumsum(off, axis=1) / np.where(rates > 0.0, rates, 1.0)[:, None]
    key0, key1 = _stream_keys(seeds, _PURPOSE_AGENT, 0, np.arange(M))
    # lanes 0-3 one seed at a time, so the Philox temporaries stay at M agents;
    # later blocks are drawn only for the agents still switching
    words = np.concatenate([_philox(k0, key1, 0) for k0 in key0], axis=1)
    u_state, u_spread = _uniform(words[:2])
    Y0 = np.minimum(np.searchsorted(np.cumsum(cfg.aversion.p0), u_state, side="right"), N - 1)
    X0 = E0[Y0] + spread * (2.0 * u_spread - 1.0)

    # the agents still switching, with their clocks, states and current block
    live = rates[Y0] > 0.0
    agent, t, y, words = np.flatnonzero(live), np.zeros(live.sum()), Y0[live], words[:, live]
    rounds = [(np.zeros(0), agent[:0], y[:0])]       # each round's (time, agent, state)
    r = 0
    while len(agent):
        if r == _MAX_EVENTS_PER_AGENT:
            raise SimulationError(f"agent {agent[0] % M} exceeded {_MAX_EVENTS_PER_AGENT} "
                                  f"switches (seed {seeds[agent[0] // M]})")
        lane = 2 + 2 * r
        if lane % 4 == 0:
            words = _philox(key0[agent // M], key1[agent % M], lane // 4)
        w = lane % 4
        t = t - np.log1p(-_uniform(words[w])) / rates[y]
        keep = t < T
        agent, t, y, words = agent[keep], t[keep], y[keep], words[:, keep]
        y = np.minimum(np.sum(jump_cdf[y] <= _uniform(words[w + 1])[:, None], axis=1), N - 1)
        rounds.append((t, agent, y))
        keep = rates[y] > 0.0
        agent, t, y, words = agent[keep], t[keep], y[keep], words[:, keep]
        r += 1
    ev_t, ev_agent, ev_state = (np.concatenate(c) for c in zip(*rounds))
    order = np.lexsort((ev_agent, ev_t))
    return X0, Y0, ev_t[order], ev_agent[order], ev_state[order]


@dataclass(frozen=True)
class ConvergenceMetrics:
    theta_dev: float   # sup_t || state fractions - p(t) ||^2
    Z_dev: float       # sup_t || per-state mean inventory mass - p_i E_i ||^2
    vbar_l2: float     # integral of |average speed - mu|^2


@dataclass(frozen=True)
class SegmentRecord:
    """One segment's aggregates at its level-0 nodes, ``grid.level0_times(s)``."""
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
              ft: np.ndarray, a_seg: np.ndarray, b_seg: np.ndarray) -> np.ndarray:
    """One RK4 step of each agent's deviation ODE on [ta_j, tb_j] in state y_j.

    Coefficients are interpolated off the fine mesh, so the step may start and
    end anywhere; where tb <= ta it is a no-op.
    """
    a, b = (x.reshape(3, -1) for x in _interp_by_state(
        np.concatenate((ta, 0.5 * (ta + tb), tb)), np.tile(y, 3), ft, a_seg, b_seg))
    return np.where(tb <= ta, D, rk_step(lambda c, d: a[c] * d + b[c], D, tb - ta))


def _through_switches(D: np.ndarray, Y: np.ndarray, t0: float | np.ndarray,
                      t2: float | np.ndarray, grp: np.ndarray, rank: np.ndarray,
                      te: np.ndarray, ynew: np.ndarray, ft: np.ndarray, a_seg: np.ndarray,
                      b_seg: np.ndarray, E_seg: np.ndarray):
    """Carry switching agents across level-0 steps [t0, t2] through their events.

    D, Y hold the agents' deviations and states at t0; the step bounds t0 and
    t2 are shared or per agent.  Event e moves agent grp[e] to state ynew[e]
    at time te[e] and is that agent's rank[e]-th event in its step.  All
    events of one rank are integrated together, so every agent takes the same
    sub-steps and jumps as it would alone.  a_seg, b_seg and E_seg are the
    segment's (len(ft), N) arrays.  Returns the deviations and states at t2.
    """
    D = D.copy()
    Y = Y.copy()
    ta = np.full(len(D), t0)
    for r in range(int(rank.max(initial=-1)) + 1):
        sel = rank == r
        g = grp[sel]
        t, yn, y = te[sel], ynew[sel], Y[g]
        d = _sub_step(D[g], ta[g], t, y, ft, a_seg, b_seg)
        # inventory is continuous, so the deviation moves by E_old - E_new
        (E_old,) = _interp_by_state(t, y, ft, E_seg)
        (E_new,) = _interp_by_state(t, yn, ft, E_seg)
        D[g] = d + (E_old - E_new)
        Y[g] = yn
        ta[g] = t
    return _sub_step(D, ta, np.full(len(D), t2), Y, ft, a_seg, b_seg), Y


def _lift_table(alpha: np.ndarray, beta: np.ndarray):
    """Binary-lifting table of a segment's composed step maps, per state.

    alpha, beta (m, N) are the step maps D_{n+1} = alpha_n D_n + beta_n.
    Level l maps node n over 2^l steps, D_{n+2^l} = A[l, n] D_n + B[l, n],
    for every n with n + 2^l <= m; the other rows are the identity.  Returns
    A, B of shape (levels, m+1, N).
    """
    m = len(alpha)
    A = np.ones((max(m.bit_length(), 1), m + 1, alpha.shape[1]))
    B = np.zeros_like(A)
    A[0, :m], B[0, :m] = alpha, beta
    for l in range(1, len(A)):
        w = 1 << (l - 1)
        n = m + 1 - 2 * w
        A[l, :n] = A[l - 1, w:w + n] * A[l - 1, :n]
        B[l, :n] = A[l - 1, w:w + n] * B[l - 1, :n] + B[l - 1, w:w + n]
    return A, B


def _lift(A: np.ndarray, B: np.ndarray, k, n, y, D):
    """Deviations D in states y at nodes k, carried forward to nodes n >= k.

    One table map per set bit of the gap n - k: O(log m) per agent.  A gap
    shared by every agent (scalar k and n) skips the levels of its clear bits.
    """
    N = A.shape[2]
    gap = n - k
    at = k * N + y                      # flat (node, state) index into a level
    for l, (a, b) in enumerate(zip(A.reshape(len(A), -1), B.reshape(len(B), -1))):
        bit = (gap >> l) & 1
        if np.ndim(bit) == 0 and not bit:
            continue
        D = np.where(bit == 1, a[at] * D + b[at], D)
        at = at + (bit << l) * N
    return D


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Flags the elements where a run of equal ``key`` values starts."""
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


def _run_positions(first: np.ndarray) -> np.ndarray:
    """Each element's position within its run; ``first`` flags the run starts."""
    return np.arange(len(first)) - np.flatnonzero(first)[np.cumsum(first) - 1]


def _node_states(touches, n_agents: int, m: int, A: np.ndarray, B: np.ndarray):
    """(m+1, n_agents) deviations and states of agents 0 .. n_agents-1 at every node.

    ``touches`` lists (agent, node, D, Y) arrays, one entry wherever those
    agents' states were set: node 0 and the end of each switching step.
    Every node is lifted forward from the agent's last touch at or before it.
    """
    ag, nd, d, y = (np.concatenate(x) for x in zip(*touches))
    key = ag * (m + 1) + nd
    order = np.argsort(key)
    nodes = np.arange(m + 1)[:, None]
    last = order[key[order].searchsorted(np.arange(n_agents) * (m + 1) + nodes,
                                         side="right") - 1]
    return _lift(A, B, nd[last], nodes, y[last], d[last]), y[last]


def simulate_population(cfg: ModelConfig, eq: MeanFieldSolution, M: int, seeds,
                        *, init_spread: float | None = None, record_paths: bool = False
                        ) -> list[tuple[PopulationTrajectory, ConvergenceMetrics]]:
    """Simulate M agents per seed under the feedback law and measure mean-field gaps.

    The sequence ``seeds`` runs as one population of len(seeds) * M agents;
    the result holds one (trajectory, metrics) pair per seed, in order, each
    bit for bit what that seed gives alone.
    """
    if M < 1:
        raise SimulationError("need at least one agent")
    if np.ndim(seeds) != 1:
        raise TypeError(f"seeds must be a sequence of seeds, got {seeds!r}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    spread = default_init_spread(cfg) if init_spread is None else float(init_spread)
    trajs = _run_agents(cfg, eq, *_draw_agents(cfg, M, seeds, spread),
                        replications=len(seeds), record_paths=record_paths)
    return [(traj, _metrics(eq, traj)) for traj in trajs]


def _run_agents(cfg: ModelConfig, eq: MeanFieldSolution, X0: np.ndarray, Y0: np.ndarray,
                ev_t: np.ndarray, ev_agent: np.ndarray, ev_state: np.ndarray,
                *, replications: int, record_paths: bool) -> list[PopulationTrajectory]:
    """Step agents from (X0, Y0) through their time-sorted switch events.

    Event e moves agent ev_agent[e] to state ev_state[e] at time ev_t[e].  The
    agents do not interact: each plays its feedback law against the frozen
    mean field, so an agent stepped alone takes exactly its path in a crowd.
    Agents r*M .. r*M + M - 1 are the population of replication r, and one
    trajectory is returned per replication.  Each segment steps the
    per-replication counts and sums and takes the agents' switching steps in
    rounds, as the module docstring sets out.
    """
    grid = eq.grid
    N = cfg.n_states
    R = replications
    M = len(X0) // R
    Y = np.array(Y0, dtype=np.int64)
    rep = np.arange(R * M) // M
    a_segs, b_segs = _segment_coeffs(cfg, eq)

    D = X0 - eq.E_by_state.initial()[Y]
    # agents rebuilt at every node: agent 0 of every replication for the
    # deviation tests, or all; agent j of replication r is watched as r*per + j
    per = M if record_paths else 1
    watched = (np.arange(R)[:, None] * M + np.arange(per)).ravel()
    agent0_events = [[] for _ in range(R)]
    mine = ev_agent % M == 0
    for t, r, y in zip(ev_t[mine].tolist(), (ev_agent[mine] // M).tolist(),
                       ev_state[mine].tolist()):
        agent0_events[r].append((t, y))
    # each event's level-0 step, numbered across segments: the first step that
    # ends at or after it
    ev_step = np.concatenate([grid.level0_times(s)[1:] for s in range(grid.n_segments)]
                             ).searchsorted(ev_t, side="left")

    records = [[] for _ in range(R)]
    paths_X = [[] for _ in range(R)]
    paths_Y = [[] for _ in range(R)]
    first_step = 0
    for s in range(grid.n_segments):
        ft = grid.fine_times[s]
        L = grid.level0_times(s)
        m = grid.steps[s]
        a_seg, b_seg = a_segs[s], b_segs[s]
        E_seg = eq.E_by_state.segments[s]
        # the RK4 scalar step map D -> alpha D + beta, per (step, state)
        Phi, beta = step_maps(a_seg[:, :, None] * np.eye(N), grid.step_width(s), b_seg)
        alpha = np.diagonal(Phi, axis1=1, axis2=2)
        A, B = _lift_table(alpha, beta)

        # the segment's events by agent, in time order within each agent;
        # rank numbers them within their (agent, step) pair, and an agent's
        # r-th pair is its switching step in round r
        lo, hi = ev_step.searchsorted([first_step, first_step + m])
        order = lo + np.argsort(ev_agent[lo:hi], kind="stable")
        agent, step = ev_agent[order], ev_step[order] - first_step
        first_step += m
        new_pair = _run_starts(agent * m + step)
        pair = np.cumsum(new_pair) - 1
        rank = _run_positions(new_pair)
        p_agent, p_step = agent[new_pair], step[new_pair]
        p_round = _run_positions(_run_starts(p_agent))

        # per replication: the counts at node 0, then their changes per node
        # until the cumsum
        cell = rep * N + Y
        counts = np.zeros((R, m + 1, N), dtype=np.int64)
        counts[:, 0] = np.bincount(cell, minlength=R * N).reshape(R, N)
        S0 = np.bincount(cell, weights=D, minlength=R * N).reshape(R, N)
        jumps = np.zeros((R, m + 1, N))
        k = np.zeros(R * M, dtype=np.int64)    # node of each agent's last touch
        touches = [(np.arange(len(watched)), np.zeros(len(watched), dtype=np.int64),
                    D[watched], Y[watched])]
        for r in range(int(p_round.max(initial=-1)) + 1):
            sel = p_round == r
            J, i = p_agent[sel], p_step[sel]
            ev = sel[pair]
            y, rj = Y[J], rep[J]
            d = _lift(A, B, k[J], i, y, D[J])
            dn, yn = _through_switches(d, y, L[i], L[i + 1], (np.cumsum(sel) - 1)[pair[ev]],
                                       rank[ev], ev_t[order[ev]], ev_state[order[ev]],
                                       ft, a_seg, b_seg, E_seg)
            # the sums step d as if it stayed in state y; at node i+1 the
            # agent's real end in state yn replaces that
            np.add.at(counts, (rj, i + 1, y), -1)
            np.add.at(counts, (rj, i + 1, yn), 1)
            np.add.at(jumps, (rj, i + 1, y), -(alpha[i, y] * d + beta[i, y]))
            np.add.at(jumps, (rj, i + 1, yn), dn)
            D[J], Y[J], k[J] = dn, yn, i + 1
            w = J % M < per
            touches.append((rj[w] * per + J[w] % M, i[w] + 1, dn[w], yn[w]))
        counts = np.cumsum(counts, axis=1)
        # one column of sums per replication, stepped by the same maps
        S = trajectory(S0.T, alpha[:, :, None] * np.eye(N),
                       (counts[:, :-1] * beta + jumps[:, 1:]).transpose(1, 2, 0))
        S = np.ascontiguousarray(S.transpose(2, 0, 1))

        Ev = E_seg[::2]
        muv = eq.mu_by_state.segments[s][::2]
        av = a_seg[::2]
        theta = counts / M
        vbar = np.sum(theta * muv, axis=2) + np.sum(av * S, axis=2) / M
        Xbar = np.sum(theta * Ev, axis=2) + S.sum(axis=2) / M
        Z = theta * Ev + S / M
        Dw, Yw = _node_states(touches, len(watched), m, A, B)
        nodes = np.arange(m + 1)
        d0, y0 = np.ascontiguousarray(Dw[:, ::per].T), Yw[:, ::per].T
        v0 = muv[nodes, y0] + av[nodes, y0] * d0
        x0 = Ev[nodes, y0] + d0
        for r in range(R):
            records[r].append(SegmentRecord(vbar=vbar[r], Xbar=Xbar[r], theta=theta[r],
                                            Z=Z[r], v_agent0=v0[r], X_agent0=x0[r]))
        if record_paths:
            Xw = np.take_along_axis(Ev, Yw, axis=1) + Dw
            for r in range(R):
                paths_X[r].append(Xw[:, r * M:(r + 1) * M])
                paths_Y[r].append(Yw[:, r * M:(r + 1) * M])
        # every agent to the segment's end; most were not touched in it and
        # share the gap m
        moved = np.flatnonzero(k)
        D_end = _lift(A, B, 0, m, Y, D)
        D_end[moved] = _lift(A, B, k[moved], m, Y[moved], D[moved])
        D = D_end

    return [PopulationTrajectory(
        segments=tuple(records[r]),
        agent0_events=tuple(agent0_events[r]),
        agent0_initial_state=int(Y0[r * M]),
        agent0_initial_inventory=float(X0[r * M]),
        M=M,
        paths_X=tuple(paths_X[r]) if record_paths else None,
        paths_Y=tuple(paths_Y[r]) if record_paths else None) for r in range(R)]


def _metrics(eq: MeanFieldSolution, traj: PopulationTrajectory) -> ConvergenceMetrics:
    theta_dev = 0.0
    z_dev = 0.0
    vbar_l2 = 0.0
    for s, rec in enumerate(traj.segments):
        p = eq.p.node_values(s)
        E = eq.E_by_state.node_values(s)
        mu = eq.mu_agg.node_values(s)[:, 0]
        theta_dev = max(theta_dev, float(np.max(np.sum((rec.theta - p) ** 2, axis=1))))
        z_dev = max(z_dev, float(np.max(np.sum((rec.Z - p * E) ** 2, axis=1))))
        vbar_l2 += float(np.trapezoid((rec.vbar - mu) ** 2, eq.grid.level0_times(s)))
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


@dataclass(frozen=True)
class _Quadratic:
    """phi(w) = const + g.w - w.P w / 2 on the control cells."""
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

    return _Quadratic(widths, P, g, const)


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
    return _deviation_result(cfg, eq, 1.0 / M, vbar_minus, traj, control_cells_per_segment)


def deviation_gain_vs_mean_field(cfg: ModelConfig, eq: MeanFieldSolution, x_init: float,
                                 *, y_init: int = 0, events=(),
                                 control_cells_per_segment: int = 20) -> DeviationResult:
    """Limiting deviation test with the rest of the crowd replaced by the mean field."""
    events = list(events)
    (traj,) = _run_agents(cfg, eq, np.array([float(x_init)]), np.array([y_init]),
                          np.array([t for t, _ in events], dtype=float),
                          np.zeros(len(events), dtype=np.int64),
                          np.array([y for _, y in events], dtype=np.int64),
                          replications=1, record_paths=False)
    vbar = [eq.mu_agg.node_values(s)[:, 0] for s in range(eq.grid.n_segments)]
    return _deviation_result(cfg, eq, 0.0, vbar, traj, control_cells_per_segment)


def _deviation_result(cfg: ModelConfig, eq: MeanFieldSolution, delta: float,
                      vbar: list[np.ndarray], traj: PopulationTrajectory,
                      cells: int) -> DeviationResult:
    """Agent 0's realized play against the best response to the others' speed vbar."""
    quad = _deviator_quadratic(cfg, eq, delta, vbar, traj.agent0_initial_inventory,
                               traj.agent0_initial_state, traj.agent0_events, cells)
    w_mfg = _cell_projected_controls([rec.X_agent0 for rec in traj.segments], eq.grid, cells)
    w_best = quad.maximizer()
    j_mfg = quad.value(w_mfg)
    j_best = quad.value(w_best)
    return DeviationResult(j_mfg, j_best, j_best - j_mfg)


# ---------------------------------------------------------------------------
# large trader deviation


@dataclass(frozen=True)
class LTDeviationResult:
    psi_mfg: float
    psi_best: float
    gain: float


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
    return LTDeviationResult(psi_star, psi_best, psi_best - psi_star)


# ---------------------------------------------------------------------------
# price-path sampling


@dataclass(frozen=True)
class LTPathOutcome:
    revenues: np.ndarray
    mean: float
    std_error: float


def _normals(seed: int, replications: int, K: int) -> np.ndarray:
    """(replications, K) standard normals, row r from the price stream of rep r.

    Box-Muller on lane pairs: lanes 2i and 2i + 1 give normals 2i and 2i + 1.
    """
    key0, key1 = _stream_keys([seed], _PURPOSE_PRICE, np.arange(replications), 0)
    pairs = (K + 1) // 2
    words = _philox(key0, key1[:, None], np.arange((pairs + 1) // 2))
    u = _uniform(np.moveaxis(words, 0, -1).reshape(replications, -1)[:, :2 * pairs])
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=2)
    return z.reshape(replications, -1)[:, :K]


def sample_price_paths(cfg: ModelConfig, solution: MeanFieldSolution,
                       replications: int, seed: int) -> LTPathOutcome:
    """Realized revenue of the schedule ``solution.xi`` under sampled price noise.

    The Brownian term is sampled exactly at the trade times; the crowd's
    permanent-impact drift integrates to gammaH (E(t_k) - E(0)) because the
    aggregate speed is the derivative of the aggregate inventory, so the only
    sampling error is statistical.  With sigma = 0 every replication equals
    the analytic expected revenue.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    xi = solution.xi
    m = cfg.market
    K = len(xi)
    det_revenue = lt_profit(cfg, solution).profit_with_hft
    sq = np.sqrt(np.diff(solution.grid.trade_times, prepend=0.0))
    W = np.cumsum(sq * _normals(seed, replications, K), axis=1)
    revenues = det_revenue + m.sigma * np.sum(-xi * W, axis=1)
    mean = float(revenues.mean())
    std_error = float(revenues.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return LTPathOutcome(revenues, mean, std_error)
