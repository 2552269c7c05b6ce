"""Backward value-function coefficients and the crowd's feedback control.

Each trader's value of holding x shares at price P in state i is
P*x + h0_i(t) + h1_i(t)*x + h2_i(t)*x^2.  The quadratic coefficient solves a
coupled backward Riccati system

    dh2_i/dt = -(h2_i)^2/eta + phi_i - sum_j Q^{ij} h2_j,   h2_i(T) = -Gamma_i,

continuous across trade times.  The linear coefficient jumps down by
gamma*xi_k at each trade time and is recovered algebraically from the
solved mean field (h1_i = 2*eta*mu_i - 2*h2_i*E_i + lambdaH*mu); a direct
backward integration is kept as an independent cross-check.  The optimal
feedback control is

    v(t, x, i) = (h1_i(t) + 2*h2_i(t)*x - lambdaH*mu(t)) / (2*eta),

equivalently mu_i(t) + (h2_i(t)/eta)*(x - E_i(t)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import rk_step, step_maps, trajectory
from .config import AversionSpec, MarketParams
from .errors import SolverError
from .grid import PiecewiseCurve, TimeGrid

BOX_SLACK = 1e-8


def h2_box_bound(aversion: AversionSpec, market: MarketParams) -> float:
    """Envelope C with h2_i(t) in [-C, 0] for all states and times."""
    return float(np.max(np.maximum(aversion.Gamma, np.sqrt(market.eta * aversion.phi))))


def solve_h2(aversion: AversionSpec, market: MarketParams, grid: TimeGrid) -> PiecewiseCurve:
    """Integrate the quadratic coefficient backward from -Gamma on the fine mesh."""
    eta = market.eta
    if aversion.n_states == 1:
        # plain floats: with a one-element array the solve takes ~30x as long
        ph, q = float(aversion.phi[0]), float(np.asarray(aversion.Q)[0, 0])
        inv_eta = 1.0 / eta
        cur = -float(aversion.Gamma[0])

        def g(c, y):
            return y * y * inv_eta - ph + q * y
    elif aversion.n_states == 2:
        # one complex scalar, real part state 1 and imaginary part state 2:
        # with a two-element array the solve takes ~7x as long
        (p1, p2), ((q11, q12), (q21, q22)) = aversion.phi.tolist(), aversion.Q.tolist()
        cur = -complex(*aversion.Gamma.tolist())

        def g(c, y):
            a, b = y.real, y.imag
            return complex(a * a / eta - p1 + (q11 * a + q12 * b),
                           b * b / eta - p2 + (q21 * a + q22 * b))
    else:
        phi = np.asarray(aversion.phi, dtype=float)
        Q = np.asarray(aversion.Q, dtype=float)
        cur = -np.asarray(aversion.Gamma, dtype=float)

        def g(c, y):
            return y * y / eta - phi + Q @ y

    # time runs backward here: g is d h2 / d(T - t), autonomous in c
    segs: list[np.ndarray | None] = [None] * grid.n_segments
    # a blow-up must reach _check_box as inf/NaN and raise there, not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for s in reversed(range(grid.n_segments)):
            dt = grid.step_width(s) / 2.0
            nodes = [cur]
            for _ in range(2 * grid.steps[s]):
                cur = rk_step(g, cur, dt)
                nodes.append(cur)
            segs[s] = np.array(nodes[::-1]).view(np.float64).reshape(len(nodes), -1)

    curve = PiecewiseCurve(grid, tuple(segs))
    _check_box(curve, aversion, market)
    return curve


def _check_box(curve: PiecewiseCurve, aversion: AversionSpec, market: MarketParams) -> None:
    C = h2_box_bound(aversion, market)
    # h2 runs backward from T, so the latest bad node is where it first left;
    # NaN fails both comparisons and counts as outside
    for s in reversed(range(curve.grid.n_segments)):
        seg = curve.segments[s]
        inside = (seg >= -C - BOX_SLACK) & (seg <= 1e-12)
        if not inside.all():
            t = curve.grid.fine_times[s][np.flatnonzero(~inside.all(axis=1))[-1]]
            raise SolverError(
                f"quadratic coefficient left [{-C:.6g}, 0] at t={t:.6g}; refine the grid")


@dataclass(frozen=True)
class H1Diagnostics:
    jump_residuals: np.ndarray   # (K, N): (left - right) - gamma*xi_k per state
    terminal: np.ndarray         # (N,): h1(T), zero up to shooting error


def recover_h1(sol, market: MarketParams) -> tuple[PiecewiseCurve, H1Diagnostics]:
    """Algebraic recovery of the linear coefficient from a solved mean field.

    ``sol`` must expose h2, mu_by_state, E_by_state, mu_agg and xi.  The
    diagnostics hold the jump at each trade time less gamma*xi_k, and h1(T).
    """
    h2 = sol.h2
    segs = []
    for mu_s, E_s, mua_s, h2_s in zip(sol.mu_by_state.segments, sol.E_by_state.segments,
                                      sol.mu_agg.segments, h2.segments):
        segs.append(2.0 * market.eta * mu_s - 2.0 * h2_s * E_s + market.lam_h * mua_s)
    curve = PiecewiseCurve(h2.grid, tuple(segs))

    K = h2.grid.n_segments - 1
    xi = np.asarray(sol.xi, dtype=float)
    jumps = np.empty((K, curve.dim))
    for k in range(1, K + 1):
        jumps[k - 1] = (curve.left_at(k) - curve.right_at(k)) - market.gamma * xi[k - 1]
    return curve, H1Diagnostics(jump_residuals=jumps, terminal=curve.terminal().copy())


def _backward_affine(grid: TimeGrid, A_segs, b_segs, jumps) -> PiecewiseCurve:
    """Backward level-0 solve of dy/dtau = A y + b, tau = T - t, from y(T) = 0.

    ``A_segs[s]`` (2m+1, N, N) and ``b_segs[s]`` (2m+1, N) are stage samples on
    segment s's fine mesh in forward time; ``jumps[k-1]`` is added when
    stepping left across interior boundary k.  Midpoint storage slots are
    filled by linear averaging (diagnostic curves only).
    """
    segs: list[np.ndarray | None] = [None] * grid.n_segments
    cur = np.zeros(b_segs[0].shape[1])
    for s in reversed(range(grid.n_segments)):
        Phi, psi = step_maps(A_segs[s][::-1], grid.step_width(s), b_segs[s][::-1])
        nodes = trajectory(cur, Phi, psi)[::-1]
        out = np.empty((2 * len(nodes) - 1, len(cur)))
        out[0::2] = nodes
        out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        segs[s] = out
        if s > 0:
            cur = nodes[0] + jumps[s - 1]
    return PiecewiseCurve(grid, tuple(segs))


def integrate_h1_backward(h2: PiecewiseCurve, mu_agg: PiecewiseCurve,
                          aversion: AversionSpec, market: MarketParams,
                          xi) -> PiecewiseCurve:
    """Direct backward solve of the linear coefficient (cross-check route).

    In tau = T - t it is affine: dh1/dtau = (diag(h2/eta) + Q) h1
    + (gammaH - lambdaH h2/eta) mu, jumping by gamma*xi_k at trade times.
    """
    Q = np.asarray(aversion.Q, dtype=float)
    eta, lam_h, gamma_h = market.eta, market.lam_h, market.gamma_h
    xi = np.asarray(xi, dtype=float)
    N = aversion.n_states
    idx = np.arange(N)
    A_segs, b_segs = [], []
    for h2_s, mu_s in zip(h2.segments, mu_agg.segments):
        A = np.broadcast_to(Q, (len(h2_s), N, N)).copy()
        A[:, idx, idx] += h2_s / eta
        A_segs.append(A)
        b_segs.append((gamma_h - lam_h * h2_s / eta) * mu_s)
    jumps = market.gamma * xi[:, None] * np.ones(N)
    return _backward_affine(h2.grid, A_segs, b_segs, jumps)


def compute_h0(h1: PiecewiseCurve, h2: PiecewiseCurve, mu_agg: PiecewiseCurve,
               aversion: AversionSpec, market: MarketParams) -> PiecewiseCurve:
    """Backward quadrature of the constant coefficient, continuous at trade times.

    In tau = T - t: dh0/dtau = Q h0 + (h1 - lambdaH mu)^2 / (4 eta).
    """
    Q = np.asarray(aversion.Q, dtype=float)
    eta, lam_h = market.eta, market.lam_h
    N = aversion.n_states
    A_segs, b_segs = [], []
    for h1_s, mu_s in zip(h1.segments, mu_agg.segments):
        A_segs.append(np.broadcast_to(Q, (len(h1_s), N, N)))
        b_segs.append((h1_s - lam_h * mu_s) ** 2 / (4.0 * eta))
    jumps = np.zeros((h2.grid.n_segments - 1, N))
    return _backward_affine(h2.grid, A_segs, b_segs, jumps)

