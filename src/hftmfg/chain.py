"""Type-distribution dynamics of the switching crowd.

Solves the forward equation dp/dt = Q^T p for the state probabilities with
one integrator step per fine-mesh sample; the steps' linear maps are composed
by the prefix scan in ``affine``.  Also exposes the reweighted generator
p_Q(t) whose (i, j) entry for j != i is (p_j / p_i) Q^{ji}, with the diagonal
chosen so rows sum to zero.  p_Q drives the per-state mean-inventory dynamics
dE_i/dt = mu_i + (p_Q E)_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import step_maps, trajectory
from .config import AversionSpec
from .errors import SolverError
from .grid import PiecewiseCurve, TimeGrid

POSITIVITY_FLOOR = 1e-10
CONSERVATION_TOL = 1e-10


@dataclass(frozen=True)
class ChainSolution:
    p: PiecewiseCurve   # (n, N) probabilities on the fine mesh, smooth on [0, T]
    Q: np.ndarray


def solve_chain(aversion: AversionSpec, grid: TimeGrid, method: str = "rk4") -> ChainSolution:
    """Integrate the forward equation on the grid's fine mesh."""
    Q = np.asarray(aversion.Q, dtype=float)
    N = aversion.n_states
    cur = np.array(aversion.p0, dtype=float)
    segs = []
    static = not np.any(Q)
    for s in range(grid.n_segments):
        m2 = 2 * grid.steps[s]
        if static:
            out = np.tile(cur, (m2 + 1, 1))
        else:
            # each fine sample is a step node, so the stage samples are twice as fine
            A = np.broadcast_to(Q.T, (2 * m2 + 1, N, N))
            out = trajectory(cur, step_maps(A, grid.step_width(s) / 2.0, method)[0])
        cur = out[-1]
        segs.append(out)
    curve = PiecewiseCurve(grid, tuple(segs))
    _check_chain(curve)
    return ChainSolution(curve, Q)


def _check_chain(curve: PiecewiseCurve) -> None:
    for s, seg in enumerate(curve.segments):
        sums = seg.sum(axis=1)
        bad = np.abs(sums - 1.0) > CONSERVATION_TOL
        if np.any(bad):
            t = curve.grid.fine_times[s][np.argmax(bad)]
            raise SolverError(f"probability mass not conserved at t={t:.6g}")
        low = seg.min(axis=1) <= POSITIVITY_FLOOR
        if np.any(low):
            t = curve.grid.fine_times[s][np.argmax(low)]
            raise SolverError(f"state probability not strictly positive at t={t:.6g}")


def pq_batch(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Reweighted generators for a batch of probability vectors, shape (n, N, N)."""
    raw = Q.T[None, :, :] * (P[:, None, :] / P[:, :, None])
    out = raw.copy()
    idx = np.arange(Q.shape[0])
    out[:, idx, idx] -= raw.sum(axis=2)
    return out

