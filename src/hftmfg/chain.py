"""Type-distribution dynamics of the switching crowd.

Solves the forward equation dp/dt = Q^T p for the state probabilities with
one RK4 step per fine-mesh sample.  Q is constant, so every step of a
segment is one linear map; ``affine.compose_powers`` forms its powers by
repeated squaring, bit for bit the compositions of the prefix scan, and
p at the k-th sample is the k-th power applied to p at the segment start.
Also exposes the reweighted generator p_Q(t) whose (i, j) entry for j != i
is (p_j / p_i) Q^{ji}, with the diagonal chosen so rows sum to zero.  p_Q
drives the per-state mean-inventory dynamics dE_i/dt = mu_i + (p_Q E)_i.
"""

from __future__ import annotations

import numpy as np

from .affine import compose_powers, step_maps
from .config import AversionSpec
from .errors import SolverError
from .grid import PiecewiseCurve, TimeGrid

POSITIVITY_FLOOR = 1e-10
CONSERVATION_TOL = 1e-10


def solve_chain(aversion: AversionSpec, grid: TimeGrid) -> PiecewiseCurve:
    """Probabilities (n, N) on the grid's fine mesh, from the forward equation."""
    N = aversion.n_states
    # the three stage samples of one step: Q is constant, so one set serves every step
    A = np.broadcast_to(np.asarray(aversion.Q, dtype=float).T, (3, N, N))
    # one buffer for the whole chain, so it is checked in one pass; segments are views
    sizes = [len(t) for t in grid.fine_times]
    p = np.empty((sum(sizes), N))
    segs = tuple(np.split(p, np.cumsum(sizes)[:-1]))
    cur = aversion.p0
    # an overflow must reach _check_chain as inf/NaN and raise there, not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for s, seg in enumerate(segs):
            seg[0] = cur
            # each fine sample is a step node, so the steps are half a level-0 step wide
            Phi = step_maps(A, grid.step_width(s) / 2.0)[0][0]
            seg[1:] = compose_powers(Phi, len(seg) - 1) @ seg[0]
            cur = seg[-1]
    _check_chain(p, grid)
    return PiecewiseCurve(grid, segs)


def _check_chain(p: np.ndarray, grid: TimeGrid) -> None:
    """Raise at the first sample of the whole chain ``p`` that is not a
    probability vector: mass first, then positivity.  Written so that NaN
    fails: every comparison with NaN is False."""
    for fault, what in ((~(np.abs(p.sum(axis=1) - 1.0) <= CONSERVATION_TOL),
                         "probability mass not conserved"),
                        (~(p.min(axis=1) > POSITIVITY_FLOOR),
                         "state probability not strictly positive")):
        if np.any(fault):
            t = np.concatenate(grid.fine_times)[np.argmax(fault)]
            raise SolverError(f"{what} at t={t:.6g}")


def pq_batch(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Reweighted generators for a batch of probability vectors, shape (n, N, N)."""
    raw = Q.T[None, :, :] * (P[:, None, :] / P[:, :, None])
    out = raw.copy()
    idx = np.arange(Q.shape[0])
    out[:, idx, idx] -= raw.sum(axis=2)
    return out

