"""Explicit Runge-Kutta steps, affine step maps and their prefix composition.

``rk_step`` is the one place the classic RK4 formula is written; every
integration in the package takes its steps through it.
Applied to an affine system y' = A(t) y + b(t), a step is exactly an affine
map y_{n+1} = Phi_n y_n + psi_n.  ``step_maps`` builds every map of a
segment at once from stage samples, and ``trajectory`` composes them with an
inclusive Hillis-Steele scan: ceil(log2 m) batched matrix products instead
of m sequential small ones.  When every step is the same linear map,
``compose_powers`` gives the scan's compositions bit for bit by repeated
squaring, in m products instead of about m log2 m.
"""

from __future__ import annotations

import numpy as np


def rk_step(f, y, h):
    """One classic RK4 step of y' = f(c, y) of width h.

    ``f(c, y)`` evaluates the right-hand side at stage sample c: 0 is the
    step's start, 1 its midpoint and 2 its end.  ``y`` and ``h`` may be floats
    or arrays that broadcast together.
    """
    k1 = f(0, y)
    k2 = f(1, y + (h / 2.0) * k1)
    k3 = f(1, y + (h / 2.0) * k2)
    k4 = f(2, y + h * k3)
    return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def step_maps(A: np.ndarray, h: float, b: np.ndarray | None = None):
    """RK4 step maps (Phi, psi) of y' = A y + b.

    ``A`` (2m+1, n, n) and ``b`` (2m+1, n) are stage samples on the fine
    mesh: step i starts at index 2i, has its midpoint at 2i+1 and ends at
    2i+2.  Returns Phi (m, n, n) and psi (m, n), or None when b is None.
    The stages act on the augmented map [Phi | psi], whose last column
    carries the inhomogeneous part, so one set of stage products builds both.
    """
    n = A.shape[-1]
    stages = (slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2))

    def f(c, Y):
        F = A[stages[c]] @ Y
        if b is not None:
            F[..., n] += b[stages[c]]
        return F

    M = rk_step(f, np.eye(n, n if b is None else n + 1), h)
    return M[..., :n], None if b is None else M[..., n]


def compose_prefix(Phi: np.ndarray, psi: np.ndarray | None = None):
    """Inclusive prefix compositions (P_n, q_n) with y_{n+1} = P_n y_0 + q_n.

    ``psi`` is (m, n), or (m, n, k) for k columns y_0 stepped by the same Phi.
    """
    P = np.array(Phi, dtype=float)
    q = None if psi is None else np.array(psi, dtype=float)
    cols = None if q is None else q.reshape(len(q), P.shape[1], -1)
    d = 1
    while d < len(P):
        if cols is not None:
            cols[d:] += P[d:] @ cols[:-d]
        P[d:] = P[d:] @ P[:-d]
        d *= 2
    return P, q


def compose_powers(Phi: np.ndarray, k: int) -> np.ndarray:
    """The k inclusive compositions Phi, Phi^2, .., Phi^k of k copies of one map.

    Bit for bit ``compose_prefix(np.broadcast_to(Phi, (k, n, n)))[0]``: at
    distance d the scan sets block [d, 2d) to S_d @ block [0, d), where
    S_d = Phi^d is entry d - 1, and every later entry to S_d @ S_d, which is
    entry 2d - 1.  Filling each block once with those operands in that order
    is O(k) products, not the scan's O(k log k).
    """
    P = np.empty((k,) + Phi.shape)
    P[0] = Phi
    d = 1
    while d < k:
        P[d:2 * d] = P[d - 1] @ P[:min(d, k - d)]
        d *= 2
    return P


def trajectory(y0, Phi: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """States y_0 .. y_m of y_{n+1} = Phi_n y_n + psi_n; y0 may be a vector or a matrix.

    For a matrix y0, psi_n is one vector for every column or one per column.
    """
    y0 = np.asarray(y0, dtype=float)
    P, q = compose_prefix(Phi, psi)
    out = np.empty((len(P) + 1,) + y0.shape)
    out[0] = y0
    out[1:] = P @ y0
    if q is not None:
        out[1:] += q if q.ndim == out.ndim else q[..., None]
    return out
