"""Segmented time grids and piecewise-defined curves.

The horizon [0, T] is split at the large trader's trade times
t_1 < ... < t_K.  Integrators advance on level-0 nodes (the configured
resolution) while every curve is stored on a twice-finer mesh so that
half-step stage values are available to downstream consumers.

Each segment keeps both of its endpoint samples, so one-sided limits at a
trade time survive: the last sample of segment k-1 is the left limit at t_k
and the first sample of segment k is the right-continuous value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Partition of [0, T] with a uniform fine mesh on every segment."""

    bounds: np.ndarray                  # (S+1,), bounds[0] = 0, bounds[-1] = T
    steps: tuple[int, ...]              # level-0 integrator steps per segment
    fine_times: tuple[np.ndarray, ...]  # per segment: 2*steps[s] + 1 samples

    @property
    def n_segments(self) -> int:
        return len(self.steps)

    @property
    def horizon(self) -> float:
        return float(self.bounds[-1])

    @property
    def trade_times(self) -> np.ndarray:
        return self.bounds[1:-1]

    def step_width(self, s: int) -> float:
        return float(self.bounds[s + 1] - self.bounds[s]) / self.steps[s]

    def level0_times(self, s: int) -> np.ndarray:
        return self.fine_times[s][::2]

    def total_level0_nodes(self) -> int:
        return sum(m + 1 for m in self.steps)


def make_grid(T: float, trade_times, steps_per_unit: int) -> TimeGrid:
    """Build a grid whose nodes contain every trade time exactly."""
    times = np.asarray(trade_times, dtype=float)
    bounds = np.concatenate(([0.0], times, [float(T)]))
    steps = []
    fine = []
    for s in range(len(bounds) - 1):
        width = float(bounds[s + 1] - bounds[s])
        m = max(1, int(round(steps_per_unit * width)))
        steps.append(m)
        # linspace pins both endpoints, so trade times are exact nodes
        fine.append(np.linspace(bounds[s], bounds[s + 1], 2 * m + 1))
    bounds.setflags(write=False)
    return TimeGrid(bounds, tuple(steps), tuple(fine))


@dataclass(frozen=True)
class PiecewiseCurve:
    """Vector-valued function of time, smooth inside each grid segment.

    ``segments[s]`` holds samples of shape (2*steps[s] + 1, dim) on the
    segment's fine mesh.  At trade time t_k, ``right_at(k)`` reads the first
    sample of segment k and ``left_at(k)`` the last sample of segment k-1.
    """

    grid: TimeGrid
    segments: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.segments[0].shape[1]

    def node_values(self, s: int) -> np.ndarray:
        return self.segments[s][::2]

    def initial(self) -> np.ndarray:
        return self.segments[0][0]

    def terminal(self) -> np.ndarray:
        return self.segments[-1][-1]

    def left_at(self, k: int) -> np.ndarray:
        """Left limit at interior boundary k (1-based trade index)."""
        return self.segments[k - 1][-1]

    def right_at(self, k: int) -> np.ndarray:
        return self.segments[k][0]


def trade_values(segments) -> np.ndarray:
    """Right-continuous samples at the trade times t_1..t_K from per-segment
    arrays: the first sample of segment k."""
    return np.array([seg[0] for seg in segments[1:]])


def weighted_aggregate(curve: PiecewiseCurve, weights: PiecewiseCurve) -> PiecewiseCurve:
    """Scalar curve sum_i w_i(t) * c_i(t), sampled on the shared mesh."""
    segs = tuple(
        np.sum(w * c, axis=1, keepdims=True)
        for w, c in zip(weights.segments, curve.segments)
    )
    return PiecewiseCurve(curve.grid, segs)


def sup_diff(a: PiecewiseCurve, b: PiecewiseCurve) -> float:
    """Largest absolute difference between two curves on the same grid."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.segments, b.segments))

