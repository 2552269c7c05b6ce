import numpy as np
import pytest

from hftmfg import presets
from hftmfg.affine import compose_powers, compose_prefix, step_maps, trajectory
from hftmfg.meanfield import MeanFieldEngine, assemble_A_batch


def rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def sequential(y0, Phi, psi=None):
    ys = [np.asarray(y0, dtype=float)]
    for n in range(len(Phi)):
        y = Phi[n] @ ys[-1]
        if psi is not None:
            y = y + (psi[n] if y.ndim == 1 else psi[n][:, None])
        ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("matrix_y0", [False, True])
@pytest.mark.parametrize("affine", [False, True])
def test_trajectory_matches_sequential_composition(m, matrix_y0, affine):
    rng = np.random.default_rng(m)
    n = 3
    # near-identity maps, as integrator steps are
    Phi = np.eye(n) + 0.02 * rng.standard_normal((m, n, n))
    psi = 0.1 * rng.standard_normal((m, n)) if affine else None
    y0 = rng.standard_normal((n, 2) if matrix_y0 else n)
    ys = trajectory(y0, Phi, psi)
    assert ys.shape == (m + 1,) + y0.shape
    assert np.array_equal(ys[0], y0)
    assert rel_err(ys, sequential(y0, Phi, psi)) <= 1e-13


@pytest.mark.parametrize("diagonal", [False, True])
def test_trajectory_steps_one_psi_column_per_y0_column(diagonal):
    # each column of a matrix y0 with its own psi column is its vector
    # trajectory; bit for bit for diagonal maps, whose zeros add exactly
    rng = np.random.default_rng(5)
    m, n, k = 9, 3, 4
    Phi = np.eye(n) + 0.02 * rng.standard_normal((m, n, n))
    if diagonal:
        Phi *= np.eye(n)
    psi = 0.1 * rng.standard_normal((m, n, k))
    y0 = rng.standard_normal((n, k))
    ys = trajectory(y0, Phi, psi)
    assert ys.shape == (m + 1, n, k)
    for c in range(k):
        ref = trajectory(y0[:, c], Phi, psi[:, :, c])
        if diagonal:
            assert np.array_equal(ys[:, :, c], ref)
        else:
            assert rel_err(ys[:, :, c], ref) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 1000, 2047, 2048, 2049])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_powers_equals_the_scan_over_copies_bit_for_bit(n, k):
    rng = np.random.default_rng(1000 * n + k)
    Phi = np.eye(n) + 0.02 * rng.standard_normal((n, n))
    got = compose_powers(Phi, k)
    ref, _ = compose_prefix(np.broadcast_to(Phi, (k, n, n)))
    assert got.shape == (k, n, n)
    assert got.tobytes() == ref.tobytes()


def rk4_stage_step(y, A, b, h):
    """One RK4 step of y' = A y + b from samples at start, midpoint, end."""
    def f(k, v):
        return A[k] @ v + b[k]
    k1 = f(0, y)
    k2 = f(1, y + 0.5 * h * k1)
    k3 = f(1, y + 0.5 * h * k2)
    k4 = f(2, y + h * k3)
    return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


# the hand-written reference step, named in the test id
@pytest.mark.parametrize("reference", [rk4_stage_step], ids=["rk4"])
def test_step_maps_reproduce_one_explicit_step(reference):
    rng = np.random.default_rng(7)
    n, m, h = 4, 5, 0.1
    A = rng.standard_normal((2 * m + 1, n, n))
    b = rng.standard_normal((2 * m + 1, n))
    Phi, psi = step_maps(A, h, b)
    assert Phi.shape == (m, n, n) and psi.shape == (m, n)
    Phi_lin, none = step_maps(A, h)
    assert none is None
    assert np.max(np.abs(Phi_lin - Phi)) <= 1e-14
    for i in range(m):
        y = rng.standard_normal(n)
        ref = reference(y, A[2 * i:2 * i + 3], b[2 * i:2 * i + 3], h)
        assert np.max(np.abs(Phi[i] @ y + psi[i] - ref)) <= 1e-14


@pytest.mark.parametrize("reference", [rk4_stage_step], ids=["rk4"])
def test_fundamental_matrices_match_stage_by_stage_loop(reference):
    cfg = presets.partial_two_type(grid=2000)
    engine = MeanFieldEngine(cfg)
    for s, Un in enumerate(engine._U_nodes):
        A = assemble_A_batch(engine.p.segments[s], engine.h2.segments[s],
                             cfg.aversion, cfg.market)
        h = engine.grid.step_width(s)
        U = np.eye(4)
        ref = [U]
        for i in range(engine.grid.steps[s]):
            U = reference(U, A[2 * i:2 * i + 3], np.zeros(3), h)
            ref.append(U)
        assert rel_err(Un, np.array(ref)) <= 1e-12
