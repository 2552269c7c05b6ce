"""Acceptance gate: one test per release criterion, each printing a PASS line.

The per-criterion lines are also replayed in the terminal summary (see
conftest), so a plain ``pytest -v`` shows them; the module is the exit bar
for the package.  C1-C8 and C10 run the checks of ``hftmfg validate`` at its
default grid of 1e4, so the gate and the validator cannot disagree.
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import hftmfg.validate as validate
from hftmfg import presets
from hftmfg.cli import main as cli_main
from hftmfg.meanfield import solve_partial
from hftmfg.simulate import deviation_gain, lt_deviation_gain, simulate_population
from hftmfg.strategy import lt_profit, solve_overall
from conftest import ACCEPTANCE_LINES, base_raw

GRID = 10000
CHECKS = dict(validate.CHECKS)


def report(line: str) -> None:
    full = f"ACCEPTANCE {line}"
    ACCEPTANCE_LINES.append(full)
    print(full, flush=True)


@functools.cache
def run_check(name: str) -> str:
    """Run one validate check at the criterion grid; its failure fails the test.

    Memoized, so C2 and C3 share one run of ``equilibrium-conditions``; a
    check that raises is not cached and fails every test that calls it.
    """
    return CHECKS[name](GRID)


def test_c01_oracle_equivalence(monkeypatch):
    # the per-solve time gate stays here: the validator reports no timings
    elapsed = []

    def timed_solve(*args, **kwargs):
        t0 = time.perf_counter()
        sol = solve_partial(*args, **kwargs)
        elapsed.append(time.perf_counter() - t0)
        return sol

    monkeypatch.setattr(validate, "solve_partial", timed_solve)
    detail = run_check("oracle-equivalence")
    # the single-type sweep and one two-type crowd without switching
    assert len(elapsed) == len(validate.SWEEP) + 1
    assert max(elapsed) < 1.0, f"slowest solve took {max(elapsed):.2f}s"
    report(f"C1 PASS: closed-form equivalence on the 1e4-node grid, {detail}, "
           f"slowest case {max(elapsed)*1e3:.0f} ms")


def test_c02_speed_jump_conditions():
    detail = run_check("equilibrium-conditions")
    report(f"C2 PASS: speed jumps match gamma*xi/(lambdaH+2eta) at every trade; {detail}")


def test_c03_terminal_and_initial_conditions():
    detail = run_check("equilibrium-conditions")
    report(f"C3 PASS: terminal coupling <= 1e-6 and initial inventory exact; {detail}")


def test_c04_derivative_identities():
    detail = run_check("derivative-identities")
    report(f"C4 PASS: speed = d(inventory)/dt, {detail} (<= 1e-4, 1e-6)")


def test_c05_box_invariant_on_presets():
    detail = run_check("value-coefficients")
    report(f"C5 PASS: quadratic coefficient {detail}")


def test_c06_mean_field_linearity():
    detail = run_check("mean-field-linearity")
    report(f"C6 PASS: two-type {detail}")


def test_c07_decoupled_joint_equilibrium_uniform():
    detail = run_check("overall-equilibrium")
    report(f"C7 PASS: with no crowd price impact the optimal schedule is uniform; {detail}")


def test_c08_qualitative_shapes():
    detail = run_check("qualitative-shapes")
    report(f"C8 PASS: round-trip pattern, within-interval dip-then-chase, {detail}")


@pytest.mark.slow
def test_c09_epsilon_nash_convergence():
    t_start = time.perf_counter()
    Ms = (100, 1000, 10000)
    seeds = range(30)
    # every seed of one M is one stacked population

    # population-average speed converges at the O(1/M) rate (two-type crowd)
    cfg2 = presets.partial_two_type(grid=400).with_solver(shooting_tolerance=1e-3)
    eq2 = solve_partial(cfg2)
    med_v = [float(np.median([met.vbar_l2
                              for _, met in simulate_population(cfg2, eq2, M, seeds)]))
             for M in Ms]
    slope = float(np.polyfit(np.log(Ms), np.log(med_v), 1)[0])
    assert -1.15 <= slope <= -0.85, f"slope {slope:.3f}"

    # a single crowd member cannot profitably deviate for large M
    cfg1 = presets.partial_single_type(2.0, 10.0, grid=400).with_solver(
        shooting_tolerance=1e-3)
    eq1 = solve_partial(cfg1)
    med_g, med_j = [], []
    for M in Ms:
        res = [deviation_gain(cfg1, eq1, traj)
               for traj, _ in simulate_population(cfg1, eq1, M, seeds)]
        assert all(r.gain >= -1e-10 for r in res)
        med_g.append(float(np.median([r.gain for r in res])))
        med_j.append(float(np.median([abs(r.j_mfg) for r in res])))
    assert med_g[0] > med_g[1] > med_g[2], f"gains {med_g}"
    hft_ratio = med_g[-1] / med_j[-1]
    assert hft_ratio < 0.01, f"gain/objective {hft_ratio:.2e}"

    # neither can the trader (two-type joint equilibrium)
    cfgo = presets.overall_two_type(grid=400).with_solver(shooting_tolerance=1e-3)
    eqo = solve_overall(cfgo)
    pi0 = abs(lt_profit(cfgo, eqo.mean_field).profit_no_hft)
    med_lt = []
    for M in Ms:
        vals = [lt_deviation_gain(cfgo, eqo, traj).gain
                for traj, _ in simulate_population(cfgo, eqo.mean_field, M, seeds)]
        assert all(v >= -1e-10 for v in vals)
        med_lt.append(float(np.median(vals)))
    assert med_lt[0] > med_lt[1] > med_lt[2], f"gains {med_lt}"
    lt_ratio = med_lt[-1] / pi0
    assert lt_ratio < 0.01, f"gain/|profit| {lt_ratio:.2e}"

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    report(f"C9 PASS: vbar slope {slope:.2f} in -1 +- 0.15; crowd gains "
           f"{med_g[0]:.1e} > {med_g[1]:.1e} > {med_g[2]:.1e} "
           f"({hft_ratio:.1e} of objective at M=1e4); trader gains "
           f"{med_lt[0]:.1e} > {med_lt[1]:.1e} > {med_lt[2]:.1e} "
           f"({lt_ratio:.1e} of |profit|); runtime {elapsed:.0f}s < 300s")


def test_c10_profit_analytics():
    detail = run_check("profit-arithmetic")
    report(f"C10 PASS: {detail}")


def test_c11_byte_identical_csvs_across_workers(tmp_path):
    raw = base_raw()
    raw["solver"]["grid_steps_per_unit_time"] = 150
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    blobs = []
    for i, workers in enumerate((1, 4, 16)):
        out = str(tmp_path / f"w{i}")
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", out,
                       "--M", "40", "80", "--seeds", "3", "--workers", str(workers)])
        assert rc == 0
        blobs.append({n: Path(out, n).read_bytes()
                      for n in sorted(os.listdir(out))})
    assert blobs[0] == blobs[1] == blobs[2]
    report("C11 PASS: simulate CSVs byte-identical under 1, 4 and 16 workers")
