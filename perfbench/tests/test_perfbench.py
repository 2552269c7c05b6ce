"""Tests of the benchmark itself, at sizes small enough for the unit suite."""

import itertools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, workdir: str):
    if name == "solve":
        return workloads.SolveWorkload(7, workdir, grid=200)
    if name == "simulate":
        return workloads.SimulateWorkload(7, workdir, grid=100, Ms=(20, 40))
    # figure presets fix their own grids; these ids cover every checked panel kind
    return workloads.SweepWorkload(7, workdir, ids=("F1", "F2", "F6", "F7"))


@pytest.mark.parametrize("name", ["solve", "simulate", "sweep"])
def test_tiny_workload_runs_clean(name, tmp_path):
    workload = tiny(name, str(tmp_path))
    runner = run.Runner(str(tmp_path))
    runner.execute(workload.warmup())
    # enough requests that an input repeats, so the byte check runs
    n = 2 * workloads.REPEAT_EVERY
    runner.loop(itertools.islice(workload.requests(), n), seconds=1e9)
    assert [r.problems for r in runner.results] == [[]] * (n + 1)
    assert len(runner.outputs.first) < n + 1


def test_fresh_or_repeat():
    draws = iter(range(100))
    got = list(itertools.islice(
        workloads.fresh_or_repeat(workloads.random.Random(1), lambda: next(draws)),
        3 * workloads.REPEAT_EVERY))
    assert len(set(got)) == 3 * (workloads.REPEAT_EVERY - 1)
    assert all(got[i] in got[:i] for i in range(workloads.REPEAT_EVERY - 1, len(got),
                                                  workloads.REPEAT_EVERY))


@pytest.mark.parametrize("name", ["solve", "simulate"])
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(sub):
        (tmp_path / sub).mkdir()
        workload = tiny(name, str(tmp_path / sub))
        out = []
        for req in itertools.chain([workload.warmup()],
                                   itertools.islice(workload.requests(), 8)):
            config = req.argv.index("--config") + 1
            with open(req.argv[config], encoding="utf-8") as fh:
                out.append((req.key, req.argv[:config] + req.argv[config + 1:], fh.read()))
        return out

    assert inputs("a") == inputs("b")


def test_every_wrapper_records_a_span(tmp_path):
    """A function imported under another module name must not escape the trace."""
    runner = run.Runner(str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        solve = tiny("solve", str(tmp_path))
        for req in itertools.islice(solve.requests(), 2):
            runner.execute(req)
        runner.execute(tiny("simulate", str(tmp_path)).warmup())
        runner.execute(workloads.SweepWorkload(7, str(tmp_path))._request(["F1", "F3", "F6"]))
        sites = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._patches]
    finally:
        tracer.uninstall()
    assert all(r.ok for r in runner.results)
    assert sorted(s for s in sites if tracer.site_calls[s] == 0) == []
    assert len(sites) == 6 + len(spans.CLI_SITES) + len(spans.FIGURES_SITES)
    metrics = spans.layer_metrics(tracer, runner.results)
    assert metrics["meanfield.engine_solve.calls"][0] >= 12
    assert metrics["strategy.solves_per_overall"][0] > 0


def test_uninstall_restores_the_package():
    import hftmfg.cli
    import hftmfg.meanfield
    before = (hftmfg.cli.write_csv, hftmfg.meanfield.MeanFieldEngine.__dict__["solve"])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert (hftmfg.cli.write_csv, hftmfg.meanfield.MeanFieldEngine.__dict__["solve"]) == before


def test_failing_request_is_counted(tmp_path):
    simulate = tiny("simulate", str(tmp_path))
    req = workloads.Request("simulate", ["simulate", "--config", simulate.path, "--M", "1"],
                            "must-fail", lambda out: [])
    runner = run.Runner(str(tmp_path))
    res = runner.execute(req)
    assert res.exit_code == 1 and not res.ok
    assert "at least two agents" in res.problems[0]
    assert runner.results == [res]


def test_wrong_output_is_a_failure(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "xi_star.csv").write_text(
        "# fixed_point_residual=1e-12\nk,t_k,xi_star_k\n1,0.5,4.0\n2,1.0,4.0\n")
    for name in ("equilibrium.csv", "profit.csv"):
        (out / name).write_text("# x\na\n")
    (out / "concavity.csv").write_text("# negative_definite=True\neigenvalue\n-1.0\n")
    assert workloads.check_overall(str(out)) == ["xi_star sums to 8.0, not 9.0"]


def test_speed_factor_is_the_mean_sample_inside_the_request():
    p = probe.SpeedProbe()
    p.times = [float(t) for t in range(6)]
    p.seconds = [r * probe.REF_KERNEL_S for r in (9.0, 2.0, 4.0, 3.0, 9.0, 5.0)]
    assert p.factor(0.5, 3.5) == pytest.approx(3.0)
    assert p.factor(5.2, 5.4) == pytest.approx(5.0)   # nearest sample


def test_speed_probe_samples_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    p = probe.SpeedProbe()
    p.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        probe.kernel()
    p.stop()
    assert len(p.times) >= 2 and p.factor(t0, time.perf_counter()) > 0
    assert signal.getsignal(signal.SIGALRM) == before


def test_probe_check_reports_every_program(monkeypatch, capsys):
    import probe_check
    monkeypatch.chdir(ROOT)
    assert probe_check.main(["--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["solve-partial", "array-passes",
                                                      "python-loop"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(21)])
    assert value == 10.0 and pct == 50.0


def test_outside_a_checkout_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "solve", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_traced_run_prints_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "solve", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert last["metrics"]["meanfield.engine_build.calls"]["value"] == 1.0
