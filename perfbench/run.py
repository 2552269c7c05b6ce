"""Benchmark of the ``hftmfg`` command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next CLI request starts
when the previous one has returned, and every request runs ``cli.main(argv)``
with ``--workers 1``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run measures half its time
untraced and half with spans installed, and the last line carries the
per-layer metrics.  The line before it is a report with the per-command
metrics, sample counts and the environment.

Times are reported at reference speed: each request's time is divided by
the speed factor that ``probe.SpeedProbe`` sampled on the same thread while
the request ran (see probe.py for why).  The report line also gives the raw
medians and the median factors.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from probe import SpeedProbe
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Outputs

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 40

# The child times its own import plus the warm-up request, so interpreter
# start-up (not the package's doing) stays out of setup_s.  The probe imports
# numpy, which hftmfg would import anyway, inside the timed part.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {here!r})
from probe import SpeedProbe
probe = SpeedProbe()
probe.start()
sys.path.insert(0, {src!r})
import hftmfg.cli
rc = hftmfg.cli.main({argv!r})
t1 = time.perf_counter()
probe.stop()
print(repr(t1 - t0), repr(probe.factor(t0, t1)))
sys.exit(rc)
"""


@dataclass
class Result:
    rid: int
    kind: str
    seconds: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    tasks: int = 0
    agent_steps: int = 0
    bytes_written: int = 0
    factor: float = math.nan         # machine slowness while it ran, 1 = reference

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.factor


class Runner:
    """Executes and checks requests.

    ``probe``, when running, gives each request its speed factor; ``tracer``
    wraps requests in spans.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.outputs = Outputs()
        self.results: list[Result] = []
        self.probe = None
        self.tracer = None

    def execute(self, req) -> Result:
        import hftmfg.cli
        rid = len(self.results)
        out = os.path.join(self.workdir, f"req{rid}")
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    exit_code = hftmfg.cli.main(req.argv + ["--out", out])
                else:
                    with self.tracer.request(rid):
                        exit_code = hftmfg.cli.main(req.argv + ["--out", out])
            except Exception:
                stderr.write(traceback.format_exc())
            t1 = time.perf_counter()
        res = Result(rid, req.kind, t1 - t0, exit_code, tasks=req.tasks,
                     agent_steps=req.agent_steps)
        if self.probe is not None:
            res.factor = self.probe.factor(t0, t1)
        if exit_code != 0:
            res.problems.append(f"exit code {exit_code}: {stderr.getvalue().strip()}")
        res.problems += [line for line in stdout.getvalue().splitlines()
                         if line.startswith("WARN")]
        if exit_code == 0:
            try:
                res.problems += req.check(out)
            except Exception:     # an unreadable output is a wrong answer too
                res.problems.append("output check raised: " + traceback.format_exc())
            res.problems += self.outputs.compare(req.key, out)
        if os.path.isdir(out):
            res.bytes_written = sum(e.stat().st_size for e in os.scandir(out))
            shutil.rmtree(out)
        for problem in res.problems:
            print(f"request {rid} ({' '.join(req.argv)}) failed: {problem}", file=sys.stderr)
        self.results.append(res)
        return res

    def loop(self, requests, seconds: float) -> list[Result]:
        """Closed loop: start requests until ``seconds`` have passed (at least one)."""
        done = []
        deadline = time.perf_counter() + seconds
        for req in requests:
            done.append(self.execute(req))
            if time.perf_counter() >= deadline:
                return done
        return done

    def setup(self, src: str, warmup) -> list[Result]:
        """Fresh interpreters each importing hftmfg and running the warm-up request."""
        done = []
        for i in range(SETUP_RUNS):
            argv = warmup.argv + ["--out", os.path.join(self.workdir, f"setup{i}")]
            code = SETUP_CODE.format(here=HERE, src=src, argv=argv)
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            res = Result(len(self.results), "setup", math.nan, proc.returncode)
            if proc.returncode == 0 and lines:
                res.seconds, res.factor = map(float, lines[-1].split())
                done.append(res)
            else:
                res.problems.append(f"setup exit code {proc.returncode}: {proc.stderr.strip()}")
                print(f"setup run {i} failed: {res.problems[0]}", file=sys.stderr)
            self.results.append(res)
        return done


def median(values) -> float:
    return float(statistics.median(values))


def by_kind(results: list[Result], attr: str = "ref_seconds") -> dict[str, list[float]]:
    """Successful requests' times (at reference speed by default) per command."""
    out: dict[str, list[float]] = {}
    for r in results:
        if r.ok:
            out.setdefault(r.kind, []).append(getattr(r, attr))
    return out


def request_p50(results: list[Result]) -> float:
    """Mean over the workload's commands of each command's median latency."""
    return statistics.fmean(median(v) for v in by_kind(results).values())


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * k / (n - 1)


COMMAND_METRIC = {"solve-partial": "solve_partial_s", "solve-overall": "solve_overall_s",
                  "simulate": "simulate_s", "figures": "figures_s"}


def command_report(workload: str, measured: list[Result]) -> tuple[dict, dict]:
    """The per-command metrics of the workload, with sample counts."""
    metrics, samples = {}, {}
    raw = by_kind(measured, "seconds")
    factors = by_kind(measured, "factor")
    for kind, values in sorted(by_kind(measured).items()):
        name = COMMAND_METRIC[kind]
        metrics[f"{name}.p50"] = {"value": median(values), "unit": "s"}
        metrics[f"{name}.raw_p50"] = {"value": median(raw[kind]), "unit": "s"}
        metrics[f"{name}.factor_p50"] = {"value": median(factors[kind]), "unit": "1"}
        samples[name] = {"n": len(values), "raw_seconds": raw[kind], "factor": factors[kind]}
        t = tail(values)
        if workload == "solve" and t is not None:
            metrics[f"{name}.tail"] = {"value": t[0], "unit": "s"}
            samples[name]["tail_percentile"] = t[1]
    if workload == "simulate":
        ok = [r for r in measured if r.ok]
        metrics["simulate_agent_steps_per_s"] = {
            "value": sum(r.agent_steps for r in ok) / sum(r.ref_seconds for r in ok),
            "unit": "1/s"}
    return metrics, samples


def cache_sizes_kib() -> dict[str, int]:
    """Total L2 and L3 size over all cache instances, as Linux sysfs lists them."""
    seen, totals = set(), {}
    for cache in glob.glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*"):
        fields = []
        try:
            for name in ("level", "shared_cpu_list", "size"):
                with open(os.path.join(cache, name), encoding="utf-8") as fh:
                    fields.append(fh.read().strip())
        except OSError:
            continue
        level, shared, size = fields
        if level in ("2", "3") and size.endswith("K") and (level, shared) not in seen:
            seen.add((level, shared))
            totals[f"L{level}"] = totals.get(f"L{level}", 0) + int(size[:-1])
    return totals


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "cache_kib": cache_sizes_kib()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "simulate", "sweep"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hftmfg", "__init__.py")):
        print(f"perfbench: {src}/hftmfg not found; run from the repository root",
              file=sys.stderr)
        return 2
    # inputs come only from the seed, never from HFTMFG_* overrides
    for key in [k for k in os.environ if k.startswith("HFTMFG_")]:
        del os.environ[key]
    sys.path.insert(0, src)

    import hftmfg
    if os.path.dirname(os.path.dirname(os.path.abspath(hftmfg.__file__))) != src:
        print(f"perfbench: imported hftmfg from {hftmfg.__file__}, not {src}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workdir)
        setups = []
        if args.trace == 0:
            setups = runner.setup(src, workload.warmup())
            if not setups:
                print("perfbench: every setup run failed", file=sys.stderr)
                return 1
        runner.probe = SpeedProbe()
        runner.probe.start()
        runner.execute(workload.warmup())
        requests = workload.requests()
        metrics: dict[str, dict] = {}
        if args.trace == 0:
            measured = runner.loop(requests, args.seconds)
            if not any(r.ok for r in measured):
                print("perfbench: no request succeeded", file=sys.stderr)
                return 1
            metrics = {
                "setup_s": {"value": median(r.ref_seconds for r in setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "request_s.p50": {"value": request_p50(measured), "unit": "s"},
            }
        else:
            measured = runner.loop(requests, args.seconds / 2.0)
            tracer = Tracer()
            try:
                tracer.install()
                runner.tracer = tracer
                traced = runner.loop(requests, args.seconds / 2.0)
            finally:
                tracer.uninstall()
                runner.tracer = None
            span_dir = os.path.join(HERE, "work", "spans")
            os.makedirs(span_dir, exist_ok=True)
            span_path = os.path.join(span_dir, f"{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_path, t_start)
            if not any(r.ok for r in measured) or not any(r.ok for r in traced):
                print("perfbench: no request succeeded", file=sys.stderr)
                return 1
            layers = layer_metrics(tracer, traced)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            metrics["trace.overhead_share"] = {
                "value": request_p50(traced) / request_p50(measured) - 1.0, "unit": "1"}

        attempted = len(runner.results)
        failed = sum(not r.ok for r in runner.results)
        report, samples = command_report(args.workload, measured)
        report["setup_s"] = metrics.get("setup_s")
        if setups:
            report["setup_s.factor_p50"] = {"value": median(r.factor for r in setups),
                                            "unit": "1"}
        report["failed_share"] = {"value": failed / attempted, "unit": "1"}
        if args.trace == 1:
            metrics["failed_share"] = report["failed_share"]
            report["span_file"] = os.path.relpath(span_path, root)
        print(json.dumps({"report": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "metrics": {k: v for k, v in report.items() if v is not None},
            "samples": samples,
            "setup": {"raw_seconds": [r.seconds for r in setups],
                      "factor": [r.factor for r in setups]},
            "environment": environment()}}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        if runner is not None and runner.probe is not None:
            runner.probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
