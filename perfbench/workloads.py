"""The benchmark's workloads: generated inputs, CLI requests and output checks.

Every input is drawn from the workload seed; the CLI sees only the written
config files and its arguments.  ``solve`` and ``simulate`` draw a fresh
input for most requests, as separate CLI invocations would see, so a cache
kept inside the process across requests gains little; every
``REPEAT_EVERY``-th input repeats an earlier one for the byte-for-byte check.
Each request's check returns a list of problems, and a request with any
problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

ALL_FIGURES = tuple(f"F{i}" for i in range(1, 13))
ORACLE_FIGURES = ("F1", "F2")        # N = 1 panels with a closed form
SCHEDULE_FIGURES = ("F6", "F7")      # optimal schedules completing xi0 = -9
ORACLE_TOL = 1e-6                    # C1's bound
SUM_TOL = 1e-10
GAIN_FLOOR = -1e-10                  # C9's rule for deviation gains
FIXED_POINT_TOL = 1e-6
XI0 = -9.0                           # the overall presets' initial position
SEEDS = 2                            # simulate --seeds
REPEAT_EVERY = 4


@dataclass
class Request:
    kind: str                        # CLI subcommand
    argv: list[str]                  # without --out, which the runner adds
    key: str                         # equal keys must give byte-identical outputs
    check: Callable[[str], list[str]]
    tasks: int = 0                   # (M, seed) simulation tasks in the request
    agent_steps: int = 0             # sum over tasks of M x level-0 steps


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Metadata (``key=value`` pairs of the comment line), header and rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        meta_line = fh.readline()
        rows = list(csv.reader(fh))
    meta = dict(part.split("=", 1) for part in meta_line[2:].split() if "=" in part)
    return meta, rows[0], rows[1:]


def column(header: list[str], rows: list[list[str]], name: str) -> list[float]:
    i = header.index(name)
    return [float(r[i]) for r in rows]


def _missing(out: str, names) -> list[str]:
    return [f"missing {n}" for n in names if not os.path.exists(os.path.join(out, n))]


def fresh_or_repeat(rng: random.Random, draw: Callable[[], object]) -> Iterator:
    """Inputs from ``draw()``, except that every ``REPEAT_EVERY``-th is an earlier one."""
    drawn = []
    for n in itertools.count(1):
        if n % REPEAT_EVERY == 0:
            yield rng.choice(drawn)
        else:
            drawn.append(draw())
            yield drawn[-1]


def _write_config(cfg, path: str) -> str:
    from hftmfg.config import serialize_config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    return path


# ---------------------------------------------------------------------------


class SolveWorkload:
    """Alternating solve-partial / solve-overall on two-type configs drawn from the seed.

    Each config serves one solve-partial request and then one solve-overall.
    """

    name = "solve"

    def __init__(self, seed: int, workdir: str, grid: int = 10000):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.grid = grid
        self.paths = []                  # (partial path, overall path, tolerance) per config
        self._warm = self._draw()

    def _draw(self) -> int:
        from hftmfg import presets
        rng, i = self.rng, len(self.paths)
        d = {"phi": tuple(round(rng.uniform(0.0, 10.0), 4) for _ in range(2)),
             "Gamma": tuple(round(rng.uniform(0.0, 2.0), 4) for _ in range(2)),
             "x": round(rng.uniform(0.2, 0.8), 4), "y": round(rng.uniform(0.2, 0.8), 4)}
        partial = presets.partial_two_type(grid=self.grid, **d)
        overall = presets.overall_two_type(grid=self.grid, xi0=XI0, **d)
        self.paths.append(
            (_write_config(partial, os.path.join(self.workdir, f"partial{i}.json")),
             _write_config(overall, os.path.join(self.workdir, f"overall{i}.json")),
             partial.solver.shooting_tolerance))
        return i

    def _request(self, i: int, kind: str) -> Request:
        partial, overall, tol = self.paths[i]
        if kind == "solve-partial":
            return Request(kind, [kind, "--config", partial, "--grid", str(self.grid)],
                           f"{kind}-{i}", lambda out: check_partial(out, tol))
        return Request(kind, [kind, "--config", overall, "--grid", str(self.grid)],
                       f"{kind}-{i}", check_overall)

    def warmup(self) -> Request:
        return self._request(self._warm, "solve-partial")

    def requests(self) -> Iterator[Request]:
        for i in fresh_or_repeat(self.rng, self._draw):
            yield self._request(i, "solve-partial")
            yield self._request(i, "solve-overall")


def check_partial(out: str, tol: float) -> list[str]:
    problems = _missing(out, ("equilibrium.csv", "residuals.csv",
                              "equilibrium_E.svg", "equilibrium_mu.svg"))
    if problems:
        return problems
    meta, header, rows = read_csv(os.path.join(out, "residuals.csv"))
    terminal = float(meta["terminal"])
    if not terminal <= tol:
        problems.append(f"terminal residual {terminal:.3e} > {tol:g}")
    jumps = column(header, rows, "residual_aggregate") + column(header, rows, "residual_state_max")
    worst = max(jumps, default=0.0)
    if not worst <= tol:
        problems.append(f"jump residual {worst:.3e} > {tol:g}")
    return problems


def check_overall(out: str) -> list[str]:
    problems = _missing(out, ("xi_star.csv", "equilibrium.csv", "profit.csv", "concavity.csv"))
    if problems:
        return problems
    meta, header, rows = read_csv(os.path.join(out, "xi_star.csv"))
    total = math.fsum(column(header, rows, "xi_star_k"))
    if not abs(total + XI0) <= SUM_TOL:
        problems.append(f"xi_star sums to {total!r}, not {-XI0}")
    fpr = float(meta["fixed_point_residual"])
    if not fpr <= FIXED_POINT_TOL:
        problems.append(f"fixed-point residual {fpr:.3e} > {FIXED_POINT_TOL:g}")
    meta, _, _ = read_csv(os.path.join(out, "concavity.csv"))
    if meta.get("negative_definite") != "True":
        problems.append("objective not negative definite")
    return problems


# ---------------------------------------------------------------------------


class SimulateWorkload:
    """CLI ``simulate`` in overall mode on the C9 two-type joint preset."""

    name = "simulate"

    def __init__(self, seed: int, workdir: str, grid: int = 400, Ms=(1000, 10000)):
        from hftmfg import presets
        from hftmfg.meanfield import default_grid
        cfg = presets.overall_two_type(grid=grid, xi0=XI0).with_solver(shooting_tolerance=1e-3)
        self.path = _write_config(cfg, os.path.join(workdir, "simulate.json"))
        self.Ms = tuple(Ms)
        self.rng = random.Random(seed)
        self.level0_steps = sum(default_grid(cfg).steps)
        self._warm = self._draw()

    def _draw(self) -> int:
        return self.rng.randrange(1_000_000)

    def _request(self, base: int, Ms) -> Request:
        tasks = len(Ms) * SEEDS
        argv = ["simulate", "--config", self.path, "--M", *map(str, Ms),
                "--seeds", str(SEEDS), "--seed", str(base), "--workers", "1"]
        return Request("simulate", argv, f"simulate-{base}-{Ms}",
                       lambda out: check_simulate(out, tasks), tasks=tasks,
                       agent_steps=sum(Ms) * SEEDS * self.level0_steps)

    def warmup(self) -> Request:
        return self._request(self._warm, self.Ms[:1])

    def requests(self) -> Iterator[Request]:
        for base in fresh_or_repeat(self.rng, self._draw):
            yield self._request(base, self.Ms)


def check_simulate(out: str, tasks: int) -> list[str]:
    problems = _missing(out, ("metrics.csv", "deviations_hft.csv", "deviations_lt.csv"))
    if problems:
        return problems
    _, _, rows = read_csv(os.path.join(out, "metrics.csv"))
    if len(rows) != tasks:
        problems.append(f"metrics.csv has {len(rows)} rows for {tasks} tasks")
    for name in ("deviations_hft.csv", "deviations_lt.csv"):
        _, header, rows = read_csv(os.path.join(out, name))
        gains = column(header, rows, "gain")
        if len(gains) != tasks or not all(g >= GAIN_FLOOR for g in gains):
            problems.append(f"{name}: gains {gains} (need {tasks} rows, each >= {GAIN_FLOOR:g})")
    return problems


# ---------------------------------------------------------------------------


class SweepWorkload:
    """CLI ``figures`` over all ids, in an order permuted by the seed per request.

    The figures' inputs are fixed presets, so every request repeats the same
    work; a gain from a cache kept across requests in one process is not one
    the CLI, which runs one command per process, would see.
    """

    name = "sweep"

    def __init__(self, seed: int, workdir: str, ids=ALL_FIGURES):
        from hftmfg.figures import figure_specs
        from hftmfg.meanfield import closed_form_n1
        from hftmfg.reporting import equilibrium_rows
        self.rng = random.Random(seed)
        self.ids = tuple(ids)
        specs = figure_specs()
        self.panels = {fid: [p.name for p in specs[fid].panels] for fid in specs}
        # closed-form references, computed before any timing or tracing starts
        self.oracle = {}
        for fid in ORACLE_FIGURES:
            for panel in specs[fid].panels:
                header, rows = equilibrium_rows(closed_form_n1(panel.cfg))
                i = header.index("E_agg")
                self.oracle[panel.name] = [float(r[i]) for r in rows]

    def _request(self, ids) -> Request:
        return Request("figures", ["figures", "--ids", *ids, "--workers", "1"],
                       "figures-" + "-".join(sorted(ids)),
                       lambda out: check_sweep(out, ids, self.panels, self.oracle))

    def warmup(self) -> Request:
        return self._request(["F1", "F6"])

    def requests(self) -> Iterator[Request]:
        while True:
            ids = list(self.ids)
            self.rng.shuffle(ids)
            yield self._request(ids)


def check_sweep(out: str, ids, panels: dict, oracle: dict) -> list[str]:
    expected = {f"{p}.{ext}" for fid in ids for p in panels[fid] for ext in ("csv", "svg")}
    present = set(os.listdir(out)) if os.path.isdir(out) else set()
    problems = [f"missing {n}" for n in sorted(expected - present)]
    problems += [f"unexpected {n}" for n in sorted(present - expected)]
    if problems:
        return problems
    for fid in ids:
        for p in panels[fid]:
            path = os.path.join(out, f"{p}.csv")
            if fid in ORACLE_FIGURES:
                _, header, rows = read_csv(path)
                got = column(header, rows, "E_agg")
                ref = oracle[p]
                err = max((abs(a - b) for a, b in zip(got, ref)), default=math.inf)
                if len(got) != len(ref) or not err <= ORACLE_TOL:
                    problems.append(f"{p}: E_agg differs from closed_form_n1 by {err:.3e}")
            elif fid in SCHEDULE_FIGURES:
                _, header, rows = read_csv(path)
                total = math.fsum(column(header, rows, "xi_star_k"))
                if not abs(total - 9.0) <= SUM_TOL:
                    problems.append(f"{p}: schedule sums to {total!r}, not 9")
    return problems


WORKLOADS = {w.name: w for w in (SolveWorkload, SimulateWorkload, SweepWorkload)}


@dataclass
class Outputs:
    """First output of every request key, for the byte-for-byte repeat check."""
    first: dict[str, dict[str, bytes]] = field(default_factory=dict)

    def compare(self, key: str, out: str) -> list[str]:
        digest = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).digest()
        seen = self.first.setdefault(key, digest)
        if seen is digest:
            return []
        changed = sorted(n for n in seen.keys() | digest.keys() if seen.get(n) != digest.get(n))
        return [f"repeat of {key} differs from its first output in {changed}"] if changed else []
