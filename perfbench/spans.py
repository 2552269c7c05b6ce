"""Per-layer spans recorded from outside the ``hftmfg`` package.

Each public function is wrapped where its caller looks it up: a module that
imported a function by name (``from .meanfield import solve_partial``) holds
its own reference, so wrapping only the defining module would miss those
calls.  ``MeanFieldEngine.__init__`` and ``.solve`` are wrapped on the class,
which every importer shares.

Spans stay in memory (name, start, end, parent, request id and a few counts
taken from the call's arguments or result) and are written out once, at the
end of a run, to a path outside every request's ``--out`` directory.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("chain", "riccati", "meanfield", "strategy", "simulate", "reporting",
          "figures", "cli")
REQUEST = "cli.request"

# name the function is imported under -> span name (layer.function)
CLI_SITES = {
    "solve_partial": "meanfield.solve_partial",
    "solve_overall": "strategy.solve_overall",
    "simulate_population": "simulate.simulate_population",
    "deviation_gain": "simulate.deviation_gain",
    "lt_deviation_gain": "simulate.lt_deviation_gain",
    "write_csv": "reporting.write_csv",
    "write_equilibrium_csv": "reporting.write_equilibrium_csv",
    "plot_columns_from_csv": "reporting.plot_columns_from_csv",
}
FIGURES_SITES = {name: CLI_SITES[name] for name in (
    "solve_partial", "solve_overall", "write_csv", "write_equilibrium_csv",
    "plot_columns_from_csv")}
FIGURES_SITES.update({"render_panel": "figures.render_panel",
                      "profit_difference_scan": "figures.profit_difference_scan"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a request root
    request: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _h2_info(args, kwargs, result) -> dict:
    # fine-mesh steps (two per level-0 step) times the number of states
    aversion, grid = _arg(args, kwargs, 0, "aversion"), _arg(args, kwargs, 2, "grid")
    return {"node_steps": 2 * sum(grid.steps) * aversion.n_states}


def _population_info(args, kwargs, result) -> dict:
    eq, M = _arg(args, kwargs, 1, "eq"), _arg(args, kwargs, 2, "M")
    return {"agent_steps": int(M) * sum(eq.grid.steps)}


def _engine_solve_info(args, kwargs, result) -> dict:
    tol = args[0].cfg.solver.shooting_tolerance
    r = result.residuals
    return {"residual_warning": int(max(r.terminal, r.worst_jump, r.initial) > tol)}


def _overall_info(args, kwargs, result) -> dict:
    from hftmfg.strategy import FIXED_POINT_TOL
    bad = result.fixed_point_residual > FIXED_POINT_TOL or not result.concavity.negative_definite
    return {"residual_warning": int(bad)}


INFO = {"riccati.solve_h2": _h2_info,
        "simulate.simulate_population": _population_info,
        "meanfield.engine_solve": _engine_solve_info,
        "strategy.solve_overall": _overall_info}


class Tracer:
    """Installs the wrappers, records spans, and restores the package on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.site_calls: Counter = Counter()     # per wrapped lookup site
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, site: str, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.site_calls[site] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, in the innermost layer it left
                if not getattr(exc, "_perfbench_counted", False):
                    self.errors[name.split(".")[0]] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx].info = info(args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(f"{owner.__name__}.{attr}", name, original))

    def install(self) -> None:
        import hftmfg.cli as cli
        import hftmfg.figures as figures
        import hftmfg.meanfield as meanfield
        import hftmfg.reporting as reporting
        import hftmfg.simulate as simulate
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(meanfield, "solve_chain", "chain.solve_chain")
        self._patch(meanfield, "solve_h2", "riccati.solve_h2")
        self._patch(meanfield.MeanFieldEngine, "__init__", "meanfield.engine_build")
        self._patch(meanfield.MeanFieldEngine, "solve", "meanfield.engine_solve")
        self._patch(simulate, "simulate_population", "simulate.simulate_population")
        self._patch(reporting, "write_csv", "reporting.write_csv")
        for module, sites in ((cli, CLI_SITES), (figures, FIGURES_SITES)):
            for attr, name in sites.items():
                self._patch(module, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self._request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id: int):
        """Root span of one CLI request; the wrapped calls nest under it."""
        self._request = request_id
        idx = self._open(REQUEST)
        try:
            yield
        finally:
            self._close(idx)
            self._request = -1

    def write(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent,
                                     "request": s.request, **s.info}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, requests: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced requests.

    Each is the median over a command's requests, averaged over the
    workload's commands (``solve`` has two).  ``requests`` holds the
    benchmark's results of the traced requests (with ``kind``, ``rid``,
    ``tasks``, ``bytes_written`` and the speed ``factor``).  Times
    are divided by the request's factor, as the end-to-end ones are.  Error
    and warning counts are totals over the traced run, because a median of
    mostly zeros hides them.
    """
    selfs = self_times(tracer.spans)
    per: dict[int, dict] = {r.rid: {"wall": 0.0, "self": Counter(), "calls": Counter(),
                                    "info": Counter(), "overall_solves": 0,
                                    "scale": 1.0 / r.factor if r.factor > 0 else 1.0}
                            for r in requests}
    for i, s in enumerate(tracer.spans):
        rec = per.get(s.request)
        if rec is None:
            continue
        if s.name == REQUEST:
            rec["wall"] = s.duration * rec["scale"]
        rec["self"][s.name] += selfs[i] * rec["scale"]
        rec["calls"][s.name] += 1
        rec["info"].update(s.info)
        if s.name == "meanfield.engine_solve" and _under(tracer.spans, i,
                                                         "strategy.solve_overall"):
            rec["overall_solves"] += 1

    out: dict[str, tuple[float, str]] = {}

    kinds: dict[str, list] = {}
    for r in requests:
        kinds.setdefault(r.kind, []).append(r)

    def per_request(name: str, unit: str, fn) -> None:
        # mean over commands of the per-command median, as for request_s.p50
        out[name] = (statistics.fmean(_median(fn(per[r.rid], r) for r in rs)
                                      for rs in kinds.values()), unit)

    def self_pair(span: str) -> None:
        per_request(f"{span}.self_s", "s", lambda p, r: p["self"][span])
        per_request(f"{span}.self_share", "1", lambda p, r: _ratio(p["self"][span], p["wall"]))

    def calls(span: str) -> None:
        per_request(f"{span}.calls", "count", lambda p, r: p["calls"][span])

    self_pair("riccati.solve_h2")
    calls("riccati.solve_h2")
    per_request("riccati.h2_node_steps_per_s", "1/s",
                lambda p, r: _ratio(p["info"]["node_steps"], p["self"]["riccati.solve_h2"]))
    for span in ("meanfield.engine_build", "meanfield.engine_solve"):
        self_pair(span)
        calls(span)
    overall_spans = sum(p["calls"]["strategy.solve_overall"] for p in per.values())
    overall_solves = sum(p["overall_solves"] for p in per.values())
    out["strategy.solves_per_overall"] = (_ratio(overall_solves, overall_spans), "count")
    for span in ("chain.solve_chain", "strategy.solve_overall",
                 "figures.profit_difference_scan"):
        self_pair(span)
    calls("figures.render_panel")
    self_pair("simulate.simulate_population")
    calls("simulate.simulate_population")
    per_request("simulate.calls_per_task", "count",
                lambda p, r: _ratio(p["calls"]["simulate.simulate_population"], r.tasks))
    per_request("simulate.agent_steps_per_s", "1/s",
                lambda p, r: _ratio(p["info"]["agent_steps"],
                                    p["self"]["simulate.simulate_population"]))
    for span in ("simulate.deviation_gain", "simulate.lt_deviation_gain",
                 "reporting.write_equilibrium_csv", "reporting.write_csv",
                 "reporting.plot_columns_from_csv"):
        self_pair(span)
    reporting = ("reporting.write_equilibrium_csv", "reporting.write_csv",
                 "reporting.plot_columns_from_csv")
    per_request("reporting.bytes_written", "B", lambda p, r: r.bytes_written)
    per_request("reporting.bytes_per_s", "B/s",
                lambda p, r: _ratio(r.bytes_written, sum(p["self"][s] for s in reporting)))
    per_request("cli.overhead_s", "s", lambda p, r: p["self"][REQUEST])
    per_request("cli.overhead_share", "1", lambda p, r: _ratio(p["self"][REQUEST], p["wall"]))
    out["meanfield.residual_warnings"] = (
        float(sum(p["info"]["residual_warning"] for p in per.values())), "count")
    for layer in LAYERS:
        n = tracer.errors[layer]
        if layer == "cli":
            n += sum(1 for r in requests if r.exit_code != 0)
        out[f"{layer}.errors"] = (float(n), "count")
    return out


def _under(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
