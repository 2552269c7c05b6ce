"""Model configuration: schema, validation, serialization.

JSON layout (all numbers unit-free)::

    {
      "mode": "partial" | "overall",
      "market":     {"gamma", "gammaH", "lambda", "lambdaH", "eta", "eta0", "sigma"},
      "aversion":   {"Gamma": [...], "phi": [...], "Q": [[...]], "p0": [...]},
      "schedule":   {"T", "times": [...], "quantities": [...]?, "xi0"?},
      "population": {"E0": [...], "inventory_bound"},
      "solver":     {"grid_steps_per_unit_time", "shooting_tolerance"}
    }

``quantities`` is required in partial mode (the trade schedule is data);
``xi0`` is required in overall mode (the solver produces the schedule).  The
discrete trades are priced with the right-continuous value of the aggregate
trading speed at each trade time; no key selects another.

Every validation failure raises :class:`ConfigError` naming the violated
field; nothing is silently clamped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

ROW_SUM_TOL = 1e-12
FEASIBILITY_TOL = 1e-12
ENV_PREFIX = "HFTMFG_"


def _farray(x, name: str, ndim: int) -> np.ndarray:
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not numeric: {exc}") from None
    if a.ndim != ndim:
        raise ConfigError(f"{name} must be {ndim}-dimensional")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


def _fnum(x, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{name} must be a number")
    v = float(x)
    if not np.isfinite(v):
        raise ConfigError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class MarketParams:
    gamma: float      # permanent impact of the large trader's trades
    gamma_h: float    # permanent impact of the crowd's aggregate speed
    lam: float        # temporary impact of the large trader's trades
    lam_h: float      # temporary impact of the crowd's aggregate speed
    eta: float        # crowd trading fee
    eta0: float       # large trader's trading fee
    sigma: float = 0.0

    def validate(self) -> None:
        if not self.gamma > 0:
            raise ConfigError("market.gamma must be > 0")
        if not self.gamma_h >= 0:
            raise ConfigError("market.gammaH must be >= 0")
        if not self.lam > 0:
            raise ConfigError("market.lambda must be > 0")
        if not self.lam_h >= 0:
            raise ConfigError("market.lambdaH must be >= 0")
        if not self.eta > 0:
            raise ConfigError("market.eta must be > 0")
        if not self.eta0 > 0:
            raise ConfigError("market.eta0 must be > 0")
        if not self.sigma >= 0:
            raise ConfigError("market.sigma must be >= 0")


@dataclass(frozen=True)
class AversionSpec:
    Gamma: np.ndarray   # per-state terminal inventory aversion, >= 0
    phi: np.ndarray     # per-state running inventory aversion, >= 0
    Q: np.ndarray       # state transition rate matrix
    p0: np.ndarray      # initial state distribution

    @property
    def n_states(self) -> int:
        return len(self.p0)

    def validate(self) -> None:
        n = self.n_states
        if n < 1:
            raise ConfigError("aversion.p0 must be non-empty")
        if self.Gamma.shape != (n,) or self.phi.shape != (n,):
            raise ConfigError("aversion.Gamma/phi length must match p0")
        if self.Q.shape != (n, n):
            raise ConfigError("aversion.Q must be square with side len(p0)")
        if np.any(self.Gamma < 0):
            raise ConfigError("aversion.Gamma entries must be >= 0")
        if np.any(self.phi < 0):
            raise ConfigError("aversion.phi entries must be >= 0")
        off = self.Q - np.diag(np.diag(self.Q))
        if np.any(off < 0):
            raise ConfigError("aversion.Q off-diagonal entries must be >= 0")
        rows = np.abs(self.Q.sum(axis=1))
        if np.any(rows > ROW_SUM_TOL):
            k = int(np.argmax(rows))
            raise ConfigError(f"aversion.Q row sum must be 0 (row {k}: {self.Q.sum(axis=1)[k]:.3e})")
        # the chain divides by p, so a state that starts empty aborts every solve
        if np.any(self.p0 <= 0):
            raise ConfigError("aversion.p0 entries must be > 0")
        if abs(self.p0.sum() - 1.0) > ROW_SUM_TOL:
            raise ConfigError(f"aversion.p0 sum must be 1 (got {self.p0.sum()!r})")


@dataclass(frozen=True)
class LTSchedule:
    T: float
    times: np.ndarray                 # strictly increasing interior trade times
    quantities: np.ndarray | None     # signed shares per trade (partial mode data)
    xi0: float | None                 # initial position (overall mode data)

    @property
    def K(self) -> int:
        return len(self.times)

    def validate(self) -> None:
        if not self.T > 0:
            raise ConfigError("schedule.T must be > 0")
        if self.K:
            if np.any(np.diff(self.times) <= 0):
                raise ConfigError("schedule.times must be strictly increasing")
            if not (self.times[0] > 0 and self.times[-1] < self.T):
                raise ConfigError("schedule.times must lie strictly inside (0, T)")
        if self.quantities is not None and self.quantities.shape != (self.K,):
            raise ConfigError("schedule.quantities length must match schedule.times")


@dataclass(frozen=True)
class PopulationInit:
    E0: np.ndarray          # per-state initial mean inventory
    inventory_bound: float  # bound m on initial inventories of finite agents

    def validate(self) -> None:
        if not self.inventory_bound >= float(np.max(np.abs(self.E0), initial=0.0)):
            raise ConfigError("population.inventory_bound must be >= max |E0_i|")


@dataclass(frozen=True)
class SolverSettings:
    grid_steps_per_unit_time: int = 1000
    shooting_tolerance: float = 1e-6

    def validate(self) -> None:
        if not isinstance(self.grid_steps_per_unit_time, int) or isinstance(self.grid_steps_per_unit_time, bool):
            raise ConfigError("solver.grid_steps_per_unit_time must be an integer")
        if self.grid_steps_per_unit_time < 100:
            raise ConfigError("solver.grid_steps_per_unit_time must be >= 100")
        tol = self.shooting_tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < np.inf:
            raise ConfigError("solver.shooting_tolerance must be a finite number > 0")


@dataclass(frozen=True)
class ModelConfig:
    mode: str
    market: MarketParams
    aversion: AversionSpec
    schedule: LTSchedule
    population: PopulationInit
    solver: SolverSettings

    @property
    def n_states(self) -> int:
        return self.aversion.n_states

    def validate(self) -> None:
        if self.mode not in ("partial", "overall"):
            raise ConfigError("mode must be 'partial' or 'overall'")
        self.market.validate()
        self.aversion.validate()
        self.schedule.validate()
        self.population.validate()
        self.solver.validate()
        if self.population.E0.shape != (self.n_states,):
            raise ConfigError("population.E0 length must match the number of states")
        if self.mode == "partial" and self.schedule.quantities is None:
            raise ConfigError("partial mode requires schedule.quantities")
        if self.mode == "overall" and self.schedule.xi0 is None:
            raise ConfigError("overall mode requires schedule.xi0")
        if self.mode == "overall" and self.schedule.quantities is not None:
            validate_schedule_feasibility(self)

    def to_dict(self) -> dict:
        m = self.market
        sched: dict = {"T": self.schedule.T, "times": list(self.schedule.times)}
        if self.schedule.quantities is not None:
            sched["quantities"] = list(self.schedule.quantities)
        if self.schedule.xi0 is not None:
            sched["xi0"] = self.schedule.xi0
        return {
            "mode": self.mode,
            "market": {"gamma": m.gamma, "gammaH": m.gamma_h, "lambda": m.lam,
                       "lambdaH": m.lam_h, "eta": m.eta, "eta0": m.eta0, "sigma": m.sigma},
            "aversion": {"Gamma": list(self.aversion.Gamma), "phi": list(self.aversion.phi),
                         "Q": [list(r) for r in self.aversion.Q], "p0": list(self.aversion.p0)},
            "schedule": sched,
            "population": {"E0": list(self.population.E0),
                           "inventory_bound": self.population.inventory_bound},
            "solver": {"grid_steps_per_unit_time": self.solver.grid_steps_per_unit_time,
                       "shooting_tolerance": self.solver.shooting_tolerance},
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelConfig) and self.to_dict() == other.to_dict()

    def with_solver(self, **kw) -> "ModelConfig":
        """This configuration with the given solver settings replaced, validated."""
        cfg = type(self)(self.mode, self.market, self.aversion, self.schedule,
                         self.population, replace(self.solver, **kw))
        cfg.validate()
        return cfg


def validate_schedule_feasibility(cfg: ModelConfig) -> None:
    """In overall mode with user-fixed quantities, assert sum(xi) = -xi0."""
    if cfg.mode != "overall" or cfg.schedule.quantities is None:
        return
    residual = float(cfg.schedule.xi0 + cfg.schedule.quantities.sum())
    if abs(residual) > FEASIBILITY_TOL:
        raise ConfigError(f"schedule infeasible: xi0 + sum(quantities) = {residual!r}")


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def config_from_dict(raw: dict) -> ModelConfig:
    _check_keys(raw, {"mode", "market", "aversion", "schedule", "population", "solver"},
                {"mode", "market", "aversion", "schedule", "population"}, "top level")

    mk = raw["market"]
    _check_keys(mk, {"gamma", "gammaH", "lambda", "lambdaH", "eta", "eta0", "sigma"},
                {"gamma", "gammaH", "lambda", "lambdaH", "eta", "eta0"}, "market")
    market = MarketParams(
        gamma=_fnum(mk["gamma"], "market.gamma"),
        gamma_h=_fnum(mk["gammaH"], "market.gammaH"),
        lam=_fnum(mk["lambda"], "market.lambda"),
        lam_h=_fnum(mk["lambdaH"], "market.lambdaH"),
        eta=_fnum(mk["eta"], "market.eta"),
        eta0=_fnum(mk["eta0"], "market.eta0"),
        sigma=_fnum(mk.get("sigma", 0.0), "market.sigma"),
    )

    av = raw["aversion"]
    _check_keys(av, {"Gamma", "phi", "Q", "p0"}, {"Gamma", "phi", "Q", "p0"}, "aversion")
    aversion = AversionSpec(
        Gamma=_farray(av["Gamma"], "aversion.Gamma", 1),
        phi=_farray(av["phi"], "aversion.phi", 1),
        Q=_farray(av["Q"], "aversion.Q", 2),
        p0=_farray(av["p0"], "aversion.p0", 1),
    )

    sc = raw["schedule"]
    _check_keys(sc, {"T", "times", "quantities", "xi0"}, {"T", "times"}, "schedule")
    schedule = LTSchedule(
        T=_fnum(sc["T"], "schedule.T"),
        times=_farray(sc["times"], "schedule.times", 1),
        quantities=None if sc.get("quantities") is None
        else _farray(sc["quantities"], "schedule.quantities", 1),
        xi0=None if sc.get("xi0") is None else _fnum(sc["xi0"], "schedule.xi0"),
    )

    pp = raw["population"]
    _check_keys(pp, {"E0", "inventory_bound"}, {"E0", "inventory_bound"}, "population")
    population = PopulationInit(
        E0=_farray(pp["E0"], "population.E0", 1),
        inventory_bound=_fnum(pp["inventory_bound"], "population.inventory_bound"),
    )

    sv = raw.get("solver", {})
    _check_keys(sv, {"grid_steps_per_unit_time", "shooting_tolerance"}, set(), "solver")
    solver = SolverSettings(
        grid_steps_per_unit_time=sv.get("grid_steps_per_unit_time", 1000),
        shooting_tolerance=_fnum(sv.get("shooting_tolerance", 1e-6), "solver.shooting_tolerance"),
    )

    cfg = ModelConfig(raw["mode"], market, aversion, schedule, population, solver)
    cfg.validate()
    return cfg


def load_config(path) -> ModelConfig:
    """Load, apply environment overrides, and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from None
    return config_from_dict(apply_env_overrides(raw))


def serialize_config(cfg: ModelConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def config_hash(cfg: ModelConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def apply_env_overrides(raw: dict, env=None) -> dict:
    """Override config entries from environment variables.

    ``HFTMFG_MARKET__GAMMA=2`` sets ``market.gamma``; path segments are joined
    with double underscores and matched case-insensitively against existing
    keys, and the optional ``solver`` object is created when missing; a path
    through any other object the config lacks raises ``ConfigError`` naming
    the variable.  Values are parsed as JSON when possible, else as strings.
    """
    env = os.environ if env is None else env
    out = json.loads(json.dumps(raw))  # deep copy of plain JSON data
    if not isinstance(out, dict):
        return out                     # config_from_dict rejects it
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].split("__")
        node = out
        for seg in path[:-1]:
            match = next((k for k in node if k.lower() == seg.lower()), None)
            if match is None and node is out and seg.lower() == "solver":
                match = "solver"
                out[match] = {}
            if match is None or not isinstance(node[match], dict):
                raise ConfigError(f"{key} overrides {seg.lower()!r}, which is not an "
                                  "object of the config")
            node = node[match]
        leaf = next((k for k in node if k.lower() == path[-1].lower()), path[-1].lower())
        try:
            node[leaf] = json.loads(env[key])
        except json.JSONDecodeError:
            node[leaf] = env[key]
    return out
