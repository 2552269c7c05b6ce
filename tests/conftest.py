import csv
import json

import pytest

from hftmfg import presets
from hftmfg.meanfield import solve_partial

# pass/fail lines collected by the acceptance gate, replayed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """The metadata line, the header and the rows of a CSV the CLI wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = fh.readline().rstrip("\n")
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return meta, header, rows


def base_raw(mode="partial"):
    raw = {
        "mode": mode,
        "market": {"gamma": 1.0, "gammaH": 0.7, "lambda": 0.4, "lambdaH": 0.1,
                   "eta": 0.05, "eta0": 0.05, "sigma": 0.0},
        "aversion": {"Gamma": [2.0], "phi": [0.0], "Q": [[0.0]], "p0": [1.0]},
        "schedule": {"T": 1.0, "times": [k / 10 for k in range(1, 10)],
                     "quantities": [1.0] * 9},
        "population": {"E0": [0.0], "inventory_bound": 1.0},
        "solver": {"grid_steps_per_unit_time": 500, "shooting_tolerance": 1e-6},
    }
    if mode == "overall":
        raw["schedule"]["xi0"] = -9.0
        del raw["schedule"]["quantities"]
    return raw


@pytest.fixture
def raw_config():
    return base_raw()


@pytest.fixture
def config_file(tmp_path):
    def write(raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)
    return write


@pytest.fixture(scope="session")
def baseline_eq():
    """Solved single-type baseline (Gamma=2, phi=0) reused across tests."""
    cfg = presets.partial_single_type(2.0, 0.0, grid=1000)
    return cfg, solve_partial(cfg)


@pytest.fixture(scope="session")
def stiff_eq():
    """Solved single-type baseline with running aversion (Gamma=2, phi=10)."""
    cfg = presets.partial_single_type(2.0, 10.0, grid=1000)
    return cfg, solve_partial(cfg)


@pytest.fixture(scope="session")
def twostate_eq():
    cfg = presets.partial_two_type(grid=1000)
    return cfg, solve_partial(cfg)
