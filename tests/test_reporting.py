import re
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from hftmfg import presets, reporting
from hftmfg.cli import main
from hftmfg.config import config_from_dict
from hftmfg.meanfield import solve_partial
from hftmfg.reporting import svg_plot
from conftest import base_raw, read_csv


def test_polyline_points_round_like_python_per_point(tmp_path):
    # x spans [0, 1], so it maps to 66 + 558 x; aim at pixels ending in a 5 in
    # the third decimal, where Python's and numpy's rounding can part
    targets = np.arange(66005, 624000, 130) / 1000.0
    x = np.concatenate([[0.0], (targets - 66.0) / 558.0, [1.0]])
    y = np.cumsum(np.random.default_rng(7).normal(size=len(x)))
    path = tmp_path / "p.svg"
    svg_plot(path, [("y", x, y)])
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)

    # the per-point scalar formula, with svg_plot's default layout
    ml, mt, pw, ph = 66, 34, 640 - 66 - 16, 420 - 34 - 48
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(y.min()), float(y.max())
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    px = [ml + (float(a) - xlo) / (xhi - xlo) * pw for a in x]
    py = [mt + (yhi - float(b)) / (yhi - ylo) * ph for b in y]
    assert points == " ".join(f"{round(a, 2)},{round(b, 2)}" for a, b in zip(px, py))
    # the sample holds halfway cases where numpy's rounding would differ
    assert any(round(v, 2) != float(np.round(v, 2)) for v in px + py)


def _python_round(values):
    return [repr(round(float(v), 2)) for v in values]


def test_bulk_hundredths_match_python_round():
    x = np.random.default_rng(19).uniform(0.0, 700.0, 100_000)
    assert reporting._fmt_hundredths(x).tolist() == _python_round(x)
    # exact binary halves round half to even in Python, and one ulp either side
    # of a half decides the direction
    halves = np.array([100.125, 66.375, 0.125, 1.875, 0.005, 0.015, 123.455, 639.995])
    for v in (halves, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf)):
        assert reporting._fmt_hundredths(v).tolist() == _python_round(v)
    edge = np.array([0.0, -0.0, -1.25, 999.999, 1000.0, 2.5e7, np.nan, np.inf])
    assert reporting._fmt_hundredths(edge).tolist() == _python_round(edge)


def _earlier_plot(monkeypatch, csv_path, svg_path, xcol, ycols, kind):
    """The SVG of the cell-by-cell read-back and per-point rounding."""
    _, header, rows = read_csv(csv_path)
    x = np.array([float(r[header.index(xcol)]) for r in rows])
    series = [(c, x, np.array([float(r[header.index(c)]) for r in rows])) for c in ycols]
    with monkeypatch.context() as m:
        m.setattr(reporting, "_fmt_hundredths", lambda v: np.array(_python_round(v)))
        reporting.svg_plot(svg_path, series, title="t", xlabel=xcol,
                           ylabel=ycols[0] if len(ycols) == 1 else "", kind=kind)


def test_plot_columns_from_csv_keeps_its_bytes(tmp_path, config_file, monkeypatch):
    one_row = tmp_path / "one.csv"
    reporting.write_csv(one_row, ["t", "side", "y"], [[0.5, "R", 1.25]])
    assert main(["solve-overall", "--config", config_file(base_raw("overall")),
                 "--out", str(tmp_path / "o")]) == 0
    assert main(["solve-partial", "--config", config_file(base_raw()),
                 "--out", str(tmp_path / "p")]) == 0
    cases = [(one_row, "t", ["y"], "line"),
             (tmp_path / "o" / "xi_star.csv", "t_k", ["xi_star_k"], "bar"),
             (tmp_path / "p" / "equilibrium.csv", "time", ["E_agg"], "line"),
             (tmp_path / "p" / "equilibrium.csv", "time", ["mu_agg", "E_1"], "line")]
    for n, (csv_path, xcol, ycols, kind) in enumerate(cases):
        got, want = tmp_path / f"got{n}.svg", tmp_path / f"want{n}.svg"
        reporting.plot_columns_from_csv(csv_path, got, xcol, ycols, title="t", kind=kind)
        _earlier_plot(monkeypatch, csv_path, want, xcol, ycols, kind)
        assert got.read_bytes() == want.read_bytes(), csv_path.name


def test_failed_write_leaves_neither_target_nor_temp_file(tmp_path):
    with pytest.raises(TypeError):
        reporting._atomic_write(str(tmp_path / "out.csv"), ["a,b\n", 5])
    assert list(tmp_path.iterdir()) == []


def _per_value_csv(sol, cfg) -> str:
    """The equilibrium table built as row lists and formatted with repr cell by cell."""
    N = sol.E_by_state.dim
    header = (["time", "side"] + [f"E_{i+1}" for i in range(N)]
              + [f"mu_{i+1}" for i in range(N)] + ["E_agg", "mu_agg"])
    rows = []
    S = sol.grid.n_segments
    for s in range(S):
        vals = np.hstack([sol.grid.level0_times(s)[:, None], sol.E_by_state.node_values(s),
                          sol.mu_by_state.node_values(s), sol.E_agg.node_values(s),
                          sol.mu_agg.node_values(s)]).tolist()
        rows += [[t, "R", *rest] for t, *rest in vals]
        if s < S - 1:
            rows[-1][1] = "L"
    lines = [reporting.meta_line(cfg) + "\n", ",".join(header) + "\n"]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows]
    return "".join(lines)


def _crowd(N):
    """A switching crowd of N types on a coarse grid with nine trades."""
    if N == 1:
        return presets.partial_single_type(2.0, 10.0, grid=100)
    if N == 2:
        return presets.partial_two_type(grid=100)
    raw = base_raw()
    raw["aversion"] = {"Gamma": [2.0, 1.0, 0.0], "phi": [10.0, 1.0, 0.0],
                       "Q": [[-0.5, 0.3, 0.2], [0.4, -0.4, 0.0], [0.1, 0.6, -0.7]],
                       "p0": [0.2, 0.3, 0.5]}
    raw["population"]["E0"] = [0.0, 0.3, -0.2]
    raw["solver"]["grid_steps_per_unit_time"] = 100
    return config_from_dict(raw)


# floats whose reprs take every form: exponent either way, signed zero,
# a whole number and the shortest round-trip digits
REPR_FORMS = [1e-05, 1.5e+16, -0.0, 3.0, 0.1 + 0.2]


def _repr_forms_solution():
    """A two-segment solution of two nodes each whose values are ``REPR_FORMS``."""
    class Curve:
        def __init__(self, dim, shift):
            self.dim, self.shift = dim, shift

        def node_values(self, s):
            return np.array([[REPR_FORMS[(s + r + self.shift + j) % 5] for j in range(self.dim)]
                             for r in range(2)])

    grid = SimpleNamespace(n_segments=2, level0_times=lambda s: np.array([0.1 + 0.2, 1e-05]) + s)
    return SimpleNamespace(grid=grid, E_by_state=Curve(2, 0), mu_by_state=Curve(2, 1),
                           E_agg=Curve(1, 2), mu_agg=Curve(1, 3))


def _stub_solution(blocks):
    """A two-type solution whose segment s holds the (rows, 7) array ``blocks[s]``:
    time, E_1, E_2, mu_1, mu_2, E_agg and mu_agg."""
    class Curve:
        def __init__(self, cols):
            self.cols, self.dim = cols, cols.stop - cols.start

        def node_values(self, s):
            return blocks[s][:, self.cols]

    grid = SimpleNamespace(n_segments=len(blocks), level0_times=lambda s: blocks[s][:, 0])
    return SimpleNamespace(grid=grid, E_by_state=Curve(slice(1, 3)),
                           mu_by_state=Curve(slice(3, 5)), E_agg=Curve(slice(5, 6)),
                           mu_agg=Curve(slice(6, 7)))


def _one_per_row(values):
    """One row per value, in column 1 + k % 6 of row k, the other cells in-range."""
    rows = np.full((len(values), 7), 0.5)
    rows[np.arange(len(values)), 1 + np.arange(len(values)) % 6] = values
    return rows


def _random_bits():
    # seeded finite bit patterns; half the rows take their exponents from the
    # binades around [1e-4, 1e16), where orjson writes the row
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2**64, size=(30_000, 7), dtype=np.uint64)
    exponent = np.where(np.arange(30_000)[:, None] % 2 == 0,
                        rng.integers(0, 2047, size=(30_000, 7)),
                        rng.integers(1009, 1077, size=(30_000, 7))).astype(np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    return np.split(bits.view(np.float64), [7_000, 15_000, 29_999])


def _threshold_neighbours():
    steps = []
    for edge in (1e-4, 1e16):
        v = np.array([edge])
        for direction in (0.0, np.inf):
            w = v.copy()
            for _ in range(4):
                w = np.nextafter(w, direction)
                steps.append(w[0])
        steps.append(edge)
    values = np.array(steps)
    return np.split(_one_per_row(np.concatenate([values, -values])), [9])


def _exact_forms():
    integral = np.concatenate([2.0 ** np.arange(54), 2.0 ** np.arange(54) - 1.0,
                               10.0 ** np.arange(16), [2.0 ** 53 + 2.0]])
    subnormal = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    values = np.concatenate([[0.0, -0.0], integral, -integral, subnormal, -subnormal])
    return np.split(_one_per_row(values), [40, 100])


def _non_finite():
    rows = _one_per_row([1.25, np.nan, -np.inf, 0.1, np.inf, 3.0, -np.nan])
    return [rows[:4], rows[4:]]


def _fallback_last_row():
    # a fallback row ending a trade's segment (side "L"), then a one-row segment
    # holding only a fallback row, then an in-range final segment
    first = _one_per_row([0.25, 0.5, 1e-7])
    return [first, _one_per_row([1e20]), _one_per_row([7.5, 0.125])]


STUB_CASES = {"random-bits": _random_bits, "threshold-neighbours": _threshold_neighbours,
              "exact-forms": _exact_forms, "non-finite": _non_finite,
              "fallback-last-row": _fallback_last_row}


@pytest.mark.parametrize("case", [1, 2, 3, "repr-forms", *STUB_CASES],
                         ids=lambda c: c if isinstance(c, str) else f"N{c}-rk4")
def test_equilibrium_csv_matches_per_value_formatter(tmp_path, case):
    if case in STUB_CASES:
        cfg, sol = presets.partial_two_type(grid=100), _stub_solution(STUB_CASES[case]())
    elif case == "repr-forms":
        cfg, sol = presets.partial_two_type(grid=100), _repr_forms_solution()
    else:
        cfg = _crowd(case)
        sol = solve_partial(cfg)
        assert sol.grid.n_segments == 10 and sol.E_by_state.dim == case
    reporting.write_equilibrium_csv(tmp_path / "eq.csv", sol, cfg)
    text = (tmp_path / "eq.csv").read_text(encoding="utf-8")
    assert text == _per_value_csv(sol, cfg)
    if case == "repr-forms":
        assert all(repr(v) in text for v in REPR_FORMS) and "0.30000000000000004,R," in text
        assert text.splitlines()[3].split(",")[1] == "L"
    if case == "random-bits":
        # rows in repr's fixed notation, which orjson writes, are a good share
        rows = text.splitlines()[2:]
        assert len(rows) == 30_000 and sum("e" not in r for r in rows) > 10_000
    if case == "fallback-last-row":
        assert [r.split(",")[1] for r in text.splitlines()[2:]] == list("RRLLRR")


def test_equilibrium_csv_from_threads_sharing_one_solution(tmp_path):
    cfg = presets.partial_two_type(grid=200)
    sol = solve_partial(cfg)             # curves not yet built: the threads race to build them
    paths = [tmp_path / f"eq{k}.csv" for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda p: reporting.write_equilibrium_csv(p, sol, cfg), paths,
                          timeout=60))
    finally:
        sys.setswitchinterval(interval)
    texts = {p.read_bytes() for p in paths}
    assert len(texts) == 1
    assert texts.pop().decode("utf-8") == _per_value_csv(sol, cfg)
