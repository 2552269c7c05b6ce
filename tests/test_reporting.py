import re

import numpy as np

from hftmfg import reporting
from hftmfg.cli import main
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
