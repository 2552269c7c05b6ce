import re

import numpy as np

from hftmfg.reporting import svg_plot


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
