"""CSV and SVG emission.

Every CSV starts with a metadata comment line carrying the config hash and
grid resolution, so identical inputs reproduce byte-identical files.  All
writes go through a temp-file-plus-rename so parallel runs never interleave
partial output.  ``write_equilibrium_csv`` formats the equilibrium table from
the solution's node arrays, one ``%`` pass per grid segment; ``write_csv``
formats every other, small mixed-type table cell by cell.  Both write numbers
as ``repr`` does.  SVG plots are rendered from already-written CSV files,
never from solver internals.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .config import ModelConfig, config_hash
from .meanfield import MeanFieldSolution

PALETTE = ("#1f6fb2", "#d1495b", "#2e933c", "#8338ec", "#e36414", "#118ab2")
WIDTH, HEIGHT = 640, 420        # SVG canvas, px


def _atomic_write(path: str, chunks: list[str]) -> None:
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def meta_line(cfg: ModelConfig | None, **extra) -> str:
    parts = []
    if cfg is not None:
        parts.append(f"config_hash={config_hash(cfg)}")
        parts.append(f"grid_steps_per_unit_time={cfg.solver.grid_steps_per_unit_time}")
    parts.extend(f"{k}={v}" for k, v in extra.items())
    return "# " + " ".join(parts)


def write_csv(path, header: list[str], rows, cfg: ModelConfig | None = None, **extra) -> None:
    """Write a small mixed-type table (every CSV but the equilibrium table).

    Rows hold Python scalars: numbers are written with repr, strings as they are.
    """
    lines = [meta_line(cfg, **extra) + "\n", ",".join(header) + "\n"]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows]
    _atomic_write(str(path), lines)


def _equilibrium_table(sol: MeanFieldSolution) -> tuple[list[str], list[np.ndarray]]:
    """The header and, per segment, the (rows, 2N + 3) block of time, E_i, mu_i,
    E_agg and mu_agg at the level-0 nodes (the side column is not in the blocks)."""
    N = sol.E_by_state.dim
    header = (["time", "side"] + [f"E_{i+1}" for i in range(N)]
              + [f"mu_{i+1}" for i in range(N)] + ["E_agg", "mu_agg"])
    blocks = [np.hstack([sol.grid.level0_times(s)[:, None], sol.E_by_state.node_values(s),
                         sol.mu_by_state.node_values(s), sol.E_agg.node_values(s),
                         sol.mu_agg.node_values(s)]) for s in range(sol.grid.n_segments)]
    return header, blocks


def equilibrium_rows(sol: MeanFieldSolution) -> tuple[list[str], list[list]]:
    """The equilibrium table as row lists; the benchmark's closed-form oracle reads it."""
    header, blocks = _equilibrium_table(sol)
    rows = []
    for s, block in enumerate(blocks):
        rows += [[t, "R", *rest] for t, *rest in block.tolist()]
        if s < len(blocks) - 1:
            rows[-1][1] = "L"
    return header, rows


def xi_star_rows(times, xi_star) -> tuple[list[str], list[list]]:
    """Header and rows (k, t_k, xi_star_k) of an optimal trade schedule."""
    return (["k", "t_k", "xi_star_k"],
            [[k + 1, float(t), float(x)] for k, (t, x) in enumerate(zip(times, xi_star))])


def write_equilibrium_csv(path, sol: MeanFieldSolution, cfg: ModelConfig) -> None:
    """Write the equilibrium table, one ``%`` pass over each segment's block.

    ``%r`` writes a float as ``repr`` does.  The side column reads "L" on the
    last node of every segment that ends at a trade and "R" elsewhere.
    """
    header, blocks = _equilibrium_table(sol)
    cells = ",%r" * (len(header) - 2) + "\n"
    chunks = [meta_line(cfg) + "\n", ",".join(header) + "\n"]
    for s, block in enumerate(blocks):
        side = "R" if s == len(blocks) - 1 else "L"
        template = ("%r,R" + cells) * (len(block) - 1) + "%r," + side + cells
        chunks.append(template % tuple(block.ravel().tolist()))
    _atomic_write(str(path), chunks)


def write_keyvalue_csv(path, pairs: dict, cfg: ModelConfig | None = None, **extra) -> None:
    write_csv(path, ["key", "value"], [[k, v] for k, v in pairs.items()], cfg, **extra)


# ---------------------------------------------------------------------------
# SVG rendering


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five ticks at 1, 2, 2.5 or 5 times a power of ten; needs hi > lo."""
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(float(t))
        t += step
    return ticks


# the strings of whole pixels below 1000 and of hundredths, trailing zeros
# dropped as repr drops them
_WHOLE = np.array([str(k) for k in range(1000)])
_HUNDREDTHS = np.array([".0"] + [f".{k:02d}".rstrip("0") for k in range(1, 100)])


def _fmt_hundredths(values) -> np.ndarray:
    """``repr(round(float(x), 2))`` for every x, byte for byte.

    Python rounds the exact binary value, half to even.  ``rint(x * 100)``
    agrees wherever x * 100 is not within 1e-6 of a half, which the product's
    rounding error (below 1e-11 here) cannot cross.  Those values, and values
    that do not round into [0, 1000), go through Python's ``round``.
    """
    x = np.asarray(values, dtype=float)
    v = x * 100.0
    bulk = ~np.signbit(v) & (v < 100.0 * len(_WHOLE) - 0.5)       # NaN fails too
    safe = np.where(bulk, v, 0.0)
    bulk &= np.abs(safe - np.floor(safe) - 0.5) > 1e-6
    n = np.rint(safe).astype(np.int64)
    out = np.strings.add(_WHOLE[n // 100], _HUNDREDTHS[n % 100])
    slow = np.flatnonzero(~bulk)
    if slow.size:
        rest = np.array([repr(round(float(x[i]), 2)) for i in slow])
        out = out.astype(np.result_type(out, rest))
        out[slow] = rest
    return out


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:.4g}"


def svg_plot(path, series, title: str = "", xlabel: str = "", ylabel: str = "",
             kind: str = "line") -> None:
    """Render labelled series to a standalone SVG file.

    ``series`` is a list of (label, x array, y array); ``kind`` is "line" or
    "bar" (bars use the first series only).
    """
    ml, mr, mt, mb = 66, 16, 34, 48
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo, yhi = float(ys.min()), float(ys.max())
    if kind == "bar":
        ylo = min(ylo, 0.0)
        yhi = max(yhi, 0.0)
    if xhi == xlo:
        xhi = xlo + 1.0
    pad = 0.05 * (yhi - ylo) if yhi > ylo else 1.0
    ylo, yhi = ylo - pad, yhi + pad

    def X(v):
        return ml + (v - xlo) / (xhi - xlo) * pw

    def Y(v):
        return mt + (yhi - v) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica,Arial,sans-serif">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           f'stroke="#444" stroke-width="1"/>']
    for tx in _nice_ticks(xlo, xhi):
        if xlo <= tx <= xhi:
            px = round(X(tx), 2)
            out.append(f'<line x1="{px}" y1="{mt + ph}" x2="{px}" y2="{mt + ph + 4}" stroke="#444"/>')
            out.append(f'<text x="{px}" y="{mt + ph + 17}" font-size="11" '
                       f'text-anchor="middle" fill="#222">{_fmt_tick(tx)}</text>')
    for ty in _nice_ticks(ylo, yhi):
        if ylo <= ty <= yhi:
            py = round(Y(ty), 2)
            out.append(f'<line x1="{ml - 4}" y1="{py}" x2="{ml}" y2="{py}" stroke="#444"/>')
            out.append(f'<text x="{ml - 7}" y="{py + 4}" font-size="11" '
                       f'text-anchor="end" fill="#222">{_fmt_tick(ty)}</text>')
    if ylo < 0.0 < yhi:
        py = round(Y(0.0), 2)
        out.append(f'<line x1="{ml}" y1="{py}" x2="{ml + pw}" y2="{py}" '
                   f'stroke="#bbb" stroke-width="0.8"/>')

    if kind == "bar":
        _, bx, by = series[0]
        bw = 0.6 * pw / max(len(bx), 1) / 1.5
        for xv, yv in zip(bx, by):
            x0 = X(float(xv)) - bw / 2
            y0, y1 = sorted((Y(0.0), Y(float(yv))))
            out.append(f'<rect x="{round(x0, 2)}" y="{round(y0, 2)}" width="{round(bw, 2)}" '
                       f'height="{round(y1 - y0, 2)}" fill="{PALETTE[0]}"/>')
    else:
        for idx, (label, sx, sy) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            # X and Y on whole arrays do the scalar operations in the same order
            px = _fmt_hundredths(X(np.asarray(sx, dtype=float)))
            py = _fmt_hundredths(Y(np.asarray(sy, dtype=float)))
            pts = " ".join(np.strings.add(np.strings.add(px, ","), py).tolist())
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        lx, ly = ml + 10, mt + 16
        for idx, (label, _, _) in enumerate(series):
            if not label:
                continue
            color = PALETTE[idx % len(PALETTE)]
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 23}" y="{ly}" font-size="11" fill="#222">{label}</text>')
            ly += 15

    if title:
        out.append(f'<text x="{ml + pw / 2}" y="20" font-size="13" text-anchor="middle" '
                   f'fill="#111">{title}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2}" y="{HEIGHT - 10}" font-size="12" '
                   f'text-anchor="middle" fill="#111">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + ph / 2}" font-size="12" text-anchor="middle" '
                   f'fill="#111" transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')
    out.append("</svg>")
    _atomic_write(str(path), ["\n".join(out) + "\n"])


def plot_columns_from_csv(csv_path, svg_path, xcol: str, ycols: list[str],
                          title: str = "", kind: str = "line") -> None:
    """Plot columns of a CSV written by ``write_csv``; only those columns are parsed."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        fh.readline()                                    # metadata
        header = fh.readline().rstrip("\n").split(",")
        cols = [header.index(c) for c in [xcol, *ycols]]
        data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2)
    series = [(col, data[:, 0], data[:, j]) for j, col in enumerate(ycols, 1)]
    svg_plot(svg_path, series, title=title, xlabel=xcol,
             ylabel=ycols[0] if len(ycols) == 1 else "", kind=kind)
