"""Minimal SVG line-chart writer; enough to plot logged time series."""

from __future__ import annotations

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

_W, _H = 720, 360
_ML, _MR, _MT, _MB = 60, 150, 30, 40  # margins; right side holds the legend


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + step / 2, step)


def line_chart(path, x, series: dict, title: str = "", ylabel: str = "", hlines=()):
    """Write a chart of named series against x; hlines are dashed reference lines."""
    x = np.asarray(x, dtype=float)
    values = [np.asarray(v, dtype=float) for v in series.values()]
    # each series' extremes, not their concatenation, which would copy every series
    ends = np.array([(v.min(), v.max()) for v in values + [np.asarray(hlines, dtype=float)] if v.size])
    x_lo, x_hi = (float(x.min()), float(x.max())) if x.size else (0.0, 1.0)
    y_lo, y_hi = (float(ends[:, 0].min()), float(ends[:, 1].max())) if ends.size else (0.0, 0.0)
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _ML + (v - x_lo) / max(x_hi - x_lo, 1e-12) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="18" font-size="13">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#999"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(tx):.1f}" y1="{_H - _MB}" x2="{sx(tx):.1f}" y2="{_H - _MB + 4}" stroke="#999"/>'
            f'<text x="{sx(tx):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{sy(ty):.1f}" x2="{_ML}" y2="{sy(ty):.1f}" stroke="#999"/>'
            f'<text x="{_ML - 8}" y="{sy(ty) + 4:.1f}" text-anchor="end">{ty:g}</text>'
        )
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})" '
        f'text-anchor="middle">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 8}" text-anchor="middle">t [s]</text>'
    )
    for level in hlines:
        parts.append(
            f'<line x1="{_ML}" y1="{sy(level):.1f}" x2="{_W - _MR}" y2="{sy(level):.1f}" '
            f'stroke="#555" stroke-dasharray="6 4"/>'
        )
    stride = max(1, x.size // 2000)  # cap point count so files stay small
    px = x[::stride]
    for idx, (name, vals) in enumerate(zip(series, values)):
        color = _COLORS[idx % len(_COLORS)]
        if x.size:
            pv = vals[::stride]
            k = min(px.size, pv.size)
            xy = np.empty(2 * k)  # x and y of each point, scaled as arrays and formatted by one %
            xy[0::2], xy[1::2] = sx(px[:k]), sy(pv[:k])
            pts = " ".join(["%.1f,%.1f"] * k) % tuple(xy.tolist())
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        ly = _MT + 14 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 34}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{_W - _MR + 40}" y="{ly + 4}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))
