import re

import numpy as np

from huskysim.svgplot import _H, _MB, _ML, _MR, _MT, _W, line_chart


def per_point_polyline(x, y, x_lo, x_hi, y_lo, y_hi):
    """The polyline's points as one f-string per point, from the scaling formula."""
    def sx(v):
        return _ML + (v - x_lo) / max(x_hi - x_lo, 1e-12) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    return " ".join(f"{sx(px):.1f},{sy(pv):.1f}" for px, pv in zip(x, y))


def test_line_chart_polylines_are_the_per_point_formula(tmp_path):
    """4,500 samples are strided by 2; the y range is padded by 5% each way."""
    x = np.arange(4500) * 1e-3
    series = {"a": np.sin(7.0 * x) * 0.3 - 0.0004, "b": np.cos(3.0 * x) ** 3 + 1e-7 * x, "c": -x}
    line_chart(tmp_path / "c.svg", x, series, title="t", ylabel="y", hlines=(0.25, -0.25))
    text = (tmp_path / "c.svg").read_text()
    ys = np.concatenate(list(series.values()) + [np.array([0.25, -0.25])])
    pad = 0.05 * (ys.max() - ys.min())
    y_lo, y_hi = ys.min() - pad, ys.max() + pad
    got = re.findall(r'<polyline points="([^"]*)"', text)
    assert got == [per_point_polyline(x[::2], y[::2], x[0], x[-1], y_lo, y_hi) for y in series.values()]
    assert text.startswith("<svg ") and text.endswith("</svg>")
