"""Tiny deterministic SVG line plots (no plotting dependency).

Plots are a convenience for humans; no acceptance logic reads them.
"""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 72, 24, 36, 52


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def svg_plot(series, title: str = "", xlabel: str = "",
             ylabel: str = "") -> str:
    """series: iterable of (x array, y array, label), plotted as log10 y
    (points with y <= 0 or a non-finite coordinate dropped).  Returns SVG
    text."""
    prepared = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        good = (y > 0) & np.isfinite(x) & np.isfinite(y)
        if good.any():
            prepared.append((x[good], np.log10(y[good]), label))
    if not prepared:
        return ("<svg xmlns='http://www.w3.org/2000/svg' width='%d' height='%d'>"
                "<text x='20' y='30'>no data</text></svg>" % (_W, _H))

    x0 = min(float(x.min()) for x, _, _ in prepared)
    x1 = max(float(x.max()) for x, _, _ in prepared)
    y0 = min(float(y.min()) for _, y, _ in prepared)
    y1 = max(float(y.max()) for _, y, _ in prepared)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return _MT + (1.0 - (y - y0) / (y1 - y0)) * ph

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_W}' height='{_H}' "
        f"font-family='monospace' font-size='12'>",
        f"<rect x='{_ML}' y='{_MT}' width='{pw}' height='{ph}' "
        "fill='none' stroke='#333'/>",
        f"<text x='{_W // 2}' y='20' text-anchor='middle'>{title}</text>",
        f"<text x='{_W // 2}' y='{_H - 12}' text-anchor='middle'>{xlabel}</text>",
        f"<text x='16' y='{_MT - 10}'>log10 {ylabel}</text>",
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f"<text x='{_fmt(sx(xv))}' y='{_H - _MB + 16}' "
                     f"text-anchor='middle'>{_fmt(xv)}</text>")
        parts.append(f"<text x='{_ML - 6}' y='{_fmt(sy(yv) + 4)}' "
                     f"text-anchor='end'>{_fmt(yv)}</text>")
        parts.append(f"<line x1='{_ML}' y1='{_fmt(sy(yv))}' x2='{_W - _MR}' "
                     f"y2='{_fmt(sy(yv))}' stroke='#ddd'/>")
    for i, (x, y, label) in enumerate(prepared):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(x, y))
        parts.append(f"<polyline points='{pts}' fill='none' stroke='{color}' "
                     "stroke-width='1.5'/>")
        parts.append(f"<text x='{_W - _MR - 6}' y='{_MT + 16 + 16 * i}' "
                     f"text-anchor='end' fill='{color}'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts)
