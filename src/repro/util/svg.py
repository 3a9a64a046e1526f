"""Dependency-free SVG chart rendering.

matplotlib is unavailable in this environment, so the benchmark harness
renders the paper's figures as standalone SVG files with this module: a
histogram (Fig. 1/2), multi-series line charts (Figs. 3, 4, 6) and grouped
bar charts (Fig. 5).  The goal is honest, legible output - axes, ticks,
labels, a legend - not a plotting library.

All functions return the SVG document as a string; callers decide where to
write it.
"""

from __future__ import annotations

import math
from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "svg_histogram",
    "svg_line_chart",
    "svg_grouped_bars",
    "svg_stacked_bars",
    "svg_sparkline",
]

#: Categorical palette (colour-blind-safe Okabe-Ito subset).
PALETTE = ("#0072B2", "#E69F00", "#009E73", "#CC79A7", "#56B4E9", "#D55E00")

_W, _H = 720, 440
_MARGIN = dict(left=70, right=160, top=50, bottom=60)


def _nice_ticks(lo: float, hi: float, n: int = 6) -> List[float]:
    """Round tick positions covering [lo, hi] (inclusive-ish)."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        if t >= lo - 1e-9 * span:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


class _Canvas:
    """Accumulates SVG elements with a data-to-pixel transform."""

    def __init__(self, x_range: Tuple[float, float], y_range: Tuple[float, float]):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts: List[str] = []
        self.plot_w = _W - _MARGIN["left"] - _MARGIN["right"]
        self.plot_h = _H - _MARGIN["top"] - _MARGIN["bottom"]

    def px(self, x: float) -> float:
        return _MARGIN["left"] + (x - self.x0) / (self.x1 - self.x0) * self.plot_w

    def py(self, y: float) -> float:
        return _MARGIN["top"] + (1.0 - (y - self.y0) / (self.y1 - self.y0)) * self.plot_h

    # ------------------------------------------------------------------ #
    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x: float, y: float, s: str, *, size=12, anchor="middle",
             rotate: Optional[float] = None, color="#333") -> None:
        transform = f' transform="rotate({rotate} {x:.1f} {y:.1f})"' if rotate else ""
        self.add(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" fill="{color}" '
            f'text-anchor="{anchor}" font-family="sans-serif"{transform}>'
            f"{escape(s, quote=False)}</text>"
        )

    def axes(self, *, title: str, xlabel: str, ylabel: str,
             x_ticks: Sequence[float], y_ticks: Sequence[float],
             x_tick_labels: Optional[Sequence[str]] = None) -> None:
        left, top = _MARGIN["left"], _MARGIN["top"]
        right = _W - _MARGIN["right"]
        bottom = _H - _MARGIN["bottom"]
        # Frame.
        self.add(
            f'<rect x="{left}" y="{top}" width="{self.plot_w}" '
            f'height="{self.plot_h}" fill="none" stroke="#999"/>'
        )
        # Gridlines + ticks.
        for t in y_ticks:
            y = self.py(t)
            if top - 1 <= y <= bottom + 1:
                self.add(
                    f'<line x1="{left}" y1="{y:.1f}" x2="{right}" y2="{y:.1f}" '
                    'stroke="#e5e5e5"/>'
                )
                self.text(left - 8, y + 4, _fmt(t), anchor="end", size=11)
        labels = x_tick_labels or [_fmt(t) for t in x_ticks]
        for t, lab in zip(x_ticks, labels):
            x = self.px(t)
            if left - 1 <= x <= right + 1:
                self.add(
                    f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" '
                    f'y2="{bottom + 5}" stroke="#666"/>'
                )
                self.text(x, bottom + 20, lab, size=11)
        self.text(_W / 2, 24, title, size=15, color="#111")
        self.text((left + right) / 2, _H - 14, xlabel, size=12)
        self.text(18, (top + bottom) / 2, ylabel, size=12, rotate=-90.0)

    def legend(self, entries: Sequence[Tuple[str, str]]) -> None:
        x = _W - _MARGIN["right"] + 14
        y = _MARGIN["top"] + 10
        for label, color in entries:
            self.add(
                f'<rect x="{x}" y="{y - 9}" width="12" height="12" fill="{color}"/>'
            )
            self.text(x + 18, y + 2, label, anchor="start", size=11)
            y += 20

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n{body}\n</svg>\n'
        )


def svg_histogram(
    percentages: Sequence[float],
    edges: Sequence[float],
    *,
    title: str,
    xlabel: str = "improvement (%)",
    ylabel: str = "% of data points",
    color: str = PALETTE[0],
) -> str:
    """Render a histogram (bins given by ``edges``, heights in percent)."""
    pct = np.asarray(percentages, dtype=float)
    edg = np.asarray(edges, dtype=float)
    if edg.size != pct.size + 1:
        raise ValueError("edges must have one more element than percentages")
    top = float(pct.max()) if pct.size and pct.max() > 0 else 1.0
    canvas = _Canvas((float(edg[0]), float(edg[-1])), (0.0, top * 1.1))
    baseline = canvas.py(0.0)
    for i, p in enumerate(pct):
        if p <= 0:
            continue
        x_left = canvas.px(float(edg[i]))
        x_right = canvas.px(float(edg[i + 1]))
        y = canvas.py(float(p))
        canvas.add(
            f'<rect x="{x_left + 1:.1f}" y="{y:.1f}" '
            f'width="{max(x_right - x_left - 2, 1):.1f}" '
            f'height="{max(baseline - y, 0):.1f}" fill="{color}" '
            'fill-opacity="0.85"/>'
        )
    canvas.axes(
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
        x_ticks=_nice_ticks(float(edg[0]), float(edg[-1]), 8),
        y_ticks=_nice_ticks(0.0, top * 1.1),
    )
    return canvas.render()


def svg_line_chart(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    markers: bool = True,
) -> str:
    """Render one line per entry of ``series`` (label -> (xs, ys))."""
    if not series:
        raise ValueError("need at least one series")
    all_x: List[float] = []
    all_y: List[float] = []
    for xs, ys in series.values():
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        all_x.extend(float(v) for v in xs)
        all_y.extend(float(v) for v in ys)
    if not all_x:
        raise ValueError("series are empty")
    y_lo, y_hi = min(all_y + [0.0]), max(all_y)
    pad = 0.08 * max(y_hi - y_lo, 1.0)
    canvas = _Canvas((min(all_x), max(all_x)), (y_lo - pad, y_hi + pad))
    legend = []
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(
            f"{canvas.px(float(x)):.1f},{canvas.py(float(y)):.1f}"
            for x, y in zip(xs, ys)
        )
        canvas.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        if markers:
            for x, y in zip(xs, ys):
                canvas.add(
                    f'<circle cx="{canvas.px(float(x)):.1f}" '
                    f'cy="{canvas.py(float(y)):.1f}" r="3" fill="{color}"/>'
                )
        legend.append((label, color))
    canvas.axes(
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
        x_ticks=_nice_ticks(min(all_x), max(all_x)),
        y_ticks=_nice_ticks(y_lo - pad, y_hi + pad),
    )
    canvas.legend(legend)
    return canvas.render()


def svg_grouped_bars(
    categories: Sequence[str],
    groups: Dict[str, Sequence[float]],
    *,
    title: str,
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render grouped vertical bars: one bar per (category, group)."""
    if not categories or not groups:
        raise ValueError("need categories and at least one group")
    n_cat, n_grp = len(categories), len(groups)
    for name, values in groups.items():
        if len(values) != n_cat:
            raise ValueError(f"group {name!r} has {len(values)} values, "
                             f"expected {n_cat}")
    top = max(max(float(v) for v in vals) for vals in groups.values())
    top = top if top > 0 else 1.0
    canvas = _Canvas((0.0, float(n_cat)), (0.0, top * 1.12))
    baseline = canvas.py(0.0)
    slot = canvas.plot_w / n_cat
    bar_w = slot * 0.8 / n_grp
    legend = []
    for g, (name, values) in enumerate(groups.items()):
        color = PALETTE[g % len(PALETTE)]
        legend.append((name, color))
        for c, v in enumerate(values):
            x = _MARGIN["left"] + c * slot + slot * 0.1 + g * bar_w
            y = canvas.py(float(v))
            canvas.add(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 1:.1f}" '
                f'height="{max(baseline - y, 0):.1f}" fill="{color}" '
                'fill-opacity="0.9"/>'
            )
    canvas.axes(
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
        x_ticks=[c + 0.5 for c in range(n_cat)],
        y_ticks=_nice_ticks(0.0, top * 1.12),
        x_tick_labels=list(categories),
    )
    canvas.legend(legend)
    return canvas.render()


def svg_stacked_bars(
    categories: Sequence[str],
    layers: Dict[str, Sequence[float]],
    *,
    title: str,
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render stacked vertical bars: one bar per category, layered.

    ``layers`` maps each layer name to one value per category; stacking
    follows the dict's insertion order (the campaign health report passes
    phases in priority order so the chart reads like the attribution).
    """
    if not categories or not layers:
        raise ValueError("need categories and at least one layer")
    n_cat = len(categories)
    for name, values in layers.items():
        if len(values) != n_cat:
            raise ValueError(f"layer {name!r} has {len(values)} values, "
                             f"expected {n_cat}")
    totals = [
        sum(float(values[c]) for values in layers.values()) for c in range(n_cat)
    ]
    top = max(totals) if totals and max(totals) > 0 else 1.0
    canvas = _Canvas((0.0, float(n_cat)), (0.0, top * 1.12))
    slot = canvas.plot_w / n_cat
    bar_w = slot * 0.64
    legend = [
        (name, PALETTE[i % len(PALETTE)]) for i, name in enumerate(layers)
    ]
    for c in range(n_cat):
        x = _MARGIN["left"] + c * slot + (slot - bar_w) / 2
        running = 0.0
        for layer_idx, values in enumerate(layers.values()):
            v = float(values[c])
            if v <= 0:
                continue
            y_top = canvas.py(running + v)
            y_bot = canvas.py(running)
            canvas.add(
                f'<rect x="{x:.1f}" y="{y_top:.1f}" width="{bar_w:.1f}" '
                f'height="{max(y_bot - y_top, 0):.1f}" '
                f'fill="{PALETTE[layer_idx % len(PALETTE)]}" fill-opacity="0.9"/>'
            )
            running += v
    canvas.axes(
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
        x_ticks=[c + 0.5 for c in range(n_cat)],
        y_ticks=_nice_ticks(0.0, top * 1.12),
        x_tick_labels=list(categories),
    )
    canvas.legend(legend)
    return canvas.render()


def svg_sparkline(
    values: Sequence[float],
    *,
    width: int = 140,
    height: int = 32,
    color: str = PALETTE[0],
) -> str:
    """Render a tiny inline sparkline (no axes) over ``values``.

    Used by the campaign health report for histogram bucket profiles;
    returns an ``<svg>`` element sized to sit inside a table cell.  An
    empty or all-zero series renders as a flat baseline.
    """
    vals = [float(v) for v in values]
    if not vals:
        vals = [0.0]
    top = max(vals)
    if top <= 0.0:
        top = 1.0
    n = len(vals)
    pad = 2.0
    span_x = width - 2 * pad
    span_y = height - 2 * pad
    pts = []
    for i, v in enumerate(vals):
        x = pad + (span_x * i / max(n - 1, 1))
        y = pad + span_y * (1.0 - v / top)
        pts.append(f"{x:.1f},{y:.1f}")
    baseline = height - pad
    area = " ".join([f"{pad:.1f},{baseline:.1f}"] + pts + [f"{pad + span_x:.1f},{baseline:.1f}"])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<polygon points="{area}" fill="{color}" fill-opacity="0.25"/>'
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
        'stroke-width="1.5"/></svg>'
    )
