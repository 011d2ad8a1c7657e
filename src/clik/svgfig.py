"""Tiny static SVG line plots (polylines plus axes); no plotting dependency.

The CSV files are the authoritative outputs; these figures are quick
visual companions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_write

_COLORS = ("#1f3b73", "#b13a2f", "#3c7a3c", "#7a4f9e", "#a07f1f")


@dataclass
class Panel:
    """One set of axes with any number of curves and reference lines."""

    xlabel: str
    ylabel: str
    title: str = ""
    curves: list = field(default_factory=list)   # (x, y, label, dashed)
    hlines: tuple = ()
    vlines: tuple = ()

    def add(self, x, y, label="", dashed=False):
        self.curves.append((np.asarray(x, float), np.asarray(y, float),
                            label, dashed))
        return self


def _ticks(lo, hi, count=5):
    return np.linspace(lo, hi, count)


def _fmt(v):
    return f"{v:.4g}"


def _render_panel(panel: Panel, x0, y0, w, h):
    margin_l, margin_r, margin_t, margin_b = 52, 12, 24, 36
    px, py = x0 + margin_l, y0 + margin_t
    pw, ph = w - margin_l - margin_r, h - margin_t - margin_b

    xs = np.concatenate([c[0] for c in panel.curves])
    ys = np.concatenate([c[1] for c in panel.curves])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(ys.min()), *panel.hlines) if panel.hlines else float(ys.min())
    yhi = max(float(ys.max()), *panel.hlines) if panel.hlines else float(ys.max())
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return px + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return py + ph - (v - ylo) / (yhi - ylo) * ph

    parts = []
    if panel.title:
        parts.append(f'<text x="{x0 + w / 2:.1f}" y="{y0 + 15}" '
                     f'text-anchor="middle" font-size="13">{panel.title}</text>')
    parts.append(f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444"/>')
    for t in _ticks(xlo, xhi):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{py + ph}" x2="{sx(t):.1f}" '
                     f'y2="{py + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{py + ph + 16}" '
                     f'text-anchor="middle" font-size="10">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        parts.append(f'<line x1="{px - 4}" y1="{sy(t):.1f}" x2="{px}" '
                     f'y2="{sy(t):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{px - 6}" y="{sy(t):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="10">{_fmt(t)}</text>')
    parts.append(f'<text x="{px + pw / 2:.1f}" y="{y0 + h - 4}" '
                 f'text-anchor="middle" font-size="11">{panel.xlabel}</text>')
    parts.append(f'<text x="{x0 + 14}" y="{py + ph / 2:.1f}" font-size="11" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 {x0 + 14} {py + ph / 2:.1f})">'
                 f'{panel.ylabel}</text>')

    for v in panel.hlines:
        parts.append(f'<line x1="{px}" y1="{sy(v):.1f}" x2="{px + pw}" '
                     f'y2="{sy(v):.1f}" stroke="#888" stroke-dasharray="5,4"/>')
    for v in panel.vlines:
        if xlo <= v <= xhi:
            parts.append(f'<line x1="{sx(v):.1f}" y1="{py}" x2="{sx(v):.1f}" '
                         f'y2="{py + ph}" stroke="#888" stroke-dasharray="5,4"/>')

    legend_y = py + 14
    for i, (cx, cy, label, dashed) in enumerate(panel.curves):
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(cx, cy))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"{dash}/>')
        if label:
            parts.append(f'<line x1="{px + pw - 130}" y1="{legend_y}" '
                         f'x2="{px + pw - 105}" y2="{legend_y}" '
                         f'stroke="{color}" stroke-width="1.6"{dash}/>')
            parts.append(f'<text x="{px + pw - 100}" y="{legend_y + 3}" '
                         f'font-size="10">{label}</text>')
            legend_y += 14
    return "".join(parts)


def write_figure(path, panels, panel_size=(480, 380)) -> None:
    """Render panels side by side into one SVG file (atomic write)."""
    if isinstance(panels, Panel):
        panels = [panels]
    w, h = panel_size
    total_w = w * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
             f'height="{h}" viewBox="0 0 {total_w} {h}" font-family="sans-serif">',
             f'<rect width="{total_w}" height="{h}" fill="white"/>']
    for i, panel in enumerate(panels):
        parts.append(_render_panel(panel, i * w, 0, w, h))
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("".join(parts))
