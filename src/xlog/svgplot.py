"""Tiny deterministic SVG emitters (bars, lines, scatter).

No plotting dependency: charts are assembled as plain strings so test runs
can diff output bytes. No timestamps or random ids are ever embedded.
"""

from __future__ import annotations

import math

_PALETTE = [
    "#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66",
    "#77bedb", "#ee854a", "#8c613c", "#956cb4", "#82c6e2",
]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _header(width, height, title, meta):
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if meta:
        lines.append(f"<!-- {_esc(meta)} -->")
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        lines.append(
            f'<text x="{width / 2:.0f}" y="18" font-family="monospace" font-size="13" '
            f'text-anchor="middle">{_esc(title)}</text>'
        )
    return lines


def _span(values):
    """(low, high) of ``values`` for an axis: (0, 1) when there are none, and
    high = low + 1 when all are equal."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    return lo, (lo + 1.0 if hi == lo else hi)


def barh_chart(labels, values, title="", meta="", width=640) -> str:
    """Horizontal bar chart; negative values extend left of a zero axis."""
    n = len(labels)
    row_h = 24
    top, bottom, left, right = 30, 10, 180, 20
    height = top + bottom + n * row_h
    span = max((abs(v) for v in values), default=1.0) or 1.0
    plot_w = width - left - right
    zero_x = left + plot_w / 2
    scale = (plot_w / 2 - 4) / span
    out = _header(width, height, title, meta)
    out.append(
        f'<line x1="{_fmt(zero_x)}" y1="{top}" x2="{_fmt(zero_x)}" '
        f'y2="{height - bottom}" stroke="#999"/>'
    )
    for i, (lab, val) in enumerate(zip(labels, values)):
        y = top + i * row_h
        w = abs(val) * scale
        x = zero_x if val >= 0 else zero_x - w
        color = "#2e7d32" if val >= 0 else "#c62828"
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y + 4)}" width="{_fmt(w)}" '
            f'height="{row_h - 8}" fill="{color}"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{_fmt(y + row_h / 2 + 4)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{_esc(lab)}</text>'
        )
        tx = x + w + 4 if val >= 0 else x - 4
        anchor = "start" if val >= 0 else "end"
        out.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(y + row_h / 2 + 4)}" font-family="monospace" '
            f'font-size="10" text-anchor="{anchor}">{_fmt(val)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _frame(xs, ys, margins, width, height, title, meta):
    """A chart's lines up to its plot rectangle inside ``margins`` (top,
    bottom, left, right), the spans (x_lo, x_hi, y_lo, y_hi) of ``xs`` and
    ``ys``, and the map of a data point (x, y) to its pixel in the rectangle."""
    top, bottom, left, right = margins
    (x_lo, x_hi), (y_lo, y_hi) = _span(xs), _span(ys)
    pw, ph = width - left - right, height - top - bottom

    def pixel(x, y):
        return (left + (x - x_lo) / (x_hi - x_lo) * pw,
                top + (1 - (y - y_lo) / (y_hi - y_lo)) * ph)

    rect = f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#999"/>'
    return _header(width, height, title, meta) + [rect], (x_lo, x_hi, y_lo, y_hi), pixel


def line_chart(x, series: dict[str, list], title="", meta="", width=640, height=360) -> str:
    """Line plot of one or more named series over shared x values."""
    top, bottom, left, right = 30, 40, 60, 20
    xs = list(x)
    all_y = [v for ys in series.values() for v in ys if math.isfinite(v)]
    out, (x_lo, x_hi, y_lo, y_hi), pixel = _frame(xs, all_y, (top, bottom, left, right),
                                                  width, height, title, meta)
    out.append(
        f'<text x="{left}" y="{height - 8}" font-family="monospace" font-size="10">'
        f"x: {_fmt(x_lo)} .. {_fmt(x_hi)}   y: {_fmt(y_lo)} .. {_fmt(y_hi)}</text>"
    )
    for k, (name, ys) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            ",".join(map(_fmt, pixel(a, b))) for a, b in zip(xs, ys) if math.isfinite(b)
        )
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        out.append(
            f'<text x="{width - right - 4}" y="{top + 14 + 14 * k}" font-family="monospace" '
            f'font-size="11" text-anchor="end" fill="{color}">{_esc(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scatter_chart(x, y, color_labels, marker_labels=None, title="", meta="",
                  width=640, height=480) -> str:
    """Scatter plot; point color follows ``color_labels``, marker shape follows
    ``marker_labels`` (circle when it matches the color label, cross otherwise)."""
    top, right = 30, 130
    xs, ys = list(x), list(y)
    out, _, pixel = _frame(xs, ys, (top, 40, 50, right), width, height, title, meta)
    classes = sorted(set(color_labels), key=str)
    color_of = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(classes)}
    for i, c in enumerate(classes):
        out.append(
            f'<circle cx="{width - right + 12}" cy="{top + 10 + 16 * i}" r="4" '
            f'fill="{color_of[c]}"/>'
        )
        out.append(
            f'<text x="{width - right + 22}" y="{top + 14 + 16 * i}" font-family="monospace" '
            f'font-size="11">{_esc(c)}</text>'
        )
    for i, (cx, cy) in enumerate(map(pixel, xs, ys)):
        col = color_of[color_labels[i]]
        if marker_labels is not None and marker_labels[i] != color_labels[i]:
            out.append(
                f'<path d="M {_fmt(cx - 4)} {_fmt(cy - 4)} L {_fmt(cx + 4)} {_fmt(cy + 4)} '
                f'M {_fmt(cx - 4)} {_fmt(cy + 4)} L {_fmt(cx + 4)} {_fmt(cy - 4)}" '
                f'stroke="{col}" stroke-width="2"/>'
            )
        else:
            out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{col}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
