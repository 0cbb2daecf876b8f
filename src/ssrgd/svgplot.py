"""Minimal dependency-free SVG charts.

Output is deterministic and diffable: no timestamps, no generated ids.
The root element carries ``data-*`` attributes with the plotted extents,
and the run ids a chart was built from are embedded as an XML comment.
"""

from __future__ import annotations

import math
import sys

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

WIDTH, HEIGHT = 720, 480
# caps spans and tick ends: from a step of 1 up the ticks are ints, and every int is <= inf
FLOAT_MAX = sys.float_info.max
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


def escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` as XML entities, replaced in that
    order as ``xml.sax.saxutils.escape`` does, without its import of urllib."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _axis_end(lo: float, hi: float) -> float:
    """``hi``, or on a flat axis (hi <= lo) ``lo`` plus a pad wider than the float spacing at lo."""
    return hi if hi > lo else lo + max(1.0, abs(lo) * 1e-12)


def _scaled(lo: float, hi: float) -> tuple[float, float, float]:
    """(s, s * lo, s * (hi - lo)) at s = 1, or 0.5 where hi - lo overflows; s * v is exact."""
    s = 1.0 if hi - lo < math.inf else 0.5
    return s, s * lo, s * hi - s * lo


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    hi = _axis_end(lo, hi)
    span = min(hi - lo, FLOAT_MAX)
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= min(hi + 1e-12 * span, FLOAT_MAX):
        ticks.append(v)
        if v + step == v:  # a step below the float spacing at v
            break
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10**e <= min(hi * (1 + 1e-12), FLOAT_MAX):
        if 10**e >= lo * (1 - 1e-12):
            ticks.append(10.0**e)
        e += 1
    if not ticks:
        ticks = [lo, hi]
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi, logx, logy):
        self.logx, self.logy = logx, logy
        xlo = math.log10(xlo) if logx else xlo
        self.xs, self.xlo, self.xspan = _scaled(xlo, _axis_end(xlo, math.log10(xhi) if logx else xhi))
        ylo = math.log10(ylo) if logy else ylo
        self.ys, self.ylo, self.yspan = _scaled(ylo, _axis_end(ylo, math.log10(yhi) if logy else yhi))

    def px(self, x):
        x = math.log10(x) if self.logx else x
        return MARGIN_L + (x * self.xs - self.xlo) / self.xspan * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        y = math.log10(y) if self.logy else y
        return HEIGHT - MARGIN_B - (y * self.ys - self.ylo) / self.yspan * (HEIGHT - MARGIN_T - MARGIN_B)


def _preamble(run_ids, **data) -> list[str]:
    """The root element with ``data-<key>="<repr(value)>"`` attributes, the
    run-id comment and the white background every chart starts with."""
    attrs = " ".join(f'data-{key}="{value!r}"' for key, value in data.items())
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" {attrs}>',
        f"<!-- runs: {escape(','.join(run_ids))} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]


def _axes(parts, frame, xticks, yticks, title, xlabel, ylabel):
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tv in xticks:
        px = frame.px(tv)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle">{_fmt(tv)}</text>'
        )
    for tv in yticks:
        py = frame.py(tv)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{_fmt(tv)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 12}" font-size="13" text-anchor="middle">'
        f"{escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{escape(ylabel)}</text>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="22" font-size="15" text-anchor="middle" '
        f'font-weight="bold">{escape(title)}</text>'
    )


def line_chart(
    series,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
    run_ids=(),
) -> str:
    """Render (label, xs, ys) series as polylines.

    A point is drawn when both coordinates are finite numbers and, with
    ``logy``, y > 0; a series with no such point is left out.  Each ``xs``
    and ``ys`` is read twice, once for the extents and once for the
    polyline, and no list of points is built, so columns of any length
    cost no more memory than their polyline text.  Series that pass the
    same ``xs`` and ``ys`` objects share one polyline text, built once.
    """
    def points(xs, ys):
        for x, y in zip(xs, ys):
            if (x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
                    and (not logy or y > 0)):
                yield float(x), float(y)

    drawn = []
    xlo = ylo = math.inf
    xhi = yhi = -math.inf
    for label, xs, ys in series:
        empty = True
        for x, y in points(xs, ys):
            empty = False
            # strict comparisons keep the first extreme, as min() and max() do (0.0 before -0.0)
            if x < xlo:
                xlo = x
            if x > xhi:
                xhi = x
            if y < ylo:
                ylo = y
            if y > yhi:
                yhi = y
        if not empty:
            drawn.append((label, xs, ys))
    if not drawn:
        xlo = xhi = ylo = yhi = 1.0
    frame = _Frame(xlo, max(xhi, xlo * (1 + 1e-9) + 1e-12), ylo, max(yhi, ylo + 1e-12), False, logy)
    xticks = _nice_ticks(xlo, xhi)
    yticks = _log_ticks(ylo, yhi) if logy else _nice_ticks(ylo, yhi)

    parts = _preamble(run_ids, xmin=xlo, xmax=xhi, ymin=ylo, ymax=yhi, series=len(drawn))
    _axes(parts, frame, xticks, yticks, title, xlabel, ylabel)
    coords_of = {}  # polyline text per distinct (xs, ys) pair; ``drawn`` keeps each id live
    for k, (label, xs, ys) in enumerate(drawn):
        color = PALETTE[k % len(PALETTE)]
        key = id(xs), id(ys)
        if key not in coords_of:
            coords_of[key] = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in points(xs, ys))
        coords = coords_of[key]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 16 + 15 * k
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" x2="{WIDTH - MARGIN_R - 130}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 125}" y="{ly}" font-size="11">{escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def scatter_fit_chart(
    xs,
    ys,
    slope: float,
    intercept: float,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    run_ids=(),
) -> str:
    """Log-log scatter with the fitted power law overlay."""
    pts = [(float(x), float(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    fit = [(x, 10 ** (intercept + slope * math.log10(x))) for x in (xlo, xhi)]
    ylo = min(ylo, min(p[1] for p in fit))
    yhi = max(yhi, max(p[1] for p in fit))
    frame = _Frame(xlo, xhi, ylo, yhi, True, True)
    parts = _preamble(run_ids, xmin=xlo, xmax=xhi, ymin=ylo, ymax=yhi, slope=slope)
    _axes(parts, frame, _log_ticks(xlo, xhi), _log_ticks(ylo, yhi), title, xlabel, ylabel)
    coords = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in fit)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#d62728" stroke-width="1.5" '
        'stroke-dasharray="6 3"/>'
    )
    for x, y in pts:
        parts.append(
            f'<circle cx="{frame.px(x):.2f}" cy="{frame.py(y):.2f}" r="4" fill="#1f77b4"/>'
        )
    parts.append(
        f'<text x="{WIDTH - MARGIN_R - 150}" y="{MARGIN_T + 16}" font-size="12">'
        f"slope = {slope:.3f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def bar_chart(labels, values, *, title: str, ylabel: str, run_ids=()) -> str:
    values = [float(v) for v in values]
    yhi = max(values + [1.0])
    frame = _Frame(0.0, max(1, len(values)), 0.0, yhi, False, False)
    parts = _preamble(run_ids, ymin=0, ymax=yhi, bars=len(values))
    _axes(parts, frame, [], _nice_ticks(0.0, yhi), title, "", ylabel)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / max(1, len(values))
    for k, (label, v) in enumerate(zip(labels, values)):
        x = MARGIN_L + k * slot + 0.15 * slot
        y = frame.py(v)
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{0.7 * slot:.2f}" '
            f'height="{HEIGHT - MARGIN_B - y:.2f}" fill="{PALETTE[k % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{x + 0.35 * slot:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
