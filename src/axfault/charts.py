"""Small deterministic SVG charts, no plotting dependencies.

Byte-identical output for identical inputs is the design goal here, so
all floats are formatted through one helper and nothing consults clocks,
locales, or dict iteration order. Every chart plots accuracy in percent
on a fixed 0-100 y axis.
"""

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 36, 64

_YLABEL = "accuracy (%)"
_YMIN, _YMAX = 0.0, 100.0


def _f(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _frame(title: str):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">'
        f"{_esc(title)}</text>",
        f'<text x="14" y="{_H // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_H // 2})">{_esc(_YLABEL)}</text>',
    ]
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = _YMIN + frac * (_YMAX - _YMIN)
        yp = y0 + (y1 - y0) * frac
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_f(yp)}" x2="{x0}" y2="{_f(yp)}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_f(yp + 4)}" text-anchor="end">'
            f"{_f(yv)}</text>"
        )
    return parts, (x0, x1, y0, y1)


def _xpos(i: int, count: int, x0: int, x1: int) -> float:
    if count == 1:
        return (x0 + x1) / 2
    return x0 + (x1 - x0) * (i + 0.5) / count


def _legend(parts, series_names, x1):
    for si, name in enumerate(series_names):
        color = _PALETTE[si % len(_PALETTE)]
        ly = _MT + 14 * si
        parts.append(
            f'<rect x="{x1 - 150}" y="{ly - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(f'<text x="{x1 - 136}" y="{ly}">{_esc(name)}</text>')


def _cat_labels(parts, categories, x0, x1, y0):
    for i, cat in enumerate(categories):
        xp = _xpos(i, len(categories), x0, x1)
        parts.append(
            f'<text x="{_f(xp)}" y="{y0 + 16}" text-anchor="middle">'
            f"{_esc(cat)}</text>"
        )


def _check_data(categories, series):
    if not categories or not series:
        raise ValueError("chart needs at least one category and one series")
    for name, values in series:
        if len(values) != len(categories):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(categories)} categories"
            )


def line_chart(categories, series, title) -> str:
    """One polyline per series of accuracies over categorical x positions.

    ``series`` is a list of (name, values) pairs; values may contain None
    for missing cells, which breaks the line there.
    """
    _check_data(categories, series)
    parts, (x0, x1, y0, y1) = _frame(title)
    _cat_labels(parts, categories, x0, x1, y0)
    for si, (name, values) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        run = []
        # a trailing None ends the last run
        for i, v in enumerate([*values, None]):
            if v is None:
                if len(run) > 1:
                    pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in run)
                    parts.append(
                        f'<polyline points="{pts}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
                run = []
                continue
            xp = _xpos(i, len(values), x0, x1)
            yp = y0 + (y1 - y0) * (v - _YMIN) / (_YMAX - _YMIN)
            run.append((xp, yp))
            parts.append(
                f'<circle cx="{_f(xp)}" cy="{_f(yp)}" r="2.5" fill="{color}"/>'
            )
    _legend(parts, [name for name, _ in series], x1)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(categories, series, title) -> str:
    """Grouped vertical bars, same data contract as line_chart."""
    _check_data(categories, series)
    parts, (x0, x1, y0, y1) = _frame(title)
    _cat_labels(parts, categories, x0, x1, y0)
    ncat = len(categories)
    nser = max(len(series), 1)
    slot = (x1 - x0) / max(ncat, 1)
    bw = min(slot * 0.8 / nser, 40.0)
    for si, (name, values) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        for i, v in enumerate(values):
            if v is None:
                continue
            center = _xpos(i, ncat, x0, x1)
            bx = center - bw * nser / 2 + si * bw
            h = (y0 - y1) * (v - _YMIN) / (_YMAX - _YMIN)
            parts.append(
                f'<rect x="{_f(bx)}" y="{_f(y0 - h)}" width="{_f(bw)}" '
                f'height="{_f(h)}" fill="{color}"/>'
            )
    _legend(parts, [name for name, _ in series], x1)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
