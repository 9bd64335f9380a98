"""Figure-grade SVG rendering: Gantt charts and layout maps.

Hand-rolled SVG so golden files diff cleanly; no plotting dependency.
"""

from __future__ import annotations

import html

from .core import INTERFACE
from .scheduling import DISPENSING, Schedule

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#e6550d",
    "#31a354", "#9c9ede", "#9ecae1", "#59260b", "#9acd32", "#636363",
]
IFACE_COLOR = "#4dddad"


def _drug_color(drug: str, index: dict[str, int]) -> str:
    if drug not in index:
        index[drug] = len(index)
    return PALETTE[index[drug] % len(PALETTE)]


def _svg(width, height, body) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n' + "\n".join(body) + "\n</svg>\n"
    )


def render_gantt(schedule: Schedule, interruptions=None, transits=None) -> str:
    """One row per mover; bars colored by drug, interface bars distinct,
    idle transits hatched, pause extensions outlined in red."""
    body = ['<defs><pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse">'
            '<path d="M0,6 L6,0" stroke="#888" stroke-width="1"/></pattern></defs>']
    interruptions = interruptions or {}
    by_mover = schedule.by_mover()
    movers = sorted(by_mover)
    row_h, pad_left, pad_top = 28, 70, 20
    width = 900
    span = max(1, max(
        (so.end + interruptions.get(so.op.op_id, 0) for so in schedule.ops),
        default=schedule.makespan,
    ), schedule.makespan)
    scale = (width - pad_left - 20) / span
    idx: dict[str, int] = {}
    idle_by_mover: dict[int, list] = {}
    for tr in transits or ():
        if tr.idle > 0:
            idle_by_mover.setdefault(tr.mover, []).append(tr)

    for r, m in enumerate(movers):
        y = pad_top + r * row_h
        body.append(
            f'<text x="4" y="{y + row_h * 0.65}" font-size="11" font-family="sans-serif">'
            f"mover {m}</text>"
        )
        seq = by_mover[m]
        for so in seq:
            x = pad_left + so.start * scale
            w = max(1.0, so.op.duration * scale)
            color = IFACE_COLOR if so.op.target == INTERFACE else _drug_color(so.op.target, idx)
            title = html.escape(f"{so.op.target} [{so.start},{so.end}) order {so.op.order_id}")
            cls = "dispense" if so.op.kind == DISPENSING else "interface"
            body.append(
                f'<rect class="{cls}" x="{x:.1f}" y="{y + 4}" width="{w:.1f}" '
                f'height="{row_h - 8}" fill="{color}"><title>{title}</title></rect>'
            )
            pause = interruptions.get(so.op.op_id, 0)
            if pause:
                px = pad_left + so.end * scale
                pw = max(1.0, pause * scale)
                body.append(
                    f'<rect class="pause" x="{px:.1f}" y="{y + 4}" width="{pw:.1f}" '
                    f'height="{row_h - 8}" fill="{color}" stroke="#c00" '
                    f'stroke-width="1.5" fill-opacity="0.45"/>'
                )
        for tr in idle_by_mover.get(m, ()):
            x = pad_left + tr.depart * scale
            w = max(1.0, tr.gap * scale)
            body.append(
                f'<rect class="transit" x="{x:.1f}" y="{y + 8}" width="{w:.1f}" '
                f'height="{row_h - 16}" fill="url(#hatch)"/>'
            )
    height = pad_top + max(1, len(movers)) * row_h + 30
    body.append(
        f'<line x1="{pad_left}" y1="{height - 24}" x2="{width - 20}" y2="{height - 24}" '
        'stroke="black"/>'
    )
    for frac in (0, 0.25, 0.5, 0.75, 1.0):
        t = int(span * frac)
        x = pad_left + t * scale
        body.append(
            f'<text x="{x:.1f}" y="{height - 8}" font-size="10" font-family="sans-serif" '
            f'text-anchor="middle">{t}</text>'
        )
    return _svg(width, height, body)


def render_layout(placement, sites=None, heat=None) -> str:
    """Grid map: drug stripes per tile, interfaces highlighted, optional
    resting-site markers and heat shading."""
    layout = placement.layout
    xs = [t.x for t in layout.tiles]
    ys = [t.y for t in layout.tiles]
    cell, pad = 46, 30
    width = pad * 2 + (max(xs) - min(xs) + 1) * cell
    height = pad * 2 + (max(ys) - min(ys) + 1) * cell
    x0, y_max = min(xs), max(ys)
    idx: dict[str, int] = {}
    body = []

    def corner(t):
        # y axis points up in layout coordinates, down in SVG
        return (pad + (t.x - x0) * cell, pad + (y_max - t.y) * cell)

    if heat:
        lo = min(heat.values())
        hi = max(heat.values())

    for t in layout.sorted_tiles():
        x, y = corner(t)
        fill = "#eeeeee"
        if heat and t in heat:
            v = 0.5 if hi == lo else (heat[t] - lo) / (hi - lo)
            shade = int(235 - 130 * v)
            fill = f"rgb(255,{shade},{shade})"
        body.append(
            f'<rect class="cell" x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#444"/>'
        )
        if t in placement.interfaces:
            body.append(
                f'<rect class="iface" x="{x + 3}" y="{y + 3}" width="{cell - 6}" '
                f'height="{cell - 6}" fill="{IFACE_COLOR}" stroke="#065"/>'
            )
        else:
            drugs = placement.drugs_at(t)
            if drugs:
                stripe = (cell - 6) / len(drugs)
                for i, g in enumerate(drugs):
                    body.append(
                        f'<rect class="stripe" x="{x + 3 + i * stripe:.1f}" y="{y + 3}" '
                        f'width="{stripe:.1f}" height="{cell - 6}" '
                        f'fill="{_drug_color(g, idx)}"><title>{html.escape(g)}</title></rect>'
                    )
    if sites:
        for s in sites:
            sx, sy = s.location
            x = pad + (sx - x0) * cell + cell / 2
            y = pad + (y_max - sy) * cell + cell / 2
            body.append(
                f'<circle class="site" cx="{x:.1f}" cy="{y:.1f}" r="5" fill="#ffd700" '
                'stroke="#aa8800"/>'
            )
    return _svg(width, height, body)
