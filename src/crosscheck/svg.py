"""Static SVG rendering of alarm traces.

One horizontal band per trace: each hypothesis for the number of true-a
items is a unit cell, colored by whether a safe ground truth exists
there.  Pure string assembly, no drawing libraries; this is the only
module where floats appear, and only for layout coordinates.
"""

from __future__ import annotations

from typing import Sequence

from .alarm import AlarmTrace
from .model import SketchError

_LEFT = 150
_RIGHT = 24
_TOP = 46
_BOTTOM = 42
_PLOT_W = 720
_ROW_H = 26
_ROW_GAP = 14


# markup characters as entities, and those that XML 1.0 forbids (C0
# controls but tab, LF and CR; U+FFFE, U+FFFF) as U+FFFD
_XML_TEXT = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")
_XML_TEXT.update({ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"})


def _escape(text: str) -> str:
    return text.translate(_XML_TEXT)


def _coord(value: float) -> str:
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _runs(trace: AlarmTrace) -> list[tuple[int, int, bool]]:
    """Maximal constant-colour runs of (first q_a, last q_a, safe), each
    run's end found by one ``tuple.index`` in C."""
    flags, runs, first = trace.safe, [], 0
    while first < len(flags):
        safe = flags[first]
        try:
            end = flags.index(not safe, first)
        except ValueError:
            end = len(flags)
        runs.append((first, end - 1, safe))
        first = end
    return runs


def render_traces(traces: Sequence[AlarmTrace]) -> str:
    """Render one or more traces over a shared test size, a row each."""
    if not traces:
        raise SketchError("nothing to render")
    q = traces[0].q
    for trace in traces:
        if trace.q != q:
            raise SketchError("all rendered traces must share the same q")

    cell_w = _PLOT_W / (q + 1)
    height = _TOP + len(traces) * (_ROW_H + _ROW_GAP) - _ROW_GAP + _BOTTOM
    width = _LEFT + _PLOT_W + _RIGHT
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_coord(height)}" viewBox="0 0 {width} {_coord(height)}" '
        'role="img">'
    )
    parts.append(
        "<style>"
        ".band-safe{fill:#2e8b57;}"
        ".band-unsafe{fill:#c23b22;}"
        ".axis{stroke:#444;stroke-width:1;}"
        ".tick-label,.row-label,.legend{font:12px sans-serif;fill:#222;}"
        ".row-label{dominant-baseline:middle;}"
        "</style>"
    )
    parts.append(
        f'<text class="legend" x="{_LEFT}" y="18">safe hypothesis exists'
        "</text>"
    )
    parts.append(
        f'<rect class="swatch band-safe" x="{_LEFT + 150}" y="8" width="14" height="12"/>'
        f'<text class="legend" x="{_LEFT + 170}" y="18">yes</text>'
        f'<rect class="swatch band-unsafe" x="{_LEFT + 210}" y="8" width="14" height="12"/>'
        f'<text class="legend" x="{_LEFT + 230}" y="18">no</text>'
    )
    for row, trace in enumerate(traces):
        y = _TOP + row * (_ROW_H + _ROW_GAP)
        label = f"{trace.mode}: {'+'.join(trace.classifiers)}"
        parts.append(
            f'<text class="row-label" x="{_LEFT - 10}" y="{_coord(y + _ROW_H / 2)}" '
            f'text-anchor="end">{_escape(label)}</text>'
        )
        # a run narrower than 1 unit is drawn 1 unit wide, after the band's
        # wide runs: the unsafe ones first, then the safe ones, so that no
        # later run paints over a safe one
        narrow: tuple[list[str], list[str]] = ([], [])
        for first, last, safe in _runs(trace):
            x = _LEFT + first * cell_w
            w = (last - first + 1) * cell_w
            kind = "band-safe" if safe else "band-unsafe"
            (narrow[safe] if w < 1 else parts).append(
                f'<rect class="{kind}" x="{_coord(x)}" y="{y}" '
                f'width="{_coord(max(w, 1))}" height="{_ROW_H}"/>'
            )
        parts += narrow[0] + narrow[1]
    axis_y = _TOP + len(traces) * (_ROW_H + _ROW_GAP) - _ROW_GAP + 8
    parts.append(
        f'<line class="axis" x1="{_LEFT}" y1="{_coord(axis_y)}" '
        f'x2="{_LEFT + _PLOT_W}" y2="{_coord(axis_y)}"/>'
    )
    ticks = sorted({0, q // 4, q // 2, 3 * q // 4, q})
    for tick in ticks:
        # ticks mark cell centres so the 0 and q cells read correctly
        x = _LEFT + (tick + 0.5) * cell_w
        parts.append(
            f'<line class="axis" x1="{_coord(x)}" y1="{_coord(axis_y)}" '
            f'x2="{_coord(x)}" y2="{_coord(axis_y + 5)}"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_coord(x)}" y="{_coord(axis_y + 18)}" '
            f'text-anchor="middle">{tick}</text>'
        )
    parts.append(
        f'<text class="tick-label" x="{_LEFT + _PLOT_W // 2}" '
        f'y="{_coord(axis_y + 34)}" text-anchor="middle">'
        "assumed number of true-a items</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
