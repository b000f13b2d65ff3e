"""Deterministic renderings of slipfaces: heatmaps and profile fans.

Profiles superimpose the graphs y = s(x, b), one curve per b in the chosen
range; heatmaps paint the raw values over a box.  Output is plain text in
all three formats (ascii art, ASCII-PGM, SVG with integer coordinates and no
fonts), so byte equality against golden files is meaningful on every
platform.  A permutation's slipface is counted on the requested rectangle
alone, without numpy, by a sweep of its columns from ``perm._rank_bits``, so
no list is longer than a side; a Slipface is read off its grid, the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .perm import Permutation, _check_cells, _images, _rank_bits

if TYPE_CHECKING:  # annotations only; the grid engine loads for a Slipface
    from .slipface import Slipface

__all__ = ["RenderSpec", "render"]

_FORMATS = ("ascii", "svg", "pgm")
_MODES = ("heatmap", "profiles")

_PALETTE = (
    "#1b6ca8",
    "#c0392b",
    "#27ae60",
    "#8e44ad",
    "#d35400",
    "#16a085",
    "#7f8c8d",
    "#2c3e50",
)


class _Spec(NamedTuple):
    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int
    fmt: str = "ascii"
    mode: str = "heatmap"


class RenderSpec(_Spec):
    """The rectangle [a_lo, a_hi] x [b_lo, b_hi], the format and the mode of
    a rendering; construction rejects an empty range or an unknown name."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.a_hi < spec.a_lo or spec.b_hi < spec.b_lo:
            raise ValueError("render ranges must be nonempty")
        if spec.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if spec.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        return spec


def render(s: Slipface | Permutation, spec: RenderSpec) -> str:
    """Render s, a slipface or the slipface s_p of a permutation, on the
    rectangle of spec, whose size is checked before anything is built."""
    v0, v1, b0, b1 = spec.a_lo, spec.a_hi, spec.b_lo, spec.b_hi
    _check_cells("render rectangle", (v1 - v0 + 1) * (b1 - b0 + 1))
    if isinstance(s, Permutation):
        x, c = _rank_bits(s, v0, v1, b0)
        cols = []
        for b, w in zip(range(b0, b1 + 1), _images(s.period, s.lo, s.vals, b0, b1)):
            cols.append([c - b + i + (x >> i).bit_count() for i in range(v1 - v0 + 1)])
            if w > v1:
                c += 1
            elif w >= v0:
                x |= 1 << (w - v0)
        g = [list(r) for r in zip(*cols)]
    else:
        from .slipface import sf_eval_grid

        g = sf_eval_grid(s, spec.a_lo, spec.a_hi, spec.b_lo, spec.b_hi).tolist()
    fn = _DISPATCH[(spec.fmt, spec.mode)]
    return fn(g, spec)


def _ascii_heatmap(g: list[list[int]], spec: RenderSpec) -> str:
    wv = max(len(str(v)) for v in (max(map(max, g)), min(map(min, g))))
    wa = max(len(str(spec.a_lo)), len(str(spec.a_hi)))
    lines = [f"heatmap a={spec.a_lo}..{spec.a_hi} b={spec.b_lo}..{spec.b_hi}"]
    for i in range(len(g) - 1, -1, -1):
        a = spec.a_lo + i
        row = " ".join(f"{v:>{wv}}" for v in g[i])
        lines.append(f"{a:>{wa}} | {row}")
    return "\n".join(lines) + "\n"


def _profile_canvas(g: list[list[int]], spec: RenderSpec):
    # canvas[y][x] = set of b-indices whose curve passes through (x, y)
    ymax = max(map(max, g))
    nx = len(g)
    cells: dict[tuple[int, int], list[int]] = {}
    for j in range(len(g[0])):
        for i in range(nx):
            y = g[i][j]
            cells.setdefault((i, y), []).append(j)
    return ymax, cells


def _ascii_profiles(g: list[list[int]], spec: RenderSpec) -> str:
    ymax, cells = _profile_canvas(g, spec)
    wy = len(str(ymax))
    lines = [f"profiles a={spec.a_lo}..{spec.a_hi} b={spec.b_lo}..{spec.b_hi}"]
    for y in range(ymax, -1, -1):
        chars = []
        for i in range(len(g)):
            js = cells.get((i, y))
            if js is None:
                chars.append(" ")
            elif len(js) == 1:
                chars.append(str((spec.b_lo + js[0]) % 10))
            else:
                chars.append("*")
        lines.append(f"{y:>{wy}} |" + "".join(chars).rstrip())
    return "\n".join(lines) + "\n"


def _pgm_heatmap(g: list[list[int]], spec: RenderSpec) -> str:
    mx = max(1, max(map(max, g)))
    lines = ["P2", f"{len(g[0])} {len(g)}", str(mx)]
    for i in range(len(g) - 1, -1, -1):
        lines.append(" ".join(map(str, g[i])))
    return "\n".join(lines) + "\n"


def _pgm_profiles(g: list[list[int]], spec: RenderSpec) -> str:
    ymax, cells = _profile_canvas(g, spec)
    h, w = ymax + 1, len(g)
    img = [[0] * w for _ in range(h)]
    for (i, y), _ in cells.items():
        img[ymax - y][i] = 1
    lines = ["P2", f"{w} {h}", "1"]
    for row in img:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


_CELL = 10


def _svg_open(w: int, h: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]


def _svg_heatmap(g: list[list[int]], spec: RenderSpec) -> str:
    na, nb = len(g), len(g[0])
    mx = max(1, max(map(max, g)))
    out = _svg_open(nb * _CELL, na * _CELL)
    for i in range(na - 1, -1, -1):
        y = (na - 1 - i) * _CELL
        for j in range(nb):
            # dark for large values
            lvl = 255 - g[i][j] * 255 // mx
            out.append(
                f'<rect x="{j * _CELL}" y="{y}" width="{_CELL}" '
                f'height="{_CELL}" fill="rgb({lvl},{lvl},{lvl})"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_profiles(g: list[list[int]], spec: RenderSpec) -> str:
    na, nb = len(g), len(g[0])
    ymax = max(map(max, g))
    w = max(1, (na - 1) * _CELL)
    h = max(1, ymax * _CELL)
    out = _svg_open(w, h)
    for j in range(nb):
        pts = " ".join(
            f"{i * _CELL},{(ymax - g[i][j]) * _CELL}" for i in range(na)
        )
        color = _PALETTE[(spec.b_lo + j) % len(_PALETTE)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


_DISPATCH = {
    ("ascii", "heatmap"): _ascii_heatmap,
    ("ascii", "profiles"): _ascii_profiles,
    ("pgm", "heatmap"): _pgm_heatmap,
    ("pgm", "profiles"): _pgm_profiles,
    ("svg", "heatmap"): _svg_heatmap,
    ("svg", "profiles"): _svg_profiles,
}
