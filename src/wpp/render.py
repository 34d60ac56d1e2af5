"""Self-contained SVG 1.1 / standalone TikZ pictures of resolutions.

Drawn coordinates are scaled decimals; exact vertex data rides along in
data-* attributes (SVG) or comments (TikZ) so nothing is lost to rounding.
The exact vertices are written from the polygon's integer points over its
common denominator by report.ratio_str, the writer of the report's
rationals, so they have one text at any size.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UserInputError
from .polygon import LatticePolygon
from .report import ratio_str
from .resolution import ResolutionPair
from .rulings import RulingData, boundary_elements

__all__ = ["render", "WHAT_CHOICES", "FORMAT_CHOICES"]

WHAT_CHOICES = ("polygon", "strings", "ruling")
FORMAT_CHOICES = ("svg", "tikz")

_MARGIN = 40.0
_SIZE = 640.0


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Box:
    """Affine map from rational plane coordinates to SVG pixel coordinates."""

    def __init__(self, xs: list[Fraction], ys: list[Fraction]):
        self.xmin, self.xmax = min(xs), max(xs)
        self.ymin, self.ymax = min(ys), max(ys)
        w = float(self.xmax - self.xmin) or 1.0
        h = float(self.ymax - self.ymin) or 1.0
        self.scale = _SIZE / max(w, h)
        self.width = w * self.scale + 2 * _MARGIN
        self.height = h * self.scale + 2 * _MARGIN

    def to_px(self, x: Fraction, y: Fraction) -> tuple[float, float]:
        px = _MARGIN + float(x - self.xmin) * self.scale
        py = _MARGIN + float(self.ymax - y) * self.scale
        return px, py


def _svg_doc(box_w: float, box_h: float, body: list[str], meta: dict[str, str]) -> str:
    attrs = "".join(
        f' data-{k}="{_xml_escape(v)}"' for k, v in sorted(meta.items())
    )
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(box_w)}" height="{_fmt(box_h)}" '
        f'viewBox="0 0 {_fmt(box_w)} {_fmt(box_h)}"{attrs}>'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _tikz_doc(body: list[str], comments: list[str]) -> str:
    lines = ["\\documentclass[tikz]{standalone}", "\\begin{document}"]
    lines += [f"% {c}" for c in comments]
    lines.append("\\begin{tikzpicture}")
    lines += body
    lines += ["\\end{tikzpicture}", "\\end{document}"]
    return "\n".join(lines) + "\n"


def _exact_vertices(p: LatticePolygon) -> list[tuple[str, str]]:
    """Each vertex as the exact text of its two coordinates."""
    return [(ratio_str(x, p.den), ratio_str(y, p.den)) for x, y in p.ipts]


def _polygon_svg(rp: ResolutionPair) -> str:
    p = rp.polygon
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    box = _Box(xs, ys)
    pts = [box.to_px(x, y) for x, y in p.vertices]
    body = []
    if box.xmax - box.xmin <= 40 and box.ymax - box.ymin <= 40:
        x0 = math.floor(box.xmin)
        y0 = math.floor(box.ymin)
        x1 = math.ceil(box.xmax)
        y1 = math.ceil(box.ymax)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                px, py = box.to_px(Fraction(gx), Fraction(gy))
                body.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.4" fill="#bbbbbb"/>'
                )
    path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
    body.append(
        f'<polygon points="{path}" fill="#9ecae1" fill-opacity="0.35" '
        'stroke="#2171b5" stroke-width="1.6"/>'
    )
    for px, py in pts:
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#08306b"/>')
    for i in range(p.n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % p.n]
        mx, my = (ax + bx) / 2, (ay + by) / 2
        sel = rp.edge_sels[i]
        body.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my - 6)}" font-size="13" '
            f'font-family="monospace" fill="#333333" text-anchor="middle" '
            f'data-edge="{i}" data-selfint="{sel}">{sel}</text>'
        )
    meta = {
        "triple": "{},{},{}".format(*rp.weights_input),
        "presentation": str(rp.presentation),
        "scale": _fmt(box.scale),
        "vertices": ";".join(f"{x},{y}" for x, y in _exact_vertices(p)),
        "edge-selfints": ",".join(str(s) for s in rp.edge_sels),
    }
    return _svg_doc(box.width, box.height, body, meta)


def _polygon_tikz(rp: ResolutionPair) -> str:
    p = rp.polygon
    xs = [float(v[0]) for v in p.vertices]
    ys = [float(v[1]) for v in p.vertices]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    s = 10.0 / span
    body = []
    coords = " -- ".join(f"({x * s:.4f},{y * s:.4f})" for x, y in zip(xs, ys))
    body.append(f"\\draw[thick,fill=blue!15] {coords} -- cycle;")
    for i in range(p.n):
        ax, ay = xs[i] * s, ys[i] * s
        bx, by = xs[(i + 1) % p.n] * s, ys[(i + 1) % p.n] * s
        body.append(
            f"\\node[font=\\scriptsize] at ({(ax + bx) / 2:.4f},{(ay + by) / 2 + 0.25:.4f}) "
            f"{{{rp.edge_sels[i]}}};"
        )
    for x, y in zip(xs, ys):
        body.append(f"\\fill ({x * s:.4f},{y * s:.4f}) circle (2pt);")
    comments = [
        "moment polygon for CP({},{},{}), presentation {}".format(
            *rp.weights_input, rp.presentation
        ),
        "exact vertices: " + "; ".join(f"({x},{y})" for x, y in _exact_vertices(p)),
        f"scale: {s:.6f} drawing units per lattice unit",
    ]
    return _tikz_doc(body, comments)


def _cycle_layout(rp: ResolutionPair) -> list[tuple[str, int, float, float]]:
    """(label, selfint, x, y) for each boundary element on a circle."""
    elems = boundary_elements(rp)
    m = len(elems)
    out = []
    r = _SIZE / 2 - _MARGIN
    cx = cy = _SIZE / 2
    for idx, el in enumerate(elems):
        ang = math.pi / 2 - 2 * math.pi * idx / m
        out.append((el.name, el.selfint, cx + r * math.cos(ang), cy - r * math.sin(ang)))
    return out


def _strings_svg(rp: ResolutionPair, highlight: RulingData | None = None) -> str:
    layout = _cycle_layout(rp)
    m = len(layout)
    body = []
    marked: dict[str, str] = {}
    title = "boundary cycle CP({},{},{})".format(*rp.weights_input)
    if highlight is not None:
        for el, mult in _fiber_marks(rp, highlight):
            marked[el] = mult
        title = "{}: {} ruling, (p,q)=({},{})".format(
            title, highlight.case, highlight.pa, highlight.qa
        )
    for i in range(m):
        _, _, x0, y0 = layout[i]
        _, _, x1, y1 = layout[(i + 1) % m]
        body.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            'stroke="#999999" stroke-width="1"/>'
        )
    for name, sel, x, y in layout:
        fill = "#d94801" if name in marked else ("#2171b5" if name.startswith("S_") else "#31a354")
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="7" fill="{fill}" '
            f'data-name="{_xml_escape(name)}" data-selfint="{sel}"/>'
        )
        label = f"{name} ({sel})"
        if name in marked:
            label += f" x{marked[name]}"
        off = -14 if y < _SIZE / 2 else 22
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + off)}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{_xml_escape(label)}</text>'
        )
    body.append(
        f'<text x="{_fmt(_SIZE / 2)}" y="18" font-size="14" font-family="monospace" '
        f'text-anchor="middle">{_xml_escape(title)}</text>'
    )
    if highlight is not None and highlight.case == "Unicuspidal":
        loc = highlight.cusp_location
        body.append(
            f'<text x="{_fmt(_SIZE / 2)}" y="{_fmt(_SIZE - 6)}" font-size="12" '
            f'font-family="monospace" text-anchor="middle">cusp between '
            f"C_{loc[0]} and C_{loc[1]} of S_{highlight.target}</text>"
        )
    meta = {
        "triple": "{},{},{}".format(*rp.weights_input),
        "presentation": str(rp.presentation),
        "scale": "1",
        "cycle": ";".join(f"{name}:{sel}" for name, sel, _, _ in layout),
    }
    if highlight is not None:
        meta["case"] = highlight.case
        meta["pq"] = f"{highlight.pa},{highlight.qa}"
    return _svg_doc(_SIZE, _SIZE, body, meta)


def _strings_tikz(rp: ResolutionPair, highlight: RulingData | None = None) -> str:
    layout = _cycle_layout(rp)
    m = len(layout)
    s = 8.0 / _SIZE
    marked: dict[str, str] = {}
    if highlight is not None:
        for el, mult in _fiber_marks(rp, highlight):
            marked[el] = mult
    body = []
    for i in range(m):
        _, _, x0, y0 = layout[i]
        _, _, x1, y1 = layout[(i + 1) % m]
        body.append(
            f"\\draw[gray] ({x0 * s:.4f},{-y0 * s:.4f}) -- ({x1 * s:.4f},{-y1 * s:.4f});"
        )
    for name, sel, x, y in layout:
        style = "fill=orange" if name in marked else (
            "fill=blue!60" if name.startswith("S_") else "fill=green!60!black"
        )
        tag = name.replace("_", "\\_")
        label = f"{tag} ({sel})"
        if name in marked:
            label += f" $\\times{marked[name]}$"
        body.append(f"\\fill[{style}] ({x * s:.4f},{-y * s:.4f}) circle (3pt);")
        body.append(
            f"\\node[font=\\tiny] at ({x * s:.4f},{-y * s + 0.3:.4f}) {{{label}}};"
        )
    comments = ["boundary cycle for CP({},{},{})".format(*rp.weights_input)]
    if highlight is not None:
        comments.append(
            f"{highlight.case} ruling, (p,q)=({highlight.pa},{highlight.qa})"
        )
    return _tikz_doc(body, comments)


def _fiber_marks(rp: ResolutionPair, rd: RulingData) -> list[tuple[str, str]]:
    """Boundary elements carrying the fiber, with their multiplicities."""
    marks = [(rd.opposite, "1")]
    if rd.pa > 0:
        marks.append((f"S_{rd.target}[{rd.nu_a}]", str(rd.pa)))
    marks.append((f"S_{rd.target}[{rd.nu_a + 1}]", str(rd.qa)))
    return marks


def render(rp: ResolutionPair, what: str, fmt: str, rd: RulingData | None = None) -> str:
    """Build one picture; `rd` is required for what='ruling'."""
    if what not in WHAT_CHOICES:
        raise UserInputError(f"unknown picture kind {what!r}")
    if fmt not in FORMAT_CHOICES:
        raise UserInputError(f"unknown format {fmt!r}")
    if what == "polygon":
        return _polygon_svg(rp) if fmt == "svg" else _polygon_tikz(rp)
    if what == "strings":
        return _strings_svg(rp) if fmt == "svg" else _strings_tikz(rp)
    if rd is None:
        raise UserInputError("ruling pictures need ruling data")
    if fmt == "svg":
        return _strings_svg(rp, highlight=rd)
    return _strings_tikz(rp, highlight=rd)
