"""Reading real-world ballot data and writing election artifacts.

Covers the Pabulib participatory-budgeting text format (approval files
only, read by :mod:`approvaldap.pabulib`), a JSON native format that
round-trips :class:`Election` exactly, and byte-deterministic CSV/SVG
emitters used by the experiment commands.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Election
from .pabulib import ParseError, parse_pabulib

__all__ = [
    "ParseError",
    "parse_pabulib",
    "write_native",
    "read_native",
    "write_csv_matrix",
    "write_svg_scatter",
    "write_svg_heatmap",
]


# -- native JSON format -------------------------------------------------


def write_native(e: Election) -> str:
    """Serialize an election as JSON (ballots as 0-based approved indices)."""
    ballots = [np.flatnonzero(row).tolist() for row in e.matrix]
    doc = {"label": e.label, "num_candidates": e.num_candidates, "ballots": ballots}
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def read_native(text: str) -> Election:
    """Inverse of :func:`write_native`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(doc, Mapping):
        raise ParseError("top-level JSON value must be an object")
    try:
        m = doc["num_candidates"]
        ballots = doc["ballots"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from None
    # a JSON integer: bool is an int subclass, and int() would truncate 2.7
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ParseError(f"num_candidates must be a positive integer, got {m!r}")
    if not isinstance(ballots, list) or not all(isinstance(b, list) for b in ballots):
        raise ParseError("ballots must be a list of index lists")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label must be a string or null")
    try:
        return Election.from_approval_sets(m, ballots, label=label)
    except (ValueError, TypeError, IndexError) as exc:
        raise ParseError(str(exc)) from None


# -- CSV / SVG emitters --------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv_matrix(matrix: Iterable[Iterable], headers: Sequence[str]) -> str:
    """RFC-4180-style CSV with a header row; floats use 6 significant digits."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([str(h) for h in headers])
    for row in matrix:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

# side of the square scatter plot area, and of one heatmap cell, in pixels
_SCATTER_SIZE = 640
_HEATMAP_CELL = 36


def write_svg_scatter(
    points: Sequence[Sequence[float]],
    labels: Sequence[str],
    title: str = "",
) -> str:
    """Self-contained SVG scatter plot with one circle per point and a legend.

    ``labels`` assigns each point to a legend group; groups take the
    palette's colors in order of first appearance.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] != len(labels):
        raise ValueError("one label per point required")
    groups = list(dict.fromkeys(labels))
    palette = {g: _PALETTE[i % len(_PALETTE)] for i, g in enumerate(groups)}

    size = _SCATTER_SIZE
    pad = 40
    legend_w = 170
    span = max(pts.max(axis=0) - pts.min(axis=0)) if pts.size else 1.0
    span = span if span > 0 else 1.0
    lo = pts.min(axis=0) if pts.size else np.zeros(2)
    scale = (size - 2 * pad) / span

    def sx(x: float) -> float:
        return pad + (x - lo[0]) * scale

    def sy(y: float) -> float:
        return size - pad - (y - lo[1]) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + legend_w}" height="{size}" '
        f'viewBox="0 0 {size + legend_w} {size}">',
        f'<rect width="{size + legend_w}" height="{size}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{pad}" y="24" font-family="sans-serif" font-size="16">{_esc(title)}</text>')
    for (x, y), lab in zip(pts, labels):
        out.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="{palette[lab]}" fill-opacity="0.75"/>'
        )
    for i, g in enumerate(groups):
        ly = pad + 18 * i
        out.append(f'<rect x="{size + 8}" y="{ly - 9}" width="12" height="12" fill="{palette[g]}"/>')
        out.append(
            f'<text x="{size + 26}" y="{ly + 2}" font-family="sans-serif" font-size="12">{_esc(g)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg_heatmap(
    values: np.ndarray,
    row_labels: Sequence,
    col_labels: Sequence,
    title: str = "",
) -> str:
    """SVG heatmap of values in [0, 1]; the legend documents the gray scale
    (black = 0, white = 1)."""
    cell = _HEATMAP_CELL
    vals = np.asarray(values, dtype=np.float64)
    rows, cols = vals.shape
    if rows != len(row_labels) or cols != len(col_labels):
        raise ValueError("label counts do not match the value grid")
    pad_l, pad_t = 60, 50
    width = pad_l + cols * cell + 160
    height = pad_t + rows * cell + 30
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{pad_l}" y="24" font-family="sans-serif" font-size="15">{_esc(title)}</text>')
    for i in range(rows):
        for j in range(cols):
            v = min(1.0, max(0.0, vals[i, j]))
            shade = int(round(255 * v))
            out.append(
                f'<rect x="{pad_l + j * cell}" y="{pad_t + i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})" stroke="#ccc"/>'
            )
    for i, lab in enumerate(row_labels):
        out.append(
            f'<text x="{pad_l - 8}" y="{pad_t + i * cell + cell * 0.62:.0f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_esc(lab)}</text>'
        )
    for j, lab in enumerate(col_labels):
        out.append(
            f'<text x="{pad_l + j * cell + cell / 2:.0f}" y="{pad_t - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_esc(lab)}</text>'
        )
    lx = pad_l + cols * cell + 20
    out.append(
        f'<text x="{lx}" y="{pad_t + 4}" font-family="sans-serif" font-size="11">scale: black=0, white=1</text>'
    )
    for step in range(5):
        shade = int(round(255 * step / 4))
        out.append(
            f'<rect x="{lx + step * 18}" y="{pad_t + 12}" width="18" height="12" '
            f'fill="rgb({shade},{shade},{shade})" stroke="#888"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
