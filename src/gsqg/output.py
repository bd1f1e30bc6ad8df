"""Deterministic CSV / JSON / SVG emission.

Identical inputs must produce byte-identical files: JSON comes from the
stdlib encoder, whose floats are the shortest text that reads back as the
same double; CSV floats keep 12 significant digits for readability;
dictionaries keep insertion order, and nothing time- or host-dependent is
ever written.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CSV_SIG = 12
SVG_SIZE = 640     # square canvas side, in pixels


def format_float(x: float, sig: int) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        raise ValueError("refusing to serialize non-finite float")
    return f"{x:.{sig}g}"


def _plain(obj):
    """numpy arrays and scalars as lists and Python numbers, for the encoder."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_dumps(obj) -> str:
    return json.dumps(obj, allow_nan=False, default=_plain)


def write_json(path: Path, obj) -> Path:
    path = Path(path)
    path.write_text(json_dumps(obj) + "\n", encoding="utf-8")
    return path


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Rows of cells under header; a None cell is left empty."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell), CSV_SIG))
            else:
                cells.append("" if cell is None else str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_jsonl(path: Path, records) -> Path:
    path = Path(path)
    path.write_text("".join(json_dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# SVG


_SEGMENT = "C {:.4f} {:.4f} {:.4f} {:.4f} {:.4f} {:.4f}".format


def _bezier_path(points: np.ndarray) -> str:
    """Closed cubic-segment path through the sample points (Catmull-Rom)."""
    z = np.asarray(points, dtype=complex)
    prev = np.roll(z, 1)
    nxt = np.roll(z, -1)
    nxt2 = np.roll(z, -2)
    c1 = z + (nxt - prev) / 6.0
    c2 = nxt - (nxt2 - z) / 6.0
    rows = np.column_stack([c1.real, c1.imag, c2.real, c2.imag, nxt.real, nxt.imag])
    return " ".join([f"M {z[0].real:.4f} {z[0].imag:.4f}",
                     *(_SEGMENT(*row) for row in rows.tolist()), "Z"])


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")


def write_curves_svg(path: Path, curves: list[np.ndarray], labels: list[str]) -> Path:
    """Closed curves (complex sample arrays), each labelled, on a common square canvas."""
    path, size = Path(path), SVG_SIZE
    allpts = np.concatenate([np.asarray(c) for c in curves])
    span = max(np.ptp(allpts.real), np.ptp(allpts.imag)) * 1.15
    cx = (allpts.real.max() + allpts.real.min()) / 2.0
    cy = (allpts.imag.max() + allpts.imag.min()) / 2.0
    scale = size / span

    def to_canvas(z):
        # y flipped: SVG grows downward
        return (z.real - cx) * scale + size / 2.0 \
            + 1j * ((cy - z.imag) * scale + size / 2.0)

    body = []
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        d = _bezier_path(to_canvas(np.asarray(curve, dtype=complex)))
        body.append(f'  <path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(f'  <text x="10" y="{18 * (i + 1)}" fill="{color}" '
                    f'font-size="13" font-family="monospace">{labels[i]}</text>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">\n' + "\n".join(body) + "\n</svg>\n")
    path.write_text(svg, encoding="utf-8")
    return path


def write_xy_svg(path: Path, x: np.ndarray, y: np.ndarray,
                 xlabel: str, ylabel: str) -> Path:
    """One polyline with framed axes; enough for branch diagrams."""
    path, size = Path(path), SVG_SIZE
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pad = 60
    span_x = np.ptp(x) or 1.0
    span_y = np.ptp(y) or 1.0
    px = pad + (x - x.min()) / span_x * (size - 2 * pad)
    py = size - pad - (y - y.min()) / span_y * (size - 2 * pad)
    pts = " ".join(f"{a:.4f},{b:.4f}" for a, b in zip(px.tolist(), py.tolist()))
    ticks = (f'  <text x="{pad}" y="{size - pad + 20}" font-size="12" '
             f'font-family="monospace">{format_float(float(x.min()), 6)}</text>\n'
             f'  <text x="{size - pad - 40}" y="{size - pad + 20}" font-size="12" '
             f'font-family="monospace">{format_float(float(x.max()), 6)}</text>\n'
             f'  <text x="5" y="{size - pad}" font-size="12" '
             f'font-family="monospace">{format_float(float(y.min()), 6)}</text>\n'
             f'  <text x="5" y="{pad}" font-size="12" '
             f'font-family="monospace">{format_float(float(y.max()), 6)}</text>\n')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">\n'
           f'  <rect x="{pad}" y="{pad}" width="{size - 2 * pad}" '
           f'height="{size - 2 * pad}" fill="none" stroke="#888"/>\n'
           f'  <polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
           f'{ticks}'
           f'  <text x="{size // 2 - 20}" y="{size - 15}" font-size="13" '
           f'font-family="monospace">{xlabel}</text>\n'
           f'  <text x="10" y="{size // 2}" font-size="13" '
           f'font-family="monospace" transform="rotate(-90 14 {size // 2})">{ylabel}</text>\n'
           f'</svg>\n')
    path.write_text(svg, encoding="utf-8")
    return path


def write_residual_csv(path: Path, field) -> Path:
    """ResidualField as (node angle, residual value) rows."""
    return write_csv(path, ["angle", "residual"],
                     zip(field.grid.angles, field.values))


def write_residual_json(path: Path, field) -> Path:
    """ResidualField as its sine expansion plus grid metadata."""
    return write_json(path, {"grid_size": field.grid.size,
                             "grid_shift": field.grid.shift,
                             "cosine_residue": field.cosine_residue,
                             "sine_coeffs": field.sine_coeffs})
