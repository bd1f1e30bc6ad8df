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


_POINT = "{:.4f},{:.4f}".format


def _points(x, y) -> str:
    """SVG points attribute: one "x,y" pair per sample, four decimals each."""
    return " ".join(map(_POINT, x.tolist(), y.tolist()))


def _write_svg(path: Path, elements: list[str]) -> Path:
    """One square-canvas SVG document holding the elements, one per line."""
    path, size = Path(path), SVG_SIZE
    path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
                    f'viewBox="0 0 {size} {size}">\n'
                    + "".join(f"  {element}\n" for element in elements) + "</svg>\n",
                    encoding="utf-8")
    return path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")


def write_curves_svg(path: Path, curves: list[np.ndarray], labels: list[str]) -> Path:
    """Closed curves (complex sample arrays), each labelled, on a common square
    canvas; each curve is the polygon through its samples."""
    size = SVG_SIZE
    allpts = np.concatenate([np.asarray(c) for c in curves])
    span = max(np.ptp(allpts.real), np.ptp(allpts.imag)) * 1.15
    cx = (allpts.real.max() + allpts.real.min()) / 2.0
    cy = (allpts.imag.max() + allpts.imag.min()) / 2.0
    scale = size / span

    elements = []
    for i, curve in enumerate(curves):
        z = np.asarray(curve, dtype=complex)
        # y flipped: SVG grows downward
        pts = _points((z.real - cx) * scale + size / 2.0, (cy - z.imag) * scale + size / 2.0)
        color = _PALETTE[i % len(_PALETTE)]
        elements.append(f'<polygon points="{pts}" fill="none" stroke="{color}" '
                        f'stroke-width="1.5"/>')
        elements.append(f'<text x="10" y="{18 * (i + 1)}" fill="{color}" '
                        f'font-size="13" font-family="monospace">{labels[i]}</text>')
    return _write_svg(path, elements)


def write_xy_svg(path: Path, x: np.ndarray, y: np.ndarray,
                 xlabel: str, ylabel: str) -> Path:
    """One polyline with framed axes; enough for branch diagrams."""
    size = SVG_SIZE
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pad = 60
    span_x = np.ptp(x) or 1.0
    span_y = np.ptp(y) or 1.0
    px = pad + (x - x.min()) / span_x * (size - 2 * pad)
    py = size - pad - (y - y.min()) / span_y * (size - 2 * pad)
    label = 'font-size="12" font-family="monospace"'
    return _write_svg(path, [
        f'<rect x="{pad}" y="{pad}" width="{size - 2 * pad}" '
        f'height="{size - 2 * pad}" fill="none" stroke="#888"/>',
        f'<polyline points="{_points(px, py)}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>',
        f'<text x="{pad}" y="{size - pad + 20}" {label}>{format_float(float(x.min()), 6)}</text>',
        f'<text x="{size - pad - 40}" y="{size - pad + 20}" {label}>'
        f'{format_float(float(x.max()), 6)}</text>',
        f'<text x="5" y="{size - pad}" {label}>{format_float(float(y.min()), 6)}</text>',
        f'<text x="5" y="{pad}" {label}>{format_float(float(y.max()), 6)}</text>',
        f'<text x="{size // 2 - 20}" y="{size - 15}" font-size="13" '
        f'font-family="monospace">{xlabel}</text>',
        f'<text x="10" y="{size // 2}" font-size="13" font-family="monospace" '
        f'transform="rotate(-90 14 {size // 2})">{ylabel}</text>',
    ])


def write_residual_csv(path: Path, field) -> Path:
    """ResidualField as (node angle, residual value) rows."""
    return write_csv(path, ["angle", "residual"],
                     zip(field.grid.angles, field.values))


def write_residual_json(path: Path, field) -> Path:
    """ResidualField as its grid size and sine expansion, which is all of the
    field: the grid's mirror w_(-j) = conj(w_j) makes it odd."""
    return write_json(path, {"grid_size": field.grid.size,
                             "sine_coeffs": field.sine_coeffs})
