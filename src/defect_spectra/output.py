"""Every file the toolkit writes or reads: CSV tables, SVG line plots,
atomic writes, and the one reader of CSV input.

A CSV is written from columns. Each column gets one format from its dtype:
integers as ``%d``, floats as ``%.10g``, anything else (parameter names,
site kinds) as ``%s``. No cell or header the toolkit writes holds a comma,
quote or newline, so no cell is quoted. Every file goes to a temp file in
its target directory and is then renamed into place, so a reader never
sees a partial file and a command repeated with the same seed produces
byte-identical files.
"""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np

from .core import ValidationError

_COLUMN_FORMATS = {"i": "%d", "u": "%d", "f": "%.10g"}


def write_atomic(path: str, text: str):
    """Write text to path via a temp file and rename, never partially."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, columns):
    """Write equal-length columns under a header row; unequal lengths raise
    ValueError before anything is written."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join(_COLUMN_FORMATS.get(c.dtype.kind, "%s") for c in columns)
    rows = map(row.__mod__, zip(*(c.tolist() for c in columns), strict=True))
    write_atomic(path, "\n".join([",".join(header), *rows]) + "\n")


def read_csv(path):
    """(header, rows) of a CSV input, cells stripped, blank and # rows skipped.
    No data rows, or a row unlike the header in width, raise ValidationError."""
    with open(path, newline="") as handle:
        rows = [cells for cells in ([c.strip() for c in row]
                                    for row in csv.reader(handle))
                if any(cells) and not cells[0].startswith("#")]
    if len(rows) < 2:
        raise ValidationError(f"{path} has no data rows")
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise ValidationError(f"row {','.join(row)!r} of {path} must have "
                                  f"exactly {len(rows[0])} columns")
    return rows[0], rows[1:]


def svg_line_plot(x, y, xlabel: str, ylabel: str) -> str:
    """Minimal self-contained SVG polyline plot."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = ml + (x - x0) / (x1 - x0) * pw
    py = mt + (1.0 - (y - y0) / (y1 - y0)) * ph
    pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
    ticks = []
    for i in range(6):
        fx = x0 + (x1 - x0) * i / 5
        cx = ml + pw * i / 5
        ticks.append(f'<line x1="{cx:.1f}" y1="{mt + ph}" x2="{cx:.1f}" '
                     f'y2="{mt + ph + 5}" stroke="black"/>')
        ticks.append(f'<text x="{cx:.1f}" y="{mt + ph + 18}" '
                     f'text-anchor="middle" font-size="11">{fx:.4g}</text>')
        fy = y0 + (y1 - y0) * i / 5
        cy = mt + ph - ph * i / 5
        ticks.append(f'<line x1="{ml - 5}" y1="{cy:.1f}" x2="{ml}" '
                     f'y2="{cy:.1f}" stroke="black"/>')
        ticks.append(f'<text x="{ml - 8}" y="{cy + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{fy:.4g}</text>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black"/>\n'
        + "\n".join(ticks) + "\n"
        + f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" '
          f'font-size="13">{xlabel}</text>\n'
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" '
        f'stroke-width="1.5"/>\n</svg>\n')
