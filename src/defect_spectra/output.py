"""Every file the toolkit writes or reads: text tables, SVG line plots,
atomic writes, and the one reader of CSV input.

One block writer, ``write_csv``, writes every text table (CSV and XYZ): a
header, then tables one after another, each of columns. The path's
extension picks the separator and the float format: a space and ``%.6f``
for ``.xyz``, a comma and ``%.10g`` for any other name. Each column gets
one format from its dtype: integers as ``%d``, floats as that float
format, anything else (names, kinds, elements) as ``%s``. No
cell or header the toolkit writes holds a comma, quote or newline, so no
cell is quoted. Rows are formatted and written in blocks of ``CSV_BLOCK``
(1024) rows, so the memory a write takes does not grow with the file: a
block of eight columns of ``%.10g`` floats peaks at about 0.5 MB. A
block is one ``%``: the row format repeated once per row, applied to the
block's cells interleaved row by row. A column whose every cell has the
first cell's bits (floats compared as unsigned integers of their size, so
``-0.0`` stays apart from ``0.0``; integers and strings by value) is
formatted once per table, and its text is a literal of the row format, so
the bytes are those of the per-cell format.
Every file goes to a temp file in its target directory, is given the mode
a plain ``open(path, "w")`` would give, and is then renamed into place, so
a reader never sees a partial file and a command repeated with the same
seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np

from .core import ValidationError

_COLUMN_FORMATS = {"i": "%d", "u": "%d"}
# Rows per block of a CSV write: each block's cells are converted, formatted
# and written before the next is touched.
CSV_BLOCK = 1024


def write_atomic(path: str, text):
    """Write ``text``, a string or an iterable of strings, to path via a
    temp file and rename, never partially."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _constant_text(column, fmt):
    """The text of every cell of a non-empty ``column`` whose cells all have
    the first cell's bits, with ``%`` escaped; None for any other column."""
    kind = column.dtype.kind
    if kind == "f" and column.itemsize in (2, 4, 8):
        bits = column.view(f"u{column.itemsize}")
    elif kind in "iuUS":
        bits = column
    else:
        return None
    if not len(bits) or bits[0] != bits[-1] or (bits != bits[0]).any():
        return None
    return (fmt % column[0].item()).replace("%", "%%")


def write_csv(path: str, header, *tables):
    """Write ``tables``, each a list of equal-length columns, one after
    another under ``header``: a row of one name per column, or text written
    as it stands. The separator and float format follow the extension of
    ``path``. Unequal lengths in a table or a header row of another width
    raise ValueError and leave no file."""
    sep, float_format = ((" ", "%.6f") if os.path.splitext(path)[1] == ".xyz"
                         else (",", "%.10g"))
    formats = {**_COLUMN_FORMATS, "f": float_format}

    def blocks():
        yield header if isinstance(header, str) else sep.join(header) + "\n"
        for columns in tables:
            columns = [np.asarray(column) for column in columns]
            n_rows = {len(column) for column in columns}
            if len(n_rows) > 1:
                raise ValueError(f"columns of {path} have unequal lengths "
                                 f"{sorted(n_rows)}")
            if not isinstance(header, str) and len(header) != len(columns):
                raise ValueError(f"header of {path} names {len(header)} "
                                 f"columns, not {len(columns)}")
            fmts = [formats.get(c.dtype.kind, "%s") for c in columns]
            texts = [_constant_text(c, f) for c, f in zip(columns, fmts)]
            row = sep.join(f if text is None else text
                           for f, text in zip(fmts, texts)) + "\n"
            varying = [c for c, text in zip(columns, texts) if text is None]
            width, n = len(varying), max(n_rows, default=0)
            for start in range(0, n, CSV_BLOCK):
                stop = min(start + CSV_BLOCK, n)
                cells = [None] * (width * (stop - start))
                for k, column in enumerate(varying):
                    cells[k::width] = column[start:stop].tolist()
                yield row * (stop - start) % tuple(cells)

    write_atomic(path, blocks())


def read_csv(path):
    """(header, rows) of a CSV input, cells stripped, blank and # rows skipped.
    Undecodable bytes, a cell over the csv module's field limit, no data
    rows, or a row unlike the header in width raise ValidationError."""
    try:
        with open(path, newline="") as handle:
            rows = [cells for cells in ([c.strip() for c in row]
                                        for row in csv.reader(handle))
                    if any(cells) and not cells[0].startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read CSV file {path}: {exc}") from None
    if len(rows) < 2:
        raise ValidationError(f"{path} has no data rows")
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise ValidationError(f"row {','.join(row)!r} of {path} must have "
                                  f"exactly {len(rows[0])} columns")
    return rows[0], rows[1:]


def _column_extremes(column, y):
    """Indices, in order, of the first, lowest, highest and last point of
    each run of consecutive points in one pixel ``column``. A polyline
    through them draws the same line at the plot's resolution as one
    through every point (the M4 aggregation of Jugel et al., PVLDB 7, 797,
    2014)."""
    new_run = np.r_[True, column[1:] != column[:-1]]
    starts = np.flatnonzero(new_run)
    ends = np.r_[starts[1:], len(column)] - 1
    by_height = np.lexsort((y, np.cumsum(new_run)))
    keep = np.zeros(len(column), dtype=bool)
    keep[np.concatenate((starts, ends, by_height[starts],
                         by_height[ends]))] = True
    return np.flatnonzero(keep)


def svg_line_plot(x, y, xlabel: str, ylabel: str) -> str:
    """Minimal self-contained SVG polyline plot.

    A curve of more than four points per pixel column of the plot area
    is drawn through the first, lowest, highest and last point of each
    column."""
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
    if len(x) > 4 * pw:
        column = np.minimum((x - x0) / (x1 - x0) * pw, pw - 1).astype(int)
        kept = _column_extremes(column, y)
        x, y = x[kept], y[kept]
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
