import os
import tracemalloc

import numpy as np
import pytest

from defect_spectra.output import (
    CSV_BLOCK,
    svg_line_plot,
    write_atomic,
    write_csv,
)

EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
               -1e300, 1e-300, -1e-300, 1.0, 1.0 / 3.0, 123456789012.5,
               2.5e-7]


def _cell(value):
    """Per-cell reference format: integers in full, floats as %.10g."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10g}"


def test_write_csv_matches_per_cell_format(tmp_path):
    rng = np.random.default_rng(0)
    n_random = 2000
    floats = np.concatenate([
        EDGE_FLOATS,
        rng.standard_normal(n_random) * 10.0 ** rng.integers(-300, 300,
                                                             n_random)])
    n = len(floats)
    numpy_ints = np.arange(n, dtype=np.int64) - 7
    python_ints = [int(v) for v in rng.integers(-2**62, 2**62, n)]
    strings = [f"site-{i}" for i in range(n)]
    path = tmp_path / "t.csv"
    write_csv(str(path), ["i", "big", "x", "kind"],
              [numpy_ints, python_ints, floats, strings])
    expected = "i,big,x,kind\n" + "".join(
        f"{_cell(a)},{_cell(b)},{_cell(x)},{s}\n"
        for a, b, x, s in zip(numpy_ints, python_ints, floats, strings))
    assert path.read_bytes() == expected.encode()


def test_write_csv_percent_in_cells_and_header(tmp_path):
    # the row format is applied to the cells, never to their text
    path = tmp_path / "t.csv"
    write_csv(str(path), ["share%", "%d", "x"],
              [["50%", "%s", "%%"], np.arange(3), np.array([0.5, 1.0, 2.5])])
    assert path.read_bytes() == (b"share%,%d,x\n50%,0,0.5\n%s,1,1\n"
                                 b"%%,2,2.5\n")


def test_write_csv_unequal_columns_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                  [np.arange(3), np.arange(4.0)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                               CSV_BLOCK + 1])
def test_write_csv_block_boundaries(tmp_path, n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-2**62, 2**62, n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    strings = [f"site-{i}" for i in range(n)]
    path = tmp_path / "t.csv"
    write_csv(str(path), ["i", "x", "kind"], [ints, floats, strings])
    expected = "i,x,kind\n" + "".join(
        f"{_cell(a)},{_cell(x)},{s}\n" for a, x, s in zip(ints, floats,
                                                          strings))
    assert path.read_bytes() == expected.encode()


def test_write_csv_memory_does_not_grow_with_the_file(tmp_path):
    n = 200_000
    rng = np.random.default_rng(3)
    columns = [np.arange(n), rng.standard_normal(n), rng.uniform(0, 1e3, n)]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), ["i", "x", "y"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_write_atomic_failing_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,contents\n1,2\n")

    def blocks():
        yield "a,b\n" + "1,2\n" * CSV_BLOCK
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        write_atomic(str(path), blocks())
    assert path.read_bytes() == b"old,contents\n1,2\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def _polyline(x, y, drawn):
    """Reference polyline text through the points ``drawn`` of (x, y), in
    svg_line_plot's 710 x 430 px plot area at offset (70, 20)."""
    px = 70 + (x - x.min()) / (x.max() - x.min()) * 710
    py = 20 + (1.0 - (y - y.min()) / (y.max() - y.min())) * 430
    points = " ".join(f"{px[i]:.2f},{py[i]:.2f}" for i in drawn)
    return f'<polyline points="{points}"'


def test_svg_polyline_matches_per_point_format():
    # at the cap of four points per pixel column every point is drawn
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(0.0, 100.0, 4 * 710))
    y = rng.standard_normal(4 * 710)
    assert _polyline(x, y, range(len(x))) in svg_line_plot(x, y, "x", "y")


def test_svg_polyline_keeps_four_points_per_column():
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0.0, 100.0, 40_000))
    y = rng.standard_normal(40_000)
    columns = {}
    for i, col in enumerate(np.minimum((x - x.min()) / (x.max() - x.min())
                                       * 710, 709).astype(int)):
        columns.setdefault(col, []).append(i)
    # first, lowest, highest and last point of each column, in order
    drawn = sorted({k for idx in columns.values()
                    for k in (idx[0], min(idx, key=lambda i: y[i]),
                              max(idx, key=lambda i: y[i]), idx[-1])})
    assert len(columns) == 710 and 3 * 710 < len(drawn) <= 4 * 710
    assert _polyline(x, y, drawn) in svg_line_plot(x, y, "x", "y")
