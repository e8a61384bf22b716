import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _reference(header, columns):
    """The CSV text of ``columns`` formatted cell by cell with ``_cell``,
    strings as they are."""
    lists = [np.asarray(c).tolist() for c in columns]
    return ",".join(header) + "\n" + "".join(
        ",".join(v if isinstance(v, str) else _cell(v) for v in cells) + "\n"
        for cells in zip(*lists))


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


@pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
def test_write_csv_header_of_another_width_raises(tmp_path, header):
    with pytest.raises(ValueError, match="header"):
        write_csv(str(tmp_path / "t.csv"), header,
                  [np.arange(2), np.arange(2)])
    assert not list(tmp_path.iterdir())


_KINDS = st.sampled_from(["int", "float", "str"])
_VALUES = {
    "int": st.integers(-2**63, 2**63 - 1),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "str": st.text(alphabet="ab%sd -", max_size=4),
}


def _varying(kind, n, rng):
    """n cells of one kind drawn from a small pool, so runs and repeats
    of one value are common."""
    if kind == "int":
        return rng.integers(-2**62, 2**62, 3)[rng.integers(0, 3, n)]
    if kind == "float":
        pool = np.array(EDGE_FLOATS + [float(rng.standard_normal())])
        return pool[rng.integers(0, len(pool), n)]
    return np.array(["%", "a%s", "%d%%", "b", ""])[rng.integers(0, 5, n)]


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 2 * CSV_BLOCK + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(_KINDS)
        if draw(st.booleans()):
            value = draw(_VALUES[kind])
            dtype = {"int": np.int64, "float": np.float64}.get(kind)
            columns.append(np.full(n, value, dtype=dtype))
        else:
            columns.append(_varying(kind, n, rng))
    return columns


@settings(max_examples=40, deadline=None)
@given(_tables())
def test_write_csv_constant_and_varying_columns_match_per_cell_format(
        tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(str(path), header, columns)
    assert path.read_bytes() == _reference(header, columns).encode()


@pytest.mark.parametrize("columns, text", [
    ([np.full(3, -0.0)], "-0\n-0\n-0\n"),
    # first and last cells agree, the middle one differs in its sign bit
    ([np.array([0.0, -0.0, 0.0])], "0\n-0\n0\n"),
    ([np.full(3, np.nan)], "nan\nnan\nnan\n"),
    ([np.array([np.nan, -np.nan, np.nan])], "nan\nnan\nnan\n"),
    ([np.array([7, 8, 7]), np.array(["a%", "b", "a%"])],
     "7,a%\n8,b\n7,a%\n"),
    ([np.array([3]), np.array([2.5]), np.array(["%s"])], "3,2.5,%s\n"),
], ids=["all-negative-zero", "mixed-zeros", "all-nan", "mixed-sign-nans",
        "int-and-str-ends-equal", "one-row"])
def test_write_csv_constant_column_cases(tmp_path, columns, text):
    path = tmp_path / "t.csv"
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(str(path), header, columns)
    assert path.read_bytes() == (",".join(header) + "\n" + text).encode()
    assert path.read_bytes() == _reference(header, columns).encode()


def test_write_csv_all_constant_columns_over_several_blocks(tmp_path):
    n = 2 * CSV_BLOCK + 1
    path = tmp_path / "t.csv"
    write_csv(str(path), ["i", "x", "z", "s"],
              [np.full(n, -4), np.full(n, 1.0 / 3.0), np.full(n, -0.0),
               np.full(n, "50%")])
    assert path.read_bytes() == (b"i,x,z,s\n"
                                 + b"-4,0.3333333333,-0,50%\n" * n)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_csv(str(tmp_path / "t.csv"), ["a"], [np.arange(3)])
        write_atomic(str(tmp_path / "t.svg"), "<svg/>\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    for name in ("t.csv", "t.svg", "plain.txt"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                               CSV_BLOCK + 1, 4 * CSV_BLOCK - 1,
                               4 * CSV_BLOCK, 4 * CSV_BLOCK + 1])
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
    # one block of CSV_BLOCK rows: 1024-row blocks peak at 1/32 of this
    # 6.3 MB file, 4096-row blocks at 1/8
    assert peak < path.stat().st_size / 24


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
