"""`write_columns` formats numeric columns as numpy passes over row blocks;
every cell must still be `format_value` of its `tolist()` cell.

The reference here is the cell rule itself: `format_value` on the cells of
`tolist()`, one row at a time, or `%.17g` on the doubles."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polymerlab.csvio import _BLOCK_ROWS, _Columns, format_value, write_columns, write_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def _expected(columns) -> str:
    arrays = np.broadcast_arrays(*columns.values())
    rows = zip(*(a.ravel().tolist() for a in arrays))
    lines = [",".join(columns), *(",".join(map(format_value, row)) for row in rows)]
    return "".join(line + "\n" for line in lines)


def _written(tmp_path, columns) -> str:
    return Path(write_columns(tmp_path / "c.csv", columns)).read_text()


def _float_lines(tmp_path, x) -> list[str]:
    return _written(tmp_path, {"x": np.asarray(x, dtype=np.float64)}).splitlines()[1:]


DTYPES = {
    "float64": hnp.from_dtype(np.dtype(np.float64), allow_subnormal=True),
    "float32": hnp.from_dtype(np.dtype(np.float32), allow_subnormal=True),
    "float16": hnp.from_dtype(np.dtype(np.float16), allow_subnormal=True),
    "int64": hnp.from_dtype(np.dtype(np.int64)),
    "uint64": hnp.from_dtype(np.dtype(np.uint64)),
    "int8": hnp.from_dtype(np.dtype(np.int8)),
    "bool": hnp.from_dtype(np.dtype(bool)),
}


@st.composite
def column_sets(draw):
    rows = draw(st.integers(0, 40))
    names = draw(st.lists(st.sampled_from(sorted(DTYPES)), min_size=1, max_size=5))
    return {
        f"c{i}": draw(hnp.arrays(np.dtype(name), rows, elements=DTYPES[name]))
        for i, name in enumerate(names)
    }


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(column_sets())
def test_numeric_columns_take_the_cell_rule(tmp_path_factory, columns):
    tmp_path = tmp_path_factory.mktemp("prop")
    assert _written(tmp_path, columns) == _expected(columns)


def _powers_of_ten():
    for k in range(-6, 19):
        x = float(f"1e{k}")
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)):
            yield float(y)
            yield -float(y)


def test_powers_of_ten_and_their_neighbours(tmp_path):
    x = list(_powers_of_ten())
    assert _float_lines(tmp_path, x) == ["%.17g" % v for v in x]
    # both sides of each edge of the numpy range are in the vector
    assert {"9.9999999999999991e-05", "0.0001", "99999999999999984", "1e+17"} <= set(
        _float_lines(tmp_path, x)
    )


@pytest.mark.parametrize(
    "value,text",
    [
        (1000000000000000.25, "1000000000000000.2"),
        (1000000000000000.75, "1000000000000000.8"),
        (123456789012345.625, "123456789012345.62"),
        (-123456789012345.625, "-123456789012345.62"),
        (0.00025, "0.00025000000000000001"),
        (0.5, "0.5"),
        (2.0**56, "72057594037927936"),
        (9.5, "9.5"),
        (0.1, "0.10000000000000001"),
    ],
)
def test_exact_ties_round_half_to_even(tmp_path, value, text):
    assert format_value(value) == text
    assert _float_lines(tmp_path, [value, -value]) == [text, format_value(-value)]


def test_fixed_strings_and_fallback_cells(tmp_path):
    x = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    x += [5e-324, -2.2250738585072009e-308, 1e-5, 1e300, -1e17]
    assert _float_lines(tmp_path, x) == [format_value(v) for v in x]
    assert _float_lines(tmp_path, x)[:6] == ["0", "-0", "inf", "-inf", "nan", "nan"]


def test_int_extremes(tmp_path):
    columns = {
        "i64": np.array([-(2**63), 2**63 - 1, 0, -1, 10, -10], dtype=np.int64),
        "u64": np.array([2**64 - 1, 0, 1, 2**63, 10**19, 9], dtype=np.uint64),
        "i8": np.array([-128, 127, 0, -1, 100, -100], dtype=np.int8),
        "flag": np.array([True, False, True, False, False, True]),
    }
    text = _written(tmp_path, columns)
    assert text == _expected(columns)
    assert "-9223372036854775808,18446744073709551615,-128,1\n" in text


def test_a_longdouble_column_keeps_its_str_cells(tmp_path):
    columns = {"x": np.array([0.1, 1 / 3, -2.5], dtype=np.longdouble), "n": np.arange(3)}
    assert not _Columns(np.broadcast_arrays(*columns.values())).numeric
    text = _written(tmp_path, columns)
    assert text == _expected(columns)
    assert text.splitlines()[1].split(",")[0] == str(np.longdouble(0.1))


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
def test_row_counts_around_the_block(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=rows) * 10.0 ** rng.integers(-6, 18, size=rows)
    x[::7] = 0.0
    columns = {"k": np.arange(rows) - 5, "x": x, "y": x.astype(np.float32)}
    assert _written(tmp_path, columns) == _expected(columns)


def test_the_row_path_writes_the_same_bytes(tmp_path):
    # a generator of the same rows, as a wrapper of write_csv passes them,
    # takes the row rule
    columns = {
        "u": np.arange(50)[:, None],
        "v": np.arange(-3, 3)[None, :],
        "b": np.linspace(-2, 2, 300).reshape(50, 6),
    }
    arrays = _Columns(np.broadcast_arrays(*columns.values()))
    rows = Path(write_csv(tmp_path / "rows.csv", tuple(columns), (row for row in arrays))).read_text()
    assert rows == _written(tmp_path, columns) == _expected(columns)


def test_a_seeded_sweep_of_the_fast_range(tmp_path):
    # 10**6 random bit patterns with exponents over [1e-4, 1e17), in files
    # of 10**5 rows
    rng = np.random.default_rng(3107)
    for _ in range(10):
        mantissa = rng.integers(0, 2**52, 10**5, dtype=np.uint64)
        exponent = rng.integers(1023 - 14, 1023 + 57, 10**5).astype(np.uint64)
        sign = rng.integers(0, 2, 10**5).astype(np.uint64)
        x = ((sign << 63) | (exponent << 52) | mantissa).view(np.float64)
        x = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e17)]
        assert x.size > 9 * 10**4
        want = "x\n" + "".join("%.17g\n" % v for v in x.tolist())
        assert _written(tmp_path, {"x": x}) == want


def test_a_seeded_sweep_of_short_mantissas(tmp_path):
    # integers of 14 to 16 digits plus a dyadic fraction, scaled down: many
    # land exactly half way between two 17-digit decimals
    rng = np.random.default_rng(3108)
    whole = rng.integers(10**13, 10**16, 10**5)
    x = (whole + rng.integers(0, 1024, 10**5) / 1024.0) / 10.0 ** rng.integers(0, 17, 10**5)
    x = x[(x >= 1e-4) & (x < 1e17)]
    want = "x\n" + "".join("%.17g\n" % v for v in x.tolist())
    assert _written(tmp_path, {"x": x}) == want


def _write_peak(tmp_path, rows: int) -> int:
    width = 100
    height = rows // width
    rng = np.random.default_rng(rows)
    columns = {
        "u": np.arange(width)[:, None],
        "v": np.arange(height)[None, :],
        "b1": rng.normal(size=(width, height)),
        "b2": rng.normal(size=(width, height)),
    }
    write_columns(tmp_path / "warm.csv", columns)
    tracemalloc.start()
    try:
        write_columns(tmp_path / "b.csv", columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_write_peaks_by_block_not_by_file(tmp_path):
    small, large = _write_peak(tmp_path, 10**4), _write_peak(tmp_path, 10**5)
    assert large <= 1.1 * small
    # the write formatted every cell as a Python object before
    assert small < 2.6 * 2**20
