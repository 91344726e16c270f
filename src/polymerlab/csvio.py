"""CSV emission with bit-faithful float formatting.

All artifacts use 17 significant digits so that reparsing reproduces the
exact double, and reruns of the same config are byte-identical.

One rule decides a cell's bytes, by the cell's type (`_cell_format`): `%d`
for exact bool and int, `%.17g` for float and its subclasses (np.float64),
`%s` for every other type (np.float32, np.int64, str, tuple, ...).  This
gives nan, +-inf, -0 and ints of any size.  `format_value` applies it to
one cell.  `write_csv` applies it to each row of an iterable, with one `%`
template per tuple of cell types, cached for the file.

`write_columns` writes named arrays: the names are the header, and the
columns are broadcast together and read in C order.  A cell is what
`tolist()` makes of it: a Python bool, int or float for those dtypes.  It
hands the columns to `write_csv` as `_Columns`, so every artifact is
written there.  When every column is bool, int, uint or float of at most
64 bits, `write_csv` formats them as numpy passes over blocks of
`_BLOCK_ROWS` rows, each block one byte matrix and a keep mask, with the
bytes of the same cell rule:

- ints and bools: the digits of the magnitude by repeated division by 10,
  and a sign;
- floats with 1e-4 <= |x| < 1e17, the range where `%.17g` writes no
  exponent: the 17 significant digits are the exact product of the
  double's 53-bit mantissa and a power of ten, shifted and rounded half to
  even (`_scaled`), then the point goes after the decimal exponent's digit
  and trailing zeros are stripped;
- ±0, ±inf and nan: fixed strings;
- every other float (subnormal, 0 < |x| < 1e-4 or |x| >= 1e17): `format_value`.

Columns of other dtypes (object, str, complex, longdouble, datetime, ...)
and plain iterables of rows take the row rule.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["format_value", "write_columns", "write_csv"]

# rows per numpy block: a block's byte matrix, mask and digit arrays take
# about 170 bytes a row per column (a (u, v, b1, b2) file peaks at 1.3 MiB
# under tracemalloc, whatever its length)
_BLOCK_ROWS = 2048

_ZERO, _COMMA, _NEWLINE = b"0,\n"
# a float slot: the sign, "0.000", then the 17 digits, each but the last
# followed by a point; `_FLOAT_KEEP` picks each cell's bytes from it
_FLOAT_SLOT = np.frombuffer(b"-0.000" + b"0." * 16 + b"0", np.uint8)
# the longest %.17g cell is 24 bytes (-1.2345678901234567e-308)
_FIXED = np.array([b"0", b"-0", b"inf", b"-inf", b"nan"], dtype="S24").view(np.uint8).reshape(5, -1)
_POW5 = np.array([5**q for q in range(21)], dtype=np.uint64)  # 5**20 < 2**47
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _float_keep() -> np.ndarray:
    """The keep mask of a float slot by code ((x10 + 4) * 17 + last) * 2 + neg,
    for a decimal exponent -4 <= x10 <= 16, a last nonzero digit
    0 <= last <= 16 and a sign."""
    x10 = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    keep = np.zeros((21, 17, 2, _FLOAT_SLOT.size), bool)
    keep[..., 0] = neg[..., 0] == 1
    keep[..., 1:6] = np.arange(5) < np.where(x10 < 0, 1 - x10, 0)  # "0." and zeros
    k = np.arange(17)
    keep[..., 6::2] = k <= np.where(x10 < 0, last, np.maximum(last, x10))
    keep[..., 7::2] = (k[:-1] == x10) & (last > x10)  # the point after digit x10 >= 0
    return keep.reshape(-1, _FLOAT_SLOT.size)


_FLOAT_KEEP = _float_keep()


def _cell_format(kind: type) -> str:
    if kind is bool or kind is int:
        return "%d"
    return "%.17g" if issubclass(kind, float) else "%s"


def format_value(x) -> str:
    return _cell_format(type(x)) % (x,)


def _digits(mag: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64 as ASCII, (width, n),
    the most significant first."""
    out = np.empty((width, mag.size), np.uint8)
    for k in range(width - 1, -1, -1):
        q = mag // 10
        out[k] = mag - q * 10
        mag = q
    out += _ZERO
    return out


def _int_width(a: np.ndarray) -> int:
    """The number of digits of the largest magnitude in a bool or int column."""
    return len(str(max(abs(int(a.min())), abs(int(a.max())))))


def _write_ints(cells: list[np.ndarray], slots: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """`%d` of each bool or int cell of the columns `cells`, all in one pass,
    into (bytes, keep) slots of a sign and `_int_width(column)` or more digits."""
    mags, negs = [], []
    for c in cells:
        c = c.astype(np.int64 if c.dtype.kind == "i" else np.uint64)
        neg = c < 0
        mag = c.view(np.uint64)
        mags.append(np.where(neg, -mag, mag))  # two's complement: int64 min gives 2**63
        negs.append(neg)
    width = max(chars.shape[1] - 1 for chars, _ in slots)
    digits = _digits(np.concatenate(mags), width)
    leading = digits == _ZERO
    leading[-1] = False  # 0 keeps its one digit
    first = leading.argmin(axis=0)
    n = cells[0].size
    for i, ((chars, keep), neg) in enumerate(zip(slots, negs)):
        part, w = slice(i * n, (i + 1) * n), chars.shape[1] - 1
        chars[:, 1:] = digits[width - w :, part].T
        keep[:, 0] = neg
        keep[:, 1:] = np.arange(w) >= first[part, None] - (width - w)


def _scaled(m: np.ndarray, e: np.ndarray, x10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and round-half-even of m * 2**e * 10**(16 - x10), exactly,
    where 1e-4 <= m * 2**e < 1e17 is a double and x10 is within one of its
    decimal exponent (so both results are below 10**18)."""
    q = 16 - x10
    f = _POW5[q]
    # m * 5**q < 2**100 as 64-bit words (hi, lo), from 32-bit halves
    ml, mh, fl, fh = m & _LOW32, m >> 32, f & _LOW32, f >> 32
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> 32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (ll & _LOW32) | (mid << 32)
    hi = mh * fh + (lh >> 32) + (hl >> 32) + (mid >> 32)
    # the value is m * 5**q * 2**t; where t >= 0 it is an integer and hi = 0,
    # and where t < 0 the shift s = -t is below 48, so the floor's bits all
    # come from (hi, lo)
    t = e + q
    s = np.maximum(-t, 1).astype(np.uint64)
    floor = (hi << (64 - s)) | (lo >> s)
    rest, half = lo & ((_ONE << s) - _ONE), _ONE << (s - _ONE)
    up = (rest > half) | ((rest == half) & ((floor & _ONE) == _ONE))
    exact = t >= 0
    floor = np.where(exact, lo << np.maximum(t, 0).astype(np.uint64), floor)
    return floor, np.where(exact, floor, floor + up)


def _write_floats(cells: list[np.ndarray], slots: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """`%.17g` of each float cell of the columns `cells`, all in one pass,
    into (bytes, keep) slots laid out as `_FLOAT_SLOT`."""
    # a float16 or float32 cell is its double after tolist()
    x = np.concatenate(cells, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)  # nan is not
    ax = np.where(fast, ax, 1.0)
    bits = ax.view(np.uint64)
    m = (bits & (2**52 - 1)) | 2**52
    e = (bits >> 52).astype(np.int64) - 1075
    # the guess of the decimal exponent stays in the range's [-4, 16]; log10
    # of 1e17 - 16 is 17.0
    x10 = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.int64)
    floor, d = _scaled(m, e, x10)
    wrong = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    while wrong.size:  # log10 can miss by one next to a power of ten
        x10[wrong] += np.where(floor[wrong] < 10**16, -1, 1)
        floor[wrong], d[wrong] = _scaled(m[wrong], e[wrong], x10[wrong])
        wrong = wrong[(floor[wrong] < 10**16) | (floor[wrong] >= 10**17)]
    # d < 10**17: a double below a power of ten is more than half a unit of
    # the 17th digit away from it, because 17 digits tell every double apart
    digits = _digits(d, 17)
    last = 16 - (digits[::-1] != _ZERO).argmax(axis=0)
    code = ((x10 + 4) * 17 + last) * 2 + (x < 0)

    n = cells[0].size
    for i, (chars, keep) in enumerate(slots):
        part = slice(i * n, (i + 1) * n)
        chars[:, 6::2] = digits[:, part].T
        keep[:] = np.take(_FLOAT_KEEP, code[part], axis=0)

    slow = np.flatnonzero(~fast)
    if not slow.size:
        return
    xs = x[slow]
    text = _FIXED[np.where(np.isnan(xs), 4, 2 * np.isinf(xs) + np.signbit(xs))]
    other = np.flatnonzero(np.isfinite(xs) & (xs != 0))
    if other.size:
        fallback = [format_value(v) for v in xs[other].tolist()]
        text[other] = np.array(fallback, dtype="S24").view(np.uint8).reshape(other.size, -1)
    for i, (chars, keep) in enumerate(slots):
        lo, hi = np.searchsorted(slow, (i * n, (i + 1) * n))
        rows = slow[lo:hi] - i * n
        chars[rows, : text.shape[1]] = text[lo:hi]
        keep[rows] = False
        keep[rows, : text.shape[1]] = text[lo:hi] != 0


class _Columns:
    """Broadcast columns read in C order; iterating gives the row tuples of
    their `tolist()` cells."""

    def __init__(self, arrays: Sequence[np.ndarray]):
        self.arrays = arrays
        self.numeric = all(
            a.dtype.kind in "biu" or (a.dtype.kind == "f" and a.dtype.itemsize <= 8) for a in arrays
        )

    def __iter__(self):
        return zip(*(a.ravel().tolist() for a in self.arrays))

    def blocks(self):
        """The file's lines as uint8 arrays, `_BLOCK_ROWS` rows at a time:
        each block is a byte matrix of one slot per column, each slot followed
        by its separator, and a mask of the bytes it keeps."""
        rows = self.arrays[0].size if self.arrays else 0
        if not rows:
            return
        slots = [
            _FLOAT_SLOT if a.dtype.kind == "f" else np.frombuffer(b"-" + b"0" * _int_width(a), np.uint8)
            for a in self.arrays
        ]
        template = np.concatenate([np.append(slot, _COMMA) for slot in slots])
        template[-1] = _NEWLINE
        starts = np.cumsum([0] + [slot.size + 1 for slot in slots]).tolist()
        spans = [slice(start, start + slot.size) for start, slot in zip(starts, slots)]
        floats = [j for j, a in enumerate(self.arrays) if a.dtype.kind == "f"]
        ints = [j for j, a in enumerate(self.arrays) if a.dtype.kind != "f"]
        for start in range(0, rows, _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, rows - start)
            chars = np.empty((n, template.size), np.uint8)
            chars[:] = template
            keep = np.ones(chars.shape, bool)
            cells = [a.flat[start : start + n] for a in self.arrays]
            for write, picked in ((_write_floats, floats), (_write_ints, ints)):
                if picked:
                    out = [(chars[:, spans[j]], keep[:, spans[j]]) for j in picked]
                    write([cells[j] for j in picked], out)
            yield np.compress(keep.ravel(), chars.ravel())


def _row_lines(rows: Iterable[Sequence]) -> str:
    templates: dict[tuple, str] = {}
    lines = []
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(template % row)
    return "\n".join([*lines, ""])


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if isinstance(rows, _Columns) and rows.numeric:
        chunks = rows.blocks()
    else:
        chunks = [_row_lines(rows).encode("utf-8")]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for chunk in chunks:
            fh.write(chunk)
    return path


def write_columns(path, columns: Mapping[str, object]) -> str:
    return write_csv(path, tuple(columns), _Columns(np.broadcast_arrays(*columns.values())))
