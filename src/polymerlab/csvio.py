"""CSV emission with bit-faithful float formatting.

All artifacts use 17 significant digits so that reparsing reproduces the
exact double, and reruns of the same config are byte-identical.

One rule decides a cell's bytes, by the cell's type (`_cell_format`): `%d`
for exact bool and int, `%.17g` for float and its subclasses (np.float64),
`%s` for every other type (np.float32, np.int64, str, tuple, ...).  This
gives nan, +-inf, -0 and ints of any size.  `format_value` applies it to
one cell.  `write_csv` applies it row by row, with one `%` template built
by the first row of a tuple of cell types and reused by later rows of the
same types, and writes the file in one call.  `write_columns` writes named
arrays: the names are the header, the columns are broadcast together and
raveled in C order, and `tolist()` turns their cells into Python ints,
bools and floats.  It hands them to `write_csv` as `_Columns`, so every
artifact is written there.  A bool, int or float column holds one Python
type after `tolist()`, so when every column is one, the first row's
template formats every row of the file without the per-row type lookup;
columns of other dtypes (object, str, datetime, ...) take the row rule.
Either way each cell gets its own type's format.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["format_value", "write_columns", "write_csv"]

# dtype kinds whose `tolist()` gives one Python type per column: bool, int,
# uint and float
_ONE_TYPE_KINDS = "biuf"


def _cell_format(kind: type) -> str:
    if kind is bool or kind is int:
        return "%d"
    return "%.17g" if issubclass(kind, float) else "%s"


def format_value(x) -> str:
    return _cell_format(type(x)) % (x,)


class _Columns:
    """The rows of broadcast columns in C order, as their `tolist()` cells;
    iterating gives the row tuples."""

    def __init__(self, arrays: Sequence[np.ndarray]):
        self.cells = [a.ravel().tolist() for a in arrays]
        self.one_type = all(a.dtype.kind in _ONE_TYPE_KINDS for a in arrays)

    def __iter__(self):
        return zip(*self.cells)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if isinstance(rows, _Columns) and rows.one_type:
        # the first row's types are every row's (no template without rows)
        template = ",".join(_cell_format(type(c[0])) for c in rows.cells if c)
        lines = [template % row for row in rows]
    else:
        templates: dict[tuple, str] = {}
        lines = []
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join(map(_cell_format, kinds))
            lines.append(template % row)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines, ""]))
    return path


def write_columns(path, columns: Mapping[str, object]) -> str:
    return write_csv(path, tuple(columns), _Columns(np.broadcast_arrays(*columns.values())))
