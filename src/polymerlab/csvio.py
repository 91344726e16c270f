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
bools and floats.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["format_value", "write_columns", "write_csv"]


def _cell_format(kind: type) -> str:
    if kind is bool or kind is int:
        return "%d"
    return "%.17g" if issubclass(kind, float) else "%s"


def format_value(x) -> str:
    return _cell_format(type(x)) % (x,)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    templates: dict[tuple, str] = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(template % row)
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return path


def write_columns(path, columns: Mapping[str, object]) -> str:
    arrays = np.broadcast_arrays(*columns.values())
    return write_csv(path, tuple(columns), zip(*(a.ravel().tolist() for a in arrays)))
