"""CSV emission with bit-faithful float formatting.

All artifacts use 17 significant digits so that reparsing reproduces the
exact double, and reruns of the same config are byte-identical.

`format_value` is the formatting rule for one cell.  `write_csv` formats
each row with one `%` template, built by the first row of its tuple of cell
types and reused by later rows of the same types: `%d` for exact bool and
int, `%.17g` for float and its subclasses (np.float64), `%s` for every
other type (np.float32, np.int64, str, ...).  These give `format_value`'s
bytes, including nan, +-inf, -0.0 and ints of any size.  The file is
written in one call.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

__all__ = ["format_value", "write_csv"]


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _cell_format(kind: type) -> str:
    if kind is bool or kind is int:
        return "%d"
    return "%.17g" if issubclass(kind, float) else "%s"


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
