"""The float and table formatting behind every file mtlbal writes.

Floats are written at 17 significant digits, which round-trips every
float64 exactly; vectors are comma-joined floats. A CSV table is written
from its declared column list by `table_text`. The one document mtlbal
reads back, the config file, is parsed by `harness.parse_config`, its
numbers by `parse_int` and `parse_float`.
"""

from __future__ import annotations

import re

#: The numbers a config holds, in ASCII; blanks may surround them. int() and
#: float() alone also take `_` and non-ASCII digits.
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)", re.A | re.I)


def parse_int(text: str) -> int:
    """An int written `[+-]?[0-9]+`; ValueError, as int() words it, otherwise."""
    if not _INT.fullmatch(text.strip(" \t")):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A float in decimal or exponent form, inf or nan; ValueError, as float() words it, otherwise."""
    if not _FLOAT.fullmatch(text.strip(" \t")):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def fmt(x) -> str:
    """A float at 17 significant digits; None (no value) is an empty cell."""
    return "" if x is None else f"{float(x):.17g}"


def fmt_vec(values) -> str:
    return ",".join(fmt(v) for v in values)


def table_text(columns, task_names, rows) -> str:
    """The one CSV writer. A column name holding `{}` is one column per task,
    in task order, and each row maps every column name to its value."""
    header = [name.format(t) for name in columns for t in (task_names if "{}" in name else [""])]
    lines = [header] + [[_cell(row[name], "{}" in name) for name in columns] for row in rows]
    return "\n".join(",".join(cells) for cells in lines) + "\n"


def _cell(value, per_task: bool) -> str:
    """A per-task vector by `fmt_vec`, a str or int by `str`, else `fmt`."""
    if per_task:
        return fmt_vec(value)
    return str(value) if isinstance(value, (str, int)) else fmt(value)
