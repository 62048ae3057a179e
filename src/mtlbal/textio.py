"""The one text codec behind every file mtlbal writes or reads back.

Floats are written at 17 significant digits, which round-trips every
float64 exactly; vectors are comma-joined floats. A readable document is a
header line followed by `key = value` lines (blank lines are skipped); a
duplicated key, a key the reader never asks for, and a key it asks for but
does not find are all errors. Every malformed input raises ValueError.
"""

from __future__ import annotations

import numpy as np


def fmt(x) -> str:
    """A float at 17 significant digits; None (no value) is an empty cell."""
    return "" if x is None else f"{float(x):.17g}"


def fmt_vec(values) -> str:
    return ",".join(fmt(v) for v in values)


def parse_vec(text: str, count: int, what: str) -> np.ndarray:
    """Inverse of `fmt_vec`, for a vector `what` that must hold `count` values."""
    values = np.array([float(p) for p in text.split(",")], dtype=np.float64)
    if values.size != count:
        raise ValueError(f"{what!r} has {values.size} values, expected {count}")
    return values


class Fields:
    """The `key = value` lines of a document; each key is read once.

    `get` fails on a missing key, `opt` returns None for one, and `finish`
    fails if a key was never read.
    """

    def __init__(self, lines, header: str, what: str):
        lines = [ln for ln in lines if ln.strip()]
        if not lines or lines[0] != header:
            raise ValueError(f"not a {what} (missing header {header!r})")
        self.what = what
        self.values: dict[str, str] = {}
        for ln in lines[1:]:
            key, sep, value = ln.partition(" = ")
            if not sep:
                raise ValueError(f"malformed {what} line: {ln!r}")
            if key in self.values:
                raise ValueError(f"duplicate {what} key {key!r}")
            self.values[key] = value

    def opt(self, key: str) -> str | None:
        return self.values.pop(key, None)

    def get(self, key: str) -> str:
        value = self.opt(key)
        if value is None:
            raise ValueError(f"{self.what} is missing key {key!r}")
        return value

    def finish(self) -> None:
        if self.values:
            raise ValueError(f"unknown {self.what} keys {sorted(self.values)}")
