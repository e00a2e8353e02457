"""Deterministic JSON/CSV emission with 17-significant-digit floats.

The standard json module formats floats with the shortest round-trip
representation, which is stable but under-specified across interpreter
versions; emitting every float through a fixed '%.17g' keeps output
byte-reproducible and exactly round-trippable.

A real 2-d float64 array renders exactly as its nested list would, one
bracketed row per line, but in a single '%'-format pass over the whole
array; state blocks reach the serializer as their (dim, 2) [re, im] views.
A CSV table is passed as columns.  The float64 array columns run '%.17g'
once per distinct bit pattern, since a sweep grid repeats most of its
values, and each cell takes the text of its pattern; a value repeated down
a sequence column can be formatted once with ``csv_cell`` and passed as
text.  Each row is then one ',' join of its cell texts.

Dict keys and str values are escaped by the function json.dumps runs on a str.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["dumps", "csv_text", "csv_cell"]

_INDENT = 2
_FLOAT = "%.17g"


def _non_finite(value) -> ValueError:
    return ValueError(f"non-finite float {value} cannot be serialized to JSON")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _render_rows(arr: np.ndarray, level: int) -> str:
    """A real 2-d array as the JSON of arr.tolist(), formatted in one pass."""
    flat = arr.ravel()
    if not np.isfinite(flat).all():
        raise _non_finite(float(flat[~np.isfinite(flat)][0]))
    rows, cols = arr.shape
    if not rows:
        return "[]"
    row = "[" + ", ".join([_FLOAT] * cols) + "]"
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    template = "[\n" + inner + (",\n" + inner).join([row] * rows) + "\n" + pad + "]"
    return template % tuple(flat.tolist())


def _render(value, level: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _non_finite(value)
        return _FLOAT % value
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64:
        return _render_rows(value, level)
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(str(key))}: {_render(item, level + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        if all(_is_scalar(item) for item in value):
            return "[" + ", ".join(_render(item, level + 1) for item in value) + "]"
        items = [f"{inner}{_render(item, level + 1)}" for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(payload) -> str:
    """Render a payload as deterministic, indented JSON (no trailing newline).

    Besides JSON scalars, lists, tuples and dicts, a payload may hold real 2-d
    float64 arrays; each renders as the list of its rows.
    """
    return _render(payload, 0)


def _cell_format(kind: type) -> str:
    if issubclass(kind, bool):
        raise TypeError("booleans do not belong in CSV output")
    return _FLOAT if issubclass(kind, float) else "%s"


def csv_cell(value) -> str:
    """One cell as csv_text writes it; a row may carry such text as a str cell."""
    return _cell_format(type(value)) % value


def _float_texts(columns: list[np.ndarray]) -> list[list[str]]:
    """The '%.17g' text of each cell of equal-length float64 columns.

    Each distinct bit pattern is formatted once and its text gathered back to
    every cell holding it; 0.0 and -0.0 are distinct patterns, as are NaN payloads.
    """
    stacked = np.stack(columns)
    keys, inverse = np.unique(stacked.view(np.int64), return_inverse=True)
    texts = "\n".join([_FLOAT] * len(keys)) % tuple(keys.view(np.float64).tolist())
    return np.array(texts.split("\n"), dtype=object)[inverse.reshape(stacked.shape)].tolist()


def csv_text(header: list[str], columns: list) -> str:
    """Render equal-length columns under a frozen header (no trailing newline).

    A column is a 1-d float64 array or a sequence of cells.  Floats print as
    '%.17g' (``inf`` as ``inf``), ints and other cells as ``str``, so ints
    stay exact at any size; booleans are refused.
    """
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    texts = list(columns)
    arrays = []
    for index, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            if column.dtype != np.float64 or column.ndim != 1:
                raise TypeError(
                    f"cannot write a {column.dtype} array of shape {column.shape} as a CSV column"
                )
            arrays.append(index)
        elif not set(map(type, column)) <= {str}:  # a str cell is its own text
            texts[index] = list(map(csv_cell, column))
    if arrays:
        for index, column in zip(arrays, _float_texts([columns[index] for index in arrays])):
            texts[index] = column
    return "\n".join([",".join(header), *map(",".join, zip(*texts))])
