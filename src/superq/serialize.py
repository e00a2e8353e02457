"""Deterministic JSON/CSV emission with 17-significant-digit floats.

The standard json module formats floats with the shortest round-trip
representation, which is stable but under-specified across interpreter
versions; emitting every float through a fixed '%.17g' keeps output
byte-reproducible and exactly round-trippable.

A real 2-d float64 array renders exactly as its nested list would, one
bracketed row per line; state blocks reach the serializer as their (dim, 2)
[re, im] views.  ``dumps`` gathers the values of every such array in a
payload and formats them in one ``_float17_join`` pass, which lays out each
value's text and the ', ' or row break after it.  A CSV table is passed as
columns.  The float64 array columns are formatted once per distinct bit
pattern, through the same pass, since a sweep grid repeats most of its
values, and each cell takes the text of its pattern; a value repeated down a
sequence column can be formatted once with ``csv_cell`` and passed as text.
Each row is then one ',' join of its cell texts.

``_float17_join`` gives each element of a finite float64 array the text
'%.17g' gives it.  Below ``_KERNEL_MIN`` nonzero values it is one CPython
'%' per array over its repeated row template; when more than half the values
are 0, as at a state's high levels, the zeros are written in the template
as '0' and '-0' and '%' formats only the others.  From there on the nonzero
values go through one vectorized kernel: an exact power-of-two scaling and
a double-double power of ten (Dekker's error-free product) give each
value's 17-digit integer, whose text is laid out from 4-digit tables in
byte matrices, beside the zeros' texts.  A value whose 17th digit may be a
tie, or whose decimal exponent the log10 estimate may have missed, goes
back to '%' (approximate, verify, fall back, as Loitsch's integer printing
does), so the kernel's text is the text of '%' itself.  Scalars are
formatted by '%'.

Dict keys and str values are escaped by the function json.dumps runs on a str.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["dumps", "csv_text", "csv_cell"]

_INDENT = 2
_FLOAT = "%.17g"
# An array's place in a rendered document until its rows are formatted, and
# the end of its rows in the kernel's text; no other text holds a NUL, since
# JSON escapes every control character.
_SLOT = "\0"

# The measured crossover: below this many nonzero values one '%' pass is
# faster than the kernel's fixed cost (coherent payloads inside cli.main:
# '%' faster at 256 values, the kernel at 288 and beyond).
_KERNEL_MIN = 288

# The kernel's decimal exponents k = floor(log10 |x|) of the finite doubles.
_LOW_K, _HIGH_K = -324, 308
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# A text is the kept cells of its source row, in order: sign, the '0.000'
# before a small fraction, the digits before the point, the point, the
# digits after it, 'e+-' and three exponent digits, or else '%.17g' itself;
# then the cells of the separators that follow the texts.
_SOURCE = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+-000" + _FLOAT.encode()
_WHOLE, _FRACTION, _POWER = 6, 24, 44
# The decimal exponents in fixed notation, then e-XX, e-XXX, e+XX, e+XXX.
_EXPONENT_CLASSES = np.array([*range(-4, 17), -5, -100, 17, 100])
# The code of 0 and -0 (exponent 0, one digit), and of a value left to '%'.
_ZERO = 4 * 17
_NEGATIVE_ZERO = _ZERO + len(_EXPONENT_CLASSES) * 17
_PERCENT = 2 * len(_EXPONENT_CLASSES) * 17
# Where each 4-digit group of the last 16 digits starts.
_GROUP_STARTS = np.array([1, 5, 9, 13], np.int8)


def _non_finite(value) -> ValueError:
    return ValueError(f"non-finite float {value} cannot be serialized to JSON")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _percent(template: str, values: list[float]) -> str:
    """The template with each '%.17g' in it filled from values, by CPython's '%'."""
    return template % tuple(values)


def _layouts() -> np.ndarray:
    """Which _SOURCE cells the text of each (sign, exponent class, digits) code keeps.

    Rows run over the sign, then the exponent class, then the significant
    digits left after stripping trailing zeros (1 to 17); the last row,
    _PERCENT, keeps '%.17g'.
    """
    negative = np.array([False, True]).reshape(2, 1, 1, 1)
    x = _EXPONENT_CLASSES.reshape(1, -1, 1, 1)
    digits = np.arange(1, 18).reshape(1, 1, -1, 1)
    places = np.arange(17)
    scientific = (x < -4) | (x >= 17)
    small = (x < 0) & ~scientific
    # how many digits stand before the point: 1 in scientific notation, none below 1
    point = np.where(scientific, 1, np.where(small, 0, x + 1))
    cells = [
        negative,
        small & (np.arange(5) < 1 - x),
        places < point,
        (digits > point) & ~small,
        (places >= point) & (places < digits),
        scientific,
        scientific & (x > 0),
        scientific & (x < 0),
        scientific & (abs(x) >= 100),
        scientific,
        scientific,
        np.zeros((1, 1, 1, len(_FLOAT)), bool),
    ]
    shape = (2, len(_EXPONENT_CLASSES), 17)
    keep = np.concatenate([np.broadcast_to(cell, (*shape, cell.shape[-1])) for cell in cells], axis=-1)
    percent = np.zeros(len(_SOURCE), bool)
    percent[-len(_FLOAT) :] = True
    return np.vstack([keep.reshape(-1, len(_SOURCE)), percent])


@functools.cache
def _kernel_tables():
    """The kernel's tables, built exactly from integers on its first call.

    powers: (hi, lo) with 10**(16 - k) = (hi + lo) * 2**shift, hi in [1, 2],
        and hi's two Veltkamp halves, one column per k; shifts: those shifts.
    quads: the ASCII text of 0..9999 as 4-digit uint32 words; significant:
        the digits of each word left after stripping trailing zeros (a
        negative number for 0000).
    classes: 17 times the exponent class of each k, the start of its codes;
    layouts: the kept cells of each code (``_layouts``).
    """
    mantissas, shifts = [], []
    for power in range(16 - _LOW_K, 15 - _HIGH_K, -1):
        # 10**power = 5**power * 2**power, with 120 bits of 5**power kept
        if power >= 0:
            five = 5**power
            bits = 120 - five.bit_length()
            mantissas.append(five << bits if bits >= 0 else five >> -bits)
            shifts.append(power - bits + 119)
        else:
            five = 5**-power
            mantissas.append((1 << (five.bit_length() + 119)) // five)
            shifts.append(power - five.bit_length())
    heads = [float(mantissa) for mantissa in mantissas]
    hi = np.ldexp(heads, -119)
    lo = np.ldexp([float(mantissa - int(head)) for mantissa, head in zip(mantissas, heads)], -119)
    veltkamp = hi * _VELTKAMP
    hi_head = veltkamp - (veltkamp - hi)
    # the 4-digit texts of 0..9999 in order are every choice of 4 digits
    quads = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    significant = (4 - np.argmax(quads[:, ::-1] != 48, axis=1)).astype(np.int8)
    significant[0] = -17  # 0000
    # e-XXX, e-XX, the fixed-notation exponents -4..16, e+XX, e+XXX, as in _EXPONENT_CLASSES
    classes = [22 if k <= -100 else 21 if k < -4 else k + 4 if k < 17 else 23 if k < 100 else 24 for k in range(_LOW_K, _HIGH_K + 1)]
    return (
        np.stack([hi, lo, hi_head, hi - hi_head]),
        np.array(shifts, np.int32),
        quads.view(np.uint32).ravel(),
        significant,
        np.array(classes) * 17,
        _layouts(),
    )


@functools.cache
def _whole_rows(width: int) -> np.ndarray:
    """The kernel's layouts as whole source rows of width cells, the separators' cells False.

    take into a column slice of a row matrix gathers into a hidden copy of
    that slice, so ``_kernel_join`` takes whole rows from this table and
    writes the separators' cells over them.
    """
    layouts = _kernel_tables()[-1]
    rows = np.zeros((len(layouts), width), bool)
    rows[:, : len(_SOURCE)] = layouts
    rows.setflags(write=False)
    return rows


def _scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k - _LOW_K, and |x| * 10**(16 - k) as big + small, of each nonzero finite value.

    k = floor(log10 |x|) is estimated; big is an integer when k is right.
    Each full-length temporary is dropped once it has been read and the sums
    accumulate in place, so about eight arrays of the values' length are
    alive at once.
    """
    powers, shifts = _kernel_tables()[:2]
    hi, lo, hi_head, hi_tail = powers
    magnitudes = np.abs(values)
    # |x| = f * 2**e exactly
    f, e = np.frexp(magnitudes)
    k = np.log10(magnitudes)
    del magnitudes
    k = np.floor(k, out=k).astype(np.intp)
    k -= _LOW_K
    e += shifts.take(k)
    # Dekker's two-product f * hi = head + tail, then f * lo: tail is
    # ((f_head hi_head - head) + f_head hi_tail + f_tail hi_head) + f_tail hi_tail + f lo,
    # added left to right
    head = hi.take(k)
    head *= f
    f_head = f * _VELTKAMP
    f_head -= f_head - f
    f_tail = f - f_head
    tail = hi_head.take(k)
    tail *= f_head
    tail -= head
    term = np.empty_like(f)
    for row, factor in ((hi_tail, f_head), (hi_head, f_tail), (hi_tail, f_tail), (lo, f)):
        # 'clip' lets take write straight into term; every k is in range
        row.take(k, out=term, mode="clip")
        term *= factor
        tail += term
    del f, f_head, f_tail, factor, term
    big = head + tail
    # small = tail - (big - head), written over tail
    tail -= np.subtract(big, head, out=head)
    del head
    return k, np.ldexp(big, e, out=big), np.ldexp(tail, e, out=tail)


def _kernel_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout code, 17 ASCII digits and 3 ASCII exponent digits of each nonzero finite value.

    A value whose 17th digit may be a tie, or whose decimal exponent the
    log10 estimate may have missed, gets the code _PERCENT.  Like
    ``_scaled``, it drops each full-length temporary once it has been read.
    """
    quads, significant, classes = _kernel_tables()[2:5]
    count = len(values)
    k, big, small = _scaled(values)
    nearest = np.rint(small)
    # |(small - nearest)| - 0.5|, written over small: how far the 17th digit is from a tie
    small -= nearest
    np.abs(small, out=small)
    small -= 0.5
    fallback = np.abs(small, out=small) < 2.0**-30
    del small
    fallback |= big < 1e16 + 16
    fallback |= big >= 1e17 - 16
    integer = big.astype(np.int64)
    del big
    integer += nearest.astype(np.int64)
    del nearest
    integer[fallback] = 0
    # a leading digit and four 4-digit groups
    upper, integer = np.divmod(integer, 10**8, out=(np.empty_like(integer), integer))
    lead, upper = np.divmod(upper, 10**8, out=(np.empty_like(upper), upper))
    groups = np.empty((count, 4), np.int64)
    np.divmod(upper, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(integer, 10**4, out=(groups[:, 2], groups[:, 3]))
    del upper, integer
    ends = significant.take(groups)
    ends += _GROUP_STARTS
    kept = np.maximum(np.maximum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 2], ends[:, 3]))
    del ends
    code = classes.take(k)
    code += np.maximum(kept, 1)
    code -= 1
    code[np.signbit(values)] += _PERCENT // 2
    code[fallback] = _PERCENT
    digits = np.empty((count, 17), np.uint8)
    digits[:, 0] = lead + 48
    digits[:, 1:] = quads.take(groups).view(np.uint8)
    del groups
    k += _LOW_K
    exponents = quads.take(np.abs(k, out=k)).view(np.uint8).reshape(count, 4)[:, 1:]
    return code, digits, exponents


def _template(flat: np.ndarray, cols: int, between: str, others: np.ndarray | None) -> tuple[str, list[float]]:
    """A block's rows as a '%' template, and the values that fill it.

    With others, the indices of the values whose bits are not all zero, each
    0 is written in the template as '0' and each -0 as '-0', and only the
    nonzero values fill it.
    """
    rows = len(flat) // cols
    if others is None:
        return between.join([", ".join([_FLOAT] * cols)] * rows), flat.tolist()
    text = between.join([", ".join("0" * cols)] * rows)
    values = flat[others].tolist()
    pieces, start = [], 0
    for index, value in zip(others.tolist(), values):
        # each '0' is one character; ', ' follows it within a row, between after a row
        at = 3 * index + (len(between) - 2) * (index // cols)
        pieces += (text[start:at], _FLOAT if value else "-0")
        start = at + 1
    pieces.append(text[start:])
    return "".join(pieces), [value for value in values if value]


def _float17_join(blocks: list) -> list[str]:
    """'%.17g' % v of each value of finite float64 blocks, one text per block of its rows.

    A block is (flat, cols, between): ', ' follows each value but the last
    of a row, and between each row but the last.  The one pass that formats
    array values.  From _KERNEL_MIN nonzero values on it is the kernel's
    text, exact zeros laid out with it, and '%' is left the values the
    kernel sends back.  Below, it is one '%' per block over a row template;
    when more than half the values are 0, the zeros are written in the
    templates and '%' fills only the nonzero values.  No between may hold a
    '%' or a _SLOT.
    """
    count = sum(len(flat) for flat, _, _ in blocks)
    others = [None] * len(blocks)
    # finding the zeros costs a pass over the values; below _KERNEL_MIN
    # values it is made only when a block ends in 0, as a state's high levels do
    if count >= _KERNEL_MIN or not all(flat[-1] for flat, _, _ in blocks):
        # the values whose bits are not all zero: every value but 0
        found = [np.flatnonzero(flat.view(np.int64)) for flat, _, _ in blocks]
        total = sum(map(len, found))
        if total >= _KERNEL_MIN:
            values = np.concatenate([flat for flat, _, _ in blocks])
            nonzero = np.flatnonzero(values)
            if len(nonzero) >= _KERNEL_MIN:
                return _kernel_join(blocks, values, nonzero).split(_SLOT)[:-1]
        if 2 * total < count:
            others = found
    return [
        _percent(*_template(flat, cols, between, indices)) for (flat, cols, between), indices in zip(blocks, others)
    ]


def _kernel_join(blocks: list, values: np.ndarray, nonzero: np.ndarray) -> str:
    """The kernel's text of the blocks' values, each block's rows ending in a _SLOT.

    Each full-length temporary is dropped once it has been read, so the two
    byte matrices and the kept bytes are most of the working set.
    """
    count = len(values)
    separators = [", ", _SLOT]
    picks = np.zeros(count, np.intp)
    stop = 0
    for flat, cols, between in blocks:
        if between not in separators:
            separators.append(between)
        start, stop = stop, stop + len(flat)
        picks[start + cols - 1 : stop : cols] = separators.index(between)
        picks[stop - 1] = 1
    rows = nonzero if len(nonzero) < count else slice(None)
    code, digits, exponents = _kernel_digits(values[rows])
    redo = nonzero[code == _PERCENT]
    ends = "".join(separators).encode("ascii")
    width = len(_SOURCE) + len(ends)
    source = np.frombuffer(bytearray(_SOURCE + ends) * count, np.uint8).reshape(count, width)
    source[rows, _WHOLE : _WHOLE + 17] = digits
    source[rows, _FRACTION : _FRACTION + 17] = digits
    source[rows, _POWER : _POWER + 3] = exponents
    del digits, exponents
    codes = np.where(np.signbit(values), _NEGATIVE_ZERO, _ZERO)
    codes[rows] = code
    del code
    starts = np.cumsum([0, *map(len, separators)])
    separated = (np.arange(len(ends)) >= starts[:-1, None]) & (np.arange(len(ends)) < starts[1:, None])
    keep = _whole_rows(width).take(codes, axis=0)
    del codes
    keep[:, len(_SOURCE) :] = separated.take(picks, axis=0)
    del picks
    kept = source[keep]
    del source, keep
    # str decodes the kept bytes in place, with no bytes copy
    text = str(kept, "ascii")
    del kept
    return _percent(text, values[redo].tolist()) if len(redo) else text


def _float17_texts(values: np.ndarray) -> list[str]:
    """'%.17g' % v of each element of a finite 1-d float64 array, through _float17_join."""
    if not len(values):
        return []
    return _float17_join([(values, 1, "\n")])[0].split("\n")


def _render_rows(arr: np.ndarray, level: int, blocks: list) -> str:
    """A real 2-d array as the JSON of arr.tolist(), its rows left to ``_float17_join``.

    The text holds a _SLOT for the rows, and blocks gains the values, the
    number of columns and the text between two rows.
    """
    flat = arr.ravel()
    finite = np.isfinite(flat)
    # count_nonzero costs half of finite.all() on a state's few hundred values
    if np.count_nonzero(finite) < len(flat):
        raise _non_finite(float(flat[~finite][0]))
    rows, cols = arr.shape
    if not rows:
        return "[]"
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if not cols:
        return "[\n" + inner + (",\n" + inner).join(["[]"] * rows) + "\n" + pad + "]"
    blocks.append((flat, cols, "],\n" + inner + "["))
    return "[\n" + inner + "[" + _SLOT + "]\n" + pad + "]"


def _render(value, level: int, blocks: list) -> str:
    # floats first: most scalars of a payload are floats, and no bool is one
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _non_finite(value)
        return _FLOAT % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64:
        return _render_rows(value, level, blocks)
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(str(key))}: {_render(item, level + 1, blocks)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        if all(_is_scalar(item) for item in value):
            return "[" + ", ".join(_render(item, level + 1, blocks) for item in value) + "]"
        items = [f"{inner}{_render(item, level + 1, blocks)}" for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(payload) -> str:
    """Render a payload as deterministic, indented JSON (no trailing newline).

    Besides JSON scalars, lists, tuples and dicts, a payload may hold real 2-d
    float64 arrays; each renders as the list of its rows, and the values of
    all of them are formatted in one ``_float17_join`` pass.
    """
    blocks: list = []
    text = _render(payload, 0, blocks)
    if not blocks:
        return text
    pieces = text.split(_SLOT)
    parts = [pieces[0]]
    for rows, piece in zip(_float17_join(blocks), pieces[1:]):
        parts += (rows, piece)
    return "".join(parts)


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
    values = keys.view(np.float64)
    finite = np.isfinite(values)
    texts = np.empty(len(keys), dtype=object)
    texts[finite] = _float17_texts(values[finite])
    texts[~finite] = [_FLOAT % value for value in values[~finite].tolist()]  # inf, -inf and nan
    return texts[inverse.reshape(stacked.shape)].tolist()


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
