import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import float17_corpus
from superq import serialize
from superq.serialize import csv_cell, csv_text, dumps

EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-300,
    1e300,
    1.0,
    0.1,
)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# up to nine columns, and up to twice the kernel's crossover in rows, so many
# arrays reach the kernel and many stay below it
ARRAYS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 2 * serialize._KERNEL_MIN), st.integers(0, 9)),
    elements=FINITE,
)


def percent_texts(values) -> list[str]:
    return [format(value, ".17g") for value in np.asarray(values).tolist()]


class TestArrays:
    @settings(max_examples=300, deadline=None)
    @given(ARRAYS)
    def test_array_renders_as_its_nested_list(self, arr):
        assert dumps(arr) == dumps(arr.tolist())
        assert dumps({"psi": arr}) == dumps({"psi": arr.tolist()})

    @settings(max_examples=300, deadline=None)
    @given(ARRAYS)
    def test_every_float_round_trips(self, arr):
        # '-0' and '1' read back as JSON integers; parse_int keeps the sign of zero
        loaded = np.array(json.loads(dumps(arr), parse_int=float), dtype=np.float64)
        loaded = loaded.reshape(arr.shape)
        assert loaded.tobytes() == arr.tobytes()

    def test_complex_view_renders_re_im_pairs(self):
        coeffs = np.array([1 - 0.5j, complex(-0.0, 2e-310), 0.1 + 0j])
        pairs = coeffs.view(np.float64).reshape(-1, 2)
        expected = [[c.real, c.imag] for c in coeffs]
        assert dumps({"psi0": pairs}) == dumps({"psi0": expected})
        assert dumps(pairs).splitlines()[2] == f"  [-0, {format(2e-310, '.17g')}],"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "shape,index", [((1, 1), (0, 0)), ((4, 2), (3, 1)), ((3, 5), (1, 2)), ((300, 2), (299, 0)), ((400, 1), (7, 0))]
    )
    def test_non_finite_array_raises_like_the_list(self, bad, shape, index):
        arr = np.arange(float(np.prod(shape))).reshape(shape)
        arr[index] = bad
        with pytest.raises(ValueError) as from_list:
            dumps(arr.tolist())
        with pytest.raises(ValueError) as from_array:
            dumps(arr)
        assert str(from_array.value) == str(from_list.value)
        assert str(from_array.value) == f"non-finite float {bad} cannot be serialized to JSON"

    def test_first_non_finite_is_named(self):
        arr = np.array([[1.0, -math.inf], [math.nan, 2.0]])
        with pytest.raises(ValueError, match="non-finite float -inf"):
            dumps(arr)
        # a finite block past the crossover before it changes nothing
        finite = np.linspace(0.1, 1.0, 2 * serialize._KERNEL_MIN).reshape(-1, 2)
        with pytest.raises(ValueError, match="non-finite float -inf"):
            dumps({"psi0": finite, "psi1": np.vstack([finite, arr])})

    @pytest.mark.parametrize(
        "arr", [np.zeros((2, 2), dtype=np.complex128), np.zeros(3), np.zeros((2, 2), dtype=np.int64)]
    )
    def test_other_arrays_refused(self, arr):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            dumps(arr)


class TestFloatKernel:
    """_float17_texts gives each array value the text of '%.17g', below the crossover and past it."""

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.uint64,
            st.integers(serialize._KERNEL_MIN, 3 * serialize._KERNEL_MIN),
            elements=st.integers(0, 2**64 - 1),
        )
    )
    def test_raw_bit_patterns(self, bits):
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert serialize._float17_texts(values) == percent_texts(values)

    def test_corpus(self):
        corpus = float17_corpus()
        assert serialize._float17_texts(corpus) == percent_texts(corpus)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_a_missed_exponent_goes_to_percent(self, monkeypatch, shift):
        # the kernel reads log10 only as an estimate, which a SIMD level may round either way
        values = np.geomspace(1e-300, 1e300, 2 * serialize._KERNEL_MIN)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        assert serialize._float17_texts(values) == percent_texts(values)

    def test_ties_go_to_percent(self, monkeypatch):
        sent = []
        percent = serialize._percent

        def counted(template, values):
            sent.extend(values)
            return percent(template, values)

        monkeypatch.setattr(serialize, "_percent", counted)
        ties = [562949953421312.125, 562949953421312.375]
        values = np.array([*ties, *np.linspace(0.5, 1.5, serialize._KERNEL_MIN)])
        texts = serialize._float17_texts(values)
        assert texts[:2] == ["562949953421312.12", "562949953421312.38"]
        assert texts == percent_texts(values)
        assert sent == ties

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 120),
        st.lists(st.tuples(st.integers(0, 2000), st.sampled_from([-0.0, *EDGE_FLOATS])), max_size=40),
    )
    def test_zeros_written_in_the_template(self, cols, rows, specials):
        # mostly 0, ending in 0, with -0 and other values anywhere, beside a one-column block
        arr = np.zeros((rows, cols))
        for index, value in specials:
            arr.flat[index % arr.size] = value
        arr.flat[-1] = 0.0
        column = arr.ravel()[::-1, None].copy()
        sent = []
        percent = serialize._percent

        def counted(template, values):
            sent.extend(values)
            return percent(template, values)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_percent", counted)
            text = dumps({"psi0": arr, "psi1": column})
        assert text == dumps({"psi0": arr.tolist(), "psi1": column.tolist()})
        values = np.concatenate([arr.ravel(), column.ravel()])
        nonzero = values[values != 0]
        if 2 * np.count_nonzero(values.view(np.int64)) < values.size and len(nonzero) < serialize._KERNEL_MIN:
            # the zeros are written in, and '%' fills only the nonzero values
            assert sent == nonzero.tolist()

    @pytest.mark.parametrize("count", [600, 2409])
    def test_working_set_is_the_two_byte_matrices(self, count):
        # each full-length temporary is dropped once read, so two (count, 56)-byte matrices
        # and the kept text, ~140 bytes a value, are most of the peak
        rng = np.random.default_rng(count)
        values = rng.standard_normal(count) * 10.0 ** rng.uniform(-20, 20, count)
        expected = percent_texts(values)
        assert serialize._float17_texts(values) == expected  # builds the tables outside the trace
        tracemalloc.start()
        try:
            texts = serialize._float17_texts(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert texts == expected
        assert peak <= 200 * count

    @pytest.mark.parametrize("count", [serialize._KERNEL_MIN - 1, serialize._KERNEL_MIN])
    def test_both_sides_of_the_crossover(self, count, monkeypatch):
        kernels = []
        kernel = serialize._kernel_digits
        monkeypatch.setattr(serialize, "_kernel_digits", lambda values: kernels.append(len(values)) or kernel(values))
        # count nonzero values, and two zeros that do not count
        values = np.geomspace(1e-300, 1.0, count) * np.resize([1.0, -1.0], count)
        values = np.insert(values, [0, count // 2], [0.0, -0.0])
        assert serialize._float17_texts(values) == percent_texts(values)
        column = values[:, None]
        assert dumps({"psi0": column}) == dumps({"psi0": column.tolist()})
        assert kernels == ([count] * 2 if count >= serialize._KERNEL_MIN else [])


class TestScalars:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_raises(self, bad):
        with pytest.raises(ValueError, match=f"non-finite float {bad} cannot be serialized"):
            dumps({"x": [1.0, bad]})

    @settings(max_examples=300, deadline=None)
    @given(FINITE)
    def test_scalar_uses_seventeen_digits(self, x):
        assert dumps(x) == format(x, ".17g")

    def test_int_above_two_to_the_53_exact(self):
        assert dumps([2**53 + 1, 2**80]) == f"[{2**53 + 1}, {2**80}]"

    def test_empty_containers(self):
        assert dumps([]) == "[]"
        assert dumps({}) == "{}"
        nested = {"a": [], "b": {}, "c": np.empty((0, 2))}
        assert dumps(nested) == '{\n  "a": [],\n  "b": {},\n  "c": []\n}'
        assert dumps(np.empty((3, 0))) == dumps([[], [], []])


def reference_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


CELLS = st.one_of(
    FINITE,
    st.sampled_from([math.inf, -math.inf]),
    st.integers(),
    st.integers(min_value=2**53, max_value=2**200),
    st.text(alphabet="abc%s", max_size=4),
)


def columns(rows: list[list]) -> list[list]:
    """The columns of a rectangular table given as rows, the shape csv_text takes."""
    return [list(column) for column in zip(*rows)]


def reference_table(header: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(header)] + [",".join(map(reference_cell, row)) for row in rows])


# rectangular tables of at least one column, cells mixed within each column
TABLES = st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8)
)


def nan_with_payload(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# repeats across cells are the point: each float column draws from a small pool
POOL_FLOATS = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            math.inf,
            -math.inf,
            nan_with_payload(0x7FF8000000000000),
            nan_with_payload(0xFFF8000000000123),
            5e-324,
            -2.2250738585072009e-308,
            1e300,
            -1e-300,
        ]
    ),
    st.floats(),
)
STR_CELLS = st.text(alphabet="abc%s.", max_size=4)
INT_CELLS = st.one_of(st.integers(-3, 3), st.integers(min_value=2**53, max_value=2**200))


@st.composite
def column_tables(draw):
    """(columns, rows): float64 array, str and int columns of one length, and their rows."""
    length = draw(st.integers(0, 12))

    def cells(elements):
        return st.lists(elements, min_size=length, max_size=length)

    table, values = [], []
    for kind in draw(st.lists(st.sampled_from(["float", "str", "int"]), min_size=1, max_size=7)):
        if kind == "float":
            pool = draw(st.lists(POOL_FLOATS, min_size=1, max_size=4))
            column = draw(cells(st.sampled_from(pool)))
            table.append(np.array(column, dtype=np.float64))
        else:
            column = draw(cells(STR_CELLS if kind == "str" else INT_CELLS))
            table.append(column)
        values.append(column)
    return table, [list(row) for row in zip(*values)]


class TestCsv:
    @settings(max_examples=300, deadline=None)
    @given(TABLES)
    def test_matches_per_cell_join(self, rows):
        assert csv_text(["x", "y"], columns(rows)) == reference_table(["x", "y"], rows)

    def test_mixed_int_float_rows(self):
        rows = [[3, 2**53 + 1, 0.1, -0.0], [4, 2**80, 1.0, 1e22], [5, 7, math.inf, 0.5]]
        assert csv_text(["n", "f", "a", "b"], columns(rows)) == (
            "n,f,a,b\n"
            f"3,{2**53 + 1},0.10000000000000001,-0\n"
            f"4,{2**80},1,1e+22\n"
            "5,7,inf,0.5"
        )

    @pytest.mark.parametrize("row", [[True], [1.0, False], [0, 1, True]])
    def test_bool_refused(self, row):
        with pytest.raises(TypeError, match="booleans do not belong in CSV output"):
            csv_text(["h"], columns([row]))

    def test_no_rows_is_header_only(self):
        assert csv_text(["a", "b"], []) == "a,b"
        assert csv_text(["a", "b"], [np.empty(0), []]) == "a,b"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CELLS, min_size=1, max_size=6))
    def test_preformatted_cells_give_the_same_text(self, row):
        assert csv_text(["h"], [[",".join(map(csv_cell, row))]]) == csv_text(["h"], columns([row]))
        assert [csv_cell(cell) for cell in row] == [reference_cell(cell) for cell in row]

    @settings(max_examples=300, deadline=None)
    @given(column_tables())
    def test_array_columns_match_per_cell_join(self, table_and_rows):
        table, rows = table_and_rows
        assert csv_text(["h"], table) == reference_table(["h"], rows)

    def test_signed_zeros_and_nan_payloads(self):
        nans = [nan_with_payload(0x7FF8000000000000), nan_with_payload(0xFFF8000000000123)]
        column = np.array([0.0, -0.0, *nans, -0.0, 0.0, 5e-324])
        assert csv_text(["h"], [column]) == "h\n0\n-0\nnan\nnan\n-0\n0\n4.9406564584124654e-324"

    @pytest.mark.parametrize(
        "column",
        [np.zeros(2, dtype=np.float32), np.zeros((2, 1)), np.array([1, 2]), np.array([True, False])],
    )
    def test_other_arrays_refused(self, column):
        with pytest.raises(TypeError, match="as a CSV column"):
            csv_text(["h"], [column])

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError, match="CSV columns must have equal lengths"):
            csv_text(["a", "b"], [np.zeros(2), [1, 2, 3]])


class TestStringEscaper:
    """Dict keys and str values render as json.dumps renders them."""

    STRINGS = ['plain', 'quote"d', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "zéta ψ₀ 🙂", "\ud800", ""]

    @pytest.mark.parametrize(
        "key, text",
        [
            *((key, json.dumps(key)) for key in STRINGS),
            # 1, True and 1.0 hash alike; each key renders as its own str
            (1, '"1"'),
            (True, '"True"'),
            (1.0, '"1.0"'),
        ],
    )
    def test_key_and_value_render_as_json_dumps(self, key, text):
        assert dumps({key: 0}) == "{\n  " + text + ": 0\n}"
        if isinstance(key, str):
            assert dumps({key: key}) == "{\n  " + text + ": " + text + "\n}"
            assert json.loads(dumps({key: key})) == {key: key}

    @given(st.text(max_size=12))
    def test_any_text_key(self, key):
        text = json.dumps(key)
        assert dumps({key: [key]}) == dumps({key: [key]}) == "{\n  " + text + ": [" + text + "]\n}"
